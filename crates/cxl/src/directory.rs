//! Simulator component wrapping the [`crate::dcoh::DcohEngine`].

use std::any::Any;

use c3_protocol::msg::SysMsg;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::fault::ResilienceConfig;
use c3_sim::time::Delay;
use c3_sim::trace::InflightTxn;

use crate::dcoh::{DcohEffect, DcohEngine};

/// Wake token for the snoop-deadline scan.
const TIMER_TOKEN: u64 = 1;

/// The CXL memory device: DCOH directory + DDR5 back-end (Table III:
/// 10 ns access latency).
#[derive(Debug)]
pub struct CxlDirectory {
    name: String,
    engine: DcohEngine,
    /// The engine's effect buffer, cleared and reused for every call.
    effects: Vec<DcohEffect>,
    mem_latency: Delay,
    retry: Option<ResilienceConfig>,
    /// Whether a deadline-scan wakeup is already scheduled.
    armed: bool,
    /// Emit line-store footprint gauges/report lines. Off by default:
    /// the extra keys would shift the pinned report/metrics fingerprints
    /// of existing configurations.
    state_metrics: bool,
}

impl CxlDirectory {
    /// Create the device; `mem_latency` is the DDR access time added in
    /// front of memory-sourced responses.
    pub fn new(name: impl Into<String>, mem_latency: Delay) -> Self {
        CxlDirectory {
            name: name.into(),
            engine: DcohEngine::new(),
            effects: Vec::new(),
            mem_latency,
            retry: None,
            armed: false,
            state_metrics: false,
        }
    }

    /// Opt in to the DCOH's footprint group
    /// (`c3_sim::lines::Footprint::emit`).
    pub fn set_state_metrics(&mut self, on: bool) {
        self.state_metrics = on;
    }

    /// Enable snoop timeout/retry and the engine's resilient mode
    /// (duplicate suppression, stale-writeback guard).
    pub fn with_resilience(mut self, policy: ResilienceConfig) -> Self {
        self.retry = Some(policy);
        self.engine.resilient = true;
        self
    }

    /// Access the underlying engine (inspection / seeding).
    pub fn engine(&self) -> &DcohEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (seeding memory).
    pub fn engine_mut(&mut self) -> &mut DcohEngine {
        &mut self.engine
    }

    /// Carry out the effects the engine left in `self.effects`, then
    /// empty the buffer for the next call.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        for effect in self.effects.drain(..) {
            match effect {
                DcohEffect::Send {
                    dst,
                    msg,
                    needs_memory,
                } => {
                    if needs_memory {
                        ctx.send_after(dst, SysMsg::Cxl(msg), self.mem_latency);
                    } else {
                        ctx.send(dst, SysMsg::Cxl(msg));
                    }
                }
            }
        }
    }

    /// Keep one deadline-scan wakeup in flight while snoops are blocking.
    fn rearm(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        if let Some(p) = self.retry {
            if !self.armed && !self.engine.idle() {
                self.armed = true;
                ctx.wake_after(p.timeout, TIMER_TOKEN);
            }
        }
    }
}

impl Component<SysMsg> for CxlDirectory {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        c3_sim::sim_trace!("[{}] {} <- {src}: {msg:?}", ctx.now, self.name);
        let SysMsg::Cxl(m) = msg else {
            panic!("CXL directory received {msg:?}");
        };
        self.engine
            .handle_at(src, m, Some(ctx.now), &mut self.effects);
        self.dispatch(ctx);
        self.rearm(ctx);
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        if token != TIMER_TOKEN {
            return;
        }
        self.armed = false;
        if let Some(p) = self.retry {
            self.engine.expire_snoops(ctx.now, p, &mut self.effects);
            self.dispatch(ctx);
        }
        self.rearm(ctx);
    }

    fn done(&self) -> bool {
        self.engine.idle()
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        let n = &self.name;
        let (lines, blocking, queued, fanout) = self.engine.occupancy();
        out.gauge(n, "lines", lines as f64);
        out.gauge(n, "blocking_snoops", blocking as f64);
        out.gauge(n, "queued", queued as f64);
        out.gauge(n, "bisnp_waiting", fanout as f64);
        out.counter(n, "stalled_requests", self.engine.stalled_requests as f64);
        out.counter(n, "bisnp_sent", self.engine.bisnp_sent as f64);
        out.counter(n, "conflicts", self.engine.conflicts as f64);
        out.counter(n, "writebacks", self.engine.writebacks as f64);
        // The resilience group exists only when the retry policy is
        // configured, so default-wired runs keep byte-identical reports.
        if self.retry.is_some() {
            let e = &self.engine;
            out.counter(n, "dup_suppressed", e.dup_suppressed as f64);
            out.counter(n, "stale_writebacks", e.stale_writebacks as f64);
            out.counter(n, "grants_replayed", e.grants_replayed as f64);
            out.counter(n, "bisnp_resent", e.bisnp_resent as f64);
            out.counter(n, "snoops_forced", e.snoops_forced as f64);
        }
        if self.state_metrics {
            self.engine.footprint().emit(out, n, false);
        }
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        out.extend(self.engine.inflight(self_id));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
