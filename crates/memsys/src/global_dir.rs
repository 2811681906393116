//! The baseline global directory (MESI-MESI-MESI top level).
//!
//! In the paper's baseline configuration the two clusters are joined by a
//! *hierarchical MESI* global protocol instead of CXL; the C³ bridges act
//! as passive caches of this directory. The component wraps
//! [`crate::direngine::DirEngine`] with an always-granting backend (it sits
//! next to the memory device, so every line is readable and writable) and
//! a DDR5-like access latency applied to directory-sourced data responses
//! (Table III: 10 ns).

use std::any::Any;

use c3_protocol::msg::{HostMsg, SysMsg};
use c3_protocol::ssp::SspSpec;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::time::Delay;
use c3_sim::trace::InflightTxn;

use crate::direngine::{BackendPerms, DirEffect, DirEngine};

/// Global directory component for the hierarchical host-protocol baseline.
#[derive(Debug)]
pub struct GlobalMesiDir {
    name: String,
    engine: Option<DirEngine>,
    /// The global protocol's SSP, which the engine runs.
    spec: SspSpec,
    mem_latency: Delay,
    /// The engine's effect buffer, cleared and reused for every message.
    effects: Vec<DirEffect>,
    data_responses: u64,
    /// Emit line-store footprint gauges/report lines. Off by default:
    /// the extra keys would shift the pinned report/metrics fingerprints
    /// of existing configurations.
    state_metrics: bool,
}

impl GlobalMesiDir {
    /// Create the directory; `spec` is the global protocol's SSP (MESI for
    /// the paper's baseline), `mem_latency` the DDR access time added to
    /// directory-sourced data.
    pub fn new(name: impl Into<String>, spec: &SspSpec, mem_latency: Delay) -> Self {
        GlobalMesiDir {
            name: name.into(),
            engine: None,
            spec: spec.clone(),
            mem_latency,
            effects: Vec::new(),
            data_responses: 0,
            state_metrics: false,
        }
    }

    /// Opt in to the directory's footprint group
    /// (`c3_sim::lines::Footprint::emit`).
    pub fn set_state_metrics(&mut self, on: bool) {
        self.state_metrics = on;
    }

    fn engine(&mut self, self_id: ComponentId) -> &mut DirEngine {
        if self.engine.is_none() {
            self.engine = Some(DirEngine::new(&self.spec, self_id));
        }
        self.engine.as_mut().expect("just initialized")
    }

    /// Seed initial memory contents (tests / litmus initialization).
    pub fn seed_data(&mut self, self_id: ComponentId, addr: c3_protocol::Addr, data: u64) {
        self.engine(self_id).seed_data(addr, data);
    }

    /// Final memory contents of a line.
    pub fn data(&self, addr: c3_protocol::Addr) -> u64 {
        self.engine.as_ref().map(|e| e.data(addr)).unwrap_or(0)
    }

    fn apply(&mut self, effects: &[DirEffect], ctx: &mut Ctx<'_, SysMsg>) {
        for &e in effects {
            match e {
                DirEffect::Send { dst, msg } => {
                    if matches!(msg, HostMsg::Data { .. }) {
                        // Data supplied by the directory comes out of the
                        // memory device: add the DDR access latency.
                        self.data_responses += 1;
                        ctx.send_after(dst, SysMsg::Host(msg), self.mem_latency);
                    } else {
                        ctx.send(dst, SysMsg::Host(msg));
                    }
                }
                DirEffect::DataUpdated { .. } | DirEffect::TxnDone { .. } => {}
                DirEffect::BackendRead { .. } | DirEffect::BackendWrite { .. } => {
                    unreachable!("top-level directory always has permission")
                }
                DirEffect::RecallDone { .. } => {
                    unreachable!("nothing recalls the top-level directory")
                }
            }
        }
    }
}

impl Component<SysMsg> for GlobalMesiDir {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        c3_sim::sim_trace!("[{}] {} <- {src}: {msg:?}", ctx.now, self.name);
        let SysMsg::Host(h) = msg else {
            panic!("global directory received {msg:?}");
        };
        let mut effects = std::mem::take(&mut self.effects);
        effects.clear();
        self.engine(ctx.self_id)
            .handle_host(src, h, BackendPerms::ALL, &mut effects);
        self.apply(&effects, ctx);
        self.effects = effects;
    }

    fn done(&self) -> bool {
        self.engine.as_ref().map(|e| e.idle()).unwrap_or(true)
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        // The engine is created lazily on first traffic; emit zeros until
        // then so the telemetry schema stays fixed across the run.
        let n = &self.name;
        let e = self.engine.as_ref();
        let (lines, busy, queued) = e.map_or((0, 0, 0), |e| e.occupancy());
        out.gauge(n, "lines", lines as f64);
        out.gauge(n, "busy_lines", busy as f64);
        out.gauge(n, "queued", queued as f64);
        let count = |f: fn(&DirEngine) -> u64| e.map_or(0, f) as f64;
        out.counter(n, "stalled_requests", count(|e| e.stalled_requests));
        out.counter(n, "recalls", count(|e| e.recalls));
        out.counter(n, "backend_reads", count(|e| e.backend_reads));
        out.counter(n, "backend_writes", count(|e| e.backend_writes));
        out.counter(n, "data_responses", self.data_responses as f64);
        if self.state_metrics {
            let f = e.map(|e| e.footprint()).unwrap_or_default();
            f.emit(out, n, false);
        }
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        let Some(e) = &self.engine else { return };
        for b in e.busy_lines() {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(b.addr.0),
                kind: "directory txn".into(),
                since: None,
                waiting_on: b.waiting_on,
                detail: if b.queued > 0 {
                    format!("{}; {} queued request(s)", b.desc, b.queued)
                } else {
                    b.desc
                },
            });
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
