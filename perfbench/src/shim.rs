//! The traced build: the same system `c3_bench::build_sim` assembles,
//! with generation timed apart from the build and every core wrapped in
//! a timing shim.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c3::system::{ClusterSpec, SystemBuilder, SystemHandles};
use c3_mcm::core_model::{CoreConfig, TimingCore};
use c3_protocol::msg::SysMsg;
use c3_protocol::ops::ThreadProgram;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::kernel::Simulator;
use c3_sim::metrics::MetricSample;
use c3_sim::stats::Report;
use c3_sim::trace::InflightTxn;

use crate::case::SimCase;

/// Host time and call count of every core, shared by the shims of one
/// simulator. The run is single-threaded; the atomics only make the
/// shims `Send`, as components must be.
#[derive(Debug, Default)]
pub struct CoreClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl CoreClock {
    fn charge(&self, since: Instant) {
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Host time spent inside the cores so far.
    pub fn host(&self) -> Duration {
        Duration::from_nanos(self.ns.load(Ordering::Relaxed))
    }

    /// Calls into the cores so far (`start`, `handle` and `on_wake`).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`TimingCore`] that charges the host time of each call to a
/// [`CoreClock`]. `as_any` hands out the inner core, so
/// `component_as::<TimingCore>` and `c3_bench::exec_times` still work.
struct TimedCore {
    inner: TimingCore,
    clock: Arc<CoreClock>,
}

impl Component<SysMsg> for TimedCore {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        let t = Instant::now();
        self.inner.handle(msg, src, ctx);
        self.clock.charge(t);
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        let t = Instant::now();
        self.inner.on_wake(token, ctx);
        self.clock.charge(t);
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let t = Instant::now();
        self.inner.start(ctx);
        self.clock.charge(t);
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn report(&self, out: &mut Report) {
        self.inner.report(out);
    }

    fn metrics(&self, out: &mut MetricSample) {
        self.inner.metrics(out);
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        self.inner.inflight(self_id, out);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Generate every core's program, as `build_sim`'s core factory does.
pub fn generate(case: &SimCase) -> Vec<ThreadProgram> {
    let n = case.threads();
    (0..n)
        .map(|t| {
            case.spec
                .generate(t, n, case.cfg.ops_per_core, case.cfg.seed)
        })
        .collect()
}

/// Assemble the system of `c3_bench::build_sim` from pre-generated
/// `programs`, with each core behind a shim charging `clock`. Telemetry
/// is not enabled here; the caller decides.
///
/// This mirrors `build_sim` line for line except for the core factory;
/// the benchmark checks that both builds render the same report.
pub fn build_traced(
    case: &SimCase,
    programs: Vec<ThreadProgram>,
    clock: &Arc<CoreClock>,
) -> (Simulator<SysMsg>, SystemHandles) {
    let cfg = &case.cfg;
    let clusters: Vec<ClusterSpec> = (0..cfg.clusters)
        .map(|ci| {
            let proto = if ci % 2 == 0 {
                cfg.protocols.0
            } else {
                cfg.protocols.1
            };
            ClusterSpec::new(proto, cfg.cores_per_cluster).with_l1(cfg.l1.0, cfg.l1.1)
        })
        .collect();
    let builder = SystemBuilder::new(clusters, cfg.global)
        .cxl_cache(cfg.cxl_cache.0, cfg.cxl_cache.1)
        .seed(cfg.seed)
        .link_latency(cfg.link_latency)
        .ordered_s2m(cfg.ordered_s2m);
    let mut programs: Vec<Option<ThreadProgram>> = programs.into_iter().map(Some).collect();
    let (mcms, protocols, seed, per) = (cfg.mcms, cfg.protocols, cfg.seed, cfg.cores_per_cluster);
    let (mut sim, handles) = builder.build(|ci, k, l1| {
        let thread = ci * per + k;
        let (mcm, family) = if ci % 2 == 0 {
            (mcms.0, protocols.0)
        } else {
            (mcms.1, protocols.1)
        };
        let program = programs[thread].take().expect("one program per core");
        Box::new(TimedCore {
            inner: TimingCore::new(
                format!("c{ci}.core{k}"),
                l1,
                CoreConfig::new(mcm, family),
                program,
                seed ^ (thread as u64) << 32,
            ),
            clock: Arc::clone(clock),
        })
    });
    sim.set_event_limit(400_000_000);
    if cfg.state_metrics {
        for &l1 in handles.l1s.iter().flatten() {
            if let Some(c) = sim.component_as_mut::<c3_memsys::L1Controller>(l1) {
                c.set_state_metrics(true);
            }
        }
        for &b in &handles.bridges {
            if let Some(c) = sim.component_as_mut::<c3::bridge::C3Bridge>(b) {
                c.set_state_metrics(true);
            }
        }
        for &d in &handles.global_dirs {
            if let Some(c) = sim.component_as_mut::<c3_cxl::CxlDirectory>(d) {
                c.set_state_metrics(true);
            }
            if let Some(c) = sim.component_as_mut::<c3_memsys::GlobalMesiDir>(d) {
                c.set_state_metrics(true);
            }
        }
    }
    (sim, handles)
}
