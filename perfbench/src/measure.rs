//! One repetition of a workload: set up, run, check, and (when traced)
//! time each layer from outside, around the calls into its public API.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c3::bridge::bridge_transition_table;
use c3::system::SystemHandles;
use c3_bench::alloc::alloc_count;
use c3_bench::{build_sim, exec_times};
use c3_cxl::dcoh::dcoh_transition_table;
use c3_mcm::core_model::TimingCore;
use c3_memsys::{AccessKind, L1Controller};
use c3_protocol::msg::SysMsg;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::{RunOutcome, Simulator};
use c3_sim::stats::{Band, LatencyHistogram, Report};
use c3_sim::time::Delay;
use c3_verif::resilient::{check_resilient, ResilientResult};
use c3_verif::static_checks::check_model_conformance;

use crate::case::Case;
use crate::shim::{build_traced, generate, CoreClock};
use crate::stats::{fnv1a, quantile_ns};

/// Set-up is repeated until at least this much host time has gone into
/// it, and the mean per build is reported: a single sub-millisecond build
/// is at the mercy of one page fault or preemption.
const SETUP_FLOOR: Duration = Duration::from_millis(25);

/// Telemetry interval for the traced run: longer than any simulated run,
/// so the hub only counts events and samples once, after the run.
const TELEMETRY_INTERVAL: Delay = Delay::from_ns(1 << 40);

/// What every repetition of a case must reproduce.
#[derive(Clone, Debug)]
pub struct Expect {
    /// Instruction count of every core's program, in thread order.
    program_lens: Vec<usize>,
}

impl Expect {
    /// Generate the case's programs once to learn their lengths.
    pub fn new(case: &Case) -> Expect {
        Expect {
            program_lens: generate(&case.sim).iter().map(|p| p.len()).collect(),
        }
    }
}

/// Per-layer figures of one traced repetition, named as in
/// [`crate::output::PER_LAYER`].
pub type Layers = Vec<(&'static str, f64)>;

/// The measured outcome of one repetition that passed its checks.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds of set-up (generation, build, model configuration).
    pub setup_s: f64,
    /// Host seconds of the timed run, report collection included.
    pub wall_s: f64,
    /// Kernel events (simulator workloads) or canonical states explored
    /// (`modelcheck`) in the timed run.
    pub work: f64,
    /// Simulated µs until the last core finished.
    pub sim_exec_us: f64,
    /// Simulated p99 L1 miss latency over all L1s and access kinds.
    pub sim_lat_p99_ns: f64,
    /// FNV-1a of the rendered report (and explorer counts); equal for
    /// every repetition of one seed, traced or not.
    pub fingerprint: u64,
    /// Per-layer figures (traced repetitions only).
    pub layers: Option<Layers>,
}

/// Repeat `build` until [`SETUP_FLOOR`] of host time has been spent in
/// it, dropping earlier results outside the timed region. Returns the
/// last result and the number of calls made.
fn batched<T>(mut build: impl FnMut() -> T) -> (T, u32) {
    let mut spent = Duration::ZERO;
    let mut calls = 0;
    loop {
        let t = Instant::now();
        let out = build();
        spent += t.elapsed();
        calls += 1;
        if spent >= SETUP_FLOOR {
            return (out, calls);
        }
    }
}

/// The system after its timed run, before checks.
struct SimRun {
    sim: Simulator<SysMsg>,
    handles: SystemHandles,
    outcome: RunOutcome,
    report: Report,
    exec_ns: u64,
    run: Duration,
    report_host: Duration,
}

fn run_sim(mut sim: Simulator<SysMsg>, handles: SystemHandles) -> SimRun {
    let t = Instant::now();
    let outcome = sim.run();
    let run = t.elapsed();
    let t = Instant::now();
    let report = sim.report();
    let (exec_ns, _) = exec_times(&sim, &handles);
    let report_host = t.elapsed();
    SimRun {
        sim,
        handles,
        outcome,
        report,
        exec_ns,
        run,
        report_host,
    }
}

/// The report as `--bin report_dump` renders it, minus the `metrics.`
/// keys the traced run's telemetry adds.
fn render(exec_ns: u64, report: &Report) -> String {
    let mut lines: Vec<String> = report
        .iter()
        .filter(|(k, _)| !k.starts_with("metrics."))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    lines.sort_unstable();
    format!("exec_ns={exec_ns}\n{}", lines.join("\n"))
}

/// The output checks of a simulated run: it completed, every core
/// finished and retired its whole program, and no L1 recorded a
/// protocol violation.
fn check_sim(r: &SimRun, expect: &Expect) -> Result<(), String> {
    if r.outcome != RunOutcome::Completed {
        return Err(format!(
            "run ended {:?}\n{}",
            r.outcome,
            r.sim.post_mortem(r.outcome)
        ));
    }
    let names = r.sim.component_names();
    let cores = r.handles.cores.iter().flatten();
    for (thread, &id) in cores.enumerate() {
        let name = &names[id.index()];
        let core = r
            .sim
            .component_as::<TimingCore>(id)
            .ok_or_else(|| format!("{name} is not a timing core"))?;
        if core.finished_at().is_none() {
            return Err(format!("{name} never finished"));
        }
        let retired = r.report.get(&format!("{name}.retired")).unwrap_or(0.0);
        let want = expect.program_lens[thread];
        if retired != want as f64 {
            return Err(format!("{name} retired {retired} of {want} instructions"));
        }
    }
    for &id in r.handles.l1s.iter().flatten() {
        let l1 = r
            .sim
            .component_as::<L1Controller>(id)
            .ok_or_else(|| format!("component {id} is not an L1"))?;
        if let Some(v) = l1.violations().first() {
            return Err(format!("protocol violation: {v}"));
        }
    }
    Ok(())
}

/// Explore the model and cross-check its witnesses against the dcoh and
/// bridge tables; the explorer's time and the conformance time apart.
fn explore(case: &Case) -> Result<Option<(ResilientResult, Duration, Duration)>, String> {
    let Some(model) = &case.model else {
        return Ok(None);
    };
    let t = Instant::now();
    let r = check_resilient(model);
    let explore = t.elapsed();
    let t = Instant::now();
    let dcoh = dcoh_transition_table();
    let bridge = bridge_transition_table(ProtocolFamily::Mesi);
    let defects = check_model_conformance(&r.witnesses, &[&dcoh, &bridge]);
    let conformance = t.elapsed();
    if let Some((v, _)) = &r.violation {
        return Err(format!("model checker found a violation: {v}"));
    }
    if r.truncated {
        return Err(format!(
            "exploration truncated at {} states",
            model.max_states
        ));
    }
    if let Some(d) = defects.first() {
        return Err(format!("model witness diverges from the tables: {d}"));
    }
    Ok(Some((r, explore, conformance)))
}

/// Merged L1 latency histogram over every L1 and access kind.
fn l1_histogram(sim: &Simulator<SysMsg>, handles: &SystemHandles) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    for l1 in l1s(sim, handles) {
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Rmw] {
            hist.merge(&l1.stats(kind).hist);
        }
    }
    hist
}

fn l1s<'a>(
    sim: &'a Simulator<SysMsg>,
    handles: &'a SystemHandles,
) -> impl Iterator<Item = &'a L1Controller> {
    handles
        .l1s
        .iter()
        .flatten()
        .filter_map(|&id| sim.component_as::<L1Controller>(id))
}

/// Run one repetition of `case`. A traced repetition builds through the
/// core shim, enables telemetry and fills [`Rep::layers`]; an untraced
/// one goes through `build_sim` and `Simulator::run` alone.
pub fn run_rep(case: &Case, traced: bool, expect: &Expect) -> Result<Rep, String> {
    let clock = Arc::new(CoreClock::default());
    let (mut gen, mut build) = (Duration::ZERO, Duration::ZERO);
    let ((sim, handles), calls) = if traced {
        batched(|| {
            let t = Instant::now();
            let programs = generate(&case.sim);
            gen += t.elapsed();
            let t = Instant::now();
            let (mut sim, handles) = build_traced(&case.sim, programs, &clock);
            sim.set_metrics(TELEMETRY_INTERVAL);
            build += t.elapsed();
            (sim, handles)
        })
    } else {
        batched(|| {
            let t = Instant::now();
            let out = build_sim(&case.sim.spec, &case.sim.cfg);
            build += t.elapsed();
            out
        })
    };
    let (gen, build) = (gen / calls, build / calls);
    let setup = gen + build;

    let t = Instant::now();
    let allocs = alloc_count();
    let mut r = run_sim(sim, handles);
    let allocs = alloc_count() - allocs;
    let explored = explore(case)?;
    let wall = t.elapsed();

    check_sim(&r, expect)?;
    let mut rendered = render(r.exec_ns, &r.report);
    let mut work = r.sim.events_processed() as f64;
    if let Some((m, ..)) = &explored {
        rendered.push_str(&format!(
            "\nmodel canonical={} unreduced={} edges={}",
            m.canonical_states, m.unreduced_states, m.edges
        ));
        work = m.canonical_states as f64;
    }
    let hist = l1_histogram(&r.sim, &r.handles);
    let layers = traced.then(|| {
        // The telemetry tail sample: per-component event counts.
        r.sim.sample_metrics_now();
        layers(LayerInputs {
            r: &r,
            gen,
            build,
            setup,
            wall,
            core_host: clock.host(),
            core_calls: clock.calls(),
            allocs,
            explored: explored.as_ref(),
        })
    });
    Ok(Rep {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        work,
        sim_exec_us: r.exec_ns as f64 / 1_000.0,
        sim_lat_p99_ns: quantile_ns(&hist, 0.99),
        fingerprint: fnv1a(&rendered),
        layers,
    })
}

struct LayerInputs<'a> {
    r: &'a SimRun,
    gen: Duration,
    build: Duration,
    setup: Duration,
    wall: Duration,
    core_host: Duration,
    core_calls: u64,
    allocs: u64,
    explored: Option<&'a (ResilientResult, Duration, Duration)>,
}

/// Sum of report values whose key satisfies `pred`.
fn sum_keys(report: &Report, pred: impl Fn(&str) -> bool) -> f64 {
    report.iter().filter(|(k, _)| pred(k)).map(|(_, v)| v).sum()
}

/// Which layer a component belongs to, from its `SystemBuilder` name
/// (`c0.core1`, `c0.l1.1`, `c0.bridge`, `cxl.dcoh`).
fn kind_of(name: &str) -> Option<&'static str> {
    if name.starts_with("cxl.dcoh") {
        Some("events.dcoh")
    } else if name.ends_with(".bridge") {
        Some("events.bridge")
    } else if name.contains(".l1.") {
        Some("events.l1")
    } else if name.contains(".core") {
        Some("events.core")
    } else {
        None
    }
}

fn layers(x: LayerInputs<'_>) -> Layers {
    let r = x.r;
    let report = &r.report;
    let secs = |d: Duration| d.as_secs_f64();
    let events = r.sim.events_processed() as f64;
    let rest = r.run.saturating_sub(x.core_host);
    let (explore, conformance) = x
        .explored
        .map_or((Duration::ZERO, Duration::ZERO), |(_, e, c)| (*e, *c));

    let mut by_kind = [
        ("events.core", 0.0),
        ("events.l1", 0.0),
        ("events.bridge", 0.0),
        ("events.dcoh", 0.0),
    ];
    let hub = r.sim.metrics();
    if let Some(w) = hub.windows().checked_sub(1) {
        for (m, name) in hub.metric_names().iter().enumerate() {
            let Some(comp) = name
                .strip_prefix("comp.")
                .and_then(|n| n.strip_suffix(".events"))
            else {
                continue;
            };
            if let Some(slot) = kind_of(comp).and_then(|k| by_kind.iter_mut().find(|s| s.0 == k)) {
                slot.1 += hub.value(w, m);
            }
        }
    }

    let l1 = |f: &dyn Fn(&L1Controller, AccessKind) -> f64| -> f64 {
        l1s(&r.sim, &r.handles)
            .flat_map(|c| [AccessKind::Load, AccessKind::Store, AccessKind::Rmw].map(|k| f(c, k)))
            .sum()
    };
    let band = |b: Band| l1(&|c, k| c.stats(k).bands.total_ns(b) as f64);
    let bridge = |key: &str| sum_keys(report, |k| k.ends_with(&format!(".bridge.{key}")));
    let dcoh = |key: &str| sum_keys(report, |k| k.starts_with("cxl.dcoh") && k.ends_with(key));
    let fetch_p99 = report
        .iter()
        .filter(|(k, _)| k.ends_with(".bridge.fetch.lat.p99_ns"))
        .map(|(_, v)| v)
        .fold(0.0, f64::max);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let model = x.explored.map(|(m, ..)| m);

    // The host layers, which split the traced set-up and timed run.
    let host = [x.gen, x.build, x.core_host, rest, r.report_host];
    let layer_sum: Duration = host.iter().sum::<Duration>() + explore + conformance;
    let mut out: Layers = vec![
        ("workloads.gen_s", secs(x.gen)),
        ("system.build_s", secs(x.build)),
        ("core.host_s", secs(x.core_host)),
        ("core.calls", x.core_calls as f64),
        (
            "core.ns_per_call",
            per(x.core_host.as_nanos() as f64, x.core_calls as f64),
        ),
        (
            "core.retired",
            sum_keys(report, |k| k.contains(".core") && k.ends_with(".retired")),
        ),
        (
            "core.squashes",
            sum_keys(report, |k| k.contains(".core") && k.ends_with(".squashes")),
        ),
        ("rest.host_s", secs(rest)),
        ("kernel.events", events),
        ("kernel.ns_per_event", per(r.run.as_nanos() as f64, events)),
        ("alloc.per_event", per(x.allocs as f64, events)),
        ("report.host_s", secs(r.report_host)),
    ];
    out.extend(by_kind);
    out.extend([
        ("l1.hits", l1(&|c, k| c.stats(k).hits as f64)),
        ("l1.misses", l1(&|c, k| c.stats(k).misses as f64)),
        ("l1.miss_ns.low", band(Band::Low)),
        ("l1.miss_ns.med", band(Band::Medium)),
        ("l1.miss_ns.high", band(Band::High)),
        ("bridge.global_reads", bridge("global_reads")),
        ("bridge.global_writes", bridge("global_writes")),
        ("bridge.snoops", bridge("snoops")),
        ("bridge.recalls", bridge("recalls")),
        ("bridge.local_stalls", bridge("local_stalls")),
        ("bridge.fetch_p99_ns", fetch_p99),
        ("dcoh.stalled_requests", dcoh(".stalled_requests")),
        ("dcoh.conflicts", dcoh(".conflicts")),
        ("dcoh.bisnp_sent", dcoh(".bisnp_sent")),
        (
            "region.touched_lines",
            sum_keys(report, |k| k.ends_with(".touched_lines")),
        ),
        (
            "region.peak_resident_lines",
            sum_keys(report, |k| k.ends_with(".peak_resident_lines")),
        ),
        (
            "region.peak_state_bytes",
            sum_keys(report, |k| k.ends_with(".peak_state_bytes")),
        ),
        ("verif.explore_s", secs(explore)),
        ("verif.conformance_s", secs(conformance)),
        (
            "verif.canonical_states",
            model.map_or(0.0, |m| m.canonical_states as f64),
        ),
        (
            "verif.unreduced_states",
            model.map_or(0.0, |m| m.unreduced_states as f64),
        ),
        ("verif.edges", model.map_or(0.0, |m| m.edges as f64)),
        ("verif.reduction", model.map_or(0.0, |m| m.reduction_factor)),
        (
            "trace.coverage",
            per(secs(layer_sum), secs(x.setup + x.wall)),
        ),
    ]);
    out
}
