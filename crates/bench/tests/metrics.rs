//! Integration tests for the sampled-telemetry subsystem at the bench
//! level:
//!
//! * the acceptance run — metrics-enabled quick vips emits a ≥50-window
//!   timeseries covering link backlog, MSHR/directory occupancy and
//!   bridge transactions, byte-identical across same-seed reruns (the
//!   retry counters, a resilience-only group, are checked in
//!   `tests/resilience.rs`);
//! * metrics are additive — the metrics-on report minus `metrics.` keys
//!   equals the metrics-off report (sampling changes no behaviour);
//! * the report is the final sample — every component counter column
//!   reads the same in the report, and no component declares it twice;
//! * the metrics-on rendering is pinned by fingerprint, like the plain
//!   report rendering in `runner.rs`;
//! * grid runs with metrics enabled stay thread-count invariant;
//! * the `state_metrics` footprint counts of the OLTP quick cell are
//!   pinned.

use c3::system::GlobalProtocol;
use c3_bench::runner::{self, Experiment};
use c3_bench::{build_sim, fnv1a, render_report, run_workload, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_sim::metrics::MetricSample;
use c3_sim::stats::Report;
use c3_workloads::WorkloadSpec;

/// Quick vips under the paper's headline MESI-CXL-MESI config, with the
/// telemetry hub sampling every `metrics_ns` (None = disabled).
fn vips_cfg(metrics_ns: Option<u64>) -> RunConfig {
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    )
    .quick();
    if let Some(ns) = metrics_ns {
        cfg = cfg.metrics_ns(ns);
    }
    cfg
}

/// Run quick vips to completion and return `(csv, windows, series names)`.
fn timeseries(cfg: &RunConfig) -> (String, usize, Vec<String>) {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let (mut sim, _handles) = build_sim(&spec, cfg);
    assert_eq!(sim.run(), RunOutcome::Completed, "vips wedged");
    sim.sample_metrics_now();
    let hub = sim.metrics();
    (hub.to_csv(), hub.windows(), hub.metric_names().to_vec())
}

/// The acceptance run: quick vips at the `--bin metrics` default
/// interval must produce at least 50 windows whose series cover link
/// depth, MSHR and directory occupancy, and bridge transactions — and
/// two same-seed runs must emit byte-identical CSV.
#[test]
fn timeseries_covers_run_and_is_same_seed_byte_identical() {
    let cfg = vips_cfg(Some(25));
    let (a, windows, names) = timeseries(&cfg);
    let (b, _, _) = timeseries(&cfg);
    assert_eq!(a, b, "same-seed timeseries differ");
    assert!(windows >= 50, "expected >=50 windows, got {windows}");
    for needle in [
        "link.0.backlog_ns",    // per-link queue depth
        ".mshr",                // L1 MSHR occupancy
        ".blocking_snoops",     // DCOH directory occupancy
        ".inflight_fetches",    // bridge in-flight transactions
        "comp.cxl.dcoh.events", // per-component attribution
        "vnet.cxl.m2s.msgs",    // per-vnet message counts
    ] {
        assert!(
            names.iter().any(|n| n.contains(needle)),
            "no series matching {needle} among {names:?}"
        );
    }
}

/// Enabling metrics must not perturb the simulation: the metrics-on
/// report with its `metrics.` keys removed is exactly the metrics-off
/// report, and the extra keys all live under the `metrics.` prefix.
#[test]
fn report_is_additive_under_metrics() {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let off = run_workload(&spec, &vips_cfg(None));
    let on = run_workload(&spec, &vips_cfg(Some(25)));
    assert_eq!(off.exec_ns, on.exec_ns, "metrics changed execution time");
    let lines = |r: &c3_sim::stats::Report, strip: bool| -> Vec<String> {
        let mut v: Vec<String> = r
            .iter()
            .filter(|(k, _)| !(strip && k.starts_with("metrics.")))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        lines(&off.report, false),
        lines(&on.report, true),
        "metrics-on report (metrics. keys stripped) differs from metrics-off"
    );
    assert!(
        on.report.iter().any(|(k, _)| k.starts_with("metrics.")),
        "metrics-on report carries no metrics. keys"
    );
    assert!(
        off.report.iter().all(|(k, _)| !k.starts_with("metrics.")),
        "metrics-off report leaks metrics. keys"
    );
}

/// The report is the final telemetry sample: after a completed
/// metrics-on run and a tail sample, every counter column a component's
/// `metrics()` declares is in the report with the tail value, and no
/// component's `report()` writes one of those keys itself.
#[test]
fn report_counters_are_the_tail_sample() {
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let (mut sim, _handles) = build_sim(&spec, &vips_cfg(Some(25)));
    assert_eq!(sim.run(), RunOutcome::Completed, "vips wedged");
    sim.sample_metrics_now();
    let report = sim.report();
    let hub = sim.metrics();
    let tail = hub.windows() - 1;
    let column = |name: &str| {
        hub.metric_names()
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("{name} is not a telemetry column"))
    };
    let mut counters = 0;
    let mut sample = MetricSample::new();
    for c in sim.components() {
        c.metrics(&mut sample);
        let mut own = Report::new();
        c.report(&mut own);
        for (name, _) in sample.take_counters() {
            let name = name.as_str();
            assert_eq!(
                report.get(name),
                Some(hub.value(tail, column(name))),
                "{name}: report and tail sample disagree"
            );
            assert_eq!(
                own.get(name),
                None,
                "{} writes {name} in both report() and metrics()",
                c.name()
            );
            counters += 1;
        }
    }
    assert!(counters > 0, "no component declares a counter");
}

/// The metrics-on output (report rendering plus the CSV timeseries) is
/// pinned by fingerprint, the metrics-enabled counterpart of
/// `report_dump_byte_identity` in `runner.rs`. Re-pin deliberately when
/// a schema or behaviour change is intended.
#[test]
fn metrics_output_fingerprint_pinned() {
    let cfg = vips_cfg(Some(25));
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let r = run_workload(&spec, &cfg);
    let (csv, _, _) = timeseries(&cfg);
    let doc = format!("{}\n{csv}", render_report(r.exec_ns, &r.report));
    assert_eq!(
        fnv1a(&doc),
        909_270_110_970_316_723u64,
        "pinned metrics-on fingerprint changed — if the schema/behaviour \
         change is intentional, re-pin this constant\ndoc:\n{doc}"
    );
}

/// Metrics-enabled grid runs must stay byte-identical between 1 and N
/// worker threads (sampling is driven purely by simulated time).
#[test]
fn metrics_grid_is_thread_count_invariant() {
    let mut grid = Vec::new();
    for name in ["vips", "histogram"] {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        for global in [
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
        ] {
            let mut cfg = RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                global,
                (Mcm::Weak, Mcm::Weak),
            )
            .quick()
            .metrics_ns(25);
            cfg.ops_per_core = 120;
            grid.push(Experiment::new(spec, cfg));
        }
    }
    let one = runner::run_grid(1, &grid);
    for threads in [2, 8] {
        let n = runner::run_grid(threads, &grid);
        for (i, (a, b)) in one.iter().zip(&n).enumerate() {
            assert_eq!(a.outcome, b.outcome, "cell {i} ({threads} threads)");
            assert_eq!(a.events, b.events, "cell {i} ({threads} threads)");
            assert_eq!(a.report, b.report, "cell {i} ({threads} threads)");
        }
    }
    // Sanity: the grid reports actually carry the sampled series.
    assert!(
        one.iter()
            .all(|r| r.report.iter().any(|(k, _)| k.starts_with("metrics."))),
        "grid reports missing metrics. keys"
    );
}

/// `touched_lines` and `peak_resident_lines` are properties of the
/// simulated machine (lines a directory ever saw, lines non-quiescent at
/// once), not of the line store's host layout, so no store change may
/// move them. This is the `oltp --quick` skew-0.99 cell; the sums match
/// its `oltp --quick --json` row. `peak_state_bytes` is a host-memory
/// estimate and is not pinned.
#[test]
fn oltp_quick_footprint_counts_are_pinned() {
    let mut spec = WorkloadSpec::by_name("oltp-quick").expect("workload");
    spec.zipf_skew = 0.99;
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    )
    .with_clusters(2)
    .with_state_metrics();
    cfg.ops_per_core = 300;
    let report = run_workload(&spec, &cfg).report;
    let sum = |suffix: &str| -> f64 {
        report
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(sum(".touched_lines"), 1889.0);
    assert_eq!(sum(".peak_resident_lines"), 975.0);
}
