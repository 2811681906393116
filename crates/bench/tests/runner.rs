//! Integration tests for the parallel experiment runner and the
//! event-kernel hot path it exercises:
//!
//! * N-thread output is byte-identical to 1-thread output on the same
//!   grid (determinism under parallelism);
//! * the `perf` microbench completes in `--quick` mode and reports
//!   nonzero events/sec, and a run that fails several gates lists them
//!   all;
//! * same-seed runs render byte-identical reports (`render_report`, as
//!   `trace --report` prints them), pinned by fingerprint so fabric/kernel hot-path changes that shift
//!   behaviour (rather than just speed) fail loudly.

use c3::system::GlobalProtocol;
use c3_bench::runner::{self, Experiment};
use c3_bench::{fnv1a, render_report, run_workload, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::WorkloadSpec;

fn tiny_grid() -> Vec<Experiment> {
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
            .quick();
            cfg.ops_per_core = 120;
            grid.push(Experiment::new(spec, cfg));
        }
    }
    grid
}

/// The runner's deterministic JSON must not depend on how many worker
/// threads executed the grid (completion order is scheduling noise; the
/// results are keyed by config index).
#[test]
fn grid_json_is_thread_count_invariant() {
    let grid = tiny_grid();
    let one = runner::grid_json(&grid, &runner::run_grid(1, &grid), false);
    for threads in [2, 4, 8] {
        let n = runner::grid_json(&grid, &runner::run_grid(threads, &grid), false);
        assert_eq!(one, n, "JSON differs between 1 and {threads} threads");
    }
    // Sanity: the JSON actually carries the grid.
    assert_eq!(one.matches("\"outcome\":\"Completed\"").count(), grid.len());
}

/// Full per-cell equality (reports included), not just the JSON view.
#[test]
fn parallel_results_match_sequential_results() {
    let grid = tiny_grid();
    let seq = runner::run_grid(1, &grid);
    let par = runner::run_grid(4, &grid);
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.outcome, b.outcome, "cell {i}");
        assert_eq!(a.exec_ns, b.exec_ns, "cell {i}");
        assert_eq!(a.cluster_ns, b.cluster_ns, "cell {i}");
        assert_eq!(a.sim_ns, b.sim_ns, "cell {i}");
        assert_eq!(a.events, b.events, "cell {i}");
        assert_eq!(a.report, b.report, "cell {i}");
    }
}

/// `--bin perf --quick` must complete, report nonzero events/sec under
/// the committed alloc budget, and *append* to an existing trajectory
/// file rather than overwrite it.
#[test]
fn perf_quick_smoke() {
    let out = std::env::temp_dir().join(format!("c3-perf-smoke-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let budget = concat!(env!("CARGO_MANIFEST_DIR"), "/alloc_budget.txt");
    let run = |label: &str| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_perf"))
            // Default --quick exchange count: the alloc budget amortizes
            // one-off setup allocations over it, so don't shrink it here.
            .args(["--quick", "--label", label])
            .args(["--alloc-budget", budget])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn perf");
        assert!(
            output.status.success(),
            "perf --quick ({label}) failed:\n{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run("first");
    run("second");
    let json = std::fs::read_to_string(&out).expect("perf json written");
    let _ = std::fs::remove_file(&out);
    // Schema v2: a `runs` array accumulating both invocations, each with
    // a ping-pong, a workload, a metrics-enabled workload, and an OLTP
    // line-store measurement carrying throughput and allocs/event. The
    // bin itself exits nonzero on zero throughput or a blown alloc
    // budget, so reaching here already covers the gates — plus a direct
    // parse of every events_per_sec.
    assert!(json.contains("\"runs\": ["), "missing runs array in {json}");
    for (needle, n) in [
        ("\"config\": \"pingpong\"", 2),
        ("\"config\": \"vips/", 2),
        ("\"config\": \"metrics+vips/", 2),
        ("\"config\": \"oltp-quick/", 2),
        ("\"label\": \"first\"", 4),
        ("\"label\": \"second\"", 4),
        ("\"allocs_per_event\": ", 8),
    ] {
        assert_eq!(
            json.matches(needle).count(),
            n,
            "expected {n}x {needle} in {json}"
        );
    }
    let eps: Vec<f64> = json
        .match_indices("\"events_per_sec\": ")
        .map(|(i, pat)| {
            let rest = &json[i + pat.len()..];
            let end = rest.find(['}', ',']).unwrap();
            rest[..end].trim().parse().expect("events_per_sec number")
        })
        .collect();
    assert_eq!(eps.len(), 8, "eight measurements in {json}");
    assert!(eps.iter().all(|&e| e > 0.0), "zero throughput in {json}");
}

/// A run that misses a throughput floor and blows an alloc budget lists
/// both failures before its one nonzero exit: the noisy floor must not
/// hide the deterministic budget.
#[test]
fn perf_reports_every_failed_gate() {
    let dir = std::env::temp_dir();
    let out = dir.join(format!("c3-perf-gates-{}.json", std::process::id()));
    let budget = dir.join(format!("c3-perf-gates-{}.txt", std::process::id()));
    // An unreachable committed vips rate and an unmeetable vips budget.
    std::fs::write(
        &out,
        "{\n  \"bench\": \"perf\",\n  \"schema\": 2,\n  \"runs\": [\n    \
         {\"label\": \"unreachable\", \"config\": \"vips/MESI-CXL-MESI\", \"quick\": true, \
         \"events\": 1, \"sim_ns\": 1, \"wall_ms\": 1.0, \"events_per_sec\": 1e15, \
         \"allocs\": 1, \"allocs_per_event\": 1.0}\n  ]\n}\n",
    )
    .unwrap();
    std::fs::write(&budget, "vips 0.001\n").unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--quick",
            "--exchanges",
            "1000",
            "--floor-label",
            "unreachable",
        ])
        .arg("--alloc-budget")
        .arg(&budget)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn perf");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&budget);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("vips") && stderr.contains("below the floor"),
        "{stderr}"
    );
    assert!(stderr.contains("exceeds budget 0.001"), "{stderr}");
}

fn render(spec: &WorkloadSpec, cfg: &RunConfig) -> String {
    let r = run_workload(spec, cfg);
    render_report(r.exec_ns, &r.report)
}

/// Same-seed, same-config runs must render byte-identical reports, and
/// the rendering is pinned by fingerprint: any fabric/kernel/core "pure
/// optimization" that actually changes simulated behaviour (timing,
/// event counts, RNG draws) trips this test. Re-pin deliberately when a
/// behaviour change is intended (e.g. the inclusive-jitter fix).
///
/// Seven configurations, two cores per cluster unless noted: barnes on
/// weak cores; vips on the `stream` benchmark's pairing (MESI/TSO beside
/// MOESI/weak), which drives the TSO store buffer, its store-to-load
/// forwarding and the RFO prefetches; an RCC (GPU-style) cluster of weak
/// cores beside a MESI cluster of TSO cores; the 2²⁰-key `oltp-zipf`
/// engine on MESI weak cores, the only CXL pin that reaches the OLTP
/// generator and its Zipfian sampler; and `oltp-zipf` on four-core
/// MESIF/TSO beside MOESI/weak clusters, the only pin whose report
/// differs from its MESI twin, so the F state's forwards, invalidations
/// and evictions are exercised; then barnes and `oltp-zipf` on the
/// hierarchical-MESI baseline (fig10's, MESI/weak cores), the only pins
/// through the bridge's passive forwarding path.
#[test]
fn report_dump_byte_identity() {
    use ProtocolFamily::{Mesi, Mesif, Moesi, Rcc};
    let cxl = GlobalProtocol::Cxl;
    let baseline = GlobalProtocol::Hierarchical(Mesi);
    for (name, protocols, global, mcms, cores, pinned) in [
        (
            "barnes",
            (Mesi, Moesi),
            cxl,
            (Mcm::Weak, Mcm::Weak),
            2,
            4_553_830_574_658_468_899u64,
        ),
        (
            "vips",
            (Mesi, Moesi),
            cxl,
            (Mcm::Tso, Mcm::Weak),
            2,
            152_484_082_630_253_032,
        ),
        (
            "barnes",
            (Rcc, Mesi),
            cxl,
            (Mcm::Weak, Mcm::Tso),
            2,
            11_670_868_887_311_467_392,
        ),
        (
            "oltp-zipf",
            (Mesi, Mesi),
            cxl,
            (Mcm::Weak, Mcm::Weak),
            2,
            15_559_684_961_206_078_623,
        ),
        (
            "oltp-zipf",
            (Mesif, Moesi),
            cxl,
            (Mcm::Tso, Mcm::Weak),
            4,
            14_500_999_957_875_614_501,
        ),
        (
            "barnes",
            (Mesi, Mesi),
            baseline,
            (Mcm::Weak, Mcm::Weak),
            2,
            8_841_095_269_926_315_983,
        ),
        (
            "oltp-zipf",
            (Mesi, Mesi),
            baseline,
            (Mcm::Weak, Mcm::Weak),
            2,
            12_351_113_073_777_566_742,
        ),
    ] {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        let mut cfg = RunConfig::scaled(protocols, global, mcms).quick();
        cfg.cores_per_cluster = cores;
        cfg.ops_per_core = 200;
        let a = render(&spec, &cfg);
        let b = render(&spec, &cfg);
        assert_eq!(a, b, "same-seed {name} runs rendered different reports");
        assert_eq!(
            fnv1a(&a),
            pinned,
            "pinned {name} {protocols:?}/{global:?}/{mcms:?} report fingerprint changed — if \
             the behaviour change is intentional, re-pin this constant\nreport:\n{a}"
        );
    }
}

/// The `chaos` bin's two CI runs, pinned by the FNV-1a of their stdout:
/// the default sweep at seed 42, and seed 7 at 5 % drop and 1 % poison.
/// Each line reports a run's completion time, events, faults injected,
/// recovery actions and exact or poisoned lines, so any change to the
/// bridge's or the DCOH's retry, abandonment or poison handling under
/// faults shows here.
#[test]
fn chaos_output_is_pinned() {
    for (args, pinned) in [
        (&["--seed", "42"][..], 7_136_826_604_318_035_552u64),
        (
            &["--seed", "7", "--drop", "0.05", "--poison", "0.01"][..],
            763_242_225_988_833_037,
        ),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_chaos"))
            .args(args)
            .output()
            .expect("spawn chaos");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "chaos {args:?} failed:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            fnv1a(&stdout),
            pinned,
            "pinned chaos {args:?} output changed:\n{stdout}"
        );
    }
}

/// ROADMAP item 1's seed sweep: `oltp-zipf` with 3,000 ops per core on
/// weak cores over CXL, seeds 1–64, across six cluster mixes. Every run
/// must complete; a recorded L1 protocol violation keeps the L1 from
/// reporting done, so a violation cannot complete either. Seed 3 of the
/// 2x4 MESI/MOESI mix is the MOESI deadlock regression: a MOESI
/// cluster's bridge-local directory records an exclusive L1 as the O
/// owner the moment it forwards a GetS to it, and if that L1's clean
/// eviction (`PutE`) crossed the forward the directory must drop it as
/// owner. Before it did, that run left a stale owner that later received
/// its own forwarded GetS and wedged at ~163k events; 11 of the 384 runs
/// failed. The sweep takes about a minute of CPU in release and far
/// longer in debug, so it is release-only.
#[cfg(not(debug_assertions))]
#[test]
fn oltp_seed_sweep_completes() {
    use c3_sim::kernel::RunOutcome;
    use ProtocolFamily::{Mesi, Mesif, Moesi, Rcc};
    let spec = WorkloadSpec::by_name("oltp-zipf").expect("workload");
    let mixes = [
        (2, (Mesi, Moesi)),
        (2, (Moesi, Moesi)),
        (4, (Mesi, Moesi)),
        (4, (Moesi, Moesi)),
        (4, (Mesif, Moesi)),
        (2, (Moesi, Rcc)),
    ];
    let mut grid = Vec::new();
    for (clusters, protocols) in mixes {
        for seed in 1..=64 {
            let mut cfg = RunConfig::scaled(protocols, GlobalProtocol::Cxl, (Mcm::Weak, Mcm::Weak))
                .with_clusters(clusters);
            cfg.ops_per_core = 3000;
            cfg.seed = seed;
            grid.push(Experiment::new(spec, cfg).tagged(format!("{clusters}x4 seed {seed}")));
        }
    }
    assert_eq!(grid.len(), 384);
    let results = runner::run_grid(runner::default_threads(), &grid);
    let failed: Vec<String> = grid
        .iter()
        .zip(&results)
        .filter(|(_, r)| r.outcome != RunOutcome::Completed)
        .map(|(e, r)| {
            format!(
                "{} {}: {:?}\n{}",
                e.cfg.label(),
                e.tag,
                r.outcome,
                r.failure.as_deref().unwrap_or("")
            )
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of 384 runs did not complete:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// The timing cores' issue work on perfbench's measured `stream` and
/// `oltp` cases at seed 1, summed over every core: issue passes run,
/// completions parked at an incomplete `Work` (no pass), and window
/// entries the passes visited. The counts are exact for a seed, so unlike
/// a wall-clock floor they cannot flake: a change that makes the core do
/// more work per event trips this test on any host. Re-pin deliberately
/// when the issue logic changes on purpose, with the reason in
/// CHANGES.md. Release-only like the sweep, since the two full-size runs
/// are slow unoptimized.
#[cfg(not(debug_assertions))]
#[test]
fn core_issue_cost_is_pinned() {
    use c3_bench::run_workload_with;
    use c3_mcm::core_model::{IssueCost, TimingCore};
    use ProtocolFamily::{Mesi, Moesi};
    let stream = (
        "vips",
        RunConfig::scaled((Mesi, Moesi), GlobalProtocol::Cxl, (Mcm::Tso, Mcm::Weak)),
        12_000,
        IssueCost {
            passes: 130_851,
            parked: 61_157,
            visited: 1_833_586,
        },
    );
    let oltp = (
        "oltp-zipf",
        RunConfig::scaled((Mesi, Mesi), GlobalProtocol::Cxl, (Mcm::Weak, Mcm::Weak))
            .with_clusters(4),
        6_000,
        IssueCost {
            passes: 110_877,
            parked: 1,
            visited: 5_255_203,
        },
    );
    for (name, cfg, ops, pinned) in [stream, oltp] {
        let spec = WorkloadSpec::by_name(name).expect("workload");
        let mut cfg = cfg.with_state_metrics();
        (cfg.seed, cfg.ops_per_core) = (1, ops);
        let (_, cost) = run_workload_with(&spec, &cfg, |sim, handles| {
            let mut cost = IssueCost::default();
            for &c in handles.cores.iter().flatten() {
                cost.merge(
                    sim.component_as::<TimingCore>(c)
                        .expect("core")
                        .issue_cost(),
                );
            }
            cost
        });
        assert_eq!(cost, pinned, "{name} issue cost changed");
    }
}
