//! `chaos` — fault-injection soak for the resilient C³ stack.
//!
//! Sweeps message-loss (and optionally duplicate / delay / poison) rates
//! on the CXL links of a two-cluster system with timeout/retry enabled,
//! and asserts the recovery invariants the fault model promises:
//!
//! * every run **converges** (`RunOutcome::Completed`, no deadlock);
//! * **zero leaked transactions**: the post-run in-flight capture is empty;
//! * every line that is *not* poison-marked holds exactly the value a
//!   fault-free execution would produce (retries are atomic, Rule II);
//! * the same seed reproduces a bit-identical run, report included.
//!
//! ```text
//! cargo run -p c3-bench --bin chaos                  # default sweep
//! cargo run -p c3-bench --bin chaos -- --seed 9 --iters 40
//! cargo run -p c3-bench --bin chaos -- --drop 0.05 --poison 0.002
//! ```
//!
//! Exit status is nonzero on any invariant violation, so CI can run this
//! directly as a convergence gate.

use c3::system::{ClusterSpec, GlobalProtocol, SystemBuilder};
use c3::ResilienceConfig;
use c3_bench::cli;
use c3_bench::outln;
use c3_protocol::ops::{Addr, Reg, ThreadProgram};
use c3_protocol::states::ProtocolFamily;
use c3_sim::fabric::LinkId;
use c3_sim::fault::{FaultPlan, Flap, LinkFaults};
use c3_sim::kernel::RunOutcome;
use c3_sim::time::Delay;

const SHARED: Addr = Addr(5);
/// Second contended line on the other CXL device when two are present
/// (line-interleaved), doubling cross-cluster traffic.
const SHARED2: Addr = Addr(6);
const PRIVATE_BASE: u64 = 100;
const CORES_PER_CLUSTER: usize = 2;
const CLUSTERS: usize = 2;

const USAGE: &str = "usage: chaos [--seed N] [--iters N] [--threads N] [--drop P] [--dup P] \
                     [--delay P] [--poison P]
       with no rate flags, sweeps drop rates 0 / 1% / 2% / 5%
       plus one mixed dup+delay+poison round
";

/// One soak run; panics (→ nonzero exit) on any violated invariant.
/// Returns the summary line (printed by the caller in sweep order, so
/// parallel soaks keep deterministic output) and the rendered report for
/// the determinism check.
fn run_once(seed: u64, iters: u64, faults: LinkFaults, label: &str) -> (String, String) {
    let clusters = vec![
        ClusterSpec::new(ProtocolFamily::Mesi, CORES_PER_CLUSTER).with_l1(32, 4),
        ClusterSpec::new(ProtocolFamily::Moesi, CORES_PER_CLUSTER).with_l1(32, 4),
    ];
    // Each core hammers the shared line (atomicity oracle) and owns a
    // private line (data-integrity oracle).
    let mut programs = Vec::new();
    for c in 0..CLUSTERS as u64 {
        let mut cluster_programs = Vec::new();
        for k in 0..CORES_PER_CLUSTER as u64 {
            let me = Addr(PRIVATE_BASE + c * 10 + k);
            let mut p = ThreadProgram::new();
            for _ in 0..iters {
                p = p
                    .rmw(SHARED, 1, Reg(0))
                    .rmw(SHARED2, 1, Reg(2))
                    .rmw(me, 1, Reg(1));
            }
            cluster_programs.push(p);
        }
        programs.push(cluster_programs);
    }

    let (mut sim, handles) = SystemBuilder::new(clusters, GlobalProtocol::Cxl)
        .cxl_cache(64, 4)
        .seed(seed)
        // Timeout comfortably above the fault-free round trip so retries
        // fire only for genuinely lost messages; generous retry budget so
        // abandonment stays rare at <= 5% loss.
        .resilience(ResilienceConfig::new(3_000, 10))
        .build_with_seq_cores(programs);

    let links: Vec<LinkId> = handles.cxl_links.clone().map(LinkId).collect();
    assert!(!links.is_empty(), "no CXL links to perturb");
    sim.fabric_mut()
        .set_fault_plan(FaultPlan::new(seed).with_links(links, faults));
    sim.set_event_limit(100_000_000);

    let outcome = sim.run();
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "{label}: did not converge; pending: {:?}\n{}",
        sim.pending_components(),
        sim.post_mortem(outcome)
    );
    let leaked = sim.post_mortem(outcome).txns;
    assert!(
        leaked.is_empty(),
        "{label}: {} in-flight transaction(s) leaked past completion",
        leaked.len()
    );

    let report = sim.report();
    // Value oracle: poison-marked lines are by definition junk, every
    // other line must be exact.
    let poisoned = handles.poisoned_addrs(&sim);
    let mut checked = 0;
    let mut skipped = 0;
    let mut check = |addr: Addr, want: u64| {
        if poisoned.contains(&addr) {
            skipped += 1;
            return;
        }
        let got = handles.coherent_value(&sim, addr);
        if got != want {
            let mut keys = String::new();
            for (k, v) in report.iter() {
                if v != 0.0
                    && (k.starts_with("fault.")
                        || k.contains("retr")
                        || k.contains("abandon")
                        || k.contains("dup")
                        || k.contains("stale")
                        || k.contains("forced")
                        || k.contains("poison"))
                {
                    keys.push_str(&format!("  {k}={v}\n"));
                }
            }
            panic!("{label}: wrong value at {addr:?}: got {got}, want {want}\n{keys}");
        }
        checked += 1;
    };
    let total = (CLUSTERS * CORES_PER_CLUSTER) as u64 * iters;
    check(SHARED, total);
    check(SHARED2, total);
    for c in 0..CLUSTERS as u64 {
        for k in 0..CORES_PER_CLUSTER as u64 {
            check(Addr(PRIVATE_BASE + c * 10 + k), iters);
        }
    }

    let injected = report.get("fault.injected").unwrap_or(0.0);
    let mut resil = 0.0;
    for key in ["retries", "abandoned", "dup_suppressed"] {
        resil += report
            .iter()
            .filter(|(k, _)| k.ends_with(&format!(".{key}")))
            .map(|(_, v)| v)
            .sum::<f64>();
    }
    let summary = format!(
        "{label}: Completed at {} after {} events; {injected} fault(s) injected, \
         {resil} recovery action(s), {checked} line(s) exact, {skipped} poisoned line(s) excluded",
        sim.now(),
        sim.events_processed()
    );

    let mut rendered = String::new();
    for (k, v) in report.iter() {
        rendered.push_str(&format!("{k}={v}\n"));
    }
    (summary, rendered)
}

fn main() {
    let (seed, iters, threads, explicit) = cli::parse(USAGE, |args| {
        let seed = args.value::<u64>("--seed")?.unwrap_or(42);
        let iters = args.value::<u64>("--iters")?.unwrap_or(60);
        let threads = args.threads()?;
        let rates = [
            args.value("--drop")?,
            args.value("--dup")?,
            args.value("--delay")?,
            args.value("--poison")?,
        ];
        let explicit = rates.iter().any(Option::is_some).then(|| {
            let [drop_p, dup_p, delay_p, poison_p] = rates.map(|p| p.unwrap_or(0.0));
            LinkFaults {
                drop_p,
                dup_p,
                delay_p,
                delay: Delay::from_ns(200),
                poison_p,
                ..LinkFaults::default()
            }
        });
        Ok((seed, iters, threads, explicit))
    });

    let sweeps: Vec<(String, LinkFaults)> = if let Some(f) = explicit {
        vec![("explicit".to_string(), f)]
    } else {
        let mut v: Vec<(String, LinkFaults)> = [0.0, 0.01, 0.02, 0.05]
            .iter()
            .map(|&p| (format!("drop={:.0}%", p * 100.0), LinkFaults::drops(p)))
            .collect();
        v.push((
            "mixed dup=5% delay=5% poison=1%".to_string(),
            LinkFaults {
                dup_p: 0.05,
                delay_p: 0.05,
                delay: Delay::from_ns(200),
                poison_p: 0.01,
                ..LinkFaults::default()
            },
        ));
        v.push((
            "flap 5us up / 500ns down".to_string(),
            LinkFaults {
                flap: Some(Flap {
                    up: Delay::from_ns(5_000),
                    down: Delay::from_ns(500),
                    phase: Delay::ZERO,
                }),
                ..LinkFaults::default()
            },
        ));
        v
    };

    // Sweep points are independent seeded runs; soak them in parallel on
    // the shared runner and print summaries in sweep order afterwards.
    let summaries = c3_bench::runner::run_indexed(threads, &sweeps, |_, (label, faults)| {
        let (summary, a) = run_once(seed, iters, *faults, label);
        let (_, b) = run_once(seed, iters, *faults, label);
        assert_eq!(a, b, "{label}: same seed produced different reports");
        summary
    });
    for s in &summaries {
        outln!("{s}");
    }
    outln!("chaos: all {} sweep point(s) converged", sweeps.len());
}
