//! Table IV: litmus test results for every protocol and MCM combination.
//!
//! Runs the seven system-level litmus tests (MP, IRIW, 2+2W, R, S, SB, LB)
//! under MESI-CXL-MESI and MESI-CXL-MOESI with the Arm-Arm, TSO-Arm and
//! TSO-TSO MCM assignments; a ✓ means *no forbidden outcome* (outside the
//! compound-model reference set) was observed across all randomized runs.
//! Also runs the paper's control experiment: with synchronization removed,
//! relaxed outcomes must appear on weak clusters.
//!
//! The 7 × 2 × 3 campaign matrix runs in parallel on the shared runner;
//! every cell is an independent seeded campaign, so the table is
//! identical for any thread count.
//!
//! Usage: `cargo run --release -p c3-bench --bin table4 [-- --runs N]
//! [--threads N]`
//! (the paper uses 100 000 runs per cell; the default here is 400)

use c3::system::GlobalProtocol;
use c3_bench::{cli, runner};
use c3_bench::{out, outln};
use c3_mcm::harness::{reference_allowed, run_litmus, LitmusConfig};
use c3_mcm::litmus::LitmusTest;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;

const USAGE: &str = "usage: table4 [--runs N] [--threads N]\n";

fn main() {
    let (runs, threads) = cli::parse(USAGE, |args| {
        Ok((
            args.value::<usize>("--runs")?.unwrap_or(400),
            args.threads()?,
        ))
    });
    let protocol_combos = [
        (
            "MESI-CXL-MESI",
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        ),
        (
            "MESI-CXL-MOESI",
            (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
        ),
    ];
    let mcm_combos = [
        ("Arm-Arm", (Mcm::Weak, Mcm::Weak)),
        ("TSO-Arm", (Mcm::Tso, Mcm::Weak)),
        ("TSO-TSO", (Mcm::Tso, Mcm::Tso)),
    ];

    // Row-major campaign matrix: cells[(6*t) + (3*p) + m] is test t under
    // protocol combo p with MCM combo m.
    let tests = LitmusTest::paper_suite();
    let mut cells = Vec::new();
    for test in &tests {
        for (_, protos) in &protocol_combos {
            for (_, mcms) in &mcm_combos {
                cells.push((test.clone(), *protos, *mcms));
            }
        }
    }
    let reports = runner::run_indexed(threads, &cells, |_, (test, protos, mcms)| {
        let cfg = LitmusConfig::new(*protos, GlobalProtocol::Cxl, *mcms).runs(runs);
        run_litmus(test, &cfg)
    });

    outln!("Table IV: litmus results ({runs} randomized runs per cell)");
    out!("{:<10}", "Test");
    for (pname, _) in &protocol_combos {
        for (mname, _) in &mcm_combos {
            out!(" {:>9}", format!("{}", mname));
        }
        out!("  | {pname}");
    }
    outln!();

    let mut all_passed = true;
    for (t, test) in tests.iter().enumerate() {
        out!("{:<10}", test.name);
        for cell in 0..6 {
            let report = &reports[6 * t + cell];
            let mark = if report.passed() {
                format!("✓({:.0}%)", report.coverage() * 100.0)
            } else {
                all_passed = false;
                "✗".to_string()
            };
            out!(" {mark:>9}");
        }
        outln!();
    }
    outln!("\n(✓ = no forbidden outcome; percentage = allowed outcomes actually observed)");

    // Control experiment (§VI-A): removing synchronization must expose
    // relaxed outcomes on weak clusters.
    outln!("\nControl: synchronization removed (forbidden-under-sync outcomes MUST appear)");
    let control_tests = [LitmusTest::mp(), LitmusTest::sb(), LitmusTest::lb()];
    let controls = runner::run_indexed(threads, &control_tests, |_, test| {
        let cfg = LitmusConfig::new(
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
            (Mcm::Weak, Mcm::Weak),
        )
        .runs(runs.max(400));
        let synced = reference_allowed(test, &cfg);
        let report = run_litmus(&test.without_sync(), &cfg);
        (report.relaxed_observed(&synced), report.passed())
    });
    let mut controls_ok = true;
    for (test, (relaxed, coherent)) in control_tests.iter().zip(&controls) {
        controls_ok &= relaxed & coherent;
        outln!(
            "  {:<10} relaxed outcome observed: {}   still coherent: {}",
            test.name,
            if *relaxed { "yes ✓" } else { "NO ✗" },
            if *coherent { "yes ✓" } else { "NO ✗" }
        );
    }

    // Selective fence removal on TSO (§VI-A): store-store order is free.
    let cfg = LitmusConfig::new(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Tso, Mcm::Tso),
    )
    .runs(runs.max(400));
    let report = run_litmus(&LitmusTest::mp().without_sync(), &cfg);
    let tso_mp_safe = !report.observed.contains(&vec![1, 0]);
    outln!(
        "  MP on TSO without fences: forbidden outcome absent: {}",
        if tso_mp_safe { "yes ✓" } else { "NO ✗" }
    );

    if all_passed && controls_ok && tso_mp_safe {
        outln!("\nAll litmus campaigns PASSED.");
    } else {
        outln!("\nSOME LITMUS CAMPAIGNS FAILED!");
        std::process::exit(1);
    }
}
