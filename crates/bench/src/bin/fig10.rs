//! Figure 10: execution time of all 33 workloads under the four protocol
//! combinations, normalized to the MESI-MESI-MESI baseline.
//!
//! Paper result: the CXL combinations (MESI-CXL-MESI, MESI-CXL-MOESI,
//! MESI-CXL-MESIF) are consistently slower than the hierarchical MESI
//! baseline — avg ≈ 5.5 % (ranges ≈ 4–29 %), with the contended
//! workloads (histogram, barnes, lu-ncont) most affected and streaming
//! workloads (vips) barely affected.
//!
//! The 33 × 4 grid runs in parallel on the shared runner; the table is
//! identical for any thread count.
//!
//! Usage: `cargo run --release -p c3-bench --bin fig10 [-- --ops N]
//! [--workloads a,b,c] [--csv PATH] [--json PATH] [--threads N]`

use c3::system::GlobalProtocol;
use c3_bench::outln;
use c3_bench::runner::{self, Experiment};
use c3_bench::{cli, geomean, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_workloads::Suite;

const USAGE: &str =
    "usage: fig10 [--ops N] [--workloads a,b,c] [--csv PATH] [--json PATH] [--threads N]\n";

fn main() {
    let (ops, specs, csv, json, threads) = cli::parse(USAGE, |args| {
        Ok((
            args.value::<usize>("--ops")?.unwrap_or(1500),
            cli::workload_filter(args.list("--workloads")?)?,
            args.value::<String>("--csv")?,
            args.value::<String>("--json")?,
            args.threads()?,
        ))
    });
    let mut csv_rows =
        vec!["workload,suite,base_ns,mesi_cxl_mesi,mesi_cxl_moesi,mesi_cxl_mesif".to_string()];

    let configs: Vec<(&str, RunConfig)> = vec![
        (
            "MESI-MESI-MESI",
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
                (Mcm::Weak, Mcm::Weak),
            ),
        ),
        (
            "MESI-CXL-MESI",
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                GlobalProtocol::Cxl,
                (Mcm::Weak, Mcm::Weak),
            ),
        ),
        (
            "MESI-CXL-MOESI",
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
                GlobalProtocol::Cxl,
                (Mcm::Weak, Mcm::Weak),
            ),
        ),
        (
            "MESI-CXL-MESIF",
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesif),
                GlobalProtocol::Cxl,
                (Mcm::Weak, Mcm::Weak),
            ),
        ),
    ];

    // Row-major grid: results[4*w + c] is workload w under config c.
    let mut grid = Vec::new();
    for spec in &specs {
        for (_, cfg) in &configs {
            let mut cfg = *cfg;
            cfg.ops_per_core = ops;
            grid.push(Experiment::new(*spec, cfg));
        }
    }
    let results = runner::run_grid(threads, &grid);

    outln!("Figure 10: normalized execution time (baseline MESI-MESI-MESI = 1.00)");
    outln!(
        "{:<18} {:>8} {:>15} {:>15} {:>15}",
        "workload",
        "base(us)",
        "MESI-CXL-MESI",
        "MESI-CXL-MOESI",
        "MESI-CXL-MESIF"
    );

    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut per_suite: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 3];

    for (w, spec) in specs.iter().enumerate() {
        let times: Vec<f64> = (0..4)
            .map(|c| {
                results[4 * w + c]
                    .expect_completed(&grid[4 * w + c].tag)
                    .exec_ns as f64
            })
            .collect();
        let base = times[0];
        let norm: Vec<f64> = times.iter().map(|t| t / base).collect();
        outln!(
            "{:<18} {:>8.1} {:>15.3} {:>15.3} {:>15.3}",
            spec.name,
            base / 1000.0,
            norm[1],
            norm[2],
            norm[3]
        );
        csv_rows.push(format!(
            "{},{},{},{:.4},{:.4},{:.4}",
            spec.name,
            spec.suite.label(),
            base,
            norm[1],
            norm[2],
            norm[3]
        ));
        let suite_idx = match spec.suite {
            Suite::Splash4 => 0,
            Suite::Parsec => 1,
            Suite::Phoenix => 2,
            Suite::Oltp => unreachable!("fig10 runs the 33 paper workloads"),
        };
        for k in 0..3 {
            per_config[k].push(norm[k + 1]);
            per_suite[suite_idx][k].push(norm[k + 1]);
        }
    }

    if let Some(path) = csv {
        std::fs::write(&path, csv_rows.join("\n") + "\n").expect("write csv");
        outln!("\n(wrote {path})");
    }
    if let Some(path) = json {
        std::fs::write(&path, runner::grid_json(&grid, &results, true)).expect("write json");
        outln!("\n(wrote {path})");
    }
    outln!("\nPer-suite geomean (normalized):");
    for (si, name) in ["splash4", "parsec", "phoenix"].iter().enumerate() {
        if per_suite[si][0].is_empty() {
            continue;
        }
        outln!(
            "{:<18} {:>8} {:>15.3} {:>15.3} {:>15.3}",
            name,
            "",
            geomean(&per_suite[si][0]),
            geomean(&per_suite[si][1]),
            geomean(&per_suite[si][2])
        );
    }
    if !per_config[0].is_empty() {
        let max = |v: &Vec<f64>| v.iter().cloned().fold(f64::MIN, f64::max);
        outln!("\nMean slowdown vs baseline:");
        outln!(
            "  MESI-CXL-MESI : avg {:+.1}%  max {:+.1}%   (paper: avg +5.5%, range 4.0-26.6%)",
            (geomean(&per_config[0]) - 1.0) * 100.0,
            (max(&per_config[0]) - 1.0) * 100.0
        );
        outln!(
            "  MESI-CXL-MOESI: avg {:+.1}%  max {:+.1}%   (paper: avg +5.7%, range 3.9-28.6%)",
            (geomean(&per_config[1]) - 1.0) * 100.0,
            (max(&per_config[1]) - 1.0) * 100.0
        );
        outln!(
            "  MESI-CXL-MESIF: avg {:+.1}%  max {:+.1}%   (paper: avg +5.5%, range 4.0-29.4%)",
            (geomean(&per_config[2]) - 1.0) * 100.0,
            (max(&per_config[2]) - 1.0) * 100.0
        );
    }
}
