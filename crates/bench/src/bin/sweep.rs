//! Sensitivity sweep: how the CXL-vs-baseline gap depends on the
//! cross-cluster link latency, and where the crossover to "negligible"
//! lies.
//!
//! The paper fixes the link latency at 70 ns (≈400 ns round trip, §V,
//! footnote 8). This sweep varies it: at on-chip-like latencies the CXL
//! protocol overhead (extra message delays + blocking directory) is the
//! dominant cost; as the link grows, raw propagation swamps everything
//! and the *relative* gap stabilizes — the protocol penalty scales with
//! the number of message hops, which is CXL's structural property.
//!
//! All 12 grid cells (6 latencies × 2 globals) run in parallel on the
//! shared runner; the table is identical for any thread count.
//!
//! Usage: `cargo run --release -p c3-bench --bin sweep
//! [-- --workload W] [--threads N] [--json PATH]`

use c3::system::GlobalProtocol;
use c3_bench::outln;
use c3_bench::runner::{self, Experiment};
use c3_bench::{cli, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;

const USAGE: &str = "usage: sweep [--workload W] [--threads N] [--json PATH]\n";

fn main() {
    let (spec, threads, json) = cli::parse(USAGE, |args| {
        let name = args.value::<String>("--workload")?;
        Ok((
            cli::workload(name.as_deref().unwrap_or("histogram"))?,
            args.threads()?,
            args.value::<String>("--json")?,
        ))
    });

    let link_points: [u64; 6] = [5, 15, 35, 70, 140, 280];
    let mut grid = Vec::new();
    for &link_ns in &link_points {
        for global in [
            GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
        ] {
            let mut cfg = RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                global,
                (Mcm::Weak, Mcm::Weak),
            )
            .link_ns(link_ns);
            cfg.ops_per_core = 1000;
            grid.push(Experiment::new(spec, cfg).tagged(format!("link{link_ns}/{}", cfg.label())));
        }
    }

    let results = runner::run_grid(threads, &grid);

    outln!(
        "Link-latency sweep, workload {} (normalized CXL/baseline):",
        spec.name
    );
    outln!(
        "{:>9} {:>12} {:>12} {:>8}",
        "link(ns)",
        "baseline(ns)",
        "cxl(ns)",
        "ratio"
    );
    for (i, &link_ns) in link_points.iter().enumerate() {
        let base = results[2 * i].expect_completed(&grid[2 * i].tag).exec_ns;
        let cxl = results[2 * i + 1]
            .expect_completed(&grid[2 * i + 1].tag)
            .exec_ns;
        outln!(
            "{:>9} {:>12} {:>12} {:>8.3}",
            link_ns,
            base,
            cxl,
            cxl as f64 / base as f64
        );
    }
    outln!("\n(70 ns is the paper's Table III operating point)");
    if let Some(path) = json {
        std::fs::write(&path, runner::grid_json(&grid, &results, true)).expect("write json");
        outln!("(wrote {path})");
    }
}
