//! The core-cost ledger: host cost of the `stream` workload's traced run
//! as the per-core program grows, for a fixed seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --example ledger
//! cargo run --release --manifest-path perfbench/Cargo.toml --example ledger -- oltp 1500 3000 6000
//! ```
//!
//! Each length runs three traced repetitions and keeps the fastest. The
//! simulated work grows linearly with the program; a layer whose
//! ns/call or ns/event grows with it costs superlinear host time.

use c3_perfbench::case::{case, Size, Workload};
use c3_perfbench::measure::{run_rep, Expect, Rep};

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args
        .next()
        .map(|w| Workload::parse(&w).expect("stream, oltp or modelcheck"))
        .unwrap_or(Workload::Stream);
    let mut lengths: Vec<usize> = args.map(|a| a.parse().expect("ops per core")).collect();
    if lengths.is_empty() {
        lengths = vec![1_500, 3_000, 6_000, 12_000, 24_000];
    }
    println!(
        "{:>8} {:>9} {:>9} {:>10} {:>11} {:>11} {:>13}",
        "ops/core", "events", "wall_s", "events/s", "core share", "core ns/call", "rest ns/event"
    );
    for ops in lengths {
        let mut c = case(workload, Size::Full, 1);
        c.sim.cfg.ops_per_core = ops;
        c.model = None;
        let expect = Expect::new(&c);
        let best: Rep = (0..3)
            .map(|_| run_rep(&c, true, &expect).expect("checked repetition"))
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("three repetitions");
        let layers = best.layers.expect("traced");
        let get = |n: &str| layers.iter().find(|l| l.0 == n).expect("layer").1;
        let events = get("kernel.events");
        println!(
            "{ops:>8} {events:>9} {:>9.3} {:>10.0} {:>10.0}% {:>11.0} {:>13.0}",
            best.wall_s,
            events / best.wall_s,
            100.0 * get("core.host_s") / best.wall_s,
            get("core.ns_per_call"),
            get("rest.host_s") * 1e9 / events,
        );
    }
}
