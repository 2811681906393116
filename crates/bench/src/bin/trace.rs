//! `trace` — run one named workload with transaction tracing enabled,
//! write a Perfetto-loadable Chrome trace JSON, and print the latency
//! histogram summary.
//!
//! ```text
//! cargo run -p c3-bench --bin trace -- vips
//! cargo run -p c3-bench --bin trace -- histogram --out /tmp/hist.json --cap 500000 --full
//! cargo run -p c3-bench --bin trace -- vips --report > /tmp/a.txt
//! ```
//!
//! `--report` prints the run's complete statistics report instead (one
//! sorted `key=value` per line, via `c3_bench::render_report`) for
//! byte-identity diffs between builds; with `--baseline` it reports the
//! hierarchical-MESI run, so diffing the two compares baseline vs CXL.
//!
//! Load the emitted JSON at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per component, `bridge` spans showing
//! Rule-II nesting (snoop ⊃ writeback, evict ⊃ writeback), `l1` spans for
//! MSHR lifetimes, instant markers for message deliveries.
//!
//! If the run deadlocks or hits the event limit, the post-mortem dump
//! (every in-flight transaction, the oldest blocked one, and its wait
//! chain) is printed instead of a trace summary.

use c3::system::GlobalProtocol;
use c3_bench::{build_sim, cli, exec_times, render_report, RunConfig};
use c3_bench::{out, outln};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_workloads::WorkloadSpec;

const USAGE: &str = "usage: trace <workload> [--out FILE] [--cap N] [--events N] [--full] [--text]
                    [--baseline] [--report]
       --out FILE   trace JSON path (default: trace-<workload>.json)
       --cap N      ring-buffer capacity in events (default: 1000000)
       --events N   cut the run off after N events (forces a post-mortem)
       --full       paper-scale run instead of the quick configuration
       --text       also print the compact text dump to stdout
       --baseline   hierarchical MESI global instead of CXL
       --report     print the sorted key=value report instead of writing a trace
";

struct Opts {
    out_path: Option<String>,
    cap: usize,
    events: Option<u64>,
    full: bool,
    text: bool,
    baseline: bool,
    report: bool,
    spec: WorkloadSpec,
}

fn main() {
    let usage = format!("{USAGE}{}", cli::workload_names());
    let o = cli::parse(&usage, |args| {
        Ok(Opts {
            out_path: args.value("--out")?,
            cap: args.value("--cap")?.unwrap_or(1_000_000),
            events: args.value("--events")?,
            full: args.flag("--full"),
            text: args.flag("--text"),
            baseline: args.flag("--baseline"),
            report: args.flag("--report"),
            spec: args.workload()?,
        })
    });
    let name = o.spec.name;
    let cap = o.cap;

    let global = if o.baseline {
        GlobalProtocol::Hierarchical(ProtocolFamily::Mesi)
    } else {
        GlobalProtocol::Cxl
    };
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        global,
        (Mcm::Weak, Mcm::Weak),
    );
    if !o.full {
        cfg = cfg.quick();
    }

    let (mut sim, handles) = build_sim(&o.spec, &cfg);
    if !o.report {
        sim.set_tracing(cap);
    }
    if let Some(n) = o.events {
        sim.set_event_limit(n);
    }
    let outcome = sim.run();

    if o.report {
        if outcome != RunOutcome::Completed {
            eprintln!("{}", sim.post_mortem(outcome));
            std::process::exit(1);
        }
        let (exec_ns, _) = exec_times(&sim, &handles);
        outln!("{}", render_report(exec_ns, &sim.report()));
        return;
    }

    // Write the trace before anything else: a truncated run is exactly
    // when the trace is most valuable (it shows what led up to the stall),
    // so the file must land on disk even when we exit nonzero below.
    let path = o.out_path.unwrap_or_else(|| format!("trace-{name}.json"));
    std::fs::write(&path, sim.trace_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    if o.text {
        out!("{}", sim.trace_text());
    }

    if matches!(
        outcome,
        RunOutcome::Deadlock | RunOutcome::EventLimit | RunOutcome::TimeLimit
    ) {
        eprintln!("{}", sim.post_mortem(outcome));
        eprintln!("partial trace written to {path}");
        std::process::exit(1);
    }

    let tracer = sim.tracer();
    outln!(
        "{name} [{}]: {:?} at {} after {} events",
        cfg.label(),
        outcome,
        sim.now(),
        sim.events_processed()
    );
    outln!(
        "trace: {} buffered event(s), {} dropped (ring cap {cap}) -> {path}",
        tracer.len(),
        tracer.dropped()
    );
    outln!("open in https://ui.perfetto.dev or chrome://tracing");

    // Latency-histogram summary: every `*.lat.*` key the run produced.
    let report = sim.report();
    let mut classes: Vec<&str> = report
        .iter()
        .filter_map(|(k, _)| k.strip_suffix(".lat.count"))
        .collect();
    classes.sort_unstable();
    if classes.is_empty() {
        outln!("no latency histograms recorded");
        return;
    }
    outln!(
        "\n{:<40} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "transaction class",
        "count",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "max_ns"
    );
    for c in classes {
        let g = |stat: &str| report.get(&format!("{c}.lat.{stat}")).unwrap_or(f64::NAN);
        outln!(
            "{:<40} {:>10} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            c,
            g("count"),
            g("p50_ns"),
            g("p95_ns"),
            g("p99_ns"),
            g("max_ns")
        );
    }
}
