//! `metrics` — run one named workload with sampled telemetry enabled,
//! write the timeseries (CSV by default, JSON with `--json`), and print
//! a windowed summary plus peak-window bottleneck attribution.
//!
//! ```text
//! cargo run -p c3-bench --bin metrics -- vips
//! cargo run -p c3-bench --bin metrics -- histogram --interval-ns 50 --out /tmp/h.csv --full
//! cargo run -p c3-bench --bin metrics -- vips --trace /tmp/vips.json
//! ```
//!
//! The timeseries covers per-link backlog/throughput, L1 MSHR occupancy,
//! bridge in-flight transactions, directory/DCOH occupancy and retry
//! counters, per-component event attribution and per-vnet message counts
//! — all sampled on simulated-time boundaries, so same-seed runs emit
//! byte-identical files. `--trace` additionally writes a Perfetto trace
//! with the sampled series appended as counter tracks.
//!
//! Over CXL the summary ends with the §VI-C1 hot-line profile: the
//! DCOH's most-requested lines over the whole run. CXL-sensitive
//! workloads (histogram, barnes) show lines read and written by several
//! hosts; vips shows none.

use c3_bench::outln;
use std::num::NonZeroU64;

use c3::system::GlobalProtocol;
use c3_bench::{build_sim, cli, RunConfig};
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::kernel::RunOutcome;
use c3_sim::metrics::MetricsHub;
use c3_workloads::WorkloadSpec;

const USAGE: &str =
    "usage: metrics <workload> [--interval-ns N] [--out FILE] [--json] [--quick|--full]
                  [--baseline] [--trace FILE] [--max-windows N]
       --interval-ns N   sample interval in simulated ns (default: 25 quick, 100 full)
       --out FILE        timeseries path (default: metrics-<workload>.csv/.json)
       --json            write the JSON export (with per-window hot addresses)
       --quick           quick configuration (the default; kept for CI clarity)
       --full            paper-scale run instead of the quick configuration
       --baseline        hierarchical MESI global instead of CXL
       --trace FILE      also write a Perfetto trace with counter tracks
       --max-windows N   decimation cap on stored windows (default: 4096)
";

struct Opts {
    interval_ns: Option<NonZeroU64>,
    out_path: Option<String>,
    json: bool,
    full: bool,
    baseline: bool,
    trace_path: Option<String>,
    max_windows: Option<usize>,
    spec: WorkloadSpec,
}

/// Columns of interest, resolved once from the registered metric names.
struct Columns {
    /// `(column, component name)` for each `comp.<name>.events` series.
    comp_events: Vec<(usize, String)>,
    /// `(column, link id)` for each `link.<i>.backlog_ns` series.
    link_backlog: Vec<(usize, u32)>,
}

fn resolve_columns(hub: &MetricsHub) -> Columns {
    let mut comp_events = Vec::new();
    let mut link_backlog = Vec::new();
    for (m, name) in hub.metric_names().iter().enumerate() {
        if let Some(comp) = name
            .strip_prefix("comp.")
            .and_then(|r| r.strip_suffix(".events"))
        {
            comp_events.push((m, comp.to_string()));
        } else if let Some(idx) = name
            .strip_prefix("link.")
            .and_then(|r| r.strip_suffix(".backlog_ns"))
            .and_then(|i| i.parse().ok())
        {
            link_backlog.push((m, idx));
        }
    }
    Columns {
        comp_events,
        link_backlog,
    }
}

/// Human name for a link: `src->dst` via the first route carrying it.
fn link_label(
    id: u32,
    ends: &[Option<(
        c3_sim::component::ComponentId,
        c3_sim::component::ComponentId,
    )>],
    names: &[String],
) -> String {
    match ends.get(id as usize).copied().flatten() {
        Some((s, d)) => format!(
            "{}->{}",
            names.get(s.index()).map(String::as_str).unwrap_or("?"),
            names.get(d.index()).map(String::as_str).unwrap_or("?")
        ),
        None => format!("link.{id}"),
    }
}

/// `(index into the resolved column list, value)` of a window's winner.
type Best = Option<(usize, f64)>;

/// Per-window attribution: total events, the busiest component and its
/// share, and the most-backlogged link.
fn attribute(hub: &MetricsHub, cols: &Columns, w: usize) -> (f64, Best, Best) {
    let mut total = 0.0;
    let mut best_comp: Best = None;
    for (i, &(m, _)) in cols.comp_events.iter().enumerate() {
        let d = hub.delta(w, m);
        total += d;
        if best_comp.map(|(_, b)| d > b).unwrap_or(d > 0.0) {
            best_comp = Some((i, d));
        }
    }
    let mut best_link: Best = None;
    for (i, &(m, _)) in cols.link_backlog.iter().enumerate() {
        let v = hub.value(w, m);
        if best_link.map(|(_, b)| v > b).unwrap_or(v > 0.0) {
            best_link = Some((i, v));
        }
    }
    (total, best_comp, best_link)
}

fn main() {
    let usage = format!("{USAGE}{}", cli::workload_names());
    let o = cli::parse(&usage, |args| {
        Ok(Opts {
            interval_ns: args.value("--interval-ns")?,
            out_path: args.value("--out")?,
            json: args.flag("--json"),
            // `--quick` is the default; given with `--full`, it wins.
            full: args.flag("--full") & !args.flag("--quick"),
            baseline: args.flag("--baseline"),
            trace_path: args.value("--trace")?,
            max_windows: args.value("--max-windows")?,
            spec: args.workload()?,
        })
    });
    let (name, full, json) = (o.spec.name, o.full, o.json);

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
    if !full {
        cfg = cfg.quick();
    }
    cfg = cfg.metrics_ns(
        o.interval_ns
            .map_or(if full { 100 } else { 25 }, NonZeroU64::get),
    );

    let (mut sim, handles) = build_sim(&o.spec, &cfg);
    if let Some(cap) = o.max_windows {
        sim.metrics_mut().set_max_windows(cap);
    }
    if o.trace_path.is_some() {
        sim.set_tracing(1_000_000);
    }
    let outcome = sim.run();
    // One tail sample so the series always covers the final state (the
    // boundary sampler only fires when a later event crosses a boundary).
    sim.sample_metrics_now();

    // Write the timeseries before anything else — a truncated run is
    // exactly when the occupancy history is most valuable.
    let path = o
        .out_path
        .unwrap_or_else(|| format!("metrics-{name}.{}", if json { "json" } else { "csv" }));
    let body = if json {
        sim.metrics().to_json()
    } else {
        sim.metrics().to_csv()
    };
    std::fs::write(&path, body).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    if let Some(tp) = &o.trace_path {
        std::fs::write(tp, sim.trace_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {tp}: {e}");
            std::process::exit(1);
        });
    }

    if matches!(
        outcome,
        RunOutcome::Deadlock | RunOutcome::EventLimit | RunOutcome::TimeLimit
    ) {
        eprintln!("{}", sim.post_mortem(outcome));
        eprintln!("partial timeseries written to {path}");
        std::process::exit(1);
    }

    let hub = sim.metrics();
    let windows = hub.windows();
    outln!(
        "{name} [{}]: {:?} at {} after {} events",
        cfg.label(),
        outcome,
        sim.now(),
        sim.events_processed()
    );
    outln!(
        "telemetry: {windows} window(s) x {} series, interval {} ns ({} decimation(s)) -> {path}",
        hub.metric_names().len(),
        hub.interval().as_ns(),
        hub.decimations()
    );
    if windows == 0 {
        eprintln!("no samples taken: run shorter than one sample interval");
        std::process::exit(1);
    }

    let cols = resolve_columns(hub);
    let names = sim.component_names();
    let ends = sim.fabric().link_route_endpoints();

    // Windowed summary: up to 16 evenly spaced windows.
    outln!(
        "\n{:>7} {:>12} {:>9}  {:<28} {:<26} hottest addr",
        "window",
        "t_ns",
        "events",
        "busiest component",
        "max-backlog link"
    );
    let step = windows.div_ceil(16);
    let shown: Vec<usize> = (0..windows).step_by(step.max(1)).collect();
    for &w in &shown {
        let (total, comp, link) = attribute(hub, &cols, w);
        let comp_s = match comp {
            Some((i, d)) if total > 0.0 => {
                format!("{} ({:.0}%)", cols.comp_events[i].1, 100.0 * d / total)
            }
            _ => "-".into(),
        };
        let link_s = match link {
            Some((i, v)) => format!(
                "{} {:.0} ns",
                link_label(cols.link_backlog[i].1, &ends, &names),
                v
            ),
            None => "-".into(),
        };
        let addr_s = match hub.top_addrs(w).first() {
            Some(&(a, c)) => format!("{a:#x} ({c})"),
            None => "-".into(),
        };
        outln!(
            "{:>7} {:>12} {:>9.0}  {:<28} {:<26} {}",
            w,
            hub.window_time(w).as_ns(),
            total,
            comp_s,
            link_s,
            addr_s
        );
    }

    // Peak-window attribution: the window with the most delivered events.
    let peak = (0..windows)
        .max_by(|&a, &b| {
            let ta = attribute(hub, &cols, a).0;
            let tb = attribute(hub, &cols, b).0;
            ta.partial_cmp(&tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a)) // earliest such window wins deterministically
        })
        .expect("windows > 0");
    let (total, comp, link) = attribute(hub, &cols, peak);
    let mut parts = Vec::new();
    if let Some((i, d)) = comp {
        if total > 0.0 {
            parts.push(format!(
                "{:.0}% of events in {} ({:.0}/{:.0})",
                100.0 * d / total,
                cols.comp_events[i].1,
                d,
                total
            ));
        }
    }
    if let Some((i, v)) = link {
        parts.push(format!(
            "link {} backlog {:.0} ns",
            link_label(cols.link_backlog[i].1, &ends, &names),
            v
        ));
    }
    if let Some(&(a, c)) = hub.top_addrs(peak).first() {
        parts.push(format!("hottest addr {a:#x} ({c} msgs)"));
    }
    outln!(
        "\npeak window {peak} [t={} ns]: {}",
        hub.window_time(peak).as_ns(),
        if parts.is_empty() {
            "idle".to_string()
        } else {
            parts.join("; ")
        }
    );

    if let Some(dcoh) = sim.component_as::<c3_cxl::CxlDirectory>(handles.global_dir) {
        outln!("\nhot lines at the DCOH (whole run):");
        outln!(
            "   {:<8} {:>8} {:>8} {:>8}",
            "line",
            "reads",
            "writes",
            "hosts"
        );
        for h in dcoh.engine().hottest(8) {
            let marker = if h.sharers > 1 && h.writes > 0 {
                "  <- multi-host hot-spot"
            } else {
                ""
            };
            outln!(
                "   {:<8} {:>8} {:>8} {:>8}{marker}",
                h.addr.to_string(),
                h.reads,
                h.writes,
                h.sharers
            );
        }
    }
}
