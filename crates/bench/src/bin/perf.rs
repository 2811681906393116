//! `perf` — kernel-throughput microbench tracking the perf trajectory.
//!
//! Four measurements:
//!
//! * **ping-pong**: two components exchanging one message over a single
//!   intra-cluster link — a pure event-kernel hot-path workload (calendar
//!   queue pop, fabric deliver, handler dispatch) with almost no
//!   component logic, so events/sec here is the kernel's ceiling;
//! * **workload**: a real C³ run (`vips`, MESI-CXL-MESI) — events/sec
//!   with protocol logic, caches and the full topology in the loop;
//! * **metrics**: the same vips run with sampled telemetry enabled
//!   (`metrics+vips/...`) — bounds the allocation cost of the metrics
//!   hub's steady-state sampling;
//! * **oltp**: the OLTP/KV quick cell (`oltp-quick/...`, skew 0.99,
//!   `state_metrics` on) — bounds the per-line store's promote/demote
//!   churn, which must recycle slab slots at steady state.
//!
//! Each measurement reports **events/sec** (wall-clock, noisy) and
//! **allocs/event** (exact and deterministic for a seed — the process
//! runs under [`c3_bench::alloc::CountingAlloc`]), both in total and for
//! the event loop alone ("run-only": build and report excluded, so the
//! steady per-event cost shows even where the build dominates the
//! total). Results append to the
//! `runs` array of the output JSON (default `BENCH_perf.json`), so
//! successive invocations — and CI's per-commit artifacts — accumulate
//! comparable points instead of overwriting each other.
//!
//! Exits nonzero if any measurement reports zero throughput, if
//! `--alloc-budget FILE` is given and a measurement exceeds one of its
//! committed total or run-only allocs/event budgets for this mode (the
//! deterministic perf gate; see `crates/bench/alloc_budget.txt` and the
//! perf-smoke CI job), or if
//! `--floor-label TEXT` is given and the ping-pong, vips or oltp-quick
//! throughput drops below the median of the committed same-`quick`
//! entries under that label by more than 20% (quick) or 40% (full), the
//! wall-clock regression floors. Every gate is evaluated and every
//! failure listed before the one exit. A budget file that cannot be
//! read or has a malformed line is rejected as a usage error (exit 2)
//! before anything is measured.
//!
//! Usage: `cargo run --release -p c3-bench --bin perf [-- --quick]
//! [--exchanges N] [--out PATH] [--label TEXT] [--alloc-budget FILE]
//! [--floor-label TEXT]`

use c3_bench::outln;
use std::any::Any;

use c3::system::GlobalProtocol;
use c3_bench::alloc::{alloc_count, CountingAlloc};
use c3_bench::cli::{self, CliError};
use c3_bench::runner::{self, json_escape, Experiment};
use c3_bench::RunConfig;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_sim::prelude::*;
use c3_workloads::WorkloadSpec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone)]
struct Ball(u64);
impl Message for Ball {}

/// Ping-pong player: returns the ball until the exchange budget drains.
struct Player {
    peer: Option<ComponentId>,
    budget: u64,
    serve: bool,
    done: bool,
}

impl Component<Ball> for Player {
    fn name(&self) -> String {
        "player".into()
    }
    fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
        if self.serve {
            ctx.send(self.peer.unwrap(), Ball(0));
        }
    }
    fn handle(&mut self, msg: Ball, _src: ComponentId, ctx: &mut Ctx<'_, Ball>) {
        if msg.0 < self.budget {
            ctx.send(self.peer.unwrap(), Ball(msg.0 + 1));
        } else {
            self.done = true;
        }
    }
    fn done(&self) -> bool {
        self.done || !self.serve
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One measured run, rendered as an entry of the JSON `runs` array.
struct Measurement {
    config: String,
    events: u64,
    sim_ns: u64,
    exec_ns: Option<u64>,
    wall_ms: f64,
    events_per_sec: f64,
    allocs: u64,
    allocs_per_event: f64,
    /// Allocations inside the event loop alone (build and report
    /// excluded): the steady per-event cost the total hides.
    run_allocs: u64,
    run_allocs_per_event: f64,
}

impl Measurement {
    fn to_json(&self, label: &str, quick: bool) -> String {
        let exec = self
            .exec_ns
            .map(|n| format!("\"exec_ns\": {n}, "))
            .unwrap_or_default();
        format!(
            "{{\"label\": \"{}\", \"config\": \"{}\", \"quick\": {quick}, \"events\": {}, \
             \"sim_ns\": {}, {exec}\"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
             \"allocs\": {}, \"allocs_per_event\": {:.4}, \"run_allocs\": {}, \
             \"run_allocs_per_event\": {:.4}}}",
            json_escape(label),
            json_escape(&self.config),
            self.events,
            self.sim_ns,
            self.wall_ms,
            self.events_per_sec,
            self.allocs,
            self.allocs_per_event,
            self.run_allocs,
            self.run_allocs_per_event,
        )
    }

    /// The console line: throughput, then total and run-only allocs/event.
    fn print(&self, what: &str) {
        outln!(
            "{what:<9}: {} {} events in {:.1} ms -> {:.2} M events/sec, {:.4} allocs/event \
             ({:.4} in the run)",
            self.config,
            self.events,
            self.wall_ms,
            self.events_per_sec / 1e6,
            self.allocs_per_event,
            self.run_allocs_per_event
        );
    }
}

/// Measure an `exchanges`-long ping-pong over one intra-cluster link.
fn pingpong(exchanges: u64) -> Measurement {
    // Odd-numbered balls land on the server, whose `done` flag gates the
    // run — an odd budget puts the final ball there.
    let exchanges = exchanges | 1;
    let mut sim: Simulator<Ball> = Simulator::new(1);
    let a = sim.add_component(Box::new(Player {
        peer: None,
        budget: exchanges,
        serve: true,
        done: false,
    }));
    let b = sim.add_component(Box::new(Player {
        peer: None,
        budget: exchanges,
        serve: false,
        done: false,
    }));
    sim.component_as_mut::<Player>(a).unwrap().peer = Some(b);
    sim.component_as_mut::<Player>(b).unwrap().peer = Some(a);
    let link = sim.fabric_mut().add_link(LinkConfig::intra_cluster());
    sim.fabric_mut().set_route_bidi(a, b, vec![link]);
    sim.set_perf_reporting(true);
    let a0 = alloc_count();
    assert_eq!(sim.run(), RunOutcome::Completed, "ping-pong wedged");
    let allocs = alloc_count() - a0;
    let events = sim.events_processed().max(1) as f64;
    let report = sim.report();
    let eps = report
        .get("sim.events_per_sec")
        .expect("perf reporting surfaces sim.events_per_sec");
    Measurement {
        config: "pingpong".into(),
        events: sim.events_processed(),
        sim_ns: sim.now().as_ns(),
        exec_ns: None,
        wall_ms: sim.wall_time().as_secs_f64() * 1_000.0,
        events_per_sec: eps,
        allocs,
        allocs_per_event: allocs as f64 / events,
        // The build is two components and a link, made before `a0`.
        run_allocs: allocs,
        run_allocs_per_event: allocs as f64 / events,
    }
}

/// Measure the real vips run (MESI-CXL-MESI, the paper's headline
/// config). With `metrics` the sampled-telemetry hub runs at the
/// `--bin metrics` default interval, so the gate also bounds the
/// steady-state sampling cost (registration allocates once; each window
/// after that must reuse its buffers).
fn workload(quick: bool, metrics: bool) -> Measurement {
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    );
    if quick {
        cfg = cfg.quick();
    }
    if metrics {
        cfg = cfg.metrics_ns(if quick { 25 } else { 100 });
    }
    let spec = WorkloadSpec::by_name("vips").expect("workload");
    let exp = Experiment::new(spec, cfg);
    let a0 = alloc_count();
    let r = runner::run_experiment(&exp);
    let allocs = alloc_count() - a0;
    r.expect_completed(&exp.tag);
    let config = if metrics {
        format!("metrics+{}", exp.tag)
    } else {
        exp.tag.clone()
    };
    Measurement {
        config,
        events: r.events,
        sim_ns: r.sim_ns,
        exec_ns: Some(r.exec_ns),
        wall_ms: r.wall_ms,
        events_per_sec: r.events_per_sec,
        allocs,
        allocs_per_event: allocs as f64 / r.events.max(1) as f64,
        run_allocs: r.run_allocs,
        run_allocs_per_event: r.run_allocs as f64 / r.events.max(1) as f64,
    }
}

/// Measure the OLTP/KV engine's quick cell (2¹⁴ keys, skew 0.99, two
/// clusters, `state_metrics` on — the `--bin oltp --quick` hot cell).
/// This is the line store's churn workload: every directory line
/// promotes and demotes around each transaction, so its allocs/event
/// budget is what keeps the promotion/demotion cycle
/// allocation-recycling instead of per-event allocating.
fn workload_oltp(quick: bool) -> Measurement {
    let mut spec = WorkloadSpec::by_name("oltp-quick").expect("workload");
    spec.zipf_skew = 0.99;
    let mut cfg = RunConfig::scaled(
        (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
        GlobalProtocol::Cxl,
        (Mcm::Weak, Mcm::Weak),
    )
    .with_clusters(2)
    .with_state_metrics();
    cfg.ops_per_core = if quick { 300 } else { 3000 };
    let exp = Experiment::new(spec, cfg);
    let a0 = alloc_count();
    let r = runner::run_experiment(&exp);
    let allocs = alloc_count() - a0;
    r.expect_completed(&exp.tag);
    Measurement {
        config: exp.tag.clone(),
        events: r.events,
        sim_ns: r.sim_ns,
        exec_ns: Some(r.exec_ns),
        wall_ms: r.wall_ms,
        events_per_sec: r.events_per_sec,
        allocs,
        allocs_per_event: allocs as f64 / r.events.max(1) as f64,
        run_allocs: r.run_allocs,
        run_allocs_per_event: r.run_allocs as f64 / r.events.max(1) as f64,
    }
}

/// Pull the entries of the `"runs": [...]` array out of a previously
/// written document, so a new invocation appends rather than overwrites.
/// Returns `None` for missing files or pre-`runs` (schema 1) documents.
fn previous_runs(path: &str) -> Option<String> {
    let doc = std::fs::read_to_string(path).ok()?;
    let start = doc.find("\"runs\": [")? + "\"runs\": [".len();
    let mut depth = 1usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in doc[start..].char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    let body = doc[start..start + i].trim();
                    return (!body.is_empty()).then(|| body.to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Median committed throughput for a `config` prefix under `label` with
/// the same `quick` flag, scanned from a previously written document's
/// `runs` entries (one JSON object per line, as this bin writes them).
/// `None` when the label has no committed baseline for that config yet.
fn median_throughput(prev: &str, label: &str, quick: bool, config_prefix: &str) -> Option<f64> {
    let config_needle = format!("\"config\": \"{config_prefix}");
    let label_needle = format!("\"label\": \"{}\"", json_escape(label));
    let quick_needle = format!("\"quick\": {quick}");
    let mut rates: Vec<f64> = prev
        .lines()
        .filter(|line| {
            line.contains(&config_needle)
                && line.contains(&label_needle)
                && line.contains(&quick_needle)
        })
        .filter_map(|line| {
            let i = line.find("\"events_per_sec\": ")?;
            let rest = &line[i + "\"events_per_sec\": ".len()..];
            let end = rest.find(['}', ',']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let mid = rates.len() / 2;
    match rates.len() {
        0 => None,
        n if n % 2 == 1 => Some(rates[mid]),
        _ => Some((rates[mid - 1] + rates[mid]) / 2.0),
    }
}

/// One committed allocs/event budget.
struct Budget {
    /// Gates `--quick` runs (unqualified lines) or full runs (`full:`).
    quick: bool,
    /// Gates the run-only count (`run:`) instead of the total.
    run_only: bool,
    /// Measurements whose config starts with this.
    prefix: String,
    limit: f64,
}

/// Read and parse the committed budget file: `[full:][run:]<config-prefix>
/// <max-allocs-per-event>` per line, `#` comments allowed. Unqualified
/// lines gate the total of `--quick` runs; `full:` moves a line to full
/// runs and `run:` to the run-only count.
fn parse_budget(path: &str) -> Result<Vec<Budget>, CliError> {
    let bad = |reason: String| CliError::BadFile {
        path: path.to_string(),
        reason,
    };
    let text = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, limit) = line
            .split_once(char::is_whitespace)
            .and_then(|(key, limit)| Some((key, limit.trim().parse::<f64>().ok()?)))
            .ok_or_else(|| {
                bad(format!(
                    "line {}: {line:?} is not `[full:][run:]<config-prefix> <allocs/event>`",
                    n + 1
                ))
            })?;
        let (quick, key) = match key.strip_prefix("full:") {
            Some(rest) => (false, rest),
            None => (true, key),
        };
        let (run_only, prefix) = match key.strip_prefix("run:") {
            Some(rest) => (true, rest),
            None => (false, key),
        };
        out.push(Budget {
            quick,
            run_only,
            prefix: prefix.to_string(),
            limit,
        });
    }
    Ok(out)
}

const USAGE: &str = "usage: perf [--quick] [--exchanges N] [--out PATH] [--label TEXT]\n\
     \x20           [--alloc-budget FILE] [--floor-label TEXT]\n";

fn main() {
    let (quick, exchanges, out, label, budget, floor_label) = cli::parse(USAGE, |args| {
        let budget = match args.value::<String>("--alloc-budget")? {
            Some(path) => Some((parse_budget(&path)?, path)),
            None => None,
        };
        Ok((
            args.flag("--quick"),
            args.value::<u64>("--exchanges")?,
            args.value("--out")?
                .unwrap_or_else(|| "BENCH_perf.json".to_string()),
            args.value("--label")?
                .unwrap_or_else(|| "local".to_string()),
            budget,
            args.value::<String>("--floor-label")?,
        ))
    });
    let exchanges = exchanges.unwrap_or(if quick { 200_000 } else { 2_000_000 }) | 1;

    if cfg!(debug_assertions) {
        // Debug builds check every controller step against its
        // transition table, built on first use. Build them outside the
        // measurements so a debug run counts what a release run counts.
        workload(true, false);
    }
    let pp = pingpong(exchanges);
    pp.print("pingpong");
    let wl = workload(quick, false);
    wl.print("workload");
    let wlm = workload(quick, true);
    wlm.print("metrics");
    let wlo = workload_oltp(quick);
    wlo.print("oltp");

    // Capture the committed entries before appending: the floor gate
    // below must compare against history, not against this run.
    let prev = previous_runs(&out);
    let mut entries: Vec<String> = Vec::new();
    if let Some(p) = &prev {
        entries.push(p.clone());
    }
    entries.push(pp.to_json(&label, quick));
    entries.push(wl.to_json(&label, quick));
    entries.push(wlm.to_json(&label, quick));
    entries.push(wlo.to_json(&label, quick));
    let json = format!(
        "{{\n  \"bench\": \"perf\",\n  \"schema\": 2,\n  \"runs\": [\n    {}\n  ]\n}}\n",
        entries.join(",\n    ")
    );
    std::fs::write(&out, &json).expect("write perf json");
    outln!("(wrote {out})");

    // Evaluate every gate, then exit once: a run that breaks the
    // deterministic budget must say so even when a noisy floor fails too.
    let measured = [&pp, &wl, &wlm, &wlo];
    let mut failures: Vec<String> = Vec::new();
    if measured.iter().any(|m| m.events_per_sec <= 0.0) {
        failures.push("zero throughput measured".into());
    }

    if let Some(flabel) = floor_label {
        // The kernel ceiling (pingpong), the full-system hot path (vips)
        // and the shared-miss path (oltp-quick) all gate: a regression
        // confined to protocol/cache logic leaves pingpong untouched but
        // still drags the workloads. Quick cells keep the 80 % floor.
        // Full cells sit at 60 %: on a shared 2-CPU host, single full runs
        // fell to 72 % of their label's median (EXPERIMENTS.md, "Core
        // issue cost"), while full vips before the single-pass issue logic
        // ran below 50 % of today's median.
        let share = if quick { 0.8 } else { 0.6 };
        let pct = share * 100.0;
        for (name, m, prefix) in [
            ("pingpong", &pp, "pingpong"),
            ("vips", &wl, "vips/"),
            ("oltp-quick", &wlo, "oltp-quick/"),
        ] {
            match prev
                .as_deref()
                .and_then(|p| median_throughput(p, &flabel, quick, prefix))
            {
                Some(base) => {
                    let floor = base * share;
                    if m.events_per_sec < floor {
                        failures.push(format!(
                            "{name} {:.2} M events/sec is below the floor {:.2} M \
                             ({pct:.0}% of the median committed '{flabel}' entry, {:.2} M)",
                            m.events_per_sec / 1e6,
                            floor / 1e6,
                            base / 1e6
                        ));
                    } else {
                        outln!(
                            "floor   : {name} {:.2} M events/sec >= {:.2} M ({pct:.0}% of '{flabel}' median)",
                            m.events_per_sec / 1e6,
                            floor / 1e6
                        );
                    }
                }
                None => {
                    outln!("floor   : no committed '{flabel}' {name} baseline yet; skipping")
                }
            }
        }
    }

    if let Some((budget, path)) = budget {
        for b in budget.iter().filter(|b| b.quick == quick) {
            let (what, limit) = (if b.run_only { "run-only " } else { "" }, b.limit);
            match measured.iter().find(|m| m.config.starts_with(&b.prefix)) {
                Some(m) => {
                    let got = if b.run_only {
                        m.run_allocs_per_event
                    } else {
                        m.allocs_per_event
                    };
                    if got > limit {
                        failures.push(format!(
                            "{} {what}allocs/event {got:.4} exceeds budget {limit} ({path})",
                            m.config
                        ));
                    } else {
                        outln!(
                            "budget  : {} {what}{got:.4} allocs/event <= {limit}",
                            m.config
                        );
                    }
                }
                None => failures.push(format!("budget entry {} matches no measurement", b.prefix)),
            }
        }
    }

    for f in &failures {
        eprintln!("perf: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
