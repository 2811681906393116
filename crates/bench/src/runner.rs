//! Parallel experiment runner.
//!
//! The paper's evaluation is a *grid* — workload × protocol combination ×
//! MCM assignment × link latency × seed — and every cell is an
//! independent, deterministic simulation. This module fans the cells of
//! such a grid across OS threads with a dependency-free
//! `std::thread::scope` worker pool and collects the results **keyed by
//! config index**, so the assembled output is byte-identical regardless
//! of worker count or completion order. Each job is classified by its
//! [`RunOutcome`] rather than panicking mid-pool, and the whole grid can
//! be exported as machine-readable JSON (per-cell wall-clock, simulated
//! time, event count, events/sec) for perf-trajectory tracking
//! (`BENCH_*.json`).
//!
//! Determinism under parallelism holds because a [`crate::build_sim`]
//! simulation is a closed system: its RNG streams derive only from
//! `RunConfig::seed`, and no state is shared between cells. Threads
//! change *when* a cell runs, never *what* it computes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use c3_sim::kernel::RunOutcome;
use c3_sim::stats::Report;
use c3_workloads::WorkloadSpec;

use crate::{build_sim, exec_times, RunConfig};

/// Worker-thread count: `C3_BENCH_THREADS` if set (≥ 1), otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("C3_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over every job on a scoped worker pool of `threads` threads,
/// returning results in job order (index `i` of the output is `f(i,
/// &jobs[i])`), independent of scheduling. Jobs are pulled from a shared
/// atomic cursor, so long and short cells interleave without static
/// partitioning imbalance. A panicking job propagates after all workers
/// have drained.
pub fn run_indexed<T, R, F>(threads: usize, jobs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panicked = None;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break got;
                        }
                        got.push((i, f(i, &jobs[i])));
                    }
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(got) => {
                    for (i, r) in got {
                        slots[i] = Some(r);
                    }
                }
                Err(p) => panicked = Some(p),
            }
        }
    });
    if let Some(p) = panicked {
        std::panic::resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every job index produced a result"))
        .collect()
}

/// One cell of an experiment grid: a workload under a configuration,
/// with a human-readable tag for tables and JSON.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Display tag (e.g. `"link70/MESI-CXL-MESI"`).
    pub tag: String,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// The system configuration.
    pub cfg: RunConfig,
}

impl Experiment {
    /// An experiment tagged with the config's protocol label.
    pub fn new(workload: WorkloadSpec, cfg: RunConfig) -> Self {
        Experiment {
            tag: format!("{}/{}", workload.name, cfg.label()),
            workload,
            cfg,
        }
    }

    /// Replace the display tag.
    pub fn tagged(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }
}

/// Everything measured from one grid cell.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Simulated execution time (ns) — the paper's metric.
    pub exec_ns: u64,
    /// Per-cluster completion times (ns).
    pub cluster_ns: Vec<u64>,
    /// Final simulated time (ns).
    pub sim_ns: u64,
    /// Events delivered by the kernel.
    pub events: u64,
    /// Wall-clock spent in the event loop (ms; varies run to run).
    pub wall_ms: f64,
    /// Kernel throughput (events / wall second; varies run to run).
    pub events_per_sec: f64,
    /// Allocation calls inside the event loop alone, by
    /// [`crate::alloc::alloc_count`]: 0 unless the counting allocator is
    /// installed, and exact only while one experiment runs at a time
    /// (the counter is process-wide).
    pub run_allocs: u64,
    /// Full statistics report.
    pub report: Report,
    /// Post-mortem text when `outcome != Completed`.
    pub failure: Option<String>,
}

impl ExperimentResult {
    /// Assert the run completed, panicking with the post-mortem if not.
    pub fn expect_completed(&self, what: &str) -> &Self {
        if self.outcome != RunOutcome::Completed {
            panic!(
                "{what}: run ended {:?}\n{}",
                self.outcome,
                self.failure.as_deref().unwrap_or("")
            );
        }
        self
    }
}

/// Run one experiment cell, classifying the outcome instead of
/// panicking, so a deadlocked cell doesn't poison a whole grid.
pub fn run_experiment(exp: &Experiment) -> ExperimentResult {
    let (mut sim, handles) = build_sim(&exp.workload, &exp.cfg);
    let a0 = crate::alloc::alloc_count();
    let t0 = Instant::now();
    let outcome = sim.run();
    let wall = t0.elapsed();
    let run_allocs = crate::alloc::alloc_count() - a0;
    let failure = (outcome != RunOutcome::Completed).then(|| {
        format!(
            "{}\npending: {:?}",
            sim.post_mortem(outcome),
            sim.pending_components()
        )
    });
    let (exec_ns, cluster_ns) = exec_times(&sim, &handles);
    ExperimentResult {
        outcome,
        exec_ns,
        cluster_ns,
        sim_ns: sim.now().as_ns(),
        events: sim.events_processed(),
        wall_ms: wall.as_secs_f64() * 1_000.0,
        events_per_sec: sim.events_per_sec(),
        run_allocs,
        report: sim.report(),
        failure,
    }
}

/// Run a whole grid on `threads` workers; results are in grid order.
pub fn run_grid(threads: usize, grid: &[Experiment]) -> Vec<ExperimentResult> {
    run_indexed(threads, grid, |_, e| run_experiment(e))
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a grid and its results as a JSON document (`BENCH_*.json`
/// shape). With `timing` false, the wall-clock-derived fields
/// (`wall_ms`, `events_per_sec`) are omitted and the document is fully
/// deterministic for a seed — byte-identical for any worker count.
pub fn grid_json(grid: &[Experiment], results: &[ExperimentResult], timing: bool) -> String {
    assert_eq!(grid.len(), results.len(), "grid/result length mismatch");
    let mut out = String::from("{\n  \"experiments\": [\n");
    for (i, (e, r)) in grid.iter().zip(results).enumerate() {
        let cluster = r
            .cluster_ns
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "    {{\"tag\":\"{}\",\"workload\":\"{}\",\"config\":\"{}\",\"seed\":{},\
             \"link_ns\":{},\"ops_per_core\":{},\"outcome\":\"{:?}\",\"exec_ns\":{},\
             \"cluster_ns\":[{}],\"sim_ns\":{},\"events\":{}",
            json_escape(&e.tag),
            json_escape(e.workload.name),
            json_escape(&e.cfg.label()),
            e.cfg.seed,
            e.cfg.link_latency.as_ns(),
            e.cfg.ops_per_core,
            r.outcome,
            r.exec_ns,
            cluster,
            r.sim_ns,
            r.events,
        ));
        if timing {
            out.push_str(&format!(
                ",\"wall_ms\":{:.3},\"events_per_sec\":{:.0}",
                r.wall_ms, r.events_per_sec
            ));
        }
        out.push('}');
        if i + 1 < grid.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_job_order() {
        let jobs: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 5, 16] {
            let out = run_indexed(threads, &jobs, |i, &j| {
                assert_eq!(i as u64, j);
                j * j
            });
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_empty_grid() {
        let out: Vec<u64> = run_indexed(4, &[] as &[u64], |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn run_indexed_propagates_panics() {
        run_indexed(3, &[0u64, 1, 2, 3], |i, _| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }
}
