//! # c3-perfbench — the repository's benchmark
//!
//! One command runs one named workload for one seed, checks its outputs
//! and prints every metric with its unit; `--trace 1` runs the traced
//! variant that times each layer from outside, around the benchmark's
//! calls into that layer's public API. See `README.md` beside this crate
//! for the workloads, the metrics and what each layer metric should move.
//!
//! A run is a closed loop with one client: each repetition sets up the
//! workload, simulates (or explores) its fixed program to completion and
//! checks the result, and repetitions follow one another until the
//! measuring time is spent. Everything runs on one thread with the
//! sequential kernel.

pub mod case;
pub mod measure;
pub mod output;
pub mod shim;
pub mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use case::Case;
use measure::{run_rep, Expect, Rep};
use output::{Outcome, PER_LAYER};

/// Fewest measured repetitions of each kind, however long they take.
const MIN_REPS: usize = 3;

/// How one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Measuring time; repetitions continue until it is spent.
    pub seconds: f64,
    /// Interleave traced repetitions and report per-layer metrics.
    pub trace: bool,
}

/// Run `case` under `plan`: an untimed traced warm-up, then measured
/// repetitions until the time is spent, each checked, and every
/// repetition's report fingerprint compared with the warm-up's.
///
/// With `trace` off the metrics are the end-to-end ones; with `trace` on,
/// traced and untraced repetitions alternate and the metrics are the
/// per-layer ones plus the tracing overhead. Host times come from the
/// fastest repetition: the host has slow phases lasting seconds, which
/// only ever add time, so the minimum over a run's repetitions repeats
/// from run to run where the median does not (see the README).
pub fn run(case: &Case, plan: Plan) -> Outcome {
    let expect = Expect::new(case);
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference: Option<u64> = None;
    let mut rep = |traced: bool| -> Option<Rep> {
        attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| run_rep(case, traced, &expect)))
            .unwrap_or_else(|_| Err("the repetition panicked".to_string()))
            .and_then(|r| match reference {
                None => {
                    reference = Some(r.fingerprint);
                    Ok(r)
                }
                Some(f) if f == r.fingerprint => Ok(r),
                Some(f) => Err(format!(
                    "report fingerprint {:#x} differs from the warm-up's {f:#x} \
                     ({} repetition)",
                    r.fingerprint,
                    if traced { "traced" } else { "untraced" }
                )),
            });
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("{}: check failed: {e}", case.workload.name());
                failed += 1;
                None
            }
        }
    };

    let warm = rep(true);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let budget = Duration::from_secs_f64(plan.seconds);
    let start = Instant::now();
    while warm.is_some()
        && (start.elapsed() < budget
            || plain.len() < MIN_REPS
            || (plan.trace && traced.len() < MIN_REPS))
    {
        if plan.trace {
            match rep(true) {
                Some(r) => traced.push(r),
                None => break,
            }
        }
        match rep(false) {
            Some(r) => plain.push(r),
            None => break,
        }
    }

    let correct = failed == 0;
    let metrics = if !correct {
        Vec::new()
    } else if plan.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The repetition with the least host time in its timed run.
fn fastest(reps: &[Rep]) -> &Rep {
    reps.iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition")
}

fn end_to_end(plain: &[Rep]) -> Vec<(&'static str, f64)> {
    let best = fastest(plain);
    let setup = plain
        .iter()
        .map(|r| r.setup_s)
        .fold(f64::INFINITY, f64::min);
    vec![
        ("wall_s", best.wall_s),
        ("work_per_s", best.work / best.wall_s),
        ("setup_s", setup),
        ("peak_rss_mb", stats::peak_rss_mb()),
        // Simulated figures are equal in every repetition of a seed (the
        // fingerprint check enforces it).
        ("sim_exec_us", best.sim_exec_us),
        ("sim_lat_p99_ns", best.sim_lat_p99_ns),
    ]
}

fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<(&'static str, f64)> {
    let best = fastest(traced);
    let layers = best
        .layers
        .as_ref()
        .expect("traced repetitions carry layers");
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "trace.overhead" => best.wall_s / fastest(plain).wall_s - 1.0,
                "trace.reps" => traced.len() as f64,
                _ => {
                    layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .unwrap_or_else(|| panic!("layer {name} not measured"))
                        .1
                }
            };
            (name, v)
        })
        .collect()
}
