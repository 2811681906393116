//! `modelcheck` — exhaustive model checking of the C³ design (§VI-A).
//!
//! Drives `c3-verif::resilient` over a battery of cluster × address
//! configurations, printing per-config canonical/unreduced state counts,
//! edge counts and the symmetry reduction factor. Every clean run also
//! cross-checks the `(controller, state, event)` witnesses the explorer
//! collected against the declarative transition tables
//! (`check_model_conformance`), so the abstract model and the concrete
//! controllers cannot silently drift apart.
//!
//! The default battery (no `--config`, `--l1-cores` or `--inject`) ends
//! with the nested configurations: one or two cores with private L1s
//! behind every cluster copy, so snoops open Rule-II recalls. `--self-test`
//! runs the four injections: the two seeded resilience bugs, and the two
//! dropped design rules, which must hit the Fig. 4 and Fig. 2 races.
//!
//! ```text
//! cargo run --release -p c3-bench --bin modelcheck            # fast battery
//! cargo run --release -p c3-bench --bin modelcheck -- --deep  # 3x2 ops=2 headline
//! cargo run --release -p c3-bench --bin modelcheck -- --config 3x2 --ops 2 --faults 1
//! cargo run --release -p c3-bench --bin modelcheck -- --config 2x1 --l1-cores 2
//! cargo run --release -p c3-bench --bin modelcheck -- --inject lost-grant-livelock
//! cargo run --release -p c3-bench --bin modelcheck -- --self-test
//! ```
//!
//! Exit codes: `0` clean (or the injected bug was caught, under
//! `--inject`/`--self-test`), `1` an invariant violation was found (or
//! an injected bug was *missed*, a witness diverged from the tables, or
//! the exploration was truncated), `2` bad usage, including a
//! configuration the model cannot hold.

use c3_bench::outln;
use std::str::FromStr;

use c3::bridge::bridge_transition_table;
use c3_bench::cli::{self, CliError};
use c3_cxl::dcoh::dcoh_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_verif::resilient::{check_resilient, Injection, RViolation, ResilientConfig};
use c3_verif::static_checks::check_model_conformance;

/// The default fast battery: every topology up to 3 hosts × 2 addresses
/// with one operation per cluster and one fault budget. Completes in
/// well under a second in release builds.
const BATTERY: [(usize, usize); 4] = [(2, 1), (2, 2), (3, 1), (3, 2)];

/// The nested tail of the default battery, `(clusters, addrs, l1_cores,
/// ops per core, faults)`: one core per cluster fault-free at 2 and 3
/// ops, two cores per cluster at 2 ops, and one core per cluster over
/// two addresses under a one-fault budget. Under 2 s in release builds.
const NESTED: [(usize, usize, u8, u8, u8); 4] = [
    (2, 1, 1, 2, 0),
    (2, 1, 1, 3, 0),
    (2, 1, 2, 2, 0),
    (2, 2, 1, 2, 1),
];

/// `--config CLUSTERSxADDRS`, e.g. `3x2`.
#[derive(Clone, Copy)]
struct Shape(usize, usize);

impl FromStr for Shape {
    type Err = ();
    fn from_str(s: &str) -> Result<Shape, ()> {
        let (c, a) = s.split_once('x').ok_or(())?;
        Ok(Shape(c.parse().map_err(drop)?, a.parse().map_err(drop)?))
    }
}

struct Args {
    config: Option<Shape>,
    ops: Option<u8>,
    faults: Option<u8>,
    retries: Option<u8>,
    l1_cores: Option<u8>,
    max_states: Option<usize>,
    no_symmetry: bool,
    inject: Option<Injection>,
    self_test: bool,
    deep: bool,
    min_reduction: Option<f64>,
}

/// What one invocation runs: every configuration, validated up front.
struct Plan {
    runs: Vec<ResilientConfig>,
    self_test: bool,
    min_reduction: Option<f64>,
}

const USAGE: &str = "usage: modelcheck [--config CxA] [--ops N] [--faults N] [--retries N]
                  [--l1-cores N] [--max-states N] [--no-symmetry]
                  [--min-reduction F] [--deep] [--self-test]
                  [--inject lost-grant-livelock|poison-launder|
                            skip-recall-nesting|skip-conflict-stash]
";

fn parse_plan() -> Plan {
    cli::parse(USAGE, |args| {
        let args = Args {
            config: args.value("--config")?,
            ops: args.value("--ops")?,
            faults: args.value("--faults")?,
            retries: args.value("--retries")?,
            l1_cores: args.value("--l1-cores")?,
            max_states: args.value("--max-states")?,
            no_symmetry: args.flag("--no-symmetry"),
            inject: args
                .value::<String>("--inject")?
                .map(|n| cli::lookup("injection", &n, Injection::parse))
                .transpose()?,
            self_test: args.flag("--self-test"),
            deep: args.flag("--deep"),
            min_reduction: args.value("--min-reduction")?,
        };
        // A NaN, infinite or non-positive bar could never fail a run.
        if let Some(m) = args.min_reduction.filter(|m| !(m.is_finite() && *m > 0.0)) {
            return Err(CliError::BadValue {
                flag: "--min-reduction".into(),
                value: m.to_string(),
            });
        }
        let runs = plan_runs(&args);
        for cfg in &runs {
            cfg.validate().map_err(|e| CliError::BadValue {
                flag: format!("configuration {}", label(cfg)),
                value: e.to_string(),
            })?;
        }
        Ok(Plan {
            runs,
            self_test: args.self_test,
            min_reduction: args.min_reduction.filter(|_| !args.self_test),
        })
    })
}

/// The configurations an invocation explores, in order.
fn plan_runs(args: &Args) -> Vec<ResilientConfig> {
    if args.self_test {
        // Every injection on the smallest config it exists in; CI runs
        // this so a checker regression cannot hide behind all-clean
        // output.
        return Injection::ALL
            .iter()
            .map(|&inj| {
                let mut cfg = build_config(args, 2, 1);
                cfg.inject = Some(inj);
                if inj.needs_l1_tier() {
                    cfg.l1_cores = cfg.l1_cores.max(1);
                }
                cfg
            })
            .collect();
    }
    let shapes = match args.config {
        Some(Shape(c, a)) => vec![(c, a)],
        None => BATTERY.to_vec(),
    };
    let mut runs: Vec<_> = shapes
        .into_iter()
        .map(|(c, a)| build_config(args, c, a))
        .collect();
    if args.config.is_none() && args.l1_cores.is_none() && args.inject.is_none() {
        for (clusters, addrs, l1_cores, ops, faults) in NESTED {
            runs.push(ResilientConfig {
                l1_cores,
                ops_per_cluster: ops,
                max_faults: faults,
                max_retries: faults,
                ..build_config(args, clusters, addrs)
            });
        }
    }
    if args.deep {
        // The headline exhaustive run: 3 hosts × 2 addresses with two
        // operations per cluster under a one-fault budget. ~18.9M
        // unreduced states, explored via ~1.6M canonical
        // representatives in well under a minute in release builds.
        let mut cfg = build_config(args, 3, 2);
        cfg.ops_per_cluster = args.ops.unwrap_or(2);
        runs.push(cfg);
    }
    runs
}

/// The invariant class each seeded bug must trip.
fn expected_violation(inj: Injection) -> &'static str {
    match inj {
        Injection::LostGrantLivelock => "deadlock",
        Injection::PoisonLaunder => "poison",
        Injection::SkipRecallNesting => "inclusion",
        Injection::SkipConflictStash => "swmr",
    }
}

fn violation_class(v: &RViolation) -> &'static str {
    match v {
        RViolation::Swmr(_) => "swmr",
        RViolation::Inclusion(_) => "inclusion",
        RViolation::Stale(_) => "stale",
        RViolation::Divergence(_) => "divergence",
        RViolation::Poison(_) => "poison",
        RViolation::Deadlock(_) => "deadlock",
    }
}

fn build_config(args: &Args, clusters: usize, addrs: usize) -> ResilientConfig {
    let d = ResilientConfig::default();
    let max_faults = args.faults.unwrap_or(d.max_faults);
    ResilientConfig {
        clusters,
        addrs,
        ops_per_cluster: args.ops.unwrap_or(d.ops_per_cluster),
        max_faults,
        max_retries: args.retries.unwrap_or(d.max_retries.max(max_faults)),
        l1_cores: args.l1_cores.unwrap_or(d.l1_cores),
        max_states: args.max_states.unwrap_or(d.max_states),
        symmetry: !args.no_symmetry,
        inject: args.inject,
    }
}

/// One line naming a configuration.
fn label(cfg: &ResilientConfig) -> String {
    format!(
        "{}x{} ops={} faults={} retries={}{}{}{}",
        cfg.clusters,
        cfg.addrs,
        cfg.ops_per_cluster,
        cfg.max_faults,
        cfg.max_retries,
        match cfg.l1_cores {
            0 => String::new(),
            k => format!(" l1-cores={k}"),
        },
        if cfg.symmetry { "" } else { " no-symmetry" },
        match cfg.inject {
            Some(i) => format!(" inject={}", i.name()),
            None => String::new(),
        }
    )
}

/// Run one configuration; returns `true` if the run is acceptable
/// (exhaustive, no unexpected violation, no conformance divergence,
/// injected bugs caught).
fn run_one(cfg: &ResilientConfig, min_reduction: Option<f64>) -> bool {
    let label = label(cfg);
    let t0 = std::time::Instant::now();
    let r = check_resilient(cfg);
    let secs = t0.elapsed().as_secs_f64();
    outln!(
        "{label}: {} canonical / {} unreduced states, {} edges, \
         reduction {:.2}x (group order {}), {:.2}s",
        r.canonical_states,
        r.unreduced_states,
        r.edges,
        r.reduction_factor,
        r.group_order,
        secs,
    );
    if r.truncated {
        outln!(
            "  FAIL: truncated at max-states={} — not exhaustive",
            cfg.max_states
        );
        return false;
    }

    match (&r.violation, cfg.inject) {
        (None, None) => {
            // Clean exhaustive run: cross-check the model's witnesses
            // against the concrete controllers' declarative tables.
            let dcoh = dcoh_transition_table();
            let bridge = bridge_transition_table(ProtocolFamily::Mesi);
            let defects = check_model_conformance(&r.witnesses, &[&dcoh, &bridge]);
            if defects.is_empty() {
                outln!(
                    "  clean; {} table witnesses conform to the dcoh+bridge tables",
                    r.witnesses.len()
                );
                if let Some(min) = min_reduction {
                    // The reduction factor is bounded by the group order,
                    // so the bar binds only where the group exceeds it.
                    if cfg.symmetry && r.group_order as f64 > min && r.reduction_factor < min {
                        outln!(
                            "  FAIL: reduction factor {:.2}x below required {min:.2}x",
                            r.reduction_factor
                        );
                        return false;
                    }
                }
                true
            } else {
                for d in &defects {
                    outln!("  model/table divergence: {d}");
                }
                false
            }
        }
        (None, Some(inj)) => {
            outln!(
                "  FAIL: injected bug {:?} was NOT caught (expected a {} violation)",
                inj.name(),
                expected_violation(inj)
            );
            false
        }
        (Some((v, cex)), maybe_inj) => {
            outln!("  VIOLATION: {v}");
            outln!("  counterexample ({} steps):", cex.steps.len());
            for (comp, desc) in &cex.steps {
                outln!("    [{comp}] {desc}");
            }
            outln!("  trace replay:");
            for line in cex.trace.lines() {
                outln!("    {line}");
            }
            match maybe_inj {
                Some(inj) if violation_class(v) == expected_violation(inj) => {
                    outln!("  OK: injected bug {:?} caught as expected", inj.name());
                    true
                }
                Some(inj) => {
                    outln!(
                        "  FAIL: injected bug {:?} tripped {} (expected {})",
                        inj.name(),
                        violation_class(v),
                        expected_violation(inj)
                    );
                    false
                }
                None => false,
            }
        }
    }
}

fn main() {
    let plan = parse_plan();
    let mut ok = true;
    for cfg in &plan.runs {
        ok &= run_one(cfg, plan.min_reduction);
    }
    if plan.self_test {
        outln!(
            "modelcheck self-test: {}",
            if ok {
                "every injection caught"
            } else {
                "FAILED"
            }
        );
    } else if ok {
        outln!("modelcheck: all configurations acceptable");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
