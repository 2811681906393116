//! `modelcheck` — exhaustive model checking of the C³ design (§VI-A).
//!
//! Drives `c3-verif::resilient` over a battery of cluster × address
//! configurations, printing per-config canonical/unreduced state counts,
//! edge counts and the symmetry reduction factor. Every clean run also
//! cross-checks the `(controller, state, event)` witnesses the explorer
//! collected against the declarative PR-5 transition tables
//! (`check_model_conformance`), so the abstract model and the concrete
//! controllers cannot silently drift apart.
//!
//! Without `--config`, the battery also explores the fault-free
//! Murphi-style model (`c3-verif::model`): both design rules on, then
//! each ablated — Rule II off must hit the Fig. 4 race and the
//! BIConflict handshake off the Fig. 2 race.
//!
//! ```text
//! cargo run --release -p c3-bench --bin modelcheck            # fast battery
//! cargo run --release -p c3-bench --bin modelcheck -- --deep  # 3x2 ops=2 headline
//! cargo run --release -p c3-bench --bin modelcheck -- --config 3x2 --ops 2 --faults 1
//! cargo run --release -p c3-bench --bin modelcheck -- --inject lost-grant-livelock
//! cargo run --release -p c3-bench --bin modelcheck -- --self-test
//! ```
//!
//! Exit codes: `0` clean (or the injected bug was caught, under
//! `--inject`/`--self-test`), `1` an invariant violation was found (or
//! an injected bug or ablated race was *missed*, or a witness diverged
//! from the tables), `2` bad usage.

use std::str::FromStr;

use c3::bridge::bridge_transition_table;
use c3_bench::cli;
use c3_cxl::dcoh::dcoh_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_verif::model::{check, ModelConfig};
use c3_verif::resilient::{check_resilient, Injection, RViolation, ResilientConfig};
use c3_verif::static_checks::check_model_conformance;

/// The default fast battery: every topology up to 3 hosts × 2 addresses
/// with one operation per cluster and one fault budget. Completes in
/// well under a second in release builds.
const BATTERY: [(usize, usize); 4] = [(2, 1), (2, 2), (3, 1), (3, 2)];

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
    max_states: Option<usize>,
    no_symmetry: bool,
    spill: Option<String>,
    inject: Option<Injection>,
    self_test: bool,
    deep: bool,
    min_reduction: Option<f64>,
}

const USAGE: &str = "usage: modelcheck [--config CxA] [--ops N] [--faults N] [--retries N]
                  [--max-states N] [--no-symmetry] [--spill PATH]
                  [--min-reduction F] [--deep]
                  [--inject lost-grant-livelock|poison-launder] [--self-test]
";

fn parse_args() -> Args {
    cli::parse(USAGE, |args| {
        Ok(Args {
            config: args.value("--config")?,
            ops: args.value("--ops")?,
            faults: args.value("--faults")?,
            retries: args.value("--retries")?,
            max_states: args.value("--max-states")?,
            no_symmetry: args.flag("--no-symmetry"),
            spill: args.value("--spill")?,
            inject: args
                .value::<String>("--inject")?
                .map(|n| cli::lookup("injection", &n, Injection::parse))
                .transpose()?,
            self_test: args.flag("--self-test"),
            deep: args.flag("--deep"),
            min_reduction: args.value("--min-reduction")?,
        })
    })
}

/// The fault-free abstract model: `(label, config, expect_violation)`.
/// The two ablations must each find their paper race.
fn abstract_battery() -> [(&'static str, ModelConfig, bool); 5] {
    let mut cfg = [ModelConfig::default(); 5];
    cfg[1].ops_per_core = 3;
    cfg[2].second_core = true;
    cfg[3].rule2_nesting = false;
    cfg[4].conflict_handshake = false;
    [
        ("rules on, 2 ops/core", cfg[0], false),
        ("rules on, 3 ops/core", cfg[1], false),
        ("rules on, 2 cores in cluster 0", cfg[2], false),
        ("Rule II (nesting) disabled -> Fig. 4 race", cfg[3], true),
        ("BIConflict handshake disabled -> Fig. 2 race", cfg[4], true),
    ]
}

/// Explore one abstract-model config; `true` if the verdict is the
/// expected one.
fn run_abstract(label: &str, cfg: &ModelConfig, expect_violation: bool) -> bool {
    let r = check(cfg);
    let (ok, verdict) = match (&r.violation, expect_violation) {
        (None, false) => (true, "OK (no violation)"),
        (Some(_), true) => (true, "OK (violation found, as designed)"),
        (None, true) => (false, "FAIL (expected a violation)"),
        (Some(_), false) => (false, "FAIL (unexpected violation)"),
    };
    println!("abstract {label}: {} states, {verdict}", r.states);
    if let Some(v) = r.violation {
        println!("  -> {v}");
    }
    ok
}

/// The invariant class each seeded bug must trip.
fn expected_violation(inj: Injection) -> &'static str {
    match inj {
        Injection::LostGrantLivelock => "deadlock",
        Injection::PoisonLaunder => "poison",
    }
}

fn violation_class(v: &RViolation) -> &'static str {
    match v {
        RViolation::Swmr(_) => "swmr",
        RViolation::Stale(_) => "stale",
        RViolation::Divergence(_) => "divergence",
        RViolation::Poison(_) => "poison",
        RViolation::Deadlock(_) => "deadlock",
    }
}

fn build_config(args: &Args, clusters: usize, addrs: usize) -> ResilientConfig {
    let mut cfg = ResilientConfig {
        clusters,
        addrs,
        ..ResilientConfig::default()
    };
    if let Some(o) = args.ops {
        cfg.ops_per_cluster = o;
    }
    if let Some(f) = args.faults {
        cfg.max_faults = f;
        cfg.max_retries = cfg.max_retries.max(f);
    }
    if let Some(r) = args.retries {
        cfg.max_retries = r;
    }
    if let Some(m) = args.max_states {
        cfg.max_states = m;
    }
    cfg.symmetry = !args.no_symmetry;
    cfg.spill_path = args.spill.clone().map(std::path::PathBuf::from);
    cfg.inject = args.inject;
    cfg
}

/// Run one configuration; returns `true` if the run is acceptable (no
/// unexpected violation, no conformance divergence, injected bugs
/// caught).
fn run_one(cfg: &ResilientConfig, min_reduction: Option<f64>) -> bool {
    let label = format!(
        "{}x{} ops={} faults={} retries={}{}{}",
        cfg.clusters,
        cfg.addrs,
        cfg.ops_per_cluster,
        cfg.max_faults,
        cfg.max_retries,
        if cfg.symmetry { "" } else { " no-symmetry" },
        match cfg.inject {
            Some(i) => format!(" inject={}", i.name()),
            None => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    let r = check_resilient(cfg);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{label}: {} canonical / {} unreduced states, {} edges, \
         reduction {:.2}x (group order {}), {:.2}s{}",
        r.canonical_states,
        r.unreduced_states,
        r.edges,
        r.reduction_factor,
        r.group_order,
        secs,
        if r.spilled > 0 {
            format!(" [{} frontier records spilled]", r.spilled)
        } else {
            String::new()
        }
    );
    if r.truncated {
        println!(
            "  WARNING: truncated at max-states={} — not exhaustive",
            cfg.max_states
        );
    }

    match (&r.violation, cfg.inject) {
        (None, None) => {
            // Clean exhaustive run: cross-check the model's witnesses
            // against the concrete controllers' declarative tables.
            let dcoh = dcoh_transition_table();
            let bridge = bridge_transition_table(ProtocolFamily::Mesi);
            let defects = check_model_conformance(&r.witnesses, &[&dcoh, &bridge]);
            if defects.is_empty() {
                println!(
                    "  clean; {} table witnesses conform to the dcoh+bridge tables",
                    r.witnesses.len()
                );
                if let Some(min) = min_reduction {
                    // The reduction factor is bounded by the group order,
                    // so the bar binds only where the group exceeds it.
                    if cfg.symmetry && r.group_order as f64 > min && r.reduction_factor < min {
                        println!(
                            "  FAIL: reduction factor {:.2}x below required {min:.2}x",
                            r.reduction_factor
                        );
                        return false;
                    }
                }
                true
            } else {
                for d in &defects {
                    println!("  model/table divergence: {d}");
                }
                false
            }
        }
        (None, Some(inj)) => {
            println!(
                "  FAIL: injected bug {:?} was NOT caught (expected a {} violation)",
                inj.name(),
                expected_violation(inj)
            );
            false
        }
        (Some((v, cex)), maybe_inj) => {
            println!("  VIOLATION: {v}");
            println!("  counterexample ({} steps):", cex.steps.len());
            for (comp, desc) in &cex.steps {
                println!("    [{comp}] {desc}");
            }
            println!("  trace replay:");
            for line in cex.trace.lines() {
                println!("    {line}");
            }
            match maybe_inj {
                Some(inj) if violation_class(v) == expected_violation(inj) => {
                    println!("  OK: injected bug {:?} caught as expected", inj.name());
                    true
                }
                Some(inj) => {
                    println!(
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
    let args = parse_args();

    if args.self_test {
        // Both seeded protocol bugs and both design-rule ablations must
        // be detected on small configs; CI runs this so a checker
        // regression cannot hide behind all-clean output.
        let mut ok = true;
        for inj in Injection::ALL {
            let mut cfg = build_config(&args, 2, 1);
            cfg.inject = Some(inj);
            ok &= run_one(&cfg, None);
        }
        for (label, cfg, expect_violation) in abstract_battery() {
            if expect_violation {
                ok &= run_abstract(label, &cfg, true);
            }
        }
        println!(
            "modelcheck self-test: {}",
            if ok {
                "both injections and both ablated races caught"
            } else {
                "FAILED"
            }
        );
        std::process::exit(if ok { 0 } else { 1 });
    }

    let configs: Vec<(usize, usize)> = match args.config {
        Some(Shape(c, a)) => vec![(c, a)],
        None => BATTERY.to_vec(),
    };

    let mut ok = true;
    for (clusters, addrs) in &configs {
        let cfg = build_config(&args, *clusters, *addrs);
        ok &= run_one(&cfg, args.min_reduction);
    }
    if args.config.is_none() {
        for (label, cfg, expect_violation) in abstract_battery() {
            ok &= run_abstract(label, &cfg, expect_violation);
        }
    }
    if args.deep {
        // The headline exhaustive run: 3 hosts × 2 addresses with two
        // operations per cluster under a one-fault budget. ~18M
        // unreduced states, explored via ~1.5M canonical
        // representatives in well under a minute in release builds.
        let mut cfg = build_config(&args, 3, 2);
        cfg.ops_per_cluster = args.ops.unwrap_or(2);
        ok &= run_one(&cfg, args.min_reduction);
    }
    if ok {
        println!("modelcheck: all configurations acceptable");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
