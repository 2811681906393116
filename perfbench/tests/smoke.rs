//! Tiny-size smoke runs of every workload: the metric names and units
//! match `BENCHMARK.json`, a seed reproduces its simulated metrics
//! exactly, and on the simulator workloads another seed changes them.

use c3_perfbench::case::{case, Size, Workload};
use c3_perfbench::measure::{run_rep, Expect};
use c3_perfbench::output::{Outcome, END_TO_END, PER_LAYER};
use c3_perfbench::{run, Plan};

/// Simulated metrics: deterministic for a seed, traced or not.
const SIMULATED: [&str; 2] = ["sim_exec_us", "sim_lat_p99_ns"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file keeps one metric object per line, so a plain scan suffices.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} missing")) + pat.len();
        obj[at..]
            .split('"')
            .next()
            .expect("quoted value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn smoke(w: Workload, seed: u64, trace: bool) -> Outcome {
    let plan = Plan {
        seconds: 0.001,
        trace,
    };
    let out = run(&case(w, Size::Tiny, seed), plan);
    assert!(out.correct, "{} seed {seed} failed its checks", w.name());
    assert_eq!(out.failed, 0);
    assert!(
        out.attempted >= 4,
        "warm-up plus at least three repetitions"
    );
    out
}

fn names_and_units(out: &Outcome) -> Vec<(String, String)> {
    let units: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
    out.metrics
        .iter()
        .map(|(n, _)| {
            let unit = units.iter().find(|(m, _)| m == n).expect("known metric").1;
            (n.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn workloads_match_the_declaration() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for w in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
    assert_eq!(Workload::parse("stream"), Some(Workload::Stream));
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn metric_names_and_units_match_the_declaration() {
    for w in Workload::ALL {
        let plain = smoke(w, 1, false);
        assert_eq!(
            names_and_units(&plain),
            declared("end_to_end"),
            "{}",
            w.name()
        );
        for (name, value) in &plain.metrics {
            assert!(*value > 0.0, "{} {name} = {value}", w.name());
        }
        let traced = smoke(w, 1, true);
        assert_eq!(
            names_and_units(&traced),
            declared("per_layer"),
            "{}",
            w.name()
        );
        let line = traced.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"trace.overhead\": {\"value\": "));
    }
}

#[test]
fn a_seed_reproduces_every_simulated_metric() {
    for w in Workload::ALL {
        let a = smoke(w, 7, false);
        let b = smoke(w, 7, false);
        for m in SIMULATED {
            assert_eq!(a.get(m), b.get(m), "{} {m}", w.name());
        }
        // Traced and untraced repetitions render the same report.
        let c = case(w, Size::Tiny, 7);
        let expect = Expect::new(&c);
        let plain = run_rep(&c, false, &expect).expect("untraced repetition");
        let traced = run_rep(&c, true, &expect).expect("traced repetition");
        assert_eq!(plain.fingerprint, traced.fingerprint, "{}", w.name());
        assert_eq!(plain.sim_exec_us, traced.sim_exec_us);
        assert_eq!(plain.sim_lat_p99_ns, traced.sim_lat_p99_ns);
        assert!(plain.layers.is_none() && traced.layers.is_some());
    }
}

#[test]
fn another_seed_changes_the_simulated_metrics() {
    for w in [Workload::Stream, Workload::Oltp] {
        let a = case(w, Size::Tiny, 1);
        let b = case(w, Size::Tiny, 2);
        let ra = run_rep(&a, false, &Expect::new(&a)).expect("seed 1");
        let rb = run_rep(&b, false, &Expect::new(&b)).expect("seed 2");
        assert_ne!(ra.fingerprint, rb.fingerprint, "{}", w.name());
        assert!(
            ra.sim_exec_us != rb.sim_exec_us || ra.sim_lat_p99_ns != rb.sim_lat_p99_ns,
            "{}: seeds 1 and 2 gave the same simulated metrics",
            w.name()
        );
    }
}

#[test]
fn traced_layers_cover_the_traced_time() {
    for w in [Workload::Stream, Workload::Oltp] {
        let out = smoke(w, 3, true);
        let coverage = out.get("trace.coverage").expect("coverage");
        assert!((0.9..=1.1).contains(&coverage), "{}: {coverage}", w.name());
        assert!(out.get("kernel.events").unwrap() > 0.0);
        assert!(out.get("core.calls").unwrap() > 0.0);
        assert_eq!(out.get("verif.canonical_states"), Some(0.0));
    }
    let out = smoke(Workload::Modelcheck, 3, true);
    assert!(out.get("verif.canonical_states").unwrap() > 0.0);
    assert!(out.get("verif.reduction").unwrap() >= 1.0);
}
