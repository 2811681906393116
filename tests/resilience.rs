//! Integration tests for the fault-injection fabric and the bridge/DCOH
//! resilience layer: an injected loss without recovery must wedge and be
//! diagnosable from the post-mortem; the same loss with timeout/retry
//! enabled must converge to the correct value; and an installed-but-empty
//! fault plan must be invisible to the simulation.

use c3::system::{ClusterSpec, GlobalProtocol, SystemBuilder, SystemHandles};
use c3::ResilienceConfig;
use c3_protocol::msg::SysMsg;
use c3_protocol::ops::{Addr, Reg, ThreadProgram};
use c3_protocol::states::ProtocolFamily;
use c3_sim::fabric::LinkId;
use c3_sim::fault::FaultPlan;
use c3_sim::kernel::{RunOutcome, Simulator};
use c3_sim::metrics::MetricKind;
use c3_sim::time::Delay;

const SHARED: Addr = Addr(5);
const ITERS: u64 = 20;
const CORES_PER_CLUSTER: usize = 2;
const CLUSTERS: usize = 2;

/// Two clusters over CXL, every core hammering one shared line: all
/// cross-cluster traffic funnels through the CXL links, so a scripted
/// drop there is guaranteed to hit a transaction that matters.
fn build(resilience: Option<ResilienceConfig>) -> (Simulator<SysMsg>, SystemHandles) {
    let clusters = vec![
        ClusterSpec::new(ProtocolFamily::Mesi, CORES_PER_CLUSTER).with_l1(32, 4),
        ClusterSpec::new(ProtocolFamily::Moesi, CORES_PER_CLUSTER).with_l1(32, 4),
    ];
    let mut programs = Vec::new();
    for _ in 0..CLUSTERS {
        let mut cluster_programs = Vec::new();
        for _ in 0..CORES_PER_CLUSTER {
            let mut p = ThreadProgram::new();
            for _ in 0..ITERS {
                p = p.rmw(SHARED, 1, Reg(0));
            }
            cluster_programs.push(p);
        }
        programs.push(cluster_programs);
    }
    let mut b = SystemBuilder::new(clusters, GlobalProtocol::Cxl)
        .cxl_cache(64, 4)
        .seed(7);
    if let Some(r) = resilience {
        b = b.resilience(r);
    }
    b.build_with_seq_cores(programs)
}

/// Script an exact loss: the first message to cross each CXL link is
/// dropped. Deterministic — no probability draws involved.
fn drop_first_on_cxl_links(sim: &mut Simulator<SysMsg>, handles: &SystemHandles) {
    let mut plan = FaultPlan::new(7);
    for l in handles.cxl_links.clone() {
        plan.drop_nth(LinkId(l), 0);
    }
    sim.fabric_mut().set_fault_plan(plan);
}

/// A lost CXL message with no recovery configured wedges the system, and
/// the deadlock post-mortem names the dropped transaction: its address,
/// an age stamp, and the component it is waiting on.
#[test]
fn injected_drop_without_resilience_deadlocks_with_named_post_mortem() {
    let (mut sim, handles) = build(None);
    drop_first_on_cxl_links(&mut sim, &handles);

    let outcome = sim.run();
    assert_eq!(
        outcome,
        RunOutcome::Deadlock,
        "a swallowed CXL message must wedge"
    );
    let report = sim.report();
    assert!(
        report.get("fault.dropped").unwrap_or(0.0) >= 1.0,
        "scripted drop never fired"
    );

    let pm = sim.post_mortem(outcome);
    assert!(
        !pm.txns.is_empty(),
        "deadlock left no in-flight transactions"
    );
    assert!(
        pm.txns.iter().any(|t| t.addr == Some(SHARED.0)),
        "post-mortem does not name the dropped line {SHARED:?}:\n{pm}"
    );
    assert!(
        pm.txns.iter().any(|t| t.waiting_on.is_some()),
        "no transaction names the component it waits on:\n{pm}"
    );
    let oldest = pm.oldest().expect("an oldest blocked transaction");
    assert!(oldest.since.is_some(), "oldest txn should be age-stamped");
    let dump = pm.to_string();
    assert!(dump.contains("post-mortem"), "dump: {dump}");
}

/// The same scripted loss with timeout/retry enabled: the run converges,
/// at least one recovery action fires, nothing leaks, and the shared
/// line holds exactly the fault-free value (Rule II: retries are atomic).
/// The bridges' resilience-only `retries` counters show up in telemetry
/// and agree with the report.
#[test]
fn injected_drop_with_resilience_recovers_to_exact_value() {
    let (mut sim, handles) = build(Some(ResilienceConfig::new(3_000, 10)));
    drop_first_on_cxl_links(&mut sim, &handles);
    sim.set_metrics(Delay::from_ns(100));

    let outcome = sim.run();
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "retry layer failed to recover"
    );
    assert!(
        sim.post_mortem(outcome).txns.is_empty(),
        "transactions leaked past completion"
    );

    let report = sim.report();
    assert!(report.get("fault.dropped").unwrap_or(0.0) >= 1.0);
    let recoveries: f64 = report
        .iter()
        .filter(|(k, _)| {
            k.ends_with(".retries") || k.ends_with(".abandoned") || k.ends_with(".dup_suppressed")
        })
        .map(|(_, v)| v)
        .sum();
    assert!(
        recoveries >= 1.0,
        "drop was injected but no recovery action fired"
    );

    sim.sample_metrics_now();
    let hub = sim.metrics();
    let tail = hub.windows() - 1;
    let retries: Vec<(&str, f64)> = hub
        .metric_names()
        .iter()
        .enumerate()
        .filter(|&(m, n)| n.ends_with(".retries") && hub.metric_kind(m) == MetricKind::Counter)
        .map(|(m, n)| (n.as_str(), hub.value(tail, m)))
        .collect();
    assert!(!retries.is_empty(), "no .retries counter column");
    assert!(
        retries.iter().any(|&(_, v)| v > 0.0),
        "no bridge retried: {retries:?}"
    );
    for &(name, v) in &retries {
        assert_eq!(
            report.get(name),
            Some(v),
            "{name}: telemetry and report disagree"
        );
    }

    assert!(
        handles.poisoned_addrs(&sim).is_empty(),
        "a recovered drop must not poison anything"
    );
    let want = (CLUSTERS * CORES_PER_CLUSTER) as u64 * ITERS;
    assert_eq!(handles.coherent_value(&sim, SHARED), want);
}

/// Installing a fault plan with no faults configured must be a no-op:
/// identical outcome, finish time, event count, and statistics (the
/// plan's own zero counters aside) as a build with no plan at all.
#[test]
fn empty_fault_plan_is_invisible() {
    let (mut plain, _) = build(None);
    let plain_outcome = plain.run();

    let (mut planned, _) = build(None);
    planned.fabric_mut().set_fault_plan(FaultPlan::new(7));
    let planned_outcome = planned.run();

    assert_eq!(plain_outcome, planned_outcome);
    assert_eq!(plain.now(), planned.now());
    assert_eq!(plain.events_processed(), planned.events_processed());

    let render = |sim: &Simulator<SysMsg>, keep_fault_keys: bool| {
        let mut lines: Vec<String> = sim
            .report()
            .iter()
            .filter(|(k, _)| keep_fault_keys || !k.starts_with("fault."))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(
        render(&plain, true),
        render(&planned, false),
        "an empty fault plan changed the report"
    );
    for (k, v) in planned.report().iter() {
        if k.starts_with("fault.") {
            assert_eq!(v, 0.0, "empty plan counted an injection: {k}={v}");
        }
    }
}
