//! Content pins for the controllers' declarative transition tables.
//!
//! Each of the sixteen (host family × {l1, bridge, dcoh, direngine}) tables is
//! rendered canonically — its sorted declarations, then one sorted
//! `state event outcome actions nested` line per row, provenance left
//! out — and the FNV-1a of that rendering is pinned together with the
//! row count. Rows derived from the SSP specs or the compound FSM must
//! reproduce exactly the relation the hand-written rows stated, so any
//! change in *what* a table says (rather than where a row comes from)
//! fails here first.

use c3::bridge::bridge_transition_table;
use c3_bench::fnv1a;
use c3_cxl::dcoh::dcoh_transition_table;
use c3_memsys::direngine::direngine_transition_table;
use c3_memsys::l1::l1_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_protocol::table::{RowOutcome, TransitionTable};

/// Sorted, comma-joined copy of a name list.
fn sorted(names: &[&str]) -> String {
    let mut v = names.to_vec();
    v.sort_unstable();
    v.join(",")
}

/// The canonical rendering the pins are taken over.
fn canonical(t: &TransitionTable) -> String {
    let vnets: Vec<String> = t
        .event_vnets
        .iter()
        .map(|(e, v)| format!("{e}:{v}"))
        .collect();
    let vnets: Vec<&str> = vnets.iter().map(String::as_str).collect();
    let mut out = format!(
        "controller {}\nstates {}\nevents {}\nvnets {}\ninitial {}\nforbidden {}\nassumed {}\n",
        t.controller,
        sorted(&t.states),
        sorted(&t.events),
        sorted(&vnets),
        sorted(&t.initial),
        sorted(&t.forbidden),
        sorted(&t.assumed_available),
    );
    let mut rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                RowOutcome::Next(to) => format!("->{to}"),
                RowOutcome::Stall => format!("stall({})", r.waits_for.join(",")),
                RowOutcome::Forbidden(why) => format!("forbidden({why})"),
            };
            let actions: Vec<String> = r
                .actions
                .iter()
                .map(|a| {
                    let done = if a.origin_completion { "!" } else { "" };
                    format!("{}:{}:{}{done}", a.msg, a.vnet, a.dest)
                })
                .collect();
            format!(
                "{} {} {outcome} [{}] {}",
                r.state,
                r.event,
                actions.join(","),
                if r.nested { "nested" } else { "-" }
            )
        })
        .collect();
    rows.sort_unstable();
    out.push_str(&rows.join("\n"));
    out
}

/// `(family, controller, rows, fnv)` for every checked table.
const PINS: [(ProtocolFamily, &str, usize, u64); 16] = [
    (ProtocolFamily::Mesi, "l1", 101, 0xa268d58b8147a186),
    (ProtocolFamily::Mesi, "bridge", 84, 0x378a13bb985fd577),
    (ProtocolFamily::Mesi, "dcoh", 47, 0x2ea331b073368a83),
    (ProtocolFamily::Mesif, "l1", 110, 0xa5855b23fbfc4f8d),
    (ProtocolFamily::Mesif, "bridge", 84, 0x378a13bb985fd577),
    (ProtocolFamily::Mesif, "dcoh", 47, 0x2ea331b073368a83),
    (ProtocolFamily::Moesi, "l1", 116, 0x80f4d16801d194dd),
    (ProtocolFamily::Moesi, "bridge", 85, 0x15d8289cf3a13f23),
    (ProtocolFamily::Moesi, "dcoh", 47, 0x2ea331b073368a83),
    (ProtocolFamily::Rcc, "l1", 37, 0x084c2cb8602dedcd),
    (ProtocolFamily::Rcc, "bridge", 59, 0x5886cb4e69050089),
    (ProtocolFamily::Rcc, "dcoh", 47, 0x2ea331b073368a83),
    (ProtocolFamily::Mesi, "direngine", 58, 0xf61dd38bc518965f),
    (ProtocolFamily::Mesif, "direngine", 85, 0xe078e62c385f3392),
    (ProtocolFamily::Moesi, "direngine", 100, 0x53234d66e32ffd8a),
    (ProtocolFamily::Rcc, "direngine", 5, 0x0483c92fea0c074e),
];

/// The table `PINS` names.
fn table(family: ProtocolFamily, controller: &str) -> TransitionTable {
    match controller {
        "l1" => l1_transition_table(family),
        "bridge" => bridge_transition_table(family),
        "direngine" => direngine_transition_table(family),
        _ => dcoh_transition_table(),
    }
}

#[test]
fn table_contents_are_pinned() {
    let mut mismatches = Vec::new();
    for (family, controller, rows, fnv) in PINS {
        let table = table(family, controller);
        let got = (table.rows.len(), fnv1a(&canonical(&table)));
        if got != (rows, fnv) {
            mismatches.push(format!(
                "{family} {controller}: rows {} fnv {:#018x} (pinned {rows} / {fnv:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A derived row and a hand-written row never state the same rule.
#[test]
fn no_table_states_a_rule_twice() {
    for (family, controller, _, _) in PINS {
        let table = table(family, controller);
        for (i, a) in table.rows.iter().enumerate() {
            for b in &table.rows[i + 1..] {
                assert!(
                    !a.same_rule(b),
                    "{family} {controller}: {} restates {}",
                    b.label(controller),
                    a.label(controller)
                );
            }
        }
    }
}

/// Every L1 stable-state row for a core access, replacement or directory
/// message comes from the family's SSP spec, bar the one hand row for
/// replacing an absent line.
#[test]
fn l1_stable_rows_come_from_the_ssp() {
    for (family, controller, _, _) in PINS {
        if controller != "l1" {
            continue;
        }
        let table = l1_transition_table(family);
        let stables: Vec<&str> = family.states().iter().map(|s| s.name()).collect();
        for r in &table.rows {
            let decided = ["Load", "Store", "Rmw", "Repl", "FwdGetS", "FwdGetM", "Inv"];
            if !stables.contains(&r.state) || !decided.contains(&r.event) {
                continue;
            }
            let hand = (r.state, r.event) == ("I", "Repl");
            assert_eq!(r.provenance.starts_with("ssp:"), !hand, "{}", r.label("l1"));
        }
    }
}

/// Every bridge row that answers a snoop on, or evicts, a stable CXL line
/// comes from the compound FSM; the hand rows there only stall a snoop
/// behind the line's own eviction.
#[test]
fn bridge_stable_rows_come_from_the_generator() {
    for (family, controller, _, _) in PINS {
        if controller != "bridge" {
            continue;
        }
        let table = bridge_transition_table(family);
        for r in &table.rows {
            let stable = ["I", "S", "E", "M"].contains(&r.state);
            let decided = ["BiSnpInv", "BiSnpData", "Evict"].contains(&r.event);
            if !stable || !decided || r.outcome == RowOutcome::Stall {
                continue;
            }
            assert!(
                r.provenance.starts_with("generator:"),
                "{}",
                r.label("bridge")
            );
        }
    }
}
