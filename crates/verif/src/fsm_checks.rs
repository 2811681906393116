//! Static checks on the generated compound FSMs (the translation-table
//! level of the paper's verification: the product construction must be
//! closed, complete and free of forbidden states).

use c3::generator::{CompoundFsm, Incoming};
use c3_protocol::states::StableState;

/// A defect found in a generated compound FSM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsmDefect {
    /// A translation row leads to a state outside the consistent set.
    EscapesInvariant(String),
    /// A consistent state lacks a row for an incoming message that can
    /// reach it.
    MissingRow(String),
    /// A forbidden (inclusion-violating) state is listed as reachable.
    ForbiddenState(String),
}

impl std::fmt::Display for FsmDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsmDefect::EscapesInvariant(s) => write!(f, "transition escapes invariant: {s}"),
            FsmDefect::MissingRow(s) => write!(f, "missing translation row: {s}"),
            FsmDefect::ForbiddenState(s) => write!(f, "forbidden state present: {s}"),
        }
    }
}

/// Check a generated compound FSM for closure, completeness and
/// forbidden-state pruning. Returns all defects found.
pub fn check_fsm(fsm: &CompoundFsm) -> Vec<FsmDefect> {
    let mut defects = Vec::new();

    // 1. No listed state violates the Rule-I invariant.
    for s in &fsm.states {
        if !fsm.is_consistent(s.host, s.cxl) {
            defects.push(FsmDefect::ForbiddenState(s.to_string()));
        }
    }

    // 2. Closure: every row's next state is consistent.
    for r in fsm.rows() {
        if !fsm.is_consistent(r.next.host, r.next.cxl) {
            defects.push(FsmDefect::EscapesInvariant(format!(
                "{} in {} -> {}",
                r.incoming, r.state, r.next
            )));
        }
    }

    // 3. Completeness: every state has snoop and host-request rows (the
    // directory's holder record can go stale, so any state may be
    // snooped), and every state holding a CXL copy can be evicted.
    for s in &fsm.states {
        for inc in [
            Incoming::BiSnpInv,
            Incoming::BiSnpData,
            Incoming::HostRead,
            Incoming::HostWrite,
        ] {
            if fsm.row(inc, s.host, s.cxl).is_none() {
                defects.push(FsmDefect::MissingRow(format!("{inc} in {s}")));
            }
        }
        if s.cxl != StableState::I && fsm.row(Incoming::CxlEvict, s.host, s.cxl).is_none() {
            defects.push(FsmDefect::MissingRow(format!("Evict in {s}")));
        }
    }

    // 4. Rule-II sanity: every delegated snoop row enters a transient
    // state (the nested transaction exists).
    for r in fsm.rows() {
        if r.x_access.is_some() && r.transient == "-" {
            defects.push(FsmDefect::EscapesInvariant(format!(
                "{} in {} delegates without nesting",
                r.incoming, r.state
            )));
        }
    }

    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::generator::{baseline_fsm, bridge_fsm, CompoundState, HostClass};
    use c3_protocol::states::ProtocolFamily;

    #[test]
    fn all_generated_fsms_are_clean() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
        ] {
            let fsm = bridge_fsm(fam);
            let defects = check_fsm(&fsm);
            assert!(defects.is_empty(), "{fam}: {defects:?}");
        }
    }

    #[test]
    fn baseline_fsms_are_clean() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
        ] {
            let fsm = baseline_fsm(fam, ProtocolFamily::Mesi);
            let defects = check_fsm(&fsm);
            assert!(defects.is_empty(), "{fam}: {defects:?}");
        }
    }

    const SWMR_FAMILIES: [ProtocolFamily; 3] = [
        ProtocolFamily::Mesi,
        ProtocolFamily::Mesif,
        ProtocolFamily::Moesi,
    ];

    #[test]
    fn generated_fsms_cover_expected_host_classes() {
        for fam in SWMR_FAMILIES {
            let fsm = bridge_fsm(fam);
            let classes: Vec<HostClass> = fsm.states.iter().map(|s| s.host).collect();
            for want in [HostClass::None, HostClass::Shared, HostClass::Exclusive] {
                assert!(
                    classes.contains(&want),
                    "{fam}: no state with host {want:?}"
                );
            }
            let has_owned = classes.contains(&HostClass::Owned);
            assert_eq!(
                has_owned,
                fam == ProtocolFamily::Moesi,
                "{fam}: Owned host class presence mismatch"
            );
        }
    }

    #[test]
    fn forbidden_state_reported_with_exact_string() {
        for fam in SWMR_FAMILIES {
            let mut fsm = bridge_fsm(fam);
            // A host exclusive owner over a merely-shared CXL copy
            // violates the Rule-I inclusion invariant in every family.
            let bad = CompoundState {
                host: HostClass::Exclusive,
                cxl: StableState::S,
            };
            assert!(!fsm.is_consistent(bad.host, bad.cxl));
            fsm.states.push(bad);
            let defects = check_fsm(&fsm);
            let want = FsmDefect::ForbiddenState("(M, S)".to_string());
            assert!(defects.contains(&want), "{fam}: {defects:?}");
            assert_eq!(want.to_string(), "forbidden state present: (M, S)");
        }
    }

    #[test]
    fn escaping_transition_reported_with_exact_string() {
        for fam in SWMR_FAMILIES {
            let mut fsm = bridge_fsm(fam);
            let bad = CompoundState {
                host: HostClass::Exclusive,
                cxl: StableState::S,
            };
            let mut edited = None;
            fsm.edit_rows(|rows| {
                rows[0].next = bad;
                edited = Some((rows[0].incoming, rows[0].state));
            });
            let (inc, st) = edited.expect("edited");
            let defects = check_fsm(&fsm);
            let want = FsmDefect::EscapesInvariant(format!("{inc} in {st} -> (M, S)"));
            assert!(defects.contains(&want), "{fam}: {defects:?}");
            assert!(want
                .to_string()
                .starts_with("transition escapes invariant: "));
        }
    }

    #[test]
    fn missing_row_reported_with_exact_string() {
        for fam in SWMR_FAMILIES {
            let mut fsm = bridge_fsm(fam);
            let victim = fsm.states[0];
            fsm.edit_rows(|rows| {
                rows.retain(|r| !(r.incoming == Incoming::HostRead && r.state == victim))
            });
            let defects = check_fsm(&fsm);
            let want = FsmDefect::MissingRow(format!("GetS in {victim}"));
            assert!(defects.contains(&want), "{fam}: {defects:?}");
            assert_eq!(
                want.to_string(),
                format!("missing translation row: GetS in {victim}")
            );
        }
    }
}
