//! Static analysis over the concrete controllers' declarative
//! [`TransitionTable`]s (`c3-protocol::table`).
//!
//! Where [`crate::fsm_checks`] inspects the *generated* compound FSMs and
//! [`crate::resilient`] explores the abstract system dynamically, this module
//! checks the tables the shipped controllers actually assert against —
//! offline, without running a single simulation:
//!
//! * **validation** — every row references known states/events, every
//!   `Next` target exists, every `waits_for` entry is a real event;
//! * **completeness** — every `(state, event)` pair in the product has a
//!   row (transition, stall, or an explicit `Forbidden` with a reason);
//! * **reachability** — every state is reachable from the initial states
//!   and every specific row can fire; dead rows indicate the table and
//!   the handler code have drifted apart;
//! * **forbidden states** — no row transitions into a state the table
//!   declares forbidden;
//! * **response sink** — no row stalls a response-class (`Vnet::Resp`)
//!   event: responses must always sink or the classic protocol-deadlock
//!   recipe re-appears;
//! * **Rule II** — no nested row (one that opens a target-domain
//!   transaction) emits an origin-domain completion: the origin
//!   completion must wait for the target-domain completion event;
//! * **static deadlock analysis** — a cross-controller message-dependency
//!   fixpoint: every stall must be released by an event that some other
//!   controller can still produce *and* that this controller will
//!   actually consume.

use std::collections::BTreeSet;

use c3_protocol::table::{RowOutcome, TransitionTable, Vnet, ANY_STATE};

/// A defect found by the static table checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticDefect {
    /// A row or table field references an unknown state or event.
    Validation(String),
    /// A `(state, event)` pair has no row at all (not even a forbidden
    /// one): the table is silent about a combination the product allows.
    MissingRow(String),
    /// A declared state is not reachable from the initial states.
    UnreachableState(String),
    /// A specific (non-wildcard) row can never fire.
    UnreachableRow(String),
    /// A row transitions into a state the table declares forbidden.
    ForbiddenReachable(String),
    /// A stall row defers a response-class event (violates the
    /// response-sink property).
    ResponseStall(String),
    /// A nested row emits an origin-domain completion before the
    /// target-domain transaction finishes (violates Rule II).
    RuleTwo(String),
    /// A stall row waits for events that can never arrive or would never
    /// be consumed — a statically detectable deadlock.
    Deadlock(String),
    /// A `Quiesce` (line-summary demotion) row changes state or emits
    /// messages: demotion must be observationally silent.
    Quiescence(String),
    /// The dynamic model checker exercised a `(state, event)` step the
    /// static table forbids (or does not cover): the two analyses have
    /// diverged.
    ModelDivergence(String),
}

impl StaticDefect {
    /// Stable machine-readable defect-class slug (the `--json` output of
    /// `protocheck` keys on this, so CI can diff defect sets).
    pub fn kind(&self) -> &'static str {
        match self {
            StaticDefect::Validation(_) => "validation",
            StaticDefect::MissingRow(_) => "missing-row",
            StaticDefect::UnreachableState(_) => "unreachable-state",
            StaticDefect::UnreachableRow(_) => "unreachable-row",
            StaticDefect::ForbiddenReachable(_) => "forbidden-reachable",
            StaticDefect::ResponseStall(_) => "response-stall",
            StaticDefect::RuleTwo(_) => "rule-two",
            StaticDefect::Deadlock(_) => "deadlock",
            StaticDefect::Quiescence(_) => "quiescence",
            StaticDefect::ModelDivergence(_) => "model-divergence",
        }
    }

    /// The human-readable detail string.
    pub fn detail(&self) -> &str {
        match self {
            StaticDefect::Validation(s)
            | StaticDefect::MissingRow(s)
            | StaticDefect::UnreachableState(s)
            | StaticDefect::UnreachableRow(s)
            | StaticDefect::ForbiddenReachable(s)
            | StaticDefect::ResponseStall(s)
            | StaticDefect::RuleTwo(s)
            | StaticDefect::Deadlock(s)
            | StaticDefect::Quiescence(s)
            | StaticDefect::ModelDivergence(s) => s,
        }
    }
}

impl std::fmt::Display for StaticDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaticDefect::Validation(s) => write!(f, "validation: {s}"),
            StaticDefect::MissingRow(s) => write!(f, "missing row: {s}"),
            StaticDefect::UnreachableState(s) => write!(f, "unreachable state: {s}"),
            StaticDefect::UnreachableRow(s) => write!(f, "unreachable row: {s}"),
            StaticDefect::ForbiddenReachable(s) => write!(f, "forbidden state reachable: {s}"),
            StaticDefect::ResponseStall(s) => write!(f, "response-class stall: {s}"),
            StaticDefect::RuleTwo(s) => write!(f, "Rule II violation: {s}"),
            StaticDefect::Deadlock(s) => write!(f, "static deadlock: {s}"),
            StaticDefect::Quiescence(s) => write!(f, "quiescence: {s}"),
            StaticDefect::ModelDivergence(s) => write!(f, "model divergence: {s}"),
        }
    }
}

/// Check a single controller table: validation, completeness,
/// reachability, forbidden-state, response-sink and Rule-II checks.
pub fn check_table(t: &TransitionTable) -> Vec<StaticDefect> {
    let mut defects = Vec::new();
    let states: BTreeSet<&str> = t.states.iter().copied().collect();
    let events: BTreeSet<&str> = t.events.iter().copied().collect();

    // ---- validation ----
    for s in &t.initial {
        if !states.contains(s) {
            defects.push(StaticDefect::Validation(format!(
                "{}: initial state {s} is not a declared state",
                t.controller
            )));
        }
    }
    for s in &t.forbidden {
        if !states.contains(s) {
            defects.push(StaticDefect::Validation(format!(
                "{}: forbidden state {s} is not a declared state",
                t.controller
            )));
        }
    }
    for (e, _) in &t.event_vnets {
        if !events.contains(e) {
            defects.push(StaticDefect::Validation(format!(
                "{}: vnet classification for unknown event {e}",
                t.controller
            )));
        }
    }
    for r in &t.rows {
        let label = r.label(t.controller);
        if r.state != ANY_STATE && !states.contains(r.state) {
            defects.push(StaticDefect::Validation(format!(
                "{label}: unknown state {}",
                r.state
            )));
        }
        if !events.contains(r.event) {
            defects.push(StaticDefect::Validation(format!(
                "{label}: unknown event {}",
                r.event
            )));
        }
        if let RowOutcome::Next(to) = r.outcome {
            if !states.contains(to) {
                defects.push(StaticDefect::Validation(format!(
                    "{label}: next state {to} is not a declared state"
                )));
            }
        }
        for w in &r.waits_for {
            if !events.contains(w) {
                defects.push(StaticDefect::Validation(format!(
                    "{label}: waits for unknown event {w}"
                )));
            }
        }
        if matches!(r.outcome, RowOutcome::Stall) && r.waits_for.is_empty() {
            defects.push(StaticDefect::Validation(format!(
                "{label}: stall row with an empty waits_for set"
            )));
        }
    }

    // ---- completeness over the full state x event product ----
    for s in &t.states {
        for e in &t.events {
            if !t.covered(s, e) {
                defects.push(StaticDefect::MissingRow(format!(
                    "{}: ({s} x {e}) has no row (add a transition, a stall, \
                     or an explicit forbidden row with a reason)",
                    t.controller
                )));
            }
        }
    }

    // ---- reachability (BFS from the initial states over Next edges) ----
    let mut reachable: BTreeSet<&str> = t.initial.iter().copied().collect();
    let mut frontier: Vec<&str> = reachable.iter().copied().collect();
    while let Some(s) = frontier.pop() {
        for e in &t.events {
            for r in t.rows_for(s, e) {
                if let RowOutcome::Next(to) = r.outcome {
                    if reachable.insert(to) {
                        frontier.push(to);
                    }
                }
            }
        }
    }
    for s in &t.states {
        if !reachable.contains(s) {
            defects.push(StaticDefect::UnreachableState(format!(
                "{}: {s} is declared but not reachable from {:?}",
                t.controller, t.initial
            )));
        }
    }
    for r in &t.rows {
        if r.state != ANY_STATE
            && !matches!(r.outcome, RowOutcome::Forbidden(_))
            && !reachable.contains(r.state)
        {
            defects.push(StaticDefect::UnreachableRow(format!(
                "{} can never fire (state unreachable)",
                r.label(t.controller)
            )));
        }
    }

    // ---- forbidden-state detection ----
    for r in &t.rows {
        if let RowOutcome::Next(to) = r.outcome {
            if t.forbidden.contains(&to) && (r.state == ANY_STATE || reachable.contains(r.state)) {
                defects.push(StaticDefect::ForbiddenReachable(format!(
                    "{} enters forbidden state {to}",
                    r.label(t.controller)
                )));
            }
        }
    }

    // ---- response-sink property ----
    for r in &t.rows {
        if matches!(r.outcome, RowOutcome::Stall) && t.vnet_of(r.event) == Some(Vnet::Resp) {
            defects.push(StaticDefect::ResponseStall(format!(
                "{} stalls a response-class event; responses must sink",
                r.label(t.controller)
            )));
        }
    }

    // ---- Rule II discipline ----
    for r in &t.rows {
        if r.nested && r.actions.iter().any(|a| a.origin_completion) {
            defects.push(StaticDefect::RuleTwo(format!(
                "{} opens a nested target-domain transaction but emits an \
                 origin-domain completion in the same step",
                r.label(t.controller)
            )));
        }
    }

    defects
}

/// Cross-controller static deadlock analysis.
///
/// Computes the least fixpoint of *arrivability*: event `e` is arrivable
/// at controller `C` if `C` lists it in `assumed_available`, or some
/// controller `T` has a non-forbidden, non-stall row whose trigger is
/// arrivable at `T` and whose actions include sending `e` to `C`.
/// Actions aimed at a controller not in `tables` (or at an event the
/// destination's table does not know) are outside the modelled system and
/// are ignored.
///
/// Every stall row must then be *releasable*: at least one `waits_for`
/// event must be arrivable at the stalling controller **and** have a
/// non-stall, non-forbidden row there (an event nobody consumes cannot
/// unblock anything — the `(Wb, Cmp) -> stall on Cmp` self-cycle is the
/// canonical miss of naive graph checks).
pub fn check_message_graph(tables: &[&TransitionTable]) -> Vec<StaticDefect> {
    let mut defects = Vec::new();

    // arrivable ⊆ controller x event, grown to a fixpoint.
    let mut arrivable: BTreeSet<(&str, &str)> = BTreeSet::new();
    for t in tables {
        for e in &t.assumed_available {
            arrivable.insert((t.controller, e));
        }
    }
    loop {
        let before = arrivable.len();
        for t in tables {
            for r in &t.rows {
                if matches!(r.outcome, RowOutcome::Forbidden(_) | RowOutcome::Stall) {
                    continue;
                }
                if !arrivable.contains(&(t.controller, r.event)) {
                    continue;
                }
                for a in &r.actions {
                    if let Some(dest) = tables.iter().find(|d| d.controller == a.dest) {
                        if dest.events.contains(&a.msg) {
                            arrivable.insert((dest.controller, a.msg));
                        }
                    }
                }
            }
        }
        if arrivable.len() == before {
            break;
        }
    }

    // Every stall row needs a releasing event: arrivable here, and
    // consumed here by some non-stall, non-forbidden row.
    for t in tables {
        for r in &t.rows {
            if !matches!(r.outcome, RowOutcome::Stall) {
                continue;
            }
            let releasable = r.waits_for.iter().any(|w| {
                arrivable.contains(&(t.controller, *w))
                    && t.rows.iter().any(|c| {
                        c.event == *w
                            && !matches!(c.outcome, RowOutcome::Stall | RowOutcome::Forbidden(_))
                    })
            });
            if !releasable {
                defects.push(StaticDefect::Deadlock(format!(
                    "{} waits for {:?}, but none of those events can both \
                     arrive and be consumed here — the stall can never be \
                     released",
                    r.label(t.controller),
                    r.waits_for
                )));
            }
        }
    }

    defects
}

/// Check the `Quiesce` (line-summary demotion) discipline of a
/// table that declares the event: every non-forbidden `Quiesce` row must
/// be an action-free self-loop — demoting a quiescent line to its flat
/// summary must neither move the protocol state machine nor emit
/// messages, or the summary would silently diverge from the resident
/// record it replaces. Tables without a `Quiesce` event are skipped
/// (they have no demotion path to discipline).
pub fn check_quiescence(t: &TransitionTable) -> Vec<StaticDefect> {
    let mut defects = Vec::new();
    if !t.events.contains(&"Quiesce") {
        return defects;
    }
    for r in t.rows.iter().filter(|r| r.event == "Quiesce") {
        let label = r.label(t.controller);
        match &r.outcome {
            RowOutcome::Forbidden(_) => {}
            RowOutcome::Stall => {
                defects.push(StaticDefect::Quiescence(format!(
                    "{label}: demotion must not stall — a line either demotes \
                     now or stays resident"
                )));
            }
            RowOutcome::Next(to) => {
                if *to != r.state {
                    defects.push(StaticDefect::Quiescence(format!(
                        "{label}: demotion moves the state machine \
                         ({} -> {to}); summaries must be observationally silent",
                        r.state
                    )));
                }
                if !r.actions.is_empty() {
                    defects.push(StaticDefect::Quiescence(format!(
                        "{label}: demotion emits {} action(s); summaries must \
                         be observationally silent",
                        r.actions.len()
                    )));
                }
            }
        }
    }
    defects
}

/// Cross-check the dynamic model checker against the static tables:
/// every `(controller, state, event)` witness the resilient explorer
/// exercised on a strict-protocol path must be permitted by that
/// controller's table. A forbidden or missing row means the abstract
/// model and the declarative tables have drifted apart — exactly the gap
/// this check closes between the two analyses.
pub fn check_model_conformance(
    witnesses: &[(&str, &str, &str)],
    tables: &[&TransitionTable],
) -> Vec<StaticDefect> {
    let mut defects = Vec::new();
    for (controller, state, event) in witnesses {
        let Some(t) = tables.iter().find(|t| t.controller == *controller) else {
            defects.push(StaticDefect::Validation(format!(
                "model witness ({state} x {event}) names unknown controller \
                 {controller}"
            )));
            continue;
        };
        if !t.covered(state, event) {
            defects.push(StaticDefect::MissingRow(format!(
                "{controller}: model checker exercised ({state} x {event}) \
                 but the table has no row for it"
            )));
        } else if !t.permits(state, event) {
            defects.push(StaticDefect::ModelDivergence(format!(
                "{controller}: model checker exercised ({state} x {event}) \
                 but the table forbids it"
            )));
        }
    }
    defects
}

/// Run [`check_table`] and [`check_quiescence`] on every table and
/// [`check_message_graph`] on the whole set; returns all defects.
pub fn check_all(tables: &[&TransitionTable]) -> Vec<StaticDefect> {
    let mut defects: Vec<StaticDefect> = tables.iter().flat_map(|t| check_table(t)).collect();
    defects.extend(tables.iter().flat_map(|t| check_quiescence(t)));
    defects.extend(check_message_graph(tables));
    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_protocol::table::{Action, TransitionRow};

    fn toy() -> TransitionTable {
        TransitionTable {
            controller: "toy",
            states: vec!["I", "V", "W"],
            events: vec!["Get", "Put", "Kick"],
            event_vnets: vec![("Get", Vnet::Req), ("Put", Vnet::Resp)],
            initial: vec!["I"],
            forbidden: vec![],
            assumed_available: vec!["Get", "Kick"],
            rows: vec![
                TransitionRow::next("I", "Get", "V", vec![], "toy/get"),
                TransitionRow::next("V", "Put", "I", vec![], "toy/put"),
                TransitionRow::stall("V", "Get", vec!["Put"], "toy/busy"),
                TransitionRow::next("V", "Kick", "W", vec![], "toy/kick"),
                TransitionRow::next("W", "Kick", "I", vec![], "toy/unkick"),
                TransitionRow::forbidden(ANY_STATE, "Put", "no txn", "toy/put-any"),
                TransitionRow::forbidden("W", "Get", "busy", "toy/get-w"),
                TransitionRow::forbidden("I", "Kick", "idle", "toy/kick-i"),
            ],
        }
    }

    fn peer() -> TransitionTable {
        TransitionTable {
            controller: "peer",
            states: vec!["N"],
            events: vec!["Ping"],
            event_vnets: vec![("Ping", Vnet::Req)],
            initial: vec!["N"],
            forbidden: vec![],
            assumed_available: vec!["Ping"],
            rows: vec![TransitionRow::next(
                "N",
                "Ping",
                "N",
                vec![Action::send("Put", Vnet::Resp, "toy")],
                "peer/ping",
            )],
        }
    }

    #[test]
    fn clean_toy_tables_pass() {
        let (t, p) = (toy(), peer());
        let defects = check_all(&[&t, &p]);
        assert!(defects.is_empty(), "{defects:?}");
    }

    #[test]
    fn missing_row_detected() {
        let mut t = toy();
        t.rows.retain(|r| !(r.state == "W" && r.event == "Get"));
        let defects = check_table(&t);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::MissingRow(s) if s.contains("(W x Get)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn unreachable_state_detected() {
        let mut t = toy();
        t.rows.retain(|r| !(r.event == "Kick" && r.state == "V"));
        t.rows
            .push(TransitionRow::forbidden("V", "Kick", "cut", "toy/cut"));
        let defects = check_table(&t);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::UnreachableState(s) if s.contains("W"))),
            "{defects:?}"
        );
        // The (W, Kick) row is now dead too.
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::UnreachableRow(s) if s.contains("(W x Kick)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn forbidden_state_detected() {
        let mut t = toy();
        t.forbidden.push("W");
        let defects = check_table(&t);
        assert!(
            defects.iter().any(
                |d| matches!(d, StaticDefect::ForbiddenReachable(s) if s.contains("(V x Kick)"))
            ),
            "{defects:?}"
        );
    }

    #[test]
    fn response_stall_detected() {
        let mut t = toy();
        t.rows
            .push(TransitionRow::stall("W", "Put", vec!["Get"], "toy/bad"));
        let defects = check_table(&t);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::ResponseStall(s) if s.contains("(W x Put)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn rule_two_violation_detected() {
        let mut t = toy();
        t.rows.push(
            TransitionRow::next(
                "W",
                "Put",
                "I",
                vec![Action::complete("Done", Vnet::Resp, "peer")],
                "toy/bad-nest",
            )
            .nested(),
        );
        let defects = check_table(&t);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::RuleTwo(s) if s.contains("(W x Put)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn unreleasable_stall_detected() {
        // Remove the peer: Put can no longer arrive, so the (V, Get)
        // stall waiting on Put is a static deadlock.
        let t = toy();
        let defects = check_message_graph(&[&t]);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::Deadlock(s) if s.contains("(V x Get)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn stall_on_unconsumed_event_detected() {
        // Keep the peer, but make every Put row in `toy` a stall: Put
        // still *arrives*, but nobody consumes it, so the stall never
        // releases (the self-cycle naive graph checks miss).
        let (mut t, p) = (toy(), peer());
        t.rows.retain(|r| r.event != "Put");
        t.rows
            .push(TransitionRow::stall("V", "Put", vec!["Put"], "toy/self"));
        t.rows
            .push(TransitionRow::forbidden(ANY_STATE, "Put", "n/a", "toy/x"));
        let defects = check_message_graph(&[&t, &p]);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::Deadlock(s) if s.contains("(V x Get)"))),
            "{defects:?}"
        );
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, StaticDefect::Deadlock(s) if s.contains("(V x Put)"))),
            "{defects:?}"
        );
    }

    #[test]
    fn quiescence_discipline_enforced() {
        let mut t = toy();
        t.events.push("Quiesce");
        t.assumed_available.push("Quiesce");
        t.rows
            .push(TransitionRow::next("I", "Quiesce", "I", vec![], "toy/q-i"));
        // Bad: state-changing demotion.
        t.rows
            .push(TransitionRow::next("V", "Quiesce", "I", vec![], "toy/q-v"));
        // Bad: demotion with a side effect.
        t.rows.push(TransitionRow::next(
            "W",
            "Quiesce",
            "W",
            vec![Action::send("Put", Vnet::Resp, "toy")],
            "toy/q-w",
        ));
        let defects = check_quiescence(&t);
        assert_eq!(defects.len(), 2, "{defects:?}");
        assert!(defects
            .iter()
            .all(|d| matches!(d, StaticDefect::Quiescence(_))));
        // A table without the event is skipped entirely.
        assert!(check_quiescence(&peer()).is_empty());
    }

    #[test]
    fn model_conformance_cross_check() {
        let (t, p) = (toy(), peer());
        let tables = [&t, &p];
        // Permitted, forbidden, uncovered and unknown-controller witnesses.
        let witnesses = [
            ("toy", "I", "Get"),
            ("toy", "W", "Get"),
            ("peer", "N", "Pong"),
            ("ghost", "X", "Y"),
        ];
        let defects = check_model_conformance(&witnesses, &tables);
        assert_eq!(defects.len(), 3, "{defects:?}");
        assert!(defects
            .iter()
            .any(|d| matches!(d, StaticDefect::ModelDivergence(s) if s.contains("(W x Get)"))));
        assert!(defects
            .iter()
            .any(|d| matches!(d, StaticDefect::MissingRow(s) if s.contains("(N x Pong)"))));
        assert!(defects
            .iter()
            .any(|d| matches!(d, StaticDefect::Validation(s) if s.contains("ghost"))));
    }
}
