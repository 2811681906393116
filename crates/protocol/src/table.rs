//! Declarative transition tables — the concrete controllers' transition
//! relations as *data*.
//!
//! The handler code in `c3-memsys::l1`, `c3::bridge` and `c3-cxl::dcoh`
//! dispatches on `(per-line state, incoming event)`. This module gives that
//! dispatch a declarative mirror: each controller exports a
//! [`TransitionTable`] whose rows name the state, the event, the outcome
//! (transition / stall / forbidden) and the messages emitted. The tables
//! serve two purposes:
//!
//! * **conformance** — in debug builds the dynamic handlers assert that
//!   every step they take matches a table row (see
//!   [`TransitionTable::permits`]), so the data and the code cannot drift;
//! * **static analysis** — `c3-verif::static_checks` checks the tables
//!   offline for completeness, reachability, forbidden states, Rule-II
//!   discipline and cross-controller message-dependency cycles, without
//!   running a single simulation.
//!
//! Rows may use the wildcard state `"*"`, which matches any state not
//! covered by a more specific row — the declarative mirror of the
//! `other => panic!(..)` arms in the handlers.

use std::borrow::Cow;
use std::fmt;

use crate::ops::Addr;
#[cfg(debug_assertions)]
use crate::states::ProtocolFamily;

/// The wildcard state name: a row with this state matches any state that
/// has no specific row for the same event.
pub const ANY_STATE: &str = "*";

/// The virtual network (message class) a message travels on.
///
/// The classic three-network split of directory protocols: requests may
/// block on snoops, snoops may block on responses, responses must always
/// sink. `c3-verif::static_checks` uses the classification to verify the
/// response-sink property (no row may stall a response-class event).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vnet {
    /// Request network (`GetS`/`GetM`, `MemRd*`, `MemWr*`, `BIConflict`).
    Req,
    /// Snoop/forward network (`Inv`, `Fwd*`, `BISnp*`).
    Snoop,
    /// Response network (`Data`, `MemData`, `Cmp`, acks) — must sink.
    Resp,
}

impl fmt::Display for Vnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Vnet::Req => "req",
            Vnet::Snoop => "snoop",
            Vnet::Resp => "resp",
        })
    }
}

/// One message emission performed by a row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Action {
    /// Message (event) name as it appears in the destination's table.
    pub msg: &'static str,
    /// Virtual network the message travels on.
    pub vnet: Vnet,
    /// Destination controller name (`"l1"`, `"bridge"`, `"dcoh"`,
    /// `"core"`, `"peer-l1"`).
    pub dest: &'static str,
    /// Whether this action completes the *origin-domain* transaction
    /// (e.g. the `Data` grant that answers the L1's request). Rule II
    /// forbids such actions on rows that *open* a nested target-domain
    /// transaction — the completion must wait for the target-domain
    /// completion event.
    pub origin_completion: bool,
}

impl Action {
    /// A plain send with no origin-domain completion semantics.
    pub const fn send(msg: &'static str, vnet: Vnet, dest: &'static str) -> Self {
        Action {
            msg,
            vnet,
            dest,
            origin_completion: false,
        }
    }

    /// A send that completes the origin-domain transaction.
    pub const fn complete(msg: &'static str, vnet: Vnet, dest: &'static str) -> Self {
        Action {
            msg,
            vnet,
            dest,
            origin_completion: true,
        }
    }
}

/// What a row does with the incoming event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowOutcome {
    /// Transition to the named state (possibly the same one).
    Next(&'static str),
    /// The event is deferred (queued / convoyed) and retried later; the
    /// row's `waits_for` lists the events whose arrival unblocks it.
    Stall,
    /// The combination is a protocol violation; the reason documents why
    /// it must never occur. At run time this corresponds to a
    /// [`ProtocolViolation`] (or, historically, a panic).
    Forbidden(&'static str),
}

/// One row of a controller's transition relation:
/// `(state, event) -> outcome + actions`.
#[derive(Clone, Debug)]
pub struct TransitionRow {
    /// Per-line state the row applies to ([`ANY_STATE`] for a wildcard).
    pub state: &'static str,
    /// Incoming event (message or internal trigger) name.
    pub event: &'static str,
    /// Transition, stall or forbidden.
    pub outcome: RowOutcome,
    /// Messages emitted when the row fires.
    pub actions: Vec<Action>,
    /// For [`RowOutcome::Stall`] rows: the events whose arrival at this
    /// controller allows the stalled event to be consumed. Feeds the
    /// static deadlock analysis.
    pub waits_for: Vec<&'static str>,
    /// Whether the row *opens* a nested target-domain transaction
    /// (Rule II): the origin transaction stays suspended until the
    /// target-domain completion event arrives.
    pub nested: bool,
    /// Where the row comes from: the handler code it mirrors
    /// (`"l1.rs:handle_host/Data"`) or, for a derived row, the source
    /// that decides it (`"ssp:MOESI M FwdGetS"`, `"generator:snoop_recall"`).
    pub provenance: Cow<'static, str>,
}

impl TransitionRow {
    /// Build a transition row.
    pub fn next(
        state: &'static str,
        event: &'static str,
        to: &'static str,
        actions: Vec<Action>,
        provenance: impl Into<Cow<'static, str>>,
    ) -> Self {
        TransitionRow {
            state,
            event,
            outcome: RowOutcome::Next(to),
            actions,
            waits_for: Vec::new(),
            nested: false,
            provenance: provenance.into(),
        }
    }

    /// Build a stall row.
    pub fn stall(
        state: &'static str,
        event: &'static str,
        waits_for: Vec<&'static str>,
        provenance: impl Into<Cow<'static, str>>,
    ) -> Self {
        TransitionRow {
            state,
            event,
            outcome: RowOutcome::Stall,
            actions: Vec::new(),
            waits_for,
            nested: false,
            provenance: provenance.into(),
        }
    }

    /// Build a forbidden row.
    pub fn forbidden(
        state: &'static str,
        event: &'static str,
        reason: &'static str,
        provenance: impl Into<Cow<'static, str>>,
    ) -> Self {
        TransitionRow {
            state,
            event,
            outcome: RowOutcome::Forbidden(reason),
            actions: Vec::new(),
            waits_for: Vec::new(),
            nested: false,
            provenance: provenance.into(),
        }
    }

    /// Mark the row as opening a nested target-domain transaction.
    pub fn nested(mut self) -> Self {
        self.nested = true;
        self
    }

    /// Whether two rows state the same rule (everything but provenance).
    pub fn same_rule(&self, other: &TransitionRow) -> bool {
        self.state == other.state
            && self.event == other.event
            && self.outcome == other.outcome
            && self.actions == other.actions
            && self.waits_for == other.waits_for
            && self.nested == other.nested
    }

    /// Short identification used in defect messages.
    pub fn label(&self, controller: &str) -> String {
        format!(
            "{controller}: ({} x {}) [{}]",
            self.state, self.event, self.provenance
        )
    }
}

/// A controller's full transition relation as data.
#[derive(Clone, Debug)]
pub struct TransitionTable {
    /// Controller name (`"l1"`, `"bridge"`, `"dcoh"`), used as the
    /// [`Action::dest`] namespace in the cross-controller analysis.
    pub controller: &'static str,
    /// Every per-line state the controller can be in (stable + transient).
    pub states: Vec<&'static str>,
    /// Every event the controller can receive for a line.
    pub events: Vec<&'static str>,
    /// Virtual-network classification of each *incoming* event; events
    /// absent from this list are internal triggers with no wire class.
    pub event_vnets: Vec<(&'static str, Vnet)>,
    /// States a line starts in (reachability roots).
    pub initial: Vec<&'static str>,
    /// States that must never be reachable (inclusion/invariant
    /// violations); a row transitioning into one is a defect.
    pub forbidden: Vec<&'static str>,
    /// Events whose production lies outside the modelled message system
    /// (core requests, internal eviction triggers, engine callbacks); the
    /// deadlock analysis treats them as always arrivable.
    pub assumed_available: Vec<&'static str>,
    /// The rows.
    pub rows: Vec<TransitionRow>,
}

impl TransitionTable {
    /// All rows matching `(state, event)`: specific rows first; if none
    /// exist, wildcard (`"*"`) rows for the event.
    pub fn rows_for(&self, state: &str, event: &str) -> Vec<&TransitionRow> {
        let specific: Vec<&TransitionRow> = self
            .rows
            .iter()
            .filter(|r| r.state == state && r.event == event)
            .collect();
        if !specific.is_empty() {
            return specific;
        }
        self.rows
            .iter()
            .filter(|r| r.state == ANY_STATE && r.event == event)
            .collect()
    }

    /// Whether the dynamic step `(state, event)` matches a non-forbidden
    /// table row — the debug-mode conformance predicate asserted by the
    /// controllers on every handler dispatch. Allocation-free: it runs on
    /// the hot path of every debug-build event.
    pub fn permits(&self, state: &str, event: &str) -> bool {
        let mut any_specific = false;
        for r in self.rows.iter().filter(|r| r.event == event) {
            if r.state == state {
                any_specific = true;
                if !matches!(r.outcome, RowOutcome::Forbidden(_)) {
                    return true;
                }
            }
        }
        if any_specific {
            return false;
        }
        self.rows.iter().any(|r| {
            r.event == event
                && r.state == ANY_STATE
                && !matches!(r.outcome, RowOutcome::Forbidden(_))
        })
    }

    /// Whether `(state, event)` has any row at all (including forbidden
    /// ones) — completeness means this holds for the whole product.
    pub fn covered(&self, state: &str, event: &str) -> bool {
        self.rows
            .iter()
            .any(|r| r.event == event && (r.state == state || r.state == ANY_STATE))
    }

    /// The virtual network of an incoming event, if it is a wire message.
    pub fn vnet_of(&self, event: &str) -> Option<Vnet> {
        self.event_vnets
            .iter()
            .find(|(e, _)| *e == event)
            .map(|(_, v)| *v)
    }
}

/// The table `build(family)` returns for `controller`, built once per
/// process and shared by every controller instance. The debug-mode
/// conformance asserts consult it on every handler dispatch; rebuilding
/// the table per message would be unaffordable even in debug runs.
#[cfg(debug_assertions)]
pub fn cached_table(
    controller: &'static str,
    family: ProtocolFamily,
    build: fn(ProtocolFamily) -> TransitionTable,
) -> &'static TransitionTable {
    use std::sync::{Mutex, PoisonError};
    type Slot = (&'static str, ProtocolFamily, &'static TransitionTable);
    static CACHE: Mutex<Vec<Slot>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, _, table)) = cache
        .iter()
        .find(|(c, f, _)| *c == controller && *f == family)
    {
        return table;
    }
    let table: &'static TransitionTable = Box::leak(Box::new(build(family)));
    cache.push((controller, family, table));
    table
}

/// A structured protocol violation: a `(state, event)` combination the
/// transition table forbids, observed at run time.
///
/// Controllers record these instead of panicking; the violation surfaces
/// through the component's `inflight()` contribution to the deadlock
/// post-mortem (a component holding a violation never reports `done`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Name of the component that observed the violation.
    pub component: String,
    /// Per-line state at the time of the violation.
    pub state: String,
    /// The offending incoming event.
    pub event: String,
    /// The line concerned.
    pub addr: Addr,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol violation in {}: event {} in state {} for {}",
            self.component, self.event, self.state, self.addr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransitionTable {
        TransitionTable {
            controller: "t",
            states: vec!["I", "V"],
            events: vec!["Get", "Put"],
            event_vnets: vec![("Get", Vnet::Req), ("Put", Vnet::Resp)],
            initial: vec!["I"],
            forbidden: vec![],
            assumed_available: vec!["Get"],
            rows: vec![
                TransitionRow::next("I", "Get", "V", vec![], "tiny/get"),
                TransitionRow::stall("V", "Get", vec!["Put"], "tiny/busy"),
                TransitionRow::forbidden(ANY_STATE, "Put", "no txn", "tiny/put"),
                TransitionRow::next("V", "Put", "I", vec![], "tiny/put-v"),
            ],
        }
    }

    #[test]
    fn specific_rows_shadow_wildcards() {
        let t = tiny();
        assert!(t.permits("V", "Put"));
        assert!(!t.permits("I", "Put")); // falls through to the wildcard
        assert!(t.covered("I", "Put"));
        assert!(t.permits("V", "Get")); // stall counts as permitted
    }

    #[test]
    fn vnet_lookup() {
        let t = tiny();
        assert_eq!(t.vnet_of("Put"), Some(Vnet::Resp));
        assert_eq!(t.vnet_of("Tick"), None);
    }

    #[test]
    fn violation_display() {
        let v = ProtocolViolation {
            component: "c0.l1".into(),
            state: "IS_D".into(),
            event: "FwdGetM".into(),
            addr: Addr(64),
        };
        let s = v.to_string();
        assert!(s.contains("c0.l1") && s.contains("IS_D") && s.contains("FwdGetM"));
    }
}
