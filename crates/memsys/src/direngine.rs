//! The host-domain directory engine.
//!
//! This is the reusable "local directory controller" half of the paper's
//! design (Fig. 5): it tracks which private caches hold each line, drives
//! the native MESI/MESIF/MOESI/RCC directory flows, and — crucially —
//! exposes the two hooks C³ needs:
//!
//! * **Rule I (flow delegation):** when a request cannot be satisfied at
//!   the cluster level (no global read/write permission), the engine emits
//!   [`DirEffect::BackendRead`]/[`DirEffect::BackendWrite`] and suspends the
//!   transaction; the owner component resumes it with
//!   [`DirEngine::backend_read_done`]/[`DirEngine::backend_write_done`]
//!   once the global domain completes.
//! * **Rule II (atomicity / nesting):** while a transaction is in flight on
//!   a line, later requests to that line are queued; a global-initiated
//!   [`DirEngine::recall`] (the conceptual cross-domain *store*/*load* of
//!   Fig. 6b) runs with priority and may overlap a transaction that is
//!   itself suspended on the backend — exactly the conflict scenario of
//!   Fig. 2 — without producing origin-domain effects out of order.
//!
//! The same engine, with a backend that always grants permission, is the
//! baseline global MESI directory ([`crate::global_dir::GlobalMesiDir`]).
//!
//! The holder behaviour is not written out by hand: the family's SSP is
//! compiled once into a dense `[holder class][source role][request]` array
//! of [`DirStep`]s ([`DirSteps::compile`]) that one executor runs and
//! [`direngine_transition_table`] renders. What the SSP leaves to the
//! directory (E grants, owners kept across a `FwdGetS`, MESIF forwarders)
//! is read off its rows ([`SspSpec::read_grants`]).
//!
//! Every entry point appends its effects to a caller-owned
//! `&mut Vec<DirEffect>` in the order they must be carried out; it never
//! clears the buffer. Owners keep one buffer and reuse it, so a warmed
//! engine handles a message without allocating. Holder sets are
//! [`PeerSet`] bitmasks over the engine's [`PeerSlots`] registry of the
//! caches that contacted it.

use std::collections::VecDeque;

use c3_protocol::msg::{Grant, HostMsg};
use c3_protocol::ops::Addr;
use c3_protocol::ssp::SspSpec;
use c3_protocol::states::{ProtocolFamily, StableState};
use c3_protocol::table::{Action, TransitionRow, TransitionTable, Vnet};
use c3_sim::component::ComponentId;
use c3_sim::lines::{Footprint, LineEntry, LineMap};
use c3_sim::peers::{PeerSet, PeerSlots};

/// Which private caches hold a line, from the directory's point of view.
/// Sharer sets are slots of the engine's registry
/// ([`DirEngine::peers`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Holders {
    /// No private cache holds the line.
    #[default]
    None,
    /// Read-only sharers; the directory's data copy is current.
    Shared(PeerSet),
    /// A single exclusive owner (E or M); its copy may be dirty.
    Exclusive(ComponentId),
    /// MOESI: a dirty owner plus read-only sharers.
    Owned(ComponentId, PeerSet),
}

impl Holders {
    /// The holder class, without the identities.
    pub fn class(&self) -> HostClass {
        match self {
            Holders::None => HostClass::None,
            Holders::Shared(_) => HostClass::Shared,
            Holders::Exclusive(_) => HostClass::Exclusive,
            Holders::Owned(_, _) => HostClass::Owned,
        }
    }

    /// The exclusive or O owner, if any, and the read-only sharers.
    fn parts(self) -> (Option<ComponentId>, PeerSet) {
        match self {
            Holders::None => (None, PeerSet::EMPTY),
            Holders::Shared(s) => (None, s),
            Holders::Exclusive(o) => (Some(o), PeerSet::EMPTY),
            Holders::Owned(o, s) => (Some(o), s),
        }
    }

    /// Re-number the sharer sets after the registry opened `slot`.
    fn open_slot(self, slot: usize) -> Holders {
        match self {
            Holders::Shared(s) => Holders::Shared(s.open_slot(slot)),
            Holders::Owned(o, s) => Holders::Owned(o, s.open_slot(slot)),
            h => h,
        }
    }
}

/// Global-domain permissions the caller holds for a line at call time.
///
/// For the C³ bridge these derive from the CXL cache state; for the
/// top-level baseline directory they are always granted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackendPerms {
    /// The cluster may grant read (S) copies locally.
    pub read_ok: bool,
    /// The cluster may grant write (E/M) permission locally.
    pub write_ok: bool,
}

impl BackendPerms {
    /// Full permission — used by the top-level directory.
    pub const ALL: BackendPerms = BackendPerms {
        read_ok: true,
        write_ok: true,
    };
}

/// The kind of global-initiated recall (C³'s conceptual cross-domain
/// access, Table II's "X-Access").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecallKind {
    /// Conceptual *store*: invalidate every local copy, collecting dirty
    /// data (serves `BISnpInv` and CXL-cache evictions, Fig. 7).
    Exclusive,
    /// Conceptual *load*: fetch current data and make the line
    /// non-exclusive locally (serves `BISnpData`).
    Shared,
}

/// An effect the engine asks its owning component to carry out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirEffect {
    /// Send a host-domain message.
    Send {
        /// Destination cache (or self, for recalls).
        dst: ComponentId,
        /// The message.
        msg: HostMsg,
    },
    /// Rule I: the pending transaction needs global read permission.
    BackendRead {
        /// Line concerned.
        addr: Addr,
    },
    /// Rule I: the pending transaction needs global write permission.
    BackendWrite {
        /// Line concerned.
        addr: Addr,
    },
    /// The cluster-level data copy changed (dirty data arrived from a
    /// private cache); the owner must treat its global copy as modified.
    DataUpdated {
        /// Line concerned.
        addr: Addr,
        /// New contents.
        data: u64,
        /// The new contents carry a poison mark (known-corrupt payload
        /// from a recovery abandonment); a clean update heals the mark.
        poisoned: bool,
    },
    /// A recall completed: all local copies satisfy the requested
    /// condition and `data` is the current line value.
    RecallDone {
        /// Line concerned.
        addr: Addr,
        /// Recall kind that completed.
        kind: RecallKind,
        /// Current line contents.
        data: u64,
        /// Whether dirty data was collected from a private cache.
        was_dirty: bool,
    },
    /// A host transaction fully completed (Unblock received).
    TxnDone {
        /// Line concerned.
        addr: Addr,
    },
}

/// A line's holder class: [`Holders`] without the identities (the host
/// half of a C³ compound state).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostClass {
    /// No private cache holds the line.
    None,
    /// Read-only sharers.
    Shared,
    /// One exclusive owner, possibly dirty.
    Exclusive,
    /// A dirty owner plus read-only sharers (MOESI).
    Owned,
}

impl HostClass {
    /// Representative stable state used in Table-II-style displays.
    pub fn representative(self) -> StableState {
        match self {
            HostClass::None => StableState::I,
            HostClass::Shared => StableState::S,
            HostClass::Exclusive => StableState::M,
            HostClass::Owned => StableState::O,
        }
    }

    /// Whether some private cache may hold dirty data.
    pub fn maybe_dirty(self) -> bool {
        matches!(self, HostClass::Exclusive | HostClass::Owned)
    }

    /// Whether any private cache holds a copy.
    pub fn any(self) -> bool {
        self != HostClass::None
    }
}

/// The role the source of a request holds in a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// No copy (a recall's source, the engine's owner, never holds one).
    None,
    /// A read-only sharer.
    Sharer,
    /// The exclusive or O owner.
    Owner,
    /// The MESIF forwarder, the sharer that answers reads.
    Forwarder,
}

/// Each role a source can hold in each holder class, with the name of
/// that view in the transition table.
const VIEWS: [(HostClass, Role, &str); 9] = [
    (HostClass::None, Role::None, "None"),
    (HostClass::Shared, Role::None, "Shared"),
    (HostClass::Shared, Role::Sharer, "Shared/sharer"),
    (HostClass::Shared, Role::Forwarder, "Shared/F"),
    (HostClass::Exclusive, Role::None, "Exclusive"),
    (HostClass::Exclusive, Role::Owner, "Exclusive/owner"),
    (HostClass::Owned, Role::None, "Owned"),
    (HostClass::Owned, Role::Sharer, "Owned/sharer"),
    (HostClass::Owned, Role::Owner, "Owned/owner"),
];

/// A request the directory answers from its holder record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirRequest {
    /// `GetS`.
    GetS,
    /// `GetM`.
    GetM,
    /// A clean eviction notice (`PutS`/`PutE`).
    PutClean,
    /// A dirty writeback (`PutM`/`PutO`).
    PutDirty,
    /// A [`RecallKind::Shared`] recall from the engine's owner.
    RecallS,
    /// A [`RecallKind::Exclusive`] recall from the engine's owner.
    RecallX,
}

impl DirRequest {
    const ALL: [DirRequest; 6] = [
        DirRequest::GetS,
        DirRequest::GetM,
        DirRequest::PutClean,
        DirRequest::PutDirty,
        DirRequest::RecallS,
        DirRequest::RecallX,
    ];

    /// The request's event name in the transition table.
    pub fn name(self) -> &'static str {
        ["GetS", "GetM", "PutClean", "PutDirty", "RecallS", "RecallX"][self as usize]
    }

    fn recall(self) -> Option<RecallKind> {
        match self {
            DirRequest::RecallS => Some(RecallKind::Shared),
            DirRequest::RecallX => Some(RecallKind::Exclusive),
            _ => None,
        }
    }

    fn is_put(self) -> bool {
        matches!(self, DirRequest::PutClean | DirRequest::PutDirty)
    }
}

/// Who answers a request with data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Supplier {
    Nobody,
    Directory,
    /// The owner, by `FwdGetS`/`FwdGetM`.
    Owner,
    /// The MESIF forwarder by `FwdGetS`, or the directory if there is none.
    Forwarder,
}

/// What the directory does for one request from a source in one role on a
/// line of one holder class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirStep {
    /// Rule I: the global permission needed first (`true`: write); without
    /// it the request suspends on the backend.
    needs: Option<bool>,
    supplier: Supplier,
    /// Whether the sharers other than the source are invalidated.
    invalidates: bool,
    /// The grant sent with the data or forward, whose role the requester
    /// takes up. An E grant needs global write permission too.
    grant: Option<Grant>,
    next: HostClass,
    /// Whether the requester then owes an `Unblock`. (A recall waits for
    /// the data and acks it asked for.)
    unblock: bool,
    /// Whether a dirty writeback becomes the directory's copy.
    takes_data: bool,
}

/// Why `req` never comes from a source in `role` on a line in `class`, if
/// it never does.
fn refusal(class: HostClass, role: Role, req: DirRequest) -> Option<&'static str> {
    match req {
        DirRequest::GetS if role != Role::None => Some("a holder never asks for a copy it holds"),
        DirRequest::RecallS | DirRequest::RecallX if role != Role::None => {
            Some("a recall comes from the engine's owner, which holds no copy")
        }
        DirRequest::GetM if (class, role) == (HostClass::Exclusive, Role::Owner) => {
            Some("an exclusive owner writes without asking")
        }
        _ => None,
    }
}

impl DirStep {
    /// `spec`'s step for `req` from `role` on a `class` line, unless refused.
    fn compile(spec: &SspSpec, class: HostClass, role: Role, req: DirRequest) -> Option<DirStep> {
        use HostClass as H;
        let swmr = spec.family.enforces_swmr();
        // A self-invalidating cache only reads: it stores locally, drops
        // clean lines silently and writes dirty ones through.
        let reads = req != DirRequest::GetM && !req.is_put();
        if refusal(class, role, req).is_some() || !(swmr || reads) {
            return None;
        }
        let owned = matches!(class, H::Exclusive | H::Owned);
        // Where a forwarded owner goes: MOESI keeps it as O.
        let forwarded = || {
            if spec.owner_stays_on_fwd_gets() {
                H::Owned
            } else {
                H::Shared
            }
        };
        // By default an owned line's owner supplies and a shared line's
        // sharers are invalidated, as for a GetM or an Exclusive recall.
        let mut s = DirStep {
            needs: None,
            supplier: if owned {
                Supplier::Owner
            } else {
                Supplier::Nobody
            },
            invalidates: matches!(class, H::Shared | H::Owned),
            grant: None,
            next: class,
            unblock: swmr && matches!(req, DirRequest::GetS | DirRequest::GetM),
            takes_data: false,
        };
        match req {
            DirRequest::GetS if class == H::None => {
                let exclusive = spec.exclusive_read_grant();
                s.needs = Some(false);
                s.supplier = Supplier::Directory;
                s.grant = Some(if exclusive { Grant::E } else { Grant::S });
                // Self-invalidating (RCC) caches are not tracked.
                s.next = match (swmr, exclusive) {
                    (false, _) => H::None,
                    (true, true) => H::Exclusive,
                    (true, false) => H::Shared,
                };
            }
            // Sharers imply a current directory copy (inclusion): a shared
            // line is read locally whatever the backend allows.
            DirRequest::GetS => {
                s.grant = Some(spec.shared_read_grant());
                s.invalidates = false;
                if class == H::Shared {
                    s.supplier = match s.grant {
                        Some(Grant::F) => Supplier::Forwarder,
                        _ => Supplier::Directory,
                    };
                } else if class == H::Exclusive {
                    s.next = forwarded();
                }
            }
            DirRequest::GetM => {
                s.needs = (!owned).then_some(true);
                if !owned || role == Role::Owner {
                    s.supplier = Supplier::Directory;
                }
                s.grant = Some(Grant::M);
                s.next = H::Exclusive;
            }
            // The source leaves whatever role it held. Only the owner's
            // writeback is current, or on a shared line a demoted owner's
            // whose forward crossed its eviction.
            DirRequest::PutClean | DirRequest::PutDirty => {
                s.supplier = Supplier::Nobody;
                s.invalidates = false;
                s.next = match (class, role) {
                    (H::Exclusive, Role::Owner) => H::None,
                    (H::Owned, Role::Owner) => H::Shared,
                    _ => class,
                };
                s.takes_data = req == DirRequest::PutDirty
                    && (role == Role::Owner || (class == H::Shared && role != Role::None));
            }
            DirRequest::RecallS => {
                s.invalidates = false;
                if owned {
                    s.grant = Some(Grant::S);
                    s.next = forwarded();
                }
            }
            DirRequest::RecallX => s.next = H::None,
        }
        Some(s)
    }

    /// The holder class the line moves to.
    pub fn next(&self) -> HostClass {
        self.next
    }

    /// This step where the backend does (`write_ok`) or does not hold
    /// global write permission. Rule I: a local E may silently become M,
    /// so a cluster grants E only while it holds that permission.
    pub fn under(mut self, write_ok: bool) -> DirStep {
        if self.grant == Some(Grant::E) && !write_ok {
            (self.grant, self.next) = (Some(Grant::S), HostClass::Shared);
        }
        self
    }

    /// Push the rows this step decides from `state`, a view in `role`: a
    /// suspension that leaves the holders alone, then each way of supplying
    /// (a MESIF read goes to the forwarder, or the directory without one)
    /// into every view of each class the line may move to.
    fn rows(&self, state: &'static str, role: Role, req: DirRequest, out: &mut TransitionTable) {
        let (event, at) = (req.name(), "direngine.rs:DirSteps");
        let send = |msg, vnet, dest| Some(Action::send(msg, vnet, dest));
        if let Some(write) = self.needs {
            let fetch = if write { "BackendWrite" } else { "BackendRead" };
            let fetch = vec![Action::send(fetch, Vnet::Req, "bridge")];
            out.rows
                .push(TransitionRow::next(state, event, state, fetch, at).nested());
        }
        let reads = matches!(req, DirRequest::GetS | DirRequest::RecallS);
        let fwd = send(if reads { "FwdGetS" } else { "FwdGetM" }, Vnet::Snoop, "l1");
        let data = Some(Action::complete("Data", Vnet::Resp, "l1"));
        let supplies = match self.supplier {
            Supplier::Nobody => vec![None],
            Supplier::Directory => vec![data],
            Supplier::Owner => vec![fwd],
            Supplier::Forwarder => vec![fwd, data],
        };
        // A GetM's invalidations go before its data, a recall's after.
        let inv = send("Inv", Vnet::Snoop, "l1").filter(|_| self.invalidates);
        let recall = req.recall().is_some();
        let (before, after) = (inv.clone().filter(|_| !recall), inv.filter(|_| recall));
        let ack = send("PutAck", Vnet::Resp, "l1").filter(|_| req.is_put());
        let update = send("DataUpdated", Vnet::Resp, "bridge").filter(|_| self.takes_data);
        let mut nexts = vec![self.next];
        if self.grant == Some(Grant::E) {
            nexts.push(HostClass::Shared); // no global write permission
        }
        if req.is_put() && role != Role::None && self.next == HostClass::Shared {
            nexts.push(HostClass::None); // the last sharer left
        }
        for supply in &supplies {
            let acts = [&before, supply, &after, &ack, &update];
            let acts: Vec<Action> = acts.into_iter().flatten().cloned().collect();
            for &(class, _, to) in VIEWS.iter().filter(|v| out.states.contains(&v.2)) {
                if nexts.contains(&class) {
                    out.rows
                        .push(TransitionRow::next(state, event, to, acts.clone(), at));
                }
            }
        }
    }
}

/// A family's SSP compiled into a dense `[holder class][source role]
/// [request]` array of [`DirStep`]s: the directory's whole holder
/// behaviour, run by [`DirEngine`] and rendered by [`DirSteps::table`].
#[derive(Clone, Copy, Debug)]
pub struct DirSteps {
    steps: [[[Option<DirStep>; DirRequest::ALL.len()]; 4]; 4],
    family: ProtocolFamily,
}

impl DirSteps {
    /// Compile `spec`. Self-invalidating (RCC) lines have no holders; SWMR
    /// lines are Owned only where suppliers stay owner, and have a
    /// forwarder only where the family grants F.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not validate.
    pub fn compile(spec: &SspSpec) -> DirSteps {
        if let Err(errs) = spec.validate() {
            panic!("{} SSP spec invalid: {errs:?}", spec.family);
        }
        let swmr = spec.family.enforces_swmr();
        let mut steps = [[[None; DirRequest::ALL.len()]; 4]; 4];
        for (class, role, _) in VIEWS {
            let tracked = match class {
                HostClass::None => true,
                HostClass::Owned => swmr && spec.owner_stays_on_fwd_gets(),
                _ => swmr,
            };
            if !tracked || (role == Role::Forwarder && spec.shared_read_grant() != Grant::F) {
                continue;
            }
            for req in DirRequest::ALL {
                steps[class as usize][role as usize][req as usize] =
                    DirStep::compile(spec, class, role, req);
            }
        }
        DirSteps {
            steps,
            family: spec.family,
        }
    }

    /// The step for `req` from a source in `role` on a line in `class`.
    pub fn get(&self, class: HostClass, role: Role, req: DirRequest) -> Option<DirStep> {
        self.steps[class as usize][role as usize][req as usize]
    }

    /// The transition table these steps render: a state per view with a
    /// step, an event per request with one, and `Quiesce`. A refused
    /// request has a forbidden row; a missing step has none, which the
    /// table's completeness check reports.
    pub fn table(&self) -> TransitionTable {
        let has = |c, r, q: DirRequest| self.get(c, r, q).is_some();
        let views: Vec<_> = VIEWS
            .into_iter()
            .filter(|&(c, r, _)| DirRequest::ALL.into_iter().any(|q| has(c, r, q)))
            .collect();
        let requests: Vec<DirRequest> = DirRequest::ALL
            .into_iter()
            .filter(|&q| views.iter().any(|&(c, r, _)| has(c, r, q)))
            .collect();
        let mut events: Vec<&'static str> = requests.iter().map(|q| q.name()).collect();
        events.push("Quiesce");
        let caches = requests.iter().filter(|q| q.recall().is_none());
        let mut table = TransitionTable {
            controller: "direngine",
            states: views.iter().map(|v| v.2).collect(),
            events: events.clone(),
            event_vnets: caches.map(|q| (q.name(), Vnet::Req)).collect(),
            initial: vec!["None"],
            forbidden: vec![],
            // Requests and recalls come from outside; none stalls here.
            assumed_available: events,
            rows: Vec::new(),
        };
        for &(class, role, state) in &views {
            for &req in &requests {
                match (self.get(class, role, req), refusal(class, role, req)) {
                    (Some(step), _) => step.rows(state, role, req, &mut table),
                    (None, Some(why)) => table.rows.push(TransitionRow::forbidden(
                        state,
                        req.name(),
                        why,
                        "direngine.rs:DirSteps",
                    )),
                    (None, None) => {}
                }
            }
            // A line demotes to its summary only once nothing holds it.
            let at = "direngine.rs:try_demote";
            table.rows.push(match class {
                HostClass::None => TransitionRow::next(state, "Quiesce", state, vec![], at),
                _ => TransitionRow::forbidden(state, "Quiesce", "holders keep a line resident", at),
            });
        }
        table
    }
}

#[derive(Clone, Debug)]
enum HostPhase {
    /// Suspended: waiting for the backend to grant read permission.
    ReadBackend,
    /// Suspended: waiting for the backend to grant write permission.
    WriteBackend,
    /// RCC write-through waiting for global write permission.
    WtBackend { data: u64 },
    /// Remote atomic waiting for global write permission.
    AtomicBackend { add: u64 },
    /// Flows launched; waiting for the requester's Unblock.
    WaitUnblock,
}

#[derive(Clone, Debug)]
struct HostBusy {
    requester: ComponentId,
    phase: HostPhase,
}

#[derive(Clone, Debug)]
struct RecallBusy {
    kind: RecallKind,
    pending_acks: u32,
    need_data: bool,
    got_data: bool,
    dirty: bool,
}

#[derive(Clone, Debug, Default)]
struct Line {
    holders: Holders,
    fholder: Option<ComponentId>,
    data: u64,
    /// The directory's data copy is known-corrupt (poisoned writeback).
    poisoned: bool,
    host: Option<HostBusy>,
    recall: Option<RecallBusy>,
    pending_recall: VecDeque<RecallKind>,
    queue: VecDeque<(ComponentId, HostMsg)>,
}

impl Line {
    fn blocks_requests(&self) -> bool {
        self.host.is_some() || self.recall.is_some()
    }

    /// The line's holder class and the role `src` (registry slot `slot`)
    /// holds in it.
    fn view(&self, src: ComponentId, slot: Option<usize>) -> (HostClass, Role) {
        let shares = |set: PeerSet| slot.is_some_and(|s| set.contains(s));
        let role = match self.holders {
            Holders::Exclusive(o) | Holders::Owned(o, _) if o == src => Role::Owner,
            Holders::Shared(set) if shares(set) && self.fholder == Some(src) => Role::Forwarder,
            Holders::Shared(set) | Holders::Owned(_, set) if shares(set) => Role::Sharer,
            _ => Role::None,
        };
        (self.holders.class(), role)
    }
}

/// The quiescent form of a directory line: once no transaction, recall,
/// queue entry, holder or forwarder remains, all the directory still
/// knows about a line is its data copy and the sticky poison mark.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
struct LineSummary {
    data: u64,
    poisoned: bool,
}

impl LineEntry for Line {
    type Summary = LineSummary;

    fn try_demote(&self) -> Option<LineSummary> {
        let quiescent = !self.blocks_requests()
            && self.queue.is_empty()
            && self.pending_recall.is_empty()
            && matches!(self.holders, Holders::None)
            && self.fholder.is_none();
        quiescent.then_some(LineSummary {
            data: self.data,
            poisoned: self.poisoned,
        })
    }

    fn restore(&mut self, s: LineSummary) {
        self.holders = Holders::None;
        self.fholder = None;
        self.data = s.data;
        self.poisoned = s.poisoned;
        self.host = None;
        self.recall = None;
        self.pending_recall.clear();
        self.queue.clear();
    }
}

/// A line with in-flight directory work, captured for a deadlock
/// post-mortem (see [`DirEngine::busy_lines`]).
#[derive(Clone, Debug)]
pub struct BusyLine {
    /// The line.
    pub addr: Addr,
    /// Human-readable summary of the in-flight transaction / recall.
    pub desc: String,
    /// The component the transaction waits on, when the engine knows it
    /// (a requester owing an Unblock). Backend suspensions report `None`
    /// here — the owning component knows its backend and fills that in.
    pub waiting_on: Option<ComponentId>,
    /// Whether the transaction is suspended on the backend (Rule I).
    pub on_backend: bool,
    /// Requests queued behind the busy line.
    pub queued: usize,
}

/// The directory engine. See the module docs for the role it plays.
#[derive(Debug)]
pub struct DirEngine {
    /// The family's holder steps, compiled from its SSP.
    steps: DirSteps,
    self_id: ComponentId,
    lines: LineMap<Line>,
    /// The caches that contacted the engine, numbering the holder sets.
    peers: PeerSlots,
    /// Statistics: transactions that had to consult the backend.
    pub backend_reads: u64,
    /// Statistics: write-permission backend consultations.
    pub backend_writes: u64,
    /// Statistics: completed recalls.
    pub recalls: u64,
    /// Statistics: requests that found the line busy and queued.
    pub stalled_requests: u64,
}

impl DirEngine {
    /// Create an engine running `spec`'s holder steps, owned by component
    /// `self_id` (recalled data is addressed to `self_id`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not compile ([`DirSteps::compile`]).
    pub fn new(spec: &SspSpec, self_id: ComponentId) -> Self {
        DirEngine {
            steps: DirSteps::compile(spec),
            self_id,
            lines: LineMap::default(),
            peers: PeerSlots::default(),
            backend_reads: 0,
            backend_writes: 0,
            recalls: 0,
            stalled_requests: 0,
        }
    }

    /// Current holders of a line. Demoted (quiescent) lines have no
    /// holders: a line with holders never demotes.
    pub fn holders(&self, addr: Addr) -> Holders {
        self.lines
            .get(addr.0)
            .map(|l| l.holders)
            .unwrap_or_default()
    }

    /// The registry numbering the sharer sets of [`Holders`].
    pub fn peers(&self) -> &PeerSlots {
        &self.peers
    }

    /// The registry slot of cache `id`, registering it on first contact
    /// (and re-numbering every resident holder set if that opened a slot
    /// below existing ones). Demoted lines hold no holders.
    fn slot(&mut self, id: ComponentId) -> usize {
        let (slot, opened) = self.peers.register(id);
        if opened {
            self.lines
                .for_each_live_mut(|l| l.holders = l.holders.open_slot(slot));
        }
        slot
    }

    /// Current cluster-level data copy.
    pub fn data(&self, addr: Addr) -> u64 {
        if let Some(l) = self.lines.get(addr.0) {
            l.data
        } else {
            self.lines.summary(addr.0).map(|s| s.data).unwrap_or(0)
        }
    }

    /// Seed the cluster-level data copy (initial memory contents).
    /// Seeded lines go straight to the demoted summary form: seeding a
    /// large footprint must not materialize per-line records.
    pub fn seed_data(&mut self, addr: Addr, data: u64) {
        self.lines.entry(addr.0).data = data;
        self.lines.demote(addr.0);
    }

    /// Whether a line has an in-flight transaction or recall.
    pub fn is_busy(&self, addr: Addr) -> bool {
        self.lines
            .get(addr.0)
            .map(|l| l.blocks_requests())
            .unwrap_or(false)
    }

    /// Whether every line is quiescent (for deadlock detection).
    /// Demoted lines are quiescent by construction, so only resident
    /// records need checking.
    pub fn idle(&self) -> bool {
        self.lines
            .iter_live()
            .all(|(_, l)| !l.blocks_requests() && l.queue.is_empty() && l.pending_recall.is_empty())
    }

    /// Telemetry occupancy snapshot: one allocation-free pass over the
    /// directory (unlike [`DirEngine::busy_lines`], which builds a
    /// post-mortem `Vec`). Returns `(lines, busy, queued)`: entries
    /// tracked, entries with an in-flight transaction or recall, and
    /// requests parked behind busy lines.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let mut busy = 0;
        let mut queued = 0;
        for (_, l) in self.lines.iter_live() {
            if l.blocks_requests() {
                busy += 1;
            }
            queued += l.queue.len();
        }
        (self.lines.touched_lines() as usize, busy, queued)
    }

    /// Line-store footprint snapshot: touched/resident line counts and
    /// the (estimated) coherence-state bytes, with peaks.
    pub fn footprint(&self) -> Footprint {
        self.lines.footprint()
    }

    /// Every line with in-flight or queued work, in address order —
    /// the engine's contribution to a deadlock post-mortem.
    pub fn busy_lines(&self) -> Vec<BusyLine> {
        let mut busy: Vec<BusyLine> = self
            .lines
            .iter_live()
            .filter(|(_, l)| {
                l.blocks_requests() || !l.queue.is_empty() || !l.pending_recall.is_empty()
            })
            .map(|(key, l)| {
                let mut parts = Vec::new();
                let mut waiting_on = None;
                let mut on_backend = false;
                if let Some(h) = &l.host {
                    match h.phase {
                        HostPhase::WaitUnblock => {
                            waiting_on = Some(h.requester);
                            parts.push(format!("txn from {} awaiting Unblock", h.requester));
                        }
                        ref phase => {
                            on_backend = true;
                            parts.push(format!(
                                "txn from {} suspended on backend ({phase:?})",
                                h.requester
                            ));
                        }
                    }
                }
                if let Some(r) = &l.recall {
                    parts.push(format!(
                        "recall {:?} awaiting {} ack(s){}",
                        r.kind,
                        r.pending_acks,
                        if r.need_data && !r.got_data {
                            " + data"
                        } else {
                            ""
                        }
                    ));
                }
                if !l.pending_recall.is_empty() {
                    parts.push(format!("{} recall(s) queued", l.pending_recall.len()));
                }
                BusyLine {
                    addr: Addr(key),
                    desc: parts.join("; "),
                    waiting_on,
                    on_backend,
                    queued: l.queue.len(),
                }
            })
            .collect();
        busy.sort_by_key(|b| b.addr);
        busy
    }

    /// Handle a host-domain message from cache `src`.
    ///
    /// `perms` are the caller's *current* global permissions for the line
    /// (consulted only if a new transaction must be admitted).
    pub fn handle_host(
        &mut self,
        src: ComponentId,
        msg: HostMsg,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        let addr = msg.addr();
        match msg {
            // ---- response-class: never blocked ----
            HostMsg::PutS { .. } | HostMsg::PutE { .. } => {
                self.run(src, addr, DirRequest::PutClean, perms, None, out);
            }
            HostMsg::PutM { data, poisoned, .. } | HostMsg::PutO { data, poisoned, .. } => {
                let put = Some((data, poisoned));
                self.run(src, addr, DirRequest::PutDirty, perms, put, out);
            }
            HostMsg::InvAck { .. } => {
                self.recall_ack(addr, out);
            }
            HostMsg::Data {
                data,
                dirty,
                poisoned,
                ..
            }
            | HostMsg::DataToDir {
                data,
                dirty,
                poisoned,
                ..
            } => {
                self.recall_data(addr, data, dirty, poisoned, out);
            }
            HostMsg::Unblock { to_state, .. } => {
                let line = self.lines.entry(addr.0);
                match &line.host {
                    Some(HostBusy {
                        requester,
                        phase: HostPhase::WaitUnblock,
                    }) if *requester == src => {
                        debug_assert!(
                            to_state.can_read() || to_state.can_write(),
                            "unblock into a useless state"
                        );
                        line.host = None;
                        out.push(DirEffect::TxnDone { addr });
                        self.drain(addr, perms, out);
                    }
                    other => panic!("unexpected Unblock from {src} (busy: {other:?})"),
                }
            }
            // ---- request-class: subject to per-line blocking ----
            HostMsg::GetS { .. }
            | HostMsg::GetM { .. }
            | HostMsg::WriteThrough { .. }
            | HostMsg::AtomicRmw { .. } => {
                let line = self.lines.entry(addr.0);
                if line.blocks_requests() {
                    self.stalled_requests += 1;
                    line.queue.push_back((src, msg));
                } else {
                    self.admit(src, msg, perms, out);
                    // Instant completions (write-throughs, atomics) leave
                    // the line idle: let queued work proceed.
                    self.drain(addr, perms, out);
                }
            }
            // dir-to-cache-only opcodes arriving here indicate a wiring bug
            other => panic!("directory received cache-bound message {other:?}"),
        }
        self.lines.demote(addr.0);
    }

    /// Resume a transaction suspended on [`DirEffect::BackendRead`]: the
    /// global domain granted at least a shared copy with contents `data`.
    pub fn backend_read_done(
        &mut self,
        addr: Addr,
        data: u64,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        debug_assert!(perms.read_ok, "backend_read_done without read permission");
        self.backend_resume(addr, data, perms, false, out)
    }

    /// Resume a transaction suspended on [`DirEffect::BackendWrite`]: the
    /// global domain granted exclusive ownership with contents `data`.
    pub fn backend_write_done(
        &mut self,
        addr: Addr,
        data: u64,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        debug_assert!(
            perms.write_ok,
            "backend_write_done without write permission"
        );
        self.backend_resume(addr, data, perms, true, out)
    }

    fn backend_resume(
        &mut self,
        addr: Addr,
        data: u64,
        perms: BackendPerms,
        write: bool,
        out: &mut Vec<DirEffect>,
    ) {
        let line = self.lines.entry(addr.0);
        // Only refresh the data copy if no local cache holds dirty data —
        // a recall that ran while we were suspended may have collected a
        // newer value than the one the backend returned.
        if !line.holders.class().maybe_dirty() {
            line.data = data;
        }
        let busy = line.host.take().unwrap_or_else(|| {
            panic!("backend completion for {addr} with no suspended transaction")
        });
        let requester = busy.requester;
        match busy.phase {
            HostPhase::ReadBackend => {
                debug_assert!(!write, "read suspension resumed by write completion");
                self.admit(requester, HostMsg::GetS { addr }, perms, out);
            }
            HostPhase::WriteBackend => {
                self.admit(requester, HostMsg::GetM { addr }, perms, out);
            }
            HostPhase::WtBackend { data: wt } => {
                self.admit(
                    requester,
                    HostMsg::WriteThrough { addr, data: wt },
                    perms,
                    out,
                );
            }
            HostPhase::AtomicBackend { add } => {
                self.admit(requester, HostMsg::AtomicRmw { addr, add }, perms, out);
            }
            HostPhase::WaitUnblock => panic!("backend completion while waiting for Unblock"),
        }
        self.drain(addr, perms, out);
        self.lines.demote(addr.0);
    }

    /// Global-initiated recall — C³'s conceptual cross-domain access.
    ///
    /// Runs immediately if the line is idle *or* suspended on the backend
    /// (the Fig. 2 conflict case); otherwise it is queued with priority
    /// over host requests.
    pub fn recall(&mut self, addr: Addr, kind: RecallKind, out: &mut Vec<DirEffect>) {
        let line = self.lines.entry(addr.0);
        debug_assert!(line.recall.is_none(), "one recall per line at a time");
        let must_wait = matches!(
            line.host,
            Some(HostBusy {
                phase: HostPhase::WaitUnblock,
                ..
            })
        );
        if must_wait {
            line.pending_recall.push_back(kind);
        } else {
            self.start_recall(addr, kind, out);
        }
        self.lines.demote(addr.0);
    }

    // ---- internals ----

    fn recall_ack(&mut self, addr: Addr, out: &mut Vec<DirEffect>) {
        let line = self.lines.entry(addr.0);
        let Some(r) = &mut line.recall else {
            // An InvAck can arrive after the recall completed if a sharer's
            // eviction (PutS) raced the Inv; it is harmless.
            return;
        };
        debug_assert!(r.pending_acks > 0, "unexpected InvAck");
        r.pending_acks -= 1;
        self.try_finish_recall(addr, out);
    }

    fn recall_data(
        &mut self,
        addr: Addr,
        data: u64,
        dirty: bool,
        poisoned: bool,
        out: &mut Vec<DirEffect>,
    ) {
        let line = self.lines.entry(addr.0);
        let Some(r) = &mut line.recall else {
            // Duplicate data (e.g. MESI owners send both Data and DataToDir
            // when the recall requestor is the directory itself).
            if dirty {
                line.data = data;
                line.poisoned = poisoned;
                out.push(DirEffect::DataUpdated {
                    addr,
                    data,
                    poisoned,
                });
            }
            return;
        };
        if r.got_data {
            return; // duplicate of the pair above
        }
        r.got_data = true;
        r.dirty |= dirty;
        line.data = data;
        if dirty {
            line.poisoned = poisoned;
            out.push(DirEffect::DataUpdated {
                addr,
                data,
                poisoned,
            });
        }
        self.try_finish_recall(addr, out);
    }

    fn start_recall(&mut self, addr: Addr, kind: RecallKind, out: &mut Vec<DirEffect>) {
        let req = match kind {
            RecallKind::Shared => DirRequest::RecallS,
            RecallKind::Exclusive => DirRequest::RecallX,
        };
        self.run(self.self_id, addr, req, BackendPerms::ALL, None, out);
    }

    /// Run the step for `src`'s `req` on `addr`: suspend on the backend if
    /// it needs a permission `perms` lacks; else send the invalidations,
    /// the data or forward and the `PutAck` in the order the caches
    /// expect, keep a dirty Put's data and poison mark `put` where the
    /// step takes it, move the holders to the step's class with `src`
    /// leaving the role it held and taking up the one its grant gives,
    /// and open what the line then waits for.
    #[inline(always)]
    fn run(
        &mut self,
        src: ComponentId,
        addr: Addr,
        req: DirRequest,
        perms: BackendPerms,
        put: Option<(u64, bool)>,
        out: &mut Vec<DirEffect>,
    ) {
        let recall = req.recall();
        // A recall's source is the engine's owner, which holds no copy.
        let slot = recall.is_none().then(|| self.slot(src));
        let line = self.lines.entry(addr.0);
        let (class, role) = line.view(src, slot);
        let family = self.steps.family;
        let mut step = self.steps.get(class, role, req).unwrap_or_else(|| {
            panic!("{family} has no {req:?} step for {class:?}/{role:?} from {src}")
        });
        // Conformance: the step matches a row of the family's table.
        #[cfg(debug_assertions)]
        {
            let name = req.name();
            let table =
                c3_protocol::table::cached_table("direngine", family, direngine_transition_table);
            let state = VIEWS
                .iter()
                .find(|v| (v.0, v.1) == (class, role))
                .map_or("?", |v| v.2);
            debug_assert!(
                table.permits(state, name),
                "({state} x {name}) has no {family} row"
            );
        }
        let lacks = |write| !(if write { perms.write_ok } else { perms.read_ok });
        if let Some(write) = step.needs.filter(|&w| lacks(w)) {
            // Rule I: wait for the backend to grant the permission.
            let (count, phase, effect) = if write {
                let effect = DirEffect::BackendWrite { addr };
                (&mut self.backend_writes, HostPhase::WriteBackend, effect)
            } else {
                let effect = DirEffect::BackendRead { addr };
                (&mut self.backend_reads, HostPhase::ReadBackend, effect)
            };
            *count += 1;
            out.push(effect);
            line.host = Some(HostBusy {
                requester: src,
                phase,
            });
            return;
        }
        step = step.under(perms.write_ok);
        let (owner, sharers) = line.holders.parts();
        let others = slot.map_or(sharers, |s| sharers.without(s));
        let invs = if step.invalidates {
            others
        } else {
            PeerSet::EMPTY
        };
        // A GetM's requester counts its acks; a recall's come back here.
        let acks = recall.map_or(invs.len() as u32, |_| 0);
        let grant = step.grant.unwrap_or(Grant::S);
        let forward_to = match step.supplier {
            Supplier::Owner => owner,
            Supplier::Forwarder => line.fholder,
            _ => None,
        };
        let msg = match (forward_to, req) {
            (None, _) => HostMsg::Data {
                addr,
                data: line.data,
                grant,
                acks,
                dirty: false,
                poisoned: line.poisoned,
            },
            (_, DirRequest::GetS | DirRequest::RecallS) => HostMsg::FwdGetS {
                addr,
                requestor: src,
                grant,
            },
            _ => HostMsg::FwdGetM {
                addr,
                requestor: src,
                acks,
            },
        };
        // A GetM's invalidations go before its data, a recall's after.
        let inv = |dst| {
            let msg = HostMsg::Inv {
                addr,
                requestor: src,
            };
            DirEffect::Send { dst, msg }
        };
        if recall.is_none() && !invs.is_empty() {
            out.extend(self.peers.ids(invs).map(inv));
        }
        // Without a forwarder, a MESIF read is answered by the directory.
        if step.supplier != Supplier::Nobody {
            let dst = forward_to.unwrap_or(src);
            out.push(DirEffect::Send { dst, msg });
        }
        if recall.is_some() && !invs.is_empty() {
            out.extend(self.peers.ids(invs).map(inv));
        }
        if req.is_put() {
            let msg = HostMsg::PutAck { addr };
            out.push(DirEffect::Send { dst: src, msg });
        }
        if let Some((data, poisoned)) = put.filter(|_| step.takes_data) {
            (line.data, line.poisoned) = (data, poisoned);
            out.push(DirEffect::DataUpdated {
                addr,
                data,
                poisoned,
            });
        }
        let granted = step.grant.filter(|_| recall.is_none());
        let mut owner = owner.filter(|&o| o != src);
        let mut sharers = others;
        match (granted, slot) {
            (Some(Grant::E | Grant::M), _) => owner = Some(src),
            (Some(_), Some(s)) => sharers = sharers.with(s),
            _ => {}
        }
        line.holders = match (step.next, owner) {
            (HostClass::Exclusive, Some(o)) => Holders::Exclusive(o),
            (HostClass::Owned, Some(o)) => Holders::Owned(o, sharers),
            (HostClass::Shared, _) => {
                // A demoted owner keeps its copy as a sharer.
                let demoted = owner.and_then(|o| self.peers.find(o));
                let set = demoted.map_or(sharers, |s| sharers.with(s));
                if set.is_empty() {
                    Holders::None
                } else {
                    Holders::Shared(set)
                }
            }
            _ => Holders::None,
        };
        // The forwarder is one of a shared line's sharers.
        if line.fholder == Some(src) || !matches!(line.holders, Holders::Shared(_)) {
            line.fholder = None;
        }
        if granted == Some(Grant::F) {
            line.fholder = Some(src);
        }
        if let Some(kind) = recall {
            line.recall = Some(RecallBusy {
                kind,
                pending_acks: invs.len() as u32,
                need_data: step.supplier == Supplier::Owner,
                got_data: false,
                dirty: false,
            });
            // Done at once when it asked nobody.
            self.try_finish_recall(addr, out);
        } else if step.unblock {
            line.host = Some(HostBusy {
                requester: src,
                phase: HostPhase::WaitUnblock,
            });
        }
    }

    fn try_finish_recall(&mut self, addr: Addr, out: &mut Vec<DirEffect>) {
        let line = self.lines.entry(addr.0);
        let done = match &line.recall {
            Some(r) => r.pending_acks == 0 && (!r.need_data || r.got_data),
            None => false,
        };
        if done {
            let r = line.recall.take().expect("checked above");
            out.push(DirEffect::RecallDone {
                addr,
                kind: r.kind,
                data: line.data,
                was_dirty: r.dirty,
            });
            self.recalls += 1;
        }
    }

    /// Drain queued work after a recall completed, with fresh permissions.
    /// Call this after acting on [`DirEffect::RecallDone`]: a completing
    /// recall does not drain the line itself, because draining needs the
    /// owner's fresh permissions. (A backend-suspended transaction still
    /// in the host slot resumes via `backend_*_done` instead.)
    pub fn drain_after_recall(
        &mut self,
        addr: Addr,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        self.drain(addr, perms, out);
        self.lines.demote(addr.0);
    }

    fn drain(&mut self, addr: Addr, perms: BackendPerms, out: &mut Vec<DirEffect>) {
        loop {
            let line = self.lines.entry(addr.0);
            if line.blocks_requests() {
                return;
            }
            if let Some(kind) = line.pending_recall.pop_front() {
                self.start_recall(addr, kind, out);
                continue;
            }
            let Some((src, msg)) = line.queue.pop_front() else {
                return;
            };
            self.admit(src, msg, perms, out);
            // `admit` may complete instantly (write-through) or set busy;
            // loop decides whether more work can start.
        }
    }

    /// Admit a request on an idle line.
    fn admit(
        &mut self,
        src: ComponentId,
        msg: HostMsg,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        let addr = msg.addr();
        c3_sim::sim_trace!(
            "    engine{}: admit {msg:?} from {src} holders={:?} perms={perms:?}",
            self.self_id.0,
            self.lines.get(addr.0).map(|l| &l.holders)
        );
        match msg {
            HostMsg::GetS { .. } => {
                self.run(src, addr, DirRequest::GetS, perms, None, out);
            }
            HostMsg::GetM { .. } => {
                self.run(src, addr, DirRequest::GetM, perms, None, out);
            }
            HostMsg::WriteThrough { data, .. } => {
                if !perms.write_ok {
                    self.backend_writes += 1;
                    let line = self.lines.entry(addr.0);
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::WtBackend { data },
                    });
                    out.push(DirEffect::BackendWrite { addr });
                    return;
                }
                let line = self.lines.entry(addr.0);
                line.data = data;
                // A write-through is a fresh full-line store: it heals.
                line.poisoned = false;
                out.push(DirEffect::DataUpdated {
                    addr,
                    data,
                    poisoned: false,
                });
                out.push(DirEffect::Send {
                    dst: src,
                    msg: HostMsg::WtAck { addr },
                });
            }
            HostMsg::AtomicRmw { add, .. } => {
                if !perms.write_ok {
                    self.backend_writes += 1;
                    let line = self.lines.entry(addr.0);
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::AtomicBackend { add },
                    });
                    out.push(DirEffect::BackendWrite { addr });
                    return;
                }
                let line = self.lines.entry(addr.0);
                let old = line.data;
                line.data = old.wrapping_add(add);
                let data = line.data;
                // An atomic derives from the old value: junk stays junk.
                out.push(DirEffect::DataUpdated {
                    addr,
                    data,
                    poisoned: line.poisoned,
                });
                out.push(DirEffect::Send {
                    dst: src,
                    msg: HostMsg::AtomicResp { addr, old },
                });
            }
            other => unreachable!("admit() called with non-request {other:?}"),
        }
    }
}

/// The declarative transition relation of the [`DirEngine`] for `family`,
/// rendered from its [`DirSteps`]. A state is a holder class with the role
/// the request's source holds in it (`Owned/owner`; the class alone for a
/// source without a copy). Queueing, RCC write-throughs and atomics, and
/// the responses a waiting line collects have no rows.
pub fn direngine_transition_table(family: ProtocolFamily) -> TransitionTable {
    DirSteps::compile(&SspSpec::for_family(family)).table()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_protocol::ssp::SspSpec;
    use c3_protocol::StableState;

    const DIR: ComponentId = ComponentId(100);
    const A: ComponentId = ComponentId(1);
    const B: ComponentId = ComponentId(2);
    const C: ComponentId = ComponentId(3);
    const X: Addr = Addr(0x10);

    fn mesi_engine() -> DirEngine {
        DirEngine::new(&SspSpec::mesi(), DIR)
    }
    fn moesi_engine() -> DirEngine {
        DirEngine::new(&SspSpec::moesi(), DIR)
    }
    fn mesif_engine() -> DirEngine {
        DirEngine::new(&SspSpec::mesif(), DIR)
    }
    fn rcc_engine() -> DirEngine {
        DirEngine::new(&SspSpec::rcc(), DIR)
    }

    /// The entry points with a fresh effect buffer per call.
    impl DirEngine {
        fn host(&mut self, src: ComponentId, msg: HostMsg, perms: BackendPerms) -> Vec<DirEffect> {
            let mut out = Vec::new();
            self.handle_host(src, msg, perms, &mut out);
            out
        }
        fn recall_now(&mut self, addr: Addr, kind: RecallKind) -> Vec<DirEffect> {
            let mut out = Vec::new();
            self.recall(addr, kind, &mut out);
            out
        }
        fn read_done(&mut self, addr: Addr, data: u64, perms: BackendPerms) -> Vec<DirEffect> {
            let mut out = Vec::new();
            self.backend_read_done(addr, data, perms, &mut out);
            out
        }
        fn write_done(&mut self, addr: Addr, data: u64, perms: BackendPerms) -> Vec<DirEffect> {
            let mut out = Vec::new();
            self.backend_write_done(addr, data, perms, &mut out);
            out
        }
    }

    fn sends(effects: &[DirEffect]) -> Vec<(ComponentId, HostMsg)> {
        effects
            .iter()
            .filter_map(|e| match e {
                DirEffect::Send { dst, msg } => Some((*dst, *msg)),
                _ => None,
            })
            .collect()
    }

    fn unblock(engine: &mut DirEngine, src: ComponentId, addr: Addr, st: StableState) {
        engine.host(
            src,
            HostMsg::Unblock { addr, to_state: st },
            BackendPerms::ALL,
        );
    }

    #[test]
    fn gets_on_idle_grants_exclusive() {
        let mut e = mesi_engine();
        e.seed_data(X, 42);
        let eff = e.host(A, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        let s = sends(&eff);
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s[0],
            (
                A,
                HostMsg::Data {
                    data: 42,
                    grant: Grant::E,
                    acks: 0,
                    ..
                }
            )
        ));
        assert_eq!(e.holders(X), Holders::Exclusive(A));
        unblock(&mut e, A, X, StableState::E);
        assert!(!e.is_busy(X));
    }

    #[test]
    fn gets_without_write_perm_grants_shared() {
        let mut e = mesi_engine();
        let perms = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        let eff = e.host(A, HostMsg::GetS { addr: X }, perms);
        assert!(matches!(
            sends(&eff)[0].1,
            HostMsg::Data {
                grant: Grant::S,
                ..
            }
        ));
    }

    #[test]
    fn gets_without_read_perm_suspends_on_backend() {
        let mut e = mesi_engine();
        let perms = BackendPerms {
            read_ok: false,
            write_ok: false,
        };
        let eff = e.host(A, HostMsg::GetS { addr: X }, perms);
        assert_eq!(eff, vec![DirEffect::BackendRead { addr: X }]);
        assert!(e.is_busy(X));
        // Backend returns data; transaction resumes and grants.
        let eff = e.read_done(
            X,
            7,
            BackendPerms {
                read_ok: true,
                write_ok: false,
            },
        );
        assert!(matches!(
            sends(&eff)[0],
            (
                A,
                HostMsg::Data {
                    data: 7,
                    grant: Grant::S,
                    ..
                }
            )
        ));
        unblock(&mut e, A, X, StableState::S);
        assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([A])));
    }

    #[test]
    fn getm_invalidates_sharers() {
        let mut e = mesi_engine();
        // A and B become sharers (sequentially, with unblocks).
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        e.host(A, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, A, X, StableState::S);
        e.host(B, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, B, X, StableState::S);
        // C requests ownership.
        let eff = e.host(C, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        let s = sends(&eff);
        let invs: Vec<_> = s
            .iter()
            .filter(|(_, m)| matches!(m, HostMsg::Inv { requestor, .. } if *requestor == C))
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(invs.len(), 2);
        assert!(invs.contains(&A) && invs.contains(&B));
        assert!(s.iter().any(|(d, m)| *d == C
            && matches!(
                m,
                HostMsg::Data {
                    grant: Grant::M,
                    acks: 2,
                    ..
                }
            )));
        assert_eq!(e.holders(X), Holders::Exclusive(C));
    }

    #[test]
    fn getm_upgrade_excludes_requester_from_invs() {
        let mut e = mesi_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        e.host(A, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, A, X, StableState::S);
        e.host(B, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, B, X, StableState::S);
        let eff = e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        let s = sends(&eff);
        // only B is invalidated; A gets acks=1
        assert!(s
            .iter()
            .any(|(d, m)| *d == B && matches!(m, HostMsg::Inv { .. })));
        assert!(!s
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::Inv { .. })));
        assert!(s
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::Data { acks: 1, .. })));
    }

    #[test]
    fn gets_with_owner_forwards_three_hop() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        let eff = e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        let s = sends(&eff);
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s[0],
            (A, HostMsg::FwdGetS { requestor, grant: Grant::S, .. }) if requestor == B
        ));
        // MESI: owner demotes to sharer; dir expects both as sharers.
        assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([A, B])));
    }

    #[test]
    fn moesi_gets_with_owner_keeps_owner() {
        let mut e = moesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        let eff = e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        sends(&eff);
        assert_eq!(e.holders(X), Holders::Owned(A, e.peers().set_of([B])));
    }

    #[test]
    fn mesif_forwarder_supplies_data() {
        let mut e = mesif_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        // A becomes the first sharer (no F yet — dir supplied).
        e.host(A, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, A, X, StableState::S);
        // B asks: dir supplies, B becomes F.
        let eff = e.host(B, HostMsg::GetS { addr: X }, perms_s);
        assert!(matches!(
            sends(&eff)[0],
            (
                B,
                HostMsg::Data {
                    grant: Grant::F,
                    ..
                }
            )
        ));
        unblock(&mut e, B, X, StableState::F);
        // C asks: forwarded to B (the F holder), C becomes the new F.
        let eff = e.host(C, HostMsg::GetS { addr: X }, perms_s);
        assert!(matches!(
            sends(&eff)[0],
            (B, HostMsg::FwdGetS { requestor, grant: Grant::F, .. }) if requestor == C
        ));
    }

    #[test]
    fn requests_queue_while_busy() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        // B's request queues (no effects yet).
        let eff = e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        assert!(sends(&eff).is_empty());
        assert_eq!(e.stalled_requests, 1);
        // A unblocks -> B's queued request launches (FwdGetS to A).
        let eff = e.host(
            A,
            HostMsg::Unblock {
                addr: X,
                to_state: StableState::M,
            },
            BackendPerms::ALL,
        );
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::FwdGetS { .. })));
    }

    #[test]
    fn put_m_from_owner_updates_data() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        let eff = e.host(
            A,
            HostMsg::PutM {
                addr: X,
                data: 99,
                poisoned: false,
            },
            BackendPerms::ALL,
        );
        assert!(eff.contains(&DirEffect::DataUpdated {
            addr: X,
            data: 99,
            poisoned: false
        }));
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::PutAck { .. })));
        assert_eq!(e.holders(X), Holders::None);
        assert_eq!(e.data(X), 99);
    }

    #[test]
    fn stale_put_m_is_acked_but_ignored() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        // B takes ownership (3-hop via A).
        e.host(B, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        // A's eviction crossed the FwdGetM: stale PutM arrives.
        let eff = e.host(
            A,
            HostMsg::PutM {
                addr: X,
                data: 123,
                poisoned: false,
            },
            BackendPerms::ALL,
        );
        assert!(!eff
            .iter()
            .any(|x| matches!(x, DirEffect::DataUpdated { .. })));
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::PutAck { .. })));
        assert_eq!(e.holders(X), Holders::Exclusive(B));
    }

    #[test]
    fn recall_exclusive_from_owner_collects_dirty_data() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        let eff = e.recall_now(X, RecallKind::Exclusive);
        assert!(matches!(
            sends(&eff)[0],
            (A, HostMsg::FwdGetM { requestor, .. }) if requestor == DIR
        ));
        // Owner responds with dirty data addressed to the directory.
        let eff = e.host(
            A,
            HostMsg::Data {
                addr: X,
                data: 55,
                grant: Grant::M,
                acks: 0,
                dirty: true,
                poisoned: false,
            },
            BackendPerms::ALL,
        );
        assert!(eff.iter().any(|x| matches!(
            x,
            DirEffect::RecallDone {
                kind: RecallKind::Exclusive,
                data: 55,
                was_dirty: true,
                ..
            }
        )));
        assert_eq!(e.holders(X), Holders::None);
    }

    #[test]
    fn recall_exclusive_invalidates_sharers() {
        let mut e = mesi_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        e.host(A, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, A, X, StableState::S);
        e.host(B, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, B, X, StableState::S);
        let eff = e.recall_now(X, RecallKind::Exclusive);
        assert_eq!(sends(&eff).len(), 2);
        let eff = e.host(A, HostMsg::InvAck { addr: X }, BackendPerms::ALL);
        assert!(
            eff.is_empty()
                || !eff
                    .iter()
                    .any(|x| matches!(x, DirEffect::RecallDone { .. }))
        );
        let eff = e.host(B, HostMsg::InvAck { addr: X }, BackendPerms::ALL);
        assert!(eff.iter().any(|x| matches!(
            x,
            DirEffect::RecallDone {
                was_dirty: false,
                ..
            }
        )));
    }

    #[test]
    fn recall_shared_on_clean_line_is_immediate() {
        let mut e = mesi_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        e.host(A, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, A, X, StableState::S);
        let eff = e.recall_now(X, RecallKind::Shared);
        assert!(eff
            .iter()
            .any(|x| matches!(x, DirEffect::RecallDone { .. })));
        // Sharers keep their copies.
        assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([A])));
    }

    #[test]
    fn recall_waits_for_unblock_phase_transaction() {
        let mut e = mesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        // recall arrives mid-transaction: must queue
        let eff = e.recall_now(X, RecallKind::Exclusive);
        assert!(eff.is_empty());
        // unblock: recall launches (FwdGetM to new owner A)
        let eff = e.host(
            A,
            HostMsg::Unblock {
                addr: X,
                to_state: StableState::M,
            },
            BackendPerms::ALL,
        );
        assert!(sends(&eff).iter().any(|(d, m)| *d == A
            && matches!(m, HostMsg::FwdGetM { requestor, .. } if *requestor == DIR)));
    }

    #[test]
    fn recall_overlaps_backend_suspended_transaction() {
        // The Fig. 2 "snoop first" conflict: A's GetM is suspended waiting
        // for global ownership; the recall must still run immediately.
        let mut e = mesi_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        e.host(B, HostMsg::GetS { addr: X }, perms_s);
        unblock(&mut e, B, X, StableState::S);
        let eff = e.host(A, HostMsg::GetM { addr: X }, perms_s);
        assert_eq!(eff, vec![DirEffect::BackendWrite { addr: X }]);
        // Recall runs despite the suspended transaction, invalidating B.
        let eff = e.recall_now(X, RecallKind::Exclusive);
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == B && matches!(m, HostMsg::Inv { .. })));
        let eff = e.host(B, HostMsg::InvAck { addr: X }, BackendPerms::ALL);
        assert!(eff
            .iter()
            .any(|x| matches!(x, DirEffect::RecallDone { .. })));
        // Later, the backend grants ownership; A's GetM resumes with no
        // sharers left to invalidate.
        let eff = e.write_done(X, 5, BackendPerms::ALL);
        assert!(sends(&eff).iter().any(|(d, m)| *d == A
            && matches!(
                m,
                HostMsg::Data {
                    grant: Grant::M,
                    acks: 0,
                    ..
                }
            )));
    }

    #[test]
    fn rcc_recall_is_immediate_and_write_through_updates() {
        let mut e = rcc_engine();
        e.seed_data(X, 1);
        // write-through with global permission
        let eff = e.host(
            A,
            HostMsg::WriteThrough { addr: X, data: 9 },
            BackendPerms::ALL,
        );
        assert!(eff.contains(&DirEffect::DataUpdated {
            addr: X,
            data: 9,
            poisoned: false
        }));
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::WtAck { .. })));
        // recall completes immediately (self-invalidation protocol)
        let eff = e.recall_now(X, RecallKind::Exclusive);
        assert!(eff
            .iter()
            .any(|x| matches!(x, DirEffect::RecallDone { data: 9, .. })));
    }

    #[test]
    fn rcc_write_through_without_permission_delegates() {
        let mut e = rcc_engine();
        let perms = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        let eff = e.host(A, HostMsg::WriteThrough { addr: X, data: 3 }, perms);
        assert_eq!(eff, vec![DirEffect::BackendWrite { addr: X }]);
        let eff = e.write_done(X, 0, BackendPerms::ALL);
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::WtAck { .. })));
        assert_eq!(e.data(X), 3);
    }

    #[test]
    fn atomic_rmw_returns_old_value() {
        let mut e = rcc_engine();
        e.seed_data(X, 10);
        let eff = e.host(A, HostMsg::AtomicRmw { addr: X, add: 5 }, BackendPerms::ALL);
        assert!(sends(&eff)
            .iter()
            .any(|(d, m)| *d == A && matches!(m, HostMsg::AtomicResp { old: 10, .. })));
        assert_eq!(e.data(X), 15);
    }

    /// MOESI records an exclusive owner as O the moment it forwards a
    /// GetS to it. An owner whose clean eviction (`PutE`) crossed that
    /// forward holds nothing once acked; it must not stay recorded.
    #[test]
    fn moesi_put_e_crossing_fwd_gets_leaves_no_owner() {
        // Via a Shared recall (BISnpData): the owner had no sharers.
        let mut e = moesi_engine();
        e.host(A, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::E);
        let eff = e.recall_now(X, RecallKind::Shared);
        assert!(matches!(sends(&eff)[0], (A, HostMsg::FwdGetS { .. })));
        assert_eq!(e.holders(X), Holders::Owned(A, PeerSet::EMPTY));
        let eff = e.host(A, HostMsg::PutE { addr: X }, BackendPerms::ALL);
        assert_eq!(sends(&eff), vec![(A, HostMsg::PutAck { addr: X })]);
        assert_eq!(e.holders(X), Holders::None);
        // A answers the forward from EI_A with clean data.
        let data = HostMsg::Data {
            addr: X,
            data: 0,
            grant: Grant::S,
            acks: 0,
            dirty: false,
            poisoned: false,
        };
        let eff = e.host(A, data, BackendPerms::ALL);
        assert!(eff
            .iter()
            .any(|x| matches!(x, DirEffect::RecallDone { .. })));
        assert_eq!(e.holders(X), Holders::None);
        assert!(!e.is_busy(X));

        // Via another cache's GetS: the requester stays a sharer.
        let mut e = moesi_engine();
        e.host(A, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::E);
        e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        assert_eq!(e.holders(X), Holders::Owned(A, e.peers().set_of([B])));
        e.host(A, HostMsg::PutE { addr: X }, BackendPerms::ALL);
        assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([B])));
        // A PutS from a sharer of an Owned line keeps the owner.
        let mut e = moesi_engine();
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::M);
        e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        unblock(&mut e, B, X, StableState::S);
        e.host(B, HostMsg::PutS { addr: X }, BackendPerms::ALL);
        assert_eq!(e.holders(X), Holders::Owned(A, PeerSet::EMPTY));
    }

    /// MESIF: an F holder whose clean eviction crossed the forward that
    /// made it F stops being the forwarder, so the next reader is served
    /// by the directory instead of being forwarded to a cache that no
    /// longer holds the line.
    #[test]
    fn mesif_put_from_the_forwarder_clears_it() {
        for put in [HostMsg::PutS { addr: X }, HostMsg::PutE { addr: X }] {
            let mut e = mesif_engine();
            let perms_s = BackendPerms {
                read_ok: true,
                write_ok: false,
            };
            e.host(A, HostMsg::GetS { addr: X }, perms_s);
            unblock(&mut e, A, X, StableState::S);
            e.host(B, HostMsg::GetS { addr: X }, perms_s);
            unblock(&mut e, B, X, StableState::F);
            e.host(B, put, perms_s);
            assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([A])));
            let eff = e.host(C, HostMsg::GetS { addr: X }, perms_s);
            assert!(
                matches!(
                    sends(&eff)[0],
                    (
                        C,
                        HostMsg::Data {
                            grant: Grant::F,
                            ..
                        }
                    )
                ),
                "{put:?}: {eff:?}"
            );
        }
    }

    /// Holder sets keep ascending-id order whatever order the caches
    /// first contacted the engine in: invalidations fan out by id.
    #[test]
    fn fanout_order_is_ascending_id_regardless_of_contact_order() {
        let mut e = mesi_engine();
        let perms_s = BackendPerms {
            read_ok: true,
            write_ok: false,
        };
        for src in [C, A, B] {
            e.host(src, HostMsg::GetS { addr: X }, perms_s);
            unblock(&mut e, src, X, StableState::S);
        }
        assert_eq!(e.holders(X), Holders::Shared(e.peers().set_of([A, B, C])));
        let eff = e.recall_now(X, RecallKind::Exclusive);
        let order: Vec<ComponentId> = sends(&eff).iter().map(|(d, _)| *d).collect();
        assert_eq!(order, [A, B, C]);
    }

    /// A MOESI spec read from text, which has no directory settings,
    /// still records a forwarded owner as O: the fact comes from its
    /// `M FwdGetS` row.
    #[test]
    fn moesi_rows_alone_record_an_owned_line() {
        use c3_protocol::ssp_text::{from_text, to_text};
        let spec = from_text(&to_text(&SspSpec::moesi())).unwrap();
        let mut e = DirEngine::new(&spec, DIR);
        e.host(A, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        unblock(&mut e, A, X, StableState::E);
        e.host(B, HostMsg::GetS { addr: X }, BackendPerms::ALL);
        assert_eq!(e.holders(X), Holders::Owned(A, e.peers().set_of([B])));
    }

    /// A missing holder step leaves a hole in the rendered table (which
    /// `protocheck`'s completeness check names) rather than a row.
    #[test]
    fn a_missing_step_is_a_missing_row() {
        let mut steps = DirSteps::compile(&SspSpec::moesi());
        assert!(steps.table().covered("Owned/owner", "PutClean"));
        let (c, r, q) = (HostClass::Owned, Role::Owner, DirRequest::PutClean);
        steps.steps[c as usize][r as usize][q as usize] = None;
        assert!(!steps.table().covered("Owned/owner", "PutClean"));
    }

    /// Families without Owned or F states have no views of them, and RCC,
    /// which tracks no holders, has one state.
    #[test]
    fn table_states_follow_the_family() {
        let states = |spec: SspSpec| DirSteps::compile(&spec).table().states;
        assert_eq!(
            states(SspSpec::mesi()),
            [
                "None",
                "Shared",
                "Shared/sharer",
                "Exclusive",
                "Exclusive/owner"
            ]
        );
        assert!(states(SspSpec::mesif()).contains(&"Shared/F"));
        assert!(states(SspSpec::moesi()).contains(&"Owned/owner"));
        assert_eq!(states(SspSpec::rcc()), ["None"]);
    }

    #[test]
    fn idle_reports_pending_work() {
        let mut e = mesi_engine();
        assert!(e.idle());
        e.host(A, HostMsg::GetM { addr: X }, BackendPerms::ALL);
        assert!(!e.idle());
        unblock(&mut e, A, X, StableState::M);
        assert!(e.idle());
    }
}
