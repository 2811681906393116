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
//! Every entry point appends its effects to a caller-owned
//! `&mut Vec<DirEffect>` in the order they must be carried out; it never
//! clears the buffer. Owners keep one buffer and reuse it, so a warmed
//! engine handles a message without allocating. Holder sets are
//! [`PeerSet`] bitmasks over the engine's [`PeerSlots`] registry of the
//! caches that contacted it.

use std::collections::VecDeque;

use c3_protocol::msg::{Grant, HostMsg};
use c3_protocol::ops::Addr;
use c3_protocol::ssp::DirPolicy;
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
    /// Whether any private cache holds a copy.
    pub fn any(&self) -> bool {
        !matches!(self, Holders::None)
    }

    /// Whether some private cache may hold a dirty copy.
    pub fn maybe_dirty(&self) -> bool {
        matches!(self, Holders::Exclusive(_) | Holders::Owned(_, _))
    }

    /// Number of caches holding a copy.
    pub fn count(&self) -> usize {
        match self {
            Holders::None => 0,
            Holders::Shared(s) => s.len(),
            Holders::Exclusive(_) => 1,
            Holders::Owned(_, s) => 1 + s.len(),
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

    /// Sharers left after `slot` leaves a shared set.
    fn shared_without(set: PeerSet, slot: usize) -> Holders {
        let set = set.without(slot);
        if set.is_empty() {
            Holders::None
        } else {
            Holders::Shared(set)
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
    policy: DirPolicy,
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
    /// Create an engine applying `policy`, owned by component `self_id`
    /// (recalled data is addressed to `self_id`).
    pub fn new(policy: DirPolicy, self_id: ComponentId) -> Self {
        DirEngine {
            policy,
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
                self.handle_put_clean(src, addr, out);
            }
            HostMsg::PutM { data, poisoned, .. } | HostMsg::PutO { data, poisoned, .. } => {
                self.handle_put_dirty(src, addr, data, poisoned, out);
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
        if !line.holders.maybe_dirty() {
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

    fn handle_put_clean(&mut self, src: ComponentId, addr: Addr, out: &mut Vec<DirEffect>) {
        let slot = self.slot(src);
        let line = self.lines.entry(addr.0);
        match line.holders {
            Holders::Shared(set) => line.holders = Holders::shared_without(set, slot),
            Holders::Exclusive(o) if o == src => line.holders = Holders::None,
            // A PutE from the recorded owner of an Owned line: its clean
            // eviction crossed the FwdGetS that recorded it as O (MOESI
            // records the owner before the forward lands). It holds
            // nothing now; only the sharers remain.
            Holders::Owned(o, set) if o == src => line.holders = Holders::shared_without(set, slot),
            Holders::Owned(o, set) => line.holders = Holders::Owned(o, set.without(slot)),
            _ => {} // stale eviction notice — line already reassigned
        }
        if line.fholder == Some(src) {
            line.fholder = None;
        }
        out.push(DirEffect::Send {
            dst: src,
            msg: HostMsg::PutAck { addr },
        });
    }

    fn handle_put_dirty(
        &mut self,
        src: ComponentId,
        addr: Addr,
        data: u64,
        poisoned: bool,
        out: &mut Vec<DirEffect>,
    ) {
        let slot = self.slot(src);
        let line = self.lines.entry(addr.0);
        let mut updated = false;
        match line.holders {
            Holders::Exclusive(o) if o == src => {
                line.holders = Holders::None;
                line.data = data;
                updated = true;
            }
            // A PutM can arrive from the owner of an Owned line when the
            // owner's eviction crossed a Fwd-GetS that demoted M to O.
            Holders::Owned(o, set) if o == src => {
                line.holders = Holders::shared_without(set, slot);
                line.data = data;
                updated = true;
            }
            Holders::Shared(set) if set.contains(slot) => {
                // The owner was demoted to sharer by a Fwd-GetS that crossed
                // its eviction; its data is still authoritative.
                line.holders = Holders::shared_without(set, slot);
                line.data = data;
                updated = true;
            }
            _ => {} // stale PutM from a cache that already lost ownership
        }
        if line.fholder == Some(src) {
            line.fholder = None;
        }
        out.push(DirEffect::Send {
            dst: src,
            msg: HostMsg::PutAck { addr },
        });
        if updated {
            line.poisoned = poisoned;
            out.push(DirEffect::DataUpdated {
                addr,
                data,
                poisoned,
            });
        }
    }

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
        let self_id = self.self_id;
        // A Shared recall of an exclusive line records the owner as a
        // sharer (MESI): register it before borrowing the line.
        let owner_slot = match self.lines.get(addr.0).map(|l| l.holders) {
            Some(Holders::Exclusive(owner)) => self.slot(owner),
            _ => 0,
        };
        let eager = self.policy.eager_invalidation;
        let line = self.lines.entry(addr.0);
        c3_sim::sim_trace!(
            "    engine{}: start_recall {kind:?} {addr} holders={:?} host={:?}",
            self_id.0,
            line.holders,
            line.host
        );
        // RCC clusters are never invalidated eagerly (§IV-D2): local caches
        // self-invalidate at acquire points, so the recall is immediate.
        if !eager {
            out.push(DirEffect::RecallDone {
                addr,
                kind,
                data: line.data,
                was_dirty: false,
            });
            self.recalls += 1;
            return;
        }
        let mut busy = RecallBusy {
            kind,
            pending_acks: 0,
            need_data: false,
            got_data: false,
            dirty: false,
        };
        match (kind, line.holders) {
            (_, Holders::None) => {
                out.push(DirEffect::RecallDone {
                    addr,
                    kind,
                    data: line.data,
                    was_dirty: false,
                });
                self.recalls += 1;
                return;
            }
            (RecallKind::Shared, Holders::Shared(_)) => {
                // Local copies are read-only and the data copy is current.
                out.push(DirEffect::RecallDone {
                    addr,
                    kind,
                    data: line.data,
                    was_dirty: false,
                });
                self.recalls += 1;
                return;
            }
            (RecallKind::Exclusive, Holders::Shared(set)) => {
                for dst in self.peers.ids(set) {
                    out.push(DirEffect::Send {
                        dst,
                        msg: HostMsg::Inv {
                            addr,
                            requestor: self_id,
                        },
                    });
                }
                busy.pending_acks = set.len() as u32;
                line.holders = Holders::None;
                line.fholder = None;
            }
            (RecallKind::Exclusive, Holders::Exclusive(owner)) => {
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetM {
                        addr,
                        requestor: self_id,
                        acks: 0,
                    },
                });
                busy.need_data = true;
                line.holders = Holders::None;
            }
            (RecallKind::Exclusive, Holders::Owned(owner, set)) => {
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetM {
                        addr,
                        requestor: self_id,
                        acks: 0,
                    },
                });
                for dst in self.peers.ids(set) {
                    out.push(DirEffect::Send {
                        dst,
                        msg: HostMsg::Inv {
                            addr,
                            requestor: self_id,
                        },
                    });
                }
                busy.need_data = true;
                busy.pending_acks = set.len() as u32;
                line.holders = Holders::None;
            }
            (RecallKind::Shared, Holders::Exclusive(owner)) => {
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetS {
                        addr,
                        requestor: self_id,
                        grant: Grant::S,
                    },
                });
                busy.need_data = true;
                line.holders = if self.policy.owner_after_fwd_gets == c3_protocol::StableState::O {
                    Holders::Owned(owner, PeerSet::EMPTY)
                } else {
                    Holders::Shared(PeerSet::single(owner_slot))
                };
            }
            (RecallKind::Shared, Holders::Owned(owner, set)) => {
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetS {
                        addr,
                        requestor: self_id,
                        grant: Grant::S,
                    },
                });
                busy.need_data = true;
                line.holders = Holders::Owned(owner, set);
            }
        }
        line.recall = Some(busy);
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
            HostMsg::GetS { .. } => self.admit_gets(src, addr, perms, out),
            HostMsg::GetM { .. } => self.admit_getm(src, addr, perms, out),
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

    fn admit_gets(
        &mut self,
        src: ComponentId,
        addr: Addr,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        let policy = self.policy;
        let src_slot = self.slot(src);
        let owner_slot = match self.lines.get(addr.0).map(|l| l.holders) {
            Some(Holders::Exclusive(owner)) => self.slot(owner),
            _ => 0,
        };
        let line = self.lines.entry(addr.0);
        match line.holders {
            Holders::None => {
                if !perms.read_ok {
                    self.backend_reads += 1;
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::ReadBackend,
                    });
                    out.push(DirEffect::BackendRead { addr });
                    return;
                }
                // Grant E only when the policy wants it AND the cluster
                // holds global exclusivity (Rule I: a local E allows a
                // silent local M, which must be covered globally).
                let grant = if policy.exclusive_grant_when_unshared && perms.write_ok {
                    Grant::E
                } else {
                    Grant::S
                };
                if policy.eager_invalidation {
                    line.holders = match grant {
                        Grant::E => Holders::Exclusive(src),
                        _ => Holders::Shared(PeerSet::single(src_slot)),
                    };
                } // RCC: directory does not track sharers.
                out.push(DirEffect::Send {
                    dst: src,
                    msg: HostMsg::Data {
                        addr,
                        data: line.data,
                        grant,
                        acks: 0,
                        dirty: false,
                        poisoned: line.poisoned,
                    },
                });
                if policy.eager_invalidation {
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::WaitUnblock,
                    });
                }
            }
            Holders::Shared(set) => {
                // Local sharers imply the cluster data copy is valid
                // (inclusion), so the read can be served locally even if
                // the caller currently reports no *backend* permission —
                // that occurs while a retain-shared writeback (`MemWr,S`)
                // is in flight, during which the copy stays readable.
                let grant = policy.gets_grant_with_sharers;
                if let (Grant::F, Some(f)) = (grant, line.fholder) {
                    // The current forwarder supplies data; forwarder duty
                    // moves to the new requester.
                    out.push(DirEffect::Send {
                        dst: f,
                        msg: HostMsg::FwdGetS {
                            addr,
                            requestor: src,
                            grant,
                        },
                    });
                } else {
                    out.push(DirEffect::Send {
                        dst: src,
                        msg: HostMsg::Data {
                            addr,
                            data: line.data,
                            grant,
                            acks: 0,
                            dirty: false,
                            poisoned: line.poisoned,
                        },
                    });
                }
                if grant == Grant::F {
                    line.fholder = Some(src);
                }
                if policy.eager_invalidation {
                    line.holders = Holders::Shared(set.with(src_slot));
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::WaitUnblock,
                    });
                }
            }
            Holders::Exclusive(owner) => {
                debug_assert_ne!(owner, src, "owner re-requesting GetS");
                let grant = policy.gets_grant_with_sharers;
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetS {
                        addr,
                        requestor: src,
                        grant,
                    },
                });
                line.holders = if policy.owner_after_fwd_gets == c3_protocol::StableState::O {
                    Holders::Owned(owner, PeerSet::single(src_slot))
                } else {
                    Holders::Shared(PeerSet::single(owner_slot).with(src_slot))
                };
                if grant == Grant::F {
                    line.fholder = Some(src);
                }
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
            Holders::Owned(owner, set) => {
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetS {
                        addr,
                        requestor: src,
                        grant: Grant::S,
                    },
                });
                line.holders = Holders::Owned(owner, set.with(src_slot));
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
        }
    }

    fn admit_getm(
        &mut self,
        src: ComponentId,
        addr: Addr,
        perms: BackendPerms,
        out: &mut Vec<DirEffect>,
    ) {
        let src_slot = self.slot(src);
        let line = self.lines.entry(addr.0);
        match line.holders {
            Holders::None => {
                if !perms.write_ok {
                    self.backend_writes += 1;
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::WriteBackend,
                    });
                    out.push(DirEffect::BackendWrite { addr });
                    return;
                }
                out.push(DirEffect::Send {
                    dst: src,
                    msg: HostMsg::Data {
                        addr,
                        data: line.data,
                        grant: Grant::M,
                        acks: 0,
                        dirty: false,
                        poisoned: line.poisoned,
                    },
                });
                line.holders = Holders::Exclusive(src);
                line.fholder = None;
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
            Holders::Shared(set) => {
                if !perms.write_ok {
                    self.backend_writes += 1;
                    line.host = Some(HostBusy {
                        requester: src,
                        phase: HostPhase::WriteBackend,
                    });
                    out.push(DirEffect::BackendWrite { addr });
                    return;
                }
                let invs = set.without(src_slot);
                for dst in self.peers.ids(invs) {
                    out.push(DirEffect::Send {
                        dst,
                        msg: HostMsg::Inv {
                            addr,
                            requestor: src,
                        },
                    });
                }
                out.push(DirEffect::Send {
                    dst: src,
                    msg: HostMsg::Data {
                        addr,
                        data: line.data,
                        grant: Grant::M,
                        acks: invs.len() as u32,
                        dirty: false,
                        poisoned: line.poisoned,
                    },
                });
                line.holders = Holders::Exclusive(src);
                line.fholder = None;
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
            Holders::Exclusive(owner) => {
                debug_assert_ne!(owner, src, "exclusive owner issuing GetM");
                out.push(DirEffect::Send {
                    dst: owner,
                    msg: HostMsg::FwdGetM {
                        addr,
                        requestor: src,
                        acks: 0,
                    },
                });
                line.holders = Holders::Exclusive(src);
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
            Holders::Owned(owner, set) => {
                let invs = set.without(src_slot);
                for dst in self.peers.ids(invs) {
                    out.push(DirEffect::Send {
                        dst,
                        msg: HostMsg::Inv {
                            addr,
                            requestor: src,
                        },
                    });
                }
                if owner == src {
                    // Owner upgrading O -> M: it already has the data.
                    out.push(DirEffect::Send {
                        dst: src,
                        msg: HostMsg::Data {
                            addr,
                            data: line.data,
                            grant: Grant::M,
                            acks: invs.len() as u32,
                            dirty: false,
                            poisoned: line.poisoned,
                        },
                    });
                } else {
                    out.push(DirEffect::Send {
                        dst: owner,
                        msg: HostMsg::FwdGetM {
                            addr,
                            requestor: src,
                            acks: invs.len() as u32,
                        },
                    });
                }
                line.holders = Holders::Exclusive(src);
                line.fholder = None;
                line.host = Some(HostBusy {
                    requester: src,
                    phase: HostPhase::WaitUnblock,
                });
            }
        }
    }
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
        DirEngine::new(SspSpec::mesi().dir, DIR)
    }
    fn moesi_engine() -> DirEngine {
        DirEngine::new(SspSpec::moesi().dir, DIR)
    }
    fn mesif_engine() -> DirEngine {
        DirEngine::new(SspSpec::mesif().dir, DIR)
    }
    fn rcc_engine() -> DirEngine {
        DirEngine::new(SspSpec::rcc().dir, DIR)
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
