//! The C³ bridge — the paper's coherence controller (Fig. 5).
//!
//! One bridge per cluster replaces the LLC directory for CXL-mapped
//! addresses. It fuses two roles:
//!
//! * toward the cluster it *is* the local directory — implemented by the
//!   embedded [`DirEngine`] driving the host protocol's native flows;
//! * toward the global domain it is an ordinary cache — the **CXL cache**
//!   (stable state per line in a set-associative array, data held in the
//!   engine), speaking either CXL.mem to the DCOH (active translation) or
//!   the host protocol to a global directory (the paper's passive
//!   MESI-MESI-MESI baseline, where C³ "simply forwards" — §VI-C).
//!
//! The two design rules are enforced structurally:
//!
//! * **Rule I (flow delegation):** the engine consults the bridge's global
//!   permissions on every admission; insufficient permission suspends the
//!   local transaction and emits a backend fetch
//!   ([`CompoundFsm::delegation`]). Incoming global snoops delegate into
//!   the host domain as conceptual loads/stores
//!   ([`CompoundFsm::row`] → [`DirEngine::recall`]).
//! * **Rule II (atomicity):** forwarded transactions are nested — the
//!   engine stalls same-line host requests until the global completion
//!   arrives, and a snoop response is only sent after the nested host
//!   recall (and the CXL writeback it may require) completes.
//!
//! Races between an outstanding request and an incoming `BISnp*` are
//! resolved with the `BIConflict` handshake exactly as in Fig. 2.

use std::any::Any;

use c3_sim::hash::{FxHashMap, FxHashSet};

use c3_memsys::cache::CacheArray;
use c3_memsys::direngine::{BackendPerms, DirEffect, DirEngine, RecallKind};
use c3_protocol::msg::{CxlMsg, Grant, HostMsg, SysMsg};
use c3_protocol::ops::Addr;
use c3_protocol::ssp::SspSpec;
use c3_protocol::states::{ProtocolFamily, StableState};
use c3_protocol::table::{Action, TransitionRow, TransitionTable, Vnet, ANY_STATE};
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::fault::ResilienceConfig;
use c3_sim::stats::{LatencyHistogram, Report};
use c3_sim::time::Time;
use c3_sim::trace::{InflightTxn, TxnId};

use crate::generator::{
    baseline_fsm, bridge_fsm, CompoundFsm, HostClass, Incoming, SnoopAnswer, SnoopResponse,
    TranslationRow, XAccess,
};

/// Wake token for the resilience timer scan (see [`ResilienceConfig`]).
const TIMER_TOKEN: u64 = 1;

/// What the bridge's global side speaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalSide {
    /// CXL.mem to one or more DCOH directories (active translation).
    /// Multiple devices form a multi-headed pool with line-interleaved
    /// addressing (CXL 3.0 fabrics).
    Cxl {
        /// The CXL memory devices (non-empty).
        dirs: Vec<ComponentId>,
    },
    /// The host protocol to a hierarchical global directory (passive
    /// forwarding baseline).
    Host {
        /// The global directory.
        dir: ComponentId,
        /// Global protocol family (MESI in the paper's baseline).
        family: ProtocolFamily,
    },
}

impl GlobalSide {
    /// Convenience constructor for a single CXL device.
    pub fn cxl(dir: ComponentId) -> Self {
        GlobalSide::Cxl { dirs: vec![dir] }
    }

    /// The device responsible for `addr` (line-interleaved).
    fn dir_for(&self, addr: Addr) -> ComponentId {
        match self {
            GlobalSide::Cxl { dirs } => dirs[(addr.0 % dirs.len() as u64) as usize],
            GlobalSide::Host { dir, .. } => *dir,
        }
    }
}

/// Bridge configuration.
#[derive(Clone, Debug)]
pub struct BridgeConfig {
    /// The cluster's host protocol.
    pub host_family: ProtocolFamily,
    /// Global side (CXL or hierarchical host protocol).
    pub global: GlobalSide,
    /// CXL cache sets (Table III LLC: 4 MiB 8-way → 8192 sets).
    pub cxl_sets: usize,
    /// CXL cache ways.
    pub cxl_ways: usize,
    /// Components that belong to the *global* domain (the global
    /// directory plus peer bridges); used to classify incoming host-domain
    /// messages in passive mode.
    pub global_peers: Vec<ComponentId>,
    /// Timeout/retry policy for global-side transactions. `None` (the
    /// default wiring) keeps the bridge's historical fail-stop behaviour:
    /// no timers are armed and unexpected completions panic. Only
    /// meaningful in CXL mode — the intra-cluster and passive host paths
    /// are modelled as reliable.
    pub resilience: Option<ResilienceConfig>,
}

#[derive(Clone, Copy, Debug)]
struct CxlLine {
    state: StableState,
}

#[derive(Debug)]
struct PendingFetch {
    exclusive: bool,
    /// Passive mode: invalidation-ack balance (Data adds, InvAck subtracts).
    acks: i32,
    data_received: bool,
    data: u64,
    grant: StableState,
    txn: TxnId,
    started: Time,
    /// The fill carried a CXL poison mark (or the fetch was abandoned).
    poisoned: bool,
    /// Resilience: re-issues so far; deadline of the current attempt
    /// (`None` when no policy is configured).
    attempts: u32,
    deadline: Option<Time>,
    /// Open retry span (ended by the next retry or the completion).
    retry_txn: Option<TxnId>,
}

#[derive(Debug)]
enum AfterWb {
    /// Capacity eviction (Fig. 7); resume any fetch waiting for the slot.
    Eviction,
    /// Snoop response: send the `BIRsp*` once the writeback completes
    /// (the 6-hop dirty chain of §VI-C1).
    SnoopResponse(Reply),
}

#[derive(Debug)]
struct PendingWb {
    data: u64,
    after: AfterWb,
    /// Passive mode: a Fwd consumed the line mid-writeback (II_A analog).
    superseded: bool,
    /// A `BISnp*` arrived while this eviction was in flight; answer it
    /// after the writeback completes.
    snoop_after: Option<Incoming>,
    txn: TxnId,
    started: Time,
    /// A snoop span shares this txn and closes once the nested writeback
    /// completes (the Rule-II nesting made visible in traces).
    closes_snoop: bool,
    /// Resilience (CXL mode): the exact message to re-issue on timeout.
    resend: Option<CxlMsg>,
    attempts: u32,
    deadline: Option<Time>,
}

#[derive(Debug, PartialEq, Eq)]
enum StashPhase {
    /// `BIConflict` sent; waiting for the ack.
    AwaitingAck,
    /// Ack said our request was serialized first: handle the snoop after
    /// the fill (Fig. 2 middle).
    AwaitingFill,
}

#[derive(Debug)]
struct StashedSnoop {
    kind: Incoming,
    phase: StashPhase,
    started: Time,
    /// Resilience: BIConflict re-sends so far / current deadline.
    attempts: u32,
    deadline: Option<Time>,
}

/// An active delegated snoop: global snoop nested into the host domain.
#[derive(Debug)]
struct ActiveSnoop {
    kind: Incoming,
    reply: Reply,
    txn: TxnId,
    started: Time,
}

/// A snoop's continuation, read from its generated translation row: the
/// answer once the line's data is known, and the CXL state it leaves.
#[derive(Clone, Copy, Debug)]
struct Reply {
    answer: SnoopAnswer,
    next: StableState,
}

impl Reply {
    fn of(row: &TranslationRow) -> Reply {
        Reply {
            answer: row.answer.expect("snoop rows carry an answer"),
            next: row.next.cxl,
        }
    }
}

/// The host recall that realizes a row's conceptual cross-domain access.
fn recall_kind(x: XAccess) -> RecallKind {
    match x {
        XAccess::Store => RecallKind::Exclusive,
        XAccess::Load => RecallKind::Shared,
    }
}

/// The CXL message carrying a snoop response (writebacks carry `data`).
fn snoop_msg(resp: SnoopResponse, addr: Addr, data: u64, poisoned: bool) -> CxlMsg {
    match resp {
        SnoopResponse::MemWrI => CxlMsg::MemWrI {
            addr,
            data,
            poisoned,
        },
        SnoopResponse::MemWrS => CxlMsg::MemWrS {
            addr,
            data,
            poisoned,
        },
        SnoopResponse::BiRspI => CxlMsg::BiRspI { addr },
        SnoopResponse::BiRspS => CxlMsg::BiRspS { addr },
    }
}

/// The C³ bridge component.
#[derive(Debug)]
pub struct C3Bridge {
    name: String,
    cfg: BridgeConfig,
    fsm: CompoundFsm,
    engine: Option<DirEngine>,
    /// The engine's effect buffer: every entry point appends here and
    /// [`C3Bridge::pump`] carries the effects out in FIFO order, so the
    /// buffer is allocated once and reused.
    effects: Vec<DirEffect>,
    cxl: CacheArray<CxlLine>,
    global_peers: FxHashSet<ComponentId>,
    fetches: FxHashMap<Addr, PendingFetch>,
    writebacks: FxHashMap<Addr, PendingWb>,
    snoops: FxHashMap<Addr, ActiveSnoop>,
    stash: FxHashMap<Addr, StashedSnoop>,
    /// Fetches waiting for a victim's eviction to free a slot.
    evict_waiters: FxHashMap<Addr, Vec<(Addr, bool)>>,
    /// CXL snoops that arrived while the line's eviction recall was in
    /// flight; answered when the eviction completes.
    pending_evict_snoop: FxHashMap<Addr, Incoming>,
    /// Passive-mode global snoops awaiting a nested host recall, with the
    /// txn and start time of their open span.
    passive_snoops: FxHashMap<Addr, (HostMsg, TxnId, Time)>,
    /// Fetches deferred until the line's in-flight writeback completes.
    deferred_fetches: FxHashMap<Addr, bool>,
    /// Open eviction spans (txn + start time), keyed by victim.
    evict_txns: FxHashMap<Addr, (TxnId, Time)>,
    /// Lines whose cluster-level copy carries a CXL poison mark; local
    /// fills of these lines are delivered with `Data { poisoned: true }`.
    /// Cleared when dirty (freshly stored) data overwrites the line and on
    /// eviction — the next device fill is clean.
    poisoned_lines: FxHashSet<Addr>,
    // statistics
    fetch_lat: LatencyHistogram,
    wb_lat: LatencyHistogram,
    recall_lat: LatencyHistogram,
    evict_lat: LatencyHistogram,
    global_reads: u64,
    global_writes: u64,
    conflicts_sent: u64,
    snoops_received: u64,
    evictions: u64,
    recalls_delegated: u64,
    retries: u64,
    abandoned: u64,
    dup_suppressed: u64,
    poisoned_fills: u64,
    /// Opt-in line-store footprint keys (`RunConfig::state_metrics`):
    /// off by default so the pinned report/metrics fingerprints hold.
    state_metrics: bool,
}

impl C3Bridge {
    /// Create a bridge. The compound FSM is synthesized from the host and
    /// global protocol specs (the paper's generator pipeline).
    pub fn new(name: impl Into<String>, cfg: BridgeConfig) -> Self {
        let fsm = match &cfg.global {
            GlobalSide::Cxl { .. } => bridge_fsm(cfg.host_family),
            GlobalSide::Host { family, .. } => baseline_fsm(cfg.host_family, *family),
        };
        Self::with_fsm(name, cfg, fsm)
    }

    fn with_fsm(name: impl Into<String>, cfg: BridgeConfig, fsm: CompoundFsm) -> Self {
        C3Bridge {
            name: name.into(),
            fsm,
            cxl: CacheArray::new(cfg.cxl_sets, cfg.cxl_ways),
            global_peers: cfg.global_peers.iter().copied().collect(),
            cfg,
            engine: None,
            effects: Vec::new(),
            fetches: FxHashMap::default(),
            writebacks: FxHashMap::default(),
            snoops: FxHashMap::default(),
            stash: FxHashMap::default(),
            evict_waiters: FxHashMap::default(),
            pending_evict_snoop: FxHashMap::default(),
            passive_snoops: FxHashMap::default(),
            deferred_fetches: FxHashMap::default(),
            evict_txns: FxHashMap::default(),
            poisoned_lines: FxHashSet::default(),
            fetch_lat: LatencyHistogram::default(),
            wb_lat: LatencyHistogram::default(),
            recall_lat: LatencyHistogram::default(),
            evict_lat: LatencyHistogram::default(),
            global_reads: 0,
            global_writes: 0,
            conflicts_sent: 0,
            snoops_received: 0,
            evictions: 0,
            recalls_delegated: 0,
            retries: 0,
            abandoned: 0,
            dup_suppressed: 0,
            poisoned_fills: 0,
            state_metrics: false,
        }
    }

    /// Opt in to the local directory's footprint group
    /// (`c3_sim::lines::Footprint::emit`).
    pub fn set_state_metrics(&mut self, on: bool) {
        self.state_metrics = on;
    }

    /// The generated compound FSM (for inspection / verification).
    pub fn fsm(&self) -> &CompoundFsm {
        &self.fsm
    }

    /// Current CXL-cache state for a line.
    pub fn cxl_state(&self, addr: Addr) -> StableState {
        self.cxl
            .peek(addr)
            .map(|l| l.state)
            .unwrap_or(StableState::I)
    }

    /// The table-level state of `addr` (see [`bridge_transition_table`]):
    /// the phase of the line's pending global transaction, else the CXL
    /// stable state. Precedence mirrors the handler dispatch — a stashed
    /// conflict shadows an active recall shadows a writeback shadows a
    /// fetch.
    #[cfg(debug_assertions)]
    fn table_state(&self, addr: Addr) -> &'static str {
        if let Some(s) = self.stash.get(&addr) {
            return match s.phase {
                StashPhase::AwaitingAck => "StashAck",
                StashPhase::AwaitingFill => "StashFill",
            };
        }
        if self.snoops.contains_key(&addr) {
            return "SnoopRecall";
        }
        if self.writebacks.contains_key(&addr) {
            return "Wb";
        }
        if let Some(f) = self.fetches.get(&addr) {
            return if f.exclusive { "FetchX" } else { "FetchS" };
        }
        self.cxl_state(addr).name()
    }

    /// Debug-mode conformance check: every dynamic dispatch on the CXL
    /// side must match a non-forbidden row of the declarative
    /// [`bridge_transition_table`]. Only active in strict CXL mode — the
    /// passive host path has no table, and a resilient fabric legitimately
    /// delivers duplicated/stale messages the strict table forbids.
    #[cfg(debug_assertions)]
    fn assert_conforms(&self, event: &str, addr: Addr) {
        if !matches!(self.cfg.global, GlobalSide::Cxl { .. }) || self.cfg.resilience.is_some() {
            return;
        }
        let table = c3_protocol::table::cached_table(
            "bridge",
            self.cfg.host_family,
            bridge_transition_table,
        );
        let state = self.table_state(addr);
        debug_assert!(
            table.permits(state, event),
            "{}: dynamic step ({state} x {event}) for {addr} matches no {} table row",
            self.name,
            table.controller,
        );
    }

    /// Cluster-level data value (post-run inspection).
    pub fn data(&self, addr: Addr) -> u64 {
        self.engine.as_ref().map(|e| e.data(addr)).unwrap_or(0)
    }

    /// Lines whose cluster-level copy carries a poison mark, sorted
    /// (post-run inspection).
    pub fn poisoned_lines(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.poisoned_lines.iter().copied().collect();
        v.sort_by_key(|a| a.0);
        v
    }

    /// Global-side re-issues performed so far (post-run inspection).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Transactions that exhausted their retry budget and completed with
    /// an error status (post-run inspection).
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Run one engine entry point, leaving its effects queued in
    /// `self.effects` behind any the pump in progress has not reached.
    fn queue_engine(&mut self, call: impl FnOnce(&mut DirEngine, &mut Vec<DirEffect>)) {
        let engine = self.engine.as_mut().expect("engine initialized in start()");
        call(engine, &mut self.effects);
    }

    /// Run one engine entry point and carry out its effects now.
    fn run_engine(
        &mut self,
        ctx: &mut Ctx<'_, SysMsg>,
        call: impl FnOnce(&mut DirEngine, &mut Vec<DirEffect>),
    ) {
        let mark = self.effects.len();
        self.queue_engine(call);
        self.pump(mark, ctx);
    }

    fn perms(&self, addr: Addr) -> BackendPerms {
        // Rule II: once a downgrade (writeback / snoop response) is in
        // flight, the line's old permissions must produce no further
        // origin-domain effects — the data has already been forwarded.
        if self.writebacks.contains_key(&addr) {
            return BackendPerms {
                read_ok: false,
                write_ok: false,
            };
        }
        let s = self.cxl_state(addr);
        BackendPerms {
            read_ok: s.can_read(),
            write_ok: s.can_write(),
        }
    }

    fn host_class(&self, addr: Addr) -> HostClass {
        let holders = self.engine.as_ref().map(|e| e.holders(addr));
        holders.unwrap_or_default().class()
    }

    /// The generated row for `incoming` on `addr` with its CXL copy in
    /// `cxl`. Rule I keeps a stable line in a consistent state, bar one.
    fn row(&self, incoming: Incoming, addr: Addr, mut cxl: StableState) -> &TranslationRow {
        let host = self.host_class(addr);
        if (host, cxl) == (HostClass::Exclusive, StableState::S) {
            // A MOESI directory grants M on an O-owned line without global
            // write permission; its snoops and evictions are (M, E)'s.
            cxl = StableState::E;
        }
        self.fsm.row(incoming, host, cxl).unwrap_or_else(|| {
            panic!(
                "{}: no {incoming} row for {addr} in ({host:?}, {cxl})",
                self.name
            )
        })
    }

    fn line_busy(&self, addr: Addr) -> bool {
        self.fetches.contains_key(&addr)
            || self.writebacks.contains_key(&addr)
            || self.snoops.contains_key(&addr)
            || self.stash.contains_key(&addr)
            || self
                .engine
                .as_ref()
                .map(|e| e.is_busy(addr))
                .unwrap_or(false)
    }

    // ---- engine effect pump ----

    /// Carry out the effects queued at `self.effects[mark..]`, including
    /// those the handlers queue behind them, in FIFO order; then drop
    /// them from the buffer. A pump started inside a handler (at a higher
    /// mark) runs to completion first, exactly like a nested call, and
    /// leaves the outer pump's pending effects untouched.
    fn pump(&mut self, mark: usize, ctx: &mut Ctx<'_, SysMsg>) {
        let mut next = mark;
        while let Some(&e) = self.effects.get(next) {
            next += 1;
            match e {
                DirEffect::Send { dst, msg } => {
                    // Graceful degradation: fills of a poisoned cluster
                    // line carry the poison mark down to the L1 instead of
                    // pretending the data is good.
                    let msg = match msg {
                        HostMsg::Data {
                            addr,
                            data,
                            grant,
                            acks,
                            dirty,
                            poisoned: _,
                        } if self.poisoned_lines.contains(&addr) => HostMsg::Data {
                            addr,
                            data,
                            grant,
                            acks,
                            dirty,
                            poisoned: true,
                        },
                        m => m,
                    };
                    ctx.send(dst, SysMsg::Host(msg));
                }
                DirEffect::BackendRead { addr } => self.start_fetch(addr, false, ctx),
                DirEffect::BackendWrite { addr } => self.start_fetch(addr, true, ctx),
                DirEffect::DataUpdated { addr, poisoned, .. } => {
                    // Dirty data arrived at the cluster level: global E
                    // silently becomes M (mirrors the host's silent
                    // upgrade at the global level). A clean store heals
                    // any poison mark; a poisoned writeback keeps the
                    // mark travelling with the junk data.
                    if poisoned {
                        self.poisoned_lines.insert(addr);
                    } else {
                        self.poisoned_lines.remove(&addr);
                    }
                    if let Some(l) = self.cxl.get_mut(addr) {
                        if l.state == StableState::E {
                            l.state = StableState::M;
                        }
                    }
                }
                DirEffect::RecallDone {
                    addr,
                    data,
                    was_dirty,
                    ..
                } => self.on_recall_done(addr, data, was_dirty, ctx),
                DirEffect::TxnDone { .. } => {}
            }
        }
        self.effects.truncate(mark);
    }

    // ---- global fetch path (Rule I upward delegation) ----

    /// Begin a global fetch; follow-up engine effects (from eviction
    /// recalls) are queued for the caller to pump. Fig. 7: when the CXL
    /// cache set is full, the victim's eviction completes before the
    /// fetch is issued.
    fn start_fetch(&mut self, addr: Addr, exclusive: bool, ctx: &mut Ctx<'_, SysMsg>) {
        #[cfg(debug_assertions)]
        self.assert_conforms(if exclusive { "FetchX" } else { "FetchS" }, addr);
        if self.writebacks.contains_key(&addr) || self.stash.contains_key(&addr) {
            // The line is mid-downgrade, or a conflict handshake is still
            // being resolved for it: issuing a new request now would make
            // the pending BIConflict ambiguous (which request does it
            // refer to?). Refetch once the line settles.
            self.deferred_fetches.insert(addr, exclusive);
            return;
        }
        if self.cxl.peek(addr).is_none() {
            // Need a slot. Find a stable victim, skipping busy lines.
            let mut victim = None;
            for _ in 0..self.cfg.cxl_ways + 1 {
                match self.cxl.victim(addr) {
                    None => break, // free way available
                    Some((v, _)) if self.line_busy(v) => {
                        self.cxl.get_mut(v); // bump LRU; try next
                    }
                    Some((v, _)) => {
                        victim = Some(v);
                        break;
                    }
                }
            }
            if let Some(v) = victim {
                self.evict_waiters
                    .entry(v)
                    .or_default()
                    .push((addr, exclusive));
                self.start_eviction(v, ctx);
                return;
            }
            if self.cxl.victim(addr).is_some() {
                // Every way is busy; wait for one of them to settle by
                // queueing on the least-recent busy victim.
                let (v, _) = self.cxl.victim(addr).expect("set is full");
                self.evict_waiters
                    .entry(v)
                    .or_default()
                    .push((addr, exclusive));
                return;
            }
            // Free way: reserve it with a placeholder so concurrent fills
            // cannot overflow the set.
            self.cxl.insert(
                addr,
                CxlLine {
                    state: StableState::I,
                },
            );
        }
        let txn = ctx.next_txn();
        if ctx.tracing() {
            let dir = if exclusive { "X" } else { "S" };
            ctx.trace_begin(txn, "bridge", format!("fetch{dir} {addr}"));
        }
        self.fetches.insert(
            addr,
            PendingFetch {
                exclusive,
                acks: 0,
                data_received: false,
                data: 0,
                grant: StableState::I,
                txn,
                started: ctx.now,
                poisoned: false,
                attempts: 0,
                deadline: self.arm_timer(ctx, 0),
                retry_txn: None,
            },
        );
        if exclusive {
            self.global_writes += 1;
        } else {
            self.global_reads += 1;
        }
        let dir = self.cfg.global.dir_for(addr);
        match &self.cfg.global {
            GlobalSide::Cxl { .. } => {
                let msg = if exclusive {
                    CxlMsg::MemRdA { addr }
                } else {
                    CxlMsg::MemRdS { addr }
                };
                ctx.send(dir, SysMsg::Cxl(msg));
            }
            GlobalSide::Host { .. } => {
                let msg = if exclusive {
                    HostMsg::GetM { addr }
                } else {
                    HostMsg::GetS { addr }
                };
                ctx.send(dir, SysMsg::Host(msg));
            }
        }
    }

    /// Arm the deadline for a fresh global-side transaction attempt and
    /// schedule the wakeup that will check it. A no-op (`None`) without a
    /// resilience policy or outside CXL mode — the passive host path is
    /// modelled as reliable.
    fn arm_timer(&self, ctx: &mut Ctx<'_, SysMsg>, attempts: u32) -> Option<Time> {
        if !matches!(self.cfg.global, GlobalSide::Cxl { .. }) {
            return None;
        }
        let r = self.cfg.resilience.as_ref()?;
        let deadline = r.deadline_after(ctx.now, attempts);
        ctx.wake_after(deadline.since(ctx.now), TIMER_TOKEN);
        Some(deadline)
    }

    /// Complete a fetch: install the line, resume the suspended engine
    /// transaction, and deal with a stashed conflict snoop.
    fn complete_fetch(&mut self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        let f = self.fetches.remove(&addr).expect("fetch pending");
        debug_assert!(f.data_received && f.acks <= 0);
        let state = f.grant;
        self.fetch_lat.record(ctx.now.since(f.started));
        if f.poisoned {
            self.poisoned_fills += 1;
            self.poisoned_lines.insert(addr);
        } else {
            // A clean refill replaces whatever poisoned copy we held.
            self.poisoned_lines.remove(&addr);
        }
        if let Some(rt) = f.retry_txn {
            ctx.trace_end(rt);
        }
        ctx.trace_end(f.txn);
        if ctx.tracing() {
            ctx.trace_state(Some(addr.0), &self.cxl_state(addr), &state);
        }
        self.cxl.insert(addr, CxlLine { state });
        if let GlobalSide::Host { dir, .. } = &self.cfg.global {
            let dir = *dir;
            ctx.send(
                dir,
                SysMsg::Host(HostMsg::Unblock {
                    addr,
                    to_state: state,
                }),
            );
        }
        let perms = self.perms(addr);
        self.run_engine(ctx, |e, out| {
            if f.exclusive {
                e.backend_write_done(addr, f.data, perms, out)
            } else {
                e.backend_read_done(addr, f.data, perms, out)
            }
        });
        // Fig. 2 middle: our request was serialized before the snoop —
        // honour the snoop now that the fill completed.
        if matches!(
            self.stash.get(&addr),
            Some(StashedSnoop {
                phase: StashPhase::AwaitingFill,
                ..
            })
        ) {
            let s = self.stash.remove(&addr).expect("checked");
            self.process_global_snoop(addr, s.kind, ctx);
            self.resume_deferred(addr, ctx);
        }
    }

    // ---- CXL-cache eviction (Fig. 7) ----

    /// Begin evicting `victim`; a recall's effects are queued for the
    /// caller to pump.
    fn start_eviction(&mut self, victim: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        #[cfg(debug_assertions)]
        self.assert_conforms("Evict", victim);
        self.evictions += 1;
        if let std::collections::hash_map::Entry::Vacant(e) = self.evict_txns.entry(victim) {
            let txn = ctx.next_txn();
            if ctx.tracing() {
                ctx.trace_begin(txn, "bridge", format!("evict {victim}"));
            }
            e.insert((txn, ctx.now));
        }
        let row = self.row(Incoming::CxlEvict, victim, self.cxl_state(victim));
        if let Some(x) = row.x_access {
            // Conceptual store into the host domain reclaims all copies.
            self.recalls_delegated += 1;
            self.queue_engine(|e, out| e.recall(victim, recall_kind(x), out));
            // continues in on_recall_done
        } else {
            let data = self.engine.as_ref().map(|e| e.data(victim)).unwrap_or(0);
            self.finish_eviction_recall(victim, data, false, ctx);
        }
    }

    /// After host copies are reclaimed (or none existed), write back or
    /// drop the line, per the generated eviction row.
    fn finish_eviction_recall(
        &mut self,
        victim: Addr,
        data: u64,
        was_dirty: bool,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        let dirty = was_dirty || self.cxl_state(victim) == StableState::M;
        let state = self.cxl_state(victim);
        // The nested writeback span reuses the eviction's txn so the
        // Rule-II nesting (evict ⊃ writeback) is visible in the trace.
        let wb_txn = match self.evict_txns.get(&victim) {
            Some((t, _)) => *t,
            None => ctx.next_txn(),
        };
        match &self.cfg.global {
            GlobalSide::Cxl { .. } => {
                let dir = self.cfg.global.dir_for(victim);
                if dirty {
                    let msg = CxlMsg::MemWrI {
                        addr: victim,
                        data,
                        poisoned: self.poisoned_lines.contains(&victim),
                    };
                    ctx.send(dir, SysMsg::Cxl(msg));
                    if ctx.tracing() {
                        ctx.trace_begin(wb_txn, "bridge", format!("wb {victim}"));
                    }
                    let deadline = self.arm_timer(ctx, 0);
                    self.writebacks.insert(
                        victim,
                        PendingWb {
                            data,
                            after: AfterWb::Eviction,
                            superseded: false,
                            snoop_after: None,
                            txn: wb_txn,
                            started: ctx.now,
                            closes_snoop: false,
                            resend: Some(msg),
                            attempts: 0,
                            deadline,
                        },
                    );
                } else {
                    // Clean lines drop silently; the DCOH discovers the
                    // imprecision via a BIRspI snoop-miss later.
                    self.finish_eviction(victim, ctx);
                }
            }
            GlobalSide::Host { dir, .. } => {
                let dir = *dir;
                // The hierarchical directory is precise: every eviction is
                // announced and acknowledged.
                let msg = match (dirty, state) {
                    (true, _) => HostMsg::PutM {
                        addr: victim,
                        data,
                        poisoned: self.poisoned_lines.contains(&victim),
                    },
                    (false, StableState::E) => HostMsg::PutE { addr: victim },
                    (false, _) => HostMsg::PutS { addr: victim },
                };
                ctx.send(dir, SysMsg::Host(msg));
                if ctx.tracing() {
                    ctx.trace_begin(wb_txn, "bridge", format!("wb {victim}"));
                }
                self.writebacks.insert(
                    victim,
                    PendingWb {
                        data,
                        after: AfterWb::Eviction,
                        superseded: false,
                        snoop_after: None,
                        txn: wb_txn,
                        started: ctx.now,
                        closes_snoop: false,
                        resend: None,
                        attempts: 0,
                        deadline: None,
                    },
                );
            }
        }
    }

    fn finish_eviction(&mut self, victim: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        if ctx.tracing() && self.cxl.peek(victim).is_some() {
            ctx.trace_state(Some(victim.0), &self.cxl_state(victim), &StableState::I);
        }
        self.cxl.remove(victim);
        // The line leaves the cluster; a future refill comes from the
        // device's (unpoisoned) copy.
        self.poisoned_lines.remove(&victim);
        if let Some((txn, started)) = self.evict_txns.remove(&victim) {
            self.evict_lat.record(ctx.now.since(started));
            ctx.trace_end(txn);
        }
        if let Some(kind) = self.pending_evict_snoop.remove(&victim) {
            // A snoop raced the eviction; the line is gone (dirty data, if
            // any, already travelled in the eviction's MemWr).
            self.process_global_snoop(victim, kind, ctx);
        }
        if let Some(waiters) = self.evict_waiters.remove(&victim) {
            for (addr, exclusive) in waiters {
                let mark = self.effects.len();
                self.start_fetch(addr, exclusive, ctx);
                self.pump(mark, ctx);
            }
        }
    }

    /// Complete a global writeback — on its `Cmp`, or locally when retry
    /// exhaustion abandons it: record latency, close the trace spans, and
    /// perform the after-action (finish the eviction or send the deferred
    /// snoop response).
    fn finish_writeback(&mut self, addr: Addr, wb: PendingWb, ctx: &mut Ctx<'_, SysMsg>) {
        let dir = self.cfg.global.dir_for(addr);
        self.wb_lat.record(ctx.now.since(wb.started));
        ctx.trace_end(wb.txn);
        if wb.closes_snoop {
            // The snoop span that wrapped this writeback completes
            // with it (second end pops the outer span).
            ctx.trace_end(wb.txn);
        }
        match wb.after {
            AfterWb::Eviction => {
                self.finish_eviction(addr, ctx);
                if let Some(kind) = wb.snoop_after {
                    // A snoop raced our eviction: the MemWr carried
                    // the data; complete the handshake now.
                    self.process_global_snoop(addr, kind, ctx);
                }
            }
            AfterWb::SnoopResponse(reply) => {
                let msg = snoop_msg(reply.answer.clean, addr, wb.data, false);
                ctx.send(dir, SysMsg::Cxl(msg));
                self.settle_snoop(addr, reply.next, ctx);
            }
        }
        self.resume_deferred(addr, ctx);
    }

    /// Resume a fetch that waited for this line's writeback to complete.
    fn resume_deferred(&mut self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        if let Some(exclusive) = self.deferred_fetches.remove(&addr) {
            let mark = self.effects.len();
            self.start_fetch(addr, exclusive, ctx);
            self.pump(mark, ctx);
        }
    }

    /// Re-examine a line whose activity may have settled: fetches queued
    /// on a previously busy victim proceed once it goes idle.
    fn kick_waiters(&mut self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        if !self.evict_waiters.contains_key(&addr) || self.line_busy(addr) {
            return;
        }
        if self.cxl.peek(addr).is_some() {
            let mark = self.effects.len();
            self.start_eviction(addr, ctx);
            self.pump(mark, ctx);
        } else {
            self.finish_eviction(addr, ctx);
        }
    }

    // ---- global snoops (Rule I downward delegation) ----

    /// Handle a global snoop against a *stable* line (no outstanding
    /// request of our own), as its generated row says: recall host copies
    /// first, or answer at once.
    fn process_global_snoop(&mut self, addr: Addr, kind: Incoming, ctx: &mut Ctx<'_, SysMsg>) {
        let cxl = self.cxl_state(addr);
        let row = self.row(kind, addr, cxl);
        let (x_access, reply) = (row.x_access, Reply::of(row));
        match x_access {
            Some(x) => self.delegate_snoop(addr, kind, recall_kind(x), reply, ctx),
            None => {
                let data = self.engine.as_ref().map(|e| e.data(addr)).unwrap_or(0);
                let dirty = cxl == StableState::M;
                self.respond_snoop(addr, reply, data, dirty, None, ctx);
            }
        }
    }

    /// Nest a host recall under a global snoop (Rule II); `on_recall_done`
    /// sends the reply.
    fn delegate_snoop(
        &mut self,
        addr: Addr,
        kind: Incoming,
        recall: RecallKind,
        reply: Reply,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        self.recalls_delegated += 1;
        let txn = ctx.next_txn();
        if ctx.tracing() {
            ctx.trace_begin(txn, "bridge", format!("snoop {kind:?} {addr}"));
        }
        self.snoops.insert(
            addr,
            ActiveSnoop {
                kind,
                reply,
                txn,
                started: ctx.now,
            },
        );
        self.run_engine(ctx, |e, out| e.recall(addr, recall, out));
    }

    /// The row of a snoop that lost the Fig. 2 race to our pending fetch:
    /// the line holds at most the clean S copy an upgrade starts from.
    fn loser_row(&self, kind: Incoming, addr: Addr) -> &TranslationRow {
        self.row(kind, addr, StableState::S)
    }

    /// Send a snoop's answer. Dirty data funnels through a nested CXL
    /// writeback first (the 6-hop chain); the clean answer follows its
    /// `Cmp`.
    fn respond_snoop(
        &mut self,
        addr: Addr,
        reply: Reply,
        data: u64,
        dirty: bool,
        snoop_txn: Option<TxnId>,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        debug_assert!(matches!(self.cfg.global, GlobalSide::Cxl { .. }));
        let dir = self.cfg.global.dir_for(addr);
        if !dirty {
            let msg = snoop_msg(reply.answer.clean, addr, data, false);
            ctx.send(dir, SysMsg::Cxl(msg));
            self.settle_snoop(addr, reply.next, ctx);
            if let Some(t) = snoop_txn {
                ctx.trace_end(t);
            }
            return;
        }
        // Nested writeback (the 6-hop dirty chain): reuse the snoop's txn
        // so the wb span nests inside the snoop span (Rule II).
        let (txn, closes_snoop) = match snoop_txn {
            Some(t) => (t, true),
            None => (ctx.next_txn(), false),
        };
        let poisoned = self.poisoned_lines.contains(&addr);
        let msg = snoop_msg(reply.answer.dirty, addr, data, poisoned);
        ctx.send(dir, SysMsg::Cxl(msg));
        if ctx.tracing() {
            ctx.trace_begin(txn, "bridge", format!("wb {addr}"));
        }
        let deadline = self.arm_timer(ctx, 0);
        self.writebacks.insert(
            addr,
            PendingWb {
                data,
                after: AfterWb::SnoopResponse(reply),
                superseded: false,
                snoop_after: None,
                txn,
                started: ctx.now,
                closes_snoop,
                resend: Some(msg),
                attempts: 0,
                deadline,
            },
        );
    }

    /// Leave `addr` in the CXL state its snoop answer named (I frees the
    /// slot).
    fn settle_snoop(&mut self, addr: Addr, next: StableState, ctx: &mut Ctx<'_, SysMsg>) {
        if next == StableState::I {
            if ctx.tracing() && self.cxl.peek(addr).is_some() {
                ctx.trace_state(Some(addr.0), &self.cxl_state(addr), &next);
            }
            self.cxl.remove(addr);
        } else if let Some(l) = self.cxl.get_mut(addr) {
            if ctx.tracing() {
                ctx.trace_state(Some(addr.0), &l.state, &next);
            }
            l.state = next;
        }
    }

    /// React to a completed recall; the engine's drain effects are
    /// queued for the pump in progress.
    fn on_recall_done(
        &mut self,
        addr: Addr,
        data: u64,
        was_dirty: bool,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        #[cfg(debug_assertions)]
        self.assert_conforms("RecallDone", addr);
        if let Some(snoop) = self.snoops.remove(&addr) {
            let dirty = was_dirty || self.cxl_state(addr) == StableState::M;
            self.recall_lat.record(ctx.now.since(snoop.started));
            self.respond_snoop(addr, snoop.reply, data, dirty, Some(snoop.txn), ctx);
        } else if let Some((msg, txn, started)) = self.passive_snoops.remove(&addr) {
            let dirty = was_dirty || self.cxl_state(addr) == StableState::M;
            self.respond_host_snoop(addr, msg, data, dirty, ctx);
            self.recall_lat.record(ctx.now.since(started));
            ctx.trace_end(txn);
            if self.evict_waiters.contains_key(&addr) {
                // The eviction that shared this recall continues; its Put
                // will be stale at the directory and simply acknowledged.
                self.finish_eviction_recall(addr, data, was_dirty, ctx);
            }
        } else if self.evict_waiters.contains_key(&addr) {
            self.finish_eviction_recall(addr, data, was_dirty, ctx);
        }
        let perms = self.perms(addr);
        self.queue_engine(|e, out| e.drain_after_recall(addr, perms, out));
    }

    // ---- message handlers ----

    fn handle_cxl(&mut self, msg: CxlMsg, ctx: &mut Ctx<'_, SysMsg>) {
        let addr = msg.addr();
        #[cfg(debug_assertions)]
        if !msg.is_m2s() {
            self.assert_conforms(msg.name(), addr);
        }
        match msg {
            CxlMsg::MemData {
                data,
                grant,
                poisoned,
                ..
            } => {
                let Some(f) = self.fetches.get_mut(&addr) else {
                    // A duplicated fill, or the response to a retry whose
                    // original attempt already completed the fetch: the
                    // directory state is unchanged, so it is safe (and
                    // required for idempotency) to ignore it.
                    if self.cfg.resilience.is_some() {
                        self.dup_suppressed += 1;
                        return;
                    }
                    panic!("MemData without fetch");
                };
                f.data = data;
                f.data_received = true;
                f.grant = grant.state();
                f.poisoned |= poisoned;
                self.complete_fetch(addr, ctx);
            }
            CxlMsg::Cmp { .. } => {
                let Some(wb) = self.writebacks.remove(&addr) else {
                    // Duplicate completion (replayed Cmp, or the ack of a
                    // retried MemWr that already completed).
                    if self.cfg.resilience.is_some() {
                        self.dup_suppressed += 1;
                        return;
                    }
                    panic!("Cmp without writeback");
                };
                self.finish_writeback(addr, wb, ctx);
            }
            CxlMsg::BiSnpInv { .. } | CxlMsg::BiSnpData { .. } => {
                if self.cfg.resilience.is_some()
                    && (self.snoops.contains_key(&addr) || self.stash.contains_key(&addr))
                {
                    // A re-issued (or duplicated) snoop for a line whose
                    // handshake is still in flight; the original will
                    // answer it.
                    self.dup_suppressed += 1;
                    return;
                }
                self.snoops_received += 1;
                let kind = if matches!(msg, CxlMsg::BiSnpInv { .. }) {
                    Incoming::BiSnpInv
                } else {
                    Incoming::BiSnpData
                };
                if self.fetches.contains_key(&addr) {
                    // Fig. 2: a snoop races our own outstanding request —
                    // ask the directory which came first.
                    let dir = self.cfg.global.dir_for(addr);
                    self.conflicts_sent += 1;
                    let deadline = self.arm_timer(ctx, 0);
                    self.stash.insert(
                        addr,
                        StashedSnoop {
                            kind,
                            phase: StashPhase::AwaitingAck,
                            started: ctx.now,
                            attempts: 0,
                            deadline,
                        },
                    );
                    ctx.send(dir, SysMsg::Cxl(CxlMsg::BiConflict { addr }));
                } else if let Some(wb) = self.writebacks.get_mut(&addr) {
                    // Our eviction raced the snoop: the in-flight MemWr is
                    // the data response; acknowledge after its Cmp.
                    wb.snoop_after = Some(kind);
                } else if self.evict_waiters.contains_key(&addr) {
                    // Eviction recall in flight: answer once it resolves.
                    self.pending_evict_snoop.insert(addr, kind);
                } else {
                    self.process_global_snoop(addr, kind, ctx);
                }
            }
            CxlMsg::BiConflictAck {
                request_was_serialized,
                ..
            } => {
                let Some(s) = self.stash.get_mut(&addr) else {
                    // Duplicate ack (replay, or the answer to a retried
                    // BIConflict whose first ack already resolved it).
                    if self.cfg.resilience.is_some() {
                        self.dup_suppressed += 1;
                        return;
                    }
                    panic!("ack without conflict");
                };
                if self.cfg.resilience.is_some() && s.phase != StashPhase::AwaitingAck {
                    self.dup_suppressed += 1;
                    return;
                }
                debug_assert_eq!(s.phase, StashPhase::AwaitingAck);
                if request_was_serialized {
                    if self.fetches.contains_key(&addr) {
                        // Fig. 2 middle: wait for our completion first.
                        s.phase = StashPhase::AwaitingFill;
                        // The handshake is resolved; the fill has its own
                        // timer.
                        s.deadline = None;
                    } else {
                        // Fill already arrived and completed.
                        let s = self.stash.remove(&addr).expect("checked");
                        self.process_global_snoop(addr, s.kind, ctx);
                        self.resume_deferred(addr, ctx);
                    }
                } else {
                    // Fig. 2 right: the snoop was serialized first — honour
                    // it now; our request completes afterwards.
                    let s = self.stash.remove(&addr).expect("checked");
                    let row = self.loser_row(s.kind, addr);
                    let (x_access, reply) = (row.x_access, Reply::of(row));
                    if let Some(x) = x_access {
                        self.delegate_snoop(addr, s.kind, recall_kind(x), reply, ctx);
                    } else {
                        let msg = snoop_msg(reply.answer.clean, addr, 0, false);
                        ctx.send(self.cfg.global.dir_for(addr), SysMsg::Cxl(msg));
                    }
                    // Our readable copy (if any) is gone; keep the slot
                    // reserved for the pending fill.
                    if let Some(l) = self.cxl.get_mut(addr) {
                        l.state = StableState::I;
                    }
                }
            }
            other => panic!("bridge received host-bound CXL message {other:?}"),
        }
    }

    /// Snoop responses when a delegated recall finishes in *passive* mode
    /// (global side speaks the host protocol).
    fn respond_host_snoop(
        &mut self,
        addr: Addr,
        snoop: HostMsg,
        data: u64,
        dirty: bool,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        let GlobalSide::Host { dir, .. } = &self.cfg.global else {
            unreachable!()
        };
        let dir = *dir;
        match snoop {
            HostMsg::FwdGetM {
                requestor, acks, ..
            } => {
                ctx.send(
                    requestor,
                    SysMsg::Host(HostMsg::Data {
                        addr,
                        data,
                        grant: Grant::M,
                        acks,
                        dirty,
                        poisoned: self.poisoned_lines.contains(&addr),
                    }),
                );
                self.cxl.remove(addr);
                self.poisoned_lines.remove(&addr);
            }
            HostMsg::FwdGetS {
                requestor, grant, ..
            } => {
                ctx.send(
                    requestor,
                    SysMsg::Host(HostMsg::Data {
                        addr,
                        data,
                        grant,
                        acks: 0,
                        dirty,
                        poisoned: self.poisoned_lines.contains(&addr),
                    }),
                );
                if dirty {
                    ctx.send(
                        dir,
                        SysMsg::Host(HostMsg::DataToDir {
                            addr,
                            data,
                            dirty,
                            poisoned: self.poisoned_lines.contains(&addr),
                        }),
                    );
                }
                if let Some(l) = self.cxl.get_mut(addr) {
                    l.state = StableState::S;
                }
            }
            HostMsg::Inv { requestor, .. } => {
                ctx.send(requestor, SysMsg::Host(HostMsg::InvAck { addr }));
                if self.fetches.contains_key(&addr) {
                    // Upgrade in flight: keep the slot, drop the copy.
                    if let Some(l) = self.cxl.get_mut(addr) {
                        l.state = StableState::I;
                    }
                } else {
                    self.cxl.remove(addr);
                }
            }
            other => unreachable!("not a snoop: {other:?}"),
        }
    }

    /// Handle a host-protocol message arriving from the *global* domain
    /// (passive baseline mode).
    fn handle_global_host(&mut self, msg: HostMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        let addr = msg.addr();
        match msg {
            HostMsg::Data {
                data,
                grant,
                acks,
                poisoned,
                ..
            } => {
                let f = self.fetches.get_mut(&addr).expect("Data without fetch");
                f.data = data;
                f.data_received = true;
                f.grant = grant.state();
                f.poisoned |= poisoned;
                f.acks += acks as i32;
                if f.acks <= 0 {
                    self.complete_fetch(addr, ctx);
                }
            }
            HostMsg::InvAck { .. } => {
                let f = self.fetches.get_mut(&addr).expect("InvAck without fetch");
                f.acks -= 1;
                if f.data_received && f.acks <= 0 {
                    self.complete_fetch(addr, ctx);
                }
            }
            HostMsg::FwdGetS { .. } | HostMsg::FwdGetM { .. } | HostMsg::Inv { .. } => {
                self.snoops_received += 1;
                if let Some(wb) = self.writebacks.get_mut(&addr) {
                    // Eviction raced the forward (MI_A analog): serve from
                    // the writeback buffer; the directory resolves the
                    // stale Put.
                    let data = wb.data;
                    wb.superseded = true;
                    self.respond_host_snoop(addr, msg, data, true, ctx);
                    return;
                }
                if self.evict_waiters.contains_key(&addr) {
                    // An eviction recall is already reclaiming the line;
                    // answer with its (fresh) data when it resolves.
                    let txn = ctx.next_txn();
                    if ctx.tracing() {
                        ctx.trace_begin(txn, "bridge", format!("passive-snoop {addr}"));
                    }
                    self.passive_snoops.insert(addr, (msg, txn, ctx.now));
                    return;
                }
                // Delegate into the host domain as the generated row for
                // the equivalent CXL snoop says.
                let incoming = match msg {
                    HostMsg::FwdGetS { .. } => Incoming::BiSnpData,
                    _ => Incoming::BiSnpInv,
                };
                if let Some(x) = self.row(incoming, addr, self.cxl_state(addr)).x_access {
                    self.recalls_delegated += 1;
                    // Stash the pending passive snoop so RecallDone can
                    // answer it (keyed by line; one at a time since the
                    // global directory blocks).
                    let txn = ctx.next_txn();
                    if ctx.tracing() {
                        ctx.trace_begin(txn, "bridge", format!("passive-snoop {addr}"));
                    }
                    self.passive_snoops.insert(addr, (msg, txn, ctx.now));
                    self.run_engine(ctx, |e, out| e.recall(addr, recall_kind(x), out));
                } else {
                    let data = self.engine.as_ref().map(|e| e.data(addr)).unwrap_or(0);
                    let dirty = self.cxl_state(addr) == StableState::M;
                    self.respond_host_snoop(addr, msg, data, dirty, ctx);
                }
            }
            HostMsg::PutAck { .. } => {
                let wb = self.writebacks.remove(&addr).expect("PutAck without Put");
                self.wb_lat.record(ctx.now.since(wb.started));
                ctx.trace_end(wb.txn);
                match wb.after {
                    AfterWb::Eviction => self.finish_eviction(addr, ctx),
                    AfterWb::SnoopResponse(_) => unreachable!("CXL-mode only"),
                }
                self.resume_deferred(addr, ctx);
            }
            other => panic!("bridge received unexpected global host msg {other:?} from {src}"),
        }
    }

    // ---- resilience timers ----

    /// Check every armed deadline against the current time; re-issue the
    /// global message for expired attempts (fresh transaction, doubled
    /// deadline — Rule II treats the retry as a new nested attempt) and
    /// abandon transactions that exhausted their retry budget so the
    /// cluster degrades instead of wedging.
    fn scan_timers(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let Some(r) = self.cfg.resilience else {
            return;
        };
        let now = ctx.now;

        // Expired global fetches. (Addresses are sorted: FxHashMap
        // iteration order is run-stable but an artifact of hashing, not
        // a protocol order — see DESIGN.md §12.)
        let mut expired: Vec<Addr> = self
            .fetches
            .iter()
            .filter(|(_, f)| f.deadline.is_some_and(|d| d <= now))
            .map(|(a, _)| *a)
            .collect();
        expired.sort_by_key(|a| a.0);
        for addr in expired {
            let f = self.fetches.get_mut(&addr).expect("collected above");
            let retry_txn = f.retry_txn.take();
            let abandon = f.attempts >= r.max_retries;
            if abandon {
                // Complete with poisoned data: the requester observes an
                // error value instead of the whole cluster deadlocking.
                f.deadline = None;
                f.data_received = true;
                f.acks = 0;
                f.poisoned = true;
                f.grant = if f.exclusive {
                    // E (not M): writable, but clean — the poisoned
                    // placeholder must never be written back to the device.
                    StableState::E
                } else {
                    StableState::S
                };
            } else {
                f.attempts += 1;
                f.deadline = Some(r.deadline_after(now, f.attempts));
            }
            let exclusive = f.exclusive;
            let attempts = f.attempts;
            if let Some(rt) = retry_txn {
                ctx.trace_end(rt);
            }
            if abandon {
                self.abandoned += 1;
                if ctx.tracing() {
                    ctx.trace_instant("fault", format!("abandon fetch {addr}"));
                }
                self.complete_fetch(addr, ctx);
            } else {
                self.retries += 1;
                let txn = ctx.next_txn();
                self.fetches
                    .get_mut(&addr)
                    .expect("still pending")
                    .retry_txn = Some(txn);
                if ctx.tracing() {
                    ctx.trace_begin(txn, "bridge", format!("retry#{attempts} fetch {addr}"));
                }
                ctx.wake_after(r.deadline_after(now, attempts).since(now), TIMER_TOKEN);
                let dir = self.cfg.global.dir_for(addr);
                let msg = if exclusive {
                    CxlMsg::MemRdA { addr }
                } else {
                    CxlMsg::MemRdS { addr }
                };
                ctx.send(dir, SysMsg::Cxl(msg));
            }
        }

        // Expired global writebacks.
        let mut expired: Vec<Addr> = self
            .writebacks
            .iter()
            .filter(|(_, w)| w.deadline.is_some_and(|d| d <= now))
            .map(|(a, _)| *a)
            .collect();
        expired.sort_by_key(|a| a.0);
        for addr in expired {
            let w = self.writebacks.get_mut(&addr).expect("collected above");
            if w.attempts >= r.max_retries {
                // Abandon: complete locally. The device copy may now be
                // stale — the abandonment is counted and traced.
                let wb = self.writebacks.remove(&addr).expect("present");
                self.abandoned += 1;
                if ctx.tracing() {
                    ctx.trace_instant("fault", format!("abandon wb {addr}"));
                }
                self.finish_writeback(addr, wb, ctx);
            } else {
                w.attempts += 1;
                w.deadline = Some(r.deadline_after(now, w.attempts));
                let attempts = w.attempts;
                let msg = w.resend.expect("CXL writebacks store their message");
                self.retries += 1;
                if ctx.tracing() {
                    ctx.trace_instant("fault", format!("retry#{attempts} wb {addr}"));
                }
                ctx.wake_after(r.deadline_after(now, attempts).since(now), TIMER_TOKEN);
                ctx.send(self.cfg.global.dir_for(addr), SysMsg::Cxl(msg));
            }
        }

        // Expired BIConflict handshakes (only the AwaitingAck phase waits
        // on the wire; AwaitingFill rides the fetch's own timer).
        let mut expired: Vec<Addr> = self
            .stash
            .iter()
            .filter(|(_, s)| {
                s.phase == StashPhase::AwaitingAck && s.deadline.is_some_and(|d| d <= now)
            })
            .map(|(a, _)| *a)
            .collect();
        expired.sort_by_key(|a| a.0);
        for addr in expired {
            let s = self.stash.get_mut(&addr).expect("collected above");
            if s.attempts >= r.max_retries {
                // Concede the race: answer the snoop as the conflict
                // loser; our own request stays pending under its timer.
                let s = self.stash.remove(&addr).expect("present");
                self.abandoned += 1;
                if ctx.tracing() {
                    ctx.trace_instant("fault", format!("abandon conflict {addr}"));
                }
                let clean = Reply::of(self.loser_row(s.kind, addr)).answer.clean;
                let msg = snoop_msg(clean, addr, 0, false);
                ctx.send(self.cfg.global.dir_for(addr), SysMsg::Cxl(msg));
                if let Some(l) = self.cxl.get_mut(addr) {
                    l.state = StableState::I;
                }
                self.resume_deferred(addr, ctx);
            } else {
                s.attempts += 1;
                s.deadline = Some(r.deadline_after(now, s.attempts));
                let attempts = s.attempts;
                self.retries += 1;
                if ctx.tracing() {
                    ctx.trace_instant("fault", format!("retry#{attempts} conflict {addr}"));
                }
                ctx.wake_after(r.deadline_after(now, attempts).since(now), TIMER_TOKEN);
                ctx.send(
                    self.cfg.global.dir_for(addr),
                    SysMsg::Cxl(CxlMsg::BiConflict { addr }),
                );
            }
        }
    }

    /// Handle a message from the local cluster (an L1).
    fn handle_local_host(&mut self, msg: HostMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        let addr = msg.addr();
        let perms = self.perms(addr);
        self.run_engine(ctx, |e, out| e.handle_host(src, msg, perms, out));
    }
}

impl Component<SysMsg> for C3Bridge {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let spec = SspSpec::for_family(self.cfg.host_family);
        self.engine = Some(DirEngine::new(&spec, ctx.self_id));
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        c3_sim::sim_trace!("[{}] {} <- {src}: {msg:?}", ctx.now, self.name);
        let addr = match &msg {
            SysMsg::Cxl(m) => Some(m.addr()),
            SysMsg::Host(h) => Some(h.addr()),
            _ => None,
        };
        match msg {
            SysMsg::Cxl(m) => self.handle_cxl(m, ctx),
            SysMsg::Host(h) => {
                if self.global_peers.contains(&src) {
                    self.handle_global_host(h, src, ctx);
                } else {
                    self.handle_local_host(h, src, ctx);
                }
            }
            other => panic!("bridge received {other:?}"),
        }
        if let Some(a) = addr {
            self.kick_waiters(a, ctx);
        }
        debug_assert!(self.effects.is_empty(), "unpumped: {:?}", self.effects);
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        if token == TIMER_TOKEN {
            self.scan_timers(ctx);
        }
        debug_assert!(self.effects.is_empty(), "unpumped: {:?}", self.effects);
    }

    fn done(&self) -> bool {
        self.fetches.is_empty()
            && self.writebacks.is_empty()
            && self.snoops.is_empty()
            && self.stash.is_empty()
            && self.passive_snoops.is_empty()
            && self.pending_evict_snoop.is_empty()
            && self.evict_waiters.is_empty()
            && self.deferred_fetches.is_empty()
            && self.engine.as_ref().map(|e| e.idle()).unwrap_or(true)
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        if self.poisoned_fills > 0 {
            out.set(format!("{n}.poisoned_fills"), self.poisoned_fills as f64);
        }
        self.fetch_lat.report_into(out, &format!("{n}.fetch.lat"));
        self.wb_lat.report_into(out, &format!("{n}.wb.lat"));
        self.recall_lat.report_into(out, &format!("{n}.recall.lat"));
        self.evict_lat.report_into(out, &format!("{n}.evict.lat"));
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        let n = &self.name;
        out.gauge(n, "inflight_fetches", self.fetches.len() as f64);
        out.gauge(n, "inflight_writebacks", self.writebacks.len() as f64);
        out.gauge(
            n,
            "inflight_snoops",
            (self.snoops.len() + self.stash.len()) as f64,
        );
        // Local-cluster directory occupancy (the bridge doubles as the
        // cluster's home directory); zeros until the engine is created.
        let e = self.engine.as_ref();
        let (lines, busy, queued) = e.map_or((0, 0, 0), |e| e.occupancy());
        out.gauge(n, "dir_lines", lines as f64);
        out.gauge(n, "dir_busy", busy as f64);
        out.gauge(n, "dir_queued", queued as f64);
        out.counter(n, "global_reads", self.global_reads as f64);
        out.counter(n, "global_writes", self.global_writes as f64);
        out.counter(n, "conflicts", self.conflicts_sent as f64);
        out.counter(n, "snoops", self.snoops_received as f64);
        out.counter(n, "evictions", self.evictions as f64);
        out.counter(n, "recalls", self.recalls_delegated as f64);
        let stalls = e.map_or(0, |e| e.stalled_requests);
        out.counter(n, "local_stalls", stalls as f64);
        // The resilience group exists only when a policy is configured,
        // so default-wired runs stay byte-identical to the fail-stop
        // bridge.
        if self.cfg.resilience.is_some() {
            out.counter(n, "retries", self.retries as f64);
            out.counter(n, "abandoned", self.abandoned as f64);
            out.counter(n, "dup_suppressed", self.dup_suppressed as f64);
        }
        if self.state_metrics {
            let f = e.map(|e| e.footprint()).unwrap_or_default();
            f.emit(out, n, false);
        }
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        fn sorted<V>(m: &FxHashMap<Addr, V>) -> Vec<(&Addr, &V)> {
            let mut v: Vec<_> = m.iter().collect();
            v.sort_by_key(|(a, _)| a.0);
            v
        }
        for (a, f) in sorted(&self.fetches) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: format!("global fetch{}", if f.exclusive { "X" } else { "S" }),
                since: Some(f.started),
                waiting_on: Some(self.cfg.global.dir_for(*a)),
                detail: if f.attempts > 0 {
                    format!(
                        "data_received={}, acks={}, retries={}",
                        f.data_received, f.acks, f.attempts
                    )
                } else {
                    format!("data_received={}, acks={}", f.data_received, f.acks)
                },
            });
        }
        for (a, w) in sorted(&self.writebacks) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: "global writeback".into(),
                since: Some(w.started),
                waiting_on: Some(self.cfg.global.dir_for(*a)),
                detail: format!(
                    "{:?}{}{}",
                    w.after,
                    if w.superseded { ", superseded" } else { "" },
                    if w.snoop_after.is_some() {
                        ", snoop queued behind"
                    } else {
                        ""
                    }
                ),
            });
        }
        for (a, s) in sorted(&self.snoops) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: format!("delegated snoop {:?}", s.kind),
                since: Some(s.started),
                waiting_on: None,
                detail: "nested host recall in flight".into(),
            });
        }
        for (a, s) in sorted(&self.stash) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: format!("stashed snoop {:?}", s.kind),
                since: Some(s.started),
                waiting_on: Some(self.cfg.global.dir_for(*a)),
                detail: format!("BIConflict handshake: {:?}", s.phase),
            });
        }
        for (a, (msg, _, since)) in sorted(&self.passive_snoops) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: "passive snoop".into(),
                since: Some(*since),
                waiting_on: None,
                detail: format!("awaiting nested recall to answer {msg:?}"),
            });
        }
        for (a, kind) in sorted(&self.pending_evict_snoop) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: format!("snoop {kind:?} behind eviction"),
                since: None,
                waiting_on: None,
                detail: "answered when the eviction resolves".into(),
            });
        }
        for (a, exclusive) in sorted(&self.deferred_fetches) {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(a.0),
                kind: format!("deferred fetch{}", if *exclusive { "X" } else { "S" }),
                since: None,
                waiting_on: None,
                detail: "waiting for the line's writeback/conflict to settle".into(),
            });
        }
        for (victim, waiters) in sorted(&self.evict_waiters) {
            for (a, exclusive) in waiters {
                out.push(InflightTxn {
                    component: self_id,
                    addr: Some(a.0),
                    kind: format!(
                        "fetch{} queued on victim",
                        if *exclusive { "X" } else { "S" }
                    ),
                    since: self.evict_txns.get(victim).map(|(_, t)| *t),
                    waiting_on: None,
                    detail: format!("waiting for eviction of {victim}"),
                });
            }
        }
        if let Some(e) = &self.engine {
            for b in e.busy_lines() {
                out.push(InflightTxn {
                    component: self_id,
                    addr: Some(b.addr.0),
                    kind: "local directory txn".into(),
                    since: None,
                    waiting_on: b.waiting_on.or(if b.on_backend {
                        Some(self.cfg.global.dir_for(b.addr))
                    } else {
                        None
                    }),
                    detail: if b.queued > 0 {
                        format!("{}; {} queued request(s)", b.desc, b.queued)
                    } else {
                        b.desc
                    },
                });
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The bridge's CXL-side (active translation) transition relation as data.
///
/// Per-line states are the CXL stable states (`I`/`S`/`E`/`M`, the `cxl`
/// array) plus the phases of the bridge's pending-transaction maps:
/// `FetchS`/`FetchX` (global fetch in flight), `Wb` (global writeback in
/// flight), `SnoopRecall` (delegated nested host recall), and
/// `StashAck`/`StashFill` (the Fig. 2 `BIConflict` handshake phases).
/// Events are the S2M wire messages plus the internal triggers that open
/// global transactions (`FetchS`/`FetchX`/`Evict`) and the host-recall
/// completion callback (`RecallDone`).
///
/// Every stable-state row — snoops (misses included), evictions and
/// delegated fetches — comes from the compound FSM (`generated_rows`);
/// the ones written out here are the conflict handshake, writeback
/// completions, stalls, wildcard-forbidden rows and one restarted fetch
/// (`S × FetchS`), each with its reason.
///
/// For `Rcc` host clusters (no SWMR enforcement, §II-C) the recall
/// machinery never engages: the `SnoopRecall` state and `RecallDone`
/// event are omitted so the reachability check stays honest.
pub fn bridge_transition_table(host_family: ProtocolFamily) -> TransitionTable {
    use Vnet::{Req, Resp, Snoop};
    let fsm = bridge_fsm(host_family);
    let recalls = host_family.enforces_swmr();
    // The origin-domain completion: the suspended host transaction resumes
    // and the engine delivers Data to the requesting L1.
    let fill = Action::complete("Data", Resp, "l1");
    let rd_s = Action::send("MemRdS", Req, "dcoh");
    let rd_a = Action::send("MemRdA", Req, "dcoh");
    let wr_i = Action::send("MemWrI", Req, "dcoh");
    let rsp_i = Action::send("BiRspI", Resp, "dcoh");
    let rsp_s = Action::send("BiRspS", Resp, "dcoh");
    let conflict = Action::send("BiConflict", Req, "dcoh");
    let recall = Action::send("Inv", Snoop, "l1");
    let evict_waits: Vec<&'static str> = if recalls {
        vec!["RecallDone", "Cmp"]
    } else {
        vec!["Cmp"]
    };
    let mut rows = generated_rows(&fsm);

    // ---- fetches the generator does not decide ----
    // A read deferred behind a MemWrS writeback restarts its fetch even
    // though the snoop response retained the line in S.
    rows.push(
        TransitionRow::next(
            "S",
            "FetchS",
            "FetchS",
            vec![rd_s.clone()],
            "bridge.rs:resume_deferred (retained S after MemWrS)",
        )
        .nested(),
    );
    if recalls {
        // A deferred fetch can restart while a delegated recall is still
        // in flight (conflict-ack resolution delegates the recall, then
        // resumes the deferred fetch). The MemRd is issued immediately;
        // the DCOH stalls it behind its own in-flight snoop.
        for (ev, rd) in [("FetchS", &rd_s), ("FetchX", &rd_a)] {
            rows.push(
                TransitionRow::next(
                    "SnoopRecall",
                    ev,
                    "SnoopRecall",
                    vec![rd.clone()],
                    "bridge.rs:resume_deferred (fetch restarted under a delegated recall)",
                )
                .nested(),
            );
        }
    }
    for ev in ["FetchS", "FetchX"] {
        rows.push(TransitionRow::stall(
            "Wb",
            ev,
            vec!["Cmp"],
            "bridge.rs:start_fetch (deferred behind writeback)",
        ));
        rows.push(TransitionRow::stall(
            "StashAck",
            ev,
            vec!["BiConflictAck"],
            "bridge.rs:start_fetch (deferred behind conflict handshake)",
        ));
        rows.push(TransitionRow::stall(
            "StashFill",
            ev,
            vec!["MemData"],
            "bridge.rs:start_fetch (deferred behind pending fill)",
        ));
        rows.push(TransitionRow::forbidden(
            ANY_STATE,
            ev,
            "the engine blocks same-line requests while a global fetch or recall is in flight",
            "bridge.rs:start_fetch",
        ));
    }

    // ---- fills racing the conflict handshake ----
    rows.push(TransitionRow::next(
        "StashAck",
        "MemData",
        "StashAck",
        vec![fill.clone()],
        "bridge.rs:complete_fetch (fill before conflict ack)",
    ));
    // Fig. 2 middle: the stashed snoop is honoured right after the fill;
    // the fill IS the origin completion, so these rows are not `nested`.
    if recalls {
        rows.push(TransitionRow::next(
            "StashFill",
            "MemData",
            "SnoopRecall",
            vec![fill.clone(), recall.clone()],
            "bridge.rs:complete_fetch (stashed snoop, host recall)",
        ));
    }
    for (to, act) in [("I", &rsp_i), ("S", &rsp_s), ("Wb", &wr_i)] {
        rows.push(TransitionRow::next(
            "StashFill",
            "MemData",
            to,
            vec![fill.clone(), act.clone()],
            "bridge.rs:complete_fetch (stashed snoop)",
        ));
    }
    rows.push(TransitionRow::forbidden(
        ANY_STATE,
        "MemData",
        "fill without a pending fetch",
        "bridge.rs:handle_cxl/MemData",
    ));

    // ---- writeback completions ----
    rows.push(TransitionRow::next(
        "Wb",
        "Cmp",
        "I",
        vec![],
        "bridge.rs:finish_writeback (eviction)",
    ));
    for (to, act) in [("I", &rsp_i), ("S", &rsp_s)] {
        rows.push(TransitionRow::next(
            "Wb",
            "Cmp",
            to,
            vec![act.clone()],
            "bridge.rs:finish_writeback (snoop response)",
        ));
    }
    rows.push(TransitionRow::forbidden(
        ANY_STATE,
        "Cmp",
        "completion without a pending writeback",
        "bridge.rs:handle_cxl/Cmp",
    ));

    // ---- back-invalidation snoops racing the bridge's own transactions ----
    for ev in ["BiSnpInv", "BiSnpData"] {
        for s in ["S", "E", "M"] {
            // A BISnp can catch the line mid-eviction (recall in flight or
            // busy victim): answered when the eviction resolves.
            rows.push(TransitionRow::stall(
                s,
                ev,
                evict_waits.clone(),
                "bridge.rs:handle_cxl (pending_evict_snoop)",
            ));
        }
        for s in ["FetchS", "FetchX"] {
            rows.push(
                TransitionRow::next(
                    s,
                    ev,
                    "StashAck",
                    vec![conflict.clone()],
                    "bridge.rs:handle_cxl (Fig. 2 conflict handshake)",
                )
                .nested(),
            );
        }
        rows.push(TransitionRow::stall(
            "Wb",
            ev,
            vec!["Cmp"],
            "bridge.rs:handle_cxl (snoop_after: answered on Cmp)",
        ));
        rows.push(TransitionRow::forbidden(
            ANY_STATE,
            ev,
            "duplicate snoop during an active handshake",
            "bridge.rs:handle_cxl/BiSnp",
        ));
    }
    // ---- conflict handshake resolution ----
    rows.push(
        TransitionRow::next(
            "StashAck",
            "BiConflictAck",
            "StashFill",
            vec![],
            "bridge.rs:handle_cxl (Fig. 2 middle: serialized first, await fill)",
        )
        .nested(),
    );
    if recalls {
        rows.push(
            TransitionRow::next(
                "StashAck",
                "BiConflictAck",
                "SnoopRecall",
                vec![recall.clone()],
                "bridge.rs:handle_cxl (Fig. 2 right: lost, host recall)",
            )
            .nested(),
        );
    }
    for s in ["FetchS", "FetchX"] {
        for act in [&rsp_i, &rsp_s] {
            rows.push(TransitionRow::next(
                "StashAck",
                "BiConflictAck",
                s,
                vec![act.clone()],
                "bridge.rs:loser_row",
            ));
        }
    }
    // Serialized first but the fill already completed: honour the snoop
    // against the now-stable line.
    for (to, act) in [("I", &rsp_i), ("S", &rsp_s), ("Wb", &wr_i)] {
        rows.push(TransitionRow::next(
            "StashAck",
            "BiConflictAck",
            to,
            vec![act.clone()],
            "bridge.rs:handle_cxl (ack after fill)",
        ));
    }
    rows.push(TransitionRow::forbidden(
        ANY_STATE,
        "BiConflictAck",
        "conflict ack without a pending BIConflict",
        "bridge.rs:handle_cxl/BiConflictAck",
    ));

    // ---- evictions and recall completions ----
    rows.push(TransitionRow::forbidden(
        ANY_STATE,
        "Evict",
        "eviction of an absent or busy line",
        "bridge.rs:start_eviction",
    ));
    if recalls {
        // A conflict-loser recall resolves back to the still-pending fetch.
        for s in ["FetchS", "FetchX"] {
            rows.push(TransitionRow::next(
                "SnoopRecall",
                "RecallDone",
                s,
                vec![rsp_i.clone()],
                "bridge.rs:on_recall_done (conflict loser, fetch pending)",
            ));
        }
        rows.push(TransitionRow::forbidden(
            ANY_STATE,
            "RecallDone",
            "recall completion without an active recall",
            "bridge.rs:on_recall_done",
        ));
    }

    let mut states: Vec<&'static str> = fsm
        .global_family
        .states()
        .iter()
        .map(|s| s.name())
        .collect();
    states.extend(["FetchS", "FetchX", "Wb", "StashAck", "StashFill"]);
    let mut events = vec![
        "MemData",
        "Cmp",
        "BiSnpInv",
        "BiSnpData",
        "BiConflictAck",
        "FetchS",
        "FetchX",
        "Evict",
    ];
    let mut assumed = vec!["FetchS", "FetchX", "Evict"];
    if recalls {
        states.push("SnoopRecall");
        events.push("RecallDone");
        assumed.push("RecallDone");
    }
    TransitionTable {
        controller: "bridge",
        states,
        events,
        event_vnets: vec![
            ("MemData", Resp),
            ("Cmp", Resp),
            ("BiConflictAck", Resp),
            ("BiSnpInv", Snoop),
            ("BiSnpData", Snoop),
        ],
        initial: vec!["I"],
        forbidden: vec![],
        assumed_available: assumed,
        rows,
    }
}

/// The bridge rows the compound FSM decides, projected from its
/// translation table onto the CXL state (the host half of a compound
/// state is the engine's business; compound states that project alike
/// yield one row):
///
/// * a host request the CXL state cannot serve delegates a global fetch
///   ([`CompoundFsm::delegation`]), whose fill grants what the global
///   directory may grant;
/// * a snoop either recalls host copies first (the row's `x_access`) or
///   is answered at once (its `answer`);
/// * an eviction recalls host copies first, then writes back or drops.
///
/// After a recall the returned data, not the compound state, decides
/// whether the line is dirty, so both continuations are rows.
fn generated_rows(fsm: &CompoundFsm) -> Vec<TransitionRow> {
    use Vnet::{Req, Resp, Snoop};
    type R = TransitionRow;
    let recall = Action::send("Inv", Snoop, "l1");
    let fill = Action::complete("Data", Resp, "l1");
    let wr_i = Action::send("MemWrI", Req, "dcoh");
    // The row a resolved snoop response takes: dirty data funnels through
    // a nested writeback (the 6-hop chain); a clean answer settles at once.
    let respond = |state: &'static str, event: &'static str, resp, next: StableState| {
        let prov = "generator:snoop_response";
        let send = |msg, vnet| vec![Action::send(msg, vnet, "dcoh")];
        match resp {
            SnoopResponse::MemWrI => {
                R::next(state, event, "Wb", send("MemWrI", Req), prov).nested()
            }
            SnoopResponse::MemWrS => {
                R::next(state, event, "Wb", send("MemWrS", Req), prov).nested()
            }
            SnoopResponse::BiRspI => R::next(state, event, next.name(), send("BiRspI", Resp), prov),
            SnoopResponse::BiRspS => R::next(state, event, next.name(), send("BiRspS", Resp), prov),
        }
    };
    // Fig. 7: a dirty eviction writes back, a clean one drops silently.
    let evict = |state: &'static str, event: &'static str, dirty: bool| {
        if dirty {
            R::next(state, event, "Wb", vec![wr_i.clone()], "generator:evict").nested()
        } else {
            R::next(state, event, "I", vec![], "generator:evict")
        }
    };
    let mut rows: Vec<TransitionRow> = Vec::new();
    for r in fsm.rows() {
        let cxl = r.state.cxl.name();
        let snoop = if r.incoming == Incoming::BiSnpInv {
            "BiSnpInv"
        } else {
            "BiSnpData"
        };
        let derived = match (r.incoming, r.x_access) {
            (Incoming::HostRead | Incoming::HostWrite, None) => vec![], // served locally
            (Incoming::HostRead | Incoming::HostWrite, Some(x)) => {
                let (fetch, rd, grants) = match x {
                    XAccess::Load => ("FetchS", "MemRdS", SspSpec::cxl_mem().read_grants()),
                    XAccess::Store => ("FetchX", "MemRdA", vec![r.next.cxl]),
                };
                let prov = "generator:delegation";
                let send = vec![Action::send(rd, Req, "dcoh")];
                let mut v = vec![R::next(cxl, fetch, fetch, send, prov).nested()];
                for g in grants {
                    v.push(R::next(
                        fetch,
                        "MemData",
                        g.name(),
                        vec![fill.clone()],
                        prov,
                    ));
                }
                v
            }
            (Incoming::BiSnpInv | Incoming::BiSnpData, Some(_)) => {
                let prov = "generator:snoop_recall";
                let mut v =
                    vec![R::next(cxl, snoop, "SnoopRecall", vec![recall.clone()], prov).nested()];
                for dirty in [false, true] {
                    let resp = r.answer.expect("snoop rows answer").get(dirty);
                    v.push(respond("SnoopRecall", "RecallDone", resp, r.next.cxl));
                }
                v
            }
            (Incoming::BiSnpInv | Incoming::BiSnpData, None) => {
                let resp = r.answer.expect("snoop rows answer");
                let resp = resp.get(r.state.maybe_dirty());
                vec![respond(cxl, snoop, resp, r.next.cxl)]
            }
            (Incoming::CxlEvict, Some(_)) => vec![
                R::next(cxl, "Evict", cxl, vec![recall.clone()], "generator:evict").nested(),
                evict(cxl, "RecallDone", false),
                evict(cxl, "RecallDone", true),
            ],
            (Incoming::CxlEvict, None) => vec![evict(cxl, "Evict", r.state.maybe_dirty())],
        };
        for row in derived {
            if !rows.iter().any(|old| old.same_rule(&row)) {
                rows.push(row);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;
    use c3_protocol::ssp::{SspAction, SspEvent, SspNext};
    use c3_protocol::table::RowOutcome;
    use c3_sim::fabric::LinkConfig;
    use c3_sim::kernel::{RunOutcome, Simulator};

    const X: Addr = Addr(0x40);
    const DCOH: ComponentId = ComponentId(0);
    const BRIDGE: ComponentId = ComponentId(1);

    /// A device that data-snoops the bridge once, completes every
    /// writeback and logs what the bridge sends.
    #[derive(Debug, Default)]
    struct Device {
        log: Vec<CxlMsg>,
    }

    impl Component<SysMsg> for Device {
        fn name(&self) -> String {
            "dcoh".into()
        }
        fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
            ctx.send(BRIDGE, SysMsg::Cxl(CxlMsg::BiSnpData { addr: X }));
        }
        fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
            let SysMsg::Cxl(m) = msg else {
                panic!("{msg:?}")
            };
            if matches!(m, CxlMsg::MemWrI { .. } | CxlMsg::MemWrS { .. }) {
                ctx.send(src, SysMsg::Cxl(CxlMsg::Cmp { addr: X }));
            }
            self.log.push(m);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A bridge running `fsm` holds `X` in M with no host copy and takes
    /// a data snoop: what it sends, and the CXL state it is left in.
    fn snoop_dirty_line(fsm: CompoundFsm) -> (Vec<CxlMsg>, StableState) {
        let mut sim: Simulator<SysMsg> = Simulator::new(1);
        let cfg = BridgeConfig {
            host_family: ProtocolFamily::Mesi,
            global: GlobalSide::cxl(DCOH),
            cxl_sets: 4,
            cxl_ways: 2,
            global_peers: vec![DCOH],
            resilience: None,
        };
        let mut bridge = C3Bridge::with_fsm("bridge", cfg, fsm);
        bridge.cxl.insert(
            X,
            CxlLine {
                state: StableState::M,
            },
        );
        assert_eq!(sim.add_component(Box::new(Device::default())), DCOH);
        assert_eq!(sim.add_component(Box::new(bridge)), BRIDGE);
        sim.fabric_mut()
            .wire_p2p(&[DCOH, BRIDGE], &LinkConfig::intra_cluster());
        assert_eq!(sim.run(), RunOutcome::Completed);
        let log = sim.component_as::<Device>(DCOH).unwrap().log.clone();
        (
            log,
            sim.component_as::<C3Bridge>(BRIDGE).unwrap().cxl_state(X),
        )
    }

    /// One CXL.mem spec mutation — `M × FwdGetS` writes back without
    /// retaining — changes the generated `M × BiSnpData` table row and
    /// what the running bridge answers, together.
    #[test]
    fn one_cxl_spec_mutation_changes_row_and_run() {
        let canonical = SspSpec::cxl_mem();
        let mut mutant = SspSpec::cxl_mem();
        for tr in &mut mutant.transitions {
            if (tr.from, tr.event) == (StableState::M, SspEvent::FwdGetS) {
                tr.actions = vec![SspAction::WritebackDirty];
                tr.to = SspNext::Fixed(StableState::I);
            }
        }
        let data = 0;
        let poisoned = false;
        for (spec, wb, write, answer, keeps) in [
            (
                canonical,
                "MemWrS",
                CxlMsg::MemWrS {
                    addr: X,
                    data,
                    poisoned,
                },
                CxlMsg::BiRspS { addr: X },
                StableState::S,
            ),
            (
                mutant,
                "MemWrI",
                CxlMsg::MemWrI {
                    addr: X,
                    data,
                    poisoned,
                },
                CxlMsg::BiRspI { addr: X },
                StableState::I,
            ),
        ] {
            let fsm = Generator::new(SspSpec::mesi(), spec)
                .expect("valid specs")
                .generate();
            // The table row rendered from the FSM (a host copy would be
            // recalled first, another row)...
            let rows: Vec<TransitionRow> = generated_rows(&fsm)
                .into_iter()
                .filter(|r| (r.state, r.event) == ("M", "BiSnpData"))
                .filter(|r| r.outcome == RowOutcome::Next("Wb"))
                .collect();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].actions[0].msg, wb);
            // ...and the bridge running it.
            assert_eq!(snoop_dirty_line(fsm), (vec![write, answer], keeps));
        }
    }
}
