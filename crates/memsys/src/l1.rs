//! Private (L1) cache controller.
//!
//! A directory-protocol cache controller with explicit transient states,
//! configurable as MESI / MESIF / MOESI (SWMR variants of the same table)
//! or RCC (self-invalidation, §IV-D2 of the paper). One instance per core;
//! Table III: 128 KiB, 8-way, 1-cycle hit latency. The paper's tool models
//! a unified I+D cache per core, and so do we.

use std::any::Any;
use std::collections::VecDeque;

use c3_protocol::msg::{CoreReq, CoreResp, Grant, HostMsg, SysMsg};
use c3_protocol::ops::{Addr, FenceKind, Instr};
use c3_protocol::ssp::{DirPolicy, SspAction, SspEvent, SspNext, SspSpec, SspTransition};
use c3_protocol::states::{ProtocolFamily, StableState};
use c3_protocol::table::{
    Action, ProtocolViolation, TransitionRow, TransitionTable, Vnet, ANY_STATE,
};
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::hash::FxHashMap;
use c3_sim::lines::Footprint;
use c3_sim::stats::{LatencyBands, LatencyHistogram, Report};
use c3_sim::time::{Delay, Time};
use c3_sim::trace::{InflightTxn, TxnId};

use crate::cache::CacheArray;

/// Configuration of one private cache.
#[derive(Clone, Copy, Debug)]
pub struct L1Config {
    /// Coherence protocol variant.
    pub family: ProtocolFamily,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency (Table III: 1 cycle at 2 GHz).
    pub hit_latency: Delay,
    /// The core this cache serves.
    pub core: ComponentId,
    /// The cluster-level directory (LLC controller or C³ bridge).
    pub dir: ComponentId,
}

impl L1Config {
    /// Table III defaults: 128 KiB, 8-way, 1-cycle hits.
    pub fn paper_defaults(family: ProtocolFamily, core: ComponentId, dir: ComponentId) -> Self {
        L1Config {
            family,
            sets: 256,
            ways: 8,
            hit_latency: Delay::from_cycles(1, 2_000),
            core,
            dir,
        }
    }
}

/// Kind of memory access, for miss statistics (Fig. 11's instruction
/// breakdown).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Load.
    Load,
    /// Store.
    Store,
    /// Read-modify-write.
    Rmw,
}

/// Per-kind labels, indexed by [`AccessKind`]: the report prefix and the
/// kind's hit and miss counter names.
const KIND_LABELS: [(&str, &str, &str); 3] = [
    ("load", "load.hits", "load.misses"),
    ("store", "store.hits", "store.misses"),
    ("rmw", "rmw.hits", "rmw.misses"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    state: StableState,
    data: u64,
    /// CXL-style poison mark: the value arrived corrupted. Reads complete
    /// (and are counted) instead of aborting; a full-line store overwrites
    /// the payload and clears the mark.
    poisoned: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(non_camel_case_types, clippy::upper_case_acronyms)]
enum TState {
    /// GetS issued from I; waiting for data.
    IS_D,
    /// GetM issued from I; waiting for data (+acks).
    IM_AD,
    /// Data received; waiting for remaining invalidation acks.
    IM_A,
    /// GetM issued while holding a readable copy (S/F/O upgrade).
    SM_AD,
    /// Upgrade data received; waiting for remaining acks.
    SM_A,
    /// Dirty eviction issued (PutM); waiting for PutAck.
    MI_A,
    /// Owned eviction issued (PutO); waiting for PutAck.
    OI_A,
    /// Clean-exclusive eviction issued (PutE); waiting for PutAck.
    EI_A,
    /// Shared eviction issued (PutS); waiting for PutAck.
    SI_A,
    /// Eviction superseded by a remote transfer; still awaiting PutAck.
    II_A,
    /// RCC write-through in flight; waiting for WtAck.
    WT_A,
    /// RCC remote atomic in flight; waiting for AtomicResp.
    AT_D,
}

impl TState {
    /// Table-state name (allocation-free `{:?}` equivalent).
    fn name(self) -> &'static str {
        match self {
            TState::IS_D => "IS_D",
            TState::IM_AD => "IM_AD",
            TState::IM_A => "IM_A",
            TState::SM_AD => "SM_AD",
            TState::SM_A => "SM_A",
            TState::MI_A => "MI_A",
            TState::OI_A => "OI_A",
            TState::EI_A => "EI_A",
            TState::SI_A => "SI_A",
            TState::II_A => "II_A",
            TState::WT_A => "WT_A",
            TState::AT_D => "AT_D",
        }
    }
}

#[derive(Debug)]
struct Mshr {
    tstate: TState,
    data: u64,
    /// Invalidation-ack balance: `Data.acks` adds, each InvAck subtracts.
    acks: i32,
    data_received: bool,
    /// The core request that opened this MSHR (if core-initiated).
    initiator: Option<CoreReq>,
    /// Core requests to the same line, deferred until this MSHR retires.
    pending: VecDeque<CoreReq>,
    /// Whether this write-through belongs to an in-progress release flush.
    from_release: bool,
    /// Whether the fill data (or the evicted line this MSHR drains) is
    /// poisoned.
    poisoned: bool,
    started: Time,
    /// Trace span key: the miss transaction this MSHR carries.
    txn: TxnId,
}

#[derive(Debug)]
struct ReleaseOp {
    tag: u64,
    remaining: u32,
    /// Deferred load to run once the release drains (store-release's
    /// response, or a fence completion).
    respond_value: u64,
}

/// Per-access-kind miss statistics.
#[derive(Debug, Default, Clone)]
pub struct MissStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Miss latency distribution (Fig. 11 bands).
    pub bands: LatencyBands,
    /// Full miss-latency distribution (log2 buckets, p50/p95/p99/max).
    pub hist: LatencyHistogram,
}

/// The private cache controller component.
#[derive(Debug)]
pub struct L1Controller {
    cfg: L1Config,
    /// The family's directory policy (what an owner does on `FwdGetS`).
    dir_policy: DirPolicy,
    name: String,
    array: CacheArray<Line>,
    /// Open misses by line. Bounded by the core's outstanding accesses,
    /// so MSHRs never need summarizing like directory lines do.
    mshrs: FxHashMap<u64, Mshr>,
    /// High-water mark of `mshrs.len()` (`state_metrics`).
    peak_mshrs: usize,
    release: Option<ReleaseOp>,
    /// Stats per access kind (indexed by [`AccessKind`]).
    stats: [MissStats; 3],
    writebacks: u64,
    invalidations_received: u64,
    self_invalidations: u64,
    poisoned_reads: u64,
    /// Structured protocol violations observed (message in a state the
    /// transition table forbids). Non-empty keeps `done()` false so the
    /// run ends in a deadlock post-mortem that names the violation.
    violations: Vec<ProtocolViolation>,
    /// Emit MSHR-table footprint gauges/report lines. Off by default:
    /// the extra keys would shift the pinned report/metrics fingerprints
    /// of existing configurations.
    state_metrics: bool,
}

impl L1Controller {
    /// Create a controller; `name` is used in reports (`"c0.l1"` etc.).
    pub fn new(name: impl Into<String>, cfg: L1Config) -> Self {
        L1Controller {
            array: CacheArray::new(cfg.sets, cfg.ways),
            dir_policy: SspSpec::for_family(cfg.family).dir,
            cfg,
            name: name.into(),
            mshrs: FxHashMap::default(),
            peak_mshrs: 0,
            release: None,
            stats: Default::default(),
            writebacks: 0,
            invalidations_received: 0,
            self_invalidations: 0,
            poisoned_reads: 0,
            violations: Vec::new(),
            state_metrics: false,
        }
    }

    /// Opt in to the MSHR table's footprint group
    /// (`c3_sim::lines::Footprint::emit`).
    pub fn set_state_metrics(&mut self, on: bool) {
        self.state_metrics = on;
    }

    /// Protocol violations recorded so far (empty in a correct run).
    pub fn violations(&self) -> &[ProtocolViolation] {
        &self.violations
    }

    /// Record a structured protocol violation instead of panicking: the
    /// offending message is dropped, the violation is traced, and the
    /// controller stops reporting `done` so the existing deadlock
    /// post-mortem surfaces it with full context.
    fn violation(&mut self, state: &str, event: &str, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        let v = ProtocolViolation {
            component: self.name.clone(),
            state: state.to_string(),
            event: event.to_string(),
            addr,
        };
        ctx.trace_instant("violation", v.to_string());
        // Conformance, rejection direction: whatever the handler refuses,
        // the table must also refuse (a `Forbidden` or missing row).
        #[cfg(debug_assertions)]
        debug_assert!(
            !self.table().permits(&v.state, &v.event),
            "{}: handler rejected ({} x {}) but the table permits it",
            self.name,
            v.state,
            v.event,
        );
        self.violations.push(v);
    }

    /// The table-level state of `addr`: the MSHR transient state if a
    /// transaction is in flight, else the resident stable state, else I.
    /// Allocation-free — it feeds the per-event debug conformance assert.
    fn table_state(&self, addr: Addr) -> &'static str {
        if let Some(m) = self.mshrs.get(&addr.0) {
            m.tstate.name()
        } else {
            self.line_state(addr).name()
        }
    }

    /// This controller's [`l1_transition_table`], built once per family.
    #[cfg(debug_assertions)]
    fn table(&self) -> &'static TransitionTable {
        c3_protocol::table::cached_table("l1", self.cfg.family, l1_transition_table)
    }

    /// Debug-mode conformance check: every dynamic dispatch must match a
    /// non-forbidden row of the declarative [`l1_transition_table`].
    #[cfg(debug_assertions)]
    fn assert_conforms(&self, event: &str, addr: Addr) {
        let table = self.table();
        let state = self.table_state(addr);
        debug_assert!(
            table.permits(state, event),
            "{}: dynamic step ({state} x {event}) for {addr} matches no {} table row",
            self.name,
            table.controller,
        );
    }

    /// Debug-mode quiescence check: a line that just shed its MSHR must
    /// land in a state whose `Quiesce` table row permits dropping the
    /// resident record.
    #[cfg(debug_assertions)]
    fn assert_quiesced(&self, addr: Addr) {
        let table = self.table();
        let state = self.table_state(addr);
        debug_assert!(
            table.permits(state, "Quiesce"),
            "{}: MSHR retired for {addr} but {state} has no permitting Quiesce row in the {} table",
            self.name,
            table.controller,
        );
    }

    /// Miss statistics for one access kind.
    pub fn stats(&self, kind: AccessKind) -> &MissStats {
        &self.stats[kind as usize]
    }

    /// Stable state currently held for `addr` (I if absent or transient).
    pub fn line_state(&self, addr: Addr) -> StableState {
        self.array
            .peek(addr)
            .map(|l| l.state)
            .unwrap_or(StableState::I)
    }

    /// Stable state and data currently held for `addr`, if resident.
    pub fn line(&self, addr: Addr) -> Option<(StableState, u64)> {
        self.array.peek(addr).map(|l| (l.state, l.data))
    }

    /// Whether the resident copy of `addr` carries a poison mark.
    pub fn line_poisoned(&self, addr: Addr) -> bool {
        self.array.peek(addr).is_some_and(|l| l.poisoned)
    }

    /// Addresses of every resident poisoned line.
    pub fn poisoned_lines(&self) -> Vec<Addr> {
        self.array
            .iter()
            .filter(|(_, l)| l.poisoned)
            .map(|(a, _)| a)
            .collect()
    }

    /// Loads that returned poisoned data (graceful degradation counter).
    pub fn poisoned_reads(&self) -> u64 {
        self.poisoned_reads
    }

    fn kind_of(instr: &Instr) -> AccessKind {
        match instr {
            Instr::Load { .. } => AccessKind::Load,
            // RFO prefetches are accounted as the store misses they absorb.
            Instr::Store { .. } | Instr::Prefetch { .. } => AccessKind::Store,
            _ => AccessKind::Rmw,
        }
    }

    fn respond(&self, req: &CoreReq, value: u64, ctx: &mut Ctx<'_, SysMsg>) {
        ctx.send_direct(
            self.cfg.core,
            SysMsg::CoreResp(CoreResp {
                tag: req.tag,
                value,
            }),
            self.cfg.hit_latency,
        );
    }

    fn send_dir(&self, msg: HostMsg, ctx: &mut Ctx<'_, SysMsg>) {
        ctx.send(self.cfg.dir, SysMsg::Host(msg));
    }

    /// Tell the core a line was lost (TSO cores squash speculative loads).
    fn hint_core(&self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        ctx.send_direct(
            self.cfg.core,
            SysMsg::InvHint { addr },
            self.cfg.hit_latency,
        );
    }

    /// Allocate an MSHR for `addr`, opening its trace span. Every miss
    /// transaction this cache carries goes through here, so the span
    /// begin/end pairs stay balanced with MSHR lifetime.
    fn open_mshr(
        &mut self,
        addr: Addr,
        tstate: TState,
        data: u64,
        initiator: Option<CoreReq>,
        from_release: bool,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        let txn = ctx.next_txn();
        if ctx.tracing() {
            let name = format!("{tstate:?} {addr}");
            ctx.trace_begin(txn, "l1", name);
        }
        let mshr = Mshr {
            tstate,
            data,
            acks: 0,
            data_received: false,
            initiator,
            pending: VecDeque::new(),
            from_release,
            poisoned: false,
            started: ctx.now,
            txn,
        };
        self.mshrs.insert(addr.0, mshr);
        self.peak_mshrs = self.peak_mshrs.max(self.mshrs.len());
    }

    /// Make room for `addr`, starting a victim eviction if necessary.
    ///
    /// Lines with an in-flight transaction (SM_AD upgrades, RCC
    /// write-throughs) are skipped: touching them bumps their LRU rank so
    /// the next-least-recent stable line is chosen instead.
    ///
    /// # Panics
    ///
    /// Panics if every way of the set is in a transient state (cannot
    /// happen with ≥ 8 ways and the bounded per-core outstanding window).
    fn ensure_way(&mut self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        let mut vaddr = None;
        for _ in 0..self.cfg.ways + 1 {
            match self.array.victim(addr) {
                None => return, // free way or line already resident
                Some((v, _)) if self.mshrs.contains_key(&v.0) => {
                    self.array.get_mut(v); // bump LRU, try the next victim
                }
                Some((v, _)) => {
                    vaddr = Some(v);
                    break;
                }
            }
        }
        let vaddr = vaddr.expect("a stable victim must exist");
        #[cfg(debug_assertions)]
        self.assert_conforms("Repl", vaddr);
        let line = self.array.remove(vaddr).expect("victim resident");
        self.hint_core(vaddr, ctx);
        let rcc = self.cfg.family == ProtocolFamily::Rcc;
        let (tstate, msg) = match line.state {
            StableState::S | StableState::F => {
                if rcc {
                    // RCC drops clean lines silently.
                    self.self_invalidations += 1;
                    return;
                }
                (TState::SI_A, HostMsg::PutS { addr: vaddr })
            }
            StableState::E => (TState::EI_A, HostMsg::PutE { addr: vaddr }),
            StableState::M => {
                self.writebacks += 1;
                if rcc {
                    (
                        TState::WT_A,
                        HostMsg::WriteThrough {
                            addr: vaddr,
                            data: line.data,
                        },
                    )
                } else {
                    (
                        TState::MI_A,
                        HostMsg::PutM {
                            addr: vaddr,
                            data: line.data,
                            poisoned: line.poisoned,
                        },
                    )
                }
            }
            StableState::O => {
                self.writebacks += 1;
                (
                    TState::OI_A,
                    HostMsg::PutO {
                        addr: vaddr,
                        data: line.data,
                        poisoned: line.poisoned,
                    },
                )
            }
            StableState::I => unreachable!("I lines are not resident"),
        };
        self.open_mshr(vaddr, tstate, line.data, None, false, ctx);
        // An evicted poisoned line may still be asked to supply data
        // (Fwd* while the Put* drains); keep the mark with the buffer.
        self.mshrs.get_mut(&vaddr.0).expect("just opened").poisoned = line.poisoned;
        self.send_dir(msg, ctx);
    }

    /// RCC acquire: drop all clean (S) lines so later loads refetch.
    fn self_invalidate_clean(&mut self) {
        let clean: Vec<Addr> = self
            .array
            .iter()
            .filter(|(_, l)| l.state == StableState::S)
            .map(|(a, _)| a)
            .collect();
        self.self_invalidations += clean.len() as u64;
        for a in clean {
            self.array.remove(a);
        }
    }

    /// RCC release: write all dirty lines through; returns the number of
    /// WtAcks to wait for.
    fn flush_dirty(&mut self, ctx: &mut Ctx<'_, SysMsg>) -> u32 {
        let dirty: Vec<(Addr, u64)> = self
            .array
            .iter()
            .filter(|(_, l)| l.state == StableState::M)
            .map(|(a, l)| (a, l.data))
            .collect();
        let mut count = 0;
        for (a, data) in dirty {
            if self.mshrs.contains_key(&a.0) {
                continue; // already being written through (eviction)
            }
            // Retain a clean copy after the write-through.
            if let Some(l) = self.array.get_mut(a) {
                l.state = StableState::S;
            }
            self.open_mshr(a, TState::WT_A, data, None, true, ctx);
            self.send_dir(HostMsg::WriteThrough { addr: a, data }, ctx);
            self.writebacks += 1;
            count += 1;
        }
        count
    }

    fn start_release(&mut self, tag: u64, respond_value: u64, ctx: &mut Ctx<'_, SysMsg>) {
        debug_assert!(self.release.is_none(), "one release at a time");
        let remaining = self.flush_dirty(ctx);
        if remaining == 0 {
            self.respond(
                &CoreReq {
                    tag,
                    instr: Instr::Work(0),
                },
                respond_value,
                ctx,
            );
        } else {
            self.release = Some(ReleaseOp {
                tag,
                remaining,
                respond_value,
            });
        }
    }

    fn handle_core(&mut self, req: CoreReq, ctx: &mut Ctx<'_, SysMsg>) {
        let rcc = self.cfg.family == ProtocolFamily::Rcc;
        // Fences: RCC caches participate; SWMR caches answer immediately
        // (ordering is enforced in the core pipeline — §IV-D3).
        if let Instr::Fence(kind) = req.instr {
            if !rcc {
                self.respond(&req, 0, ctx);
                return;
            }
            let acquire = matches!(kind, FenceKind::Full | FenceKind::LoadLoad);
            let release = matches!(kind, FenceKind::Full | FenceKind::StoreStore);
            if acquire {
                self.self_invalidate_clean();
            }
            if release {
                self.start_release(req.tag, 0, ctx);
            } else {
                self.respond(&req, 0, ctx);
            }
            return;
        }
        if let Instr::Work(_) = req.instr {
            self.respond(&req, 0, ctx);
            return;
        }
        if let Instr::Prefetch { addr } = req.instr {
            // RFO hint from a TSO store buffer: acquire write permission
            // early so the in-order drain hits. Never queued behind an
            // existing transaction — it is only a hint.
            self.respond(&req, 0, ctx);
            if rcc || self.mshrs.contains_key(&addr.0) {
                return;
            }
            match self.array.get(addr) {
                Some(line) if line.state.can_write() => {}
                present => {
                    let upgrade = present.is_some();
                    self.stats[AccessKind::Store as usize].misses += 1;
                    let tstate = if upgrade {
                        TState::SM_AD
                    } else {
                        TState::IM_AD
                    };
                    self.open_mshr(addr, tstate, 0, Some(req), false, ctx);
                    self.send_dir(HostMsg::GetM { addr }, ctx);
                }
            }
            return;
        }
        let addr = req.instr.addr().expect("memory instruction");
        #[cfg(debug_assertions)]
        {
            let event = match req.instr {
                Instr::Load { .. } => "Load",
                Instr::Store { .. } => "Store",
                Instr::Rmw { .. } => "Rmw",
                _ => unreachable!("handled above"),
            };
            self.assert_conforms(event, addr);
        }
        // Same-line transaction in flight: defer.
        if let Some(mshr) = self.mshrs.get_mut(&addr.0) {
            mshr.pending.push_back(req);
            return;
        }
        match req.instr {
            Instr::Load { order, .. } => {
                if rcc && order.is_acquire() {
                    self.self_invalidate_clean();
                }
                match self.array.get(addr) {
                    Some(line) if line.state.can_read() => {
                        let v = line.data;
                        if line.poisoned {
                            self.poisoned_reads += 1;
                        }
                        self.stats[AccessKind::Load as usize].hits += 1;
                        self.respond(&req, v, ctx);
                    }
                    _ => {
                        self.stats[AccessKind::Load as usize].misses += 1;
                        self.open_mshr(addr, TState::IS_D, 0, Some(req), false, ctx);
                        self.send_dir(HostMsg::GetS { addr }, ctx);
                    }
                }
            }
            Instr::Store { val, order, .. } => {
                if rcc {
                    // RCC stores complete locally, without ownership.
                    if self.array.peek(addr).is_none() {
                        self.ensure_way(addr, ctx);
                        self.stats[AccessKind::Store as usize].misses += 1;
                        self.array.insert(
                            addr,
                            Line {
                                state: StableState::M,
                                data: val,
                                poisoned: false,
                            },
                        );
                    } else {
                        self.stats[AccessKind::Store as usize].hits += 1;
                        let line = self.array.get_mut(addr).expect("present");
                        line.state = StableState::M;
                        line.data = val;
                    }
                    if order.is_release() {
                        self.start_release(req.tag, 0, ctx);
                    } else {
                        self.respond(&req, 0, ctx);
                    }
                    return;
                }
                match self.array.get(addr).copied() {
                    Some(line) if line.state.can_write() => {
                        self.stats[AccessKind::Store as usize].hits += 1;
                        let l = self.array.get_mut(addr).expect("present");
                        l.state = StableState::M; // silent E -> M upgrade
                        l.data = val;
                        l.poisoned = false; // full-line overwrite heals poison
                        self.respond(&req, 0, ctx);
                    }
                    Some(_) => {
                        // readable copy: upgrade
                        self.stats[AccessKind::Store as usize].misses += 1;
                        self.open_mshr(addr, TState::SM_AD, 0, Some(req), false, ctx);
                        self.send_dir(HostMsg::GetM { addr }, ctx);
                    }
                    None => {
                        self.stats[AccessKind::Store as usize].misses += 1;
                        self.open_mshr(addr, TState::IM_AD, 0, Some(req), false, ctx);
                        self.send_dir(HostMsg::GetM { addr }, ctx);
                    }
                }
            }
            Instr::Rmw { add, .. } => {
                if rcc {
                    // GPU-style: atomics execute at the shared level.
                    self.array.remove(addr); // local copy would go stale
                    self.stats[AccessKind::Rmw as usize].misses += 1;
                    self.open_mshr(addr, TState::AT_D, add, Some(req), false, ctx);
                    self.send_dir(HostMsg::AtomicRmw { addr, add }, ctx);
                    return;
                }
                match self.array.get(addr).copied() {
                    Some(line) if line.state.can_write() => {
                        self.stats[AccessKind::Rmw as usize].hits += 1;
                        if line.poisoned {
                            // The old value read by the RMW is corrupt, and
                            // so is anything derived from it.
                            self.poisoned_reads += 1;
                        }
                        let l = self.array.get_mut(addr).expect("present");
                        let old = l.data;
                        l.state = StableState::M;
                        l.data = old.wrapping_add(add);
                        self.respond(&req, old, ctx);
                    }
                    Some(_) => {
                        self.stats[AccessKind::Rmw as usize].misses += 1;
                        self.open_mshr(addr, TState::SM_AD, 0, Some(req), false, ctx);
                        self.send_dir(HostMsg::GetM { addr }, ctx);
                    }
                    None => {
                        self.stats[AccessKind::Rmw as usize].misses += 1;
                        self.open_mshr(addr, TState::IM_AD, 0, Some(req), false, ctx);
                        self.send_dir(HostMsg::GetM { addr }, ctx);
                    }
                }
            }
            Instr::Fence(_) | Instr::Work(_) | Instr::Prefetch { .. } => {
                unreachable!("handled above")
            }
        }
    }

    /// Retire an MSHR whose transaction brought the line in with `state`,
    /// apply the initiating access, respond, unblock the directory and
    /// replay deferred requests.
    fn complete_fill(&mut self, addr: Addr, state: StableState, ctx: &mut Ctx<'_, SysMsg>) {
        let mut mshr = self.mshrs.remove(&addr.0).expect("mshr present");
        let mut line = Line {
            state,
            data: mshr.data,
            poisoned: mshr.poisoned,
        };
        let initiator = mshr.initiator.take().expect("core-initiated fill");
        let kind = Self::kind_of(&initiator.instr);
        let value = match initiator.instr {
            Instr::Load { .. } => {
                if line.poisoned {
                    self.poisoned_reads += 1;
                }
                line.data
            }
            Instr::Store { val, .. } => {
                debug_assert!(state.can_write());
                line.state = StableState::M;
                line.data = val;
                line.poisoned = false; // full-line overwrite heals poison
                0
            }
            Instr::Rmw { add, .. } => {
                debug_assert!(state.can_write());
                if line.poisoned {
                    self.poisoned_reads += 1;
                }
                let old = line.data;
                line.state = StableState::M;
                line.data = old.wrapping_add(add);
                old
            }
            Instr::Prefetch { .. } => {
                // RFO fill: ownership acquired, data untouched. The core
                // was already answered when the hint arrived.
                debug_assert!(state.can_write());
                0
            }
            _ => unreachable!("fills are memory accesses"),
        };
        let final_state = line.state;
        self.ensure_way(addr, ctx);
        let evicted = self.array.insert(addr, line);
        debug_assert!(evicted.is_none(), "way freed by ensure_way");
        #[cfg(debug_assertions)]
        self.assert_quiesced(addr);
        let latency = ctx.now.since(mshr.started);
        self.stats[kind as usize].bands.record(latency);
        self.stats[kind as usize].hist.record(latency);
        ctx.trace_end(mshr.txn);
        if ctx.tracing() {
            ctx.trace_state(Some(addr.0), &mshr.tstate, &final_state);
        }
        if !matches!(initiator.instr, Instr::Prefetch { .. }) {
            self.respond(&initiator, value, ctx);
        }
        if self.cfg.family != ProtocolFamily::Rcc {
            self.send_dir(
                HostMsg::Unblock {
                    addr,
                    to_state: final_state,
                },
                ctx,
            );
        }
        // Replay deferred same-line requests.
        let pending: Vec<CoreReq> = mshr.pending.drain(..).collect();
        for req in pending {
            self.handle_core(req, ctx);
        }
    }

    fn retire_mshr(&mut self, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        let mshr = self.mshrs.remove(&addr.0).expect("mshr present");
        debug_assert!(mshr.initiator.is_none());
        #[cfg(debug_assertions)]
        self.assert_quiesced(addr);
        ctx.trace_end(mshr.txn);
        for req in mshr.pending {
            self.handle_core(req, ctx);
        }
    }

    fn handle_host(&mut self, msg: HostMsg, _src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        let addr = msg.addr();
        match msg {
            HostMsg::Data {
                data,
                grant,
                acks,
                poisoned,
                ..
            } => {
                if !matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::IS_D | TState::IM_AD | TState::SM_AD)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "Data", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("Data", addr);
                let mshr = self.mshrs.get_mut(&addr.0).expect("checked above");
                mshr.data = data;
                mshr.poisoned |= poisoned;
                mshr.data_received = true;
                mshr.acks += acks as i32;
                match mshr.tstate {
                    TState::IS_D => {
                        debug_assert_eq!(acks, 0);
                        self.complete_fill(addr, grant.state(), ctx);
                    }
                    TState::IM_AD | TState::SM_AD => {
                        debug_assert_eq!(grant, Grant::M);
                        if mshr.acks <= 0 {
                            self.complete_fill(addr, StableState::M, ctx);
                        } else {
                            mshr.tstate = if mshr.tstate == TState::IM_AD {
                                TState::IM_A
                            } else {
                                TState::SM_A
                            };
                        }
                    }
                    _ => unreachable!("checked above"),
                }
            }
            HostMsg::InvAck { .. } => {
                if !matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::IM_AD | TState::SM_AD | TState::IM_A | TState::SM_A)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "InvAck", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("InvAck", addr);
                let mshr = self.mshrs.get_mut(&addr.0).expect("checked above");
                mshr.acks -= 1;
                if matches!(mshr.tstate, TState::IM_A | TState::SM_A) && mshr.acks <= 0 {
                    self.complete_fill(addr, StableState::M, ctx);
                }
            }
            HostMsg::FwdGetS {
                requestor, grant, ..
            } => {
                // An upgrading O/F owner (SM_AD) can be asked to supply: the
                // line is still resident; serve it and keep upgrading.
                if matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::SM_AD)
                ) {
                    #[cfg(debug_assertions)]
                    self.assert_conforms("FwdGetS", addr);
                    let line = *self.array.peek(addr).expect("upgrader holds the line");
                    debug_assert!(
                        line.state.supplies_data(),
                        "FwdGetS to non-supplier upgrader"
                    );
                    let dirty = line.state.is_dirty();
                    ctx.send(
                        requestor,
                        SysMsg::Host(HostMsg::Data {
                            addr,
                            data: line.data,
                            grant,
                            acks: 0,
                            dirty,
                            poisoned: line.poisoned,
                        }),
                    );
                    if dirty && self.dir_policy.owner_writes_back_on_fwd_gets {
                        self.send_dir(
                            HostMsg::DataToDir {
                                addr,
                                data: line.data,
                                dirty,
                                poisoned: line.poisoned,
                            },
                            ctx,
                        );
                    }
                    self.array.get_mut(addr).expect("present").state =
                        self.dir_policy.owner_after_fwd_gets;
                    return;
                }
                if self.mshrs.contains_key(&addr.0) {
                    if !matches!(
                        self.mshrs.get(&addr.0).map(|m| m.tstate),
                        Some(TState::SI_A | TState::MI_A | TState::EI_A | TState::OI_A)
                    ) {
                        let state = self.table_state(addr);
                        self.violation(state, "FwdGetS", addr, ctx);
                        return;
                    }
                    #[cfg(debug_assertions)]
                    self.assert_conforms("FwdGetS", addr);
                    let mshr = self.mshrs.get_mut(&addr.0).expect("checked above");
                    match mshr.tstate {
                        TState::SI_A => {
                            // Evicting ex-forwarder (MESIF): the eviction
                            // data still serves the request.
                            let data = mshr.data;
                            ctx.send(
                                requestor,
                                SysMsg::Host(HostMsg::Data {
                                    addr,
                                    data,
                                    grant,
                                    acks: 0,
                                    dirty: false,
                                    poisoned: mshr.poisoned,
                                }),
                            );
                        }
                        TState::MI_A | TState::EI_A => {
                            let dirty = mshr.tstate == TState::MI_A;
                            let data = mshr.data;
                            let poisoned = mshr.poisoned;
                            ctx.send(
                                requestor,
                                SysMsg::Host(HostMsg::Data {
                                    addr,
                                    data,
                                    grant,
                                    acks: 0,
                                    dirty,
                                    poisoned: mshr.poisoned,
                                }),
                            );
                            if self.dir_policy.owner_writes_back_on_fwd_gets {
                                mshr.tstate = TState::SI_A;
                                self.send_dir(
                                    HostMsg::DataToDir {
                                        addr,
                                        data,
                                        dirty,
                                        poisoned,
                                    },
                                    ctx,
                                );
                            }
                            // MOESI: remain dirty owner; eviction continues.
                        }
                        TState::OI_A => {
                            let data = mshr.data;
                            ctx.send(
                                requestor,
                                SysMsg::Host(HostMsg::Data {
                                    addr,
                                    data,
                                    grant,
                                    acks: 0,
                                    dirty: true,
                                    poisoned: mshr.poisoned,
                                }),
                            );
                        }
                        _ => unreachable!("checked above"),
                    }
                    return;
                }
                let Some(line) = self.array.peek(addr).copied() else {
                    self.violation("I", "FwdGetS", addr, ctx);
                    return;
                };
                if !line.state.supplies_data() {
                    self.violation(line.state.name(), "FwdGetS", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("FwdGetS", addr);
                let dirty = line.state.is_dirty();
                ctx.send(
                    requestor,
                    SysMsg::Host(HostMsg::Data {
                        addr,
                        data: line.data,
                        grant,
                        acks: 0,
                        dirty,
                        poisoned: line.poisoned,
                    }),
                );
                // MOESI suppliers stay owner (M/O → O, and clean E → O as
                // well: the directory cannot distinguish E from M after a
                // silent upgrade, so it keeps treating the supplier as the
                // owner; a clean O simply writes identical data back later).
                // MESI/MESIF owners drop to S and make the directory's copy
                // current.
                if dirty && self.dir_policy.owner_writes_back_on_fwd_gets {
                    self.send_dir(
                        HostMsg::DataToDir {
                            addr,
                            data: line.data,
                            dirty,
                            poisoned: line.poisoned,
                        },
                        ctx,
                    );
                }
                self.array.get_mut(addr).expect("present").state =
                    self.dir_policy.owner_after_fwd_gets;
            }
            HostMsg::FwdGetM {
                requestor, acks, ..
            } => {
                // An upgrading O/F owner loses its copy to a racing writer
                // (or recall): supply from the resident line, fall back to
                // IM_AD and let the own upgrade refill later.
                if matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::SM_AD)
                ) {
                    #[cfg(debug_assertions)]
                    self.assert_conforms("FwdGetM", addr);
                    let line = self.array.remove(addr).expect("upgrader holds the line");
                    self.hint_core(addr, ctx);
                    debug_assert!(
                        line.state.supplies_data(),
                        "FwdGetM to non-supplier upgrader"
                    );
                    ctx.send(
                        requestor,
                        SysMsg::Host(HostMsg::Data {
                            addr,
                            data: line.data,
                            grant: Grant::M,
                            acks,
                            dirty: line.state.is_dirty(),
                            poisoned: line.poisoned,
                        }),
                    );
                    self.mshrs.get_mut(&addr.0).expect("present").tstate = TState::IM_AD;
                    return;
                }
                if self.mshrs.contains_key(&addr.0) {
                    if !matches!(
                        self.mshrs.get(&addr.0).map(|m| m.tstate),
                        Some(TState::MI_A | TState::EI_A | TState::OI_A)
                    ) {
                        let state = self.table_state(addr);
                        self.violation(state, "FwdGetM", addr, ctx);
                        return;
                    }
                    #[cfg(debug_assertions)]
                    self.assert_conforms("FwdGetM", addr);
                    let mshr = self.mshrs.get_mut(&addr.0).expect("checked above");
                    let dirty = mshr.tstate != TState::EI_A;
                    ctx.send(
                        requestor,
                        SysMsg::Host(HostMsg::Data {
                            addr,
                            data: mshr.data,
                            grant: Grant::M,
                            acks,
                            dirty,
                            poisoned: mshr.poisoned,
                        }),
                    );
                    mshr.tstate = TState::II_A;
                    return;
                }
                let Some(line) = self.array.peek(addr).copied() else {
                    self.violation("I", "FwdGetM", addr, ctx);
                    return;
                };
                if !line.state.supplies_data() {
                    self.violation(line.state.name(), "FwdGetM", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("FwdGetM", addr);
                self.array.remove(addr).expect("checked above");
                self.hint_core(addr, ctx);
                ctx.send(
                    requestor,
                    SysMsg::Host(HostMsg::Data {
                        addr,
                        data: line.data,
                        grant: Grant::M,
                        acks,
                        dirty: line.state.is_dirty(),
                        poisoned: line.poisoned,
                    }),
                );
            }
            HostMsg::Inv { requestor, .. } => {
                self.invalidations_received += 1;
                if self.mshrs.contains_key(&addr.0) {
                    if !matches!(
                        self.mshrs.get(&addr.0).map(|m| m.tstate),
                        Some(TState::SM_AD | TState::SI_A)
                    ) {
                        let state = self.table_state(addr);
                        self.violation(state, "Inv", addr, ctx);
                        return;
                    }
                    #[cfg(debug_assertions)]
                    self.assert_conforms("Inv", addr);
                    let mshr = self.mshrs.get_mut(&addr.0).expect("checked above");
                    match mshr.tstate {
                        TState::SM_AD => {
                            // Lost the shared copy mid-upgrade; the data
                            // grant will still arrive.
                            mshr.tstate = TState::IM_AD;
                            self.array.remove(addr);
                            ctx.send(requestor, SysMsg::Host(HostMsg::InvAck { addr }));
                            self.hint_core(addr, ctx);
                        }
                        TState::SI_A => {
                            mshr.tstate = TState::II_A;
                            ctx.send(requestor, SysMsg::Host(HostMsg::InvAck { addr }));
                        }
                        _ => unreachable!("checked above"),
                    }
                    return;
                }
                if !matches!(
                    self.array.peek(addr).map(|l| l.state),
                    Some(StableState::S | StableState::F)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "Inv", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("Inv", addr);
                let line = self.array.remove(addr);
                self.hint_core(addr, ctx);
                if ctx.tracing() {
                    if let Some(l) = line {
                        ctx.trace_state(Some(addr.0), &l.state, &StableState::I);
                    }
                }
                ctx.send(requestor, SysMsg::Host(HostMsg::InvAck { addr }));
            }
            HostMsg::PutAck { .. } => {
                if !matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::MI_A | TState::OI_A | TState::EI_A | TState::SI_A | TState::II_A)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "PutAck", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("PutAck", addr);
                self.retire_mshr(addr, ctx);
            }
            HostMsg::WtAck { .. } => {
                if !matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::WT_A)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "WtAck", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("WtAck", addr);
                let mshr = self.mshrs.get(&addr.0).expect("checked above");
                let from_release = mshr.from_release;
                self.retire_mshr(addr, ctx);
                if from_release {
                    let rel = self.release.as_mut().expect("release in progress");
                    rel.remaining -= 1;
                    if rel.remaining == 0 {
                        let rel = self.release.take().expect("present");
                        let req = CoreReq {
                            tag: rel.tag,
                            instr: Instr::Work(0),
                        };
                        self.respond(&req, rel.respond_value, ctx);
                    }
                }
            }
            HostMsg::AtomicResp { old, .. } => {
                if !matches!(
                    self.mshrs.get(&addr.0).map(|m| m.tstate),
                    Some(TState::AT_D)
                ) {
                    let state = self.table_state(addr);
                    self.violation(state, "AtomicResp", addr, ctx);
                    return;
                }
                #[cfg(debug_assertions)]
                self.assert_conforms("AtomicResp", addr);
                let mshr = self.mshrs.remove(&addr.0).expect("checked above");
                let initiator = mshr.initiator.expect("atomic has initiator");
                let latency = ctx.now.since(mshr.started);
                self.stats[AccessKind::Rmw as usize].bands.record(latency);
                self.stats[AccessKind::Rmw as usize].hist.record(latency);
                ctx.trace_end(mshr.txn);
                self.respond(&initiator, old, ctx);
                for req in mshr.pending {
                    self.handle_core(req, ctx);
                }
            }
            other => {
                // Directory-bound messages (GetS, PutM, Unblock, ...) must
                // never be routed at a private cache.
                let state = self.table_state(addr);
                self.violation(state, other.name(), addr, ctx);
            }
        }
    }
}

impl Component<SysMsg> for L1Controller {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        c3_sim::sim_trace!("[{}] {} <- {src}: {msg:?}", ctx.now, self.name);
        match msg {
            SysMsg::CoreReq(req) => self.handle_core(req, ctx),
            SysMsg::Host(h) => self.handle_host(h, src, ctx),
            other => {
                let event = format!("{other:?}");
                self.violation("-", &event, Addr(0), ctx);
            }
        }
    }

    fn done(&self) -> bool {
        self.mshrs.is_empty() && self.release.is_none() && self.violations.is_empty()
    }

    fn inflight(&self, self_id: ComponentId, out: &mut Vec<InflightTxn>) {
        let mut entries: Vec<_> = self.mshrs.iter().collect();
        entries.sort_by_key(|(a, _)| **a);
        for (&addr, m) in entries {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(addr),
                kind: format!("mshr {:?}", m.tstate),
                since: Some(m.started),
                waiting_on: Some(self.cfg.dir),
                detail: format!(
                    "acks={}, data_received={}, {} deferred req(s)",
                    m.acks,
                    m.data_received,
                    m.pending.len()
                ),
            });
        }
        if let Some(r) = &self.release {
            out.push(InflightTxn {
                component: self_id,
                addr: None,
                kind: "release flush".into(),
                since: None,
                waiting_on: Some(self.cfg.dir),
                detail: format!("{} write-through(s) outstanding", r.remaining),
            });
        }
        for v in &self.violations {
            out.push(InflightTxn {
                component: self_id,
                addr: Some(v.addr.0),
                kind: "protocol violation".into(),
                since: None,
                waiting_on: None,
                detail: v.to_string(),
            });
        }
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        let n = &self.name;
        out.gauge(n, "mshr", self.mshrs.len() as f64);
        for (s, (_, hits, misses)) in self.stats.iter().zip(KIND_LABELS) {
            out.counter(n, hits, s.hits as f64);
            out.counter(n, misses, s.misses as f64);
        }
        out.counter(n, "writebacks", self.writebacks as f64);
        out.counter(n, "invalidations", self.invalidations_received as f64);
        out.counter(n, "self_invalidations", self.self_invalidations as f64);
        if self.state_metrics {
            let entry = std::mem::size_of::<(u64, Mshr)>();
            Footprint {
                touched: 0,
                resident: self.mshrs.len(),
                peak_resident: self.peak_mshrs,
                state_bytes: self.mshrs.len() * entry,
                peak_state_bytes: self.peak_mshrs * entry,
            }
            .emit(out, n, true);
        }
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        for (s, (label, _, _)) in self.stats.iter().zip(KIND_LABELS) {
            s.hist.report_into(out, &format!("{n}.{label}.lat"));
            for band in c3_sim::stats::Band::ALL {
                out.set(
                    format!("{n}.{label}.miss_ns.{band}"),
                    s.bands.total_ns(band) as f64,
                );
                out.set(
                    format!("{n}.{label}.miss_count.{band}"),
                    s.bands.count(band) as f64,
                );
            }
        }
        // Only present when poison actually reached a consumer, so
        // fault-free runs keep byte-identical reports.
        if self.poisoned_reads > 0 {
            out.set(format!("{n}.poisoned_reads"), self.poisoned_reads as f64);
        }
        // Same gating: only present when something actually went wrong.
        if !self.violations.is_empty() {
            out.set(
                format!("{n}.protocol_violations"),
                self.violations.len() as f64,
            );
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The declarative transition relation of the [`L1Controller`] for
/// `family`, mirroring the dynamic dispatch in `handle_core` /
/// `handle_host` / `ensure_way`.
///
/// Row states are MSHR transient-state names while a transaction is in
/// flight, else the resident stable state (`I` when absent). The rows for
/// a stable state come from the family's SSP spec through `ssp_row`;
/// the transient-state rows are written out here, because SSPs omit
/// transients by design. Debug builds assert every dynamic handler step
/// against this table; `c3-verif::static_checks` and the `protocheck`
/// binary check the table itself offline.
pub fn l1_transition_table(family: ProtocolFamily) -> TransitionTable {
    type R = TransitionRow;
    let spec = SspSpec::for_family(family);
    let swmr = family.enforces_swmr();
    let mut rows: Vec<TransitionRow> = spec
        .transitions
        .iter()
        .flat_map(|tr| l1_events(tr).iter().map(|event| ssp_row(&spec, tr, event)))
        .collect();
    // The SSPs let an absent line evict to itself; victim selection
    // only ever picks a resident line.
    rows.push(R::forbidden(
        "I",
        "Repl",
        "I lines are not resident",
        "l1.rs:ensure_way",
    ));

    // Data grants: whatever the directory may grant a GetS.
    let mut grant_acts = vec![Action::complete("CoreResp", Vnet::Resp, "core")];
    if swmr {
        grant_acts.push(Action::send("Unblock", Vnet::Resp, "bridge"));
    }
    for g in spec.dir.read_grants() {
        rows.push(R::next(
            "IS_D",
            "Data",
            g.name(),
            grant_acts.clone(),
            "l1.rs:handle_host/Data@IS_D",
        ));
    }
    let (transients, responses, snoops): (Vec<&'static str>, &[&'static str], &[&'static str]) =
        if swmr {
            let mut t = vec![
                "IS_D", "IM_AD", "IM_A", "SM_AD", "SM_A", "MI_A", "EI_A", "SI_A", "II_A",
            ];
            if family.has_state(StableState::O) {
                t.push("OI_A");
            }
            rows.extend(swmr_transient_rows(&spec, &t));
            (
                t,
                &["Data", "InvAck", "PutAck"],
                &["FwdGetS", "FwdGetM", "Inv"],
            )
        } else {
            rows.extend(rcc_transient_rows());
            (
                vec!["IS_D", "WT_A", "AT_D"],
                &["Data", "WtAck", "AtomicResp"],
                &[],
            )
        };

    // A line with a transaction in flight defers further core traffic
    // (MSHR `pending` queue) and is skipped by victim selection.
    let waits = |t: &str| -> Vec<&'static str> {
        match t {
            "IS_D" => vec!["Data"],
            "IM_AD" | "SM_AD" => vec!["Data", "InvAck"],
            "IM_A" | "SM_A" => vec!["InvAck"],
            "WT_A" => vec!["WtAck"],
            "AT_D" => vec!["AtomicResp"],
            _ => vec!["PutAck"],
        }
    };
    for t in &transients {
        for e in ["Load", "Store", "Rmw", "Repl"] {
            rows.push(R::stall(t, e, waits(t), "l1.rs:handle_core/defer"));
        }
    }

    // MSHR quiescence: a line may shed its resident MSHR
    // record only in a stable state, and doing so must not change
    // protocol state or emit messages. Transient states hold an MSHR.
    let mut states: Vec<&'static str> = spec.states().iter().map(|s| s.name()).collect();
    for s in &states {
        rows.push(R::next(
            s,
            "Quiesce",
            s,
            vec![],
            "l1.rs:retire (MSHR closed; line quiescent)",
        ));
    }
    for t in &transients {
        rows.push(R::forbidden(
            t,
            "Quiesce",
            "an in-flight transaction holds a resident MSHR",
            "l1.rs:retire",
        ));
    }
    states.extend(transients);

    let mut events = vec!["Load", "Store", "Rmw", "Repl"];
    events.extend(responses.iter().chain(snoops));
    events.push("Quiesce");
    let mut event_vnets: Vec<(&'static str, Vnet)> =
        responses.iter().map(|e| (*e, Vnet::Resp)).collect();
    event_vnets.extend(snoops.iter().map(|e| (*e, Vnet::Snoop)));
    TransitionTable {
        controller: "l1",
        states,
        events: events.clone(),
        event_vnets,
        initial: vec!["I"],
        forbidden: vec![],
        // Core traffic and evictions originate outside the message system;
        // the directory engine (not table-modelled — it is exhaustively
        // unit-tested and has no blocking states) produces the rest.
        assumed_available: events,
        rows,
    }
}

/// The SWMR transient-state rows for the directory's responses and
/// forwards (the `IS_D` grants are shared with RCC).
fn swmr_transient_rows(spec: &SspSpec, transients: &[&'static str]) -> Vec<TransitionRow> {
    type R = TransitionRow;
    let resp = Action::complete("CoreResp", Vnet::Resp, "core");
    let unblock = Action::send("Unblock", Vnet::Resp, "bridge");
    let data_l1 = Action::send("Data", Vnet::Resp, "l1");
    let data_dir = Action::send("DataToDir", Vnet::Resp, "bridge");
    let inv_ack = Action::send("InvAck", Vnet::Resp, "l1");
    // Evictions of a line the directory may still forward to.
    let supplier_evictions: Vec<&'static str> = ["MI_A", "EI_A", "OI_A"]
        .into_iter()
        .filter(|t| transients.contains(t))
        .collect();
    let mut rows = Vec::new();

    // GetM is always granted M, once every invalidation ack is in.
    for (t, awaiting) in [("IM_AD", "IM_A"), ("SM_AD", "SM_A")] {
        rows.push(R::next(
            t,
            "Data",
            "M",
            vec![resp.clone(), unblock.clone()],
            "l1.rs:handle_host/Data-acks-settled",
        ));
        rows.push(R::next(
            t,
            "Data",
            awaiting,
            vec![],
            "l1.rs:handle_host/Data-awaiting-acks",
        ));
    }
    rows.push(R::forbidden(
        ANY_STATE,
        "Data",
        "Data without a matching MSHR",
        "l1.rs:handle_host/Data",
    ));
    for t in ["IM_AD", "SM_AD"] {
        rows.push(R::next(
            t,
            "InvAck",
            t,
            vec![],
            "l1.rs:handle_host/InvAck-early",
        ));
    }
    for t in ["IM_A", "SM_A"] {
        rows.push(R::next(t, "InvAck", t, vec![], "l1.rs:handle_host/InvAck"));
        rows.push(R::next(
            t,
            "InvAck",
            "M",
            vec![resp.clone(), unblock.clone()],
            "l1.rs:handle_host/InvAck-last",
        ));
    }
    rows.push(R::forbidden(
        ANY_STATE,
        "InvAck",
        "InvAck without a matching MSHR",
        "l1.rs:handle_host/InvAck",
    ));

    // FwdGetS mid-transaction: the line still supplies data. An evicting
    // supplier stays owner where the SSP keeps suppliers owning (MOESI),
    // else it makes the directory's copy current and drops to SI_A.
    for t in ["SM_AD", "SI_A"] {
        rows.push(R::next(
            t,
            "FwdGetS",
            t,
            vec![data_l1.clone()],
            "l1.rs:handle_host/FwdGetS@transient",
        ));
    }
    let owner_stays = spec.dir.owner_after_fwd_gets == StableState::O;
    for &t in &supplier_evictions {
        if owner_stays {
            rows.push(R::next(
                t,
                "FwdGetS",
                t,
                vec![data_l1.clone()],
                "l1.rs:handle_host/FwdGetS@evict(owner)",
            ));
        } else {
            rows.push(R::next(
                t,
                "FwdGetS",
                "SI_A",
                vec![data_l1.clone(), data_dir.clone()],
                "l1.rs:handle_host/FwdGetS@evict",
            ));
        }
    }
    rows.push(R::next(
        "SM_AD",
        "FwdGetM",
        "IM_AD",
        vec![data_l1.clone()],
        "l1.rs:handle_host/FwdGetM@SM_AD",
    ));
    for &t in &supplier_evictions {
        rows.push(R::next(
            t,
            "FwdGetM",
            "II_A",
            vec![data_l1.clone()],
            "l1.rs:handle_host/FwdGetM@evict",
        ));
    }
    for e in ["FwdGetS", "FwdGetM"] {
        rows.push(R::forbidden(
            ANY_STATE,
            e,
            "forward to a non-supplier or absent line",
            "l1.rs:handle_host/Fwd",
        ));
    }

    rows.push(R::next(
        "SM_AD",
        "Inv",
        "IM_AD",
        vec![inv_ack.clone()],
        "l1.rs:handle_host/Inv@SM_AD",
    ));
    rows.push(R::next(
        "SI_A",
        "Inv",
        "II_A",
        vec![inv_ack],
        "l1.rs:handle_host/Inv@SI_A",
    ));
    rows.push(R::forbidden(
        ANY_STATE,
        "Inv",
        "Inv for a non-shared line",
        "l1.rs:handle_host/Inv",
    ));

    for t in supplier_evictions.into_iter().chain(["SI_A", "II_A"]) {
        rows.push(R::next(
            t,
            "PutAck",
            "I",
            vec![],
            "l1.rs:handle_host/PutAck",
        ));
    }
    rows.push(R::forbidden(
        ANY_STATE,
        "PutAck",
        "PutAck without an eviction MSHR",
        "l1.rs:handle_host/PutAck",
    ));
    rows
}

/// The RCC transient-state rows for the directory's responses (the
/// `IS_D` grants are shared with SWMR).
fn rcc_transient_rows() -> Vec<TransitionRow> {
    type R = TransitionRow;
    let resp = Action::complete("CoreResp", Vnet::Resp, "core");
    let mut rows = vec![
        // An eviction write-through retires to I; a release-flush one
        // retains the clean copy.
        R::next("WT_A", "WtAck", "I", vec![], "l1.rs:handle_host/WtAck"),
        R::next(
            "WT_A",
            "WtAck",
            "S",
            vec![],
            "l1.rs:handle_host/WtAck-release-retain",
        ),
        R::next(
            "AT_D",
            "AtomicResp",
            "I",
            vec![resp],
            "l1.rs:handle_host/AtomicResp",
        ),
    ];
    for e in ["Data", "WtAck", "AtomicResp"] {
        rows.push(R::forbidden(
            ANY_STATE,
            e,
            "response without a matching MSHR",
            "l1.rs:handle_host",
        ));
    }
    rows
}

/// The table events an SSP transition decides: `Rmw` follows `Store`,
/// and `Evict` is the table's `Repl`. None for an eviction from `I` (an
/// absent line is never a victim) or for the RCC sync points, which the
/// table does not model.
fn l1_events(tr: &SspTransition) -> &'static [&'static str] {
    match tr.event {
        SspEvent::Load => &["Load"],
        SspEvent::Store => &["Store", "Rmw"],
        SspEvent::Evict if tr.from != StableState::I => &["Repl"],
        SspEvent::FwdGetS => &["FwdGetS"],
        SspEvent::FwdGetM => &["FwdGetM"],
        SspEvent::Inv => &["Inv"],
        _ => &[],
    }
}

/// The request message and MSHR transient state an SSP action opens from
/// `from`; `None` for actions the L1 performs without a request.
fn l1_request(
    action: SspAction,
    from: StableState,
    rmw: bool,
    swmr: bool,
) -> Option<(&'static str, &'static str)> {
    use SspAction::*;
    Some(match (action, from) {
        (IssueGetS, _) => ("GetS", "IS_D"),
        (IssueGetM, StableState::I) => ("GetM", "IM_AD"),
        (IssueGetM, _) => ("GetM", "SM_AD"),
        // A store that needs no ownership cannot make an atomic atomic:
        // RCC atomics execute at the shared level.
        (LocalWrite, _) if rmw => ("AtomicRmw", "AT_D"),
        (IssuePutClean, StableState::E) => ("PutE", "EI_A"),
        (IssuePutClean, _) => ("PutS", "SI_A"),
        (WritebackDirty, _) if !swmr => ("WriteThrough", "WT_A"),
        (WritebackDirty, StableState::O) => ("PutO", "OI_A"),
        (WritebackDirty, _) => ("PutM", "MI_A"),
        _ => return None,
    })
}

/// The L1 row an SSP transition decides for one table `event`. An action
/// that needs a request sends it to the directory and opens the MSHR
/// transient [`l1_request`] names. Otherwise the row moves straight to
/// the SSP's next state with the SSP's replies to a forward, answering
/// the core on an access (a replacement is silent).
fn ssp_row(spec: &SspSpec, tr: &SspTransition, event: &'static str) -> TransitionRow {
    let from = tr.from.name();
    let provenance = format!("ssp:{} {from} {}", spec.family, tr.event.name());
    let request = tr
        .actions
        .iter()
        .find_map(|&a| l1_request(a, tr.from, event == "Rmw", spec.family.enforces_swmr()));
    if let Some((msg, transient)) = request {
        let send = Action::send(msg, Vnet::Req, "bridge");
        return TransitionRow::next(from, event, transient, vec![send], provenance);
    }
    let SspNext::Fixed(to) = tr.to else {
        panic!("{provenance}: only a request can leave the next state to the grant");
    };
    let mut actions: Vec<Action> = tr
        .actions
        .iter()
        .filter_map(|a| match a {
            SspAction::SendDataToReq => Some(Action::send("Data", Vnet::Resp, "l1")),
            SspAction::SendDataToDir => Some(Action::send("DataToDir", Vnet::Resp, "bridge")),
            SspAction::SendInvAck => Some(Action::send("InvAck", Vnet::Resp, "l1")),
            _ => None,
        })
        .collect();
    if matches!(event, "Load" | "Store" | "Rmw") {
        actions.push(Action::complete("CoreResp", Vnet::Resp, "core"));
    }
    TransitionRow::next(from, event, to.name(), actions, provenance)
}
