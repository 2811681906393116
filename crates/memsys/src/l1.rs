//! Private (L1) cache controller.
//!
//! A directory-protocol cache controller with explicit transient states,
//! configurable as MESI / MESIF / MOESI (SWMR variants of the same table)
//! or RCC (self-invalidation, §IV-D2 of the paper). One instance per core;
//! Table III: 128 KiB, 8-way, 1-cycle hit latency. The paper's tool models
//! a unified I+D cache per core, and so do we.
//!
//! The stable-state behaviour is not written out here: at construction the
//! family's SSP spec is compiled once into a dense `[stable state][event]`
//! array of [`L1Step`]s ([`L1Steps::compile`]). Core accesses, victim
//! evictions, the RCC acquire/release sweeps and the stable forward and
//! invalidation arms each look their step up and run it through one small
//! executor, and [`l1_transition_table`] renders its stable rows from the
//! same steps. Only the transient states (MSHRs), which SSPs omit by
//! design, are handled by hand. One rule joins two SSP rows: an atomic
//! executes at the directory (RCC), so on a dirty line it first runs the
//! line's write-through `Release` step and replays once that is
//! acknowledged.

use std::any::Any;
use std::collections::VecDeque;

use c3_protocol::msg::{CoreReq, CoreResp, Grant, HostMsg, SysMsg};
use c3_protocol::ops::{Addr, FenceKind, Instr};
use c3_protocol::ssp::{SspAction, SspEvent, SspNext, SspSpec, SspTransition};
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

/// An event an L1 line in a stable state reacts to: the transition
/// table's core and directory events plus the RCC sync points. `Rmw`
/// follows the SSP's `Store` row and `Repl` is its `Evict`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1Event {
    /// Core load.
    Load,
    /// Core store.
    Store,
    /// Core read-modify-write.
    Rmw,
    /// The line was chosen as a victim.
    Repl,
    /// Forwarded read.
    FwdGetS,
    /// Forwarded write (or recall).
    FwdGetM,
    /// Invalidation of a shared copy.
    Inv,
    /// RCC acquire (self-invalidation point).
    Acquire,
    /// RCC release (write-through point).
    Release,
}

impl L1Event {
    const COUNT: usize = 9;

    /// The event's name in the transition table (in SSP text for the sync
    /// points, which the table does not model).
    pub fn name(self) -> &'static str {
        const NAMES: [&str; L1Event::COUNT] = [
            "Load", "Store", "Rmw", "Repl", "FwdGetS", "FwdGetM", "Inv", "Acquire", "Release",
        ];
        NAMES[self as usize]
    }

    /// The L1 events an SSP event decides.
    fn of(event: SspEvent) -> &'static [L1Event] {
        match event {
            SspEvent::Load => &[L1Event::Load],
            SspEvent::Store => &[L1Event::Store, L1Event::Rmw],
            SspEvent::Evict => &[L1Event::Repl],
            SspEvent::FwdGetS => &[L1Event::FwdGetS],
            SspEvent::FwdGetM => &[L1Event::FwdGetM],
            SspEvent::Inv => &[L1Event::Inv],
            SspEvent::Acquire => &[L1Event::Acquire],
            SspEvent::Release => &[L1Event::Release],
        }
    }
}

/// One compiled stable-state step: what a line in one stable state does on
/// one [`L1Event`], as the family's SSP says.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct L1Step {
    next: SspNext,
    /// The transient the step's request to the directory opens.
    request: Option<TState>,
    hold: StableState,
    data_to_req: bool,
    data_to_dir: bool,
    inv_ack: bool,
}

impl L1Step {
    /// `tr`'s step for one of the L1 events it decides (`rmw` for `Rmw`).
    fn compile(tr: &SspTransition, rmw: bool, swmr: bool) -> L1Step {
        let request = tr
            .actions
            .iter()
            .find_map(|&a| TState::opened_by(a, tr.from, rmw, swmr));
        let hold = match (request, tr.to) {
            // An upgrade keeps its readable copy until the grant.
            (Some(TState::SM_AD), _) => tr.from,
            // A fetch leaves nothing behind, and an atomic drops the copy
            // it would leave stale.
            (Some(TState::IS_D | TState::IM_AD | TState::AT_D), _) => StableState::I,
            // Evictions go to I; a write-through that retains its copy (RCC
            // release) keeps it in the next state.
            (_, SspNext::Fixed(to)) => to,
            (_, SspNext::FromGrant) => panic!(
                "{} {}: only a fetch can leave the next state to the grant",
                tr.from,
                tr.event.name()
            ),
        };
        L1Step {
            next: tr.to,
            request,
            hold,
            data_to_req: tr.actions.contains(&SspAction::SendDataToReq),
            data_to_dir: tr.actions.contains(&SspAction::SendDataToDir),
            inv_ack: tr.actions.contains(&SspAction::SendInvAck),
        }
    }

    /// The SSP's next state: where the line ends up once any request the
    /// step opens has completed.
    pub fn next(&self) -> SspNext {
        self.next
    }

    /// The state the resident copy holds as soon as the step has run (I:
    /// dropped). An upgrade keeps its readable copy until the grant.
    pub fn hold(&self) -> StableState {
        self.hold
    }

    /// The request the step sends the directory and the MSHR transient it
    /// opens, if any.
    pub fn request(&self) -> Option<(&'static str, &'static str)> {
        self.request.map(|t| (t.request(), t.name()))
    }

    /// The table row this step decides. A request sends it to the
    /// directory and opens its transient; otherwise the row moves to the
    /// held state with the step's replies, answering the core on an access
    /// (a replacement is silent).
    fn row(&self, from: StableState, event: L1Event, provenance: String) -> TransitionRow {
        let (from, ev) = (from.name(), event.name());
        if let Some(req) = self.request {
            let send = Action::send(req.request(), Vnet::Req, "bridge");
            return TransitionRow::next(from, ev, req.name(), vec![send], provenance);
        }
        let mut actions = Vec::new();
        if self.data_to_req {
            actions.push(Action::send("Data", Vnet::Resp, "l1"));
        }
        if self.data_to_dir {
            actions.push(Action::send("DataToDir", Vnet::Resp, "bridge"));
        }
        if self.inv_ack {
            actions.push(Action::send("InvAck", Vnet::Resp, "l1"));
        }
        if matches!(event, L1Event::Load | L1Event::Store | L1Event::Rmw) {
            actions.push(Action::complete("CoreResp", Vnet::Resp, "core"));
        }
        TransitionRow::next(from, ev, self.hold.name(), actions, provenance)
    }
}

/// A family's SSP compiled into a dense `[stable state][event]` array of
/// [`L1Step`]s: the L1's whole stable-state behaviour, executed by the
/// controller and rendered by [`l1_transition_table`].
#[derive(Clone, Copy, Debug)]
pub struct L1Steps {
    steps: [[Option<L1Step>; L1Event::COUNT]; StableState::ALL.len()],
    /// Whether any state reacts to the sync points; the acquire and
    /// release sweeps are no-ops otherwise.
    syncs: bool,
}

impl L1Steps {
    /// Compile `spec`. Replacing an absent line has no step: victim
    /// selection only ever picks a resident line.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not validate, or if a step without a request
    /// leaves its next state to the grant.
    pub fn compile(spec: &SspSpec) -> L1Steps {
        if let Err(errs) = spec.validate() {
            panic!("{} SSP spec invalid: {errs:?}", spec.family);
        }
        let swmr = spec.family.enforces_swmr();
        let mut steps = [[None; L1Event::COUNT]; StableState::ALL.len()];
        let mut syncs = false;
        for tr in &spec.transitions {
            for &event in L1Event::of(tr.event) {
                if event == L1Event::Repl && tr.from == StableState::I {
                    continue;
                }
                let step = L1Step::compile(tr, event == L1Event::Rmw, swmr);
                steps[tr.from as usize][event as usize] = Some(step);
                syncs |= matches!(event, L1Event::Acquire | L1Event::Release);
            }
        }
        // An atomic executes at the directory and drops the copy it would
        // leave stale, so a dirty copy must reach the directory first: an
        // atomic on one writes it through, as its release does, and runs
        // again from the clean copy once that is acknowledged.
        for row in &mut steps {
            let (rmw, release) = (row[L1Event::Rmw as usize], row[L1Event::Release as usize]);
            if let (Some(rmw), Some(release)) = (rmw, release) {
                if rmw.request == Some(TState::AT_D) && release.request == Some(TState::WT_A) {
                    row[L1Event::Rmw as usize] = Some(release);
                }
            }
        }
        L1Steps { steps, syncs }
    }

    /// The step a line in `from` takes on `event`; `None` where the SSP
    /// gives none (a message in that state is a protocol violation).
    pub fn get(&self, from: StableState, event: L1Event) -> Option<L1Step> {
        self.steps[from as usize][event as usize]
    }

    /// The step for an event every resident state must answer.
    fn must(&self, from: StableState, event: L1Event) -> L1Step {
        self.get(from, event)
            .unwrap_or_else(|| panic!("the SSP gives no {from} x {} step", event.name()))
    }
}

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
        const NAMES: [&str; 12] = [
            "IS_D", "IM_AD", "IM_A", "SM_AD", "SM_A", "MI_A", "OI_A", "EI_A", "SI_A", "II_A",
            "WT_A", "AT_D",
        ];
        NAMES[self as usize]
    }

    /// The transient an SSP action opens from `from` with a request to the
    /// directory; `None` for actions the L1 performs without one.
    fn opened_by(action: SspAction, from: StableState, rmw: bool, swmr: bool) -> Option<TState> {
        use SspAction::*;
        Some(match (action, from) {
            (IssueGetS, _) => TState::IS_D,
            (IssueGetM, StableState::I) => TState::IM_AD,
            (IssueGetM, _) => TState::SM_AD,
            // A store that needs no ownership cannot make an atomic atomic:
            // RCC atomics execute at the shared level.
            (LocalWrite, _) if rmw => TState::AT_D,
            (IssuePutClean, StableState::E) => TState::EI_A,
            (IssuePutClean, _) => TState::SI_A,
            (WritebackDirty | WritebackRetain, _) if !swmr => TState::WT_A,
            (WritebackDirty, StableState::O) => TState::OI_A,
            (WritebackDirty, _) => TState::MI_A,
            _ => return None,
        })
    }

    /// The request that opens this transient.
    fn request(self) -> &'static str {
        match self {
            TState::IS_D => "GetS",
            TState::IM_AD | TState::SM_AD => "GetM",
            TState::MI_A => "PutM",
            TState::OI_A => "PutO",
            TState::EI_A => "PutE",
            TState::SI_A => "PutS",
            TState::WT_A => "WriteThrough",
            TState::AT_D => "AtomicRmw",
            TState::IM_A | TState::SM_A | TState::II_A => unreachable!("no request opens {self:?}"),
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
    /// The family's stable-state steps, compiled from its SSP.
    steps: L1Steps,
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
        Self::with_spec(name, cfg, &SspSpec::for_family(cfg.family))
    }

    /// Create a controller that runs `spec`'s stable-state steps (`new`
    /// passes the family's own spec).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not compile ([`L1Steps::compile`]).
    pub fn with_spec(name: impl Into<String>, cfg: L1Config, spec: &SspSpec) -> Self {
        L1Controller {
            array: CacheArray::new(cfg.sets, cfg.ways),
            steps: L1Steps::compile(spec),
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

    /// Perform `instr` on a line that may serve it and return the value
    /// the core is answered with. A store overwrites the whole line and so
    /// heals poison; reading a poisoned value (a load, or the old value of
    /// an RMW) is counted. A prefetch only wanted the permission.
    fn access(line: &mut Line, instr: &Instr, poisoned_reads: &mut u64) -> u64 {
        match *instr {
            Instr::Store { val, .. } => {
                line.data = val;
                line.poisoned = false;
                0
            }
            Instr::Load { .. } | Instr::Rmw { .. } => {
                *poisoned_reads += u64::from(line.poisoned);
                let old = line.data;
                if let Instr::Rmw { add, .. } = *instr {
                    line.data = old.wrapping_add(add);
                }
                old
            }
            _ => 0,
        }
    }

    fn respond(&self, tag: u64, value: u64, ctx: &mut Ctx<'_, SysMsg>) {
        let resp = SysMsg::CoreResp(CoreResp { tag, value });
        ctx.send_direct(self.cfg.core, resp, self.cfg.hit_latency);
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

    /// Run a step's request: leave the resident copy (`line`, if any) in
    /// the step's held state, send the request to the directory and open
    /// its MSHR with the trace span it carries. Every miss transaction this
    /// cache carries goes through here, so the span begin/end pairs stay
    /// balanced with MSHR lifetime.
    fn request(
        &mut self,
        addr: Addr,
        step: L1Step,
        line: Option<Line>,
        initiator: Option<CoreReq>,
        from_release: bool,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        let tstate = step.request.expect("a request step");
        let (data, poisoned) = line.map_or((0, false), |l| (l.data, l.poisoned));
        if line.is_some() {
            if step.hold == StableState::I {
                self.array.remove(addr);
            } else if let Some(l) = self.array.get_mut(addr) {
                l.state = step.hold;
            }
        }
        let msg = match tstate {
            TState::IS_D => HostMsg::GetS { addr },
            TState::IM_AD | TState::SM_AD => HostMsg::GetM { addr },
            TState::SI_A => HostMsg::PutS { addr },
            TState::EI_A => HostMsg::PutE { addr },
            TState::MI_A => HostMsg::PutM {
                addr,
                data,
                poisoned,
            },
            TState::OI_A => HostMsg::PutO {
                addr,
                data,
                poisoned,
            },
            TState::WT_A => HostMsg::WriteThrough { addr, data },
            _ => match initiator.map(|r| r.instr) {
                Some(Instr::Rmw { add, .. }) => HostMsg::AtomicRmw { addr, add },
                other => unreachable!("{tstate:?} opened by {other:?}"),
            },
        };
        if matches!(tstate, TState::MI_A | TState::OI_A | TState::WT_A) {
            self.writebacks += 1;
        }
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
            // A dropped poisoned line may still be asked to supply data
            // (Fwd* while the Put* drains); an upgrade's fill brings its
            // own mark.
            poisoned: poisoned && step.hold == StableState::I,
            started: ctx.now,
            txn,
        };
        self.mshrs.insert(addr.0, mshr);
        self.peak_mshrs = self.peak_mshrs.max(self.mshrs.len());
        self.send_dir(msg, ctx);
    }

    /// Make room for `addr`, evicting a victim by its `Repl` step if
    /// necessary.
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
        let step = self.steps.must(line.state, L1Event::Repl);
        if step.request.is_some() {
            self.request(vaddr, step, Some(line), None, false, ctx);
        } else {
            // A silent clean drop (RCC).
            self.self_invalidations += 1;
        }
    }

    /// Acquire: run every resident line's `Acquire` step (RCC: drop clean
    /// copies so later loads refetch; dirty data survives).
    fn acquire(&mut self) {
        if !self.steps.syncs {
            return;
        }
        let steps = self.steps;
        let dropped: Vec<Addr> = self
            .array
            .iter()
            .filter(|(_, l)| {
                steps
                    .get(l.state, L1Event::Acquire)
                    .is_some_and(|s| s.hold == StableState::I)
            })
            .map(|(a, _)| a)
            .collect();
        self.self_invalidations += dropped.len() as u64;
        for a in dropped {
            self.array.remove(a);
        }
    }

    /// Release: run every resident line's `Release` step (RCC: write dirty
    /// lines through, keeping a clean copy), then answer request `tag`
    /// once every write-through is acknowledged.
    fn release(&mut self, tag: u64, ctx: &mut Ctx<'_, SysMsg>) {
        debug_assert!(self.release.is_none(), "one release at a time");
        let mut remaining = 0;
        if self.steps.syncs {
            let steps = self.steps;
            let flush: Vec<(Addr, Line, L1Step)> = self
                .array
                .iter()
                // A line already being written through (eviction) is skipped.
                .filter(|(a, _)| !self.mshrs.contains_key(&a.0))
                .filter_map(|(a, l)| {
                    let step = steps.get(l.state, L1Event::Release)?;
                    step.request.map(|_| (a, *l, step))
                })
                .collect();
            for &(a, line, step) in &flush {
                self.request(a, step, Some(line), None, true, ctx);
            }
            remaining = flush.len() as u32;
        }
        if remaining == 0 {
            self.respond(tag, 0, ctx);
        } else {
            self.release = Some(ReleaseOp { tag, remaining });
        }
    }

    fn handle_core(&mut self, req: CoreReq, ctx: &mut Ctx<'_, SysMsg>) {
        let (event, kind, addr) = match req.instr {
            Instr::Load { addr, .. } => (L1Event::Load, AccessKind::Load, addr),
            Instr::Store { addr, .. } => (L1Event::Store, AccessKind::Store, addr),
            Instr::Rmw { addr, .. } => (L1Event::Rmw, AccessKind::Rmw, addr),
            Instr::Prefetch { addr } => return self.prefetch(req, addr, ctx),
            Instr::Work(_) => return self.respond(req.tag, 0, ctx),
            // Fences: RCC caches run their sync steps; the sweeps are
            // no-ops in SWMR caches, which answer at once (ordering is
            // enforced in the core pipeline — §IV-D3).
            Instr::Fence(kind) => {
                if matches!(kind, FenceKind::Full | FenceKind::LoadLoad) {
                    self.acquire();
                }
                if matches!(kind, FenceKind::Full | FenceKind::StoreStore) {
                    self.release(req.tag, ctx);
                } else {
                    self.respond(req.tag, 0, ctx);
                }
                return;
            }
        };
        #[cfg(debug_assertions)]
        self.assert_conforms(event.name(), addr);
        // Same-line transaction in flight: defer.
        if let Some(mshr) = self.mshrs.get_mut(&addr.0) {
            mshr.pending.push_back(req);
            return;
        }
        if matches!(req.instr, Instr::Load { order, .. } if order.is_acquire()) {
            self.acquire();
        }
        let kind = kind as usize;
        let line = self.array.get_mut(addr);
        let from = line.as_ref().map_or(StableState::I, |l| l.state);
        let step = self.steps.must(from, event);
        let value = match (step.request, line) {
            (None, Some(line)) => {
                self.stats[kind].hits += 1;
                line.state = step.hold; // e.g. the silent E -> M upgrade
                Self::access(line, &req.instr, &mut self.poisoned_reads)
            }
            // A local write into an absent line (RCC).
            (None, None) => {
                self.ensure_way(addr, ctx);
                self.stats[kind].misses += 1;
                let mut line = Line {
                    state: step.hold,
                    data: 0,
                    poisoned: false,
                };
                let value = Self::access(&mut line, &req.instr, &mut self.poisoned_reads);
                self.array.insert(addr, line);
                value
            }
            // A write-through ahead of an atomic: the atomic waits behind
            // it and runs again on its WtAck.
            (Some(TState::WT_A), line) => {
                let line = line.copied();
                self.request(addr, step, line, None, false, ctx);
                let mshr = self.mshrs.get_mut(&addr.0).expect("just opened");
                mshr.pending.push_back(req);
                return;
            }
            (Some(_), line) => {
                let line = line.copied();
                self.stats[kind].misses += 1;
                self.request(addr, step, line, Some(req), false, ctx);
                return;
            }
        };
        if matches!(req.instr, Instr::Store { order, .. } if order.is_release()) {
            self.release(req.tag, ctx);
        } else {
            self.respond(req.tag, value, ctx);
        }
    }

    /// RFO hint from a TSO store buffer: acquire write permission early so
    /// the in-order drain hits. Never queued behind an existing
    /// transaction — it is only a hint — and meaningless where stores need
    /// no ownership (RCC).
    fn prefetch(&mut self, req: CoreReq, addr: Addr, ctx: &mut Ctx<'_, SysMsg>) {
        self.respond(req.tag, 0, ctx);
        if !self.cfg.family.enforces_swmr() || self.mshrs.contains_key(&addr.0) {
            return;
        }
        let line = self.array.get_mut(addr).copied();
        let step = self
            .steps
            .must(line.map_or(StableState::I, |l| l.state), L1Event::Store);
        if step.request.is_some() {
            self.stats[AccessKind::Store as usize].misses += 1;
            self.request(addr, step, line, Some(req), false, ctx);
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
        debug_assert!(
            matches!(initiator.instr, Instr::Load { .. }) || state.can_write(),
            "a write filled without write permission"
        );
        let value = Self::access(&mut line, &initiator.instr, &mut self.poisoned_reads);
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
            ctx.trace_state(Some(addr.0), &mshr.tstate, &state);
        }
        if !matches!(initiator.instr, Instr::Prefetch { .. }) {
            self.respond(initiator.tag, value, ctx);
        }
        if self.cfg.family.enforces_swmr() {
            let unblock = HostMsg::Unblock {
                addr,
                to_state: state,
            };
            self.send_dir(unblock, ctx);
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

    /// A forward or invalidation. A stable line, or the readable copy an
    /// upgrade (`SM_AD`) still holds, runs its step; an upgrader whose copy
    /// the step drops falls back to `IM_AD` and lets its own grant refill
    /// the line. Evictions in flight answer from their MSHR.
    fn snoop(
        &mut self,
        addr: Addr,
        event: L1Event,
        requestor: ComponentId,
        grant: Grant,
        acks: u32,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        let tstate = self.mshrs.get(&addr.0).map(|m| m.tstate);
        if tstate.is_some_and(|t| t != TState::SM_AD) {
            return self.snoop_evicting(addr, event, requestor, grant, acks, ctx);
        }
        let resident = self.array.peek(addr).copied();
        let Some((line, step)) = resident.and_then(|l| Some((l, self.steps.get(l.state, event)?)))
        else {
            let state = self.line_state(addr).name();
            return self.violation(state, event.name(), addr, ctx);
        };
        #[cfg(debug_assertions)]
        self.assert_conforms(event.name(), addr);
        if step.hold == StableState::I {
            self.array.remove(addr);
            self.hint_core(addr, ctx);
            if let Some(m) = self.mshrs.get_mut(&addr.0) {
                m.tstate = TState::IM_AD;
            }
        } else {
            self.array.get_mut(addr).expect("resident").state = step.hold;
        }
        if ctx.tracing() {
            ctx.trace_state(Some(addr.0), &line.state, &step.hold);
        }
        let dirty = line.state.is_dirty();
        if step.data_to_req {
            let data = HostMsg::Data {
                addr,
                data: line.data,
                grant,
                acks,
                dirty,
                poisoned: line.poisoned,
            };
            ctx.send(requestor, SysMsg::Host(data));
        }
        if step.data_to_dir {
            let wb = HostMsg::DataToDir {
                addr,
                data: line.data,
                dirty,
                poisoned: line.poisoned,
            };
            self.send_dir(wb, ctx);
        }
        if step.inv_ack {
            ctx.send(requestor, SysMsg::Host(HostMsg::InvAck { addr }));
        }
    }

    /// A forward or invalidation that meets an eviction in flight: the
    /// eviction's buffered data still serves it.
    fn snoop_evicting(
        &mut self,
        addr: Addr,
        event: L1Event,
        requestor: ComponentId,
        grant: Grant,
        acks: u32,
        ctx: &mut Ctx<'_, SysMsg>,
    ) {
        use TState::*;
        let allowed: &[TState] = match event {
            // SI_A: an evicting ex-forwarder (MESIF).
            L1Event::FwdGetS => &[SI_A, MI_A, EI_A, OI_A],
            L1Event::FwdGetM => &[MI_A, EI_A, OI_A],
            _ => &[SI_A],
        };
        // An evicting supplier writes back where a stable M one does.
        let m_supplies = self.steps.get(StableState::M, L1Event::FwdGetS);
        let writes_back = m_supplies.is_some_and(|s| s.data_to_dir);
        let Some(mshr) = self.expect_mshr(addr, event.name(), allowed, ctx) else {
            return;
        };
        let (tstate, data, poisoned) = (mshr.tstate, mshr.data, mshr.poisoned);
        let dirty = matches!(tstate, MI_A | OI_A);
        let reply = match event {
            L1Event::Inv => HostMsg::InvAck { addr },
            _ => HostMsg::Data {
                addr,
                data,
                grant,
                acks,
                dirty,
                poisoned,
            },
        };
        // A remote writer takes the line over; an evicting E/M owner that
        // answers a read makes the directory's copy current and drains as
        // a sharer where suppliers do not stay owners (MESI/MESIF).
        let wb = event == L1Event::FwdGetS && matches!(tstate, MI_A | EI_A) && writes_back;
        match event {
            L1Event::FwdGetS if wb => mshr.tstate = SI_A,
            L1Event::FwdGetS => {}
            _ => mshr.tstate = II_A,
        }
        ctx.send(requestor, SysMsg::Host(reply));
        if wb {
            let wb = HostMsg::DataToDir {
                addr,
                data,
                dirty,
                poisoned,
            };
            self.send_dir(wb, ctx);
        }
    }

    /// The MSHR of `addr` when `event` may meet it there (in one of
    /// `allowed`); otherwise the event is recorded as a violation.
    fn expect_mshr(
        &mut self,
        addr: Addr,
        event: &'static str,
        allowed: &[TState],
        ctx: &mut Ctx<'_, SysMsg>,
    ) -> Option<&mut Mshr> {
        if !self
            .mshrs
            .get(&addr.0)
            .is_some_and(|m| allowed.contains(&m.tstate))
        {
            let state = self.table_state(addr);
            self.violation(state, event, addr, ctx);
            return None;
        }
        #[cfg(debug_assertions)]
        self.assert_conforms(event, addr);
        self.mshrs.get_mut(&addr.0)
    }

    fn handle_host(&mut self, msg: HostMsg, ctx: &mut Ctx<'_, SysMsg>) {
        use TState::*;
        let addr = msg.addr();
        match msg {
            HostMsg::Data {
                data,
                grant,
                acks,
                poisoned,
                ..
            } => {
                let Some(mshr) = self.expect_mshr(addr, "Data", &[IS_D, IM_AD, SM_AD], ctx) else {
                    return;
                };
                mshr.data = data;
                mshr.poisoned |= poisoned;
                mshr.data_received = true;
                mshr.acks += acks as i32;
                debug_assert!(mshr.tstate == IS_D || grant == Grant::M);
                if mshr.tstate == IS_D {
                    debug_assert_eq!(acks, 0);
                    self.complete_fill(addr, grant.state(), ctx);
                } else if mshr.acks > 0 {
                    mshr.tstate = if mshr.tstate == IM_AD { IM_A } else { SM_A };
                } else {
                    self.complete_fill(addr, StableState::M, ctx);
                }
            }
            HostMsg::InvAck { .. } => {
                let allowed = [IM_AD, SM_AD, IM_A, SM_A];
                let Some(mshr) = self.expect_mshr(addr, "InvAck", &allowed, ctx) else {
                    return;
                };
                mshr.acks -= 1;
                if matches!(mshr.tstate, IM_A | SM_A) && mshr.acks <= 0 {
                    self.complete_fill(addr, StableState::M, ctx);
                }
            }
            HostMsg::FwdGetS {
                requestor, grant, ..
            } => self.snoop(addr, L1Event::FwdGetS, requestor, grant, 0, ctx),
            HostMsg::FwdGetM {
                requestor, acks, ..
            } => self.snoop(addr, L1Event::FwdGetM, requestor, Grant::M, acks, ctx),
            HostMsg::Inv { requestor, .. } => {
                self.invalidations_received += 1;
                self.snoop(addr, L1Event::Inv, requestor, Grant::M, 0, ctx);
            }
            HostMsg::PutAck { .. } => {
                let allowed = [MI_A, OI_A, EI_A, SI_A, II_A];
                if self.expect_mshr(addr, "PutAck", &allowed, ctx).is_some() {
                    self.retire_mshr(addr, ctx);
                }
            }
            HostMsg::WtAck { .. } => {
                let Some(mshr) = self.expect_mshr(addr, "WtAck", &[WT_A], ctx) else {
                    return;
                };
                let from_release = mshr.from_release;
                self.retire_mshr(addr, ctx);
                if from_release {
                    let rel = self.release.as_mut().expect("release in progress");
                    rel.remaining -= 1;
                    if rel.remaining == 0 {
                        let tag = self.release.take().expect("present").tag;
                        self.respond(tag, 0, ctx);
                    }
                }
            }
            HostMsg::AtomicResp { old, .. } => {
                if self.expect_mshr(addr, "AtomicResp", &[AT_D], ctx).is_none() {
                    return;
                }
                let mshr = self.mshrs.remove(&addr.0).expect("checked above");
                let initiator = mshr.initiator.expect("atomic has initiator");
                let latency = ctx.now.since(mshr.started);
                self.stats[AccessKind::Rmw as usize].bands.record(latency);
                self.stats[AccessKind::Rmw as usize].hist.record(latency);
                ctx.trace_end(mshr.txn);
                self.respond(initiator.tag, old, ctx);
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
            SysMsg::Host(h) => self.handle_host(h, ctx),
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
/// a stable state render the [`L1Steps`] the controller executes; the
/// transient-state rows are written out here, because SSPs omit
/// transients by design. Debug builds assert every dynamic handler step
/// against this table; `c3-verif::static_checks` and the `protocheck`
/// binary check the table itself offline.
pub fn l1_transition_table(family: ProtocolFamily) -> TransitionTable {
    l1_table_from_spec(&SspSpec::for_family(family))
}

/// [`l1_transition_table`] for any spec: its stable rows render the steps
/// [`L1Steps::compile`] builds from `spec`, the ones an
/// [`L1Controller::with_spec`] runs.
///
/// # Panics
///
/// Panics if `spec` does not compile.
pub fn l1_table_from_spec(spec: &SspSpec) -> TransitionTable {
    type R = TransitionRow;
    let family = spec.family;
    let swmr = family.enforces_swmr();
    let steps = L1Steps::compile(spec);
    let mut rows: Vec<TransitionRow> = Vec::new();
    for tr in &spec.transitions {
        // The sync points are not table events.
        let tabled = L1Event::of(tr.event)
            .iter()
            .filter(|e| !matches!(e, L1Event::Acquire | L1Event::Release));
        for &event in tabled {
            if let Some(step) = steps.get(tr.from, event) {
                let provenance = format!("ssp:{family} {} {}", tr.from, tr.event.name());
                rows.push(step.row(tr.from, event, provenance));
            }
        }
    }
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
    for g in spec.read_grants() {
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
            rows.extend(swmr_transient_rows(spec, &t));
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
        // the directory engine (its `direngine` table has no stalls)
        // produces the rest.
        assumed_available: events,
        rows,
    }
}

/// The SWMR transient-state rows for the directory's responses and
/// forwards (the `IS_D` grants are shared with RCC).
fn swmr_transient_rows(spec: &SspSpec, transients: &[&'static str]) -> Vec<TransitionRow> {
    let done = [
        Action::complete("CoreResp", Vnet::Resp, "core"),
        Action::send("Unblock", Vnet::Resp, "bridge"),
    ];
    let data = [Action::send("Data", Vnet::Resp, "l1")];
    let data_wb = [
        data[0].clone(),
        Action::send("DataToDir", Vnet::Resp, "bridge"),
    ];
    let ack = [Action::send("InvAck", Vnet::Resp, "l1")];
    // Evictions of a line the directory may still forward to.
    let supplier_evictions: Vec<&'static str> = ["MI_A", "EI_A", "OI_A"]
        .into_iter()
        .filter(|t| transients.contains(t))
        .collect();
    let owner_stays = spec.owner_stays_on_fwd_gets();
    let mut rows = Vec::new();
    let mut next = |s, e, to, acts: &[Action], why| {
        let why = format!("l1.rs:handle_host/{why}");
        rows.push(TransitionRow::next(s, e, to, acts.to_vec(), why));
    };
    // GetM is always granted M, once every invalidation ack is in.
    for (t, awaiting) in [("IM_AD", "IM_A"), ("SM_AD", "SM_A")] {
        next(t, "Data", "M", &done, "Data-acks-settled");
        next(t, "Data", awaiting, &[], "Data-awaiting-acks");
        next(t, "InvAck", t, &[], "InvAck-early");
        next(awaiting, "InvAck", awaiting, &[], "InvAck");
        next(awaiting, "InvAck", "M", &done, "InvAck-last");
    }
    // FwdGetS mid-transaction: the line still supplies data. An evicting
    // supplier stays owner where the SSP keeps suppliers owning (MOESI),
    // else it makes the directory's copy current and drops to SI_A.
    for t in ["SM_AD", "SI_A"] {
        next(t, "FwdGetS", t, &data, "FwdGetS@transient");
    }
    for &t in &supplier_evictions {
        if owner_stays {
            next(t, "FwdGetS", t, &data, "FwdGetS@evict(owner)");
        } else {
            next(t, "FwdGetS", "SI_A", &data_wb, "FwdGetS@evict");
        }
        next(t, "FwdGetM", "II_A", &data, "FwdGetM@evict");
    }
    next("SM_AD", "FwdGetM", "IM_AD", &data, "FwdGetM@SM_AD");
    next("SM_AD", "Inv", "IM_AD", &ack, "Inv@SM_AD");
    next("SI_A", "Inv", "II_A", &ack, "Inv@SI_A");
    for t in supplier_evictions.into_iter().chain(["SI_A", "II_A"]) {
        next(t, "PutAck", "I", &[], "PutAck");
    }
    for (e, why) in [
        ("Data", "Data without a matching MSHR"),
        ("InvAck", "InvAck without a matching MSHR"),
        ("FwdGetS", "forward to a non-supplier or absent line"),
        ("FwdGetM", "forward to a non-supplier or absent line"),
        ("Inv", "Inv for a non-shared line"),
        ("PutAck", "PutAck without an eviction MSHR"),
    ] {
        let at = if e.starts_with("Fwd") { "Fwd" } else { e };
        let at = format!("l1.rs:handle_host/{at}");
        rows.push(TransitionRow::forbidden(ANY_STATE, e, why, at));
    }
    rows
}

/// The RCC transient-state rows for the directory's responses (the
/// `IS_D` grants are shared with SWMR).
fn rcc_transient_rows() -> Vec<TransitionRow> {
    type R = TransitionRow;
    let resp = Action::complete("CoreResp", Vnet::Resp, "core");
    let at = "l1.rs:handle_host";
    let mut rows = vec![
        // An eviction write-through retires to I; a release-flush one
        // retains the clean copy.
        R::next("WT_A", "WtAck", "I", vec![], "l1.rs:handle_host/WtAck"),
        R::next(
            "WT_A",
            "WtAck",
            "S",
            vec![],
            format!("{at}/WtAck-release-retain"),
        ),
        R::next(
            "AT_D",
            "AtomicResp",
            "I",
            vec![resp],
            format!("{at}/AtomicResp"),
        ),
    ];
    for e in ["Data", "WtAck", "AtomicResp"] {
        rows.push(R::forbidden(
            ANY_STATE,
            e,
            "response without a matching MSHR",
            at,
        ));
    }
    rows
}
