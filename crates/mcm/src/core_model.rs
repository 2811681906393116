//! The out-of-order timing core with a configurable memory consistency
//! model.
//!
//! Follows the paper's methodology (§V): rather than modelling different
//! ISAs, one core model exposes a single ordering knob — like gem5's
//! `needsTSO` flag — so performance differences are attributable to the
//! MCM alone. The core keeps a window of in-flight memory operations; an
//! operation may issue when every program-earlier, still-incomplete
//! operation that [`c3_protocol::mcm::must_order`] orders before it has
//! completed. TSO therefore drains stores in order (the store-buffer
//! effect) while the weak model overlaps them.
//!
//! Each call makes one forward pass over the reorder-buffer window,
//! folding the instructions it passes into an [`OrderFrontier`], and
//! stops where nothing more can issue:
//! - at the first barrier, an incomplete `Work` or an incomplete fence on
//!   an RCC cluster, since nothing later may issue past it;
//! - when the memory window is full;
//! - at the lookahead horizon, which moves with the retirement pointer
//!   when the pass completes the oldest instructions (a completed prefix
//!   folds to nothing, so the gate carries over unchanged).
//!
//! Once the frontier blocks every access, the pass steps over the rest of
//! the accesses and decides only the work and fences the frontier never
//! orders. A pass that stops at an issued `Work` with nothing before it
//! left waiting (a stepped-over access counts as waiting) parks the core:
//! completing an instruction before that `Work` cannot issue anything, so
//! it only moves the retirement pointer. Debug builds check after every
//! pass and every parked completion that a full sweep of the window, run
//! dry, finds nothing left to issue.

use std::any::Any;

use c3_protocol::mcm::{classify, Mcm, OrderFrontier};
use c3_protocol::msg::{CoreReq, CoreResp, SysMsg};
use c3_protocol::ops::{Instr, Reg, ThreadProgram};
use c3_protocol::states::ProtocolFamily;
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::rng::SimRng;
use c3_sim::stats::Report;
use c3_sim::time::{Delay, Time};

/// Timing-core configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Memory consistency model enforced by the issue logic.
    pub mcm: Mcm,
    /// The cluster's coherence protocol (RCC cores hand fences to the L1).
    pub family: ProtocolFamily,
    /// Maximum in-flight memory operations (memory window of the 8-wide
    /// OoO core of Table III).
    pub window: usize,
    /// Fixed delay before the first instruction issues (litmus runs use
    /// random staggering here).
    pub start_delay: Delay,
    /// Maximum random per-operation issue jitter in cycles (models
    /// pipeline variability; also diversifies litmus interleavings).
    pub issue_jitter: u32,
}

impl CoreConfig {
    /// Paper-like defaults for the given MCM and protocol.
    pub fn new(mcm: Mcm, family: ProtocolFamily) -> Self {
        CoreConfig {
            mcm,
            family,
            window: 32,
            start_delay: Delay::ZERO,
            issue_jitter: 2,
        }
    }

    /// Override the start delay.
    pub fn with_start_delay(mut self, d: Delay) -> Self {
        self.start_delay = d;
        self
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpState {
    Waiting,
    Issued,
    Done,
}

/// Instructions examined beyond the oldest incomplete one (the 192-entry
/// ROB of Table III, scaled to the memory-operation window).
const ROB_LOOKAHEAD: usize = 48;

/// TSO store-buffer capacity (x86 cores have 40–70 entries; scaled to the
/// memory-operation window).
const STORE_BUFFER_CAP: usize = 6;

/// Tag bit marking RFO-prefetch responses (dropped by the core).
const PREFETCH_TAG: u64 = 1 << 62;

/// The issue rule for one sweep of the window: the MCM's ordering
/// frontier plus the core's own micro-architectural barrier.
#[derive(Debug, Default)]
struct IssueGate {
    order: OrderFrontier,
    /// An incomplete `Work` (non-overlappable front-end compute) or an
    /// incomplete fence on an RCC cluster (which must reach the L1) was
    /// passed: nothing later may issue.
    barrier: bool,
}

impl IssueGate {
    fn clear(&mut self) {
        self.order.clear();
        self.barrier = false;
    }

    /// May `instr` perform now, given every instruction pushed so far?
    fn admits(&self, mcm: Mcm, instr: &Instr) -> bool {
        // TSO loads *issue* speculatively out of order (gem5's O3 does the
        // same): the architectural load-load order is enforced by
        // invalidation-triggered squashes (see `squash_loads`), not by
        // serializing issue. Ordering checks for a TSO load therefore use
        // the weak matrix — same-address ordering, fences and annotations
        // still apply.
        let mcm = if mcm == Mcm::Tso && matches!(instr, Instr::Load { .. }) {
            Mcm::Weak
        } else {
            mcm
        };
        !self.barrier && !self.order.blocks(mcm, instr)
    }

    /// Fold in the next instruction of the sweep, in its current state.
    fn push(&mut self, instr: &Instr, done: bool, family: ProtocolFamily) {
        self.barrier |= !done
            && match instr {
                Instr::Work(_) => true,
                Instr::Fence(_) => family == ProtocolFamily::Rcc,
                _ => false,
            };
        self.order.push(instr, !done);
    }
}

/// Exact work counts of a core's issue logic. They depend only on the
/// seed, so a test can pin them where a wall-clock floor would flake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueCost {
    /// Issue passes run.
    pub passes: u64,
    /// Completions that ran no pass, the core being parked at an
    /// incomplete `Work` with nothing waiting before it.
    pub parked: u64,
    /// Window entries the passes visited.
    pub visited: u64,
}

impl IssueCost {
    /// Accumulate another core's counts.
    pub fn merge(&mut self, other: IssueCost) {
        self.passes += other.passes;
        self.parked += other.parked;
        self.visited += other.visited;
    }
}

/// The timing core component.
#[derive(Debug)]
pub struct TimingCore {
    name: String,
    l1: ComponentId,
    cfg: CoreConfig,
    program: ThreadProgram,
    state: Vec<OpState>,
    oldest: usize,
    /// Issued `Work` and L1 requests not yet completed.
    inflight: usize,
    /// TSO store buffer: retired-but-undrained stores (instruction
    /// indices), drained to the L1 strictly in order. This is what makes
    /// TSO's store→load reordering *and* its realistic performance: the
    /// core retires a store into the buffer and moves on.
    store_buffer: std::collections::VecDeque<usize>,
    drain_inflight: bool,
    regs: [u64; 32],
    rng: SimRng,
    /// Reused across issue passes so a pass allocates nothing.
    gate: IssueGate,
    /// Where the last pass stopped at an issued, incomplete `Work` with
    /// nothing before it left waiting, if it did: until that `Work`
    /// completes, completions before it run no pass.
    parked: Option<usize>,
    finished_at: Option<Time>,
    retired: u64,
    squashes: u64,
    cost: IssueCost,
}

impl TimingCore {
    /// Create a core running `program` against `l1`. `seed` feeds the
    /// issue-jitter stream (forked per core by the caller).
    pub fn new(
        name: impl Into<String>,
        l1: ComponentId,
        cfg: CoreConfig,
        program: ThreadProgram,
        seed: u64,
    ) -> Self {
        let n = program.len();
        TimingCore {
            name: name.into(),
            l1,
            cfg,
            program,
            state: vec![OpState::Waiting; n],
            oldest: 0,
            inflight: 0,
            store_buffer: std::collections::VecDeque::new(),
            drain_inflight: false,
            regs: [0; 32],
            rng: SimRng::seed_from(seed),
            gate: IssueGate {
                order: OrderFrontier::with_capacity(ROB_LOOKAHEAD),
                barrier: false,
            },
            parked: None,
            finished_at: None,
            retired: 0,
            squashes: 0,
            cost: IssueCost::default(),
        }
    }

    /// Register value (litmus observation).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// The issue logic's work so far.
    pub fn issue_cost(&self) -> IssueCost {
        self.cost
    }

    /// Completion time, if the program has finished.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// Every instruction has retired and the store buffer has drained.
    /// The retirement pointer is current whenever no issue pass runs.
    fn program_complete(&self) -> bool {
        self.oldest == self.program.len() && self.store_buffer.is_empty() && !self.drain_inflight
    }

    /// A line was invalidated/lost: squash speculatively completed TSO
    /// loads of that line that are not yet retired (an older instruction
    /// is still incomplete) — they re-issue and read the fresh value.
    fn squash_loads(&mut self, addr: c3_protocol::ops::Addr, ctx: &mut Ctx<'_, SysMsg>) {
        if self.cfg.mcm != Mcm::Tso {
            return; // weak/SC cores take no ordering obligation from this
        }
        let n = self.program.len();
        let horizon = (self.oldest + ROB_LOOKAHEAD).min(n);
        let mut squashed = false;
        for j in self.oldest..horizon {
            if self.state[j] != OpState::Done {
                continue;
            }
            if let Instr::Load { addr: a, .. } = self.program.instrs[j] {
                if a == addr && j > self.oldest {
                    self.state[j] = OpState::Waiting;
                    self.retired -= 1;
                    self.squashes += 1;
                    squashed = true;
                }
            }
        }
        if squashed {
            self.try_issue(ctx);
        }
    }

    /// Advance the retirement pointer past the completed prefix.
    fn retire(&mut self) {
        let n = self.program.len();
        while self.oldest < n && self.state[self.oldest] == OpState::Done {
            self.oldest += 1;
        }
    }

    /// One forward pass over the window (see the module doc): issue every
    /// instruction the gate admits, in program order, and stop where
    /// nothing later can issue.
    fn try_issue(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let n = self.program.len();
        let mut gate = std::mem::take(&mut self.gate);
        gate.clear();
        self.retire();
        self.cost.passes += 1;
        self.parked = None;
        // Whether an instruction the pass left behind may still issue.
        let mut left_waiting = false;
        // Each instruction is folded into the gate after its own decision,
        // so later ones see the states that decision left.
        let mut j = self.oldest;
        while j < (self.oldest + ROB_LOOKAHEAD).min(n) {
            self.cost.visited += 1;
            let instr = self.program.instrs[j];
            let waiting = self.state[j] == OpState::Waiting;
            if waiting && self.inflight >= self.cfg.window {
                break;
            }
            if gate.order.blocks_every_access() && classify(&instr).is_some() {
                // Stepped over: blocked, and folding it decides nothing. It
                // may issue once its blocker completes.
                left_waiting = true;
                j += 1;
                continue;
            }
            if waiting && gate.admits(self.cfg.mcm, &instr) && !self.hazard(&instr) {
                self.issue(j, instr, ctx);
            }
            let done = self.state[j] == OpState::Done;
            if done && j == self.oldest {
                // Nothing is folded yet, so the gate stays empty while the
                // retirement pointer, and the horizon with it, moves on.
                self.retire();
                j = self.oldest;
                continue;
            }
            gate.push(&instr, done, self.cfg.family);
            if gate.barrier {
                let working = matches!(instr, Instr::Work(_)) && self.state[j] == OpState::Issued;
                if working && !left_waiting {
                    self.parked = Some(j);
                }
                break;
            }
            left_waiting |= self.state[j] == OpState::Waiting;
            j += 1;
        }
        debug_assert_eq!(self.dry_sweep(&mut gate), None, "the pass stopped early");
        self.gate = gate;
        if self.finished_at.is_none() && self.program_complete() {
            self.finished_at = Some(ctx.now);
        }
    }

    /// The first instruction a full sweep of the window would issue now,
    /// without issuing it: the exhaustive form of the pass, which must
    /// find nothing after one. Sweeps through `gate`, so it allocates
    /// nothing.
    fn dry_sweep(&self, gate: &mut IssueGate) -> Option<usize> {
        let n = self.program.len();
        if self.oldest < n && self.state[self.oldest] == OpState::Done {
            return Some(self.oldest); // the retirement pointer lags
        }
        gate.clear();
        for j in self.oldest..(self.oldest + ROB_LOOKAHEAD).min(n) {
            let instr = self.program.instrs[j];
            if self.state[j] == OpState::Waiting {
                if self.inflight >= self.cfg.window {
                    break;
                }
                if gate.admits(self.cfg.mcm, &instr) && !self.hazard(&instr) {
                    return Some(j);
                }
            }
            gate.push(&instr, self.state[j] == OpState::Done, self.cfg.family);
        }
        None
    }

    /// A structural hazard holds the admitted `instr` back: on TSO, a
    /// full store buffer stalls a store, and a fence or an RMW waits for
    /// the buffer to drain. Reads state only.
    fn hazard(&self, instr: &Instr) -> bool {
        if self.cfg.mcm != Mcm::Tso {
            return false;
        }
        let draining = !self.store_buffer.is_empty() || self.drain_inflight;
        match instr {
            Instr::Fence(_) => self.cfg.family != ProtocolFamily::Rcc && draining,
            Instr::Store { .. } => self.store_buffer.len() >= STORE_BUFFER_CAP,
            Instr::Rmw { .. } => draining,
            _ => false,
        }
    }

    /// Issue instruction `j`, which the gate admits and no hazard holds.
    fn issue(&mut self, j: usize, instr: Instr, ctx: &mut Ctx<'_, SysMsg>) {
        let tso = self.cfg.mcm == Mcm::Tso;
        match instr {
            Instr::Work(cycles) => {
                self.state[j] = OpState::Issued;
                self.inflight += 1;
                ctx.wake_after(Delay::from_cycles(cycles as u64, 2_000), j as u64);
            }
            Instr::Fence(_) if self.cfg.family != ProtocolFamily::Rcc => {
                // Pure ordering (a TSO fence has waited for the store
                // buffer to drain): completes as soon as it may issue.
                self.state[j] = OpState::Done;
                self.retired += 1;
            }
            Instr::Store { addr, .. } if tso => {
                // Retire into the store buffer; the drain makes the
                // store visible in order, off the critical path.
                self.state[j] = OpState::Done;
                self.retired += 1;
                self.store_buffer.push_back(j);
                // RFO prefetch: overlap the miss latency so the
                // in-order drain usually hits (x86 store buffers
                // issue ownership requests for all entries). The
                // issue time varies — RFOs fire when buffer slots
                // are scheduled, not instantaneously — which also
                // lets younger loads overtake the store (the
                // store-buffering behaviour of SB litmus tests).
                let rfo_jitter = self.rng.below(24);
                ctx.send_direct(
                    self.l1,
                    SysMsg::CoreReq(CoreReq {
                        tag: PREFETCH_TAG | j as u64,
                        instr: Instr::Prefetch { addr },
                    }),
                    Delay::from_cycles(1 + rfo_jitter, 2_000),
                );
                self.pump_drain(ctx);
            }
            Instr::Load { addr, reg, .. } if tso => {
                // Store-to-load forwarding from the buffer.
                if let Some(val) = self.forward_from_buffer(addr, j) {
                    self.state[j] = OpState::Done;
                    self.retired += 1;
                    self.regs[reg.0 as usize] = val;
                } else {
                    self.issue_to_l1(j, instr, ctx);
                }
            }
            // A TSO RMW has waited for the store buffer to drain.
            _ => self.issue_to_l1(j, instr, ctx),
        }
    }

    fn issue_to_l1(&mut self, j: usize, instr: Instr, ctx: &mut Ctx<'_, SysMsg>) {
        self.state[j] = OpState::Issued;
        self.inflight += 1;
        let jitter = if self.cfg.issue_jitter > 0 {
            self.rng.below(self.cfg.issue_jitter as u64 + 1)
        } else {
            0
        };
        ctx.send_direct(
            self.l1,
            SysMsg::CoreReq(CoreReq {
                tag: j as u64,
                instr,
            }),
            Delay::from_cycles(1 + jitter, 2_000),
        );
    }

    /// Youngest buffered store to `addr` older than instruction `j`.
    fn forward_from_buffer(&self, addr: c3_protocol::ops::Addr, j: usize) -> Option<u64> {
        self.store_buffer
            .iter()
            .rev()
            .filter(|&&i| i < j)
            .find_map(|&i| match self.program.instrs[i] {
                Instr::Store { addr: a, val, .. } if a == addr => Some(val),
                _ => None,
            })
    }

    /// Issue the next buffered store to the L1 (FIFO drain). A store only
    /// becomes drain-eligible a commit-latency after entering the buffer —
    /// this residency is what lets younger loads overtake it (the
    /// store-buffering behaviour SB litmus tests observe).
    fn pump_drain(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        if self.drain_inflight {
            return;
        }
        let Some(&j) = self.store_buffer.front() else {
            return;
        };
        self.drain_inflight = true;
        ctx.send_direct(
            self.l1,
            SysMsg::CoreReq(CoreReq {
                tag: j as u64,
                instr: self.program.instrs[j],
            }),
            Delay::from_cycles(25, 2_000),
        );
    }

    fn complete(&mut self, j: usize, value: u64, ctx: &mut Ctx<'_, SysMsg>) {
        // A response for an already-retired store is a drain completion.
        if self.state[j] == OpState::Done {
            debug_assert_eq!(self.store_buffer.front(), Some(&j));
            self.store_buffer.pop_front();
            self.drain_inflight = false;
            self.pump_drain(ctx);
            self.try_issue(ctx); // fences / atomics may unblock
            return;
        }
        debug_assert_eq!(self.state[j], OpState::Issued);
        self.state[j] = OpState::Done;
        self.inflight -= 1;
        self.retired += 1;
        match self.program.instrs[j] {
            Instr::Load { reg, .. } | Instr::Rmw { reg, .. } => {
                self.regs[reg.0 as usize] = value;
            }
            _ => {}
        }
        if self.parked.is_some_and(|b| j < b) {
            // Nothing before the parked `Work` waits and nothing after it
            // may pass it, so a pass would issue nothing.
            self.retire();
            self.cost.parked += 1;
            let mut gate = std::mem::take(&mut self.gate);
            debug_assert_eq!(self.dry_sweep(&mut gate), None, "a parked core could issue");
            self.gate = gate;
            return;
        }
        self.try_issue(ctx);
    }
}

impl Component<SysMsg> for TimingCore {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        if self.cfg.start_delay > Delay::ZERO {
            ctx.wake_after(self.cfg.start_delay, u64::MAX);
        } else {
            self.try_issue(ctx);
        }
    }

    fn on_wake(&mut self, token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        if token == u64::MAX {
            self.try_issue(ctx);
            return;
        }
        // A Work instruction finished.
        self.complete(token as usize, 0, ctx);
    }

    fn handle(&mut self, msg: SysMsg, _src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        match msg {
            SysMsg::CoreResp(CoreResp { tag, .. }) if tag & PREFETCH_TAG != 0 => {}
            SysMsg::CoreResp(CoreResp { tag, value }) => self.complete(tag as usize, value, ctx),
            SysMsg::InvHint { addr } => self.squash_loads(addr, ctx),
            other => panic!("core received {other:?}"),
        }
    }

    fn done(&self) -> bool {
        self.program_complete()
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        out.counter(&self.name, "retired", self.retired as f64);
        out.counter(&self.name, "squashes", self.squashes as f64);
    }

    fn report(&self, out: &mut Report) {
        if let Some(t) = self.finished_at {
            out.set(format!("{}.finished_ns", self.name), t.as_ns() as f64);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_protocol::ops::{AccessOrder, Addr};
    use c3_sim::kernel::{RunOutcome, Simulator};
    use OpState::{Done, Issued, Waiting};

    /// The issue decision for instruction `j` in the core's current state,
    /// through the same gate sweep `try_issue` runs.
    fn may_issue(c: &TimingCore, j: usize) -> bool {
        let mut gate = IssueGate::default();
        for i in c.oldest..j {
            gate.push(
                &c.program.instrs[i],
                c.state[i] == OpState::Done,
                c.cfg.family,
            );
        }
        gate.admits(c.cfg.mcm, &c.program.instrs[j])
    }

    fn core(mcm: Mcm, program: ThreadProgram) -> TimingCore {
        TimingCore::new(
            "c",
            ComponentId(1),
            CoreConfig::new(mcm, ProtocolFamily::Mesi),
            program,
            7,
        )
    }

    #[test]
    fn tso_store_load_may_issue_out_of_order() {
        let p = ThreadProgram::new().store(Addr(1), 1).load(Addr(2), Reg(0));
        let c = core(Mcm::Tso, p);
        // The load (index 1) may issue although the store is incomplete.
        assert!(may_issue(&c, 1));
    }

    #[test]
    fn tso_stores_stay_ordered() {
        let p = ThreadProgram::new().store(Addr(1), 1).store(Addr(2), 1);
        let c = core(Mcm::Tso, p);
        assert!(!may_issue(&c, 1));
    }

    #[test]
    fn weak_overlaps_everything_across_addresses() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .store(Addr(2), 1)
            .load(Addr(3), Reg(0));
        let c = core(Mcm::Weak, p);
        assert!(may_issue(&c, 1));
        assert!(may_issue(&c, 2));
    }

    #[test]
    fn weak_respects_fence() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .fence()
            .store(Addr(2), 1);
        let c = core(Mcm::Weak, p);
        assert!(!may_issue(&c, 2));
    }

    #[test]
    fn same_address_never_reorders() {
        let p = ThreadProgram::new().store(Addr(1), 1).load(Addr(1), Reg(0));
        let c = core(Mcm::Weak, p);
        assert!(!may_issue(&c, 1));
    }

    #[test]
    fn release_store_waits_for_earlier_accesses() {
        let p = ThreadProgram::new()
            .store(Addr(1), 1)
            .instrs
            .into_iter()
            .chain([Instr::Store {
                addr: Addr(2),
                val: 1,
                order: AccessOrder::Release,
            }]);
        let p = ThreadProgram {
            instrs: p.collect(),
        };
        let c = core(Mcm::Weak, p);
        assert!(!may_issue(&c, 1));
    }

    #[test]
    fn work_blocks_later_issue() {
        let p = ThreadProgram::new().work(10).load(Addr(1), Reg(0));
        let c = core(Mcm::Weak, p);
        assert!(!may_issue(&c, 1));
    }

    /// An L1 stand-in: records when each request arrives and answers it
    /// `latency(tag)` cycles later, or never for `None`.
    struct StubL1 {
        arrivals: Vec<(u64, Time)>,
        latency: fn(u64) -> Option<u64>,
    }

    impl Component<SysMsg> for StubL1 {
        fn name(&self) -> String {
            "l1".into()
        }
        fn handle(&mut self, msg: SysMsg, src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
            let SysMsg::CoreReq(CoreReq { tag, .. }) = msg else {
                panic!("l1 received {msg:?}");
            };
            self.arrivals.push((tag, ctx.now));
            if let Some(cycles) = (self.latency)(tag) {
                let resp = SysMsg::CoreResp(CoreResp { tag, value: 0 });
                ctx.send_direct(src, resp, Delay::from_cycles(cycles, 2_000));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A core without issue jitter running `program` against a
    /// [`StubL1`], so every request of one issue pass arrives together.
    fn system(
        mcm: Mcm,
        program: ThreadProgram,
        latency: fn(u64) -> Option<u64>,
    ) -> Simulator<SysMsg> {
        let mut sim = Simulator::new(1);
        let l1 = sim.add_component(Box::new(StubL1 {
            arrivals: Vec::new(),
            latency,
        }));
        let cfg = CoreConfig {
            issue_jitter: 0,
            ..CoreConfig::new(mcm, ProtocolFamily::Mesi)
        };
        sim.add_component(Box::new(TimingCore::new("c", l1, cfg, program, 7)));
        sim
    }

    fn states(sim: &Simulator<SysMsg>) -> Vec<OpState> {
        sim.component_as::<TimingCore>(ComponentId(1))
            .unwrap()
            .state
            .clone()
    }

    #[test]
    fn nothing_issues_past_an_incomplete_work() {
        let p = ThreadProgram::new()
            .load(Addr(1), Reg(0))
            .work(1_000) // 500 ns
            .load(Addr(2), Reg(1))
            .fence()
            .store(Addr(3), 1);
        let mut sim = system(Mcm::Weak, p, |_| Some(1));
        sim.set_time_limit(Time::from_ns(400));
        assert_eq!(sim.run(), RunOutcome::TimeLimit);
        assert_eq!(states(&sim), [Done, Issued, Waiting, Waiting, Waiting]);
        sim.set_time_limit(Time::MAX);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(states(&sim), [Done; 5]);
    }

    #[test]
    fn work_issues_behind_an_access_that_blocks_every_later_one() {
        let rmw = ThreadProgram::new().rmw(Addr(1), 1, Reg(0));
        let acquire = ThreadProgram::new().load_acq(Addr(1), Reg(0));
        for blocker in [rmw, acquire] {
            // The frontier never orders work, so stepping over the blocked
            // load must not skip the work; the pass then ends at the work,
            // holding back the fence until it completes.
            let p = blocker
                .load(Addr(2), Reg(1))
                .work(1_000)
                .fence()
                .store(Addr(3), 1);
            let mut sim = system(Mcm::Weak, p, |tag| (tag != 0).then_some(1));
            sim.set_time_limit(Time::from_ns(400));
            assert_eq!(sim.run(), RunOutcome::TimeLimit);
            assert_eq!(states(&sim), [Issued, Waiting, Issued, Waiting, Waiting]);
            sim.set_time_limit(Time::MAX);
            assert_eq!(sim.run(), RunOutcome::Deadlock);
            assert_eq!(states(&sim), [Issued, Waiting, Done, Done, Waiting]);
        }
    }

    #[test]
    fn completions_before_an_issued_work_run_no_pass() {
        let cost = |sim: &Simulator<SysMsg>| {
            let c = sim.component_as::<TimingCore>(ComponentId(1)).unwrap();
            c.issue_cost()
        };
        // The first pass issues both loads and the work, and stops at the
        // work with nothing waiting: the loads' completions run no pass.
        let p = ThreadProgram::new()
            .load(Addr(1), Reg(0))
            .load(Addr(2), Reg(1))
            .work(1_000)
            .load(Addr(3), Reg(2));
        let mut sim = system(Mcm::Weak, p, |_| Some(1));
        assert_eq!(sim.run(), RunOutcome::Completed);
        let parked = IssueCost {
            passes: 3,
            parked: 2,
            visited: 4,
        };
        assert_eq!(cost(&sim), parked);
        // An acquire in front: the load behind it is stepped over, so it
        // counts as waiting and the acquire's completion runs the pass
        // that issues it. Only that load's completion is parked.
        let acquire = ThreadProgram::new().load_acq(Addr(1), Reg(0));
        let p = acquire
            .load(Addr(2), Reg(1))
            .work(1_000)
            .load(Addr(3), Reg(2));
        let mut sim = system(Mcm::Weak, p, |tag| Some(if tag == 0 { 100 } else { 1 }));
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(cost(&sim).parked, 1);
        assert_eq!(states(&sim), [Done; 4]);
    }

    #[test]
    fn completing_the_oldest_issues_beyond_the_old_horizon_in_one_call() {
        // Weak: the slow load 0 completes by a response, and the next pass
        // starts past the completed window. TSO: the fence at index 1
        // waits for store 0's slow drain; the pass that issues it retires
        // the window behind it and moves the horizon mid-pass.
        let weak = ThreadProgram::new();
        let tso = ThreadProgram::new().store(Addr(1 << 20), 1).fence();
        for (mcm, head, stalled_at) in [(Mcm::Weak, weak, 0), (Mcm::Tso, tso, 1)] {
            let old_horizon = (stalled_at + ROB_LOOKAHEAD) as u64;
            let p = (0..ROB_LOOKAHEAD as u64 + 12).fold(head, |p, a| p.load(Addr(a), Reg(0)));
            let beyond_count = p.len() - old_horizon as usize;
            // Tag 0 answers after 1 µs, everything else in one cycle, so
            // the rest of the old window completes long before it.
            let mut sim = system(mcm, p, |tag| Some(if tag == 0 { 2_000 } else { 1 }));
            assert_eq!(sim.run(), RunOutcome::Completed, "{mcm:?}");
            let l1 = sim.component_as::<StubL1>(ComponentId(0)).unwrap();
            let beyond: Vec<Time> = l1
                .arrivals
                .iter()
                .filter(|&&(tag, _)| tag & PREFETCH_TAG == 0 && tag >= old_horizon)
                .map(|&(_, at)| at)
                .collect();
            assert_eq!(beyond.len(), beyond_count, "{mcm:?}");
            assert!(beyond[0] > Time::from_ns(1_000), "{mcm:?} at {beyond:?}");
            assert!(
                beyond.iter().all(|&at| at == beyond[0]),
                "{mcm:?} at {beyond:?}"
            );
        }
    }

    #[test]
    fn a_full_window_stops_the_pass() {
        let window = CoreConfig::new(Mcm::Weak, ProtocolFamily::Mesi).window;
        let p = (0..=window as u64).fold(ThreadProgram::new(), |p, a| p.load(Addr(a), Reg(0)));
        // Nothing answers: the window fills and neither the next load nor
        // the work after it issues.
        let mut sim = system(Mcm::Weak, p.work(1), |_| None);
        assert_eq!(sim.run(), RunOutcome::Deadlock);
        let mut expect = vec![Issued; window];
        expect.extend([Waiting, Waiting]);
        assert_eq!(states(&sim), expect);
    }
}
