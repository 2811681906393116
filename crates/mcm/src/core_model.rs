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
//! Each issue pass sweeps the reorder-buffer window once, folding the
//! instructions it passes into an [`OrderFrontier`], so a pass costs
//! O(window) however long the program is.

use std::any::Any;

use c3_protocol::mcm::{Mcm, OrderFrontier};
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
    finished_at: Option<Time>,
    retired: u64,
    squashes: u64,
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
            finished_at: None,
            retired: 0,
            squashes: 0,
        }
    }

    /// Register value (litmus observation).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
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

    fn try_issue(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let n = self.program.len();
        let mut gate = std::mem::take(&mut self.gate);
        loop {
            let mut issued_any = false;
            // Advance past the completed prefix (retirement pointer).
            while self.oldest < n && self.state[self.oldest] == OpState::Done {
                self.oldest += 1;
            }
            // Consider only the reorder-buffer window of instructions. Each
            // instruction is folded into the gate after its own decision,
            // so later ones see the states that decision left.
            let horizon = (self.oldest + ROB_LOOKAHEAD).min(n);
            gate.clear();
            for j in self.oldest..horizon {
                let instr = self.program.instrs[j];
                if self.state[j] == OpState::Waiting {
                    if self.inflight >= self.cfg.window {
                        break;
                    }
                    if gate.admits(self.cfg.mcm, &instr) {
                        issued_any |= self.issue(j, instr, ctx);
                    }
                }
                gate.push(&instr, self.state[j] == OpState::Done, self.cfg.family);
            }
            if !issued_any {
                break;
            }
        }
        self.gate = gate;
        if self.finished_at.is_none() && self.program_complete() {
            self.finished_at = Some(ctx.now);
        }
    }

    /// Issue the admitted instruction `j`; false if a structural hazard
    /// (store-buffer state) holds it back.
    fn issue(&mut self, j: usize, instr: Instr, ctx: &mut Ctx<'_, SysMsg>) -> bool {
        let tso = self.cfg.mcm == Mcm::Tso;
        match instr {
            Instr::Work(cycles) => {
                self.state[j] = OpState::Issued;
                self.inflight += 1;
                ctx.wake_after(Delay::from_cycles(cycles as u64, 2_000), j as u64);
            }
            Instr::Fence(_) if self.cfg.family != ProtocolFamily::Rcc => {
                // TSO full fences drain the store buffer first.
                if tso && (!self.store_buffer.is_empty() || self.drain_inflight) {
                    return false;
                }
                // Pure ordering: completes as soon as it may issue.
                self.state[j] = OpState::Done;
                self.retired += 1;
            }
            Instr::Store { addr, .. } if tso => {
                // Retire into the store buffer; the drain makes the
                // store visible in order, off the critical path.
                if self.store_buffer.len() >= STORE_BUFFER_CAP {
                    return false; // buffer full: stall this store
                }
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
            Instr::Rmw { .. } if tso => {
                // Atomics serialize with the store buffer.
                if !self.store_buffer.is_empty() || self.drain_inflight {
                    return false;
                }
                self.issue_to_l1(j, instr, ctx);
            }
            _ => self.issue_to_l1(j, instr, ctx),
        }
        true
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
}
