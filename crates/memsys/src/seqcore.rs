//! A simple in-order, one-outstanding-access core.
//!
//! `SeqCore` executes its program strictly sequentially (each access waits
//! for the previous one to complete), which makes it a *sequentially
//! consistent* reference processor. The OoO/TSO/weak timing cores live in
//! `c3-mcm`; this one is used by unit/integration tests and as the SC
//! baseline configuration.

use std::any::Any;

use c3_protocol::msg::{CoreReq, CoreResp, SysMsg};
use c3_protocol::ops::{Instr, Reg, ThreadProgram};
use c3_sim::component::{Component, ComponentId, Ctx};
use c3_sim::stats::Report;
use c3_sim::time::{Delay, Time};

/// Sequential core component: issues one instruction at a time.
#[derive(Debug)]
pub struct SeqCore {
    name: String,
    l1: ComponentId,
    program: ThreadProgram,
    pc: usize,
    regs: [u64; 32],
    issue_latency: Delay,
    waiting_tag: Option<u64>,
    finished_at: Option<Time>,
    instructions_retired: u64,
}

impl SeqCore {
    /// Create a core executing `program` against cache `l1`.
    pub fn new(name: impl Into<String>, l1: ComponentId, program: ThreadProgram) -> Self {
        SeqCore {
            name: name.into(),
            l1,
            program,
            pc: 0,
            regs: [0; 32],
            issue_latency: Delay::from_cycles(1, 2_000),
            waiting_tag: None,
            finished_at: None,
            instructions_retired: 0,
        }
    }

    /// Value of register `reg` (litmus outcome observation).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// Time at which the program finished, if it has.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        let Some(instr) = self.program.instrs.get(self.pc).copied() else {
            if self.finished_at.is_none() {
                self.finished_at = Some(ctx.now);
            }
            return;
        };
        match instr {
            Instr::Work(cycles) => {
                // Local compute: wake up after the delay, no L1 traffic.
                self.pc += 1;
                self.instructions_retired += 1;
                ctx.wake_after(Delay::from_cycles(cycles as u64, 2_000), 0);
            }
            _ => {
                let tag = self.pc as u64;
                self.waiting_tag = Some(tag);
                ctx.send_direct(
                    self.l1,
                    SysMsg::CoreReq(CoreReq { tag, instr }),
                    self.issue_latency,
                );
            }
        }
    }
}

impl Component<SysMsg> for SeqCore {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn start(&mut self, ctx: &mut Ctx<'_, SysMsg>) {
        self.issue_next(ctx);
    }

    fn on_wake(&mut self, _token: u64, ctx: &mut Ctx<'_, SysMsg>) {
        self.issue_next(ctx);
    }

    fn handle(&mut self, msg: SysMsg, _src: ComponentId, ctx: &mut Ctx<'_, SysMsg>) {
        if matches!(msg, SysMsg::InvHint { .. }) {
            return; // sequential cores never speculate
        }
        let SysMsg::CoreResp(CoreResp { tag, value }) = msg else {
            panic!("core received {msg:?}");
        };
        assert_eq!(Some(tag), self.waiting_tag, "response for wrong access");
        self.waiting_tag = None;
        let instr = self.program.instrs[self.pc];
        match instr {
            Instr::Load { reg, .. } | Instr::Rmw { reg, .. } => {
                self.regs[reg.0 as usize] = value;
            }
            _ => {}
        }
        self.pc += 1;
        self.instructions_retired += 1;
        self.issue_next(ctx);
    }

    fn done(&self) -> bool {
        self.pc >= self.program.len() && self.waiting_tag.is_none()
    }

    fn metrics(&self, out: &mut c3_sim::metrics::MetricSample) {
        out.counter(&self.name, "retired", self.instructions_retired as f64);
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
