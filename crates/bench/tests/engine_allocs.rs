//! A warmed directory engine and DCOH handle messages without
//! allocating.
//!
//! Both engines append their effects to a caller-owned buffer, keep
//! holder sets as `Copy` bitmasks and recycle per-line records, so once a
//! scripted transaction mix has run (registering the peers, growing the
//! line maps, the slabs' queues and the buffers), replaying it allocates
//! nothing. The binary runs under the counting allocator, and this file
//! holds a single test so no other test allocates concurrently.

use c3_bench::alloc::{alloc_count, CountingAlloc};
use c3_cxl::dcoh::{DcohEffect, DcohEngine};
use c3_memsys::direngine::{BackendPerms, DirEffect, DirEngine, RecallKind};
use c3_protocol::msg::{CxlMsg, Grant, HostMsg};
use c3_protocol::ops::Addr;
use c3_protocol::ssp::SspSpec;
use c3_protocol::StableState;
use c3_sim::component::ComponentId;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DIR: ComponentId = ComponentId(100);
const A: ComponentId = ComponentId(1);
const B: ComponentId = ComponentId(2);
const C: ComponentId = ComponentId(3);
const LINES: u64 = 8;
const NO_PERMS: BackendPerms = BackendPerms {
    read_ok: false,
    write_ok: false,
};

/// A directory engine with its reused effect buffer and a stack of
/// replies still to deliver.
struct Dir {
    engine: DirEngine,
    out: Vec<DirEffect>,
    replies: Vec<(ComponentId, HostMsg)>,
}

impl Dir {
    fn host(&mut self, src: ComponentId, msg: HostMsg, perms: BackendPerms) {
        self.out.clear();
        self.engine.handle_host(src, msg, perms, &mut self.out);
        self.answer_recall();
    }

    fn unblock(&mut self, src: ComponentId, addr: Addr) {
        let to_state = StableState::S;
        self.host(src, HostMsg::Unblock { addr, to_state }, BackendPerms::ALL);
    }

    fn recall(&mut self, addr: Addr, kind: RecallKind) {
        self.out.clear();
        self.engine.recall(addr, kind, &mut self.out);
        self.answer_recall();
    }

    /// Answer every recall message the last call sent (invalidations
    /// and forwards whose requestor is the directory itself), then drain
    /// the line once a recall completed. Replies stack above those of
    /// the calls that are still answering theirs.
    fn answer_recall(&mut self) {
        let mark = self.replies.len();
        let mut done = None;
        for e in &self.out {
            match *e {
                DirEffect::Send {
                    dst,
                    msg: HostMsg::Inv { addr, requestor },
                } if requestor == DIR => self.replies.push((dst, HostMsg::InvAck { addr })),
                DirEffect::Send {
                    dst,
                    msg:
                        HostMsg::FwdGetM {
                            addr, requestor, ..
                        }
                        | HostMsg::FwdGetS {
                            addr, requestor, ..
                        },
                } if requestor == DIR => {
                    let data = HostMsg::Data {
                        addr,
                        data: 7,
                        grant: Grant::M,
                        acks: 0,
                        dirty: true,
                        poisoned: false,
                    };
                    self.replies.push((dst, data));
                }
                DirEffect::RecallDone { addr, .. } => done = Some(addr),
                _ => {}
            }
        }
        if let Some(addr) = done {
            self.out.clear();
            self.engine
                .drain_after_recall(addr, BackendPerms::ALL, &mut self.out);
        }
        while self.replies.len() > mark {
            let (src, msg) = self.replies.pop().expect("above the mark");
            self.host(src, msg, BackendPerms::ALL);
        }
    }

    /// One pass of GetS/GetM/PutM/PutE, Shared and Exclusive recalls, a
    /// backend suspension with a queued request, and a recall queued
    /// behind an Unblock. Every line ends with no holders.
    fn script(&mut self) {
        for line in 0..LINES {
            let x = Addr(line);
            self.host(A, HostMsg::GetS { addr: x }, BackendPerms::ALL);
            self.unblock(A, x);
            self.host(B, HostMsg::GetS { addr: x }, BackendPerms::ALL);
            self.unblock(B, x);
            self.host(C, HostMsg::GetM { addr: x }, BackendPerms::ALL);
            self.unblock(C, x);
            self.recall(x, RecallKind::Shared);
            self.recall(x, RecallKind::Exclusive);
            // A GetM suspends on the backend; B's GetS queues behind it.
            self.host(A, HostMsg::GetM { addr: x }, NO_PERMS);
            self.host(B, HostMsg::GetS { addr: x }, NO_PERMS);
            self.out.clear();
            self.engine
                .backend_write_done(x, 3, BackendPerms::ALL, &mut self.out);
            self.unblock(A, x);
            self.unblock(B, x);
            // Both copies are recalled at once (MESI: two Invs; MOESI: a
            // FwdGetM to the owner and an Inv).
            self.recall(x, RecallKind::Exclusive);
            // A recall arriving mid-transaction waits for the Unblock.
            self.host(C, HostMsg::GetM { addr: x }, BackendPerms::ALL);
            self.recall(x, RecallKind::Exclusive);
            self.unblock(C, x);
            let put_m = HostMsg::PutM {
                addr: x,
                data: 9,
                poisoned: false,
            };
            self.host(A, HostMsg::GetM { addr: x }, BackendPerms::ALL);
            self.unblock(A, x);
            self.host(A, put_m, BackendPerms::ALL);
            self.host(B, HostMsg::GetS { addr: x }, BackendPerms::ALL);
            self.unblock(B, x);
            self.host(B, HostMsg::PutE { addr: x }, BackendPerms::ALL);
            assert!(!self.engine.holders(x).class().any(), "line {x} left held");
        }
        assert!(self.engine.idle());
    }
}

/// A DCOH with its reused effect buffer.
struct Dcoh {
    engine: DcohEngine,
    out: Vec<DcohEffect>,
}

impl Dcoh {
    fn handle(&mut self, src: ComponentId, msg: CxlMsg) {
        self.out.clear();
        self.engine.handle(src, msg, &mut self.out);
    }

    /// One pass of MemRd,S/MemRd,A with BISnpData and BISnpInv fanouts,
    /// a convoyed request, a conflict handshake and both writebacks.
    /// Every line ends with no holders.
    fn script(&mut self) {
        let (h1, h2, h3) = (A, B, C);
        for line in 0..LINES {
            let addr = Addr(line);
            self.handle(h1, CxlMsg::MemRdS { addr });
            self.handle(h2, CxlMsg::MemRdS { addr });
            self.handle(h1, CxlMsg::BiRspS { addr });
            self.handle(h3, CxlMsg::MemRdA { addr });
            self.handle(h1, CxlMsg::MemRdS { addr });
            self.handle(h1, CxlMsg::BiConflict { addr });
            self.handle(h1, CxlMsg::BiRspI { addr });
            self.handle(h2, CxlMsg::BiRspI { addr });
            let wb = CxlMsg::MemWrS {
                addr,
                data: 5,
                poisoned: false,
            };
            self.handle(h3, wb);
            self.handle(h3, CxlMsg::BiRspS { addr });
            self.handle(h3, CxlMsg::MemRdA { addr });
            self.handle(h1, CxlMsg::BiRspI { addr });
            let wb = CxlMsg::MemWrI {
                addr,
                data: 6,
                poisoned: false,
            };
            self.handle(h3, wb);
            assert!(!self.engine.holders(addr).any(), "line {addr} left held");
        }
        assert!(self.engine.idle());
    }
}

#[test]
fn warmed_engines_do_not_allocate() {
    let mut dirs: Vec<Dir> = [SspSpec::mesi(), SspSpec::moesi(), SspSpec::mesif()]
        .into_iter()
        .map(|spec| Dir {
            engine: DirEngine::new(&spec, DIR),
            out: Vec::new(),
            replies: Vec::new(),
        })
        .collect();
    let mut dcoh = Dcoh {
        engine: DcohEngine::new(),
        out: Vec::new(),
    };
    // Two warm-up passes: the first grows every map, slab and buffer; the
    // second settles the slab's free-list order, so the measured pass
    // reuses exactly the records (and queue capacities) it did.
    for _ in 0..2 {
        dirs.iter_mut().for_each(Dir::script);
        dcoh.script();
    }
    let before = alloc_count();
    dirs.iter_mut().for_each(Dir::script);
    dcoh.script();
    let allocs = alloc_count() - before;
    assert_eq!(allocs, 0, "a warmed engine allocated {allocs} times");
    assert!(dcoh.engine.bisnp_sent > 0 && dcoh.engine.conflicts > 0);
    assert!(dirs
        .iter()
        .all(|d| d.engine.recalls > 0 && d.engine.stalled_requests > 0));
}
