//! Memory consistency models.
//!
//! The paper combines hosts with different MCMs — x86-style TSO and an
//! Arm-like weak model — over CXL shared memory, and relies on compound
//! memory models (Goens et al., PLDI'23) for the system-wide semantics.
//! This module defines the per-thread ordering rules that both the timing
//! core model (`c3-mcm`) and the operational reference enumerator obey.

use crate::ops::{AccessOrder, Addr, FenceKind, Instr};

/// A per-cluster memory consistency model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mcm {
    /// Sequential consistency — no reordering at all.
    Sc,
    /// Total Store Order (x86): only store→load to *different* addresses
    /// may reorder; stores drain from a FIFO store buffer.
    Tso,
    /// Weak ordering (Arm-like): any pair to different addresses may
    /// reorder unless an explicit fence or acquire/release intervenes.
    Weak,
}

impl Mcm {
    /// Human-readable short name as used in the paper's tables
    /// ("TSO" / "Arm").
    pub fn label(self) -> &'static str {
        match self {
            Mcm::Sc => "SC",
            Mcm::Tso => "TSO",
            Mcm::Weak => "Arm",
        }
    }

    /// Whether the *baseline* model (ignoring per-access annotations and
    /// fences) preserves program order between an earlier access of class
    /// `first` and a later access of class `second` to **different**
    /// addresses.
    ///
    /// Same-address program order is always preserved (coherence /
    /// per-location SC), so callers only consult this for distinct lines.
    pub fn preserves(self, first: OpClass, second: OpClass) -> bool {
        match self {
            Mcm::Sc => true,
            Mcm::Tso => !(first == OpClass::Store && second == OpClass::Load),
            Mcm::Weak => false,
        }
    }
}

impl std::fmt::Display for Mcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of a memory access for ordering purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// A read (loads; RMWs count as both).
    Load,
    /// A write (stores; RMWs count as both).
    Store,
}

impl OpClass {
    const ALL: [OpClass; 2] = [OpClass::Load, OpClass::Store];

    const fn bit(self) -> u8 {
        match self {
            OpClass::Load => 1,
            OpClass::Store => 2,
        }
    }
}

/// Classify an instruction; `None` for fences and local work.
pub fn classify(i: &Instr) -> Option<(OpClass, OpClass)> {
    // (class as predecessor, class as successor) — RMWs act as both.
    match i {
        Instr::Load { .. } => Some((OpClass::Load, OpClass::Load)),
        Instr::Store { .. } => Some((OpClass::Store, OpClass::Store)),
        Instr::Rmw { .. } => Some((OpClass::Store, OpClass::Load)),
        _ => None,
    }
}

/// Does a fence of `kind` order an earlier `first` before a later `second`?
pub fn fence_orders(kind: FenceKind, first: OpClass, second: OpClass) -> bool {
    match kind {
        FenceKind::Full => true,
        FenceKind::StoreStore => first == OpClass::Store && second == OpClass::Store,
        FenceKind::LoadLoad => first == OpClass::Load,
    }
}

/// Decide whether instruction `later` (at program index `j`) must wait for
/// instruction `earlier` (at index `i < j`) to complete before it may
/// *perform* (become globally visible), under `mcm`, given the instructions
/// strictly between them (`between`, used for fences).
///
/// This is the pairwise view of [`OrderFrontier`]: `earlier` is pushed as
/// incomplete, `between` as complete. The timing core and the reference
/// enumerator fold whole windows through the same frontier, so the rules
/// below exist once.
///
/// Rules applied, in order:
/// 1. same-address accesses always stay ordered (per-location coherence);
/// 2. an intervening fence that covers `(class(earlier), class(later))`
///    orders them;
/// 3. `earlier` having acquire semantics orders it before everything later;
/// 4. `later` having release semantics orders everything earlier before it;
/// 5. RMWs are fully ordered both ways (modelled as SeqCst);
/// 6. otherwise the base model's [`Mcm::preserves`] matrix decides.
pub fn must_order(mcm: Mcm, earlier: &Instr, between: &[Instr], later: &Instr) -> bool {
    let mut frontier = OrderFrontier::default();
    frontier.push(earlier, true);
    for mid in between {
        frontier.push(mid, false);
    }
    frontier.blocks(mcm, later)
}

/// The ordering constraints a run of program-earlier instructions places
/// on the next one, folded into a few masks so that [`Self::blocks`] is
/// O(1) whatever the run's length.
///
/// Callers sweep a window in program order: decide instruction `j` with
/// [`Self::blocks`], then [`Self::push`] it with its state after the
/// decision. `blocks` then answers exactly the OR of [`must_order`] over
/// every incomplete earlier access, with the pushed instructions between
/// them as `between`.
#[derive(Debug, Default)]
pub struct OrderFrontier {
    /// Predecessor classes of the incomplete accesses (rules 4 and 6).
    pending: u8,
    /// Successor classes that some fence orders after an incomplete access
    /// pushed before it (rule 2). Fences count whether done or not.
    fenced: u8,
    /// Some incomplete access has acquire semantics (rule 3).
    acquire: bool,
    /// Addresses of the incomplete accesses (rule 1), behind a 256-bit
    /// filter that rejects most distinct addresses without a scan.
    addr_filter: [u64; 4],
    addrs: Vec<Addr>,
}

impl OrderFrontier {
    /// An empty frontier with room for `window` incomplete addresses, so
    /// sweeps of up to that many instructions never allocate.
    pub fn with_capacity(window: usize) -> Self {
        OrderFrontier {
            addrs: Vec::with_capacity(window),
            ..OrderFrontier::default()
        }
    }

    /// Forget every pushed instruction (keeps the address buffer).
    pub fn clear(&mut self) {
        self.pending = 0;
        self.fenced = 0;
        self.acquire = false;
        self.addr_filter = [0; 4];
        self.addrs.clear();
    }

    /// Fold in the next instruction of the window; `incomplete` says it
    /// has not yet performed.
    pub fn push(&mut self, instr: &Instr, incomplete: bool) {
        if let Instr::Fence(kind) = *instr {
            for first in OpClass::ALL {
                if self.pending & first.bit() == 0 {
                    continue;
                }
                for second in OpClass::ALL {
                    if fence_orders(kind, first, second) {
                        self.fenced |= second.bit();
                    }
                }
            }
            return;
        }
        let (true, Some((first, _))) = (incomplete, classify(instr)) else {
            return;
        };
        self.pending |= first.bit();
        self.acquire |= instr_order(instr).is_acquire();
        if let Some(addr) = instr.addr() {
            let (word, bit) = filter_slot(addr);
            self.addr_filter[word] |= bit;
            self.addrs.push(addr);
        }
    }

    /// Must `later` wait, under `mcm`, for some incomplete pushed access?
    pub fn blocks(&self, mcm: Mcm, later: &Instr) -> bool {
        let Some((_, second)) = classify(later) else {
            return false; // fences/work are ordered by the callers
        };
        if self.pending == 0 {
            return false; // `fenced` and `acquire` imply a pending access
        }
        self.fenced & second.bit() != 0
            || self.acquire
            || instr_order(later).is_release()
            || OpClass::ALL
                .into_iter()
                .any(|first| self.pending & first.bit() != 0 && mcm.preserves(first, second))
            || later.addr().is_some_and(|addr| self.holds(addr))
    }

    /// Does [`Self::blocks`] hold for every access, whatever its class,
    /// annotation, address or model? True once some access is pending and
    /// either an acquire access is among them (rule 3) or fences order both
    /// classes after them (rule 2). Pushes only add constraints, so the
    /// rest of a sweep may step over its accesses undecided.
    pub fn blocks_every_access(&self) -> bool {
        const BOTH: u8 = OpClass::Load.bit() | OpClass::Store.bit();
        self.pending != 0 && (self.acquire || self.fenced == BOTH)
    }

    fn holds(&self, addr: Addr) -> bool {
        let (word, bit) = filter_slot(addr);
        self.addr_filter[word] & bit != 0 && self.addrs.contains(&addr)
    }
}

/// The filter word and bit for `addr` (Fibonacci hash, top 8 bits).
fn filter_slot(addr: Addr) -> (usize, u64) {
    let h = addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    ((h >> 6) as usize, 1 << (h & 63))
}

fn instr_order(i: &Instr) -> AccessOrder {
    match i {
        Instr::Load { order, .. } | Instr::Store { order, .. } | Instr::Rmw { order, .. } => *order,
        _ => AccessOrder::Relaxed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Reg;
    use c3_sim::rng::SimRng;

    /// Rules 1–6 as a direct pairwise scan, independent of the frontier:
    /// the oracle its fold is checked against.
    fn pairwise_must_order(mcm: Mcm, earlier: &Instr, between: &[Instr], later: &Instr) -> bool {
        let (Some((ec, _)), Some((_, lc))) = (classify(earlier), classify(later)) else {
            return false;
        };
        earlier.addr() == later.addr()
            || between
                .iter()
                .any(|mid| matches!(mid, Instr::Fence(kind) if fence_orders(*kind, ec, lc)))
            || instr_order(earlier).is_acquire()
            || instr_order(later).is_release()
            || mcm.preserves(ec, lc)
    }

    fn random_instr(rng: &mut SimRng, span: u64) -> Instr {
        let addr = Addr(rng.below(span));
        // Mostly relaxed, so the address rule often decides alone.
        let order = match rng.below(10) {
            0 => AccessOrder::Acquire,
            1 => AccessOrder::Release,
            2 => AccessOrder::SeqCst,
            _ => AccessOrder::Relaxed,
        };
        match rng.below(12) {
            0..=3 => Instr::Load {
                addr,
                reg: Reg(0),
                order,
            },
            4..=7 => Instr::Store {
                addr,
                val: 1,
                order,
            },
            8 => Instr::Rmw {
                addr,
                add: 1,
                reg: Reg(0),
                order,
            },
            9 => Instr::Fence(
                [FenceKind::Full, FenceKind::StoreStore, FenceKind::LoadLoad]
                    [rng.below(3) as usize],
            ),
            10 => Instr::Work(1),
            _ => Instr::Prefetch { addr },
        }
    }

    /// When [`OrderFrontier::blocks_every_access`] holds, `blocks` is true
    /// for a load, a store and an RMW of every annotation, at an address
    /// the window holds and at one it does not, under every model.
    fn assert_blocks_every_access(frontier: &OrderFrontier, window: &[Instr], held: Addr) {
        let fresh = (0..)
            .map(Addr)
            .find(|&a| window.iter().all(|i| i.addr() != Some(a)))
            .unwrap();
        let orders = [
            AccessOrder::Relaxed,
            AccessOrder::Acquire,
            AccessOrder::Release,
            AccessOrder::SeqCst,
        ];
        for mcm in [Mcm::Sc, Mcm::Tso, Mcm::Weak] {
            for addr in [held, fresh] {
                for order in orders {
                    let reg = Reg(0);
                    for later in [
                        Instr::Load { addr, reg, order },
                        Instr::Store {
                            addr,
                            val: 1,
                            order,
                        },
                        Instr::Rmw {
                            addr,
                            add: 1,
                            reg,
                            order,
                        },
                    ] {
                        assert!(
                            frontier.blocks(mcm, &later),
                            "{mcm:?} steps over {later:?} after {window:?}"
                        );
                    }
                }
            }
        }
    }

    /// Over seeded random windows, the frontier's O(1) answer equals the
    /// OR of the pairwise rules over every incomplete earlier instruction,
    /// and so does [`must_order`] itself. Wherever the frontier claims to
    /// block every access, it does.
    #[test]
    fn frontier_matches_pairwise_rules() {
        let windows = if cfg!(debug_assertions) {
            4_000
        } else {
            200_000
        };
        let mut rng = SimRng::seed_from(0x0F0F);
        let mut frontier = OrderFrontier::default();
        let (mut blocked, mut free, mut every) = (0u64, 0u64, 0u64);
        for _ in 0..windows {
            let mcm = [Mcm::Sc, Mcm::Tso, Mcm::Weak][rng.below(3) as usize];
            // Four lines repeat addresses often; wide spans make distinct
            // addresses share address-filter bits.
            let span = [4, 1 << 12, u64::MAX][rng.below(3) as usize];
            let len = 1 + rng.below(16) as usize;
            let window: Vec<Instr> = (0..len).map(|_| random_instr(&mut rng, span)).collect();
            let incomplete: Vec<bool> = (0..len).map(|_| rng.chance(0.6)).collect();
            frontier.clear();
            for (j, later) in window.iter().enumerate() {
                if frontier.blocks_every_access() {
                    let held = (0..j)
                        .filter(|&i| incomplete[i] && classify(&window[i]).is_some())
                        .find_map(|i| window[i].addr())
                        .expect("a pending access");
                    assert_blocks_every_access(&frontier, &window[..j], held);
                    every += 1;
                }
                let mut earlier = (0..j).filter(|&i| incomplete[i]);
                let expect = earlier
                    .clone()
                    .any(|i| pairwise_must_order(mcm, &window[i], &window[i + 1..j], later));
                let folded = earlier.any(|i| must_order(mcm, &window[i], &window[i + 1..j], later));
                assert_eq!(
                    frontier.blocks(mcm, later),
                    expect,
                    "{mcm:?} window {window:?} incomplete {incomplete:?} at {j}"
                );
                assert_eq!(folded, expect, "must_order disagrees at {j} of {window:?}");
                if expect {
                    blocked += 1;
                } else {
                    free += 1;
                }
                frontier.push(later, incomplete[j]);
            }
        }
        assert!(
            blocked > 0 && free > 0 && every > 0,
            "{blocked} blocked, {free} free, {every} blocking every access"
        );
    }

    fn ld(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            reg: Reg(0),
            order: AccessOrder::Relaxed,
        }
    }
    fn st(a: u64) -> Instr {
        Instr::Store {
            addr: Addr(a),
            val: 1,
            order: AccessOrder::Relaxed,
        }
    }
    fn st_rel(a: u64) -> Instr {
        Instr::Store {
            addr: Addr(a),
            val: 1,
            order: AccessOrder::Release,
        }
    }
    fn ld_acq(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            reg: Reg(0),
            order: AccessOrder::Acquire,
        }
    }

    #[test]
    fn tso_matrix() {
        assert!(Mcm::Tso.preserves(OpClass::Load, OpClass::Load));
        assert!(Mcm::Tso.preserves(OpClass::Load, OpClass::Store));
        assert!(Mcm::Tso.preserves(OpClass::Store, OpClass::Store));
        assert!(!Mcm::Tso.preserves(OpClass::Store, OpClass::Load));
    }

    #[test]
    fn weak_orders_nothing_by_default() {
        for f in [OpClass::Load, OpClass::Store] {
            for s in [OpClass::Load, OpClass::Store] {
                assert!(!Mcm::Weak.preserves(f, s));
            }
        }
    }

    #[test]
    fn sc_orders_everything() {
        for f in [OpClass::Load, OpClass::Store] {
            for s in [OpClass::Load, OpClass::Store] {
                assert!(Mcm::Sc.preserves(f, s));
            }
        }
    }

    #[test]
    fn same_address_always_ordered() {
        assert!(must_order(Mcm::Weak, &st(1), &[], &ld(1)));
        assert!(must_order(Mcm::Tso, &st(1), &[], &ld(1)));
    }

    #[test]
    fn tso_store_load_reorders_across_addresses() {
        assert!(!must_order(Mcm::Tso, &st(1), &[], &ld(2)));
        assert!(must_order(Mcm::Tso, &st(1), &[], &st(2)));
    }

    #[test]
    fn full_fence_orders_store_load_on_tso() {
        assert!(must_order(
            Mcm::Tso,
            &st(1),
            &[Instr::Fence(FenceKind::Full)],
            &ld(2)
        ));
    }

    #[test]
    fn weak_with_release_acquire() {
        // release store ordered after earlier store
        assert!(must_order(Mcm::Weak, &st(1), &[], &st_rel(2)));
        // acquire load ordered before later load
        assert!(must_order(Mcm::Weak, &ld_acq(1), &[], &ld(2)));
        // plain pair unordered
        assert!(!must_order(Mcm::Weak, &st(1), &[], &st(2)));
        assert!(!must_order(Mcm::Weak, &ld(1), &[], &ld(2)));
    }

    #[test]
    fn store_store_fence_on_weak() {
        let f = [Instr::Fence(FenceKind::StoreStore)];
        assert!(must_order(Mcm::Weak, &st(1), &f, &st(2)));
        assert!(!must_order(Mcm::Weak, &st(1), &f, &ld(2)));
        assert!(!must_order(Mcm::Weak, &ld(1), &f, &st(2)));
    }

    #[test]
    fn load_load_fence_on_weak() {
        let f = [Instr::Fence(FenceKind::LoadLoad)];
        assert!(must_order(Mcm::Weak, &ld(1), &f, &ld(2)));
        assert!(must_order(Mcm::Weak, &ld(1), &f, &st(2)));
        assert!(!must_order(Mcm::Weak, &st(1), &f, &st(2)));
    }

    #[test]
    fn rmw_is_fully_ordered() {
        let rmw = Instr::Rmw {
            addr: Addr(1),
            add: 1,
            reg: Reg(0),
            order: AccessOrder::SeqCst,
        };
        assert!(must_order(Mcm::Weak, &rmw, &[], &ld(2)));
        assert!(must_order(Mcm::Weak, &st(2), &[], &rmw));
    }

    #[test]
    fn labels() {
        assert_eq!(Mcm::Tso.to_string(), "TSO");
        assert_eq!(Mcm::Weak.to_string(), "Arm");
        assert_eq!(Mcm::Sc.to_string(), "SC");
    }
}
