//! Operational reference model for the compound MCM.
//!
//! Our herd7 substitute: an exhaustive enumerator of the *allowed* litmus
//! outcomes under the compound memory model the paper targets. The
//! abstract machine is multi-copy atomic (the coherent substrate
//! serializes writes at a single point — true of both CXL.mem and the
//! hierarchical directory): an execution is an interleaving of *perform*
//! events over a single global memory. A thread may perform an operation
//! when every program-earlier, not-yet-performed operation that its MCM
//! orders before it (same fold as the timing core:
//! [`c3_protocol::mcm::OrderFrontier`]) has performed.
//!
//! Per Goens et al.'s compound-model result — which C³ realizes — each
//! thread contributes its native ordering constraints to the global
//! interleaving, so the enumerated set is exactly the behaviour the
//! bridged system may exhibit; the simulator's observed outcomes must be
//! a subset.

use std::collections::{BTreeSet, HashSet};

use c3_protocol::mcm::{Mcm, OrderFrontier};
use c3_protocol::ops::{Addr, Instr, ThreadProgram};

use crate::litmus::Observation;

/// One outcome: values of the observed registers then memory locations.
pub type Outcome = Vec<u64>;

#[derive(Clone, PartialEq, Eq, Hash)]
struct MachineState {
    /// Per-thread bitmask of performed instructions.
    done: Vec<u64>,
    /// Global memory (observed + touched locations only).
    mem: Vec<u64>,
    /// Per-thread register files (flattened; only registers that appear).
    regs: Vec<u64>,
}

/// Exhaustively enumerate allowed outcomes of `threads` where thread `i`
/// runs under `mcms[i]`.
///
/// # Panics
///
/// Panics if `threads` and `mcms` have different lengths, or a program
/// has more than 64 instructions (litmus tests are tiny).
pub fn allowed_outcomes(
    threads: &[ThreadProgram],
    mcms: &[Mcm],
    observed: &Observation,
) -> BTreeSet<Outcome> {
    assert_eq!(threads.len(), mcms.len());
    for t in threads {
        assert!(t.len() <= 64, "litmus programs must fit a u64 mask");
    }
    // Address universe and register universe.
    let mut addrs: Vec<Addr> = Vec::new();
    for t in threads {
        for a in t.addresses() {
            if !addrs.contains(&a) {
                addrs.push(a);
            }
        }
    }
    for a in &observed.mem {
        if !addrs.contains(a) {
            addrs.push(*a);
        }
    }
    let addr_index = |a: Addr| addrs.iter().position(|x| *x == a).expect("known address");
    let nregs = 8usize; // litmus tests use r0..r7

    let init = MachineState {
        done: threads
            .iter()
            .map(|t| {
                // Fences and Work never "perform": pre-mark them done;
                // their ordering effect is static (between-scan).
                let mut m = 0u64;
                for (i, ins) in t.instrs.iter().enumerate() {
                    if matches!(
                        ins,
                        Instr::Fence(_) | Instr::Work(_) | Instr::Prefetch { .. }
                    ) {
                        m |= 1 << i;
                    }
                }
                m
            })
            .collect(),
        mem: vec![0; addrs.len()],
        regs: vec![0; threads.len() * nregs],
    };

    let mut seen: HashSet<MachineState> = HashSet::new();
    let mut outcomes: BTreeSet<Outcome> = BTreeSet::new();
    let mut stack = vec![init];
    let mut frontier = OrderFrontier::default();

    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        let mut terminal = true;
        for (ti, prog) in threads.iter().enumerate() {
            // One sweep per thread: instruction j may perform unless an
            // unperformed earlier one is ordered before it.
            frontier.clear();
            for (j, instr) in prog.instrs.iter().enumerate() {
                let performed = state.done[ti] & (1 << j) != 0;
                let blocked = frontier.blocks(mcms[ti], instr);
                frontier.push(instr, !performed);
                if performed {
                    continue;
                }
                terminal = false;
                if blocked {
                    continue;
                }
                // Perform instruction j of thread ti.
                let mut next = state.clone();
                next.done[ti] |= 1 << j;
                match *instr {
                    Instr::Load { addr, reg, .. } => {
                        next.regs[ti * nregs + reg.0 as usize] = next.mem[addr_index(addr)];
                    }
                    Instr::Store { addr, val, .. } => {
                        next.mem[addr_index(addr)] = val;
                    }
                    Instr::Rmw { addr, add, reg, .. } => {
                        let idx = addr_index(addr);
                        next.regs[ti * nregs + reg.0 as usize] = next.mem[idx];
                        next.mem[idx] = next.mem[idx].wrapping_add(add);
                    }
                    Instr::Fence(_) | Instr::Work(_) | Instr::Prefetch { .. } => {
                        unreachable!("pre-marked done")
                    }
                }
                stack.push(next);
            }
        }
        if terminal {
            let mut out = Vec::new();
            for (ti, reg) in &observed.regs {
                out.push(state.regs[ti * nregs + reg.0 as usize]);
            }
            for a in &observed.mem {
                out.push(state.mem[addr_index(*a)]);
            }
            outcomes.insert(out);
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::LitmusTest;

    fn materialized(test: &LitmusTest, mcms: &[Mcm]) -> Vec<ThreadProgram> {
        test.threads
            .iter()
            .zip(mcms)
            .map(|(t, m)| LitmusTest::materialize(t, *m))
            .collect()
    }

    fn allowed(test: &LitmusTest, mcms: &[Mcm]) -> BTreeSet<Outcome> {
        allowed_outcomes(&materialized(test, mcms), mcms, &test.observed)
    }

    #[test]
    fn mp_forbidden_with_sync_on_weak() {
        let t = LitmusTest::mp();
        let out = allowed(&t, &[Mcm::Weak, Mcm::Weak]);
        assert!(!out.contains(&vec![1, 0]), "MP forbidden outcome allowed");
        assert!(out.contains(&vec![1, 1]));
        assert!(out.contains(&vec![0, 0]));
    }

    #[test]
    fn mp_relaxed_outcome_appears_without_sync_on_weak() {
        let t = LitmusTest::mp().without_sync();
        let out = allowed(&t, &[Mcm::Weak, Mcm::Weak]);
        assert!(
            out.contains(&vec![1, 0]),
            "weak MP must allow (1,0) unsynced"
        );
    }

    #[test]
    fn mp_safe_without_sync_on_tso() {
        // TSO preserves store-store and load-load order: MP needs no
        // fences — exactly the paper's selective-fence-removal experiment.
        let t = LitmusTest::mp().without_sync();
        let out = allowed(&t, &[Mcm::Tso, Mcm::Tso]);
        assert!(!out.contains(&vec![1, 0]));
    }

    #[test]
    fn sb_relaxed_allowed_on_tso_without_fence() {
        let t = LitmusTest::sb().without_sync();
        let out = allowed(&t, &[Mcm::Tso, Mcm::Tso]);
        assert!(out.contains(&vec![0, 0]), "store buffering is TSO-visible");
    }

    #[test]
    fn sb_forbidden_with_fences_everywhere() {
        let t = LitmusTest::sb();
        for mcms in [
            [Mcm::Tso, Mcm::Tso],
            [Mcm::Weak, Mcm::Weak],
            [Mcm::Tso, Mcm::Weak],
        ] {
            let out = allowed(&t, &mcms);
            assert!(!out.contains(&vec![0, 0]), "{mcms:?}");
        }
    }

    #[test]
    fn lb_forbidden_with_sync_allowed_without_on_weak() {
        let t = LitmusTest::lb();
        let out = allowed(&t, &[Mcm::Weak, Mcm::Weak]);
        assert!(!out.contains(&vec![1, 1]));
        let t = t.without_sync();
        let out = allowed(&t, &[Mcm::Weak, Mcm::Weak]);
        assert!(out.contains(&vec![1, 1]));
    }

    #[test]
    fn lb_safe_on_tso_even_without_sync() {
        let t = LitmusTest::lb().without_sync();
        let out = allowed(&t, &[Mcm::Tso, Mcm::Tso]);
        assert!(!out.contains(&vec![1, 1]));
    }

    #[test]
    fn iriw_forbidden_with_sync() {
        let t = LitmusTest::iriw();
        for mcms in [
            [Mcm::Weak, Mcm::Weak, Mcm::Weak, Mcm::Weak],
            [Mcm::Tso, Mcm::Tso, Mcm::Tso, Mcm::Tso],
            [Mcm::Tso, Mcm::Weak, Mcm::Tso, Mcm::Weak],
        ] {
            let out = allowed(&t, &mcms);
            assert!(!out.contains(&vec![1, 0, 1, 0]), "{mcms:?}");
        }
    }

    #[test]
    fn iriw_relaxed_visible_on_weak_readers_without_sync() {
        let t = LitmusTest::iriw().without_sync();
        let out = allowed(&t, &[Mcm::Weak; 4]);
        assert!(out.contains(&vec![1, 0, 1, 0]));
    }

    #[test]
    fn two_plus_two_w_forbidden_with_sync() {
        let t = LitmusTest::two_plus_two_w();
        let out = allowed(&t, &[Mcm::Weak, Mcm::Weak]);
        assert!(!out.contains(&vec![2, 2]));
        let out = allowed(&t.without_sync(), &[Mcm::Weak, Mcm::Weak]);
        assert!(out.contains(&vec![2, 2]));
    }

    #[test]
    fn r_and_s_forbidden_with_sync() {
        let r = LitmusTest::r();
        let out = allowed(&r, &[Mcm::Weak, Mcm::Weak]);
        assert!(!out.contains(&vec![0, 2]), "R forbidden (r0=0, y=2)");
        let s = LitmusTest::s();
        let out = allowed(&s, &[Mcm::Weak, Mcm::Weak]);
        assert!(!out.contains(&vec![1, 2]), "S forbidden (r0=1, x=2)");
    }

    #[test]
    fn corr_same_address_safe_even_unsynced() {
        let t = LitmusTest::corr();
        for mcm in [Mcm::Weak, Mcm::Tso] {
            let out = allowed(&t, &[mcm, mcm]);
            assert!(!out.contains(&vec![1, 0]), "{mcm}: coherence violated");
        }
    }

    #[test]
    fn wrc_causality_with_sync() {
        let t = LitmusTest::wrc();
        let out = allowed(&t, &[Mcm::Weak; 3]);
        assert!(!out.contains(&vec![1, 1, 0]));
    }

    #[test]
    fn corr2_readers_agree_on_write_order() {
        // Multi-copy atomicity: the two readers can never observe the two
        // writes to x in opposite orders, even without synchronization.
        let t = LitmusTest::corr2();
        for mcm in [Mcm::Weak, Mcm::Tso] {
            let out = allowed(&t, &[mcm; 4]);
            assert!(!out.contains(&vec![1, 2, 2, 1]), "{mcm}");
            assert!(!out.contains(&vec![2, 1, 1, 2]), "{mcm}");
        }
    }

    #[test]
    fn wwc_and_wrw_2w_with_sync() {
        let t = LitmusTest::wwc();
        let out = allowed(&t, &[Mcm::Weak; 3]);
        assert!(!out.contains(&vec![2, 1, 2]), "WWC causality violated");
        let t = LitmusTest::wrw_2w();
        let out = allowed(&t, &[Mcm::Weak; 2]);
        assert!(
            !out.contains(&vec![1, 2]),
            "WRW+2W: reader saw y=1 yet its x=1 lost to the pre-release x=2"
        );
    }

    #[test]
    fn mixed_mcm_assignment_changes_allowed_set() {
        // The compound model: a TSO thread 0 makes MP's writer ordered
        // even without annotations, but a weak reader still reorders.
        let t = LitmusTest::mp().without_sync();
        let strict_writer = allowed(&t, &[Mcm::Tso, Mcm::Weak]);
        assert!(strict_writer.contains(&vec![1, 0]), "weak reader reorders");
        let strict_reader = allowed(&t, &[Mcm::Weak, Mcm::Tso]);
        assert!(strict_reader.contains(&vec![1, 0]), "weak writer reorders");
        let both_strict = allowed(&t, &[Mcm::Tso, Mcm::Tso]);
        assert!(!both_strict.contains(&vec![1, 0]));
    }
}
