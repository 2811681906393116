//! Differential tests for the symmetry-reduced resilient checker.
//!
//! Symmetry reduction is sound only if the canonicalized exploration
//! reaches exactly the same verdicts as brute-force exploration, which
//! needs a transition relation that commutes with every cluster and
//! address permutation. These tests pin that property on configurations
//! small enough to exhaust both ways (3-host ones included: only there
//! can a line have two other sharers, so only there does the order in
//! which the DCOH invalidates them matter), pin the flat relation's
//! state counts, and prove the checker catches seeded protocol bugs and
//! dropped design rules.

use std::collections::{HashMap, HashSet, VecDeque};

use c3_verif::frontier::fingerprint;
use c3_verif::resilient::{
    check_resilient, successors, DevMsg, HostMsg, Injection, RState, ResilientConfig, SuccCtx,
};
use c3_verif::{CanonStats, Symmetric, SymmetryGroup};

fn cfg(clusters: usize, addrs: usize) -> ResilientConfig {
    ResilientConfig {
        clusters,
        addrs,
        ..ResilientConfig::default()
    }
}

/// One core with a private L1 behind each cluster copy.
fn nested(clusters: usize, addrs: usize) -> ResilientConfig {
    ResilientConfig {
        l1_cores: 1,
        ..cfg(clusters, addrs)
    }
}

#[test]
fn flat_relation_state_counts_are_pinned() {
    // `modelcheck`'s default battery at ops=1, faults=1: any change to
    // the flat transitions, their order or the state encoding moves
    // these counts.
    for (clusters, addrs, canonical, unreduced, edges) in [
        (2, 1, 245, 487, 434),
        (2, 2, 355, 1_397, 682),
        (3, 1, 1_554, 9_066, 3_614),
        (3, 2, 3_479, 40_931, 9_100),
    ] {
        let r = check_resilient(&cfg(clusters, addrs));
        assert!(r.violation.is_none() && !r.truncated);
        assert_eq!(
            (r.canonical_states, r.unreduced_states, r.edges),
            (canonical, unreduced, edges),
            "{clusters}x{addrs}: (canonical, unreduced, edges) moved"
        );
    }
}

#[test]
fn symmetry_on_and_off_agree_on_verdicts() {
    let nested_3x1 = ResilientConfig {
        ops_per_cluster: 2,
        max_faults: 0,
        ..nested(3, 1)
    };
    for base in [
        cfg(2, 1),
        cfg(2, 2),
        cfg(3, 1),
        cfg(3, 2),
        nested(2, 1),
        nested(2, 2),
        nested_3x1,
    ] {
        let what = format!("{}x{} l1={}", base.clusters, base.addrs, base.l1_cores);
        let reduced = check_resilient(&base);
        let full = check_resilient(&ResilientConfig {
            symmetry: false,
            ..base.clone()
        });

        // Same verdict: both clean (the protocol has no bug to disagree
        // about), neither truncated.
        assert!(reduced.violation.is_none(), "{what} reduced");
        assert!(full.violation.is_none(), "{what} full");
        assert!(!reduced.truncated && !full.truncated);

        // Exact state accounting: the orbit-sum of the reduced run must
        // equal the brute-force reachable-state count, and the reduced
        // representative count can never exceed it.
        assert_eq!(
            reduced.unreduced_states, full.unreduced_states,
            "{what}: orbit sum diverges from brute force"
        );
        assert_eq!(
            full.canonical_states as u128, full.unreduced_states,
            "{what}: unreduced run must count itself exactly"
        );
        assert!(
            reduced.canonical_states <= full.canonical_states,
            "{what}: reduction enlarged the state space"
        );
        assert!(
            reduced.reduction_factor > 1.0,
            "{what}: no reduction achieved"
        );
    }
}

/// A BFS that canonicalizes every successor (not only new states) both
/// ways, pruned and brute force, and asserts they agree on the bytes and
/// the orbit size. Returns `(canonical, unreduced, edges)`.
fn pruned_canonical_matches_brute_force(cfg: &ResilientConfig) -> (usize, u128, u64) {
    let mut group = SymmetryGroup::new(cfg.clusters, cfg.addrs);
    let (mut pruned, mut brute) = (Vec::new(), Vec::new());
    let mut canonicalize = |s: &RState| {
        let orbit = group.canonical(s, &mut pruned);
        let brute_orbit = group.canonical_brute_force(s, &mut brute);
        assert_eq!(pruned, brute, "canonical bytes differ from brute force");
        assert_eq!(orbit, brute_orbit, "orbit size differs from brute force");
        (fingerprint(&pruned), orbit as u128)
    };
    let init = RState::initial(cfg);
    let (fp, mut unreduced) = canonicalize(&init);
    let mut seen = HashSet::from([fp]);
    let mut frontier = VecDeque::from([init]);
    let (mut succs, mut ctx, mut edges) = (Vec::new(), SuccCtx::default(), 0);
    while let Some(s) = frontier.pop_front() {
        successors(&s, cfg, &mut succs, &mut ctx);
        for succ in succs.drain(..) {
            edges += 1;
            let (fp, orbit) = canonicalize(&succ);
            if seen.insert(fp) {
                unreduced += orbit;
                frontier.push_back(succ);
            }
        }
    }
    (seen.len(), unreduced, edges)
}

#[test]
fn pruned_canonical_form_is_the_brute_force_minimum_on_every_edge() {
    // perfbench's shape, then nested configs. The counts are
    // `check_resilient`'s, so both walks saw the same graph.
    for (clusters, addrs, l1_cores, ops, faults, counts) in [
        (3, 2, 0, 1, 2, (25_097, 297_989, 80_285)),
        (2, 2, 1, 2, 1, (16_796, 67_029, 37_374)),
        (3, 1, 1, 2, 0, (14_816, 88_716, 29_043)),
        (2, 1, 2, 2, 0, (411_562, 823_119, 777_250)),
    ] {
        let base = ResilientConfig {
            l1_cores,
            ops_per_cluster: ops,
            max_faults: faults,
            max_retries: faults,
            ..cfg(clusters, addrs)
        };
        assert_eq!(
            pruned_canonical_matches_brute_force(&base),
            counts,
            "{clusters}x{addrs} l1={l1_cores}: (canonical, unreduced, edges) moved"
        );
    }
}

/// perfbench's `modelcheck` shape: 3 hosts x 2 addresses, one op per
/// cluster, a two-fault budget.
fn perfbench_shape() -> ResilientConfig {
    ResilientConfig {
        max_faults: 2,
        max_retries: 2,
        ..cfg(3, 2)
    }
}

#[test]
fn explorer_cost_counters_are_pinned() {
    // Exact for a config, so they gate like allocation budgets. Per call:
    // three blocks encoded and three derived under the address swap,
    // 125.3 image bytes (the count-prefixed tail), 1.155 tails per edge.
    // Encoding the blocks under both address permutations, or padding
    // the tail, moves these.
    let r = check_resilient(&perfbench_shape());
    assert_eq!(r.edges, 80_285);
    assert_eq!(
        r.canon,
        CanonStats {
            calls: 80_286,
            image_bytes: 10_061_112,
            blocks_encoded: 240_858,
            blocks_derived: 240_858,
            tails: 92_747,
        }
    );
}

/// Explore `cfg` keyed by whole canonical images rather than their
/// fingerprints, and check that no two distinct images share a
/// fingerprint. Returns the number of distinct images.
fn fingerprints_never_collide(cfg: &ResilientConfig) -> usize {
    let mut group = SymmetryGroup::new(cfg.clusters, cfg.addrs);
    let mut image = Vec::new();
    let init = RState::initial(cfg);
    group.canonical(&init, &mut image);
    let mut seen = HashSet::from([image.clone()]);
    let mut fps = HashSet::from([fingerprint(&image)]);
    let mut frontier = VecDeque::from([init]);
    let (mut succs, mut ctx) = (Vec::new(), SuccCtx::default());
    while let Some(s) = frontier.pop_front() {
        successors(&s, cfg, &mut succs, &mut ctx);
        for succ in succs.drain(..) {
            group.canonical(&succ, &mut image);
            if !seen.contains(&image) {
                assert!(fps.insert(fingerprint(&image)), "fingerprint collision");
                seen.insert(image.clone());
                frontier.push_back(succ);
            }
        }
    }
    seen.len()
}

#[test]
fn distinct_canonical_images_have_distinct_fingerprints() {
    // A collision canary: the explorer keeps only fingerprints, so a
    // collision would silently merge two states. The counts are
    // `check_resilient`'s, so the fingerprint-keyed walk lost nothing.
    let nested_2x2 = ResilientConfig {
        ops_per_cluster: 2,
        max_faults: 1,
        max_retries: 1,
        ..nested(2, 2)
    };
    for (base, images) in [(perfbench_shape(), 25_097), (nested_2x2, 16_796)] {
        let what = format!("{}x{} l1={}", base.clusters, base.addrs, base.l1_cores);
        assert_eq!(fingerprints_never_collide(&base), images, "{what}");
        assert_eq!(check_resilient(&base).canonical_states, images, "{what}");
    }
}

/// The tail length the count-prefixed layout gives `s`: per address the
/// DCOH's fixed fields, its snoop and its queue behind their counts, then
/// per cluster each channel's count and occupied slots.
fn tail_len(s: &RState, cfg: &ResilientConfig) -> usize {
    let dir: usize = s.dir[..cfg.addrs]
        .iter()
        .map(|d| {
            let snoop = if d.snoop.is_some() { 8 } else { 1 };
            7 + cfg.clusters + snoop + 1 + 3 * d.qlen as usize
        })
        .sum();
    let m2s: usize = (s.m2s[..cfg.clusters].iter().flatten().flatten())
        .map(|m| match m {
            HostMsg::Req { .. } => 4,
            HostMsg::Rsp { dirty: None, .. } => 5,
            HostMsg::Rsp { dirty: Some(_), .. } => 8,
        })
        .sum();
    let s2m: usize = (s.s2m[..cfg.clusters].iter().flatten().flatten())
        .map(|m| match m {
            DevMsg::Data { .. } => 7,
            DevMsg::Snp { .. } => 5,
        })
        .sum();
    dir + 2 * cfg.clusters + m2s + s2m
}

/// Walk every concrete state `cfg` reaches, encoded under the identity
/// group: no two different states may share an encoding, and each tail
/// must have the length its counts declare. Returns the number of states.
fn encoding_is_injective(cfg: &ResilientConfig) -> usize {
    let mut group = SymmetryGroup::identity(cfg.clusters, cfg.addrs);
    let cperm: Vec<u8> = (0..cfg.clusters as u8).collect();
    let aperm: Vec<u8> = (0..cfg.addrs as u8).collect();
    let (mut bytes, mut tail) = (Vec::new(), Vec::new());
    let mut seen = HashMap::new();
    let mut frontier = VecDeque::from([RState::initial(cfg)]);
    group.canonical(&frontier[0], &mut bytes);
    seen.insert(bytes.clone(), frontier[0]);
    let (mut succs, mut ctx) = (Vec::new(), SuccCtx::default());
    while let Some(s) = frontier.pop_front() {
        tail.clear();
        s.encode_tail(&cperm, &aperm, &mut tail);
        assert_eq!(tail.len(), tail_len(&s, cfg), "tail {tail:?} of {s:?}");
        successors(&s, cfg, &mut succs, &mut ctx);
        for succ in succs.drain(..) {
            group.canonical(&succ, &mut bytes);
            match seen.get(&bytes) {
                Some(first) => assert_eq!(first, &succ, "two states encode as {bytes:?}"),
                None => {
                    seen.insert(bytes.clone(), succ);
                    frontier.push_back(succ);
                }
            }
        }
    }
    seen.len()
}

#[test]
fn encoding_never_merges_two_states() {
    // The tail is count-prefixed: each channel and DCOH queue writes its
    // occupancy, then only its occupied entries. Without the device→host
    // counts, a duplicate grant to one of two equal clusters encodes like
    // one to the other. The other counts merge no state these configs
    // reach, so the length check is what catches their loss.
    for (base, states) in [(cfg(2, 2), 1_397), (nested(2, 1), 549)] {
        let what = format!("{}x{} l1={}", base.clusters, base.addrs, base.l1_cores);
        assert_eq!(
            encoding_is_injective(&base),
            states,
            "{what}: state count moved"
        );
    }
}

#[test]
fn symmetry_preserves_witness_vocabulary() {
    // The table-conformance witnesses must not depend on whether
    // exploration is canonicalized — both runs exercise the same
    // (controller, state, event) set.
    for base in [cfg(2, 1), cfg(3, 1), nested(2, 1)] {
        let reduced = check_resilient(&base);
        let full = check_resilient(&ResilientConfig {
            symmetry: false,
            ..base
        });
        assert_eq!(reduced.witnesses, full.witnesses);
    }
}

#[test]
fn seeded_bugs_are_caught_with_and_without_symmetry() {
    // Each injection on the smallest config it exists in, with the start
    // of the message of the invariant it must trip. The last two drop a
    // design rule: a BISnp answered before its nested recall (Fig. 4),
    // and a racing snoop answered from the pre-fill state (Fig. 2).
    for (inj, base, expected) in [
        (Injection::LostGrantLivelock, cfg(2, 1), "deadlock"),
        (Injection::PoisonLaunder, cfg(2, 1), "poison stickiness"),
        (Injection::SkipRecallNesting, nested(2, 1), "inclusion"),
        (Injection::SkipConflictStash, cfg(2, 1), "SWMR"),
    ] {
        for symmetry in [true, false] {
            let r = check_resilient(&ResilientConfig {
                inject: Some(inj),
                symmetry,
                ..base.clone()
            });
            let (v, cex) = r
                .violation
                .as_ref()
                .unwrap_or_else(|| panic!("{} not caught (symmetry={symmetry})", inj.name()));
            assert!(
                v.to_string().starts_with(expected),
                "{}: expected {expected}, got {v} (symmetry={symmetry})",
                inj.name()
            );
            assert!(!cex.steps.is_empty());
            assert!(cex.trace.contains("INVARIANT VIOLATED"));
        }
    }
}

#[test]
fn counterexample_replay_is_byte_stable() {
    // The determinism lint keeps wall-clock and unordered iteration out
    // of `c3-verif`; this pins the end result — two independent runs
    // render byte-identical counterexamples.
    let mk = || {
        check_resilient(&ResilientConfig {
            inject: Some(Injection::LostGrantLivelock),
            ..cfg(2, 1)
        })
    };
    let (a, b) = (mk(), mk());
    let (va, ca) = a.violation.as_ref().expect("violation");
    let (vb, cb) = b.violation.as_ref().expect("violation");
    assert_eq!(format!("{va}"), format!("{vb}"));
    assert_eq!(ca.steps, cb.steps);
    assert_eq!(ca.trace, cb.trace);
}
