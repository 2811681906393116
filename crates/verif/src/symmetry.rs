//! Canonical-form symmetry reduction over clusters and addresses.
//!
//! The resilient model ([`crate::resilient`]) is **fully symmetric** in
//! both cluster identity and address identity: every cluster starts with
//! the same budget and empty caches, every address starts unowned, and no
//! transition rule mentions a concrete cluster or address id (FIFO order,
//! holder bitmaps and message tags are all relabelled consistently under
//! a permutation). Where a rule must choose among clusters — the DCOH
//! invalidating the other sharers of a line one at a time — every choice
//! is its own successor: the sharers are snooped in any order, never
//! lowest id first. The transition relation is therefore *equivariant*:
//! if `s → s'` then `π(s) → π(s')` for every permutation `π` of cluster
//! ids composed with a permutation of address ids. A fixed sharer order
//! breaks this once a line has two other sharers (three hosts); the
//! brute-force differential in `tests/differential.rs` checks 3-host
//! configs for exactly that reason.
//!
//! Under equivariance, exploring one representative per orbit is sound
//! for all the invariants we check (SWMR, staleness, divergence, poison
//! stickiness, deadlock freedom), because each invariant is itself
//! permutation-invariant — it quantifies over "some cluster/address",
//! never a specific one. A violation in any orbit member implies a
//! violation in the representative.
//!
//! Canonicalization is brute-force minimization: with ≤ 3 clusters and
//! ≤ 2 addresses the combined group has at most `3! × 2! = 12` elements,
//! so we encode the state under every permutation and keep the
//! lexicographically smallest byte string. The number of *distinct*
//! images is the orbit size, which lets the checker report the exact
//! unreduced state count (Σ orbit sizes over canonical states) and hence
//! an exact reduction factor — no second unreduced run needed.

/// A state that can encode itself under a cluster/address relabelling.
pub trait Symmetric {
    /// Append a byte encoding of `self` with cluster `i` renamed to
    /// `cperm[i]` and address `a` renamed to `aperm[a]`. The encoding
    /// must be injective (two different states never encode equal) and
    /// the identity permutation must yield the natural serialization.
    fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>);
}

/// All permutations of `0..n` in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<u8>> {
    fn rec(prefix: &mut Vec<u8>, used: &mut Vec<bool>, out: &mut Vec<Vec<u8>>) {
        if prefix.len() == used.len() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..used.len() {
            if !used[i] {
                used[i] = true;
                prefix.push(i as u8);
                rec(prefix, used, out);
                prefix.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

/// The combined cluster × address permutation group.
pub struct SymmetryGroup {
    /// `(cluster permutation, address permutation)` pairs; the identity
    /// pair is always first.
    perms: Vec<(Vec<u8>, Vec<u8>)>,
    scratch: Vec<Vec<u8>>,
}

impl SymmetryGroup {
    /// The full group for `clusters × addrs`.
    pub fn new(clusters: usize, addrs: usize) -> Self {
        let cps = permutations(clusters);
        let aps = permutations(addrs);
        let mut perms = Vec::with_capacity(cps.len() * aps.len());
        for c in &cps {
            for a in &aps {
                perms.push((c.clone(), a.clone()));
            }
        }
        let scratch = vec![Vec::new(); perms.len()];
        SymmetryGroup { perms, scratch }
    }

    /// The trivial group (identity only) — used to switch reduction off
    /// while keeping the same exploration code path.
    pub fn identity(clusters: usize, addrs: usize) -> Self {
        let perms = vec![(
            (0..clusters as u8).collect::<Vec<u8>>(),
            (0..addrs as u8).collect::<Vec<u8>>(),
        )];
        SymmetryGroup {
            perms,
            scratch: vec![Vec::new()],
        }
    }

    /// Group order.
    pub fn order(&self) -> usize {
        self.perms.len()
    }

    /// Canonicalize: returns the lexicographically minimal encoding over
    /// all permutation images, and the orbit size (number of distinct
    /// images). The canonical bytes are appended to `out` (cleared
    /// first).
    pub fn canonical<S: Symmetric>(&mut self, s: &S, out: &mut Vec<u8>) -> usize {
        for (i, (cp, ap)) in self.perms.iter().enumerate() {
            self.scratch[i].clear();
            s.encode_perm(cp, ap, &mut self.scratch[i]);
        }
        let min = self.scratch.iter().min().expect("non-empty group");
        out.clear();
        out.extend_from_slice(min);
        // Orbit size = number of distinct images.
        let mut sorted: Vec<&Vec<u8>> = self.scratch.iter().collect();
        sorted.sort();
        sorted.dedup();
        sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(SymmetryGroup::new(3, 2).order(), 12);
        assert_eq!(SymmetryGroup::identity(3, 2).order(), 1);
    }

    /// A toy symmetric state: one flag per cluster, one value per addr.
    struct Toy {
        flags: Vec<u8>,
        vals: Vec<u8>,
    }

    impl Symmetric for Toy {
        fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
            // Write cluster fields in *new* index order.
            let mut inv_c = vec![0usize; cperm.len()];
            for (old, &new) in cperm.iter().enumerate() {
                inv_c[new as usize] = old;
            }
            let mut inv_a = vec![0usize; aperm.len()];
            for (old, &new) in aperm.iter().enumerate() {
                inv_a[new as usize] = old;
            }
            for &old in &inv_c {
                out.push(self.flags[old]);
            }
            for &old in &inv_a {
                out.push(self.vals[old]);
            }
        }
    }

    #[test]
    fn permuted_states_share_canonical_form() {
        let mut g = SymmetryGroup::new(3, 2);
        let a = Toy {
            flags: vec![1, 0, 2],
            vals: vec![9, 4],
        };
        let b = Toy {
            flags: vec![2, 1, 0],
            vals: vec![4, 9],
        };
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        let orbit_a = g.canonical(&a, &mut ca);
        let orbit_b = g.canonical(&b, &mut cb);
        assert_eq!(ca, cb, "orbit members must share a canonical form");
        assert_eq!(orbit_a, orbit_b);
        // All flags distinct, both values distinct: full orbit.
        assert_eq!(orbit_a, 12);
    }

    #[test]
    fn orbit_size_reflects_stabilizer() {
        let mut g = SymmetryGroup::new(3, 2);
        // Two identical clusters → stabilizer of size 2; identical
        // addresses → address swaps also stabilize.
        let s = Toy {
            flags: vec![5, 5, 1],
            vals: vec![7, 7],
        };
        let mut c = Vec::new();
        assert_eq!(g.canonical(&s, &mut c), 3);
        // Fully symmetric state: orbit of one.
        let u = Toy {
            flags: vec![5, 5, 5],
            vals: vec![7, 7],
        };
        assert_eq!(g.canonical(&u, &mut c), 1);
    }

    #[test]
    fn identity_group_is_transparent() {
        let mut g = SymmetryGroup::identity(3, 2);
        let a = Toy {
            flags: vec![1, 0, 2],
            vals: vec![9, 4],
        };
        let mut c = Vec::new();
        assert_eq!(g.canonical(&a, &mut c), 1);
        let mut plain = Vec::new();
        a.encode_perm(&[0, 1, 2], &[0, 1], &mut plain);
        assert_eq!(c, plain);
    }
}
