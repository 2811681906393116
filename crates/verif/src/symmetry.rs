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
//! The canonical form is the lexicographically smallest encoding over
//! the combined group — with ≤ 3 clusters and ≤ 2 addresses at most
//! `3! × 2! = 12` permutations. The number of *distinct* images is the
//! orbit size, which lets the checker report the exact unreduced state
//! count (Σ orbit sizes over canonical states) and hence an exact
//! reduction factor — no second unreduced run needed.
//!
//! Canonicalization prunes rather than encoding every image. An image
//! is laid out as a permutation-invariant header, then one *cluster
//! block* per cluster in new-id order, then a tail (everything that
//! names a cluster id). A block names no cluster id and has one length
//! for every cluster, so the smallest image must carry the smallest
//! block sequence: for each address permutation, the cluster
//! permutations that sort the blocks. Only the tail may vary in length.
//! [`SymmetryGroup::canonical`] encodes each block once per address
//! permutation and sorts them, keeps the `(π, σ)` pairs that reach the
//! smallest sorted sequence (ties keep every tied pair), and encodes the
//! tail only for those. The pairs whose image equals the minimum form
//! one coset of the state's stabiliser, so the orbit size is `|G|`
//! divided by their count. The identity group, with no permutation to
//! sort by, yields the plain encoding. The brute-force minimum over all
//! images, [`SymmetryGroup::canonical_brute_force`], is the reference
//! the tests compare against.

use std::cmp::Ordering;

/// A state that can encode itself under a cluster/address relabelling.
///
/// The encoding under cluster permutation `cperm` and address
/// permutation `aperm` ([`Symmetric::encode_perm`]) is the header, then
/// cluster blocks in new-id order, then the tail. Pruning relies on one
/// contract: a cluster block names no cluster id, and every cluster's
/// block has the same length.
pub trait Symmetric {
    /// Append the permutation-invariant header.
    fn encode_header(&self, out: &mut Vec<u8>);

    /// Append cluster `c`'s block with address `a` renamed to
    /// `aperm[a]`.
    fn encode_cluster(&self, c: usize, aperm: &[u8], out: &mut Vec<u8>);

    /// Append the tail with cluster `i` renamed to `cperm[i]` and
    /// address `a` renamed to `aperm[a]`.
    fn encode_tail(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>);

    /// Append the whole encoding under the relabelling. It must be
    /// injective (two different states never encode equal), and the
    /// identity permutation must yield the natural serialization.
    fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
        self.encode_header(out);
        for new in 0..cperm.len() as u8 {
            let old = cperm.iter().position(|&n| n == new).expect("permutation");
            self.encode_cluster(old, aperm, out);
        }
        self.encode_tail(cperm, aperm, out);
    }
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

/// The inverse of a permutation: `inv[new] = old`.
fn inverse(p: &[u8]) -> Vec<u8> {
    let mut inv = vec![0; p.len()];
    for (old, &new) in p.iter().enumerate() {
        inv[new as usize] = old as u8;
    }
    inv
}

/// The combined cluster × address permutation group, with the buffers
/// canonicalization reuses from call to call.
pub struct SymmetryGroup {
    /// Cluster permutations (identity first).
    cperms: Vec<Vec<u8>>,
    /// Their inverses: the old cluster at each new position.
    cinvs: Vec<Vec<u8>>,
    /// Address permutations (identity first).
    aperms: Vec<Vec<u8>>,
    /// Every cluster block under every address permutation; block `c`
    /// under `aperms[a]` is the `a * clusters + c`-th.
    blocks: Vec<u8>,
    /// One address permutation's clusters, in sorted block order.
    order: Vec<u8>,
    /// Per cluster, the first position in `order` holding a block equal
    /// to its own.
    class: Vec<u8>,
    /// `(cluster perm, address perm)` indices whose block sequence is
    /// the minimum.
    cands: Vec<(usize, usize)>,
    /// One candidate's tail.
    tail: Vec<u8>,
}

impl SymmetryGroup {
    fn from_perms(cperms: Vec<Vec<u8>>, aperms: Vec<Vec<u8>>) -> Self {
        SymmetryGroup {
            cinvs: cperms.iter().map(|p| inverse(p)).collect(),
            cperms,
            aperms,
            blocks: Vec::new(),
            order: Vec::new(),
            class: Vec::new(),
            cands: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// The full group for `clusters × addrs`.
    pub fn new(clusters: usize, addrs: usize) -> Self {
        Self::from_perms(permutations(clusters), permutations(addrs))
    }

    /// The trivial group (identity only) — used to switch reduction off
    /// while keeping the same exploration code path.
    pub fn identity(clusters: usize, addrs: usize) -> Self {
        Self::from_perms(
            vec![(0..clusters as u8).collect()],
            vec![(0..addrs as u8).collect()],
        )
    }

    /// Group order.
    pub fn order(&self) -> usize {
        self.cperms.len() * self.aperms.len()
    }

    /// Canonicalize: returns the lexicographically minimal encoding over
    /// all permutation images, and the orbit size (number of distinct
    /// images). The canonical bytes are appended to `out` (cleared
    /// first).
    pub fn canonical<S: Symmetric>(&mut self, s: &S, out: &mut Vec<u8>) -> usize {
        out.clear();
        if self.order() == 1 {
            // The identity's one image keeps the blocks in cluster order,
            // sorted or not.
            s.encode_perm(&self.cperms[0], &self.aperms[0], out);
            return 1;
        }
        let SymmetryGroup {
            cperms,
            cinvs,
            aperms,
            blocks,
            order,
            class,
            cands,
            tail,
        } = self;
        let clusters = cinvs[0].len();
        // Each cluster block, once per address permutation.
        blocks.clear();
        for ap in aperms.iter() {
            for c in 0..clusters {
                s.encode_cluster(c, ap, blocks);
            }
        }
        let len = blocks.len() / (clusters * aperms.len());
        let block = |a: usize, c: u8| &blocks[(a * clusters + c as usize) * len..][..len];
        // The smallest block sequence under each address permutation is
        // its blocks sorted: blocks share one length, so ordering the
        // sequences block by block orders their bytes.
        s.encode_header(out);
        let prefix = out.len();
        cands.clear();
        for a in 0..aperms.len() {
            order.clear();
            for c in 0..clusters as u8 {
                let at = order.partition_point(|&o| block(a, o) <= block(a, c));
                order.insert(at, c);
            }
            tail.clear();
            for &c in order.iter() {
                tail.extend_from_slice(block(a, c));
            }
            let ord = if a == 0 {
                Ordering::Less
            } else {
                tail.as_slice().cmp(&out[prefix..])
            };
            match ord {
                Ordering::Less => {
                    out.truncate(prefix);
                    out.extend_from_slice(tail);
                    cands.clear();
                }
                Ordering::Equal => {}
                Ordering::Greater => continue,
            }
            // The cluster permutations reaching the sorted sequence are
            // those that put an equal block at every position: label each
            // cluster by the first sorted position of its block.
            class.resize(clusters, 0);
            for (i, &c) in order.iter().enumerate() {
                class[c as usize] = match i {
                    0 => 0,
                    _ if block(a, c) == block(a, order[i - 1]) => class[order[i - 1] as usize],
                    _ => i as u8,
                };
            }
            for (p, inv) in cinvs.iter().enumerate() {
                if inv
                    .iter()
                    .zip(order.iter())
                    .all(|(&x, &y)| class[x as usize] == class[y as usize])
                {
                    cands.push((p, a));
                }
            }
        }
        // Every candidate shares the header and blocks; the smallest tail
        // decides, and the candidates reaching it count the stabiliser.
        let prefix = out.len();
        let (bp, ba) = cands[0];
        s.encode_tail(&cperms[bp], &aperms[ba], out);
        let mut stabiliser = 1;
        for &(p, a) in &cands[1..] {
            tail.clear();
            s.encode_tail(&cperms[p], &aperms[a], tail);
            match tail.as_slice().cmp(&out[prefix..]) {
                Ordering::Less => {
                    out.truncate(prefix);
                    out.extend_from_slice(tail);
                    stabiliser = 1;
                }
                Ordering::Equal => stabiliser += 1,
                Ordering::Greater => {}
            }
        }
        cperms.len() * aperms.len() / stabiliser
    }

    /// The reference canonicalization: encode every image, keep the
    /// smallest, count the distinct ones. Same result as
    /// [`SymmetryGroup::canonical`], at the cost of `|G|` full encodings.
    pub fn canonical_brute_force<S: Symmetric>(&self, s: &S, out: &mut Vec<u8>) -> usize {
        let mut images: Vec<Vec<u8>> = Vec::with_capacity(self.order());
        for cp in &self.cperms {
            for ap in &self.aperms {
                let mut image = Vec::new();
                s.encode_perm(cp, ap, &mut image);
                images.push(image);
            }
        }
        images.sort();
        out.clear();
        out.extend_from_slice(&images[0]);
        images.dedup();
        images.len()
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

    /// A toy symmetric state: one flag per cluster (its block), one
    /// value per address and a holder bitmap over clusters (the tail).
    struct Toy {
        flags: Vec<u8>,
        vals: Vec<u8>,
        holders: u8,
    }

    fn toy(flags: &[u8], vals: &[u8]) -> Toy {
        Toy {
            flags: flags.to_vec(),
            vals: vals.to_vec(),
            holders: 0,
        }
    }

    impl Symmetric for Toy {
        fn encode_header(&self, _out: &mut Vec<u8>) {}

        fn encode_cluster(&self, c: usize, _aperm: &[u8], out: &mut Vec<u8>) {
            out.push(self.flags[c]);
        }

        fn encode_tail(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
            // Write address fields in *new* index order.
            for &old in &inverse(aperm) {
                out.push(self.vals[old as usize]);
            }
            let mut holders = 0;
            for (old, &new) in cperm.iter().enumerate() {
                if self.holders & (1 << old) != 0 {
                    holders |= 1 << new;
                }
            }
            out.push(holders);
        }
    }

    #[test]
    fn permuted_states_share_canonical_form() {
        let mut g = SymmetryGroup::new(3, 2);
        let a = toy(&[1, 0, 2], &[9, 4]);
        let b = toy(&[2, 1, 0], &[4, 9]);
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
        let s = toy(&[5, 5, 1], &[7, 7]);
        let mut c = Vec::new();
        assert_eq!(g.canonical(&s, &mut c), 3);
        // Fully symmetric state: orbit of one.
        let u = toy(&[5, 5, 5], &[7, 7]);
        assert_eq!(g.canonical(&u, &mut c), 1);
    }

    #[test]
    fn identity_group_is_transparent() {
        let mut g = SymmetryGroup::identity(3, 2);
        let a = toy(&[1, 0, 2], &[9, 4]);
        let mut c = Vec::new();
        assert_eq!(g.canonical(&a, &mut c), 1);
        let mut plain = Vec::new();
        a.encode_perm(&[0, 1, 2], &[0, 1], &mut plain);
        assert_eq!(c, plain);
    }

    #[test]
    fn tail_breaks_a_tie_among_equal_blocks() {
        let mut g = SymmetryGroup::new(3, 2);
        // Equal blocks: every pair survives pruning, and the holder
        // bitmap alone picks the minimum — the two holders renamed to
        // clusters 0 and 1, the smaller value first.
        let s = Toy {
            holders: 0b101,
            ..toy(&[5, 5, 5], &[9, 4])
        };
        let mut c = Vec::new();
        let orbit = g.canonical(&s, &mut c);
        assert_eq!(g.cands.len(), 12);
        assert_eq!(c, [5, 5, 5, 4, 9, 0b011]);
        // Three choices of the non-holder, two address orders.
        assert_eq!(orbit, 6);
        let mut brute = Vec::new();
        assert_eq!(g.canonical_brute_force(&s, &mut brute), orbit);
        assert_eq!(brute, c);
    }

    #[test]
    fn fully_symmetric_state_keeps_every_candidate() {
        let mut g = SymmetryGroup::new(3, 2);
        let s = Toy {
            holders: 0b111,
            ..toy(&[5, 5, 5], &[7, 7])
        };
        let mut c = Vec::new();
        assert_eq!(g.canonical(&s, &mut c), 1);
        assert_eq!(g.cands.len(), 12);
        assert_eq!(c, [5, 5, 5, 7, 7, 0b111]);
    }

    #[test]
    fn pruning_matches_brute_force_on_every_small_toy() {
        let mut g = SymmetryGroup::new(3, 2);
        let (mut c, mut brute) = (Vec::new(), Vec::new());
        for bits in 0u32..(1 << 13) {
            let s = Toy {
                flags: (0..3).map(|i| (bits >> (2 * i) & 3) as u8).collect(),
                vals: (0..2).map(|i| (bits >> (6 + 2 * i) & 3) as u8).collect(),
                holders: (bits >> 10) as u8,
            };
            let orbit = g.canonical(&s, &mut c);
            assert_eq!(orbit, g.canonical_brute_force(&s, &mut brute));
            assert_eq!(c, brute);
        }
    }
}
