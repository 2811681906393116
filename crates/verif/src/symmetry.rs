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
//! [`SymmetryGroup::canonical`] encodes each block once, under the
//! identity address permutation, and derives it under the others
//! ([`Symmetric::permute_cluster`]). It sorts each address permutation's
//! blocks from their pairwise comparisons in fixed arrays, keeps the
//! `(π, σ)` pairs that reach the smallest sorted sequence (ties keep
//! every tied pair), writes only that sequence, and encodes the tail
//! only for those pairs. The pairs whose image equals the minimum form
//! one coset of the state's stabiliser, so the orbit size is `|G|`
//! divided by their count. The identity group, with no permutation to
//! sort by, yields the plain encoding. The brute-force minimum over all
//! images, [`SymmetryGroup::canonical_brute_force`], is the reference
//! the tests compare against.

use std::cmp::Ordering;

// Candidate search sorts the cluster blocks in fixed arrays of the
// model's sizes.
use crate::resilient::{MAX_ADDRS, MAX_CLUSTERS};

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

    /// Append the bytes [`Symmetric::encode_cluster`] would, derived from
    /// `ident`, cluster `c`'s block under the identity address
    /// permutation, and return `true`; or return `false` and append
    /// nothing, to have the block re-encoded (the default). A state whose
    /// block holds its per-address fields at fixed offsets can permute
    /// `ident`'s bytes.
    fn permute_cluster(&self, c: usize, aperm: &[u8], ident: &[u8], out: &mut Vec<u8>) -> bool {
        let _ = (c, aperm, ident, out);
        false
    }

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

/// A permutation padded into a fixed array.
fn fixed<const N: usize>(p: &[u8]) -> [u8; N] {
    let mut a = [0; N];
    a[..p.len()].copy_from_slice(p);
    a
}

/// The inverse of a permutation: `inv[new] = old`.
fn inverse<const N: usize>(p: &[u8]) -> [u8; N] {
    let mut inv = [0; N];
    for (old, &new) in p.iter().enumerate() {
        inv[new as usize] = old as u8;
    }
    inv
}

/// Exact counts of the work [`SymmetryGroup::canonical`] did since the
/// group was built. They depend only on the states canonicalized, so a
/// run's counts are the same on every host and gate like allocation
/// budgets do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CanonStats {
    /// Canonicalized states.
    pub calls: u64,
    /// Canonical image bytes written, summed over the calls.
    pub image_bytes: u64,
    /// Cluster blocks encoded from the state ([`Symmetric::encode_cluster`]).
    pub blocks_encoded: u64,
    /// Cluster blocks derived from an encoded one
    /// ([`Symmetric::permute_cluster`] returned `true`).
    pub blocks_derived: u64,
    /// Tails encoded ([`Symmetric::encode_tail`]).
    pub tails: u64,
}

/// The combined cluster × address permutation group, with the buffers
/// canonicalization reuses from call to call.
pub struct SymmetryGroup {
    /// Clusters permuted.
    clusters: usize,
    /// Addresses permuted.
    addrs: usize,
    /// Cluster permutations (identity first).
    cperms: Vec<[u8; MAX_CLUSTERS]>,
    /// Their inverses: the old cluster at each new position.
    cinvs: Vec<[u8; MAX_CLUSTERS]>,
    /// Address permutations (identity first).
    aperms: Vec<[u8; MAX_ADDRS]>,
    /// Per address permutation, every cluster block under it, block `c`
    /// at `c * len`.
    blocks: Vec<Vec<u8>>,
    /// `(cluster perm, address perm)` indices whose block sequence is
    /// the minimum.
    cands: Vec<(usize, usize)>,
    /// One candidate's tail.
    tail: Vec<u8>,
    /// Work counts.
    stats: CanonStats,
}

impl SymmetryGroup {
    fn from_perms(
        clusters: usize,
        addrs: usize,
        cperms: Vec<Vec<u8>>,
        aperms: Vec<Vec<u8>>,
    ) -> Self {
        assert!(
            clusters <= MAX_CLUSTERS && addrs <= MAX_ADDRS,
            "symmetry group over {clusters} clusters x {addrs} addresses"
        );
        SymmetryGroup {
            clusters,
            addrs,
            cinvs: cperms.iter().map(|p| inverse(p)).collect(),
            cperms: cperms.iter().map(|p| fixed(p)).collect(),
            blocks: vec![Vec::new(); aperms.len()],
            aperms: aperms.iter().map(|p| fixed(p)).collect(),
            cands: Vec::new(),
            tail: Vec::new(),
            stats: CanonStats::default(),
        }
    }

    /// The full group for `clusters × addrs`.
    pub fn new(clusters: usize, addrs: usize) -> Self {
        Self::from_perms(clusters, addrs, permutations(clusters), permutations(addrs))
    }

    /// The trivial group (identity only) — used to switch reduction off
    /// while keeping the same exploration code path.
    pub fn identity(clusters: usize, addrs: usize) -> Self {
        Self::from_perms(
            clusters,
            addrs,
            vec![(0..clusters as u8).collect()],
            vec![(0..addrs as u8).collect()],
        )
    }

    /// Group order.
    pub fn order(&self) -> usize {
        self.cperms.len() * self.aperms.len()
    }

    /// The work counts of every [`SymmetryGroup::canonical`] call so far.
    pub fn stats(&self) -> CanonStats {
        self.stats
    }

    /// Canonicalize: returns the lexicographically minimal encoding over
    /// all permutation images, and the orbit size (number of distinct
    /// images). The canonical bytes are appended to `out` (cleared
    /// first).
    pub fn canonical<S: Symmetric>(&mut self, s: &S, out: &mut Vec<u8>) -> usize {
        out.clear();
        let SymmetryGroup {
            clusters: n,
            addrs,
            cperms,
            cinvs,
            aperms,
            blocks,
            cands,
            tail,
            stats,
        } = self;
        let (n, addrs) = (*n, *addrs);
        stats.calls += 1;
        stats.blocks_encoded += n as u64;
        if cperms.len() * aperms.len() == 1 {
            // The identity's one image keeps the blocks in cluster order,
            // sorted or not.
            s.encode_perm(&cperms[0][..n], &aperms[0][..addrs], out);
            stats.tails += 1;
            stats.image_bytes += out.len() as u64;
            return 1;
        }
        // Each cluster block, encoded once under the identity address
        // permutation and derived from that under the others.
        let (ident, derived) = blocks.split_first_mut().expect("an address permutation");
        ident.clear();
        for c in 0..n {
            s.encode_cluster(c, &aperms[0][..addrs], ident);
        }
        let len = ident.len() / n;
        for (ap, buf) in aperms[1..].iter().zip(derived) {
            buf.clear();
            for c in 0..n {
                if s.permute_cluster(c, &ap[..addrs], &ident[c * len..][..len], buf) {
                    stats.blocks_derived += 1;
                } else {
                    s.encode_cluster(c, &ap[..addrs], buf);
                    stats.blocks_encoded += 1;
                }
            }
        }
        let block = |a: usize, c: u8| &blocks[a][c as usize * len..][..len];
        // The smallest block sequence under each address permutation is
        // its blocks sorted: blocks share one length, so ordering the
        // sequences block by block orders their bytes. Only the winning
        // sequence is ever written out.
        let (mut best_a, mut best) = (0, [0u8; MAX_CLUSTERS]);
        cands.clear();
        for a in 0..aperms.len() {
            // A stable sort from the pairwise comparisons: a block's
            // position is the count of smaller blocks plus equal ones of
            // lower cluster id. The count of smaller blocks alone is its
            // class, the first position holding an equal block.
            let (mut class, mut ties) = ([0u8; MAX_CLUSTERS], [0u8; MAX_CLUSTERS]);
            for i in 0..n {
                for j in i + 1..n {
                    match block(a, i as u8).cmp(block(a, j as u8)) {
                        Ordering::Less => class[j] += 1,
                        Ordering::Greater => class[i] += 1,
                        Ordering::Equal => ties[j] += 1,
                    }
                }
            }
            let (mut ord, mut at) = ([0u8; MAX_CLUSTERS], [0u8; MAX_CLUSTERS]);
            for c in 0..n {
                let pos = (class[c] + ties[c]) as usize;
                (ord[pos], at[pos]) = (c as u8, class[c]);
            }
            if a > 0 {
                let ord_vs_best = (0..n)
                    .map(|i| block(a, ord[i]).cmp(block(best_a, best[i])))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal);
                match ord_vs_best {
                    Ordering::Less => cands.clear(),
                    Ordering::Equal => {}
                    Ordering::Greater => continue,
                }
            }
            (best_a, best) = (a, ord);
            // The cluster permutations reaching the sorted sequence are
            // those that put a block of the position's class at every
            // position.
            for (p, inv) in cinvs.iter().enumerate() {
                if (0..n).all(|i| class[inv[i] as usize] == at[i]) {
                    cands.push((p, a));
                }
            }
        }
        s.encode_header(out);
        for &c in &best[..n] {
            out.extend_from_slice(block(best_a, c));
        }
        // Every candidate shares the header and blocks; the smallest tail
        // decides, and the candidates reaching it count the stabiliser.
        let prefix = out.len();
        let (bp, ba) = cands[0];
        s.encode_tail(&cperms[bp][..n], &aperms[ba][..addrs], out);
        let mut stabiliser = 1;
        for &(p, a) in &cands[1..] {
            tail.clear();
            s.encode_tail(&cperms[p][..n], &aperms[a][..addrs], tail);
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
        stats.tails += cands.len() as u64;
        stats.image_bytes += out.len() as u64;
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
                s.encode_perm(&cp[..self.clusters], &ap[..self.addrs], &mut image);
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
            for &old in &inverse::<MAX_ADDRS>(aperm)[..aperm.len()] {
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
