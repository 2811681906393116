//! Compact hashed visited set for large explicit-state runs.
//!
//! Keeping every full state in a `HashSet` tops out around a few million
//! states on a CI worker. This module stores **128-bit fingerprints**
//! instead (Holzmann-style hash compaction: ~16 bytes per state plus an
//! 8-byte trace link); the explorer keeps whole states only in its BFS
//! queue.
//!
//! Counterexample traces survive compaction: each visited node records
//! `(parent, successor ordinal)`. Successor enumeration is deterministic,
//! so replaying the ordinal chain from the initial state reconstructs the
//! exact concrete path without ever storing full states.

use std::collections::hash_map::Entry;

use c3_sim::hash::FxHashMap;

/// Sentinel parent index for the initial state.
pub const NO_PARENT: u32 = u32::MAX;

/// 128-bit fingerprint of an encoded state.
///
/// Two independently keyed 64-bit lanes of a SplitMix64-style mixer,
/// fed 16 bytes a step: each lane absorbs both words of the step as its
/// own linear combination, and the two combinations together are an
/// invertible map of the step (the matrix of multipliers has an odd
/// determinant), so every step difference reaches a lane. One mix per
/// lane per 16 bytes halves the serial chain of a mix per 8 bytes. A
/// finalizer then feeds each lane into the other, so every output bit
/// depends on both. With `n` states the collision probability is about
/// `n² / 2¹²⁹` — around 10⁻²⁰ for 10⁸ states — which is the standard
/// hash-compaction trade for explicit-state exploration (the
/// deterministic `FxHasher` alone would be far too weak to bet
/// soundness on).
///
/// An odd determinant needs an even multiplier, and lane `a`'s second
/// word gets it, so lane `a` cannot see a step difference in the top
/// bit of byte 15 alone. Only lane `b` tells such a pair apart, and it
/// collides with probability about 2⁻⁶⁴. Canonical images hold small
/// counters and tags, so a byte of 128 or more is rare in them.
pub fn fingerprint(bytes: &[u8]) -> u128 {
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    // `K[1]` is even and the others odd: `K[0]·K[3] − K[1]·K[2]` is odd.
    // Lane `a` therefore drops the top bit of `w1`; lane `b` keeps it.
    const K: [u64; 4] = [
        0x9e3779b97f4a7c15,
        0xc2b2ae3d27d4eb4e,
        0x165667b19e3779f9,
        0xd6e8feb86659fd93,
    ];
    let mut a: u64 = 0x243f6a8885a308d3; // pi
    let mut b: u64 = 0x13198a2e03707344;
    let mut step = |w: [u8; 16]| {
        let w0 = u64::from_le_bytes(w[..8].try_into().unwrap());
        let w1 = u64::from_le_bytes(w[8..].try_into().unwrap());
        a = mix(a ^ w0.wrapping_mul(K[0]).wrapping_add(w1.wrapping_mul(K[1])));
        b = mix(b ^ w0.wrapping_mul(K[2]).wrapping_add(w1.wrapping_mul(K[3])));
    };
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        step(c.try_into().unwrap());
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // Zero-padded; the length below tells a padded input from a
        // longer one.
        let mut w = [0u8; 16];
        w[..rem.len()].copy_from_slice(rem);
        step(w);
    }
    let len = bytes.len() as u64;
    let a = mix(a ^ len);
    let b = mix(b ^ len.rotate_left(32) ^ a);
    let a = mix(a ^ b);
    ((a as u128) << 64) | b as u128
}

/// Per-node trace link: which parent and which successor ordinal led
/// here first (BFS order, so the link chain is a shortest path).
#[derive(Clone, Copy, Debug)]
pub struct TraceLink {
    /// Index of the parent node ([`NO_PARENT`] for the initial state).
    pub parent: u32,
    /// Index into the parent's deterministic successor list.
    pub ordinal: u16,
}

/// Fingerprint-keyed visited set with per-node trace links.
#[derive(Default)]
pub struct VisitedSet {
    map: FxHashMap<u128, u32>,
    links: Vec<TraceLink>,
}

impl VisitedSet {
    /// Empty set.
    pub fn new() -> Self {
        VisitedSet::default()
    }

    /// Insert a fingerprint. Returns `Some(node id)` if it was new,
    /// `None` if the state (or a fingerprint-colliding twin) was
    /// already visited.
    pub fn insert(&mut self, fp: u128, parent: u32, ordinal: u16) -> Option<u32> {
        let Entry::Vacant(slot) = self.map.entry(fp) else {
            return None;
        };
        let id = self.links.len() as u32;
        slot.insert(id);
        self.links.push(TraceLink { parent, ordinal });
        Some(id)
    }

    /// Number of visited states.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no state has been visited.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The successor-ordinal path from the initial state to `id`
    /// (empty if `id` is the initial state itself).
    pub fn path_to(&self, id: u32) -> Vec<u16> {
        let mut ords = Vec::new();
        let mut cur = id;
        while self.links[cur as usize].parent != NO_PARENT {
            ords.push(self.links[cur as usize].ordinal);
            cur = self.links[cur as usize].parent;
        }
        ords.reverse();
        ords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_near_collisions() {
        let a = fingerprint(b"hello world");
        let b = fingerprint(b"hello worle");
        let c = fingerprint(b"hello worl");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Stable across calls.
        assert_eq!(a, fingerprint(b"hello world"));
        // Length is mixed in: a zero-padded prefix differs from the
        // shorter input.
        assert_ne!(fingerprint(&[0, 0, 0]), fingerprint(&[0, 0]));
    }

    #[test]
    fn single_bit_flips_change_about_half_the_output_bits() {
        // Every bit of inputs from 1 to 160 bytes long (partial and whole
        // 16-byte steps), flipped one at a time: on average half the 128
        // output bits change, and each output bit changes about half the
        // time (the strict avalanche criterion). The flips include the
        // top bit of every step, which reaches lane `b` alone.
        let mut x = 0x9e3779b97f4a7c15u64;
        let (mut flips, mut changed) = (0u64, 0u64);
        let mut per_bit = [0u64; 128];
        for len in 1..=160 {
            let input: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let base = fingerprint(&input);
            for bit in 0..8 * len {
                let mut flipped = input.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let diff = base ^ fingerprint(&flipped);
                assert_ne!(diff, 0, "flipping bit {bit} of a {len}-byte input");
                flips += 1;
                changed += diff.count_ones() as u64;
                for (b, n) in per_bit.iter_mut().enumerate() {
                    *n += (diff >> b & 1) as u64;
                }
            }
        }
        let mean = changed as f64 / flips as f64;
        assert!(
            (63.0..65.0).contains(&mean),
            "{mean} bits change on average"
        );
        for (b, &n) in per_bit.iter().enumerate() {
            let p = n as f64 / flips as f64;
            assert!(
                (0.48..0.52).contains(&p),
                "output bit {b} changes with p = {p}"
            );
        }
    }

    #[test]
    fn visited_set_tracks_paths() {
        let mut v = VisitedSet::new();
        let root = v.insert(fingerprint(b"root"), NO_PARENT, 0).unwrap();
        let a = v.insert(fingerprint(b"a"), root, 2).unwrap();
        let b = v.insert(fingerprint(b"b"), a, 5).unwrap();
        assert!(v.insert(fingerprint(b"a"), b, 9).is_none());
        assert_eq!(v.path_to(root), Vec::<u16>::new());
        assert_eq!(v.path_to(b), vec![2, 5]);
        assert_eq!(v.len(), 3);
    }
}
