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
/// Two independent 64-bit lanes of a SplitMix64-style word mixer. With
/// `n` states the collision probability is about `n² / 2¹²⁹` — around
/// 10⁻²⁰ for 10⁸ states — which is the standard hash-compaction trade
/// for explicit-state exploration (the deterministic `FxHasher` alone
/// would be far too weak to bet soundness on).
pub fn fingerprint(bytes: &[u8]) -> u128 {
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut a: u64 = 0x243f6a8885a308d3; // pi
    let mut b: u64 = 0x13198a2e03707344;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        a = mix(a ^ w.wrapping_mul(0x9e3779b97f4a7c15));
        b = mix(b ^ w.wrapping_mul(0xc2b2ae3d27d4eb4f));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        let w = u64::from_le_bytes(w) ^ ((rem.len() as u64) << 56);
        a = mix(a ^ w.wrapping_mul(0x9e3779b97f4a7c15));
        b = mix(b ^ w.wrapping_mul(0xc2b2ae3d27d4eb4f));
    }
    a = mix(a ^ (bytes.len() as u64));
    b = mix(b ^ (bytes.len() as u64).rotate_left(32));
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
