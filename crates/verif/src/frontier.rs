//! Compact hashed visited set and spillable FIFO frontier for large
//! explicit-state runs.
//!
//! Keeping every full state in a `HashSet` tops out around a few million
//! states on a CI worker. This module stores **128-bit fingerprints**
//! instead (Holzmann-style hash compaction: ~16 bytes per state plus a
//! 6-byte trace link), and keeps the breadth-first frontier as encoded
//! byte records that can overflow to a spill file, so the resident set
//! stays bounded even when the frontier balloons.
//!
//! Counterexample traces survive compaction: each visited node records
//! `(parent, successor ordinal)`. Successor enumeration is deterministic,
//! so replaying the ordinal chain from the initial state reconstructs the
//! exact concrete path without ever storing full states.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

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
        if self.map.contains_key(&fp) {
            return None;
        }
        let id = self.links.len() as u32;
        self.map.insert(fp, id);
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

/// FIFO queue of byte records with an optional spill file.
///
/// Records are kept in memory up to `mem_cap`; beyond that (or while
/// spilled records remain unread, to preserve FIFO order) they are
/// appended to the spill file and read back in write order. With no
/// spill path configured the queue is purely in-memory and unbounded.
pub struct SpillQueue {
    mem: VecDeque<Vec<u8>>,
    mem_cap: usize,
    path: Option<PathBuf>,
    spill: Option<Spill>,
    /// Total records ever written to the spill file (statistic).
    pub spilled: u64,
    /// High-water mark of in-memory records (statistic).
    pub peak_mem: usize,
    len: usize,
}

struct Spill {
    file: File,
    write_off: u64,
    read_off: u64,
    pending: u64,
    rbuf: Vec<u8>,
    rbuf_pos: usize,
}

const READ_CHUNK: usize = 1 << 20;

impl SpillQueue {
    /// A queue spilling to `path` once more than `mem_cap` records are
    /// resident. `path: None` disables spilling.
    pub fn new(path: Option<PathBuf>, mem_cap: usize) -> Self {
        SpillQueue {
            mem: VecDeque::new(),
            mem_cap: mem_cap.max(1),
            path,
            spill: None,
            spilled: 0,
            peak_mem: 0,
            len: 0,
        }
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record.
    pub fn push(&mut self, rec: &[u8]) {
        self.len += 1;
        let must_spill = self.path.is_some()
            && (self.mem.len() >= self.mem_cap
                || self.spill.as_ref().is_some_and(|s| s.pending > 0));
        if must_spill {
            let spill = self.spill.get_or_insert_with(|| {
                let path = self.path.as_ref().unwrap();
                let file = File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(path)
                    .unwrap_or_else(|e| panic!("open spill file {path:?}: {e}"));
                Spill {
                    file,
                    write_off: 0,
                    read_off: 0,
                    pending: 0,
                    rbuf: Vec::new(),
                    rbuf_pos: 0,
                }
            });
            let mut buf = Vec::with_capacity(4 + rec.len());
            buf.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            buf.extend_from_slice(rec);
            spill
                .file
                .seek(SeekFrom::Start(spill.write_off))
                .expect("seek spill write");
            spill.file.write_all(&buf).expect("write spill record");
            spill.write_off += buf.len() as u64;
            spill.pending += 1;
            self.spilled += 1;
        } else {
            self.mem.push_back(rec.to_vec());
            self.peak_mem = self.peak_mem.max(self.mem.len());
        }
    }

    /// Remove and return the oldest record.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        if let Some(rec) = self.mem.pop_front() {
            self.len -= 1;
            return Some(rec);
        }
        let spill = self.spill.as_mut()?;
        if spill.pending == 0 {
            return None;
        }
        let mut len_bytes = [0u8; 4];
        Self::read_exact(spill, &mut len_bytes);
        let rec_len = u32::from_le_bytes(len_bytes) as usize;
        let mut rec = vec![0u8; rec_len];
        Self::read_exact(spill, &mut rec);
        spill.pending -= 1;
        self.len -= 1;
        if spill.pending == 0 {
            // Fully drained: rewind so the file is reused, not grown.
            spill.write_off = 0;
            spill.read_off = 0;
            spill.rbuf.clear();
            spill.rbuf_pos = 0;
        }
        Some(rec)
    }

    fn read_exact(spill: &mut Spill, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            if spill.rbuf_pos == spill.rbuf.len() {
                let avail = (spill.write_off - spill.read_off) as usize;
                assert!(avail > 0, "spill queue ran dry mid-record");
                let take = avail.min(READ_CHUNK);
                spill.rbuf.resize(take, 0);
                spill.rbuf_pos = 0;
                spill
                    .file
                    .seek(SeekFrom::Start(spill.read_off))
                    .expect("seek spill read");
                spill.file.read_exact(&mut spill.rbuf).expect("read spill");
                spill.read_off += take as u64;
            }
            let n = (out.len() - filled).min(spill.rbuf.len() - spill.rbuf_pos);
            out[filled..filled + n]
                .copy_from_slice(&spill.rbuf[spill.rbuf_pos..spill.rbuf_pos + n]);
            spill.rbuf_pos += n;
            filled += n;
        }
    }
}

impl Drop for SpillQueue {
    fn drop(&mut self) {
        if self.spill.take().is_some() {
            if let Some(path) = &self.path {
                let _ = std::fs::remove_file(path);
            }
        }
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

    #[test]
    fn queue_is_fifo_without_spill() {
        let mut q = SpillQueue::new(None, 4);
        for i in 0..100u32 {
            q.push(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap(), i.to_le_bytes());
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_spills_and_preserves_order() {
        let path =
            std::env::temp_dir().join(format!("c3-verif-spill-test-{}.bin", std::process::id()));
        let mut q = SpillQueue::new(Some(path.clone()), 8);
        // Interleave pushes and pops across the spill boundary, with
        // variable-length records.
        let rec = |i: u32| {
            let mut r = i.to_le_bytes().to_vec();
            r.resize(4 + (i as usize % 7), 0xAB);
            r
        };
        let mut next_pop = 0u32;
        for i in 0..500u32 {
            q.push(&rec(i));
            if i % 3 == 0 {
                assert_eq!(q.pop().unwrap(), rec(next_pop));
                next_pop += 1;
            }
        }
        assert!(q.spilled > 0, "test never exercised the spill path");
        while let Some(r) = q.pop() {
            assert_eq!(r, rec(next_pop));
            next_pop += 1;
        }
        assert_eq!(next_pop, 500);
        assert_eq!(q.len(), 0);
        drop(q);
        assert!(!path.exists(), "spill file not cleaned up");
    }
}
