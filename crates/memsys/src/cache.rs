//! Set-associative cache array with LRU replacement.
//!
//! Used for the private L1s (Table III: 128 KiB, 8-way) and for C³'s CXL
//! cache. The array stores an arbitrary per-line payload `T` (coherence
//! state + data); replacement policy is true LRU via a monotonic stamp.

use std::fmt;

use c3_protocol::ops::Addr;

/// A set-associative, LRU-replaced cache array keyed by line address.
///
/// The whole array is four flat allocations, made once: a `sets × ways`
/// run of tags, one of LRU stamps and one of payload slots, plus a
/// per-set occupancy count. Set `s` owns slots `s * ways ..
/// s * ways + ways`; its first `len[s]` slots are resident, in insertion
/// order with swap-remove on eviction and removal (so [`CacheArray::iter`]
/// visits lines in the same order a per-set `Vec` would).
///
/// # Examples
///
/// ```
/// use c3_memsys::cache::CacheArray;
/// use c3_protocol::ops::Addr;
///
/// let mut c: CacheArray<u32> = CacheArray::new(4, 2);
/// assert!(c.insert(Addr(1), 10).is_none());
/// assert_eq!(c.get(Addr(1)), Some(&10));
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<T> {
    sets: usize,
    ways: usize,
    /// Line address per slot (meaningful only for resident slots).
    tags: Vec<u64>,
    /// LRU stamp per slot: the tick of the line's last touch.
    stamps: Vec<u64>,
    /// Payload per slot; `Some` exactly for resident slots.
    slots: Vec<Option<T>>,
    /// Resident lines per set.
    lens: Vec<u32>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<T> CacheArray<T> {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero or `sets` is not a power of two.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = sets * ways;
        CacheArray {
            sets,
            ways,
            tags: vec![0; n],
            stamps: vec![0; n],
            slots: std::iter::repeat_with(|| None).take(n).collect(),
            lens: vec![0; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Construct from a capacity in bytes (64 B lines) and associativity,
    /// as configured in Table III.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two set count.
    pub fn with_capacity_bytes(bytes: usize, ways: usize) -> Self {
        let lines = bytes / Addr::LINE_BYTES as usize;
        assert!(lines >= ways, "capacity smaller than one set");
        let sets = (lines / ways).next_power_of_two();
        CacheArray::new(sets, ways)
    }

    fn set_of(&self, addr: Addr) -> usize {
        // Addresses are line indices already; mix to spread strided patterns.
        let x = addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((x >> 32) as usize) & (self.sets - 1)
    }

    /// The resident slot range of `addr`'s set.
    fn resident(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = self.set_of(addr);
        let base = set * self.ways;
        base..base + self.lens[set] as usize
    }

    /// The slot holding `addr`, if resident.
    fn find(&self, addr: Addr) -> Option<usize> {
        let r = self.resident(addr);
        let base = r.start;
        self.tags[r]
            .iter()
            .position(|&t| t == addr.0)
            .map(|i| base + i)
    }

    /// The least recently touched slot in `range` (stamps are unique).
    fn lru(&self, range: std::ops::Range<usize>) -> usize {
        let base = range.start;
        let (i, _) = self.stamps[range]
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| *s)
            .expect("full set is non-empty");
        base + i
    }

    /// Take the payload out of `slot` and move the set's last resident
    /// line into it (a per-set `Vec::swap_remove`).
    fn swap_remove(&mut self, slot: usize) -> T {
        let set = slot / self.ways;
        self.lens[set] -= 1;
        let last = set * self.ways + self.lens[set] as usize;
        self.tags.swap(slot, last);
        self.stamps.swap(slot, last);
        self.slots.swap(slot, last);
        self.slots[last]
            .take()
            .expect("resident slot has a payload")
    }

    /// Number of lines the array can hold.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a line without touching LRU state.
    pub fn peek(&self, addr: Addr) -> Option<&T> {
        self.find(addr).and_then(|i| self.slots[i].as_ref())
    }

    /// Look up a line, updating LRU and hit/miss statistics.
    pub fn get(&mut self, addr: Addr) -> Option<&T> {
        self.tick += 1;
        match self.find(addr) {
            Some(i) => {
                self.stamps[i] = self.tick;
                self.hits += 1;
                self.slots[i].as_ref()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Mutable lookup, updating LRU (no hit/miss accounting — state
    /// updates should not double-count).
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        self.tick += 1;
        let i = self.find(addr)?;
        self.stamps[i] = self.tick;
        self.slots[i].as_mut()
    }

    /// The line that would be evicted to make room for `addr`, if the set
    /// is full and `addr` is absent.
    pub fn victim(&self, addr: Addr) -> Option<(Addr, &T)> {
        let r = self.resident(addr);
        if r.len() < self.ways || self.find(addr).is_some() {
            return None;
        }
        let i = self.lru(r);
        self.slots[i].as_ref().map(|p| (Addr(self.tags[i]), p))
    }

    /// Insert (or replace) a line, returning the evicted `(addr, payload)`
    /// if the set was full.
    pub fn insert(&mut self, addr: Addr, payload: T) -> Option<(Addr, T)> {
        self.tick += 1;
        if let Some(i) = self.find(addr) {
            self.slots[i] = Some(payload);
            self.stamps[i] = self.tick;
            return None;
        }
        let r = self.resident(addr);
        let evicted = if r.len() == self.ways {
            let i = self.lru(r);
            let old = Addr(self.tags[i]);
            Some((old, self.swap_remove(i)))
        } else {
            None
        };
        let set = self.set_of(addr);
        let slot = set * self.ways + self.lens[set] as usize;
        self.lens[set] += 1;
        self.tags[slot] = addr.0;
        self.stamps[slot] = self.tick;
        self.slots[slot] = Some(payload);
        evicted
    }

    /// Remove a line, returning its payload.
    pub fn remove(&mut self, addr: Addr) -> Option<T> {
        let i = self.find(addr)?;
        Some(self.swap_remove(i))
    }

    /// Iterate over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> {
        (0..self.sets).flat_map(move |set| {
            let base = set * self.ways;
            (base..base + self.lens[set] as usize)
                .filter_map(move |i| self.slots[i].as_ref().map(|p| (Addr(self.tags[i]), p)))
        })
    }

    /// Addresses of all resident lines (stable order not guaranteed).
    pub fn addresses(&self) -> Vec<Addr> {
        self.iter().map(|(a, _)| a).collect()
    }

    /// Lifetime hit count (via [`CacheArray::get`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (via [`CacheArray::get`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl<T> fmt::Display for CacheArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {}x{} ({} resident, {} hits, {} misses)",
            self.sets,
            self.ways,
            self.len(),
            self.hits,
            self.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c: CacheArray<u32> = CacheArray::new(8, 2);
        c.insert(Addr(5), 50);
        assert_eq!(c.get(Addr(5)), Some(&50));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn miss_counts() {
        let mut c: CacheArray<u32> = CacheArray::new(8, 2);
        assert_eq!(c.get(Addr(5)), None);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // Single set, 2 ways: touching A keeps it; B is evicted by C.
        let mut c: CacheArray<&'static str> = CacheArray::new(1, 2);
        c.insert(Addr(1), "a");
        c.insert(Addr(2), "b");
        assert!(c.get(Addr(1)).is_some()); // A is now MRU
        let evicted = c.insert(Addr(3), "c").expect("set was full");
        assert_eq!(evicted, (Addr(2), "b"));
        assert!(c.peek(Addr(1)).is_some());
        assert!(c.peek(Addr(3)).is_some());
    }

    #[test]
    fn victim_prediction_matches_insert() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 2);
        c.insert(Addr(1), 1);
        c.insert(Addr(2), 2);
        let (va, _) = c.victim(Addr(3)).expect("full set has a victim");
        let (ea, _) = c.insert(Addr(3), 3).expect("eviction");
        assert_eq!(va, ea);
    }

    #[test]
    fn no_victim_when_set_has_space_or_line_present() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 2);
        c.insert(Addr(1), 1);
        assert!(c.victim(Addr(2)).is_none()); // free way
        c.insert(Addr(2), 2);
        assert!(c.victim(Addr(1)).is_none()); // already resident
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 1);
        c.insert(Addr(1), 1);
        assert!(c.insert(Addr(1), 2).is_none());
        assert_eq!(c.peek(Addr(1)), Some(&2));
    }

    #[test]
    fn remove_frees_way() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 1);
        c.insert(Addr(1), 1);
        assert_eq!(c.remove(Addr(1)), Some(1));
        assert!(c.is_empty());
        assert!(c.insert(Addr(2), 2).is_none());
    }

    #[test]
    fn capacity_bytes_geometry() {
        // 128 KiB, 8-way, 64 B lines (Table III L1): 2048 lines, 256 sets.
        let c: CacheArray<u32> = CacheArray::with_capacity_bytes(128 * 1024, 8);
        assert_eq!(c.capacity(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _c: CacheArray<u32> = CacheArray::new(3, 2);
    }

    /// The per-set `Vec` layout the flat array replaced, kept as the
    /// differential oracle: same hash, same LRU stamps, same swap-remove.
    mod oracle {
        use c3_protocol::ops::Addr;

        struct Entry<T> {
            addr: Addr,
            stamp: u64,
            payload: T,
        }

        pub struct VecCache<T> {
            ways: usize,
            sets: Vec<Vec<Entry<T>>>,
            tick: u64,
            pub hits: u64,
            pub misses: u64,
        }

        impl<T> VecCache<T> {
            pub fn new(sets: usize, ways: usize) -> Self {
                VecCache {
                    ways,
                    sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn set_of(&self, addr: Addr) -> usize {
                let x = addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 32) as usize) & (self.sets.len() - 1)
            }

            pub fn peek(&self, addr: Addr) -> Option<&T> {
                self.sets[self.set_of(addr)]
                    .iter()
                    .find(|e| e.addr == addr)
                    .map(|e| &e.payload)
            }

            pub fn get(&mut self, addr: Addr) -> Option<&T> {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(addr);
                match self.sets[set].iter_mut().find(|e| e.addr == addr) {
                    Some(e) => {
                        e.stamp = tick;
                        self.hits += 1;
                        Some(&e.payload)
                    }
                    None => {
                        self.misses += 1;
                        None
                    }
                }
            }

            pub fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(addr);
                self.sets[set].iter_mut().find(|e| e.addr == addr).map(|e| {
                    e.stamp = tick;
                    &mut e.payload
                })
            }

            pub fn victim(&self, addr: Addr) -> Option<(Addr, &T)> {
                let set = &self.sets[self.set_of(addr)];
                if set.len() < self.ways || set.iter().any(|e| e.addr == addr) {
                    return None;
                }
                set.iter()
                    .min_by_key(|e| e.stamp)
                    .map(|e| (e.addr, &e.payload))
            }

            pub fn insert(&mut self, addr: Addr, payload: T) -> Option<(Addr, T)> {
                self.tick += 1;
                let tick = self.tick;
                let ways = self.ways;
                let set_idx = self.set_of(addr);
                let set = &mut self.sets[set_idx];
                if let Some(e) = set.iter_mut().find(|e| e.addr == addr) {
                    e.payload = payload;
                    e.stamp = tick;
                    return None;
                }
                let evicted = if set.len() == ways {
                    let (i, _) = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .expect("full set is non-empty");
                    let old = set.swap_remove(i);
                    Some((old.addr, old.payload))
                } else {
                    None
                };
                set.push(Entry {
                    addr,
                    stamp: tick,
                    payload,
                });
                evicted
            }

            pub fn remove(&mut self, addr: Addr) -> Option<T> {
                let set_idx = self.set_of(addr);
                let set = &mut self.sets[set_idx];
                let i = set.iter().position(|e| e.addr == addr)?;
                Some(set.swap_remove(i).payload)
            }

            pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> {
                self.sets
                    .iter()
                    .flat_map(|s| s.iter().map(|e| (e.addr, &e.payload)))
            }
        }
    }

    /// Seeded random traffic on collision-heavy geometries (few sets, a
    /// key space several times the capacity): the flat array and the
    /// per-set `Vec` oracle agree on every result, eviction, counter and
    /// on `iter` order.
    #[test]
    fn flat_array_matches_vec_oracle() {
        let mut rng = c3_sim::rng::SimRng::seed_from(0xF1A7);
        for (sets, ways) in [(1, 1), (1, 4), (2, 2), (4, 3), (8, 8)] {
            for case in 0..20u64 {
                let mut flat: CacheArray<u64> = CacheArray::new(sets, ways);
                let mut vecs: oracle::VecCache<u64> = oracle::VecCache::new(sets, ways);
                let keys = (sets * ways * 3) as u64;
                for step in 0..400u64 {
                    let addr = Addr(rng.below(keys));
                    let at = format!("{sets}x{ways} case {case} step {step} {addr}");
                    match rng.below(6) {
                        0 => assert_eq!(
                            flat.insert(addr, step),
                            vecs.insert(addr, step),
                            "insert: {at}"
                        ),
                        1 => assert_eq!(flat.get(addr), vecs.get(addr), "get: {at}"),
                        2 => {
                            let (f, v) = (flat.get_mut(addr), vecs.get_mut(addr));
                            assert_eq!(f, v, "get_mut: {at}");
                            if let (Some(f), Some(v)) = (f, v) {
                                *f += 1000;
                                *v += 1000;
                            }
                        }
                        3 => assert_eq!(flat.peek(addr), vecs.peek(addr), "peek: {at}"),
                        4 => assert_eq!(flat.remove(addr), vecs.remove(addr), "remove: {at}"),
                        _ => assert_eq!(flat.victim(addr), vecs.victim(addr), "victim: {at}"),
                    }
                    assert_eq!(flat.hits(), vecs.hits, "hits: {at}");
                    assert_eq!(flat.misses(), vecs.misses, "misses: {at}");
                    assert!(
                        flat.iter().eq(vecs.iter()),
                        "iter order: {at}\n flat {:?}\n vecs {:?}",
                        flat.iter().collect::<Vec<_>>(),
                        vecs.iter().collect::<Vec<_>>()
                    );
                    assert_eq!(flat.len(), vecs.iter().count(), "len: {at}");
                }
            }
        }
    }

    #[test]
    fn iter_covers_all_lines() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2);
        for i in 0..5 {
            c.insert(Addr(i), i as u32);
        }
        assert_eq!(c.iter().count(), c.len());
        assert_eq!(c.addresses().len(), c.len());
    }
}
