//! Region-compressed per-line state storage.
//!
//! Every coherence agent keeps *some* per-cacheline record — directory
//! holder sets, MSHRs, device-side snoop state. Storing one heap entry
//! per line caps realistic footprints: an OLTP pool of a million distinct
//! lines is a million `Line` structs even though, at any instant, almost
//! all of them are quiescent (no transaction in flight, no holder beyond
//! the default, at most a data value and a poison bit to remember).
//!
//! [`RegionMap`] compresses that tail with a two-level scheme borrowed
//! from page-granular CXL coherency trackers (64 cachelines per 4 KiB
//! page, tracked as one bitmap): the map is keyed by **region** (line
//! index `>> 6`) and each region holds
//!
//! * a `touched` presence bitmap — every line ever materialized (this
//!   preserves the historical `lines.len()` occupancy statistic exactly);
//! * a compact **summary** lane — a 64-bit bitmap plus a rank-indexed
//!   vector of `Summary` values for quiescent lines whose summary differs
//!   from the default (data written, poison sticky, profiling counts);
//! * a **live** lane — a 64-bit bitmap plus a rank-indexed vector of slab
//!   slots for lines currently holding a full, materialized entry.
//!
//! Entries live in a slab with a free list, so steady-state
//! promote/demote cycles recycle allocations instead of hitting the heap
//! per event — the allocs/event budgets in `crates/bench/alloc_budget.txt`
//! rely on this.
//!
//! Determinism: `RegionMap` introduces no ordering of its own into
//! simulated behaviour. Callers either address a single line (all the
//! engine hot paths) or iterate and then sort (post-mortem / report
//! paths); the iteration order of the underlying [`FxHashMap`] is a pure
//! function of the insertion history, which is itself deterministic for
//! a seed.
//!
//! # Examples
//!
//! ```
//! use c3_sim::region::{RegionEntry, RegionMap};
//!
//! #[derive(Default)]
//! struct Line { data: u64, busy: bool }
//! impl RegionEntry for Line {
//!     type Summary = u64;
//!     fn try_demote(&self) -> Option<u64> {
//!         (!self.busy).then_some(self.data)
//!     }
//!     fn restore(&mut self, s: u64) {
//!         self.data = s;
//!         self.busy = false;
//!     }
//! }
//!
//! let mut map: RegionMap<Line> = RegionMap::new();
//! map.entry(5).data = 9;
//! assert!(map.demote(5), "quiescent line folds into its summary");
//! assert_eq!(map.resident(), 0);
//! assert_eq!(map.entry(5).data, 9, "summary restores on promotion");
//! ```

use std::fmt;
use std::mem;

use crate::hash::FxHashMap;
use crate::metrics::MetricSample;

/// Lines per region: 64 cachelines of 64 B = one 4 KiB page, so a
/// region's presence set is exactly one machine word.
pub const LINES_PER_REGION: u64 = 64;

/// A per-line record that can be compressed into a compact summary while
/// quiescent.
pub trait RegionEntry: Default {
    /// The compact quiescent form. `Default` must represent "touched but
    /// carrying no information" — such summaries are not stored at all.
    type Summary: Copy + PartialEq + Default + fmt::Debug;

    /// `Some(summary)` when the entry is quiescent (no transaction,
    /// queue, holder or other state beyond what the summary captures)
    /// and may be demoted; `None` while it must stay materialized.
    fn try_demote(&self) -> Option<Self::Summary>;

    /// Rebuild the entry from its summary. `self` is a recycled slab
    /// slot holding the remains of an arbitrary previous entry, so
    /// implementations must reset **every** field (clearing collections
    /// rather than reallocating them, to keep their capacity).
    fn restore(&mut self, s: Self::Summary);
}

/// One region's three lanes. Rank indexing: the payload for line bit `b`
/// of a lane mask lives at index `popcount(mask & ((1 << b) - 1))` of the
/// lane's vector, so a region costs only as much as it actually stores.
#[derive(Debug)]
struct Region<S> {
    /// Every line ever materialized in this region.
    touched: u64,
    /// Lines currently materialized; payload = slab slot.
    live: u64,
    /// Quiescent lines with a non-default summary; payload = summary.
    summarized: u64,
    slots: Vec<u32>,
    summaries: Vec<S>,
}

impl<S> Region<S> {
    fn new() -> Self {
        Region {
            touched: 0,
            live: 0,
            summarized: 0,
            slots: Vec::new(),
            summaries: Vec::new(),
        }
    }
}

#[inline]
fn rank(mask: u64, bit: u32) -> usize {
    (mask & ((1u64 << bit) - 1)).count_ones() as usize
}

/// A point-in-time snapshot of a [`RegionMap`]'s storage footprint, for
/// uniform wiring into gauges and reports across the coherence agents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Lines ever materialized.
    pub touched: u64,
    /// Lines currently materialized.
    pub resident: usize,
    /// Regions with at least one touched line.
    pub regions: usize,
    /// High-water mark of `resident`.
    pub peak_resident: usize,
    /// Estimated bytes of state held right now.
    pub state_bytes: usize,
    /// High-water mark of `state_bytes`.
    pub peak_state_bytes: usize,
}

impl Footprint {
    /// Emit the opt-in `state_metrics` group under `group`: gauges for
    /// the current `resident_lines`, `resident_regions` and
    /// `state_bytes`; counters for the monotone `touched_lines`,
    /// `peak_resident_lines` and `peak_state_bytes`. An L1's MSHR store
    /// (`mshrs`) names its entries `*_mshrs` and has no `touched_lines`.
    pub fn emit(&self, out: &mut MetricSample, group: &str, mshrs: bool) {
        let (resident, peak) = if mshrs {
            ("resident_mshrs", "peak_resident_mshrs")
        } else {
            ("resident_lines", "peak_resident_lines")
        };
        out.gauge(group, resident, self.resident as f64);
        out.gauge(group, "resident_regions", self.regions as f64);
        out.gauge(group, "state_bytes", self.state_bytes as f64);
        if !mshrs {
            out.counter(group, "touched_lines", self.touched as f64);
        }
        out.counter(group, peak, self.peak_resident as f64);
        out.counter(group, "peak_state_bytes", self.peak_state_bytes as f64);
    }
}

/// Two-level region-compressed map from line index to entry `V`.
///
/// See the module docs for the storage scheme. The API mirrors what the
/// coherence engines need from their old per-line `FxHashMap`s:
/// [`RegionMap::entry`] (materialize-or-promote), [`RegionMap::get`] /
/// [`RegionMap::get_mut`] (materialized lines only), [`RegionMap::take`]
/// (MSHR-style removal by value), plus [`RegionMap::demote`] to fold a
/// re-quiesced line back into its summary.
#[derive(Debug)]
pub struct RegionMap<V: RegionEntry> {
    regions: FxHashMap<u64, Region<V::Summary>>,
    slab: Vec<V>,
    free: Vec<u32>,
    touched: u64,
    resident: usize,
    summarized: usize,
    peak_resident: usize,
    peak_state_bytes: usize,
}

impl<V: RegionEntry> Default for RegionMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: RegionEntry> RegionMap<V> {
    /// Empty map.
    pub fn new() -> Self {
        RegionMap {
            regions: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            touched: 0,
            resident: 0,
            summarized: 0,
            peak_resident: 0,
            peak_state_bytes: 0,
        }
    }

    /// Materialized entry for `key`, promoting from the stored summary
    /// (or a fresh default) if the line is not currently live. Marks the
    /// line touched.
    pub fn entry(&mut self, key: u64) -> &mut V {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let region = self.regions.entry(rk).or_insert_with(Region::new);
        if region.touched & (1 << bit) == 0 {
            region.touched |= 1 << bit;
            self.touched += 1;
        }
        if region.live & (1 << bit) == 0 {
            // Promote: pull the summary (if stored), grab a recycled slab
            // slot, and restore the entry from the summary.
            let summary = if region.summarized & (1 << bit) != 0 {
                let i = rank(region.summarized, bit);
                region.summarized &= !(1 << bit);
                self.summarized -= 1;
                region.summaries.remove(i)
            } else {
                V::Summary::default()
            };
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.slab.push(V::default());
                    (self.slab.len() - 1) as u32
                }
            };
            self.slab[slot as usize].restore(summary);
            let i = rank(region.live, bit);
            region.live |= 1 << bit;
            region.slots.insert(i, slot);
            self.resident += 1;
            self.peak_resident = self.peak_resident.max(self.resident);
            self.note_state_bytes();
        }
        let region = self.regions.get(&rk).expect("region just ensured");
        let slot = region.slots[rank(region.live, bit)];
        &mut self.slab[slot as usize]
    }

    /// The materialized entry for `key`, if the line is currently live.
    /// Quiescent (summarized) lines return `None` — use
    /// [`RegionMap::summary`] for those.
    pub fn get(&self, key: u64) -> Option<&V> {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let region = self.regions.get(&rk)?;
        if region.live & (1 << bit) == 0 {
            return None;
        }
        Some(&self.slab[region.slots[rank(region.live, bit)] as usize])
    }

    /// Mutable access to the materialized entry for `key`, if live. Does
    /// not touch or promote.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let region = self.regions.get(&rk)?;
        if region.live & (1 << bit) == 0 {
            return None;
        }
        let slot = region.slots[rank(region.live, bit)];
        Some(&mut self.slab[slot as usize])
    }

    /// The stored summary for `key`. `None` when the line is live, was
    /// never touched, or demoted with a default summary (the three cases
    /// where no summary is stored).
    pub fn summary(&self, key: u64) -> Option<V::Summary> {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let region = self.regions.get(&rk)?;
        if region.summarized & (1 << bit) == 0 {
            return None;
        }
        Some(region.summaries[rank(region.summarized, bit)])
    }

    /// Whether `key` has ever been materialized.
    pub fn is_touched(&self, key: u64) -> bool {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        self.regions
            .get(&rk)
            .is_some_and(|r| r.touched & (1 << bit) != 0)
    }

    /// Fold a live, quiescent line back into its summary. Returns whether
    /// the line was demoted (false when it is not live or
    /// [`RegionEntry::try_demote`] vetoes). The freed slab slot is
    /// recycled, its collections' capacity intact.
    pub fn demote(&mut self, key: u64) -> bool {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let Some(region) = self.regions.get_mut(&rk) else {
            return false;
        };
        if region.live & (1 << bit) == 0 {
            return false;
        }
        let slot = region.slots[rank(region.live, bit)];
        let Some(summary) = self.slab[slot as usize].try_demote() else {
            return false;
        };
        let i = rank(region.live, bit);
        region.live &= !(1 << bit);
        region.slots.remove(i);
        self.free.push(slot);
        self.resident -= 1;
        if summary != V::Summary::default() {
            let i = rank(region.summarized, bit);
            region.summarized |= 1 << bit;
            region.summaries.insert(i, summary);
            self.summarized += 1;
        }
        self.note_state_bytes();
        true
    }

    /// Remove and return the materialized entry for `key` (MSHR
    /// completion). The line stays touched; any previously stored
    /// summary is untouched (live and summarized are mutually exclusive,
    /// so there is none).
    pub fn take(&mut self, key: u64) -> Option<V> {
        let (rk, bit) = (key / LINES_PER_REGION, (key % LINES_PER_REGION) as u32);
        let region = self.regions.get_mut(&rk)?;
        if region.live & (1 << bit) == 0 {
            return None;
        }
        let i = rank(region.live, bit);
        let slot = region.slots[i];
        region.live &= !(1 << bit);
        region.slots.remove(i);
        self.free.push(slot);
        self.resident -= 1;
        Some(mem::take(&mut self.slab[slot as usize]))
    }

    /// Lines ever materialized — the historical `lines.len()` statistic
    /// of the per-line maps this type replaces.
    pub fn touched_lines(&self) -> u64 {
        self.touched
    }

    /// Lines currently holding a full entry.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// High-water mark of [`RegionMap::resident`].
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Regions with at least one touched line.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Whether no line is currently materialized.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Estimated bytes of coherence state held right now: region table
    /// entries, stored summaries, rank vectors and the entry slab
    /// (struct sizes; heap owned *by* entries — holder sets, queues — is
    /// not traversed, so this is a lower bound).
    pub fn state_bytes(&self) -> usize {
        self.regions.len() * (mem::size_of::<Region<V::Summary>>() + 8)
            + self.summarized * mem::size_of::<V::Summary>()
            + self.resident * mem::size_of::<u32>()
            + self.slab.len() * mem::size_of::<V>()
    }

    /// High-water mark of [`RegionMap::state_bytes`].
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_state_bytes
    }

    /// Snapshot every footprint statistic at once.
    pub fn footprint(&self) -> Footprint {
        Footprint {
            touched: self.touched,
            resident: self.resident,
            regions: self.regions.len(),
            peak_resident: self.peak_resident,
            state_bytes: self.state_bytes(),
            peak_state_bytes: self.peak_state_bytes,
        }
    }

    fn note_state_bytes(&mut self) {
        let b = self.state_bytes();
        if b > self.peak_state_bytes {
            self.peak_state_bytes = b;
        }
    }

    /// Iterate all materialized `(line, entry)` pairs. Order is the
    /// region map's deterministic-for-a-seed iteration order; callers
    /// that expose the result sort first.
    pub fn iter_live(&self) -> impl Iterator<Item = (u64, &V)> {
        self.regions.iter().flat_map(move |(&rk, region)| {
            let mut mask = region.live;
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let bit = mask.trailing_zeros();
                mask &= mask - 1;
                let key = rk * LINES_PER_REGION + bit as u64;
                let slot = region.slots[rank(region.live, bit)];
                Some((key, &self.slab[slot as usize]))
            })
        })
    }

    /// Iterate all stored `(line, summary)` pairs (quiescent lines with
    /// non-default summaries). Same ordering caveat as
    /// [`RegionMap::iter_live`].
    pub fn iter_summaries(&self) -> impl Iterator<Item = (u64, V::Summary)> + '_ {
        self.regions.iter().flat_map(|(&rk, region)| {
            let mut mask = region.summarized;
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let bit = mask.trailing_zeros();
                mask &= mask - 1;
                let key = rk * LINES_PER_REGION + bit as u64;
                let s = region.summaries[rank(region.summarized, bit)];
                Some((key, s))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy directory-like entry: `busy` pins it live; `data`/`poisoned`
    /// survive demotion through the summary.
    #[derive(Default, Debug, PartialEq)]
    struct TestLine {
        data: u64,
        poisoned: bool,
        busy: bool,
        scratch: Vec<u32>,
    }

    #[derive(Clone, Copy, PartialEq, Default, Debug)]
    struct TestSummary {
        data: u64,
        poisoned: bool,
    }

    impl RegionEntry for TestLine {
        type Summary = TestSummary;
        fn try_demote(&self) -> Option<TestSummary> {
            (!self.busy).then_some(TestSummary {
                data: self.data,
                poisoned: self.poisoned,
            })
        }
        fn restore(&mut self, s: TestSummary) {
            self.data = s.data;
            self.poisoned = s.poisoned;
            self.busy = false;
            self.scratch.clear();
        }
    }

    #[test]
    fn promote_demote_round_trip() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        let e = m.entry(130);
        e.data = 42;
        e.poisoned = false;
        assert_eq!(m.resident(), 1);
        assert_eq!(m.touched_lines(), 1);
        assert!(m.demote(130));
        assert_eq!(m.resident(), 0);
        assert_eq!(m.touched_lines(), 1, "demotion keeps the line touched");
        assert_eq!(
            m.summary(130),
            Some(TestSummary {
                data: 42,
                poisoned: false
            })
        );
        // Promotion restores the summary into a recycled slot.
        assert_eq!(m.entry(130).data, 42);
        assert_eq!(m.resident(), 1);
        assert_eq!(m.summary(130), None, "summary consumed by promotion");
    }

    #[test]
    fn busy_lines_refuse_demotion() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        m.entry(7).busy = true;
        assert!(!m.demote(7));
        assert_eq!(m.resident(), 1);
        m.get_mut(7).unwrap().busy = false;
        assert!(m.demote(7));
    }

    #[test]
    fn default_summaries_are_not_stored() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        m.entry(9);
        assert!(m.demote(9));
        assert_eq!(m.summary(9), None);
        assert!(m.is_touched(9));
        assert_eq!(m.iter_summaries().count(), 0);
    }

    #[test]
    fn bitmap_edge_lines_0_and_63() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        // Same region: lines 0 and 63 exercise both ends of the masks.
        m.entry(0).data = 1;
        m.entry(63).data = 2;
        // And the first line of the next region for the boundary.
        m.entry(64).data = 3;
        assert_eq!(m.regions(), 2);
        assert_eq!(m.resident(), 3);
        assert!(m.demote(0));
        assert!(m.demote(63));
        assert!(m.demote(64));
        assert_eq!(m.summary(0).unwrap().data, 1);
        assert_eq!(m.summary(63).unwrap().data, 2);
        assert_eq!(m.summary(64).unwrap().data, 3);
        assert_eq!(m.entry(63).data, 2);
        assert_eq!(m.entry(0).data, 1);
        assert_eq!(m.entry(64).data, 3);
    }

    #[test]
    fn poison_sticks_across_demotion() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        m.entry(200).poisoned = true;
        assert!(m.demote(200));
        assert!(m.summary(200).unwrap().poisoned);
        assert!(m.entry(200).poisoned, "poison must survive the round trip");
        // ... and across a second cycle.
        assert!(m.demote(200));
        assert!(m.entry(200).poisoned);
    }

    #[test]
    fn take_removes_by_value_and_recycles() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        m.entry(5).data = 11;
        let line = m.take(5).expect("live line");
        assert_eq!(line.data, 11);
        assert_eq!(m.resident(), 0);
        assert!(m.take(5).is_none());
        assert!(m.get(5).is_none());
        assert!(m.is_touched(5));
        // The freed slot is reused, not grown.
        m.entry(6);
        assert_eq!(m.slab.len(), 1);
    }

    #[test]
    fn steady_state_promote_demote_recycles_slab() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        for i in 0..10_000u64 {
            let key = i % 512;
            m.entry(key).data = i;
            m.demote(key);
        }
        assert_eq!(m.resident(), 0);
        assert_eq!(m.touched_lines(), 512);
        assert_eq!(m.slab.len(), 1, "one slot serves the whole cycle");
        assert!(m.peak_resident() >= 1);
        assert!(m.peak_state_bytes() >= m.state_bytes());
    }

    #[test]
    fn counters_and_state_bytes_track() {
        let mut m: RegionMap<TestLine> = RegionMap::new();
        for k in [0u64, 1, 63, 64, 1000, 4096] {
            m.entry(k).data = k + 1;
        }
        assert_eq!(m.resident(), 6);
        assert_eq!(m.touched_lines(), 6);
        assert_eq!(m.regions(), 4);
        assert_eq!(m.peak_resident(), 6);
        let full = m.state_bytes();
        for k in [0u64, 1, 63, 64, 1000, 4096] {
            assert!(m.demote(k));
        }
        // Demotion trades a 4-byte slot index for a stored summary; the
        // slab itself is retained for recycling, so the estimate may only
        // grow by the summary lane.
        assert!(
            m.state_bytes() <= full + 6 * mem::size_of::<TestSummary>(),
            "demoted state grew beyond the summary lane: {} vs {full}",
            m.state_bytes()
        );
        assert_eq!(m.iter_summaries().count(), 6);
        assert_eq!(m.iter_live().count(), 0);
    }

    /// Seeded differential test: RegionMap vs a plain-map oracle over
    /// random traffic (touch, mutate, demote, take) on a small, collision-
    /// heavy key space.
    #[test]
    fn differential_against_plain_map_oracle() {
        use crate::rng::SimRng;

        #[derive(Default, Clone, Debug, PartialEq)]
        struct OracleLine {
            data: u64,
            poisoned: bool,
            busy: bool,
        }

        let mut rng = SimRng::seed_from(0x0C39);
        let mut m: RegionMap<TestLine> = RegionMap::new();
        // Oracle: every touched line's logical state, plus whether the
        // real map must currently have it materialized.
        let mut oracle: BTreeMap<u64, (OracleLine, bool)> = BTreeMap::new();

        for step in 0..20_000u64 {
            let key = rng.below(160); // ~2.5 regions, dense collisions
            match rng.below(100) {
                // Touch + mutate (promotes).
                0..=49 => {
                    let e = m.entry(key);
                    let (o, live) = oracle.entry(key).or_default();
                    assert_eq!(e.data, o.data, "step {step} key {key}");
                    assert_eq!(e.poisoned, o.poisoned, "step {step} key {key}");
                    e.data = step;
                    e.busy = rng.below(2) == 0;
                    if rng.below(10) == 0 {
                        e.poisoned = true;
                    }
                    o.data = e.data;
                    o.busy = e.busy;
                    o.poisoned = e.poisoned;
                    *live = true;
                }
                // Demote attempt.
                50..=79 => {
                    let did = m.demote(key);
                    if let Some((o, live)) = oracle.get_mut(&key) {
                        assert_eq!(did, *live && !o.busy, "step {step} key {key}");
                        if did {
                            *live = false;
                        }
                    } else {
                        assert!(!did, "step {step}: demoted an untouched key {key}");
                    }
                }
                // Take.
                80..=89 => {
                    let got = m.take(key);
                    match oracle.get_mut(&key) {
                        Some((o, live)) if *live => {
                            let line = got.expect("oracle says live");
                            assert_eq!(line.data, o.data, "step {step} key {key}");
                            assert_eq!(line.busy, o.busy, "step {step} key {key}");
                            // Taken: the line's state is gone for good.
                            *o = OracleLine::default();
                            *live = false;
                        }
                        _ => assert!(got.is_none(), "step {step} key {key}"),
                    }
                }
                // Read-only probes.
                _ => {
                    match oracle.get(&key) {
                        Some((o, true)) => {
                            let e = m.get(key).expect("oracle says live");
                            assert_eq!(e.data, o.data, "step {step} key {key}");
                        }
                        Some((o, false)) => {
                            assert!(m.get(key).is_none(), "step {step} key {key}");
                            let expect = (o.data != 0 || o.poisoned).then_some(TestSummary {
                                data: o.data,
                                poisoned: o.poisoned,
                            });
                            assert_eq!(m.summary(key), expect, "step {step} key {key}");
                        }
                        None => {
                            assert!(m.get(key).is_none(), "step {step} key {key}");
                            assert!(m.summary(key).is_none(), "step {step} key {key}");
                            assert!(!m.is_touched(key), "step {step} key {key}");
                        }
                    };
                }
            }
            // Global invariants every step.
            let live_count = oracle.values().filter(|(_, live)| *live).count();
            assert_eq!(m.resident(), live_count, "step {step}");
            assert_eq!(m.touched_lines(), oracle.len() as u64, "step {step}");
        }
        assert!(
            m.touched_lines() > 100,
            "traffic actually covered the space"
        );
    }
}
