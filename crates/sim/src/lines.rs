//! Per-line coherence state with quiescent lines folded to summaries.
//!
//! Directory holder sets and device-side snoop state are per-line
//! records, but at any instant almost all of an OLTP pool's lines are
//! quiescent: no transaction in flight, at most a data value, a poison
//! bit, holders and profiling counts to remember. [`LineMap`] keeps a
//! full entry only for lines that need one and a `Copy` summary for the
//! rest:
//!
//! * `live` maps a line to a slot in a slab of full entries. The slab
//!   has a free list, so steady-state promote/demote cycles recycle
//!   entries (and the capacity of their queues) instead of allocating
//!   per event — the allocs/event budgets in
//!   `crates/bench/alloc_budget.txt` rely on this.
//! * `quiet` maps every demoted line to its summary. Default summaries
//!   are kept too, so a line in neither map is exactly a line never
//!   touched; [`LineMap::summary`] and [`LineMap::iter_summaries`]
//!   report only the non-default ones.
//!
//! Determinism: callers either address a single line or iterate and
//! then sum or sort; the iteration order of the underlying
//! [`FxHashMap`]s is a pure function of the insertion history, which is
//! itself deterministic for a seed.
//!
//! # Examples
//!
//! ```
//! use c3_sim::lines::{LineEntry, LineMap};
//!
//! #[derive(Default)]
//! struct Line { data: u64, busy: bool }
//! impl LineEntry for Line {
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
//! let mut map: LineMap<Line> = LineMap::default();
//! map.entry(5).data = 9;
//! assert!(map.demote(5), "quiescent line folds into its summary");
//! assert_eq!(map.resident(), 0);
//! assert_eq!(map.entry(5).data, 9, "summary restores on promotion");
//! ```

use std::collections::hash_map::Entry;
use std::fmt;
use std::mem::size_of;

use crate::hash::FxHashMap;
use crate::metrics::MetricSample;

/// A per-line record that can be compressed into a compact summary while
/// quiescent.
pub trait LineEntry: Default {
    /// The compact quiescent form. `Default` must represent "touched but
    /// carrying no information".
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

/// A point-in-time snapshot of a per-line store's footprint, for uniform
/// wiring into gauges and reports across the coherence agents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Lines ever materialized.
    pub touched: u64,
    /// Lines currently materialized.
    pub resident: usize,
    /// High-water mark of `resident`.
    pub peak_resident: usize,
    /// Estimated bytes of state held right now.
    pub state_bytes: usize,
    /// High-water mark of `state_bytes`.
    pub peak_state_bytes: usize,
}

impl Footprint {
    /// Emit the opt-in `state_metrics` group under `group`: gauges for
    /// the current `resident_lines` and `state_bytes`; counters for the
    /// monotone `touched_lines`, `peak_resident_lines` and
    /// `peak_state_bytes`. An L1's MSHR table (`mshrs`) names its entries
    /// `*_mshrs` and has no `touched_lines`.
    pub fn emit(&self, out: &mut MetricSample, group: &str, mshrs: bool) {
        let (resident, peak) = if mshrs {
            ("resident_mshrs", "peak_resident_mshrs")
        } else {
            ("resident_lines", "peak_resident_lines")
        };
        out.gauge(group, resident, self.resident as f64);
        out.gauge(group, "state_bytes", self.state_bytes as f64);
        if !mshrs {
            out.counter(group, "touched_lines", self.touched as f64);
        }
        out.counter(group, peak, self.peak_resident as f64);
        out.counter(group, "peak_state_bytes", self.peak_state_bytes as f64);
    }
}

/// Map from line index to entry `V`, full entries only for lines that are
/// not quiescent. See the module docs for the storage scheme.
#[derive(Debug, Default)]
pub struct LineMap<V: LineEntry> {
    live: FxHashMap<u64, u32>,
    slab: Vec<V>,
    free: Vec<u32>,
    quiet: FxHashMap<u64, V::Summary>,
    touched: u64,
    peak_resident: usize,
    peak_state_bytes: usize,
}

impl<V: LineEntry> LineMap<V> {
    /// Materialized entry for `key`, promoting from the stored summary
    /// (or a fresh default for a line never touched) if the line is not
    /// currently live.
    pub fn entry(&mut self, key: u64) -> &mut V {
        let slot = match self.live.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let summary = self.quiet.remove(&key).unwrap_or_else(|| {
                    self.touched += 1;
                    V::Summary::default()
                });
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slab.push(V::default());
                    (self.slab.len() - 1) as u32
                });
                self.slab[slot as usize].restore(summary);
                e.insert(slot);
                self.peak_resident = self.peak_resident.max(self.live.len());
                self.note_state_bytes();
                slot
            }
        };
        &mut self.slab[slot as usize]
    }

    /// The materialized entry for `key`, if the line is currently live.
    /// Quiescent (demoted) lines return `None` — use
    /// [`LineMap::summary`] for those.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.live.get(&key).map(|&s| &self.slab[s as usize])
    }

    /// Mutable access to the materialized entry for `key`, if live. Does
    /// not promote.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.live.get(&key).map(|&s| &mut self.slab[s as usize])
    }

    /// The summary of a demoted line. `None` when the line is live, was
    /// never touched, or demoted with a default summary.
    pub fn summary(&self, key: u64) -> Option<V::Summary> {
        self.quiet
            .get(&key)
            .copied()
            .filter(|s| *s != V::Summary::default())
    }

    /// Fold a live, quiescent line back into its summary. Returns whether
    /// the line was demoted (false when it is not live or
    /// [`LineEntry::try_demote`] vetoes). The freed slab slot is
    /// recycled, its collections' capacity intact.
    pub fn demote(&mut self, key: u64) -> bool {
        let Some(&slot) = self.live.get(&key) else {
            return false;
        };
        let Some(summary) = self.slab[slot as usize].try_demote() else {
            return false;
        };
        self.live.remove(&key);
        self.free.push(slot);
        self.quiet.insert(key, summary);
        self.note_state_bytes();
        true
    }

    /// Lines ever materialized.
    pub fn touched_lines(&self) -> u64 {
        self.touched
    }

    /// Lines currently holding a full entry.
    pub fn resident(&self) -> usize {
        self.live.len()
    }

    /// High-water mark of [`LineMap::resident`].
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Estimated bytes of coherence state held right now: a key and slot
    /// per live line, a key and summary per demoted line, and the slab
    /// (struct sizes; heap owned *by* entries — holder sets, queues — is
    /// not traversed, so this is a lower bound).
    fn state_bytes(&self) -> usize {
        self.live.len() * size_of::<(u64, u32)>()
            + self.quiet.len() * size_of::<(u64, V::Summary)>()
            + self.slab.len() * size_of::<V>()
    }

    fn note_state_bytes(&mut self) {
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());
    }

    /// Snapshot every footprint statistic at once.
    pub fn footprint(&self) -> Footprint {
        Footprint {
            touched: self.touched,
            resident: self.live.len(),
            peak_resident: self.peak_resident,
            state_bytes: self.state_bytes(),
            peak_state_bytes: self.peak_state_bytes,
        }
    }

    /// Iterate all materialized `(line, entry)` pairs in the hash map's
    /// deterministic-for-a-seed order; callers that expose the result
    /// sort first.
    pub fn iter_live(&self) -> impl Iterator<Item = (u64, &V)> {
        self.live.iter().map(|(&k, &s)| (k, &self.slab[s as usize]))
    }

    /// Apply `f` to every materialized entry — for rewriting state that
    /// every line carries (re-numbering stored holder sets), not for
    /// per-line work.
    pub fn for_each_live_mut(&mut self, mut f: impl FnMut(&mut V)) {
        for &slot in self.live.values() {
            f(&mut self.slab[slot as usize]);
        }
    }

    /// Apply `f` to every demoted line's summary, default ones included
    /// (see [`LineMap::for_each_live_mut`]).
    pub fn for_each_summary_mut(&mut self, f: impl FnMut(&mut V::Summary)) {
        self.quiet.values_mut().for_each(f);
    }

    /// Iterate all non-default `(line, summary)` pairs of demoted lines,
    /// in the same kind of order as [`LineMap::iter_live`].
    pub fn iter_summaries(&self) -> impl Iterator<Item = (u64, V::Summary)> + '_ {
        self.quiet
            .iter()
            .filter(|(_, s)| **s != V::Summary::default())
            .map(|(&k, &s)| (k, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy directory-like entry: `busy` pins it live; `data`/`poisoned`
    /// survive demotion through the summary.
    #[derive(Default, Debug)]
    struct TestLine {
        s: Summary,
        busy: bool,
        scratch: Vec<u32>,
    }

    #[derive(Clone, Copy, PartialEq, Default, Debug)]
    struct Summary {
        data: u64,
        poisoned: bool,
    }

    impl LineEntry for TestLine {
        type Summary = Summary;
        fn try_demote(&self) -> Option<Summary> {
            (!self.busy).then_some(self.s)
        }
        fn restore(&mut self, s: Summary) {
            self.s = s;
            self.busy = false;
            self.scratch.clear();
        }
    }

    #[test]
    fn promote_demote_round_trip() {
        let mut m = LineMap::<TestLine>::default();
        m.entry(130).s.data = 42;
        assert_eq!((m.resident(), m.touched_lines()), (1, 1));
        assert!(m.demote(130));
        assert_eq!(m.resident(), 0);
        assert_eq!(m.touched_lines(), 1, "demotion keeps the line touched");
        assert_eq!(m.summary(130).map(|s| s.data), Some(42));
        // Promotion restores the summary into a recycled slot.
        assert_eq!(m.entry(130).s.data, 42);
        assert_eq!(m.resident(), 1);
        assert_eq!(m.summary(130), None, "summary consumed by promotion");
    }

    #[test]
    fn busy_lines_refuse_demotion() {
        let mut m = LineMap::<TestLine>::default();
        m.entry(7).busy = true;
        assert!(!m.demote(7));
        assert_eq!(m.resident(), 1);
        m.get_mut(7).unwrap().busy = false;
        assert!(m.demote(7));
    }

    #[test]
    fn default_summaries_are_not_reported() {
        let mut m = LineMap::<TestLine>::default();
        m.entry(9);
        assert!(m.demote(9));
        assert_eq!(m.summary(9), None);
        assert_eq!(m.iter_summaries().count(), 0);
    }

    #[test]
    fn default_demotion_keeps_the_touched_count() {
        let mut m = LineMap::<TestLine>::default();
        m.entry(3);
        assert!(m.demote(3), "default summary");
        m.entry(3);
        assert_eq!(m.touched_lines(), 1, "re-promotion is not a new line");
    }

    #[test]
    fn poison_sticks_across_demotion() {
        let mut m = LineMap::<TestLine>::default();
        m.entry(200).s.poisoned = true;
        for _ in 0..2 {
            assert!(m.demote(200));
            assert!(m.summary(200).unwrap().poisoned);
            assert!(m.entry(200).s.poisoned, "poison survives the round trip");
        }
    }

    #[test]
    fn steady_state_promote_demote_recycles_slab() {
        let mut m = LineMap::<TestLine>::default();
        for i in 0..10_000u64 {
            let key = i % 512;
            m.entry(key).s.data = i;
            m.demote(key);
        }
        assert_eq!(m.resident(), 0);
        assert_eq!(m.touched_lines(), 512);
        assert_eq!(m.slab.len(), 1, "one slot serves the whole cycle");
        let fp = m.footprint();
        assert_eq!(fp.peak_resident, 1);
        assert!(fp.peak_state_bytes >= fp.state_bytes);
    }

    #[test]
    fn counters_and_state_bytes_track() {
        let keys = [0u64, 1, 63, 64, 1000, 4096];
        let mut m = LineMap::<TestLine>::default();
        for k in keys {
            m.entry(k).s.data = k + 1;
        }
        assert_eq!(
            (m.resident(), m.touched_lines(), m.peak_resident()),
            (6, 6, 6)
        );
        let full = m.footprint().state_bytes;
        for k in keys {
            assert!(m.demote(k));
        }
        // Demotion trades a live key for a stored summary; the slab is
        // retained for recycling.
        let grown = keys.len() * (size_of::<(u64, Summary)>() - size_of::<(u64, u32)>());
        assert_eq!(m.footprint().state_bytes, full + grown);
        assert_eq!(m.footprint().peak_state_bytes, full + grown);
        assert_eq!(m.iter_summaries().count(), 6);
        assert_eq!(m.iter_live().count(), 0);
    }

    /// Seeded differential test: LineMap vs a plain-map oracle over
    /// random traffic (touch, mutate, demote, probe) on a small,
    /// collision-heavy key space.
    #[test]
    fn differential_against_plain_map_oracle() {
        use crate::rng::SimRng;

        let mut rng = SimRng::seed_from(0x0C39);
        let mut m = LineMap::<TestLine>::default();
        // Oracle: every touched line's logical state and busy flag, plus
        // whether the real map must currently have it materialized.
        let mut oracle: BTreeMap<u64, (Summary, bool, bool)> = BTreeMap::new();

        for step in 0..20_000u64 {
            let key = rng.below(160);
            let at = format!("step {step} key {key}");
            match rng.below(100) {
                // Touch + mutate (promotes).
                0..=49 => {
                    let e = m.entry(key);
                    let (o, busy, live) = oracle.entry(key).or_default();
                    assert_eq!(e.s, *o, "{at}");
                    e.s.data = step;
                    e.s.poisoned |= rng.below(10) == 0;
                    e.busy = rng.below(2) == 0;
                    (*o, *busy, *live) = (e.s, e.busy, true);
                }
                // Demote attempt.
                50..=84 => {
                    let did = m.demote(key);
                    match oracle.get_mut(&key) {
                        Some((_, busy, live)) => {
                            assert_eq!(did, *live && !*busy, "{at}");
                            *live &= !did;
                        }
                        None => assert!(!did, "{at}: demoted an untouched key"),
                    }
                }
                // Read-only probes.
                _ => match oracle.get(&key) {
                    Some((o, _, true)) => {
                        assert_eq!(m.get(key).expect("oracle says live").s, *o, "{at}");
                        assert!(m.summary(key).is_none(), "{at}");
                    }
                    Some((o, _, false)) => {
                        assert!(m.get(key).is_none(), "{at}");
                        let expect = (*o != Summary::default()).then_some(*o);
                        assert_eq!(m.summary(key), expect, "{at}");
                    }
                    None => {
                        assert!(m.get(key).is_none(), "{at}");
                        assert!(m.summary(key).is_none(), "{at}");
                    }
                },
            }
            // Global invariants every step.
            let live = oracle.values().filter(|(_, _, live)| *live).count();
            assert_eq!(m.resident(), live, "step {step}");
            assert_eq!(m.iter_live().count(), live, "step {step}");
            assert_eq!(m.touched_lines(), oracle.len() as u64, "step {step}");
        }
        assert!(m.touched_lines() > 100, "traffic covered the space");
    }
}
