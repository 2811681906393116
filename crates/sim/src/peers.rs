//! Dense peer slots and fixed-width peer sets.
//!
//! A directory tracks which of a handful of peers (a cluster's L1s, a
//! fabric's bridges) hold each line. [`PeerSet`] is that holder set as a
//! `u64` bitmask over the slots of a [`PeerSlots`] registry: `Copy`, no
//! heap, set algebra in one instruction. The registry is kept sorted, so
//! slot order equals ascending [`ComponentId`] and iterating a set's bits
//! from the lowest visits peers in the order a sorted set of ids would —
//! fanouts (invalidations, back-snoops) keep their order whatever order
//! the peers first made contact in.
//!
//! Peers register on first contact. A peer whose id sorts before an
//! already registered one opens a slot in the middle;
//! [`PeerSlots::register`] reports that, and the owner re-numbers every
//! set it stores with [`PeerSet::open_slot`]. That happens at most once
//! per peer, while a run is still warming up.
//!
//! # Examples
//!
//! ```
//! use c3_sim::component::ComponentId;
//! use c3_sim::peers::{PeerSet, PeerSlots};
//!
//! let mut slots = PeerSlots::default();
//! let (b, _) = slots.register(ComponentId(9));
//! let set = PeerSet::EMPTY.with(b);
//! // id 4 sorts first: it takes slot 0 and moves id 9 up to slot 1.
//! let (a, opened) = slots.register(ComponentId(4));
//! assert!(opened);
//! let set = set.open_slot(a).with(a);
//! let ids: Vec<_> = slots.ids(set).collect();
//! assert_eq!(ids, [ComponentId(4), ComponentId(9)]);
//! ```

use std::fmt;

use crate::component::ComponentId;

/// Most peers one registry can number (the width of a [`PeerSet`]).
pub const MAX_PEERS: usize = 64;

/// A set of peer slots, one bit per slot of a [`PeerSlots`] registry.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PeerSet(u64);

impl PeerSet {
    /// The empty set.
    pub const EMPTY: PeerSet = PeerSet(0);

    /// The set holding only `slot`.
    pub fn single(slot: usize) -> PeerSet {
        PeerSet(1 << slot)
    }

    /// Whether no slot is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of slots in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `slot` is in the set.
    pub fn contains(self, slot: usize) -> bool {
        self.0 & (1 << slot) != 0
    }

    /// The set with `slot` added.
    pub fn with(self, slot: usize) -> PeerSet {
        PeerSet(self.0 | 1 << slot)
    }

    /// The set with `slot` removed.
    pub fn without(self, slot: usize) -> PeerSet {
        PeerSet(self.0 & !(1 << slot))
    }

    /// The lowest slot in the set, if any.
    pub fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// The slots in ascending order.
    pub fn slots(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let slot = PeerSet(bits).first()?;
            bits &= bits - 1;
            Some(slot)
        })
    }

    /// Re-number the set after [`PeerSlots::register`] opened `slot`:
    /// every slot at or above it moves up by one, leaving `slot` empty.
    pub fn open_slot(self, slot: usize) -> PeerSet {
        let low = self.0 & ((1u64 << slot) - 1);
        PeerSet(low | (self.0 & !low) << 1)
    }
}

impl fmt::Debug for PeerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.slots()).finish()
    }
}

/// A sorted registry numbering up to [`MAX_PEERS`] peers with dense
/// slots: slot `i` is the `i`-th smallest registered [`ComponentId`].
#[derive(Clone, Debug, Default)]
pub struct PeerSlots {
    ids: Vec<ComponentId>,
}

impl PeerSlots {
    /// The slot of `id`, if registered.
    pub fn find(&self, id: ComponentId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The slot of `id`, registering it on first contact. The flag is
    /// true when registration opened a slot below existing ones: every
    /// stored [`PeerSet`] must then be re-numbered with
    /// [`PeerSet::open_slot`] at the returned slot.
    ///
    /// # Panics
    ///
    /// Panics when a [`MAX_PEERS`]+1-th peer registers: holder tracking
    /// is correctness-bearing, so it must not saturate silently.
    pub fn register(&mut self, id: ComponentId) -> (usize, bool) {
        match self.ids.binary_search(&id) {
            Ok(slot) => (slot, false),
            Err(slot) => {
                assert!(
                    self.ids.len() < MAX_PEERS,
                    "peer sets support at most {MAX_PEERS} distinct peers"
                );
                self.ids.insert(slot, id);
                (slot, slot + 1 < self.ids.len())
            }
        }
    }

    /// The peer in `slot`.
    pub fn id(&self, slot: usize) -> ComponentId {
        self.ids[slot]
    }

    /// The peers of `set`, in ascending id order.
    pub fn ids(&self, set: PeerSet) -> impl Iterator<Item = ComponentId> + '_ {
        set.slots().map(|s| self.ids[s])
    }

    /// The set of the given registered peers.
    ///
    /// # Panics
    ///
    /// Panics if one of `ids` is not registered.
    pub fn set_of(&self, ids: impl IntoIterator<Item = ComponentId>) -> PeerSet {
        ids.into_iter().fold(PeerSet::EMPTY, |s, id| {
            s.with(self.find(id).expect("peer is registered"))
        })
    }

    /// The `{id, id}` rendering of `set` (the `Debug` form of a sorted
    /// set of ids), for post-mortems.
    pub fn describe(&self, set: PeerSet) -> String {
        struct Ids<'a>(&'a PeerSlots, PeerSet);
        impl fmt::Debug for Ids<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.ids(self.1)).finish()
            }
        }
        format!("{:?}", Ids(self, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_ascending_ids_whatever_the_contact_order() {
        let mut slots = PeerSlots::default();
        let mut set = PeerSet::EMPTY;
        for id in [7, 3, 9, 1, 5] {
            let (slot, opened) = slots.register(ComponentId(id));
            if opened {
                set = set.open_slot(slot);
            }
            set = set.with(slot);
            assert_eq!(slots.register(ComponentId(id)), (slot, false));
        }
        let ids: Vec<u32> = slots.ids(set).map(|c| c.0).collect();
        assert_eq!(ids, [1, 3, 5, 7, 9]);
        assert_eq!(slots.find(ComponentId(5)), Some(2));
        assert_eq!(slots.find(ComponentId(4)), None);
        assert_eq!(
            slots.describe(set.without(0)),
            "{ComponentId(3), ComponentId(5), ComponentId(7), ComponentId(9)}"
        );
    }

    #[test]
    fn open_slot_shifts_only_the_upper_slots() {
        let set = PeerSet::EMPTY.with(0).with(2).with(63 - 1);
        let opened = set.open_slot(1);
        assert_eq!(opened.slots().collect::<Vec<_>>(), [0, 3, 63]);
        assert_eq!(set.open_slot(0).slots().collect::<Vec<_>>(), [1, 3, 63]);
        assert_eq!(PeerSet::EMPTY.open_slot(5), PeerSet::EMPTY);
    }

    #[test]
    fn set_algebra() {
        let a = PeerSet::single(1).with(4);
        assert_eq!(a.len(), 2);
        assert!(a.contains(4) && !a.contains(6));
        assert_eq!(a.first(), Some(1));
        assert_eq!(PeerSet::EMPTY.first(), None);
        assert!(a.without(1).without(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn a_65th_peer_is_refused() {
        let mut slots = PeerSlots::default();
        for id in 0..=MAX_PEERS as u32 {
            slots.register(ComponentId(id));
        }
    }
}
