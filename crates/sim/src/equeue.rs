//! Calendar event queue — the kernel's scheduling hot path.
//!
//! A discrete-event simulator spends a large fraction of its wall-clock
//! inside its pending-event set; a `BinaryHeap` costs `O(log n)` per
//! operation with a branchy sift on every push *and* pop. Our event mix
//! has the classic DES shape (the reason gem5 and ns-3 both bucket their
//! event queues): almost every event is scheduled a bounded, small delay
//! ahead of now — core cycles (500 ps), L1 hits (1 cycle), on-chip hops
//! (~6 ns), CXL hops (~70 ns + jitter), DRAM (~10 ns) — while far-future
//! events (retry deadlines, link flap schedules) are rare.
//!
//! [`CalendarQueue`] exploits that shape with two levels:
//!
//! * a **near-future ring** of [`NUM_BUCKETS`] time buckets, each
//!   [`BUCKET_PS`] wide, covering a sliding window of [`SPAN_PS`]
//!   (~524 ns) from the current bucket; push = one shift/mask + `Vec`
//!   push, pop = `Vec` pop from the sorted current bucket — amortized
//!   `O(1)`;
//! * a **far-future overflow spill** (a small binary heap) for the rare
//!   events beyond the window, migrated into the ring as it slides
//!   forward.
//!
//! Delivery order is **exactly** ascending `(time, seq)` — identical to
//! the heap it replaces — so same-seed simulations are byte-identical
//! across the swap (the kernel's FNV-fingerprint report tests pin this).
//! See DESIGN.md §12 for the bucket-width rationale and the determinism
//! argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Bucket width in picoseconds (must be a power of two). 4 ns: wide
/// enough that sub-cycle and L1-hit events share a bucket (one sort
/// amortizes many pops), narrow enough that an intra-cluster hop only
/// skips one or two empty buckets.
pub const BUCKET_PS: u64 = 1 << 12;
const BUCKET_SHIFT: u32 = BUCKET_PS.trailing_zeros();

/// Number of ring buckets (must be a power of two).
pub const NUM_BUCKETS: usize = 128;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

/// Width of the near-future window: events at `now + SPAN_PS` or later
/// spill to the overflow heap. ~524 ns covers every Table III link
/// latency (and the fig. 9/10 link-latency sweeps) plus queueing.
pub const SPAN_PS: u64 = BUCKET_PS * NUM_BUCKETS as u64;

struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

// Ordering impls so overflow entries can live in a std BinaryHeap.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Two-level bucketed calendar queue delivering `(at, seq, item)`
/// triples in exactly ascending `(at, seq)` order.
///
/// Contract (matched by the kernel): `seq` values are unique and
/// strictly increasing across pushes, and every push satisfies
/// `at >= t_last` where `t_last` is the time of the last popped entry —
/// i.e. no scheduling into the past. Violations are caught by
/// `debug_assert!`.
///
/// # Examples
///
/// ```
/// use c3_sim::equeue::CalendarQueue;
/// use c3_sim::time::Time;
///
/// let mut q: CalendarQueue<&str> = CalendarQueue::new();
/// q.push(Time::from_ns(5), 1, "later");
/// q.push(Time::from_ns(1), 2, "sooner");
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 2, "sooner")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), 1, "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<T> {
    /// Ring of near-future buckets. Only the current bucket is kept
    /// sorted (descending by `(at, seq)`, so `Vec::pop` yields the
    /// minimum); the others are append-only until the window reaches
    /// them.
    buckets: Vec<Vec<Entry<T>>>,
    /// Index of the bucket covering `[win_start, win_start + BUCKET_PS)`.
    cur: usize,
    /// Whether `buckets[cur]` is currently sorted.
    cur_sorted: bool,
    /// Start of the current bucket's window (ps, `BUCKET_PS`-aligned).
    win_start: u64,
    /// Entries resident in the ring.
    in_buckets: usize,
    /// Far-future spill, min-ordered.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with its window starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cur: 0,
            cur_sorted: false,
            win_start: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Total pending entries.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive end of the ring's window; `u64::MAX` means the window
    /// has saturated and covers every representable time.
    #[inline]
    fn win_end(&self) -> u64 {
        self.win_start.saturating_add(SPAN_PS)
    }

    #[inline]
    fn in_window(&self, ps: u64) -> bool {
        let end = self.win_end();
        ps < end || end == u64::MAX
    }

    #[inline]
    fn bucket_of(ps: u64) -> usize {
        ((ps >> BUCKET_SHIFT) & BUCKET_MASK) as usize
    }

    /// Schedule `item` at `(at, seq)`.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(
            at.as_ps() >= self.win_start,
            "push at {at:?} before window start {}ps",
            self.win_start
        );
        let entry = Entry { at, seq, item };
        if !self.in_window(at.as_ps()) {
            self.overflow.push(Reverse(entry));
            return;
        }
        let idx = Self::bucket_of(at.as_ps());
        self.in_buckets += 1;
        if idx == self.cur && self.cur_sorted {
            // The current bucket is mid-drain and sorted descending;
            // splice the entry in so `Vec::pop` order stays exact.
            let b = &mut self.buckets[idx];
            let pos = b.partition_point(|e| e.key() > entry.key());
            b.insert(pos, entry);
        } else {
            self.buckets[idx].push(entry);
        }
    }

    /// Remove and return the minimum-`(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.is_empty() {
            return None;
        }
        loop {
            if !self.cur_sorted {
                // Descending sort: the minimum ends up last, so draining
                // is `Vec::pop`. Keys are unique (`seq` is), so an
                // unstable sort is order-exact. Single-entry buckets —
                // the common case at link-latency granularity — skip it.
                let b = &mut self.buckets[self.cur];
                if b.len() > 1 {
                    b.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                }
                self.cur_sorted = true;
            }
            if let Some(e) = self.buckets[self.cur].pop() {
                self.in_buckets -= 1;
                return Some((e.at, e.seq, e.item));
            }
            if self.in_buckets > 0 {
                // Something is resident further along the ring: slide
                // the window one bucket.
                self.cur = (self.cur + 1) & BUCKET_MASK as usize;
                self.win_start += BUCKET_PS;
            } else {
                // Ring is dry; jump the window straight to the earliest
                // overflow entry (it exists — len() > 0).
                let t = self.overflow.peek().expect("overflow non-empty").0.at;
                self.win_start = t.as_ps() & !(BUCKET_PS - 1);
                self.cur = Self::bucket_of(t.as_ps());
            }
            self.cur_sorted = false;
            self.migrate_overflow();
        }
    }

    /// Pull overflow entries that the slid/jumped window now covers into
    /// their ring buckets. Heap pops come out in `(at, seq)` order, so
    /// within each target bucket equal-time entries stay seq-ordered.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if !self.in_window(head.at.as_ps()) {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry");
            let idx = Self::bucket_of(e.at.as_ps());
            self.buckets[idx].push(e);
            self.in_buckets += 1;
        }
    }
}

/// The `BinaryHeap` event queue the calendar queue replaced, kept as the
/// ordering oracle for the differential test below.
#[cfg(test)]
pub(crate) struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

#[cfg(test)]
impl<T> HeapQueue<T> {
    pub(crate) fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, at: Time, seq: u64, item: T) {
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    pub(crate) fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn empty_pops_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_ties_pop_in_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let t = Time::from_ns(3);
        for seq in [4u64, 5, 6] {
            q.push(t, seq, seq as u32);
        }
        assert_eq!(q.pop(), Some((t, 4, 4)));
        // Pushing a same-instant entry mid-drain lands behind its peers.
        q.push(t, 7, 7);
        assert_eq!(q.pop(), Some((t, 5, 5)));
        assert_eq!(q.pop(), Some((t, 6, 6)));
        assert_eq!(q.pop(), Some((t, 7, 7)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_spills_and_returns() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new();
        // Beyond the window: must spill, then come back in order.
        q.push(Time::from_ps(SPAN_PS * 10), 1, "far");
        q.push(Time::from_ps(SPAN_PS * 3), 2, "mid");
        q.push(Time::from_ns(1), 3, "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().2, "near");
        assert_eq!(q.pop().unwrap().2, "mid");
        assert_eq!(q.pop().unwrap().2, "far");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_jump_lands_mid_ring() {
        // A jump target whose bucket index is not 0 exercises the
        // align-down + mid-ring cursor path.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let t = Time::from_ps(SPAN_PS * 7 + 5 * BUCKET_PS + 123);
        q.push(t, 1, 42);
        assert_eq!(q.pop(), Some((t, 1, 42)));
        // The queue keeps working from the jumped-to window.
        let t2 = t + crate::time::Delay::from_ns(2);
        q.push(t2, 2, 43);
        assert_eq!(q.pop(), Some((t2, 2, 43)));
    }

    #[test]
    fn time_max_does_not_hang() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Time::MAX, 1, 1);
        q.push(Time::from_ns(1), 2, 2);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 2, 2)));
        assert_eq!(q.pop(), Some((Time::MAX, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_saturates_at_time_max_and_still_orders() {
        // Once the window jumps near u64::MAX, `win_start + SPAN_PS`
        // saturates: `win_end() == u64::MAX` must mean "covers every
        // representable time" (including `Time::MAX` itself), not an
        // empty window. Events at and just below u64::MAX must come out
        // in exact `(time, seq)` order.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Time::MAX, 1, 1);
        q.push(Time::from_ps(u64::MAX - 1), 2, 2);
        q.push(Time::from_ps(u64::MAX - BUCKET_PS), 3, 3);
        q.push(Time::from_ns(1), 4, 4);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 4, 4)));
        assert_eq!(q.pop(), Some((Time::from_ps(u64::MAX - BUCKET_PS), 3, 3)));
        assert_eq!(q.pop(), Some((Time::from_ps(u64::MAX - 1), 2, 2)));
        assert_eq!(q.pop(), Some((Time::MAX, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn saturated_window_accepts_new_pushes_and_ties() {
        // After the jump to the saturated window, same-instant pushes at
        // Time::MAX (the limit-pushback path) must still splice in
        // seq-order rather than spill to a window that can never open.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Time::MAX, 5, 50);
        assert_eq!(q.pop(), Some((Time::MAX, 5, 50)));
        // Window has jumped to the top of the time range; win_end() is
        // saturated. Push-back and later ties must round-trip.
        q.push(Time::MAX, 5, 50);
        q.push(Time::MAX, 6, 60);
        assert_eq!(q.pop(), Some((Time::MAX, 5, 50)));
        assert_eq!(q.pop(), Some((Time::MAX, 6, 60)));
        assert!(q.is_empty());
    }

    #[test]
    fn window_rotation_across_saturation_boundary() {
        // Entries straddling the exact point where the ring window first
        // saturates (win_start + SPAN_PS overflows): one inside the last
        // non-saturated window, one beyond it.
        let base = u64::MAX - 2 * SPAN_PS;
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Time::from_ps(base), 1, 1);
        q.push(Time::from_ps(base + SPAN_PS + 1), 2, 2);
        q.push(Time::from_ps(u64::MAX - 1), 3, 3);
        assert_eq!(q.pop(), Some((Time::from_ps(base), 1, 1)));
        assert_eq!(q.pop(), Some((Time::from_ps(base + SPAN_PS + 1), 2, 2)));
        assert_eq!(q.pop(), Some((Time::from_ps(u64::MAX - 1), 3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn popped_entry_can_be_pushed_back() {
        // The kernel re-inserts an event when a time/event limit fires.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Time::from_ns(5), 1, 10);
        q.push(Time::from_ns(6), 2, 20);
        let (at, seq, item) = q.pop().unwrap();
        q.push(at, seq, item);
        assert_eq!(q.pop(), Some((Time::from_ns(5), 1, 10)));
        assert_eq!(q.pop(), Some((Time::from_ns(6), 2, 20)));
    }

    /// Satellite: differential test — drive the calendar queue and the
    /// old binary heap with an identical randomized schedule/pop
    /// sequence (seeded `SimRng`: bursts of pushes with same-instant
    /// ties, sub-bucket and cross-bucket delays, and far-future spills)
    /// and require identical pop streams.
    #[test]
    fn differential_vs_heap_oracle() {
        for seed in [1u64, 7, 42, 0xC3] {
            let mut rng = SimRng::seed_from(seed);
            let mut cal: CalendarQueue<u64> = CalendarQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = Time::ZERO;
            let mut pending = 0u64;
            let mut popped = 0u64;
            while popped < 20_000 {
                let burst = if pending == 0 { 1 } else { rng.below(4) };
                for _ in 0..burst {
                    seq += 1;
                    let delay_ps = match rng.below(10) {
                        0 => 0,                                // same-instant tie
                        1..=4 => rng.below(BUCKET_PS),         // same/adjacent bucket
                        5..=7 => rng.below(100_000),           // link-scale (~100 ns)
                        8 => rng.below(SPAN_PS),               // anywhere in window
                        _ => SPAN_PS + rng.below(SPAN_PS * 4), // far-future spill
                    };
                    let at = now + crate::time::Delay::from_ps(delay_ps);
                    cal.push(at, seq, seq);
                    heap.push(at, seq, seq);
                    pending += 1;
                }
                // Pop between 0 and 2 entries so the queues breathe.
                for _ in 0..rng.below(3) {
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "divergence at pop {popped} (seed {seed})");
                    if let Some((t, _, _)) = a {
                        assert!(t >= now, "time went backwards");
                        now = t;
                        pending -= 1;
                        popped += 1;
                    }
                }
            }
            // Drain both completely.
            loop {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence in drain (seed {seed})");
                if let Some((t, _, _)) = a {
                    assert!(t >= now, "time went backwards in drain");
                    now = t;
                } else {
                    break;
                }
            }
            assert!(cal.is_empty());
        }
    }
}
