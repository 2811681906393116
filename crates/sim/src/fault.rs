//! Deterministic fault injection for the interconnect.
//!
//! Real CXL fabrics drop, delay, duplicate and corrupt flits — CXL.mem
//! defines poison semantics precisely because links fail. This module
//! attaches a seeded [`FaultPlan`] to the [`crate::fabric::Fabric`] so a
//! run can perturb individual messages (drop / duplicate / extra delay /
//! reorder / poison) and flap whole links over configurable windows,
//! while staying bit-for-bit reproducible:
//!
//! * the plan owns a **private** xoshiro256** stream, so installing a plan
//!   never changes the draws seen by workloads or jitter models;
//! * with no plan installed the fabric makes **zero** additional RNG
//!   draws and reports **zero** additional keys — runs are byte-identical
//!   to a build without this module;
//! * every injected fault is recorded as a `fault` instant on the sending
//!   component's trace track, so the Perfetto export shows exactly what
//!   was perturbed.
//!
//! Faults are evaluated per *route* at injection time: a message crossing
//! several links (e.g. the two-hop star topology) is perturbed if any
//! link on its route fires. Scripted faults (`drop_nth`) deterministically
//! target the N-th message carried by a link, independent of probability
//! knobs — the tool for writing exact-loss regression tests.

use crate::hash::FxHashMap;
use std::collections::BTreeSet;

use crate::fabric::LinkId;
use crate::rng::SimRng;
use crate::stats::Report;
use crate::time::{Delay, Time};

/// Periodic link flapping: the link repeats `up` time of normal service
/// followed by `down` time during which every message on it is lost.
/// Purely a function of simulated time (no RNG), so flap windows are
/// stable across unrelated changes.
#[derive(Clone, Copy, Debug)]
pub struct Flap {
    /// Duration of the healthy part of each period.
    pub up: Delay,
    /// Duration of the outage part of each period.
    pub down: Delay,
    /// Offset into the period at time zero (staggers multiple links).
    pub phase: Delay,
}

impl Flap {
    /// Whether the link is in its outage window at `t`.
    pub fn is_down(&self, t: Time) -> bool {
        let period = self.up.as_ps() + self.down.as_ps();
        if period == 0 {
            return false;
        }
        let pos = (t.as_ps() + self.phase.as_ps()) % period;
        pos >= self.up.as_ps()
    }
}

/// Per-link fault probabilities and magnitudes. The default is fault-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkFaults {
    /// Probability a message is silently lost.
    pub drop_p: f64,
    /// Probability a message is delivered twice (the copy re-traverses the
    /// link, paying serialization and contention again).
    pub dup_p: f64,
    /// Probability a fixed `delay` is added to the arrival time.
    pub delay_p: f64,
    /// Extra latency added when a delay fault fires.
    pub delay: Delay,
    /// Probability a uniformly random delay in `[0, reorder_window)` is
    /// added — on an ordered link this is what re-orders messages, since
    /// the fault delay is applied after the FIFO arrival clamp.
    pub reorder_p: f64,
    /// Maximum random delay for reorder faults.
    pub reorder_window: Delay,
    /// Probability a data-carrying message is marked poisoned (messages
    /// without a poison bit are left untouched; see
    /// [`crate::component::Message::poison`]).
    pub poison_p: f64,
    /// Optional periodic outage windows.
    pub flap: Option<Flap>,
}

impl LinkFaults {
    /// Uniform message-loss faults only.
    pub fn drops(p: f64) -> Self {
        LinkFaults {
            drop_p: p,
            ..LinkFaults::default()
        }
    }

    fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.reorder_p > 0.0
            || self.poison_p > 0.0
            || self.flap.is_some()
    }
}

/// What the plan decided to do to one message. `drop` wins over the other
/// perturbations; `duplicate`, `extra` and `poison` combine freely.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultDecision {
    /// Lose the message entirely.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Extra latency to add to the arrival time.
    pub extra: Delay,
    /// Request the data payload be marked poisoned.
    pub poison: bool,
}

impl FaultDecision {
    /// A decision that perturbs nothing.
    pub const CLEAR: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        extra: Delay::ZERO,
        poison: false,
    };

    /// Whether the message passes through untouched.
    pub fn is_clear(&self) -> bool {
        !self.drop && !self.duplicate && !self.poison && self.extra == Delay::ZERO
    }
}

/// Injection counters, reported as `fault.*` keys when a plan is installed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Messages lost to probabilistic or scripted drops.
    pub dropped: u64,
    /// Messages lost because their link was in a flap outage window.
    pub link_down: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages given extra (fixed or reorder) latency.
    pub delayed: u64,
    /// Data payloads actually marked poisoned.
    pub poisoned: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.dropped + self.link_down + self.duplicated + self.delayed + self.poisoned
    }
}

/// A seeded, deterministic fault plan for the whole fabric.
///
/// # Examples
///
/// ```
/// use c3_sim::fault::{FaultPlan, LinkFaults};
/// use c3_sim::fabric::LinkId;
/// use c3_sim::time::Time;
///
/// let mut plan = FaultPlan::new(0xBAD).with_default(LinkFaults::drops(0.5));
/// let mut drops = 0;
/// for _ in 0..1000 {
///     if plan.decide(&[LinkId(0)], Time::ZERO).drop {
///         drops += 1;
///     }
/// }
/// assert!((400..600).contains(&drops));
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    rng: SimRng,
    default: Option<LinkFaults>,
    per_link: FxHashMap<LinkId, LinkFaults>,
    /// `(link, ordinal)` pairs: drop exactly the ordinal-th message
    /// (0-based, counted per link by this plan) carried over `link`.
    scripted_drops: BTreeSet<(u32, u64)>,
    /// Messages seen per link (drives `scripted_drops`).
    seen: FxHashMap<LinkId, u64>,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan with its own RNG stream derived from `seed`. Until faults
    /// are configured the plan perturbs nothing.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SimRng::seed_from(seed).fork(0xFAB1_7000),
            default: None,
            per_link: FxHashMap::default(),
            scripted_drops: BTreeSet::new(),
            seen: FxHashMap::default(),
            stats: FaultStats::default(),
        }
    }

    /// Apply `faults` to every link without a per-link override.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.default = Some(faults);
        self
    }

    /// Apply `faults` to one specific link.
    pub fn with_link(mut self, link: LinkId, faults: LinkFaults) -> Self {
        self.per_link.insert(link, faults);
        self
    }

    /// Configure `faults` on every link in `links` (e.g. the CXL link
    /// range captured while wiring a system).
    pub fn with_links(
        mut self,
        links: impl IntoIterator<Item = LinkId>,
        faults: LinkFaults,
    ) -> Self {
        for l in links {
            self.per_link.insert(l, faults);
        }
        self
    }

    /// Deterministically drop the `n`-th message (0-based) carried over
    /// `link`, regardless of probability knobs.
    pub fn drop_nth(&mut self, link: LinkId, n: u64) {
        self.scripted_drops.insert((link.0, n));
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Record that a poison decision was actually applied to a payload
    /// (called by the send path once the message accepted the poison bit).
    pub fn note_poison_applied(&mut self) {
        self.stats.poisoned += 1;
    }

    fn faults_for(&self, link: LinkId) -> Option<LinkFaults> {
        self.per_link
            .get(&link)
            .copied()
            .or(self.default)
            .filter(|f| f.is_active())
    }

    /// Decide the fate of one message crossing `route` at time `now`.
    ///
    /// Counters for drop / duplicate / delay faults are bumped here;
    /// poison is only *requested* (see [`FaultPlan::note_poison_applied`]),
    /// because not every message carries poisonable data.
    pub fn decide(&mut self, route: &[LinkId], now: Time) -> FaultDecision {
        let mut d = FaultDecision::CLEAR;
        let mut flap_drop = false;
        for &link in route {
            // Scripted exact-loss faults count every message on the link,
            // even fault-free ones, so ordinals are stable.
            if !self.scripted_drops.is_empty() {
                let n = self.seen.entry(link).or_insert(0);
                let ordinal = *n;
                *n += 1;
                if self.scripted_drops.remove(&(link.0, ordinal)) {
                    d.drop = true;
                }
            }
            let Some(f) = self.faults_for(link) else {
                continue;
            };
            if f.flap.is_some_and(|flap| flap.is_down(now)) {
                flap_drop = true;
                continue;
            }
            // Fixed draw order per link keeps fault patterns stable when
            // one knob is toggled... as stable as they can be: each draw
            // is gated on its own probability being nonzero.
            if f.drop_p > 0.0 && self.rng.chance(f.drop_p) {
                d.drop = true;
            }
            if f.dup_p > 0.0 && self.rng.chance(f.dup_p) {
                d.duplicate = true;
            }
            if f.delay_p > 0.0 && self.rng.chance(f.delay_p) {
                d.extra = d.extra.saturating_add(f.delay);
            }
            if f.reorder_p > 0.0 && self.rng.chance(f.reorder_p) {
                let w = f.reorder_window.as_ps().max(1);
                d.extra = d.extra.saturating_add(Delay::from_ps(self.rng.below(w)));
            }
            if f.poison_p > 0.0 && self.rng.chance(f.poison_p) {
                d.poison = true;
            }
        }
        if d.drop || flap_drop {
            // A lost message is not also duplicated / delayed / poisoned.
            d.duplicate = false;
            d.extra = Delay::ZERO;
            d.poison = false;
            if d.drop {
                self.stats.dropped += 1;
            } else {
                d.drop = true;
                self.stats.link_down += 1;
            }
        } else {
            if d.duplicate {
                self.stats.duplicated += 1;
            }
            if d.extra > Delay::ZERO {
                self.stats.delayed += 1;
            }
        }
        d
    }

    /// Merge the fault counters into a run report under `fault.*` keys.
    pub fn report_into(&self, out: &mut Report) {
        out.set("fault.dropped", self.stats.dropped as f64);
        out.set("fault.link_down", self.stats.link_down as f64);
        out.set("fault.duplicated", self.stats.duplicated as f64);
        out.set("fault.delayed", self.stats.delayed as f64);
        out.set("fault.poisoned", self.stats.poisoned as f64);
        out.set("fault.injected", self.stats.injected() as f64);
    }
}

/// Timeout/retry/backoff policy for transactions that must survive the
/// faults a [`FaultPlan`] injects: the bridges' global-side transactions
/// and the DCOH's blocking snoops.
///
/// A transaction that sees no completion within `timeout` is re-issued
/// under a fresh transaction id (Rule II: the retry is a new nested
/// attempt, never a mutation of the old one), with the deadline doubling
/// on each attempt (bounded exponential backoff). After `max_retries`
/// re-issues the transaction is *abandoned*: it completes locally with an
/// error status — poisoned data for fetches — rather than wedging the
/// cluster.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Deadline for the first attempt; doubles per retry.
    pub timeout: Delay,
    /// Re-issues after the original send (0 = timeout straight to abandon).
    pub max_retries: u32,
}

impl ResilienceConfig {
    /// A policy sized for the simulated fabric: first deadline `timeout_ns`
    /// nanoseconds, then 2×, 4×, ... for `max_retries` attempts.
    pub fn new(timeout_ns: u64, max_retries: u32) -> Self {
        ResilienceConfig {
            timeout: Delay::from_ns(timeout_ns),
            max_retries,
        }
    }

    /// Deadline for attempt `attempts` (0-based) sent at `now`, with the
    /// backoff shift capped so the doubling can never overflow.
    pub fn deadline_after(&self, now: Time, attempts: u32) -> Time {
        now + self.timeout.times(1u64 << attempts.min(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LinkId = LinkId(0);

    #[test]
    fn empty_plan_is_clear_and_free_of_rng_draws() {
        let mut plan = FaultPlan::new(1);
        let before = plan.rng.clone();
        for i in 0..100 {
            assert!(plan.decide(&[L], Time::from_ns(i)).is_clear());
        }
        assert_eq!(plan.rng, before, "inactive plan must not draw");
        assert_eq!(plan.stats().injected(), 0);
    }

    #[test]
    fn drop_rate_roughly_calibrated() {
        let mut plan = FaultPlan::new(2).with_default(LinkFaults::drops(0.2));
        let drops = (0..10_000)
            .filter(|_| plan.decide(&[L], Time::ZERO).drop)
            .count();
        assert!((1_500..2_500).contains(&drops), "drops={drops}");
        assert_eq!(plan.stats().dropped, drops as u64);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            FaultPlan::new(3).with_default(LinkFaults {
                drop_p: 0.1,
                dup_p: 0.1,
                delay_p: 0.1,
                delay: Delay::from_ns(50),
                reorder_p: 0.1,
                reorder_window: Delay::from_ns(20),
                poison_p: 0.1,
                flap: None,
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..500 {
            let (da, db) = (
                a.decide(&[L], Time::from_ns(i)),
                b.decide(&[L], Time::from_ns(i)),
            );
            assert_eq!(format!("{da:?}"), format!("{db:?}"));
        }
    }

    #[test]
    fn scripted_drop_hits_exactly_the_nth_message() {
        let mut plan = FaultPlan::new(4);
        plan.drop_nth(L, 2);
        let fates: Vec<bool> = (0..5).map(|_| plan.decide(&[L], Time::ZERO).drop).collect();
        assert_eq!(fates, vec![false, false, true, false, false]);
        assert_eq!(plan.stats().dropped, 1);
    }

    #[test]
    fn flap_windows_are_time_deterministic() {
        let flap = Flap {
            up: Delay::from_ns(100),
            down: Delay::from_ns(50),
            phase: Delay::ZERO,
        };
        assert!(!flap.is_down(Time::from_ns(0)));
        assert!(!flap.is_down(Time::from_ns(99)));
        assert!(flap.is_down(Time::from_ns(100)));
        assert!(flap.is_down(Time::from_ns(149)));
        assert!(!flap.is_down(Time::from_ns(150)));

        let mut plan = FaultPlan::new(5).with_link(
            L,
            LinkFaults {
                flap: Some(flap),
                ..LinkFaults::default()
            },
        );
        assert!(!plan.decide(&[L], Time::from_ns(10)).drop);
        assert!(plan.decide(&[L], Time::from_ns(120)).drop);
        assert_eq!(plan.stats().link_down, 1);
        assert_eq!(plan.stats().dropped, 0);
    }

    #[test]
    fn per_link_overrides_default() {
        let mut plan = FaultPlan::new(6)
            .with_default(LinkFaults::drops(1.0))
            .with_link(LinkId(1), LinkFaults::default());
        assert!(plan.decide(&[LinkId(0)], Time::ZERO).drop);
        assert!(plan.decide(&[LinkId(1)], Time::ZERO).is_clear());
    }

    #[test]
    fn drop_suppresses_other_perturbations() {
        let mut plan = FaultPlan::new(7).with_default(LinkFaults {
            drop_p: 1.0,
            dup_p: 1.0,
            delay_p: 1.0,
            delay: Delay::from_ns(10),
            poison_p: 1.0,
            ..LinkFaults::default()
        });
        let d = plan.decide(&[L], Time::ZERO);
        assert!(d.drop && !d.duplicate && !d.poison);
        assert_eq!(d.extra, Delay::ZERO);
    }

    #[test]
    fn report_keys_present_with_plan() {
        let mut plan = FaultPlan::new(8).with_default(LinkFaults::drops(1.0));
        plan.decide(&[L], Time::ZERO);
        let mut r = Report::new();
        plan.report_into(&mut r);
        assert_eq!(r.get("fault.dropped"), Some(1.0));
        assert_eq!(r.get("fault.injected"), Some(1.0));
    }
}
