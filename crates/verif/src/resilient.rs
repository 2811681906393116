//! Exhaustive exploration of the C³ design's abstract transition
//! relation: Rule I (delegation), Rule II (nesting), the ordering of a
//! snoop that races a host's own fetch, and the resilience machinery
//! (retries, duplicate suppression, lost-grant replay, BISnp re-issue,
//! sticky poison), all as explicit nondeterministic transitions checked
//! against SWMR, inclusion, data-value, deadlock-freedom and
//! poison-stickiness invariants.
//!
//! The model is *parameterized* — up to [`MAX_CLUSTERS`] host clusters
//! sharing up to [`MAX_ADDRS`] addresses behind one blocking DCOH, each
//! cluster optionally fronted by up to [`MAX_CORES`] private L1s — and
//! its device→host channel is **lossy**: a bounded fault budget lets the
//! explorer drop, duplicate, or poison-corrupt any in-flight device
//! message at any point ("Formalising CXL Cache Coherence" found
//! spec-level deadlocks in exactly this regime, and nesting under lossy
//! links is where the interesting bugs sit).
//!
//! ## Abstraction decisions (scope)
//!
//! * Each cluster holds one CXL-cache copy per address. With
//!   [`ResilientConfig::l1_cores`] at 0 (the default, the *flat*
//!   relation) a single core operates on that copy directly. With 1 or 2,
//!   every cluster gets that many cores with private L1s behind the copy.
//!   Intra-cluster coherence is atomic (the host domain is internally
//!   coherent); what is checked is the boundary. A miss the cluster copy
//!   cannot serve is delegated upward (Rule I), and a BISnp that finds
//!   L1 copies opens a nested recall that reclaims them, dirty data
//!   included, before the snoop is answered (Rule II).
//! * Host→device messages (requests, snoop responses) are reliable and
//!   FIFO; faults target the unordered device→host channel (data grants
//!   and back-invalidation snoops), where the recovery machinery lives.
//! * Operations commit at fill time (MSHR retire), which bounds every
//!   sequence counter by the op budget and keeps the space finite.
//! * Retry and snoop re-issue transitions fire only when the awaited
//!   message was genuinely lost (the model-level abstraction of "the
//!   timeout exceeds the link latency"); spurious-duplicate paths are
//!   exercised separately by the duplication fault.
//! * In place of the Fig. 2 BIConflict handshake the model uses the
//!   sequence/epoch tags attached to transactions: a snoop carries the
//!   last grant sequence serialized before it (`after`), so a host can
//!   decide "snoop before or after my fetch" without guessing.
//! * Each design rule can be broken on purpose by an [`Injection`]:
//!   `skip-recall-nesting` answers a BISnp before the nested recall
//!   (Fig. 4) and `skip-conflict-stash` answers a racing snoop from the
//!   pre-fill state (Fig. 2).
//! * The DCOH invalidates the other sharers of a line one at a time, in
//!   any order: each candidate target is its own successor. (The concrete
//!   DCOH sends every `BISnpInv` at once; any-order sequential snooping
//!   is the smallest abstraction that keeps cluster ids interchangeable.)
//! * Symmetry reduction permutes clusters and addresses, never the cores
//!   inside a cluster.
//!
//! The explorer keeps the first concrete state it reaches in each orbit;
//! canonical bytes serve only as the visited-set fingerprint. Soundness
//! of the symmetry reduction and the counterexample replay scheme are
//! documented in [`crate::symmetry`] and [`crate::frontier`]; DESIGN.md
//! §16 has the full argument.

use std::collections::{BTreeSet, VecDeque};

use c3_sim::component::ComponentId;
use c3_sim::hash::FxHashSet;
use c3_sim::time::Time;
use c3_sim::trace::Tracer;

use crate::frontier::{fingerprint, VisitedSet, NO_PARENT};
use crate::symmetry::{CanonStats, Symmetric, SymmetryGroup};

/// Maximum clusters the fixed-size state supports.
pub const MAX_CLUSTERS: usize = 3;
/// Maximum addresses the fixed-size state supports.
pub const MAX_ADDRS: usize = 2;
/// Maximum cores (private L1s) per cluster the fixed-size state supports.
pub const MAX_CORES: usize = 2;
/// Device→host channel slots per cluster (sorted multiset).
const CHAN_CAP: usize = 8;
/// Host→device FIFO slots per cluster.
const M2S_CAP: usize = 4;
/// DCOH blocked-request queue slots per address.
const QCAP: usize = MAX_CLUSTERS;

/// Cache state of a cluster's copy (E folds into M).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum St {
    /// Invalid.
    #[default]
    I,
    /// Shared.
    S,
    /// Modified (writable; subsumes E).
    M,
}

/// Host→device message (reliable FIFO per cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum HostMsg {
    /// Read request: `(addr, exclusive, fetch sequence tag)`.
    Req {
        /// Address index.
        addr: u8,
        /// Ownership requested?
        excl: bool,
        /// Per-(cluster, addr) fetch sequence tag; retries reuse it.
        seq: u8,
    },
    /// Snoop response: `(addr, invalidated, dirty payload, epoch)`.
    Rsp {
        /// Address index.
        addr: u8,
        /// Responding to an invalidating snoop?
        inv: bool,
        /// Dirty writeback `(version, declared poison, ghost taint)`.
        dirty: Option<(u8, bool, bool)>,
        /// Epoch tag of the snoop being answered.
        epoch: u8,
    },
}

/// Device→host message (unordered, lossy).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DevMsg {
    /// Data grant.
    Data {
        /// Address index.
        addr: u8,
        /// Writable (M/E) grant?
        writable: bool,
        /// Version granted.
        ver: u8,
        /// Fetch sequence tag this grant answers.
        seq: u8,
        /// Declared (architectural) poison flag.
        decl: bool,
        /// Ghost taint bit maintained by the checker.
        taint: bool,
    },
    /// Back-invalidation snoop.
    Snp {
        /// Address index.
        addr: u8,
        /// Invalidating (`BISnpInv`) vs downgrading (`BISnpData`).
        inv: bool,
        /// Snoop instance epoch (per address, monotonic).
        epoch: u8,
        /// Last grant sequence serialized to the target before this
        /// snoop — lets the target order the snoop against its own
        /// outstanding fetch without a conflict handshake.
        after: u8,
    },
}

/// A cluster copy of one address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Copy {
    /// Cache state.
    pub st: St,
    /// Version held.
    pub ver: u8,
    /// Declared poison.
    pub decl: bool,
    /// Ghost taint (checker-maintained truth).
    pub taint: bool,
}

/// What a cluster is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Pend {
    /// Nothing outstanding.
    #[default]
    Idle,
    /// A fetch in flight.
    Fetch {
        /// Address being fetched.
        addr: u8,
        /// Store (ownership) fetch?
        excl: bool,
        /// Sequence tag of this fetch.
        seq: u8,
        /// Retries already spent on this fetch.
        retries: u8,
        /// Snoop deferred until the fill installs: `(inv, epoch)`.
        stash: Option<(bool, u8)>,
        /// Core whose operation the fill commits (0 without an L1 tier).
        core: u8,
    },
}

/// One core of the L1 tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreSt {
    /// Remaining operation budget.
    pub budget: u8,
    /// Private L1 copy per address.
    pub l1: [Copy; MAX_ADDRS],
    /// Newest version this core observed per address.
    pub seen: [u8; MAX_ADDRS],
}

/// Per-cluster state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClusterSt {
    /// Remaining operation budget (0 with an L1 tier: the cores carry it).
    pub budget: u8,
    /// Outstanding fetch.
    pub pend: Pend,
    /// Copy per address.
    pub copy: [Copy; MAX_ADDRS],
    /// Newest version observed per address (monotonic by construction).
    pub seen: [u8; MAX_ADDRS],
    /// Sequence of the last installed grant per address.
    pub inst_seq: [u8; MAX_ADDRS],
    /// Fetch sequence counter per address.
    pub fetch_ctr: [u8; MAX_ADDRS],
    /// Last snoop epoch accepted per address (duplicate suppression).
    pub snp_epoch: [u8; MAX_ADDRS],
    /// Nested recall in progress per address: the `(inv, epoch)` of the
    /// snoop it answers once the L1 copies are reclaimed. A slot beside
    /// `pend` rather than a `Pend` variant, because a snoop can hit L1
    /// copies while the cluster's one fetch is in flight.
    pub recall: [Option<(bool, u8)>; MAX_ADDRS],
    /// The L1 tier (first `l1_cores` entries active).
    pub cores: [CoreSt; MAX_CORES],
}

impl ClusterSt {
    /// The cluster's newest data for `a`: a dirty L1 copy if one of the
    /// first `cores` holds it, else the cluster copy.
    fn data(&self, a: usize, cores: usize) -> Copy {
        self.cores[..cores]
            .iter()
            .map(|k| k.l1[a])
            .find(|l| l.st == St::M)
            .unwrap_or(self.copy[a])
    }

    /// Whether any of the first `cores` L1s holds `a`.
    fn l1_holds(&self, a: usize, cores: usize) -> bool {
        self.cores[..cores].iter().any(|k| k.l1[a].st != St::I)
    }
}

/// An outstanding (blocking) snoop at the DCOH.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnoopSt {
    /// Invalidating?
    pub inv: bool,
    /// Target cluster.
    pub target: u8,
    /// Requester on whose behalf the snoop runs.
    pub requester: u8,
    /// Requester's fetch sequence (for the eventual grant).
    pub req_seq: u8,
    /// Epoch tag of this snoop instance.
    pub epoch: u8,
    /// Re-issues already spent on this snoop.
    pub resends: u8,
    /// `granted[target]` at issue time (serialization order hint).
    pub after: u8,
}

/// Per-address directory (DCOH) state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirSt {
    /// Holder bitmap.
    pub holders: u8,
    /// Holder exclusivity.
    pub excl: bool,
    /// Device-memory version.
    pub mem_ver: u8,
    /// Device-memory declared poison.
    pub mem_decl: bool,
    /// Device-memory ghost taint.
    pub mem_taint: bool,
    /// Newest version ever written (ghost).
    pub max_ver: u8,
    /// Snoop epoch counter.
    pub epoch: u8,
    /// Last granted sequence per cluster (0 = never granted).
    pub granted: [u8; MAX_CLUSTERS],
    /// Outstanding blocking snoop.
    pub snoop: Option<SnoopSt>,
    /// Blocked requests `(cluster, excl, seq)`, FIFO.
    pub queue: [(u8, u8, u8); QCAP],
    /// Queue length.
    pub qlen: u8,
}

/// The whole model state: plain `Copy` data, so a successor starts as
/// one memory copy of its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RState {
    /// Clusters (first `cfg.clusters` entries active).
    pub cl: [ClusterSt; MAX_CLUSTERS],
    /// Directories (first `cfg.addrs` entries active).
    pub dir: [DirSt; MAX_ADDRS],
    /// Host→device FIFO channels.
    pub m2s: [[Option<HostMsg>; M2S_CAP]; MAX_CLUSTERS],
    /// Device→host channels, kept as sorted multisets.
    pub s2m: [[Option<DevMsg>; CHAN_CAP]; MAX_CLUSTERS],
    /// Remaining fault budget.
    pub faults_left: u8,
    /// Transition-local defect latch (0 = clean); see `GHOST_*`.
    pub ghost_bug: u8,
    /// Cores per cluster: the run's [`ResilientConfig::l1_cores`], kept
    /// so the state can encode itself. Constant for a run, so not encoded.
    pub l1_cores: u8,
}

/// `ghost_bug`: a shared grant delivered a version older than one the
/// cluster already observed.
pub const GHOST_STALE_SHARED: u8 = 1;
/// `ghost_bug`: an ownership grant delivered a version older than the
/// newest write (a store here would lose updates).
pub const GHOST_STALE_EXCL: u8 = 2;
/// `ghost_bug`: a core load returned a version older than one that core
/// already observed.
pub const GHOST_STALE_LOAD: u8 = 3;

/// Fault-injection selector: deliberately re-introduce a known bug class
/// or drop a design rule, so CI can prove the checker catches it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Disable the DCOH's lost-grant replay: a dropped grant plus
    /// exhausted retries wedges the requester (the pre-PR-2 livelock,
    /// which this bounded model exhibits as a deadlock).
    LostGrantLivelock,
    /// Clear the declared-poison flag on outgoing grants while leaving
    /// the ghost taint: poison laundering, caught by the stickiness
    /// invariant.
    PoisonLaunder,
    /// Drop Rule II: answer a BISnp at once while L1 copies linger (the
    /// Fig. 4 race), caught by the inclusion invariant. Needs an L1 tier.
    SkipRecallNesting,
    /// Drop the snoop/fetch ordering: answer a snoop that races our own
    /// fetch from the pre-fill state, ignoring its `after` tag (the
    /// Fig. 2 race), caught by SWMR.
    SkipConflictStash,
}

impl Injection {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Injection> {
        Injection::ALL.into_iter().find(|i| i.name() == s)
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Injection::LostGrantLivelock => "lost-grant-livelock",
            Injection::PoisonLaunder => "poison-launder",
            Injection::SkipRecallNesting => "skip-recall-nesting",
            Injection::SkipConflictStash => "skip-conflict-stash",
        }
    }

    /// Whether the injected bug lives in the L1 tier (needs
    /// `l1_cores >= 1` to exist at all).
    pub fn needs_l1_tier(&self) -> bool {
        *self == Injection::SkipRecallNesting
    }

    /// Every known injection.
    pub const ALL: [Injection; 4] = [
        Injection::LostGrantLivelock,
        Injection::PoisonLaunder,
        Injection::SkipRecallNesting,
        Injection::SkipConflictStash,
    ];
}

/// Checker configuration.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Number of host clusters (1..=[`MAX_CLUSTERS`]).
    pub clusters: usize,
    /// Number of shared addresses (1..=[`MAX_ADDRS`]).
    pub addrs: usize,
    /// Operation budget per cluster (per core with an L1 tier).
    pub ops_per_cluster: u8,
    /// Total fault budget (drops + duplications + corruptions).
    pub max_faults: u8,
    /// Retry budget per fetch; must be ≥ `max_faults` or lost grants
    /// become unrecoverable and the deadlock check fires spuriously.
    pub max_retries: u8,
    /// Canonical-form symmetry reduction on/off.
    pub symmetry: bool,
    /// Exploration budget; exceeding it reports truncation.
    pub max_states: usize,
    /// Seeded bug injection.
    pub inject: Option<Injection>,
    /// Cores with private L1s behind each cluster copy
    /// (0..=[`MAX_CORES`]); 0 is the flat relation.
    pub l1_cores: u8,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            clusters: 2,
            addrs: 1,
            ops_per_cluster: 1,
            max_faults: 1,
            max_retries: 1,
            symmetry: true,
            max_states: 50_000_000,
            inject: None,
            l1_cores: 0,
        }
    }
}

/// Why [`ResilientConfig::validate`] rejects a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A cluster count outside `1..=MAX_CLUSTERS`.
    Clusters(usize),
    /// An address count outside `1..=MAX_ADDRS`.
    Addrs(usize),
    /// More L1 cores per cluster than [`MAX_CORES`].
    L1Cores(u8),
    /// Fewer retries than faults: lost grants would deadlock.
    RetriesBelowFaults {
        /// The retry budget.
        retries: u8,
        /// The fault budget.
        faults: u8,
    },
    /// More retries than a cluster's host→device FIFO can hold.
    RetriesOverflowFifo {
        /// The retry budget.
        retries: u8,
        /// The address count (one snoop response slot each).
        addrs: usize,
    },
    /// An injection that exists only in the L1 tier, on a flat run.
    NeedsL1Tier(Injection),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::Clusters(n) => write!(f, "{n} clusters: must be 1..={MAX_CLUSTERS}"),
            ConfigError::Addrs(n) => write!(f, "{n} addresses: must be 1..={MAX_ADDRS}"),
            ConfigError::L1Cores(n) => write!(f, "{n} L1 cores: must be 0..={MAX_CORES}"),
            ConfigError::RetriesBelowFaults { retries, faults } => write!(
                f,
                "{retries} retries cannot cover {faults} faults: lost grants would deadlock"
            ),
            ConfigError::RetriesOverflowFifo { retries, addrs } => write!(
                f,
                "{retries} retries: the {M2S_CAP}-slot host→device FIFO holds at most {} \
                 beside one snoop response per address",
                M2S_CAP.saturating_sub(addrs)
            ),
            ConfigError::NeedsL1Tier(inj) => {
                write!(f, "injection {} needs an L1 tier", inj.name())
            }
        }
    }
}

impl ResilientConfig {
    /// Reject a configuration the fixed-size state cannot hold or that
    /// would deadlock for reasons other than a protocol bug.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_CLUSTERS).contains(&self.clusters) {
            return Err(ConfigError::Clusters(self.clusters));
        }
        if !(1..=MAX_ADDRS).contains(&self.addrs) {
            return Err(ConfigError::Addrs(self.addrs));
        }
        if self.l1_cores as usize > MAX_CORES {
            return Err(ConfigError::L1Cores(self.l1_cores));
        }
        if self.max_retries < self.max_faults {
            return Err(ConfigError::RetriesBelowFaults {
                retries: self.max_retries,
                faults: self.max_faults,
            });
        }
        // A cluster's FIFO holds its request, or the retries that pile up
        // behind a lost grant before the DCOH reads them, plus at most
        // one snoop response per address (one snoop per line at a time).
        if self.max_retries.max(1) as usize + self.addrs > M2S_CAP {
            return Err(ConfigError::RetriesOverflowFifo {
                retries: self.max_retries,
                addrs: self.addrs,
            });
        }
        if let Some(inj) = self
            .inject
            .filter(|i| i.needs_l1_tier() && self.l1_cores == 0)
        {
            return Err(ConfigError::NeedsL1Tier(inj));
        }
        Ok(())
    }
}

/// A violation of one of the checked invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RViolation {
    /// Two writable copies, or a writable copy alongside readers.
    Swmr(String),
    /// An L1 copy with more permission than its cluster copy.
    Inclusion(String),
    /// A grant delivered stale data, or a writable copy is not the
    /// newest version.
    Stale(String),
    /// A quiescent state retains an outdated copy.
    Divergence(String),
    /// Declared poison diverged from the ghost taint (poison was lost
    /// or laundered somewhere).
    Poison(String),
    /// A non-final state with no enabled transition.
    Deadlock(String),
}

impl std::fmt::Display for RViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RViolation::Swmr(s) => write!(f, "SWMR violated: {s}"),
            RViolation::Inclusion(s) => write!(f, "inclusion violated: {s}"),
            RViolation::Stale(s) => write!(f, "stale data: {s}"),
            RViolation::Divergence(s) => write!(f, "divergence: {s}"),
            RViolation::Poison(s) => write!(f, "poison stickiness violated: {s}"),
            RViolation::Deadlock(s) => write!(f, "deadlock: {s}"),
        }
    }
}

/// A counterexample: the shortest path to the violating state, replayed
/// through the [`Tracer`] for a readable post-mortem. The path walks the
/// concrete states the explorer visited, so a cluster number names the
/// same cluster in every step.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Human-readable step labels, `(component index, description)`;
    /// component indices are clusters `0..n`, then the DCOH, then the
    /// fault fabric.
    pub steps: Vec<(usize, String)>,
    /// The tracer's text rendering of the replay.
    pub trace: String,
}

/// Result of a resilient-model run.
#[derive(Debug)]
pub struct ResilientResult {
    /// Canonical (representative) states explored.
    pub canonical_states: usize,
    /// Transitions examined.
    pub edges: u64,
    /// Exact unreduced reachable-state count (Σ orbit sizes).
    pub unreduced_states: u128,
    /// `unreduced_states / canonical_states`.
    pub reduction_factor: f64,
    /// Symmetry group order used.
    pub group_order: usize,
    /// The canonicalization work of the run, exact for a config.
    pub canon: CanonStats,
    /// First violation found, with its counterexample.
    pub violation: Option<(RViolation, Counterexample)>,
    /// Whether exploration hit `max_states`.
    pub truncated: bool,
    /// Every `(controller, state, event)` the explorer exercised on the
    /// strict-protocol paths — cross-checked against the PR-5 tables by
    /// `static_checks::check_model_conformance`.
    pub witnesses: Vec<(&'static str, &'static str, &'static str)>,
}

// ---------------------------------------------------------------------
// Channel helpers
// ---------------------------------------------------------------------

fn m2s_push(fifo: &mut [Option<HostMsg>; M2S_CAP], m: HostMsg) {
    for s in fifo.iter_mut() {
        if s.is_none() {
            *s = Some(m);
            return;
        }
    }
    panic!("host→device FIFO overflow (model bound too small)");
}

fn m2s_pop(fifo: &mut [Option<HostMsg>; M2S_CAP]) -> Option<HostMsg> {
    let head = fifo[0].take()?;
    for i in 1..M2S_CAP {
        fifo[i - 1] = fifo[i].take();
    }
    Some(head)
}

/// Insert into the sorted multiset, keeping `None`s at the tail.
fn s2m_push(chan: &mut [Option<DevMsg>; CHAN_CAP], m: DevMsg) {
    let mut n = 0;
    while n < CHAN_CAP && chan[n].is_some() {
        n += 1;
    }
    assert!(n < CHAN_CAP, "device→host channel overflow");
    let mut i = n;
    while i > 0 && chan[i - 1].map(|x| x > m) == Some(true) {
        chan[i] = chan[i - 1];
        i -= 1;
    }
    chan[i] = Some(m);
}

fn s2m_remove(chan: &mut [Option<DevMsg>; CHAN_CAP], idx: usize) -> DevMsg {
    let m = chan[idx].take().expect("remove from empty slot");
    for i in idx + 1..CHAN_CAP {
        chan[i - 1] = chan[i].take();
    }
    m
}

fn s2m_contains(chan: &[Option<DevMsg>; CHAN_CAP], pred: impl Fn(&DevMsg) -> bool) -> bool {
    chan.iter().flatten().any(pred)
}

// ---------------------------------------------------------------------
// State construction and predicates
// ---------------------------------------------------------------------

impl RState {
    /// The initial state: all caches invalid, all budgets full, the
    /// full fault budget unspent. Identical per cluster and per address
    /// — the root of the symmetry argument.
    ///
    /// Panics on a configuration [`ResilientConfig::validate`] rejects.
    pub fn initial(cfg: &ResilientConfig) -> RState {
        if let Err(e) = cfg.validate() {
            panic!("invalid resilient-model configuration: {e}");
        }
        let mut s = RState {
            faults_left: cfg.max_faults,
            l1_cores: cfg.l1_cores,
            ..RState::default()
        };
        // Inactive clusters and cores stay all-zero for the whole run.
        for c in &mut s.cl[..cfg.clusters] {
            if cfg.l1_cores == 0 {
                c.budget = cfg.ops_per_cluster;
            }
            for k in &mut c.cores[..cfg.l1_cores as usize] {
                k.budget = cfg.ops_per_cluster;
            }
        }
        s
    }

    /// Final (quiescent) state: all work done, nothing in flight.
    pub fn done(&self, cfg: &ResilientConfig) -> bool {
        self.cl[..cfg.clusters].iter().all(|c| {
            c.budget == 0
                && c.pend == Pend::Idle
                && c.recall.iter().all(Option::is_none)
                && c.cores.iter().all(|k| k.budget == 0)
        }) && self.dir[..cfg.addrs]
            .iter()
            .all(|d| d.snoop.is_none() && d.qlen == 0)
            && self.m2s[..cfg.clusters]
                .iter()
                .all(|f| f.iter().all(|m| m.is_none()))
            && self.s2m[..cfg.clusters]
                .iter()
                .all(|c| c.iter().all(|m| m.is_none()))
    }

    /// Invariants checked in every reachable state.
    pub fn check(&self, cfg: &ResilientConfig) -> Option<RViolation> {
        match self.ghost_bug {
            GHOST_STALE_SHARED => {
                return Some(RViolation::Stale(
                    "a shared grant delivered a version older than one \
                     already observed by the requester"
                        .into(),
                ))
            }
            GHOST_STALE_EXCL => {
                return Some(RViolation::Stale(
                    "an ownership grant delivered a version older than the \
                     newest write; a store would lose updates"
                        .into(),
                ))
            }
            GHOST_STALE_LOAD => {
                return Some(RViolation::Stale(
                    "a core load returned a version older than one that core \
                     already observed"
                        .into(),
                ))
            }
            _ => {}
        }
        let cores = cfg.l1_cores as usize;
        for a in 0..cfg.addrs {
            // Inclusion: an L1 copy needs at least as much permission in
            // its cluster copy (no-op on the flat relation).
            for (ci, c) in self.cl[..cfg.clusters].iter().enumerate() {
                for (k, core) in c.cores[..cores].iter().enumerate() {
                    if core.l1[a].st > c.copy[a].st {
                        return Some(RViolation::Inclusion(format!(
                            "addr {a}: cluster {ci} core {k} holds {:?} over a \
                             cluster copy in {:?}",
                            core.l1[a].st, c.copy[a].st
                        )));
                    }
                }
            }
            let clusters = &self.cl[..cfg.clusters];
            if let Some((w, r)) = swmr_broken(clusters.iter().map(|c| c.copy[a].st)) {
                return Some(RViolation::Swmr(format!(
                    "addr {a}: {w} writable / {r} readable copies"
                )));
            }
            // The same across every L1 of every cluster.
            let l1s = clusters
                .iter()
                .flat_map(|c| c.cores[..cores].iter().map(|k| k.l1[a].st));
            if let Some((w, r)) = swmr_broken(l1s) {
                return Some(RViolation::Swmr(format!(
                    "addr {a}: {w} writable / {r} readable L1 copies"
                )));
            }
            // A writable cluster must hold the newest version (in a dirty
            // L1 copy, if it has one).
            for (ci, c) in self.cl[..cfg.clusters].iter().enumerate() {
                let ver = c.data(a, cores).ver;
                if c.copy[a].st == St::M && ver != self.dir[a].max_ver {
                    return Some(RViolation::Stale(format!(
                        "addr {a}: cluster {ci} writable at v{ver} but newest is v{}",
                        self.dir[a].max_ver
                    )));
                }
            }
            // Poison stickiness: declared == taint on every copy, the
            // memory image, and every in-flight data-carrying message.
            let d = &self.dir[a];
            if d.mem_decl != d.mem_taint {
                return Some(RViolation::Poison(format!(
                    "addr {a}: memory declared={} taint={}",
                    d.mem_decl, d.mem_taint
                )));
            }
            for (ci, c) in self.cl[..cfg.clusters].iter().enumerate() {
                if c.copy[a].st != St::I && c.copy[a].decl != c.copy[a].taint {
                    return Some(RViolation::Poison(format!(
                        "addr {a}: cluster {ci} copy declared={} taint={}",
                        c.copy[a].decl, c.copy[a].taint
                    )));
                }
                for (k, core) in c.cores[..cores].iter().enumerate() {
                    let l = core.l1[a];
                    if l.st != St::I && l.decl != l.taint {
                        return Some(RViolation::Poison(format!(
                            "addr {a}: cluster {ci} core {k} L1 copy declared={} taint={}",
                            l.decl, l.taint
                        )));
                    }
                }
            }
        }
        for ci in 0..cfg.clusters {
            for m in self.s2m[ci].iter().flatten() {
                if let DevMsg::Data {
                    addr, decl, taint, ..
                } = m
                {
                    if decl != taint {
                        return Some(RViolation::Poison(format!(
                            "in-flight grant for addr {addr} to cluster {ci}: \
                             declared={decl} taint={taint}"
                        )));
                    }
                }
            }
            for m in self.m2s[ci].iter().flatten() {
                if let HostMsg::Rsp {
                    addr,
                    dirty: Some((_, decl, taint)),
                    ..
                } = m
                {
                    if decl != taint {
                        return Some(RViolation::Poison(format!(
                            "in-flight writeback for addr {addr} from cluster {ci}: \
                             declared={decl} taint={taint}"
                        )));
                    }
                }
            }
        }
        if self.done(cfg) {
            for a in 0..cfg.addrs {
                let max = self.dir[a].max_ver;
                for (ci, c) in self.cl[..cfg.clusters].iter().enumerate() {
                    let ver = c.data(a, cores).ver;
                    if c.copy[a].st != St::I && ver != max {
                        return Some(RViolation::Divergence(format!(
                            "addr {a}: cluster {ci} quiescent copy v{ver} != newest v{max}"
                        )));
                    }
                    for (k, core) in c.cores[..cores].iter().enumerate() {
                        if core.l1[a].st != St::I && core.l1[a].ver != max {
                            return Some(RViolation::Divergence(format!(
                                "addr {a}: cluster {ci} core {k} quiescent L1 copy \
                                 v{} != newest v{max}",
                                core.l1[a].ver
                            )));
                        }
                    }
                }
                let any_m = self.cl[..cfg.clusters]
                    .iter()
                    .any(|c| c.copy[a].st == St::M);
                if !any_m && self.dir[a].mem_ver != max {
                    return Some(RViolation::Divergence(format!(
                        "addr {a}: memory v{} != newest v{max} with no dirty owner",
                        self.dir[a].mem_ver
                    )));
                }
            }
        }
        None
    }
}

/// `Some((writable, readable))` when `copies` break single-writer /
/// multiple-reader.
fn swmr_broken(copies: impl Iterator<Item = St>) -> Option<(usize, usize)> {
    let (mut w, mut r) = (0, 0);
    for st in copies {
        w += (st == St::M) as usize;
        r += (st != St::I) as usize;
    }
    (w > 1 || (w == 1 && r > 1)).then_some((w, r))
}

// ---------------------------------------------------------------------
// Successor generation (the transition relation)
// ---------------------------------------------------------------------

/// Component indices used in counterexample traces.
fn comp_dcoh(cfg: &ResilientConfig) -> usize {
    cfg.clusters
}
fn comp_fabric(cfg: &ResilientConfig) -> usize {
    cfg.clusters + 1
}

/// Optional per-successor instrumentation: human labels for replay,
/// `(controller, state, event)` witnesses for table conformance.
#[derive(Default)]
pub struct SuccCtx {
    /// When present, receives one `(component, label)` per successor.
    pub labels: Option<Vec<(usize, String)>>,
    /// When present, receives strict-protocol step witnesses.
    pub witnesses: Option<BTreeSet<(&'static str, &'static str, &'static str)>>,
    /// The witnesses already in `witnesses`, keyed by where their static
    /// names live, so a repeat costs one hash probe and no string
    /// comparison.
    recorded: FxHashSet<[(usize, usize); 3]>,
}

impl SuccCtx {
    fn label(&mut self, comp: usize, f: impl FnOnce() -> String) {
        if let Some(l) = self.labels.as_mut() {
            l.push((comp, f()));
        }
    }
    fn witness(&mut self, controller: &'static str, state: &'static str, event: &'static str) {
        let Some(w) = self.witnesses.as_mut() else {
            return;
        };
        let key = [controller, state, event].map(|n| (n.as_ptr() as usize, n.len()));
        if self.recorded.insert(key) {
            w.insert((controller, state, event));
        }
    }
}

/// The PR-5 table name for the DCOH's per-address state.
fn dcoh_state_name(d: &DirSt) -> &'static str {
    match d.snoop {
        Some(SnoopSt { inv: true, .. }) => "SnpInv",
        Some(SnoopSt { inv: false, .. }) => "SnpData",
        None if d.holders == 0 => "NoHolders",
        None if d.excl => "Exclusive",
        None => "Shared",
    }
}

/// The PR-5 bridge-table name for a cluster's per-address state.
fn bridge_state_name(c: &ClusterSt, a: usize) -> &'static str {
    if c.recall[a].is_some() {
        return "SnoopRecall";
    }
    if let Pend::Fetch { addr, excl, .. } = c.pend {
        if addr as usize == a {
            return if excl { "FetchX" } else { "FetchS" };
        }
    }
    match c.copy[a].st {
        St::I => "I",
        St::S => "S",
        St::M => "M",
    }
}

/// All successors of `s`, in a deterministic order. `ctx` optionally
/// collects labels (for counterexample replay) and table witnesses.
pub fn successors(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    out.clear();
    if let Some(l) = ctx.labels.as_mut() {
        l.clear();
    }
    if cfg.l1_cores == 0 {
        core_steps(s, cfg, out, ctx);
    } else {
        l1_core_steps(s, cfg, out, ctx);
    }
    retry_steps(s, cfg, out, ctx);
    resend_steps(s, cfg, out, ctx);
    dcoh_steps(s, cfg, out, ctx);
    deliver_steps(s, cfg, out, ctx);
    fault_steps(s, cfg, out, ctx);
    recall_steps(s, cfg, out, ctx);
}

/// Rule I: open a fetch of `a` for core `k` and send its request;
/// returns the fetch's sequence tag.
fn open_fetch(n: &mut RState, ci: usize, k: usize, a: usize, excl: bool) -> u8 {
    let seq = n.cl[ci].fetch_ctr[a] + 1;
    n.cl[ci].fetch_ctr[a] = seq;
    n.cl[ci].pend = Pend::Fetch {
        addr: a as u8,
        excl,
        seq,
        retries: 0,
        stash: None,
        core: k as u8,
    };
    m2s_push(
        &mut n.m2s[ci],
        HostMsg::Req {
            addr: a as u8,
            excl,
            seq,
        },
    );
    seq
}

/// Core operations: a cluster with budget and no outstanding fetch may
/// load or store any address (ops commit at fill for misses).
fn core_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let c = &s.cl[ci];
        if c.budget == 0 || c.pend != Pend::Idle {
            continue;
        }
        for a in 0..cfg.addrs {
            match c.copy[a].st {
                St::S | St::M => {
                    // Load hit.
                    let mut n = *s;
                    n.cl[ci].budget -= 1;
                    n.cl[ci].seen[a] = n.cl[ci].seen[a].max(c.copy[a].ver);
                    ctx.label(ci, || format!("cl{ci}: load hit a{a} v{}", c.copy[a].ver));
                    out.push(n);
                }
                St::I => {
                    // Load miss: delegate upward.
                    let mut n = *s;
                    let seq = open_fetch(&mut n, ci, 0, a, false);
                    ctx.label(ci, || format!("cl{ci}: load miss a{a}, RdS seq{seq}"));
                    out.push(n);
                }
            }
            if c.copy[a].st == St::M {
                // Store hit: a new version, poison cleared (full-line
                // write of fresh data).
                let mut n = *s;
                n.cl[ci].budget -= 1;
                n.dir[a].max_ver += 1;
                let v = n.dir[a].max_ver;
                n.cl[ci].copy[a].ver = v;
                n.cl[ci].copy[a].decl = false;
                n.cl[ci].copy[a].taint = false;
                n.cl[ci].seen[a] = v;
                ctx.label(ci, || format!("cl{ci}: store hit a{a} -> v{v}"));
                out.push(n);
            } else {
                // Store miss / upgrade: delegate ownership acquisition.
                let mut n = *s;
                let seq = open_fetch(&mut n, ci, 0, a, true);
                ctx.label(ci, || format!("cl{ci}: store miss a{a}, RdA seq{seq}"));
                out.push(n);
            }
        }
    }
}

/// A core's load returns `ver`: retire the op and check that the core
/// never reads backwards.
fn observe(n: &mut RState, ci: usize, k: usize, a: usize, ver: u8) {
    let core = &mut n.cl[ci].cores[k];
    if ver < core.seen[a] {
        n.ghost_bug = GHOST_STALE_LOAD;
    }
    core.seen[a] = core.seen[a].max(ver);
    core.budget -= 1;
}

/// A core's store writes a new version into its L1 (which must hold
/// ownership) and retires the op; the cluster copy stays stale until a
/// recall writes the dirty line back.
fn store(n: &mut RState, ci: usize, k: usize, a: usize) -> u8 {
    n.dir[a].max_ver += 1;
    let v = n.dir[a].max_ver;
    let core = &mut n.cl[ci].cores[k];
    core.l1[a] = Copy {
        st: St::M,
        ver: v,
        decl: false,
        taint: false,
    };
    core.seen[a] = v;
    core.budget -= 1;
    v
}

/// Core operations behind an L1 tier. L1 hits, and misses the cluster
/// copy can serve, complete at once (intra-cluster coherence is atomic:
/// a dirty sibling supplies a load and keeps a shared copy; a store
/// invalidates the siblings). Anything else is delegated upward (Rule I)
/// through the cluster's one fetch slot. A core waits while its own fetch
/// is in flight, and a line under a nested recall takes no new misses.
fn l1_core_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    let cores = cfg.l1_cores as usize;
    for ci in 0..cfg.clusters {
        let c = &s.cl[ci];
        for k in 0..cores {
            let waiting = matches!(c.pend, Pend::Fetch { core, .. } if core as usize == k);
            if c.cores[k].budget == 0 || waiting {
                continue;
            }
            for a in 0..cfg.addrs {
                let l1 = c.cores[k].l1[a];
                let open = c.recall[a].is_none();
                // -- load --
                if l1.st != St::I {
                    let mut n = *s;
                    observe(&mut n, ci, k, a, l1.ver);
                    ctx.label(ci, || format!("cl{ci}.{k}: load hit a{a} v{}", l1.ver));
                    out.push(n);
                } else if c.copy[a].st != St::I && open {
                    let mut n = *s;
                    let nc = &mut n.cl[ci];
                    if let Some(j) = (0..cores).find(|&j| nc.cores[j].l1[a].st == St::M) {
                        nc.copy[a] = Copy {
                            st: St::M,
                            ..nc.cores[j].l1[a]
                        };
                        nc.cores[j].l1[a].st = St::S;
                    }
                    nc.cores[k].l1[a] = Copy {
                        st: St::S,
                        ..nc.copy[a]
                    };
                    let v = nc.copy[a].ver;
                    observe(&mut n, ci, k, a, v);
                    ctx.label(ci, || {
                        format!("cl{ci}.{k}: load a{a} v{v} from the cluster")
                    });
                    out.push(n);
                } else if c.pend == Pend::Idle && open {
                    let mut n = *s;
                    let seq = open_fetch(&mut n, ci, k, a, false);
                    ctx.label(ci, || format!("cl{ci}.{k}: load miss a{a}, RdS seq{seq}"));
                    out.push(n);
                }
                // -- store --
                if l1.st == St::M {
                    let mut n = *s;
                    let v = store(&mut n, ci, k, a);
                    ctx.label(ci, || format!("cl{ci}.{k}: store hit a{a} -> v{v}"));
                    out.push(n);
                } else if c.copy[a].st == St::M && open {
                    let mut n = *s;
                    for sib in &mut n.cl[ci].cores[..cores] {
                        sib.l1[a].st = St::I;
                    }
                    let v = store(&mut n, ci, k, a);
                    ctx.label(ci, || {
                        format!("cl{ci}.{k}: store a{a} -> v{v} in the cluster")
                    });
                    out.push(n);
                } else if c.pend == Pend::Idle && open {
                    let mut n = *s;
                    let seq = open_fetch(&mut n, ci, k, a, true);
                    ctx.label(ci, || format!("cl{ci}.{k}: store miss a{a}, RdA seq{seq}"));
                    out.push(n);
                }
            }
        }
    }
}

/// Deadline/backoff retry: re-send the request of a pending fetch whose
/// grant was issued and lost (no copy left in flight).
fn retry_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let Pend::Fetch {
            addr,
            excl,
            seq,
            retries,
            ..
        } = s.cl[ci].pend
        else {
            continue;
        };
        let a = addr as usize;
        if retries >= cfg.max_retries {
            continue;
        }
        // The grant must have been serialized (so a grant existed) and
        // no copy of it may remain in flight: the timeout abstraction.
        if s.dir[a].granted[ci] < seq {
            continue;
        }
        if s2m_contains(
            &s.s2m[ci],
            |m| matches!(m, DevMsg::Data { addr: ma, seq: ms, .. } if *ma == addr && *ms == seq),
        ) {
            continue;
        }
        let mut n = *s;
        if let Pend::Fetch { retries: r, .. } = &mut n.cl[ci].pend {
            *r += 1;
        }
        m2s_push(&mut n.m2s[ci], HostMsg::Req { addr, excl, seq });
        ctx.label(ci, || {
            format!(
                "cl{ci}: retry {} a{a} seq{seq} (attempt {})",
                if excl { "RdA" } else { "RdS" },
                retries + 1
            )
        });
        out.push(n);
    }
}

/// BISnp re-issue: re-send an outstanding snoop that was lost before
/// the target accepted it.
fn resend_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for a in 0..cfg.addrs {
        let Some(sn) = s.dir[a].snoop else { continue };
        if sn.resends >= cfg.max_faults {
            continue;
        }
        let t = sn.target as usize;
        // Lost means: the target has not accepted this epoch and no
        // copy is still in flight.
        if s.cl[t].snp_epoch[a] >= sn.epoch {
            continue;
        }
        if s2m_contains(
            &s.s2m[t],
            |m| matches!(m, DevMsg::Snp { addr: ma, epoch: me, .. } if *ma as usize == a && *me == sn.epoch),
        ) {
            continue;
        }
        let mut n = *s;
        let mut nsn = sn;
        nsn.resends += 1;
        n.dir[a].snoop = Some(nsn);
        s2m_push(
            &mut n.s2m[t],
            DevMsg::Snp {
                addr: a as u8,
                inv: sn.inv,
                epoch: sn.epoch,
                after: sn.after,
            },
        );
        ctx.label(comp_dcoh(cfg), || {
            format!(
                "dcoh: re-issue {} a{a} to cl{t} (epoch {}, resend {})",
                if sn.inv { "BISnpInv" } else { "BISnpData" },
                sn.epoch,
                sn.resends + 1
            )
        });
        out.push(n);
    }
}

/// Send a grant to `ci` and record it in the directory.
fn grant(n: &mut RState, a: usize, ci: usize, writable: bool, seq: u8, cfg: &ResilientConfig) {
    if writable {
        n.dir[a].holders = 1 << ci;
        n.dir[a].excl = true;
    } else {
        n.dir[a].holders |= 1 << ci;
        n.dir[a].excl = false;
    }
    n.dir[a].granted[ci] = seq;
    s2m_push(&mut n.s2m[ci], data_msg(&n.dir[a], a, writable, seq, cfg));
}

/// A data grant of the directory's memory image.
fn data_msg(d: &DirSt, a: usize, writable: bool, seq: u8, cfg: &ResilientConfig) -> DevMsg {
    let launder = cfg.inject == Some(Injection::PoisonLaunder);
    DevMsg::Data {
        addr: a as u8,
        writable,
        ver: d.mem_ver,
        seq,
        decl: d.mem_decl && !launder,
        taint: d.mem_taint,
    }
}

/// Open a blocking snoop transaction against `target`.
fn issue_snoop(n: &mut RState, a: usize, inv: bool, target: usize, requester: usize, req_seq: u8) {
    n.dir[a].epoch += 1;
    let epoch = n.dir[a].epoch;
    let after = n.dir[a].granted[target];
    n.dir[a].snoop = Some(SnoopSt {
        inv,
        target: target as u8,
        requester: requester as u8,
        req_seq,
        epoch,
        resends: 0,
        after,
    });
    s2m_push(
        &mut n.s2m[target],
        DevMsg::Snp {
            addr: a as u8,
            inv,
            epoch,
            after,
        },
    );
}

/// Admit a request at an unblocked line, pushing every outcome to `out`:
/// grant it (then re-admit the blocked requests), or open the snoop that
/// clears the way. An ownership request invalidates the other sharers
/// one at a time in any order, so each of them is a candidate target and
/// yields its own successor. Always picking one (say the lowest id)
/// would make the relation depend on cluster ids and break symmetry.
fn admit_all(
    mut n: RState,
    a: usize,
    ci: usize,
    excl: bool,
    seq: u8,
    cfg: &ResilientConfig,
    out: &mut Vec<RState>,
) {
    debug_assert!(n.dir[a].snoop.is_none());
    let others = n.dir[a].holders & !(1 << ci);
    if others == 0 || (!excl && !n.dir[a].excl) {
        // Nobody to snoop: grant, writable (M, or E for a load) when the
        // requester is the sole holder.
        grant(&mut n, a, ci, others == 0, seq, cfg);
        drain_all(n, a, cfg, out);
        return;
    }
    // Snoop one other holder per successor: to invalidate it for a store,
    // or, for a load, to downgrade the lone exclusive owner.
    for target in (0..cfg.clusters).filter(|t| others & (1 << t) != 0) {
        let mut m = n;
        issue_snoop(&mut m, a, excl, target, ci, seq);
        out.push(m);
    }
}

/// Re-admit the head of the blocked-request queue while the line is
/// open (every outcome of [`admit_all`] drains on), pushing the results.
fn drain_all(mut n: RState, a: usize, cfg: &ResilientConfig, out: &mut Vec<RState>) {
    let d = &mut n.dir[a];
    if d.snoop.is_some() || d.qlen == 0 {
        out.push(n);
        return;
    }
    let (qc, qe, qs) = d.queue[0];
    d.queue.rotate_left(1);
    d.queue[QCAP - 1] = (0, 0, 0);
    d.qlen -= 1;
    admit_all(n, a, qc as usize, qe == 1, qs, cfg, out);
}

/// Label each successor `out[first..]` of one DCOH step: `what`, plus the
/// snoop the step opened on address `a`, if any.
fn label_dcoh(
    ctx: &mut SuccCtx,
    cfg: &ResilientConfig,
    out: &[RState],
    first: usize,
    a: usize,
    what: impl Fn() -> String,
) {
    for n in &out[first..] {
        ctx.label(comp_dcoh(cfg), || match n.dir[a].snoop {
            Some(sn) => format!(
                "{}, {} cl{}",
                what(),
                if sn.inv { "BISnpInv" } else { "BISnpData" },
                sn.target
            ),
            None => what(),
        });
    }
}

/// DCOH actions: consume the head of each host→device FIFO.
fn dcoh_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        let Some(head) = s.m2s[ci][0] else { continue };
        let mut n = *s;
        m2s_pop(&mut n.m2s[ci]);
        match head {
            HostMsg::Req { addr, excl, seq } => {
                let a = addr as usize;
                let ev = if excl { "MemRdA" } else { "MemRdS" };
                if seq <= s.dir[a].granted[ci] {
                    // Duplicate of an already-serialized request: the
                    // recorded holder lost its grant (or retried
                    // spuriously). PR-2's lost-grant replay re-sends the
                    // grant instead of snooping the requester itself.
                    if cfg.inject == Some(Injection::LostGrantLivelock) {
                        ctx.label(comp_dcoh(cfg), || {
                            format!("dcoh: IGNORE dup {ev} a{a} cl{ci} seq{seq} (replay disabled)")
                        });
                        out.push(n);
                        continue;
                    }
                    ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                    debug_assert!(n.dir[a].holders & (1 << ci) != 0);
                    let d = &n.dir[a];
                    let writable = d.holders == 1 << ci && d.excl;
                    let msg = data_msg(d, a, writable, d.granted[ci], cfg);
                    s2m_push(&mut n.s2m[ci], msg);
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: replay grant a{a} to cl{ci} seq{seq}")
                    });
                    out.push(n);
                    continue;
                }
                let queued = (0..s.dir[a].qlen as usize).any(|i| s.dir[a].queue[i].0 == ci as u8);
                let snooping_for_us = s.dir[a].snoop.is_some_and(|sn| sn.requester as usize == ci);
                if queued || snooping_for_us {
                    // Duplicate of a request already in service.
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: suppress dup {ev} a{a} cl{ci} seq{seq}")
                    });
                    out.push(n);
                    continue;
                }
                ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                if s.dir[a].snoop.is_some() {
                    // Line blocked: convoy the request.
                    let qi = n.dir[a].qlen as usize;
                    assert!(qi < QCAP, "DCOH queue overflow");
                    n.dir[a].queue[qi] = (ci as u8, excl as u8, seq);
                    n.dir[a].qlen += 1;
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: queue {ev} a{a} cl{ci} seq{seq} (line blocked)")
                    });
                    out.push(n);
                } else {
                    let first = out.len();
                    admit_all(n, a, ci, excl, seq, cfg, out);
                    label_dcoh(ctx, cfg, out, first, a, || {
                        format!("dcoh: admit {ev} a{a} cl{ci} seq{seq}")
                    });
                }
            }
            HostMsg::Rsp {
                addr,
                inv,
                dirty,
                epoch,
            } => {
                let a = addr as usize;
                let ev = if inv { "BiRspI" } else { "BiRspS" };
                // Writeback data is real regardless of epoch staleness.
                if let Some((ver, decl, taint)) = dirty {
                    if ver >= n.dir[a].mem_ver {
                        n.dir[a].mem_ver = ver;
                        n.dir[a].mem_decl = decl;
                        n.dir[a].mem_taint = taint;
                    }
                }
                let matches_snoop = s.dir[a]
                    .snoop
                    .is_some_and(|sn| sn.epoch == epoch && sn.target as usize == ci);
                if !matches_snoop {
                    ctx.label(comp_dcoh(cfg), || {
                        format!("dcoh: stale {ev} a{a} from cl{ci} (epoch {epoch})")
                    });
                    out.push(n);
                    continue;
                }
                ctx.witness("dcoh", dcoh_state_name(&s.dir[a]), ev);
                let sn = s.dir[a].snoop.unwrap();
                n.dir[a].snoop = None;
                let req = sn.requester as usize;
                let first = out.len();
                if sn.inv {
                    // Re-admit the request: invalidate a remaining holder
                    // or grant ownership.
                    n.dir[a].holders &= !(1 << ci);
                    n.dir[a].excl = false;
                    admit_all(n, a, req, true, sn.req_seq, cfg, out);
                } else {
                    // Downgrade: the old owner keeps a shared copy.
                    n.dir[a].excl = false;
                    grant(&mut n, a, req, false, sn.req_seq, cfg);
                    drain_all(n, a, cfg, out);
                }
                label_dcoh(ctx, cfg, out, first, a, || {
                    format!("dcoh: {ev} a{a} from cl{ci}, resolve snoop epoch {epoch}")
                });
            }
        }
    }
}

/// Deliver any device→host message (unordered channel: each pending
/// message is its own successor).
fn deliver_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        for slot in 0..CHAN_CAP {
            let Some(msg) = s.s2m[ci][slot] else { continue };
            // Identical duplicates are adjacent in the sorted multiset;
            // delivering either yields the same successor.
            if slot > 0 && s.s2m[ci][slot - 1] == Some(msg) {
                continue;
            }
            let mut n = *s;
            s2m_remove(&mut n.s2m[ci], slot);
            host_receive(&mut n, s, ci, msg, cfg, ctx);
            out.push(n);
        }
    }
}

/// Host reaction to a delivered device message. `pre` is the state the
/// message was delivered in (for witness naming).
fn host_receive(
    n: &mut RState,
    pre: &RState,
    ci: usize,
    msg: DevMsg,
    cfg: &ResilientConfig,
    ctx: &mut SuccCtx,
) {
    match msg {
        DevMsg::Data {
            addr,
            writable,
            ver,
            seq,
            decl,
            taint,
        } => {
            let a = addr as usize;
            let current = matches!(
                n.cl[ci].pend,
                Pend::Fetch { addr: pa, seq: ps, .. } if pa == addr && ps == seq
            );
            if !current {
                // Stale or duplicate grant: suppressed by the seq tag.
                ctx.label(ci, || format!("cl{ci}: suppress stale grant a{a} seq{seq}"));
                return;
            }
            ctx.witness("bridge", bridge_state_name(&pre.cl[ci], a), "MemData");
            let Pend::Fetch {
                excl, stash, core, ..
            } = n.cl[ci].pend
            else {
                unreachable!()
            };
            debug_assert!(!excl || writable, "ownership fetch got a read-only grant");
            // Install.
            n.cl[ci].copy[a] = Copy {
                st: if writable { St::M } else { St::S },
                ver,
                decl,
                taint,
            };
            n.cl[ci].inst_seq[a] = seq;
            // Commit the operation that opened the fetch (MSHR retire).
            if excl && ver != n.dir[a].max_ver {
                n.ghost_bug = GHOST_STALE_EXCL;
            }
            if cfg.l1_cores > 0 {
                let k = core as usize;
                if excl {
                    for sib in &mut n.cl[ci].cores[..cfg.l1_cores as usize] {
                        sib.l1[a].st = St::I;
                    }
                    store(n, ci, k, a);
                } else {
                    n.cl[ci].cores[k].l1[a] = Copy {
                        st: St::S,
                        ..n.cl[ci].copy[a]
                    };
                    observe(n, ci, k, a, ver);
                }
            } else if excl {
                n.dir[a].max_ver += 1;
                let v = n.dir[a].max_ver;
                n.cl[ci].copy[a].ver = v;
                n.cl[ci].copy[a].decl = false;
                n.cl[ci].copy[a].taint = false;
                n.cl[ci].seen[a] = v;
                n.cl[ci].budget -= 1;
            } else {
                if ver < n.cl[ci].seen[a] {
                    n.ghost_bug = GHOST_STALE_SHARED;
                }
                n.cl[ci].seen[a] = n.cl[ci].seen[a].max(ver);
                n.cl[ci].budget -= 1;
            }
            n.cl[ci].pend = Pend::Idle;
            ctx.label(ci, || {
                format!(
                    "cl{ci}: install a{a} {} v{} seq{seq}, commit {}",
                    if writable { "M" } else { "S" },
                    n.cl[ci].data(a, cfg.l1_cores as usize).ver,
                    if excl { "store" } else { "load" }
                )
            });
            // A snoop serialized after our grant was deferred until now.
            if let Some((inv, epoch)) = stash {
                answer_snoop(n, ci, a, inv, epoch, cfg);
            }
        }
        DevMsg::Snp {
            addr,
            inv,
            epoch,
            after,
        } => {
            let a = addr as usize;
            if epoch <= n.cl[ci].snp_epoch[a] {
                // Duplicate / re-issued snoop already accepted.
                ctx.label(ci, || {
                    format!("cl{ci}: suppress dup snoop a{a} epoch {epoch}")
                });
                return;
            }
            n.cl[ci].snp_epoch[a] = epoch;
            let ev = if inv { "BiSnpInv" } else { "BiSnpData" };
            ctx.witness("bridge", bridge_state_name(&pre.cl[ci], a), ev);
            let skip_stash = cfg.inject == Some(Injection::SkipConflictStash);
            let unordered = n.cl[ci].inst_seq[a] < after;
            let fetching_here = matches!(
                n.cl[ci].pend,
                Pend::Fetch { addr: pa, .. } if pa == addr
            );
            if fetching_here && unordered && !skip_stash {
                // The snoop was serialized after a grant we have not
                // installed yet: defer it until the fill (the seq-tag
                // resolution of the Fig. 2 race).
                if let Pend::Fetch { stash, .. } = &mut n.cl[ci].pend {
                    debug_assert!(stash.is_none(), "second snoop while one is stashed");
                    *stash = Some((inv, epoch));
                }
                ctx.label(ci, || {
                    format!("cl{ci}: stash {ev} a{a} epoch {epoch} until fill (after seq{after})")
                });
                return;
            }
            debug_assert!(
                !unordered || skip_stash,
                "snoop after an uninstalled grant with no fetch pending"
            );
            if answer_snoop(n, ci, a, inv, epoch, cfg) {
                ctx.label(ci, || {
                    format!("cl{ci}: {ev} a{a} epoch {epoch} opens a nested recall")
                });
            } else {
                ctx.label(ci, || format!("cl{ci}: answer {ev} a{a} epoch {epoch}"));
            }
        }
    }
}

/// Rule II: a snoop that finds L1 copies opens a nested recall and is
/// answered when the recall completes; otherwise it is answered now.
/// Returns whether a recall was opened.
fn answer_snoop(
    n: &mut RState,
    ci: usize,
    a: usize,
    inv: bool,
    epoch: u8,
    cfg: &ResilientConfig,
) -> bool {
    let nest = cfg.inject != Some(Injection::SkipRecallNesting);
    if nest && n.cl[ci].l1_holds(a, cfg.l1_cores as usize) {
        n.cl[ci].recall[a] = Some((inv, epoch));
        true
    } else {
        respond_snoop(n, ci, a, inv, epoch);
        false
    }
}

/// Complete a nested recall: reclaim the L1 copies (a dirty one writes
/// its data back into the cluster copy), then answer the snoop.
fn recall_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    for ci in 0..cfg.clusters {
        for a in 0..cfg.addrs {
            let Some((inv, epoch)) = s.cl[ci].recall[a] else {
                continue;
            };
            ctx.witness("bridge", "SnoopRecall", "RecallDone");
            let mut n = *s;
            let c = &mut n.cl[ci];
            for core in &mut c.cores[..cfg.l1_cores as usize] {
                let l = &mut core.l1[a];
                if l.st == St::M {
                    c.copy[a] = *l;
                }
                if inv {
                    l.st = St::I;
                } else if l.st == St::M {
                    l.st = St::S;
                }
            }
            c.recall[a] = None;
            respond_snoop(&mut n, ci, a, inv, epoch);
            ctx.label(ci, || {
                format!("cl{ci}: recall a{a} done, answer snoop epoch {epoch}")
            });
            out.push(n);
        }
    }
}

/// Answer a snoop from the current copy; dirty data is written back.
fn respond_snoop(n: &mut RState, ci: usize, a: usize, inv: bool, epoch: u8) {
    let c = n.cl[ci].copy[a];
    let dirty = (c.st == St::M).then_some((c.ver, c.decl, c.taint));
    n.cl[ci].copy[a].st = if inv || c.st == St::I { St::I } else { St::S };
    m2s_push(
        &mut n.m2s[ci],
        HostMsg::Rsp {
            addr: a as u8,
            inv,
            dirty,
            epoch,
        },
    );
}

/// Nondeterministic link faults on the device→host channel, bounded by
/// the fault budget: drop, duplicate, or poison-corrupt one message.
fn fault_steps(s: &RState, cfg: &ResilientConfig, out: &mut Vec<RState>, ctx: &mut SuccCtx) {
    if s.faults_left == 0 {
        return;
    }
    for ci in 0..cfg.clusters {
        for slot in 0..CHAN_CAP {
            let Some(msg) = s.s2m[ci][slot] else { continue };
            if slot > 0 && s.s2m[ci][slot - 1] == Some(msg) {
                continue; // identical duplicates: same successors
            }
            // Drop.
            let mut n = *s;
            s2m_remove(&mut n.s2m[ci], slot);
            n.faults_left -= 1;
            ctx.label(comp_fabric(cfg), || {
                format!("fault: drop {msg:?} -> cl{ci}")
            });
            out.push(n);
            // Duplicate (if the channel has room).
            let slots_used = s.s2m[ci].iter().flatten().count();
            if slots_used < CHAN_CAP {
                let mut n = *s;
                s2m_push(&mut n.s2m[ci], msg);
                n.faults_left -= 1;
                ctx.label(comp_fabric(cfg), || format!("fault: dup {msg:?} -> cl{ci}"));
                out.push(n);
            }
            // Poison-corrupt a clean data grant (detected link error).
            if let DevMsg::Data {
                addr,
                seq,
                decl: false,
                ..
            } = msg
            {
                let mut n = *s;
                s2m_remove(&mut n.s2m[ci], slot);
                let mut bad = msg;
                if let DevMsg::Data { decl, taint, .. } = &mut bad {
                    (*decl, *taint) = (true, true);
                }
                s2m_push(&mut n.s2m[ci], bad);
                n.faults_left -= 1;
                ctx.label(comp_fabric(cfg), || {
                    format!("fault: poison grant a{addr} seq{seq} -> cl{ci}")
                });
                out.push(n);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serialization and symmetry
// ---------------------------------------------------------------------

fn encode_pend(p: &Pend, aperm: &[u8], out: &mut Vec<u8>) {
    match *p {
        Pend::Idle => out.extend_from_slice(&[0; 8]),
        Pend::Fetch {
            addr,
            excl,
            seq,
            retries,
            stash,
            core: _,
        } => {
            let (stag, sinv, sepoch) = match stash {
                None => (0, 0, 0),
                Some((inv, epoch)) => (1, inv as u8, epoch),
            };
            out.extend_from_slice(&[
                1,
                aperm[addr as usize],
                excl as u8,
                seq,
                retries,
                stag,
                sinv,
                sepoch,
            ]);
        }
    }
}

fn encode_host_msg(m: &HostMsg, aperm: &[u8], out: &mut Vec<u8>) {
    match *m {
        HostMsg::Req { addr, excl, seq } => {
            out.extend_from_slice(&[1, aperm[addr as usize], excl as u8, seq])
        }
        HostMsg::Rsp {
            addr,
            inv,
            dirty,
            epoch,
        } => {
            out.extend_from_slice(&[2, aperm[addr as usize], inv as u8, epoch]);
            match dirty {
                None => out.push(0),
                Some((ver, decl, taint)) => {
                    out.extend_from_slice(&[1, ver, decl as u8, taint as u8])
                }
            }
        }
    }
}

fn encode_dev_msg(m: &DevMsg, out: &mut Vec<u8>) {
    match *m {
        DevMsg::Data {
            addr,
            writable,
            ver,
            seq,
            decl,
            taint,
        } => out.extend_from_slice(&[1, addr, writable as u8, ver, seq, decl as u8, taint as u8]),
        DevMsg::Snp {
            addr,
            inv,
            epoch,
            after,
        } => out.extend_from_slice(&[2, addr, inv as u8, epoch, after]),
    }
}

/// Relabel a DevMsg's address under `aperm`.
fn relabel_dev_msg(m: &DevMsg, aperm: &[u8]) -> DevMsg {
    let mut m = *m;
    let (DevMsg::Data { addr, .. } | DevMsg::Snp { addr, .. }) = &mut m;
    *addr = aperm[*addr as usize];
    m
}

/// The old index at each new position of a permutation.
fn inverse<const N: usize>(perm: &[u8]) -> [usize; N] {
    let mut inv = [0usize; N];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old;
    }
    inv
}

/// Append one `W`-byte field per address of a cluster block, in
/// new-address order (`inv_a[new] = old`). `start` is where the block
/// begins in `out`. With `ident`, the block under the identity address
/// permutation, each field is copied from the same section of it;
/// otherwise `field(old address)` encodes it.
fn addr_fields<const W: usize>(
    start: usize,
    ident: Option<&[u8]>,
    inv_a: &[usize],
    out: &mut Vec<u8>,
    field: impl Fn(usize) -> [u8; W],
) {
    let at = out.len() - start;
    for &oa in inv_a {
        let run: [u8; W] = match ident {
            Some(block) => block[at + oa * W..][..W].try_into().unwrap(),
            None => field(oa),
        };
        out.extend_from_slice(&run);
    }
}

impl RState {
    /// Append cluster `c`'s block under `aperm`: its budget and pend,
    /// each address's copy and counters, then the L1 tier. With `ident`
    /// (the block under the identity address permutation), per-address
    /// fields are copied from it rather than encoded; the address-free
    /// bytes and the pend, whose address is renamed, are encoded.
    fn write_cluster(&self, c: usize, aperm: &[u8], ident: Option<&[u8]>, out: &mut Vec<u8>) {
        let inv_a = &inverse::<MAX_ADDRS>(aperm)[..aperm.len()];
        let start = out.len();
        let c = &self.cl[c];
        out.push(c.budget);
        encode_pend(&c.pend, aperm, out);
        addr_fields(start, ident, inv_a, out, |oa| {
            [
                c.copy[oa].st as u8,
                c.copy[oa].ver,
                c.copy[oa].decl as u8,
                c.copy[oa].taint as u8,
                c.seen[oa],
                c.inst_seq[oa],
                c.fetch_ctr[oa],
                c.snp_epoch[oa],
            ]
        });
        // The L1 tier, present only when the run has one, so the flat
        // relation's encoding is unchanged.
        if self.l1_cores > 0 {
            out.push(match c.pend {
                Pend::Fetch { core, .. } => core,
                Pend::Idle => 0,
            });
            addr_fields(start, ident, inv_a, out, |oa| match c.recall[oa] {
                None => [0, 0],
                Some((inv, epoch)) => [1 + inv as u8, epoch],
            });
            for core in &c.cores[..self.l1_cores as usize] {
                out.push(core.budget);
                addr_fields(start, ident, inv_a, out, |oa| {
                    let l = core.l1[oa];
                    [
                        l.st as u8,
                        l.ver,
                        l.decl as u8,
                        l.taint as u8,
                        core.seen[oa],
                    ]
                });
            }
        }
        debug_assert!(ident.is_none_or(|b| b.len() == out.len() - start));
    }
}

/// The encoding's header is the fault budget and defect latch; a cluster
/// block is the cluster's copy, pend and L1 tier; the tail is the DCOH
/// (which names clusters through holders, grants, the snoop and the
/// queue), then the channels. Header and blocks have fixed lengths; in
/// the tail an absent snoop is one byte, and each DCOH queue and channel
/// is its occupancy followed by only its occupied entries.
impl Symmetric for RState {
    fn encode_header(&self, out: &mut Vec<u8>) {
        out.push(self.ghost_bug);
        out.push(self.faults_left);
    }

    fn encode_cluster(&self, c: usize, aperm: &[u8], out: &mut Vec<u8>) {
        self.write_cluster(c, aperm, None, out);
    }

    /// Every per-address field of a block sits at a fixed offset, so the
    /// block under `aperm` copies `ident`'s fields to their new places.
    fn permute_cluster(&self, c: usize, aperm: &[u8], ident: &[u8], out: &mut Vec<u8>) -> bool {
        self.write_cluster(c, aperm, Some(ident), out);
        true
    }

    fn encode_tail(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
        // Write fields in *new* index order.
        let inv_c = &inverse::<MAX_CLUSTERS>(cperm)[..cperm.len()];
        let inv_a = &inverse::<MAX_ADDRS>(aperm)[..aperm.len()];
        for &oa in inv_a {
            let d = &self.dir[oa];
            let mut holders = 0u8;
            for (oc, &ncl) in cperm.iter().enumerate() {
                if d.holders & (1 << oc) != 0 {
                    holders |= 1 << ncl;
                }
            }
            out.extend_from_slice(&[
                holders,
                d.excl as u8,
                d.mem_ver,
                d.mem_decl as u8,
                d.mem_taint as u8,
                d.max_ver,
                d.epoch,
            ]);
            for &oc in inv_c {
                out.push(d.granted[oc]);
            }
            match d.snoop {
                None => out.push(0),
                Some(sn) => out.extend_from_slice(&[
                    1,
                    sn.inv as u8,
                    cperm[sn.target as usize],
                    cperm[sn.requester as usize],
                    sn.req_seq,
                    sn.epoch,
                    sn.resends,
                    sn.after,
                ]),
            }
            out.push(d.qlen);
            for &(qc, qe, qs) in &d.queue[..d.qlen as usize] {
                out.extend_from_slice(&[cperm[qc as usize], qe, qs]);
            }
        }
        // Each channel is its occupancy, then its occupied slots; the
        // occupancy byte is filled in once the slots are written.
        for &oc in inv_c {
            let at = out.len();
            out.push(0);
            for m in self.m2s[oc].iter().map_while(Option::as_ref) {
                encode_host_msg(m, aperm, out);
                out[at] += 1;
            }
        }
        let renames = aperm.iter().enumerate().any(|(a, &n)| n as usize != a);
        for &oc in inv_c {
            let mut chan = self.s2m[oc];
            let mut held = 0;
            for m in chan.iter_mut().map_while(Option::as_mut) {
                if renames {
                    *m = relabel_dev_msg(m, aperm);
                }
                held += 1;
            }
            out.push(held as u8);
            if renames {
                // The channel is a multiset, kept sorted: relabel, then
                // re-sort.
                chan[..held].sort_unstable();
            }
            for m in chan[..held].iter().flatten() {
                encode_dev_msg(m, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------

/// Exhaustively explore the resilient protocol under `cfg` and check
/// every invariant in every reachable state. The BFS keeps one concrete
/// state per orbit (the first reached); the visited set holds only the
/// fingerprint of its canonical encoding.
pub fn check_resilient(cfg: &ResilientConfig) -> ResilientResult {
    let mut group = if cfg.symmetry {
        SymmetryGroup::new(cfg.clusters, cfg.addrs)
    } else {
        SymmetryGroup::identity(cfg.clusters, cfg.addrs)
    };
    let group_order = group.order();
    let mut visited = VisitedSet::new();
    // Boxed, so growing the queue moves pointers, not states.
    let mut frontier: VecDeque<(u32, Box<RState>)> = VecDeque::new();
    let mut ctx = SuccCtx {
        witnesses: Some(BTreeSet::new()),
        ..SuccCtx::default()
    };
    let mut canon = Vec::new();
    let mut succs: Vec<RState> = Vec::new();
    let mut orbit_sum: u128 = 0;
    let mut edges: u64 = 0;
    let mut truncated = false;
    let mut violation: Option<(RViolation, u32)> = None;

    let init = RState::initial(cfg);
    orbit_sum += group.canonical(&init, &mut canon) as u128;
    let init_id = visited
        .insert(fingerprint(&canon), NO_PARENT, 0)
        .expect("fresh visited set");
    match init.check(cfg) {
        Some(v) => violation = Some((v, init_id)),
        None => frontier.push_back((init_id, Box::new(init))),
    }

    'bfs: while violation.is_none() && !truncated {
        let Some((id, s)) = frontier.pop_front() else {
            break;
        };
        successors(&s, cfg, &mut succs, &mut ctx);
        if succs.is_empty() {
            if !s.done(cfg) {
                violation = Some((
                    RViolation::Deadlock(
                        "no transition enabled but work remains outstanding".into(),
                    ),
                    id,
                ));
            }
            continue;
        }
        for (i, succ) in succs.drain(..).enumerate() {
            edges += 1;
            let orbit = group.canonical(&succ, &mut canon);
            let Some(tid) = visited.insert(fingerprint(&canon), id, i as u16) else {
                continue;
            };
            orbit_sum += orbit as u128;
            if let Some(v) = succ.check(cfg) {
                violation = Some((v, tid));
                break 'bfs;
            }
            if visited.len() >= cfg.max_states {
                truncated = true;
                break 'bfs;
            }
            frontier.push_back((tid, Box::new(succ)));
        }
    }

    let canonical_states = visited.len();
    let violation = violation.map(|(v, vid)| {
        let cex = build_counterexample(cfg, &visited, vid, &v);
        (v, cex)
    });
    let witnesses: Vec<_> = ctx.witnesses.take().unwrap().into_iter().collect();
    ResilientResult {
        canonical_states,
        edges,
        unreduced_states: orbit_sum,
        reduction_factor: orbit_sum as f64 / canonical_states.max(1) as f64,
        group_order,
        canon: group.stats(),
        violation,
        truncated,
        witnesses,
    }
}

/// Replay the shortest path to `vid` through the [`Tracer`], producing
/// both step labels and the tracer's text rendering. The explorer kept
/// each state exactly as its parent generated it, so following the
/// successor ordinals from the initial state revisits the same concrete
/// states, and a cluster keeps its number from step to step.
fn build_counterexample(
    cfg: &ResilientConfig,
    visited: &VisitedSet,
    vid: u32,
    what: &RViolation,
) -> Counterexample {
    let mut state = RState::initial(cfg);
    let mut ctx = SuccCtx {
        labels: Some(Vec::new()),
        ..SuccCtx::default()
    };
    let mut succs = Vec::new();
    let mut steps: Vec<(usize, String)> = Vec::new();
    for o in visited.path_to(vid) {
        successors(&state, cfg, &mut succs, &mut ctx);
        let labels = ctx.labels.as_mut().expect("labels enabled");
        steps.push(labels.swap_remove(o as usize));
        state = succs.swap_remove(o as usize);
    }
    let mut tracer = Tracer::enabled(steps.len() + 2);
    let mut names: Vec<String> = (0..cfg.clusters).map(|c| format!("cluster{c}")).collect();
    names.push("dcoh".into());
    names.push("fault-fabric".into());
    for (i, (comp, label)) in steps.iter().enumerate() {
        tracer.instant(
            Time::from_ns(i as u64 + 1),
            ComponentId(*comp as u32),
            "modelcheck",
            label.clone(),
        );
    }
    tracer.instant(
        Time::from_ns(steps.len() as u64 + 1),
        ComponentId(comp_fabric(cfg) as u32),
        "violation",
        format!("INVARIANT VIOLATED: {what}"),
    );
    Counterexample {
        steps,
        trace: tracer.text_dump(&names),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(clusters: usize, addrs: usize) -> ResilientConfig {
        ResilientConfig {
            clusters,
            addrs,
            ops_per_cluster: 1,
            max_faults: 1,
            max_retries: 1,
            ..ResilientConfig::default()
        }
    }

    /// The fault-free nested config: one core with a private L1 behind
    /// each of two cluster copies, two ops per core.
    fn nested(ops: u8) -> ResilientConfig {
        ResilientConfig {
            l1_cores: 1,
            ops_per_cluster: ops,
            max_faults: 0,
            max_retries: 0,
            ..tiny(2, 1)
        }
    }

    #[test]
    fn design_rules_hold_exhaustively() {
        let r = check_resilient(&nested(2));
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        // Rule II ran, and every step conforms to the concrete tables.
        let recall = ("bridge", "SnoopRecall", "RecallDone");
        assert!(r.witnesses.contains(&recall), "{:?}", r.witnesses);
        let dcoh = c3_cxl::dcoh::dcoh_transition_table();
        let bridge = c3::bridge::bridge_transition_table(c3_protocol::states::ProtocolFamily::Mesi);
        let defects = crate::check_model_conformance(&r.witnesses, &[&dcoh, &bridge]);
        assert!(defects.is_empty(), "{defects:?}");
    }

    #[test]
    fn bigger_budget_still_clean() {
        let r = check_resilient(&nested(3));
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
    }

    #[test]
    fn dropping_rule2_is_caught() {
        // Fig. 4: acknowledging an invalidation before local copies are
        // reclaimed leaves an L1 copy under an invalid cluster copy.
        let r = check_resilient(&ResilientConfig {
            inject: Some(Injection::SkipRecallNesting),
            ..nested(2)
        });
        let (v, _) = r.violation.expect("checker failed to find the Fig. 4 race");
        assert!(matches!(v, RViolation::Inclusion(_)), "got {v}");
    }

    #[test]
    fn dropping_conflict_ordering_is_caught() {
        // Fig. 2: answering a racing snoop from the pre-fill state lets
        // the late fill install next to the new owner.
        let r = check_resilient(&ResilientConfig {
            inject: Some(Injection::SkipConflictStash),
            ..nested(2)
        });
        let (v, _) = r.violation.expect("checker failed to find the Fig. 2 race");
        assert!(matches!(v, RViolation::Swmr(_)), "got {v}");
    }

    #[test]
    fn retry_budgets_the_fifo_cannot_hold_are_rejected() {
        // Four retries stacked behind a lost grant plus a snoop response
        // would overflow the FIFO; three leave room for it.
        let cfg = |retries| ResilientConfig {
            ops_per_cluster: 2,
            max_retries: retries,
            ..tiny(2, 1)
        };
        assert_eq!(
            cfg(4).validate(),
            Err(ConfigError::RetriesOverflowFifo {
                retries: 4,
                addrs: 1
            })
        );
        let r = check_resilient(&cfg(3));
        assert!(r.violation.is_none() && !r.truncated);
    }

    #[test]
    fn single_cluster_is_clean() {
        let cfg = ResilientConfig {
            ops_per_cluster: 2,
            ..tiny(1, 1)
        };
        let r = check_resilient(&cfg);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        assert!(r.canonical_states > 1);
    }

    #[test]
    fn two_clusters_resilient_clean_and_reduced() {
        let cfg = tiny(2, 2);
        let r = check_resilient(&cfg);
        assert!(
            r.violation.is_none(),
            "unexpected violation: {}\n{}",
            r.violation.as_ref().unwrap().0,
            r.violation.as_ref().unwrap().1.trace
        );
        assert!(!r.truncated);
        assert!(
            r.reduction_factor > 1.5,
            "reduction factor {} too small",
            r.reduction_factor
        );
        assert!(!r.witnesses.is_empty());
    }
}
