//! Interconnect model.
//!
//! Reproduces the role gem5's Garnet plays in the paper: an abstract network
//! with configurable per-link latency, router delay, flit serialization and
//! (for the CXL fabric) unordered delivery. Table III of the paper gives the
//! parameters used by the evaluation:
//!
//! * intra-cluster: point-to-point, 72 B flits, 1-cycle routers, 10-cycle
//!   links (ordered);
//! * cross-cluster / CXL: star topology, 256 B flits, 1-cycle routers, 70 ns
//!   links (PCIe-like, **unordered** — which is what makes the BIConflict
//!   handshake necessary).
//!
//! Contention is modelled per link: a message occupies the link for its
//! serialization time, so bursts queue up (this produces the hot-line convoy
//! behaviour analysed in §VI-C of the paper).

use crate::component::ComponentId;
use crate::fault::{FaultDecision, FaultPlan};
use crate::metrics::MetricSample;
use crate::rng::SimRng;
use crate::time::{Delay, Time};

/// Links stored inline per route slot; longer routes spill to a `Vec`.
/// Table III topologies need 1 (point-to-point) or 2 (star: uplink +
/// downlink) hops, so 4 covers everything the builders wire today.
const INLINE_LINKS: usize = 4;

/// One cell of the route matrix. The inline arm keeps the common 1–2
/// hop routes in the matrix itself, so a `deliver` reads the route with
/// two index loads and zero pointer chases.
#[derive(Clone, Debug, Default)]
enum Route {
    /// No route wired (the matrix default).
    #[default]
    Unset,
    /// Up to [`INLINE_LINKS`] hops stored in place.
    Inline {
        len: u8,
        links: [LinkId; INLINE_LINKS],
    },
    /// Longer routes, heap-allocated (rare).
    Spill(Vec<LinkId>),
}

impl Route {
    fn from_links(links: Vec<LinkId>) -> Self {
        if links.len() <= INLINE_LINKS {
            let mut inline = [LinkId(0); INLINE_LINKS];
            inline[..links.len()].copy_from_slice(&links);
            Route::Inline {
                len: links.len() as u8,
                links: inline,
            }
        } else {
            Route::Spill(links)
        }
    }

    #[inline]
    fn as_slice(&self) -> Option<&[LinkId]> {
        match self {
            Route::Unset => None,
            Route::Inline { len, links } => Some(&links[..*len as usize]),
            Route::Spill(v) => Some(v),
        }
    }
}

/// Dense `src × dst` routing table indexed by [`ComponentId`].
///
/// Replaces a `HashMap<(ComponentId, ComponentId), Vec<LinkId>>`: route
/// lookup happens on **every** fabric message, and hashing the id pair
/// (SipHash under the default hasher) dominated the lookup. Component
/// ids are small, dense kernel-assigned indices, so a row-major matrix
/// turns the lookup into `slots[src * n + dst]`. The matrix grows
/// on demand when a route names an id beyond the current dimension
/// (components may be registered — and wired — after initial wiring).
#[derive(Debug, Default)]
struct RouteMatrix {
    /// Matrix dimension: ids `0..n` are representable.
    n: usize,
    /// Row-major `n × n` slots.
    slots: Vec<Route>,
}

impl RouteMatrix {
    /// Re-layout so ids up to `need - 1` are representable. Doubles the
    /// dimension so repeated wiring of increasing ids stays amortized.
    fn grow_to(&mut self, need: usize) {
        if need <= self.n {
            return;
        }
        let new_n = need.max(self.n * 2);
        let mut slots = Vec::with_capacity(new_n * new_n);
        slots.resize_with(new_n * new_n, Route::default);
        for src in 0..self.n {
            for dst in 0..self.n {
                slots[src * new_n + dst] = std::mem::take(&mut self.slots[src * self.n + dst]);
            }
        }
        self.n = new_n;
        self.slots = slots;
    }

    fn set(&mut self, src: ComponentId, dst: ComponentId, links: Vec<LinkId>) {
        self.grow_to(src.index().max(dst.index()) + 1);
        self.slots[src.index() * self.n + dst.index()] = Route::from_links(links);
    }

    #[inline]
    fn get(&self, src: ComponentId, dst: ComponentId) -> Option<&[LinkId]> {
        let (s, d) = (src.index(), dst.index());
        if s >= self.n || d >= self.n {
            return None;
        }
        self.slots[s * self.n + d].as_slice()
    }
}

/// Handle to a link created with [`Fabric::add_link`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// Static configuration of one link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Propagation latency of the wire.
    pub latency: Delay,
    /// Per-hop router pipeline delay.
    pub router: Delay,
    /// Flit size in bytes; messages serialize in whole flits.
    pub flit_bytes: u32,
    /// Time to put one flit on the wire (bandwidth).
    pub flit_time: Delay,
    /// If `true` the link preserves ordering (on-chip point-to-point).
    /// If `false`, a uniformly random jitter up to `jitter` is added to the
    /// arrival time, modelling an unordered switched fabric.
    pub ordered: bool,
    /// Maximum reordering jitter for unordered links.
    pub jitter: Delay,
}

impl LinkConfig {
    /// Intra-cluster on-chip link (Table III): 72 B flits, 1-cycle router,
    /// 10-cycle link at 2 GHz, ordered.
    pub fn intra_cluster() -> Self {
        LinkConfig {
            latency: Delay::from_cycles(10, 2_000),
            router: Delay::from_cycles(1, 2_000),
            flit_bytes: 72,
            flit_time: Delay::from_cycles(1, 2_000),
            ordered: true,
            jitter: Delay::ZERO,
        }
    }

    /// Cross-cluster CXL link (Table III): 256 B flits, 1-cycle router,
    /// 70 ns link latency, unordered (PCIe-like switched fabric). The
    /// jitter magnitude is small relative to the link latency — enough to
    /// reorder near-simultaneous messages (which is what the BIConflict
    /// handshake must cope with) without inflating the mean latency.
    pub fn cxl() -> Self {
        LinkConfig {
            latency: Delay::from_ns(70),
            router: Delay::from_cycles(1, 2_000),
            flit_bytes: 256,
            flit_time: Delay::from_cycles(1, 2_000),
            ordered: false,
            jitter: Delay::from_ns(4),
        }
    }
}

#[derive(Debug)]
struct Link {
    cfg: LinkConfig,
    /// Earliest time the link can begin serializing the next message.
    next_free: Time,
    /// For ordered links: arrival time of the previously sent message.
    last_arrival: Time,
    /// Messages carried (statistics).
    messages: u64,
    /// Bytes carried (statistics).
    bytes: u64,
    /// Messages that found the link busy and had to wait for
    /// serialization (contention statistics).
    queued: u64,
}

/// The system interconnect: a set of links plus a routing table.
///
/// # Examples
///
/// ```
/// use c3_sim::fabric::{Fabric, LinkConfig};
/// use c3_sim::component::ComponentId;
/// use c3_sim::rng::SimRng;
/// use c3_sim::time::Time;
///
/// let mut fabric = Fabric::new();
/// let l = fabric.add_link(LinkConfig::intra_cluster());
/// fabric.set_route(ComponentId(0), ComponentId(1), vec![l]);
/// let mut rng = SimRng::seed_from(1);
/// let arrival = fabric.deliver(ComponentId(0), ComponentId(1), 72, Time::ZERO, &mut rng);
/// assert!(arrival > Time::ZERO);
/// ```
#[derive(Debug, Default)]
pub struct Fabric {
    links: Vec<Link>,
    routes: RouteMatrix,
    fault: Option<FaultPlan>,
}

impl Fabric {
    /// An empty fabric with no links or routes.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Install a link and return its handle.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            cfg,
            next_free: Time::ZERO,
            last_arrival: Time::ZERO,
            messages: 0,
            bytes: 0,
            queued: 0,
        });
        id
    }

    /// Define the route (sequence of links) from `src` to `dst`,
    /// replacing any previously set route.
    pub fn set_route(&mut self, src: ComponentId, dst: ComponentId, links: Vec<LinkId>) {
        self.routes.set(src, dst, links);
    }

    /// Define symmetric routes between `a` and `b` over the same links.
    pub fn set_route_bidi(&mut self, a: ComponentId, b: ComponentId, links: Vec<LinkId>) {
        self.routes.set(a, b, links.clone());
        self.routes.set(b, a, links);
    }

    /// Whether a route exists from `src` to `dst`.
    pub fn has_route(&self, src: ComponentId, dst: ComponentId) -> bool {
        self.routes.get(src, dst).is_some()
    }

    /// Compute the arrival time of a `size`-byte message sent now, updating
    /// link occupancy. Called by the kernel on behalf of components.
    ///
    /// # Panics
    ///
    /// Panics if no route is configured from `src` to `dst`.
    pub fn deliver(
        &mut self,
        src: ComponentId,
        dst: ComponentId,
        size: u32,
        now: Time,
        rng: &mut SimRng,
    ) -> Time {
        // Borrow the route in place: `routes` and `links` are disjoint
        // fields, so indexing links mutably while iterating the route
        // needs no per-message clone of the `Vec<LinkId>`.
        let Fabric {
            ref mut links,
            ref routes,
            ..
        } = *self;
        let route = routes
            .get(src, dst)
            .unwrap_or_else(|| panic!("no route configured {src} -> {dst}"));
        let mut t = now;
        for &lid in route {
            let link = &mut links[lid.0 as usize];
            let flits = size.div_ceil(link.cfg.flit_bytes).max(1) as u64;
            let ser = link.cfg.flit_time.times(flits);
            if link.next_free > t {
                link.queued += 1;
            }
            let start = t.max(link.next_free);
            link.next_free = start + ser;
            link.messages += 1;
            link.bytes += size as u64;
            let mut arrival = start + ser + link.cfg.router + link.cfg.latency;
            if link.cfg.ordered {
                // FIFO channel: delivery order matches send order.
                arrival = arrival.max(link.last_arrival);
                link.last_arrival = arrival;
            } else if link.cfg.jitter > Delay::ZERO {
                // Inclusive bound: the configured maximum jitter is drawable.
                arrival += Delay::from_ps(rng.below(link.cfg.jitter.as_ps() + 1));
            }
            t = arrival;
        }
        t
    }

    /// Wire `nodes` point-to-point (Table III intra-cluster topology): one
    /// dedicated link per ordered pair, each configured as `cfg`.
    pub fn wire_p2p(&mut self, nodes: &[ComponentId], cfg: &LinkConfig) {
        for &a in nodes {
            for &b in nodes {
                if a != b {
                    let l = self.add_link(cfg.clone());
                    self.set_route(a, b, vec![l]);
                }
            }
        }
    }

    /// Wire `nodes` in a star (Table III cross-cluster topology): each node
    /// gets an uplink and a downlink to a central switch; a route is
    /// `uplink(src) → downlink(dst)` (two hops).
    pub fn wire_star(&mut self, nodes: &[ComponentId], cfg: &LinkConfig) {
        let ports: Vec<(LinkId, LinkId)> = nodes
            .iter()
            .map(|_| (self.add_link(cfg.clone()), self.add_link(cfg.clone())))
            .collect();
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                if i != j {
                    self.set_route(a, b, vec![ports[i].0, ports[j].1]);
                }
            }
        }
    }

    /// Number of links installed so far. Snapshot before and after a
    /// wiring step to learn which [`LinkId`] range that step created
    /// (ids are sequential), e.g. to target fault injection at just the
    /// CXL links.
    pub fn link_count(&self) -> u32 {
        self.links.len() as u32
    }

    /// Install a fault plan. Messages crossing faulted links are then
    /// subject to drop / duplicate / delay / poison decisions; without a
    /// plan the fabric behaves exactly as before (zero extra RNG draws).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Whether a fault plan is installed — the send path's one-branch
    /// guard for skipping fault bookkeeping entirely.
    #[inline]
    pub(crate) fn has_fault_plan(&self) -> bool {
        self.fault.is_some()
    }

    /// Mutable access to the installed fault plan (e.g. to script exact
    /// drops from a test).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// Decide the fate of a message about to cross `src → dst` at `now`.
    /// Fault-free (and draw-free) when no plan is installed or no route
    /// exists (direct-port sends bypass the fabric and are never faulted).
    pub(crate) fn decide_faults(
        &mut self,
        src: ComponentId,
        dst: ComponentId,
        now: Time,
    ) -> FaultDecision {
        let Some(plan) = self.fault.as_mut() else {
            return FaultDecision::CLEAR;
        };
        match self.routes.get(src, dst) {
            Some(route) => plan.decide(route, now),
            None => FaultDecision::CLEAR,
        }
    }

    /// Messages carried by a link so far.
    pub fn link_messages(&self, id: LinkId) -> u64 {
        self.links[id.0 as usize].messages
    }

    /// Bytes carried by a link so far.
    pub fn link_bytes(&self, id: LinkId) -> u64 {
        self.links[id.0 as usize].bytes
    }

    /// Messages that found a link busy (had to queue behind an earlier
    /// serialization) so far.
    pub fn link_queued(&self, id: LinkId) -> u64 {
        self.links[id.0 as usize].queued
    }

    /// Contribute per-link telemetry to one sample window: the
    /// serialization backlog (`next_free − now`, a gauge — how far the
    /// link is booked into the future), cumulative message/byte counts
    /// and the queued-behind-busy count. Fault-layer counters follow iff
    /// a plan is installed (the plan is installed before the run, so the
    /// schema is fixed for the run's lifetime).
    pub fn metrics_into(&self, out: &mut MetricSample, now: Time) {
        for (i, link) in self.links.iter().enumerate() {
            let backlog_ps = link.next_free.as_ps().saturating_sub(now.as_ps());
            out.gauge_at("link", i as u32, "backlog_ns", (backlog_ps / 1_000) as f64);
            out.counter_at("link", i as u32, "msgs", link.messages as f64);
            out.counter_at("link", i as u32, "bytes", link.bytes as f64);
            out.counter_at("link", i as u32, "queued", link.queued as f64);
        }
        if let Some(plan) = &self.fault {
            let s = plan.stats();
            out.counter("fault", "dropped", s.dropped as f64);
            out.counter("fault", "link_down", s.link_down as f64);
            out.counter("fault", "duplicated", s.duplicated as f64);
            out.counter("fault", "delayed", s.delayed as f64);
            out.counter("fault", "poisoned", s.poisoned as f64);
        }
    }

    /// For each link, the first `(src, dst)` route that carries it (route
    /// matrix scanned row-major — deterministic). `None` for links no
    /// route references. The system builders dedicate each link to one
    /// route (point-to-point) or one star port, so this names links well
    /// enough for "link dcoh→c1"-style attribution output.
    pub fn link_route_endpoints(&self) -> Vec<Option<(ComponentId, ComponentId)>> {
        let mut out = vec![None; self.links.len()];
        let n = self.routes.n;
        for s in 0..n {
            for d in 0..n {
                if let Some(route) = self.routes.slots[s * n + d].as_slice() {
                    for &lid in route {
                        let slot = &mut out[lid.0 as usize];
                        if slot.is_none() {
                            *slot = Some((ComponentId(s as u32), ComponentId(d as u32)));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (ComponentId, ComponentId) {
        (ComponentId(0), ComponentId(1))
    }

    #[test]
    fn ordered_link_preserves_fifo() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(1);
        let t1 = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        let t2 = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert!(t2 >= t1, "FIFO violated: {t1:?} then {t2:?}");
    }

    #[test]
    fn serialization_contends() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(1);
        // A huge message occupies the link...
        let big = f.deliver(a, b, 72 * 100, Time::ZERO, &mut rng);
        // ...so a subsequent small one is pushed out.
        let small = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert!(small > Time::ZERO + Delay::from_cycles(11, 2_000));
        assert!(big > Time::ZERO);
    }

    #[test]
    fn unordered_link_can_reorder() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::cxl());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(3);
        let mut reordered = false;
        let mut prev = Time::ZERO;
        for i in 0..200 {
            let t = f.deliver(a, b, 72, Time::from_ns(i), &mut rng);
            if t < prev {
                reordered = true;
            }
            prev = t;
        }
        assert!(reordered, "CXL fabric should exhibit reordering");
    }

    #[test]
    fn cxl_latency_dominates() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::cxl());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(4);
        let t = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert!(t >= Time::from_ns(70));
        assert!(t <= Time::from_ns(95));
    }

    #[test]
    fn jitter_bound_is_inclusive() {
        // The configured maximum jitter must actually be drawable: with a
        // 3 ps jitter there are exactly four possible offsets (0..=3) and
        // a few hundred draws cover all of them.
        let (a, b) = ids();
        let mut f = Fabric::new();
        let mut cfg = LinkConfig::cxl();
        cfg.jitter = Delay::from_ps(3);
        let base = cfg.latency + cfg.router + cfg.flit_time; // 72 B = 1 flit
        let l = f.add_link(cfg);
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(8);
        let mut seen = [false; 4];
        for i in 0..400u64 {
            // Space sends out so serialization never queues behind next_free.
            let now = Time::from_ns(i * 1_000);
            let t = f.deliver(a, b, 72, now, &mut rng);
            let jitter_ps = (t - (now + base)).as_ps();
            assert!(jitter_ps <= 3, "jitter {jitter_ps} ps above configured max");
            seen[jitter_ps as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "not every jitter offset drawn: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let mut rng = SimRng::seed_from(5);
        f.deliver(a, b, 72, Time::ZERO, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no route configured #0 -> #1")]
    fn missing_route_panic_names_endpoints() {
        // The exact pre-matrix message: wiring bugs keep the same
        // diagnostics across the HashMap → matrix swap.
        let (a, b) = ids();
        let mut f = Fabric::new();
        // Wire only the reverse direction so the matrix is non-empty.
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(b, a, vec![l]);
        let mut rng = SimRng::seed_from(5);
        f.deliver(a, b, 72, Time::ZERO, &mut rng);
    }

    #[test]
    fn set_route_bidi_overwrites_both_directions() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let slow = f.add_link(LinkConfig::cxl());
        let fast = f.add_link(LinkConfig::intra_cluster());
        f.set_route_bidi(a, b, vec![slow]);
        f.set_route_bidi(a, b, vec![fast]);
        let mut rng = SimRng::seed_from(9);
        // Both directions now ride the fast link: well under CXL's 70 ns.
        assert!(f.deliver(a, b, 72, Time::ZERO, &mut rng) < Time::from_ns(70));
        assert!(f.deliver(b, a, 72, Time::ZERO, &mut rng) < Time::from_ns(70));
        assert_eq!(f.link_messages(fast), 2);
        assert_eq!(f.link_messages(slow), 0);
    }

    #[test]
    fn routes_survive_matrix_growth() {
        // Wiring components registered after the initial wiring pass
        // grows the matrix; earlier routes must survive the re-layout.
        let mut f = Fabric::new();
        let l01 = f.add_link(LinkConfig::intra_cluster());
        f.set_route(ComponentId(0), ComponentId(1), vec![l01]);
        assert!(f.has_route(ComponentId(0), ComponentId(1)));
        // Ids far beyond the current dimension force several doublings.
        let lbig = f.add_link(LinkConfig::cxl());
        f.set_route_bidi(ComponentId(40), ComponentId(3), vec![lbig]);
        assert!(f.has_route(ComponentId(0), ComponentId(1)));
        assert!(f.has_route(ComponentId(40), ComponentId(3)));
        assert!(f.has_route(ComponentId(3), ComponentId(40)));
        assert!(!f.has_route(ComponentId(1), ComponentId(0)));
        assert!(!f.has_route(ComponentId(41), ComponentId(0)));
        let mut rng = SimRng::seed_from(11);
        let t = f.deliver(ComponentId(0), ComponentId(1), 72, Time::ZERO, &mut rng);
        assert!(t > Time::ZERO);
        assert_eq!(f.link_messages(l01), 1);
    }

    #[test]
    fn long_routes_spill_but_still_deliver() {
        // A route longer than the inline capacity exercises the spill arm.
        let (a, b) = ids();
        let mut f = Fabric::new();
        let hops: Vec<LinkId> = (0..6)
            .map(|_| f.add_link(LinkConfig::intra_cluster()))
            .collect();
        f.set_route(a, b, hops.clone());
        let mut rng = SimRng::seed_from(12);
        let t = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        // Six hops of ~6 ns each.
        assert!(t >= Time::from_ns(30));
        for &h in &hops {
            assert_eq!(f.link_messages(h), 1);
        }
    }

    #[test]
    fn stats_accumulate() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(6);
        f.deliver(a, b, 100, Time::ZERO, &mut rng);
        f.deliver(a, b, 100, Time::ZERO, &mut rng);
        assert_eq!(f.link_messages(l), 2);
        assert_eq!(f.link_bytes(l), 200);
    }

    #[test]
    fn queued_counts_contention() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(6);
        f.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert_eq!(f.link_queued(l), 0, "first message never queues");
        f.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert_eq!(f.link_queued(l), 1, "second message found the link busy");
    }

    #[test]
    fn link_route_endpoints_name_first_route() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        let unused = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let ends = f.link_route_endpoints();
        assert_eq!(ends[l.0 as usize], Some((a, b)));
        assert_eq!(ends[unused.0 as usize], None);
    }

    #[test]
    fn metrics_into_registers_per_link_series() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l]);
        let mut rng = SimRng::seed_from(6);
        f.deliver(a, b, 100, Time::ZERO, &mut rng);
        let mut hub = crate::metrics::MetricsHub::enabled(Delay::from_ns(10));
        hub.begin_window(Time::from_ns(10));
        hub.emit_builtin(&[]);
        f.metrics_into(hub.sample_mut(), Time::from_ns(10));
        hub.end_window();
        let names = hub.metric_names().to_vec();
        let col = |n: &str| names.iter().position(|x| x == n).unwrap();
        assert_eq!(hub.value(0, col("link.0.msgs")), 1.0);
        assert_eq!(hub.value(0, col("link.0.bytes")), 100.0);
        assert_eq!(hub.value(0, col("link.0.queued")), 0.0);
        // No fault plan installed: no fault.* series.
        assert!(!names.iter().any(|n| n.starts_with("fault.")));
    }

    #[test]
    fn multi_hop_accumulates_latency() {
        let (a, b) = ids();
        let mut f = Fabric::new();
        let l1 = f.add_link(LinkConfig::intra_cluster());
        let l2 = f.add_link(LinkConfig::intra_cluster());
        f.set_route(a, b, vec![l1, l2]);
        let mut single = Fabric::new();
        let sl = single.add_link(LinkConfig::intra_cluster());
        single.set_route(a, b, vec![sl]);
        let mut rng = SimRng::seed_from(7);
        let two = f.deliver(a, b, 72, Time::ZERO, &mut rng);
        let one = single.deliver(a, b, 72, Time::ZERO, &mut rng);
        assert!(two > one);
    }
}
