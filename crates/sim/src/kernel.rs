//! The discrete-event simulation kernel.
//!
//! Events are delivered in `(time, sequence)` order, so the simulation is
//! deterministic for a given seed: ties at the same picosecond resolve in
//! scheduling order.

use std::borrow::Cow;

use crate::component::{Component, ComponentId, Ctx, Message};
use crate::equeue::CalendarQueue;
use crate::fabric::Fabric;
use crate::metrics::{MetricSample, MetricsHub};
use crate::rng::SimRng;
use crate::stats::Report;
use crate::time::{Delay, Time};
use crate::trace::{PostMortem, Tracer};

#[derive(Debug)]
pub(crate) enum EventKind<M> {
    Deliver { src: ComponentId, msg: M },
    Wake { token: u64 },
}

/// The pending-event set: a calendar queue of `(destination, event)`
/// payloads keyed by `(time, seq)`. [`Ctx`] pushes into it directly —
/// there is no intermediate outbox, so scheduling a message is a single
/// bucket append.
pub(crate) type EventQueue<M> = CalendarQueue<(ComponentId, EventKind<M>)>;

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained and every component reported `done`.
    Completed,
    /// The event queue drained but some component still has pending work —
    /// a protocol deadlock.
    Deadlock,
    /// The configured event budget was exhausted (livelock guard).
    EventLimit,
    /// The configured time horizon was reached.
    TimeLimit,
}

/// The simulator: components + event queue + fabric + deterministic RNG.
///
/// # Examples
///
/// ```
/// use c3_sim::prelude::*;
///
/// #[derive(Debug, Clone)]
/// struct Tick(u32);
/// impl Message for Tick {}
///
/// struct Echo { left: u32 }
/// impl Component<Tick> for Echo {
///     fn name(&self) -> String { "echo".into() }
///     fn start(&mut self, ctx: &mut Ctx<'_, Tick>) {
///         ctx.wake_after(Delay::from_ns(1), 0);
///     }
///     fn on_wake(&mut self, _t: u64, ctx: &mut Ctx<'_, Tick>) {
///         if self.left > 0 {
///             self.left -= 1;
///             ctx.wake_after(Delay::from_ns(1), 0);
///         }
///     }
///     fn handle(&mut self, _m: Tick, _s: ComponentId, _c: &mut Ctx<'_, Tick>) {}
///     fn done(&self) -> bool { self.left == 0 }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulator::new(42);
/// sim.add_component(Box::new(Echo { left: 3 }));
/// assert_eq!(sim.run(), RunOutcome::Completed);
/// assert_eq!(sim.now(), Time::from_ns(4));
/// ```
pub struct Simulator<M: Message> {
    components: Vec<Box<dyn Component<M>>>,
    queue: EventQueue<M>,
    fabric: Fabric,
    rng: SimRng,
    now: Time,
    seq: u64,
    events_processed: u64,
    event_limit: u64,
    time_limit: Time,
    started: bool,
    tracer: Tracer,
    /// Sampled time-series telemetry; disabled (one dead branch per
    /// event) unless [`Simulator::set_metrics`] is called.
    metrics: MetricsHub,
    /// Component names cached by `start_components` so trace export and
    /// post-mortems don't re-collect a `Vec<String>` per call.
    names: Vec<String>,
    /// Wall-clock time spent inside `run()` (accumulated across calls).
    wall: std::time::Duration,
    /// When set, `report()` includes the wall-clock-derived
    /// `sim.events_per_sec` key. Off by default so same-seed reports
    /// stay byte-identical run to run.
    report_perf: bool,
}

impl<M: Message> Simulator<M> {
    /// New simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            components: Vec::new(),
            queue: CalendarQueue::new(),
            fabric: Fabric::new(),
            rng: SimRng::seed_from(seed),
            now: Time::ZERO,
            seq: 0,
            events_processed: 0,
            event_limit: u64::MAX,
            time_limit: Time::MAX,
            started: false,
            tracer: Tracer::disabled(),
            metrics: MetricsHub::disabled(),
            names: Vec::new(),
            wall: std::time::Duration::ZERO,
            report_perf: false,
        }
    }

    /// Register a component, returning its id.
    pub fn add_component(&mut self, c: Box<dyn Component<M>>) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(c);
        id
    }

    /// Mutable access to the interconnect for wiring links and routes.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Shared access to the interconnect.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Cap on the number of delivered events (livelock guard).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Cap on simulated time.
    pub fn set_time_limit(&mut self, limit: Time) {
        self.time_limit = limit;
    }

    /// Enable transaction tracing, keeping the newest `cap` records.
    /// Call before [`Simulator::run`]; tracing changes nothing about the
    /// simulation itself (timing, reports, and outcomes are identical
    /// with tracing on or off).
    pub fn set_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
    }

    /// Enable sampled time-series telemetry with the given sample
    /// interval of *simulated* time. Call before [`Simulator::run`].
    /// Telemetry changes nothing about the simulation itself — no events
    /// are injected (the kernel samples at event boundaries), component
    /// hooks take `&self`, and [`Simulator::report`] only gains keys
    /// under the `metrics.` prefix.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_metrics(&mut self, interval: Delay) {
        self.metrics = MetricsHub::enabled(interval);
    }

    /// The telemetry hub (series accessors and exporters).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Mutable telemetry hub access (lane names, window cap).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// Take one extra telemetry sample at the current simulated time —
    /// call after [`Simulator::run`] to capture the final state as a
    /// tail window (the event-boundary sampler only fires when a later
    /// event crosses a boundary). No-op when telemetry is disabled.
    pub fn sample_metrics_now(&mut self) {
        if !self.metrics.is_enabled() {
            return;
        }
        if !self.started {
            self.start_components();
        }
        let t = self.now;
        self.sample_metrics_at(t);
    }

    /// The transaction tracer (inspect buffered records, drop counts).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (e.g. for out-of-band instants in tests).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Component names indexed by [`ComponentId::index`] — the track
    /// labels for trace export.
    pub fn component_names(&self) -> Vec<String> {
        self.components.iter().map(|c| c.name()).collect()
    }

    /// The name table, borrowed from the `start_components` cache when
    /// it is current (the common case), re-collected only if components
    /// were added after the simulation started.
    fn names_cached(&self) -> Cow<'_, [String]> {
        if self.names.len() == self.components.len() {
            Cow::Borrowed(&self.names)
        } else {
            Cow::Owned(self.component_names())
        }
    }

    /// Export the buffered trace as Chrome trace-event JSON
    /// (Perfetto-loadable). See [`Tracer::chrome_json`]. When telemetry
    /// is enabled the sampled series is appended as counter tracks
    /// (`ph:"C"`), so occupancies and rates plot alongside the
    /// transaction spans; with telemetry disabled the output is
    /// byte-identical to the plain trace export.
    pub fn trace_json(&self) -> String {
        let mut json = self.tracer.chrome_json(&self.names_cached());
        if self.metrics.is_enabled() {
            let counters = self.metrics.chrome_counters();
            if !counters.is_empty() {
                let needs_comma = !json.ends_with("[]}");
                json.truncate(json.len() - 2);
                if needs_comma {
                    json.push(',');
                }
                json.push_str(&counters);
                json.push_str("]}");
            }
        }
        json
    }

    /// Export the buffered trace as a compact text dump.
    pub fn trace_text(&self) -> String {
        self.tracer.text_dump(&self.names_cached())
    }

    /// Capture a structured dump of every in-flight transaction —
    /// call after [`Simulator::run`] returns [`RunOutcome::Deadlock`] or
    /// [`RunOutcome::EventLimit`] to see what wedged and who it waits on.
    pub fn post_mortem(&self, outcome: RunOutcome) -> PostMortem {
        let mut txns = Vec::new();
        for (i, c) in self.components.iter().enumerate() {
            c.inflight(ComponentId(i as u32), &mut txns);
        }
        PostMortem {
            outcome: format!("{outcome:?}"),
            at: self.now,
            events: self.events_processed,
            txns,
            names: self.names_cached().into_owned(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Wall-clock time spent inside [`Simulator::run`] so far.
    pub fn wall_time(&self) -> std::time::Duration {
        self.wall
    }

    /// Kernel throughput: events delivered per wall-clock second across
    /// all `run()` calls so far (0.0 before the first event).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Opt in to the wall-clock-derived `sim.events_per_sec` key in
    /// [`Simulator::report`]. Off by default: wall-clock varies run to
    /// run, and default reports must stay byte-identical for a seed.
    pub fn set_perf_reporting(&mut self, on: bool) {
        self.report_perf = on;
    }

    /// Whether every component reports `done`.
    pub fn all_done(&self) -> bool {
        self.components.iter().all(|c| c.done())
    }

    /// Names of components that are not yet done (deadlock diagnostics).
    pub fn pending_components(&self) -> Vec<String> {
        self.components
            .iter()
            .filter(|c| !c.done())
            .map(|c| c.name())
            .collect()
    }

    fn start_components(&mut self) {
        for i in 0..self.components.len() {
            let id = ComponentId(i as u32);
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                fabric: &mut self.fabric,
                rng: &mut self.rng,
                queue: &mut self.queue,
                seq: &mut self.seq,
                tracer: &mut self.tracer,
            };
            self.components[i].start(&mut ctx);
        }
        self.names = self.component_names();
        self.started = true;
    }

    /// Run until the queue drains or a limit is hit.
    pub fn run(&mut self) -> RunOutcome {
        let t0 = std::time::Instant::now();
        let outcome = self.run_inner();
        self.wall += t0.elapsed();
        outcome
    }

    fn run_inner(&mut self) -> RunOutcome {
        if !self.started {
            self.start_components();
        }
        // Monomorphize the hot loop on "any observer enabled": the
        // metrics-off/tracing-off instantiation carries no per-event
        // observer branches at all (the PR-6 regression was exactly
        // those checks sitting in the fast path).
        if self.metrics.is_enabled() || self.tracer.is_enabled() {
            self.run_loop::<true>()
        } else {
            self.run_loop::<false>()
        }
    }

    fn run_loop<const OBS: bool>(&mut self) -> RunOutcome {
        loop {
            let Some((at, seq, (dst, kind))) = self.queue.pop() else {
                break if self.all_done() {
                    RunOutcome::Completed
                } else {
                    RunOutcome::Deadlock
                };
            };
            if at > self.time_limit {
                // Push back so a later run() with a higher limit can resume.
                self.queue.push(at, seq, (dst, kind));
                if OBS {
                    // Sample the windows between the last delivered event
                    // and the horizon — without this, boundaries in that
                    // tail gap were silently skipped on break and the
                    // series ended early.
                    let limit = self.time_limit;
                    self.take_metric_samples(limit);
                }
                break RunOutcome::TimeLimit;
            }
            if self.events_processed >= self.event_limit {
                self.queue.push(at, seq, (dst, kind));
                if OBS {
                    // Boundaries up to the not-yet-delivered event's
                    // timestamp: exactly the samples an uninterrupted run
                    // would take before processing it, so resume keeps
                    // the series byte-identical.
                    self.take_metric_samples(at);
                }
                break RunOutcome::EventLimit;
            }
            if OBS && at >= self.metrics.next_due() {
                // Sample every boundary the event's timestamp crossed,
                // *before* processing it: a window at boundary `t`
                // reflects exactly the state after all events < `t`.
                self.take_metric_samples(at);
            }
            self.now = at;
            self.events_processed += 1;
            let idx = dst.index();
            if OBS {
                if self.metrics.is_enabled() {
                    self.metrics.note_event(idx, at);
                    if let EventKind::Deliver { msg, .. } = &kind {
                        self.metrics.note_vnet(msg.vnet_lane());
                        if let Some(a) = msg.addr_hint() {
                            self.metrics.note_addr(a);
                        }
                    }
                }
                if self.tracer.is_enabled() {
                    if let EventKind::Deliver { src, msg } = &kind {
                        self.tracer.msg_deliver(self.now, *src, dst, msg);
                    }
                }
            }
            let mut ctx = Ctx {
                now: self.now,
                self_id: dst,
                fabric: &mut self.fabric,
                rng: &mut self.rng,
                queue: &mut self.queue,
                seq: &mut self.seq,
                tracer: &mut self.tracer,
            };
            match kind {
                EventKind::Deliver { src, msg } => self.components[idx].handle(msg, src, &mut ctx),
                EventKind::Wake { token } => self.components[idx].on_wake(token, &mut ctx),
            }
        }
    }

    /// Take one sample per boundary crossed by an event at `upto`.
    fn take_metric_samples(&mut self, upto: Time) {
        while self.metrics.next_due() <= upto {
            let t = self.metrics.next_due();
            self.metrics.advance();
            self.sample_metrics_at(t);
        }
    }

    /// One telemetry window at boundary `t`: component hooks, the hub's
    /// own attribution series, then the fabric. The order is fixed — the
    /// schema registered on the first sample must match every later one.
    fn sample_metrics_at(&mut self, t: Time) {
        let Simulator {
            ref components,
            ref fabric,
            ref mut metrics,
            ref names,
            ..
        } = *self;
        metrics.begin_window(t);
        for c in components {
            c.metrics(metrics.sample_mut());
        }
        metrics.emit_builtin(names);
        fabric.metrics_into(metrics.sample_mut(), t);
        metrics.end_window();
    }

    /// Collect statistics from every component into one report: each
    /// component's counter columns from one final telemetry sample, then
    /// what its [`Component::report`] adds beyond them.
    pub fn report(&self) -> Report {
        let mut out = Report::new();
        let mut sample = MetricSample::new();
        for c in &self.components {
            c.metrics(&mut sample);
            for (name, v) in sample.take_counters() {
                out.set(name, v);
            }
            c.report(&mut out);
        }
        out.set("sim.time_ns", self.now.as_ns() as f64);
        out.set("sim.events", self.events_processed as f64);
        if self.report_perf {
            out.set("sim.events_per_sec", self.events_per_sec());
        }
        // Fault counters only exist when a plan is installed, so
        // fault-free runs stay byte-identical to builds without the
        // fault layer.
        if let Some(plan) = self.fabric.fault_plan() {
            plan.report_into(&mut out);
        }
        // Telemetry keys live under a distinct `metrics.` prefix and only
        // exist when sampling is enabled, so metrics-off reports stay
        // byte-identical to builds without the telemetry layer.
        if self.metrics.is_enabled() {
            self.metrics.report_into(&mut out);
        }
        out
    }

    /// Inspect a component's concrete type after (or during) a run.
    pub fn component_as<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.components
            .get(id.index())?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::component_as`].
    pub fn component_as_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components
            .get_mut(id.index())?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Every component, indexed by [`ComponentId::index`].
    pub fn components(&self) -> impl Iterator<Item = &dyn Component<M>> {
        self.components.iter().map(|c| c.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Delay;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct Ball(u32);
    impl Message for Ball {}

    /// Ping-pong pair: A sends the ball to B, B back to A, `n` exchanges.
    struct Player {
        peer: Option<ComponentId>,
        hits: u32,
        budget: u32,
        serve: bool,
    }

    impl Component<Ball> for Player {
        fn name(&self) -> String {
            "player".into()
        }
        fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
            if self.serve {
                ctx.send(self.peer.unwrap(), Ball(0));
            }
        }
        fn handle(&mut self, msg: Ball, _src: ComponentId, ctx: &mut Ctx<'_, Ball>) {
            self.hits += 1;
            if msg.0 < self.budget {
                ctx.send(self.peer.unwrap(), Ball(msg.0 + 1));
            }
        }
        fn done(&self) -> bool {
            self.hits > 0 || self.serve
        }
        fn report(&self, out: &mut Report) {
            out.add("players.hits", self.hits as f64);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pingpong(budget: u32) -> (Simulator<Ball>, ComponentId, ComponentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_component(Box::new(Player {
            peer: None,
            hits: 0,
            budget,
            serve: true,
        }));
        let b = sim.add_component(Box::new(Player {
            peer: None,
            hits: 0,
            budget,
            serve: false,
        }));
        sim.component_as_mut::<Player>(a).unwrap().peer = Some(b);
        sim.component_as_mut::<Player>(b).unwrap().peer = Some(a);
        let link = sim
            .fabric_mut()
            .add_link(crate::fabric::LinkConfig::intra_cluster());
        sim.fabric_mut().set_route_bidi(a, b, vec![link]);
        (sim, a, b)
    }

    #[test]
    fn pingpong_completes() {
        let (mut sim, a, b) = pingpong(9);
        assert_eq!(sim.run(), RunOutcome::Completed);
        let ha = sim.component_as::<Player>(a).unwrap().hits;
        let hb = sim.component_as::<Player>(b).unwrap().hits;
        assert_eq!(ha + hb, 10);
        assert!(sim.now() > Time::ZERO);
    }

    #[test]
    fn report_aggregates() {
        let (mut sim, _, _) = pingpong(3);
        sim.run();
        let r = sim.report();
        assert_eq!(r.get("players.hits"), Some(4.0));
        assert!(r.get("sim.events").unwrap() >= 4.0);
    }

    #[test]
    fn event_limit_stops_run() {
        let (mut sim, _, _) = pingpong(1_000_000);
        sim.set_event_limit(10);
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn time_limit_stops_and_resumes() {
        let (mut sim, _, _) = pingpong(1_000_000);
        sim.set_time_limit(Time::from_ns(50));
        assert_eq!(sim.run(), RunOutcome::TimeLimit);
        let t1 = sim.now();
        sim.set_time_limit(Time::from_ns(100));
        assert_eq!(sim.run(), RunOutcome::TimeLimit);
        assert!(sim.now() >= t1);
    }

    #[test]
    fn determinism_across_runs() {
        let (mut s1, _, _) = pingpong(500);
        let (mut s2, _, _) = pingpong(500);
        s1.run();
        s2.run();
        assert_eq!(s1.now(), s2.now());
        assert_eq!(s1.events_processed(), s2.events_processed());
    }

    struct NeverDone;
    impl Component<Ball> for NeverDone {
        fn name(&self) -> String {
            "stuck".into()
        }
        fn handle(&mut self, _m: Ball, _s: ComponentId, _c: &mut Ctx<'_, Ball>) {}
        fn done(&self) -> bool {
            false
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn deadlock_detected() {
        let mut sim: Simulator<Ball> = Simulator::new(1);
        sim.add_component(Box::new(NeverDone));
        assert_eq!(sim.run(), RunOutcome::Deadlock);
        assert_eq!(sim.pending_components(), vec!["stuck".to_string()]);
    }

    #[test]
    fn tracing_records_sends_and_deliveries() {
        let (mut sim, _, _) = pingpong(3);
        sim.set_tracing(1024);
        assert_eq!(sim.run(), RunOutcome::Completed);
        let sends = sim
            .tracer()
            .records()
            .filter(|r| matches!(r.event, crate::trace::TraceEvent::MsgSend { .. }))
            .count();
        let delivers = sim
            .tracer()
            .records()
            .filter(|r| matches!(r.event, crate::trace::TraceEvent::MsgDeliver { .. }))
            .count();
        assert_eq!(sends, 4);
        assert_eq!(delivers, 4);
        let json = sim.trace_json();
        crate::trace::validate_json(&json).expect("valid trace JSON");
        assert!(sim.trace_text().contains("deliver"));
    }

    #[test]
    fn tracing_does_not_change_outcome_or_timing() {
        let (mut plain, _, _) = pingpong(200);
        let (mut traced, _, _) = pingpong(200);
        traced.set_tracing(64);
        assert_eq!(plain.run(), traced.run());
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.events_processed(), traced.events_processed());
        assert_eq!(plain.report(), traced.report());
    }

    /// A requester that sends one message into a black hole and reports
    /// the resulting stuck transaction via `inflight` — the minimal
    /// forced-deadlock shape.
    struct StuckRequester {
        hole: ComponentId,
        sent_at: Option<Time>,
    }
    impl Component<Ball> for StuckRequester {
        fn name(&self) -> String {
            "requester".into()
        }
        fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
            self.sent_at = Some(ctx.now);
            ctx.send_direct(self.hole, Ball(7), Delay::from_ns(1));
        }
        fn handle(&mut self, _m: Ball, _s: ComponentId, _c: &mut Ctx<'_, Ball>) {}
        fn done(&self) -> bool {
            false // the response never comes
        }
        fn inflight(&self, self_id: ComponentId, out: &mut Vec<crate::trace::InflightTxn>) {
            out.push(crate::trace::InflightTxn {
                component: self_id,
                addr: Some(0x40),
                kind: "request(pending)".into(),
                since: self.sent_at,
                waiting_on: Some(self.hole),
                detail: "no response received".into(),
            });
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Receives and drops everything, never answering.
    struct BlackHole {
        swallowed: u32,
    }
    impl Component<Ball> for BlackHole {
        fn name(&self) -> String {
            "blackhole".into()
        }
        fn handle(&mut self, _m: Ball, _s: ComponentId, _c: &mut Ctx<'_, Ball>) {
            self.swallowed += 1;
        }
        fn inflight(&self, self_id: ComponentId, out: &mut Vec<crate::trace::InflightTxn>) {
            if self.swallowed > 0 {
                out.push(crate::trace::InflightTxn {
                    component: self_id,
                    addr: Some(0x40),
                    kind: "swallowed request".into(),
                    since: None,
                    waiting_on: None,
                    detail: format!("{} message(s) never answered", self.swallowed),
                });
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn forced_deadlock_post_mortem_names_blocked_txn_and_holder() {
        let mut sim: Simulator<Ball> = Simulator::new(1);
        let hole = sim.add_component(Box::new(BlackHole { swallowed: 0 }));
        sim.add_component(Box::new(StuckRequester {
            hole,
            sent_at: None,
        }));
        assert_eq!(sim.run(), RunOutcome::Deadlock);
        let pm = sim.post_mortem(RunOutcome::Deadlock);
        assert_eq!(pm.txns.len(), 2);
        let oldest = pm.oldest().expect("has inflight txns");
        assert_eq!(oldest.kind, "request(pending)");
        assert_eq!(oldest.waiting_on, Some(hole));
        let chain = pm.wait_chain(oldest);
        assert_eq!(chain.len(), 2);
        let text = pm.to_string();
        assert!(text.contains("oldest blocked: requester request(pending) @0x40"));
        assert!(text.contains("waiting on blackhole"));
        assert!(text
            .contains("wait chain: requester [request(pending)] -> blackhole [swallowed request]"));
    }

    #[test]
    fn same_time_events_fifo_by_seq() {
        // Two wakes scheduled for the same instant must fire in schedule order.
        struct Recorder {
            order: Vec<u64>,
        }
        impl Component<Ball> for Recorder {
            fn name(&self) -> String {
                "rec".into()
            }
            fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
                ctx.wake_after(Delay::from_ns(5), 1);
                ctx.wake_after(Delay::from_ns(5), 2);
                ctx.wake_after(Delay::from_ns(5), 3);
            }
            fn on_wake(&mut self, token: u64, _ctx: &mut Ctx<'_, Ball>) {
                self.order.push(token);
            }
            fn handle(&mut self, _m: Ball, _s: ComponentId, _c: &mut Ctx<'_, Ball>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulator<Ball> = Simulator::new(1);
        let id = sim.add_component(Box::new(Recorder { order: vec![] }));
        sim.run();
        assert_eq!(
            sim.component_as::<Recorder>(id).unwrap().order,
            vec![1, 2, 3]
        );
    }

    #[test]
    fn metrics_sampling_does_not_change_outcome_timing_or_base_report() {
        let (mut plain, _, _) = pingpong(200);
        let (mut metered, _, _) = pingpong(200);
        metered.set_metrics(Delay::from_ns(5));
        assert_eq!(plain.run(), metered.run());
        assert_eq!(plain.now(), metered.now());
        assert_eq!(plain.events_processed(), metered.events_processed());
        // The metered report equals the plain one plus `metrics.` keys.
        let plain_report = plain.report();
        let metered_report = metered.report();
        let mut stripped = Report::new();
        let mut metric_keys = 0;
        for (k, v) in metered_report.iter() {
            if k.starts_with("metrics.") {
                metric_keys += 1;
            } else {
                stripped.set(k, v);
            }
        }
        assert!(metric_keys > 0);
        assert_eq!(stripped, plain_report);
    }

    #[test]
    fn metrics_sample_builtin_attribution_series() {
        let (mut sim, _, _) = pingpong(200);
        sim.set_metrics(Delay::from_ns(5));
        assert_eq!(sim.run(), RunOutcome::Completed);
        let hub = sim.metrics();
        assert!(hub.windows() > 10, "only {} windows", hub.windows());
        let names = hub.metric_names();
        assert!(names.iter().any(|n| n == "comp.player.events"));
        assert!(names.iter().any(|n| n == "comp.player.busy_ns"));
        assert!(names.iter().any(|n| n == "vnet.msgs.msgs"));
        assert!(names.iter().any(|n| n == "link.0.backlog_ns"));
        assert!(names.iter().any(|n| n == "link.0.msgs"));
        // Event counts accumulate to the kernel's total in the last window.
        let last = hub.windows() - 1;
        let col = |n: &str| names.iter().position(|x| x == n).unwrap();
        let counted: f64 = [col("comp.player.events")]
            .iter()
            .map(|&m| hub.value(last, m))
            .sum();
        // `comp.player.events` column exists once per component name, but
        // both components share the name "player": each got its own
        // column with debug-identical names; sum both via delta of total.
        assert!(counted > 0.0);
        assert_eq!(hub.events_observed(), sim.events_processed());
        // Same-seed reruns are byte-identical.
        let (mut again, _, _) = pingpong(200);
        again.set_metrics(Delay::from_ns(5));
        again.run();
        assert_eq!(sim.metrics().to_csv(), again.metrics().to_csv());
    }

    #[test]
    fn metrics_tail_sample_captures_final_state() {
        let (mut sim, _, _) = pingpong(3);
        sim.set_metrics(Delay::from_ns(1_000_000)); // beyond the run
        sim.run();
        assert_eq!(sim.metrics().windows(), 0);
        sim.sample_metrics_now();
        assert_eq!(sim.metrics().windows(), 1);
        assert_eq!(sim.metrics().window_time(0), sim.now());
    }

    #[test]
    fn trace_json_gains_counter_tracks_and_stays_valid() {
        let (mut sim, _, _) = pingpong(50);
        sim.set_tracing(1024);
        sim.set_metrics(Delay::from_ns(5));
        assert_eq!(sim.run(), RunOutcome::Completed);
        let json = sim.trace_json();
        crate::trace::validate_json(&json).expect("valid trace JSON with counters");
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"link.0.msgs\""));
    }

    /// A component whose events are separated by a huge stride, leaving a
    /// long quiet tail between the last delivered event and a limit.
    struct SlowTicker {
        left: u32,
    }
    impl Component<Ball> for SlowTicker {
        fn name(&self) -> String {
            "ticker".into()
        }
        fn start(&mut self, ctx: &mut Ctx<'_, Ball>) {
            ctx.wake_after(Delay::from_ns(1), 0);
        }
        fn on_wake(&mut self, _t: u64, ctx: &mut Ctx<'_, Ball>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.wake_after(Delay::from_ns(1_000_000), 0);
            }
        }
        fn handle(&mut self, _m: Ball, _s: ComponentId, _c: &mut Ctx<'_, Ball>) {}
        fn done(&self) -> bool {
            self.left == 0
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Regression: a `TimeLimit` stop must sample every metrics window
    /// due up to the limit, including windows in the quiet tail after the
    /// last delivered event (the per-event sampler never sees them).
    #[test]
    fn time_limit_samples_tail_windows_up_to_limit() {
        let mut sim: Simulator<Ball> = Simulator::new(1);
        sim.add_component(Box::new(SlowTicker { left: 5 }));
        sim.set_metrics(Delay::from_ns(10_000)); // 10 µs windows
        sim.set_time_limit(Time::from_ns(500_000)); // stop mid-gap at 500 µs
        assert_eq!(sim.run(), RunOutcome::TimeLimit);
        // Only the 1 ns wake was delivered; boundaries 10 µs..500 µs must
        // all have been sampled on the way out.
        assert_eq!(sim.metrics().windows(), 50);
        assert_eq!(sim.metrics().window_time(49), Time::from_ns(500_000));
    }

    /// Regression: an `EventLimit` stop likewise samples the windows due
    /// up to the next (undelivered) event's timestamp.
    #[test]
    fn event_limit_samples_tail_windows() {
        let mut sim: Simulator<Ball> = Simulator::new(1);
        sim.add_component(Box::new(SlowTicker { left: 5 }));
        sim.set_metrics(Delay::from_ns(300_000)); // 300 µs windows
        sim.set_event_limit(2); // wakes at 1 ns and ~1 ms; next at ~2 ms
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        // Boundaries at 300/600/900/1200/1500/1800 µs precede the pushed-
        // back ~2 ms event.
        assert_eq!(sim.metrics().windows(), 6);
        assert_eq!(sim.metrics().window_time(5), Time::from_ns(1_800_000));
    }

    /// An interrupted run (limit hit, limit raised, `run()` again) must
    /// be indistinguishable from an uninterrupted one: the pushed-back
    /// event resumes with its original `(time, seq)` position.
    #[test]
    fn resume_after_raised_limit_matches_uninterrupted_run() {
        let (mut base, _, _) = pingpong(2_000);
        base.set_metrics(Delay::from_ns(5));
        assert_eq!(base.run(), RunOutcome::Completed);

        let (mut timed, _, _) = pingpong(2_000);
        timed.set_metrics(Delay::from_ns(5));
        timed.set_time_limit(Time::from_ns(57));
        assert_eq!(timed.run(), RunOutcome::TimeLimit);
        timed.set_time_limit(Time::MAX);
        assert_eq!(timed.run(), RunOutcome::Completed);

        let (mut capped, _, _) = pingpong(2_000);
        capped.set_metrics(Delay::from_ns(5));
        capped.set_event_limit(123);
        assert_eq!(capped.run(), RunOutcome::EventLimit);
        capped.set_event_limit(u64::MAX);
        assert_eq!(capped.run(), RunOutcome::Completed);

        for (what, sim) in [("time-limited", &timed), ("event-limited", &capped)] {
            assert_eq!(base.now(), sim.now(), "{what}");
            assert_eq!(base.events_processed(), sim.events_processed(), "{what}");
            assert_eq!(base.report(), sim.report(), "{what}");
            assert_eq!(base.metrics().to_csv(), sim.metrics().to_csv(), "{what}");
        }
    }
}
