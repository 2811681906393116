//! Deterministic sampled time-series telemetry.
//!
//! A [`MetricsHub`] registered on the [`crate::kernel::Simulator`]
//! samples a fixed set of gauges and cumulative counters every
//! `sample_interval` of **simulated** time. The schema is the one each
//! component declares in [`crate::component::Component::metrics`]; the
//! end-of-run report is that schema's final sample (its counter columns,
//! see [`crate::kernel::Simulator::report`]), so a counter is declared
//! once and reads the same in both views.
//! Wall-clock never enters the picture (the determinism lint in
//! `tests/lint.rs` applies to this file like any other), so same-seed
//! runs produce byte-identical timeseries.
//!
//! # Sampling model
//!
//! The kernel checks, before delivering each event, whether the event's
//! timestamp has crossed the next sample boundary; if so it takes one
//! sample per crossed boundary *before* processing the event. A sample
//! at boundary `t` therefore reflects exactly the state after all events
//! strictly before `t` — a pure function of the event stream, independent
//! of host, thread count, or wall-clock. No events are injected to drive
//! sampling, so `sim.events` and all component behaviour are identical
//! with telemetry on or off.
//!
//! # Allocation-bounded sampling
//!
//! Metric names are registered once, on the first sample: every
//! subsequent sample writes values by column index into a reused row
//! buffer ([`MetricSample`]), so the steady-state cost per sample is one
//! `Vec` extend (amortized) and zero name formatting. Components must
//! emit the same metrics in the same order on every call — debug builds
//! assert the schema, release builds only check the column count.
//!
//! # Bounded storage
//!
//! The series is capped at [`MetricsHub::set_max_windows`] windows; when
//! the cap is exceeded the hub *decimates*: it keeps every second window
//! (the later of each pair) and doubles the sampling interval. Gauges
//! subsample and counters are cumulative, so decimation loses resolution
//! but never correctness. This bounds memory for arbitrarily long runs
//! without knowing the run length in advance.

use crate::hash::FxHashMap;
use crate::stats::Report;
use crate::time::{Delay, Time};
use crate::trace::json_str;

/// Hot-address entries kept per window.
pub const TOPK: usize = 8;

/// Bounded-size capacity of the hot-address sketch.
const SKETCH_CAP: usize = 64;

/// How a sampled metric should be interpreted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// An instantaneous occupancy (queue depth, MSHRs in use) — plotted
    /// as-is.
    Gauge,
    /// A cumulative, non-decreasing count — consumers difference
    /// consecutive windows to get a rate.
    Counter,
}

/// The reused per-sample row buffer handed to
/// [`crate::component::Component::metrics`].
///
/// On the first sample of a run each `gauge`/`counter` call registers a
/// metric (allocating its name once); on every later sample the same
/// calls write values by column index into the reused row. The emission
/// set and order must therefore be identical on every call.
#[derive(Debug, Default)]
pub struct MetricSample {
    registering: bool,
    names: Vec<String>,
    kinds: Vec<MetricKind>,
    row: Vec<f64>,
    cursor: usize,
}

impl MetricSample {
    fn emit_with(&mut self, kind: MetricKind, v: f64, name: impl FnOnce() -> String) {
        if self.registering {
            self.names.push(name());
            self.kinds.push(kind);
            self.row.push(v);
            self.cursor += 1;
            return;
        }
        assert!(
            self.cursor < self.names.len(),
            "telemetry schema grew after registration (column {} of {}): \
             components must emit the same metrics on every sample",
            self.cursor,
            self.names.len()
        );
        // The kind check is allocation-free (the name closure is never
        // evaluated after registration, even in debug builds, so the
        // steady-state alloc budget holds in both profiles); a reordered
        // schema shows up as a kind mismatch or a count mismatch.
        debug_assert_eq!(
            self.kinds[self.cursor], kind,
            "telemetry schema drift at column {} ({})",
            self.cursor, self.names[self.cursor]
        );
        let _ = name;
        self.row[self.cursor] = v;
        self.cursor += 1;
    }

    /// Record the gauge `group.name` (e.g. `"c0.l1.0.mshr"`).
    pub fn gauge(&mut self, group: &str, name: &str, v: f64) {
        self.emit_with(MetricKind::Gauge, v, || format!("{group}.{name}"));
    }

    /// Record the cumulative counter `group.name`.
    pub fn counter(&mut self, group: &str, name: &str, v: f64) {
        self.emit_with(MetricKind::Counter, v, || format!("{group}.{name}"));
    }

    /// Record the gauge `group.idx.name` (e.g. `"link.3.backlog_ns"`) —
    /// the name is only formatted during registration, so per-sample
    /// emission stays allocation-free.
    pub fn gauge_at(&mut self, group: &str, idx: u32, name: &str, v: f64) {
        self.emit_with(MetricKind::Gauge, v, || format!("{group}.{idx}.{name}"));
    }

    /// Record the cumulative counter `group.idx.name`.
    pub fn counter_at(&mut self, group: &str, idx: u32, name: &str, v: f64) {
        self.emit_with(MetricKind::Counter, v, || format!("{group}.{idx}.{name}"));
    }

    /// A registering sample, detached from any hub: every call appends a
    /// column. [`crate::kernel::Simulator::report`] fills one with each
    /// component's final sample.
    pub fn new() -> Self {
        MetricSample {
            registering: true,
            ..MetricSample::default()
        }
    }

    /// Take the counter columns as `(name, value)`, in emission order,
    /// and empty the sample (gauges are dropped; the buffers keep their
    /// capacity for the next component).
    pub fn take_counters(&mut self) -> impl Iterator<Item = (String, f64)> + '_ {
        self.cursor = 0;
        self.names
            .drain(..)
            .zip(self.kinds.drain(..))
            .zip(self.row.drain(..))
            .filter(|&((_, k), _)| k == MetricKind::Counter)
            .map(|((n, _), v)| (n, v))
    }
}

/// Space-saving heavy-hitter sketch over line addresses: bounded size,
/// deterministic. When full, the entry with the smallest `(count, addr)`
/// is evicted and the newcomer inherits its count + 1 (the classic
/// space-saving overestimate). Ties break on the *address*, so the
/// result is independent of map iteration order.
#[derive(Debug)]
struct AddrSketch {
    counts: FxHashMap<u64, u64>,
    cap: usize,
}

impl AddrSketch {
    fn new(cap: usize) -> Self {
        AddrSketch {
            counts: FxHashMap::default(),
            cap,
        }
    }

    fn note(&mut self, addr: u64) {
        if let Some(c) = self.counts.get_mut(&addr) {
            *c += 1;
            return;
        }
        if self.counts.len() < self.cap {
            self.counts.insert(addr, 1);
            return;
        }
        let (&evict, &count) = self
            .counts
            .iter()
            .min_by_key(|&(&a, &c)| (c, a))
            .expect("sketch non-empty at capacity");
        self.counts.remove(&evict);
        self.counts.insert(addr, count + 1);
    }

    /// Drain the top `k` entries by `(count desc, addr asc)` into `out`,
    /// then reset the sketch (capacity is retained).
    fn drain_top(&mut self, k: usize, scratch: &mut Vec<(u64, u64)>, out: &mut Vec<(u64, u64)>) {
        scratch.clear();
        scratch.extend(self.counts.iter().map(|(&a, &c)| (a, c)));
        scratch.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        for i in 0..k {
            out.push(scratch.get(i).copied().unwrap_or((0, 0)));
        }
        self.counts.clear();
    }
}

/// The time-series telemetry hub owned by the simulator.
///
/// Disabled by default ([`MetricsHub::disabled`]) — a disabled hub costs
/// one branch per event and changes nothing about reports or behaviour.
/// Enable with [`crate::kernel::Simulator::set_metrics`].
#[derive(Debug)]
pub struct MetricsHub {
    on: bool,
    interval: Delay,
    next: Time,
    max_windows: usize,
    /// How many decimation passes have halved the resolution.
    decimations: u32,
    sample: MetricSample,
    /// Column count, fixed after the first window.
    n_metrics: usize,
    registered: bool,
    current_t: Time,
    /// Sample timestamps, one per window.
    times: Vec<Time>,
    /// Row-major `times.len() × n_metrics` sampled values.
    values: Vec<f64>,
    // ---- per-event attribution (cumulative) ----
    comp_events: Vec<u64>,
    comp_busy_ps: Vec<u64>,
    last_event_ps: u64,
    events_observed: u64,
    vnet_lanes: Vec<&'static str>,
    vnet_counts: Vec<u64>,
    // ---- hot-address sketch ----
    sketch: AddrSketch,
    /// `TOPK` `(addr, count)` entries per window; `count == 0` pads.
    topk: Vec<(u64, u64)>,
    scratch: Vec<(u64, u64)>,
}

impl MetricsHub {
    /// A hub that never samples (the simulator default).
    pub fn disabled() -> Self {
        MetricsHub {
            on: false,
            interval: Delay::ZERO,
            next: Time::MAX,
            max_windows: 4096,
            decimations: 0,
            sample: MetricSample::default(),
            n_metrics: 0,
            registered: false,
            current_t: Time::ZERO,
            times: Vec::new(),
            values: Vec::new(),
            comp_events: Vec::new(),
            comp_busy_ps: Vec::new(),
            last_event_ps: 0,
            events_observed: 0,
            vnet_lanes: vec!["msgs"],
            vnet_counts: vec![0],
            sketch: AddrSketch::new(SKETCH_CAP),
            topk: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// A hub sampling every `interval` of simulated time (first sample at
    /// `interval`, not at 0).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enabled(interval: Delay) -> Self {
        assert!(interval > Delay::ZERO, "sample interval must be positive");
        let mut hub = MetricsHub::disabled();
        hub.on = true;
        hub.interval = interval;
        hub.next = Time::ZERO + interval;
        hub
    }

    /// Whether sampling is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// The current sampling interval (doubles on each decimation).
    pub fn interval(&self) -> Delay {
        self.interval
    }

    /// Name the virtual-network lanes counted by
    /// [`crate::component::Message::vnet_lane`]. Call before the first
    /// sample; the default is a single `"msgs"` lane counting everything.
    pub fn set_vnet_lanes(&mut self, lanes: Vec<&'static str>) {
        assert!(!self.registered, "vnet lanes must be set before sampling");
        assert!(!lanes.is_empty(), "at least one vnet lane");
        self.vnet_counts = vec![0; lanes.len()];
        self.vnet_lanes = lanes;
    }

    /// Cap the stored window count; exceeding it decimates (keep every
    /// second window, double the interval). Clamped to at least 8 and
    /// rounded down to even.
    pub fn set_max_windows(&mut self, cap: usize) {
        self.max_windows = cap.max(8) & !1;
    }

    /// How many decimation passes have run (each halves resolution).
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    // ---- kernel-side hooks -------------------------------------------

    /// Next sample boundary (`Time::MAX` when disabled) — the kernel's
    /// one-branch-per-event guard.
    #[inline]
    pub(crate) fn next_due(&self) -> Time {
        self.next
    }

    /// Advance the boundary past the one just sampled.
    pub(crate) fn advance(&mut self) {
        self.next = Time::from_ps(self.next.as_ps().saturating_add(self.interval.as_ps()));
    }

    /// Note one delivered event: destination component and timestamp.
    /// The gap since the previous event is attributed to `idx` as
    /// simulated-time-in-handler (event timestamps only — deterministic).
    pub(crate) fn note_event(&mut self, idx: usize, at: Time) {
        if idx >= self.comp_events.len() {
            self.comp_events.resize(idx + 1, 0);
            self.comp_busy_ps.resize(idx + 1, 0);
        }
        self.comp_events[idx] += 1;
        let ps = at.as_ps();
        self.comp_busy_ps[idx] += ps.saturating_sub(self.last_event_ps);
        self.last_event_ps = ps;
        self.events_observed += 1;
    }

    /// Count one delivered message on a vnet lane (clamped to the
    /// configured lane set).
    pub(crate) fn note_vnet(&mut self, lane: usize) {
        let i = lane.min(self.vnet_counts.len() - 1);
        self.vnet_counts[i] += 1;
    }

    /// Feed one line address into the current window's hot-address sketch.
    pub(crate) fn note_addr(&mut self, addr: u64) {
        self.sketch.note(addr);
    }

    /// Open the sample row for the window at boundary `t`.
    pub(crate) fn begin_window(&mut self, t: Time) {
        self.current_t = t;
        self.sample.registering = !self.registered;
        self.sample.cursor = 0;
    }

    /// The row buffer components and the fabric write into.
    pub(crate) fn sample_mut(&mut self) -> &mut MetricSample {
        &mut self.sample
    }

    /// Emit the hub's own metrics: per-component event counts and
    /// attributed busy time (`comp.<name>.*`), and per-lane message
    /// counts (`vnet.<lane>.msgs`). `names` is the kernel's component
    /// name table.
    pub(crate) fn emit_builtin(&mut self, names: &[String]) {
        let sample = &mut self.sample;
        for (i, n) in names.iter().enumerate() {
            let events = self.comp_events.get(i).copied().unwrap_or(0);
            let busy = self.comp_busy_ps.get(i).copied().unwrap_or(0);
            sample.emit_with(MetricKind::Counter, events as f64, || {
                format!("comp.{n}.events")
            });
            sample.emit_with(MetricKind::Counter, (busy / 1_000) as f64, || {
                format!("comp.{n}.busy_ns")
            });
        }
        for (lane, &count) in self.vnet_lanes.iter().zip(&self.vnet_counts) {
            sample.emit_with(MetricKind::Counter, count as f64, || {
                format!("vnet.{lane}.msgs")
            });
        }
    }

    /// Close the window: commit the row, snapshot the hot-address top-k,
    /// and decimate if over the cap.
    pub(crate) fn end_window(&mut self) {
        if !self.registered {
            self.registered = true;
            self.n_metrics = self.sample.names.len();
        } else {
            assert_eq!(
                self.sample.cursor, self.n_metrics,
                "telemetry schema shrank after registration"
            );
        }
        self.times.push(self.current_t);
        self.values.extend_from_slice(&self.sample.row);
        self.sketch
            .drain_top(TOPK, &mut self.scratch, &mut self.topk);
        if self.times.len() > self.max_windows {
            self.decimate();
        }
    }

    /// Keep every second window (the later of each pair) and double the
    /// interval. Counters are cumulative and gauges are point samples, so
    /// dropping rows loses resolution, never correctness.
    fn decimate(&mut self) {
        let n = self.times.len();
        let m = self.n_metrics;
        let mut w = 0;
        for r in (1..n).step_by(2) {
            self.times[w] = self.times[r];
            self.values.copy_within(r * m..(r + 1) * m, w * m);
            self.topk.copy_within(r * TOPK..(r + 1) * TOPK, w * TOPK);
            w += 1;
        }
        self.times.truncate(w);
        self.values.truncate(w * m);
        self.topk.truncate(w * TOPK);
        self.interval = self.interval.times(2);
        self.decimations += 1;
    }

    // ---- read side ----------------------------------------------------

    /// Number of recorded windows.
    pub fn windows(&self) -> usize {
        self.times.len()
    }

    /// Sample timestamp of window `w`.
    pub fn window_time(&self, w: usize) -> Time {
        self.times[w]
    }

    /// Registered metric names, in column order.
    pub fn metric_names(&self) -> &[String] {
        &self.sample.names
    }

    /// Kind of metric column `m`.
    pub fn metric_kind(&self, m: usize) -> MetricKind {
        self.sample.kinds[m]
    }

    /// Sampled value of column `m` in window `w`.
    pub fn value(&self, w: usize, m: usize) -> f64 {
        self.values[w * self.n_metrics + m]
    }

    /// Per-window value: gauges as-is, counters differenced against the
    /// previous window (the first window differences against zero).
    pub fn delta(&self, w: usize, m: usize) -> f64 {
        match self.sample.kinds[m] {
            MetricKind::Gauge => self.value(w, m),
            MetricKind::Counter => {
                let cur = self.value(w, m);
                if w == 0 {
                    cur
                } else {
                    cur - self.value(w - 1, m)
                }
            }
        }
    }

    /// The window's hottest addresses as `(addr, count)`, hottest first
    /// (up to [`TOPK`]; padding entries are trimmed).
    pub fn top_addrs(&self, w: usize) -> &[(u64, u64)] {
        let s = &self.topk[w * TOPK..(w + 1) * TOPK];
        let n = s.iter().position(|&(_, c)| c == 0).unwrap_or(TOPK);
        &s[..n]
    }

    /// Total events observed while enabled.
    pub fn events_observed(&self) -> u64 {
        self.events_observed
    }

    // ---- exporters ----------------------------------------------------

    /// Render the series as CSV: `window,t_ns,<metric...>` header, one
    /// row per window. Deterministic for a seed.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(32 * self.times.len() * (self.n_metrics + 2));
        out.push_str("window,t_ns");
        for n in self.metric_names() {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for w in 0..self.times.len() {
            let _ = write!(out, "{w},{}", self.times[w].as_ns());
            for m in 0..self.n_metrics {
                let _ = write!(out, ",{}", self.value(w, m));
            }
            out.push('\n');
        }
        out
    }

    /// Render the series (plus per-window hot addresses) as a compact
    /// JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"interval_ns\":");
        let _ = write!(out, "{}", self.interval.as_ns());
        out.push_str(",\"metrics\":[");
        for (i, n) in self.metric_names().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match self.sample.kinds[i] {
                MetricKind::Gauge => "gauge",
                MetricKind::Counter => "counter",
            };
            let _ = write!(out, "{{\"name\":{},\"kind\":\"{kind}\"}}", json_str(n));
        }
        out.push_str("],\"windows\":[");
        for w in 0..self.times.len() {
            if w > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ns\":{},\"top_addrs\":[", self.times[w].as_ns());
            for (i, &(a, c)) in self.top_addrs(w).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{a},{c}]");
            }
            out.push_str("],\"values\":[");
            for m in 0..self.n_metrics {
                if m > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", self.value(w, m));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render the series as Chrome trace-event counter records
    /// (`ph:"C"`), comma-separated, for splicing into the trace export so
    /// counters plot alongside the transaction spans in Perfetto.
    /// Counters are emitted as per-window deltas (rates plot better than
    /// monotone ramps); gauges as-is. Empty when no windows were taken.
    pub fn chrome_counters(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for w in 0..self.times.len() {
            let ts = self.times[w].as_ps() as f64 / 1e6; // ps -> µs
            for m in 0..self.n_metrics {
                if !out.is_empty() {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"name\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    json_str(&self.sample.names[m]),
                    self.delta(w, m)
                );
            }
        }
        out
    }

    /// Contribute summary keys under the `metrics.` prefix. Only called
    /// when the hub is enabled, so disabled runs keep byte-identical
    /// reports.
    pub fn report_into(&self, out: &mut Report) {
        out.set("metrics.windows", self.times.len() as f64);
        out.set("metrics.interval_ns", self.interval.as_ns() as f64);
        out.set("metrics.series", self.n_metrics as f64);
        out.set("metrics.events_observed", self.events_observed as f64);
        out.set("metrics.decimations", self.decimations as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a hub through `n` windows of two metrics: a sawtooth gauge
    /// and a cumulative counter.
    fn synthetic(n: usize) -> MetricsHub {
        let mut hub = MetricsHub::enabled(Delay::from_ns(10));
        for w in 0..n {
            let t = Time::from_ns(10 * (w as u64 + 1));
            hub.begin_window(t);
            hub.sample_mut().gauge("q", "depth", (w % 4) as f64);
            hub.sample_mut()
                .counter("q", "msgs", (w as f64 + 1.0) * 3.0);
            hub.emit_builtin(&[]);
            hub.end_window();
        }
        hub
    }

    #[test]
    fn registration_then_reuse() {
        let hub = synthetic(5);
        assert_eq!(hub.windows(), 5);
        assert_eq!(hub.metric_names(), &["q.depth", "q.msgs", "vnet.msgs.msgs"]);
        assert_eq!(hub.metric_kind(0), MetricKind::Gauge);
        assert_eq!(hub.metric_kind(1), MetricKind::Counter);
        assert_eq!(hub.value(3, 0), 3.0);
        assert_eq!(hub.value(3, 1), 12.0);
    }

    #[test]
    fn counter_deltas_difference_previous_window() {
        let hub = synthetic(4);
        assert_eq!(hub.delta(0, 1), 3.0);
        assert_eq!(hub.delta(2, 1), 3.0);
        // Gauges pass through.
        assert_eq!(hub.delta(2, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "schema")]
    fn schema_growth_is_rejected() {
        let mut hub = MetricsHub::enabled(Delay::from_ns(10));
        hub.begin_window(Time::from_ns(10));
        hub.sample_mut().gauge("a", "x", 1.0);
        hub.emit_builtin(&[]);
        hub.end_window();
        hub.begin_window(Time::from_ns(20));
        hub.sample_mut().gauge("a", "x", 1.0);
        hub.sample_mut().gauge("a", "y", 2.0); // new column: bug
                                               // Debug builds catch the kind drift above (gauge where the
                                               // builtin vnet counter was registered); release builds catch
                                               // the count overflow here.
        hub.emit_builtin(&[]);
    }

    #[test]
    fn decimation_halves_windows_and_doubles_interval() {
        let mut hub = synthetic(0);
        hub.set_max_windows(8);
        for w in 0..9 {
            let t = Time::from_ns(10 * (w as u64 + 1));
            hub.begin_window(t);
            hub.sample_mut().gauge("q", "depth", w as f64);
            hub.sample_mut()
                .counter("q", "msgs", (w as f64 + 1.0) * 3.0);
            hub.emit_builtin(&[]);
            hub.end_window();
        }
        // 9 windows tripped the cap of 8: kept the later of each pair.
        assert_eq!(hub.windows(), 4);
        assert_eq!(hub.decimations(), 1);
        assert_eq!(hub.interval(), Delay::from_ns(20));
        assert_eq!(hub.window_time(0), Time::from_ns(20));
        assert_eq!(hub.window_time(3), Time::from_ns(80));
        // Cumulative counters survive decimation exactly.
        assert_eq!(hub.value(3, 1), 24.0);
    }

    #[test]
    fn csv_shape_and_determinism() {
        let a = synthetic(3).to_csv();
        let b = synthetic(3).to_csv();
        assert_eq!(a, b);
        let mut lines = a.lines();
        assert_eq!(
            lines.next().unwrap(),
            "window,t_ns,q.depth,q.msgs,vnet.msgs.msgs"
        );
        assert_eq!(lines.next().unwrap(), "0,10,0,3,0");
        assert_eq!(a.lines().count(), 4);
    }

    #[test]
    fn json_export_is_valid() {
        let hub = synthetic(3);
        crate::trace::validate_json(&hub.to_json()).expect("valid metrics JSON");
    }

    #[test]
    fn sketch_counts_and_ties_break_by_address() {
        let mut s = AddrSketch::new(4);
        for _ in 0..3 {
            s.note(0x80);
        }
        s.note(0x40);
        s.note(0x200); // same count as 0x40: lower addr wins the tie
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        s.drain_top(4, &mut scratch, &mut out);
        assert_eq!(out[0], (0x80, 3));
        assert_eq!(out[1], (0x40, 1));
        assert_eq!(out[2], (0x200, 1));
        assert_eq!(out[3], (0, 0));
    }

    #[test]
    fn sketch_eviction_is_bounded_and_deterministic() {
        let mut s = AddrSketch::new(2);
        s.note(1);
        s.note(2);
        s.note(3); // evicts min (count, addr) = (1, addr 1), inherits 2
        assert!(s.counts.len() <= 2);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        s.drain_top(2, &mut scratch, &mut out);
        assert_eq!(out[0], (3, 2));
        assert_eq!(out[1], (2, 1));
    }

    #[test]
    fn top_addrs_trims_padding() {
        let mut hub = MetricsHub::enabled(Delay::from_ns(10));
        hub.note_addr(0x40);
        hub.note_addr(0x40);
        hub.note_addr(0x80);
        hub.begin_window(Time::from_ns(10));
        hub.emit_builtin(&[]);
        hub.end_window();
        assert_eq!(hub.top_addrs(0), &[(0x40, 2), (0x80, 1)]);
    }

    #[test]
    fn attribution_tracks_events_and_busy_gaps() {
        let mut hub = MetricsHub::enabled(Delay::from_ns(10));
        hub.note_event(0, Time::from_ns(2));
        hub.note_event(1, Time::from_ns(5));
        hub.note_event(0, Time::from_ns(9));
        hub.begin_window(Time::from_ns(10));
        hub.emit_builtin(&["a".into(), "b".into()]);
        hub.end_window();
        let names = hub.metric_names().to_vec();
        let col = |n: &str| names.iter().position(|x| x == n).unwrap();
        assert_eq!(hub.value(0, col("comp.a.events")), 2.0);
        assert_eq!(hub.value(0, col("comp.b.events")), 1.0);
        assert_eq!(hub.value(0, col("comp.a.busy_ns")), 6.0); // 2 + 4
        assert_eq!(hub.value(0, col("comp.b.busy_ns")), 3.0);
        assert_eq!(hub.events_observed(), 3);
    }

    #[test]
    fn chrome_counters_emit_deltas() {
        let hub = synthetic(2);
        let c = hub.chrome_counters();
        // Wrap like the kernel does and validate.
        let json = format!("{{\"traceEvents\":[{c}]}}");
        crate::trace::validate_json(&json).expect("valid counter JSON");
        assert!(c.contains("\"ph\":\"C\""));
        assert!(c.contains("\"name\":\"q.depth\""));
        // Counter column emits the per-window delta (3 each window).
        assert_eq!(c.matches("\"value\":3}").count(), 2);
    }

    #[test]
    fn vnet_lane_counts_clamp() {
        let mut hub = MetricsHub::enabled(Delay::from_ns(10));
        hub.set_vnet_lanes(vec!["core", "cxl"]);
        hub.note_vnet(0);
        hub.note_vnet(1);
        hub.note_vnet(7); // out of range: clamped to the last lane
        hub.begin_window(Time::from_ns(10));
        hub.emit_builtin(&[]);
        hub.end_window();
        let names = hub.metric_names().to_vec();
        let col = |n: &str| names.iter().position(|x| x == n).unwrap();
        assert_eq!(hub.value(0, col("vnet.core.msgs")), 1.0);
        assert_eq!(hub.value(0, col("vnet.cxl.msgs")), 2.0);
    }

    #[test]
    fn report_keys_live_under_metrics_prefix() {
        let hub = synthetic(2);
        let mut r = Report::new();
        hub.report_into(&mut r);
        assert!(r.iter().all(|(k, _)| k.starts_with("metrics.")));
        assert_eq!(r.get("metrics.windows"), Some(2.0));
        assert_eq!(r.get("metrics.series"), Some(3.0));
    }
}
