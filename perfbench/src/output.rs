//! Metric names, units and the result line.

use std::fmt::Write;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_exec_us", "us"),
    ("sim_lat_p99_ns", "ns"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.gen_s", "s"),
    ("system.build_s", "s"),
    ("core.host_s", "s"),
    ("core.calls", "count"),
    ("core.ns_per_call", "ns"),
    ("core.retired", "count"),
    ("core.squashes", "count"),
    ("rest.host_s", "s"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("alloc.per_event", "allocs/event"),
    ("report.host_s", "s"),
    ("events.core", "count"),
    ("events.l1", "count"),
    ("events.bridge", "count"),
    ("events.dcoh", "count"),
    ("l1.hits", "count"),
    ("l1.misses", "count"),
    ("l1.miss_ns.low", "ns"),
    ("l1.miss_ns.med", "ns"),
    ("l1.miss_ns.high", "ns"),
    ("bridge.global_reads", "count"),
    ("bridge.global_writes", "count"),
    ("bridge.snoops", "count"),
    ("bridge.recalls", "count"),
    ("bridge.local_stalls", "count"),
    ("bridge.fetch_p99_ns", "ns"),
    ("dcoh.stalled_requests", "count"),
    ("dcoh.conflicts", "count"),
    ("dcoh.bisnp_sent", "count"),
    ("region.touched_lines", "count"),
    ("region.peak_resident_lines", "count"),
    ("region.peak_state_bytes", "bytes"),
    ("verif.explore_s", "s"),
    ("verif.conformance_s", "s"),
    ("verif.canonical_states", "count"),
    ("verif.unreduced_states", "count"),
    ("verif.edges", "count"),
    ("verif.reduction", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.reps", "count"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
///
/// # Panics
///
/// Panics on a name in neither table.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// The result of one benchmark invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Whether every repetition passed its output checks.
    pub correct: bool,
    /// Repetitions attempted, the untimed warm-up included.
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// Metric values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// One line of JSON: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back as the
            // same f64: every digit measured, nothing invented.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit(name)
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table: one metric per line with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>18.6} {}", unit(name));
        }
        out
    }
}
