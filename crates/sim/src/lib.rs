//! # c3-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the C³ reproduction: a small, fully deterministic
//! event-driven simulator playing the role gem5's event queue + Garnet
//! network play in the paper (*C³: CXL Coherence Controllers for
//! Heterogeneous Architectures*, HPCA 2026).
//!
//! * [`kernel::Simulator`] — the event loop; delivers messages between
//!   [`component::Component`]s in deterministic `(time, seq)` order.
//! * [`fabric::Fabric`] — the interconnect model: per-link latency, router
//!   delay, flit serialization, contention, and (for the CXL fabric)
//!   unordered delivery with jitter.
//! * [`stats`] — counters, reports, and the Fig.-11 latency-band histograms.
//! * [`rng::SimRng`] — seedable xoshiro256** streams, forkable per component.
//! * [`time`] — picosecond-resolution integer simulated time.
//!
//! # Examples
//!
//! ```
//! use c3_sim::prelude::*;
//!
//! #[derive(Debug, Clone)]
//! struct Nudge;
//! impl Message for Nudge {}
//!
//! struct Counter { seen: u32 }
//! impl Component<Nudge> for Counter {
//!     fn name(&self) -> String { "counter".into() }
//!     fn handle(&mut self, _m: Nudge, _s: ComponentId, _c: &mut Ctx<'_, Nudge>) {
//!         self.seen += 1;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulator::new(7);
//! let id = sim.add_component(Box::new(Counter { seen: 0 }));
//! assert_eq!(sim.run(), RunOutcome::Completed);
//! assert_eq!(sim.component_as::<Counter>(id).unwrap().seen, 0);
//! ```

#![warn(missing_docs)]

pub mod component;
pub mod equeue;
pub mod fabric;
pub mod fault;
pub mod hash;
pub mod kernel;
pub mod lines;
pub mod metrics;
pub mod peers;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

/// Whether protocol-event tracing is enabled (`C3_TRACE=1` in the
/// environment). Components print message-level traces to stderr when set.
pub fn trace_enabled() -> bool {
    use std::sync::OnceLock;
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("C3_TRACE").is_some())
}

/// Print a protocol trace line when `C3_TRACE` is set.
#[macro_export]
macro_rules! sim_trace {
    ($($arg:tt)*) => {
        if $crate::trace_enabled() {
            eprintln!($($arg)*);
        }
    };
}

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::component::{Component, ComponentId, Ctx, Message};
    pub use crate::fabric::{Fabric, LinkConfig, LinkId};
    pub use crate::fault::{FaultPlan, Flap, LinkFaults};
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::kernel::{RunOutcome, Simulator};
    pub use crate::lines::{Footprint, LineEntry, LineMap};
    pub use crate::metrics::{MetricKind, MetricSample, MetricsHub};
    pub use crate::rng::SimRng;
    pub use crate::stats::{Band, LatencyBands, LatencyHistogram, Report};
    pub use crate::time::{Delay, Time};
    pub use crate::trace::{InflightTxn, PostMortem, Tracer, TxnId};
}
