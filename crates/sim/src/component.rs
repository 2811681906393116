//! Components and the execution context handed to them.
//!
//! A simulation is a set of [`Component`]s exchanging messages through the
//! kernel. Components never hold references to each other; all interaction
//! goes through [`Ctx`], which schedules deliveries either through the
//! modelled interconnect ([`crate::fabric::Fabric`]) or over a direct port
//! with a fixed latency (e.g. a core's 1-cycle path to its private L1).

use std::any::Any;

use crate::fabric::Fabric;
use crate::kernel::{EventKind, EventQueue};
use crate::metrics::MetricSample;
use crate::rng::SimRng;
use crate::stats::Report;
use crate::time::{Delay, Time};
use crate::trace::{InflightTxn, Tracer, TxnId};

/// Identifies a component within one [`crate::kernel::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// Index into the simulator's component table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A message that can travel through the simulated system.
///
/// `size_bytes` feeds the fabric's serialization model (flits, Table III of
/// the paper). The default corresponds to one intra-cluster flit.
///
/// `Clone` is required so the fault layer can deliver duplicates; protocol
/// messages are small `Copy` enums, so this costs nothing.
pub trait Message: std::fmt::Debug + Clone + Send + 'static {
    /// Wire size used for serialization delay; headers included.
    fn size_bytes(&self) -> u32 {
        72
    }

    /// Mark this message's data payload as poisoned, returning `true` if
    /// it carries a poisonable payload. The default refuses: poison faults
    /// only apply to messages that opt in (data-carrying responses).
    fn poison(&mut self) -> bool {
        false
    }

    /// The line address this message concerns, if any — feeds the
    /// telemetry hub's per-window hot-address sketch. The default opts
    /// out; protocol messages that carry an address should return it.
    fn addr_hint(&self) -> Option<u64> {
        None
    }

    /// Virtual-network lane for telemetry message accounting (index into
    /// the lane set configured with
    /// [`crate::metrics::MetricsHub::set_vnet_lanes`]). The default puts
    /// everything on lane 0.
    fn vnet_lane(&self) -> usize {
        0
    }
}

/// A simulated hardware component (core, cache controller, directory, ...).
///
/// Implementors also provide [`Any`] access so integration harnesses can
/// inspect concrete component state after a run.
pub trait Component<M: Message>: Any + Send {
    /// Short, unique, human-readable name (used in reports and traces).
    fn name(&self) -> String;

    /// Deliver a message sent by `src`.
    fn handle(&mut self, msg: M, src: ComponentId, ctx: &mut Ctx<'_, M>);

    /// Deliver a self-scheduled wakeup (see [`Ctx::wake_after`]).
    fn on_wake(&mut self, _token: u64, _ctx: &mut Ctx<'_, M>) {}

    /// Called once before the first event, letting the component kick off
    /// initial activity (e.g. a core issuing its first instruction).
    fn start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Whether the component has finished all the work it ever intends to
    /// do. The kernel reports a deadlock if the event queue drains while a
    /// component is not done.
    fn done(&self) -> bool {
        true
    }

    /// Contribute to a run report what cannot be a fixed telemetry
    /// column: latency histograms, band breakdowns, keys written only
    /// when nonzero. Every counter [`Component::metrics`] declares is
    /// already in the report; never write one of those keys here.
    fn report(&self, _out: &mut Report) {}

    /// Declare the component's gauges and cumulative counters — its one
    /// counter schema — into a [`MetricSample`]. Called by the kernel's
    /// [`crate::metrics::MetricsHub`] at every sample boundary when
    /// telemetry is enabled, and once per [`crate::kernel::Simulator::report`],
    /// which copies the counter columns into the report under their
    /// column names. Implementations must emit the same metrics in the
    /// same order on every call (the first call registers the schema;
    /// opt-in groups are gated on flags fixed for the run) and must not
    /// mutate simulation state (`&self` enforces this). The default
    /// emits nothing.
    fn metrics(&self, _out: &mut MetricSample) {}

    /// Describe every transaction currently in flight inside this
    /// component (MSHR entries, suspended directory transactions, pending
    /// bridge nests, blocked snoops). Called by the kernel when building
    /// a deadlock post-mortem; `self_id` is the component's own id for
    /// stamping into the captured entries. The default reports nothing.
    fn inflight(&self, _self_id: ComponentId, _out: &mut Vec<InflightTxn>) {}

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Execution context for one event delivery.
///
/// Borrowed by the kernel for the duration of a single `handle`/`on_wake`
/// call; sends are pushed straight into the kernel's event queue (with
/// the kernel's sequence counter stamping scheduling order), so there is
/// no per-event staging buffer.
pub struct Ctx<'a, M: Message> {
    /// Current simulated time.
    pub now: Time,
    /// The component currently executing.
    pub self_id: ComponentId,
    pub(crate) fabric: &'a mut Fabric,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) seq: &'a mut u64,
    pub(crate) tracer: &'a mut Tracer,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Enqueue an event at `(at, next seq)` — the single scheduling
    /// funnel, so `(time, seq)` delivery order is exactly emission order.
    #[inline]
    fn push_event(&mut self, at: Time, dst: ComponentId, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "scheduled into the past");
        *self.seq += 1;
        self.queue.push(at, *self.seq, (dst, kind));
    }

    /// Send `msg` to `dst` through the modelled interconnect.
    ///
    /// The fabric determines arrival time from the configured route
    /// (routers, link latency, serialization, contention, jitter).
    ///
    /// # Panics
    ///
    /// Panics if no route from `self` to `dst` is configured — that is a
    /// system-wiring bug, not a runtime condition.
    pub fn send(&mut self, dst: ComponentId, msg: M) {
        let arrival = self
            .fabric
            .deliver(self.self_id, dst, msg.size_bytes(), self.now, self.rng);
        self.inject(dst, msg, self.now, arrival);
    }

    /// Like [`Ctx::send`], but the message enters the fabric only after
    /// `extra` delay (e.g. a DRAM access before the response leaves the
    /// memory device). Applying the delay *before* fabric injection keeps
    /// ordered links FIFO.
    ///
    /// # Panics
    ///
    /// Panics if no route from `self` to `dst` is configured.
    pub fn send_after(&mut self, dst: ComponentId, msg: M, extra: Delay) {
        let inject = self.now + extra;
        let arrival = self
            .fabric
            .deliver(self.self_id, dst, msg.size_bytes(), inject, self.rng);
        self.inject(dst, msg, inject, arrival);
    }

    /// Common tail of [`Ctx::send`]/[`Ctx::send_after`]: consult the
    /// fault plan (a no-op unless one is installed on the fabric) and
    /// enqueue the delivery, the duplicate, or nothing. Every applied
    /// fault is recorded as a `fault` instant on the sender's trace track.
    fn inject(&mut self, dst: ComponentId, mut msg: M, inject: Time, arrival: Time) {
        if self.tracer.is_enabled() {
            self.tracer
                .msg_send(self.now, self.self_id, dst, msg.size_bytes(), &msg);
        }
        if !self.fabric.has_fault_plan() {
            // Fault-free fast path: no decision to make, no extra delay.
            let src = self.self_id;
            self.push_event(arrival, dst, EventKind::Deliver { src, msg });
            return;
        }
        let d = self.fabric.decide_faults(self.self_id, dst, inject);
        if d.drop {
            if self.tracer.is_enabled() {
                self.tracer
                    .instant(self.now, self.self_id, "fault", format!("drop {msg:?}"));
            }
            return;
        }
        if d.poison && msg.poison() {
            if let Some(plan) = self.fabric.fault_plan_mut() {
                plan.note_poison_applied();
            }
            if self.tracer.is_enabled() {
                self.tracer
                    .instant(self.now, self.self_id, "fault", format!("poison {msg:?}"));
            }
        }
        if d.extra > Delay::ZERO && self.tracer.is_enabled() {
            self.tracer.instant(
                self.now,
                self.self_id,
                "fault",
                format!("delay +{:?} {msg:?}", d.extra),
            );
        }
        if d.duplicate {
            let dup_arrival =
                self.fabric
                    .deliver(self.self_id, dst, msg.size_bytes(), inject, self.rng);
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    self.now,
                    self.self_id,
                    "fault",
                    format!("duplicate {msg:?}"),
                );
            }
            let src = self.self_id;
            let dup = msg.clone();
            self.push_event(
                dup_arrival + d.extra,
                dst,
                EventKind::Deliver { src, msg: dup },
            );
        }
        let src = self.self_id;
        self.push_event(arrival + d.extra, dst, EventKind::Deliver { src, msg });
    }

    /// Send `msg` to `dst` over a direct port with a fixed `delay`,
    /// bypassing the fabric (e.g. core ↔ private L1, 1 cycle).
    pub fn send_direct(&mut self, dst: ComponentId, msg: M, delay: Delay) {
        if self.tracer.is_enabled() {
            self.tracer
                .msg_send(self.now, self.self_id, dst, msg.size_bytes(), &msg);
        }
        let src = self.self_id;
        self.push_event(self.now + delay, dst, EventKind::Deliver { src, msg });
    }

    /// Schedule a wakeup for this component after `delay`; `token` is handed
    /// back to [`Component::on_wake`].
    pub fn wake_after(&mut self, delay: Delay, token: u64) {
        let dst = self.self_id;
        self.push_event(self.now + delay, dst, EventKind::Wake { token });
    }

    /// Deterministic per-run random stream (shared by all components; use
    /// sparingly in protocol logic — intended for workload/jitter modelling).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The simulator's transaction tracer. Every record method is a
    /// cheap no-op when tracing is disabled; guard genuinely expensive
    /// argument construction on [`Ctx::tracing`].
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }

    /// Whether transaction tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Allocate a transaction id. Always increments (even with tracing
    /// off) so enabling tracing never changes component control flow.
    pub fn next_txn(&mut self) -> TxnId {
        self.tracer.next_txn()
    }

    /// Open a transaction span on this component's track at the current
    /// time. Guard expensive `name` construction on [`Ctx::tracing`].
    pub fn trace_begin(&mut self, txn: TxnId, class: &'static str, name: String) {
        self.tracer.begin(self.now, self.self_id, txn, class, name);
    }

    /// Close the innermost open span of `txn` at the current time.
    pub fn trace_end(&mut self, txn: TxnId) {
        self.tracer.end(self.now, self.self_id, txn);
    }

    /// Record a state transition on this component's track.
    pub fn trace_state(
        &mut self,
        addr: Option<u64>,
        from: &dyn std::fmt::Debug,
        to: &dyn std::fmt::Debug,
    ) {
        self.tracer.state(self.now, self.self_id, addr, from, to);
    }

    /// Record a point event on this component's track.
    pub fn trace_instant(&mut self, class: &'static str, name: String) {
        self.tracer.instant(self.now, self.self_id, class, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Ping;
    impl Message for Ping {}

    #[test]
    fn default_message_size_is_one_flit() {
        assert_eq!(Ping.size_bytes(), 72);
    }

    #[test]
    fn component_id_display() {
        assert_eq!(ComponentId(3).to_string(), "#3");
        assert_eq!(ComponentId(3).index(), 3);
    }
}
