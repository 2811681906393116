//! Transaction-level tracing and deadlock post-mortems.
//!
//! The paper's evaluation attributes miss cycles to specific protocol
//! flows — intra-cluster, CXL.mem, and cross-cluster bridge transactions
//! (Figs. 9–11). This module provides the event-level visibility that
//! analysis needs:
//!
//! * [`Tracer`] — a ring-buffered, bounded-memory recorder of typed
//!   [`TraceEvent`]s. Disabled by default; every record method
//!   early-returns when disabled so the event loop pays one branch.
//! * Chrome trace-event JSON export ([`Tracer::chrome_json`]) loadable in
//!   Perfetto / `chrome://tracing`: transaction spans are *async nestable*
//!   events keyed by [`TxnId`], so Rule-II nesting (a recall running
//!   inside a bridge fetch, a writeback inside a snoop response) is
//!   directly visible as stacked slices; one track per component.
//! * A compact text dump ([`Tracer::text_dump`]) for terminal use.
//! * Deadlock post-mortems ([`PostMortem`]): a structured capture of every
//!   in-flight transaction when a run wedges, naming the oldest blocked
//!   transaction and the chain of components it waits on.

use std::collections::VecDeque;

use crate::hash::FxHashMap;
use std::fmt;

use crate::component::ComponentId;
use crate::time::Time;

/// Identifies one traced transaction (a bridge fetch, an L1 miss, a
/// snoop response, ...). Spans sharing a `TxnId` nest in the exported
/// trace; ids are unique within one [`Tracer`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One typed trace event. Timestamps live in the enclosing
/// [`TraceRecord`].
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A message entered the fabric (or a direct port).
    MsgSend {
        /// Sender.
        src: ComponentId,
        /// Destination.
        dst: ComponentId,
        /// Wire size in bytes (serialization model input).
        size: u32,
        /// Compact message description.
        label: String,
    },
    /// A message was delivered to its destination's `handle`.
    MsgDeliver {
        /// Original sender.
        src: ComponentId,
        /// Receiving component.
        dst: ComponentId,
        /// Compact message description.
        label: String,
    },
    /// A component-visible state transition (cache line state change,
    /// FSM transition, ...).
    State {
        /// Component whose state changed.
        comp: ComponentId,
        /// Line address concerned, if any.
        addr: Option<u64>,
        /// Compact `from->to` description.
        transition: String,
    },
    /// A transaction span opened (e.g. bridge fetch issued).
    Begin {
        /// Component owning the span's track.
        comp: ComponentId,
        /// Transaction key — spans sharing it nest.
        txn: TxnId,
        /// Transaction class (`"bridge"`, `"l1"`, `"dcoh"`, ...).
        class: &'static str,
        /// Human-readable span name (`"fetch 0x40"`).
        name: String,
    },
    /// A transaction span closed. `class`/`name` are recovered from the
    /// matching [`TraceEvent::Begin`] at record time.
    End {
        /// Component owning the span's track.
        comp: ComponentId,
        /// Transaction key.
        txn: TxnId,
        /// Class copied from the opening event.
        class: &'static str,
        /// Name copied from the opening event.
        name: String,
    },
    /// A point event (a stall, a conflict detection, ...).
    Instant {
        /// Component on whose track the event renders.
        comp: ComponentId,
        /// Event class.
        class: &'static str,
        /// Human-readable description.
        name: String,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Time,
    /// The event.
    pub event: TraceEvent,
}

/// Ring-buffered trace recorder.
///
/// Created disabled ([`Tracer::disabled`]); the kernel and components
/// call the record methods unconditionally and each early-returns when
/// tracing is off, so a disabled tracer costs one predictable branch per
/// call site. When enabled with a capacity, the newest `cap` records are
/// kept and older ones are dropped (counted in [`Tracer::dropped`]).
///
/// # Examples
///
/// ```
/// use c3_sim::trace::Tracer;
/// use c3_sim::component::ComponentId;
/// use c3_sim::time::Time;
///
/// let mut t = Tracer::enabled(1024);
/// let txn = t.next_txn();
/// t.begin(Time::from_ns(1), ComponentId(0), txn, "bridge", "fetch 0x40".into());
/// t.end(Time::from_ns(5), ComponentId(0), txn);
/// let json = t.chrome_json(&["bridge0".into()]);
/// assert!(json.contains("\"ph\":\"b\""));
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    cap: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
    next_txn: u64,
    /// Stack of open spans per transaction, so `end` can recover the
    /// class/name recorded at `begin` time.
    open: FxHashMap<u64, Vec<(&'static str, String)>>,
}

impl Tracer {
    /// A tracer that records nothing (the default for every simulator).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer keeping the newest `cap` records.
    pub fn enabled(cap: usize) -> Self {
        Tracer {
            on: true,
            cap: cap.max(1),
            ..Tracer::default()
        }
    }

    /// Whether recording is active. Call sites doing non-trivial
    /// formatting should guard on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Allocate a transaction id.
    ///
    /// Always increments, even when disabled: ids are used as keys in
    /// component bookkeeping, and keeping allocation unconditional means
    /// enabling tracing cannot perturb any control flow (the determinism
    /// guarantee — ids never feed back into timing or reports).
    #[inline]
    pub fn next_txn(&mut self) -> TxnId {
        self.next_txn += 1;
        TxnId(self.next_txn)
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted by ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    fn push(&mut self, at: Time, event: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord { at, event });
    }

    /// Record a message entering the fabric.
    #[inline]
    pub fn msg_send(
        &mut self,
        at: Time,
        src: ComponentId,
        dst: ComponentId,
        size: u32,
        label: &dyn fmt::Debug,
    ) {
        if !self.on {
            return;
        }
        let label = compact(&format!("{label:?}"));
        self.push(
            at,
            TraceEvent::MsgSend {
                src,
                dst,
                size,
                label,
            },
        );
    }

    /// Record a message delivery.
    #[inline]
    pub fn msg_deliver(
        &mut self,
        at: Time,
        src: ComponentId,
        dst: ComponentId,
        label: &dyn fmt::Debug,
    ) {
        if !self.on {
            return;
        }
        let label = compact(&format!("{label:?}"));
        self.push(at, TraceEvent::MsgDeliver { src, dst, label });
    }

    /// Record a state transition on `comp`.
    #[inline]
    pub fn state(
        &mut self,
        at: Time,
        comp: ComponentId,
        addr: Option<u64>,
        from: &dyn fmt::Debug,
        to: &dyn fmt::Debug,
    ) {
        if !self.on {
            return;
        }
        let transition = format!("{from:?}->{to:?}");
        self.push(
            at,
            TraceEvent::State {
                comp,
                addr,
                transition,
            },
        );
    }

    /// Open a transaction span.
    #[inline]
    pub fn begin(
        &mut self,
        at: Time,
        comp: ComponentId,
        txn: TxnId,
        class: &'static str,
        name: String,
    ) {
        if !self.on {
            return;
        }
        self.open
            .entry(txn.0)
            .or_default()
            .push((class, name.clone()));
        self.push(
            at,
            TraceEvent::Begin {
                comp,
                txn,
                class,
                name,
            },
        );
    }

    /// Close the innermost open span of `txn`. A close with no matching
    /// open (possible if a component retires bookkeeping twice) is
    /// ignored, preserving export balance.
    #[inline]
    pub fn end(&mut self, at: Time, comp: ComponentId, txn: TxnId) {
        if !self.on {
            return;
        }
        let Some(stack) = self.open.get_mut(&txn.0) else {
            return;
        };
        let Some((class, name)) = stack.pop() else {
            return;
        };
        if stack.is_empty() {
            self.open.remove(&txn.0);
        }
        self.push(
            at,
            TraceEvent::End {
                comp,
                txn,
                class,
                name,
            },
        );
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&mut self, at: Time, comp: ComponentId, class: &'static str, name: String) {
        if !self.on {
            return;
        }
        self.push(at, TraceEvent::Instant { comp, class, name });
    }

    /// Export the buffer as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load). `names[i]` labels component `i`'s
    /// track.
    ///
    /// Transaction spans are emitted as *async nestable* events
    /// (`ph:"b"`/`ph:"e"`) keyed by transaction id, so spans sharing a
    /// [`TxnId`] render as nested slices — the Rule-II picture. The
    /// output always has balanced begin/end pairs: an `End` whose `Begin`
    /// was evicted by ring overflow is skipped, and spans still open at
    /// export time (e.g. in a deadlocked run) are synthetically closed at
    /// the last buffered timestamp.
    pub fn chrome_json(&self, names: &[String]) -> String {
        let mut out = String::with_capacity(64 * self.buf.len() + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, body: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&body);
        };
        for (i, n) in names.iter().enumerate() {
            emit(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_str(n)
                ),
            );
        }
        // Balance bookkeeping: per txn, a stack of open Begins seen in
        // the buffer. Ends without one are skipped; leftovers are closed
        // synthetically at the end.
        let mut open: FxHashMap<u64, Vec<(&'static str, &str, ComponentId)>> = FxHashMap::default();
        let mut last_ts = 0.0f64;
        for rec in &self.buf {
            let ts = rec.at.as_ps() as f64 / 1e6; // ps -> µs
            last_ts = ts;
            match &rec.event {
                TraceEvent::MsgSend {
                    src,
                    dst,
                    size,
                    label,
                } => emit(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
                         \"cat\":\"msg\",\"name\":{},\"args\":{{\"dst\":{},\"bytes\":{size}}}}}",
                        src.0,
                        json_str(&format!("send {label}")),
                        dst.0
                    ),
                ),
                TraceEvent::MsgDeliver { src, dst, label } => emit(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
                         \"cat\":\"msg\",\"name\":{},\"args\":{{\"src\":{}}}}}",
                        dst.0,
                        json_str(&format!("recv {label}")),
                        src.0
                    ),
                ),
                TraceEvent::State {
                    comp,
                    addr,
                    transition,
                } => {
                    let name = match addr {
                        Some(a) => format!("{transition} @{a:#x}"),
                        None => transition.clone(),
                    };
                    emit(
                        &mut out,
                        format!(
                            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
                             \"cat\":\"state\",\"name\":{}}}",
                            comp.0,
                            json_str(&name)
                        ),
                    );
                }
                TraceEvent::Begin {
                    comp,
                    txn,
                    class,
                    name,
                } => {
                    open.entry(txn.0)
                        .or_default()
                        .push((*class, name.as_str(), *comp));
                    emit(&mut out, async_event("b", ts, *comp, *txn, class, name));
                }
                TraceEvent::End {
                    comp,
                    txn,
                    class,
                    name,
                } => {
                    // Only emit if a Begin for this txn survives in the
                    // buffer; otherwise the pair would be unbalanced.
                    let survives = open
                        .get_mut(&txn.0)
                        .map(|s| s.pop().is_some())
                        .unwrap_or(false);
                    if survives {
                        emit(&mut out, async_event("e", ts, *comp, *txn, class, name));
                    }
                }
                TraceEvent::Instant { comp, class, name } => emit(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
                         \"cat\":{},\"name\":{}}}",
                        comp.0,
                        json_str(class),
                        json_str(name)
                    ),
                ),
            }
        }
        // Synthetically close spans still open (deadlocked or truncated).
        type OpenStack<'a> = Vec<(&'static str, &'a str, ComponentId)>;
        let mut leftovers: Vec<(u64, OpenStack<'_>)> =
            open.into_iter().filter(|(_, s)| !s.is_empty()).collect();
        leftovers.sort_by_key(|(id, _)| *id);
        for (id, stack) in leftovers {
            for (class, name, comp) in stack.into_iter().rev() {
                emit(
                    &mut out,
                    async_event("e", last_ts, comp, TxnId(id), class, name),
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Compact one-line-per-event text dump, oldest first.
    pub fn text_dump(&self, names: &[String]) -> String {
        let name_of = |c: ComponentId| -> String {
            names
                .get(c.index())
                .cloned()
                .unwrap_or_else(|| c.to_string())
        };
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("... {} older records dropped ...\n", self.dropped));
        }
        for rec in &self.buf {
            let t = rec.at;
            match &rec.event {
                TraceEvent::MsgSend {
                    src,
                    dst,
                    size,
                    label,
                } => out.push_str(&format!(
                    "{t} send    {} -> {} [{size}B] {label}\n",
                    name_of(*src),
                    name_of(*dst)
                )),
                TraceEvent::MsgDeliver { src, dst, label } => out.push_str(&format!(
                    "{t} deliver {} -> {} {label}\n",
                    name_of(*src),
                    name_of(*dst)
                )),
                TraceEvent::State {
                    comp,
                    addr,
                    transition,
                } => {
                    let a = addr.map(|a| format!(" @{a:#x}")).unwrap_or_default();
                    out.push_str(&format!("{t} state   {} {transition}{a}\n", name_of(*comp)))
                }
                TraceEvent::Begin {
                    comp,
                    txn,
                    class,
                    name,
                } => out.push_str(&format!(
                    "{t} begin   {} {txn} [{class}] {name}\n",
                    name_of(*comp)
                )),
                TraceEvent::End {
                    comp,
                    txn,
                    class,
                    name,
                } => out.push_str(&format!(
                    "{t} end     {} {txn} [{class}] {name}\n",
                    name_of(*comp)
                )),
                TraceEvent::Instant { comp, class, name } => out.push_str(&format!(
                    "{t} instant {} [{class}] {name}\n",
                    name_of(*comp)
                )),
            }
        }
        out
    }
}

fn async_event(
    ph: &str,
    ts: f64,
    comp: ComponentId,
    txn: TxnId,
    class: &str,
    name: &str,
) -> String {
    format!(
        "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"cat\":{},\
         \"id\":\"{:#x}\",\"name\":{}}}",
        comp.0,
        json_str(class),
        txn.0,
        json_str(name)
    )
}

/// Trim a `{:?}` rendering down to something that reads well on a slice.
fn compact(s: &str) -> String {
    let mut out: String = s.chars().take(96).collect();
    if out.len() < s.len() {
        out.push('…');
    }
    out
}

/// Escape `s` as a JSON string literal (with quotes).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker
// ---------------------------------------------------------------------------

/// Validate that `s` is syntactically well-formed JSON.
///
/// A minimal recursive-descent checker (the workspace deliberately has no
/// external dependencies); used by the trace tests and available to tools
/// that want a sanity check before handing a file to Perfetto.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {i}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len()
        && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if *i + 4 >= b.len() || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {i}"));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}"));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        *i += 1;
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Deadlock post-mortems
// ---------------------------------------------------------------------------

/// One in-flight transaction captured from a component at post-mortem
/// time (an MSHR entry, a pending bridge nest, a blocked DCOH snoop, a
/// suspended directory transaction).
#[derive(Clone, Debug)]
pub struct InflightTxn {
    /// Component holding the transaction.
    pub component: ComponentId,
    /// Line address concerned, if address-keyed.
    pub addr: Option<u64>,
    /// Short classification (`"mshr IM_AD"`, `"fetch(excl)"`, ...).
    pub kind: String,
    /// When the transaction started, when known — the post-mortem's
    /// "oldest blocked transaction" is the minimum of these.
    pub since: Option<Time>,
    /// The component this transaction is waiting on, when known — the
    /// edge the wait-chain walk follows.
    pub waiting_on: Option<ComponentId>,
    /// Free-form extra context.
    pub detail: String,
}

/// Structured dump of everything in flight when a run wedged.
///
/// Built by `Simulator::post_mortem` after [`crate::kernel::RunOutcome::Deadlock`]
/// or [`crate::kernel::RunOutcome::EventLimit`]; the [`fmt::Display`]
/// rendering names the oldest blocked transaction and walks its wait
/// chain.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// Why the run stopped (rendered from the `RunOutcome`).
    pub outcome: String,
    /// Simulated time at capture.
    pub at: Time,
    /// Events processed before the stop.
    pub events: u64,
    /// Every captured in-flight transaction.
    pub txns: Vec<InflightTxn>,
    /// Component names, indexed by [`ComponentId::index`].
    pub names: Vec<String>,
}

impl PostMortem {
    /// The oldest blocked transaction (minimum `since`; transactions
    /// without a timestamp sort last).
    pub fn oldest(&self) -> Option<&InflightTxn> {
        self.txns
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (t.since.unwrap_or(Time::MAX), *i))
            .map(|(_, t)| t)
    }

    /// Follow `waiting_on` edges from `start`, preferring transactions on
    /// the same address, until the chain ends or cycles. Returns the
    /// visited transactions including `start`.
    pub fn wait_chain<'a>(&'a self, start: &'a InflightTxn) -> Vec<&'a InflightTxn> {
        let mut chain = vec![start];
        let mut visited = vec![start.component];
        let mut cur = start;
        while let Some(next_comp) = cur.waiting_on {
            if visited.contains(&next_comp) {
                break; // cycle — the classic deadlock shape
            }
            // Prefer a same-address transaction at the waited-on
            // component; fall back to any of its transactions.
            let next = self
                .txns
                .iter()
                .filter(|t| t.component == next_comp)
                .max_by_key(|t| (cur.addr.is_some() && t.addr == cur.addr) as u8);
            let Some(next) = next else { break };
            chain.push(next);
            visited.push(next_comp);
            cur = next;
        }
        chain
    }

    fn name_of(&self, c: ComponentId) -> String {
        self.names
            .get(c.index())
            .cloned()
            .unwrap_or_else(|| c.to_string())
    }
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== post-mortem: {} at {} after {} events ===",
            self.outcome, self.at, self.events
        )?;
        if self.txns.is_empty() {
            return writeln!(f, "no in-flight transactions captured");
        }
        writeln!(f, "{} in-flight transaction(s):", self.txns.len())?;
        for t in &self.txns {
            let addr = t.addr.map(|a| format!(" @{a:#x}")).unwrap_or_default();
            let since = t.since.map(|s| format!(" since {s}")).unwrap_or_default();
            let wait = t
                .waiting_on
                .map(|w| format!(" waiting on {}", self.name_of(w)))
                .unwrap_or_default();
            let detail = if t.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", t.detail)
            };
            writeln!(
                f,
                "  {} {}{addr}{since}{wait}{detail}",
                self.name_of(t.component),
                t.kind
            )?;
        }
        if let Some(oldest) = self.oldest() {
            let addr = oldest.addr.map(|a| format!(" @{a:#x}")).unwrap_or_default();
            writeln!(
                f,
                "oldest blocked: {} {}{addr}",
                self.name_of(oldest.component),
                oldest.kind
            )?;
            let chain = self.wait_chain(oldest);
            if chain.len() > 1 {
                let rendered: Vec<String> = chain
                    .iter()
                    .map(|t| format!("{} [{}]", self.name_of(t.component), t.kind))
                    .collect();
                writeln!(f, "wait chain: {}", rendered.join(" -> "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ComponentId = ComponentId(0);
    const C1: ComponentId = ComponentId(1);

    fn names() -> Vec<String> {
        vec!["alpha".into(), "beta".into()]
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.instant(Time::from_ns(1), C0, "x", "y".into());
        let txn = t.next_txn();
        t.begin(Time::from_ns(1), C0, txn, "c", "n".into());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        // ids still allocate (determinism: same control flow either way)
        assert_eq!(t.next_txn(), TxnId(2));
    }

    #[test]
    fn ring_overflow_keeps_newest() {
        let mut t = Tracer::enabled(3);
        for i in 0..10u64 {
            t.instant(Time::from_ns(i), C0, "tick", format!("i{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let kept: Vec<u64> = t.records().map(|r| r.at.as_ns()).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn chrome_json_is_valid_and_balanced() {
        let mut t = Tracer::enabled(64);
        let outer = t.next_txn();
        let inner = t.next_txn();
        t.begin(Time::from_ns(10), C0, outer, "bridge", "fetch 0x40".into());
        t.begin(Time::from_ns(12), C0, inner, "bridge", "recall 0x40".into());
        t.msg_send(Time::from_ns(13), C0, C1, 80, &"MemRd");
        t.end(Time::from_ns(20), C0, inner);
        t.end(Time::from_ns(30), C0, outer);
        let json = t.chrome_json(&names());
        validate_json(&json).expect("valid JSON");
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 2);
        assert!(json.contains("\"name\":\"alpha\""));
    }

    #[test]
    fn truncated_and_unclosed_spans_still_balance() {
        // cap 2: the Begin for `outer` is evicted; `orphan` never ends.
        let mut t = Tracer::enabled(2);
        let outer = t.next_txn();
        let orphan = t.next_txn();
        t.begin(Time::from_ns(1), C0, outer, "bridge", "evicted".into());
        t.begin(Time::from_ns(2), C0, orphan, "bridge", "open".into());
        t.end(Time::from_ns(3), C0, outer); // Begin gone from buffer
        let json = t.chrome_json(&names());
        validate_json(&json).expect("valid JSON");
        assert_eq!(
            json.matches("\"ph\":\"b\"").count(),
            json.matches("\"ph\":\"e\"").count()
        );
    }

    #[test]
    fn end_without_begin_is_ignored() {
        let mut t = Tracer::enabled(8);
        let txn = t.next_txn();
        t.end(Time::from_ns(1), C0, txn);
        assert!(t.is_empty());
    }

    #[test]
    fn text_dump_mentions_drops_and_names() {
        let mut t = Tracer::enabled(2);
        for i in 0..4u64 {
            t.instant(Time::from_ns(i), C1, "x", format!("e{i}"));
        }
        let dump = t.text_dump(&names());
        assert!(dump.contains("2 older records dropped"));
        assert!(dump.contains("beta"));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}").unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} extra").is_err());
    }

    #[test]
    fn post_mortem_names_oldest_and_chain() {
        let pm = PostMortem {
            outcome: "Deadlock".into(),
            at: Time::from_ns(100),
            events: 42,
            txns: vec![
                InflightTxn {
                    component: C0,
                    addr: Some(0x40),
                    kind: "mshr IM_AD".into(),
                    since: Some(Time::from_ns(5)),
                    waiting_on: Some(C1),
                    detail: String::new(),
                },
                InflightTxn {
                    component: C1,
                    addr: Some(0x40),
                    kind: "snoop(blocked)".into(),
                    since: Some(Time::from_ns(9)),
                    waiting_on: Some(C0),
                    detail: "waiting for BiRsp".into(),
                },
            ],
            names: names(),
        };
        let oldest = pm.oldest().unwrap();
        assert_eq!(oldest.component, C0);
        let chain = pm.wait_chain(oldest);
        assert_eq!(chain.len(), 2); // cycle detected, stops after C1
        let text = pm.to_string();
        assert!(text.contains("oldest blocked: alpha mshr IM_AD @0x40"));
        assert!(text.contains("wait chain: alpha [mshr IM_AD] -> beta [snoop(blocked)]"));
    }
}
