//! End-to-end tracing and metrics for the verification pipeline.
//!
//! Every hot path in the workspace (CDCL solving, decision-diagram
//! compilation, GF(2) frame sweeps, the engine's worker pool) reports
//! through this crate: RAII [`span`]s land in *thread-local* event buffers
//! with monotonic timestamps, milestone [`instant`]s and [`counter`]
//! samples ride along, and a [`Collector`] drains every buffer into one
//! event stream that serializes to Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`).
//!
//! # Cost model
//!
//! Emission is *zero-cost when disabled*: every entry point checks one
//! relaxed atomic load ([`enabled`]) and returns before touching
//! thread-local state, formatting, or timestamps. The hot-loop consumers
//! (the solver's conflict loop, the compiler's clause loop) additionally
//! cache the flag once per call so the steady-state overhead of a disabled
//! build is a handful of predictable branches — asserted by the CI perf
//! gate (`tables gate`), which runs with this crate compiled in but
//! disabled.
//!
//! When enabled, the hot path is lock-free: events push onto a plain
//! thread-local `Vec`, which hands itself to the global sink (one mutex,
//! touched every `FLUSH_AT` (1024) events or at thread exit) in batches. The
//! [`Collector`] takes that sink wholesale; per-thread event order is
//! preserved, so per-`tid` timestamps are monotonic in the drained stream.
//!
//! # Modules
//!
//! * [`metrics`] — typed [`metrics::Counter`]s/[`metrics::Gauge`]s and
//!   log-bucketed [`metrics::Histogram`]s with mergeable snapshots
//!   ([`metrics::MetricsSnapshot`] is what `SolverStats::to_metrics` and
//!   `DdStats::to_metrics` lower into, and what batch reports render from).
//! * [`trace`] — the [`Collector`] and Chrome trace-event serialization.
//! * [`json`] — the workspace's one JSON reader, string escaper and
//!   metric-field writer.
//! * [`heartbeat`] — live progress: global phase/conflict/node gauges plus
//!   a [`heartbeat::Heartbeat`] thread printing one status line per period.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod heartbeat;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsSnapshot};
pub use trace::{Collector, PhaseSummary};

/// Buffered events per thread before the buffer hands itself to the sink.
const FLUSH_AT: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Turns event emission on or off process-wide. Enabling pins the trace
/// epoch (timestamp zero) if it is not already pinned.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// True when tracing is enabled. One relaxed load — the gate every
/// emission entry point checks first, and what hot loops cache per call.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when either tracing or the progress heartbeat wants live data;
/// instrumented loops use this to decide whether to update the global
/// progress gauges at their sampling points.
#[inline]
pub fn active() -> bool {
    enabled() || heartbeat::progress_enabled()
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch (monotonic; the `ts` of every event).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ------------------------------------------------------------------- events

/// The phase of an [`Event`], mirroring the Chrome trace-event `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`); matched with the innermost open `Begin` of
    /// the same thread.
    End,
    /// A point-in-time milestone (`ph: "i"`, thread scope).
    Instant,
    /// A sampled counter series (`ph: "C"`); the series values live in
    /// [`Event::args`].
    Counter,
}

/// One trace event, as buffered per thread and drained by the [`Collector`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Category: the crate that emitted the event (`"sat"`, `"dd"`,
    /// `"engine"`, …) — Perfetto's track-filtering key.
    pub cat: &'static str,
    /// Event name (span label, milestone name, counter series name).
    pub name: Cow<'static, str>,
    /// Begin/End/Instant/Counter.
    pub kind: EventKind,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Emitting thread's trace id (small integers in first-use order; the
    /// engine's worker lanes).
    pub tid: u64,
    /// Small numeric payload (node counts, conflict totals, rates).
    pub args: Vec<(&'static str, f64)>,
}

struct ThreadBuf {
    tid: u64,
    events: RefCell<Vec<Event>>,
    depth: Cell<usize>,
}

impl ThreadBuf {
    fn flush(&self) {
        let mut events = self.events.borrow_mut();
        if events.is_empty() {
            return;
        }
        let mut sink = SINK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.append(&mut events);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Thread exit: hand any tail of the buffer to the sink so events
        // from ad-hoc threads survive. This is a backstop, not a join
        // barrier — `thread::scope` in particular can return before the
        // exiting threads' TLS destructors have finished, so pool code
        // must call [`flush_thread`] before its closure returns (the
        // engine's workers do) for a post-join drain to be complete.
        self.flush();
    }
}

thread_local! {
    static BUF: ThreadBuf = ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: RefCell::new(Vec::new()),
        depth: Cell::new(0),
    };
}

/// Pushes onto the current thread's buffer; flushes to the sink in batches.
fn push(event: Event) {
    // try_with: emission during thread teardown (after the TLS destructor)
    // silently drops the event instead of panicking.
    let _ = BUF.try_with(|b| {
        let len = {
            let mut events = b.events.borrow_mut();
            events.push(event);
            events.len()
        };
        if len >= FLUSH_AT {
            b.flush();
        }
    });
}

fn current_tid() -> u64 {
    BUF.try_with(|b| b.tid).unwrap_or(0)
}

/// Flushes the calling thread's buffer into the global sink.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| b.flush());
}

/// Drains every flushed event (the calling thread's buffer included) out of
/// the global sink. Buffers of *live* other threads flush on their next
/// batch boundary, via an explicit [`flush_thread`], or at thread exit —
/// note that a scoped-thread join does not guarantee the exit flush has
/// run, so pools flush explicitly before their closures return. Used by
/// [`Collector::drain`].
pub fn drain() -> Vec<Event> {
    flush_thread();
    std::mem::take(
        &mut *SINK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

// -------------------------------------------------------------------- spans

/// RAII guard of one span: emits the `End` event on drop. A no-op (and
/// allocation-free) when tracing was disabled at construction.
#[must_use = "a span closes when the guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    live: Option<(&'static str, Cow<'static, str>)>,
}

impl SpanGuard {
    /// Closes the span now, attaching `args` to its end event (Chrome and
    /// Perfetto merge them into the span's arguments) — for results known
    /// only when the span ends, such as which racer won.
    pub fn close_with(mut self, args: &[(&'static str, f64)]) {
        self.end(args.to_vec());
    }

    fn end(&mut self, args: Vec<(&'static str, f64)>) {
        if let Some((cat, name)) = self.live.take() {
            let _ = BUF.try_with(|b| b.depth.set(b.depth.get().saturating_sub(1)));
            push(Event {
                cat,
                name,
                kind: EventKind::End,
                ts_us: now_us(),
                tid: current_tid(),
                args,
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end(Vec::new());
    }
}

fn begin(cat: &'static str, name: Cow<'static, str>) -> SpanGuard {
    let _ = BUF.try_with(|b| b.depth.set(b.depth.get() + 1));
    push(Event {
        cat,
        name: name.clone(),
        kind: EventKind::Begin,
        ts_us: now_us(),
        tid: current_tid(),
        args: Vec::new(),
    });
    SpanGuard {
        live: Some((cat, name)),
    }
}

/// Opens a span with a static name. One relaxed load when disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    begin(cat, Cow::Borrowed(name))
}

/// Opens a span with an owned name (job labels). The name is only built by
/// the caller when needed — prefer [`span_with`] to avoid formatting on the
/// disabled path.
#[inline]
pub fn span_owned(cat: &'static str, name: String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    begin(cat, Cow::Owned(name))
}

/// Opens a span whose name is computed lazily: `name()` runs only when
/// tracing is enabled, so `format!` never executes on the disabled path.
#[inline]
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    begin(cat, Cow::Owned(name()))
}

/// Emits a point-in-time milestone with a small numeric payload.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    push(Event {
        cat,
        name: Cow::Borrowed(name),
        kind: EventKind::Instant,
        ts_us: now_us(),
        tid: current_tid(),
        args: args.to_vec(),
    });
}

/// Emits one sample of a counter series (renders as a counter track in
/// Perfetto; the viewer derives rates from consecutive samples).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        cat,
        name: Cow::Borrowed(name),
        kind: EventKind::Counter,
        ts_us: now_us(),
        tid: current_tid(),
        args: vec![("value", value)],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled flag and the sink are process-global; tests that toggle
    /// them serialize on this lock (and drain on both sides) so parallel
    /// test threads cannot interleave streams.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emission_is_invisible() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        drain();
        {
            let _s = span("test", "outer");
            instant("test", "milestone", &[("n", 1.0)]);
            counter("test", "series", 2.0);
        }
        assert!(drain().is_empty(), "disabled paths must not buffer events");
    }

    #[test]
    fn spans_nest_and_balance() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        {
            let _a = span("test", "outer");
            {
                let b = span_owned("test", "inner".to_string());
                instant("test", "mark", &[]);
                b.close_with(&[("won", 1.0)]);
            }
            counter("test", "c", 3.0);
        }
        set_enabled(false);
        let events = drain();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Begin,
                EventKind::Begin,
                EventKind::Instant,
                EventKind::End,
                EventKind::Counter,
                EventKind::End,
            ]
        );
        // Monotonic timestamps within the thread.
        for w in events.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        // End events carry the matching names so viewers and the schema
        // validator can pair them without a stack.
        assert_eq!(events[3].name, "inner");
        assert_eq!(events[5].name, "outer");
        // Results known only at the end ride on the end event.
        assert_eq!(events[3].args, vec![("won", 1.0)]);
        assert!(events[5].args.is_empty());
        assert!(events.iter().all(|e| e.tid == events[0].tid));
    }

    #[test]
    fn span_with_skips_formatting_when_disabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        drain();
        let mut formatted = false;
        {
            let _s = span_with("test", || {
                formatted = true;
                "expensive".to_string()
            });
        }
        assert!(!formatted, "the name closure must not run while disabled");
    }

    #[test]
    fn worker_thread_events_arrive_after_join() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        let main_tid = current_tid();
        let worker_tid = std::thread::spawn(|| {
            let _s = span("test", "worker");
            current_tid()
        })
        .join()
        .expect("worker ran");
        set_enabled(false);
        let events = drain();
        assert_ne!(worker_tid, main_tid);
        let worker_events: Vec<_> = events.iter().filter(|e| e.tid == worker_tid).collect();
        assert_eq!(worker_events.len(), 2, "thread exit flushed the buffer");
    }
}
