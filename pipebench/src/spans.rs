//! Where the traced pass's time goes, layer by layer.
//!
//! Every call the traced pass makes into the program from one of the
//! benchmark's own threads is a span of the [`Tracer`], attributed to a
//! layer; coverage is the share of those threads' wall time spent inside
//! such calls. Work on the engine's worker threads is split by the
//! program's existing `veriqec_obs` spans instead ([`WorkerLayers`]), read
//! with the collector armed around a batch; no span is added to the
//! program.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use veriqec_obs::{Event, EventKind};

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: &'static str,
    secs: f64,
}

/// A span recorder shared across threads; a disabled one times nothing.
pub struct Tracer {
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder that records (`on`) or is a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            spans: on.then(Default::default),
        }
    }

    /// True when this recorder records.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Times `f` as a call into `layer`.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Span { layer, secs });
        out
    }

    fn sum(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans.as_ref().map_or(0.0, |s| {
            s.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .filter(|sp| keep(sp))
                .map(|sp| sp.secs)
                .sum()
        })
    }

    /// Total time in `layer`, in milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.sum(|s| s.layer == layer) * 1e3
    }

    /// Seconds spent inside calls into the program.
    pub fn caller_secs(&self) -> f64 {
        self.sum(|_| true)
    }
}

/// Engine-worker self time per layer, split by the program's own
/// `veriqec_obs` spans, and the solver queries those spans show.
#[derive(Debug, Default)]
pub struct WorkerLayers {
    micros: HashMap<&'static str, u64>,
    /// `smt`/`check` spans: one per solver query.
    pub checks: usize,
}

/// A program span still open on its thread.
struct Open {
    layer: Option<&'static str>,
    begin_us: u64,
    /// Time its finished child spans cover.
    covered_us: u64,
}

impl WorkerLayers {
    /// Adds the self time of every span in `events` (its duration minus
    /// the time its child spans cover) to the span's layer. A job span's
    /// self time is the job's work that no deeper span covers and goes to
    /// `job_layer`. The batch span is the calling thread waiting for the
    /// workers, not worker time, and is skipped.
    pub fn add(&mut self, events: &[Event], job_layer: &'static str) {
        let mut open: HashMap<u64, Vec<Open>> = HashMap::new();
        for e in events {
            let stack = open.entry(e.tid).or_default();
            match e.kind {
                EventKind::Begin => stack.push(Open {
                    layer: layer_of(e.cat, &e.name, job_layer),
                    begin_us: e.ts_us,
                    covered_us: 0,
                }),
                EventKind::End => {
                    let Some(span) = stack.pop() else {
                        continue;
                    };
                    let dur = e.ts_us.saturating_sub(span.begin_us);
                    if let Some(parent) = stack.last_mut() {
                        parent.covered_us += dur;
                    }
                    if let Some(layer) = span.layer {
                        *self.micros.entry(layer).or_default() +=
                            dur.saturating_sub(span.covered_us);
                    }
                    if (e.cat, &*e.name) == ("smt", "check") {
                        self.checks += 1;
                    }
                }
                EventKind::Instant | EventKind::Counter => {}
            }
        }
    }

    /// Self time of `layer`, in milliseconds.
    pub fn ms(&self, layer: &str) -> f64 {
        self.micros.get(layer).copied().unwrap_or(0) as f64 / 1e3
    }
}

/// The layer a program span's self time belongs to.
fn layer_of(cat: &str, name: &str, job_layer: &'static str) -> Option<&'static str> {
    match (cat, name) {
        ("sat", "solve") | ("smt", "check") | ("vcgen", "query") => Some("sat"),
        ("vcgen", _) | (_, "export_cnf") => Some("encode"),
        ("dd", _) => Some("dd.compile"),
        ("engine", job) if job.starts_with("job:") => Some(job_layer),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.call("sat", || 7), 7);
        assert_eq!(t.layer_ms("sat"), 0.0);
    }

    #[test]
    fn calls_sum_per_layer() {
        let t = Tracer::new(true);
        t.call("engine", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.call("codes", || ());
        assert!(t.layer_ms("engine") >= 2.0);
        assert!((t.caller_secs() * 1e3 - t.layer_ms("engine") - t.layer_ms("codes")).abs() < 1e-9);
    }

    #[test]
    fn worker_layers_take_each_span_minus_its_children() {
        use EventKind::{Begin, End};
        let ev = |kind, cat, name, ts_us| Event {
            cat,
            name: Cow::Borrowed(name),
            kind,
            ts_us,
            tid: 3,
            args: Vec::new(),
        };
        let events = [
            ev(Begin, "engine", "job:carbon", 0),
            ev(Begin, "vcgen", "query", 10),
            ev(Begin, "smt", "check", 12),
            ev(Begin, "sat", "solve", 20),
            ev(End, "sat", "solve", 50),
            ev(End, "smt", "check", 55),
            ev(End, "vcgen", "query", 60),
            ev(Begin, "dd", "compile", 60),
            ev(Begin, "dd", "clause:1", 61),
            ev(End, "dd", "clause:1", 70),
            ev(End, "dd", "compile", 80),
            ev(End, "engine", "job:carbon", 100),
        ];
        let mut w = WorkerLayers::default();
        w.add(&events, "dd.count");
        assert_eq!(w.ms("sat"), 0.05);
        assert_eq!(w.ms("dd.compile"), 0.02);
        assert_eq!(w.ms("dd.count"), 0.03);
        assert_eq!(w.ms("encode"), 0.0);
        assert_eq!(w.checks, 1);
    }
}
