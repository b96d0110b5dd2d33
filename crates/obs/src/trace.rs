//! Draining the event sink and serializing to Chrome trace-event JSON.
//!
//! The output is the *JSON array format* of the Chrome trace-event spec —
//! a flat array of objects with `name`/`cat`/`ph`/`ts`/`pid`/`tid` — which
//! both `chrome://tracing` and <https://ui.perfetto.dev> load directly.
//! Spans use duration events (`ph: "B"`/`"E"`, paired per `tid` by nesting
//! order), milestones are thread-scoped instants (`ph: "i"`), and sampled
//! series are counter events (`ph: "C"`) whose `args` become the counter
//! track's values.

use crate::json::escape;
use crate::{Event, EventKind};

/// Aggregated time of one span label across the whole event stream — the
/// rows of the per-phase summary table batch reports render.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Emitting crate (the span's category).
    pub cat: String,
    /// Span label.
    pub name: String,
    /// Completed spans with this label.
    pub count: u64,
    /// Summed inclusive duration in microseconds.
    pub total_us: u64,
}

/// Accumulates drained events and serializes them.
///
/// The collector owns events once drained, so a long batch can drain
/// periodically (bounding sink memory) and serialize once at the end.
#[derive(Debug, Default)]
pub struct Collector {
    events: Vec<Event>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains every flushed event from the global sink into this
    /// collector. Call after worker threads have been joined (the engine's
    /// workers flush explicitly before exiting) for a complete stream.
    pub fn drain(&mut self) {
        self.events.extend(crate::drain());
    }

    /// The events collected so far, in sink order (per-thread order is
    /// preserved; threads interleave at flush granularity).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The distinct categories (emitting crates) present in the stream.
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = Vec::new();
        for e in &self.events {
            if !cats.contains(&e.cat) {
                cats.push(e.cat);
            }
        }
        cats
    }

    /// Aggregates completed spans into per-label totals, ordered by total
    /// time descending. Numeric suffixes after a `:` are collapsed
    /// (`clause:17` → `clause:*`) so per-item spans roll up into one row.
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        // Per-tid stacks of (cat, name, begin-ts); B/E pair by nesting.
        let mut stacks: std::collections::HashMap<u64, Vec<(&str, &str, u64)>> =
            std::collections::HashMap::new();
        let mut totals: Vec<PhaseSummary> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::Begin => {
                    stacks
                        .entry(e.tid)
                        .or_default()
                        .push((e.cat, &e.name, e.ts_us));
                }
                EventKind::End => {
                    let Some((cat, name, t0)) = stacks.get_mut(&e.tid).and_then(|s| s.pop()) else {
                        continue; // unbalanced stream: skip rather than panic
                    };
                    let label = collapse_label(name);
                    let dur = e.ts_us.saturating_sub(t0);
                    match totals.iter_mut().find(|p| p.cat == cat && p.name == label) {
                        Some(p) => {
                            p.count += 1;
                            p.total_us += dur;
                        }
                        None => totals.push(PhaseSummary {
                            cat: cat.to_string(),
                            name: label,
                            count: 1,
                            total_us: dur,
                        }),
                    }
                }
                EventKind::Instant | EventKind::Counter => {}
            }
        }
        totals.sort_by_key(|p| std::cmp::Reverse(p.total_us));
        totals
    }

    /// Serializes to Chrome trace-event JSON (the array format).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 2);
        out.push('[');
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            out.push_str(&escape(&e.name));
            out.push_str("\",\"cat\":\"");
            out.push_str(&escape(e.cat));
            out.push_str("\",\"ph\":\"");
            out.push_str(match e.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            });
            out.push_str("\",\"ts\":");
            out.push_str(&e.ts_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&e.tid.to_string());
            if matches!(e.kind, EventKind::Instant) {
                // Thread-scoped instant; without a scope Chrome defaults to
                // "t" but Perfetto wants it explicit.
                out.push_str(",\"s\":\"t\"");
            }
            if !e.args.is_empty() || matches!(e.kind, EventKind::Counter) {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    push_f64(&mut out, *v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// `clause:17` → `clause:*`: per-item span names share one summary row.
fn collapse_label(name: &str) -> String {
    match name.rsplit_once(':') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => {
            format!("{head}:*")
        }
        _ => name.to_string(),
    }
}

fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(kind: EventKind, name: &'static str, ts: u64) -> Event {
        Event {
            cat: "test",
            name: Cow::Borrowed(name),
            kind,
            ts_us: ts,
            tid: 7,
            args: Vec::new(),
        }
    }

    #[test]
    fn serializes_span_pair() {
        let mut c = Collector::new();
        c.events.push(ev(EventKind::Begin, "solve", 10));
        c.events.push(Event {
            args: vec![("nodes", 42.0)],
            ..ev(EventKind::Counter, "dd_nodes", 11)
        });
        c.events.push(ev(EventKind::End, "solve", 20));
        let json = c.to_chrome_trace();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"nodes\":42}"));
        assert!(json.contains("\"tid\":7"));
        assert_eq!(c.categories(), vec!["test"]);
    }

    #[test]
    fn phase_summary_pairs_and_collapses() {
        let mut c = Collector::new();
        c.events.push(ev(EventKind::Begin, "outer", 0));
        c.events.push(Event {
            name: Cow::Owned("clause:1".to_string()),
            ..ev(EventKind::Begin, "", 10)
        });
        c.events.push(Event {
            name: Cow::Owned("clause:1".to_string()),
            ..ev(EventKind::End, "", 15)
        });
        c.events.push(Event {
            name: Cow::Owned("clause:2".to_string()),
            ..ev(EventKind::Begin, "", 20)
        });
        c.events.push(Event {
            name: Cow::Owned("clause:2".to_string()),
            ..ev(EventKind::End, "", 27)
        });
        c.events.push(ev(EventKind::End, "outer", 100));
        let summary = c.phase_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "outer");
        assert_eq!(summary[0].total_us, 100);
        assert_eq!(summary[1].name, "clause:*");
        assert_eq!(summary[1].count, 2);
        assert_eq!(summary[1].total_us, 12);
    }

    #[test]
    fn escapes_names() {
        let mut c = Collector::new();
        c.events.push(Event {
            cat: "test",
            name: Cow::Owned("job \"a\\b\"".to_string()),
            kind: EventKind::Instant,
            ts_us: 0,
            tid: 1,
            args: Vec::new(),
        });
        let json = c.to_chrome_trace();
        assert!(json.contains(r#"job \"a\\b\""#));
        assert!(json.contains("\"s\":\"t\""));
    }
}
