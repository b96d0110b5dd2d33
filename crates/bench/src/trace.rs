//! Schema validation for Chrome trace-event artifacts.
//!
//! The `tables --trace` path validates its own output in-process before
//! writing it (CI fails on a malformed trace rather than uploading one),
//! and the trace schema tests reuse the same checker. Validated here:
//! the artifact is one JSON array; every event carries `name`/`cat`/`ph`/
//! `ts`/`pid`/`tid`; timestamps are monotonic per `tid` (per-thread event
//! order survived buffering); and `B`/`E` duration events pair up like
//! brackets on every thread — an unbalanced stream renders misleadingly in
//! Perfetto, so it is rejected outright.

use std::collections::HashMap;
use veriqec_obs::json::Json;

/// What a valid trace contained, for reporting and for gating on coverage
/// (e.g. "the enumerators smoke trace must span ≥ 4 crates").
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Distinct `tid`s seen.
    pub tids: usize,
    /// Distinct categories seen, in first-appearance order.
    pub categories: Vec<String>,
}

/// Validates `text` as a Chrome trace-event JSON array. Returns a summary
/// of the stream, or the first schema violation found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .as_arr()
        .ok_or_else(|| "top level must be a JSON array".to_string())?;
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut categories: Vec<String> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let field = |key: &str| {
            e.get(key)
                .ok_or_else(|| format!("event {i}: missing \"{key}\""))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"name\" must be a string"))?;
        let cat = field("cat")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"cat\" must be a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" must be a string"))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: \"ts\" must be a number"))?;
        field("pid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: \"pid\" must be a number"))?;
        let tid = field("tid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: \"tid\" must be a number"))?
            as u64;
        if !categories.iter().any(|c| c == cat) {
            categories.push(cat.to_string());
        }
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} < previous ts {prev} on tid {tid} (non-monotonic)"
            ));
        }
        *prev = ts;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let popped = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("event {i}: E \"{name}\" on tid {tid} with no open B")
                })?;
                if popped != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" on tid {tid} closes B \"{popped}\" (mismatched pair)"
                    ));
                }
            }
            "i" | "C" => {}
            other => return Err(format!("event {i}: unknown ph \"{other}\"")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "tid {tid}: span \"{open}\" opened but never closed ({} left open)",
                stack.len()
            ));
        }
    }
    Ok(TraceSummary {
        events: events.len(),
        tids: last_ts.len(),
        categories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_balanced_trace() {
        let text = r#"[
{"name":"solve","cat":"sat","ph":"B","ts":10,"pid":1,"tid":2},
{"name":"mark","cat":"sat","ph":"i","ts":12,"pid":1,"tid":2,"s":"t"},
{"name":"solve","cat":"sat","ph":"E","ts":20,"pid":1,"tid":2},
{"name":"nodes","cat":"dd","ph":"C","ts":21,"pid":1,"tid":3,"args":{"value":5}}
]"#;
        let summary = validate_chrome_trace(text).expect("valid");
        assert_eq!(summary.events, 4);
        assert_eq!(summary.tids, 2);
        assert_eq!(summary.categories, vec!["sat", "dd"]);
    }

    #[test]
    fn rejects_schema_violations() {
        // Not an array.
        assert!(validate_chrome_trace("{}").is_err());
        // Missing cat.
        assert!(
            validate_chrome_trace(r#"[{"name":"x","ph":"i","ts":1,"pid":1,"tid":1}]"#).is_err()
        );
        // Non-monotonic ts on one tid.
        let err = validate_chrome_trace(
            r#"[
{"name":"a","cat":"t","ph":"i","ts":10,"pid":1,"tid":1},
{"name":"b","cat":"t","ph":"i","ts":5,"pid":1,"tid":1}
]"#,
        )
        .unwrap_err();
        assert!(err.contains("non-monotonic"), "{err}");
        // E without B.
        let err =
            validate_chrome_trace(r#"[{"name":"a","cat":"t","ph":"E","ts":1,"pid":1,"tid":1}]"#)
                .unwrap_err();
        assert!(err.contains("no open B"), "{err}");
        // B left open.
        let err =
            validate_chrome_trace(r#"[{"name":"a","cat":"t","ph":"B","ts":1,"pid":1,"tid":1}]"#)
                .unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        // Interleaved tids stay independent: tid 2's ts may be lower.
        let ok = validate_chrome_trace(
            r#"[
{"name":"a","cat":"t","ph":"B","ts":100,"pid":1,"tid":1},
{"name":"c","cat":"t","ph":"i","ts":1,"pid":1,"tid":2},
{"name":"a","cat":"t","ph":"E","ts":110,"pid":1,"tid":1}
]"#,
        );
        assert!(ok.is_ok());
    }
}
