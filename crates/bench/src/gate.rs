//! The CI perf-regression gate: one row table, one baseline rule, one
//! checker.
//!
//! `tables gate [--quick] [--check <baseline.json>]` measures three layers
//! — the GF(2) and Pauli-frame kernels (`kernels.rs`), the CDCL solver
//! (`solver_bench.rs`) and the decision-diagram backend
//! ([`crate::dd_bench`]) — as [`Row`]s, writes them to `BENCH_gate.json`
//! ([`to_json`], schema `veriqec_gate_v1`), and with `--check` compares
//! them against the `rows` of the checked-in `bench_baselines.json`
//! ([`parse_baseline`], [`check`]).
//!
//! One rule covers every baseline row: a lower-is-better metric fails above
//! [`TOLERANCE`]× its baseline, a higher-is-better one (throughputs,
//! speedups and hit rates) below 1/[`TOLERANCE`] of it. The
//! tolerance is generous on purpose — shared CI runners are noisy, and the
//! gate is for hard regressions (an accidentally quadratic loop, a lost
//! fast path), not for single-digit-percent drift. A baseline row that no
//! measurement produced fails too, so a silently dropped workload cannot
//! pass; measured rows without a baseline are recorded but not gated (new
//! workloads land first, their baselines land with the measurement).

use std::time::Instant;

use veriqec_obs::json::{escape, Json};

/// The gate's tolerance factor (see the module docs).
pub const TOLERANCE: f64 = 3.0;

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The measured layer: `kernels`, `solver` or `dd`.
    pub layer: &'static str,
    /// The pinned workload, unique within its layer.
    pub workload: String,
    /// What was measured, e.g. `median_ns`, `wall_ms` or `peak_nodes`.
    pub metric: &'static str,
    /// The measurement.
    pub value: f64,
    /// Unit of `value`, e.g. `ns`, `ms`, `count` or `1/s`.
    pub unit: &'static str,
}

impl Row {
    /// A row of `layer`'s `workload`.
    pub fn new(
        layer: &'static str,
        workload: impl Into<String>,
        metric: &'static str,
        value: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            layer,
            workload: workload.into(),
            metric,
            value,
            unit,
        }
    }
}

/// Measures every layer. `quick` is the CI mode: fewer runs and the small
/// workloads only.
pub fn run_gate(quick: bool) -> Vec<Row> {
    let mut rows = crate::kernels::rows(quick);
    rows.extend(crate::solver_bench::rows(quick));
    rows.extend(crate::dd_bench::rows(quick));
    rows
}

/// Serializes the rows as `BENCH_gate.json` (no serde: the tree is
/// offline).
pub fn to_json(quick: bool, rows: &[Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"layer\":\"{}\",\"workload\":\"{}\",\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                r.layer,
                escape(&r.workload),
                r.metric,
                r.value,
                r.unit
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"veriqec_gate_v1\",\"quick\":{quick},\"rows\":[{}]}}",
        rows.join(",")
    )
}

/// True for metrics where bigger is better: throughputs, speedups and hit
/// rates. Every other metric is a cost.
fn higher_is_better(metric: &str) -> bool {
    matches!(
        metric,
        "speedup" | "props_per_sec" | "conflicts_per_sec" | "hit_rate"
    )
}

/// One checked-in baseline row of `bench_baselines.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Join key, with `workload` and `metric`, against the measured rows.
    layer: String,
    /// The pinned workload.
    workload: String,
    /// The gated metric.
    metric: String,
    /// The reference value the threshold derives from.
    value: f64,
}

impl Baseline {
    /// The gate's bound: the highest passing value of a cost, the lowest
    /// passing value of a [`higher_is_better`] metric.
    fn threshold(&self) -> f64 {
        if higher_is_better(&self.metric) {
            self.value / TOLERANCE
        } else {
            self.value * TOLERANCE
        }
    }
}

/// Parses a baseline document's `rows` (`{layer, workload, metric,
/// value}` each). Unparseable JSON, a missing or empty `rows` list and a
/// malformed row are all errors: a baseline that gates nothing must not
/// pass.
pub fn parse_baseline(text: &str) -> Result<Vec<Baseline>, String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no \"rows\" list")?;
    if entries.is_empty() {
        return Err("the \"rows\" list is empty".into());
    }
    entries
        .iter()
        .map(|entry| {
            let text = |key| entry.get(key).and_then(Json::as_str).map(String::from);
            match (
                text("layer"),
                text("workload"),
                text("metric"),
                entry.get("value").and_then(Json::as_f64),
            ) {
                (Some(layer), Some(workload), Some(metric), Some(value)) => Ok(Baseline {
                    layer,
                    workload,
                    metric,
                    value,
                }),
                _ => Err(format!("malformed baseline row: {entry:?}")),
            }
        })
        .collect()
}

/// The gate violations of `rows` against `baseline`, human-readable; empty
/// when the gate passes.
pub fn check(rows: &[Row], baseline: &[Baseline]) -> Vec<String> {
    baseline
        .iter()
        .filter_map(|b| {
            let key = format!("{}/{}/{}", b.layer, b.workload, b.metric);
            let Some(row) = rows
                .iter()
                .find(|r| r.layer == b.layer && r.workload == b.workload && r.metric == b.metric)
            else {
                return Some(format!("baseline row {key} was not measured"));
            };
            let bound = b.threshold();
            let (broken, relation) = if higher_is_better(&b.metric) {
                (row.value < bound, "below the floor")
            } else {
                (row.value > bound, "above the bound")
            };
            broken.then(|| {
                format!(
                    "{key}: {} {} is {relation} {} ({TOLERANCE}x tolerance on baseline {})",
                    fmt_value(row.value),
                    row.unit,
                    fmt_value(bound),
                    fmt_value(b.value)
                )
            })
        })
        .collect()
}

/// `value` for people: integers exactly, anything else to three decimals.
pub fn fmt_value(value: f64) -> String {
    if value.fract() == 0.0 {
        format!("{value}")
    } else {
        format!("{value:.3}")
    }
}

/// Runs `f` `runs` times and returns the median run's wall time in
/// seconds together with its output. Warm-up, where wanted, is the
/// caller's untimed first call.
pub(crate) fn median_run<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs > 0);
    let mut timed: Vec<(f64, T)> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            (t0.elapsed().as_secs_f64(), out)
        })
        .collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    timed.swap_remove(timed.len() / 2)
}

/// Deterministic xorshift, so every run measures an identical workload.
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    /// The next pseudo-random word.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_thresholds_are_pinned() {
        let baseline = parse_baseline(include_str!("../../../bench_baselines.json")).unwrap();
        let thresholds: Vec<(&str, &str, &str, f64)> = baseline
            .iter()
            .map(|b| {
                let bound = b.threshold();
                (&*b.layer, &*b.workload, &*b.metric, bound)
            })
            .collect();
        assert_eq!(
            thresholds,
            [
                ("kernels", "xor_chain_d5", "median_ns", 4_500.0),
                ("kernels", "branch_resolution_d5", "median_ns", 12_000.0),
                (
                    "kernels",
                    "stabilizer_elimination_d7",
                    "median_ns",
                    1_800_000.0
                ),
                ("kernels", "memory_wp_d9", "median_ns", 1_800_000.0),
                ("kernels", "cnot_wp_d9", "median_ns", 9_000_000.0),
                ("kernels", "frame_sequential_d5", "median_ns", 6_000.0),
                ("kernels", "frame_batch_d5", "median_ns", 180.0),
                ("kernels", "frame_batch_d5", "speedup", 10.0),
                ("solver", "php_7_6", "wall_ms", 36.0),
                ("solver", "rand3sat_n150", "wall_ms", 240.0),
                ("solver", "steane_distance", "wall_ms", 6.0),
                ("solver", "surface3_sweep_w2", "wall_ms", 30.0),
                ("solver", "surface5_proof", "wall_ms", 450.0),
                ("solver", "surface5_proof", "conflicts", 1_500.0),
                ("solver", "surface7_proof", "wall_ms", 900.0),
                ("solver", "surface7_proof", "conflicts", 4_500.0),
                ("solver", "surface9_proof", "wall_ms", 750.0),
                ("solver", "surface9_proof", "conflicts", 12_000.0),
                ("solver", "surface11_distance", "wall_ms", 450.0),
                ("solver", "surface11_distance", "conflicts", 9_000.0),
                ("solver", "aggregate", "props_per_sec", 1.0e6),
                ("dd", "five-qubit [[5,1,3]]", "wall_ms", 1.5),
                ("dd", "Steane [[7,1,3]]", "wall_ms", 4.5),
                ("dd", "rotated surface d=3", "wall_ms", 3.0),
                (
                    "dd",
                    "carbon-substitute [[12,2,4]] (searched)",
                    "wall_ms",
                    300.0
                ),
                ("dd", "five-qubit [[5,1,3]]", "peak_nodes", 2_700.0),
                ("dd", "Steane [[7,1,3]]", "peak_nodes", 7_800.0),
                ("dd", "rotated surface d=3", "peak_nodes", 7_500.0),
                (
                    "dd",
                    "carbon-substitute [[12,2,4]] (searched)",
                    "peak_nodes",
                    165_000.0
                ),
                (
                    "dd",
                    "carbon-substitute [[12,2,4]] (searched)",
                    "count_peak_bytes",
                    1_200_000.0
                ),
            ]
        );
    }

    #[test]
    fn checker_flags_each_failure_case() {
        // One baseline row per layer, each measured by one row.
        let baseline = r#"{"rows":[
            {"layer":"kernels","workload":"frame_batch_d5","metric":"speedup","value":30},
            {"layer":"solver","workload":"php_7_6","metric":"wall_ms","value":12},
            {"layer":"dd","workload":"steane","metric":"peak_nodes","value":18000}
        ]}"#;
        let healthy = || {
            vec![
                Row::new("kernels", "frame_batch_d5", "speedup", 25.0, "x"),
                Row::new("solver", "php_7_6", "wall_ms", 24.0, "ms"),
                Row::new("dd", "steane", "peak_nodes", 30_000.0, "count"),
            ]
        };
        let with = |i: usize, value: f64| {
            let mut rows = healthy();
            rows[i].value = value;
            rows
        };
        let gate = |text: &str, rows: &[Row]| match parse_baseline(text) {
            Err(e) => vec![e],
            Ok(b) => check(rows, &b),
        };
        let malformed = r#"{"rows":[{"layer":"dd","workload":"steane","metric":"wall_ms"}]}"#;
        let cases: Vec<(&str, &str, Vec<Row>, Option<&str>)> = vec![
            ("within tolerance", baseline, healthy(), None),
            ("10x over", baseline, with(1, 120.0), Some("php_7_6")),
            ("10x over", baseline, with(2, 180_000.0), Some("steane")),
            ("below floor", baseline, with(0, 9.0), Some("speedup")),
            (
                "unmeasured",
                baseline,
                healthy()[1..].to_vec(),
                Some("not measured"),
            ),
            ("malformed", malformed, healthy(), Some("malformed")),
            ("empty", r#"{"rows":[]}"#, healthy(), Some("empty")),
            ("no rows", r#"{"metrics":[]}"#, healthy(), Some("rows")),
            ("unparseable", r#"{"rows":"#, healthy(), Some("")),
        ];
        for (name, text, rows, expect) in cases {
            let violations = gate(text, &rows);
            match expect {
                None => assert!(violations.is_empty(), "{name}: {violations:?}"),
                Some(needle) => assert!(
                    violations.len() == 1 && violations[0].contains(needle),
                    "{name}: {violations:?}"
                ),
            }
        }
    }

    #[test]
    fn median_run_keeps_the_median_runs_output() {
        let mut calls = 0;
        let (secs, out) = median_run(5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert!(secs >= 0.0);
        assert!((1..=5).contains(&out));
    }
}
