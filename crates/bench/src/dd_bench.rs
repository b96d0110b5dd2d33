//! The decision-diagram layer of the perf gate ([`crate::gate`]).
//!
//! A pinned set of codes compiled through the same [`FailureEnumerator`]
//! sessions the engine's counting jobs use — full projected compilation
//! plus the stratified count — each measured as the median wall time of a
//! session, with its node traffic (allocations, peak and final live
//! nodes), apply-cache hit rate, and memory-management telemetry (GC runs
//! and reclaimed nodes, sifting swaps, arena bytes). Every run re-asserts
//! the enumerator coefficients against the group-theoretic failure total
//! and the claimed distance, and the carbon \[\[12,2,4\]\] coefficients
//! bit-for-bit, so the perf gate can never green-light a fast-but-wrong
//! kernel.

use veriqec::enumerator::FailureEnumerator;
use veriqec_codes::{carbon_12_2_4, five_qubit, rotated_surface, steane, toric, StabilizerCode};
use veriqec_dd::{CompileConfig, DdStats};

use crate::gate::{median_run, Row};

/// The carbon code's failure weight enumerator, pinned from the first
/// release of the counting backend. The dd gate re-asserts it on every run:
/// any storage, GC, or reordering change that perturbs a single coefficient
/// fails the build before any timing is compared.
pub const CARBON_COEFFICIENTS: [u128; 13] =
    [0, 0, 0, 0, 41, 199, 609, 1539, 2991, 4005, 3547, 1937, 492];

/// Compiles and counts one code `runs` times, keeping the median-wall run,
/// and re-asserts the coefficients: distance, group-theoretic total, and —
/// when `expect` pins them — every coefficient bit-for-bit.
fn measure(code: &StabilizerCode, runs: usize, expect: Option<&[u128]>) -> Vec<Row> {
    let (secs, (fe, coefficients)) = median_run(runs, || {
        let mut fe = FailureEnumerator::new(code, &CompileConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", code.name()));
        let coefficients = fe.coefficients().to_vec();
        (fe, coefficients)
    });
    let stats = fe.dd_stats();
    let d = coefficients
        .iter()
        .position(|&c| c > 0)
        .expect("every code has failures");
    assert_eq!(
        Some(d),
        code.claimed_distance(),
        "{}: enumerator distance disagrees with the claimed distance",
        code.name()
    );
    let (n, k) = (code.n() as u32, code.k() as u32);
    assert_eq!(
        coefficients.iter().sum::<u128>(),
        (1u128 << (n + k)) - (1u128 << (n - k)),
        "{}: total failures disagree with group counting",
        code.name()
    );
    if let Some(expect) = expect {
        assert_eq!(
            coefficients,
            expect,
            "{}: coefficients drifted from the pinned enumerator",
            code.name()
        );
    }
    stats_rows(code.name(), secs * 1e3, &stats, fe.node_count())
}

/// The rows of one measured code: its median session wall time in ms, its
/// diagram telemetry and its final live node count.
fn stats_rows(name: &str, wall_ms: f64, stats: &DdStats, final_nodes: usize) -> Vec<Row> {
    let row = |metric, value, unit| Row::new("dd", name, metric, value, unit);
    vec![
        row("wall_ms", wall_ms, "ms"),
        row("nodes", stats.nodes as f64, "count"),
        row("peak_nodes", stats.peak_nodes as f64, "count"),
        row("final_nodes", final_nodes as f64, "count"),
        row("hit_rate", stats.cache_hit_rate(), "frac"),
        row("gc_runs", stats.gc_runs as f64, "count"),
        row("gc_reclaimed", stats.gc_reclaimed as f64, "count"),
        row("reorder_swaps", stats.reorder_swaps as f64, "count"),
        row("arena_bytes", stats.arena_bytes as f64, "bytes"),
    ]
}

/// Measures every pinned code. `quick` is the CI mode: one timed run per
/// code over the cheap codes plus carbon \[\[12,2,4\]\] (the headline
/// instance the packed-arena engine was built for); the full mode adds the
/// larger toric and surface diagrams and takes medians of three.
pub(crate) fn rows(quick: bool) -> Vec<Row> {
    let runs = if quick { 1 } else { 3 };
    let mut codes = vec![
        (five_qubit(), None),
        (steane(), None),
        (rotated_surface(3), None),
        (carbon_12_2_4(), Some(&CARBON_COEFFICIENTS[..])),
    ];
    if !quick {
        codes.extend([(toric(3), None), (rotated_surface(5), None)]);
    }
    codes
        .iter()
        .flat_map(|(code, expect)| measure(code, runs, *expect))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, parse_baseline, to_json};
    use veriqec_obs::json::Json;

    fn code_rows(name: &str, wall_ms: f64, peak_nodes: u64) -> Vec<Row> {
        let stats = DdStats {
            nodes: peak_nodes * 2,
            peak_nodes,
            cache_lookups: 1000,
            cache_hits: 400,
            gc_runs: 2,
            gc_reclaimed: 500,
            reorder_swaps: 30,
            arena_bytes: 12_000,
            ..DdStats::default()
        };
        stats_rows(name, wall_ms, &stats, peak_nodes as usize / 2)
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let doc = Json::parse(&to_json(true, &code_rows("steane", 2.5, 4_000))).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let parsed = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(parsed.len(), 9);
        let value = |metric: &str| {
            let row = parsed
                .iter()
                .find(|r| r.get("metric").unwrap().as_str() == Some(metric))
                .unwrap_or_else(|| panic!("no {metric} row"));
            assert_eq!(row.get("layer").unwrap().as_str(), Some("dd"));
            assert_eq!(row.get("workload").unwrap().as_str(), Some("steane"));
            row.get("value").unwrap().as_f64().unwrap()
        };
        assert_eq!(value("wall_ms"), 2.5);
        assert_eq!(value("nodes"), 8_000.0);
        assert_eq!(value("peak_nodes"), 4_000.0);
        assert_eq!(value("final_nodes"), 2_000.0);
        assert_eq!(value("hit_rate"), 0.4);
        assert_eq!(value("gc_runs"), 2.0);
        assert_eq!(value("gc_reclaimed"), 500.0);
        assert_eq!(value("reorder_swaps"), 30.0);
        assert_eq!(value("arena_bytes"), 12_000.0);
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let measured: Vec<Row> = [
            code_rows("fast", 2.0, 1_000),
            code_rows("slow", 100.0, 1_000),
            code_rows("bloated", 1.0, 90_000),
        ]
        .concat();
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"dd","workload":"fast","metric":"wall_ms","value":1.0},
                {"layer":"dd","workload":"fast","metric":"peak_nodes","value":800},
                {"layer":"dd","workload":"slow","metric":"wall_ms","value":10.0},
                {"layer":"dd","workload":"slow","metric":"peak_nodes","value":800},
                {"layer":"dd","workload":"bloated","metric":"wall_ms","value":1.0},
                {"layer":"dd","workload":"bloated","metric":"peak_nodes","value":10000},
                {"layer":"dd","workload":"gone","metric":"wall_ms","value":5.0},
                {"layer":"dd","workload":"gone","metric":"peak_nodes","value":100}
            ]}"#,
        )
        .unwrap();
        let regs = check(&measured, &baseline);
        // 'fast' is 2x the wall baseline — inside the 3x tolerance. 'slow'
        // is 10x on wall, 'bloated' 9x on peak nodes, 'gone' unmeasured
        // (both of its rows).
        assert_eq!(regs.len(), 4, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("slow/wall_ms")));
        assert!(regs.iter().any(|r| r.contains("bloated/peak_nodes")));
        assert_eq!(regs.iter().filter(|r| r.contains("gone")).count(), 2);
    }

    #[test]
    fn missing_dd_section_gates_nothing() {
        // A baseline without dd rows leaves every dd measurement ungated,
        // however large: measured rows without a baseline are only recorded.
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"kernels","workload":"xor_chain_d5","metric":"median_ns","value":1500.0}
            ]}"#,
        )
        .unwrap();
        let mut measured = code_rows("steane", 1.0e6, 1 << 40);
        measured.push(Row::new(
            "kernels",
            "xor_chain_d5",
            "median_ns",
            900.0,
            "ns",
        ));
        assert!(check(&measured, &baseline).is_empty());
    }

    #[test]
    fn cheap_codes_measure_and_pin_their_enumerators() {
        // The real measurement path on the cheapest code: coefficient
        // re-assertion (distance + group total) runs inside `measure`.
        let rows = measure(&five_qubit(), 1, None);
        let value = |metric| rows.iter().find(|r| r.metric == metric).unwrap().value;
        assert!(value("wall_ms") > 0.0);
        assert!(value("nodes") > 0.0);
        assert!(value("final_nodes") > 0.0);
        assert!(rows.iter().all(|r| r.workload == "five-qubit [[5,1,3]]"));
    }
}
