//! Schema tests for the machine-readable BENCH artifacts.
//!
//! CI uploads `BENCH_enumerators.json`, `BENCH_fault_tolerance.json` and
//! `BENCH_gate.json`; downstream tooling (the perf-regression gate,
//! plotting scripts) parses them without serde. These tests generate each
//! artifact in-process through the same writers the `tables` binary uses
//! — `BatchReport::to_json` for the engine batches, `gate::to_json` for
//! the perf gate — then parse them back with `veriqec_obs::json` and
//! assert the keys and invariants the consumers rely on.

use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{faulty_memory_scenario, memory_scenario, ErrorModel};
use veriqec::tasks::build_problem;
use veriqec_bench::gate::{to_json, Row};
use veriqec_codes::{five_qubit, repetition, rotated_surface, steane};
use veriqec_obs::json::Json;
use veriqec_sat::SolverConfig;

/// Every engine batch shares this envelope.
fn check_envelope(doc: &Json) -> Vec<Json> {
    assert!(doc.get("wall_time_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(doc.get("workers").unwrap().as_f64().unwrap() >= 1.0);
    let jobs = doc.get("jobs").unwrap().as_arr().unwrap();
    assert!(!jobs.is_empty(), "batch report must list its jobs");
    for job in jobs {
        assert!(job.get("name").unwrap().as_str().is_some());
        assert!(job.get("outcome").unwrap().as_str().is_some());
        assert!(job.get("busy_ms").unwrap().as_f64().unwrap() >= 0.0);
        // Queue wait is measured from enqueue to first worker claim and is
        // reported separately from busy time (busy excludes it).
        assert!(job.get("queue_wait_ms").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("subtasks").unwrap().as_f64().unwrap() >= 0.0);
        // Solver-statistics block: the clause-database counters added with
        // the arena rewrite ride along on every job.
        assert!(job.get("minimized_lits").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("gc_runs").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("arena_bytes").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("mean_lbd").unwrap().as_f64().unwrap() >= 0.0);
        // Clause-sharing counters of raced correction jobs (zero for every
        // other kind).
        assert!(job.get("exported").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("imported").unwrap().as_f64().unwrap() >= 0.0);
        // Gauss-Jordan counters: matrix rows (a gauge), and the literals
        // and conflicts the passes found (zero for a job without rows).
        for key in ["gauss_rows", "gauss_propagations", "gauss_conflicts"] {
            assert!(job.get(key).unwrap().as_f64().unwrap() >= 0.0, "{key}");
        }
    }
    jobs.to_vec()
}

#[test]
fn enumerators_report_has_counts_matching_group_theory() {
    // The same shape `tables enumerators` writes, on the CI-cheap codes.
    let codes = [five_qubit(), steane()];
    let jobs: Vec<Job> = codes
        .iter()
        .map(|code| Job::count(code.name().to_string(), code.clone()))
        .collect();
    let batch = Engine::new(EngineConfig::default()).run(jobs);
    assert!(batch.incomplete_jobs_with_reasons().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs.len(), codes.len());
    for (code, job) in codes.iter().zip(&jobs) {
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("enumerator"));
        // Counting jobs carry the decision-diagram block: allocation and
        // cache counters plus the memory-management telemetry added with
        // the packed-arena engine and the streaming count.
        assert!(job.get("dd_nodes").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_peak_nodes").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_cache_lookups").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_cache_hits").unwrap().as_f64().unwrap() >= 0.0);
        let hit_rate = job.get("dd_hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(job.get("dd_probe_len").unwrap().as_f64().unwrap() >= 0.0);
        let load = job.get("dd_load_factor").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&load));
        assert!(job.get("dd_gc_runs").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("dd_gc_reclaimed").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("dd_arena_bytes").unwrap().as_f64().unwrap() > 0.0);
        assert!(job.get("dd_count_peak_bytes").unwrap().as_f64().unwrap() > 0.0);
        let min_weight = job.get("min_weight").unwrap().as_f64().unwrap() as usize;
        assert_eq!(Some(min_weight), code.claimed_distance());
        let coeffs = job.get("coefficients").unwrap().as_arr().unwrap();
        assert_eq!(coeffs.len(), code.n() + 1);
        // Coefficients below the distance vanish; the full enumerator sums
        // to the group-theoretic failure total 2^(n+k) − 2^(n−k).
        for c in &coeffs[..min_weight] {
            assert_eq!(c.as_f64(), Some(0.0));
        }
        let total: f64 = coeffs.iter().map(|c| c.as_f64().unwrap()).sum();
        let (n, k) = (code.n() as u32, code.k() as u32);
        let expected = ((1u128 << (n + k)) - (1u128 << (n - k))) as f64;
        assert_eq!(total, expected, "{}", code.name());
    }
}

#[test]
fn raced_correction_report_carries_sharing_counters() {
    // A correction job raced by two workers, as `tables quick` and the
    // fig4 batch run them: the report names the racers it started and the
    // clauses they exchanged.
    let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
    let batch = Engine::new(EngineConfig {
        workers: 2,
        solver: SolverConfig::default(),
    })
    .run(vec![Job::correction(
        "surface3_t1",
        build_problem(&scenario, 1, vec![]),
        scenario.error_vars.clone(),
        SplitConfig::default(),
    )]);
    assert!(batch.incomplete_jobs_with_reasons().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs[0].get("outcome").unwrap().as_str(), Some("verified"));
    let racers = jobs[0].get("subtasks").unwrap().as_f64().unwrap();
    assert!((1.0..=2.0).contains(&racers), "{racers} racers");
    // With two racers, every clause one imports is one the other exported.
    let exported = jobs[0].get("exported").unwrap().as_f64().unwrap();
    let imported = jobs[0].get("imported").unwrap().as_f64().unwrap();
    assert!(
        imported <= exported,
        "imported {imported} > exported {exported}"
    );
    // The guard and decoder rows reach every racer's Gauss-Jordan matrix.
    assert!(jobs[0].get("gauss_rows").unwrap().as_f64().unwrap() > 0.0);
    let md = batch.to_markdown();
    assert!(md.contains(" exported | imported |"));
}

#[test]
fn fault_tolerance_report_exposes_the_frontier_grid() {
    // One cheap frontier job, exactly as `tables fault_tolerance --quick`
    // runs them: repetition-3 with a single extraction round.
    let scenario = faulty_memory_scenario(&repetition(3), ErrorModel::XErrors, 1);
    let batch = Engine::new(EngineConfig::default()).run(vec![Job::fault_tolerance(
        "repetition_3_r1",
        &scenario,
        1,
        1,
    )]);
    assert!(batch.incomplete_jobs_with_reasons().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs[0].get("outcome").unwrap().as_str(), Some("frontier"));
    let points = jobs[0].get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 4, "full 2x2 (t_data, t_meas) grid");
    for p in points {
        assert!(p.get("t_data").unwrap().as_f64().unwrap() <= 1.0);
        assert!(p.get("t_meas").unwrap().as_f64().unwrap() <= 1.0);
        // Every grid point must carry a verdict (else the job would have
        // been flagged incomplete above).
        assert!(p.get("correctable").unwrap().as_bool().is_some());
    }
    // The degenerate budgets are always correctable.
    let verdict = |td: f64, tm: f64| {
        points
            .iter()
            .find(|p| {
                p.get("t_data").unwrap().as_f64() == Some(td)
                    && p.get("t_meas").unwrap().as_f64() == Some(tm)
            })
            .and_then(|p| p.get("correctable").unwrap().as_bool())
    };
    assert_eq!(verdict(0.0, 0.0), Some(true));
    assert_eq!(verdict(1.0, 0.0), Some(true));
}

#[test]
fn cancelled_before_claim_jobs_report_finite_queue_wait() {
    use std::sync::atomic::Ordering;

    // Cancel the batch before any worker can claim a job: every job's
    // internal queue-wait stays `None`, and this pins what the reports
    // emit for that case — a finite `queue_wait_ms` (the whole batch
    // wait), never a NaN or a missing field.
    let engine = Engine::new(EngineConfig::default());
    engine.cancel_flag().store(true, Ordering::Relaxed);
    let batch = engine.run(vec![
        Job::distance("precancelled_distance", steane(), 3),
        Job::detection("precancelled_detection", five_qubit(), 3),
    ]);

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    // The shared envelope already requires queue_wait_ms to be present and
    // non-negative on every job.
    let jobs = check_envelope(&doc);
    assert_eq!(jobs.len(), 2);
    for job in &jobs {
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("cancelled"));
        assert_eq!(job.get("reason").unwrap().as_str(), Some("cancelled"));
        let qw = job.get("queue_wait_ms").unwrap().as_f64().unwrap();
        assert!(qw.is_finite() && qw >= 0.0, "queue_wait_ms was {qw}");
        // Unclaimed jobs burned no worker time and issued no subtasks.
        assert_eq!(job.get("subtasks").unwrap().as_f64(), Some(0.0));
        assert_eq!(job.get("busy_ms").unwrap().as_f64(), Some(0.0));
    }

    // The markdown rendering rows the same jobs as cancelled, with a
    // rendered (non-NaN) queue column.
    let md = batch.to_markdown();
    assert!(md.contains("| precancelled_distance | cancelled | 0 |"));
    assert!(md.contains("| precancelled_detection | cancelled | 0 |"));
    assert!(!md.contains("NaN"));
}

/// Writes `rows` as `BENCH_gate.json` through the writer `tables gate`
/// uses, parses it back, and checks the envelope and that every row keeps
/// its fields and the gate's join key is unique.
fn assert_round_trips(rows: &[Row]) {
    let doc = Json::parse(&to_json(true, rows)).expect("gate report is valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let parsed = doc.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(parsed.len(), rows.len());
    for (row, json) in rows.iter().zip(parsed) {
        let text = |key| json.get(key).unwrap().as_str().unwrap();
        assert_eq!(text("layer"), row.layer);
        assert_eq!(text("workload"), row.workload);
        assert_eq!(text("metric"), row.metric);
        assert_eq!(text("unit"), row.unit);
        assert_eq!(json.get("value").unwrap().as_f64(), Some(row.value));
    }
    // The gate's join key: (layer, workload, metric) is unique.
    let mut keys: Vec<(&str, &str, &str)> = rows
        .iter()
        .map(|r| (r.layer, &*r.workload, r.metric))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), rows.len());
}

#[test]
fn gate_report_matches_the_gate_schema() {
    // The writer `tables gate` uses, on representative rows of every layer
    // — the measurement itself is covered by the crate's own tests; this
    // pins the artifact schema that `bench_baselines.json` and the CI gate
    // join against.
    assert_round_trips(&[
        Row::new("kernels", "xor_chain_d5", "median_ns", 851.5, "ns"),
        Row::new("kernels", "frame_batch_d5", "speedup", 60.0, "x"),
        Row::new("solver", "php_7_6", "wall_ms", 4.9, "ms"),
        Row::new("solver", "aggregate", "props_per_sec", 3.6e6, "1/s"),
        Row::new("dd", "five-qubit [[5,1,3]]", "peak_nodes", 8857.0, "count"),
        Row::new("dd", "five-qubit [[5,1,3]]", "hit_rate", 0.18, "frac"),
    ]);
}

#[test]
fn kernels_report_matches_the_gate_schema() {
    // The kernel layer's rows: median ns and sample count per kernel, and
    // the frame-batch speedup that the 10x floor gates.
    assert_round_trips(&[
        Row::new("kernels", "xor_chain_d5", "median_ns", 51234.5, "ns"),
        Row::new("kernels", "xor_chain_d5", "samples", 24.0, "count"),
        Row::new("kernels", "frame_batch_d5", "median_ns", 87.2, "ns"),
        Row::new("kernels", "frame_batch_d5", "samples", 24.0, "count"),
        Row::new("kernels", "frame_batch_d5", "speedup", 412.0, "x"),
    ]);
}

#[test]
fn solver_report_matches_the_gate_schema() {
    // The solver layer's rows: five metrics per instance, and both
    // aggregate throughputs (props/s is the one the 1e6/s floor gates).
    let instance = |metric, value, unit| Row::new("solver", "php_7_6", metric, value, unit);
    assert_round_trips(&[
        instance("wall_ms", 3.2, "ms"),
        instance("propagations", 120_000.0, "count"),
        instance("conflicts", 4_000.0, "count"),
        instance("props_per_sec", 3.75e7, "1/s"),
        instance("mean_lbd", 5.0, "lbd"),
        Row::new("solver", "aggregate", "props_per_sec", 3.75e7, "1/s"),
        Row::new("solver", "aggregate", "conflicts_per_sec", 1.25e6, "1/s"),
    ]);
}
