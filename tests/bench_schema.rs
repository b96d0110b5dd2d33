//! Schema tests for the machine-readable BENCH artifacts.
//!
//! CI uploads `BENCH_enumerators.json`, `BENCH_fault_tolerance.json` and
//! `BENCH_kernels.json`; downstream tooling (the perf-regression gate,
//! plotting scripts) parses them without serde. These tests generate each
//! artifact in-process through the same writers the `tables` binary uses
//! — `BatchReport::to_json` for the engine batches, `KernelsReport::to_json`
//! for the kernel gate — then parse them back with `veriqec_bench::json`
//! and assert the keys and invariants the consumers rely on.

use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{faulty_memory_scenario, memory_scenario, ErrorModel};
use veriqec::tasks::build_problem;
use veriqec_bench::json::Json;
use veriqec_bench::kernels::{KernelsReport, Metric};
use veriqec_bench::solver_bench::{SolverMetric, SolverReport};
use veriqec_codes::{five_qubit, repetition, rotated_surface, steane};
use veriqec_sat::{SolverConfig, SolverStats};

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
    assert!(batch.incomplete_jobs().is_empty());

    let doc = Json::parse(&batch.to_json()).expect("engine emits valid JSON");
    let jobs = check_envelope(&doc);
    assert_eq!(jobs.len(), codes.len());
    for (code, job) in codes.iter().zip(&jobs) {
        assert_eq!(job.get("outcome").unwrap().as_str(), Some("enumerator"));
        // Counting jobs carry the decision-diagram block: allocation and
        // cache counters plus the memory-management telemetry added with
        // the packed-arena engine.
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
        assert!(job.get("dd_reorder_swaps").unwrap().as_f64().unwrap() >= 0.0);
        assert!(job.get("dd_arena_bytes").unwrap().as_f64().unwrap() > 0.0);
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
    assert!(batch.incomplete_jobs().is_empty());

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
    assert!(batch.incomplete_jobs().is_empty());

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

#[test]
fn kernels_report_matches_the_gate_schema() {
    // The writer the `kernels` mode uses, on representative metrics — the
    // measurement itself is covered by the bench targets; this pins the
    // artifact schema the CI gate and baseline file depend on.
    let report = KernelsReport {
        quick: true,
        metrics: vec![
            Metric {
                name: "xor_chain_d5".into(),
                median_ns: 51234.5,
                samples: 24,
            },
            Metric {
                name: "frame_batch_d5".into(),
                median_ns: 87.2,
                samples: 24,
            },
        ],
        frame_batch_speedup: 412.0,
    };
    let doc = Json::parse(&report.to_json()).expect("kernels report is valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("veriqec_kernels_v1")
    );
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    assert!(doc.get("frame_batch_speedup").unwrap().as_f64().unwrap() >= 10.0);
    let metrics = doc.get("metrics").unwrap().as_arr().unwrap();
    assert!(!metrics.is_empty());
    for m in metrics {
        assert!(m.get("name").unwrap().as_str().is_some());
        assert!(m.get("median_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("samples").unwrap().as_f64().unwrap() > 0.0);
    }
    // The gate's join key: metric names are unique.
    let mut names: Vec<&str> = metrics
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), metrics.len());
}

#[test]
fn solver_report_matches_the_gate_schema() {
    // The writer `tables solver` uses, on a representative instance — the
    // measurement itself is covered by the crate's own tests; this pins the
    // artifact schema that `bench_baselines.json` and the CI solver gate
    // join against.
    let report = SolverReport {
        quick: true,
        metrics: vec![SolverMetric {
            name: "php_7_6".into(),
            verdict: "unsat".into(),
            wall_ms: 3.2,
            stats: SolverStats {
                propagations: 120_000,
                conflicts: 4_000,
                learned: 4_000,
                lbd_sum: 20_000,
                ..SolverStats::default()
            },
        }],
        props_per_sec: 3.75e7,
        conflicts_per_sec: 1.25e6,
    };
    let doc = Json::parse(&report.to_json()).expect("solver report is valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("veriqec_solver_v1")
    );
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    assert!(doc.get("props_per_sec").unwrap().as_f64().unwrap() > 0.0);
    assert!(doc.get("conflicts_per_sec").unwrap().as_f64().unwrap() > 0.0);
    let instances = doc.get("instances").unwrap().as_arr().unwrap();
    assert!(!instances.is_empty());
    for m in instances {
        // The gate's join key plus the fields plotting scripts consume.
        assert!(m.get("name").unwrap().as_str().is_some());
        assert!(m.get("verdict").unwrap().as_str().is_some());
        assert!(m.get("wall_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("propagations").unwrap().as_f64().unwrap() >= 0.0);
        assert!(m.get("conflicts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(m.get("props_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("mean_lbd").unwrap().as_f64().unwrap() >= 0.0);
    }
    let mut names: Vec<&str> = instances
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), instances.len());
}
