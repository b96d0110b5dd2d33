//! End-to-end schema test for the Chrome trace-event export.
//!
//! Runs a small heterogeneous engine batch with tracing enabled — the same
//! path `tables --trace` exercises — then serializes the collected events
//! and validates the artifact with the same checker the binary uses
//! in-process: valid JSON array, required keys per event, per-`tid`
//! monotonic timestamps, balanced `B`/`E` pairs per thread. One test
//! function on purpose: the emission flag is process-global, so intra-
//! binary test parallelism would interleave unrelated event streams.

use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::build_problem;
use veriqec_bench::trace::validate_chrome_trace;
use veriqec_codes::{five_qubit, steane};

#[test]
fn engine_batch_trace_satisfies_chrome_schema() {
    let _ = veriqec_obs::drain(); // discard anything a prior run buffered
    veriqec_obs::set_enabled(true);

    let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
    let jobs = vec![
        Job::correction(
            "steane_t1",
            build_problem(&scenario, 1, vec![]),
            scenario.error_vars.clone(),
            SplitConfig::default(),
        ),
        Job::count("five_qubit_count", five_qubit()),
        Job::detection("five_qubit_dt3", five_qubit(), 3),
    ];
    let batch = Engine::new(EngineConfig::default()).run(jobs);
    veriqec_obs::set_enabled(false);
    assert!(batch.incomplete_jobs_with_reasons().is_empty());

    let mut collector = veriqec_obs::Collector::new();
    collector.drain();
    let json = collector.to_chrome_trace();
    let summary = validate_chrome_trace(&json).expect("trace must satisfy the Chrome schema");
    assert!(summary.events > 0, "tracing produced no events");

    // The batch crosses every instrumented layer: engine scheduling, vcgen
    // encode/query (correction job), smt checks, sat solves, dd compiles
    // (count job).
    for cat in ["engine", "vcgen", "smt", "sat", "dd"] {
        assert!(
            summary.categories.iter().any(|c| c == cat),
            "missing category {cat:?} (got {:?})",
            summary.categories
        );
    }

    // The correction job is a race: one engine/racer span per racer, each
    // closing with its index, whether it won and the clauses it shared —
    // and exactly one racer won.
    let racers: Vec<_> = collector
        .events()
        .iter()
        .filter(|e| (e.cat, &*e.name, e.kind) == ("engine", "racer", veriqec_obs::EventKind::End))
        .collect();
    assert!(
        !racers.is_empty(),
        "the correction job must emit racer spans"
    );
    for e in &racers {
        let keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["racer", "won", "exported", "imported"]);
    }
    let winners = racers
        .iter()
        .filter(|e| e.args.contains(&("won", 1.0)))
        .count();
    assert_eq!(winners, 1, "{racers:?}");
    assert!(json.contains("\"won\":1"));

    // The phase summary the batch reports render must see the same spans.
    let phases = collector.phase_summary();
    assert!(!phases.is_empty());
    assert!(
        phases.iter().any(|p| p.cat == "sat" && p.name == "solve"),
        "phase summary must aggregate solver spans: {phases:?}"
    );
}
