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
    // and counts (count job).
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

    // Every encode closes with the size of the formula it built, counted
    // as `VcStats` counts it, and with what the asserted parity rows left
    // of the goal: of Steane's seven targets, the six stabilizer targets
    // are sums of the guard and decoder rows, so only the logical one is
    // reified.
    let encodes: Vec<_> = collector
        .events()
        .iter()
        .filter(|e| (e.cat, &*e.name, e.kind) == ("vcgen", "encode", veriqec_obs::EventKind::End))
        .collect();
    assert!(!encodes.is_empty(), "the correction job must encode");
    for e in &encodes {
        let keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["sat_vars", "clauses", "targets", "decided"]);
        assert!(e.args.iter().all(|&(_, v)| v > 0.0), "{e:?}");
        assert!(e.args.contains(&("targets", 1.0)), "{e:?}");
        assert!(e.args.contains(&("decided", 6.0)), "{e:?}");
    }

    // Every diagram compile closes with the size of what it conjoined, so
    // a trace shows whether a slow count was a blown-up diagram.
    let compiles: Vec<_> = collector
        .events()
        .iter()
        .filter(|e| (e.cat, &*e.name, e.kind) == ("dd", "compile", veriqec_obs::EventKind::End))
        .collect();
    assert!(!compiles.is_empty(), "the count job must compile");
    for e in &compiles {
        let keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["conjuncts", "vars", "peak_nodes", "gc_runs"]);
        for &(k, v) in &e.args {
            assert!(if k == "gc_runs" { v >= 0.0 } else { v > 0.0 }, "{e:?}");
        }
    }

    // Every count closes with the nodes it built, the width of the
    // enumerator and the most polynomial bytes it held at once, so a trace
    // shows what a slow or large count streamed through.
    let counts: Vec<_> = collector
        .events()
        .iter()
        .filter(|e| (e.cat, &*e.name, e.kind) == ("dd", "count", veriqec_obs::EventKind::End))
        .collect();
    assert!(!counts.is_empty(), "the count job must count");
    for e in &counts {
        let keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["nodes", "width", "peak_bytes"]);
        assert!(e.args.iter().all(|&(_, v)| v > 0.0), "{e:?}");
        // The five-qubit enumerator runs over weights 0..=5.
        assert!(e.args.contains(&("width", 6.0)), "{e:?}");
    }

    // The phase summary the batch reports render must see the same spans.
    let phases = collector.phase_summary();
    assert!(!phases.is_empty());
    assert!(
        phases.iter().any(|p| p.cat == "sat" && p.name == "solve"),
        "phase summary must aggregate solver spans: {phases:?}"
    );
}
