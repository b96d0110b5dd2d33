//! Regression test: heartbeat/progress globals must reset between batches.
//!
//! A resident process (the `veriqec_serve` daemon, a notebook, a long
//! REPL) runs many engine batches in one process. The progress globals in
//! `veriqec_obs::heartbeat` are process-wide; before the engine called
//! `reset_progress` at batch start, the second batch inherited the first
//! batch's done counters and job totals, reporting a bogus jobs-done
//! fraction (e.g. `jobs=5/2`) and a negative-drift ETA. This lives in its
//! own integration-test binary so no concurrently running engine test can
//! touch the globals mid-assertion.

use std::time::Duration;

use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::build_problem;
use veriqec_codes::{five_qubit, steane};
use veriqec_obs::heartbeat;

#[test]
fn second_batch_in_one_process_reports_only_its_own_jobs() {
    // A larger first batch, then a smaller second one — exactly the shape
    // that used to leave JOBS_DONE > JOBS_TOTAL. The correction job is a
    // two-racer race and still counts once.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
    let first = engine.run(vec![
        Job::distance("first_steane", steane(), 3),
        Job::detection("first_five_qubit", five_qubit(), 3),
        Job::count("first_count", five_qubit()),
        Job::correction(
            "first_correction",
            build_problem(&scenario, 1, vec![]),
            scenario.error_vars.clone(),
            SplitConfig::default(),
        ),
    ]);
    assert!(first.incomplete_jobs().is_empty());
    assert_eq!(heartbeat::JOBS_TOTAL.get(), 4);
    assert_eq!(heartbeat::JOBS_DONE.get(), 4);

    let second = engine.run(vec![Job::distance("second_steane", steane(), 3)]);
    assert!(second.incomplete_jobs().is_empty());
    assert_eq!(
        heartbeat::JOBS_TOTAL.get(),
        1,
        "second batch must not inherit the first batch's job total"
    );
    assert_eq!(
        heartbeat::JOBS_DONE.get(),
        1,
        "second batch must not inherit the first batch's done counter"
    );

    // The rendered status line agrees: one job of one, not five of three.
    let line = heartbeat::status_line(Duration::from_secs(1));
    assert!(
        line.contains("jobs=1/1"),
        "status line reports stale progress: {line}"
    );
}
