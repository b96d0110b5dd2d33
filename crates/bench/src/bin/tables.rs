//! Regenerates the paper's evaluation tables/figure data as markdown (plus
//! machine-readable JSON batch reports from the engine).
//!
//! Usage: `cargo run -p veriqec_bench --bin tables --release -- [fig4|fig6|fig7|table3|table4|stim|enumerators|fault_tolerance|gate|serve|quick|all] [max_d] [--trace out.json] [--progress]`
//!
//! `quick` is the CI smoke mode: a small heterogeneous batch (correction +
//! detection + distance jobs on small codes) through the engine's shared
//! worker pool, with outcome assertions. `enumerators` runs the
//! decision-diagram counting backend over the code zoo (add `--quick` for
//! the CI subset), checks each code's least failure weight against a SAT
//! distance sweep in the same batch, and writes the machine-readable
//! `BENCH_enumerators.json` artifact next to the working directory.
//! `fault_tolerance` sweeps the (t_d, t_m) correctable frontier of
//! multi-round faulty-measurement extraction (add `--quick` for the CI
//! subset), asserts the textbook repeated-measurement result symbolically
//! *and* by exhaustive frame-sampling, and writes
//! `BENCH_fault_tolerance.json`.
//!
//! `gate` is the perf-regression gate (`veriqec_bench::gate`): it measures
//! the hot GF(2)/frame kernels, CDCL throughput on pinned pure-SAT and zoo
//! instances (verdicts re-asserted), and decision-diagram compile-and-count
//! sessions on pinned codes (coefficients re-asserted), and writes every
//! number as one row of `BENCH_gate.json`. `--quick` selects the CI subset;
//! `--check <baseline.json>` gates the rows against a checked-in baseline,
//! which is read before anything is measured (an unreadable, empty or
//! malformed baseline exits 2), and exits 1 if any row breaks its bound.
//!
//! The smoke modes (`quick`, `enumerators --quick`, `fault_tolerance
//! --quick`, `gate --check`) exit nonzero on any inconclusive or
//! cancelled job so CI fails on partial batches, after the artifacts are
//! written; each incomplete job is listed with its budget-trip reason
//! (`conflict_budget`, `node_limit(…)`, `interrupted`, `cancelled`). An
//! unknown mode prints the list of modes and exits 2.
//!
//! Two flags compose with every mode: `--trace <out.json>` records spans,
//! milestones, and counters from all instrumented crates and writes a
//! Chrome trace-event file (load it at <https://ui.perfetto.dev>), after
//! validating it in-process against the schema checker the tests use; and
//! `--progress` prints a heartbeat line to stderr every two seconds
//! (elapsed, phase, jobs done/total, conflicts, DD nodes, ETA).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::prelude::*;
use veriqec::engine::{
    DetectionSession, Engine, EngineConfig, FaultToleranceSweep, Job, JobOutcome,
};
use veriqec::parallel::SplitConfig;
use veriqec::sampling::{log2_constrained_configurations, sample_scenario};
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::{
    build_problem, discreteness_constraint, locality_constraint, verify_constrained,
    verify_correction, verify_detection, DetectionOutcome, DistanceOutcome,
};
use veriqec_bench::{locality_set, surface_problem, surface_workload};
use veriqec_codes::{
    c4_422, carbon_12_2_4, cube_color_822, five_qubit, gottesman8, hgp_hamming,
    pair_detection_code, reed_muller, rotated_surface, shor9, six_qubit, steane, toric,
    xzzx_surface,
};
use veriqec_decoder::{decode_call_oracle, CssLookupDecoder};
use veriqec_sat::SolverConfig;
use veriqec_vcgen::VcOutcome;

/// Where `--trace` writes the Chrome trace artifact, once parsed.
static TRACE_PATH: OnceLock<String> = OnceLock::new();
/// The collector accumulating drained events while tracing is on.
static COLLECTOR: Mutex<Option<veriqec_obs::Collector>> = Mutex::new(None);
/// Guards [`finalize_trace`] against running twice (it is called both at
/// the end of `main` and before `exit(1)` in the smoke gates).
static TRACE_DONE: AtomicBool = AtomicBool::new(false);
/// Categories the finished trace must contain, or the process exits
/// nonzero. Smoke modes that exercise the full vertical set this so CI
/// catches instrumentation that silently stopped emitting.
static REQUIRED_CATS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// The operand of a value-taking flag (`--check <path>`, `--trace <path>`,
/// …): `None` when the flag is absent, the operand otherwise. A missing or
/// flag-shaped operand is a usage error and exits 2 — silently consuming
/// the next flag as a value (`tables gate --check --trace out.json`
/// reading `--trace` as the baseline path) is exactly the bug this
/// replaces.
fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        Some(v) => {
            eprintln!("error: {flag} needs a value, but the next argument is the flag {v:?}");
            std::process::exit(2);
        }
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        }
    }
}

/// Parses `--trace <path>` and `--progress` and arms the corresponding
/// veriqec_obs machinery before any mode runs.
fn init_observability() {
    if let Some(path) = flag_value("--trace") {
        let _ = TRACE_PATH.set(path);
        *COLLECTOR.lock().unwrap() = Some(veriqec_obs::Collector::new());
        veriqec_obs::set_enabled(true);
    }
    if std::env::args().any(|a| a == "--progress") {
        veriqec_obs::heartbeat::set_progress(true);
    }
}

/// Drains everything flushed so far and returns the per-phase span
/// summary; empty when tracing is off. The drained events stay in the
/// global collector for the final serialization.
fn phase_summary_now() -> Vec<veriqec_obs::PhaseSummary> {
    let mut guard = COLLECTOR.lock().unwrap();
    match guard.as_mut() {
        Some(c) => {
            c.drain();
            c.phase_summary()
        }
        None => Vec::new(),
    }
}

/// Serializes, validates, and writes the trace artifact. Idempotent: the
/// smoke gates call this before `exit(1)` so a failed batch still uploads
/// its trace, and `main` calls it on the normal path. Exits nonzero itself
/// if the generated trace violates the Chrome trace-event schema or lacks
/// a required category.
fn finalize_trace() {
    if TRACE_DONE.swap(true, Ordering::SeqCst) {
        return;
    }
    let Some(path) = TRACE_PATH.get() else {
        return;
    };
    veriqec_obs::set_enabled(false);
    let Some(mut collector) = COLLECTOR.lock().unwrap().take() else {
        return;
    };
    collector.drain();
    let json = collector.to_chrome_trace();
    let summary = match veriqec_bench::trace::validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: generated trace failed schema validation: {e}");
            std::process::exit(1);
        }
    };
    let required = REQUIRED_CATS.lock().unwrap().clone();
    let missing: Vec<&str> = required
        .iter()
        .filter(|c| !summary.categories.iter().any(|have| have == *c))
        .copied()
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "error: trace missing required categories {missing:?} (got {:?})",
            summary.categories
        );
        std::process::exit(1);
    }
    std::fs::write(path, &json).expect("trace writable");
    println!(
        "trace written to {path}: {} events on {} thread(s), categories {:?}",
        summary.events, summary.tids, summary.categories
    );
}

fn main() {
    init_observability();
    // Lives across the whole dispatch; drop stops and joins the thread.
    let _heartbeat = veriqec_obs::heartbeat::progress_enabled()
        .then(|| veriqec_obs::heartbeat::Heartbeat::start(Duration::from_secs(2)));
    dispatch();
    finalize_trace();
}

/// Every mode `tables` accepts, for the unknown-mode error.
const MODES: &str =
    "fig4 | fig6 | fig7 | table3 | table4 | stim | enumerators | fault_tolerance | gate | serve | quick | all";

fn dispatch() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let max_d: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let quick_flag = std::env::args().any(|a| a == "--quick");
    match what.as_str() {
        "fig4" => fig4(max_d),
        "fig6" => fig6(max_d),
        "fig7" => fig7(max_d),
        "table3" => table3(),
        "table4" => table4(),
        "stim" => stim(max_d),
        "enumerators" => enumerators(quick_flag),
        "fault_tolerance" => fault_tolerance(quick_flag),
        "gate" => gate(quick_flag, flag_value("--check").as_deref()),
        "serve" => serve(
            std::env::args().any(|a| a == "--smoke"),
            flag_value("--addr"),
        ),
        "quick" => quick(),
        "all" => {
            fig4(max_d);
            fig6(max_d);
            fig7(max_d);
            table3();
            table4();
            stim(max_d);
            enumerators(false);
            fault_tolerance(false);
        }
        _ => {
            eprintln!("error: unknown mode {what:?}; modes: {MODES}");
            std::process::exit(2);
        }
    }
}

/// CI gate shared by the smoke modes: a batch with any inconclusive or
/// cancelled job must fail the build, but only after the artifacts are
/// written (a partial report is still worth uploading for the post-mortem).
/// Each listed job carries its budget-trip reason — `conflict_budget` vs
/// `node_limit(…)` vs `interrupted` vs `cancelled` — so the failure mode
/// is visible from the CI log alone.
fn gate_complete(batch: &veriqec::engine::BatchReport) {
    let incomplete = batch.incomplete_jobs_with_reasons();
    if !incomplete.is_empty() {
        eprintln!(
            "error: {} job(s) did not run to completion:",
            incomplete.len()
        );
        for (name, reason) in incomplete {
            eprintln!("  - {name} ({})", reason.unwrap_or("no reason recorded"));
        }
        // A partial trace is exactly the artifact worth keeping here.
        finalize_trace();
        std::process::exit(1);
    }
}

/// `tables gate [--quick] [--check <baseline.json>]`: reads the baseline
/// (exit 2 if it cannot be read or parsed, or gates nothing), measures
/// every gate row, writes `BENCH_gate.json`, and exits 1 if any row breaks
/// its bound.
fn gate(quick: bool, baseline_path: Option<&str>) {
    use veriqec_bench::gate::{check, fmt_value, parse_baseline, run_gate, to_json};

    let baseline = baseline_path.map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_baseline(&text))
            .unwrap_or_else(|e| {
                eprintln!("error: bad baseline {path}: {e}");
                std::process::exit(2);
            })
    });
    println!(
        "\n### Perf-regression gate{}\n",
        if quick { " (quick)" } else { "" }
    );
    let rows = run_gate(quick);
    println!("| layer | workload | metric | value | unit |");
    println!("|-------|----------|--------|-------|------|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {} |",
            r.layer,
            r.workload,
            r.metric,
            fmt_value(r.value),
            r.unit
        );
    }
    let artifact = "BENCH_gate.json";
    std::fs::write(artifact, to_json(quick, &rows)).expect("artifact writable");
    println!("\ngate report written to {artifact}");
    if let (Some(path), Some(baseline)) = (baseline_path, baseline) {
        let violations = check(&rows, &baseline);
        if !violations.is_empty() {
            eprintln!(
                "error: {} gate violation(s) against {path}:",
                violations.len()
            );
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        println!(
            "all {} baseline rows within bounds of {path}",
            baseline.len()
        );
    }
}

/// The faulty-measurement workload: for each (code, rounds) pair one
/// engine `FaultTolerance` job sweeps the full (t_d, t_m) grid on a single
/// persistent session; the textbook repeated-measurement result — a
/// distance-3 code with t_m ≥ 1 needs r > 1; r = 3 suffices — is asserted
/// from the symbolic frontier *and* re-validated by exhaustively running
/// every in-budget configuration through the Pauli-frame sampler with the
/// budget-aware space-time decoder. Emits `BENCH_fault_tolerance.json`.
fn fault_tolerance(quick: bool) {
    use veriqec::sampling::exhaustive_frame_check;
    use veriqec::scenario::faulty_memory_scenario;
    use veriqec_codes::repetition;

    println!("\n### Fault tolerance — multi-round syndrome extraction with measurement errors\n");
    let mut workload: Vec<(veriqec_codes::StabilizerCode, ErrorModel, usize)> = vec![
        (repetition(3), ErrorModel::XErrors, 1),
        (repetition(3), ErrorModel::XErrors, 3),
        (rotated_surface(3), ErrorModel::YErrors, 1),
        (rotated_surface(3), ErrorModel::YErrors, 3),
    ];
    if !quick {
        workload.extend([
            (repetition(3), ErrorModel::XErrors, 2),
            (steane(), ErrorModel::YErrors, 1),
            (steane(), ErrorModel::YErrors, 2),
            (steane(), ErrorModel::YErrors, 3),
            (rotated_surface(3), ErrorModel::YErrors, 2),
        ]);
    }
    let scenarios: Vec<_> = workload
        .iter()
        .map(|(code, model, rounds)| faulty_memory_scenario(code, *model, *rounds))
        .collect();
    let jobs: Vec<Job> = workload
        .iter()
        .zip(&scenarios)
        .map(|((code, _, rounds), scenario)| {
            Job::fault_tolerance(format!("{}_r{rounds}", code.name()), scenario, 1, 1)
        })
        .collect();
    let engine = Engine::new(EngineConfig::default());
    let mut batch = engine.run(jobs);
    batch.attach_phase_summary(phase_summary_now());
    println!("| code | rounds | (0,0) | (0,1) | (1,0) | (1,1) | busy |");
    println!("|------|--------|-------|-------|-------|-------|------|");
    let fmt_point = |v: Option<bool>| match v {
        Some(true) => "yes",
        Some(false) => "no",
        None => "?",
    };
    for ((code, _, rounds), job) in workload.iter().zip(&batch.jobs) {
        let JobOutcome::Frontier(f) = &job.outcome else {
            panic!(
                "{}: fault-tolerance job failed: {:?}",
                job.name, job.outcome
            );
        };
        println!(
            "| {} | {rounds} | {} | {} | {} | {} | {:?} |",
            code.name(),
            fmt_point(f.correctable(0, 0)),
            fmt_point(f.correctable(0, 1)),
            fmt_point(f.correctable(1, 0)),
            fmt_point(f.correctable(1, 1)),
            job.busy_time,
        );
        // The textbook frontier: degenerate budgets always verify; the full
        // (1,1) point needs repeated extraction (r ≥ 2·t_m + 1).
        assert_eq!(f.correctable(0, 0), Some(true), "{}", job.name);
        assert_eq!(f.correctable(0, 1), Some(true), "{}", job.name);
        assert_eq!(f.correctable(1, 0), Some(true), "{}", job.name);
        let expect_full = *rounds >= 3;
        assert_eq!(
            f.correctable(1, 1),
            Some(expect_full),
            "{}: (1,1) with r={rounds}",
            job.name
        );
    }
    // Frame-sampling cross-validation of the headline claim: single-round
    // surface-3 has a concrete in-budget (1,1) failure; three rounds
    // recover every configuration exhaustively.
    let surface = rotated_surface(3);
    let failure = exhaustive_frame_check(&surface, ErrorModel::YErrors, 1, 1, 1);
    assert!(
        failure.is_some(),
        "frame sampling must find a single-round (1,1) failure"
    );
    let (data, meas) = failure.expect("checked");
    println!(
        "\nframe sampling confirms: surface-3 r=1 fails at (1,1) \
         (data sites {data:?}, measurement sites {meas:?});"
    );
    assert!(
        exhaustive_frame_check(&surface, ErrorModel::YErrors, 3, 1, 1).is_none(),
        "frame sampling must confirm r=3 recovers every (1,1) configuration"
    );
    println!("frame sampling confirms: surface-3 r=3 recovers every (1,1) configuration.");
    let artifact = "BENCH_fault_tolerance.json";
    std::fs::write(artifact, batch.to_json()).expect("artifact writable");
    println!(
        "\n{} jobs on {} workers in {:?}; batch report written to {artifact}",
        batch.jobs.len(),
        batch.workers,
        batch.wall_time
    );
    gate_complete(&batch);
}

/// Failure weight enumerators for the code zoo through the engine's
/// counting jobs (`veriqec::engine::JobKind::Count`): exact
/// coefficients per weight, cross-checked against the claimed distance,
/// the group-theoretic failure total `2^{n+k} − 2^{n−k}` and, in the same
/// batch, a SAT distance sweep per code. Emits the machine-readable
/// `BENCH_enumerators.json` batch report.
fn enumerators(quick: bool) {
    println!("\n### Failure weight enumerators (decision-diagram backend)\n");
    let mut codes = vec![
        c4_422(),
        five_qubit(),
        six_qubit(),
        steane(),
        shor9(),
        rotated_surface(3),
    ];
    if !quick {
        codes.extend([
            gottesman8(),
            cube_color_822(),
            xzzx_surface(3),
            toric(3),
            carbon_12_2_4(),
            rotated_surface(5),
            xzzx_surface(5),
            rotated_surface(7),
        ]);
    }
    // One count per code, then one distance sweep per code just past its
    // claimed distance: every run cross-checks the SAT sweep against the
    // diagram's least nonzero weight.
    let mut jobs: Vec<Job> = codes
        .iter()
        .map(|code| Job::count(code.name().to_string(), code.clone()))
        .collect();
    jobs.extend(codes.iter().map(|code| {
        let d = code.claimed_distance().expect("zoo codes claim a distance");
        Job::distance(format!("{} distance", code.name()), code.clone(), d + 1)
    }));
    // This mode exercises the full vertical — engine scheduling, dd
    // compiles for the counts, smt formula assembly and sat solves for the
    // distance sweeps — so a trace lacking any of those categories means
    // instrumentation went dark.
    *REQUIRED_CATS.lock().unwrap() = vec!["engine", "smt", "sat", "dd"];
    let engine = Engine::new(EngineConfig::default());
    let mut batch = engine.run(jobs);
    batch.attach_phase_summary(phase_summary_now());
    println!("| code | [[n,k,d]] | min weight | A_d | total failures | busy | dd nodes |");
    println!("|------|-----------|------------|-----|----------------|------|----------|");
    let (counts, distances) = batch.jobs.split_at(codes.len());
    for ((code, job), sweep) in codes.iter().zip(counts).zip(distances) {
        let JobOutcome::Enumerator(e) = &job.outcome else {
            panic!("{}: counting job failed: {:?}", job.name, job.outcome);
        };
        let d = e.min_weight.expect("every code has failures");
        assert_eq!(
            Some(d),
            code.claimed_distance(),
            "{}: enumerator distance disagrees with the claimed distance",
            code.name()
        );
        assert!(
            matches!(sweep.outcome, JobOutcome::Distance(DistanceOutcome::Exact(s)) if s == d),
            "{}: the SAT distance sweep disagrees with the enumerator's {d}: {:?}",
            code.name(),
            sweep.outcome
        );
        let (n, k) = (code.n() as u32, code.k() as u32);
        assert_eq!(
            e.total(),
            (1u128 << (n + k)) - (1u128 << (n - k)),
            "{}: total failures disagree with group counting",
            code.name()
        );
        println!(
            "| {} | [[{},{},{}]] | {} | {} | {} | {:?} | {} |",
            code.name(),
            code.n(),
            code.k(),
            d,
            d,
            e.coefficients[d],
            e.total(),
            job.busy_time,
            job.dd.nodes,
        );
    }
    let artifact = "BENCH_enumerators.json";
    std::fs::write(artifact, batch.to_json()).expect("artifact writable");
    println!(
        "\n{} codes ({} jobs) on {} workers in {:?}; batch report written to {artifact}",
        codes.len(),
        batch.jobs.len(),
        batch.workers,
        batch.wall_time
    );
    gate_complete(&batch);
}

fn fig4(max_d: usize) {
    println!("\n### Fig. 4 — general verification of the rotated surface code\n");
    println!(
        "| d | qubits | sequential | engine busy | racers | conflicts | decisions | propagations |"
    );
    println!(
        "|---|--------|-----------|-------------|--------|-----------|-----------|--------------|"
    );
    // Sequential baseline per distance, then the whole family as one engine
    // batch on a shared worker pool (each job a race of one solver per
    // worker).
    let ds: Vec<usize> = (3..=max_d).step_by(2).collect();
    let mut seq_times = Vec::new();
    let mut jobs = Vec::new();
    for &d in &ds {
        let (scenario, problem) = surface_problem(d);
        let t0 = Instant::now();
        let (seq, _) = problem.check();
        assert!(seq.is_verified());
        seq_times.push(t0.elapsed());
        jobs.push(Job::correction(
            format!("surface_d{d}"),
            problem,
            scenario.error_vars,
            SplitConfig::default(),
        ));
    }
    let engine = Engine::new(EngineConfig::default());
    let batch = engine.run(jobs);
    for ((d, seq_t), job) in ds.iter().zip(&seq_times).zip(&batch.jobs) {
        assert!(job.outcome.is_verified());
        println!(
            "| {d} | {} | {seq_t:?} | {:?} | {} | {} | {} | {} |",
            d * d,
            job.busy_time,
            job.subtasks,
            job.stats.conflicts,
            job.stats.decisions,
            job.stats.propagations,
        );
    }
    println!(
        "\nbatch: {} jobs on {} workers in {:?}\n",
        batch.jobs.len(),
        batch.workers,
        batch.wall_time
    );
    println!("```json\n{}\n```", batch.to_json());
}

fn fig6(max_d: usize) {
    println!("\n### Fig. 6 — precise detection on the rotated surface code\n");
    println!("| d | d_t = d (unsat) | d_t = d+1 (sat, finds logical) |");
    println!("|---|----------------|-------------------------------|");
    for d in (3..=max_d).step_by(2) {
        // One incremental session per code: both thresholds are assumption
        // queries on a single base encoding.
        let code = rotated_surface(d);
        let t0 = Instant::now();
        let mut session = DetectionSession::new(&code, SolverConfig::default());
        let a = session.check(d);
        let ta = t0.elapsed();
        let t0 = Instant::now();
        let b = session.check(d + 1);
        let tb = t0.elapsed();
        assert_eq!(a, DetectionOutcome::AllDetected);
        assert!(matches!(b, DetectionOutcome::UndetectedLogical { .. }));
        println!("| {d} | {ta:?} | {tb:?} |");
    }
}

/// `tables serve`: the resident verification daemon, or its scripted CI
/// smoke with `--smoke`. The smoke forks the server in-process and drives
/// cache-cold/cache-hot/warm-session/malformed/deadline-exceeded requests
/// over a real socket (see `veriqec_serve::smoke`); daemon mode binds
/// `--addr` (default `127.0.0.1:7199`) and drains on SIGTERM or a
/// `{"op":"shutdown"}` request.
fn serve(smoke: bool, addr: Option<String>) {
    use veriqec_serve::server::{ServeConfig, Server};
    if smoke {
        // The smoke drives the whole vertical: serve request handling,
        // engine scheduling (count requests), smt/sat sessions
        // (detection/distance/fault-tolerance), and dd compiles.
        *REQUIRED_CATS.lock().unwrap() = vec!["serve", "engine", "smt", "sat", "dd"];
        if let Err(msg) = veriqec_serve::smoke::run_smoke() {
            eprintln!("error: serve smoke failed: {msg}");
            finalize_trace();
            std::process::exit(1);
        }
        println!("\nserve smoke passed");
        return;
    }
    let config = ServeConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7199".into()),
        install_sigterm: true,
        ..ServeConfig::default()
    };
    let handle = Server::start(config).expect("bind listener");
    println!(
        "veriqec_serve listening on {} (newline-delimited JSON; \
         {{\"op\":\"shutdown\"}} or SIGTERM drains)",
        handle.addr()
    );
    if let Err(e) = handle.join() {
        eprintln!("error: serve drain: {e}");
        finalize_trace();
        std::process::exit(1);
    }
}

fn quick() {
    println!("\n### Quick smoke batch (CI) — heterogeneous jobs on the engine pool\n");
    let steane_scenario = memory_scenario(&steane(), ErrorModel::YErrors);
    let surface_scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
    let jobs = vec![
        Job::correction(
            "steane_t1",
            build_problem(&steane_scenario, 1, vec![]),
            steane_scenario.error_vars.clone(),
            SplitConfig::default(),
        ),
        Job::correction(
            "surface3_t1",
            build_problem(&surface_scenario, 1, vec![]),
            surface_scenario.error_vars.clone(),
            SplitConfig::default(),
        ),
        Job::detection("five_qubit_dt3", five_qubit(), 3),
        Job::distance("steane_distance", steane(), 4),
    ];
    let engine = Engine::new(EngineConfig::default());
    let mut batch = engine.run(jobs);
    batch.attach_phase_summary(phase_summary_now());
    print!("{}", batch.to_markdown());
    println!("\n```json\n{}\n```", batch.to_json());
    assert!(batch.jobs[0].outcome.is_verified(), "steane t=1");
    assert!(batch.jobs[1].outcome.is_verified(), "surface3 t=1");
    assert!(matches!(
        batch.jobs[2].outcome,
        JobOutcome::Detection(DetectionOutcome::AllDetected)
    ));
    assert!(matches!(
        batch.jobs[3].outcome,
        JobOutcome::Distance(DistanceOutcome::Exact(3))
    ));
    // The incremental weight sweep rides along so CI exercises the
    // assumption-driven path too.
    let mut sweep = FaultToleranceSweep::new(&steane_scenario, vec![], SolverConfig::default());
    assert!(sweep.check(1, 0).is_verified());
    assert!(matches!(sweep.check(2, 0), VcOutcome::CounterExample(_)));
    println!(
        "\nsteane weight sweep: {} queries on one encoding",
        sweep.query_count()
    );
    gate_complete(&batch);
}

fn fig7(max_d: usize) {
    println!("\n### Fig. 7 — verification with user-provided error constraints\n");
    println!("| d | general | locality | discreteness | both |");
    println!("|---|---------|----------|--------------|------|");
    for d in (3..=max_d).step_by(2) {
        let (_, scenario) = surface_workload(d);
        let t = (d as i64 - 1) / 2;
        let t0 = Instant::now();
        let g = verify_correction(&scenario, t, SolverConfig::default());
        let tg = t0.elapsed();
        let loc = locality_constraint(&scenario, &locality_set(d));
        let disc = discreteness_constraint(&scenario, d);
        let mut both = loc.clone();
        both.extend(disc.clone());
        let r1 = verify_constrained(&scenario, t, loc, SolverConfig::default());
        let r2 = verify_constrained(&scenario, t, disc, SolverConfig::default());
        let r3 = verify_constrained(&scenario, t, both, SolverConfig::default());
        assert!(
            g.outcome.is_verified()
                && r1.outcome.is_verified()
                && r2.outcome.is_verified()
                && r3.outcome.is_verified()
        );
        println!(
            "| {d} | {tg:?} | {:?} | {:?} | {:?} |",
            r1.wall_time, r2.wall_time, r3.wall_time
        );
    }
}

fn table3() {
    println!("\n### Table 3 — benchmark of verified stabilizer codes\n");
    println!("| code | [[n,k,d]] | task | time |");
    println!("|------|-----------|------|------|");
    let codes = vec![
        steane(),
        rotated_surface(3),
        rotated_surface(5),
        rotated_surface(7),
        six_qubit(),
        five_qubit(),
        shor9(),
        reed_muller(4),
        reed_muller(5),
        xzzx_surface(3),
        xzzx_surface(5),
        gottesman8(),
        toric(3),
        toric(4),
        hgp_hamming(),
        carbon_12_2_4(),
    ];
    for code in codes {
        let d = code.claimed_distance().expect("known");
        let t = (d as i64 - 1) / 2;
        if t >= 1 {
            let scenario = memory_scenario(&code, ErrorModel::YErrors);
            let r = verify_correction(&scenario, t, SolverConfig::default());
            assert!(r.outcome.is_verified(), "{}", code.name());
            println!(
                "| {} | [[{},{},{}]] | correction | {:?} |",
                code.name(),
                code.n(),
                code.k(),
                d,
                r.wall_time
            );
        }
    }
    for code in [
        cube_color_822(),
        pair_detection_code(7, 5, 5),
        pair_detection_code(10, 4, 4),
    ] {
        let t0 = Instant::now();
        let out = verify_detection(&code, 2, SolverConfig::default());
        assert_eq!(out, DetectionOutcome::AllDetected);
        println!(
            "| {} | [[{},{},2]] | detection | {:?} |",
            code.name(),
            code.n(),
            code.k(),
            t0.elapsed()
        );
    }
}

fn table4() {
    println!("\n### Table 4 — scenario/functionality matrix (this reproduction)\n");
    println!("| scenario | supported | regenerated by |");
    println!("|----------|-----------|----------------|");
    for (name, target) in [
        (
            "error-free logical ops (L̄)",
            "scenario::ScenarioBuilder::logical_*",
        ),
        ("logical-free (E M C)", "scenario::memory_scenario"),
        (
            "error in correction (L̄ M C_E)",
            "scenario::correction_fault_scenario",
        ),
        ("one cycle (E L̄ E M C)", "scenario::logical_h_scenario"),
        ("multi cycle", "scenario::multi_cycle_scenario"),
        ("general verification (C)", "tasks::verify_correction"),
        ("bug reporting (R)", "VcOutcome::CounterExample"),
        ("fixed errors (F)", "tasks::verify_nonpauli_memory"),
        (
            "faulty measurement (E M_r C, r rounds)",
            "scenario::faulty_memory_scenario + tasks::verify_fault_tolerance",
        ),
    ] {
        println!("| {name} | yes | `{target}` |");
    }
}

fn stim(max_d: usize) {
    println!("\n### §7.2 — verification vs sampling (Stim-style baseline)\n");
    println!("| d | samples/s (tableau) | complete verification | log2(required samples, discreteness) |");
    println!("|---|---------------------|----------------------|----------------------------------------|");
    for d in (3..=max_d.min(5)).step_by(2) {
        let code = rotated_surface(d);
        let scenario = memory_scenario(&code, ErrorModel::YErrors);
        let decoder = CssLookupDecoder::for_code(&code, (d - 1) / 2);
        let oracle = decode_call_oracle(decoder, code.n());
        let mut rng = StdRng::seed_from_u64(3);
        let rep = sample_scenario(&scenario, (d - 1) / 2, 300, &oracle, &mut rng);
        assert_eq!(rep.failures, 0);
        let rate = rep.samples as f64 / rep.seconds;
        let (_, problem) = surface_problem(d);
        let t0 = Instant::now();
        let (outcome, _) = problem.check();
        assert!(outcome.is_verified());
        let vt = t0.elapsed();
        println!(
            "| {d} | {rate:.0} | {vt:?} | {:.1} bits |",
            log2_constrained_configurations(d * d / d, d)
        );
    }
    println!(
        "\nPaper's d = 19 story: discreteness constraint leaves ~2^{:.1} configurations — \
         beyond any sampling budget, while partial verification handles it symbolically.",
        log2_constrained_configurations(18, 18)
    );
}
