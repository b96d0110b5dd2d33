//! `surface-correction`: Eqn. 14 on `rotated_surface(d)` with Y errors,
//! d ∈ {7, 9}. Each d has a proof at t = (d−1)/2 (expects Verified) and a
//! bug-finding run at t = (d+1)/2 (expects CounterExample). Each of the
//! four instances runs once on the one-shot sequential path
//! (`tasks::verify_correction`) and once on `Engine::run` with `nproc`
//! workers and the `tables fig4` split. The seed does not change these
//! inputs: the solver's work on them repeats exactly.

use std::time::{Duration, Instant};

use veriqec::engine::{Engine, EngineConfig, Job, JobReport};
use veriqec::parallel::SplitConfig;
use veriqec::scenario::{memory_scenario, ErrorModel, Scenario};
use veriqec::tasks::{build_problem, verify_correction};
use veriqec_codes::rotated_surface;
use veriqec_sat::{SolverConfig, SolverStats};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{geomean, nproc, timed_setups};
use crate::{front, heap, oracle, Args};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

struct Instance {
    d: usize,
    t: i64,
    proof: bool,
    scenario: Scenario,
}

impl Instance {
    fn label(&self) -> String {
        format!("d{}_{}", self.d, if self.proof { "proof" } else { "cex" })
    }
}

/// Everything built before the first timed call.
struct Setup {
    instances: Vec<Instance>,
    engine: Engine,
}

fn setup(tr: &Tracer) -> Setup {
    let mut instances = Vec::new();
    for d in [7, 9] {
        let code = tr.call("codes", || rotated_surface(d));
        let scenario = tr.call("scenario", || memory_scenario(&code, ErrorModel::YErrors));
        let t_proof = (d as i64 - 1) / 2;
        for (t, proof) in [(t_proof, true), (t_proof + 1, false)] {
            instances.push(Instance {
                d,
                t,
                proof,
                scenario: scenario.clone(),
            });
        }
    }
    let engine = Engine::new(EngineConfig {
        workers: nproc(),
        solver: SolverConfig::default(),
    });
    Setup { instances, engine }
}

/// Per-layer tallies of a traced pass.
#[derive(Default)]
struct Tally {
    pre_conjuncts: usize,
    targets: usize,
    queries: usize,
    sat_vars: usize,
    clauses: usize,
    solver: SolverStats,
    /// Per instance: (label, sequential solve seconds, sequential conflicts).
    seq: Vec<(String, f64, u64)>,
    /// Per instance: (label, engine job report, engine run seconds).
    engine: Vec<(String, JobReport, f64)>,
}

/// One pass: item times in order (sequential instances, then engine).
struct Pass {
    items: Vec<(String, f64)>,
    /// Peak live heap while each item ran, in MiB.
    heap: Vec<f64>,
    /// Per sequential instance: (label, conflicts).
    seq_conflicts: Vec<(String, u64)>,
    wall: f64,
    attempted: u64,
    failed: u64,
}

fn split(d: usize) -> SplitConfig {
    SplitConfig {
        heuristic_distance: d,
        et_threshold: 2 * d + 4,
    }
}

/// The sequential path. Untraced: `verify_correction`, one call. Traced:
/// the same pipeline one public call at a time.
fn sequential(
    tr: &Tracer,
    inst: &Instance,
    tally: &mut Tally,
) -> Result<(bool, Duration, u64), String> {
    let label = format!("seq {}", inst.label());
    let t0 = Instant::now();
    if !tr.enabled() {
        let report = verify_correction(&inst.scenario, inst.t, SolverConfig::default());
        let secs = t0.elapsed();
        let ok = oracle::correction(&label, inst.proof, &report.outcome)?;
        return Ok((ok, secs, report.conflicts));
    }
    let fe = front::bounded(
        front::unbounded(tr, &inst.scenario)?,
        &inst.scenario,
        inst.t,
    );
    let mut session = tr.call("encode", || fe.problem.session(SolverConfig::default()));
    let s0 = Instant::now();
    let outcome = tr.call("sat", || session.query(&[]));
    let solve = s0.elapsed().as_secs_f64();
    let secs = t0.elapsed();
    let ok = oracle::correction(&label, inst.proof, &outcome)?;
    let size = session.stats();
    tally.pre_conjuncts += fe.pre_conjuncts;
    tally.targets += fe.targets;
    tally.queries += session.query_count();
    tally.sat_vars += size.sat_vars;
    tally.clauses += size.clauses;
    tally.solver += session.solver_stats();
    tally.seq.push((inst.label(), solve, size.conflicts));
    Ok((ok, secs, size.conflicts))
}

/// The engine path: the problem is built, submitted as one correction job
/// with the fig4 split, and run on the engine's pool.
fn on_engine(
    tr: &Tracer,
    engine: &Engine,
    inst: &Instance,
    tally: &mut Tally,
) -> Result<(bool, Duration), String> {
    let label = format!("engine {}", inst.label());
    let t0 = Instant::now();
    let problem = if tr.enabled() {
        let fe = front::unbounded(tr, &inst.scenario)?;
        front::bounded(fe, &inst.scenario, inst.t).problem
    } else {
        build_problem(&inst.scenario, inst.t, vec![])
    };
    let job = Job::correction(
        inst.label(),
        problem,
        inst.scenario.error_vars.clone(),
        split(inst.d),
    );
    let r0 = Instant::now();
    let batch = tr.call("engine", || engine.run(vec![job]));
    let run = r0.elapsed().as_secs_f64();
    let secs = t0.elapsed();
    let report = batch
        .jobs
        .into_iter()
        .next()
        .ok_or("engine returned no job")?;
    let ok = oracle::correction_job(&label, inst.proof, &report.outcome)?;
    if tr.enabled() {
        tally.engine.push((inst.label(), report, run));
    }
    Ok((ok, secs))
}

/// One pass: every sequential instance, then (with `engine`) every engine
/// instance.
fn pass(tr: &Tracer, s: &Setup, tally: &mut Tally, engine: bool) -> Result<Pass, String> {
    let mut items = Vec::new();
    let mut seq_conflicts = Vec::new();
    let mut heap = Vec::new();
    let mut failed = 0;
    for inst in &s.instances {
        heap::reset_peak();
        let (ok, secs, conflicts) = sequential(tr, inst, tally)?;
        heap.push(heap::peak_mb());
        failed += u64::from(!ok);
        items.push((format!("seq.{}", inst.label()), secs.as_secs_f64()));
        seq_conflicts.push((inst.label(), conflicts));
    }
    for inst in s.instances.iter().filter(|_| engine) {
        heap::reset_peak();
        let (ok, secs) = on_engine(tr, &s.engine, inst, tally)?;
        heap.push(heap::peak_mb());
        failed += u64::from(!ok);
        items.push((format!("engine.{}", inst.label()), secs.as_secs_f64()));
    }
    Ok(Pass {
        attempted: items.len() as u64,
        wall: items.iter().map(|(_, secs)| secs).sum(),
        items,
        heap,
        seq_conflicts,
        failed,
    })
}

fn item(items: &[(String, f64)], name: &str) -> f64 {
    items
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no item {name}"))
}

/// Runs the workload per the command line.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let (s, setup_s) = timed_setups(SETUPS, || setup(&off));
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        // A traced run's untraced baseline is the sequential half only: the
        // engine half makes the same calls traced or not, and a traced run
        // must stay well inside its time limit.
        passes.push(pass(&off, &s, &mut Tally::default(), !args.trace)?);
        if args.trace || start.elapsed() >= args.seconds {
            break;
        }
    }
    for p in &passes {
        out.attempted += p.attempted;
        out.failed += p.failed;
        for ((name, secs), mb) in p.items.iter().zip(&p.heap) {
            out.row(format!(
                "row surface {name} {secs:.6} s, peak heap {mb:.1} MiB"
            ));
        }
    }
    if !args.trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
        let items: Vec<f64> = passes
            .iter()
            .map(|p| geomean(&p.items.iter().map(|(_, v)| v * 1e3).collect::<Vec<_>>()))
            .collect();
        let heap: Vec<f64> = passes.iter().map(|p| geomean(&p.heap)).collect();
        out.end_to_end(&walls, &items, &heap, setup_s);
        return Ok(out);
    }
    let untraced = &passes[0];

    // The traced pass over the same inputs.
    drop(s);
    let tr = Tracer::new(true);
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let s = setup(&tr);
    let traced_setup = t0.elapsed().as_secs_f64();
    let traced = pass(&tr, &s, &mut tally, true)?;
    let traced_wall = t0.elapsed().as_secs_f64();
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    // Sequential rows from the untraced half, engine rows from the traced
    // pass (its engine calls are the untraced ones plus a span each).
    let mut items = untraced.items.clone();
    items.extend(
        traced
            .items
            .iter()
            .filter(|(n, _)| n.starts_with("engine."))
            .cloned(),
    );
    instance_rows(&mut out, &items);
    layer_metrics(&mut out, &tr, &tally)?;
    if traced.seq_conflicts != untraced.seq_conflicts {
        out.row(format!(
            "warning: the stage-by-stage pipeline took {:?} conflicts, \
             the one-shot path {:?}; the traced split no longer mirrors it",
            traced.seq_conflicts, untraced.seq_conflicts
        ));
    }
    out.coverage(tr.caller_secs() / traced_wall);
    let seq = |p: &Pass| -> f64 {
        p.items
            .iter()
            .filter(|(n, _)| n.starts_with("seq."))
            .map(|(_, secs)| secs)
            .sum()
    };
    out.set(
        "bench.trace_overhead_frac",
        (traced_setup + seq(&traced)) / (setup_s + seq(untraced)) - 1.0,
    );
    out.close_traced();
    Ok(out)
}

fn instance_rows(out: &mut Outcome, items: &[(String, f64)]) {
    let pair = |a: &str, b: &str| geomean(&[item(items, a), item(items, b)]);
    out.set("surface.proof_seq_s", pair("seq.d7_proof", "seq.d9_proof"));
    out.set("surface.cex_seq_s", pair("seq.d7_cex", "seq.d9_cex"));
    out.set(
        "surface.proof_engine_s",
        pair("engine.d7_proof", "engine.d9_proof"),
    );
    out.set(
        "surface.cex_engine_s",
        pair("engine.d7_cex", "engine.d9_cex"),
    );
    for (metric, name) in [
        ("inst.seq.d7_proof_s", "seq.d7_proof"),
        ("inst.seq.d7_cex_s", "seq.d7_cex"),
        ("inst.seq.d9_proof_s", "seq.d9_proof"),
        ("inst.seq.d9_cex_s", "seq.d9_cex"),
        ("inst.engine.d7_proof_s", "engine.d7_proof"),
        ("inst.engine.d7_cex_s", "engine.d7_cex"),
        ("inst.engine.d9_proof_s", "engine.d9_proof"),
        ("inst.engine.d9_cex_s", "engine.d9_cex"),
    ] {
        out.set(metric, item(items, name));
    }
}

fn layer_metrics(out: &mut Outcome, tr: &Tracer, tally: &Tally) -> Result<(), String> {
    for (metric, layer) in [
        ("codes.build_ms", "codes"),
        ("scenario.build_ms", "scenario"),
        ("wp.qec_wp_ms", "wp"),
        ("vcgen.reduce_ms", "reduce"),
        ("vcgen.encode_ms", "encode"),
        ("sat.solve_ms", "sat"),
        ("engine.run_ms", "engine"),
    ] {
        out.set(metric, tr.layer_ms(layer));
    }
    out.set("wp.pre_conjuncts", tally.pre_conjuncts as f64);
    out.set("vcgen.targets", tally.targets as f64);
    out.set("vcgen.queries", tally.queries as f64);
    out.set("smt.sat_vars", tally.sat_vars as f64);
    out.set("smt.clauses", tally.clauses as f64);
    out.solver_metrics(&tally.solver, tr.layer_ms("sat"));

    let workers = nproc() as f64;
    let (mut busy, mut queue, mut run, mut subtasks, mut conflicts) = (0.0, 0.0, 0.0, 0, 0);
    let (mut seq_solve, mut seq_conflicts) = (0.0, 0);
    for (label, report, run_s) in &tally.engine {
        let (_, solve, seq_c) = tally
            .seq
            .iter()
            .find(|(l, _, _)| l == label)
            .ok_or("engine instance without a sequential twin")?;
        let b = report.busy_time.as_secs_f64();
        out.set_named(&format!("engine.work_ratio.{label}"), b / solve)?;
        out.set_named(
            &format!("engine.conflict_ratio.{label}"),
            report.stats.conflicts as f64 / (*seq_c).max(1) as f64,
        )?;
        busy += b;
        queue += report.queue_wait.as_secs_f64();
        run += run_s;
        subtasks += report.subtasks;
        conflicts += report.stats.conflicts;
        seq_solve += solve;
        seq_conflicts += seq_c;
    }
    out.set("engine.busy_ms", busy * 1e3);
    out.set("engine.queue_wait_ms", queue * 1e3);
    out.set("engine.idle_frac", 1.0 - busy / (workers * run));
    out.set("engine.subtasks", subtasks as f64);
    out.set("engine.work_ratio", busy / seq_solve);
    out.set(
        "engine.conflict_ratio",
        conflicts as f64 / seq_conflicts.max(1) as f64,
    );
    Ok(())
}
