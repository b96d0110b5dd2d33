//! The front end (wp -> reduce -> problem), called one stage at a time so
//! that each stage is a span of its own in the traced pass. This is
//! `tasks::build_problem_unbounded` spelled out; the traced surface pass
//! checks that it reproduces the one-shot path's conflict counts.

use veriqec::scenario::Scenario;
use veriqec_cexpr::BExp;
use veriqec_decoder::MinWeightSpec;
use veriqec_vcgen::{reduce_commuting, VcProblem};
use veriqec_wp::qec_wp;

use crate::spans::Tracer;

/// An assembled problem and the front end's size counts.
pub struct Front {
    /// The unbounded problem (no error-weight constraint).
    pub problem: VcProblem,
    /// Conjuncts of the weakest precondition.
    pub pre_conjuncts: usize,
    /// Targets of the reduced condition.
    pub targets: usize,
}

/// Runs wp (`wp` span) and the commuting reduction plus branch resolution
/// (`reduce` span), then wires the decoder specifications.
pub fn unbounded(tr: &Tracer, scenario: &Scenario) -> Result<Front, String> {
    let wp = tr
        .call("wp", || qec_wp(&scenario.program, scenario.post.clone()))
        .map_err(|e| format!("{}: wp: {e:?}", scenario.name))?;
    let vc = tr
        .call("reduce", || {
            reduce_commuting(&scenario.lhs, &wp.pre).map(|mut vc| {
                vc.resolve_branches();
                vc
            })
        })
        .map_err(|e| format!("{}: reduce: {e:?}", scenario.name))?;
    let decoder_specs = scenario
        .decoders
        .iter()
        .map(|w| MinWeightSpec {
            checks: w.checks.clone(),
            syndromes: w.syndromes.clone(),
            corrections: w.corrections.clone(),
            errors: scenario.error_vars.clone(),
            flips: w.flips.clone(),
            meas_errors: w.meas_errors.clone(),
        })
        .collect();
    Ok(Front {
        pre_conjuncts: wp.pre.conjuncts.len(),
        targets: vc.targets.len(),
        problem: VcProblem {
            vc,
            error_constraints: vec![],
            decoder_specs,
        },
    })
}

/// Adds the global error-weight bound `Σe ≤ t` (`tasks::build_problem`).
pub fn bounded(mut front: Front, scenario: &Scenario, t: i64) -> Front {
    front
        .problem
        .error_constraints
        .insert(0, BExp::weight_le(scenario.error_vars.iter().copied(), t));
    front
}
