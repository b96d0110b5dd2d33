//! Exact failure weight enumerators via the decision-diagram backend.
//!
//! The SAT tasks answer existence — "is there an undetected logical error
//! of weight `< dt`?" (Eqn. 15). This module answers the *counting* form of
//! the same question: for every Hamming weight `w`, exactly how many error
//! configurations are undetectable logical errors? The resulting vector
//! `A_1 … A_n` is the code's failure weight enumerator; its least nonzero
//! index is the code distance (cross-checked against
//! [`crate::tasks::find_distance`] by the test suite), and its magnitude
//! profile is what analytic bounds (quantum MacWilliams identities,
//! pseudo-threshold estimates) consume.
//!
//! The encoding is shared with the SAT path: the same
//! [`veriqec_smt::SmtContext`] assembles syndrome-zero XOR equations, the
//! logical-flip disjunction and per-qubit support indicators, then exports
//! the clause set ([`SmtContext::export_cnf`]) for one-time BDD compilation
//! (`veriqec_dd`). Every auxiliary variable is functionally determined by
//! the error components, so BDD model counts are error-configuration counts
//! exactly; the whole enumerator falls out of a single weight-stratified
//! pass instead of one SAT call per (weight, count) step of a
//! blocking-clause loop ([`sat_enumerator`], kept as the differential
//! baseline and the benchmark's contender).

use veriqec_cexpr::{Affine, CMem, VarId, VarRole, VarTable};
use veriqec_codes::{ExtractionSchedule, StabilizerCode};
use veriqec_dd::{compile_cnf_projected, Bdd, BddManager, CompileConfig, CompileError, DdStats};
use veriqec_sat::{Lit, SolverConfig};
use veriqec_smt::{CheckResult, SmtContext};

/// The failure weight enumerator of one code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightEnumerator {
    /// `coefficients[w]` is the number of error configurations of support
    /// weight `w` that are undetectable logical errors (`coefficients[0]`
    /// is always 0: the identity is not a failure).
    pub coefficients: Vec<u128>,
    /// Least weight with a nonzero coefficient — the code distance.
    pub min_weight: Option<usize>,
}

impl WeightEnumerator {
    /// Total number of failure configurations across all weights.
    pub fn total(&self) -> u128 {
        self.coefficients.iter().sum()
    }
}

/// A per-code counting session: the detection formula is compiled to a BDD
/// once, then enumerator coefficients (and any further counts) are
/// extracted without touching a solver.
///
/// The counting analogue of [`crate::engine::DetectionSession`] — same
/// formula, same single-encode discipline, but the backend is `veriqec_dd`
/// and the answer is the full weight distribution instead of one
/// SAT/UNSAT bit.
#[derive(Clone, Debug)]
pub struct FailureEnumerator {
    name: String,
    /// Largest possible support weight (`n` for the perfect model, plus one
    /// per measurement site under a noisy schedule).
    max_weight: usize,
    manager: BddManager,
    root: Bdd,
    /// Variables surviving the projection (error components + indicators).
    counted: Vec<usize>,
    /// Support-indicator literals as `(BDD variable, polarity)`.
    indicators: Vec<(usize, bool)>,
    coefficients: Option<Vec<u128>>,
}

impl FailureEnumerator {
    /// Encodes and compiles the counting formula for `code` once (the
    /// perfect-measurement model).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] when the node limit in `config` is
    /// exceeded or its stop is raised mid-compilation.
    pub fn new(code: &StabilizerCode, config: &CompileConfig) -> Result<Self, CompileError> {
        Self::with_schedule(
            code,
            &ExtractionSchedule::perfect(code.generators().len()),
            config,
        )
    }

    /// Like [`FailureEnumerator::new`], but under a (possibly noisy)
    /// extraction schedule: undetected configurations are pairs `(e, m)`
    /// whose *observed* syndromes vanish in every round, counted by total
    /// weight `|supp(e)| + |m|`.
    ///
    /// # Errors
    ///
    /// See [`FailureEnumerator::new`].
    pub fn with_schedule(
        code: &StabilizerCode,
        schedule: &ExtractionSchedule,
        config: &CompileConfig,
    ) -> Result<Self, CompileError> {
        // No weight constraint on top of the shared parts: stratification
        // happens in the diagram, not the encoding.
        let DetectionParts { ctx, support, .. } =
            detection_parts_with_schedule(code, schedule, SolverConfig::default());
        let cnf = ctx.export_cnf();
        // Keep the error components and the support indicators; everything
        // else (XOR chain links, flip parities, the constant) is determined
        // and gets eliminated as the diagram is built.
        let mut keep: Vec<usize> = ctx.var_map().map(|(_, l)| l.var().index()).collect();
        keep.extend(support.iter().map(|l| l.var().index()));
        let compiled = compile_cnf_projected(&cnf, &keep, config)?;
        let indicators: Vec<(usize, bool)> = support
            .iter()
            .map(|l| (l.var().index(), l.is_positive()))
            .collect();
        Ok(FailureEnumerator {
            name: code.name().to_string(),
            max_weight: indicators.len(),
            manager: compiled.manager,
            root: compiled.root,
            counted: keep,
            indicators,
            coefficients: None,
        })
    }

    /// The code's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enumerator coefficients by support weight (`0..=max_weight`),
    /// computed on first call and cached.
    pub fn coefficients(&mut self) -> &[u128] {
        if self.coefficients.is_none() {
            let w = self
                .manager
                .weight_count_over(self.root, &self.counted, &self.indicators);
            debug_assert_eq!(w.len(), self.max_weight + 1);
            self.coefficients = Some(w);
        }
        self.coefficients.as_deref().expect("just computed")
    }

    /// The full enumerator report.
    pub fn enumerator(&mut self) -> WeightEnumerator {
        let coefficients = self.coefficients().to_vec();
        let min_weight = coefficients.iter().position(|&c| c > 0);
        WeightEnumerator {
            coefficients,
            min_weight,
        }
    }

    /// Decision-diagram kernel counters.
    pub fn dd_stats(&self) -> DdStats {
        self.manager.stats()
    }

    /// Live BDD nodes held by the session.
    pub fn node_count(&self) -> usize {
        self.manager.node_count()
    }
}

/// The detection formula (Eqn. 15) assembled once for every backend that
/// consumes it: [`crate::engine::DetectionSession`] (adds a cardinality
/// totalizer for weight sweeps), [`FailureEnumerator`] (exports the CNF for
/// diagram compilation) and [`sat_enumerator`] (adds a baked weight bound).
/// One assembly site means the SAT and counting backends cannot drift apart
/// on the encoding.
pub(crate) struct DetectionParts {
    /// The context holding observed-syndrome-zero equations and the
    /// logical-flip disjunction.
    pub ctx: SmtContext,
    /// Per-qubit X error components.
    pub ex: Vec<VarId>,
    /// Per-qubit Z error components.
    pub ez: Vec<VarId>,
    /// Measurement-flip indicators per (round, generator) in round-major
    /// order; empty for perfect schedules.
    pub em: Vec<VarId>,
    /// Support indicators: per-qubit (`ex_q ∨ ez_q`) followed by one
    /// literal per measurement-flip indicator. The per-qubit indicators are
    /// interleaved with their inputs in allocation order, which the diagram
    /// compiler's first-use order inherits.
    pub support: Vec<Lit>,
}

/// Assembles the detection formula for `code` under an extraction
/// schedule: per-qubit error components with support indicators, the
/// *observed*-syndromes-all-zero XOR equations (`syn_i(e) ⊕ m_{i,j} = 0`
/// per round `j`, with the flip term present only for noisy schedules),
/// and the some-logical-flips disjunction. No weight constraint — each
/// caller adds its own (totalizer assumptions, baked bound, or none for
/// counting). This is the single assembly site shared by the SAT and
/// decision-diagram backends, with or without measurement errors.
pub(crate) fn detection_parts_with_schedule(
    code: &StabilizerCode,
    schedule: &ExtractionSchedule,
    config: SolverConfig,
) -> DetectionParts {
    let n = code.n();
    assert_eq!(
        schedule.num_checks(),
        code.generators().len(),
        "schedule must cover every generator"
    );
    let mut vt = VarTable::new();
    let ex: Vec<VarId> = (0..n)
        .map(|q| vt.fresh_indexed("ex", q, VarRole::Error))
        .collect();
    let ez: Vec<VarId> = (0..n)
        .map(|q| vt.fresh_indexed("ez", q, VarRole::Error))
        .collect();
    let mut ctx = SmtContext::with_config(config);
    let mut support: Vec<Lit> = (0..n)
        .map(|q| {
            let lx = ctx.lit_of(ex[q]);
            let lz = ctx.lit_of(ez[q]);
            ctx.reify_disj(&[lx, lz])
        })
        .collect();
    // All *observed* syndromes zero in every round: the true syndrome of
    // the error, XOR the round's flip, vanishes.
    let mut em = Vec::new();
    for site in schedule.sites() {
        let g = &code.generators()[site.check];
        let mut aff = Affine::zero();
        for q in 0..n {
            if g.pauli().x_bit(q) {
                aff.xor_var(ez[q]);
            }
            if g.pauli().z_bit(q) {
                aff.xor_var(ex[q]);
            }
        }
        if site.noisy {
            let m = vt.fresh(
                &format!("m_r{}_{}", site.round, site.check),
                VarRole::MeasError,
            );
            aff.xor_var(m);
            em.push(m);
        }
        ctx.assert_affine_eq(&aff, false);
    }
    // Some logical operator anticommutes with the error. The syndrome rows
    // never decide a logical form (it would be a stabilizer); one they did
    // would flip always or never.
    let mut flips = Vec::new();
    for l in code.logical_x().iter().chain(code.logical_z()) {
        let mut aff = Affine::zero();
        for q in 0..n {
            if l.pauli().x_bit(q) {
                aff.xor_var(ez[q]);
            }
            if l.pauli().z_bit(q) {
                aff.xor_var(ex[q]);
            }
        }
        match ctx.reify_affine(&aff) {
            Ok(flip) => flips.push(flip),
            Err(true) => flips.push(ctx.lit_true()),
            Err(false) => {}
        }
    }
    ctx.add_clause(flips);
    support.extend(em.iter().map(|&m| ctx.lit_of(m)));
    DetectionParts {
        ctx,
        ex,
        ez,
        em,
        support,
    }
}

/// The CDCL contender: enumerate undetectable logical errors of support
/// weight `≤ max_weight` one model at a time, blocking each found
/// configuration with a clause. Exact on its truncated range — and
/// exponential in the number of failures, which is why the diagram backend
/// exists. Returns coefficients for weights `0..=max_weight`.
pub fn sat_enumerator(code: &StabilizerCode, max_weight: usize) -> Vec<u128> {
    sat_enumerator_with_schedule(
        code,
        &ExtractionSchedule::perfect(code.generators().len()),
        max_weight,
    )
}

/// The blocking-clause contender under an extraction schedule: enumerates
/// undetected `(e, m)` configurations of total weight
/// `|supp(e)| + |m| ≤ max_weight` one model at a time — the SAT half of the
/// faulty-measurement backend-agreement suite.
pub fn sat_enumerator_with_schedule(
    code: &StabilizerCode,
    schedule: &ExtractionSchedule,
    max_weight: usize,
) -> Vec<u128> {
    let n = code.n();
    let DetectionParts {
        mut ctx,
        ex,
        ez,
        em,
        support,
    } = detection_parts_with_schedule(code, schedule, SolverConfig::default());
    ctx.assert_at_most(&support, max_weight as i64);
    let mut coefficients = vec![0u128; max_weight + 1];
    while ctx.check(&[]) == CheckResult::Sat {
        let m = ctx.model();
        let weight = (0..n)
            .filter(|&q| m.get(ex[q]).as_bool() || m.get(ez[q]).as_bool())
            .count()
            + em.iter().filter(|&&v| m.get(v).as_bool()).count();
        coefficients[weight] += 1;
        block_model(&mut ctx, &m, ex.iter().chain(&ez).chain(&em));
    }
    coefficients
}

/// Adds the clause forbidding the model's assignment to `vars` (the
/// standard blocking clause of AllSAT loops).
fn block_model<'a, I: IntoIterator<Item = &'a VarId>>(ctx: &mut SmtContext, m: &CMem, vars: I) {
    let clause: Vec<Lit> = vars
        .into_iter()
        .map(|&v| {
            let l = ctx.lit_of(v);
            if m.get(v).as_bool() {
                !l
            } else {
                l
            }
        })
        .collect();
    ctx.add_clause(clause);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{find_distance, DistanceOutcome};
    use veriqec_codes::{
        c4_422, cube_color_822, five_qubit, gottesman8, rotated_surface, shor9, six_qubit, steane,
        xzzx_surface,
    };

    /// Truth-table reference for tiny codes: enumerate all `4^n` error
    /// configurations directly from the symplectic representation.
    fn brute_force_enumerator(code: &StabilizerCode) -> Vec<u128> {
        let n = code.n();
        assert!(2 * n <= 20, "brute force only for tiny codes");
        let mut coefficients = vec![0u128; n + 1];
        for bits in 0u64..1 << (2 * n) {
            let ex = |q: usize| (bits >> q) & 1 == 1;
            let ez = |q: usize| (bits >> (n + q)) & 1 == 1;
            let commutes_with_all = code.generators().iter().all(|g| {
                let mut parity = false;
                for q in 0..n {
                    parity ^= g.pauli().x_bit(q) & ez(q);
                    parity ^= g.pauli().z_bit(q) & ex(q);
                }
                !parity
            });
            let flips_some_logical = code.logical_x().iter().chain(code.logical_z()).any(|l| {
                let mut parity = false;
                for q in 0..n {
                    parity ^= l.pauli().x_bit(q) & ez(q);
                    parity ^= l.pauli().z_bit(q) & ex(q);
                }
                parity
            });
            if commutes_with_all && flips_some_logical {
                let weight = (0..n).filter(|&q| ex(q) || ez(q)).count();
                coefficients[weight] += 1;
            }
        }
        coefficients
    }

    #[test]
    fn c4_enumerator_matches_truth_table() {
        let code = c4_422();
        let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
        assert_eq!(fe.coefficients(), brute_force_enumerator(&code).as_slice());
        assert_eq!(fe.enumerator().min_weight, Some(2));
    }

    #[test]
    fn steane_enumerator_matches_truth_table_and_group_theory() {
        let code = steane();
        let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
        assert_eq!(fe.coefficients(), brute_force_enumerator(&code).as_slice());
        // |N(S)| − |S·⟨logical identity⟩|: 2^{n+k} − 2^{n−k} failures.
        let e = fe.enumerator();
        assert_eq!(e.total(), (1 << 8) - (1 << 6));
        assert_eq!(e.min_weight, Some(3));
    }

    #[test]
    fn enumerator_matches_blocking_clause_sat_on_small_zoo() {
        // The two backends answer the same counting question through
        // entirely different algorithms; they must agree coefficient by
        // coefficient (SAT side truncated to full range here — these codes
        // have few enough failures to enumerate one by one).
        for code in [c4_422(), five_qubit(), six_qubit(), steane()] {
            let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
            let sat = sat_enumerator(&code, code.n());
            assert_eq!(
                fe.coefficients(),
                sat.as_slice(),
                "{} enumerators disagree",
                code.name()
            );
        }
    }

    #[test]
    fn total_failures_match_group_counting_across_zoo() {
        // For any [[n,k]] stabilizer code the failure set is the normalizer
        // minus the stabilizer-times-identity classes: 2^{n+k} − 2^{n−k}.
        for code in [
            c4_422(),
            five_qubit(),
            six_qubit(),
            steane(),
            gottesman8(),
            cube_color_822(),
            shor9(),
            rotated_surface(3),
            xzzx_surface(3),
        ] {
            let (n, k) = (code.n() as u32, code.k() as u32);
            let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
            assert_eq!(
                fe.enumerator().total(),
                (1u128 << (n + k)) - (1u128 << (n - k)),
                "{}",
                code.name()
            );
        }
    }

    #[test]
    fn min_nonzero_weight_agrees_with_find_distance_across_zoo() {
        // The ISSUE's cross-check: the least weight with a nonzero
        // enumerator coefficient IS the code distance, and the SAT sweep
        // must land on the same value.
        for code in [
            c4_422(),
            five_qubit(),
            six_qubit(),
            steane(),
            gottesman8(),
            cube_color_822(),
            shor9(),
            rotated_surface(3),
            xzzx_surface(3),
        ] {
            let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
            let via_dd = fe.enumerator().min_weight.expect("every code has failures");
            let via_sat = find_distance(&code, code.n());
            assert_eq!(
                DistanceOutcome::Exact(via_dd),
                via_sat,
                "{}: enumerator says {via_dd}, sweep says {via_sat:?}",
                code.name()
            );
        }
    }

    #[test]
    fn truncated_sat_enumeration_matches_prefix() {
        // Weight-bounded blocking-clause enumeration (the only form that
        // scales to larger codes) must agree with the diagram's prefix.
        let code = rotated_surface(3);
        let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
        let sat = sat_enumerator(&code, 4);
        assert_eq!(&fe.coefficients()[..5], sat.as_slice());
    }

    /// Truth-table reference under a noisy schedule: the flips masking an
    /// error are *determined* (`m_{i,j} = syn_i(e)` in every round), so each
    /// logical-flipping `e` contributes one configuration of total weight
    /// `|supp(e)| + rounds·|syn(e)|`.
    fn brute_force_faulty_enumerator(code: &StabilizerCode, rounds: usize) -> Vec<u128> {
        let n = code.n();
        assert!(2 * n <= 20, "brute force only for tiny codes");
        let num_checks = code.generators().len();
        let mut coefficients = vec![0u128; n + rounds * num_checks + 1];
        for bits in 0u64..1 << (2 * n) {
            let ex = |q: usize| (bits >> q) & 1 == 1;
            let ez = |q: usize| (bits >> (n + q)) & 1 == 1;
            let syndrome_weight = code
                .generators()
                .iter()
                .filter(|g| {
                    let mut parity = false;
                    for q in 0..n {
                        parity ^= g.pauli().x_bit(q) & ez(q);
                        parity ^= g.pauli().z_bit(q) & ex(q);
                    }
                    parity
                })
                .count();
            let flips_some_logical = code.logical_x().iter().chain(code.logical_z()).any(|l| {
                let mut parity = false;
                for q in 0..n {
                    parity ^= l.pauli().x_bit(q) & ez(q);
                    parity ^= l.pauli().z_bit(q) & ex(q);
                }
                parity
            });
            if flips_some_logical {
                let weight = (0..n).filter(|&q| ex(q) || ez(q)).count() + rounds * syndrome_weight;
                coefficients[weight] += 1;
            }
        }
        coefficients
    }

    #[test]
    fn faulty_enumerator_matches_truth_table() {
        // The DD backend under noisy schedules vs the 4^n truth table:
        // measurement flips let errors with nonzero syndrome hide, at a
        // per-round weight price.
        for code in [c4_422(), steane()] {
            for rounds in [1, 2] {
                let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
                let mut fe =
                    FailureEnumerator::with_schedule(&code, &schedule, &CompileConfig::default())
                        .unwrap();
                assert_eq!(
                    fe.coefficients(),
                    brute_force_faulty_enumerator(&code, rounds).as_slice(),
                    "{} rounds={rounds}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn faulty_backends_agree_on_detection_verdicts() {
        // The ISSUE's regression: the shared assembly with measurement-error
        // indicators must yield identical detection verdicts from the SAT
        // session and the DD counting backend, at every threshold.
        use crate::engine::DetectionSession;
        use crate::tasks::DetectionOutcome;
        for code in [c4_422(), five_qubit(), steane()] {
            for rounds in [1, 2, 3] {
                let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
                let mut fe =
                    FailureEnumerator::with_schedule(&code, &schedule, &CompileConfig::default())
                        .unwrap();
                let coefficients = fe.coefficients().to_vec();
                let mut session =
                    DetectionSession::with_schedule(&code, &schedule, SolverConfig::default());
                let max_dt = fe.enumerator().min_weight.expect("failures exist") + 2;
                for dt in 2..=max_dt {
                    let sat_says = session.check(dt);
                    let dd_says_all_detected = coefficients[1..dt.min(coefficients.len())]
                        .iter()
                        .all(|&c| c == 0);
                    match (&sat_says, dd_says_all_detected) {
                        (DetectionOutcome::AllDetected, true)
                        | (DetectionOutcome::UndetectedLogical { .. }, false) => {}
                        other => panic!(
                            "{} rounds={rounds} dt={dt}: SAT and DD disagree: {other:?}",
                            code.name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_enumerator_matches_blocking_clause_sat() {
        // Coefficient-level agreement between the two backends on the
        // truncated range the SAT loop can afford.
        let code = c4_422();
        for rounds in [1, 2] {
            let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
            let mut fe =
                FailureEnumerator::with_schedule(&code, &schedule, &CompileConfig::default())
                    .unwrap();
            let sat = sat_enumerator_with_schedule(&code, &schedule, 4);
            assert_eq!(&fe.coefficients()[..5], sat.as_slice(), "rounds={rounds}");
        }
    }

    #[test]
    fn cancelled_compile_reports_cleanly() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(true));
        let err = FailureEnumerator::new(
            &steane(),
            &CompileConfig {
                stop: veriqec_sat::Stop::new(vec![stop], None),
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }
}
