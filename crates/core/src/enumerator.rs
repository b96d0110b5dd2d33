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
//! The formula is assembled once (`DetectionFormula`): the observed
//! syndrome forms, one GF(2) parity row per extraction site, the logical
//! forms and the per-qubit error pairs, all over classical variables. It
//! has two lowerings. The SAT lowering (`DetectionFormula::to_smt`)
//! Tseitin-encodes the rows through a [`veriqec_smt::SmtContext`] for
//! [`crate::engine::DetectionSession`] and [`sat_enumerator`]. The diagram
//! lowering, behind [`FailureEnumerator`], never turns a row into clauses:
//! it numbers the variables per qubit as `(ex_q, s_q, ez_q)` with the
//! measurement flips last, builds each support definition
//! `s_q ↔ ex_q ∨ ez_q` and each row's parity right before conjoining it
//! (`veriqec_dd::compile`), in order of lowest variable, and the
//! some-logical-flips disjunction last. Every support indicator is
//! determined by its error pair, so weight-stratified model counts over the
//! indicators are error-configuration counts exactly: the whole enumerator
//! falls out of one pass instead of one SAT call per (weight, count) step
//! of a blocking-clause loop ([`sat_enumerator`], kept as the differential
//! baseline and the benchmark's contender).

use std::collections::HashMap;

use veriqec_cexpr::{Affine, CMem, VarId, VarRole, VarTable};
use veriqec_codes::{ExtractionSchedule, StabilizerCode};
use veriqec_dd::{
    compile, Bdd, BddManager, CompileConfig, CompileError, CountError, CountOverflow, DdStats,
};
use veriqec_pauli::PauliString;
use veriqec_sat::{Lit, SolverConfig, Stop};
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
    fn new(coefficients: Vec<u128>) -> Self {
        let min_weight = coefficients.iter().position(|&c| c > 0);
        WeightEnumerator {
            coefficients,
            min_weight,
        }
    }

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
/// formula, same single-assembly discipline, but the backend is
/// `veriqec_dd` and the answer is the full weight distribution instead of
/// one SAT/UNSAT bit.
#[derive(Clone, Debug)]
pub struct FailureEnumerator {
    name: String,
    manager: BddManager,
    root: Bdd,
    /// Support indicators as `(BDD variable, polarity)`: one per qubit
    /// (`n` for the perfect model), plus one per measurement site under a
    /// noisy schedule.
    indicators: Vec<(usize, bool)>,
    coefficients: Option<Vec<u128>>,
}

impl FailureEnumerator {
    /// Assembles and compiles the counting formula for `code` once (the
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
        DetectionFormula::new(code, schedule).to_bdd(code.name(), config)
    }

    /// The code's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enumerator coefficients by support weight
    /// (`0..=` the number of indicators), computed on first call and
    /// cached.
    ///
    /// # Errors
    ///
    /// [`CountOverflow`] when a count exceeds `u128`, as it can from 128
    /// qubits on.
    pub fn coefficients(&mut self) -> Result<&[u128], CountOverflow> {
        if self.coefficients.is_none() {
            self.coefficients = Some(self.manager.weight_count(self.root, &self.indicators)?);
        }
        Ok(self.coefficients.as_deref().expect("just computed"))
    }

    /// The full enumerator report.
    ///
    /// # Errors
    ///
    /// See [`FailureEnumerator::coefficients`].
    pub fn enumerator(&mut self) -> Result<WeightEnumerator, CountOverflow> {
        Ok(WeightEnumerator::new(self.coefficients()?.to_vec()))
    }

    /// [`FailureEnumerator::enumerator`] under a stop, which the count
    /// polls as it goes (see [`BddManager::weight_count_until`]): the
    /// engine's counting jobs run this with the stop that bounded their
    /// compile.
    ///
    /// # Errors
    ///
    /// [`CountError::Overflow`] when a count exceeds `u128`;
    /// [`CountError::Cancelled`] once `stop` is raised, which leaves the
    /// session able to count again.
    pub fn enumerator_until(&mut self, stop: &Stop) -> Result<WeightEnumerator, CountError> {
        if self.coefficients.is_none() {
            let counted = self
                .manager
                .weight_count_until(self.root, &self.indicators, stop)?;
            self.coefficients = Some(counted);
        }
        Ok(WeightEnumerator::new(
            self.coefficients.clone().expect("just computed"),
        ))
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

/// The detection formula (Eqn. 15) under an extraction schedule, over
/// classical variables: every observed syndrome vanishes
/// (`syn_i(e) ⊕ m_{i,j} = 0` per round `j`, the flip term present only
/// at noisy sites) and some logical operator anticommutes with the error.
/// No weight constraint — each consumer adds its own (totalizer
/// assumptions, a baked bound, or a stratified count).
///
/// This is the single assembly site behind [`crate::engine::DetectionSession`],
/// [`sat_enumerator`] and [`FailureEnumerator`], with or without
/// measurement errors, so the SAT and counting backends cannot drift apart
/// on the formula; only the lowering differs.
pub(crate) struct DetectionFormula {
    /// Per-qubit X error components.
    pub ex: Vec<VarId>,
    /// Per-qubit Z error components; qubit `q` is in the support iff
    /// `ex[q] ∨ ez[q]`.
    pub ez: Vec<VarId>,
    /// Measurement-flip indicators per (round, generator) in round-major
    /// order; empty for perfect schedules. Each is one unit of weight.
    pub flips: Vec<VarId>,
    /// The observed syndrome forms, one per extraction site in schedule
    /// order, each asserted to vanish.
    pub rows: Vec<Affine>,
    /// The logical forms (X logicals, then Z): some one is 1.
    pub logicals: Vec<Affine>,
}

/// One conjunct of the diagram lowering.
enum Conjunct<'a> {
    /// The support definition of qubit `q`.
    Support(usize),
    /// A syndrome row vanishes.
    Row(&'a Affine),
    /// Some logical form is 1.
    SomeFlip,
}

impl DetectionFormula {
    /// Assembles the formula for `code` under `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover every generator.
    pub fn new(code: &StabilizerCode, schedule: &ExtractionSchedule) -> Self {
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
        // The symplectic product with the error: 1 iff `p` anticommutes.
        let form = |p: &PauliString| {
            let mut aff = Affine::zero();
            for q in 0..n {
                if p.x_bit(q) {
                    aff.xor_var(ez[q]);
                }
                if p.z_bit(q) {
                    aff.xor_var(ex[q]);
                }
            }
            aff
        };
        let mut flips = Vec::new();
        let mut rows = Vec::new();
        for site in schedule.sites() {
            let mut aff = form(code.generators()[site.check].pauli());
            if site.noisy {
                let m = vt.fresh(
                    &format!("m_r{}_{}", site.round, site.check),
                    VarRole::MeasError,
                );
                aff.xor_var(m);
                flips.push(m);
            }
            rows.push(aff);
        }
        let logicals = code
            .logical_x()
            .iter()
            .chain(code.logical_z())
            .map(|l| form(l.pauli()))
            .collect();
        DetectionFormula {
            ex,
            ez,
            flips,
            rows,
            logicals,
        }
    }

    /// The SAT lowering: a fresh context holding the Tseitin encoding, and
    /// the support literals — per qubit (`ex_q ∨ ez_q`), then one per
    /// measurement flip.
    pub fn to_smt(&self, config: SolverConfig) -> (SmtContext, Vec<Lit>) {
        let mut ctx = SmtContext::with_config(config);
        let mut support: Vec<Lit> = self
            .ex
            .iter()
            .zip(&self.ez)
            .map(|(&x, &z)| {
                let lx = ctx.lit_of(x);
                let lz = ctx.lit_of(z);
                ctx.reify_disj(&[lx, lz])
            })
            .collect();
        for row in &self.rows {
            ctx.assert_affine_eq(row, false);
        }
        // The syndrome rows never decide a logical form (it would be a
        // stabilizer); one they did would flip always or never.
        let mut flips = Vec::new();
        for l in &self.logicals {
            match ctx.reify_affine(l) {
                Ok(flip) => flips.push(flip),
                Err(true) => flips.push(ctx.lit_true()),
                Err(false) => {}
            }
        }
        ctx.add_clause(flips);
        support.extend(self.flips.iter().map(|&m| ctx.lit_of(m)));
        (ctx, support)
    }

    /// The diagram lowering: the compiled formula as a counting session,
    /// its support indicators in the order of
    /// [`DetectionFormula::to_smt`]'s support literals.
    fn to_bdd(
        &self,
        name: &str,
        config: &CompileConfig,
    ) -> Result<FailureEnumerator, CompileError> {
        let n = self.ex.len();
        // Per qubit (ex_q, s_q, ez_q), then the flips: a row's parity
        // diagram has at most two nodes per level, and each support
        // indicator sits between the two components that define it.
        let var_of: HashMap<VarId, usize> = (0..n)
            .flat_map(|q| [(self.ex[q], 3 * q), (self.ez[q], 3 * q + 2)])
            .chain(self.flips.iter().enumerate().map(|(i, &m)| (m, 3 * n + i)))
            .collect();
        let mut conjuncts: Vec<(usize, Conjunct)> = (0..n)
            .map(|q| (3 * q, Conjunct::Support(q)))
            .chain(self.rows.iter().map(|row| {
                let lowest = row.vars().map(|v| var_of[&v]).min();
                (lowest.unwrap_or(0), Conjunct::Row(row))
            }))
            .collect();
        conjuncts.sort_by_key(|&(lowest, _)| lowest);
        conjuncts.push((usize::MAX, Conjunct::SomeFlip));
        // `form = 0` as one parity diagram, built bottom-up so each XOR
        // adds its variable above everything built so far.
        let vanishes = |m: &mut BddManager, form: &Affine| {
            let mut vars: Vec<usize> = form.vars().map(|v| var_of[&v]).collect();
            vars.sort_unstable();
            let mut f = if form.constant_part() {
                Bdd::FALSE
            } else {
                Bdd::TRUE
            };
            for v in vars.into_iter().rev() {
                let x = m.var(v);
                f = m.xor_budgeted(f, x, config)?;
            }
            Ok(f)
        };
        let (manager, root) = compile(
            3 * n + self.flips.len(),
            conjuncts.into_iter().map(|(_, c)| c),
            |m, conjunct| match conjunct {
                // s_q ↔ ex_q ∨ ez_q, that is s_q ⊕ (¬ex_q ∧ ¬ez_q).
                Conjunct::Support(q) => {
                    let (x, z) = (m.literal(3 * q, false), m.literal(3 * q + 2, false));
                    let clean = m.and_budgeted(x, z, config)?;
                    let s = m.var(3 * q + 1);
                    m.xor_budgeted(s, clean, config)
                }
                Conjunct::Row(row) => vanishes(m, row),
                Conjunct::SomeFlip => {
                    let mut none = Bdd::TRUE;
                    for l in &self.logicals {
                        let f = vanishes(m, l)?;
                        none = m.and_budgeted(none, f, config)?;
                    }
                    m.xor_budgeted(none, Bdd::TRUE, config)
                }
            },
            config,
        )?;
        let indicators = (0..n)
            .map(|q| 3 * q + 1)
            .chain(3 * n..3 * n + self.flips.len())
            .map(|v| (v, true))
            .collect();
        Ok(FailureEnumerator {
            name: name.to_string(),
            manager,
            root,
            indicators,
            coefficients: None,
        })
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
    let formula = DetectionFormula::new(code, schedule);
    let (mut ctx, support) = formula.to_smt(SolverConfig::default());
    ctx.assert_at_most(&support, max_weight as i64);
    let DetectionFormula { ex, ez, flips, .. } = &formula;
    let mut coefficients = vec![0u128; max_weight + 1];
    while ctx.check(&[]) == CheckResult::Sat {
        let m = ctx.model();
        let weight = ex
            .iter()
            .zip(ez)
            .filter(|&(&x, &z)| m.get(x).as_bool() || m.get(z).as_bool())
            .count()
            + flips.iter().filter(|&&v| m.get(v).as_bool()).count();
        coefficients[weight] += 1;
        block_model(&mut ctx, &m, ex.iter().chain(ez).chain(flips));
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
        c4_422, cube_color_822, five_qubit, gottesman8, repetition, rotated_surface, shor9,
        six_qubit, steane, toric, xzzx_surface,
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
        assert_eq!(
            fe.coefficients().unwrap(),
            brute_force_enumerator(&code).as_slice()
        );
        assert_eq!(fe.enumerator().unwrap().min_weight, Some(2));
    }

    #[test]
    fn steane_enumerator_matches_truth_table_and_group_theory() {
        let code = steane();
        let mut fe = FailureEnumerator::new(&code, &CompileConfig::default()).unwrap();
        assert_eq!(
            fe.coefficients().unwrap(),
            brute_force_enumerator(&code).as_slice()
        );
        // |N(S)| − |S·⟨logical identity⟩|: 2^{n+k} − 2^{n−k} failures.
        let e = fe.enumerator().unwrap();
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
                fe.coefficients().unwrap(),
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
                fe.enumerator().unwrap().total(),
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
            let via_dd = fe
                .enumerator()
                .unwrap()
                .min_weight
                .expect("every code has failures");
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
        assert_eq!(&fe.coefficients().unwrap()[..5], sat.as_slice());
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
                    fe.coefficients().unwrap(),
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
                let coefficients = fe.coefficients().unwrap().to_vec();
                let mut session =
                    DetectionSession::with_schedule(&code, &schedule, SolverConfig::default());
                let max_dt = fe.enumerator().unwrap().min_weight.expect("failures exist") + 2;
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
            assert_eq!(
                &fe.coefficients().unwrap()[..5],
                sat.as_slice(),
                "rounds={rounds}"
            );
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

    #[test]
    fn a_count_stopped_after_compiling_returns_the_cancellation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let config = CompileConfig {
            stop: Stop::new(vec![Arc::clone(&flag)], None),
            ..CompileConfig::default()
        };
        let mut fe = FailureEnumerator::new(&steane(), &config).unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            fe.enumerator_until(&config.stop),
            Err(CountError::Cancelled)
        );
        // The session counts again once the stop is lowered.
        flag.store(false, Ordering::Relaxed);
        let e = fe.enumerator_until(&config.stop).unwrap();
        assert_eq!(e.coefficients, [0, 0, 0, 21, 0, 126, 0, 45]);
        assert_eq!(e, fe.enumerator().unwrap());
    }

    #[test]
    fn counting_toric_3_holds_a_sliver_of_the_full_memo() {
        // One full-width u128 polynomial per node is what the count held
        // before it streamed by level; the live cut, with polynomials sized
        // by the indicators below them, holds under a sixteenth of that
        // (it holds about 1/22).
        let mut fe = FailureEnumerator::new(&toric(3), &CompileConfig::default()).unwrap();
        let width = fe.coefficients().unwrap().len();
        assert_eq!(width, 19);
        let memo = (fe.node_count() * width * 16) as u64;
        let peak = fe.dd_stats().count_peak_bytes;
        assert!(
            peak > 0 && peak <= memo / 16,
            "{peak} bytes held against a full memo of {memo}"
        );
    }

    #[test]
    fn repetition_127_counts_exactly_and_130_overflows() {
        // n + k = 128: the total 2^128 − 2^126 = 3·2^126 still fits in
        // u128, although 2^{n+k} alone does not.
        let mut fe = FailureEnumerator::new(&repetition(127), &CompileConfig::default()).unwrap();
        let e = fe.enumerator().unwrap();
        assert_eq!(e.total(), 3 << 126);
        assert_eq!(e.min_weight, Some(1));
        // Three more qubits and the count no longer fits: an error, not a
        // panic.
        let mut fe = FailureEnumerator::new(&repetition(130), &CompileConfig::default()).unwrap();
        assert_eq!(fe.coefficients(), Err(CountOverflow));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn bdd_and_sat_lowerings_agree_on_random_codes(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..7,
            k in 1usize..3,
            noisy in proptest::prelude::any::<bool>(),
        ) {
            // The two lowerings of the one assembly against each other and
            // against the 4^n truth table, on random codes, perfect and
            // with two noisy rounds.
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let code = veriqec_codes::search::random_code(n, k.min(n - 1), &mut rng);
            let m = code.generators().len();
            let (schedule, truth) = if noisy {
                (ExtractionSchedule::repeated(m, 2), brute_force_faulty_enumerator(&code, 2))
            } else {
                (ExtractionSchedule::perfect(m), brute_force_enumerator(&code))
            };
            let mut fe =
                FailureEnumerator::with_schedule(&code, &schedule, &CompileConfig::default())
                    .unwrap();
            let dd = fe.coefficients().unwrap().to_vec();
            proptest::prop_assert_eq!(&dd, &truth);
            let sat = sat_enumerator_with_schedule(&code, &schedule, dd.len() - 1);
            proptest::prop_assert_eq!(&dd, &sat);
        }
    }
}
