//! Decoders and decoder specifications for QEC verification.
//!
//! The paper treats the decoder as an uninterpreted function constrained by
//! the *minimum-weight decoder condition* `P_f` (§5.2): corrections must
//! reproduce the measured syndromes and weigh no more than the injected
//! errors. This crate provides:
//!
//! * [`MinWeightSpec`] — the `P_f` constraint emitter for the SMT layer,
//!   one per decoder call of every verification problem
//!   (`veriqec::tasks::build_problem*`);
//! * [`CssLookupDecoder`] — per-sector minimum-weight lookup tables, the
//!   concrete decoder of the fixed-error/non-Pauli pipeline
//!   (`veriqec::tasks::verify_nonpauli_memory`) and of the tableau sampling
//!   baseline (`tables stim`);
//! * [`decode_call_oracle`] — adapts a [`CssLookupDecoder`] to program
//!   interpretation (`decode_x`/`decode_z` calls), for the same two users;
//! * [`SpaceTimeDecoder`] — the exact budget-aware space-time decoder of
//!   repeated extraction, behind the Pauli-frame cross-check of
//!   `tables fault_tolerance` (`veriqec::sampling::exhaustive_frame_check`);
//! * [`space_time_decode_call_oracle`] — adapts a pair of
//!   [`SpaceTimeDecoder`]s to program interpretation, for the faulty-readout
//!   differential tests;
//! * [`LookupDecoder`] — a whole-code minimum-weight lookup decoder, used
//!   by the pipeline-consistency tests.
//!
//! # Examples
//!
//! ```
//! use veriqec_codes::steane;
//! use veriqec_decoder::LookupDecoder;
//! use veriqec_pauli::PauliString;
//!
//! let code = steane();
//! let dec = LookupDecoder::for_code(&code, 1);
//! let err = PauliString::single(7, 'X', 2);
//! let syndrome = code.group().syndrome_of(&err);
//! let corr = dec.decode(&syndrome).expect("single errors decodable");
//! // The correction cancels the error up to a stabilizer.
//! let residue = corr.mul(&err);
//! assert!(code.group().decompose(&residue).is_some());
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use veriqec_cexpr::VarId;
use veriqec_codes::{enumerate_errors, StabilizerCode};
use veriqec_gf2::BitVec;
use veriqec_pauli::PauliString;
use veriqec_smt::SmtContext;

/// An exact minimum-weight decoder: maps syndromes to a minimum-weight
/// correction, built by enumerating all errors up to a weight budget.
#[derive(Clone, Debug)]
pub struct LookupDecoder {
    table: HashMap<BitVec, PauliString>,
    num_qubits: usize,
}

impl LookupDecoder {
    /// Builds the table for all errors of weight `<= max_weight`
    /// (breadth-first, so each syndrome keeps its minimum-weight correction).
    pub fn for_code(code: &StabilizerCode, max_weight: usize) -> Self {
        let n = code.n();
        let mut table = HashMap::new();
        table.insert(
            BitVec::zeros(code.generators().len()),
            PauliString::identity(n),
        );
        for w in 1..=max_weight {
            enumerate_errors(n, w, &mut |e| {
                let s = code.group().syndrome_of(e);
                table.entry(s).or_insert_with(|| e.clone());
            });
        }
        LookupDecoder {
            table,
            num_qubits: n,
        }
    }

    /// Decodes a syndrome; `None` when outside the covered radius.
    pub fn decode(&self, syndrome: &BitVec) -> Option<PauliString> {
        self.table.get(syndrome).cloned()
    }

    /// Number of distinct syndromes covered.
    pub fn coverage(&self) -> usize {
        self.table.len()
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }
}

/// A CSS-sector lookup decoder pair: `decode_x` consumes Z-check syndromes
/// and emits X-side corrections of X errors; `decode_z` the dual. Matches the
/// decoder calls `f_x`, `f_z` of the paper's Steane program (Table 1).
#[derive(Clone, Debug)]
pub struct CssLookupDecoder {
    /// Corrections for X errors (indexed by Z-check syndromes).
    pub x_corrections: HashMap<BitVec, BitVec>,
    /// Corrections for Z errors (indexed by X-check syndromes).
    pub z_corrections: HashMap<BitVec, BitVec>,
}

impl CssLookupDecoder {
    /// Builds both sector tables by enumerating single-sector errors up to
    /// `max_weight`.
    ///
    /// # Panics
    ///
    /// Panics when the code is not CSS.
    pub fn for_code(code: &StabilizerCode, max_weight: usize) -> Self {
        let hx = code.css_hx().expect("CSS code required");
        let hz = code.css_hz().expect("CSS code required");
        let n = code.n();
        let build = |checks: &veriqec_gf2::BitMatrix| {
            let mut table: HashMap<BitVec, BitVec> = HashMap::new();
            table.insert(BitVec::zeros(checks.num_rows()), BitVec::zeros(n));
            // BFS over supports by weight.
            let mut supports: Vec<BitVec> = vec![BitVec::zeros(n)];
            for _w in 1..=max_weight {
                let mut next = Vec::new();
                for s in &supports {
                    let start = s.iter_ones().last().map_or(0, |i| i + 1);
                    for q in start..n {
                        let mut e = s.clone();
                        e.set(q, true);
                        let syn = checks.mul_vec(&e);
                        table.entry(syn).or_insert_with(|| e.clone());
                        next.push(e);
                    }
                }
                supports = next;
            }
            table
        };
        CssLookupDecoder {
            // X errors are detected by Z checks (hz), corrected on the X side.
            x_corrections: build(&hz),
            z_corrections: build(&hx),
        }
    }
}

/// Adapts a [`CssLookupDecoder`] to the interpreter's
/// `veriqec_prog::DecoderOracle` interface: decoder names
/// `decode_x` (inputs = Z-check syndromes, outputs = X corrections) and
/// `decode_z` (inputs = X-check syndromes, outputs = Z corrections).
pub fn decode_call_oracle(
    decoder: CssLookupDecoder,
    num_qubits: usize,
) -> impl Fn(&str, &[bool]) -> Vec<bool> {
    move |name: &str, inputs: &[bool]| -> Vec<bool> {
        let syndrome = BitVec::from_bools(inputs.iter().copied());
        let table = match name {
            "decode_x" => &decoder.x_corrections,
            "decode_z" => &decoder.z_corrections,
            other => panic!("unknown decoder `{other}`"),
        };
        let correction = table
            .get(&syndrome)
            .cloned()
            .unwrap_or_else(|| BitVec::zeros(num_qubits));
        correction.to_bools()
    }
}

/// The minimum-weight decoder specification `P_f` (§5.2), generalized to
/// faulty measurement: given syndrome, correction and error variables,
/// asserts into an [`SmtContext`]
///
/// 1. *syndrome consistency*: the correction together with the decoder's
///    *claimed flips* reproduces each observed syndrome,
///    `r_i(c) ⊕ f_i = s_i` (with `f_i ≡ 0` when `flips` is empty — the
///    perfect-measurement model);
/// 2. *minimality*: `Σ c + Σ f ≤ Σ e + Σ m` — the decoder's space-time
///    explanation weighs no more than the injected data + measurement
///    errors.
///
/// This is the necessary condition of any minimum-weight decoder (the exact
/// [`SpaceTimeDecoder`] satisfies it: the real `(e, m)` is always a
/// candidate explanation); the verification condition quantifies over all
/// decoders satisfying it. The faulty-measurement model additionally bounds
/// the *claims* by the promised budgets (`Σ c ≤ t_d`, `Σ f ≤ t_m`) — those
/// bounds depend on the grid point being verified, so they are asserted at
/// the problem level (`veriqec::tasks::build_problem_split`) or swept as
/// assumptions (`veriqec::engine::FaultToleranceSweep`), not here.
#[derive(Clone, Debug)]
pub struct MinWeightSpec {
    /// Check supports: row `i` lists which correction bits flip syndrome `i`.
    pub checks: Vec<Vec<VarId>>,
    /// The syndrome variable of each check (one entry per measurement site
    /// when the schedule repeats checks over rounds).
    pub syndromes: Vec<VarId>,
    /// Correction variables.
    pub corrections: Vec<VarId>,
    /// Error variables bounding the correction weight.
    pub errors: Vec<VarId>,
    /// Claimed measurement-flip variables (decoder outputs), parallel to
    /// `syndromes`; empty for the perfect-measurement model.
    pub flips: Vec<VarId>,
    /// Measurement-error indicators on the right-hand side of the weight
    /// comparison, alongside `errors`; empty for perfect measurement.
    pub meas_errors: Vec<VarId>,
}

impl MinWeightSpec {
    /// Asserts the `P_f` constraints.
    ///
    /// # Panics
    ///
    /// Panics when `flips` is non-empty but does not match `syndromes` in
    /// length.
    pub fn assert_into(&self, ctx: &mut SmtContext) {
        assert!(
            self.flips.is_empty() || self.flips.len() == self.syndromes.len(),
            "one claimed flip per observed syndrome"
        );
        for (i, (support, &s)) in self.checks.iter().zip(&self.syndromes).enumerate() {
            let mut aff = veriqec_cexpr::Affine::var(s);
            for &c in support {
                aff.xor_var(c);
            }
            if let Some(&f) = self.flips.get(i) {
                aff.xor_var(f);
            }
            ctx.assert_affine_eq(&aff, false);
        }
        let mut c_lits: Vec<_> = self.corrections.iter().map(|&v| ctx.lit_of(v)).collect();
        c_lits.extend(self.flips.iter().map(|&v| ctx.lit_of(v)));
        let mut e_lits: Vec<_> = self.errors.iter().map(|&v| ctx.lit_of(v)).collect();
        e_lits.extend(self.meas_errors.iter().map(|&v| ctx.lit_of(v)));
        ctx.assert_sum_le_sum(&c_lits, &e_lits, 0);
    }
}

/// An exact space-time minimum-weight decoder for one check sector over a
/// repeated-extraction history: given the observed syndromes of `rounds`
/// rounds, finds the correction `c` and claimed flips `f` minimizing
/// `|c| + |f|` subject to `syn(c) ⊕ f_j = obs_j` for every round `j`.
///
/// The flips are determined by the correction (`f_j = syn(c) ⊕ obs_j`), so
/// the search enumerates corrections only — exhaustively over all `2^n`
/// supports, which makes this decoder *exact* (and exponential: it is the
/// testing/simulation reference, not a scalable decoder). Ties break toward
/// the lexicographically first minimal support, which prefers "explain by
/// flips" (`c = 0`) whenever that is minimal.
#[derive(Clone, Debug)]
pub struct SpaceTimeDecoder {
    checks: veriqec_gf2::BitMatrix,
    rounds: usize,
}

impl SpaceTimeDecoder {
    /// Builds the decoder for a sector's parity checks and a round count.
    ///
    /// # Panics
    ///
    /// Panics when the sector is too wide to enumerate (`n > 20`) or
    /// `rounds` is zero.
    pub fn new(checks: veriqec_gf2::BitMatrix, rounds: usize) -> Self {
        assert!(checks.num_cols() <= 20, "exhaustive decoder: n <= 20");
        assert!(rounds > 0, "at least one round");
        SpaceTimeDecoder { checks, rounds }
    }

    /// Number of data columns (qubits) in the sector.
    pub fn num_qubits(&self) -> usize {
        self.checks.num_cols()
    }

    /// Number of extraction rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Decodes a flattened round-major syndrome history into
    /// `(correction, claimed flips)`, both as bit vectors (`flips` flattened
    /// in the same round-major order).
    ///
    /// # Panics
    ///
    /// Panics when `history` has the wrong length.
    pub fn decode(&self, history: &[bool]) -> (BitVec, Vec<bool>) {
        self.decode_bounded(history, usize::MAX, usize::MAX)
    }

    /// Budget-aware decoding: like [`SpaceTimeDecoder::decode`], but only
    /// explanations within the *promised* fault model are admitted —
    /// `|c| ≤ t_data` and `|f| ≤ t_meas`. This is what makes repeated
    /// extraction work: the history `[0, s, s]` of a round-1 flip masking a
    /// real data error is ambiguous by raw weight, but the non-correcting
    /// explanation claims 2 flips and is ruled out by `t_meas = 1`. Falls
    /// back to the unconstrained minimum when no explanation fits the
    /// budgets (the promise was broken — outside the verified regime).
    ///
    /// # Panics
    ///
    /// Panics when `history` has the wrong length.
    pub fn decode_bounded(
        &self,
        history: &[bool],
        t_data: usize,
        t_meas: usize,
    ) -> (BitVec, Vec<bool>) {
        let n = self.checks.num_cols();
        let m = self.checks.num_rows();
        assert_eq!(history.len(), self.rounds * m, "history length");
        // (within budgets?, cost): feasible explanations always beat
        // infeasible ones, then lower cost wins, then first found (the
        // lexicographically smallest support).
        let mut best: Option<(bool, usize, BitVec, Vec<bool>)> = None;
        for support in 0u32..1 << n {
            let c = BitVec::from_bools((0..n).map(|q| (support >> q) & 1 == 1));
            let syn = self.checks.mul_vec(&c);
            let mut flips = Vec::with_capacity(self.rounds * m);
            for round in 0..self.rounds {
                for check in 0..m {
                    flips.push(syn.get(check) ^ history[round * m + check]);
                }
            }
            let cw = c.weight();
            let fw = flips.iter().filter(|&&f| f).count();
            let feasible = cw <= t_data && fw <= t_meas;
            let cost = cw + fw;
            if best
                .as_ref()
                .is_none_or(|&(bf, bc, _, _)| (!bf && feasible) || (bf == feasible && cost < bc))
            {
                best = Some((feasible, cost, c, flips));
            }
        }
        let (_, _, c, f) = best.expect("at least the empty correction");
        (c, f)
    }
}

/// Adapts per-sector [`SpaceTimeDecoder`]s to the interpreter's
/// `veriqec_prog::DecoderOracle` interface for repeated-extraction programs:
/// `decode_x` consumes the flattened Z-check syndrome history and returns
/// X-side corrections followed by its claimed flips; `decode_z` the dual.
/// Decoding is budget-aware ([`SpaceTimeDecoder::decode_bounded`] with the
/// given promised budgets), which makes the oracle a member of the decoder
/// class the faulty-measurement `P_f` quantifies over: its explanation is
/// consistent, no heavier than the truth, and within the claim budgets.
/// Note that even with `rounds == 1` the decoder may explain an observed
/// syndrome as a readout flip when that is no heavier than a data
/// correction — flips are part of the explanation space whenever the
/// protocol admits measurement errors.
///
/// # Panics
///
/// The returned closure panics on unknown decoder names or wrong input
/// lengths; construction panics when the code is not CSS.
pub fn space_time_decode_call_oracle(
    code: &StabilizerCode,
    rounds: usize,
    t_data: usize,
    t_meas: usize,
) -> impl Fn(&str, &[bool]) -> Vec<bool> {
    let hx = code.css_hx().expect("CSS code required");
    let hz = code.css_hz().expect("CSS code required");
    let x_decoder = SpaceTimeDecoder::new(hz, rounds); // Z checks find X errors
    let z_decoder = SpaceTimeDecoder::new(hx, rounds);
    move |name: &str, inputs: &[bool]| -> Vec<bool> {
        let decoder = match name {
            "decode_x" => &x_decoder,
            "decode_z" => &z_decoder,
            other => panic!("unknown decoder `{other}`"),
        };
        let (c, f) = decoder.decode_bounded(inputs, t_data, t_meas);
        let mut out = c.to_bools();
        out.extend(f);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{VarRole, VarTable};
    use veriqec_codes::{rotated_surface, steane};

    #[test]
    fn steane_lookup_corrects_all_single_errors() {
        let code = steane();
        let dec = LookupDecoder::for_code(&code, 1);
        // 1 trivial + up to 21 single-error syndromes.
        assert_eq!(dec.coverage(), 1 + 21);
        enumerate_errors(7, 1, &mut |e| {
            let s = code.group().syndrome_of(e);
            let c = dec.decode(&s).expect("covered");
            let residue = c.mul(e);
            assert!(
                code.group().decompose(&residue).is_some(),
                "residue {residue} of error {e} is not a stabilizer"
            );
        });
    }

    #[test]
    fn css_decoder_sector_tables() {
        let code = steane();
        let dec = CssLookupDecoder::for_code(&code, 1);
        // 3 Z checks → up to 8 syndromes; 7 single-X errors + trivial = 8.
        assert_eq!(dec.x_corrections.len(), 8);
        assert_eq!(dec.z_corrections.len(), 8);
    }

    #[test]
    fn surface_d3_lookup_weight_1() {
        let code = rotated_surface(3);
        let dec = LookupDecoder::for_code(&code, 1);
        enumerate_errors(9, 1, &mut |e| {
            let s = code.group().syndrome_of(e);
            let c = dec.decode(&s).expect("single errors covered");
            let residue = c.mul(e);
            assert!(code.group().decompose(&residue).is_some());
        });
    }

    #[test]
    fn oracle_interface_roundtrip() {
        let code = steane();
        let dec = CssLookupDecoder::for_code(&code, 1);
        let oracle = decode_call_oracle(dec, 7);
        // X error on qubit 3 (0-based): Z checks have supports
        // {0,2,4,6},{1,2,5,6},{3,4,5,6}: syndrome = (0,0,1).
        let out = oracle("decode_x", &[false, false, true]);
        assert_eq!(out.len(), 7);
        let ones: Vec<usize> = out
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert_eq!(ones, vec![3]);
    }

    #[test]
    fn space_time_decoder_prefers_flip_explanations() {
        // Repetition-3 Z checks, 3 rounds. A single flipped readout in one
        // round is cheaper to explain as a flip (cost 1) than as a data
        // error (cost 1 data + 2 flips in the other rounds).
        let checks = veriqec_gf2::BitMatrix::parse(&["110", "011"]);
        let dec = SpaceTimeDecoder::new(checks.clone(), 3);
        let mut history = vec![false; 6];
        history[0] = true; // check 0 fires in round 0 only
        let (c, f) = dec.decode(&history);
        assert!(c.is_zero(), "no data correction: {c}");
        assert_eq!(f, history, "the flip claim explains the record");
        // A syndrome repeated in all rounds is a data error.
        let persistent = vec![true, false, true, false, true, false];
        let (c, f) = dec.decode(&persistent);
        assert_eq!(c.weight(), 1, "one data correction");
        assert!(f.iter().all(|&b| !b), "no flips claimed");
        assert_eq!(checks.mul_vec(&c).to_bools(), vec![true, false]);
    }

    #[test]
    fn budget_bounds_break_the_masked_error_ambiguity() {
        // Repetition-3 Z checks, 3 rounds: a data error on qubit 0 with its
        // round-1 readout flipped gives check-0 history [0, 1, 1]. By raw
        // weight this ties with "flips in rounds 2 and 3" (both cost 2) and
        // the unconstrained decoder may refuse to correct; with the promised
        // budgets t_d = t_m = 1 the two-flip explanation is inadmissible and
        // the decoder must correct.
        let checks = veriqec_gf2::BitMatrix::parse(&["110", "011"]);
        let dec = SpaceTimeDecoder::new(checks.clone(), 3);
        let history = [
            false, false, // round 0 (flip masked the firing check)
            true, false, // round 1
            true, false, // round 2
        ];
        let (c_free, _) = dec.decode(&history);
        assert!(c_free.is_zero(), "raw weight ties break toward flips");
        let (c, f) = dec.decode_bounded(&history, 1, 1);
        assert_eq!(c.weight(), 1, "budget-aware decoding corrects");
        assert_eq!(checks.mul_vec(&c).to_bools(), vec![true, false]);
        assert_eq!(f.iter().filter(|&&b| b).count(), 1, "one claimed flip");
        // Infeasible budgets fall back to the unconstrained minimum.
        let (c_fallback, _) = dec.decode_bounded(&history, 0, 0);
        assert!(c_fallback.is_zero());
    }

    #[test]
    fn space_time_oracle_explanations_are_consistent_and_minimal() {
        // On every single-error syndrome the explanation must reproduce the
        // observed record (syn(c) ⊕ f = obs) and weigh no more than the
        // true error — the necessary P_f condition the spec asserts.
        let code = steane();
        let st = space_time_decode_call_oracle(&code, 1, usize::MAX, usize::MAX);
        let hz = code.css_hz().unwrap();
        for q in 0..7 {
            let mut e = veriqec_gf2::BitVec::zeros(7);
            e.set(q, true);
            let syn = hz.mul_vec(&e).to_bools();
            let out = st("decode_x", &syn);
            let (c, f) = out.split_at(7);
            let c = veriqec_gf2::BitVec::from_bools(c.iter().copied());
            let reproduced: Vec<bool> = hz
                .mul_vec(&c)
                .to_bools()
                .iter()
                .zip(f)
                .map(|(&a, &b)| a ^ b)
                .collect();
            assert_eq!(reproduced, syn, "q={q}");
            let cost = c.weight() + f.iter().filter(|&&b| b).count();
            assert!(cost <= 1, "q={q}: explanation heavier than the error");
        }
        // Qubit 6 sits on all three Z checks: a persistent weight-3
        // syndrome is cheaper to explain as one data correction.
        let mut e = veriqec_gf2::BitVec::zeros(7);
        e.set(6, true);
        let out = st("decode_x", &hz.mul_vec(&e).to_bools());
        let (c, f) = out.split_at(7);
        assert!(f.iter().all(|&b| !b));
        assert_eq!(
            veriqec_gf2::BitVec::from_bools(c.iter().copied()).weight(),
            1
        );
    }

    #[test]
    fn faulty_spec_is_satisfied_by_the_true_explanation_only_within_budget() {
        use veriqec_cexpr::BExp;
        // One check over two qubits, two rounds: P_f with flips demands
        // syn(c) ⊕ f_j = s_j and Σc + Σf ≤ Σe + Σm.
        let mut vt = VarTable::new();
        let s: Vec<VarId> = (0..2)
            .map(|i| vt.fresh_indexed("s", i, VarRole::Syndrome))
            .collect();
        let c: Vec<VarId> = (0..2)
            .map(|i| vt.fresh_indexed("c", i, VarRole::Correction))
            .collect();
        let f: Vec<VarId> = (0..2)
            .map(|i| vt.fresh_indexed("f", i, VarRole::Correction))
            .collect();
        let e: Vec<VarId> = (0..2)
            .map(|i| vt.fresh_indexed("e", i, VarRole::Error))
            .collect();
        let m: Vec<VarId> = (0..2)
            .map(|i| vt.fresh_indexed("m", i, VarRole::MeasError))
            .collect();
        let spec = MinWeightSpec {
            checks: vec![vec![c[0], c[1]]; 2],
            syndromes: s.clone(),
            corrections: c.clone(),
            errors: e.clone(),
            flips: f.clone(),
            meas_errors: m.clone(),
        };
        let mut ctx = SmtContext::new();
        spec.assert_into(&mut ctx);
        // Observed: fired in round 0 only; no data or measurement errors
        // admitted. The decoder would need a flip or a correction, but the
        // budget side is zero: unsat.
        ctx.assert(&BExp::var(s[0])).unwrap();
        ctx.assert(&BExp::not(BExp::var(s[1]))).unwrap();
        for &v in e.iter().chain(&m) {
            ctx.assert(&BExp::not(BExp::var(v))).unwrap();
        }
        assert!(ctx.check(&[]).is_unsat());
        // Granting one measurement error makes it satisfiable, and the
        // model explains the record with a claimed flip, not a correction.
        let mut ctx = SmtContext::new();
        spec.assert_into(&mut ctx);
        ctx.assert(&BExp::var(s[0])).unwrap();
        ctx.assert(&BExp::not(BExp::var(s[1]))).unwrap();
        ctx.assert(&BExp::var(m[0])).unwrap();
        for &v in e.iter().chain(std::iter::once(&m[1])) {
            ctx.assert(&BExp::not(BExp::var(v))).unwrap();
        }
        assert!(ctx.check(&[]).is_sat());
        let model = ctx.model();
        assert!(!model.get(c[0]).as_bool() && !model.get(c[1]).as_bool());
        assert!(model.get(f[0]).as_bool() && !model.get(f[1]).as_bool());
    }

    #[test]
    fn min_weight_spec_unsat_on_overweight_corrections() {
        use veriqec_cexpr::BExp;
        // The Steane X decoder: Z checks on {0,2,4,6}, {1,2,5,6}, {3,4,5,6}.
        let mut vt = VarTable::new();
        let syndromes: Vec<VarId> = (0..3)
            .map(|i| vt.fresh_indexed("s", i, VarRole::Syndrome))
            .collect();
        let errors: Vec<VarId> = (0..7)
            .map(|i| vt.fresh_indexed("e", i, VarRole::Error))
            .collect();
        let corrections: Vec<VarId> = (0..7)
            .map(|i| vt.fresh_indexed("cx", i, VarRole::Correction))
            .collect();
        let spec = MinWeightSpec {
            checks: [[0, 2, 4, 6], [1, 2, 5, 6], [3, 4, 5, 6]]
                .iter()
                .map(|row| row.iter().map(|&q| corrections[q]).collect())
                .collect(),
            syndromes,
            corrections,
            errors: errors.clone(),
            flips: vec![],
            meas_errors: vec![],
        };
        let mut ctx = SmtContext::new();
        spec.assert_into(&mut ctx);
        // Single error budget but demand 2 corrections: unsat.
        ctx.assert(&BExp::weight_le(errors.iter().copied(), 1))
            .unwrap();
        let c_lits: Vec<_> = spec.corrections.iter().map(|&v| ctx.lit_of(v)).collect();
        ctx.assert_at_least(&c_lits, 2);
        assert!(ctx.check(&[]).is_unsat());
    }
}
