//! Fault-tolerant scenario builders (Table 1, Figs. 8–10).
//!
//! Each builder assembles: the QEC program (error injection → logical
//! operation → syndrome measurement → decoding → correction), the
//! correctness-formula sides (the pre generating set with symbolic logical
//! phases, and the postcondition in QEC normal form), the error-indicator
//! variables for `P_c`, and the decoder wiring for `P_f`.
//!
//! Every correction step is one gadget: measure the generators, decode,
//! correct. A perfect round is the one-round noiseless
//! [`ExtractionSchedule::perfect`]; repeated noisy extraction is the same
//! gadget under [`ExtractionSchedule::repeated`]. The gadget derives its
//! decoder calls from the code: one per CSS sector, or one joint call for
//! a non-CSS code.

use veriqec_cexpr::{BExp, VarId, VarRole, VarTable};
use veriqec_codes::{ExtractionSchedule, StabilizerCode};
use veriqec_gf2::BitVec;
use veriqec_logic::QecAssertion;
use veriqec_pauli::{ExtPauli, Gate1, Gate2, PauliString, SymPauli};
use veriqec_prog::{DecodeCall, Stmt};

/// Which single-qubit error is injected at each location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorModel {
    /// One `X` indicator per qubit.
    XErrors,
    /// One `Z` indicator per qubit.
    ZErrors,
    /// One `Y` indicator per qubit (the paper's main choice: `Y` covers the
    /// combined effect of `X` and `Z` on the same qubit).
    YErrors,
    /// Independent `X` and `Z` indicators per qubit (arbitrary Pauli).
    Depolarizing,
}

impl ErrorModel {
    /// Gates injected per qubit, with a variable-family tag.
    pub(crate) fn gates(self) -> &'static [(Gate1, &'static str)] {
        match self {
            ErrorModel::XErrors => &[(Gate1::X, "ex")],
            ErrorModel::ZErrors => &[(Gate1::Z, "ez")],
            ErrorModel::YErrors => &[(Gate1::Y, "ey")],
            ErrorModel::Depolarizing => &[(Gate1::X, "ex"), (Gate1::Z, "ez")],
        }
    }
}

/// Decoder wiring for one decoder call: enough to rebuild the `P_f` spec.
#[derive(Clone, Debug)]
pub struct DecoderWiring {
    /// One row per syndrome: the correction variables that flip it.
    pub checks: Vec<Vec<VarId>>,
    /// Syndrome variables (inputs of the call). For multi-round extraction
    /// these are the full round-major history this decoder consumes.
    pub syndromes: Vec<VarId>,
    /// Correction variables (outputs of the call).
    pub corrections: Vec<VarId>,
    /// Claimed measurement-flip variables (decoder outputs), parallel to
    /// `syndromes`; empty under perfect measurement.
    pub flips: Vec<VarId>,
    /// Measurement-error indicators of this decoder's sites, for the
    /// right-hand side of the `P_f` weight comparison; empty under perfect
    /// measurement.
    pub meas_errors: Vec<VarId>,
}

/// A fully assembled verification scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable description.
    pub name: String,
    /// The program to verify.
    pub program: Stmt,
    /// Variable registry.
    pub vt: VarTable,
    /// Physical qubits.
    pub num_qubits: usize,
    /// Precondition generating set (stabilizers + `(−1)^{b_i}` logicals).
    pub lhs: Vec<SymPauli>,
    /// Postcondition in QEC normal form.
    pub post: QecAssertion,
    /// Error indicators constrained by `P_c` (includes propagation vars).
    pub error_vars: Vec<VarId>,
    /// Measurement-flip indicators, constrained by the separate
    /// measurement-error budget `Σm ≤ t_m`; empty under perfect measurement.
    pub meas_error_vars: Vec<VarId>,
    /// Decoder wirings for `P_f`.
    pub decoders: Vec<DecoderWiring>,
    /// Specification parameters (logical phases `b_i`).
    pub params: Vec<VarId>,
}

/// Builder state for assembling scenarios over one or more code blocks.
pub struct ScenarioBuilder {
    code: StabilizerCode,
    blocks: usize,
    vt: VarTable,
    stmts: Vec<Stmt>,
    error_vars: Vec<VarId>,
    meas_error_vars: Vec<VarId>,
    decoders: Vec<DecoderWiring>,
    /// Current logical operators per block (conjugated forward through
    /// logical gates as they are emitted).
    logical_x: Vec<Vec<SymPauli>>,
    logical_z: Vec<Vec<SymPauli>>,
    cycle: usize,
}

impl ScenarioBuilder {
    /// Starts a scenario over `blocks` copies of `code`.
    pub fn new(code: &StabilizerCode, blocks: usize) -> Self {
        let n = code.n() * blocks;
        let embed = |p: &SymPauli, b: usize| embed_block(p, b, code.n(), n);
        let logical_x = (0..blocks)
            .map(|b| code.logical_x().iter().map(|p| embed(p, b)).collect())
            .collect();
        let logical_z = (0..blocks)
            .map(|b| code.logical_z().iter().map(|p| embed(p, b)).collect())
            .collect();
        ScenarioBuilder {
            code: code.clone(),
            blocks,
            vt: VarTable::new(),
            stmts: Vec::new(),
            error_vars: Vec::new(),
            meas_error_vars: Vec::new(),
            decoders: Vec::new(),
            logical_x,
            logical_z,
            cycle: 0,
        }
    }

    /// Total physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.code.n() * self.blocks
    }

    fn embedded_generators(&self) -> Vec<SymPauli> {
        let n = self.num_qubits();
        let mut gens = Vec::new();
        for b in 0..self.blocks {
            for g in self.code.generators() {
                gens.push(embed_block(g, b, self.code.n(), n));
            }
        }
        gens
    }

    /// Injects one conditional error per qubit (fresh indicator family,
    /// tagged by the current count so repeated injections stay distinct).
    pub fn inject_errors(&mut self, model: ErrorModel, tag: &str) {
        let n = self.num_qubits();
        for (gate, family) in model.gates() {
            for q in 0..n {
                let v = self.vt.fresh(&format!("{tag}{family}_{q}"), VarRole::Error);
                self.error_vars.push(v);
                self.stmts.push(Stmt::CondGate1(BExp::var(v), *gate, q));
            }
        }
    }

    /// Injects a single *fixed* (unconditional) gate error.
    pub fn inject_fixed_error(&mut self, gate: Gate1, qubit: usize) {
        self.stmts.push(Stmt::CondGate1(BExp::tt(), gate, qubit));
    }

    /// Applies a transversal single-qubit logical gate to a block, updating
    /// the tracked logical operators.
    pub fn logical_transversal(&mut self, gate: Gate1, block: usize) {
        let base = block * self.code.n();
        for q in 0..self.code.n() {
            self.stmts.push(Stmt::Gate1(gate, base + q));
        }
        // A logical becomes `U L U†`: the wp conjugation by `U†`.
        let (n, inv) = (self.code.n(), gate.inverse());
        for l in self.logical_x[block]
            .iter_mut()
            .chain(&mut self.logical_z[block])
        {
            l.conjugate(|p| (base..base + n).for_each(|q| p.conjugate1(inv, q)));
        }
    }

    /// Applies a transversal CNOT between two blocks (control → target).
    pub fn logical_cnot(&mut self, control: usize, target: usize) {
        let (cb, tb) = (control * self.code.n(), target * self.code.n());
        for q in 0..self.code.n() {
            self.stmts.push(Stmt::Gate2(Gate2::Cnot, cb + q, tb + q));
        }
        // CNOT is its own inverse, so the forward image is the wp one.
        let n = self.code.n();
        for l in self
            .logical_x
            .iter_mut()
            .chain(&mut self.logical_z)
            .flatten()
        {
            l.conjugate(|p| (0..n).for_each(|q| p.conjugate2(Gate2::Cnot, cb + q, tb + q)));
        }
    }

    /// Emits one full error-correction round on a block: the one-round
    /// noiseless schedule of [`ScenarioBuilder::syndrome_extraction`].
    /// Optionally the corrections are faulted by fresh indicators (the
    /// `C_E` scenario).
    pub fn correction_round(&mut self, block: usize, faulty_corrections: bool) {
        let schedule = ExtractionSchedule::perfect(self.code.generators().len());
        self.extract(block, &schedule, faulty_corrections);
    }

    /// Emits a multi-round syndrome-extraction + decode + correct gadget on
    /// a block, following `schedule`: each round measures every generator —
    /// with a fresh measurement-flip indicator per site when the schedule is
    /// noisy (`s := meas[g] ^ m`) — then one decoder call per CSS sector
    /// (one joint call for a non-CSS code) consumes the full round-major
    /// syndrome history, outputting its corrections *and* its claimed flips
    /// (the space-time explanation of the record), and the corrections are
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics when the schedule's check count does not match the generator
    /// count.
    pub fn syndrome_extraction(&mut self, block: usize, schedule: &ExtractionSchedule) {
        self.extract(block, schedule, false);
    }

    /// The extraction gadget behind every correction round. Variables are
    /// allocated in search order: per site its syndrome, then its flip
    /// indicator; per decoder call its corrections, then its claimed flips,
    /// before the call is emitted.
    fn extract(&mut self, block: usize, schedule: &ExtractionSchedule, faulty_corrections: bool) {
        self.cycle += 1;
        let cyc = self.cycle;
        let (k, n) = (self.code.n(), self.num_qubits());
        let code_gens = self.code.generators();
        assert_eq!(
            schedule.num_checks(),
            code_gens.len(),
            "schedule must cover every generator"
        );
        let gens: Vec<SymPauli> = code_gens
            .iter()
            .map(|g| embed_block(g, block, k, n))
            .collect();
        // Measure: rounds × generators, with per-site flip indicators.
        let mut s_vars: Vec<VarId> = Vec::with_capacity(schedule.num_sites());
        let mut m_vars: Vec<Option<VarId>> = Vec::with_capacity(schedule.num_sites());
        for site in schedule.sites() {
            let (r, i) = (site.round, site.check);
            let s = self
                .vt
                .fresh(&format!("s{cyc}b{block}r{r}_{i}"), VarRole::Syndrome);
            s_vars.push(s);
            let g = if site.noisy {
                // A faulty readout measures (−1)^m g.
                let m = self
                    .vt
                    .fresh(&format!("m{cyc}b{block}r{r}_{i}"), VarRole::MeasError);
                self.meas_error_vars.push(m);
                m_vars.push(Some(m));
                let mut phase = gens[i].phase().clone();
                phase.xor_var(m);
                SymPauli::new(gens[i].pauli().clone(), phase)
            } else {
                m_vars.push(None);
                gens[i].clone()
            };
            self.stmts.push(Stmt::Meas(s, g));
        }
        // Decoder calls: (name tag, generators read, correction families).
        // X-type checks detect Z errors, so their syndromes feed the Z
        // decoder, and Z-type checks the X decoder.
        const SECTOR_Z: &[(Gate1, &str)] = &[(Gate1::Z, "cz")];
        const SECTOR_X: &[(Gate1, &str)] = &[(Gate1::X, "cx")];
        const JOINT: &[(Gate1, &str)] = &[(Gate1::X, "cx"), (Gate1::Z, "cz")];
        let calls = match self.code.css_split() {
            Some((x_idx, z_idx)) => vec![("z", x_idx, SECTOR_Z), ("x", z_idx, SECTOR_X)],
            None => vec![("full", (0..code_gens.len()).collect(), JOINT)],
        };
        let mut applied: Vec<(Gate1, Vec<VarId>)> = Vec::new();
        for (tag, checks, kinds) in calls {
            let mut corrections = Vec::with_capacity(kinds.len() * k);
            for (_, family) in kinds {
                let prefix = format!("{family}{cyc}b{block}");
                corrections.extend(
                    (0..k).map(|q| self.vt.fresh(&format!("{prefix}_{q}"), VarRole::Correction)),
                );
            }
            // A correction flips a check where it anticommutes with it: an
            // X correction on the check's Z part, a Z correction on its X.
            let row = |i: usize| -> Vec<VarId> {
                let p = code_gens[i].pauli();
                let mut row = Vec::new();
                for (f, (gate, _)) in kinds.iter().enumerate() {
                    let bits = if *gate == Gate1::X {
                        p.z_bits()
                    } else {
                        p.x_bits()
                    };
                    row.extend(bits.iter_ones().map(|q| corrections[f * k + q]));
                }
                row
            };
            let sites = schedule.rounds() * checks.len();
            let (mut syndromes, mut rows) = (Vec::with_capacity(sites), Vec::with_capacity(sites));
            let (mut flips, mut meas_errors) = (Vec::new(), Vec::new());
            let flip_prefix = format!("f{tag}{cyc}b{block}");
            for round in 0..schedule.rounds() {
                for (j, &i) in checks.iter().enumerate() {
                    let site = schedule.history_index(round, i);
                    syndromes.push(s_vars[site]);
                    if let Some(m) = m_vars[site] {
                        meas_errors.push(m);
                        flips.push(
                            self.vt
                                .fresh(&format!("{flip_prefix}r{round}_{j}"), VarRole::Correction),
                        );
                    }
                    rows.push(row(i));
                }
            }
            let mut outputs = corrections.clone();
            outputs.extend(flips.iter().copied());
            self.stmts.push(Stmt::Decode(DecodeCall {
                name: format!("decode_{tag}"),
                outputs,
                inputs: syndromes.clone(),
            }));
            for (f, &(gate, _)) in kinds.iter().enumerate() {
                applied.push((gate, corrections[f * k..(f + 1) * k].to_vec()));
            }
            self.decoders.push(DecoderWiring {
                checks: rows,
                syndromes,
                corrections,
                flips,
                meas_errors,
            });
        }
        // Apply the corrections, X first, then Z.
        for gate in [Gate1::X, Gate1::Z] {
            for (_, vars) in applied.iter().filter(|(g, _)| *g == gate) {
                self.emit_corrections(block * k, vars, gate, faulty_corrections, cyc, block);
            }
        }
    }

    fn emit_corrections(
        &mut self,
        base: usize,
        vars: &[VarId],
        gate: Gate1,
        faulty: bool,
        cyc: usize,
        block: usize,
    ) {
        for (q, &v) in vars.iter().enumerate() {
            if faulty {
                // A fault flips the applied correction: [c ⊕ f] q *= P.
                let f = self
                    .vt
                    .fresh(&format!("f{cyc}b{block}{gate}_{q}"), VarRole::Error);
                self.error_vars.push(f);
                self.stmts.push(Stmt::CondGate1(
                    BExp::xor(BExp::var(v), BExp::var(f)),
                    gate,
                    base + q,
                ));
            } else {
                self.stmts
                    .push(Stmt::CondGate1(BExp::var(v), gate, base + q));
            }
        }
    }

    /// Finalizes: the precondition uses `(−1)^{b_i} L_i` in the given basis
    /// (`use_x_basis` per block-logical), the postcondition carries the same
    /// phases on the *current* (forward-conjugated) logical operators.
    pub fn finish(mut self, name: impl Into<String>, use_x_basis: bool) -> Scenario {
        let n = self.num_qubits();
        let gens = self.embedded_generators();
        let code_k = self.code.k();
        let mut lhs = gens.clone();
        let mut post_conjuncts: Vec<ExtPauli> =
            gens.iter().cloned().map(ExtPauli::from_sym).collect();
        let mut params = Vec::new();
        for b in 0..self.blocks {
            for i in 0..code_k {
                let bv = self
                    .vt
                    .fresh(&format!("b_{}", b * code_k + i), VarRole::Param);
                params.push(bv);
                let initial = if use_x_basis {
                    embed_block(&self.code.logical_x()[i], b, self.code.n(), n)
                } else {
                    embed_block(&self.code.logical_z()[i], b, self.code.n(), n)
                };
                let current = if use_x_basis {
                    self.logical_x[b][i].clone()
                } else {
                    self.logical_z[b][i].clone()
                };
                let mut initial_phase = initial.phase().clone();
                initial_phase.xor_var(bv);
                lhs.push(SymPauli::new(initial.pauli().clone(), initial_phase));
                let mut current_phase = current.phase().clone();
                current_phase.xor_var(bv);
                post_conjuncts.push(ExtPauli::from_sym(SymPauli::new(
                    current.pauli().clone(),
                    current_phase,
                )));
            }
        }
        Scenario {
            name: name.into(),
            program: Stmt::seq(self.stmts),
            vt: self.vt,
            num_qubits: n,
            lhs,
            post: QecAssertion::from_conjuncts(n, post_conjuncts),
            error_vars: self.error_vars,
            meas_error_vars: self.meas_error_vars,
            decoders: self.decoders,
            params,
        }
    }
}

/// Embeds a single-block operator into block `b` of an `n`-qubit system.
fn embed_block(p: &SymPauli, b: usize, block_size: usize, n: usize) -> SymPauli {
    let base = b * block_size;
    let mut x = BitVec::zeros(n);
    let mut z = BitVec::zeros(n);
    for q in 0..block_size {
        if p.pauli().x_bit(q) {
            x.set(base + q, true);
        }
        if p.pauli().z_bit(q) {
            z.set(base + q, true);
        }
    }
    let y = x.anded(&z).weight();
    SymPauli::new(
        PauliString::from_bits(x, z, (y % 4) as u8),
        p.phase().clone(),
    )
}

/// The logical-free memory scenario `E M C` (one round of error correction).
pub fn memory_scenario(code: &StabilizerCode, model: ErrorModel) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 1);
    b.inject_errors(model, "");
    b.correction_round(0, false);
    b.finish(format!("{} memory EMC", code.name()), false)
}

/// The one-cycle logical-Hadamard scenario of Table 1:
/// `E_p ; H̄ ; E ; M ; C` (propagated errors, transversal logical `H`,
/// fresh errors, one correction round). Requires a self-dual CSS code where
/// transversal `H` implements the logical Hadamard.
pub fn logical_h_scenario(code: &StabilizerCode, model: ErrorModel) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 1);
    b.inject_errors(model, "p"); // propagation errors ep_i
    b.logical_transversal(Gate1::H, 0);
    b.inject_errors(model, "");
    b.correction_round(0, false);
    // |+⟩_L → |0⟩_L: precondition in the X basis, postcondition follows the
    // tracked logical (X̄ → Z̄ under H).
    b.finish(format!("{} one cycle Ep H E M C", code.name()), true)
}

/// Errors inside the correction step (`L̄ M C_E` + a clean round to catch the
/// faulted corrections).
pub fn correction_fault_scenario(code: &StabilizerCode, model: ErrorModel) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 1);
    b.inject_errors(model, "");
    b.correction_round(0, true); // faulty corrections
    b.correction_round(0, false); // clean round catches residual faults
    b.finish(format!("{} faulty-correction cycle", code.name()), false)
}

/// Multi-cycle memory: `E M C` repeated `cycles` times.
pub fn multi_cycle_scenario(code: &StabilizerCode, model: ErrorModel, cycles: usize) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 1);
    for _ in 0..cycles {
        b.inject_errors(model, &format!("c{}", b.cycle));
        b.correction_round(0, false);
    }
    b.finish(format!("{} {cycles}-cycle memory", code.name()), false)
}

/// Fig. 9: fault-tolerant logical GHZ preparation over three blocks
/// (`H̄` on block 1; correction; `CNOT̄` 1→0 and 0→2; correction).
pub fn ghz_scenario(code: &StabilizerCode, model: ErrorModel) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 3);
    b.logical_transversal(Gate1::H, 1);
    b.inject_errors(model, "a");
    for blk in 0..3 {
        b.correction_round(blk, false);
    }
    b.logical_cnot(1, 0);
    b.logical_cnot(0, 2);
    b.inject_errors(model, "b");
    for blk in 0..3 {
        b.correction_round(blk, false);
    }
    b.finish(format!("{} logical GHZ preparation", code.name()), false)
}

/// Fig. 10: a propagated error passes through a transversal logical CNOT,
/// followed by one correction round on each block.
pub fn cnot_propagation_scenario(code: &StabilizerCode, model: ErrorModel) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 2);
    b.inject_errors(model, "p");
    b.logical_cnot(0, 1);
    for blk in 0..2 {
        b.correction_round(blk, false);
    }
    b.finish(
        format!("{} CNOT with propagated errors", code.name()),
        false,
    )
}

/// Faulty-measurement memory: errors injected once, then `rounds` rounds of
/// syndrome extraction in which every readout may flip
/// (`s := meas[g] ^ m`), one space-time decode per CSS sector over the full
/// history, corrections, and the usual exact-restoration postcondition. The
/// correctness formula is checked under the *split* budget
/// `Σe ≤ t_d ∧ Σm ≤ t_m` (see `veriqec::tasks::build_problem_split`).
///
/// # Panics
///
/// Panics when the code is not CSS: the frame cross-check
/// ([`crate::sampling::faulty_memory_frame`]) and the space-time decoder
/// work per CSS sector.
pub fn faulty_memory_scenario(code: &StabilizerCode, model: ErrorModel, rounds: usize) -> Scenario {
    assert!(
        code.css_split().is_some(),
        "faulty-measurement memory requires a CSS code"
    );
    let mut b = ScenarioBuilder::new(code, 1);
    b.inject_errors(model, "");
    b.syndrome_extraction(
        0,
        &ExtractionSchedule::repeated(code.generators().len(), rounds),
    );
    b.finish(
        format!("{} {rounds}-round faulty-measurement memory", code.name()),
        false,
    )
}

/// A memory scenario with one *fixed* non-Pauli error (`T` or `H`) injected
/// on `qubit` before the correction round. Used by the case-3 pipeline.
pub fn nonpauli_scenario(code: &StabilizerCode, gate: Gate1, qubit: usize) -> Scenario {
    let mut b = ScenarioBuilder::new(code, 1);
    b.inject_fixed_error(gate, qubit);
    b.correction_round(0, false);
    // T-type errors preserve Z̄ but twist X̄; verify in the X basis (the
    // paper's |±⟩_L case). H errors are checked in both bases by callers.
    b.finish(
        format!("{} fixed {gate} error on q{qubit}", code.name()),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::build_problem_unbounded;
    use crate::test_support::fnv1a;
    use veriqec_codes::{five_qubit, rotated_surface, steane};
    use veriqec_sat::SolverConfig;

    #[test]
    fn memory_scenario_shape() {
        let s = memory_scenario(&steane(), ErrorModel::YErrors);
        assert_eq!(s.num_qubits, 7);
        assert_eq!(s.error_vars.len(), 7);
        assert_eq!(s.lhs.len(), 7); // 6 gens + 1 logical
        assert_eq!(s.post.conjuncts.len(), 7);
        assert_eq!(s.decoders.len(), 2);
        assert_eq!(s.params.len(), 1);
        // 7 injections + 6 meas + 2 decodes + 14 corrections
        assert_eq!(s.program.flatten().len(), 7 + 6 + 2 + 14);
    }

    #[test]
    fn logical_h_tracks_logicals() {
        let s = logical_h_scenario(&steane(), ErrorModel::YErrors);
        // Pre logical is X̄ (X basis), post logical must be Z̄.
        let pre_logical = &s.lhs[6];
        assert!(pre_logical.pauli().z_bits().is_zero());
        let post_logical = s.post.conjuncts[6].as_single().unwrap();
        assert!(post_logical.pauli().x_bits().is_zero());
    }

    #[test]
    fn faulty_memory_scenario_shape() {
        let s = faulty_memory_scenario(&steane(), ErrorModel::YErrors, 3);
        assert_eq!(s.num_qubits, 7);
        assert_eq!(s.error_vars.len(), 7);
        assert_eq!(s.meas_error_vars.len(), 6 * 3, "one flip per site");
        // 7 injections + 18 faulty measurements + 2 decodes + 14 corrections.
        assert_eq!(s.program.flatten().len(), 7 + 18 + 2 + 14);
        // Each sector decoder consumes the full 3-round history of its
        // checks and claims one flip per site.
        assert_eq!(s.decoders.len(), 2);
        for w in &s.decoders {
            assert_eq!(w.syndromes.len(), 9);
            assert_eq!(w.flips.len(), 9);
            assert_eq!(w.meas_errors.len(), 9);
            assert_eq!(w.checks.len(), 9);
        }
        // Each faulty readout measures (−1)^m g: a flip in the phase.
        let flips = s
            .program
            .flatten()
            .iter()
            .filter(|st| matches!(st, veriqec_prog::Stmt::Meas(_, g) if !g.phase().is_constant()))
            .count();
        assert_eq!(flips, 18);
    }

    #[test]
    fn extraction_gadget_encodings_are_pinned() {
        // (sat_vars, exported clauses, FNV-1a-64 of the DIMACS text) of the
        // unbounded problem: CSS sectors, the joint call, faulted corrections
        // with a second cycle, three blocks, and noisy rounds with claimed
        // flips. Variable order is search order, so any change to what the
        // gadget allocates, or when, moves these.
        let (steane, y) = (steane(), ErrorModel::YErrors);
        let cases = [
            (memory_scenario(&steane, y), 184, 659, 0x0136_23b9_5e98_0128),
            (
                memory_scenario(&five_qubit(), ErrorModel::Depolarizing),
                144,
                541,
                0xa8c2_313a_980e_f220,
            ),
            (
                correction_fault_scenario(&steane, y),
                720,
                3_617,
                0x3206_5855_03d2_d1ff,
            ),
            (
                ghz_scenario(&steane, y),
                3_948,
                30_445,
                0x11e6_ccfe_1686_c7a8,
            ),
            (
                faulty_memory_scenario(&rotated_surface(3), y, 3),
                757,
                3_653,
                0xfffc_35c8_4246_f8f8,
            ),
        ];
        for (scenario, vars, clauses, hash) in cases {
            let mut session =
                build_problem_unbounded(&scenario, vec![]).session(SolverConfig::default());
            let cnf = session.ctx_mut().export_cnf();
            assert_eq!(
                (session.stats().sat_vars, cnf.clauses.len()),
                (vars, clauses),
                "{}",
                scenario.name
            );
            assert_eq!(fnv1a(cnf.to_dimacs().as_bytes()), hash, "{}", scenario.name);
        }
    }

    #[test]
    fn ghz_scenario_spans_three_blocks() {
        let s = ghz_scenario(&steane(), ErrorModel::YErrors);
        assert_eq!(s.num_qubits, 21);
        assert_eq!(s.lhs.len(), 21);
        assert_eq!(s.params.len(), 3);
        assert_eq!(s.decoders.len(), 12); // 2 sectors × 3 blocks × 2 rounds
    }
}
