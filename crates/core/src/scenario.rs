//! Fault-tolerant scenario builders (Table 1, Figs. 8–10).
//!
//! Each builder assembles: the QEC program (error injection → logical
//! operation → syndrome measurement → decoding → correction), the
//! correctness-formula sides (the pre generating set with symbolic logical
//! phases, and the postcondition in QEC normal form), the error-indicator
//! variables for `P_c`, and the decoder wiring for `P_f`.

use veriqec_cexpr::{BExp, VarId, VarRole, VarTable};
use veriqec_codes::{ExtractionSchedule, StabilizerCode};
use veriqec_gf2::BitVec;
use veriqec_logic::QecAssertion;
use veriqec_pauli::{conj1, conj2, ExtPauli, Gate1, Gate2, PauliString, SymPauli};
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
        let conj_all = |p: &SymPauli| {
            let mut out = p.clone();
            for q in 0..self.code.n() {
                out = conj1(gate, base + q, &out, false);
            }
            out
        };
        for l in &mut self.logical_x[block] {
            *l = conj_all(l);
        }
        for l in &mut self.logical_z[block] {
            *l = conj_all(l);
        }
    }

    /// Applies a transversal CNOT between two blocks (control → target).
    pub fn logical_cnot(&mut self, control: usize, target: usize) {
        let (cb, tb) = (control * self.code.n(), target * self.code.n());
        for q in 0..self.code.n() {
            self.stmts.push(Stmt::Gate2(Gate2::Cnot, cb + q, tb + q));
        }
        let conj_all = |p: &SymPauli| {
            let mut out = p.clone();
            for q in 0..self.code.n() {
                out = conj2(Gate2::Cnot, cb + q, tb + q, &out, false);
            }
            out
        };
        for b in 0..self.blocks {
            for l in &mut self.logical_x[b] {
                *l = conj_all(l);
            }
            for l in &mut self.logical_z[b] {
                *l = conj_all(l);
            }
        }
    }

    /// Emits one full error-correction round on a block: syndrome
    /// measurements, decoder calls (per CSS sector when available, joint
    /// otherwise) and conditional corrections. Optionally the corrections
    /// are faulted by fresh indicators (the `C_E` scenario).
    pub fn correction_round(&mut self, block: usize, faulty_corrections: bool) {
        self.cycle += 1;
        let cyc = self.cycle;
        let n = self.num_qubits();
        let base = block * self.code.n();
        let gens: Vec<SymPauli> = self
            .code
            .generators()
            .iter()
            .map(|g| embed_block(g, block, self.code.n(), n))
            .collect();
        // Measure all generators.
        let s_vars: Vec<VarId> = (0..gens.len())
            .map(|i| {
                self.vt
                    .fresh(&format!("s{cyc}b{block}_{i}"), VarRole::Syndrome)
            })
            .collect();
        for (i, g) in gens.iter().enumerate() {
            self.stmts.push(Stmt::Meas(s_vars[i], g.clone()));
        }
        // Decode + correct.
        match self.code.css_split() {
            Some((x_idx, z_idx)) => {
                // X-type checks detect Z errors; their syndromes feed the Z
                // decoder. Z-type checks feed the X decoder.
                let hx = self.code.css_hx().expect("CSS");
                let hz = self.code.css_hz().expect("CSS");
                let sx: Vec<VarId> = x_idx.iter().map(|&i| s_vars[i]).collect();
                let sz: Vec<VarId> = z_idx.iter().map(|&i| s_vars[i]).collect();
                let cz: Vec<VarId> = (0..self.code.n())
                    .map(|q| {
                        self.vt
                            .fresh(&format!("cz{cyc}b{block}_{q}"), VarRole::Correction)
                    })
                    .collect();
                let cx: Vec<VarId> = (0..self.code.n())
                    .map(|q| {
                        self.vt
                            .fresh(&format!("cx{cyc}b{block}_{q}"), VarRole::Correction)
                    })
                    .collect();
                self.stmts.push(Stmt::Decode(DecodeCall {
                    name: "decode_z".into(),
                    outputs: cz.clone(),
                    inputs: sx.clone(),
                }));
                self.stmts.push(Stmt::Decode(DecodeCall {
                    name: "decode_x".into(),
                    outputs: cx.clone(),
                    inputs: sz.clone(),
                }));
                self.decoders.push(DecoderWiring {
                    checks: hx
                        .iter()
                        .map(|row| row.iter_ones().map(|q| cz[q]).collect())
                        .collect(),
                    syndromes: sx,
                    corrections: cz.clone(),
                    flips: vec![],
                    meas_errors: vec![],
                });
                self.decoders.push(DecoderWiring {
                    checks: hz
                        .iter()
                        .map(|row| row.iter_ones().map(|q| cx[q]).collect())
                        .collect(),
                    syndromes: sz,
                    corrections: cx.clone(),
                    flips: vec![],
                    meas_errors: vec![],
                });
                self.emit_corrections(base, &cx, Gate1::X, faulty_corrections, cyc, block);
                self.emit_corrections(base, &cz, Gate1::Z, faulty_corrections, cyc, block);
            }
            None => {
                // Joint decoder: X and Z correction bits per qubit.
                let cx: Vec<VarId> = (0..self.code.n())
                    .map(|q| {
                        self.vt
                            .fresh(&format!("cx{cyc}b{block}_{q}"), VarRole::Correction)
                    })
                    .collect();
                let cz: Vec<VarId> = (0..self.code.n())
                    .map(|q| {
                        self.vt
                            .fresh(&format!("cz{cyc}b{block}_{q}"), VarRole::Correction)
                    })
                    .collect();
                let mut outputs = cx.clone();
                outputs.extend(cz.iter().copied());
                self.stmts.push(Stmt::Decode(DecodeCall {
                    name: "decode_full".into(),
                    outputs: outputs.clone(),
                    inputs: s_vars.clone(),
                }));
                // Check rows: generator i flips under correction bits that
                // anticommute with it locally.
                let checks: Vec<Vec<VarId>> = self
                    .code
                    .generators()
                    .iter()
                    .map(|g| {
                        let mut row = Vec::new();
                        for q in 0..self.code.n() {
                            if g.pauli().z_bit(q) {
                                row.push(cx[q]); // X correction flips Z part
                            }
                            if g.pauli().x_bit(q) {
                                row.push(cz[q]);
                            }
                        }
                        row
                    })
                    .collect();
                self.decoders.push(DecoderWiring {
                    checks,
                    syndromes: s_vars.clone(),
                    corrections: outputs,
                    flips: vec![],
                    meas_errors: vec![],
                });
                self.emit_corrections(base, &cx, Gate1::X, faulty_corrections, cyc, block);
                self.emit_corrections(base, &cz, Gate1::Z, faulty_corrections, cyc, block);
            }
        }
    }

    /// Emits a multi-round syndrome-extraction + decode + correct gadget on
    /// a block, following `schedule`: each round measures every generator —
    /// with a fresh measurement-flip indicator per site when the schedule is
    /// noisy (`s := meas[g] ^ m`) — then one decoder call per CSS sector
    /// consumes the full round-major syndrome history, outputting its
    /// corrections *and* its claimed flips (the space-time explanation of
    /// the record), and the corrections are applied.
    ///
    /// # Panics
    ///
    /// Panics when the code is not CSS or the schedule's check count does
    /// not match the generator count.
    pub fn syndrome_extraction(&mut self, block: usize, schedule: &ExtractionSchedule) {
        self.cycle += 1;
        let cyc = self.cycle;
        let n = self.num_qubits();
        let base = block * self.code.n();
        let gens: Vec<SymPauli> = self
            .code
            .generators()
            .iter()
            .map(|g| embed_block(g, block, self.code.n(), n))
            .collect();
        assert_eq!(
            schedule.num_checks(),
            gens.len(),
            "schedule must cover every generator"
        );
        let (x_idx, z_idx) = self
            .code
            .css_split()
            .expect("syndrome extraction requires a CSS code");
        // Measure: rounds × generators, with per-site flip indicators.
        let mut s_vars: Vec<VarId> = Vec::with_capacity(schedule.num_sites());
        let mut m_vars: Vec<Option<VarId>> = Vec::with_capacity(schedule.num_sites());
        for site in schedule.sites() {
            let s = self.vt.fresh(
                &format!("s{cyc}b{block}r{}_{}", site.round, site.check),
                VarRole::Syndrome,
            );
            s_vars.push(s);
            if site.noisy {
                let m = self.vt.fresh(
                    &format!("m{cyc}b{block}r{}_{}", site.round, site.check),
                    VarRole::MeasError,
                );
                self.meas_error_vars.push(m);
                m_vars.push(Some(m));
                self.stmts
                    .push(Stmt::MeasFlip(s, gens[site.check].clone(), m));
            } else {
                m_vars.push(None);
                self.stmts.push(Stmt::Meas(s, gens[site.check].clone()));
            }
        }
        // One space-time decoder call per CSS sector over the full history.
        let hx = self.code.css_hx().expect("CSS");
        let hz = self.code.css_hz().expect("CSS");
        let cz = self.extraction_decode(
            &hx,
            &x_idx,
            schedule,
            &s_vars,
            &m_vars,
            "decode_z",
            &format!("cz{cyc}b{block}"),
            &format!("fz{cyc}b{block}"),
        );
        let cx = self.extraction_decode(
            &hz,
            &z_idx,
            schedule,
            &s_vars,
            &m_vars,
            "decode_x",
            &format!("cx{cyc}b{block}"),
            &format!("fx{cyc}b{block}"),
        );
        self.emit_corrections(base, &cx, Gate1::X, false, cyc, block);
        self.emit_corrections(base, &cz, Gate1::Z, false, cyc, block);
    }

    /// One CSS sector of a multi-round extraction: allocates the correction
    /// and claimed-flip variables, emits the decoder call over the sector's
    /// round-major syndrome history, and records the wiring for `P_f`.
    #[allow(clippy::too_many_arguments)]
    fn extraction_decode(
        &mut self,
        checks: &veriqec_gf2::BitMatrix,
        idx: &[usize],
        schedule: &ExtractionSchedule,
        s_vars: &[VarId],
        m_vars: &[Option<VarId>],
        decoder_name: &str,
        corr_prefix: &str,
        flip_prefix: &str,
    ) -> Vec<VarId> {
        let corrections: Vec<VarId> = (0..self.code.n())
            .map(|q| {
                self.vt
                    .fresh(&format!("{corr_prefix}_{q}"), VarRole::Correction)
            })
            .collect();
        let mut syndromes = Vec::new();
        let mut flips = Vec::new();
        let mut meas_errors = Vec::new();
        let mut check_rows = Vec::new();
        for round in 0..schedule.rounds() {
            for (k, &i) in idx.iter().enumerate() {
                let site = schedule.history_index(round, i);
                syndromes.push(s_vars[site]);
                if let Some(m) = m_vars[site] {
                    meas_errors.push(m);
                    flips.push(
                        self.vt
                            .fresh(&format!("{flip_prefix}r{round}_{k}"), VarRole::Correction),
                    );
                }
                check_rows.push(checks.row(k).iter_ones().map(|q| corrections[q]).collect());
            }
        }
        let mut outputs = corrections.clone();
        outputs.extend(flips.iter().copied());
        self.stmts.push(Stmt::Decode(DecodeCall {
            name: decoder_name.into(),
            outputs,
            inputs: syndromes.clone(),
        }));
        self.decoders.push(DecoderWiring {
            checks: check_rows,
            syndromes,
            corrections: corrections.clone(),
            flips,
            meas_errors,
        });
        corrections
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
/// Panics when the code is not CSS.
pub fn faulty_memory_scenario(code: &StabilizerCode, model: ErrorModel, rounds: usize) -> Scenario {
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
    use veriqec_codes::steane;

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
        // The program uses the flip-annotated measurement statement.
        let flips = s
            .program
            .flatten()
            .iter()
            .filter(|st| matches!(st, veriqec_prog::Stmt::MeasFlip(..)))
            .count();
        assert_eq!(flips, 18);
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
