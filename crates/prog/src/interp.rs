//! Operational semantics (Fig. 2): interpreters over dense states and
//! stabilizer tableaus, including exhaustive measurement-branch exploration
//! (the induced denotational semantics of Prop. A.4).

use crate::{DecodeCall, Stmt};
use veriqec_cexpr::{CMem, Value};
use veriqec_pauli::PauliString;
use veriqec_qsim::{DenseState, Tableau};

/// Resolves decoder calls during interpretation.
pub trait DecoderOracle {
    /// Maps a decoder name and input bits to output bits.
    ///
    /// # Panics
    ///
    /// Implementations may panic on unknown decoder names.
    fn decode(&self, name: &str, inputs: &[bool]) -> Vec<bool>;

    /// Executes a decoder call on a classical memory: reads the call's
    /// inputs, decodes, and writes its outputs.
    ///
    /// # Panics
    ///
    /// Panics when the decoder returns a different number of bits than the
    /// call has outputs.
    fn apply(&self, call: &DecodeCall, mem: &mut CMem) {
        let inputs: Vec<bool> = call.inputs.iter().map(|&v| mem.get(v).as_bool()).collect();
        let outputs = self.decode(&call.name, &inputs);
        assert_eq!(
            outputs.len(),
            call.outputs.len(),
            "decoder `{}` returned {} bits, expected {}",
            call.name,
            outputs.len(),
            call.outputs.len()
        );
        for (&var, &bit) in call.outputs.iter().zip(&outputs) {
            mem.set(var, Value::Bool(bit));
        }
    }
}

/// An oracle for programs without decoder calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDecoders;

impl DecoderOracle for NoDecoders {
    fn decode(&self, name: &str, _inputs: &[bool]) -> Vec<bool> {
        panic!("program calls decoder `{name}` but no oracle was provided")
    }
}

impl<F> DecoderOracle for F
where
    F: Fn(&str, &[bool]) -> Vec<bool>,
{
    fn decode(&self, name: &str, inputs: &[bool]) -> Vec<bool> {
        self(name, inputs)
    }
}

const FUEL: usize = 10_000;
const BRANCH_TOL: f64 = 1e-12;

/// A classical-quantum configuration in the dense semantics: classical
/// memory plus an (unnormalized) pure-state branch.
pub type DenseConfig = (CMem, DenseState);

/// Runs a program on every measurement branch, producing the ensemble of
/// reachable `(memory, unnormalized state)` pairs — the classical-quantum
/// state `⟦S⟧(m, ρ)` of Prop. A.4 restricted to pure inputs.
///
/// Branches of (numerically) zero probability are dropped.
///
/// # Panics
///
/// Panics when a while-loop exceeds the internal fuel bound.
pub fn run_all_branches<O: DecoderOracle>(
    stmt: &Stmt,
    mem: CMem,
    state: DenseState,
    oracle: &O,
) -> Vec<DenseConfig> {
    exec(stmt, vec![(mem, state)], oracle, &mut FUEL.clone())
}

fn exec<O: DecoderOracle>(
    stmt: &Stmt,
    configs: Vec<DenseConfig>,
    oracle: &O,
    fuel: &mut usize,
) -> Vec<DenseConfig> {
    if *fuel == 0 {
        panic!("interpreter fuel exhausted (diverging while-loop?)");
    }
    *fuel -= 1;
    match stmt {
        Stmt::Skip => configs,
        Stmt::Init(q) => configs
            .into_iter()
            .flat_map(|(m, st)| {
                // Init = computational measurement + conditional X (two Kraus
                // branches |0⟩⟨0| and |0⟩⟨1|·X).
                let z = PauliString::single(st.num_qubits(), 'Z', *q);
                let mut out = Vec::new();
                for outcome in [false, true] {
                    let mut branch = st.clone();
                    let p = branch.project_pauli(&z, outcome);
                    if p > BRANCH_TOL {
                        if outcome {
                            branch.apply_gate1(veriqec_pauli::Gate1::X, *q);
                        }
                        out.push((m.clone(), branch));
                    }
                }
                out
            })
            .collect(),
        Stmt::Gate1(g, q) => configs
            .into_iter()
            .map(|(m, mut st)| {
                st.apply_gate1(*g, *q);
                (m, st)
            })
            .collect(),
        Stmt::Gate2(g, i, j) => configs
            .into_iter()
            .map(|(m, mut st)| {
                st.apply_gate2(*g, *i, *j);
                (m, st)
            })
            .collect(),
        Stmt::CondGate1(b, g, q) => configs
            .into_iter()
            .map(|(m, mut st)| {
                if b.eval(&m) {
                    st.apply_gate1(*g, *q);
                }
                (m, st)
            })
            .collect(),
        Stmt::Assign(x, e) => configs
            .into_iter()
            .map(|(mut m, st)| {
                let v = e.eval(&m);
                m.set(*x, Value::Bool(v));
                (m, st)
            })
            .collect(),
        Stmt::Meas(x, p) => configs
            .into_iter()
            .flat_map(|(m, st)| {
                let concrete = p.eval(&m);
                let mut out = Vec::new();
                for outcome in [false, true] {
                    let mut branch = st.clone();
                    let prob = branch.project_pauli(&concrete, outcome);
                    if prob > BRANCH_TOL {
                        let mut m2 = m.clone();
                        m2.set(*x, Value::Bool(outcome));
                        out.push((m2, branch));
                    }
                }
                out
            })
            .collect(),
        Stmt::Decode(call) => configs
            .into_iter()
            .map(|(mut m, st)| {
                oracle.apply(call, &mut m);
                (m, st)
            })
            .collect(),
        Stmt::If(b, s1, s0) => {
            let (then_cfg, else_cfg): (Vec<_>, Vec<_>) =
                configs.into_iter().partition(|(m, _)| b.eval(m));
            let mut out = exec(s1, then_cfg, oracle, fuel);
            out.extend(exec(s0, else_cfg, oracle, fuel));
            out
        }
        Stmt::While(b, body) => {
            let mut done = Vec::new();
            let mut active = configs;
            while !active.is_empty() {
                if *fuel == 0 {
                    panic!("interpreter fuel exhausted in while-loop");
                }
                let (tr, fl): (Vec<_>, Vec<_>) = active.into_iter().partition(|(m, _)| b.eval(m));
                done.extend(fl);
                active = exec(body, tr, oracle, fuel);
            }
            done
        }
        Stmt::Seq(v) => v
            .iter()
            .fold(configs, |cfgs, s| exec(s, cfgs, oracle, fuel)),
    }
}

/// Runs a single execution path on a stabilizer tableau, with `coin`
/// supplying random measurement outcomes. Clifford-only programs.
///
/// # Panics
///
/// Panics on `T`/`T†` gates, or on fuel exhaustion.
pub fn run_tableau<O: DecoderOracle, F: FnMut() -> bool>(
    stmt: &Stmt,
    mem: &mut CMem,
    state: &mut Tableau,
    oracle: &O,
    coin: &mut F,
) {
    let mut fuel = FUEL;
    run_tab(stmt, mem, state, oracle, coin, &mut fuel);
}

fn run_tab<O: DecoderOracle, F: FnMut() -> bool>(
    stmt: &Stmt,
    mem: &mut CMem,
    state: &mut Tableau,
    oracle: &O,
    coin: &mut F,
    fuel: &mut usize,
) {
    if *fuel == 0 {
        panic!("interpreter fuel exhausted");
    }
    *fuel -= 1;
    match stmt {
        Stmt::Skip => {}
        Stmt::Init(q) => state.reset_qubit(*q, &mut *coin),
        Stmt::Gate1(g, q) => state.apply_gate1(*g, *q),
        Stmt::Gate2(g, i, j) => state.apply_gate2(*g, *i, *j),
        Stmt::CondGate1(b, g, q) => {
            if b.eval(mem) {
                state.apply_gate1(*g, *q);
            }
        }
        Stmt::Assign(x, e) => {
            let v = e.eval(mem);
            mem.set(*x, Value::Bool(v));
        }
        Stmt::Meas(x, p) => {
            let concrete = p.eval(mem);
            let outcome = state.measure_pauli(&concrete, &mut *coin);
            mem.set(*x, Value::Bool(outcome));
        }
        Stmt::Decode(call) => oracle.apply(call, mem),
        Stmt::If(b, s1, s0) => {
            if b.eval(mem) {
                run_tab(s1, mem, state, oracle, coin, fuel);
            } else {
                run_tab(s0, mem, state, oracle, coin, fuel);
            }
        }
        Stmt::While(b, body) => {
            while b.eval(mem) {
                if *fuel == 0 {
                    panic!("interpreter fuel exhausted in while-loop");
                }
                run_tab(body, mem, state, oracle, coin, fuel);
            }
        }
        Stmt::Seq(v) => {
            for s in v {
                run_tab(s, mem, state, oracle, coin, fuel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{Affine, BExp, VarRole, VarTable};
    use veriqec_pauli::{Gate1, SymPauli};

    fn ps(s: &str) -> PauliString {
        PauliString::from_letters(s).unwrap()
    }

    #[test]
    fn measurement_splits_branches() {
        let mut vt = VarTable::new();
        let x = vt.fresh("x", VarRole::Syndrome);
        let prog = Stmt::seq([
            Stmt::Gate1(Gate1::H, 0),
            Stmt::Meas(x, SymPauli::plain(ps("Z"))),
        ]);
        let branches = run_all_branches(&prog, CMem::new(), DenseState::zero_state(1), &NoDecoders);
        assert_eq!(branches.len(), 2);
        let probs: Vec<f64> = branches.iter().map(|(_, st)| st.norm_sqr()).collect();
        assert!((probs[0] - 0.5).abs() < 1e-9 && (probs[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn example_3_3_program_semantics() {
        // b := meas[Z]; if b then q *= X end  maps any input to |0⟩ at q.
        let mut vt = VarTable::new();
        let b = vt.fresh("b", VarRole::Syndrome);
        let prog = Stmt::seq([
            Stmt::Meas(b, SymPauli::plain(ps("IZ"))),
            Stmt::If(
                BExp::var(b),
                Box::new(Stmt::Gate1(Gate1::X, 1)),
                Box::new(Stmt::Skip),
            ),
        ]);
        // Input |+⟩|−⟩: both branches must end stabilized by X0 and Z1.
        let mut st = DenseState::zero_state(2);
        st.apply_gate1(Gate1::H, 0);
        st.apply_gate1(Gate1::X, 1);
        st.apply_gate1(Gate1::H, 1);
        for (_, out) in run_all_branches(&prog, CMem::new(), st, &NoDecoders) {
            let mut out = out;
            out.normalize();
            assert!(out.is_stabilized_by(&ps("XI")));
            assert!(out.is_stabilized_by(&ps("IZ")));
        }
    }

    #[test]
    fn while_loop_terminates_on_classical_guard() {
        let mut vt = VarTable::new();
        let x = vt.fresh("x", VarRole::Aux);
        // x starts true; loop body sets x false.
        let prog = Stmt::seq([
            Stmt::Assign(x, BExp::tt()),
            Stmt::While(BExp::var(x), Box::new(Stmt::Assign(x, BExp::ff()))),
        ]);
        let out = run_all_branches(&prog, CMem::new(), DenseState::zero_state(1), &NoDecoders);
        assert_eq!(out.len(), 1);
        assert!(!out[0].0.get(x).as_bool());
    }

    #[test]
    fn decoder_oracle_is_invoked() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let c = vt.fresh("c", VarRole::Correction);
        let prog = Stmt::seq([
            Stmt::Assign(s, BExp::tt()),
            Stmt::Decode(DecodeCall {
                name: "id".into(),
                outputs: vec![c],
                inputs: vec![s],
            }),
        ]);
        let oracle = |name: &str, inputs: &[bool]| -> Vec<bool> {
            assert_eq!(name, "id");
            inputs.to_vec()
        };
        let out = run_all_branches(&prog, CMem::new(), DenseState::zero_state(1), &oracle);
        assert!(out[0].0.get(c).as_bool());
    }

    #[test]
    fn faulty_measurement_corrupts_record_not_state() {
        // A raised flip indicator inverts the recorded syndrome while the
        // projected quantum state is identical to the noiseless measurement.
        let mut vt = VarTable::new();
        let s = vt.fresh("s_0", VarRole::Syndrome);
        let m = vt.fresh("m_0", VarRole::MeasError);
        let prog = Stmt::seq([
            Stmt::Gate1(Gate1::X, 0), // the error: true syndrome fires
            Stmt::Meas(s, SymPauli::new(ps("ZZ"), Affine::var(m))),
        ]);
        for flip in [false, true] {
            let mut mem = CMem::new();
            mem.set(m, Value::Bool(flip));
            // Dense semantics.
            let branches =
                run_all_branches(&prog, mem.clone(), DenseState::zero_state(2), &NoDecoders);
            assert_eq!(branches.len(), 1, "deterministic outcome");
            assert_eq!(branches[0].0.get(s).as_bool(), true ^ flip);
            let mut st = branches[0].1.clone();
            st.normalize();
            // The state records the TRUE eigenvalue regardless of the flip.
            assert!(st.is_stabilized_by(&{
                let mut p = ps("ZZ");
                p.add_ipow(2); // −ZZ stabilizes X|00⟩ on qubit 0
                p
            }));
            // Tableau semantics agrees on the record.
            let mut tab = Tableau::zero_state(2);
            let mut mem2 = mem.clone();
            run_tableau(&prog, &mut mem2, &mut tab, &NoDecoders, &mut || {
                panic!("deterministic")
            });
            assert_eq!(mem2.get(s).as_bool(), true ^ flip);
        }
    }

    #[test]
    fn tableau_and_dense_agree_on_repetition_cycle() {
        // One bit-flip-code cycle with a fixed X error on qubit 1.
        let mut vt = VarTable::new();
        let s0 = vt.fresh("s_0", VarRole::Syndrome);
        let s1 = vt.fresh("s_1", VarRole::Syndrome);
        let prog = Stmt::seq([
            Stmt::Gate1(Gate1::X, 1), // the error
            Stmt::Meas(s0, SymPauli::plain(ps("ZZI"))),
            Stmt::Meas(s1, SymPauli::plain(ps("IZZ"))),
            // Correct qubit 1 iff both syndromes fire.
            Stmt::CondGate1(BExp::and(BExp::var(s0), BExp::var(s1)), Gate1::X, 1),
        ]);
        // Dense path.
        let branches = run_all_branches(&prog, CMem::new(), DenseState::zero_state(3), &NoDecoders);
        assert_eq!(branches.len(), 1); // deterministic syndromes
        let (m, st) = &branches[0];
        assert!(m.get(s0).as_bool() && m.get(s1).as_bool());
        let mut st = st.clone();
        st.normalize();
        assert!(st.is_stabilized_by(&ps("ZII")));
        // Tableau path agrees.
        let mut mem = CMem::new();
        let mut tab = Tableau::zero_state(3);
        run_tableau(&prog, &mut mem, &mut tab, &NoDecoders, &mut || {
            panic!("all outcomes deterministic")
        });
        assert!(mem.get(s0).as_bool() && mem.get(s1).as_bool());
        assert!(tab.is_stabilized_by(&ps("ZII")));
    }
}
