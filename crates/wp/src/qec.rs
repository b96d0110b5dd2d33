//! The scalable weakest-precondition engine on the QEC normal form.
//!
//! Instead of building the exponential assertion tree, this engine carries a
//! [`QecAssertion`] — `⋁_s ⋀_i (−1)^{φ_i} P_i` with XOR-affine phases — and
//! updates phases in place, exactly as in the paper's derivations (§4.2,
//! Appendix C.1):
//!
//! * Clifford gates conjugate the conjuncts' letters in place (rules U-*):
//!   a table lookup on the gate's qubits per term, whose sign folds into the
//!   term's phase ([`ExtPauli::conjugate`]), so a gate clones no string;
//!   only `T`/`T†` rebuild a conjunct, as a sum;
//! * a conditional Pauli error `[b] q *= P` changes no letter: it XORs `b`
//!   into the phase of every term that anticommutes with `P` on `q` (the
//!   derived rules after Fig. 3). Anticommutation is a bit test at `q`, and
//!   [`ExtPauli::update_phases`] edits the phases in place, so an error
//!   statement clones no string and rebuilds no conjunct; assignments
//!   substitute into the phases the same way;
//! * measurements add an or-bound conjunct `(−1)^s g`, merging duplicate
//!   letters into branch guards via `P ∧ −P ≡ ⊥` (Prop. A.3);
//! * decoder calls stay uninterpreted and are recorded for the VC layer.

use crate::generic::conj_ext1;
use crate::WpError;
use veriqec_cexpr::{BExp, VarId};
use veriqec_logic::{bexp_to_affine, QecAssertion};
use veriqec_pauli::{ExtPauli, PauliString, SymPauli};
use veriqec_prog::{DecodeCall, Stmt};

/// The result of running the engine backward over a program.
#[derive(Clone, Debug)]
pub struct QecWpResult {
    /// The computed precondition in normal form.
    pub pre: QecAssertion,
    /// Decoder calls encountered (in program order).
    pub decoder_calls: Vec<DecodeCall>,
}

/// Computes the weakest liberal precondition of a QEC-shaped program with
/// respect to a normal-form postcondition.
///
/// # Errors
///
/// Returns [`WpError`] for statements outside the QEC fragment (general
/// `if`/`while`, qubit initialization, non-affine assignments into phases,
/// conditional non-Pauli gates with symbolic guards).
pub fn qec_wp(stmt: &Stmt, post: QecAssertion) -> Result<QecWpResult, WpError> {
    let mut engine = Engine {
        a: post,
        calls: Vec::new(),
    };
    engine.process(stmt)?;
    engine.calls.reverse();
    Ok(QecWpResult {
        pre: engine.a,
        decoder_calls: engine.calls,
    })
}

struct Engine {
    a: QecAssertion,
    calls: Vec<DecodeCall>,
}

impl Engine {
    fn process(&mut self, stmt: &Stmt) -> Result<(), WpError> {
        match stmt {
            Stmt::Skip => Ok(()),
            Stmt::Seq(v) => {
                for s in v.iter().rev() {
                    self.process(s)?;
                }
                Ok(())
            }
            Stmt::Gate1(g, q) => {
                self.gate1(*g, *q);
                Ok(())
            }
            Stmt::Gate2(g, i, j) => {
                for c in &mut self.a.conjuncts {
                    c.conjugate(|p| p.conjugate2(*g, *i, *j));
                }
                Ok(())
            }
            Stmt::CondGate1(b, g, q) => self.cond_gate(b, *g, *q),
            Stmt::Assign(x, e) => self.assign(*x, e),
            Stmt::Meas(x, g) => self.measure(*x, g),
            Stmt::Decode(call) => {
                for out in &call.outputs {
                    if self.a.or_vars.contains(out) {
                        return Err(WpError::DuplicateMeasurementVariable {
                            var: format!("v{}", out.0),
                        });
                    }
                }
                self.calls.push(call.clone());
                Ok(())
            }
            Stmt::Init(_) => Err(WpError::Unsupported {
                what: "qubit initialization in the QEC normal-form engine".into(),
            }),
            Stmt::If(..) => Err(WpError::Unsupported {
                what: "general if-statement in the QEC normal-form engine".into(),
            }),
            Stmt::While(..) => Err(WpError::WhileUnsupported),
        }
    }

    fn gate1(&mut self, g: veriqec_pauli::Gate1, q: usize) {
        for c in &mut self.a.conjuncts {
            conj_ext1(g, q, c);
        }
    }

    fn cond_gate(&mut self, b: &BExp, g: veriqec_pauli::Gate1, q: usize) -> Result<(), WpError> {
        use veriqec_pauli::Gate1;
        // A term anticommutes with a one-qubit Pauli `g` on `q` iff its
        // letter there is one of the other two: a bit test at `q`.
        let anticommutes: fn(&PauliString, usize) -> bool = match g {
            Gate1::X => |p, q| p.z_bit(q),
            Gate1::Z => |p, q| p.x_bit(q),
            Gate1::Y => |p, q| p.x_bit(q) != p.z_bit(q),
            _ => {
                return match b {
                    BExp::Const(true) => {
                        self.gate1(g, q);
                        Ok(())
                    }
                    BExp::Const(false) => Ok(()),
                    _ => Err(WpError::SymbolicNonPauliError),
                }
            }
        };
        let guard = bexp_to_affine(b).ok_or(WpError::NonAffineSubstitution {
            var: "<guard>".into(),
        })?;
        for c in &mut self.a.conjuncts {
            c.update_phases(|p, phase| {
                if anticommutes(p, q) {
                    *phase ^= &guard;
                }
            });
        }
        Ok(())
    }

    fn assign(&mut self, x: VarId, e: &BExp) -> Result<(), WpError> {
        match bexp_to_affine(e) {
            Some(aff) => {
                for c in &mut self.a.conjuncts {
                    c.update_phases(|_, phase| *phase = phase.subst(x, &aff));
                }
                for g in &mut self.a.guards {
                    *g = g.subst(x, &aff);
                }
                for b in &mut self.a.classical {
                    *b = b.subst(x, &e.clone());
                }
                Ok(())
            }
            None => {
                let hit = self
                    .a
                    .conjuncts
                    .iter()
                    .any(|c| c.terms().iter().any(|t| t.phase().contains(x)))
                    || self.a.guards.iter().any(|g| g.contains(x));
                if hit {
                    return Err(WpError::NonAffineSubstitution {
                        var: format!("v{}", x.0),
                    });
                }
                for b in &mut self.a.classical {
                    *b = b.subst(x, e);
                }
                Ok(())
            }
        }
    }

    /// The measurement rule. A faulty readout measures `g = (−1)^m P`, so
    /// its flip indicator `m` is already in `g`'s phase — measurement noise
    /// enters the VC purely as one more phase variable.
    fn measure(&mut self, x: VarId, g: &SymPauli) -> Result<(), WpError> {
        if self.a.or_vars.contains(&x) {
            return Err(WpError::DuplicateMeasurementVariable {
                var: format!("v{}", x.0),
            });
        }
        // New conjunct (−1)^{x ⊕ sign(g)} |g|. It is kept as a *separate*
        // entry even when a conjunct with the same letters already exists:
        // the pair `(−1)^a g ∧ (−1)^c g` is the branch guard `a = c`
        // (Prop. A.3), but the two phases accumulate *different* updates from
        // the statements preceding the measurement — the existing conjunct
        // collects the corrections applied after it, while this one collects
        // exactly the error history before it, i.e. the actual syndrome.
        // `ReducedVc::resolve_branches` later pins `x` from this equation,
        // which is what makes the refutation encoding sound (the decoder is
        // forced to respond to the real syndrome).
        let mut new_phase = g.phase().clone();
        new_phase.xor_var(x);
        self.a.conjuncts.push(ExtPauli::from_sym(SymPauli::new(
            g.pauli().clone(),
            new_phase,
        )));
        self.a.or_vars.push(x);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{Affine, VarRole, VarTable};
    use veriqec_pauli::Gate1;

    fn plain(s: &str) -> ExtPauli {
        ExtPauli::from_sym(SymPauli::plain(PauliString::from_letters(s).unwrap()))
    }

    #[test]
    fn pauli_error_rule_updates_phases() {
        // Derived rule: {A[(−1)^b Y/Y, (−1)^b Z/Z]} [b] q *= X {A}.
        let mut vt = VarTable::new();
        let e = vt.fresh("e", VarRole::Error);
        let post = QecAssertion::from_conjuncts(2, vec![plain("ZZ"), plain("XX")]);
        let r = qec_wp(&Stmt::CondGate1(BExp::var(e), Gate1::X, 0), post).unwrap();
        // X error on qubit 0 anticommutes with ZZ, commutes with XX.
        let c0 = r.pre.conjuncts[0].as_single().unwrap();
        assert!(c0.phase().contains(e));
        let c1 = r.pre.conjuncts[1].as_single().unwrap();
        assert!(c1.phase().is_zero());
    }

    #[test]
    fn measurement_adds_or_bound_conjunct() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let post = QecAssertion::from_conjuncts(2, vec![plain("XX")]);
        let g = SymPauli::plain(PauliString::from_letters("ZZ").unwrap());
        let r = qec_wp(&Stmt::Meas(s, g), post).unwrap();
        assert_eq!(r.pre.conjuncts.len(), 2);
        assert_eq!(r.pre.or_vars, vec![s]);
        let added = r.pre.conjuncts[1].as_single().unwrap();
        assert!(added.phase().contains(s));
    }

    #[test]
    fn faulty_measurement_xors_flip_into_the_phase() {
        // x := meas[g] ⊕ m measures (−1)^m g: the true outcome is x ⊕ m, so
        // the or-bound conjunct carries (−1)^{x ⊕ m} |g|.
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let m = vt.fresh("m", VarRole::MeasError);
        let post = QecAssertion::from_conjuncts(2, vec![plain("XX")]);
        let g = SymPauli::new(PauliString::from_letters("ZZ").unwrap(), Affine::var(m));
        let r = qec_wp(&Stmt::Meas(s, g), post).unwrap();
        assert_eq!(r.pre.or_vars, vec![s], "only the syndrome is or-bound");
        let added = r.pre.conjuncts[1].as_single().unwrap();
        assert!(added.phase().contains(s) && added.phase().contains(m));
    }

    #[test]
    fn parsed_faulty_readout_is_padded_with_its_phase() {
        // The literal `Z[0]` is narrower than the program; the parser widens
        // it to ZI and keeps the flip in its phase, so the H rule on qubit 1
        // has a letter to edit.
        let p = veriqec_prog::parse_program("q[1] *= H; s[0] := meas[Z[0]] ^ m[0]").unwrap();
        let (s, m) = (p.vars.lookup("s_0").unwrap(), p.vars.lookup("m_0").unwrap());
        let post = QecAssertion::from_conjuncts(2, vec![plain("ZX")]);
        let r = qec_wp(&p.stmt, post).unwrap();
        assert_eq!(r.pre.or_vars, vec![s]);
        let kept = r.pre.conjuncts[0].as_single().unwrap();
        assert_eq!(kept.pauli(), &PauliString::from_letters("ZZ").unwrap());
        let added = r.pre.conjuncts[1].as_single().unwrap();
        assert_eq!(added.pauli(), &PauliString::from_letters("ZI").unwrap());
        assert_eq!(*added.phase(), Affine::sum_vars([s, m]));
    }

    #[test]
    fn duplicate_measurement_keeps_both_conjuncts() {
        // Measuring a generator already in the assertion keeps a second
        // conjunct with the same letters; their phase equality is resolved at
        // VC time (it pins the syndrome to the actual error history).
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let e = vt.fresh("e", VarRole::Error);
        let post = QecAssertion::from_conjuncts(
            2,
            vec![ExtPauli::from_sym(SymPauli::new(
                PauliString::from_letters("ZZ").unwrap(),
                Affine::var(e),
            ))],
        );
        let g = SymPauli::plain(PauliString::from_letters("ZZ").unwrap());
        let r = qec_wp(&Stmt::Meas(s, g), post).unwrap();
        assert_eq!(r.pre.conjuncts.len(), 2);
        assert!(r.pre.guards.is_empty());
        let added = r.pre.conjuncts[1].as_single().unwrap();
        assert!(added.phase().contains(s));
    }

    #[test]
    fn decoder_calls_are_recorded_in_program_order() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let c1 = vt.fresh("c1", VarRole::Correction);
        let c2 = vt.fresh("c2", VarRole::Correction);
        let prog = Stmt::seq([
            Stmt::Decode(DecodeCall {
                name: "first".into(),
                outputs: vec![c1],
                inputs: vec![s],
            }),
            Stmt::Decode(DecodeCall {
                name: "second".into(),
                outputs: vec![c2],
                inputs: vec![s],
            }),
        ]);
        let r = qec_wp(&prog, QecAssertion::from_conjuncts(1, vec![plain("Z")])).unwrap();
        assert_eq!(r.decoder_calls[0].name, "first");
        assert_eq!(r.decoder_calls[1].name, "second");
    }

    #[test]
    fn symbolic_non_pauli_error_is_rejected() {
        let mut vt = VarTable::new();
        let e = vt.fresh("e", VarRole::Error);
        let post = QecAssertion::from_conjuncts(1, vec![plain("Z")]);
        let r = qec_wp(&Stmt::CondGate1(BExp::var(e), Gate1::T, 0), post);
        assert_eq!(r.unwrap_err(), WpError::SymbolicNonPauliError);
    }

    #[test]
    fn fixed_non_pauli_error_conjugates() {
        let post = QecAssertion::from_conjuncts(1, vec![plain("X")]);
        let r = qec_wp(&Stmt::CondGate1(BExp::tt(), Gate1::T, 0), post).unwrap();
        assert_eq!(r.pre.conjuncts[0].terms().len(), 2);
    }
}
