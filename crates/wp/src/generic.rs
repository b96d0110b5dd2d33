//! The generic weakest-(liberal-)precondition transformer over full
//! assertions — a direct implementation of the proof rules in Fig. 3.
//!
//! Exponential in the number of branching statements (each measurement or
//! `if` doubles the assertion), so this engine is the *reference semantics*
//! used for validation; the scalable engine is [`crate::qec_wp`].

use crate::WpError;
use veriqec_cexpr::BExp;
use veriqec_logic::{bexp_to_affine, Assertion};
use veriqec_pauli::{conj1_ext, ExtPauli, Gate1, SymPauli};
use veriqec_prog::Stmt;

/// `U† e U` for a single-qubit gate `U` on `q`, in place. A Clifford gate
/// edits every term's letters ([`ExtPauli::conjugate`]); `T`/`T†` rebuild
/// the sum through [`conj1_ext`], the one conjugation that builds terms.
pub(crate) fn conj_ext1(gate: Gate1, q: usize, e: &mut ExtPauli) {
    if gate.is_clifford() {
        e.conjugate(|p| p.conjugate1(gate, q));
    } else {
        *e = conj1_ext(gate, q, e);
    }
}

/// Computes the weakest liberal precondition of a loop-free statement.
///
/// # Errors
///
/// Returns [`WpError`] on `while` loops, decoder calls (uninterpreted in the
/// generic engine) and non-affine substitutions into Pauli phases.
pub fn wp_loopfree(stmt: &Stmt, post: &Assertion) -> Result<Assertion, WpError> {
    match stmt {
        Stmt::Skip => Ok(post.clone()),
        Stmt::Seq(v) => {
            let mut a = post.clone();
            for s in v.iter().rev() {
                a = wp_loopfree(s, &a)?;
            }
            Ok(a)
        }
        Stmt::Gate1(g, q) => Ok(post.map_pauli(&|e| conj_ext1(*g, *q, e))),
        Stmt::Gate2(g, i, j) => Ok(post.map_pauli(&|e| e.conjugate(|p| p.conjugate2(*g, *i, *j)))),
        Stmt::CondGate1(b, g, q) => {
            // (¬b ∧ A) ∨ (b ∧ U†AU) — the (If) rule applied to the sugar.
            let on = post.map_pauli(&|e| conj_ext1(*g, *q, e));
            Ok(Assertion::or(
                Assertion::and(Assertion::boolean(BExp::not(b.clone())), post.clone()),
                Assertion::and(Assertion::boolean(b.clone()), on),
            ))
        }
        Stmt::Assign(x, e) => {
            // Guard against silently wrong substitutions into phases.
            if bexp_to_affine(e).is_none() {
                let mentions = post.classical_vars().contains(x);
                let phase_hit = mentions && assertion_phase_mentions(post, *x);
                if phase_hit {
                    return Err(WpError::NonAffineSubstitution {
                        var: format!("v{}", x.0),
                    });
                }
            }
            Ok(post.subst_classical(*x, e))
        }
        Stmt::Meas(x, g) => {
            // (g ∧ A[0/x]) ∨ (¬g ∧ A[1/x]). A faulty readout measures
            // g = (−1)^m P, so for m = 1 the branches swap.
            let p = Assertion::pauli(g.clone());
            let a0 = post.subst_classical(*x, &BExp::ff());
            let a1 = post.subst_classical(*x, &BExp::tt());
            Ok(Assertion::or(
                Assertion::and(p.clone(), a0),
                Assertion::and(Assertion::not(p), a1),
            ))
        }
        Stmt::Init(q) => {
            // (Z_q ∧ A) ∨ (−Z_q ∧ A[−Y_q/Y_q, −Z_q/Z_q]); the substitution is
            // conjugation by X_q.
            let n = max_qubit(post).max(*q + 1);
            let zq = SymPauli::plain(veriqec_pauli::PauliString::single(n, 'Z', *q));
            let mzq = {
                let mut p = veriqec_pauli::PauliString::single(n, 'Z', *q);
                p.add_ipow(2);
                SymPauli::plain(p)
            };
            let flipped = post.map_pauli(&|e| e.conjugate(|p| p.conjugate1(Gate1::X, *q)));
            Ok(Assertion::or(
                Assertion::and(Assertion::pauli(zq), post.clone()),
                Assertion::and(Assertion::pauli(mzq), flipped),
            ))
        }
        Stmt::If(b, s1, s0) => {
            let a1 = wp_loopfree(s1, post)?;
            let a0 = wp_loopfree(s0, post)?;
            Ok(Assertion::or(
                Assertion::and(Assertion::boolean(BExp::not(b.clone())), a0),
                Assertion::and(Assertion::boolean(b.clone()), a1),
            ))
        }
        Stmt::While(..) => Err(WpError::WhileUnsupported),
        Stmt::Decode(call) => Err(WpError::Unsupported {
            what: format!("decoder call `{}` in the generic engine", call.name),
        }),
    }
}

fn assertion_phase_mentions(a: &Assertion, v: veriqec_cexpr::VarId) -> bool {
    match a {
        Assertion::Bool(_) => false,
        Assertion::Pauli(p) => p.terms().iter().any(|t| t.phase().contains(v)),
        Assertion::Not(x) => assertion_phase_mentions(x, v),
        Assertion::And(x, y) | Assertion::Or(x, y) | Assertion::Implies(x, y) => {
            assertion_phase_mentions(x, v) || assertion_phase_mentions(y, v)
        }
    }
}

fn max_qubit(a: &Assertion) -> usize {
    match a {
        Assertion::Bool(_) => 0,
        Assertion::Pauli(p) => p.num_qubits(),
        Assertion::Not(x) => max_qubit(x),
        Assertion::And(x, y) | Assertion::Or(x, y) | Assertion::Implies(x, y) => {
            max_qubit(x).max(max_qubit(y))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{VarRole, VarTable};
    use veriqec_logic::entails;
    use veriqec_pauli::PauliString;

    fn atom(s: &str) -> Assertion {
        Assertion::pauli(SymPauli::plain(PauliString::from_letters(s).unwrap()))
    }

    #[test]
    fn wp_of_gate_is_conjugation() {
        // wp(q*=H, X) = Z.
        let a = wp_loopfree(&Stmt::Gate1(Gate1::H, 0), &atom("X")).unwrap();
        assert!(entails(&a, &atom("Z"), &[], 1));
        assert!(entails(&atom("Z"), &a, &[], 1));
    }

    #[test]
    fn example_3_3_wp_is_weakest() {
        // wp of `b := meas[Z2]; if b then q2 *= X` against X1 ∧ Z2 equals X1.
        let mut vt = VarTable::new();
        let b = vt.fresh("b", VarRole::Syndrome);
        let prog = Stmt::seq([
            Stmt::Meas(b, SymPauli::plain(PauliString::from_letters("IZ").unwrap())),
            Stmt::If(
                BExp::var(b),
                Box::new(Stmt::Gate1(Gate1::X, 1)),
                Box::new(Stmt::Skip),
            ),
        ]);
        let post = Assertion::and(atom("XI"), atom("IZ"));
        let pre = wp_loopfree(&prog, &post).unwrap();
        let x1 = atom("XI");
        assert!(entails(&pre, &x1, &[b], 2));
        assert!(entails(&x1, &pre, &[b], 2));
    }

    #[test]
    fn example_4_2_repetition_correction() {
        // The derivation of Example 4.2: wp of the correction loop for the
        // 3-qubit repetition code.
        let mut vt = VarTable::new();
        let x: Vec<_> = (0..3)
            .map(|i| vt.fresh_indexed("x", i, VarRole::Correction))
            .collect();
        let bvar = vt.fresh("b", VarRole::Param);
        let prog = Stmt::seq((0..3).map(|i| Stmt::CondGate1(BExp::var(x[i]), Gate1::X, i)));
        use veriqec_cexpr::Affine;
        let post = Assertion::conj([
            atom("ZZI"),
            atom("IZZ"),
            Assertion::pauli(SymPauli::new(
                PauliString::from_letters("ZII").unwrap(),
                Affine::var(bvar),
            )),
        ]);
        let pre = wp_loopfree(&prog, &post).unwrap();
        // Expected: (−1)^{x2+x1} Z1Z2 ∧ (−1)^{x3+x2} Z2Z3 ∧ (−1)^{b+x1} Z1.
        let expected = Assertion::conj([
            Assertion::pauli(SymPauli::new(
                PauliString::from_letters("ZZI").unwrap(),
                Affine::var(x[0]) ^ Affine::var(x[1]),
            )),
            Assertion::pauli(SymPauli::new(
                PauliString::from_letters("IZZ").unwrap(),
                Affine::var(x[1]) ^ Affine::var(x[2]),
            )),
            Assertion::pauli(SymPauli::new(
                PauliString::from_letters("ZII").unwrap(),
                Affine::var(bvar) ^ Affine::var(x[0]),
            )),
        ]);
        let vars = [x[0], x[1], x[2], bvar];
        assert!(entails(&pre, &expected, &vars, 3));
        assert!(entails(&expected, &pre, &vars, 3));
    }

    #[test]
    fn init_rule_precondition() {
        // wp(q := |0⟩, Z) should be the full space (always ends in |0⟩).
        let pre = wp_loopfree(&Stmt::Init(0), &atom("Z")).unwrap();
        assert!(entails(&Assertion::top(), &pre, &[], 1));
    }

    #[test]
    fn while_is_rejected() {
        let s = Stmt::While(BExp::tt(), Box::new(Stmt::Skip));
        assert_eq!(wp_loopfree(&s, &atom("Z")), Err(WpError::WhileUnsupported));
    }

    #[test]
    fn t_gate_wp_produces_sum() {
        let pre = wp_loopfree(&Stmt::Gate1(Gate1::T, 0), &atom("X")).unwrap();
        let Assertion::Pauli(p) = &pre else {
            panic!("expected atom");
        };
        assert_eq!(p.terms().len(), 2);
    }
}
