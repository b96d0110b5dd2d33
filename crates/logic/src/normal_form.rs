//! The QEC normal form: `⋁_{s} ( guards(s) ∧ ⋀_i (−1)^{φ_i(s,e,c)} P_i )`.
//!
//! This is the closed form in which the weakest-precondition engine carries
//! QEC assertions (Eqn. 8 of the paper): a big quantum disjunction over
//! syndrome variables of a conjunction of symbolic Pauli atoms, together with
//! classical side conditions. Keeping assertions in this form is what makes
//! the pipeline polynomial until the final solver call.

use crate::Assertion;
use veriqec_cexpr::{Affine, BExp, VarId};
use veriqec_pauli::ExtPauli;

/// A QEC assertion in normal form.
///
/// Semantics: `⋁_{assignments of or_vars} ( ⋀ guards = 0 ∧ ⋀ conjuncts ∧ ⋀ classical )`,
/// where the disjunction is the *quantum* join over branches.
#[derive(Clone, Debug)]
pub struct QecAssertion {
    /// Number of physical qubits.
    pub num_qubits: usize,
    /// The ⋁-bound variables (syndrome outcomes), in binding order.
    pub or_vars: Vec<VarId>,
    /// Branch-guard equations: each affine form must equal 0 for the branch
    /// to be nonempty (arise from merging duplicate Pauli conjuncts via
    /// `P ∧ −P ≡ ⊥`, Prop. A.3).
    pub guards: Vec<Affine>,
    /// The Pauli conjuncts (single-term for Clifford-only flows; sums appear
    /// under non-Pauli errors).
    pub conjuncts: Vec<ExtPauli>,
    /// Classical side conditions (e.g. error-weight bounds).
    pub classical: Vec<BExp>,
}

impl QecAssertion {
    /// A normal form with the given conjuncts and no branching.
    pub fn from_conjuncts(num_qubits: usize, conjuncts: Vec<ExtPauli>) -> Self {
        QecAssertion {
            num_qubits,
            or_vars: Vec::new(),
            guards: Vec::new(),
            conjuncts,
            classical: Vec::new(),
        }
    }

    /// Adds a classical side condition.
    pub fn push_classical(&mut self, b: BExp) {
        self.classical.push(b);
    }

    /// Expands into a generic [`Assertion`] by enumerating the or-variables.
    ///
    /// Exponential in `or_vars.len()` — validation use only.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 16 or-variables.
    pub fn to_assertion(&self) -> Assertion {
        let k = self.or_vars.len();
        assert!(k <= 16, "or-variable expansion too large");
        let mut branches = Vec::new();
        for bits in 0u32..1 << k {
            let mut guards = self.guards.clone();
            let mut conjuncts = self.conjuncts.clone();
            for (i, &v) in self.or_vars.iter().enumerate() {
                let val = Affine::constant((bits >> i) & 1 == 1);
                for g in &mut guards {
                    *g = g.subst(v, &val);
                }
                for c in &mut conjuncts {
                    c.update_phases(|_, phase| *phase = phase.subst(v, &val));
                }
            }
            // Guard with constant value 1 kills the branch.
            if guards.iter().any(|g| g.is_one()) {
                continue;
            }
            let mut parts: Vec<Assertion> = Vec::new();
            for g in guards {
                if !g.is_zero() {
                    // Residual symbolic guard (over free vars): equality to 0.
                    parts.push(Assertion::boolean(BExp::not(g.to_bexp())));
                }
            }
            parts.extend(self.conjuncts_assertions(&conjuncts));
            branches.push(Assertion::conj(parts));
        }
        let body = Assertion::disj(branches);
        let classical = Assertion::conj(self.classical.iter().cloned().map(Assertion::boolean));
        if self.classical.is_empty() {
            body
        } else {
            Assertion::and(classical, body)
        }
    }

    fn conjuncts_assertions(&self, conjuncts: &[ExtPauli]) -> Vec<Assertion> {
        conjuncts
            .iter()
            .map(|c| Assertion::ext_pauli(c.clone()))
            .collect()
    }

    /// All classical variables mentioned (phases, guards, side conditions).
    pub fn classical_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for c in &self.conjuncts {
            for t in c.terms() {
                out.extend(t.phase().vars());
            }
        }
        for g in &self.guards {
            out.extend(g.vars());
        }
        for b in &self.classical {
            b.free_vars(&mut out);
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{CMem, Value, VarRole, VarTable};
    use veriqec_pauli::{PauliString, SymPauli};

    #[test]
    fn expansion_of_measurement_or() {
        // ⋁_s (−1)^s Z — the postcondition of measuring Z — denotes the full
        // space (either outcome is possible).
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let g = SymPauli::new(PauliString::from_letters("Z").unwrap(), Affine::var(s));
        let mut qa = QecAssertion::from_conjuncts(1, vec![ExtPauli::from_sym(g)]);
        qa.or_vars.push(s);
        let a = qa.to_assertion();
        let m = CMem::new();
        assert_eq!(a.denote(&m, 1).dim(), 2);
    }

    #[test]
    fn guards_kill_branches() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let g = SymPauli::plain(PauliString::from_letters("Z").unwrap());
        let mut qa = QecAssertion::from_conjuncts(1, vec![ExtPauli::from_sym(g)]);
        qa.or_vars.push(s);
        // guard: s = 0 — only the s=0 branch survives.
        qa.guards.push(Affine::var(s));
        let a = qa.to_assertion();
        let m = CMem::new();
        assert_eq!(a.denote(&m, 1).dim(), 1);
    }

    #[test]
    fn classical_side_conditions_gate_everything() {
        let mut vt = VarTable::new();
        let e = vt.fresh("e", VarRole::Error);
        let g = SymPauli::plain(PauliString::from_letters("Z").unwrap());
        let mut qa = QecAssertion::from_conjuncts(1, vec![ExtPauli::from_sym(g)]);
        qa.push_classical(BExp::not(BExp::var(e)));
        let a = qa.to_assertion();
        let mut m = CMem::new();
        m.set(e, Value::Bool(true));
        assert_eq!(a.denote(&m, 1).dim(), 0);
        m.set(e, Value::Bool(false));
        assert_eq!(a.denote(&m, 1).dim(), 1);
    }
}
