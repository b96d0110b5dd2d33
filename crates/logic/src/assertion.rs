//! The assertion language `AExp` (Def. 3.2) and its subspace semantics.

use std::fmt;
use std::sync::Arc as Rc;

use veriqec_cexpr::{Affine, BExp, CMem, VarId};
use veriqec_pauli::{ExtPauli, SymPauli};
use veriqec_qsim::{DenseState, Subspace};

/// An assertion of the hybrid classical–quantum logic:
/// `A ::= b | P | ¬A | A∧A | A∨A | A⇒A` where `b` is a boolean expression,
/// `P` a Pauli expression, and the connectives are interpreted in
/// Birkhoff–von Neumann quantum logic (∨ = span of union, ⇒ = Sasaki).
#[derive(Clone, PartialEq)]
pub enum Assertion {
    /// Classical atom: embeds as the zero or full subspace.
    Bool(BExp),
    /// Pauli-expression atom: its `+1`-eigenspace.
    Pauli(ExtPauli),
    /// Orthocomplement.
    Not(Rc<Assertion>),
    /// Intersection of subspaces.
    And(Rc<Assertion>, Rc<Assertion>),
    /// Span of the union (quantum disjunction).
    Or(Rc<Assertion>, Rc<Assertion>),
    /// Sasaki implication `a ⇝ b = ¬a ∨ (a ∧ b)`.
    Implies(Rc<Assertion>, Rc<Assertion>),
}

impl Assertion {
    /// The always-true assertion.
    pub fn top() -> Self {
        Assertion::Bool(BExp::tt())
    }

    /// The always-false assertion.
    pub fn bottom() -> Self {
        Assertion::Bool(BExp::ff())
    }

    /// A symbolic-Pauli atom.
    pub fn pauli(p: SymPauli) -> Self {
        Assertion::Pauli(ExtPauli::from_sym(p))
    }

    /// A Pauli-expression atom.
    pub fn ext_pauli(p: ExtPauli) -> Self {
        Assertion::Pauli(p)
    }

    /// A classical atom.
    pub fn boolean(b: BExp) -> Self {
        Assertion::Bool(b)
    }

    /// Negation.
    ///
    /// An associated constructor (`Assertion::not(a)`), matching the other
    /// by-value combinators; `std::ops::Not` is intentionally unimplemented.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Assertion) -> Self {
        Assertion::Not(Rc::new(a))
    }

    /// Conjunction.
    pub fn and(a: Assertion, b: Assertion) -> Self {
        Assertion::And(Rc::new(a), Rc::new(b))
    }

    /// Quantum disjunction.
    pub fn or(a: Assertion, b: Assertion) -> Self {
        Assertion::Or(Rc::new(a), Rc::new(b))
    }

    /// Sasaki implication.
    pub fn implies(a: Assertion, b: Assertion) -> Self {
        Assertion::Implies(Rc::new(a), Rc::new(b))
    }

    /// Conjunction of a sequence (empty = top).
    pub fn conj<I: IntoIterator<Item = Assertion>>(items: I) -> Self {
        let mut it = items.into_iter();
        let Some(first) = it.next() else {
            return Assertion::top();
        };
        it.fold(first, Assertion::and)
    }

    /// Disjunction of a sequence (empty = bottom).
    pub fn disj<I: IntoIterator<Item = Assertion>>(items: I) -> Self {
        let mut it = items.into_iter();
        let Some(first) = it.next() else {
            return Assertion::bottom();
        };
        it.fold(first, Assertion::or)
    }

    /// The subspace denotation `⟦A⟧_m` (Def. 3.2's semantic map).
    ///
    /// `num_qubits` fixes the ambient Hilbert space; only feasible for small
    /// systems (this is the validation backend, not the scalable pipeline).
    pub fn denote(&self, m: &CMem, num_qubits: usize) -> Subspace {
        let dim = 1usize << num_qubits;
        match self {
            Assertion::Bool(b) => {
                if b.eval(m) {
                    Subspace::full(dim)
                } else {
                    Subspace::zero(dim)
                }
            }
            Assertion::Pauli(p) => {
                if p.is_zero() {
                    Subspace::zero(dim)
                } else {
                    Subspace::ext_pauli_plus_eigenspace(p, m)
                }
            }
            Assertion::Not(a) => a.denote(m, num_qubits).complement(),
            Assertion::And(a, b) => a.denote(m, num_qubits).meet(&b.denote(m, num_qubits)),
            Assertion::Or(a, b) => a.denote(m, num_qubits).join(&b.denote(m, num_qubits)),
            Assertion::Implies(a, b) => a
                .denote(m, num_qubits)
                .sasaki_implies(&b.denote(m, num_qubits)),
        }
    }

    /// Satisfaction `(m, ψ) ⊨ A` for a pure-state singleton (Def. 3.4).
    pub fn satisfied_by(&self, m: &CMem, state: &DenseState) -> bool {
        self.denote(m, state.num_qubits())
            .contains(state.amplitudes())
    }

    /// Substitutes classical variable `v` by a boolean expression in every
    /// classical atom and (if `e` is XOR-affine) in every Pauli phase.
    ///
    /// # Panics
    ///
    /// Panics when a Pauli phase mentions `v` but `e` is not representable as
    /// an XOR-affine form.
    pub fn subst_classical(&self, v: VarId, e: &BExp) -> Assertion {
        let affine = bexp_to_affine(e);
        self.map(&|a| match a {
            Assertion::Bool(b) => Some(Assertion::Bool(b.subst(v, e))),
            Assertion::Pauli(p) => {
                let mut p = p.clone();
                p.update_phases(|_, phase| {
                    if phase.contains(v) {
                        let aff = affine
                            .as_ref()
                            .expect("non-affine substitution into a Pauli phase");
                        *phase = phase.subst(v, aff);
                    }
                });
                Some(Assertion::Pauli(p))
            }
            _ => None,
        })
    }

    /// Applies `f` to atoms bottom-up; `None` keeps recursing structurally.
    pub fn map(&self, f: &dyn Fn(&Assertion) -> Option<Assertion>) -> Assertion {
        if let Some(replaced) = f(self) {
            return replaced;
        }
        match self {
            Assertion::Bool(_) | Assertion::Pauli(_) => self.clone(),
            Assertion::Not(a) => Assertion::not(a.map(f)),
            Assertion::And(a, b) => Assertion::and(a.map(f), b.map(f)),
            Assertion::Or(a, b) => Assertion::or(a.map(f), b.map(f)),
            Assertion::Implies(a, b) => Assertion::implies(a.map(f), b.map(f)),
        }
    }

    /// Transforms every Pauli atom (used by the unitary proof rules).
    pub fn map_pauli(&self, f: &dyn Fn(&ExtPauli) -> ExtPauli) -> Assertion {
        self.map(&|a| match a {
            Assertion::Pauli(p) => Some(Assertion::Pauli(f(p))),
            _ => None,
        })
    }

    /// Collects the classical variables appearing anywhere in the assertion.
    pub fn classical_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Assertion::Bool(b) => b.free_vars(out),
            Assertion::Pauli(p) => {
                for t in p.terms() {
                    out.extend(t.phase().vars());
                }
            }
            Assertion::Not(a) => a.collect_vars(out),
            Assertion::And(a, b) | Assertion::Or(a, b) | Assertion::Implies(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

/// Converts a boolean expression to an XOR-affine form when possible.
pub fn bexp_to_affine(e: &BExp) -> Option<Affine> {
    match e {
        BExp::Const(c) => Some(Affine::constant(*c)),
        BExp::Var(v) => Some(Affine::var(*v)),
        BExp::Not(a) => bexp_to_affine(a).map(|a| a ^ Affine::one()),
        BExp::Xor(a, b) => Some(bexp_to_affine(a)? ^ bexp_to_affine(b)?),
        _ => None,
    }
}

/// Entailment `A ⊨ B` checked semantically over all assignments of the given
/// classical variables (Def. 3.5), on a small quantum system.
pub fn entails(a: &Assertion, b: &Assertion, vars: &[VarId], num_qubits: usize) -> bool {
    let k = vars.len();
    assert!(k <= 16, "too many classical variables to enumerate");
    for bits in 0u32..1 << k {
        let mut m = CMem::new();
        for (i, &v) in vars.iter().enumerate() {
            m.set(v, veriqec_cexpr::Value::Bool((bits >> i) & 1 == 1));
        }
        if !a
            .denote(&m, num_qubits)
            .is_subspace_of(&b.denote(&m, num_qubits))
        {
            return false;
        }
    }
    true
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assertion::Bool(b) => write!(f, "{b}"),
            Assertion::Pauli(p) => write!(f, "{p}"),
            Assertion::Not(a) => write!(f, "¬({a})"),
            Assertion::And(a, b) => write!(f, "({a} ∧ {b})"),
            Assertion::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Assertion::Implies(a, b) => write!(f, "({a} ⇒ {b})"),
        }
    }
}

impl fmt::Debug for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_pauli::PauliString;

    fn atom(s: &str) -> Assertion {
        Assertion::pauli(SymPauli::plain(PauliString::from_letters(s).unwrap()))
    }

    #[test]
    fn example_3_3_precondition_is_weakest() {
        // (X1 ∧ Z2) ∨ (X1 ∧ −Z2) |=| X1 under quantum ∨.
        let lhs = Assertion::or(
            Assertion::and(atom("XI"), atom("IZ")),
            Assertion::and(atom("XI"), atom("-IZ")),
        );
        let rhs = atom("XI");
        assert!(entails(&lhs, &rhs, &[], 2));
        assert!(entails(&rhs, &lhs, &[], 2));
    }

    #[test]
    fn classical_disjunction_would_be_too_weak() {
        // The union (not the span) of the two branches does not contain
        // |+⟩|ψ⟩ for general ψ — demonstrated by a state in X1 that is in
        // neither branch.
        let branch0 = Assertion::and(atom("XI"), atom("IZ"));
        let x1 = atom("XI");
        assert!(!entails(&x1, &branch0, &[], 2));
    }

    #[test]
    fn boolean_atoms_gate_subspaces() {
        let mut vt = veriqec_cexpr::VarTable::new();
        let b = vt.fresh("b", veriqec_cexpr::VarRole::Param);
        let a = Assertion::and(Assertion::boolean(BExp::var(b)), atom("Z"));
        let mut m = CMem::new();
        m.set(b, veriqec_cexpr::Value::Bool(false));
        assert_eq!(a.denote(&m, 1).dim(), 0);
        m.set(b, veriqec_cexpr::Value::Bool(true));
        assert_eq!(a.denote(&m, 1).dim(), 1);
    }

    #[test]
    fn sasaki_implication_bvn_requirement() {
        // A ⇒ B is the full space iff ⟦A⟧ ⊆ ⟦B⟧.
        let a = Assertion::and(atom("ZI"), atom("IZ"));
        let b = atom("ZI");
        let imp = Assertion::implies(a, b);
        let m = CMem::new();
        assert_eq!(imp.denote(&m, 2).dim(), 4);
    }

    #[test]
    fn subst_classical_hits_phases() {
        let mut vt = veriqec_cexpr::VarTable::new();
        let x = vt.fresh("x", veriqec_cexpr::VarRole::Correction);
        let g = SymPauli::new(PauliString::from_letters("ZZ").unwrap(), Affine::var(x));
        let a = Assertion::pauli(g);
        let a0 = a.subst_classical(x, &BExp::ff());
        let a1 = a.subst_classical(x, &BExp::tt());
        let m = CMem::new();
        assert!(!a0.denote(&m, 2).equals(&a1.denote(&m, 2)));
        // a0 is ZZ, a1 is −ZZ: orthogonal complements of each other's kernel.
        assert_eq!(a0.denote(&m, 2).meet(&a1.denote(&m, 2)).dim(), 0);
    }

    #[test]
    fn proof_system_laws_fig11_sample() {
        // Law 1: ¬¬A ⊢ A; law: A ∧ B ⊢ A; orthomodularity via Sasaki.
        let a = atom("XX");
        let b = atom("ZZ");
        let nn = Assertion::not(Assertion::not(a.clone()));
        assert!(entails(&nn, &a, &[], 2) && entails(&a, &nn, &[], 2));
        let ab = Assertion::and(a.clone(), b.clone());
        assert!(entails(&ab, &a, &[], 2));
        // Compatible import-export: Z0 and Z0Z1 commute; check
        // (A ∧ B ⊆ C) iff (A ⊆ B ⇒ C) for commuting A, B.
        let z0 = atom("ZI");
        let zz = atom("ZZ");
        let c = Assertion::and(z0.clone(), zz.clone());
        assert!(entails(&Assertion::and(z0.clone(), zz.clone()), &c, &[], 2));
        assert!(entails(&z0, &Assertion::implies(zz, c), &[], 2));
    }
}
