//! The program logic of the paper (Fig. 3) as weakest-precondition engines.
//!
//! * [`wp_loopfree`] — the generic transformer over full assertions,
//!   implementing every rule directly (reference semantics; exponential);
//! * [`qec_wp`] — the scalable engine on the QEC normal form, carrying
//!   XOR-affine phases (the paper's efficient pipeline);
//! * [`triple_holds`] — semantic validation of Hoare triples by exhaustive
//!   execution, standing in for the paper's Coq soundness theorem.
//!
//! The test suite cross-validates the two engines against each other and
//! against the dense operational semantics on randomly generated programs.
//!
//! # Examples
//!
//! ```
//! use veriqec_logic::{entails, Assertion};
//! use veriqec_pauli::{Gate1, PauliString, SymPauli};
//! use veriqec_prog::Stmt;
//! use veriqec_wp::wp_loopfree;
//!
//! let x = Assertion::pauli(SymPauli::plain(PauliString::from_letters("X").unwrap()));
//! let z = Assertion::pauli(SymPauli::plain(PauliString::from_letters("Z").unwrap()));
//! let pre = wp_loopfree(&Stmt::Gate1(Gate1::H, 0), &x).unwrap();
//! assert!(entails(&pre, &z, &[], 1) && entails(&z, &pre, &[], 1));
//! ```

#![forbid(unsafe_code)]

mod error;
mod generic;
mod qec;
mod validate;
mod while_rule;

pub use error::WpError;
pub use generic::wp_loopfree;
pub use qec::{qec_wp, QecWpResult};
pub use validate::triple_holds;
pub use while_rule::{check_while, WhileTriple};

#[cfg(test)]
mod soundness {
    //! Randomized soundness tests: `{wp(S, B)} S {B}` must hold semantically,
    //! and the QEC engine must agree with the generic engine.

    use super::*;
    use rand::prelude::*;
    use veriqec_cexpr::{Affine, BExp, VarRole, VarTable};
    use veriqec_logic::{entails, Assertion, QecAssertion};
    use veriqec_pauli::{ExtPauli, Gate1, Gate2, PauliString, SymPauli};
    use veriqec_prog::{NoDecoders, Stmt};

    struct Gen {
        rng: StdRng,
        vt: VarTable,
        n: usize,
    }

    impl Gen {
        fn random_stmt(&mut self, depth: usize, qec_fragment: bool) -> Stmt {
            let choice = self.rng.gen_range(0..if qec_fragment { 6 } else { 8 });
            match choice {
                0 => {
                    let g = *[Gate1::H, Gate1::S, Gate1::Sdg, Gate1::X, Gate1::Y, Gate1::Z]
                        .choose(&mut self.rng)
                        .unwrap();
                    Stmt::Gate1(g, self.rng.gen_range(0..self.n))
                }
                1 => {
                    let i = self.rng.gen_range(0..self.n);
                    let mut j = self.rng.gen_range(0..self.n);
                    while j == i {
                        j = self.rng.gen_range(0..self.n);
                    }
                    let g = *[Gate2::Cnot, Gate2::Cz, Gate2::ISwap]
                        .choose(&mut self.rng)
                        .unwrap();
                    Stmt::Gate2(g, i, j)
                }
                2 => {
                    let e = self.fresh_var("e", VarRole::Error);
                    let g = *[Gate1::X, Gate1::Y, Gate1::Z]
                        .choose(&mut self.rng)
                        .unwrap();
                    Stmt::CondGate1(BExp::var(e), g, self.rng.gen_range(0..self.n))
                }
                3 => {
                    let s = self.fresh_var("s", VarRole::Syndrome);
                    let p = self.random_pauli();
                    Stmt::Meas(s, p)
                }
                4 => {
                    let x = self.fresh_var("a", VarRole::Aux);
                    let e = self.fresh_var("e", VarRole::Error);
                    Stmt::Assign(x, BExp::xor(BExp::var(e), BExp::Const(self.rng.gen())))
                }
                5 => {
                    // Faulty readout: fresh syndrome, measuring (−1)^m P
                    // for a fresh flip indicator m.
                    let s = self.fresh_var("s", VarRole::Syndrome);
                    let m = self.fresh_var("m", VarRole::MeasError);
                    let p = self.random_pauli();
                    let mut phase = p.phase().clone();
                    phase.xor_var(m);
                    Stmt::Meas(s, SymPauli::new(p.pauli().clone(), phase))
                }
                6 => {
                    if depth == 0 {
                        Stmt::Skip
                    } else {
                        let b = self.fresh_var("e", VarRole::Error);
                        Stmt::If(
                            BExp::var(b),
                            Box::new(self.random_stmt(depth - 1, qec_fragment)),
                            Box::new(self.random_stmt(depth - 1, qec_fragment)),
                        )
                    }
                }
                _ => Stmt::Init(self.rng.gen_range(0..self.n)),
            }
        }

        fn fresh_var(&mut self, family: &str, role: VarRole) -> veriqec_cexpr::VarId {
            let idx = self.vt.len();
            self.vt.fresh(&format!("{family}_{idx}"), role)
        }

        fn random_pauli(&mut self) -> SymPauli {
            loop {
                let mut p = PauliString::identity(self.n);
                for q in 0..self.n {
                    match self.rng.gen_range(0..4) {
                        0 => {}
                        1 => p = p.mul(&PauliString::single(self.n, 'X', q)),
                        2 => p = p.mul(&PauliString::single(self.n, 'Y', q)),
                        _ => p = p.mul(&PauliString::single(self.n, 'Z', q)),
                    }
                }
                if !p.is_identity_up_to_phase() {
                    if self.rng.gen() {
                        p.add_ipow(2);
                    }
                    return SymPauli::new(p, Affine::zero());
                }
            }
        }
    }

    fn random_post(g: &mut Gen) -> (Assertion, Vec<SymPauli>) {
        // A commuting pair of stabilizer conjuncts when possible.
        let a = g.random_pauli();
        let mut b = g.random_pauli();
        for _ in 0..20 {
            if b.pauli().commutes_with(a.pauli()) && b.pauli() != a.pauli() {
                break;
            }
            b = g.random_pauli();
        }
        if !b.pauli().commutes_with(a.pauli()) || b.pauli() == a.pauli() {
            return (Assertion::pauli(a.clone()), vec![a]);
        }
        (
            Assertion::and(Assertion::pauli(a.clone()), Assertion::pauli(b.clone())),
            vec![a, b],
        )
    }

    #[test]
    fn generic_wp_is_sound_on_random_programs() {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(2024),
            vt: VarTable::new(),
            n: 2,
        };
        let mut checked = 0;
        for _ in 0..40 {
            let stmts: Vec<Stmt> = (0..3).map(|_| g.random_stmt(1, false)).collect();
            let prog = Stmt::seq(stmts);
            let (post, _) = random_post(&mut g);
            let Ok(pre) = wp_loopfree(&prog, &post) else {
                continue;
            };
            let vars = {
                let mut v = pre.classical_vars();
                let mut pv = post.classical_vars();
                v.append(&mut pv);
                let mut w: Vec<_> = prog_vars(&prog);
                v.append(&mut w);
                v.sort();
                v.dedup();
                v
            };
            if vars.len() > 8 {
                continue;
            }
            assert!(
                triple_holds(&pre, &prog, &post, &vars, g.n, &NoDecoders),
                "unsound wp for program:\n{prog}\npost: {post}\npre: {pre}"
            );
            checked += 1;
        }
        assert!(checked >= 20, "too few programs checked: {checked}");
    }

    #[test]
    fn qec_engine_agrees_with_generic_engine() {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(99),
            vt: VarTable::new(),
            n: 2,
        };
        let mut checked = 0;
        for _ in 0..40 {
            let stmts: Vec<Stmt> = (0..3).map(|_| g.random_stmt(0, true)).collect();
            let prog = Stmt::seq(stmts);
            let (post_generic, conjuncts) = random_post(&mut g);
            let post_qec = QecAssertion::from_conjuncts(
                g.n,
                conjuncts.iter().cloned().map(ExtPauli::from_sym).collect(),
            );
            let Ok(qr) = qec_wp(&prog, post_qec) else {
                continue;
            };
            let Ok(pre_generic) = wp_loopfree(&prog, &post_generic) else {
                continue;
            };
            if qr.pre.or_vars.len() > 4 {
                continue;
            }
            let pre_qec = qr.pre.to_assertion();
            let vars = {
                let mut v = pre_generic.classical_vars();
                v.extend(pre_qec.classical_vars());
                v.sort();
                v.dedup();
                v
            };
            if vars.len() > 8 {
                continue;
            }
            assert!(
                entails(&pre_qec, &pre_generic, &vars, g.n)
                    && entails(&pre_generic, &pre_qec, &vars, g.n),
                "engines disagree on:\n{prog}\ngeneric: {pre_generic}\nqec: {pre_qec}"
            );
            checked += 1;
        }
        assert!(checked >= 15, "too few programs checked: {checked}");
    }

    fn prog_vars(s: &Stmt) -> Vec<veriqec_cexpr::VarId> {
        let mut out = Vec::new();
        collect(s, &mut out);
        out.sort();
        out.dedup();
        return out;

        fn collect(s: &Stmt, out: &mut Vec<veriqec_cexpr::VarId>) {
            match s {
                Stmt::CondGate1(b, _, _) => b.free_vars(out),
                Stmt::Assign(x, e) => {
                    out.push(*x);
                    e.free_vars(out);
                }
                Stmt::Meas(x, p) => {
                    out.push(*x);
                    out.extend(p.phase().vars());
                }
                Stmt::If(b, a, c) => {
                    b.free_vars(out);
                    collect(a, out);
                    collect(c, out);
                }
                Stmt::While(b, a) => {
                    b.free_vars(out);
                    collect(a, out);
                }
                Stmt::Seq(v) => v.iter().for_each(|x| collect(x, out)),
                Stmt::Decode(d) => {
                    out.extend(d.outputs.iter().copied());
                    out.extend(d.inputs.iter().copied());
                }
                _ => {}
            }
        }
    }
}
