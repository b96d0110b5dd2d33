//! Abstract syntax of the QEC programming language (§4.1).

use std::fmt;
use veriqec_cexpr::{BExp, VarId, VarTable};
use veriqec_pauli::{Gate1, Gate2, SymPauli};

/// A decoder invocation `(x_1,…,x_n) := f(s_1,…,s_k)`.
///
/// Decoders are uninterpreted in the logic — the verification pipeline
/// constrains their outputs with the decoder specification `P_f` instead of
/// an implementation; interpreters resolve them through a
/// [`DecoderOracle`](crate::DecoderOracle).
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeCall {
    /// Decoder name (e.g. `decode_z`).
    pub name: String,
    /// Output correction variables.
    pub outputs: Vec<VarId>,
    /// Input syndrome variables.
    pub inputs: Vec<VarId>,
}

/// Program statements (`Prog` of §4.1 plus the `[b] q *= U` sugar of §4.2).
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `skip`.
    Skip,
    /// `q_i := |0⟩`.
    Init(usize),
    /// `q_i *= U` for a single-qubit gate.
    Gate1(Gate1, usize),
    /// `q_i q_j *= U` for a two-qubit gate.
    Gate2(Gate2, usize, usize),
    /// `[b] q_i *= U` — conditional gate (error injection / correction).
    CondGate1(BExp, Gate1, usize),
    /// `x := e` — classical (boolean) assignment.
    Assign(VarId, BExp),
    /// `x := meas[P]` — projective measurement of a signed Pauli. A faulty
    /// readout `x := meas[P] ^ m` is the measurement of `(−1)^m P`, with the
    /// flip indicator `m` in the phase: it projects as measuring `P` does
    /// and records the true outcome XOR `m`.
    Meas(VarId, SymPauli),
    /// Decoder call.
    Decode(DecodeCall),
    /// `if b then S1 else S0 end`.
    If(BExp, Box<Stmt>, Box<Stmt>),
    /// `while b do S end`.
    While(BExp, Box<Stmt>),
    /// Sequential composition `S1 # S2 # …`.
    Seq(Vec<Stmt>),
}

impl Stmt {
    /// Sequences a list of statements, flattening nested sequences.
    pub fn seq<I: IntoIterator<Item = Stmt>>(stmts: I) -> Stmt {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                Stmt::Seq(inner) => out.extend(inner),
                Stmt::Skip => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Stmt::Skip,
            1 => out.pop().expect("len checked"),
            _ => Stmt::Seq(out),
        }
    }

    /// The statements in execution order (flattening `Seq`).
    pub fn flatten(&self) -> Vec<&Stmt> {
        match self {
            Stmt::Seq(v) => v.iter().flat_map(|s| s.flatten()).collect(),
            other => vec![other],
        }
    }

    /// Number of primitive statements (for reporting).
    pub fn len(&self) -> usize {
        match self {
            Stmt::Seq(v) => v.iter().map(Stmt::len).sum(),
            Stmt::If(_, a, b) => 1 + a.len() + b.len(),
            Stmt::While(_, s) => 1 + s.len(),
            _ => 1,
        }
    }

    /// True for `skip` / the empty sequence.
    pub fn is_empty(&self) -> bool {
        matches!(self, Stmt::Skip) || matches!(self, Stmt::Seq(v) if v.is_empty())
    }

    /// True when the statement contains no `while` loop (the fragment with
    /// weakest-precondition definability, Theorem A.11).
    pub fn is_loop_free(&self) -> bool {
        match self {
            Stmt::While(..) => false,
            Stmt::Seq(v) => v.iter().all(Stmt::is_loop_free),
            Stmt::If(_, a, b) => a.is_loop_free() && b.is_loop_free(),
            _ => true,
        }
    }

    fn fmt_indented(
        &self,
        f: &mut fmt::Formatter<'_>,
        vt: Option<&VarTable>,
        indent: usize,
    ) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let name = |v: &VarId| -> String {
            match vt {
                Some(t) => t.name(*v).to_string(),
                None => format!("v{}", v.0),
            }
        };
        let bexp = |b: &BExp| -> String {
            match vt {
                Some(t) => b.display_with(t),
                None => format!("{b}"),
            }
        };
        match self {
            Stmt::Skip => writeln!(f, "{pad}skip"),
            Stmt::Init(q) => writeln!(f, "{pad}q[{q}] := |0>"),
            Stmt::Gate1(g, q) => writeln!(f, "{pad}q[{q}] *= {g}"),
            Stmt::Gate2(g, i, j) => writeln!(f, "{pad}q[{i}], q[{j}] *= {g}"),
            Stmt::CondGate1(b, g, q) => writeln!(f, "{pad}[{}] q[{q}] *= {g}", bexp(b)),
            Stmt::Assign(x, e) => writeln!(f, "{pad}{} := {}", name(x), bexp(e)),
            Stmt::Meas(x, p) => {
                let sign = if p.phase().constant_part() { "-" } else { "" };
                write!(f, "{pad}{} := meas[{sign}{}]", name(x), p.pauli())?;
                for m in p.phase().vars() {
                    write!(f, " ^ {}", name(&m))?;
                }
                writeln!(f)
            }
            Stmt::Decode(d) => {
                let outs: Vec<String> = d.outputs.iter().map(&name).collect();
                let ins: Vec<String> = d.inputs.iter().map(&name).collect();
                writeln!(
                    f,
                    "{pad}({}) := {}({})",
                    outs.join(", "),
                    d.name,
                    ins.join(", ")
                )
            }
            Stmt::If(b, s1, s0) => {
                writeln!(f, "{pad}if {} then", bexp(b))?;
                s1.fmt_indented(f, vt, indent + 1)?;
                writeln!(f, "{pad}else")?;
                s0.fmt_indented(f, vt, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::While(b, s) => {
                writeln!(f, "{pad}while {} do", bexp(b))?;
                s.fmt_indented(f, vt, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::Seq(v) => {
                for s in v {
                    s.fmt_indented(f, vt, indent)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, None, 0)
    }
}

/// A complete program: statement, qubit count, and the variable registry
/// that names its classical variables.
#[derive(Clone, Debug)]
pub struct Program {
    /// The program body.
    pub stmt: Stmt,
    /// Number of physical qubits.
    pub num_qubits: usize,
    /// Variable names and roles.
    pub vars: VarTable,
}

impl Program {
    /// Creates a program.
    pub fn new(stmt: Stmt, num_qubits: usize, vars: VarTable) -> Self {
        Program {
            stmt,
            num_qubits,
            vars,
        }
    }

    /// Pretty-prints with variable names.
    pub fn pretty(&self) -> String {
        struct P<'a>(&'a Program);
        impl fmt::Display for P<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.stmt.fmt_indented(f, Some(&self.0.vars), 0)
            }
        }
        format!("{}", P(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{Affine, VarRole};
    use veriqec_pauli::PauliString;

    #[test]
    fn seq_flattens() {
        let s = Stmt::seq([
            Stmt::Skip,
            Stmt::seq([Stmt::Gate1(Gate1::H, 0), Stmt::Gate1(Gate1::H, 1)]),
            Stmt::Skip,
        ]);
        assert_eq!(s.len(), 2);
        assert!(s.is_loop_free());
    }

    #[test]
    fn pretty_print_round() {
        let mut vt = VarTable::new();
        let e = vt.fresh("e_0", VarRole::Error);
        let s = vt.fresh("s_0", VarRole::Syndrome);
        let prog = Program::new(
            Stmt::seq([
                Stmt::CondGate1(BExp::var(e), Gate1::X, 0),
                Stmt::Meas(s, SymPauli::plain(PauliString::from_letters("ZZ").unwrap())),
            ]),
            2,
            vt,
        );
        let txt = prog.pretty();
        assert!(txt.contains("[e_0] q[0] *= X"));
        assert!(txt.contains("s_0 := meas[ZZ]"));
    }

    #[test]
    fn pretty_print_faulty_measurement() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s_0", VarRole::Syndrome);
        let m = vt.fresh("m_0", VarRole::MeasError);
        let prog = Program::new(
            Stmt::Meas(
                s,
                SymPauli::new(PauliString::from_letters("ZZ").unwrap(), Affine::var(m)),
            ),
            2,
            vt,
        );
        assert!(prog.pretty().contains("s_0 := meas[ZZ] ^ m_0"));
    }
}
