//! Concrete-syntax parser for QEC programs.
//!
//! The surface syntax follows the paper's program notation (Table 1):
//!
//! ```text
//! for i in 0..7 do [ep[i]] q[i] *= Y end;
//! for i in 0..7 do q[i] *= H end;
//! s[0] := meas[X[0]*X[2]*X[4]*X[6]];
//! (z[0], z[1]) := decode_z(s[0]);
//! [z[0]] q[0] *= Z
//! ```
//!
//! Qubit and variable indices are 0-based. `for` loops have constant bounds
//! (`a..b`, exclusive) and are unrolled at parse time; loop variables may
//! appear in index arithmetic (`+`, `-`, `*`). Statements are separated by
//! `;` or the paper's `#`. Variable roles are inferred from the family name
//! (`e`/`ep` errors, `s` syndromes, `x`/`z`/`c` corrections, `b` parameters,
//! `m` measurement flips). A faulty readout `s[0] := meas[P] ^ m[0]` is the
//! measurement of `(−1)^{m_0} P`.

use crate::{DecodeCall, Program, Stmt};
use std::collections::HashMap;
use std::fmt;
use veriqec_cexpr::{BExp, IExp, VarId, VarRole, VarTable};
use veriqec_pauli::{Gate1, Gate2, PauliString, SymPauli};

/// Error produced by [`parse_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseProgramError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Assign,    // :=
    MulAssign, // *=
    Semi,      // ; or #
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    DotDot,
    Ket0, // |0>
    EqEq,
    Le,
    AndAnd,
    OrOr,
    Caret,
    Bang,
    Arrow, // ->
    Plus,
    Minus,
    Star,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseProgramError> {
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ';' | '#' => {
                out.push((Tok::Semi, start));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBracket, start));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBracket, start));
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, start));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, start));
                i += 1;
            }
            '^' => {
                out.push((Tok::Caret, start));
                i += 1;
            }
            '!' => {
                out.push((Tok::Bang, start));
                i += 1;
            }
            '+' => {
                out.push((Tok::Plus, start));
                i += 1;
            }
            '*' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Tok::MulAssign, start));
                i += 2;
            }
            '*' => {
                out.push((Tok::Star, start));
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push((Tok::Arrow, start));
                i += 2;
            }
            '-' => {
                out.push((Tok::Minus, start));
                i += 1;
            }
            ':' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Tok::Assign, start));
                i += 2;
            }
            '=' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Tok::EqEq, start));
                i += 2;
            }
            '<' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Tok::Le, start));
                i += 2;
            }
            '&' if bytes.get(i + 1) == Some(&b'&') => {
                out.push((Tok::AndAnd, start));
                i += 2;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                out.push((Tok::OrOr, start));
                i += 2;
            }
            '|' if src[i..].starts_with("|0>") => {
                out.push((Tok::Ket0, start));
                i += 3;
            }
            '.' if bytes.get(i + 1) == Some(&b'.') => {
                out.push((Tok::DotDot, start));
                i += 2;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let v: i64 = src[i..j].parse().map_err(|_| ParseProgramError {
                    message: "integer overflow".into(),
                    offset: start,
                })?;
                out.push((Tok::Int(v), start));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.push((Tok::Ident(src[i..j].to_string()), start));
                i = j;
            }
            other => {
                return Err(ParseProgramError {
                    message: format!("unexpected character `{other}`"),
                    offset: start,
                })
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    vars: VarTable,
    loop_env: HashMap<String, i64>,
    num_qubits: usize,
    src_len: usize,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(_, o)| *o)
            .unwrap_or(self.src_len)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseProgramError> {
        Err(ParseProgramError {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> Result<(), ParseProgramError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> Result<(), ParseProgramError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other:?}")),
        }
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    // -------------------------------------------------- compile-time indices

    fn const_iexp(&mut self) -> Result<i64, ParseProgramError> {
        let mut v = self.const_term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    v += self.const_term()?;
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    v -= self.const_term()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn const_term(&mut self) -> Result<i64, ParseProgramError> {
        let mut v = self.const_atom()?;
        while self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            v *= self.const_atom()?;
        }
        Ok(v)
    }

    fn const_atom(&mut self) -> Result<i64, ParseProgramError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            Some(Tok::Minus) => Ok(-self.const_atom()?),
            Some(Tok::LParen) => {
                let v = self.const_iexp()?;
                self.eat(&Tok::RParen)?;
                Ok(v)
            }
            Some(Tok::Ident(name)) => match self.loop_env.get(&name) {
                Some(&v) => Ok(v),
                None => self.err(format!("unknown loop variable `{name}` in index")),
            },
            other => self.err(format!("expected index expression, found {other:?}")),
        }
    }

    fn index_suffix(&mut self) -> Result<Option<i64>, ParseProgramError> {
        if self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            let v = self.const_iexp()?;
            self.eat(&Tok::RBracket)?;
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    fn role_of(family: &str) -> VarRole {
        match family {
            "e" => VarRole::Error,
            "ep" => VarRole::Propagation,
            "s" => VarRole::Syndrome,
            "m" => VarRole::MeasError,
            "x" | "z" | "c" | "cx" | "cz" => VarRole::Correction,
            "b" => VarRole::Param,
            _ => VarRole::Aux,
        }
    }

    fn var_ref(&mut self, family: String) -> Result<VarId, ParseProgramError> {
        let role = Self::role_of(&family);
        let name = match self.index_suffix()? {
            Some(i) => format!("{family}_{i}"),
            None => family,
        };
        Ok(self.vars.fresh(&name, role))
    }

    // ----------------------------------------------------- runtime booleans

    fn bexp(&mut self) -> Result<BExp, ParseProgramError> {
        let lhs = self.bexp_or()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.pos += 1;
            let rhs = self.bexp()?;
            Ok(BExp::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn bexp_or(&mut self) -> Result<BExp, ParseProgramError> {
        let mut a = self.bexp_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            a = BExp::or(a, self.bexp_and()?);
        }
        Ok(a)
    }

    fn bexp_and(&mut self) -> Result<BExp, ParseProgramError> {
        let mut a = self.bexp_xor()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            a = BExp::and(a, self.bexp_xor()?);
        }
        Ok(a)
    }

    fn bexp_xor(&mut self) -> Result<BExp, ParseProgramError> {
        let mut a = self.bexp_atom()?;
        while self.peek() == Some(&Tok::Caret) {
            self.pos += 1;
            a = BExp::xor(a, self.bexp_atom()?);
        }
        Ok(a)
    }

    fn bexp_atom(&mut self) -> Result<BExp, ParseProgramError> {
        match self.peek().cloned() {
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(BExp::not(self.bexp_atom()?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let b = self.bexp()?;
                self.eat(&Tok::RParen)?;
                Ok(b)
            }
            Some(Tok::Ident(kw)) if kw == "true" => {
                self.pos += 1;
                Ok(BExp::tt())
            }
            Some(Tok::Ident(kw)) if kw == "false" => {
                self.pos += 1;
                Ok(BExp::ff())
            }
            _ => {
                // A runtime integer expression, maybe compared.
                let lhs = self.runtime_iexp()?;
                match self.peek() {
                    Some(Tok::EqEq) => {
                        self.pos += 1;
                        let rhs = self.runtime_iexp()?;
                        Ok(BExp::eq(lhs, rhs))
                    }
                    Some(Tok::Le) => {
                        self.pos += 1;
                        let rhs = self.runtime_iexp()?;
                        Ok(BExp::le(lhs, rhs))
                    }
                    _ => match lhs {
                        IExp::Var(v) => Ok(BExp::var(v)),
                        other => self.err(format!(
                            "integer expression `{other}` used as boolean without comparison"
                        )),
                    },
                }
            }
        }
    }

    fn runtime_iexp(&mut self) -> Result<IExp, ParseProgramError> {
        let mut terms = vec![self.runtime_iatom()?];
        while self.peek() == Some(&Tok::Plus) {
            self.pos += 1;
            terms.push(self.runtime_iatom()?);
        }
        Ok(IExp::sum(terms))
    }

    fn runtime_iatom(&mut self) -> Result<IExp, ParseProgramError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(IExp::constant(v)),
            Some(Tok::Ident(name)) => {
                // Loop variables take priority as constants.
                if let Some(&v) = self.loop_env.get(&name) {
                    return Ok(IExp::constant(v));
                }
                let v = self.var_ref(name)?;
                Ok(IExp::var(v))
            }
            other => self.err(format!("expected integer atom, found {other:?}")),
        }
    }

    // ------------------------------------------------------------- Pauli lit

    fn pauli_literal(&mut self) -> Result<SymPauli, ParseProgramError> {
        let start = self.offset();
        let negative = if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut factors: Vec<(char, usize)> = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::Ident(l)) if l == "X" || l == "Y" || l == "Z" => {
                    self.eat(&Tok::LBracket)?;
                    let q = self.const_iexp()?;
                    self.eat(&Tok::RBracket)?;
                    if q < 0 {
                        return self.err("negative qubit index");
                    }
                    factors.push((l.chars().next().expect("nonempty"), q as usize));
                }
                other => {
                    return self.err(format!("expected Pauli factor, found {other:?}"));
                }
            }
            if self.peek() == Some(&Tok::Star) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let max_q = factors.iter().map(|&(_, q)| q).max().unwrap_or(0);
        self.num_qubits = self.num_qubits.max(max_q + 1);
        build_pauli(&factors, negative).ok_or_else(|| ParseProgramError {
            message: "a Pauli literal must be Hermitian: two letters on one qubit multiply to ±i"
                .into(),
            offset: start,
        })
    }

    // ------------------------------------------------------------ statements

    fn stmt_list(&mut self, terminators: &[&str]) -> Result<Stmt, ParseProgramError> {
        let mut stmts = Vec::new();
        loop {
            while self.peek() == Some(&Tok::Semi) {
                self.pos += 1;
            }
            if self.pos >= self.toks.len() || terminators.iter().any(|t| self.at_ident(t)) {
                break;
            }
            stmts.push(self.stmt()?);
            if self.peek() == Some(&Tok::Semi) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(Stmt::seq(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseProgramError> {
        match self.peek().cloned() {
            Some(Tok::Ident(kw)) if kw == "skip" => {
                self.pos += 1;
                Ok(Stmt::Skip)
            }
            Some(Tok::Ident(kw)) if kw == "if" => {
                self.pos += 1;
                let b = self.bexp()?;
                self.eat_ident("then")?;
                let s1 = self.stmt_list(&["else", "end"])?;
                let s0 = if self.at_ident("else") {
                    self.pos += 1;
                    self.stmt_list(&["end"])?
                } else {
                    Stmt::Skip
                };
                self.eat_ident("end")?;
                Ok(Stmt::If(b, Box::new(s1), Box::new(s0)))
            }
            Some(Tok::Ident(kw)) if kw == "while" => {
                self.pos += 1;
                let b = self.bexp()?;
                self.eat_ident("do")?;
                let body = self.stmt_list(&["end"])?;
                self.eat_ident("end")?;
                Ok(Stmt::While(b, Box::new(body)))
            }
            Some(Tok::Ident(kw)) if kw == "for" => {
                self.pos += 1;
                let Some(Tok::Ident(loop_var)) = self.bump() else {
                    return self.err("expected loop variable");
                };
                self.eat_ident("in")?;
                let lo = self.const_iexp()?;
                self.eat(&Tok::DotDot)?;
                let hi = self.const_iexp()?;
                self.eat_ident("do")?;
                let body_start = self.pos;
                let mut iterations = Vec::new();
                let prev = self.loop_env.get(&loop_var).copied();
                for v in lo..hi {
                    self.pos = body_start;
                    self.loop_env.insert(loop_var.clone(), v);
                    iterations.push(self.stmt_list(&["end"])?);
                }
                if lo >= hi {
                    // Still need to skip over the body.
                    self.pos = body_start;
                    self.loop_env.insert(loop_var.clone(), lo);
                    let _ = self.stmt_list(&["end"])?;
                    iterations.clear();
                }
                match prev {
                    Some(v) => {
                        self.loop_env.insert(loop_var, v);
                    }
                    None => {
                        self.loop_env.remove(&loop_var);
                    }
                }
                self.eat_ident("end")?;
                Ok(Stmt::seq(iterations))
            }
            Some(Tok::LBracket) => {
                // [b] q[i] *= U
                self.pos += 1;
                let b = self.bexp()?;
                self.eat(&Tok::RBracket)?;
                let (g, q) = self.gate1_application()?;
                Ok(Stmt::CondGate1(b, g, q))
            }
            Some(Tok::LParen) => {
                // (outs) := name(ins)
                self.pos += 1;
                let mut outputs = Vec::new();
                loop {
                    let Some(Tok::Ident(f)) = self.bump() else {
                        return self.err("expected output variable");
                    };
                    outputs.push(self.var_ref(f)?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::RParen)?;
                self.eat(&Tok::Assign)?;
                let Some(Tok::Ident(name)) = self.bump() else {
                    return self.err("expected decoder name");
                };
                self.eat(&Tok::LParen)?;
                let mut inputs = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        let Some(Tok::Ident(f)) = self.bump() else {
                            return self.err("expected input variable");
                        };
                        inputs.push(self.var_ref(f)?);
                        if self.peek() == Some(&Tok::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RParen)?;
                Ok(Stmt::Decode(DecodeCall {
                    name,
                    outputs,
                    inputs,
                }))
            }
            Some(Tok::Ident(kw)) if kw == "q" => {
                let (stmt, _) = self.qubit_statement()?;
                Ok(stmt)
            }
            Some(Tok::Ident(family)) => {
                self.pos += 1;
                let var = self.var_ref(family)?;
                self.eat(&Tok::Assign)?;
                if self.at_ident("meas") {
                    self.pos += 1;
                    self.eat(&Tok::LBracket)?;
                    let mut p = self.pauli_literal()?;
                    self.eat(&Tok::RBracket)?;
                    if self.peek() == Some(&Tok::Caret) {
                        // x := meas[P] ^ m — a faulty readout, the
                        // measurement of (−1)^m P.
                        self.pos += 1;
                        let Some(Tok::Ident(f)) = self.bump() else {
                            return self.err("expected flip-indicator variable after `^`");
                        };
                        let mut phase = p.phase().clone();
                        phase.xor_var(self.var_ref(f)?);
                        p = SymPauli::new(p.pauli().clone(), phase);
                    }
                    Ok(Stmt::Meas(var, p))
                } else {
                    let e = self.bexp()?;
                    Ok(Stmt::Assign(var, e))
                }
            }
            other => self.err(format!("expected statement, found {other:?}")),
        }
    }

    fn qubit_index(&mut self) -> Result<usize, ParseProgramError> {
        self.eat_ident("q")?;
        self.eat(&Tok::LBracket)?;
        let q = self.const_iexp()?;
        self.eat(&Tok::RBracket)?;
        if q < 0 {
            return self.err("negative qubit index");
        }
        let q = q as usize;
        self.num_qubits = self.num_qubits.max(q + 1);
        Ok(q)
    }

    fn gate1_application(&mut self) -> Result<(Gate1, usize), ParseProgramError> {
        let q = self.qubit_index()?;
        self.eat(&Tok::MulAssign)?;
        let Some(Tok::Ident(g)) = self.bump() else {
            return self.err("expected gate name");
        };
        let gate = parse_gate1(&g).ok_or_else(|| ParseProgramError {
            message: format!("unknown single-qubit gate `{g}`"),
            offset: self.offset(),
        })?;
        Ok((gate, q))
    }

    fn qubit_statement(&mut self) -> Result<(Stmt, usize), ParseProgramError> {
        let start = self.offset();
        let q = self.qubit_index()?;
        match self.peek() {
            Some(Tok::Comma) => {
                self.pos += 1;
                let q2 = self.qubit_index()?;
                self.eat(&Tok::MulAssign)?;
                let Some(Tok::Ident(g)) = self.bump() else {
                    return self.err("expected gate name");
                };
                let gate = parse_gate2(&g).ok_or_else(|| ParseProgramError {
                    message: format!("unknown two-qubit gate `{g}`"),
                    offset: self.offset(),
                })?;
                if q == q2 {
                    return Err(ParseProgramError {
                        message: "a two-qubit gate needs two distinct qubits".into(),
                        offset: start,
                    });
                }
                Ok((Stmt::Gate2(gate, q, q2), q))
            }
            Some(Tok::Assign) => {
                self.pos += 1;
                self.eat(&Tok::Ket0)?;
                Ok((Stmt::Init(q), q))
            }
            Some(Tok::MulAssign) => {
                self.pos += 1;
                let Some(Tok::Ident(g)) = self.bump() else {
                    return self.err("expected gate name");
                };
                let gate = parse_gate1(&g).ok_or_else(|| ParseProgramError {
                    message: format!("unknown single-qubit gate `{g}`"),
                    offset: self.offset(),
                })?;
                Ok((Stmt::Gate1(gate, q), q))
            }
            other => self.err(format!("expected qubit statement, found {other:?}")),
        }
    }
}

fn parse_gate1(s: &str) -> Option<Gate1> {
    match s {
        "X" => Some(Gate1::X),
        "Y" => Some(Gate1::Y),
        "Z" => Some(Gate1::Z),
        "H" => Some(Gate1::H),
        "S" => Some(Gate1::S),
        "Sdg" => Some(Gate1::Sdg),
        "T" => Some(Gate1::T),
        "Tdg" => Some(Gate1::Tdg),
        _ => None,
    }
}

fn parse_gate2(s: &str) -> Option<Gate2> {
    match s {
        "CNOT" | "CX" => Some(Gate2::Cnot),
        "CZ" => Some(Gate2::Cz),
        "ISWAP" | "iSWAP" => Some(Gate2::ISwap),
        _ => None,
    }
}

/// Builds a Pauli literal over its highest qubit; `None` when the product
/// is not Hermitian (e.g. `X[0]*Z[0] = −iY`).
fn build_pauli(factors: &[(char, usize)], negative: bool) -> Option<SymPauli> {
    let n = factors.iter().map(|&(_, q)| q + 1).max().unwrap_or(1);
    let mut p = PauliString::identity(n);
    for &(letter, q) in factors {
        p = p.mul(&PauliString::single(n, letter, q));
    }
    if negative {
        p.add_ipow(2);
    }
    p.hermitian_sign()?;
    Some(SymPauli::new(p, veriqec_cexpr::Affine::zero()))
}

/// Parses a program. Measurement Pauli operators are padded to the final
/// qubit count after parsing, keeping their phase.
///
/// # Errors
///
/// Returns [`ParseProgramError`] on lexical or syntactic problems.
pub fn parse_program(src: &str) -> Result<Program, ParseProgramError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        vars: VarTable::new(),
        loop_env: HashMap::new(),
        num_qubits: 0,
        src_len: src.len(),
        _marker: std::marker::PhantomData,
    };
    let stmt = p.stmt_list(&[])?;
    if p.pos < p.toks.len() {
        return p.err("trailing input after program");
    }
    let n = p.num_qubits.max(1);
    let stmt = pad_paulis(stmt, n);
    Ok(Program::new(stmt, n, p.vars))
}

fn pad_paulis(stmt: Stmt, n: usize) -> Stmt {
    match stmt {
        Stmt::Meas(x, p) if p.num_qubits() < n => {
            let mut padded = PauliString::identity(n);
            for q in 0..p.num_qubits() {
                let local = p.pauli().letter(q);
                if local != 'I' {
                    padded = padded.mul(&PauliString::single(n, local, q));
                }
            }
            Stmt::Meas(x, SymPauli::new(padded, p.phase().clone()))
        }
        Stmt::Seq(v) => Stmt::Seq(v.into_iter().map(|s| pad_paulis(s, n)).collect()),
        Stmt::If(b, s1, s0) => Stmt::If(
            b,
            Box::new(pad_paulis(*s1, n)),
            Box::new(pad_paulis(*s0, n)),
        ),
        Stmt::While(b, s) => Stmt::While(b, Box::new(pad_paulis(*s, n))),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_tableau, NoDecoders};
    use veriqec_cexpr::{Affine, CMem, Value};
    use veriqec_qsim::Tableau;

    #[test]
    fn parse_gates_and_loops() {
        let p = parse_program("for i in 0..3 do q[i] *= H end; q[0], q[1] *= CNOT; q[2] := |0>")
            .unwrap();
        assert_eq!(p.num_qubits, 3);
        let flat = p.stmt.flatten();
        assert_eq!(flat.len(), 5);
        assert!(matches!(flat[0], Stmt::Gate1(Gate1::H, 0)));
        assert!(matches!(flat[3], Stmt::Gate2(Gate2::Cnot, 0, 1)));
        assert!(matches!(flat[4], Stmt::Init(2)));
    }

    #[test]
    fn parse_conditional_errors_and_meas() {
        let p = parse_program("for i in 0..2 do [e[i]] q[i] *= Y end # s[0] := meas[Z[0]*Z[1]]")
            .unwrap();
        assert_eq!(p.num_qubits, 2);
        assert!(p.vars.lookup("e_0").is_some());
        assert!(p.vars.lookup("s_0").is_some());
        let flat = p.stmt.flatten();
        assert!(matches!(flat[2], Stmt::Meas(..)));
    }

    #[test]
    fn parse_decoder_call() {
        let p = parse_program("(x[0], x[1]) := decode_x(s[0], s[1])").unwrap();
        let flat = p.stmt.flatten();
        let Stmt::Decode(call) = flat[0] else {
            panic!("expected decode");
        };
        assert_eq!(call.name, "decode_x");
        assert_eq!(call.outputs.len(), 2);
        assert_eq!(call.inputs.len(), 2);
    }

    #[test]
    fn parse_if_while() {
        let p = parse_program(
            "x := true; while x do x := false end; if x then q[0] *= X else skip end",
        )
        .unwrap();
        assert!(!p.stmt.is_loop_free());
    }

    #[test]
    fn parse_weight_condition() {
        let p = parse_program("ok := e[0] + e[1] + e[2] <= 1").unwrap();
        let flat = p.stmt.flatten();
        assert!(matches!(flat[0], Stmt::Assign(..)));
    }

    #[test]
    fn loop_index_arithmetic() {
        let p = parse_program("for i in 0..2 do q[i], q[i+2] *= CNOT end").unwrap();
        assert_eq!(p.num_qubits, 4);
        let flat = p.stmt.flatten();
        assert!(matches!(flat[1], Stmt::Gate2(Gate2::Cnot, 1, 3)));
    }

    #[test]
    fn negative_pauli_measurement() {
        let p = parse_program("s[0] := meas[-Z[0]*Z[1]]").unwrap();
        let Stmt::Meas(_, sp) = p.stmt.flatten()[0] else {
            panic!()
        };
        assert!(sp.phase().is_one());
    }

    #[test]
    fn faulty_measurement_parses_with_flip_indicator() {
        let p = parse_program("s[0] := meas[Z[0]*Z[1]] ^ m[0]").unwrap();
        let Stmt::Meas(s, sp) = p.stmt.flatten()[0] else {
            panic!("expected Meas, got {:?}", p.stmt)
        };
        let m = p.vars.lookup("m_0").expect("flip indicator declared");
        assert_eq!(p.vars.role(*s), VarRole::Syndrome);
        assert_eq!(p.vars.role(m), VarRole::MeasError);
        assert_eq!(*sp.phase(), Affine::var(m), "the flip is the phase");
        assert!(p.pretty().contains("s_0 := meas[ZZ] ^ m_0"));

        // A literal narrower than the program is padded with its phase:
        // the record is the true outcome (0 on |00⟩) XOR the flip.
        let p = parse_program("q[1] *= H; s[0] := meas[Z[0]] ^ m[0]").unwrap();
        let Stmt::Meas(s, sp) = p.stmt.flatten()[1] else {
            panic!("expected Meas, got {:?}", p.stmt)
        };
        let m = p.vars.lookup("m_0").expect("flip indicator declared");
        assert_eq!(sp.num_qubits(), 2);
        assert_eq!(*sp.phase(), Affine::var(m));
        for (flip, record) in [(None, false), (Some(true), true)] {
            let mut mem = CMem::new();
            if let Some(b) = flip {
                mem.set(m, Value::Bool(b));
            }
            let mut tab = Tableau::zero_state(2);
            run_tableau(&p.stmt, &mut mem, &mut tab, &NoDecoders, &mut || {
                panic!("Z on |0⟩ is deterministic")
            });
            assert_eq!(mem.get(*s).as_bool(), record, "flip {flip:?}");
        }
    }

    #[test]
    fn errors_are_reported_with_offsets() {
        let e = parse_program("q[0] *= FOO").unwrap_err();
        assert!(e.message.contains("unknown single-qubit gate"));
        assert!(parse_program("q[0] *=").is_err());
        assert!(parse_program("@").is_err());
        // X·Z = −iY: a non-Hermitian literal is an error at its start.
        let e = parse_program("s[0] := meas[X[0]*Z[0]]").unwrap_err();
        assert!(e.message.contains("Hermitian"), "{}", e.message);
        assert_eq!(e.offset, 13);
        assert!(parse_program("s[0] := meas[Z[0]*Z[1]]").is_ok());
        // A two-qubit gate on one qubit, reported at the statement.
        let e = parse_program("q[1] *= H; q[0], q[0] *= CNOT").unwrap_err();
        assert!(e.message.contains("two distinct qubits"), "{}", e.message);
        assert_eq!(e.offset, 11);
    }

    #[test]
    fn paper_steane_program_parses() {
        // The Steane(E, H) program of Table 1 (0-based indices).
        let src = "
            for i in 0..7 do [ep[i]] q[i] *= Y end;
            for i in 0..7 do q[i] *= H end;
            for i in 0..7 do [e[i]] q[i] *= Y end;
            s[0] := meas[X[0]*X[2]*X[4]*X[6]];
            s[1] := meas[X[1]*X[2]*X[5]*X[6]];
            s[2] := meas[X[3]*X[4]*X[5]*X[6]];
            s[3] := meas[Z[0]*Z[2]*Z[4]*Z[6]];
            s[4] := meas[Z[1]*Z[2]*Z[5]*Z[6]];
            s[5] := meas[Z[3]*Z[4]*Z[5]*Z[6]];
            (z[0], z[1], z[2], z[3], z[4], z[5], z[6]) := decode_z(s[0], s[1], s[2]);
            (x[0], x[1], x[2], x[3], x[4], x[5], x[6]) := decode_x(s[3], s[4], s[5]);
            for i in 0..7 do [x[i]] q[i] *= X end;
            for i in 0..7 do [z[i]] q[i] *= Z end
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.num_qubits, 7);
        assert_eq!(p.stmt.flatten().len(), 7 + 7 + 7 + 6 + 2 + 14);
    }
}
