//! The encoding context: classical expressions → CNF → CDCL solver.

use std::collections::HashMap;
use std::fmt;

use veriqec_cexpr::{Affine, BExp, CMem, IExp, Value, VarId};
use veriqec_sat::{Lit, SatResult, Solver, SolverConfig};

/// Error raised when an expression falls outside the encodable fragment.
///
/// The fragment is: boolean structure over boolean variables, XOR/affine
/// forms, and (in)equalities between *linear* integer expressions whose
/// variables are boolean indicators with small non-negative coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    /// Description of the offending construct.
    pub message: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression outside the SMT fragment: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// Result of a [`SmtContext::check`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckResult {
    /// Satisfiable; a model is available through [`SmtContext::model`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Resource budget exhausted.
    Unknown,
}

impl CheckResult {
    /// True for [`CheckResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == CheckResult::Sat
    }

    /// True for [`CheckResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == CheckResult::Unsat
    }
}

/// An incremental SMT-style solving context.
///
/// Wraps a [`veriqec_sat::Solver`], maps [`VarId`]s to SAT variables lazily,
/// and offers assertion of boolean expressions, affine GF(2) equations and
/// cardinality constraints. See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct SmtContext {
    solver: Solver,
    varmap: HashMap<VarId, veriqec_sat::Var>,
    tracked: Vec<VarId>,
    true_lit: Option<Lit>,
    /// The totalizers of hard weight constraints and capped comparators,
    /// one per input multiset (sorted literals), holding their outputs.
    totalizers: HashMap<Vec<Lit>, Vec<Lit>>,
    /// The tightest hard `Σ ≤ k` asserted over each input multiset.
    bounds: HashMap<Vec<Lit>, usize>,
    /// The parity rows asserted through [`SmtContext::assert_affine_eq`].
    basis: ParityBasis,
}

/// An echelon basis of hard parity rows. Each row is a form that is 0 in
/// every model, reduced against the rows before it; its lowest variable is
/// its pivot, so every other variable of the row lies above the pivot.
#[derive(Clone, Debug, Default)]
struct ParityBasis {
    /// `rows[v]` is the row whose pivot is `v`, and zero for a non-pivot.
    rows: Vec<Affine>,
    /// The pivot variables as one form: the mask of the word-level scans.
    pivots: Affine,
}

impl ParityBasis {
    /// `a` with every pivot eliminated: equal to `a` in every model of the
    /// rows. Each XOR clears the lowest pivot left in the form and toggles
    /// only variables above it, so the loop ends after at most one XOR per
    /// row.
    fn reduce(&self, mut a: Affine) -> Affine {
        while let Some(v) = a.first_var_masked(&self.pivots) {
            a ^= &self.rows[v.0 as usize];
        }
        a
    }

    /// Records `row = 0`. A row the basis already spans adds nothing; an
    /// inconsistent one is left to the clauses, which refute it.
    fn record(&mut self, row: Affine) {
        let row = self.reduce(row);
        let Some(pivot) = row.vars().next() else {
            return;
        };
        let p = pivot.0 as usize;
        if self.rows.len() <= p {
            self.rows.resize(p + 1, Affine::zero());
        }
        self.pivots.xor_var(pivot);
        self.rows[p] = row;
    }
}

/// The sorted literals of `lits`: the key under which a hard weight bound
/// and its totalizer are shared.
fn multiset(lits: &[Lit]) -> Vec<Lit> {
    let mut key = lits.to_vec();
    key.sort_unstable();
    key
}

impl Default for SmtContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SmtContext {
    /// Creates a context with the default solver configuration.
    pub fn new() -> Self {
        SmtContext::with_config(SolverConfig::default())
    }

    /// Creates a context with an explicit solver configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        SmtContext {
            solver: Solver::with_config(config),
            varmap: HashMap::new(),
            tracked: Vec::new(),
            true_lit: None,
            totalizers: HashMap::new(),
            bounds: HashMap::new(),
            basis: ParityBasis::default(),
        }
    }

    /// Installs a cooperative [`veriqec_sat::Stop`] on the underlying
    /// solver: once it is raised, an in-flight [`SmtContext::check`] aborts
    /// at the next conflict/decision boundary with [`CheckResult::Unknown`].
    /// The engine uses it to stop the losing racers once one has a verdict,
    /// and the daemon to enforce request deadlines.
    pub fn set_stop(&mut self, stop: veriqec_sat::Stop) {
        self.solver.set_stop(stop);
    }

    /// Joins a learnt-clause pool shared with other contexts that encoded
    /// the same formula in the same order (see
    /// [`veriqec_sat::Solver::join_pool`]). Join once the encoding is
    /// complete; clauses added afterwards would break that precondition.
    pub fn join_pool(&mut self, pool: std::sync::Arc<veriqec_sat::ClausePool>) {
        self.solver.join_pool(pool);
    }

    /// The SAT literal representing the constant `true`.
    pub fn lit_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = self.solver.new_var().positive();
        self.solver.add_clause([l]);
        self.true_lit = Some(l);
        l
    }

    /// The SAT literal of a (boolean) classical variable, allocated on first use.
    pub fn lit_of(&mut self, v: VarId) -> Lit {
        if let Some(&sv) = self.varmap.get(&v) {
            return sv.positive();
        }
        let sv = self.solver.new_var();
        self.varmap.insert(v, sv);
        self.tracked.push(v);
        sv.positive()
    }

    /// A fresh auxiliary literal (not tied to any classical variable).
    pub fn fresh_lit(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// Adds a raw clause of SAT literals.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    // ---------------------------------------------------------------- Tseitin

    fn tseitin_not(&mut self, a: Lit) -> Lit {
        !a
    }

    fn tseitin_and(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.fresh_lit();
        self.solver.add_clause([!x, a]);
        self.solver.add_clause([!x, b]);
        self.solver.add_clause([x, !a, !b]);
        x
    }

    fn tseitin_or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.tseitin_and(!a, !b)
    }

    fn tseitin_xor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.fresh_lit();
        self.solver.add_clause([!x, a, b]);
        self.solver.add_clause([!x, !a, !b]);
        self.solver.add_clause([x, !a, b]);
        self.solver.add_clause([x, a, !b]);
        x
    }

    /// Reifies a conjunction of literals into a single literal.
    pub fn reify_conj(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => self.lit_true(),
            [l] => *l,
            _ => {
                let x = self.fresh_lit();
                for &l in lits {
                    self.solver.add_clause([!x, l]);
                }
                let mut clause: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                clause.push(x);
                self.solver.add_clause(clause);
                x
            }
        }
    }

    /// Reifies a disjunction of literals into a single literal.
    pub fn reify_disj(&mut self, lits: &[Lit]) -> Lit {
        let neg: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.reify_conj(&neg)
    }

    // ----------------------------------------------------------- affine / XOR

    /// Reifies an XOR-affine form into a literal, unless the parity rows
    /// asserted so far decide it.
    ///
    /// The form is first reduced against the echelon basis of the rows
    /// asserted through [`SmtContext::assert_affine_eq`]. When that leaves
    /// a constant `c`, the form equals `c` in every model: no XOR chain is
    /// emitted, and `Err(c)` carries that value in place of a literal. Any
    /// other form is encoded as given, not in reduced form, exactly as it
    /// would be without the rows. Rows asserted later leave an earlier
    /// reification alone.
    ///
    /// The solver also gets the chain's row (see
    /// [`veriqec_sat::Solver::add_xor`]): `a`'s variables plus the output
    /// literal's. A one-variable form's row cancels to nothing.
    pub fn reify_affine(&mut self, a: &Affine) -> Result<Lit, bool> {
        let reduced = self.basis.reduce(a.clone());
        if reduced.is_constant() {
            return Err(reduced.constant_part());
        }
        let l = self.xor_chain(a);
        // l ≡ Σ vars ⊕ c, so Σ vars ⊕ var(l) = c ⊕ [l is negative].
        let mut row = self.row_vars(a);
        row.push(l.var());
        self.solver
            .add_xor(&row, a.constant_part() ^ !l.is_positive());
        Ok(l)
    }

    /// The SAT variables of `a`'s variables, which [`SmtContext::xor_chain`]
    /// has allocated, in its order.
    fn row_vars(&mut self, a: &Affine) -> Vec<veriqec_sat::Var> {
        a.vars().map(|v| self.lit_of(v).var()).collect()
    }

    /// The Tseitin encoding of an XOR-affine form. `Affine::vars` scans the
    /// packed word representation directly, so the XOR chain is emitted
    /// straight off set-bit positions — no intermediate set walk or
    /// collection.
    fn xor_chain(&mut self, a: &Affine) -> Lit {
        let mut acc: Option<Lit> = None;
        for v in a.vars() {
            let l = self.lit_of(v);
            acc = Some(match acc {
                None => l,
                Some(p) => self.tseitin_xor(p, l),
            });
        }
        let base = match acc {
            Some(l) => l,
            None => !self.lit_true(), // constant-0 form so far
        };
        if a.constant_part() {
            !base
        } else {
            base
        }
    }

    /// Asserts `affine = value` and records the row in the basis that
    /// [`SmtContext::reify_affine`] reduces against. The XOR chain and its
    /// unit clause are emitted even for a row the basis already spans, so
    /// an inconsistent row still makes the formula unsatisfiable. The
    /// solver also gets the row, for Gauss–Jordan propagation.
    pub fn assert_affine_eq(&mut self, a: &Affine, value: bool) {
        let l = self.xor_chain(a);
        self.solver.add_clause([if value { l } else { !l }]);
        let vars = self.row_vars(a);
        self.solver.add_xor(&vars, value ^ a.constant_part());
        let mut row = a.clone();
        row.xor_const(value);
        self.basis.record(row);
    }

    // ----------------------------------------------------------- cardinality

    /// Builds a reusable cardinality constraint over `lits`: the totalizer
    /// is encoded once and the returned handle turns weight bounds into
    /// *assumption literals*, so one incremental context can be queried
    /// under many different bounds without re-encoding (the engine layer's
    /// weight sweeps are built on this). The handle's totalizer is full and
    /// private: a later query may ask it any bound.
    pub fn cardinality(&mut self, lits: &[Lit]) -> CardinalityHandle {
        self.linked_cardinality(&[lits.to_vec()])
    }

    /// Like [`SmtContext::cardinality`], over several orders of the same
    /// inputs: one full totalizer per order, each output tied to the first
    /// tree's output of the same count (`o_A[i] ↔ o_B[i]`). A bound assumed
    /// on the handle then binds every tree at once, and what the solver
    /// learns about a count in one tree carries over to the others. Where
    /// a tree groups its inputs matters to the search: see DESIGN.md on
    /// how a detection session counts.
    ///
    /// # Panics
    ///
    /// Panics when `orders` is empty or two orders differ in length.
    pub fn linked_cardinality(&mut self, orders: &[Vec<Lit>]) -> CardinalityHandle {
        let (first, rest) = orders.split_first().expect("at least one order");
        let outputs = self.totalizer(first, first.len());
        for order in rest {
            assert_eq!(order.len(), first.len(), "orders of the same inputs");
            for (&a, b) in outputs.iter().zip(self.totalizer(order, order.len())) {
                self.solver.add_clause([!a, b]);
                self.solver.add_clause([a, !b]);
            }
        }
        let lit_false = !self.lit_true();
        CardinalityHandle { outputs, lit_false }
    }

    /// Builds a totalizer over `lits` with min(n, `cap`) outputs: `o[i]` is
    /// true iff at least `i+1` of the inputs are true. Every node stops at
    /// `cap` outputs (the k-simplified totalizer of Büttner & Rintanen,
    /// ICAPS 2005) and keeps both clause directions, so each output stays
    /// functionally determined by the inputs. `cap = n` is the full
    /// totalizer of Bailleux & Boufkhad (CP 2003).
    fn totalizer(&mut self, lits: &[Lit], cap: usize) -> Vec<Lit> {
        match lits.len() {
            _ if cap == 0 => Vec::new(),
            0 => Vec::new(),
            1 => vec![lits[0]],
            n => {
                let (l, r) = lits.split_at(n / 2);
                let a = self.totalizer(l, cap);
                let b = self.totalizer(r, cap);
                let (p, q) = (a.len(), b.len());
                let m = (p + q).min(cap);
                let out: Vec<Lit> = (0..m).map(|_| self.fresh_lit()).collect();
                // Forward: a_i ∧ b_j  →  out_{i+j}   (1-indexed counts; a_0/b_0 = true)
                for i in 0..=p {
                    for j in 0..=q {
                        if i + j == 0 || i + j > m {
                            continue;
                        }
                        let mut clause = Vec::with_capacity(3);
                        if i > 0 {
                            clause.push(!a[i - 1]);
                        }
                        if j > 0 {
                            clause.push(!b[j - 1]);
                        }
                        clause.push(out[i + j - 1]);
                        self.solver.add_clause(clause);
                    }
                }
                // Backward: out_{i+j+1} → a_{i+1} ∨ b_{j+1}   (a_{p+1}/b_{q+1} = false)
                for i in 0..=p {
                    for j in 0..=q {
                        if i + j + 1 > m {
                            continue;
                        }
                        let mut clause = Vec::with_capacity(3);
                        clause.push(!out[i + j]);
                        if i < p {
                            clause.push(a[i]);
                        }
                        if j < q {
                            clause.push(b[j]);
                        }
                        self.solver.add_clause(clause);
                    }
                }
                out
            }
        }
    }

    /// The first min(n, `cap`) outputs of this context's totalizer over the
    /// multiset of `lits`. Built in the caller's order unless one with at
    /// least that many outputs exists.
    fn shared_totalizer(&mut self, lits: &[Lit], cap: usize) -> Vec<Lit> {
        let want = cap.min(lits.len());
        let key = multiset(lits);
        if let Some(outputs) = self.totalizers.get(&key).filter(|o| o.len() >= want) {
            return outputs[..want].to_vec();
        }
        let outputs = self.totalizer(lits, cap);
        self.totalizers.insert(key, outputs.clone());
        outputs
    }

    /// Asserts `lo ≤ Σ lits ≤ hi` as hard clauses on the shared totalizer,
    /// capped at the last count the bounds read: hi + 1, or lo when hi is
    /// n. A `hi` below n is recorded as the multiset's bound (see
    /// [`SmtContext::assert_sum_le_sum`]).
    fn assert_weight_in(&mut self, lits: &[Lit], lo: i64, hi: i64) {
        let n = lits.len() as i64;
        let (lo, hi) = (lo.max(0), hi.min(n));
        if lo > hi {
            let f = !self.lit_true();
            self.solver.add_clause([f]);
            return;
        }
        if lo == 0 && hi == n {
            return; // trivially true: no totalizer needed
        }
        let cap = if hi < n { hi + 1 } else { lo };
        let outputs = self.shared_totalizer(lits, cap as usize);
        if lo > 0 {
            self.solver.add_clause([outputs[lo as usize - 1]]);
        }
        if hi < n {
            self.solver.add_clause([!outputs[hi as usize]]);
            let bound = self.bounds.entry(multiset(lits)).or_insert(hi as usize);
            *bound = (*bound).min(hi as usize);
        }
    }

    /// Asserts `Σ lits <= k`.
    pub fn assert_at_most(&mut self, lits: &[Lit], k: i64) {
        self.assert_weight_in(lits, 0, k);
    }

    /// Asserts `Σ lits >= k`.
    pub fn assert_at_least(&mut self, lits: &[Lit], k: i64) {
        self.assert_weight_in(lits, k, lits.len() as i64);
    }

    /// Asserts `Σ lits == k` (one shared totalizer for both directions).
    pub fn assert_exactly(&mut self, lits: &[Lit], k: i64) {
        self.assert_weight_in(lits, k, k);
    }

    /// Asserts `Σ a + offset <= Σ b` (the minimum-weight decoder condition
    /// `Σ corrections <= Σ errors` uses `offset == 0`).
    ///
    /// When this context already holds a hard `Σ b ≤ U` over exactly `b`'s
    /// multiset, `Σ b ≥ c` is false for every `c > U`, so neither side
    /// needs a count past `U − offset + 1`: both totalizers are capped
    /// there and shared. Otherwise both sides are full, as in
    /// [`SmtContext::reify_sum_le_sum`].
    pub fn assert_sum_le_sum(&mut self, a: &[Lit], b: &[Lit], offset: i64) {
        let l = match self.bounds.get(&multiset(b)).copied() {
            Some(u) => {
                let ta = self.shared_totalizer(a, (u as i64 - offset + 1).max(0) as usize);
                let tb = self.shared_totalizer(b, u + 1);
                self.compare_counts(&ta, &tb, offset)
            }
            None => self.reify_sum_le_sum(a, b, offset),
        };
        self.solver.add_clause([l]);
    }

    /// Reified form of `Σ a + offset <= Σ b`, over full totalizers.
    pub fn reify_sum_le_sum(&mut self, a: &[Lit], b: &[Lit], offset: i64) -> Lit {
        let ta = self.totalizer(a, a.len());
        let tb = self.totalizer(b, b.len());
        self.compare_counts(&ta, &tb, offset)
    }

    /// Reifies `Σa + offset <= Σb` from the two sides' totalizer outputs.
    /// Exact for full totalizers; a side capped below its input count makes
    /// it exact only under the hard bound that set the cap.
    fn compare_counts(&mut self, ta: &[Lit], tb: &[Lit], offset: i64) -> Lit {
        // Condition: for every count c >= 1:  (Σa >= c)  →  (Σb >= c + offset).
        // With totalizers: ta[c-1] → tb[c+offset-1]; out-of-range tb index:
        //  - c+offset <= 0: implication trivially true;
        //  - c+offset > |tb|: implication is ¬ta[c-1].
        let mut conj: Vec<Lit> = Vec::new();
        // Also when offset > 0 and a is empty: need Σb >= offset.
        if offset > 0 {
            if offset as usize > tb.len() {
                let f = !self.lit_true();
                conj.push(f);
            } else {
                conj.push(tb[offset as usize - 1]);
            }
        }
        for c in 1..=ta.len() as i64 {
            let rhs_idx = c + offset;
            if rhs_idx <= 0 {
                continue;
            }
            if rhs_idx as usize > tb.len() {
                conj.push(!ta[c as usize - 1]);
            } else {
                let implication = self.tseitin_or(!ta[c as usize - 1], tb[rhs_idx as usize - 1]);
                conj.push(implication);
            }
        }
        self.reify_conj(&conj)
    }

    // -------------------------------------------------------- BExp encoding

    /// Reifies an arbitrary boolean expression into a literal.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] for integer subexpressions outside the linear
    /// indicator fragment (products of variables, negative coefficients on
    /// both sides after normalization are handled; genuinely nonlinear terms
    /// are not).
    pub fn reify(&mut self, e: &BExp) -> Result<Lit, EncodeError> {
        match e {
            BExp::Const(true) => Ok(self.lit_true()),
            BExp::Const(false) => Ok(!self.lit_true()),
            BExp::Var(v) => Ok(self.lit_of(*v)),
            BExp::Not(a) => {
                let l = self.reify(a)?;
                Ok(self.tseitin_not(l))
            }
            BExp::And(a, b) => {
                let la = self.reify(a)?;
                let lb = self.reify(b)?;
                Ok(self.tseitin_and(la, lb))
            }
            BExp::Or(a, b) => {
                let la = self.reify(a)?;
                let lb = self.reify(b)?;
                Ok(self.tseitin_or(la, lb))
            }
            BExp::Implies(a, b) => {
                let la = self.reify(a)?;
                let lb = self.reify(b)?;
                Ok(self.tseitin_or(!la, lb))
            }
            BExp::Xor(a, b) => {
                let la = self.reify(a)?;
                let lb = self.reify(b)?;
                Ok(self.tseitin_xor(la, lb))
            }
            BExp::Le(a, b) => self.reify_linear_cmp(a, b),
            BExp::Eq(a, b) => {
                let le = self.reify_linear_cmp(a, b)?;
                let ge = self.reify_linear_cmp(b, a)?;
                Ok(self.tseitin_and(le, ge))
            }
        }
    }

    /// Reifies `a <= b` for linear integer expressions over boolean indicators.
    fn reify_linear_cmp(&mut self, a: &IExp, b: &IExp) -> Result<Lit, EncodeError> {
        let (lhs, rhs, offset) = self.linear_sides(a, b)?;
        Ok(self.reify_sum_le_sum(&lhs, &rhs, offset))
    }

    /// Normalizes `a <= b` to `Σ lhs + offset <= Σ rhs` over indicator
    /// literals, with every coefficient expanded in unary.
    fn linear_sides(
        &mut self,
        a: &IExp,
        b: &IExp,
    ) -> Result<(Vec<Lit>, Vec<Lit>, i64), EncodeError> {
        let (ta, ca) = a.linearize().ok_or_else(|| EncodeError {
            message: format!("nonlinear integer expression: {a}"),
        })?;
        let (tb, cb) = b.linearize().ok_or_else(|| EncodeError {
            message: format!("nonlinear integer expression: {b}"),
        })?;
        // Normalize: move negative-coefficient terms to the other side.
        let mut lhs: Vec<Lit> = Vec::new();
        let mut rhs: Vec<Lit> = Vec::new();
        let expand = |terms: &[(VarId, i64)],
                      pos_side: &mut Vec<Lit>,
                      neg_side: &mut Vec<Lit>,
                      me: &mut Self|
         -> Result<(), EncodeError> {
            for &(v, c) in terms {
                let lit = me.lit_of(v);
                let reps = c.unsigned_abs();
                if reps > 64 {
                    return Err(EncodeError {
                        message: format!("coefficient {c} too large for unary encoding"),
                    });
                }
                for _ in 0..reps {
                    if c > 0 {
                        pos_side.push(lit);
                    } else {
                        neg_side.push(lit);
                    }
                }
            }
            Ok(())
        };
        expand(&ta, &mut lhs, &mut rhs, self)?;
        expand(&tb, &mut rhs, &mut lhs, self)?;
        // lhs + ca <= rhs + cb   ⇔   Σ lhs + (ca - cb) <= Σ rhs
        Ok((lhs, rhs, ca - cb))
    }

    /// Asserts a boolean expression.
    ///
    /// A top-level `Le` is a hard weight constraint: `Σ lits <= k` goes
    /// through [`SmtContext::assert_at_most`] and `Σ a + offset <= Σ b`
    /// through [`SmtContext::assert_sum_le_sum`], so both can be capped and
    /// shared. Everything else is reified and asserted.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] from [`SmtContext::reify`].
    pub fn assert(&mut self, e: &BExp) -> Result<(), EncodeError> {
        if let BExp::Le(a, b) = e {
            let (lhs, rhs, offset) = self.linear_sides(a, b)?;
            if rhs.is_empty() {
                self.assert_at_most(&lhs, -offset);
            } else {
                self.assert_sum_le_sum(&lhs, &rhs, offset);
            }
            return Ok(());
        }
        let l = self.reify(e)?;
        self.solver.add_clause([l]);
        Ok(())
    }

    /// Asserts the negation of a boolean expression.
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] from [`SmtContext::reify`].
    pub fn assert_not(&mut self, e: &BExp) -> Result<(), EncodeError> {
        let l = self.reify(e)?;
        self.solver.add_clause([!l]);
        Ok(())
    }

    // ---------------------------------------------------------------- solving

    /// Checks satisfiability under optional assumption literals.
    pub fn check(&mut self, assumptions: &[Lit]) -> CheckResult {
        let _span = veriqec_obs::span("smt", "check");
        match self.solver.solve(assumptions) {
            SatResult::Sat => CheckResult::Sat,
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Unknown => CheckResult::Unknown,
        }
    }

    /// Why the last [`SmtContext::check`] returned
    /// [`CheckResult::Unknown`] (see [`veriqec_sat::UnknownCause`]).
    pub fn unknown_cause(&self) -> Option<veriqec_sat::UnknownCause> {
        self.solver.unknown_cause()
    }

    /// Extracts the model restricted to classical variables seen so far.
    ///
    /// Call only after a [`CheckResult::Sat`] result; variables the solver
    /// never saw default to `false`.
    pub fn model(&self) -> CMem {
        let mut m = CMem::new();
        for &v in &self.tracked {
            let sv = self.varmap[&v];
            let val = self.solver.model_value(sv.positive()).unwrap_or(false);
            m.set(v, Value::Bool(val));
        }
        m
    }

    /// Number of SAT variables allocated (classical + auxiliary).
    pub fn num_sat_vars(&self) -> usize {
        self.solver.num_vars()
    }

    // ---------------------------------------------------------------- export

    /// Exports the assembled clause set as a model-equivalent CNF (see
    /// [`veriqec_sat::Solver::export_cnf`]), for DIMACS artifacts and for
    /// the tests that pin an encoding clause for clause. Every auxiliary
    /// variable this context introduces (Tseitin definitions, totalizer
    /// outputs, capped or full) is functionally determined by the
    /// classical variables, so the exported CNF has exactly one model per
    /// satisfying assignment of the classical variables.
    pub fn export_cnf(&self) -> veriqec_sat::Cnf {
        let _span = veriqec_obs::span("smt", "export_cnf");
        self.solver.export_cnf()
    }

    /// The full classical-variable → SAT-literal map, in first-use order
    /// (the variable map of an [`SmtContext::export_cnf`] export).
    pub fn var_map(&self) -> impl Iterator<Item = (VarId, Lit)> + '_ {
        self.tracked
            .iter()
            .map(|&v| (v, self.varmap[&v].positive()))
    }

    /// Number of clauses in the encoded formula: the solver's live original
    /// clauses, without the learnt ones a solve adds.
    pub fn num_clauses(&self) -> usize {
        self.solver.num_original_clauses()
    }

    /// Statistics of the underlying solver.
    pub fn solver_stats(&self) -> veriqec_sat::SolverStats {
        self.solver.stats()
    }
}

/// A reusable cardinality constraint built by [`SmtContext::cardinality`].
///
/// Holds the output literals of a totalizer encoded once over a fixed set of
/// inputs; weight bounds become *assumption literals* instead of baked-in
/// clauses, so the same incremental context answers `Σ ≤ k` for every `k`
/// without re-encoding. `None` means the bound is trivially true and needs
/// no assumption at all.
#[derive(Clone, Debug)]
pub struct CardinalityHandle {
    /// `outputs[i]` is true iff at least `i+1` inputs are true.
    outputs: Vec<Lit>,
    /// The context's constant-false literal, used for infeasible bounds.
    lit_false: Lit,
}

impl CardinalityHandle {
    /// Number of input literals the totalizer counts.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when the totalizer counts no inputs.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The raw totalizer output literals (`outputs[i]` ⇔ `Σ ≥ i+1`).
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Assumption literal for `Σ inputs ≤ k`; `None` when trivially true.
    pub fn at_most(&self, k: i64) -> Option<Lit> {
        if k < 0 {
            Some(self.lit_false)
        } else if k as usize >= self.outputs.len() {
            None
        } else {
            Some(!self.outputs[k as usize])
        }
    }

    /// Assumption literal for `Σ inputs ≥ k`; `None` when trivially true.
    pub fn at_least(&self, k: i64) -> Option<Lit> {
        if k <= 0 {
            None
        } else if k as usize > self.outputs.len() {
            Some(self.lit_false)
        } else {
            Some(self.outputs[k as usize - 1])
        }
    }

    /// Assumption literals for `Σ inputs == k` (zero, one or two literals).
    pub fn exactly(&self, k: i64) -> Vec<Lit> {
        [self.at_most(k), self.at_least(k)]
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{VarRole, VarTable};

    fn vars(n: usize) -> (VarTable, Vec<VarId>) {
        let mut vt = VarTable::new();
        let vs = (0..n)
            .map(|i| vt.fresh_indexed("x", i, VarRole::Aux))
            .collect();
        (vt, vs)
    }

    #[test]
    fn at_most_k_counts() {
        for k in 0..=5i64 {
            let (_, vs) = vars(5);
            let mut ctx = SmtContext::new();
            let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
            ctx.assert_at_most(&lits, k);
            ctx.assert_at_least(&lits, k); // force == k
            assert!(ctx.check(&[]).is_sat(), "k={k}");
            let m = ctx.model();
            let count: i64 = vs.iter().map(|&v| m.get(v).as_int()).sum();
            assert_eq!(count, k);
        }
    }

    #[test]
    fn cardinality_handle_bounds_as_assumptions() {
        // One totalizer, many bounds: the same context answers every k.
        let (_, vs) = vars(5);
        let mut ctx = SmtContext::new();
        let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
        let h = ctx.cardinality(&lits);
        assert_eq!(h.len(), 5);
        // Force exactly 3 inputs true.
        for (i, &l) in lits.iter().enumerate() {
            ctx.add_clause([if i < 3 { l } else { !l }]);
        }
        for k in 0..=6i64 {
            let assumps: Vec<Lit> = h.at_most(k).into_iter().collect();
            let expect_sat = k >= 3;
            assert_eq!(ctx.check(&assumps).is_sat(), expect_sat, "at_most {k}");
            let assumps: Vec<Lit> = h.at_least(k).into_iter().collect();
            let expect_sat = k <= 3;
            assert_eq!(ctx.check(&assumps).is_sat(), expect_sat, "at_least {k}");
            assert_eq!(ctx.check(&h.exactly(k)).is_sat(), k == 3, "exactly {k}");
        }
        // Infeasible bounds produce the constant-false assumption.
        assert!(ctx.check(&h.exactly(-1)).is_unsat());
        assert!(ctx.check(&h.exactly(6)).is_unsat());
    }

    #[test]
    fn at_least_more_than_n_is_unsat() {
        let (_, vs) = vars(3);
        let mut ctx = SmtContext::new();
        let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
        ctx.assert_at_least(&lits, 4);
        assert!(ctx.check(&[]).is_unsat());
    }

    #[test]
    fn weight_le_bexp_roundtrip() {
        let (_, vs) = vars(6);
        let mut ctx = SmtContext::new();
        ctx.assert(&BExp::weight_le(vs.iter().copied(), 2)).unwrap();
        ctx.assert(&BExp::var(vs[0])).unwrap();
        ctx.assert(&BExp::var(vs[1])).unwrap();
        ctx.assert(&BExp::var(vs[2])).unwrap();
        assert!(ctx.check(&[]).is_unsat());
    }

    #[test]
    fn sum_le_sum_decoder_condition() {
        // Σ c <= Σ e with e having exactly one 1 forces Σ c <= 1.
        let (_, all) = vars(6);
        let (c, e) = all.split_at(3);
        let mut ctx = SmtContext::new();
        let cl: Vec<Lit> = c.iter().map(|&v| ctx.lit_of(v)).collect();
        let el: Vec<Lit> = e.iter().map(|&v| ctx.lit_of(v)).collect();
        ctx.assert_exactly(&el, 1);
        ctx.assert_sum_le_sum(&cl, &el, 0);
        ctx.assert_at_least(&cl, 2);
        assert!(ctx.check(&[]).is_unsat());
    }

    #[test]
    fn affine_equations_solve_parity() {
        let (_, vs) = vars(3);
        let mut ctx = SmtContext::new();
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1: odd cycle, unsat.
        let mk = |a: VarId, b: VarId| Affine::var(a) ^ Affine::var(b);
        ctx.assert_affine_eq(&mk(vs[0], vs[1]), true);
        ctx.assert_affine_eq(&mk(vs[1], vs[2]), true);
        ctx.assert_affine_eq(&mk(vs[0], vs[2]), true);
        assert!(ctx.check(&[]).is_unsat());
    }

    #[test]
    fn reified_comparison_under_negation() {
        // ¬(Σ x <= 1) with 3 vars means Σ x >= 2.
        let (_, vs) = vars(3);
        let mut ctx = SmtContext::new();
        ctx.assert_not(&BExp::weight_le(vs.iter().copied(), 1))
            .unwrap();
        assert!(ctx.check(&[]).is_sat());
        let m = ctx.model();
        let count: i64 = vs.iter().map(|&v| m.get(v).as_int()).sum();
        assert!(count >= 2, "count={count}");
    }

    #[test]
    fn eq_between_sums() {
        let (_, all) = vars(4);
        let (a, b) = all.split_at(2);
        let mut ctx = SmtContext::new();
        let ea = IExp::sum_vars(a.iter().copied());
        let eb = IExp::sum_vars(b.iter().copied());
        ctx.assert(&BExp::eq(ea, eb)).unwrap();
        ctx.assert(&BExp::var(a[0])).unwrap();
        ctx.assert(&BExp::var(a[1])).unwrap();
        assert!(ctx.check(&[]).is_sat());
        let m = ctx.model();
        assert!(m.get(b[0]).as_bool() && m.get(b[1]).as_bool());
    }

    #[test]
    fn nonlinear_is_rejected() {
        let (_, vs) = vars(2);
        let mut ctx = SmtContext::new();
        let prod = IExp::Mul(
            std::sync::Arc::new(IExp::var(vs[0])),
            std::sync::Arc::new(IExp::var(vs[1])),
        );
        let e = BExp::eq(prod, IExp::constant(1));
        assert!(ctx.assert(&e).is_err());
    }

    /// Models of the exported CNF, by exhaustive search over every
    /// variable in order, cutting a branch once some clause is false under
    /// the values assigned so far.
    pub(super) fn exported_models(ctx: &SmtContext) -> usize {
        fn count(clauses: &[Vec<Lit>], num_vars: usize, prefix: &mut Vec<bool>) -> usize {
            let set = prefix.len();
            let falsified = clauses.iter().any(|cl| {
                cl.iter()
                    .all(|l| l.var().index() < set && prefix[l.var().index()] != l.is_positive())
            });
            if falsified {
                return 0;
            }
            if set == num_vars {
                return 1;
            }
            [false, true]
                .into_iter()
                .map(|b| {
                    prefix.push(b);
                    let models = count(clauses, num_vars, prefix);
                    prefix.pop();
                    models
                })
                .sum()
        }
        let cnf = ctx.export_cnf();
        count(&cnf.clauses, cnf.num_vars, &mut Vec::new())
    }

    #[test]
    fn export_cnf_has_one_model_per_classical_assignment() {
        // Every auxiliary variable (Tseitin definitions, totalizer outputs)
        // is functionally determined by the classical variables, so the
        // exported CNF must have exactly one model per satisfying classical
        // assignment. Σx ≤ 2 over 4 vars has C(4,0) + C(4,1) + C(4,2) = 11
        // of them, through a handle's full totalizer and through the hard
        // bound's capped one alike, and through two linked full ones.
        for (hard, orders) in [(false, 1), (false, 2), (true, 1)] {
            let (_, vs) = vars(4);
            let mut ctx = SmtContext::new();
            let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
            if hard {
                ctx.assert_at_most(&lits, 2);
            } else {
                let reversed = lits.iter().rev().copied().collect();
                let h = ctx.linked_cardinality(&[lits.clone(), reversed][..orders]);
                if let Some(l) = h.at_most(2) {
                    ctx.add_clause([l]);
                }
            }
            assert_eq!(exported_models(&ctx), 11, "hard: {hard}, orders: {orders}");
            // And the indicator map points at the right literals.
            let map: Vec<(VarId, Lit)> = ctx.var_map().collect();
            assert_eq!(map, vs.iter().copied().zip(lits).collect::<Vec<_>>());
        }
    }

    #[test]
    fn linked_trees_answer_every_bound_as_one() {
        // Three orders of five inputs, exactly 3 of them true: the linked
        // handle answers every bound as a single tree would.
        let (_, vs) = vars(5);
        let mut ctx = SmtContext::new();
        let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
        let orders: Vec<Vec<Lit>> = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [0, 2, 4, 1, 3]]
            .iter()
            .map(|o| o.iter().map(|&i| lits[i]).collect())
            .collect();
        let h = ctx.linked_cardinality(&orders);
        assert_eq!(h.len(), 5);
        for (i, &l) in lits.iter().enumerate() {
            ctx.add_clause([if [1, 3, 4].contains(&i) { l } else { !l }]);
        }
        for k in 0..=5i64 {
            assert_eq!(ctx.check(&h.exactly(k)).is_sat(), k == 3, "exactly {k}");
        }
    }

    #[test]
    fn capped_comparator_keeps_one_model_per_classical_assignment() {
        // Σb ≤ 1, then Σa ≤ Σb capped at 2 outputs a side: the exported CNF
        // has one model per assignment of a and b that satisfies both.
        let (_, all) = vars(6);
        let (a, b) = all.split_at(3);
        let mut ctx = SmtContext::new();
        let al: Vec<Lit> = a.iter().map(|&v| ctx.lit_of(v)).collect();
        let bl: Vec<Lit> = b.iter().map(|&v| ctx.lit_of(v)).collect();
        ctx.assert_at_most(&bl, 1);
        ctx.assert_sum_le_sum(&al, &bl, 0);
        let expected = (0u32..1 << 6)
            .filter(|bits| {
                let (sa, sb) = ((bits & 0b111).count_ones(), (bits >> 3).count_ones());
                sb <= 1 && sa <= sb
            })
            .count();
        assert_eq!(expected, 13);
        assert_eq!(exported_models(&ctx), expected);
    }

    #[test]
    fn comparator_without_a_bound_stays_full() {
        // Nothing bounds e, so Σc ≤ Σe over 6 + 6 literals must count both
        // sides to 6: all twelve true is a model (a comparator capped by a
        // guess would refute it), and five of e against six of c is not.
        for e_true in [6, 5] {
            let (_, all) = vars(12);
            let (c, e) = all.split_at(6);
            let mut ctx = SmtContext::new();
            let cl: Vec<Lit> = c.iter().map(|&v| ctx.lit_of(v)).collect();
            let el: Vec<Lit> = e.iter().map(|&v| ctx.lit_of(v)).collect();
            ctx.assert_sum_le_sum(&cl, &el, 0);
            for &l in &cl {
                ctx.add_clause([l]);
            }
            for (i, &l) in el.iter().enumerate() {
                ctx.add_clause([if i < e_true { l } else { !l }]);
            }
            assert_eq!(ctx.check(&[]).is_sat(), e_true == 6, "{e_true} of e");
        }
    }

    #[test]
    fn comparators_share_the_bounded_totalizer() {
        // Σe ≤ 1 builds one totalizer over e, capped at 2 outputs. Each
        // Σc ≤ Σe after it (e in any order) reuses that totalizer and adds
        // only its own side: a totalizer of the same shape over c, two
        // implications and their conjunction.
        let (_, all) = vars(18);
        let (e, cs) = all.split_at(6);
        let mut ctx = SmtContext::new();
        let el: Vec<Lit> = e.iter().map(|&v| ctx.lit_of(v)).collect();
        let before_bound = ctx.num_sat_vars();
        ctx.assert_at_most(&el, 1);
        let e_side = ctx.num_sat_vars() - before_bound;
        let reversed: Vec<Lit> = el.iter().rev().copied().collect();
        for c in cs.chunks(6) {
            let cl: Vec<Lit> = c.iter().map(|&v| ctx.lit_of(v)).collect();
            let before = ctx.num_sat_vars();
            ctx.assert_sum_le_sum(&cl, &reversed, 0);
            assert_eq!(ctx.num_sat_vars() - before, e_side + 3);
        }
    }

    #[test]
    fn model_respects_implications() {
        let (_, vs) = vars(2);
        let mut ctx = SmtContext::new();
        ctx.assert(&BExp::implies(BExp::var(vs[0]), BExp::var(vs[1])))
            .unwrap();
        ctx.assert(&BExp::var(vs[0])).unwrap();
        assert!(ctx.check(&[]).is_sat());
        assert!(ctx.model().get(vs[1]).as_bool());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use veriqec_cexpr::{VarRole, VarTable};

    fn vars(n: usize) -> Vec<VarId> {
        let mut vt = VarTable::new();
        (0..n)
            .map(|i| vt.fresh_indexed("x", i, VarRole::Aux))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn totalizer_counts_exactly(
            bits in proptest::collection::vec(any::<bool>(), 1..8),
            cap_seed in 0usize..64,
        ) {
            // Force each input to a constant and read out the totalizer,
            // capped anywhere in 0..=n+1.
            let cap = cap_seed % (bits.len() + 2);
            let vs = vars(bits.len());
            let mut ctx = SmtContext::new();
            let lits: Vec<Lit> = vs.iter().map(|&v| ctx.lit_of(v)).collect();
            let outs = ctx.totalizer(&lits, cap);
            prop_assert_eq!(outs.len(), bits.len().min(cap));
            for (l, &b) in lits.iter().zip(&bits) {
                ctx.add_clause([if b { *l } else { !*l }]);
            }
            prop_assert!(ctx.check(&[]).is_sat());
            let count = bits.iter().filter(|&&b| b).count();
            for (i, &o) in outs.iter().enumerate() {
                // outs[i] <=> at least i+1 inputs true
                let expected = count > i;
                let mut probe = ctx.clone();
                probe.add_clause([if expected { o } else { !o }]);
                prop_assert!(probe.check(&[]).is_sat(), "totalizer bit {i}");
                let mut refute = ctx.clone();
                refute.add_clause([if expected { !o } else { o }]);
                prop_assert!(refute.check(&[]).is_unsat(), "totalizer bit {i} refute");
            }
        }

        #[test]
        fn sum_le_sum_matches_arithmetic(
            a_bits in proptest::collection::vec(any::<bool>(), 1..6),
            b_bits in proptest::collection::vec(any::<bool>(), 1..6),
            offset in -3i64..4,
        ) {
            let vs = vars(a_bits.len() + b_bits.len());
            let (av, bv) = vs.split_at(a_bits.len());
            let mut ctx = SmtContext::new();
            let al: Vec<Lit> = av.iter().map(|&v| ctx.lit_of(v)).collect();
            let bl: Vec<Lit> = bv.iter().map(|&v| ctx.lit_of(v)).collect();
            let cmp = ctx.reify_sum_le_sum(&al, &bl, offset);
            for (l, &bit) in al.iter().zip(&a_bits).chain(bl.iter().zip(&b_bits)) {
                ctx.add_clause([if bit { *l } else { !*l }]);
            }
            let sa = a_bits.iter().filter(|&&x| x).count() as i64;
            let sb = b_bits.iter().filter(|&&x| x).count() as i64;
            let expected = sa + offset <= sb;
            ctx.add_clause([if expected { cmp } else { !cmp }]);
            prop_assert!(ctx.check(&[]).is_sat());
            // And the negation must be refuted.
            let mut ctx2 = SmtContext::new();
            let al: Vec<Lit> = av.iter().map(|&v| ctx2.lit_of(v)).collect();
            let bl: Vec<Lit> = bv.iter().map(|&v| ctx2.lit_of(v)).collect();
            let cmp = ctx2.reify_sum_le_sum(&al, &bl, offset);
            for (l, &bit) in al.iter().zip(&a_bits).chain(bl.iter().zip(&b_bits)) {
                ctx2.add_clause([if bit { *l } else { !*l }]);
            }
            ctx2.add_clause([if expected { !cmp } else { cmp }]);
            prop_assert!(ctx2.check(&[]).is_unsat());
        }

        #[test]
        fn sum_le_sum_under_a_bound_matches_arithmetic(
            a_bits in proptest::collection::vec(any::<bool>(), 1..7),
            b_bits in proptest::collection::vec(any::<bool>(), 1..7),
            u in 0i64..7,
            offset in -2i64..3,
        ) {
            // A hard Σb ≤ U (over b in reverse order) and Σa + offset ≤ Σb,
            // under fixed inputs: SAT iff both hold. Asserted bound first,
            // the comparator is capped; bound last, it stays full.
            let sa = a_bits.iter().filter(|&&x| x).count() as i64;
            let sb = b_bits.iter().filter(|&&x| x).count() as i64;
            let expected = sb <= u && sa + offset <= sb;
            for bound_first in [true, false] {
                let vs = vars(a_bits.len() + b_bits.len());
                let (av, bv) = vs.split_at(a_bits.len());
                let mut ctx = SmtContext::new();
                let al: Vec<Lit> = av.iter().map(|&v| ctx.lit_of(v)).collect();
                let bl: Vec<Lit> = bv.iter().map(|&v| ctx.lit_of(v)).collect();
                let reversed: Vec<Lit> = bl.iter().rev().copied().collect();
                if bound_first {
                    ctx.assert_at_most(&reversed, u);
                }
                ctx.assert_sum_le_sum(&al, &bl, offset);
                if !bound_first {
                    ctx.assert_at_most(&reversed, u);
                }
                for (l, &bit) in al.iter().zip(&a_bits).chain(bl.iter().zip(&b_bits)) {
                    ctx.add_clause([if bit { *l } else { !*l }]);
                }
                prop_assert!(
                    ctx.check(&[]).is_sat() == expected,
                    "bound first: {bound_first}, expected sat: {expected}"
                );
            }
        }

        #[test]
        fn parity_basis_decides_exactly_the_forms_the_rows_fix(
            n in 1usize..9,
            ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        ) {
            // Parity rows go in through `assert_affine_eq`; unit clauses and
            // XORs asserted as a `BExp` constrain the models too, but must
            // not enter the basis. A form reified along the way (a sum of
            // rows, sometimes plus one variable) comes back constant
            // exactly when it is constant on every solution of the rows
            // asserted before it, and the exported CNF keeps one model per
            // solution of everything asserted.
            let vs = vars(n);
            let mut ctx = SmtContext::new();
            for &v in &vs {
                ctx.lit_of(v); // SAT variable i is classical variable i
            }
            let form = |mask: u32, c: bool| {
                let mut a = Affine::constant(c);
                for (i, &v) in vs.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        a.xor_var(v);
                    }
                }
                a
            };
            let parity = |mask: u32, x: u32| (mask & x).count_ones() % 2 == 1;
            let (mut rows, mut units, mut xors) = (Vec::new(), Vec::new(), Vec::new());
            for (kind, a, b, bit) in ops {
                let (i, j) = (a as usize % n, b as usize % n);
                match kind {
                    0 => {
                        let mask = u32::from(a) & ((1 << n) - 1);
                        ctx.assert_affine_eq(&form(mask, false), bit);
                        rows.push((mask, bit));
                    }
                    1 => {
                        let l = ctx.lit_of(vs[i]);
                        ctx.add_clause([if bit { l } else { !l }]);
                        units.push((i, bit));
                    }
                    2 => {
                        let xor = BExp::xor(BExp::var(vs[i]), BExp::var(vs[j]));
                        if bit {
                            ctx.assert(&xor).unwrap();
                        } else {
                            ctx.assert_not(&xor).unwrap();
                        }
                        xors.push((i, j, bit));
                    }
                    _ => {
                        let (mut mask, mut c) = (0, bit);
                        for (r, &(m, rhs)) in rows.iter().enumerate() {
                            if b >> (r % 8) & 1 == 1 {
                                mask ^= m;
                                c ^= rhs;
                            }
                        }
                        if a & 1 == 1 {
                            mask ^= 1 << i;
                        }
                        let values: Vec<bool> = (0u32..1 << n)
                            .filter(|&x| rows.iter().all(|&(m, rhs)| parity(m, x) == rhs))
                            .map(|x| parity(mask, x) != c)
                            .collect();
                        let got = ctx.reify_affine(&form(mask, c));
                        match values.first() {
                            Some(&v0) if values.iter().all(|&v| v == v0) => {
                                prop_assert!(got == Err(v0), "mask {:b}: {:?}", mask, got);
                            }
                            Some(_) => prop_assert!(got.is_ok(), "mask {:b}: {:?}", mask, got),
                            None => {} // inconsistent rows: every form is vacuously fixed
                        }
                    }
                }
            }
            let solutions = (0u32..1 << n)
                .filter(|&x| {
                    rows.iter().all(|&(m, rhs)| parity(m, x) == rhs)
                        && units.iter().all(|&(i, bit)| (x >> i & 1 == 1) == bit)
                        && xors.iter().all(|&(i, j, bit)| ((x >> i ^ x >> j) & 1 == 1) == bit)
                })
                .count();
            prop_assert_eq!(tests::exported_models(&ctx), solutions);
        }

        #[test]
        fn bexp_encoding_matches_evaluation(
            bits in proptest::collection::vec(any::<bool>(), 4),
            k in 0i64..5,
        ) {
            // weight_le under a full assignment must match direct evaluation.
            use veriqec_cexpr::{BExp, CMem, Value};
            let vs = vars(4);
            let e = BExp::weight_le(vs.iter().copied(), k);
            let mut m = CMem::new();
            for (&v, &b) in vs.iter().zip(&bits) {
                m.set(v, Value::Bool(b));
            }
            let expected = e.eval(&m);
            let mut ctx = SmtContext::new();
            let l = ctx.reify(&e).unwrap();
            for (&v, &b) in vs.iter().zip(&bits) {
                let lv = ctx.lit_of(v);
                ctx.add_clause([if b { lv } else { !lv }]);
            }
            ctx.add_clause([if expected { l } else { !l }]);
            prop_assert!(ctx.check(&[]).is_sat());
        }
    }
}
