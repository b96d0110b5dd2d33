//! Case 3 of the VC reduction (§5.1, §5.2.2, Appendix C.2): non-Pauli errors
//! at fixed locations.
//!
//! A fixed `T`/`H` error turns some conjuncts of the weakest precondition
//! into Pauli-expression sums that anticommute with left-hand generators.
//! Following the paper's heuristic:
//!
//! 1. **Localize** (Step I): pick the first sum conjunct as the *pivot* and
//!    multiply every other sum conjunct by it — the shared non-Clifford local
//!    factor squares away, leaving plain Paulis (`conj(A)·conj(B) =
//!    conj(AB)`).
//! 2. **Eliminate** (Step II): drop the pivot using
//!    `(P ∧ Q) ∨ (¬P ∧ Q) = Q` for commuting `P`, `Q`: the entailment holds
//!    iff, for every parameter assignment, there are syndrome branches whose
//!    remaining (case-2) phase targets all vanish and which realize *both*
//!    signs of the pivot's phase.
//!
//! Because non-Pauli errors are verified at fixed locations (Table 4's `F`
//! column), syndromes and decoder outputs can be enumerated concretely: the
//! decoder is the exact minimum-weight lookup decoder.

use std::collections::HashSet;
use std::fmt;

use veriqec_cexpr::{CMem, Value, VarId};
use veriqec_pauli::{ExtPauli, StabilizerGroup, SymPauli};
use veriqec_prog::DecoderOracle;
use veriqec_wp::QecWpResult;

/// Why the heuristic could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NonPauliError {
    /// Localization left more than one independent sum conjunct.
    LocalizationFailed,
    /// A pivot does not square to the identity (not an involution).
    PivotNotInvolution,
    /// A pivot term anticommutes with a remaining conjunct, so the
    /// elimination identity does not apply.
    PivotNotCommuting,
    /// A plain conjunct's letters fall outside the left-hand group.
    NotInGroup {
        /// Conjunct index.
        index: usize,
    },
    /// Too many enumeration variables.
    TooLarge,
    /// The left-hand side is not a valid generating set.
    BadLhs,
    /// The fixed error sits on a qubit the code does not have.
    QubitOutOfRange {
        /// The error's qubit.
        qubit: usize,
        /// The code's qubit count.
        n: usize,
    },
    /// The weakest-precondition engine rejected the scenario.
    Wp(veriqec_wp::WpError),
}

impl fmt::Display for NonPauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonPauliError::LocalizationFailed => write!(f, "localization failed"),
            NonPauliError::PivotNotInvolution => write!(f, "pivot is not an involution"),
            NonPauliError::PivotNotCommuting => {
                write!(f, "pivot anticommutes with a remaining conjunct")
            }
            NonPauliError::NotInGroup { index } => {
                write!(f, "conjunct {index} outside the left-hand group")
            }
            NonPauliError::TooLarge => write!(f, "too many branch variables to enumerate"),
            NonPauliError::BadLhs => write!(f, "invalid left-hand generating set"),
            NonPauliError::QubitOutOfRange { qubit, n } => {
                write!(f, "qubit {qubit} out of range for a {n}-qubit code")
            }
            NonPauliError::Wp(e) => write!(f, "weakest precondition: {e}"),
        }
    }
}

impl std::error::Error for NonPauliError {}

/// Result of the fixed-error verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NonPauliOutcome {
    /// Entailment holds for every parameter assignment.
    Verified,
    /// A parameter assignment with no covering branch (pair) was found.
    Failed {
        /// The violating parameter assignment (e.g. the logical phase `b`).
        params: Vec<(VarId, bool)>,
    },
}

/// Verifies a fixed-location non-Pauli VC:
/// `⋀ lhs ⊨ ⋁_s wp-branches`, with decoder calls resolved by `oracle`
/// ([`DecoderOracle::apply`], as in the interpreters).
///
/// `params` are the free specification parameters (logical phases `b_i`) to
/// quantify over.
///
/// # Errors
///
/// See [`NonPauliError`].
///
/// # Panics
///
/// Panics when the oracle returns a different number of bits than a
/// decoder call has outputs.
pub fn verify_nonpauli<O: DecoderOracle>(
    lhs: &[SymPauli],
    wp: &QecWpResult,
    oracle: &O,
    params: &[VarId],
) -> Result<NonPauliOutcome, NonPauliError> {
    let group = StabilizerGroup::new(lhs.to_vec()).map_err(|_| NonPauliError::BadLhs)?;
    // A conjunct is "bad" when it cannot be decomposed over the LHS group:
    // either a genuine Pauli-expression sum (T-type error) or a plain Pauli
    // pushed outside the group (H-type Clifford error). Both anticommute
    // with some LHS generator (the group is maximal abelian).
    let is_bad = |c: &ExtPauli| match c.as_single() {
        None => true,
        Some(s) => group.decompose(s.pauli()).is_none(),
    };
    // ---- Step I: localization.
    let mut conjuncts: Vec<ExtPauli> = wp.pre.conjuncts.clone();
    let mut pivots: Vec<ExtPauli> = Vec::new();
    loop {
        let bad: Vec<usize> = conjuncts
            .iter()
            .enumerate()
            .filter(|(_, c)| is_bad(c))
            .map(|(i, _)| i)
            .collect();
        let Some(&pivot_idx) = bad.first() else {
            break;
        };
        let pivot = conjuncts.remove(pivot_idx);
        for &j in bad.iter().skip(1) {
            // Indices after removal shift down by one past pivot_idx.
            let jj = if j > pivot_idx { j - 1 } else { j };
            conjuncts[jj] = conjuncts[jj].mul_ext(&pivot);
        }
        // Recursive elimination: another round handles further independent
        // bad conjuncts; bail out if it does not converge.
        if pivots.len() >= 3 {
            return Err(NonPauliError::LocalizationFailed);
        }
        // Pivot must be an involution for the ± eigenspace split.
        let sq = pivot.mul_ext(&pivot);
        let is_identity = sq
            .as_single()
            .map(|s| s.pauli().is_identity_up_to_phase() && s.phase().is_constant())
            .unwrap_or(false);
        if !is_identity {
            return Err(NonPauliError::PivotNotInvolution);
        }
        pivots.push(pivot);
    }
    // Pivot terms must commute with all remaining conjuncts (condition of
    // (P∧Q)∨(¬P∧Q) = Q).
    for pivot in &pivots {
        for t in pivot.terms() {
            for c in &conjuncts {
                for ct in c.terms() {
                    if t.pauli().anticommutes_with(ct.pauli()) {
                        return Err(NonPauliError::PivotNotCommuting);
                    }
                }
            }
        }
    }

    // ---- Case-2 targets for the remaining plain conjuncts.
    let mut targets = Vec::new();
    for (index, c) in conjuncts.iter().enumerate() {
        let single = c.as_single().expect("all single after localization");
        let (_, product) = group
            .decompose(single.pauli())
            .ok_or(NonPauliError::NotInGroup { index })?;
        let mut target = single.phase().clone();
        target ^= product.phase();
        targets.push(target);
    }

    // ---- Branch enumeration.
    let s_vars = &wp.pre.or_vars;
    if s_vars.len() + params.len() > 24 {
        return Err(NonPauliError::TooLarge);
    }
    // The pivots' phases: sums have one affine phase per term; the *branch
    // sign* of a pivot is its (shared) symbolic phase. All terms of a pivot
    // carry the same affine phase in our pipeline (they come from one
    // conjugated conjunct); take the first term's.
    let pivot_phases: Vec<_> = pivots
        .iter()
        .map(|p| p.terms()[0].phase().clone())
        .collect();

    for pbits in 0u32..1 << params.len() {
        let mut seen_patterns: HashSet<u32> = HashSet::new();
        for sbits in 0u32..1 << s_vars.len() {
            let mut m = CMem::new();
            for (i, &v) in params.iter().enumerate() {
                m.set(v, Value::Bool((pbits >> i) & 1 == 1));
            }
            for (i, &v) in s_vars.iter().enumerate() {
                m.set(v, Value::Bool((sbits >> i) & 1 == 1));
            }
            // Resolve decoder outputs.
            for call in &wp.decoder_calls {
                oracle.apply(call, &mut m);
            }
            // Branch validity: guards must vanish.
            if wp.pre.guards.iter().any(|g| g.eval(&m)) {
                continue;
            }
            // All remaining phase targets must vanish.
            if targets.iter().any(|t| t.eval(&m)) {
                continue;
            }
            let pattern: u32 = pivot_phases
                .iter()
                .enumerate()
                .map(|(i, ph)| (ph.eval(&m) as u32) << i)
                .sum();
            seen_patterns.insert(pattern);
        }
        // Need every pivot sign pattern realized (2^p patterns); with no
        // pivots this means "at least one valid branch".
        let needed = 1u32 << pivots.len();
        if seen_patterns.len() != needed as usize {
            return Ok(NonPauliOutcome::Failed {
                params: params
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (pbits >> i) & 1 == 1))
                    .collect(),
            });
        }
    }
    Ok(NonPauliOutcome::Verified)
}
