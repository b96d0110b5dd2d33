//! The budgeted conjunction loop with garbage collection.
//!
//! [`compile`] conjoins a list of conjuncts into one diagram. The caller
//! builds each conjunct's diagram right before it is conjoined, so no
//! handle outlives a collection, and picks the order of both the
//! variables (by numbering them) and the conjuncts.
//!
//! The budget (node limit, stop) is checked before every conjunct and
//! polled *inside* every budgeted apply, every [`POLL_EVERY`] node builds
//! — a single runaway conjunction can overshoot the limit by at most one
//! poll interval. Between conjunctions the loop may run a mark-and-sweep
//! collection (when the dead-node share passes [`GC_DEAD_RATIO`]), which
//! is invisible to the counts.

use veriqec_sat::Stop;

use crate::bdd::{Bdd, BddManager};

/// The budget of [`compile`] and of the budgeted operations
/// ([`BddManager::and_budgeted`], [`BddManager::xor_budgeted`]).
#[derive(Clone, Debug, Default)]
pub struct CompileConfig {
    /// Abort compilation once the manager holds this many nodes.
    pub node_limit: Option<usize>,
    /// Cooperative cancellation: compilation aborts with
    /// [`CompileError::Cancelled`] once this is raised. The engine layers
    /// its batch and job flags on the caller's stop with [`Stop::or`], so
    /// neither displaces the other. Checked before every conjunct and
    /// polled inside every budgeted apply.
    pub stop: Stop,
}

/// Why a compilation was abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The node arena outgrew [`CompileConfig::node_limit`].
    NodeLimit {
        /// Nodes allocated when the limit tripped.
        nodes: usize,
    },
    /// The [`CompileConfig::stop`] was raised.
    Cancelled,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NodeLimit { nodes } => {
                write!(f, "BDD compilation exceeded the node limit ({nodes} nodes)")
            }
            CompileError::Cancelled => write!(f, "BDD compilation cancelled"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Arena size below which the compiler never bothers collecting or
/// compacting: the bookkeeping would cost more than the memory it frees.
const GC_MIN_NODES: usize = 1 << 14;

/// Dead share of the arena at which a collection between conjunctions
/// runs.
const GC_DEAD_RATIO: f64 = 0.5;

/// Node builds between two budget polls inside one budgeted apply: the
/// node limit can overshoot by at most this many nodes.
pub(crate) const POLL_EVERY: u64 = 1024;

/// Conjoins `conjuncts` into one diagram over `num_vars` variables
/// (variable `v` at level `v`). `build` makes each conjunct's diagram in
/// the manager just before it is conjoined; it should use the budgeted
/// operations with `config` for anything that can grow. Returns the
/// manager and the root of the conjunction.
///
/// # Errors
///
/// [`CompileError::NodeLimit`] / [`CompileError::Cancelled`] when the
/// budget in `config` is exhausted, and any error `build` returns.
///
/// See the crate docs for an example.
pub fn compile<T>(
    num_vars: usize,
    conjuncts: impl IntoIterator<Item = T>,
    build: impl FnMut(&mut BddManager, T) -> Result<Bdd, CompileError>,
    config: &CompileConfig,
) -> Result<(BddManager, Bdd), CompileError> {
    compile_with_gc(num_vars, conjuncts, build, config, Some(GC_DEAD_RATIO))
}

/// [`compile`], collecting between conjunctions at `gc_dead_ratio`; `None`
/// runs no collection and leaves the final diagram uncompacted, which the
/// tests compare against.
fn compile_with_gc<T>(
    num_vars: usize,
    conjuncts: impl IntoIterator<Item = T>,
    mut build: impl FnMut(&mut BddManager, T) -> Result<Bdd, CompileError>,
    config: &CompileConfig,
    gc_dead_ratio: Option<f64>,
) -> Result<(BddManager, Bdd), CompileError> {
    let span = veriqec_obs::span("dd", "compile");
    let progress = veriqec_obs::active();
    let mut manager = BddManager::new(num_vars);
    // The evolving conjunction is the loop's only GC root: collections
    // between conjunctions sweep the dead intermediate diagrams that each
    // conjunct and conjunction strands in the arena.
    let mut root = Bdd::TRUE;
    let root_id = manager.protect(root);
    let mut gc_check_at = GC_MIN_NODES;
    let mut conjoined = 0usize;
    for conjunct in conjuncts {
        manager.check_budget(config)?;
        let f = build(&mut manager, conjunct)?;
        root = manager.and_budgeted(root, f, config)?;
        conjoined += 1;
        // The registry tracks the FALSE terminal too: the final GC below
        // re-reads the root from it, and a stale pre-contradiction entry
        // would resurrect a satisfiable diagram.
        manager.update_root(root_id, root);
        if root == Bdd::FALSE {
            break; // contradiction: no later conjunct can resurrect it
        }
        if let Some(ratio) = gc_dead_ratio {
            if manager.node_count() >= gc_check_at {
                let nodes_before = manager.node_count();
                manager.collect_if_worthwhile(ratio);
                root = manager.root(root_id);
                veriqec_obs::instant(
                    "dd",
                    "gc",
                    &[
                        ("nodes_before", nodes_before as f64),
                        ("nodes_after", manager.node_count() as f64),
                    ],
                );
                // Geometric back-off so the mark pass stays a vanishing
                // fraction of compile time whatever the dead ratio does.
                gc_check_at = (manager.node_count() * 3 / 2).max(GC_MIN_NODES);
            }
        }
        if progress {
            veriqec_obs::heartbeat::DD_NODES.set(manager.node_count() as u64);
        }
    }
    // Unbudgeted building and terminal-case conjunctions allocate outside
    // any poll; enforce the budget on the finished diagram so even a
    // one-conjunct formula reports its breach.
    manager.check_budget(config)?;
    // Hand back a compact arena: counting allocates memo space per arena
    // slot, so sweeping the construction garbage pays for itself.
    if gc_dead_ratio.is_some() && manager.node_count() >= GC_MIN_NODES {
        manager.collect_garbage();
        root = manager.root(root_id);
    }
    manager.unprotect(root_id);
    let stats = manager.stats();
    span.close_with(&[
        ("conjuncts", conjoined as f64),
        ("vars", num_vars as f64),
        ("peak_nodes", stats.peak_nodes as f64),
        ("gc_runs", stats.gc_runs as f64),
    ]);
    Ok((manager, root))
}

/// Compiles a CNF one clause per conjunct, in clause order: the test
/// harness that drives the conjunction loop with random formulas.
#[cfg(test)]
pub(crate) fn compile_clauses(
    cnf: &veriqec_sat::Cnf,
    config: &CompileConfig,
) -> Result<(BddManager, Bdd), CompileError> {
    compile_clauses_with_gc(cnf, config, Some(GC_DEAD_RATIO))
}

/// [`compile_clauses`] under a chosen collection policy (see
/// `compile_with_gc`).
#[cfg(test)]
pub(crate) fn compile_clauses_with_gc(
    cnf: &veriqec_sat::Cnf,
    config: &CompileConfig,
    gc_dead_ratio: Option<f64>,
) -> Result<(BddManager, Bdd), CompileError> {
    compile_with_gc(
        cnf.num_vars,
        &cnf.clauses,
        |m, clause| {
            // Bottom-up, so each disjunction adds one node above the rest.
            let mut lits = clause.clone();
            lits.sort_by_key(|l| std::cmp::Reverse(l.var().index()));
            let mut f = Bdd::FALSE;
            for l in lits {
                let x = m.literal(l.var().index(), l.is_positive());
                f = m.or(x, f);
            }
            Ok(f)
        },
        config,
        gc_dead_ratio,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use veriqec_sat::{Cnf, SatResult};

    fn cnf(text: &str) -> Cnf {
        Cnf::parse(text).expect("valid DIMACS")
    }

    #[test]
    fn compiles_and_counts_a_small_instance() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2): models are x2 = 1 → 2 of 4.
        let cnf = cnf("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let (m, root) = compile_clauses(&cnf, &CompileConfig::default()).unwrap();
        assert_eq!(m.model_count(root), Ok(2));
    }

    #[test]
    fn unsat_compiles_to_false() {
        let cnf = cnf("p cnf 1 2\n1 0\n-1 0\n");
        let (_, root) = compile_clauses(&cnf, &CompileConfig::default()).unwrap();
        assert_eq!(root, Bdd::FALSE);
        assert_eq!(cnf.into_solver().solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_contradiction() {
        let parsed = cnf("p cnf 2 1\n0\n");
        assert_eq!(parsed.clauses, vec![Vec::new()]);
        let (_, root) = compile_clauses(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(root, Bdd::FALSE);
    }

    #[test]
    fn tautological_clause_is_dropped() {
        let parsed = cnf("p cnf 2 1\n1 -1 0\n");
        let (m, root) = compile_clauses(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(root, Bdd::TRUE);
        assert_eq!(m.model_count(root), Ok(4));
    }

    #[test]
    fn node_limit_trips() {
        // A parity chain over 24 variables needs > 4 nodes.
        let mut text = String::from("p cnf 24 24\n");
        for v in 1..=23 {
            text.push_str(&format!("{} {} 0\n{} -{} 0\n", v, v + 1, -v, v + 1));
        }
        let parsed = cnf(&text);
        let err = compile_clauses(
            &parsed,
            &CompileConfig {
                node_limit: Some(4),
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::NodeLimit { .. }), "{err}");
    }

    #[test]
    fn node_limit_enforced_on_final_clause() {
        // A single-clause formula never reaches a second loop iteration, so
        // only the post-loop check can report the breach.
        let parsed = cnf("p cnf 3 1\n1 2 3 0\n");
        let err = compile_clauses(
            &parsed,
            &CompileConfig {
                node_limit: Some(1),
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::NodeLimit { .. }), "{err}");
    }

    #[test]
    fn node_limit_trips_inside_a_single_conjunction() {
        // Two clauses over disjoint halves of 8000 variables: their clause
        // diagrams are cheap chains (a literal and a link per variable,
        // 8000 nodes each), but the one conjunction joining them rebuilds
        // the upper chain, ~4000 fresh nodes. A check between conjunctions
        // only notices after the whole apply finished; the in-apply poll
        // must stop within one poll interval of the limit.
        let n = 8000usize;
        let mut text = format!("p cnf {n} 2\n");
        for v in (1..=n).step_by(2) {
            text.push_str(&format!("{v} "));
        }
        text.push_str("0\n");
        for v in (2..=n).step_by(2) {
            text.push_str(&format!("{v} "));
        }
        text.push_str("0\n");
        let parsed = cnf(&text);
        let limit = 2 * n + 2000; // both clause chains fit; the conjunction doesn't
        let err = compile_clauses(
            &parsed,
            &CompileConfig {
                node_limit: Some(limit),
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        match err {
            CompileError::NodeLimit { nodes } => {
                assert!(nodes > limit, "{nodes} vs {limit}");
                assert!(
                    nodes <= limit + POLL_EVERY as usize + 8,
                    "in-apply polling must trip near the limit: \
                     {nodes} nodes vs limit {limit} (poll {POLL_EVERY})"
                );
            }
            other => panic!("expected NodeLimit, got {other}"),
        }
    }

    #[test]
    fn unsat_stays_false_past_the_final_gc() {
        // Two clauses over disjoint halves of 40000 variables: their chains
        // alone push the arena past GC_MIN_NODES before the contradicting
        // units arrive. The contradiction break
        // must update the root registry to FALSE, or the post-loop
        // collect_garbage re-reads the stale pre-contradiction root and a
        // provably UNSAT formula compiles to a satisfiable diagram.
        let n = 40000usize;
        let mut text = format!("p cnf {n} 4\n");
        for v in (1..=n).step_by(2) {
            text.push_str(&format!("{v} "));
        }
        text.push_str("0\n");
        for v in (2..=n).step_by(2) {
            text.push_str(&format!("{v} "));
        }
        text.push_str("0\n1 0\n-1 0\n");
        let parsed = cnf(&text);
        let (m, root) = compile_clauses(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(root, Bdd::FALSE);
        assert_eq!(m.model_count(root), Ok(0));
    }

    #[test]
    fn cancellation_aborts() {
        let parsed = cnf("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let flags = vec![
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(true)),
        ];
        let err = compile_clauses(
            &parsed,
            &CompileConfig {
                stop: Stop::new(flags, None),
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }

    #[test]
    fn passed_deadline_cancels_at_the_first_poll() {
        let parsed = cnf("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let config = CompileConfig {
            stop: Stop::new(vec![], Some(std::time::Instant::now())),
            ..CompileConfig::default()
        };
        assert_eq!(
            compile_clauses(&parsed, &config).unwrap_err(),
            CompileError::Cancelled
        );
    }

    #[test]
    fn gc_is_invisible_to_counts() {
        // A parity ladder with Tseitin-style clauses, compiled with
        // eager GC vs. with GC disabled: identical counts. Each conjunction
        // rebuilds the chain above its clause, so the compile strands
        // enough garbage to pass GC_MIN_NODES and collect.
        let n = 400;
        let mut text = format!("p cnf {n} {}\n", 2 * (n - 1));
        for v in 1..n {
            text.push_str(&format!("{} {} 0\n{} -{} 0\n", v, v + 1, -v, v + 1));
        }
        let parsed = cnf(&text);
        let config = CompileConfig::default();
        let (fa, ra) = compile_clauses_with_gc(&parsed, &config, Some(0.0)).unwrap();
        let (fb, rb) = compile_clauses_with_gc(&parsed, &config, None).unwrap();
        assert!(fa.stats().gc_runs > 0, "{:?}", fa.stats());
        assert_eq!(fb.stats().gc_runs, 0);
        let inds = [(0, true), (3, false)];
        assert_eq!(fa.weight_count(ra, &inds), fb.weight_count(rb, &inds));
        assert_eq!(fa.model_count(ra), fb.model_count(rb));
    }
}
