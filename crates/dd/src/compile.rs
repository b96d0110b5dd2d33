//! CNF → BDD compilation with garbage collection.
//!
//! The compiler consumes the SAT layer's clausal form
//! ([`veriqec_sat::Cnf`]), orders the variables by first use (the order is
//! the dominant cost factor for decision diagrams), builds one linear-sized
//! BDD per clause, and conjoins them in input order;
//! [`compile_cnf_projected`] additionally eliminates designated auxiliary
//! variables the moment their last clause lands (bucket elimination), which
//! is what keeps dense instances within reach.
//!
//! The budget (node limit, stop) is polled *inside* every
//! conjunction and quantification, every [`CompileConfig::poll_interval`]
//! node allocations — a single runaway apply can no longer overshoot the
//! limit by more than one poll interval (the old clause-granularity blind
//! spot). Between conjunctions the compiler may run a mark-and-sweep
//! collection (when the dead-node share passes
//! [`CompileConfig::gc_dead_ratio`]), which is invisible to the counts.

use veriqec_sat::{Cnf, Lit, Stop};

use crate::bdd::{Bdd, BddManager, OpBudget};

/// Budget and memory-management knobs for [`compile_cnf`].
#[derive(Clone, Debug)]
pub struct CompileConfig {
    /// Abort compilation once the manager holds this many nodes.
    pub node_limit: Option<usize>,
    /// Cooperative cancellation: compilation aborts with
    /// [`CompileError::Cancelled`] once this is raised. The engine layers
    /// its batch and job flags on the caller's stop with [`Stop::or`], so
    /// neither displaces the other. Polled before every clause and inside
    /// apply/exists every [`CompileConfig::poll_interval`] node
    /// allocations.
    pub stop: Stop,
    /// Node allocations between budget polls inside a single conjunction
    /// or quantification; the node limit can overshoot by at most this.
    pub poll_interval: u64,
    /// Run a garbage collection between conjunctions when at least this
    /// share of the arena is dead (`None` disables GC; the final diagram
    /// is then left uncompacted).
    pub gc_dead_ratio: Option<f64>,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            node_limit: None,
            stop: Stop::default(),
            poll_interval: 1024,
            gc_dead_ratio: Some(0.5),
        }
    }
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

/// A compiled CNF: the manager owning the diagram plus the root function.
#[derive(Clone, Debug)]
pub struct CompiledCnf {
    /// The node arena (needed for every subsequent operation or count).
    pub manager: BddManager,
    /// The conjunction of all clauses.
    pub root: Bdd,
}

/// The `var → level` order the compiler uses: variables by first
/// occurrence scanning the clause list, unused ones last. The SMT layer
/// allocates auxiliaries right where they are defined, so first-use order
/// inherits that interleaving; measured across the code zoo it is the
/// consistent winner once projected compilation eliminates auxiliaries
/// early.
pub(crate) fn first_use_order(cnf: &Cnf) -> Vec<u32> {
    let n = cnf.num_vars;
    let mut level_of = vec![u32::MAX; n];
    let mut next = 0u32;
    for clause in &cnf.clauses {
        for l in clause {
            let v = l.var().index();
            if level_of[v] == u32::MAX {
                level_of[v] = next;
                next += 1;
            }
        }
    }
    for l in &mut level_of {
        if *l == u32::MAX {
            *l = next;
            next += 1;
        }
    }
    level_of
}

/// Compiles a CNF into one BDD.
///
/// # Errors
///
/// Returns [`CompileError::NodeLimit`] / [`CompileError::Cancelled`] when
/// the budget in `config` is exhausted; the budget is polled inside each
/// conjunction every [`CompileConfig::poll_interval`] allocations.
pub fn compile_cnf(cnf: &Cnf, config: &CompileConfig) -> Result<CompiledCnf, CompileError> {
    compile(cnf, None, config)
}

/// Projected compilation: like [`compile_cnf`], but every variable *not* in
/// `keep` is existentially quantified out of the diagram as soon as its
/// last clause has been conjoined (bucket elimination). The root then
/// represents `∃aux. cnf` — its models are the assignments to the kept
/// variables extendable to full models, which is the exact per-configuration
/// count when the eliminated variables are functionally determined (Tseitin
/// definitions, reified parities) and the projected count otherwise. Count
/// it with [`crate::BddManager::weight_count_over`] over `keep`.
///
/// Early elimination is what keeps dense instances compilable: intermediate
/// diagrams track only the kept variables plus the handful of auxiliaries
/// whose definitions are still open, instead of every Tseitin chain ever
/// introduced.
///
/// # Errors
///
/// Propagates budget exhaustion exactly like [`compile_cnf`].
pub fn compile_cnf_projected(
    cnf: &Cnf,
    keep: &[usize],
    config: &CompileConfig,
) -> Result<CompiledCnf, CompileError> {
    compile(cnf, Some(keep), config)
}

/// Arena size below which the compiler never bothers collecting or
/// compacting: the bookkeeping would cost more than the memory it frees.
const GC_MIN_NODES: usize = 1 << 14;

fn compile(
    cnf: &Cnf,
    keep: Option<&[usize]>,
    config: &CompileConfig,
) -> Result<CompiledCnf, CompileError> {
    let span = veriqec_obs::span("dd", "compile");
    // Cached once per compile: the clause loop below emits per-clause spans
    // and samples the live node count only when someone is watching.
    let track = veriqec_obs::enabled();
    let progress = veriqec_obs::active();
    let mut manager = BddManager::with_order(first_use_order(cnf));
    let budget = OpBudget {
        node_limit: config.node_limit,
        stop: &config.stop,
        poll_every: config.poll_interval.max(1),
    };
    // Last clause index mentioning each eliminable variable; `usize::MAX`
    // marks kept (or unused) variables.
    let mut last_use = vec![usize::MAX; cnf.num_vars];
    if let Some(keep) = keep {
        for (ci, clause) in cnf.clauses.iter().enumerate() {
            for l in clause {
                last_use[l.var().index()] = ci;
            }
        }
        for &v in keep {
            last_use[v] = usize::MAX;
        }
    }
    // The evolving conjunction is the compiler's only GC root: collections
    // between conjunctions sweep the dead intermediate diagrams that each
    // `and`/`exists` strands in the arena.
    let mut root = Bdd::TRUE;
    let root_id = manager.protect(root);
    let mut gc_check_at = GC_MIN_NODES;
    // One linear-sized BDD per clause, conjoined in input order: the SAT
    // layer's export lists root units first and then clauses in assertion
    // order, so definitionally-related clauses (one Tseitin chain, one
    // totalizer merge) arrive adjacently — measured across the code zoo
    // this beats any span-sorted schedule.
    for (ci, clause) in cnf.clauses.iter().enumerate() {
        check_budget(&manager, config)?;
        // Bound (not `_`) so the span covers the whole iteration: the
        // conjunction, eliminations, and any GC it triggers.
        let _clause_span = track.then(|| veriqec_obs::span_with("dd", || format!("clause:{ci}")));
        let f = clause_bdd(&mut manager, clause);
        root = manager.and_budgeted(root, f, &budget)?;
        if root == Bdd::FALSE {
            // The registry must track the FALSE terminal too: the final GC
            // below re-reads the root from it, and a stale pre-contradiction
            // entry would resurrect a satisfiable diagram.
            manager.update_root(root_id, root);
            break; // contradiction: no later clause can resurrect it
        }
        for l in clause {
            let v = l.var().index();
            if last_use[v] == ci {
                root = manager.exists_budgeted(root, v, &budget)?;
                last_use[v] = usize::MAX; // a variable may repeat in-clause
            }
        }
        manager.update_root(root_id, root);
        if let Some(ratio) = config.gc_dead_ratio {
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
    // Clause construction (`clause_bdd`) and terminal-case conjunctions
    // allocate outside any budgeted traversal; enforce the budget on the
    // finished diagram so even a single-clause formula reports its breach.
    check_budget(&manager, config)?;
    // Hand back a compact arena: counting allocates memo space per arena
    // slot, so sweeping the construction garbage pays for itself.
    if config.gc_dead_ratio.is_some() && manager.node_count() >= GC_MIN_NODES {
        manager.collect_garbage();
        root = manager.root(root_id);
    }
    manager.unprotect(root_id);
    let stats = manager.stats();
    span.close_with(&[
        ("clauses", cnf.clauses.len() as f64),
        ("vars", cnf.num_vars as f64),
        ("kept", keep.map_or(cnf.num_vars, <[usize]>::len) as f64),
        ("peak_nodes", stats.peak_nodes as f64),
        ("gc_runs", stats.gc_runs as f64),
    ]);
    Ok(CompiledCnf { manager, root })
}

fn check_budget(manager: &BddManager, config: &CompileConfig) -> Result<(), CompileError> {
    if config.stop.is_raised() {
        return Err(CompileError::Cancelled);
    }
    if let Some(limit) = config.node_limit {
        let nodes = manager.node_count();
        if nodes > limit {
            return Err(CompileError::NodeLimit { nodes });
        }
    }
    Ok(())
}

/// The BDD of one clause (a disjunction of literals): a single chain of
/// nodes, built bottom-up in level order.
fn clause_bdd(manager: &mut BddManager, clause: &[Lit]) -> Bdd {
    // Deduplicate per variable; opposite polarities make the clause a
    // tautology.
    let mut lits: Vec<(u32, bool)> = clause
        .iter()
        .map(|l| (manager.level_of(l.var().index()), l.is_positive()))
        .collect();
    lits.sort_unstable();
    lits.dedup();
    for pair in lits.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Bdd::TRUE;
        }
    }
    let mut acc = Bdd::FALSE;
    for &(level, positive) in lits.iter().rev() {
        acc = if positive {
            manager.mk_raw(level, acc, Bdd::TRUE)
        } else {
            manager.mk_raw(level, Bdd::TRUE, acc)
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use veriqec_sat::SatResult;

    fn cnf(text: &str) -> Cnf {
        Cnf::parse(text).expect("valid DIMACS")
    }

    #[test]
    fn compiles_and_counts_a_small_instance() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2): models are x2 = 1 → 2 of 4.
        let cnf = cnf("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let compiled = compile_cnf(&cnf, &CompileConfig::default()).unwrap();
        assert_eq!(compiled.manager.model_count(compiled.root), 2);
    }

    #[test]
    fn unsat_compiles_to_false() {
        let cnf = cnf("p cnf 1 2\n1 0\n-1 0\n");
        let compiled = compile_cnf(&cnf, &CompileConfig::default()).unwrap();
        assert_eq!(compiled.root, Bdd::FALSE);
        assert_eq!(cnf.into_solver().solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_contradiction() {
        let parsed = cnf("p cnf 2 1\n0\n");
        assert_eq!(parsed.clauses, vec![Vec::new()]);
        let compiled = compile_cnf(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(compiled.root, Bdd::FALSE);
    }

    #[test]
    fn tautological_clause_is_dropped() {
        let parsed = cnf("p cnf 2 1\n1 -1 0\n");
        let compiled = compile_cnf(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(compiled.root, Bdd::TRUE);
        assert_eq!(compiled.manager.model_count(compiled.root), 4);
    }

    #[test]
    fn node_limit_trips() {
        // A parity chain over 24 variables needs > 4 nodes.
        let mut text = String::from("p cnf 24 24\n");
        for v in 1..=23 {
            text.push_str(&format!("{} {} 0\n{} -{} 0\n", v, v + 1, -v, v + 1));
        }
        let parsed = cnf(&text);
        let err = compile_cnf(
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
        let err = compile_cnf(
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
        // BDDs are cheap chains, but the one conjunction joining them
        // rebuilds the upper chain, ~4000 fresh nodes. The old
        // clause-boundary poll only noticed after the whole apply finished;
        // the in-apply poll must stop within one poll interval of the limit.
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
        let limit = n + 2000; // both clause chains fit; the conjunction doesn't
        let poll = 64u64;
        let err = compile_cnf(
            &parsed,
            &CompileConfig {
                node_limit: Some(limit),
                poll_interval: poll,
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        match err {
            CompileError::NodeLimit { nodes } => {
                assert!(nodes > limit, "{nodes} vs {limit}");
                assert!(
                    nodes <= limit + poll as usize + 8,
                    "in-apply polling must trip near the limit: \
                     {nodes} nodes vs limit {limit} (poll {poll})"
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
        let compiled = compile_cnf(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(compiled.root, Bdd::FALSE);
        assert_eq!(compiled.manager.model_count(compiled.root), 0);
    }

    #[test]
    fn cancellation_aborts() {
        let parsed = cnf("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let flags = vec![
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(true)),
        ];
        let err = compile_cnf(
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
            compile_cnf(&parsed, &config).unwrap_err(),
            CompileError::Cancelled
        );
    }

    #[test]
    fn projected_compile_counts_over_kept_variables() {
        // x3 ↔ x1 ⊕ x2 (Tseitin), x3 asserted true: projecting x3 out
        // leaves the two odd assignments of (x1, x2).
        let parsed = cnf("p cnf 3 5\n-3 1 2 0\n-3 -1 -2 0\n3 -1 2 0\n3 1 -2 0\n3 0\n");
        let compiled = compile_cnf_projected(&parsed, &[0, 1], &CompileConfig::default()).unwrap();
        let m = &compiled.manager;
        assert_eq!(m.weight_count_over(compiled.root, &[0, 1], &[]), vec![2]);
        assert_eq!(
            m.weight_count_over(compiled.root, &[0, 1], &[(0, true), (1, true)]),
            vec![0, 2, 0]
        );
        // The unprojected compile agrees after doubling is accounted for:
        // x3 is determined, so full-space and projected counts coincide.
        let full = compile_cnf(&parsed, &CompileConfig::default()).unwrap();
        assert_eq!(full.manager.model_count(full.root), 2);
    }

    #[test]
    fn projection_of_undetermined_variable_counts_the_shadow() {
        // (x1 ∨ x2) with x2 projected out: x1 = 1 extends both ways, x1 = 0
        // one way — the projection has 2 models, the full space 3.
        let parsed = cnf("p cnf 2 1\n1 2 0\n");
        let compiled = compile_cnf_projected(&parsed, &[0], &CompileConfig::default()).unwrap();
        assert_eq!(
            compiled.manager.weight_count_over(compiled.root, &[0], &[]),
            vec![2]
        );
    }

    #[test]
    fn gc_is_invisible_to_counts() {
        // A parity ladder with Tseitin-style clauses, compiled with
        // eager GC vs. with GC disabled: identical counts. Each conjunction
        // rebuilds the chain above its clause, so the unprojected compile
        // strands enough garbage to pass GC_MIN_NODES and collect.
        let n = 400;
        let mut text = format!("p cnf {n} {}\n", 2 * (n - 1));
        for v in 1..n {
            text.push_str(&format!("{} {} 0\n{} -{} 0\n", v, v + 1, -v, v + 1));
        }
        let parsed = cnf(&text);
        let eager = CompileConfig {
            gc_dead_ratio: Some(0.0),
            ..CompileConfig::default()
        };
        let plain = CompileConfig {
            gc_dead_ratio: None,
            ..CompileConfig::default()
        };
        let keep: Vec<usize> = (0..6).collect();
        let a = compile_cnf_projected(&parsed, &keep, &eager).unwrap();
        let b = compile_cnf_projected(&parsed, &keep, &plain).unwrap();
        let wa = a
            .manager
            .weight_count_over(a.root, &keep, &[(0, true), (3, false)]);
        let wb = b
            .manager
            .weight_count_over(b.root, &keep, &[(0, true), (3, false)]);
        assert_eq!(wa, wb);
        let fa = compile_cnf(&parsed, &eager).unwrap();
        let fb = compile_cnf(&parsed, &plain).unwrap();
        assert!(fa.manager.stats().gc_runs > 0, "{:?}", fa.manager.stats());
        assert_eq!(fb.manager.stats().gc_runs, 0);
        assert_eq!(
            fa.manager.model_count(fa.root),
            fb.manager.model_count(fb.root)
        );
    }
}
