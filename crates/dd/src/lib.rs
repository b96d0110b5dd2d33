//! Decision-diagram counting backend for the Veri-QEC reproduction.
//!
//! The SAT pipeline answers *existence* questions — "does a weight-`≤ t`
//! uncorrectable error exist?" (Eqns. 14–15 of the paper). This crate turns
//! the same CNF encodings into *counting* queries: a reduced ordered BDD is
//! compiled from the clause set once, and then exact model counts — total or
//! stratified by the Hamming weight of a designated indicator-literal set —
//! fall out of a single bottom-up pass. That yields the code's failure
//! weight enumerator (the number of undetectable/uncorrectable error
//! configurations at every weight), a workload the CDCL solver cannot serve
//! without exponential blocking-clause enumeration.
//!
//! The design follows the rsdd school of hash-consed diagram engines: one
//! arena per [`BddManager`], a unique table making semantic equality
//! pointer equality, and a memoized `apply`. The variable order — not the
//! operation set — decides whether a QEC instance compiles in milliseconds
//! or never; the compiler fixes one, first use in the clause list, which
//! inherits the interleaving the SMT layer allocates its auxiliaries in.
//!
//! # Examples
//!
//! ```
//! use veriqec_dd::{compile_cnf, CompileConfig};
//! use veriqec_sat::Cnf;
//!
//! // (x1 ∨ x2) ∧ (x2 ∨ x3): 5 of 8 assignments satisfy it.
//! let cnf = Cnf::parse("p cnf 3 2\n1 2 0\n2 3 0\n").unwrap();
//! let compiled = compile_cnf(&cnf, &CompileConfig::default()).unwrap();
//! assert_eq!(compiled.manager.model_count(compiled.root), 5);
//! // Stratified by how many of x1, x2 are true:
//! let by_weight = compiled.manager.weight_count(compiled.root, &[(0, true), (1, true)]);
//! assert_eq!(by_weight, vec![0, 3, 2]);
//! ```

#![forbid(unsafe_code)]

mod arena;
mod bdd;
mod cache;
mod compile;
#[cfg(test)]
mod oracle;

pub use bdd::{Bdd, BddManager, DdStats, OpBudget, RootId};
pub use compile::{compile_cnf, compile_cnf_projected, CompileConfig, CompileError, CompiledCnf};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use veriqec_sat::{Cnf, Lit, Var};

    #[derive(Debug, Clone)]
    struct RandomCnf {
        num_vars: usize,
        clauses: Vec<Vec<(usize, bool)>>,
    }

    impl RandomCnf {
        fn to_cnf(&self) -> Cnf {
            Cnf {
                num_vars: self.num_vars,
                clauses: self
                    .clauses
                    .iter()
                    .map(|c| {
                        c.iter()
                            .map(|&(v, pos)| Lit::new(Var(v as u32), pos))
                            .collect()
                    })
                    .collect(),
            }
        }
    }

    fn arb_cnf(max_vars: usize) -> impl Strategy<Value = RandomCnf> {
        (1usize..max_vars + 1).prop_flat_map(|num_vars| {
            proptest::collection::vec(
                proptest::collection::vec((0..num_vars, any::<bool>()), 1..4),
                0..24,
            )
            .prop_map(move |clauses| RandomCnf { num_vars, clauses })
        })
    }

    /// Truth-table reference: per-weight model counts of `cnf` under the
    /// indicator literals `inds`.
    fn brute_force(cnf: &RandomCnf, inds: &[(usize, bool)]) -> Vec<u128> {
        let mut counts = vec![0u128; inds.len() + 1];
        for bits in 0u32..1 << cnf.num_vars {
            let sat = cnf
                .clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos));
            if sat {
                let w = inds
                    .iter()
                    .filter(|&&(v, pos)| ((bits >> v) & 1 == 1) == pos)
                    .count();
                counts[w] += 1;
            }
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn model_count_matches_truth_table(cnf in arb_cnf(14)) {
            // The headline differential: BDD model count vs brute force for
            // random CNFs with n ≤ 14.
            let expected: u128 = brute_force(&cnf, &[]).iter().sum();
            let compiled = compile_cnf(&cnf.to_cnf(), &CompileConfig::default()).unwrap();
            prop_assert_eq!(compiled.manager.model_count(compiled.root), expected);
        }

        #[test]
        fn weight_count_matches_truth_table(
            cnf in arb_cnf(10),
            polarity in proptest::collection::vec(any::<bool>(), 10),
        ) {
            // Every other variable is an indicator, with random polarity.
            let inds: Vec<(usize, bool)> = (0..cnf.num_vars)
                .step_by(2)
                .map(|v| (v, polarity[v]))
                .collect();
            let expected = brute_force(&cnf, &inds);
            let compiled = compile_cnf(&cnf.to_cnf(), &CompileConfig::default()).unwrap();
            let got = compiled.manager.weight_count(compiled.root, &inds);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn projected_count_matches_truth_table(
            cnf in arb_cnf(10),
            keep_bits in proptest::collection::vec(any::<bool>(), 10),
        ) {
            // Projected compilation counts the distinct kept-variable
            // assignments extendable to a model — brute-force the shadow.
            let keep: Vec<usize> = (0..cnf.num_vars).filter(|&v| keep_bits[v]).collect();
            let mut shadow = std::collections::HashSet::new();
            for bits in 0u32..1 << cnf.num_vars {
                let sat = cnf
                    .clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos));
                if sat {
                    let mut proj = 0u32;
                    for &v in &keep {
                        proj |= bits & (1 << v);
                    }
                    shadow.insert(proj);
                }
            }
            let compiled = compile_cnf_projected(&cnf.to_cnf(), &keep, &CompileConfig::default()).unwrap();
            let got = compiled.manager.weight_count_over(compiled.root, &keep, &[]);
            prop_assert_eq!(got[0], shadow.len() as u128);
        }

        #[test]
        fn packed_arena_matches_hashmap_oracle(
            cnf in arb_cnf(12),
            keep_bits in proptest::collection::vec(any::<bool>(), 12),
        ) {
            // Differential harness for the packed-arena rewrite: the
            // retained HashMap kernel (`oracle`) compiles the same CNF with
            // the same order and schedule; projected shadow counts and
            // weight stratifications must agree bit for bit.
            let keep: Vec<usize> = (0..cnf.num_vars).filter(|&v| keep_bits[v]).collect();
            let dimacs = cnf.to_cnf();
            let order = compile::first_use_order(&dimacs);
            let compiled =
                compile_cnf_projected(&dimacs, &keep, &CompileConfig::default()).unwrap();
            let (om, oroot) = oracle::oracle_compile_projected(&dimacs, order, Some(&keep));
            let inds: Vec<(usize, bool)> =
                keep.iter().step_by(2).map(|&v| (v, true)).collect();
            prop_assert_eq!(
                compiled.manager.weight_count_over(compiled.root, &keep, &inds),
                om.weight_count_over(oroot, &keep, &inds)
            );
        }

        #[test]
        fn gc_is_invisible_on_random_cnfs(
            cnf in arb_cnf(12),
            keep_bits in proptest::collection::vec(any::<bool>(), 12),
        ) {
            // Memory management must never change semantics: compile with
            // eager GC and with GC disabled, and compare full weight
            // stratifications over the kept variables.
            let keep: Vec<usize> = (0..cnf.num_vars).filter(|&v| keep_bits[v]).collect();
            let dimacs = cnf.to_cnf();
            let eager = CompileConfig {
                gc_dead_ratio: Some(0.0),
                ..CompileConfig::default()
            };
            let plain = CompileConfig {
                gc_dead_ratio: None,
                ..CompileConfig::default()
            };
            let a = compile_cnf_projected(&dimacs, &keep, &eager).unwrap();
            let b = compile_cnf_projected(&dimacs, &keep, &plain).unwrap();
            let inds: Vec<(usize, bool)> = keep.iter().map(|&v| (v, true)).collect();
            prop_assert_eq!(
                a.manager.weight_count_over(a.root, &keep, &inds),
                b.manager.weight_count_over(b.root, &keep, &inds)
            );
        }

        #[test]
        fn dimacs_roundtrip_preserves_counts(cnf in arb_cnf(8)) {
            // Compile → to_dimacs → parse → compile must agree: the writer
            // added for DD-vs-SAT debugging artifacts is lossless.
            let original = cnf.to_cnf();
            let reparsed = Cnf::parse(&original.to_dimacs()).unwrap();
            let a = compile_cnf(&original, &CompileConfig::default()).unwrap();
            let b = compile_cnf(&reparsed, &CompileConfig::default()).unwrap();
            prop_assert_eq!(
                a.manager.model_count(a.root),
                b.manager.model_count(b.root)
            );
        }
    }
}
