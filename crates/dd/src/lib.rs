//! Decision-diagram counting backend for the Veri-QEC reproduction.
//!
//! The SAT pipeline answers *existence* questions — "does a weight-`≤ t`
//! uncorrectable error exist?" (Eqns. 14–15 of the paper). This crate
//! answers the *counting* form of the same questions: the caller conjoins
//! the formula's parts (after the paper's §5.1 reduction: GF(2) parity
//! rows over error indicators, plus their definitions) into one reduced
//! ordered BDD with [`compile`], and then exact model counts — total or
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
//! or never; the caller fixes it by how it numbers the variables
//! (variable `v` sits at level `v`).
//!
//! # Examples
//!
//! ```
//! use veriqec_dd::{compile, Bdd, CompileConfig};
//!
//! // Two parity rows over x0, x1, x2: x0 ⊕ x1 = 1 and x1 ⊕ x2 = 0, each
//! // built bottom-up right before it is conjoined.
//! let config = CompileConfig::default();
//! let rows: [(&[usize], bool); 2] = [(&[0, 1], true), (&[1, 2], false)];
//! let (manager, root) = compile(
//!     3,
//!     rows,
//!     |m, (vars, odd)| {
//!         let mut parity = if odd { Bdd::FALSE } else { Bdd::TRUE };
//!         for &v in vars.iter().rev() {
//!             let x = m.var(v);
//!             parity = m.xor_budgeted(parity, x, &config)?;
//!         }
//!         Ok(parity)
//!     },
//!     &config,
//! )
//! .unwrap();
//! // 2 of the 8 assignments satisfy both rows.
//! assert_eq!(manager.model_count(root), Ok(2));
//! // Stratified by how many of x0, x2 are true:
//! let by_weight = manager.weight_count(root, &[(0, true), (2, true)]);
//! assert_eq!(by_weight, Ok(vec![0, 2, 0]));
//! ```

#![forbid(unsafe_code)]

mod arena;
mod bdd;
mod cache;
mod compile;
#[cfg(test)]
mod oracle;

pub use bdd::{Bdd, BddManager, CountError, CountOverflow, DdStats, RootId};
pub use compile::{compile, CompileConfig, CompileError};

#[cfg(test)]
mod proptests {
    use super::*;
    use compile::{compile_clauses, compile_clauses_with_gc};
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
            let (m, root) = compile_clauses(&cnf.to_cnf(), &CompileConfig::default()).unwrap();
            prop_assert_eq!(m.model_count(root), Ok(expected));
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
            let (m, root) = compile_clauses(&cnf.to_cnf(), &CompileConfig::default()).unwrap();
            prop_assert_eq!(m.weight_count(root, &inds), Ok(expected));
        }

        #[test]
        fn packed_arena_matches_hashmap_oracle(
            cnf in arb_cnf(12),
            ind_bits in proptest::collection::vec(any::<bool>(), 12),
            polarity in proptest::collection::vec(any::<bool>(), 12),
        ) {
            // Differential harness for the packed-arena rewrite: the
            // retained HashMap kernel (`oracle`) compiles the same CNF with
            // the same order and schedule and counts on full-width
            // polynomials; the arena kernel's truncated ones must agree bit
            // for bit, under either polarity and with gaps between the
            // indicator levels.
            let dimacs = cnf.to_cnf();
            let (m, root) = compile_clauses(&dimacs, &CompileConfig::default()).unwrap();
            let (om, oroot) = oracle::oracle_compile(&dimacs);
            let inds: Vec<(usize, bool)> = (0..cnf.num_vars)
                .filter(|&v| ind_bits[v])
                .map(|v| (v, polarity[v]))
                .collect();
            prop_assert_eq!(m.weight_count(root, &inds), Ok(om.weight_count(oroot, &inds)));
        }

        #[test]
        fn gc_is_invisible_on_random_cnfs(
            cnf in arb_cnf(12),
            ind_bits in proptest::collection::vec(any::<bool>(), 12),
        ) {
            // Memory management must never change semantics: compile with
            // eager GC and with GC disabled, and compare full weight
            // stratifications.
            let dimacs = cnf.to_cnf();
            let config = CompileConfig::default();
            let (a, ra) = compile_clauses_with_gc(&dimacs, &config, Some(0.0)).unwrap();
            let (b, rb) = compile_clauses_with_gc(&dimacs, &config, None).unwrap();
            let inds: Vec<(usize, bool)> =
                (0..cnf.num_vars).filter(|&v| ind_bits[v]).map(|v| (v, true)).collect();
            prop_assert_eq!(a.weight_count(ra, &inds), b.weight_count(rb, &inds));
        }

        #[test]
        fn dimacs_roundtrip_preserves_counts(cnf in arb_cnf(8)) {
            // Compile → to_dimacs → parse → compile must agree: the writer
            // added for DD-vs-SAT debugging artifacts is lossless.
            let original = cnf.to_cnf();
            let reparsed = Cnf::parse(&original.to_dimacs()).unwrap();
            let (a, ra) = compile_clauses(&original, &CompileConfig::default()).unwrap();
            let (b, rb) = compile_clauses(&reparsed, &CompileConfig::default()).unwrap();
            prop_assert_eq!(a.model_count(ra), b.model_count(rb));
        }
    }
}
