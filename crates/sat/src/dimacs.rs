//! DIMACS CNF parsing and printing, for interoperability and tests.

use crate::{Lit, Solver, Var};
use std::fmt::Write as _;

/// Error returned when a DIMACS document cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DIMACS input: {}", self.message)
    }
}

impl std::error::Error for ParseDimacsError {}

/// A CNF formula in clausal form, as read from a DIMACS document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables declared in the header (variables are 1-based in
    /// DIMACS; internally 0-based).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Parses a DIMACS CNF document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input (missing header,
    /// non-integer tokens, variable indices exceeding the header count).
    pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut num_vars: Option<usize> = None;
        let mut clauses = Vec::new();
        let mut current: Vec<Lit> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(ParseDimacsError {
                        message: "header must be `p cnf <vars> <clauses>`".into(),
                    });
                }
                let nv = parts
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| ParseDimacsError {
                        message: "missing variable count".into(),
                    })?;
                num_vars = Some(nv);
                continue;
            }
            let nv = num_vars.ok_or_else(|| ParseDimacsError {
                message: "clause before header".into(),
            })?;
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    message: format!("non-integer token `{tok}`"),
                })?;
                if v == 0 {
                    clauses.push(std::mem::take(&mut current));
                } else {
                    let var = v.unsigned_abs() as usize - 1;
                    if var >= nv {
                        return Err(ParseDimacsError {
                            message: format!("variable {} exceeds header count {nv}", var + 1),
                        });
                    }
                    current.push(Lit::new(Var(var as u32), v > 0));
                }
            }
        }
        if !current.is_empty() {
            clauses.push(current);
        }
        Ok(Cnf {
            num_vars: num_vars.unwrap_or(0),
            clauses,
        })
    }

    /// Renders as a DIMACS document.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let v = l.var().0 as i64 + 1;
                let _ = write!(out, "{} ", if l.is_positive() { v } else { -v });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Loads the formula into a fresh solver.
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }
}

/// Truth-table reference shared by the unit tests and proptests below:
/// every satisfying assignment of `c`, as variable bitmasks.
#[cfg(test)]
fn models(c: &Cnf) -> Vec<u32> {
    (0u32..1 << c.num_vars)
        .filter(|bits| {
            c.clauses.iter().all(|cl| {
                cl.iter()
                    .any(|l| ((bits >> l.var().0) & 1 == 1) == l.is_positive())
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    #[test]
    fn parse_print_roundtrip() {
        let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = Cnf::parse(text).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        let reparsed = Cnf::parse(&cnf.to_dimacs()).unwrap();
        assert_eq!(cnf, reparsed);
    }

    #[test]
    fn solve_parsed_instance() {
        let cnf = Cnf::parse("p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n").unwrap();
        assert_eq!(cnf.into_solver().solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(Cnf::parse("p dnf 1 1\n1 0\n").is_err());
        assert!(Cnf::parse("1 0\n").is_err());
        assert!(Cnf::parse("p cnf 1 1\n2 0\n").is_err());
    }

    #[test]
    fn export_reconstructs_units_and_clauses() {
        // Unit clauses land on the trail, satisfied clauses are dropped at
        // add time; the export must still be model-equivalent.
        let cnf = Cnf::parse("p cnf 3 3\n1 0\n1 2 0\n-1 3 0\n").unwrap();
        let exported = cnf.into_solver().export_cnf();
        assert_eq!(exported.num_vars, 3);
        // Same model set: x1 = 1, x3 = 1, x2 free.
        assert_eq!(models(&cnf), models(&exported));
    }

    #[test]
    fn export_of_root_conflict_is_empty_clause() {
        let cnf = Cnf::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let exported = cnf.into_solver().export_cnf();
        assert!(exported.clauses.contains(&Vec::new()));
        assert_eq!(
            Cnf::parse(&exported.to_dimacs()).unwrap().clauses,
            exported.clauses
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::SatResult;
    use proptest::prelude::*;

    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        (1usize..12).prop_flat_map(|num_vars| {
            proptest::collection::vec(
                proptest::collection::vec((0..num_vars, any::<bool>()), 0..5),
                0..20,
            )
            .prop_map(move |clauses| Cnf {
                num_vars,
                clauses: clauses
                    .into_iter()
                    .map(|c| {
                        c.into_iter()
                            .map(|(v, pos)| Lit::new(Var(v as u32), pos))
                            .collect()
                    })
                    .collect(),
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn to_dimacs_parse_roundtrip(cnf in arb_cnf()) {
            // The writer/parser pair must be lossless, including empty
            // clauses and empty formulas.
            let reparsed = Cnf::parse(&cnf.to_dimacs()).expect("writer output parses");
            prop_assert_eq!(&reparsed, &cnf);
            // And a second trip is a fixpoint.
            let again = Cnf::parse(&reparsed.to_dimacs()).unwrap();
            prop_assert_eq!(again, reparsed);
        }

        #[test]
        fn export_cnf_is_model_equivalent(cnf in arb_cnf()) {
            // Loading into a solver and exporting back may reshape the
            // clause set (units on the trail, satisfied clauses dropped,
            // root-false literals stripped) but must preserve the exact set
            // of satisfying assignments — any model count of an export
            // depends on it.
            let solver = cnf.into_solver();
            let exported = solver.export_cnf();
            prop_assert_eq!(exported.num_vars, cnf.num_vars);
            prop_assert_eq!(models(&exported), models(&cnf));
        }

        #[test]
        fn export_cnf_after_solving_stays_model_equivalent(cnf in arb_cnf()) {
            // Solving adds learnt clauses and root-level implications; the
            // export must still denote the same model set.
            let mut solver = cnf.into_solver();
            let _ = solver.solve(&[]);
            let exported = solver.export_cnf();
            prop_assert_eq!(models(&exported), models(&cnf));
            // Sanity: the exported formula solves to the same result.
            let roundtrip = exported.into_solver().solve(&[]);
            let expected = if models(&cnf).is_empty() { SatResult::Unsat } else { SatResult::Sat };
            prop_assert_eq!(roundtrip, expected);
        }
    }
}
