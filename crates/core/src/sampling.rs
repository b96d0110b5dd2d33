//! The sampling/testing baseline (§7.2's Stim comparison).
//!
//! Stabilizer-simulation testing draws random error configurations and
//! checks single executions; it is fast per sample but *incomplete* — the
//! paper's point is that covering all configurations of a `d = 19` surface
//! code under its constraints would need `19^18 ≈ 2^76` samples. This module
//! reproduces both sides: a tableau-based sampler for cycle programs and the
//! combinatorial sample-count formulas.

use rand::prelude::*;

use veriqec_cexpr::{CMem, Value};
use veriqec_codes::{ExtractionSchedule, StabilizerCode};
use veriqec_pauli::PauliString;
use veriqec_prog::{run_tableau, DecoderOracle};
use veriqec_qsim::{FrameCircuit, Tableau, LANES};

use crate::scenario::{ErrorModel, Scenario};

/// Outcome of a sampling campaign.
#[derive(Clone, Debug)]
pub struct SamplingReport {
    /// Samples executed.
    pub samples: usize,
    /// Samples whose final state failed the postcondition.
    pub failures: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs `samples` random-error executions of a (Clifford) scenario program on
/// the tableau backend, checking that the post conjuncts stabilize the final
/// state. Errors are drawn uniformly among configurations of weight
/// `≤ max_errors`.
///
/// # Panics
///
/// Panics if the scenario program contains non-Clifford gates.
pub fn sample_scenario<O: DecoderOracle, R: Rng>(
    scenario: &Scenario,
    max_errors: usize,
    samples: usize,
    oracle: &O,
    rng: &mut R,
) -> SamplingReport {
    let start = std::time::Instant::now();
    let mut failures = 0;
    for _ in 0..samples {
        // Random error pattern of weight <= max_errors.
        let mut mem = CMem::new();
        let weight = rng.gen_range(0..=max_errors);
        let mut chosen: Vec<usize> = (0..scenario.error_vars.len()).collect();
        chosen.shuffle(rng);
        for &i in chosen.iter().take(weight) {
            mem.set(scenario.error_vars[i], Value::Bool(true));
        }
        // Params b_i = 0 (the |0…0⟩_L family member).
        // Prepare the codeword: stabilizer state of the LHS generating set.
        let mut tab = prepare_codeword_state(scenario, &CMem::new(), rng);
        let mut coin = || rng_coin(rng);
        run_tableau(&scenario.program, &mut mem, &mut tab, oracle, &mut coin);
        // Check: all post conjuncts (at params = 0, with measured syndrome
        // values from mem) stabilize the final state.
        let ok = scenario.post.conjuncts.iter().all(|c| {
            let single = c.as_single().expect("Pauli-error scenarios");
            let concrete = single.eval(&mem);
            tab.is_stabilized_by(&concrete)
        });
        if !ok {
            failures += 1;
        }
    }
    SamplingReport {
        samples,
        failures,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn rng_coin<R: Rng>(rng: &mut R) -> bool {
    rng.gen()
}

/// Prepares a stabilizer state of the scenario's LHS generating set — at
/// the parameter values carried in `params` (unset parameters read as 0) —
/// by measuring each generator and, on a −1 outcome, applying that
/// generator's exact *destabilizer*: a Pauli anticommuting with it and
/// commuting with every other LHS element, found by solving the symplectic
/// system `⟨v, lhs_j⟩ = δ_ij` over GF(2). Counterexample replays pass the
/// model's parameter assignment so the prepared codeword matches the
/// violated family member.
pub fn prepare_codeword_state<R: Rng>(scenario: &Scenario, params: &CMem, rng: &mut R) -> Tableau {
    use veriqec_gf2::{BitMatrix, BitVec};
    let n = scenario.num_qubits;
    let m = params;

    // Symplectic matrix with swapped halves: row_j · v = ⟨lhs_j, v⟩.
    let swapped = BitMatrix::from_rows(
        scenario
            .lhs
            .iter()
            .map(|g| g.pauli().z_bits().concat(g.pauli().x_bits()))
            .collect(),
    );
    // One elimination of the columns serves every unit right-hand side.
    let units: Vec<BitVec> = (0..scenario.lhs.len())
        .map(|i| BitVec::from_ones(scenario.lhs.len(), &[i]))
        .collect();
    let destabilizers: Vec<veriqec_pauli::PauliString> = swapped
        .solve(&units)
        .into_iter()
        .map(|v| {
            let v = v.expect("full-rank symplectic system is solvable");
            veriqec_pauli::PauliString::from_symplectic_row(&v)
        })
        .collect();
    let mut tab = Tableau::zero_state(n);
    for (g, destab) in scenario.lhs.iter().zip(&destabilizers) {
        let target = g.eval(m);
        let outcome = tab.measure_pauli(&target, || rng.gen());
        if outcome {
            debug_assert!(destab.anticommutes_with(&target));
            tab.apply_pauli(destab);
        }
    }
    tab
}

/// A faulty-measurement memory protocol compiled for the Pauli-frame
/// sampler: the *same* noise process as
/// [`crate::scenario::faulty_memory_scenario`] — per-qubit data-error sites
/// in [`ErrorModel`] order, then one noisy measurement per schedule site in
/// round-major order — so an error vector for this circuit is
/// `scenario.error_vars` followed by `scenario.meas_error_vars`, index for
/// index.
#[derive(Clone, Debug)]
pub struct FaultyMemoryFrame {
    /// The compiled frame circuit.
    pub circuit: FrameCircuit,
    /// The Pauli applied by each data-error site, in site order (the
    /// single source of truth for residue reconstruction).
    pub data_site_paulis: Vec<PauliString>,
    /// Error-vector suffix length holding the measurement-flip sites.
    pub num_meas_sites: usize,
}

impl FaultyMemoryFrame {
    /// Error-vector prefix length holding the data-error sites.
    pub fn num_data_sites(&self) -> usize {
        self.data_site_paulis.len()
    }
}

/// Compiles the faulty-measurement memory protocol of a code into a frame
/// circuit (see [`FaultyMemoryFrame`] for the site layout). The reference
/// outcomes are all 0: the noiseless run measures stabilizers of the
/// codeword.
pub fn faulty_memory_frame(
    code: &StabilizerCode,
    model: ErrorModel,
    schedule: &ExtractionSchedule,
) -> FaultyMemoryFrame {
    let n = code.n();
    let mut circuit = FrameCircuit::new(n);
    let mut data_site_paulis = Vec::new();
    for (gate, _) in model.gates() {
        for q in 0..n {
            let letter = match gate {
                veriqec_pauli::Gate1::X => 'X',
                veriqec_pauli::Gate1::Z => 'Z',
                _ => 'Y',
            };
            let p = PauliString::single(n, letter, q);
            circuit.error_site(p.clone());
            data_site_paulis.push(p);
        }
    }
    let num_data_sites = circuit.num_error_sites();
    for site in schedule.sites() {
        let op = code.generators()[site.check].pauli().clone();
        if site.noisy {
            circuit.measure_noisy(op, false);
        } else {
            circuit.measure(op, false);
        }
    }
    let num_meas_sites = circuit.num_error_sites() - num_data_sites;
    FaultyMemoryFrame {
        circuit,
        data_site_paulis,
        num_meas_sites,
    }
}

/// Exhaustively validates a faulty-measurement protocol with the
/// bit-sliced frame sampler: every configuration of `≤ t_data` data errors
/// and `≤ t_meas` measurement flips is streamed through the circuit in
/// batches of [`LANES`]` = 64` (one lane per configuration, one
/// `FrameCircuit::sample_batch` pass per batch), each lane's syndrome
/// history decoded with the exact budget-aware space-time decoder per CSS
/// sector, and the residual error checked for stabilizer-ness. Returns the
/// first failing configuration — in budget-ascending enumeration order —
/// as `(data site indices, measurement site indices)`, or `None` when
/// every in-budget configuration recovers.
///
/// This is the sampling-side mirror of the symbolic fault-tolerance
/// verdict: a `Verified` grid point implies `None` here (the concrete
/// decoder is a member of the quantified class), while a frame-found
/// failure at a point refutes correctability constructively.
///
/// # Panics
///
/// Panics when the code is not CSS.
pub fn exhaustive_frame_check(
    code: &StabilizerCode,
    model: ErrorModel,
    rounds: usize,
    t_data: usize,
    t_meas: usize,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let _span = veriqec_obs::span("engine", "frame_sweep");
    let n = code.n();
    let num_checks = code.generators().len();
    let schedule = ExtractionSchedule::repeated(num_checks, rounds);
    let frame = faulty_memory_frame(code, model, &schedule);
    let hx = code.css_hx().expect("CSS code required");
    let hz = code.css_hz().expect("CSS code required");
    let (x_idx, z_idx) = code.css_split().expect("CSS");
    let x_decoder = veriqec_decoder::SpaceTimeDecoder::new(hz, rounds);
    let z_decoder = veriqec_decoder::SpaceTimeDecoder::new(hx, rounds);
    let num_data = frame.num_data_sites();

    // Decodes every lane of one propagated batch; the per-lane work
    // (decode + residue) is unchanged from the single-frame path.
    let check_lanes =
        |masks: &[u64], pending: &[(Vec<usize>, Vec<usize>)]| -> Option<(Vec<usize>, Vec<usize>)> {
            let words = frame.circuit.sample_batch(masks);
            for (lane, (data, meas)) in pending.iter().enumerate() {
                // Split the round-major history into per-sector histories.
                let pick = |idx: &[usize]| -> Vec<bool> {
                    let mut v = Vec::with_capacity(rounds * idx.len());
                    for r in 0..rounds {
                        for &i in idx {
                            v.push(words[r * num_checks + i] >> lane & 1 == 1);
                        }
                    }
                    v
                };
                let (cz, _) = z_decoder.decode_bounded(&pick(&x_idx), t_data, t_meas);
                let (cx, _) = x_decoder.decode_bounded(&pick(&z_idx), t_data, t_meas);
                // Residue = injected error × applied correction, with the
                // frame's own site layout as the source of truth.
                let mut residue = PauliString::identity(n);
                for &i in data {
                    residue = residue.mul(&frame.data_site_paulis[i]);
                }
                for q in cx.iter_ones() {
                    residue = residue.mul(&PauliString::single(n, 'X', q));
                }
                for q in cz.iter_ones() {
                    residue = residue.mul(&PauliString::single(n, 'Z', q));
                }
                if code.group().decompose(&residue).is_none() {
                    return Some((data.clone(), meas.clone()));
                }
            }
            None
        };

    let mut masks = vec![0u64; frame.circuit.num_error_sites()];
    let mut pending: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(LANES);
    for data in SubsetsUpTo::new(num_data, t_data) {
        for meas in SubsetsUpTo::new(frame.num_meas_sites, t_meas) {
            let lane = pending.len();
            for &i in &data {
                masks[i] |= 1 << lane;
            }
            for &j in &meas {
                masks[num_data + j] |= 1 << lane;
            }
            pending.push((data.clone(), meas));
            if pending.len() == LANES {
                if let Some(hit) = check_lanes(&masks, &pending) {
                    return Some(hit);
                }
                masks.iter_mut().for_each(|w| *w = 0);
                pending.clear();
            }
        }
    }
    if pending.is_empty() {
        None
    } else {
        check_lanes(&masks, &pending)
    }
}

/// Streaming enumerator of all subsets of `{0..n}` of size at most `t`, in
/// budget-ascending order: sizes small to large, lexicographic within a
/// size. This is the configuration order of [`exhaustive_frame_check`]'s
/// batched inner loop — configurations are produced one at a time and
/// packed into 64-lane batches, so the full (combinatorially large) set is
/// never materialised.
pub struct SubsetsUpTo {
    n: usize,
    t: usize,
    current: Option<Vec<usize>>,
}

impl SubsetsUpTo {
    /// Creates the enumerator; the first item is always the empty subset.
    pub fn new(n: usize, t: usize) -> Self {
        SubsetsUpTo {
            n,
            t,
            current: Some(Vec::new()),
        }
    }

    /// The combination after `cur`: next in lex order at the same size, or
    /// the first combination of the next size, or `None` past the budget.
    fn successor(&self, cur: &[usize]) -> Option<Vec<usize>> {
        let k = cur.len();
        let mut next = cur.to_vec();
        let mut i = k;
        while i > 0 {
            i -= 1;
            // Slot i may climb to n - k + i, leaving room for the tail.
            if next[i] < self.n - (k - i) {
                next[i] += 1;
                for j in i + 1..k {
                    next[j] = next[j - 1] + 1;
                }
                return Some(next);
            }
        }
        if k < self.t.min(self.n) {
            Some((0..=k).collect())
        } else {
            None
        }
    }
}

impl Iterator for SubsetsUpTo {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.current.take()?;
        self.current = self.successor(&cur);
        Some(cur)
    }
}

/// All subsets of `{0..n}` of size at most `t`, smallest first — the
/// collected form of [`SubsetsUpTo`], kept for callers (and differential
/// tests) that want the whole in-budget configuration list at once.
pub fn subsets_up_to(n: usize, t: usize) -> Vec<Vec<usize>> {
    SubsetsUpTo::new(n, t).collect()
}

/// `log2` of the paper's §7.2 count `Σ_{i} C(n−1, i)·(n−1)^i ≈ n^{n−1}` for
/// the `d = 19` constrained story.
pub fn log2_constrained_configurations(segments: usize, seg_size: usize) -> f64 {
    // Each of `segments` segments independently has (1 + seg_size) choices
    // (no error, or one of seg_size positions).
    (segments as f64) * ((1 + seg_size) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{memory_scenario, ErrorModel};
    use veriqec_codes::steane;
    use veriqec_decoder::{decode_call_oracle, CssLookupDecoder};

    #[test]
    fn sampling_steane_never_fails_within_budget() {
        let code = steane();
        let scenario = memory_scenario(&code, ErrorModel::YErrors);
        let decoder = CssLookupDecoder::for_code(&code, 1);
        let oracle = decode_call_oracle(decoder, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let report = sample_scenario(&scenario, 1, 200, &oracle, &mut rng);
        assert_eq!(report.failures, 0, "single Y errors must always correct");
    }

    #[test]
    fn frame_check_mirrors_the_symbolic_frontier() {
        // The sampling-side view of the textbook result: single-round
        // extraction has a concrete in-budget failure at (1, 1); three
        // rounds recover every in-budget configuration.
        let code = steane();
        let failure = exhaustive_frame_check(&code, ErrorModel::YErrors, 1, 1, 1);
        let (data, meas) = failure.expect("single round must fail at (1,1)");
        assert!(data.len() <= 1 && meas.len() <= 1);
        assert!(
            exhaustive_frame_check(&code, ErrorModel::YErrors, 3, 1, 1).is_none(),
            "three rounds recover every (1,1) configuration"
        );
        // Degenerate budgets recover even in one round.
        assert!(exhaustive_frame_check(&code, ErrorModel::YErrors, 1, 1, 0).is_none());
        assert!(exhaustive_frame_check(&code, ErrorModel::YErrors, 1, 0, 1).is_none());
    }

    #[test]
    fn subsets_enumeration_is_complete() {
        let subs = subsets_up_to(4, 2);
        assert_eq!(subs.len(), 1 + 4 + 6);
        assert!(subs.iter().all(|s| s.len() <= 2));
        let unique: std::collections::HashSet<_> = subs.iter().collect();
        assert_eq!(unique.len(), subs.len());
    }

    #[test]
    fn subsets_stream_in_budget_ascending_order() {
        let subs: Vec<Vec<usize>> = SubsetsUpTo::new(4, 2).collect();
        let expect: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![2],
            vec![3],
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
        ];
        assert_eq!(subs, expect);
        // Degenerate shapes: empty ground set, zero budget, budget > n.
        assert_eq!(subsets_up_to(0, 3), vec![Vec::<usize>::new()]);
        assert_eq!(subsets_up_to(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets_up_to(2, 5).len(), 4);
    }

    #[test]
    fn batched_check_crosses_the_lane_boundary() {
        // Steane + Y errors at (t_data, t_meas) = (2, 1) over 2 rounds:
        // (1 + 21 + 210) · (1 + 12) = 3016 configurations, ~47 full
        // batches — the flush path and the final partial batch both run.
        // Two rounds cannot distinguish a round-2 flip from a data error,
        // so a failure must surface; it is found inside a full batch, and
        // its shape is in budget.
        let code = steane();
        let failure = exhaustive_frame_check(&code, ErrorModel::YErrors, 2, 2, 1);
        let (data, meas) = failure.expect("two rounds under (2,1) must fail");
        assert!(data.len() <= 2 && meas.len() <= 1);
    }

    #[test]
    fn sample_counts_match_paper_story() {
        // d = 19 discreteness: 19 segments of 19 qubits — ~2^76 configs.
        let bits = log2_constrained_configurations(18, 18);
        assert!(bits > 70.0 && bits < 80.0, "{bits}");
    }
}
