//! Multi-round syndrome-extraction schedules.
//!
//! Repeated measurement is the standard defence against measurement errors:
//! a single flipped readout corrupts one round of the syndrome history, and
//! with enough repetitions the decoder can tell a flipped record from a real
//! data error (cf. Chen et al., "Verifying Fault-Tolerance of Quantum Error
//! Correction Codes", arXiv:2501.14380). An [`ExtractionSchedule`] is the
//! *shared description* of such a protocol — which check is measured in
//! which round, and whether that measurement carries a flip indicator — and
//! is consumed by every backend that must agree on the noise process: the
//! scenario/program builder (`veriqec::scenario`), the Pauli-frame sampler
//! circuit (`veriqec_qsim::frame` via `veriqec::sampling`), and the
//! faulty-detection assembly (`veriqec::enumerator`); the space-time
//! decoder (`veriqec_decoder::SpaceTimeDecoder`) sees only the schedule's
//! round count and history order.

/// One measurement site of a schedule: check `check` measured in round
/// `round`, with or without a measurement-flip indicator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasurementSite {
    /// Extraction round (0-based).
    pub round: usize,
    /// Check (generator) index within the code.
    pub check: usize,
    /// Whether this site's readout may flip (gets a fresh indicator).
    pub noisy: bool,
}

/// An `r`-round syndrome-extraction schedule over a fixed check set.
///
/// Rounds are full: every round measures every check, in check order. The
/// flattened site order (round-major, check-minor) is the canonical layout
/// of the syndrome *history* every consumer uses — decoder inputs, frame
/// circuit measurement order, and the VC's syndrome variables all follow it.
/// Noise is schedule-wide: either every site carries a flip indicator
/// ([`ExtractionSchedule::repeated`]) or none does
/// ([`ExtractionSchedule::perfect`]); the decoder-spec layer pairs claimed
/// flips with syndromes positionally and does not support mixed schedules.
///
/// # Examples
///
/// ```
/// use veriqec_codes::ExtractionSchedule;
/// let sched = ExtractionSchedule::repeated(3, 2);
/// assert_eq!(sched.num_sites(), 6);
/// assert_eq!(sched.history_index(1, 2), 5);
/// assert!(sched.sites().all(|s| s.noisy));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtractionSchedule {
    num_checks: usize,
    rounds: usize,
    noisy: bool,
}

impl ExtractionSchedule {
    /// A single perfect-measurement round (the paper's original model).
    pub fn perfect(num_checks: usize) -> Self {
        ExtractionSchedule {
            num_checks,
            rounds: 1,
            noisy: false,
        }
    }

    /// `rounds` rounds, every measurement faulty (a fresh flip indicator per
    /// site).
    ///
    /// # Panics
    ///
    /// Panics when `rounds` is zero.
    pub fn repeated(num_checks: usize, rounds: usize) -> Self {
        assert!(rounds > 0, "at least one extraction round");
        ExtractionSchedule {
            num_checks,
            rounds,
            noisy: true,
        }
    }

    /// Number of checks measured per round.
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Number of extraction rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether measurements carry flip indicators.
    pub fn is_noisy(&self) -> bool {
        self.noisy
    }

    /// Total number of measurement sites (`rounds × num_checks`).
    pub fn num_sites(&self) -> usize {
        self.rounds * self.num_checks
    }

    /// Position of `(round, check)` in the flattened syndrome history.
    ///
    /// # Panics
    ///
    /// Panics when the round or check index is out of range.
    pub fn history_index(&self, round: usize, check: usize) -> usize {
        assert!(round < self.rounds && check < self.num_checks);
        round * self.num_checks + check
    }

    /// Iterates the sites in history order (round-major, check-minor).
    pub fn sites(&self) -> impl Iterator<Item = MeasurementSite> + '_ {
        (0..self.rounds).flat_map(move |round| {
            (0..self.num_checks).map(move |check| MeasurementSite {
                round,
                check,
                noisy: self.noisy,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_schedule_is_one_quiet_round() {
        let s = ExtractionSchedule::perfect(4);
        assert_eq!((s.rounds(), s.num_checks(), s.num_sites()), (1, 4, 4));
        assert!(!s.is_noisy());
        let sites: Vec<_> = s.sites().collect();
        assert_eq!(sites.len(), 4);
        assert!(sites.iter().all(|site| !site.noisy && site.round == 0));
    }

    #[test]
    fn history_order_is_round_major() {
        let s = ExtractionSchedule::repeated(3, 2);
        let sites: Vec<_> = s.sites().collect();
        assert_eq!(
            sites[4],
            MeasurementSite {
                round: 1,
                check: 1,
                noisy: true
            }
        );
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(s.history_index(site.round, site.check), i);
        }
    }

    #[test]
    #[should_panic(expected = "at least one extraction round")]
    fn zero_rounds_is_rejected() {
        let _ = ExtractionSchedule::repeated(2, 0);
    }
}
