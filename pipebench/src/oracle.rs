//! Known answers. Every verdict is checked here before any number is
//! printed: a wrong verdict is an `Err` (the run exits 1); an
//! inconclusive one is `Ok(false)` (counted as failed, not as wrong).

use veriqec::engine::{FaultToleranceFrontier, JobOutcome};
use veriqec::tasks::DistanceOutcome;
use veriqec_vcgen::VcOutcome;

/// Total failure configurations of an `[[n,k]]` code, `2^{n+k} − 2^{n−k}`,
/// computed as `(2^{2k} − 1)·2^{n−k}` so that `n + k = 128` (e.g.
/// `repetition(127)`) does not overflow. `None` past `u128`.
pub fn failure_total(n: usize, k: usize) -> Option<u128> {
    if k >= 64 || k > n {
        return None;
    }
    let cosets = (1u128 << (2 * k)) - 1;
    let shift = u32::try_from(n - k).ok().filter(|&s| s < 128)?;
    let base = 1u128 << shift;
    if cosets.leading_zeros() < shift {
        return None;
    }
    Some(cosets * base)
}

/// The fault-tolerance frontier rule for a distance-`d` code under `r`
/// extraction rounds: a data budget beyond `⌊(d−1)/2⌋` fails; with no
/// data errors or no measurement flips the point verifies; otherwise
/// repeated extraction must out-vote the flips, `r ≥ 2·t_m + 1`.
pub fn frontier_point(d: usize, rounds: usize, t_data: usize, t_meas: usize) -> bool {
    t_data <= (d - 1) / 2 && (t_data == 0 || t_meas == 0 || rounds > 2 * t_meas)
}

/// Checks a one-shot correction verdict: `proof` expects Verified, a
/// bug-finding instance expects a CounterExample.
pub fn correction(label: &str, proof: bool, outcome: &VcOutcome) -> Result<bool, String> {
    match (outcome, proof) {
        (VcOutcome::Verified, true) | (VcOutcome::CounterExample(_), false) => Ok(true),
        (VcOutcome::Unknown, _) => Ok(false),
        (got, _) => Err(format!(
            "{label}: expected {}, got {}",
            if proof { "Verified" } else { "CounterExample" },
            vc_tag(got)
        )),
    }
}

fn vc_tag(o: &VcOutcome) -> &'static str {
    match o {
        VcOutcome::Verified => "Verified",
        VcOutcome::CounterExample(_) => "CounterExample",
        VcOutcome::Unknown => "Unknown",
    }
}

/// Checks an engine correction job the same way.
pub fn correction_job(label: &str, proof: bool, outcome: &JobOutcome) -> Result<bool, String> {
    let vc = match outcome {
        JobOutcome::Verified => VcOutcome::Verified,
        JobOutcome::CounterExample(m) => VcOutcome::CounterExample(m.clone()),
        JobOutcome::Unknown | JobOutcome::Cancelled => return Ok(false),
        other => {
            return Err(format!(
                "{label}: expected a correction verdict, got {other:?}"
            ))
        }
    };
    correction(label, proof, &vc)
}

/// Checks a distance sweep: `Exact(claimed)`.
pub fn distance(label: &str, claimed: usize, outcome: &DistanceOutcome) -> Result<bool, String> {
    match outcome {
        DistanceOutcome::Exact(d) if *d == claimed => Ok(true),
        DistanceOutcome::Inconclusive { .. } => Ok(false),
        other => Err(format!("{label}: expected Exact({claimed}), got {other:?}")),
    }
}

/// Checks a frontier against [`frontier_point`] on the full grid.
pub fn frontier(
    label: &str,
    d: usize,
    rounds: usize,
    max: (usize, usize),
    f: &FaultToleranceFrontier,
) -> Result<bool, String> {
    let mut conclusive = true;
    for td in 0..=max.0 {
        for tm in 0..=max.1 {
            let want = frontier_point(d, rounds, td, tm);
            match f.correctable(td, tm) {
                Some(got) if got == want => {}
                Some(got) => {
                    return Err(format!(
                        "{label}: frontier point (t_d={td}, t_m={tm}) read {got}, expected {want}"
                    ))
                }
                None => conclusive = false,
            }
        }
    }
    Ok(conclusive)
}

/// Checks a failure weight enumerator: minimum weight equals the claimed
/// distance, the total equals [`failure_total`], and (when given) every
/// coefficient matches.
pub fn enumerator(
    label: &str,
    n: usize,
    k: usize,
    claimed: usize,
    coefficients: &[u128],
    pinned: Option<&[u128]>,
) -> Result<(), String> {
    let min_weight = coefficients.iter().position(|&c| c > 0);
    if min_weight != Some(claimed) {
        return Err(format!(
            "{label}: minimum failure weight {min_weight:?}, expected {claimed}"
        ));
    }
    let total = coefficients
        .iter()
        .try_fold(0u128, |acc, &c| acc.checked_add(c))
        .ok_or_else(|| format!("{label}: coefficient sum overflows u128"))?;
    let want = failure_total(n, k).ok_or_else(|| format!("{label}: total exceeds u128"))?;
    if total != want {
        return Err(format!("{label}: total {total}, expected {want}"));
    }
    if let Some(pinned) = pinned {
        if coefficients != pinned {
            return Err(format!(
                "{label}: coefficients {coefficients:?}, expected {pinned:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_matches_group_counting_and_survives_n_plus_k_128() {
        // Steane [[7,1]]: 2^8 - 2^6.
        assert_eq!(failure_total(7, 1), Some(256 - 64));
        // Carbon [[12,2]].
        assert_eq!(failure_total(12, 2), Some((1 << 14) - (1 << 10)));
        // repetition(127): n + k = 128, where 1u128 << (n + k) overflows.
        assert_eq!(failure_total(127, 1), Some(3u128 << 126));
        assert_eq!(failure_total(130, 1), None);
    }

    #[test]
    fn frontier_rule_reproduces_the_probe_grid() {
        // surface-5, r = 1, up to (2,1): y y y n y n.
        let got: Vec<bool> = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
            .iter()
            .map(|&(td, tm)| frontier_point(5, 1, td, tm))
            .collect();
        assert_eq!(got, [true, true, true, false, true, false]);
        assert!(frontier_point(3, 3, 1, 1));
        assert!(!frontier_point(3, 2, 1, 1));
    }

    #[test]
    fn wrong_answers_are_errors_and_unknowns_are_failures() {
        assert_eq!(correction("x", true, &VcOutcome::Verified), Ok(true));
        assert!(correction("x", false, &VcOutcome::Verified).is_err());
        assert_eq!(correction("x", true, &VcOutcome::Unknown), Ok(false));
        assert!(
            correction_job("x", true, &JobOutcome::CounterExample(Default::default())).is_err()
        );
        assert_eq!(
            correction_job("x", false, &JobOutcome::CounterExample(Default::default())),
            Ok(true)
        );
        assert!(distance("x", 3, &DistanceOutcome::Exact(4)).is_err());
        assert!(distance("x", 3, &DistanceOutcome::AtLeast(4)).is_err());
        let steane = [0u128, 0, 0, 21, 0, 0, 0, 170];
        assert!(
            enumerator("x", 7, 1, 3, &steane, None).is_err(),
            "wrong total"
        );
        assert!(
            enumerator("x", 7, 1, 4, &[0, 0, 0, 1], None).is_err(),
            "wrong distance"
        );
    }
}
