//! Code search: random stabilizer codes via random Clifford circuits, and a
//! cyclic-GF(4) search used to (re)discover the `[[11,1,5]]` dodecacode-type
//! code of Table 3. Found generator sets are hardcoded in `zoo`-style
//! constructors and re-verified by tests.

use rand::prelude::*;
use veriqec_gf2::{BitVec, RowBasis};
use veriqec_pauli::{Gate1, Gate2, PauliString, StabilizerGroup, SymPauli};

use crate::StabilizerCode;

/// Generates a uniform-ish random `[[n, k]]` stabilizer code by conjugating
/// the trivial code `⟨Z_0, …, Z_{n−k−1}⟩` with a random Clifford circuit.
pub fn random_code<R: Rng>(n: usize, k: usize, rng: &mut R) -> StabilizerCode {
    assert!(k < n, "need k < n");
    let mut gens: Vec<SymPauli> = (0..n - k)
        .map(|i| SymPauli::plain(PauliString::single(n, 'Z', i)))
        .collect();
    let gates = 3 * n * n;
    for _ in 0..gates {
        match rng.gen_range(0..3) {
            0 => {
                let q = rng.gen_range(0..n);
                let g = *[Gate1::H, Gate1::S].choose(rng).expect("nonempty");
                for p in &mut gens {
                    p.conjugate(|s| s.conjugate1(g.inverse(), q));
                }
            }
            _ => {
                let i = rng.gen_range(0..n);
                let mut j = rng.gen_range(0..n);
                while j == i {
                    j = rng.gen_range(0..n);
                }
                let g = *[Gate2::Cnot, Gate2::Cz].choose(rng).expect("nonempty");
                for p in &mut gens {
                    p.conjugate(|s| s.conjugate2(g.inverse(), i, j));
                }
            }
        }
    }
    let group = StabilizerGroup::new(gens).expect("Clifford image of a valid group");
    StabilizerCode::with_completed_logicals(format!("random [[{n},{k}]]"), group, None)
}

/// Searches random codes until one with exact distance `d` is found (checked
/// by brute force), up to `attempts` tries.
pub fn search_random_code<R: Rng>(
    n: usize,
    k: usize,
    d: usize,
    attempts: usize,
    rng: &mut R,
) -> Option<StabilizerCode> {
    for _ in 0..attempts {
        let code = random_code(n, k, rng);
        if code.brute_force_distance(d) == Some(d) {
            return Some(code);
        }
    }
    None
}

/// A candidate cyclic GF(4) code: the seed Pauli's X/Z support masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CyclicSeed {
    /// X-part bit mask of the length-`n` seed row.
    pub x_mask: u32,
    /// Z-part bit mask.
    pub z_mask: u32,
}

fn rotate(mask: u32, by: usize, n: usize) -> u32 {
    let m = (1u32 << n) - 1;
    ((mask << by) | (mask >> (n - by))) & m
}

fn symplectic_zero(ax: u32, az: u32, bx: u32, bz: u32) -> bool {
    (((ax & bz).count_ones() + (az & bx).count_ones()) & 1) == 0
}

/// Builds the stabilizer group generated by all cyclic shifts of the seed,
/// pruned to an independent generating set. Returns `None` when shifts
/// anticommute or the rank is not `n − 1` (we target `k = 1` codes).
pub fn cyclic_code(n: usize, seed: CyclicSeed) -> Option<StabilizerCode> {
    assert!(n <= 31, "mask-based search limited to n <= 31");
    // Commutation of the seed with each of its shifts implies pairwise
    // commutation of all shifts (the symplectic form is shift-invariant).
    for j in 1..n {
        let bx = rotate(seed.x_mask, j, n);
        let bz = rotate(seed.z_mask, j, n);
        if !symplectic_zero(seed.x_mask, seed.z_mask, bx, bz) {
            return None;
        }
    }
    let rows: Vec<BitVec> = (0..n)
        .map(|j| {
            let bx = rotate(seed.x_mask, j, n);
            let bz = rotate(seed.z_mask, j, n);
            let mut v = BitVec::zeros(2 * n);
            for q in 0..n {
                if bx >> q & 1 == 1 {
                    v.set(q, true);
                }
                if bz >> q & 1 == 1 {
                    v.set(n + q, true);
                }
            }
            v
        })
        .collect();
    // Keep an independent subset; the shifts must have rank n − 1.
    let mut basis = RowBasis::new(2 * n, 2 * n);
    let gens: Vec<SymPauli> = rows
        .into_iter()
        .filter(|row| basis.insert(row.clone()).is_ok())
        .map(|row| SymPauli::plain(PauliString::from_symplectic_row(&row)))
        .collect();
    if gens.len() != n - 1 {
        return None;
    }
    let group = StabilizerGroup::new(gens).ok()?;
    Some(StabilizerCode::with_completed_logicals(
        format!("cyclic [[{n},1]]"),
        group,
        None,
    ))
}

/// Exhaustively searches cyclic `[[n, 1, d]]` codes (all GF(4) seed rows) and
/// returns the first seed achieving exact distance `d`.
///
/// Used offline (see the `search_codes` binary) to find the `[[11,1,5]]`
/// instance hardcoded in the code zoo.
pub fn search_cyclic(n: usize, d: usize) -> Option<(CyclicSeed, StabilizerCode)> {
    assert!(n <= 16, "exhaustive search limited to n <= 16");
    for x_mask in 0u32..1 << n {
        for z_mask in 0u32..1 << n {
            if x_mask == 0 && z_mask == 0 {
                continue;
            }
            let seed = CyclicSeed { x_mask, z_mask };
            let Some(code) = cyclic_code(n, seed) else {
                continue;
            };
            // Cheap filter: seed weight must be >= d (a stabilizer of weight
            // < d would not immediately disqualify, but low-weight seeds
            // rarely reach high distance; full check below is exact anyway).
            if code.brute_force_distance(d - 1).is_some() {
                continue;
            }
            if code.brute_force_distance(d) == Some(d) {
                return Some((seed, code));
            }
        }
    }
    None
}

/// Minimum weight of an undetected logical error, capped at `cap + 1`
/// (returns `cap + 1` when no logical of weight `≤ cap` exists).
pub fn min_logical_weight(code: &StabilizerCode, cap: usize) -> usize {
    code.brute_force_distance(cap).unwrap_or(cap + 1)
}

/// Hill-climbs the code distance: starting from a random `[[n, k]]` code,
/// repeatedly conjugates the generator set by random Clifford gates, keeping
/// moves that do not decrease the minimum logical weight. Returns the first
/// code reaching distance exactly `target_d`.
///
/// Used offline to discover the `[[11,1,5]]` benchmark instance.
pub fn hill_climb_distance<R: Rng>(
    n: usize,
    k: usize,
    target_d: usize,
    restarts: usize,
    steps_per_restart: usize,
    rng: &mut R,
) -> Option<StabilizerCode> {
    for _ in 0..restarts {
        let mut code = random_code(n, k, rng);
        let mut score = min_logical_weight(&code, target_d);
        for _ in 0..steps_per_restart {
            if score >= target_d && code.brute_force_distance(target_d) == Some(target_d) {
                return Some(code);
            }
            // Random Clifford move applied to all generators.
            let mut gens: Vec<SymPauli> = code.group().generators().to_vec();
            match rng.gen_range(0..3) {
                0 => {
                    let q = rng.gen_range(0..n);
                    let g = *[Gate1::H, Gate1::S].choose(rng).expect("nonempty");
                    for p in &mut gens {
                        p.conjugate(|s| s.conjugate1(g.inverse(), q));
                    }
                }
                _ => {
                    let i = rng.gen_range(0..n);
                    let mut j = rng.gen_range(0..n);
                    while j == i {
                        j = rng.gen_range(0..n);
                    }
                    let g = *[Gate2::Cnot, Gate2::Cz].choose(rng).expect("nonempty");
                    for p in &mut gens {
                        p.conjugate(|s| s.conjugate2(g.inverse(), i, j));
                    }
                }
            }
            let group = StabilizerGroup::new(gens).expect("Clifford image stays valid");
            let cand = StabilizerCode::with_completed_logicals("candidate", group, None);
            let cand_score = min_logical_weight(&cand, target_d);
            if cand_score >= score {
                code = cand;
                score = cand_score;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_codes_are_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        for (n, k) in [(4, 1), (5, 2), (6, 3)] {
            let c = random_code(n, k, &mut rng);
            c.validate().unwrap();
            assert_eq!((c.n(), c.k()), (n, k));
        }
    }

    #[test]
    fn cyclic_five_qubit_code_rediscovered() {
        // The [[5,1,3]] code is cyclic with seed XZZXI.
        let seed = CyclicSeed {
            x_mask: 0b01001,
            z_mask: 0b00110,
        };
        let code = cyclic_code(5, seed).expect("valid cyclic code");
        assert_eq!((code.n(), code.k()), (5, 1));
        assert_eq!(code.brute_force_distance(3), Some(3));
    }

    #[test]
    fn search_small_cyclic_finds_513() {
        let (_, code) = search_cyclic(5, 3).expect("the 5-qubit code exists");
        assert_eq!(code.brute_force_distance(3), Some(3));
    }
}
