//! Rotated surface codes (Fig. 5 of the paper) and the XZZX variant.

use crate::css::{x_type, z_type};
use crate::StabilizerCode;
use veriqec_gf2::BitVec;
use veriqec_pauli::{Gate1, StabilizerGroup, SymPauli};

/// The distance-`d` rotated surface code `[[d², 1, d]]` on a `d × d` grid of
/// data qubits (qubit `(r, c)` has index `r·d + c`).
///
/// Faces of the extended grid at `(i, j)`, `0 ≤ i, j ≤ d`, touch the data
/// qubits `{(r, c) : r ∈ {i−1, i} ∩ [0, d), c ∈ {j−1, j} ∩ [0, d)}`; a face
/// is X-type when `i + j` is even, Z-type when odd. Interior faces (weight 4)
/// are always kept; weight-2 X faces only on the top/bottom boundary, weight-2
/// Z faces only on the left/right boundary. Logical `X̄` is an X-string down
/// column 0, logical `Z̄` a Z-string across row 0.
///
/// # Panics
///
/// Panics unless `d` is odd and `d ≥ 3`.
pub fn rotated_surface(d: usize) -> StabilizerCode {
    assert!(
        d >= 3 && d % 2 == 1,
        "rotated surface code needs odd d >= 3"
    );
    let n = d * d;
    let qubit = |r: usize, c: usize| r * d + c;
    let mut x_rows: Vec<BitVec> = Vec::new();
    let mut z_rows: Vec<BitVec> = Vec::new();
    for i in 0..=d {
        for j in 0..=d {
            let mut support = Vec::new();
            for r in [i.wrapping_sub(1), i] {
                for c in [j.wrapping_sub(1), j] {
                    if r < d && c < d {
                        support.push(qubit(r, c));
                    }
                }
            }
            let x_type = (i + j) % 2 == 0;
            let keep = match support.len() {
                4 => true,
                2 => {
                    if x_type {
                        i == 0 || i == d
                    } else {
                        j == 0 || j == d
                    }
                }
                _ => false,
            };
            if !keep {
                continue;
            }
            let row = BitVec::from_ones(n, &support);
            if x_type {
                x_rows.push(row);
            } else {
                z_rows.push(row);
            }
        }
    }
    debug_assert_eq!(x_rows.len() + z_rows.len(), n - 1);
    let gens = x_rows.iter().map(x_type).chain(z_rows.iter().map(z_type));
    let group = StabilizerGroup::new(gens.collect()).expect("valid rotated surface code");
    // The canonical string operators as logicals.
    let lx = x_type(&BitVec::from_ones(
        n,
        &(0..d).map(|r| qubit(r, 0)).collect::<Vec<_>>(),
    ));
    let lz = z_type(&BitVec::from_ones(
        n,
        &(0..d).map(|c| qubit(0, c)).collect::<Vec<_>>(),
    ));
    let code = StabilizerCode::new(
        format!("rotated surface d={d}"),
        group,
        vec![lx],
        vec![lz],
        Some(d),
    );
    code.validate().expect("canonical surface logicals");
    code
}

/// The XZZX surface code `[[d², 1, d]]` (Table 3), obtained from the rotated
/// surface code by conjugating every generator and logical with Hadamards on
/// the odd-checkerboard qubits — the standard local-Clifford equivalence,
/// which preserves parameters by construction.
///
/// # Panics
///
/// Panics unless `d` is odd and `d ≥ 3`.
pub fn xzzx_surface(d: usize) -> StabilizerCode {
    let base = rotated_surface(d);
    let n = base.n();
    let conj_all = |p: &SymPauli| -> SymPauli {
        let mut out = p.clone();
        out.conjugate(|s| {
            for q in (0..n).filter(|q| (q / d + q % d) % 2 == 1) {
                s.conjugate1(Gate1::H, q);
            }
        });
        out
    };
    let gens: Vec<SymPauli> = base.generators().iter().map(&conj_all).collect();
    let group = StabilizerGroup::new(gens).expect("conjugated generators stay valid");
    let lx: Vec<SymPauli> = base.logical_x().iter().map(&conj_all).collect();
    let lz: Vec<SymPauli> = base.logical_z().iter().map(&conj_all).collect();
    let code = StabilizerCode::new(format!("XZZX surface d={d}"), group, lx, lz, Some(d));
    debug_assert_eq!(code.n(), n);
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3_surface_structure() {
        let c = rotated_surface(3);
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (9, 1));
        let (xs, zs) = c.css_split().unwrap();
        assert_eq!(xs.len(), 4);
        assert_eq!(zs.len(), 4);
        // All stabilizers have weight 2 or 4.
        for g in c.generators() {
            let w = g.pauli().weight();
            assert!(w == 2 || w == 4, "weight {w}");
        }
        assert_eq!(c.brute_force_distance(3), Some(3));
    }

    #[test]
    fn d5_surface_structure() {
        let c = rotated_surface(5);
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (25, 1));
        assert_eq!(c.generators().len(), 24);
        // Distance 5: no logical error of weight <= 3 (weight-4 check is
        // expensive; full d=5 confirmation is done by the SAT detection task).
        assert_eq!(c.brute_force_distance(3), None);
    }

    #[test]
    fn xzzx_d3_is_valid_non_css() {
        let c = xzzx_surface(3);
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (9, 1));
        // Mixed-type stabilizers: not CSS in the strict split sense.
        assert!(c.css_split().is_none());
        assert_eq!(c.brute_force_distance(3), Some(3));
    }
}
