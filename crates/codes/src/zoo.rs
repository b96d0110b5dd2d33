//! Small named codes of the benchmark family (Table 3 of the paper).

use crate::{css_code, StabilizerCode};
use veriqec_gf2::{BitMatrix, BitVec};
use veriqec_pauli::{PauliString, StabilizerGroup, SymPauli};

fn gens_from_letters(rows: &[&str]) -> StabilizerGroup {
    StabilizerGroup::new(
        rows.iter()
            .map(|s| SymPauli::plain(PauliString::from_letters(s).expect("valid letters")))
            .collect(),
    )
    .expect("valid generator set")
}

/// The `n`-qubit repetition (bit-flip) code `[[n, 1, n]]` against X errors:
/// generators `Z_i Z_{i+1}`, logicals `Z̄ = Z_0`, `X̄ = X^⊗n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn repetition(n: usize) -> StabilizerCode {
    assert!(n >= 2, "repetition code needs n >= 2");
    let gens: Vec<SymPauli> = (0..n - 1)
        .map(|i| {
            let z1 = PauliString::single(n, 'Z', i);
            let z2 = PauliString::single(n, 'Z', i + 1);
            SymPauli::plain(z1.mul(&z2))
        })
        .collect();
    let group = StabilizerGroup::new(gens).expect("repetition generators");
    let lx = SymPauli::plain(PauliString::from_bits(
        BitVec::from_bools(vec![true; n]),
        BitVec::zeros(n),
        0,
    ));
    let lz = SymPauli::plain(PauliString::single(n, 'Z', 0));
    StabilizerCode::new(
        format!("repetition-{n}"),
        group,
        vec![lx],
        vec![lz],
        Some(1), // distance as a quantum code is 1 (single Z is logical)
    )
}

/// The `[[7,1,3]]` Steane code (§2.2) with the paper's generators.
pub fn steane() -> StabilizerCode {
    let group = gens_from_letters(&[
        "XIXIXIX", "IXXIIXX", "IIIXXXX", "ZIZIZIZ", "IZZIIZZ", "IIIZZZZ",
    ]);
    let lx = SymPauli::plain(PauliString::from_letters("XXXXXXX").unwrap());
    let lz = SymPauli::plain(PauliString::from_letters("ZZZZZZZ").unwrap());
    StabilizerCode::new("Steane [[7,1,3]]", group, vec![lx], vec![lz], Some(3))
}

/// The `[[5,1,3]]` five-qubit perfect code (non-CSS).
pub fn five_qubit() -> StabilizerCode {
    let group = gens_from_letters(&["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]);
    let lx = SymPauli::plain(PauliString::from_letters("XXXXX").unwrap());
    let lz = SymPauli::plain(PauliString::from_letters("ZZZZZ").unwrap());
    StabilizerCode::new("five-qubit [[5,1,3]]", group, vec![lx], vec![lz], Some(3))
}

/// The `[[9,1,3]]` Shor code.
pub fn shor9() -> StabilizerCode {
    let hx = BitMatrix::parse(&["111111000", "000111111"]);
    let hz = BitMatrix::parse(&[
        "110000000",
        "011000000",
        "000110000",
        "000011000",
        "000000110",
        "000000011",
    ]);
    css_code("Shor [[9,1,3]]", &hx, &hz, Some(3)).expect("valid Shor code")
}

/// The `[[6,1,3]]` code of the benchmark, realized as the five-qubit code
/// extended by one stabilized ancilla (`Z` on the extra qubit). This keeps
/// `[[6,1,3]]` parameters exactly; the paper's six-qubit code from
/// Calderbank–Rains–Shor–Sloane is a different (but equivalent-parameter)
/// code — see `DESIGN.md` on substitutions.
pub fn six_qubit() -> StabilizerCode {
    let group = gens_from_letters(&["XZZXII", "IXZZXI", "XIXZZI", "ZXIXZI", "IIIIIZ"]);
    let lx = SymPauli::plain(PauliString::from_letters("XXXXXI").unwrap());
    let lz = SymPauli::plain(PauliString::from_letters("ZZZZZI").unwrap());
    StabilizerCode::new("six-qubit [[6,1,3]]", group, vec![lx], vec![lz], Some(3))
}

/// The `[[4,2,2]]` error-detection code (the smallest member of the
/// iceberg family): stabilizers `X^⊗4`, `Z^⊗4`, logicals
/// `X̄₁ = XXII`, `Z̄₁ = ZIZI`, `X̄₂ = XIXI`, `Z̄₂ = ZZII`. Distance 2 —
/// every single-qubit error is detected, none is correctable — which makes
/// it the smallest nontrivial input for the failure-enumerator backend.
pub fn c4_422() -> StabilizerCode {
    let group = gens_from_letters(&["XXXX", "ZZZZ"]);
    let lx = |s: &str| SymPauli::plain(PauliString::from_letters(s).unwrap());
    StabilizerCode::new(
        "C4 [[4,2,2]]",
        group,
        vec![lx("XXII"), lx("XIXI")],
        vec![lx("ZIZI"), lx("ZZII")],
        Some(2),
    )
}

/// Gottesman's `[[8,3,3]]` code (the `r = 3` member of the
/// `[[2^r, 2^r − r − 2, 3]]` family of Table 3).
pub fn gottesman8() -> StabilizerCode {
    let group = gens_from_letters(&["XXXXXXXX", "ZZZZZZZZ", "IXIXYZYZ", "IXZYIXZY", "IYXZXZIY"]);
    StabilizerCode::with_completed_logicals("Gottesman [[8,3,3]]", group, Some(3))
}

/// The 3D colour code on the cube, `[[8,3,2]]` (Table 3's error-detection
/// entry): `X^⊗8` plus four independent `Z`-faces. Qubit `i` sits at cube
/// vertex with coordinates `(i⁄4, i⁄2 mod 2, i mod 2)`.
pub fn cube_color_822() -> StabilizerCode {
    let n = 8;
    let face = |bits: [usize; 4]| {
        let mut v = BitVec::zeros(n);
        for b in bits {
            v.set(b, true);
        }
        v
    };
    let x_all = {
        let mut v = BitVec::zeros(n);
        for i in 0..n {
            v.set(i, true);
        }
        SymPauli::plain(PauliString::from_bits(v, BitVec::zeros(n), 0))
    };
    let zf =
        |bits: [usize; 4]| SymPauli::plain(PauliString::from_bits(BitVec::zeros(n), face(bits), 0));
    let gens = vec![
        x_all,
        zf([0, 1, 2, 3]), // x = 0 face
        zf([4, 5, 6, 7]), // x = 1 face
        zf([0, 1, 4, 5]), // y = 0 face
        zf([0, 2, 4, 6]), // z = 0 face
    ];
    let group = StabilizerGroup::new(gens).expect("cube code generators");
    StabilizerCode::with_completed_logicals("3D colour [[8,3,2]]", group, Some(2))
}

/// Campbell–Howard-style error-detection code, `k = 1` instance `[[8,3,2]]`
/// (coincides with the cube code).
pub fn campbell_howard_k1() -> StabilizerCode {
    let mut c = cube_color_822();
    c = StabilizerCode::new(
        "Campbell-Howard [[8,3,2]] (k=1)",
        c.group().clone(),
        c.logical_x().to_vec(),
        c.logical_z().to_vec(),
        Some(2),
    );
    c
}

/// A `[[2m, 2m−2−a−b, 2]]` error-detection "pair code": `X^⊗n`, `Z^⊗n` and
/// `a`/`b` pair operators. Used as the scaled stand-in for the triorthogonal
/// and Campbell–Howard families of Table 3 (the verification task — detection
/// of any single-qubit Pauli error — is identical; see `DESIGN.md`).
///
/// # Panics
///
/// Panics unless `a, b < m − 1` and `m >= 2`.
pub fn pair_detection_code(m: usize, a: usize, b: usize) -> StabilizerCode {
    assert!(m >= 2 && a < m - 1 && b < m - 1, "pair code parameters");
    let n = 2 * m;
    let all = BitVec::from_bools(vec![true; n]);
    let pair = |i: usize| BitVec::from_ones(n, &[2 * i, 2 * i + 1]);
    let mut gens = Vec::new();
    gens.push(SymPauli::plain(PauliString::from_bits(
        all.clone(),
        BitVec::zeros(n),
        0,
    )));
    for i in 0..a {
        gens.push(SymPauli::plain(PauliString::from_bits(
            pair(i),
            BitVec::zeros(n),
            0,
        )));
    }
    gens.push(SymPauli::plain(PauliString::from_bits(
        BitVec::zeros(n),
        all,
        0,
    )));
    for i in 0..b {
        gens.push(SymPauli::plain(PauliString::from_bits(
            BitVec::zeros(n),
            pair(i),
            0,
        )));
    }
    let group = StabilizerGroup::new(gens).expect("pair code generators");
    StabilizerCode::with_completed_logicals(
        format!("pair-detection [[{}, {}, 2]]", n, n - 2 - a - b),
        group,
        Some(2),
    )
}

/// The quantum Reed–Muller code `[[2^r − 1, 1, 3]]` (Table 3; `r = 3` is the
/// Steane code): X-checks are the coordinate functions on nonzero points of
/// `F_2^r`, Z-checks are all monomials of degree `≤ r − 2`.
///
/// # Panics
///
/// Panics if `r < 3` or `r > 8`.
pub fn reed_muller(r: usize) -> StabilizerCode {
    assert!((3..=8).contains(&r), "reed_muller supports 3 <= r <= 8");
    let n = (1usize << r) - 1;
    // Point i (1-based value i) has coordinates = bits of i.
    let eval = |mask: u32| -> BitVec {
        // Monomial Π_{j ∈ mask} x_j evaluated at points 1..=n.
        BitVec::from_bools((1..=n as u32).map(|p| p & mask == mask))
    };
    let hx = BitMatrix::from_rows((0..r).map(|j| eval(1 << j)).collect());
    let mut z_rows = Vec::new();
    for mask in 1u32..(1 << r) {
        let deg = mask.count_ones() as usize;
        if deg >= 1 && deg <= r - 2 {
            z_rows.push(eval(mask));
        }
    }
    let hz = BitMatrix::from_rows(z_rows);
    css_code(
        format!("Reed-Muller [[{n},1,3]] (r={r})"),
        &hx,
        &hz,
        Some(3),
    )
    .expect("valid quantum Reed-Muller code")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The representatives symplectic completion picks, one `(X̄_i, Z̄_i)`
    /// pair per line. Scenario encodings depend on them, so any rewrite of
    /// the elimination must keep them.
    fn completed_logicals(code: &StabilizerCode) -> Vec<(String, String)> {
        (code.logical_x().iter().zip(code.logical_z()))
            .map(|(x, z)| (x.pauli().to_string(), z.pauli().to_string()))
            .collect()
    }

    #[test]
    fn completed_logicals_are_pinned() {
        let pairs = |p: &[(&str, &str)]| -> Vec<(String, String)> {
            p.iter().map(|&(x, z)| (x.into(), z.into())).collect()
        };
        assert_eq!(
            completed_logicals(&gottesman8()),
            pairs(&[
                ("XXXXIIII", "ZXIIYIII"),
                ("XXIIXXII", "ZIYXIIII"),
                ("XIXIXIXI", "ZZIXXIII"),
            ])
        );
        assert_eq!(
            completed_logicals(&crate::toric(3)),
            pairs(&[
                ("XXXIIIIIIIIIIIIIII", "ZIIZIIZIIIIIIIIIII"),
                ("IIIIIIIIIXIIXIIXII", "IIIIIIIIIZZZIIIIII"),
            ])
        );
    }

    #[test]
    fn c4_is_valid_distance_2() {
        let c = c4_422();
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (4, 2));
        assert_eq!(c.brute_force_distance(2), Some(2));
        assert!(c.css_split().is_some());
    }

    #[test]
    fn steane_is_valid_distance_3() {
        let c = steane();
        c.validate().unwrap();
        assert_eq!(c.brute_force_distance(3), Some(3));
        assert!(c.css_split().is_some());
    }

    #[test]
    fn five_qubit_is_valid_distance_3() {
        let c = five_qubit();
        c.validate().unwrap();
        assert_eq!(c.brute_force_distance(3), Some(3));
        assert!(c.css_split().is_none());
    }

    #[test]
    fn six_qubit_is_valid_distance_3() {
        let c = six_qubit();
        c.validate().unwrap();
        assert_eq!(c.brute_force_distance(3), Some(3));
    }

    #[test]
    fn shor_is_valid_distance_3() {
        let c = shor9();
        c.validate().unwrap();
        assert_eq!(c.brute_force_distance(3), Some(3));
    }

    #[test]
    fn gottesman8_is_valid_distance_3() {
        let c = gottesman8();
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (8, 3));
        assert_eq!(c.brute_force_distance(3), Some(3));
    }

    #[test]
    fn cube_code_is_valid_distance_2() {
        let c = cube_color_822();
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (8, 3));
        assert_eq!(c.brute_force_distance(2), Some(2));
    }

    #[test]
    fn pair_codes_detect_single_errors() {
        for (m, a, b) in [(7, 5, 5), (7, 3, 3), (4, 2, 2)] {
            let c = pair_detection_code(m, a, b);
            c.validate().unwrap();
            assert_eq!(c.k(), 2 * m - 2 - a - b, "k for m={m},a={a},b={b}");
            assert_eq!(c.brute_force_distance(2), Some(2));
        }
    }

    #[test]
    fn reed_muller_r3_is_steane() {
        let rm = reed_muller(3);
        rm.validate().unwrap();
        assert_eq!((rm.n(), rm.k()), (7, 1));
        assert_eq!(rm.brute_force_distance(3), Some(3));
    }

    #[test]
    fn reed_muller_r4_parameters() {
        let rm = reed_muller(4);
        rm.validate().unwrap();
        assert_eq!((rm.n(), rm.k()), (15, 1));
        assert_eq!(rm.brute_force_distance(3), Some(3));
    }

    #[test]
    fn repetition_detects_x_errors() {
        let c = repetition(5);
        c.validate().unwrap();
        // Any X error of weight <= 2 is detected.
        let mut undetected_x = 0;
        crate::enumerate_errors(5, 1, &mut |e| {
            if e.z_bits().is_zero() && c.group().is_undetected(e) {
                undetected_x += 1;
            }
        });
        assert_eq!(undetected_x, 0);
    }
}

/// A `[[12,2,4]]` stabilizer code standing in for Table 3's carbon code
/// (same parameters `n`, `k`, `d`; the published carbon code's exact
/// generators are not reproduced here). Discovered by the random-Clifford
/// search in [`crate::search`] (see the `search_codes` binary) and verified
/// to have distance exactly 4 by brute force.
pub fn carbon_12_2_4() -> StabilizerCode {
    let group = gens_from_letters(&[
        "XIYYXXZZZZYY",
        "XIZIXYZXYYZI",
        "ZYXZXZIIXXYI",
        "IXXIIYXZZXXZ",
        "XYIXIXXYZXYI",
        "IXYZZYIIZXZZ",
        "XZXIYXZXZYIY",
        "ZXYZXYXZIYIZ",
        "YZYXYXXYYYIZ",
        "ZXXXZXIZXXYY",
    ]);
    let lx = [
        SymPauli::plain(PauliString::from_letters("XIIXIIIXXXII").unwrap()),
        SymPauli::plain(PauliString::from_letters("YXXYXXIXIXII").unwrap()),
    ];
    let lz = [
        SymPauli::plain(PauliString::from_letters("YIXIIXXXIIII").unwrap()),
        SymPauli::plain(PauliString::from_letters("IIIXIIIIXIXX").unwrap()),
    ];
    StabilizerCode::new(
        "carbon-substitute [[12,2,4]] (searched)",
        group,
        lx.to_vec(),
        lz.to_vec(),
        Some(4),
    )
}

#[cfg(test)]
mod carbon_tests {
    use super::*;

    #[test]
    fn carbon_substitute_is_valid_distance_4() {
        let c = carbon_12_2_4();
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (12, 2));
        assert_eq!(c.brute_force_distance(4), Some(4));
    }
}
