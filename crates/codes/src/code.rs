//! The stabilizer-code type: generators, logical operators, validation and
//! exact (brute-force) distance for small codes.

use std::fmt;
use veriqec_gf2::BitMatrix;
use veriqec_pauli::{PauliString, StabilizerGroup, SymPauli};

/// An `[[n, k, d]]` stabilizer code: a validated stabilizer group plus a
/// chosen set of logical operator representatives.
///
/// # Examples
///
/// ```
/// use veriqec_codes::steane;
/// let code = steane();
/// assert_eq!((code.n(), code.k()), (7, 1));
/// assert_eq!(code.claimed_distance(), Some(3));
/// code.validate().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct StabilizerCode {
    name: String,
    group: StabilizerGroup,
    logical_x: Vec<SymPauli>,
    logical_z: Vec<SymPauli>,
    claimed_distance: Option<usize>,
}

/// Error from [`StabilizerCode::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeValidationError {
    /// Description of the violated invariant.
    pub message: String,
}

impl fmt::Display for CodeValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid stabilizer code: {}", self.message)
    }
}

impl std::error::Error for CodeValidationError {}

impl StabilizerCode {
    /// Assembles a code from a validated group and explicit logicals.
    ///
    /// Prefer [`StabilizerCode::with_completed_logicals`] when no canonical
    /// representatives are known.
    pub fn new(
        name: impl Into<String>,
        group: StabilizerGroup,
        logical_x: Vec<SymPauli>,
        logical_z: Vec<SymPauli>,
        claimed_distance: Option<usize>,
    ) -> Self {
        StabilizerCode {
            name: name.into(),
            group,
            logical_x,
            logical_z,
            claimed_distance,
        }
    }

    /// Assembles a code, deriving logical operators by symplectic completion.
    pub fn with_completed_logicals(
        name: impl Into<String>,
        group: StabilizerGroup,
        claimed_distance: Option<usize>,
    ) -> Self {
        let pairs = group.logical_operators();
        let (lx, lz) = pairs.into_iter().unzip();
        StabilizerCode::new(name, group, lx, lz, claimed_distance)
    }

    /// The code's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn n(&self) -> usize {
        self.group.num_qubits()
    }

    /// Number of logical qubits.
    pub fn k(&self) -> usize {
        self.group.num_logical_qubits()
    }

    /// The distance claimed by the construction (verified separately by the
    /// detection task).
    pub fn claimed_distance(&self) -> Option<usize> {
        self.claimed_distance
    }

    /// The stabilizer group.
    pub fn group(&self) -> &StabilizerGroup {
        &self.group
    }

    /// Stabilizer generators.
    pub fn generators(&self) -> &[SymPauli] {
        self.group.generators()
    }

    /// Logical `X̄_i` representatives.
    pub fn logical_x(&self) -> &[SymPauli] {
        &self.logical_x
    }

    /// Logical `Z̄_i` representatives.
    pub fn logical_z(&self) -> &[SymPauli] {
        &self.logical_z
    }

    /// Checks all structural invariants: generator commutation and
    /// independence (already enforced by [`StabilizerGroup`]), logical
    /// counts, commutation of logicals with generators, and the canonical
    /// anticommutation pattern `X̄_i Z̄_j = (−1)^{δ_ij} Z̄_j X̄_i`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeValidationError`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), CodeValidationError> {
        let k = self.k();
        if self.logical_x.len() != k || self.logical_z.len() != k {
            return Err(CodeValidationError {
                message: format!(
                    "expected {k} logical pairs, got {}/{}",
                    self.logical_x.len(),
                    self.logical_z.len()
                ),
            });
        }
        for (i, l) in self.logical_x.iter().chain(&self.logical_z).enumerate() {
            if l.num_qubits() != self.n() {
                return Err(CodeValidationError {
                    message: format!("logical {i} acts on wrong qubit count"),
                });
            }
            for (j, g) in self.generators().iter().enumerate() {
                if l.pauli().anticommutes_with(g.pauli()) {
                    return Err(CodeValidationError {
                        message: format!("logical {i} anticommutes with generator {j}"),
                    });
                }
            }
            if self.group.decompose(l.pauli()).is_some() {
                return Err(CodeValidationError {
                    message: format!("logical {i} lies inside the stabilizer group"),
                });
            }
        }
        for i in 0..k {
            for j in 0..k {
                let anti_xz = self.logical_x[i]
                    .pauli()
                    .anticommutes_with(self.logical_z[j].pauli());
                if anti_xz != (i == j) {
                    return Err(CodeValidationError {
                        message: format!("X̄_{i} / Z̄_{j} commutation pattern wrong"),
                    });
                }
                if i != j
                    && (self.logical_x[i]
                        .pauli()
                        .anticommutes_with(self.logical_x[j].pauli())
                        || self.logical_z[i]
                            .pauli()
                            .anticommutes_with(self.logical_z[j].pauli()))
                {
                    return Err(CodeValidationError {
                        message: format!("logicals {i}/{j} of equal type anticommute"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Splits the generators into pure-X-type and pure-Z-type rows if the
    /// code is CSS; returns `(x_type_indices, z_type_indices)`.
    pub fn css_split(&self) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut xs = Vec::new();
        let mut zs = Vec::new();
        for (i, g) in self.generators().iter().enumerate() {
            let has_x = !g.pauli().x_bits().is_zero();
            let has_z = !g.pauli().z_bits().is_zero();
            match (has_x, has_z) {
                (true, false) => xs.push(i),
                (false, true) => zs.push(i),
                _ => return None,
            }
        }
        Some((xs, zs))
    }

    /// The X-type parity-check matrix (rows = X-type generators' supports),
    /// for CSS codes. A code with no X-type generators yields a `0 × n`
    /// matrix.
    pub fn css_hx(&self) -> Option<BitMatrix> {
        let (xs, _) = self.css_split()?;
        let mut m = BitMatrix::zeros(0, self.n());
        for &i in &xs {
            m.push_row(self.generators()[i].pauli().x_bits().clone());
        }
        Some(m)
    }

    /// The Z-type parity-check matrix, for CSS codes (`0 × n` when there are
    /// no Z-type generators).
    pub fn css_hz(&self) -> Option<BitMatrix> {
        let (_, zs) = self.css_split()?;
        let mut m = BitMatrix::zeros(0, self.n());
        for &i in &zs {
            m.push_row(self.generators()[i].pauli().z_bits().clone());
        }
        Some(m)
    }

    /// The qubit orders along the code's logical layers, for counting the
    /// error support one representative at a time.
    ///
    /// Two qubits are adjacent when some generator acts on both. Each
    /// qubit gets its BFS distance from the support of `X̄₁` and from the
    /// support of `Z̄₁`; the first order sorts the qubits by (distance from
    /// `X̄₁`, distance from `Z̄₁`, index), the second with the two
    /// distances swapped, and a second order equal to the first is
    /// dropped. A qubit no generator path reaches sorts after every
    /// reachable one. A code with `k = 0` keeps the qubit order.
    ///
    /// On a lattice code each layer of equal distance is a translate of
    /// the logical it grows from, and so a disjoint logical
    /// representative: a weight totalizer over either order keeps every
    /// such representative in one contiguous block (see DESIGN.md). For
    /// [`crate::rotated_surface`], where `X̄₁` runs down column 0 and `Z̄₁`
    /// along row 0, the two orders are column-major and row-major.
    ///
    /// # Examples
    ///
    /// ```
    /// use veriqec_codes::rotated_surface;
    /// let orders = rotated_surface(3).layer_orders();
    /// assert_eq!(orders, [vec![0, 3, 6, 1, 4, 7, 2, 5, 8], (0..9).collect()]);
    /// ```
    pub fn layer_orders(&self) -> Vec<Vec<usize>> {
        let n = self.n();
        let (Some(lx), Some(lz)) = (self.logical_x.first(), self.logical_z.first()) else {
            return vec![(0..n).collect()];
        };
        let support = |p: &SymPauli| -> Vec<usize> {
            p.pauli()
                .x_bits()
                .ored(p.pauli().z_bits())
                .iter_ones()
                .collect()
        };
        let supports: Vec<Vec<usize>> = self.generators().iter().map(support).collect();
        let mut on_qubit: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, support) in supports.iter().enumerate() {
            for &q in support {
                on_qubit[q].push(i);
            }
        }
        // Breadth-first over the qubit–generator incidence: one layer per
        // generator hop.
        let distances = |from: &SymPauli| {
            let mut dist = vec![usize::MAX; n];
            let mut frontier = support(from);
            for &q in &frontier {
                dist[q] = 0;
            }
            let mut seen = vec![false; supports.len()];
            let mut layer = 0;
            while !frontier.is_empty() {
                layer += 1;
                let mut next = Vec::new();
                for q in frontier {
                    for &g in &on_qubit[q] {
                        if std::mem::replace(&mut seen[g], true) {
                            continue;
                        }
                        for &r in &supports[g] {
                            if dist[r] == usize::MAX {
                                dist[r] = layer;
                                next.push(r);
                            }
                        }
                    }
                }
                frontier = next;
            }
            dist
        };
        let (dx, dz) = (distances(lx), distances(lz));
        let order_by = |first: &[usize], second: &[usize]| {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&q| (first[q], second[q], q));
            order
        };
        let mut orders = vec![order_by(&dx, &dz)];
        let swapped = order_by(&dz, &dx);
        if swapped != orders[0] {
            orders.push(swapped);
        }
        orders
    }

    /// Exact code distance by brute-force enumeration of errors up to weight
    /// `max_weight`: the minimum weight of a Pauli that commutes with every
    /// generator but is not itself a stabilizer.
    ///
    /// Returns `None` when no logical error of weight `<= max_weight` exists.
    /// Exponential; intended for `n ≤ ~15` or small weights.
    pub fn brute_force_distance(&self, max_weight: usize) -> Option<usize> {
        let n = self.n();
        for w in 1..=max_weight {
            let mut found = false;
            enumerate_errors(n, w, &mut |err| {
                if !found && self.group.is_undetected(err) && self.group.decompose(err).is_none() {
                    found = true;
                }
            });
            if found {
                return Some(w);
            }
        }
        None
    }
}

/// Calls `f` on every Pauli error of exactly weight `w` on `n` qubits.
pub fn enumerate_errors(n: usize, w: usize, f: &mut dyn FnMut(&PauliString)) {
    let mut positions = Vec::with_capacity(w);
    fn rec(
        n: usize,
        w: usize,
        start: usize,
        positions: &mut Vec<usize>,
        f: &mut dyn FnMut(&PauliString),
    ) {
        if positions.len() == w {
            // All letter choices on the chosen positions.
            let mut letters = vec![0u8; w];
            loop {
                let mut p = PauliString::identity(n);
                for (idx, &pos) in positions.iter().enumerate() {
                    let c = [b'X', b'Y', b'Z'][letters[idx] as usize] as char;
                    p = p.mul(&PauliString::single(n, c, pos));
                }
                f(&p);
                // Increment base-3 counter.
                let mut i = 0;
                loop {
                    if i == w {
                        return;
                    }
                    letters[i] += 1;
                    if letters[i] < 3 {
                        break;
                    }
                    letters[i] = 0;
                    i += 1;
                }
            }
        }
        for pos in start..n {
            positions.push(pos);
            rec(n, w, pos + 1, positions, f);
            positions.pop();
        }
    }
    rec(n, w, 0, &mut positions, f);
}

impl fmt::Display for StabilizerCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.contains("[[") {
            write!(f, "{}", self.name)
        } else {
            write!(
                f,
                "{} [[{},{},{}]]",
                self.name,
                self.n(),
                self.k(),
                self.claimed_distance
                    .map_or("?".to_string(), |d| d.to_string())
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_counts() {
        let mut count = 0;
        enumerate_errors(4, 2, &mut |_| count += 1);
        assert_eq!(count, 6 * 9); // C(4,2) * 3^2
    }

    #[test]
    fn layer_orders_follow_the_lattice_of_the_surface_codes() {
        // X̄ runs down column 0 and Z̄ along row 0 (conjugated by local
        // Hadamards on XZZX, which keeps every support): column-major,
        // then row-major.
        let column_major: Vec<usize> = (0..5)
            .flat_map(|c| (0..5).map(move |r| 5 * r + c))
            .collect();
        let row_major: Vec<usize> = (0..25).collect();
        for code in [crate::rotated_surface(5), crate::xzzx_surface(5)] {
            assert_eq!(
                code.layer_orders(),
                [column_major.clone(), row_major.clone()],
                "{}",
                code.name()
            );
        }
    }

    #[test]
    fn a_code_without_logicals_keeps_the_qubit_order() {
        let gens = ["ZZ", "XX"]
            .map(|s| SymPauli::plain(PauliString::from_letters(s).unwrap()))
            .to_vec();
        let bell = StabilizerCode::with_completed_logicals(
            "bell",
            StabilizerGroup::new(gens).unwrap(),
            None,
        );
        assert_eq!(bell.k(), 0);
        assert_eq!(bell.layer_orders(), [vec![0, 1]]);
    }
}
