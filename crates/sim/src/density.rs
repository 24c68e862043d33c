//! Dense density-matrix simulation with non-Clifford noise channels.

use crate::statevector::{i_power, masks};
use crate::{Complex64, StateVector};
use clapton_circuits::Gate;
use clapton_pauli::{PauliString, PauliSum};

/// A dense `2^N × 2^N` density matrix.
///
/// Supports unitary gates, single-/two-qubit depolarizing channels and
/// amplitude damping (thermal relaxation) — the "full complex noise model"
/// of the paper's device evaluations (§5.2.2), which is deliberately *not*
/// Clifford-simulable.
///
/// Every operation is one row-major sweep over `ρ`. A one-qubit gate and its
/// depolarizing channel (fused in [`DeviceEvaluator`](crate::DeviceEvaluator))
/// update each 2×2 block `{r, r|b}×{c, c|b}` in place; a CX/SWAP and its
/// channel each 4×4 block of the pair. Each output entry depends only on its
/// own block,
/// so fusing the steps changes memory traffic but no floating-point
/// operation: results are bit-identical to the earlier multi-pass kernels
/// (a row pass and a column pass per gate, a third pass per channel), which
/// the differential tests keep as their oracle.
///
/// # Example
///
/// ```
/// use clapton_circuits::Gate;
/// use clapton_sim::DensityMatrix;
///
/// let mut rho = DensityMatrix::new(1);
/// rho.apply_gate(Gate::X(0));
/// // 30% amplitude damping partially restores |0⟩: ⟨Z⟩ = 2γ - 1.
/// rho.amplitude_damp(0, 0.3);
/// let z = "Z".parse().unwrap();
/// assert!((rho.expectation(&z) - (2.0 * 0.3 - 1.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 12` (the matrix would exceed 256 MiB).
    pub fn new(n: usize) -> DensityMatrix {
        assert!(n <= 12, "density matrix of {n} qubits is too large");
        let dim = 1usize << n;
        let mut data = vec![Complex64::ZERO; dim * dim];
        data[0] = Complex64::ONE;
        DensityMatrix { n, dim, data }
    }

    /// The projector onto a pure state.
    pub fn from_statevector(sv: &StateVector) -> DensityMatrix {
        let n = sv.num_qubits();
        let dim = 1usize << n;
        let amps = sv.amplitudes();
        let mut data = vec![Complex64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                data[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n, dim, data }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> Complex64 {
        self.data[r * self.dim + c]
    }

    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: Complex64) {
        self.data[r * self.dim + c] = v;
    }

    /// The trace (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|r| self.at(r, r).re).sum()
    }

    /// The purity `tr(ρ²)` (1 for pure states, `1/2^N` for fully mixed).
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{r,c} ρ(r,c)·ρ(c,r) = Σ |ρ(r,c)|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Applies a unitary gate: `ρ ← U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics on a CX/SWAP whose two qubits coincide.
    pub fn apply_gate(&mut self, gate: Gate) {
        self.apply_noisy_gate(gate, 0.0);
    }

    /// Applies a gate and then its depolarizing channel of strength `p`
    /// ([`DensityMatrix::depolarize_1q`] on a one-qubit gate's qubit,
    /// [`DensityMatrix::depolarize_2q`] on a CX/SWAP pair) in one sweep
    /// over `ρ`; `p = 0` applies the bare gate.
    ///
    /// The result is bit-identical to the gate followed by the channel.
    ///
    /// # Panics
    ///
    /// Panics on a CX/SWAP whose two qubits coincide.
    pub(crate) fn apply_noisy_gate(&mut self, gate: Gate, p: f64) {
        match gate {
            Gate::Cx(c, t) => self.noisy_permutation(c, t, CX_PERM, p),
            Gate::Swap(a, b) => self.noisy_permutation(a, b, SWAP_PERM, p),
            g1 => {
                let (q, u) = unitary_1q(g1);
                let u_dag = [
                    [u[0][0].conj(), u[0][1].conj()],
                    [u[1][0].conj(), u[1][1].conj()],
                ];
                // `ρ ← U ρ U†` on one block: left multiplication by U one
                // column at a time, then right multiplication by U† one row
                // at a time, as the row pass and column pass did.
                let conjugate = move |b: &mut Block1| {
                    for col in 0..2 {
                        let (a0, a1) = (b[col], b[2 + col]);
                        b[col] = u[0][0] * a0 + u[0][1] * a1;
                        b[2 + col] = u[1][0] * a0 + u[1][1] * a1;
                    }
                    for row in [0, 2] {
                        let (a0, a1) = (b[row], b[row + 1]);
                        b[row] = a0 * u_dag[0][0] + a1 * u_dag[0][1];
                        b[row + 1] = a0 * u_dag[1][0] + a1 * u_dag[1][1];
                    }
                };
                // One sweep per case rather than a branch per block: the
                // branch-free body runs about a third faster.
                match Depolarize1::new(p) {
                    Some(channel) => self.sweep_1q(q, |b| {
                        conjugate(b);
                        channel.apply(b);
                    }),
                    None => self.sweep_1q(q, conjugate),
                }
            }
        }
    }

    /// `ρ ← P ρ P†` for the two-qubit permutation `perm` (local index
    /// `bit_a + 2·bit_b`), then the two-qubit depolarizing channel.
    fn noisy_permutation(&mut self, a: usize, b: usize, perm: [usize; 4], p: f64) {
        let permute = move |blk: &mut Block2| {
            let old = *blk;
            for (row, &pr) in blk.iter_mut().zip(&perm) {
                for (x, &pc) in row.iter_mut().zip(&perm) {
                    *x = old[pr][pc];
                }
            }
        };
        match Depolarize2::new(p) {
            Some(channel) => self.sweep_2q(a, b, |blk| {
                permute(blk);
                channel.apply(blk);
            }),
            None => self.sweep_2q(a, b, permute),
        }
    }

    /// Runs `kernel` on every 2×2 block `{r, r|b}×{c, c|b}` of qubit `q`
    /// (`b = 1 << q`), in row-major order. The block is passed as
    /// `[ρ(r,c), ρ(r,c|b), ρ(r|b,c), ρ(r|b,c|b)]`.
    fn sweep_1q(&mut self, q: usize, kernel: impl Fn(&mut Block1)) {
        let (dim, bit) = (self.dim, 1usize << q);
        for pair in self.data.chunks_exact_mut(2 * bit * dim) {
            let (rows0, rows1) = pair.split_at_mut(bit * dim);
            for (row0, row1) in rows0.chunks_exact_mut(dim).zip(rows1.chunks_exact_mut(dim)) {
                for (seg0, seg1) in row0
                    .chunks_exact_mut(2 * bit)
                    .zip(row1.chunks_exact_mut(2 * bit))
                {
                    let (x00, x01) = seg0.split_at_mut(bit);
                    let (x10, x11) = seg1.split_at_mut(bit);
                    for (((e00, e01), e10), e11) in x00.iter_mut().zip(x01).zip(x10).zip(x11) {
                        let mut block = [*e00, *e01, *e10, *e11];
                        kernel(&mut block);
                        [*e00, *e01, *e10, *e11] = block;
                    }
                }
            }
        }
    }

    /// Runs `kernel` on every 4×4 block of qubits `a` and `b`, in row-major
    /// order. Block entry `[i][j]` is `ρ(r|s_i, c|s_j)` with
    /// `s = [0, 1<<a, 1<<b, 1<<a | 1<<b]`.
    fn sweep_2q(&mut self, a: usize, b: usize, kernel: impl Fn(&mut Block2)) {
        assert!(a != b, "two-qubit operation needs distinct qubits");
        let dim = self.dim;
        let (ba, bb) = (1usize << a, 1usize << b);
        let sub = [0, ba, bb, ba | bb];
        let (lo, hi) = (ba.min(bb), ba.max(bb));
        // The indices with both bits clear, in increasing order.
        let base = move |k: usize| {
            let k = (k & !(lo - 1)) << 1 | (k & (lo - 1));
            (k & !(hi - 1)) << 1 | (k & (hi - 1))
        };
        for kr in 0..dim / 4 {
            let r = base(kr);
            let mut rows = self
                .data
                .get_disjoint_mut(sub.map(|s| (r | s) * dim..((r | s) + 1) * dim))
                .expect("distinct rows");
            for kc in 0..dim / 4 {
                let c = base(kc);
                let mut block = [[Complex64::ZERO; 4]; 4];
                for (block_row, row) in block.iter_mut().zip(&rows) {
                    for (x, &s) in block_row.iter_mut().zip(&sub) {
                        *x = row[c | s];
                    }
                }
                kernel(&mut block);
                for (block_row, row) in block.iter().zip(rows.iter_mut()) {
                    for (&x, &s) in block_row.iter().zip(&sub) {
                        row[c | s] = x;
                    }
                }
            }
        }
    }

    /// Single-qubit depolarizing channel of strength `p`
    /// (`X/Y/Z` each with probability `p/3` — the stim convention, §4.2.2).
    pub fn depolarize_1q(&mut self, q: usize, p: f64) {
        if let Some(channel) = Depolarize1::new(p) {
            self.sweep_1q(q, |b| channel.apply(b));
        }
    }

    /// Two-qubit depolarizing channel of strength `p` (each of the 15
    /// non-identity two-qubit Paulis with probability `p/15`).
    ///
    /// Implemented via the identity
    /// `D(ρ) = λρ + (1-λ)·(tr_ab(ρ) ⊗ I/4)` with `λ = 1 - 16p/15`.
    pub fn depolarize_2q(&mut self, a: usize, b: usize, p: f64) {
        if let Some(channel) = Depolarize2::new(p) {
            self.sweep_2q(a, b, |blk| channel.apply(blk));
        }
    }

    /// Amplitude damping (thermal relaxation toward `|0⟩`) with decay
    /// probability `γ = 1 - e^{-t/T1}` on qubit `q` (§2.2.1).
    pub fn amplitude_damp(&mut self, q: usize, gamma: f64) {
        if gamma == 0.0 {
            return;
        }
        assert!(
            (0.0..=1.0).contains(&gamma),
            "γ = {gamma} not a probability"
        );
        let keep = 1.0 - gamma;
        let s = keep.sqrt();
        self.sweep_1q(q, |b| {
            let d11 = b[3];
            // K0 ρ K0† + K1 ρ K1†.
            b[0] += d11.scale(gamma);
            b[3] = d11.scale(keep);
            b[1] = b[1].scale(s);
            b[2] = b[2].scale(s);
        });
    }

    /// The computational-basis outcome distribution (the diagonal of `ρ`).
    ///
    /// Entries are clamped at zero against floating-point round-off; they
    /// sum to the trace (1 for a valid state).
    pub fn diagonal_probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|r| self.at(r, r).re.max(0.0)).collect()
    }

    /// The expectation value `tr(ρP)` of a Hermitian Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if the string acts on a different number of qubits.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "qubit count mismatch");
        let (x_mask, z_mask, y_count) = masks(p);
        let phase0 = i_power(y_count);
        let mut acc = Complex64::ZERO;
        // tr(ρP) = Σ_r ρ(r, r⊕x)·φ(r),  φ(r) = i^{#Y}(-1)^{z·r}.
        for r in 0..self.dim {
            let sign = if ((r as u64) & z_mask).count_ones() & 1 == 1 {
                -1.0
            } else {
                1.0
            };
            acc += self.at(r, r ^ (x_mask as usize)) * phase0.scale(sign);
        }
        debug_assert!(acc.im.abs() < 1e-9, "Hermitian expectation must be real");
        acc.re
    }

    /// The energy `tr(ρH)`.
    pub fn energy(&self, h: &PauliSum) -> f64 {
        h.iter().map(|(c, p)| c * self.expectation(p)).sum()
    }
}

/// A one-qubit block `[ρ(r,c), ρ(r,c|b), ρ(r|b,c), ρ(r|b,c|b)]`.
type Block1 = [Complex64; 4];

/// A two-qubit block, rows and columns in local order `bit_a + 2·bit_b`.
type Block2 = [[Complex64; 4]; 4];

/// CX with control `a`, target `b` on the local index `bit_a + 2·bit_b`.
const CX_PERM: [usize; 4] = [0, 3, 2, 1];

/// SWAP on the local index `bit_a + 2·bit_b`.
const SWAP_PERM: [usize; 4] = [0, 2, 1, 3];

/// The qubit and 2×2 matrix of a one-qubit gate.
pub(crate) fn unitary_1q(gate: Gate) -> (usize, [[Complex64; 2]; 2]) {
    match gate {
        Gate::Ry(q, a) => {
            let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
            (
                q,
                [
                    [Complex64::real(c), Complex64::real(-s)],
                    [Complex64::real(s), Complex64::real(c)],
                ],
            )
        }
        Gate::Rz(q, a) => (
            q,
            [
                [Complex64::cis(-a / 2.0), Complex64::ZERO],
                [Complex64::ZERO, Complex64::cis(a / 2.0)],
            ],
        ),
        Gate::H(q) => {
            let h = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
            (q, [[h, h], [h, -h]])
        }
        Gate::S(q) => (
            q,
            [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::I],
            ],
        ),
        Gate::Sdg(q) => (
            q,
            [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, -Complex64::I],
            ],
        ),
        Gate::X(q) => (
            q,
            [
                [Complex64::ZERO, Complex64::ONE],
                [Complex64::ONE, Complex64::ZERO],
            ],
        ),
        Gate::Cx(..) | Gate::Swap(..) => unreachable!("{gate} is a two-qubit gate"),
    }
}

/// The one-qubit depolarizing channel on a 2×2 block.
struct Depolarize1 {
    pop_keep: f64,
    pop_mix: f64,
    coh: f64,
}

impl Depolarize1 {
    /// `None` for `p = 0`: the channel is skipped, not applied with unit
    /// factors (which would turn `-0.0` entries into `+0.0`).
    fn new(p: f64) -> Option<Depolarize1> {
        (p != 0.0).then(|| Depolarize1 {
            pop_keep: 1.0 - 2.0 * p / 3.0,
            pop_mix: 2.0 * p / 3.0,
            coh: 1.0 - 4.0 * p / 3.0,
        })
    }

    #[inline]
    fn apply(&self, b: &mut Block1) {
        let (d00, d11) = (b[0], b[3]);
        b[0] = d00.scale(self.pop_keep) + d11.scale(self.pop_mix);
        b[3] = d11.scale(self.pop_keep) + d00.scale(self.pop_mix);
        b[1] = b[1].scale(self.coh);
        b[2] = b[2].scale(self.coh);
    }
}

/// The two-qubit depolarizing channel on a 4×4 block.
struct Depolarize2 {
    lambda: f64,
    mix: f64,
}

impl Depolarize2 {
    /// `None` for `p = 0` (see [`Depolarize1::new`]).
    fn new(p: f64) -> Option<Depolarize2> {
        (p != 0.0).then(|| {
            let lambda = 1.0 - 16.0 * p / 15.0;
            Depolarize2 {
                lambda,
                mix: (1.0 - lambda) / 4.0,
            }
        })
    }

    #[inline]
    fn apply(&self, blk: &mut Block2) {
        // Partial trace over the pair, summed in local index order.
        let mut tr_sub = Complex64::ZERO;
        for (k, row) in blk.iter().enumerate() {
            tr_sub += row[k];
        }
        let mix = tr_sub.scale(self.mix);
        for (i, row) in blk.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if i == j {
                    x.scale(self.lambda) + mix
                } else {
                    x.scale(self.lambda)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_circuits::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            match rng.gen_range(0..5) {
                0 => c.push(Gate::Ry(
                    rng.gen_range(0..n),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )),
                1 => c.push(Gate::Rz(
                    rng.gen_range(0..n),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )),
                2 => c.push(Gate::H(rng.gen_range(0..n))),
                3 => c.push(Gate::S(rng.gen_range(0..n))),
                _ => {
                    if n >= 2 {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n);
                        while b == a {
                            b = rng.gen_range(0..n);
                        }
                        c.push(Gate::Cx(a, b));
                    }
                }
            }
        }
        c
    }

    fn bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
        rho.data
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// A rate that is zero a third of the time (the skipped-channel path).
    fn rate(rng: &mut StdRng, max: f64) -> f64 {
        if rng.gen_range(0..3) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..max)
        }
    }

    #[test]
    fn fused_kernels_are_bit_identical_to_reference() {
        use crate::reference;
        let mut rng = StdRng::seed_from_u64(1313);
        let angles = [0.0, -0.0, std::f64::consts::FRAC_PI_2];
        for case in 0..60 {
            let n = rng.gen_range(1..=7);
            let mut fused = if case % 2 == 0 {
                DensityMatrix::new(n)
            } else {
                let prep = random_circuit(n, 6, &mut rng);
                DensityMatrix::from_statevector(&StateVector::from_circuit(&prep))
            };
            let mut oracle = fused.clone();
            for step in 0..24 {
                let q = rng.gen_range(0..n);
                let angle = if rng.gen_bool(0.5) {
                    angles[rng.gen_range(0..angles.len())]
                } else {
                    rng.gen_range(-7.0..7.0)
                };
                let pair = (n >= 2).then(|| {
                    let mut b = rng.gen_range(0..n);
                    while b == q {
                        b = rng.gen_range(0..n);
                    }
                    (q, b)
                });
                let op = rng.gen_range(0..12);
                match (op, pair) {
                    (0, _) => {
                        let gamma = rate(&mut rng, 1.0);
                        fused.amplitude_damp(q, gamma);
                        reference::amplitude_damp(&mut oracle, q, gamma);
                    }
                    (1, _) => {
                        let p = rate(&mut rng, 0.75);
                        fused.depolarize_1q(q, p);
                        reference::depolarize_1q(&mut oracle, q, p);
                    }
                    (2, Some((a, b))) => {
                        let p = rate(&mut rng, 1.0);
                        fused.depolarize_2q(a, b, p);
                        reference::depolarize_2q(&mut oracle, a, b, p);
                    }
                    (3 | 4, Some((a, b))) => {
                        // SWAP error runs up to 1 (capped at three CX errors).
                        let g = if op == 3 {
                            Gate::Cx(a, b)
                        } else {
                            Gate::Swap(a, b)
                        };
                        let p = rate(&mut rng, 1.0);
                        fused.apply_noisy_gate(g, p);
                        reference::apply_noisy_gate(&mut oracle, g, p);
                    }
                    _ => {
                        let g = match op % 6 {
                            0 => Gate::Ry(q, angle),
                            1 => Gate::Rz(q, angle),
                            2 => Gate::H(q),
                            3 => Gate::S(q),
                            4 => Gate::Sdg(q),
                            _ => Gate::X(q),
                        };
                        if rng.gen_bool(0.25) {
                            fused.apply_gate(g);
                            reference::apply_gate(&mut oracle, g);
                        } else {
                            let p = rate(&mut rng, 0.75);
                            fused.apply_noisy_gate(g, p);
                            reference::apply_noisy_gate(&mut oracle, g, p);
                        }
                    }
                }
                assert!(
                    bits(&fused) == bits(&oracle),
                    "case {case} (n = {n}) diverged at step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn coinciding_cx_qubits_panic() {
        DensityMatrix::new(2).apply_gate(Gate::Cx(1, 1));
    }

    #[test]
    fn pure_state_invariants() {
        let rho = DensityMatrix::new(3);
        assert!((rho.trace() - 1.0).abs() < 1e-15);
        assert!((rho.purity() - 1.0).abs() < 1e-15);
        assert_eq!(rho.expectation(&ps("ZZZ")), 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let n = rng.gen_range(1..4);
            let c = random_circuit(n, 15, &mut rng);
            let sv = StateVector::from_circuit(&c);
            let mut rho = DensityMatrix::new(n);
            for &g in c.gates() {
                rho.apply_gate(g);
            }
            assert!((rho.trace() - 1.0).abs() < 1e-10);
            assert!((rho.purity() - 1.0).abs() < 1e-10);
            for _ in 0..8 {
                let p = PauliString::random(n, &mut rng);
                assert!(
                    (rho.expectation(&p) - sv.expectation(&p)).abs() < 1e-9,
                    "term {p}"
                );
            }
        }
    }

    #[test]
    fn from_statevector_agrees() {
        let mut rng = StdRng::seed_from_u64(77);
        let c = random_circuit(3, 12, &mut rng);
        let sv = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_statevector(&sv);
        for _ in 0..10 {
            let p = PauliString::random(3, &mut rng);
            assert!((rho.expectation(&p) - sv.expectation(&p)).abs() < 1e-10);
        }
    }

    #[test]
    fn depolarize_1q_damps_coherences_and_populations() {
        let p = 0.3;
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::H(0));
        rho.depolarize_1q(0, p);
        // ⟨X⟩ is a coherence: damped by 1-4p/3.
        assert!((rho.expectation(&ps("X")) - (1.0 - 4.0 * p / 3.0)).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Fully depolarizing at p = 3/4 gives the maximally mixed state.
        let mut rho = DensityMatrix::new(1);
        rho.depolarize_1q(0, 0.75);
        assert!(rho.expectation(&ps("Z")).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarize_2q_damping_factor() {
        let p = 0.2;
        let mut rho = DensityMatrix::new(2);
        rho.apply_gate(Gate::H(0));
        rho.apply_gate(Gate::Cx(0, 1));
        rho.depolarize_2q(0, 1, p);
        let f = 1.0 - 16.0 * p / 15.0;
        for t in ["XX", "ZZ", "YY"] {
            let clean: f64 = if t == "YY" { -1.0 } else { 1.0 };
            assert!(
                (rho.expectation(&ps(t)) - clean * f).abs() < 1e-12,
                "term {t}"
            );
        }
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarize_2q_only_touches_pair() {
        let p = 0.4;
        let mut rho = DensityMatrix::new(3);
        rho.apply_gate(Gate::X(2));
        rho.depolarize_2q(0, 1, p);
        assert_eq!(rho.expectation(&ps("IIZ")), -1.0);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let gamma: f64 = 0.25;
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::X(0));
        rho.amplitude_damp(0, gamma);
        assert!((rho.expectation(&ps("Z")) - (2.0 * gamma - 1.0)).abs() < 1e-12);
        // Coherences decay by √(1-γ).
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::H(0));
        rho.amplitude_damp(0, gamma);
        assert!((rho.expectation(&ps("X")) - (1.0 - gamma).sqrt()).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_composes_exponentially() {
        // Two dampings of γ each = one damping of 1-(1-γ)².
        let gamma = 0.2;
        let mut a = DensityMatrix::new(1);
        a.apply_gate(Gate::X(0));
        a.amplitude_damp(0, gamma);
        a.amplitude_damp(0, gamma);
        let mut b = DensityMatrix::new(1);
        b.apply_gate(Gate::X(0));
        b.amplitude_damp(0, 1.0 - (1.0 - gamma) * (1.0 - gamma));
        assert!((a.expectation(&ps("Z")) - b.expectation(&ps("Z"))).abs() < 1e-12);
    }

    #[test]
    fn channels_preserve_trace_on_random_states() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_circuit(3, 20, &mut rng);
        let mut rho = DensityMatrix::new(3);
        for &g in c.gates() {
            rho.apply_gate(g);
        }
        rho.depolarize_1q(1, 0.1);
        rho.depolarize_2q(0, 2, 0.05);
        rho.amplitude_damp(2, 0.15);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() <= 1.0 + 1e-10);
    }
}
