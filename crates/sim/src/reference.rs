//! The kernels that faster production paths replaced, kept as their
//! oracles. Only differential tests and head-to-head benches call this
//! module.
//!
//! * The multi-pass dense kernels that the one-pass sweeps of
//!   [`DensityMatrix`] replaced. Every function reproduces the earlier
//!   arithmetic exactly: a one-qubit gate is a row pass then a column pass,
//!   its depolarizing channel a third pass, CX/SWAP a permutation pass
//!   followed by a separate two-qubit channel pass. Production code runs the
//!   one-pass sweeps through [`DeviceEvaluator::run`].
//! * The fixed-step Lanczos solver ([`ground_energy`],
//!   [`dominant_eigenvalue`]): `min(2ⁿ, 140)` steps per seed, each matvec a
//!   pass per Pauli term. Production code runs the converged solver on the
//!   X-mask-grouped operator ([`crate::ground_energy`]).

use crate::eigen::{dot, norm, normalize, tridiagonal_min_eigenvalue};
use crate::statevector::apply_pauli_sum_to;
use crate::{Complex64, DensityMatrix, DeviceEvaluator};
use clapton_circuits::{Circuit, Gate};
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// [`DeviceEvaluator::run`] on the multi-pass kernels.
pub fn run(circuit: &Circuit, model: &NoiseModel) -> DeviceEvaluator {
    DeviceEvaluator::run_with(circuit, model, apply_noisy_gate, amplitude_damp)
}

/// A gate followed by its depolarizing channel of strength `p`, as separate
/// passes.
pub fn apply_noisy_gate(rho: &mut DensityMatrix, gate: Gate, p: f64) {
    apply_gate(rho, gate);
    match gate {
        Gate::Cx(a, b) | Gate::Swap(a, b) => depolarize_2q(rho, a, b, p),
        g1 => depolarize_1q(rho, g1.qubits()[0], p),
    }
}

/// `ρ ← U ρ U†`: a row pass and a column pass for one-qubit gates, an orbit
/// walk for CX/SWAP.
pub fn apply_gate(rho: &mut DensityMatrix, gate: Gate) {
    match gate {
        Gate::Cx(c, t) => {
            let (bc, bt) = (1usize << c, 1usize << t);
            sandwich_permutation(rho, |i| if i & bc != 0 { i ^ bt } else { i });
        }
        Gate::Swap(a, b) => {
            let (ba, bb) = (1usize << a, 1usize << b);
            sandwich_permutation(rho, |i| {
                let (ia, ib) = ((i & ba != 0) as usize, (i & bb != 0) as usize);
                if ia != ib {
                    i ^ ba ^ bb
                } else {
                    i
                }
            });
        }
        g1 => {
            let (q, u) = crate::density::unitary_1q(g1);
            apply_1q(rho, q, u);
        }
    }
}

/// `ρ ← P ρ P†` for a permutation `P` that is an involution
/// (`f(f(i)) = i`), e.g. CX or SWAP.
fn sandwich_permutation<F: Fn(usize) -> usize>(rho: &mut DensityMatrix, f: F) {
    let dim = rho.dim();
    for r in 0..dim {
        for c in 0..dim {
            let (fr, fc) = (f(r), f(c));
            // Visit each 2-element orbit once.
            if (fr, fc) > (r, c) {
                let tmp = rho.at(r, c);
                let other = rho.at(fr, fc);
                rho.set(r, c, other);
                rho.set(fr, fc, tmp);
            }
        }
    }
}

/// `ρ ← (U⊗I) ρ (U†⊗I)` for a single-qubit unitary on `q`.
fn apply_1q(rho: &mut DensityMatrix, q: usize, u: [[Complex64; 2]; 2]) {
    let dim = rho.dim();
    let bit = 1usize << q;
    // Left multiplication: rows.
    for r in 0..dim {
        if r & bit == 0 {
            for c in 0..dim {
                let (a0, a1) = (rho.at(r, c), rho.at(r | bit, c));
                rho.set(r, c, u[0][0] * a0 + u[0][1] * a1);
                rho.set(r | bit, c, u[1][0] * a0 + u[1][1] * a1);
            }
        }
    }
    // Right multiplication by U†: columns.
    for c in 0..dim {
        if c & bit == 0 {
            for r in 0..dim {
                let (a0, a1) = (rho.at(r, c), rho.at(r, c | bit));
                rho.set(r, c, a0 * u[0][0].conj() + a1 * u[0][1].conj());
                rho.set(r, c | bit, a0 * u[1][0].conj() + a1 * u[1][1].conj());
            }
        }
    }
}

/// Single-qubit depolarizing channel in its own pass.
pub fn depolarize_1q(rho: &mut DensityMatrix, q: usize, p: f64) {
    if p == 0.0 {
        return;
    }
    let dim = rho.dim();
    let bit = 1usize << q;
    let pop_keep = 1.0 - 2.0 * p / 3.0;
    let pop_mix = 2.0 * p / 3.0;
    let coh = 1.0 - 4.0 * p / 3.0;
    for r in 0..dim {
        if r & bit != 0 {
            continue;
        }
        for c in 0..dim {
            if c & bit != 0 {
                continue;
            }
            let (r1, c1) = (r | bit, c | bit);
            let d00 = rho.at(r, c);
            let d11 = rho.at(r1, c1);
            rho.set(r, c, d00.scale(pop_keep) + d11.scale(pop_mix));
            rho.set(r1, c1, d11.scale(pop_keep) + d00.scale(pop_mix));
            rho.set(r, c1, rho.at(r, c1).scale(coh));
            rho.set(r1, c, rho.at(r1, c).scale(coh));
        }
    }
}

/// Two-qubit depolarizing channel in its own pass.
pub fn depolarize_2q(rho: &mut DensityMatrix, a: usize, b: usize, p: f64) {
    if p == 0.0 {
        return;
    }
    assert!(a != b, "two-qubit channel needs distinct qubits");
    let dim = rho.dim();
    let (ba, bb) = (1usize << a, 1usize << b);
    let lambda = 1.0 - 16.0 * p / 15.0;
    let sub = [0, ba, bb, ba | bb];
    for r in 0..dim {
        if r & (ba | bb) != 0 {
            continue;
        }
        for c in 0..dim {
            if c & (ba | bb) != 0 {
                continue;
            }
            // Partial trace over the (a, b) subsystem for this block.
            let mut tr_sub = Complex64::ZERO;
            for &k in &sub {
                tr_sub += rho.at(r | k, c | k);
            }
            let mix = tr_sub.scale((1.0 - lambda) / 4.0);
            for &kr in &sub {
                for &kc in &sub {
                    let old = rho.at(r | kr, c | kc);
                    let new = if kr == kc {
                        old.scale(lambda) + mix
                    } else {
                        old.scale(lambda)
                    };
                    rho.set(r | kr, c | kc, new);
                }
            }
        }
    }
}

/// Amplitude damping in its own pass.
pub fn amplitude_damp(rho: &mut DensityMatrix, q: usize, gamma: f64) {
    if gamma == 0.0 {
        return;
    }
    assert!(
        (0.0..=1.0).contains(&gamma),
        "γ = {gamma} not a probability"
    );
    let dim = rho.dim();
    let bit = 1usize << q;
    let s = (1.0 - gamma).sqrt();
    for r in 0..dim {
        if r & bit != 0 {
            continue;
        }
        for c in 0..dim {
            if c & bit != 0 {
                continue;
            }
            let (r1, c1) = (r | bit, c | bit);
            let d11 = rho.at(r1, c1);
            // K0 ρ K0† + K1 ρ K1†.
            rho.set(r, c, rho.at(r, c) + d11.scale(gamma));
            rho.set(r1, c1, d11.scale(1.0 - gamma));
            rho.set(r, c1, rho.at(r, c1).scale(s));
            rho.set(r1, c, rho.at(r1, c).scale(s));
        }
    }
}

/// [`crate::ground_energy`] as the fixed-step solver: `min(2ⁿ, 140)`
/// Lanczos steps per seed on the per-term matvec, no convergence test.
pub fn ground_energy(h: &PauliSum) -> f64 {
    extremal_eigenvalue(h, false)
}

/// [`crate::dominant_eigenvalue`] as the fixed-step solver.
pub fn dominant_eigenvalue(h: &PauliSum) -> f64 {
    extremal_eigenvalue(h, true)
}

fn extremal_eigenvalue(h: &PauliSum, largest: bool) -> f64 {
    let n = h.num_qubits();
    assert!(n > 0, "need at least one qubit");
    assert!(
        n <= 24,
        "Hamiltonian on {n} qubits too large for dense vectors"
    );
    let mut best = f64::INFINITY;
    for seed in [0xC1AF_0001u64, 0xC1AF_0002u64] {
        let v = lanczos_min(h, seed, largest);
        best = best.min(v);
    }
    if largest {
        -best
    } else {
        best
    }
}

/// Lanczos iteration returning the smallest eigenvalue of `H` (or of `-H`
/// when `negate` is set).
fn lanczos_min(h: &PauliSum, seed: u64, negate: bool) -> f64 {
    let dim = 1usize << h.num_qubits();
    let m = dim.min(140);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(m);
    let mut v: Vec<Complex64> = (0..dim)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    normalize(&mut v);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut w = vec![Complex64::ZERO; dim];
    for j in 0..m {
        basis.push(v.clone());
        w.fill(Complex64::ZERO);
        apply_pauli_sum_to(h, &v, &mut w);
        if negate {
            for x in &mut w {
                *x = -*x;
            }
        }
        if j > 0 {
            let beta = betas[j - 1];
            for (wi, bi) in w.iter_mut().zip(&basis[j - 1]) {
                *wi -= bi.scale(beta);
            }
        }
        let alpha = dot(&basis[j], &w).re;
        alphas.push(alpha);
        for (wi, bi) in w.iter_mut().zip(&basis[j]) {
            *wi -= bi.scale(alpha);
        }
        // Full reorthogonalization for numerical robustness.
        for b in &basis {
            let overlap = dot(b, &w);
            for (wi, bi) in w.iter_mut().zip(b) {
                *wi -= *bi * overlap;
            }
        }
        let beta = norm(&w);
        if beta < 1e-12 || j + 1 == m {
            break;
        }
        betas.push(beta);
        v.clone_from(&w);
        let inv = 1.0 / beta;
        for x in &mut v {
            *x = x.scale(inv);
        }
    }
    tridiagonal_min_eigenvalue(&alphas, &betas)
}
