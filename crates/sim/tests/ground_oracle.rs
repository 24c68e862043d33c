//! Physics oracles for the Lanczos eigensolver behind `ground_energy` and
//! `dominant_eigenvalue`: the fixed-step `reference` solver on the 12-instance
//! suite, a dense Jacobi diagonalization on random small Pauli sums, and
//! bit-identity of `E0` across calls and threads.

use clapton_models::benchmark_suite;
use clapton_pauli::{Pauli, PauliString, PauliSum};
use clapton_sim::{dominant_eigenvalue, ground_energy, reference};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn suite_ground_energies_match_the_fixed_step_solver() {
    let suite = benchmark_suite(10);
    assert_eq!(suite.len(), 12);
    for b in &suite {
        let e0 = ground_energy(&b.hamiltonian);
        let e0_ref = reference::ground_energy(&b.hamiltonian);
        assert!(
            (e0 - e0_ref).abs() <= 1e-10,
            "{}: converged {e0} vs fixed-step {e0_ref}",
            b.name
        );
    }
}

/// The `2^n × 2^n` matrix of `h` as real and imaginary parts, built term by
/// term from the one-qubit Pauli matrices (qubit `q` is bit `q` of the
/// index).
fn dense(h: &PauliSum) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = h.num_qubits();
    let dim = 1usize << n;
    let mut re = vec![vec![0.0; dim]; dim];
    let mut im = vec![vec![0.0; dim]; dim];
    for (c, p) in h.iter() {
        for (r, (re_row, im_row)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            for s in 0..dim {
                // ⟨r|σ_q|s⟩ per qubit, multiplied as (re, im).
                let mut elem = (c, 0.0);
                for q in 0..n {
                    let (rb, sb) = ((r >> q) & 1, (s >> q) & 1);
                    let factor = match (p.get(q), rb, sb) {
                        (Pauli::I, a, b) if a == b => (1.0, 0.0),
                        (Pauli::Z, 0, 0) => (1.0, 0.0),
                        (Pauli::Z, 1, 1) => (-1.0, 0.0),
                        (Pauli::X, a, b) if a != b => (1.0, 0.0),
                        (Pauli::Y, 0, 1) => (0.0, -1.0),
                        (Pauli::Y, 1, 0) => (0.0, 1.0),
                        _ => (0.0, 0.0),
                    };
                    elem = (
                        elem.0 * factor.0 - elem.1 * factor.1,
                        elem.0 * factor.1 + elem.1 * factor.0,
                    );
                }
                re_row[s] += elem.0;
                im_row[s] += elem.1;
            }
        }
    }
    (re, im)
}

/// The sorted eigenvalues of the Hermitian `re + i·im`, by cyclic Jacobi
/// rotations on its real symmetric embedding `[[re, −im], [im, re]]` (which
/// has every eigenvalue of the Hermitian matrix twice).
fn jacobi_eigenvalues(re: &[Vec<f64>], im: &[Vec<f64>]) -> Vec<f64> {
    let dim = re.len();
    let size = 2 * dim;
    let mut a = vec![vec![0.0; size]; size];
    for r in 0..dim {
        for s in 0..dim {
            a[r][s] = re[r][s];
            a[r + dim][s + dim] = re[r][s];
            a[r][s + dim] = -im[r][s];
            a[r + dim][s] = im[r][s];
        }
    }
    let scale: f64 = a.iter().flatten().map(|x| x * x).sum::<f64>().max(1.0);
    for _sweep in 0..100 {
        let off: f64 = (0..size)
            .flat_map(|p| (p + 1..size).map(move |q| (p, q)))
            .map(|(p, q)| a[p][q] * a[p][q])
            .sum();
        if off <= 1e-30 * scale {
            break;
        }
        for p in 0..size {
            for q in p + 1..size {
                if a[p][q] == 0.0 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (upper, lower) = a.split_at_mut(q);
                for (apk, aqk) in upper[p].iter_mut().zip(lower[0].iter_mut()) {
                    (*apk, *aqk) = (c * *apk - s * *aqk, s * *apk + c * *aqk);
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..size).map(|i| a[i][i]).collect();
    eig.sort_by(f64::total_cmp);
    eig
}

fn ps(s: &str) -> PauliString {
    s.parse().unwrap()
}

/// Random Pauli sums on 1–6 qubits, each with an identity term and an
/// odd-Y term, plus hand-picked degenerate spectra.
fn oracle_cases() -> Vec<(String, PauliSum)> {
    let mut rng = StdRng::seed_from_u64(0x00DA_C1E5);
    let mut cases = Vec::new();
    for n in 1..=6usize {
        for trial in 0..4 {
            let mut h = PauliSum::new(n);
            h.push(rng.gen_range(-2.0..2.0), PauliString::identity(n));
            h.push(
                rng.gen_range(-1.0..1.0),
                PauliString::single(n, rng.gen_range(0..n), Pauli::Y),
            );
            for _ in 0..rng.gen_range(1..=3 * n) {
                h.push(rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng));
            }
            cases.push((format!("random n={n} #{trial}"), h));
        }
    }
    // Degenerate spectra: a one-qubit field on two qubits, a shifted
    // identity, the Heisenberg triplet, and the zero operator.
    cases.push(("ZI".into(), PauliSum::from_terms(2, vec![(1.0, ps("ZI"))])));
    cases.push((
        "-1.5 III".into(),
        PauliSum::from_terms(3, vec![(-1.5, ps("III"))]),
    ));
    cases.push((
        "XX + YY + ZZ".into(),
        PauliSum::from_terms(2, vec![(1.0, ps("XX")), (1.0, ps("YY")), (1.0, ps("ZZ"))]),
    ));
    cases.push((
        "ZZZZ + IIII".into(),
        PauliSum::from_terms(4, vec![(0.5, ps("ZZZZ")), (0.25, ps("IIII"))]),
    ));
    cases.push(("zero".into(), PauliSum::new(3)));
    cases
}

#[test]
fn extremal_eigenvalues_match_dense_diagonalization() {
    for (name, h) in oracle_cases() {
        let (re, im) = dense(&h);
        let eig = jacobi_eigenvalues(&re, &im);
        let (lo, hi) = (eig[0], eig[eig.len() - 1]);
        let (e0, emax) = (ground_energy(&h), dominant_eigenvalue(&h));
        assert!((e0 - lo).abs() <= 1e-9, "{name}: E0 {e0} vs dense {lo}");
        assert!(
            (emax - hi).abs() <= 1e-9,
            "{name}: Emax {emax} vs dense {hi}"
        );
    }
}

#[test]
fn jacobi_oracle_reproduces_a_known_spectrum() {
    // H = J(XX + YY) + ZZ: spectrum {1, 1, -1+2J, -1-2J}, each twice in
    // the real embedding.
    let j = 0.3;
    let h = PauliSum::from_terms(2, vec![(j, ps("XX")), (j, ps("YY")), (1.0, ps("ZZ"))]);
    let (re, im) = dense(&h);
    let eig = jacobi_eigenvalues(&re, &im);
    let mut expected = [1.0, 1.0, -1.0 + 2.0 * j, -1.0 - 2.0 * j].repeat(2);
    expected.sort_by(f64::total_cmp);
    for (e, x) in eig.iter().zip(&expected) {
        assert!((e - x).abs() < 1e-12, "{eig:?} vs {expected:?}");
    }
}

#[test]
fn ground_energy_is_bit_identical_across_calls_and_threads() {
    let suite = benchmark_suite(10);
    let first: Vec<u64> = suite
        .iter()
        .map(|b| ground_energy(&b.hamiltonian).to_bits())
        .collect();
    let again: Vec<u64> = suite
        .iter()
        .map(|b| ground_energy(&b.hamiltonian).to_bits())
        .collect();
    assert_eq!(first, again, "two calls in one thread");
    let threaded: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = suite
            .iter()
            .map(|b| scope.spawn(|| ground_energy(&b.hamiltonian).to_bits()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(first, threaded, "one call per thread");
}
