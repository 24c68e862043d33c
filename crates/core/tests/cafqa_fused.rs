//! Differential tests for the fused CAFQA objective: `CafqaLoss` scores a
//! genome's noiseless energy straight from the packed planes of the mapped
//! `H` (`PackedHamiltonian::noiseless_energy`), and nCAFQA's `LN` from the
//! mapped `H` built once. Every loss must be **bit-identical** to the
//! staged path — `LossFunction::noiseless_for_circuit` (plus
//! `loss_n_for_circuit` for nCAFQA) on `exec.circuit(θ)` — across
//! Hamiltonian sizes (fewer terms than the batch threshold, one full word,
//! partial last words, several words, identity terms), all-zero sums (the
//! sign of zero), routed executables and every backend; and whole
//! `run_cafqa` / `run_ncafqa` results must equal a run of the same engine on
//! the staged objective.

use clapton_core::{
    run_cafqa, run_ncafqa, CafqaLoss, CafqaResult, EvaluatorKind, ExecutableAnsatz, LossEvaluator,
    LossFunction,
};
use clapton_devices::FakeBackend;
use clapton_eval::FnEvaluator;
use clapton_ga::{MultiGa, MultiGaConfig};
use clapton_models::{ising, xxz};
use clapton_noise::NoiseModel;
use clapton_pauli::{Pauli, PauliString, PauliSum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random Hamiltonian of `m` terms with random coefficients; about one
/// term in eight is the identity.
fn random_hamiltonian(n: usize, m: usize, rng: &mut StdRng) -> PauliSum {
    PauliSum::from_terms(
        n,
        (0..m).map(|_| {
            let p = if rng.gen_range(0..8) == 0 {
                PauliString::identity(n)
            } else {
                PauliString::random(n, rng)
            };
            (rng.gen_range(-2.0..2.0), p)
        }),
    )
}

/// A random uniform noise model; each rate is zero a quarter of the time.
fn random_model(n: usize, rng: &mut StdRng) -> NoiseModel {
    let p1 = [0.0, 1e-4, 3e-3, 2e-2][rng.gen_range(0..4)];
    let p2 = [0.0, 1e-3, 8e-3, 5e-2][rng.gen_range(0..4)];
    let ro = [0.0, 1e-3, 1e-2, 8e-2][rng.gen_range(0..4)];
    NoiseModel::uniform(n, p1, p2, ro)
}

/// `count` random quarter-turn genomes, led by the all-zero one.
fn genomes(exec: &ExecutableAnsatz, count: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let genes = exec.ansatz().num_parameters();
    std::iter::once(vec![0; genes])
        .chain((1..count).map(|_| (0..genes).map(|_| rng.gen_range(0..4u8)).collect()))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The staged objective the fused one replaces: the circuit at `θ`, then
/// the noiseless energy of the mapped `H` on a noisy circuit (plus the
/// backend's `LN` for nCAFQA).
fn staged(
    h: &PauliSum,
    exec: &ExecutableAnsatz,
    loss: &LossFunction<'_>,
    noise_aware: bool,
    indices: &[u8],
) -> (f64, f64) {
    let circuit = exec.circuit(&exec.ansatz().angles_from_indices(indices));
    let noiseless = loss.noiseless_for_circuit(&circuit, h);
    let total = if noise_aware {
        loss.loss_n_for_circuit(&circuit, h) + noiseless
    } else {
        noiseless
    };
    (total, noiseless)
}

/// Checks CAFQA and nCAFQA (with `evaluator`) genome by genome:
/// `evaluate`, `evaluate_population` and `noiseless_energy` against the
/// staged path, to the bit.
fn check(h: &PauliSum, exec: &ExecutableAnsatz, evaluator: EvaluatorKind, genomes: &[Vec<u8>]) {
    let m = h.num_terms();
    for noise_aware in [false, true] {
        let (fused, oracle) = if noise_aware {
            (
                CafqaLoss::ncafqa(h, exec, evaluator),
                LossFunction::new(exec, evaluator),
            )
        } else {
            (
                CafqaLoss::cafqa(h, exec),
                LossFunction::new(exec, EvaluatorKind::Exact),
            )
        };
        let mut expected = Vec::with_capacity(genomes.len());
        for g in genomes {
            let (total, noiseless) = staged(h, exec, &oracle, noise_aware, g);
            let (got, got_noiseless) = (fused.evaluate(g), fused.noiseless_energy(g));
            assert_eq!(
                got.to_bits(),
                total.to_bits(),
                "loss: fused {got} vs staged {total} (m {m}, noise-aware {noise_aware}, {evaluator:?}, genome {g:?})"
            );
            assert_eq!(
                got_noiseless.to_bits(),
                noiseless.to_bits(),
                "noiseless: fused {got_noiseless} vs staged {noiseless} (m {m}, genome {g:?})"
            );
            expected.push(total);
        }
        assert_eq!(
            bits(&fused.evaluate_population(genomes)),
            bits(&expected),
            "population batch (m {m}, noise-aware {noise_aware})"
        );
    }
}

/// Term counts on both sides of the batch threshold and of the 64-lane
/// word: scalar sums, one full word, partial last words, several words.
#[test]
fn term_counts_across_the_threshold_and_word_boundaries() {
    let mut rng = StdRng::seed_from_u64(41);
    for (n, m) in [
        (3, 1),
        (4, 5),
        (5, 7),
        (4, 8),
        (6, 9),
        (5, 64),
        (7, 63),
        (4, 65),
        (8, 100),
        (6, 130),
    ] {
        let h = random_hamiltonian(n, m, &mut rng);
        let model = random_model(n, &mut rng);
        let exec = ExecutableAnsatz::untranspiled(n, &model);
        let genomes = genomes(&exec, 10, &mut rng);
        check(&h, &exec, EvaluatorKind::Exact, &genomes);
    }
}

/// Identity terms only, and identity terms mixed into Z-type ones: they
/// contribute `c` whatever the circuit.
#[test]
fn identity_terms() {
    let mut rng = StdRng::seed_from_u64(43);
    let n = 4;
    let model = NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let genomes = genomes(&exec, 8, &mut rng);
    for m in [1, 3, 8, 70] {
        let only = PauliSum::from_terms(
            n,
            (0..m).map(|i| (0.25 - i as f64, PauliString::identity(n))),
        );
        check(&only, &exec, EvaluatorKind::Exact, &genomes);
        let mixed = PauliSum::from_terms(
            n,
            (0..m).map(|i| {
                let p = if i % 2 == 0 {
                    PauliString::identity(n)
                } else {
                    PauliString::single(n, i % n, Pauli::Z)
                };
                (1.5 - i as f64, p)
            }),
        );
        check(&mixed, &exec, EvaluatorKind::Exact, &genomes);
    }
}

/// All-zero sums keep their sign: `-c · 0` terms (traceless on `|0…0⟩` at
/// the all-zero genome) and `-0.0` coefficients sum to `-0.0` below the
/// batch threshold and to `+0.0` from it on, in both paths.
#[test]
fn all_zero_sums_keep_the_sign_of_zero() {
    let n = 3;
    let exec = ExecutableAnsatz::untranspiled(n, &NoiseModel::uniform(n, 1e-3, 1e-2, 1e-2));
    let zero = vec![0u8; exec.ansatz().num_parameters()];
    let genomes = std::slice::from_ref(&zero);
    for m in [1, 3, 7, 8, 20, 64, 70] {
        let traceless =
            PauliSum::from_terms(n, (0..m).map(|i| (-0.5 - i as f64, "XII".parse().unwrap())));
        let zero_coefficients = PauliSum::from_terms(
            n,
            (0..m).map(|i| (-0.0, PauliString::single(n, i % n, Pauli::Z))),
        );
        for h in [traceless, zero_coefficients] {
            check(&h, &exec, EvaluatorKind::Exact, genomes);
            let energy = CafqaLoss::cafqa(&h, &exec).evaluate(&zero);
            assert_eq!(energy, 0.0);
            assert_eq!(
                energy.is_sign_negative(),
                m < 8,
                "m {m}: the sum starts from -0.0 only below the batch threshold"
            );
        }
    }
}

/// A routed executable on a named backend, whose final layout permutes the
/// register: the mapped `H` is what gets packed.
#[test]
fn routed_executable_on_a_named_backend() {
    let mut rng = StdRng::seed_from_u64(47);
    let backend = FakeBackend::nairobi();
    let n = 5;
    let exec = ExecutableAnsatz::on_device(n, backend.coupling_map(), &backend.noise_model())
        .expect("nairobi hosts a 5-qubit chain");
    assert!(!exec.mapping_is_identity(), "routing permutes the register");
    let genomes = genomes(&exec, 10, &mut rng);
    for m in [5, 30, 70] {
        let h = random_hamiltonian(n, m, &mut rng);
        check(&h, &exec, EvaluatorKind::Exact, &genomes);
    }
}

/// nCAFQA's `LN` on the sampled and dense backends, still bit-identical to
/// the staged path.
#[test]
fn ncafqa_on_the_sampled_and_dense_backends() {
    let mut rng = StdRng::seed_from_u64(53);
    let n = 3;
    let model = NoiseModel::uniform(n, 2e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let genomes = genomes(&exec, 6, &mut rng);
    for m in [4, 12] {
        let h = random_hamiltonian(n, m, &mut rng);
        for evaluator in [
            EvaluatorKind::Sampled { shots: 64, seed: 3 },
            EvaluatorKind::Dense,
        ] {
            check(&h, &exec, evaluator, &genomes);
        }
    }
}

/// The staged search: the same engine as `run_cafqa` / `run_ncafqa` on the
/// staged objective wrapped in an `FnEvaluator`.
fn staged_run(
    h: &PauliSum,
    exec: &ExecutableAnsatz,
    config: &MultiGaConfig,
    seed: u64,
    noise_aware: Option<EvaluatorKind>,
) -> CafqaResult {
    let loss = LossFunction::new(exec, noise_aware.unwrap_or(EvaluatorKind::Exact));
    let objective = FnEvaluator::new(|g: &[u8]| staged(h, exec, &loss, noise_aware.is_some(), g).0);
    let ansatz = exec.ansatz();
    let result = MultiGa::new(ansatz.num_parameters(), 4, *config).run(seed, &objective);
    let theta_indices = result.best.genes.clone();
    CafqaResult {
        theta: ansatz.angles_from_indices(&theta_indices),
        energy_noiseless: staged(h, exec, &loss, false, &theta_indices).1,
        theta_indices,
        loss: result.best.loss,
        round_bests: result.round_bests,
        rounds: result.rounds,
    }
}

/// Everything a result carries, floats as bits.
fn fingerprint(r: &CafqaResult) -> (Vec<u8>, Vec<u64>, u64, u64, Vec<u64>, usize) {
    (
        r.theta_indices.clone(),
        bits(&r.theta),
        r.loss.to_bits(),
        r.energy_noiseless.to_bits(),
        bits(&r.round_bests),
        r.rounds,
    )
}

#[test]
fn whole_runs_match_the_staged_objective() {
    let config = MultiGaConfig::quick();
    let n = 4;
    let model = NoiseModel::uniform(n, 3e-3, 2e-2, 3e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let backend = FakeBackend::nairobi();
    let routed = ExecutableAnsatz::on_device(n, backend.coupling_map(), &backend.noise_model())
        .expect("nairobi hosts a 4-qubit chain");
    for (h, exec, seed) in [(ising(n, 0.5), &exec, 3), (xxz(n, 0.5), &routed, 8)] {
        assert_eq!(
            fingerprint(&run_cafqa(&h, exec, &config, seed)),
            fingerprint(&staged_run(&h, exec, &config, seed, None)),
            "CAFQA run"
        );
        let evaluator = EvaluatorKind::Exact;
        assert_eq!(
            fingerprint(&run_ncafqa(&h, exec, &config, evaluator, seed)),
            fingerprint(&staged_run(&h, exec, &config, seed, Some(evaluator))),
            "nCAFQA run"
        );
    }
}
