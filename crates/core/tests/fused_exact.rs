//! Differential tests for the fused transform + evaluate kernel: scoring a
//! genome straight from the packed planes of `H`
//! (`ExactEvaluator::transformed_energies`, and `TransformLoss`'s batch
//! path on top of it) must be **bit-identical** to the staged path —
//! `transform_hamiltonian`, then `ExactEvaluator::energy` plus
//! `expectation_all_zeros` — across register sizes, Hamiltonian sizes
//! (identity terms, fewer terms than the batch threshold, partial last
//! words, several words), genomes with and without the frozen two-qubit
//! slots, and zero and nonzero noise rates.

use clapton_circuits::TransformationAnsatz;
use clapton_core::{
    transform_hamiltonian, EvaluatorKind, ExecutableAnsatz, LossEvaluator, TransformLoss,
};
use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit, PackedHamiltonian};
use clapton_pauli::{PauliString, PauliSum};
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

/// A random uniform noise model; each rate is zero a quarter of the time
/// (a zero gate rate drops the basis-prep slots entirely).
fn random_model(n: usize, rng: &mut StdRng) -> NoiseModel {
    let p1 = [0.0, 1e-4, 3e-3, 2e-2][rng.gen_range(0..4)];
    let p2 = [0.0, 1e-3, 8e-3, 5e-2][rng.gen_range(0..4)];
    let ro = [0.0, 1e-3, 1e-2, 8e-2][rng.gen_range(0..4)];
    NoiseModel::uniform(n, p1, p2, ro)
}

fn random_genomes(count: usize, genes: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| (0..genes).map(|_| rng.gen_range(0..4u8)).collect())
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Checks one problem: the kernel against the staged path genome by
/// genome, then `evaluate_population` against `evaluate`.
fn check(h: &PauliSum, model: &NoiseModel, genomes: &[Vec<u8>], frozen: bool) {
    let n = h.num_qubits();
    let exec = ExecutableAnsatz::untranspiled(n, model);
    assert!(exec.mapping_is_identity(), "the fused path needs it");
    let ansatz = TransformationAnsatz::new(n);
    let mut loss = TransformLoss::new(h, &exec, &ansatz, EvaluatorKind::Exact);
    if frozen {
        loss = loss.freeze_two_qubit_slots();
    }
    let noisy = NoisyCircuit::from_circuit(&exec.circuit_at_zero(), model).unwrap();
    let eval = ExactEvaluator::new(&noisy);
    let packed = PackedHamiltonian::new(h);
    let m = h.num_terms();
    for gamma in genomes {
        let gates = ansatz.gates(&loss.masked(gamma));
        let (ln, l0) = eval.transformed_energies(&packed, &gates);
        let transformed = transform_hamiltonian(h, &gates);
        let staged = eval.energy(&transformed);
        assert_eq!(
            ln.to_bits(),
            staged.to_bits(),
            "LN: fused {ln} vs staged {staged} (n {n}, m {m}, frozen {frozen})"
        );
        // The scalar reference sums from -0.0 and the batched pass from
        // +0.0, so the two differ in the sign of an all-zero sum only.
        let scalar = eval.energy_scalar(&transformed);
        assert!(
            ln.to_bits() == scalar.to_bits() || (ln == 0.0 && scalar == 0.0),
            "LN: fused {ln} vs scalar {scalar} (n {n}, m {m})"
        );
        let anchor = transformed.expectation_all_zeros();
        assert_eq!(
            l0.to_bits(),
            anchor.to_bits(),
            "L0: fused {l0} vs staged {anchor} (n {n}, m {m})"
        );
    }
    let sequential: Vec<f64> = genomes.iter().map(|g| loss.evaluate(g)).collect();
    assert_eq!(
        bits(&loss.evaluate_population(genomes)),
        bits(&sequential),
        "evaluate_population vs evaluate (n {n}, m {m}, frozen {frozen})"
    );
}

#[test]
fn fused_loss_is_bit_identical_on_random_problems() {
    let mut rng = StdRng::seed_from_u64(1212);
    for round in 0..48 {
        let n = match round % 8 {
            0 => 1,
            _ => rng.gen_range(2..=12),
        };
        let m = rng.gen_range(1..=200);
        let h = random_hamiltonian(n, m, &mut rng);
        let model = random_model(n, &mut rng);
        let genes = TransformationAnsatz::new(n).num_genes();
        let genomes = random_genomes(6, genes, &mut rng);
        check(&h, &model, &genomes, round % 2 == 1);
    }
}

/// Term counts on both sides of the batch threshold and of the 64-lane
/// word boundaries.
#[test]
fn fused_loss_covers_every_word_shape() {
    let mut rng = StdRng::seed_from_u64(64);
    let n = 5;
    let model = NoiseModel::uniform(n, 2e-3, 1e-2, 2e-2);
    let genes = TransformationAnsatz::new(n).num_genes();
    for m in [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200] {
        let h = random_hamiltonian(n, m, &mut rng);
        let genomes = random_genomes(4, genes, &mut rng);
        check(&h, &model, &genomes, false);
        check(&h, &model, &genomes, true);
    }
}

/// A noiseless model: every damping factor is exactly 1, so LN is the
/// noiseless energy of the transformed problem at θ = 0.
#[test]
fn fused_loss_matches_without_noise() {
    let mut rng = StdRng::seed_from_u64(0);
    for n in [1, 3, 8] {
        let h = random_hamiltonian(n, 40, &mut rng);
        let genes = TransformationAnsatz::new(n).num_genes();
        let genomes = random_genomes(4, genes, &mut rng);
        check(&h, &NoiseModel::noiseless(n), &genomes, false);
    }
}

/// Registers beyond one 64-qubit storage word.
#[test]
fn fused_loss_handles_more_than_64_qubits() {
    let mut rng = StdRng::seed_from_u64(70);
    let n = 70;
    let h = random_hamiltonian(n, 90, &mut rng);
    let genes = TransformationAnsatz::new(n).num_genes();
    let genomes = random_genomes(3, genes, &mut rng);
    check(
        &h,
        &NoiseModel::uniform(n, 1e-3, 5e-3, 1e-2),
        &genomes,
        false,
    );
    check(&h, &NoiseModel::uniform(n, 0.0, 5e-3, 0.0), &genomes, true);
}

/// Terms whose images are all traceless with negative coefficients: the
/// sums are zeros, and their signs must match the staged path too.
#[test]
fn fused_loss_keeps_the_sign_of_zero_sums() {
    let n = 2;
    let model = NoiseModel::uniform(n, 1e-3, 1e-2, 1e-2);
    let genes = TransformationAnsatz::new(n).num_genes();
    for m in [1, 3, 8, 20] {
        let terms = (0..m).map(|i| (-0.5 - i as f64, "XI".parse().unwrap()));
        let h = PauliSum::from_terms(n, terms);
        check(&h, &model, &[vec![0; genes]], false);
    }
}

/// A non-identity logical → device mapping keeps the staged path, and the
/// batch still equals genome-at-a-time evaluation.
#[test]
fn routed_executable_keeps_the_staged_path() {
    use clapton_circuits::CouplingMap;
    let mut rng = StdRng::seed_from_u64(5);
    let n = 5;
    let h = random_hamiltonian(n, 30, &mut rng);
    let model = NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::on_device(n, &CouplingMap::line(n), &model).unwrap();
    assert!(!exec.mapping_is_identity(), "routing permutes the register");
    let ansatz = TransformationAnsatz::new(n);
    let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let genomes = random_genomes(8, ansatz.num_genes(), &mut rng);
    let sequential: Vec<f64> = genomes.iter().map(|g| loss.evaluate(g)).collect();
    assert_eq!(bits(&loss.evaluate_population(&genomes)), bits(&sequential));
}
