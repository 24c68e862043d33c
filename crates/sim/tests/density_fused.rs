//! Differential suite: the one-pass fused dense kernels behind
//! `DeviceEvaluator::run` against the multi-pass `reference` kernels they
//! replaced, on the suite's 10-qubit device evaluations. Energies and
//! outcome distributions must agree bit for bit.

use clapton_circuits::{Circuit, HardwareEfficientAnsatz};
use clapton_models::{ising, molecular, xxz, Molecule};
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_sim::{reference, DeviceEvaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 10;

/// The suite's uniform noise `(p1, p2, readout)`.
const SUITE_NOISE: (f64, f64, f64) = (3e-4, 8e-3, 2e-2);

fn suite_model(t1: Option<f64>) -> NoiseModel {
    let (p1, p2, readout) = SUITE_NOISE;
    let mut model = NoiseModel::uniform(N, p1, p2, readout);
    if let Some(t1) = t1 {
        model.set_t1_uniform(t1);
    }
    model
}

fn hamiltonians() -> Vec<(&'static str, PauliSum)> {
    vec![
        ("ising", ising(N, 0.25)),
        ("xxz", xxz(N, 1.0)),
        (
            "H2O",
            molecular(Molecule::H2O, Molecule::H2O.bond_lengths()[0]),
        ),
    ]
}

fn assert_bit_identical(circuit: &Circuit, model: &NoiseModel, label: &str) {
    let fused = DeviceEvaluator::run(circuit, model);
    let oracle = reference::run(circuit, model);
    let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert!(
        bits(fused.state().diagonal_probabilities())
            == bits(oracle.state().diagonal_probabilities()),
        "{label}: outcome distributions differ"
    );
    for (name, h) in hamiltonians() {
        let (a, b) = (fused.energy(&h), oracle.energy(&h));
        assert_eq!(a.to_bits(), b.to_bits(), "{label}/{name}: {a} vs {b}");
    }
}

#[test]
fn hea_at_zero_is_bit_identical() {
    let circuit = HardwareEfficientAnsatz::new(N).circuit_at_zero();
    for t1 in [None, Some(100e-6)] {
        assert_bit_identical(&circuit, &suite_model(t1), &format!("θ = 0, T1 {t1:?}"));
    }
}

#[test]
fn hea_at_cafqa_quarter_turns_is_bit_identical() {
    let ansatz = HardwareEfficientAnsatz::new(N);
    let mut rng = StdRng::seed_from_u64(1013);
    for (point, t1) in [None, Some(100e-6), None].into_iter().enumerate() {
        let indices: Vec<u8> = (0..ansatz.num_parameters())
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        let circuit = ansatz.circuit(&ansatz.angles_from_indices(&indices));
        assert_bit_identical(
            &circuit,
            &suite_model(t1),
            &format!("quarter turns #{point}, T1 {t1:?}"),
        );
    }
}
