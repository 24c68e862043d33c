//! Microbenchmarks of the dense simulation substrate (the device-evaluation
//! cost that dominates VQE runs in Figures 5 and 6).

use clapton_bench::timing::{counterbalanced_samples, median};
use clapton_circuits::HardwareEfficientAnsatz;
use clapton_models::{ising, molecular, xxz, Molecule};
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_sim::{ground_energy, reference, DeviceEvaluator, StateVector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_ansatz");
    for n in [6usize, 8, 10] {
        let ansatz = HardwareEfficientAnsatz::new(n);
        let theta: Vec<f64> = (0..ansatz.num_parameters())
            .map(|i| 0.1 * i as f64)
            .collect();
        let circuit = ansatz.circuit(&theta);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| StateVector::from_circuit(black_box(&circuit)));
        });
    }
    group.finish();
}

fn bench_device_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_evaluation");
    group.sample_size(10);
    for n in [6usize, 8, 10] {
        let ansatz = HardwareEfficientAnsatz::new(n);
        let theta: Vec<f64> = (0..ansatz.num_parameters())
            .map(|i| 0.2 * i as f64)
            .collect();
        let circuit = ansatz.circuit(&theta);
        let mut model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        model.set_t1_uniform(100e-6);
        let h = ising(n, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| DeviceEvaluator::run(black_box(&circuit), &model).energy(&h));
        });
    }
    group.finish();
}

/// The multi-pass reference kernels against the one-pass fused kernels per
/// `DeviceEvaluator::run` + `energy` on the HEA at θ = 0 (the suite's
/// device evaluation), counterbalanced, with and without T1 relaxation.
/// Appends one speedup row per case.
fn emit_device_fused(_c: &mut Criterion) {
    for n in [6usize, 8, 10] {
        let circuit = HardwareEfficientAnsatz::new(n).circuit_at_zero();
        let h = ising(n, 0.25);
        for (noise, t1) in [("suite", f64::INFINITY), ("t1_100us", 100e-6)] {
            let mut model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
            model.set_t1_uniform(t1);
            let reference_energy = reference::run(&circuit, &model).energy(&h);
            let fused_energy = DeviceEvaluator::run(&circuit, &model).energy(&h);
            assert_eq!(reference_energy.to_bits(), fused_energy.to_bits());
            let mut run_reference = || {
                black_box(reference::run(black_box(&circuit), &model).energy(&h));
            };
            let mut run_fused = || {
                black_box(DeviceEvaluator::run(black_box(&circuit), &model).energy(&h));
            };
            let rounds = if n == 10 { 4 } else { 12 };
            let (reference_samples, fused_samples) =
                counterbalanced_samples(rounds, &mut run_reference, &mut run_fused);
            let (reference_ns, fused_ns) = (median(reference_samples), median(fused_samples));
            let speedup = reference_ns as f64 / fused_ns.max(1) as f64;
            let id = format!("n{n}/{noise}");
            println!(
                "device_fused/{id}: {speedup:.2}x (reference {:.2} ms / fused {:.2} ms per run)",
                reference_ns as f64 / 1e6,
                fused_ns as f64 / 1e6
            );
            criterion::append_line(&format!(
                "{{\"group\":\"device_fused\",\"id\":\"{id}\",\"reference_ns\":{reference_ns},\"fused_ns\":{fused_ns},\"speedup_x\":{speedup:.2}}}"
            ));
        }
    }
}

/// The fixed-step per-term reference Lanczos solver against the converged
/// solver on the X-mask-grouped operator per `ground_energy` call on the
/// suite's 10-qubit Hamiltonians, counterbalanced. `E0` may move in its last
/// bits, never by more than 1e-10. Appends one speedup row per Hamiltonian.
fn emit_ground_fused(_c: &mut Criterion) {
    let molecule = |m: Molecule| molecular(m, m.bond_lengths()[0]);
    let cases: [(&str, PauliSum); 5] = [
        ("ising10", ising(10, 0.5)),
        ("xxz10", xxz(10, 0.5)),
        ("H2O", molecule(Molecule::H2O)),
        ("H6", molecule(Molecule::H6)),
        ("LiH", molecule(Molecule::LiH)),
    ];
    for (id, h) in &cases {
        let (e0_reference, e0) = (reference::ground_energy(h), ground_energy(h));
        assert!(
            (e0_reference - e0).abs() <= 1e-10,
            "{id}: reference {e0_reference} vs converged {e0}"
        );
        let mut run_reference = || {
            black_box(reference::ground_energy(black_box(h)));
        };
        let mut run_fused = || {
            black_box(ground_energy(black_box(h)));
        };
        let (reference_samples, fused_samples) =
            counterbalanced_samples(2, &mut run_reference, &mut run_fused);
        let (reference_ns, fused_ns) = (median(reference_samples), median(fused_samples));
        let speedup = reference_ns as f64 / fused_ns.max(1) as f64;
        println!(
            "ground_fused/{id}: {speedup:.2}x (reference {:.1} ms / fused {:.1} ms per call)",
            reference_ns as f64 / 1e6,
            fused_ns as f64 / 1e6
        );
        criterion::append_line(&format!(
            "{{\"group\":\"ground_fused\",\"id\":\"{id}\",\"terms\":{},\"reference_ns\":{reference_ns},\"fused_ns\":{fused_ns},\"speedup_x\":{speedup:.2}}}",
            h.num_terms()
        ));
    }
}

fn bench_ground_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanczos_ground_energy");
    group.sample_size(10);
    for n in [8usize, 10, 12] {
        let h = ising(n, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ground_energy(black_box(&h)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_statevector, bench_device_evaluation, emit_device_fused, emit_ground_fused, bench_ground_energy
}
criterion_main!(benches);
