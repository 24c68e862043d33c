//! Ad-hoc breakdown of the per-genome loss-evaluation cost (dev aid): the
//! batch path (the fused kernel, scored straight from `H`'s packed planes)
//! and the stages of the staged path it replaces, for Clapton's objective
//! and for CAFQA's.
//!
//! ```sh
//! cargo run --release --example profile_hotpath
//! ```

use clapton::circuits::TransformationAnsatz;
use clapton::core::{
    CafqaLoss, EvaluatorKind, ExecutableAnsatz, LossEvaluator, LossFunction, TransformLoss,
};
use clapton::models::ising;
use clapton::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let n = 10;
    let h = ising(n, 0.25);
    let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let ansatz = TransformationAnsatz::new(n);
    let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let mut rng = StdRng::seed_from_u64(17);
    let population: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4u8))
                .collect()
        })
        .collect();

    let reps = 20;

    let t = Instant::now();
    for _ in 0..reps {
        for g in &population {
            black_box(loss.evaluate(black_box(g)));
        }
    }
    let full = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    let t = Instant::now();
    for _ in 0..reps {
        black_box(loss.evaluate_population(black_box(&population)));
    }
    let batch = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    // The fused kernel alone, with each genome's gates built up front.
    let zero = exec.circuit_at_zero();
    let noisy = clapton::noise::NoisyCircuit::from_circuit(&zero, exec.noise_model()).unwrap();
    let eval = clapton::noise::ExactEvaluator::new(&noisy);
    let packed = clapton::noise::PackedHamiltonian::new(&h);
    let gate_lists: Vec<_> = population.iter().map(|g| ansatz.gates(g)).collect();
    let t = Instant::now();
    for _ in 0..reps {
        for gates in &gate_lists {
            black_box(eval.transformed_energies(&packed, black_box(gates)));
        }
    }
    let fused = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    let t = Instant::now();
    for _ in 0..reps {
        for g in &population {
            black_box(loss.transformed(black_box(g)));
        }
    }
    let transform = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    let t = Instant::now();
    for _ in 0..reps {
        for g in &population {
            black_box(ansatz.gates(black_box(g)));
        }
    }
    let gates = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    // NoisyCircuit construction for the fixed zero circuit.
    let t = Instant::now();
    for _ in 0..(reps * population.len()) {
        black_box(
            clapton::noise::NoisyCircuit::from_circuit(black_box(&zero), exec.noise_model())
                .unwrap(),
        );
    }
    let noisy_build = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    // Back-prop energy with a prebuilt evaluator.
    let transformed = loss.transformed(&population[0]);
    let mapped = exec.map_hamiltonian(&transformed);
    let t = Instant::now();
    for _ in 0..(reps * population.len()) {
        black_box(eval.energy(black_box(&mapped)));
    }
    let energy = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    let t = Instant::now();
    for _ in 0..(reps * population.len()) {
        black_box(exec.map_hamiltonian(black_box(&transformed)));
    }
    let map_h = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    let t = Instant::now();
    for _ in 0..(reps * population.len()) {
        black_box(black_box(&transformed).expectation_all_zeros());
    }
    let loss0 = t.elapsed().as_nanos() / (reps * population.len()) as u128;

    // CAFQA: the fused objective against the stages of the staged one.
    let cafqa = CafqaLoss::cafqa(&h, &exec);
    let staged = LossFunction::new(&exec, EvaluatorKind::Exact);
    let thetas: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            (0..exec.ansatz().num_parameters())
                .map(|_| rng.gen_range(0..4u8))
                .collect()
        })
        .collect();
    let clifford_gates = |k: &[u8]| {
        exec.circuit(&exec.ansatz().angles_from_indices(k))
            .to_clifford()
            .unwrap()
    };
    let per_theta = |t: Instant| t.elapsed().as_nanos() / (reps * thetas.len()) as u128;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(cafqa.evaluate_population(black_box(&thetas)));
    }
    let cafqa_fused = per_theta(t);
    let t = Instant::now();
    for _ in 0..reps {
        for k in &thetas {
            black_box(clifford_gates(black_box(k)));
        }
    }
    let cafqa_gates = per_theta(t);
    let packed_mapped = clapton::noise::PackedHamiltonian::new(&exec.map_hamiltonian(&h));
    let gate_lists: Vec<_> = thetas.iter().map(|k| clifford_gates(k)).collect();
    let t = Instant::now();
    for _ in 0..reps {
        for gates in &gate_lists {
            black_box(packed_mapped.noiseless_energy(black_box(gates)));
        }
    }
    let cafqa_kernel = per_theta(t);
    let t = Instant::now();
    for _ in 0..reps {
        for k in &thetas {
            black_box(exec.circuit(&exec.ansatz().angles_from_indices(black_box(k))));
        }
    }
    let cafqa_circuit = per_theta(t);
    let circuits: Vec<_> = thetas
        .iter()
        .map(|k| exec.circuit(&exec.ansatz().angles_from_indices(k)))
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for c in &circuits {
            black_box(staged.noiseless_for_circuit(black_box(c), &h));
        }
    }
    let cafqa_staged = per_theta(t);
    let t = Instant::now();
    for _ in 0..reps {
        for c in &circuits {
            black_box(
                clapton::noise::NoisyCircuit::from_circuit(black_box(c), exec.noise_model())
                    .unwrap(),
            );
        }
    }
    let cafqa_noisy = per_theta(t);

    println!("full evaluate      : {full:>8} ns/genome");
    println!("batch evaluate     : {batch:>8} ns/genome (fused)");
    println!("  fused kernel     : {fused:>8} ns  (gates: {gates} ns, not included)");
    println!("staged path stages:");
    println!("  transformed()    : {transform:>8} ns");
    println!("  map_hamiltonian  : {map_h:>8} ns");
    println!("  NoisyCircuit     : {noisy_build:>8} ns");
    println!("  back-prop energy : {energy:>8} ns");
    println!("  loss_0           : {loss0:>8} ns");
    println!("CAFQA (ising10, θ genomes):");
    println!("  fused evaluate   : {cafqa_fused:>8} ns/genome");
    println!("    A'(θ) + gates  : {cafqa_gates:>8} ns");
    println!("    packed kernel  : {cafqa_kernel:>8} ns");
    println!("staged CAFQA stages:");
    println!("  circuit A'(θ)    : {cafqa_circuit:>8} ns");
    println!("  noiseless_for_circuit: {cafqa_staged:>4} ns (map + NoisyCircuit + re-pack + walk)");
    println!("    NoisyCircuit   : {cafqa_noisy:>8} ns");
}
