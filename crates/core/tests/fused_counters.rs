//! The fused kernel keeps the exact-evaluator throughput counters truthful:
//! scoring one genome through `TransformLoss`'s batch path advances
//! `clapton_exact_terms_total` and `clapton_exact_walks_total` by exactly
//! as much as the staged path (transform, prepared energy, `L0`) does.
//!
//! The counters are process-wide, so this file holds a single test: no
//! other test in the binary can move them while it measures.

use clapton_circuits::TransformationAnsatz;
use clapton_core::{EvaluatorKind, ExecutableAnsatz, LossEvaluator, TransformLoss};
use clapton_noise::NoiseModel;
use clapton_pauli::{PauliString, PauliSum};
use clapton_telemetry::metrics::registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(terms, walks)` counted so far.
fn counters() -> (u64, u64) {
    let terms = registry().counter("clapton_exact_terms_total", "").get();
    let walks = registry().counter("clapton_exact_walks_total", "").get();
    (terms, walks)
}

#[test]
fn fused_and_staged_paths_count_the_same_work() {
    // 100 terms: two 64-lane words, above the scalar threshold.
    let n = 10;
    let mut rng = StdRng::seed_from_u64(100);
    let h = PauliSum::from_terms(
        n,
        (0..100).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
    );
    let model = NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let ansatz = TransformationAnsatz::new(n);
    let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let genome: Vec<u8> = (0..ansatz.num_genes()).map(|i| (i % 4) as u8).collect();
    let prepared = loss.loss().prepared_zero().expect("exact backend prepares");

    let before = counters();
    let mut transformed = PauliSum::new(n);
    loss.transformed_into(&genome, &mut transformed);
    let staged = prepared.energy(&transformed) + loss.loss().loss_0(&transformed);
    let mid = counters();
    let fused = loss.evaluate_population(std::slice::from_ref(&genome))[0];
    let after = counters();

    assert_eq!(fused.to_bits(), staged.to_bits());
    let staged_delta = (mid.0 - before.0, mid.1 - before.1);
    let fused_delta = (after.0 - mid.0, after.1 - mid.1);
    assert_eq!(staged_delta, (100, 2), "staged: M terms in ⌈M/64⌉ walks");
    assert_eq!(fused_delta, staged_delta, "fused counts what staged counts");
}
