//! First-class loss evaluators: the objects the GA engine batches over.
//!
//! [`TransformLoss`] is Clapton's objective `L(γ) = LN(γ) + L0(γ)` packaged
//! as a [`LossEvaluator`]: it owns the problem Hamiltonian, the
//! transformation ansatz, the gene mask, and the loss (with its pluggable
//! [`EnergyBackend`](crate::EnergyBackend)). [`CafqaLoss`] is the θ-space
//! analogue for the CAFQA / nCAFQA baselines.
//!
//! Both are pure and `Sync`, so the engine's parallel batch path and
//! genome → loss cache apply transparently.

use crate::{
    transform_hamiltonian, transform_hamiltonian_into, EvaluatorKind, ExecutableAnsatz,
    LossFunction,
};
use clapton_circuits::{Circuit, TransformationAnsatz};
use clapton_eval::LossEvaluator;
use clapton_noise::PackedHamiltonian;
use clapton_pauli::PauliSum;
use std::ops::Range;
use std::sync::OnceLock;

/// The Clapton search objective over transformation genomes γ.
///
/// Each evaluation conjugates the Hamiltonian through the transformation
/// ansatz at the (masked) genome and scores `LN + L0` on the executable
/// ansatz — exactly the loss of Eq. 5/9/10.
///
/// # Example
///
/// ```
/// use clapton_core::{EvaluatorKind, ExecutableAnsatz, TransformLoss};
/// use clapton_circuits::TransformationAnsatz;
/// use clapton_eval::LossEvaluator;
/// use clapton_noise::NoiseModel;
/// use clapton_pauli::PauliSum;
///
/// let h = PauliSum::from_terms(2, vec![(1.0, "ZI".parse().unwrap())]);
/// let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// let exec = ExecutableAnsatz::untranspiled(2, &model);
/// let ansatz = TransformationAnsatz::new(2);
/// let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
/// // The identity genome scores the untransformed problem.
/// let identity = vec![0u8; ansatz.num_genes()];
/// let single = loss.evaluate(&identity);
/// let batch = loss.evaluate_population(&[identity.clone(), identity]);
/// assert_eq!(batch, vec![single, single]);
/// ```
#[derive(Debug, Clone)]
pub struct TransformLoss<'a> {
    h: &'a PauliSum,
    ansatz: &'a TransformationAnsatz,
    loss: LossFunction<'a>,
    /// Genes frozen to identity (the two-qubit-slot ablation of §4).
    frozen: Option<Range<usize>>,
    /// `h` packed into 64-lane planes for the fused batch kernel, built
    /// lazily once per loss object (like `LossFunction::prepared_zero`).
    packed: OnceLock<PackedHamiltonian>,
}

impl<'a> TransformLoss<'a> {
    /// Builds the objective for `h` on `exec`, searching over `ansatz`.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian, executable ansatz, and transformation
    /// ansatz disagree on the register size.
    pub fn new(
        h: &'a PauliSum,
        exec: &'a ExecutableAnsatz,
        ansatz: &'a TransformationAnsatz,
        evaluator: EvaluatorKind,
    ) -> TransformLoss<'a> {
        assert_eq!(
            h.num_qubits(),
            exec.num_logical(),
            "Hamiltonian/ansatz register mismatch"
        );
        assert_eq!(
            ansatz.num_qubits(),
            exec.num_logical(),
            "transformation/executable register mismatch"
        );
        TransformLoss {
            h,
            ansatz,
            loss: LossFunction::new(exec, evaluator),
            frozen: None,
            packed: OnceLock::new(),
        }
    }

    /// Freezes the four-valued two-qubit slot genes of Eq. 8 to identity,
    /// leaving a rotations-only transformation ansatz (ablation knob).
    #[must_use]
    pub fn freeze_two_qubit_slots(mut self) -> TransformLoss<'a> {
        let rotations = 2 * self.ansatz.num_qubits();
        self.frozen = Some(rotations..rotations + self.ansatz.pairs().len());
        self
    }

    /// The genome after applying the ablation mask.
    pub fn masked(&self, gamma: &[u8]) -> Vec<u8> {
        let mut g = gamma.to_vec();
        if let Some(range) = &self.frozen {
            for i in range.clone() {
                g[i] = 0;
            }
        }
        g
    }

    /// The transformed Hamiltonian `Ĥ = C†(γ) H C(γ)` at a genome.
    pub fn transformed(&self, gamma: &[u8]) -> PauliSum {
        transform_hamiltonian(self.h, &self.ansatz.gates(&self.masked(gamma)))
    }

    /// [`TransformLoss::transformed`] into a caller-owned scratch sum: the
    /// batch path reuses one `Ĥ` buffer across a whole population, so the
    /// per-genome transform performs no term-string allocation.
    pub fn transformed_into(&self, gamma: &[u8], out: &mut PauliSum) {
        transform_hamiltonian_into(self.h, &self.ansatz.gates(&self.masked(gamma)), out);
    }

    /// The underlying loss function (for `LN`/`L0` decompositions).
    pub fn loss(&self) -> &LossFunction<'a> {
        &self.loss
    }
}

impl LossEvaluator for TransformLoss<'_> {
    fn evaluate(&self, gamma: &[u8]) -> f64 {
        self.loss.total(&self.transformed(gamma))
    }

    /// The population-batch fast path: the backend is prepared once per
    /// loss object for the fixed `θ = 0` circuit (noise attachment and, for
    /// the sampled backend, the per-term prep cache hoisted out of the
    /// per-genome loop and shared across batches/rounds/pooled chunks),
    /// then every genome pays only its own transformation and energy.
    ///
    /// When the logical → device mapping is the identity and the backend
    /// fuses (the exact one does), each genome is scored straight from `h`
    /// packed once into 64-lane planes ([`PreparedEnergy::transformed_loss`]):
    /// no `Ĥ`, no tableau. Otherwise `Ĥ` is transformed into one scratch
    /// sum reused across the batch, so the per-genome transform allocates
    /// no term strings. Either way the losses are bit-identical to
    /// genome-at-a-time [`LossEvaluator::evaluate`] — the same arithmetic,
    /// minus the reconstruction overhead.
    ///
    /// [`PreparedEnergy::transformed_loss`]: crate::PreparedEnergy::transformed_loss
    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        let Some(prepared) = self.loss.prepared_zero() else {
            return genomes.iter().map(|gamma| self.evaluate(gamma)).collect();
        };
        let packed = self
            .loss
            .exec()
            .mapping_is_identity()
            .then(|| self.packed.get_or_init(|| PackedHamiltonian::new(self.h)));
        let mut transformed = PauliSum::new(self.h.num_qubits());
        genomes
            .iter()
            .map(|gamma| {
                let gates = self.ansatz.gates(&self.masked(gamma));
                packed
                    .and_then(|packed| prepared.transformed_loss(packed, &gates))
                    .unwrap_or_else(|| {
                        transform_hamiltonian_into(self.h, &gates, &mut transformed);
                        self.loss.loss_n_prepared(prepared, &transformed)
                            + self.loss.loss_0(&transformed)
                    })
            })
            .collect()
    }

    /// Frozen slot genes do not affect the loss, so the masked genome is the
    /// cache identity — genomes differing only in frozen genes share one
    /// memo entry.
    fn canonical_key(&self, gamma: &[u8]) -> Vec<u8> {
        self.masked(gamma)
    }
}

/// The CAFQA / nCAFQA search objective over quarter-turn indices of θ.
///
/// CAFQA minimizes the noiseless Clifford energy `⟨0|A†(θ) H A(θ)|0⟩`;
/// noise-aware CAFQA adds the `LN` term computed by the configured backend
/// (§5.2).
///
/// `H` is mapped onto the executable register and packed into 64-lane
/// planes once, when the objective is built. Each genome then pays only for
/// its own circuit: `A'(θ)` is built once and lowered to its Clifford
/// gates, which conjugate the packed words, last gate first; the noiseless
/// energy is read off the planes ([`PackedHamiltonian::noiseless_energy`]),
/// with no noisy circuit and no depolarizing slot in the walk. nCAFQA's
/// `LN` scores the same circuit against the mapped `H` through the
/// backend. Losses are bit-identical to the staged
/// `LossFunction::noiseless_for_circuit` /
/// `LossFunction::loss_n_for_circuit` on `exec.circuit(θ)`, routed
/// executables included.
#[derive(Debug, Clone)]
pub struct CafqaLoss<'a> {
    exec: &'a ExecutableAnsatz,
    loss: LossFunction<'a>,
    /// `H` on the executable's compact register (measurement mapping
    /// applied).
    mapped: PauliSum,
    /// `mapped` packed into 64-lane planes.
    packed: PackedHamiltonian,
    noise_aware: bool,
}

impl<'a> CafqaLoss<'a> {
    /// The plain CAFQA objective: noiseless energy only.
    ///
    /// # Panics
    ///
    /// Panics on a register mismatch between `h` and `exec`.
    pub fn cafqa(h: &PauliSum, exec: &'a ExecutableAnsatz) -> CafqaLoss<'a> {
        CafqaLoss::build(h, exec, EvaluatorKind::Exact, false)
    }

    /// The noise-aware nCAFQA objective: `LN(θ) + L0(θ)`.
    ///
    /// # Panics
    ///
    /// Panics on a register mismatch between `h` and `exec`.
    pub fn ncafqa(
        h: &PauliSum,
        exec: &'a ExecutableAnsatz,
        evaluator: EvaluatorKind,
    ) -> CafqaLoss<'a> {
        CafqaLoss::build(h, exec, evaluator, true)
    }

    fn build(
        h: &PauliSum,
        exec: &'a ExecutableAnsatz,
        evaluator: EvaluatorKind,
        noise_aware: bool,
    ) -> CafqaLoss<'a> {
        assert_eq!(h.num_qubits(), exec.num_logical(), "register mismatch");
        let mapped = exec.map_hamiltonian(h);
        CafqaLoss {
            exec,
            loss: LossFunction::new(exec, evaluator),
            packed: PackedHamiltonian::new(&mapped),
            mapped,
            noise_aware,
        }
    }

    /// The underlying loss function.
    pub fn loss(&self) -> &LossFunction<'a> {
        &self.loss
    }

    /// The noiseless energy of the ansatz at quarter-turn indices.
    pub fn noiseless_energy(&self, indices: &[u8]) -> f64 {
        self.noiseless_for(&self.circuit(indices))
    }

    /// `A'(θ)` at quarter-turn indices.
    fn circuit(&self, indices: &[u8]) -> Circuit {
        self.exec
            .circuit(&self.exec.ansatz().angles_from_indices(indices))
    }

    /// The noiseless energy of `A'(θ)`, read off `H`'s packed planes.
    fn noiseless_for(&self, circuit: &Circuit) -> f64 {
        let gates = circuit
            .to_clifford()
            .expect("quarter-turn circuits are Clifford");
        self.packed.noiseless_energy(&gates)
    }
}

impl LossEvaluator for CafqaLoss<'_> {
    fn evaluate(&self, indices: &[u8]) -> f64 {
        let circuit = self.circuit(indices);
        let noiseless = self.noiseless_for(&circuit);
        if self.noise_aware {
            let model = self.exec.noise_model();
            self.loss.backend().energy(&circuit, model, &self.mapped) + noiseless
        } else {
            noiseless
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_eval::{CachedEvaluator, ParallelEvaluator};
    use clapton_models::ising;
    use clapton_noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_genomes(n: usize, genes: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..genes).map(|_| rng.gen_range(0..4u8)).collect())
            .collect()
    }

    #[test]
    fn batch_evaluation_is_bit_identical_to_sequential() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let genomes = random_genomes(24, ansatz.num_genes(), 3);
        let sequential: Vec<f64> = genomes.iter().map(|g| loss.evaluate(g)).collect();
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        // Parallel and cached wrappers preserve the values exactly.
        let parallel = ParallelEvaluator::with_threads(&loss, 4);
        assert_eq!(parallel.evaluate_population(&genomes), sequential);
        let cached = CachedEvaluator::new(&loss);
        assert_eq!(cached.evaluate_population(&genomes), sequential);
        assert_eq!(cached.evaluate_population(&genomes), sequential);
        assert_eq!(cached.stats().misses, genomes.len() as u64);
    }

    #[test]
    fn sampled_population_batch_is_bit_identical_through_every_path() {
        // The sampled backend's prepared batch path (noisy circuit + term
        // cache hoisted) and the pool-backed wrapper must replay the
        // genome-at-a-time losses exactly: per-candidate seeding is content
        // hashed and term-prep cache hits consume no randomness.
        use crate::{PooledEvaluator, WorkerPool};
        use std::sync::Arc;
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(
            &h,
            &exec,
            &ansatz,
            EvaluatorKind::Sampled {
                shots: 96,
                seed: 11,
            },
        );
        let genomes = random_genomes(16, ansatz.num_genes(), 5);
        let sequential: Vec<f64> = genomes.iter().map(|g| loss.evaluate(g)).collect();
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        // A second batch shares the loss object's one prepared backend —
        // its term cache is warm now — and still replays exactly.
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        let pool = Arc::new(WorkerPool::with_workers(2));
        let pooled = PooledEvaluator::new(&loss, pool);
        assert_eq!(pooled.evaluate_population(&genomes), sequential);
    }

    #[test]
    fn transformed_into_matches_transformed() {
        let h = ising(4, 0.5);
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let ansatz = TransformationAnsatz::new(4);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let mut scratch = clapton_pauli::PauliSum::new(4);
        for gamma in random_genomes(12, ansatz.num_genes(), 21) {
            loss.transformed_into(&gamma, &mut scratch);
            assert_eq!(scratch, loss.transformed(&gamma));
        }
    }

    #[test]
    fn identity_genome_scores_untransformed_problem() {
        let h = ising(3, 1.0);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let identity = vec![0u8; ansatz.num_genes()];
        let expected = loss.loss().total(&h);
        assert!((loss.evaluate(&identity) - expected).abs() < 1e-12);
    }

    #[test]
    fn frozen_slots_ignore_slot_genes() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss =
            TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact).freeze_two_qubit_slots();
        let mut gamma = vec![0u8; ansatz.num_genes()];
        let base = loss.evaluate(&gamma);
        // Twiddling a frozen slot gene must not change the loss.
        gamma[2 * 3] = 3;
        assert_eq!(loss.evaluate(&gamma), base);
        assert_eq!(loss.masked(&gamma)[2 * 3], 0);
    }

    #[test]
    fn frozen_slots_share_cache_entries() {
        // Genomes differing only in frozen genes must hit one memo entry.
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss =
            TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact).freeze_two_qubit_slots();
        let cached = CachedEvaluator::new(&loss);
        let mut a = vec![1u8; ansatz.num_genes()];
        let mut b = a.clone();
        a[2 * 3] = 0;
        b[2 * 3] = 3; // frozen slot gene differs
        assert_eq!(cached.evaluate(&a), cached.evaluate(&b));
        assert_eq!(cached.stats().misses, 1, "one canonical entry");
        assert_eq!(cached.stats().hits, 1);
    }

    #[test]
    fn cafqa_loss_is_noiseless_energy() {
        let h = ising(3, 0.5);
        let exec = ExecutableAnsatz::untranspiled(3, &NoiseModel::noiseless(3));
        let loss = CafqaLoss::cafqa(&h, &exec);
        let genomes = random_genomes(8, exec.ansatz().num_parameters(), 9);
        for g in &genomes {
            assert_eq!(loss.evaluate(g), loss.noiseless_energy(g));
        }
    }

    #[test]
    fn ncafqa_adds_noisy_term() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 5e-3, 2e-2, 3e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let plain = CafqaLoss::cafqa(&h, &exec);
        let aware = CafqaLoss::ncafqa(&h, &exec, EvaluatorKind::Exact);
        let g = vec![1u8; exec.ansatz().num_parameters()];
        // LN is finite and distinct from zero under real noise, so the two
        // objectives must differ by exactly that term.
        let ln = aware
            .loss()
            .loss_n_for_circuit(&exec.circuit(&exec.ansatz().angles_from_indices(&g)), &h);
        assert!((aware.evaluate(&g) - (plain.evaluate(&g) + ln)).abs() < 1e-12);
    }
}
