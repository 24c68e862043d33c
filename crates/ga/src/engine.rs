//! The multi-instance mix-and-restart engine of Figure 4, as a resumable
//! state machine.

use crate::{GaConfig, GaInstance, Individual};
use clapton_eval::{CacheStats, CachedEvaluator, LossEvaluator, LossStore, ParallelEvaluator};
use clapton_runtime::{hex_decode, hex_encode, PooledEvaluator, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hyper-parameters of the full Clapton optimization engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiGaConfig {
    /// Number of parallel GA instances (`s`).
    pub instances: usize,
    /// Top solutions taken from each instance when mixing (`k`).
    pub top_k: usize,
    /// Rounds without improvement tolerated before terminating
    /// ("two retry rounds", §4.1).
    pub max_retry_rounds: usize,
    /// Hard cap on rounds (safety bound; the paper loops to convergence).
    pub max_rounds: usize,
    /// Fraction of each new population drawn from the mixed pool (the rest
    /// are fresh random guesses).
    pub pool_fraction: f64,
    /// Run instances on parallel threads and fan population batches out over
    /// the remaining cores. Results are bit-identical to the serial path.
    /// (With [`MultiGa::run_pooled`] the shared worker pool takes over both
    /// roles and this flag is ignored.)
    pub parallel: bool,
    /// Per-instance GA settings.
    pub ga: GaConfig,
}

impl MultiGaConfig {
    /// The paper's hyper-parameters: `s = 10`, `m = 100`, `k = 20`,
    /// `|S| = 100` (§4.1).
    pub fn paper() -> MultiGaConfig {
        MultiGaConfig {
            instances: 10,
            top_k: 20,
            max_retry_rounds: 2,
            max_rounds: 64,
            pool_fraction: 0.5,
            parallel: true,
            ga: GaConfig::default(),
        }
    }

    /// A reduced setting for tests and quick experiments.
    pub fn quick() -> MultiGaConfig {
        MultiGaConfig {
            instances: 3,
            top_k: 6,
            max_retry_rounds: 1,
            max_rounds: 8,
            pool_fraction: 0.5,
            parallel: false,
            ga: GaConfig {
                population_size: 30,
                generations: 20,
                ..GaConfig::default()
            },
        }
    }
}

impl Default for MultiGaConfig {
    fn default() -> MultiGaConfig {
        MultiGaConfig::paper()
    }
}

/// The outcome of a multi-GA optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGaResult {
    /// The best individual found.
    pub best: Individual,
    /// Global best loss after each round (non-increasing).
    pub round_bests: Vec<f64>,
    /// Total number of rounds executed.
    pub rounds: usize,
    /// Evaluation-cache traffic per round: how many fitness requests were
    /// answered from the genome → loss memo vs. actually computed. Duplicate
    /// genomes recur heavily across mix-and-restart rounds, so later rounds
    /// typically show high hit rates.
    pub round_eval_stats: Vec<CacheStats>,
    /// Distinct genomes (canonical keys) whose loss was actually computed.
    pub unique_evaluations: u64,
    /// Total fitness requests answered from the cache.
    pub cache_hits: u64,
}

impl MultiGaResult {
    /// Total fitness requests across the run (hits + real evaluations).
    pub fn fitness_requests(&self) -> u64 {
        self.unique_evaluations + self.cache_hits
    }

    /// Overall cache hit fraction in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.fitness_requests();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The complete engine state between two rounds — the checkpoint unit.
///
/// Produced by [`MultiGa::start`], advanced one round at a time by
/// [`MultiGa::step`] (or [`MultiGa::step_pooled`]), and serializable as
/// JSON. A state written after round `k` and deserialized later continues
/// **bit-identically** to a run that was never interrupted: the mixing RNG
/// state, the per-instance restart seeds, and the full genome → loss memo
/// (with its statistics) are all part of the snapshot, and per-instance GA
/// streams are derived deterministically from `(seed, round, instance)`.
///
/// In JSON each memo genome is one lowercase hex string (two digits per
/// gene) rather than an array of genes; the reader also accepts the array
/// form, so checkpoints written before the hex encoding still resume.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The base seed the run was started with.
    pub seed: u64,
    /// Caller-defined problem fingerprint. The engine initializes it to `0`
    /// and never reads it; layers that serialize checkpoints (e.g.
    /// `run_clapton_resumable`) stamp a hash of their objective here and
    /// refuse to resume a state whose fingerprint does not match — a memo
    /// cache built against a different loss would silently corrupt the
    /// search.
    pub tag: u64,
    /// The next round to execute (= rounds completed so far).
    pub next_round: usize,
    /// Restart seeds assigned to each instance by the last mix step.
    pub seeds_per_instance: Vec<Option<Vec<Vec<u8>>>>,
    /// Best individual found so far.
    pub global_best: Option<Individual>,
    /// Global best loss after each completed round.
    pub round_bests: Vec<f64>,
    /// Cache traffic per completed round.
    pub round_eval_stats: Vec<CacheStats>,
    /// Rounds without improvement so far.
    pub retries: usize,
    /// Raw state of the mixing RNG.
    pub mix_rng: [u64; 4],
    /// The genome → loss memo, sorted by key (deterministic snapshots).
    pub cache_entries: Vec<(Vec<u8>, f64)>,
    /// Cache statistics matching `cache_entries`.
    pub cache_stats: CacheStats,
    /// Whether the run has converged (no further steps allowed).
    pub finished: bool,
}

impl EngineState {
    /// Number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.next_round
    }
}

// Hand-written serde (the vendored derive has no field attributes): the
// same map as a derive would write, except that `cache_entries` holds
// `[hex genome, loss]` pairs. The memo is most of a checkpoint, and one
// string per genome instead of one value per gene keeps the serialized
// tree — and the per-round heap spike of writing it — small.
impl Serialize for EngineState {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::{to_value, Value};
        let memo = self
            .cache_entries
            .iter()
            .map(|(genes, loss)| Value::Seq(vec![Value::Str(hex_encode(genes)), to_value(loss)]))
            .collect();
        serializer.serialize_value(Value::Map(vec![
            ("seed".to_string(), to_value(&self.seed)),
            ("tag".to_string(), to_value(&self.tag)),
            ("next_round".to_string(), to_value(&self.next_round)),
            (
                "seeds_per_instance".to_string(),
                to_value(&self.seeds_per_instance),
            ),
            ("global_best".to_string(), to_value(&self.global_best)),
            ("round_bests".to_string(), to_value(&self.round_bests)),
            (
                "round_eval_stats".to_string(),
                to_value(&self.round_eval_stats),
            ),
            ("retries".to_string(), to_value(&self.retries)),
            ("mix_rng".to_string(), to_value(&self.mix_rng)),
            ("cache_entries".to_string(), Value::Seq(memo)),
            ("cache_stats".to_string(), to_value(&self.cache_stats)),
            ("finished".to_string(), to_value(&self.finished)),
        ]))
    }
}

impl<'de> Deserialize<'de> for EngineState {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        use serde::take_field;
        let mut map = match deserializer.take_value()? {
            serde::Value::Map(map) => map,
            other => {
                return Err(D::Error::custom(format!(
                    "expected map for struct EngineState, found {other:?}"
                )))
            }
        };
        let memo: Vec<(MemoGenome, f64)> =
            take_field(&mut map, "cache_entries").map_err(D::Error::custom)?;
        Ok(EngineState {
            seed: take_field(&mut map, "seed").map_err(D::Error::custom)?,
            tag: take_field(&mut map, "tag").map_err(D::Error::custom)?,
            next_round: take_field(&mut map, "next_round").map_err(D::Error::custom)?,
            seeds_per_instance: take_field(&mut map, "seeds_per_instance")
                .map_err(D::Error::custom)?,
            global_best: take_field(&mut map, "global_best").map_err(D::Error::custom)?,
            round_bests: take_field(&mut map, "round_bests").map_err(D::Error::custom)?,
            round_eval_stats: take_field(&mut map, "round_eval_stats").map_err(D::Error::custom)?,
            retries: take_field(&mut map, "retries").map_err(D::Error::custom)?,
            mix_rng: take_field(&mut map, "mix_rng").map_err(D::Error::custom)?,
            cache_entries: memo.into_iter().map(|(g, loss)| (g.0, loss)).collect(),
            cache_stats: take_field(&mut map, "cache_stats").map_err(D::Error::custom)?,
            finished: take_field(&mut map, "finished").map_err(D::Error::custom)?,
        })
    }
}

/// A memo genome as read from a checkpoint: a hex string, or the legacy
/// array of genes.
struct MemoGenome(Vec<u8>);

impl<'de> Deserialize<'de> for MemoGenome {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        match deserializer.take_value()? {
            serde::Value::Str(hex) => hex_decode(&hex)
                .map(MemoGenome)
                .ok_or_else(|| D::Error::custom(format!("malformed hex genome {hex:?}"))),
            legacy => serde::from_value(legacy)
                .map(MemoGenome)
                .map_err(D::Error::custom),
        }
    }
}

/// How one round's GA instances are executed.
#[derive(Clone, Copy)]
enum RoundExec<'p> {
    /// All instances on the calling thread.
    Serial,
    /// One scoped thread per instance (the legacy `parallel: true` path).
    Threads,
    /// Instance tasks on the shared persistent worker pool.
    Pool(&'p WorkerPool),
}

/// The multi-instance engine (Figure 4): spawn, evolve, mix, repeat until the
/// global loss stops decreasing.
///
/// Fitness flows through the [`LossEvaluator`] trait: the engine stacks a
/// shared genome → loss cache on top of a population-parallel batch path, so
/// every instance's generation is evaluated as one deduplicated batch. Both
/// wrappers are bit-transparent — results are identical to calling
/// `evaluate` genome-at-a-time on a single thread.
///
/// The engine is a resumable state machine: [`MultiGa::run`] is a loop over
/// [`MultiGa::step`] on an [`EngineState`], and callers that need
/// checkpointing drive the steps themselves, serializing the state between
/// rounds. [`MultiGa::run_pooled`] / [`MultiGa::step_pooled`] execute both
/// the instances and their population batches on a shared persistent
/// [`WorkerPool`] instead of spawning threads per round.
///
/// # Example
///
/// ```
/// use clapton_eval::FnEvaluator;
/// use clapton_ga::{MultiGa, MultiGaConfig};
///
/// let fitness = FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum::<f64>());
/// let result = MultiGa::new(10, 4, MultiGaConfig::quick()).run(42, &fitness);
/// assert_eq!(result.best.loss, 0.0);
/// // Mix-and-restart rounds re-submit known genomes: the cache absorbs them.
/// assert!(result.cache_hits > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiGa {
    num_genes: usize,
    cardinality: u8,
    config: MultiGaConfig,
    store: Option<(Arc<dyn LossStore>, u64)>,
}

impl MultiGa {
    /// Creates an engine for genomes of `num_genes` genes in
    /// `0..cardinality`.
    pub fn new(num_genes: usize, cardinality: u8, config: MultiGaConfig) -> MultiGa {
        MultiGa {
            num_genes,
            cardinality,
            config,
            store: None,
        }
    }

    /// Attaches a persistent loss store consulted on memo misses under
    /// namespace `ns` (see [`CachedEvaluator::with_store`] for the
    /// determinism contract — disk hits count as cache misses).
    pub fn with_loss_store(mut self, store: Arc<dyn LossStore>, ns: u64) -> MultiGa {
        self.store = Some((store, ns));
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &MultiGaConfig {
        &self.config
    }

    /// Wraps `batched` in the per-run memo cache, attaching the persistent
    /// store tier when one is configured.
    fn cached_for<E2: LossEvaluator>(
        &self,
        batched: E2,
        state: &mut EngineState,
    ) -> CachedEvaluator<E2> {
        let cached = CachedEvaluator::from_snapshot(
            batched,
            std::mem::take(&mut state.cache_entries),
            state.cache_stats,
        );
        match &self.store {
            Some((store, ns)) => cached.with_store(Arc::clone(store), *ns),
            None => cached,
        }
    }

    /// Runs the engine to convergence, minimizing `evaluator`'s loss.
    pub fn run<E: LossEvaluator + ?Sized>(&self, seed: u64, evaluator: &E) -> MultiGaResult {
        let mut state = self.start(seed);
        if self.config.parallel {
            let batched = ParallelEvaluator::with_threads(evaluator, self.batch_workers());
            self.run_to_convergence(&mut state, batched, RoundExec::Threads)
        } else {
            self.run_to_convergence(&mut state, evaluator, RoundExec::Serial)
        }
    }

    /// [`MultiGa::run`] with instances and population batches executed on a
    /// shared persistent pool — bit-identical results, no per-round thread
    /// spawns, and fair sharing with other runs on the same pool.
    pub fn run_pooled<E: LossEvaluator + ?Sized>(
        &self,
        seed: u64,
        evaluator: &E,
        pool: &Arc<WorkerPool>,
    ) -> MultiGaResult {
        let mut state = self.start(seed);
        let batched = PooledEvaluator::new(evaluator, Arc::clone(pool));
        self.run_to_convergence(&mut state, batched, RoundExec::Pool(pool))
    }

    /// Drives a fresh state to convergence on a *live* cache: monolithic
    /// runs keep the genome → loss memo across rounds and materialize the
    /// serializable snapshot only once at the end, instead of paying the
    /// per-round export/import that checkpointing steps require.
    fn run_to_convergence<E2: LossEvaluator>(
        &self,
        state: &mut EngineState,
        batched: E2,
        exec: RoundExec<'_>,
    ) -> MultiGaResult {
        let cached = self.cached_for(batched, state);
        while !self.step_core(state, &cached, exec) {}
        state.cache_entries = cached.export();
        state.cache_stats = cached.stats();
        self.result(state)
    }

    /// The initial [`EngineState`] for a run seeded with `seed`.
    pub fn start(&self, seed: u64) -> EngineState {
        EngineState {
            seed,
            tag: 0,
            next_round: 0,
            seeds_per_instance: vec![None; self.config.instances],
            global_best: None,
            round_bests: Vec::new(),
            round_eval_stats: Vec::new(),
            retries: 0,
            mix_rng: StdRng::seed_from_u64(seed ^ 0x5EED_A11C).state(),
            cache_entries: Vec::new(),
            cache_stats: CacheStats::default(),
            finished: false,
        }
    }

    /// Executes one round (evolve all instances, pool the elites, mix) and
    /// returns whether the run has converged.
    ///
    /// Respects `config.parallel` exactly like the original monolithic loop:
    /// scoped instance threads plus a per-batch thread fan-out, or fully
    /// serial execution.
    ///
    /// # Panics
    ///
    /// Panics if `state.finished` is already set.
    pub fn step<E: LossEvaluator + ?Sized>(&self, state: &mut EngineState, evaluator: &E) -> bool {
        if self.config.parallel {
            let batched = ParallelEvaluator::with_threads(evaluator, self.batch_workers());
            self.step_stacked(state, batched, RoundExec::Threads)
        } else {
            self.step_stacked(state, evaluator, RoundExec::Serial)
        }
    }

    /// [`MultiGa::step`] on a shared persistent [`WorkerPool`]: instances
    /// become pool tasks and population batches go through a
    /// [`PooledEvaluator`], so concurrent engine runs interleave fairly on
    /// one set of threads.
    ///
    /// # Panics
    ///
    /// Panics if `state.finished` is already set.
    pub fn step_pooled<E: LossEvaluator + ?Sized>(
        &self,
        state: &mut EngineState,
        evaluator: &E,
        pool: &Arc<WorkerPool>,
    ) -> bool {
        let batched = PooledEvaluator::new(evaluator, Arc::clone(pool));
        self.step_stacked(state, batched, RoundExec::Pool(pool))
    }

    /// The final result of a converged run (or the best-so-far snapshot of a
    /// suspended one).
    ///
    /// # Panics
    ///
    /// Panics if no round has completed yet.
    pub fn result(&self, state: &EngineState) -> MultiGaResult {
        MultiGaResult {
            best: state
                .global_best
                .clone()
                .expect("at least one round completed"),
            round_bests: state.round_bests.clone(),
            rounds: state.next_round,
            round_eval_stats: state.round_eval_stats.clone(),
            unique_evaluations: state.cache_stats.misses,
            cache_hits: state.cache_stats.hits,
        }
    }

    /// Workers per population batch when instance threads are also running
    /// (avoids oversubscription in the legacy scoped-thread mode).
    fn batch_workers(&self) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores / self.config.instances.max(1)).max(1)
    }

    /// One checkpointable round: restore the genome → loss memo from the
    /// state snapshot, run the round, snapshot the memo back.
    fn step_stacked<E: LossEvaluator>(
        &self,
        state: &mut EngineState,
        batched: E,
        exec: RoundExec<'_>,
    ) -> bool {
        // Evaluation stack: cache → batch path → user loss, exactly as in a
        // monolithic run.
        let cached = self.cached_for(batched, state);
        let finished = self.step_core(state, &cached, exec);
        state.cache_entries = cached.export();
        state.cache_stats = cached.stats();
        finished
    }

    /// One round (evolve, pool elites, mix) against a live cache. The
    /// caller owns the cache ↔ snapshot synchronization.
    fn step_core<E: LossEvaluator>(
        &self,
        state: &mut EngineState,
        cached: &CachedEvaluator<E>,
        exec: RoundExec<'_>,
    ) -> bool {
        assert!(!state.finished, "stepping a finished engine run");
        let cfg = &self.config;
        let stats_before = cached.stats();
        let round = state.next_round;
        let finals = self.run_round(
            state.seed,
            round,
            &mut state.seeds_per_instance,
            cached,
            exec,
        );
        let stats_after = cached.stats();
        state.round_eval_stats.push(CacheStats {
            hits: stats_after.hits - stats_before.hits,
            misses: stats_after.misses - stats_before.misses,
        });
        // Pool the top-k of every instance.
        let mut pool: Vec<Individual> = Vec::new();
        for pop in &finals {
            pool.extend(pop.top(cfg.top_k).iter().cloned());
        }
        pool.sort_by(|a, b| a.loss.total_cmp(&b.loss));
        let round_best = pool.first().expect("pool non-empty").clone();
        let improved = match &state.global_best {
            Some(b) => round_best.loss < b.loss - 1e-12,
            None => true,
        };
        if improved {
            state.global_best = Some(round_best);
            state.retries = 0;
        } else {
            state.retries += 1;
        }
        state
            .round_bests
            .push(state.global_best.as_ref().expect("set above").loss);
        state.next_round += 1;
        let finished = state.retries > cfg.max_retry_rounds || state.next_round >= cfg.max_rounds;
        if !finished {
            // Mix: every instance restarts from a random sample of the pool
            // plus fresh random guesses (Figure 4's shuffle step).
            let mut mix_rng = StdRng::from_state(state.mix_rng);
            let pool_share = ((cfg.ga.population_size as f64) * cfg.pool_fraction).round() as usize;
            for inst_seeds in state.seeds_per_instance.iter_mut() {
                let mut picks: Vec<Vec<u8>> = (0..pool_share.min(pool.len()))
                    .map(|_| pool[mix_rng.gen_range(0..pool.len())].genes.clone())
                    .collect();
                // Always propagate the global best so rounds never regress.
                if let Some(b) = &state.global_best {
                    picks.push(b.genes.clone());
                }
                *inst_seeds = Some(picks);
            }
            state.mix_rng = mix_rng.state();
        }
        state.finished = finished;
        finished
    }

    /// Runs all instances of one round on the configured executor.
    fn run_round<E: LossEvaluator + ?Sized>(
        &self,
        seed: u64,
        round: usize,
        seeds_per_instance: &mut [Option<Vec<Vec<u8>>>],
        evaluator: &E,
        exec: RoundExec<'_>,
    ) -> Vec<crate::Population> {
        let cfg = &self.config;
        let run_one = |i: usize, seeds: Option<Vec<Vec<u8>>>| {
            let inst_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((round as u64) << 32)
                .wrapping_add(i as u64);
            let mut ga = GaInstance::new(self.num_genes, self.cardinality, cfg.ga, inst_seed);
            ga.run(evaluator, seeds)
        };
        match exec {
            RoundExec::Serial => seeds_per_instance
                .iter_mut()
                .enumerate()
                .map(|(i, s)| run_one(i, s.take()))
                .collect(),
            RoundExec::Threads => std::thread::scope(|scope| {
                let handles: Vec<_> = seeds_per_instance
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| {
                        let seeds = s.take();
                        let run_one = &run_one;
                        scope.spawn(move || run_one(i, seeds))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("GA thread"))
                    .collect()
            }),
            RoundExec::Pool(pool) => {
                let mut out: Vec<Option<crate::Population>> =
                    seeds_per_instance.iter().map(|_| None).collect();
                pool.scope(|s| {
                    for (i, (slot, inst_seeds)) in out
                        .iter_mut()
                        .zip(seeds_per_instance.iter_mut())
                        .enumerate()
                    {
                        let seeds = inst_seeds.take();
                        let run_one = &run_one;
                        s.spawn(move || *slot = Some(run_one(i, seeds)));
                    }
                });
                out.into_iter()
                    .map(|p| p.expect("instance task completed"))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_eval::FnEvaluator;

    fn sum_fitness() -> impl LossEvaluator {
        FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum())
    }

    #[test]
    fn converges_on_simple_problem() {
        let result = MultiGa::new(15, 4, MultiGaConfig::quick()).run(7, &sum_fitness());
        assert_eq!(result.best.loss, 0.0);
        assert!(result.rounds >= 2, "needs at least the retry rounds");
    }

    #[test]
    fn round_bests_are_monotone() {
        let result = MultiGa::new(30, 4, MultiGaConfig::quick()).run(11, &sum_fitness());
        for w in result.round_bests.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let engine = MultiGa::new(12, 4, MultiGaConfig::quick());
        let a = engine.run(99, &sum_fitness());
        let b = engine.run(99, &sum_fitness());
        assert_eq!(a.best, b.best);
        assert_eq!(a.round_bests, b.round_bests);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut cfg = MultiGaConfig::quick();
        let serial = MultiGa::new(12, 4, cfg).run(5, &sum_fitness());
        cfg.parallel = true;
        let parallel = MultiGa::new(12, 4, cfg).run(5, &sum_fitness());
        assert_eq!(serial.best, parallel.best);
        assert_eq!(serial.round_bests, parallel.round_bests);
    }

    #[test]
    fn pooled_matches_serial_bit_for_bit() {
        let cfg = MultiGaConfig::quick();
        let engine = MultiGa::new(12, 4, cfg);
        let serial = engine.run(5, &sum_fitness());
        for workers in [0, 2] {
            let pool = Arc::new(WorkerPool::with_workers(workers));
            let pooled = engine.run_pooled(5, &sum_fitness(), &pool);
            assert_eq!(serial, pooled, "workers {workers}");
        }
    }

    #[test]
    fn respects_max_rounds() {
        let mut cfg = MultiGaConfig::quick();
        cfg.max_rounds = 1;
        let result = MultiGa::new(10, 4, cfg).run(3, &sum_fitness());
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn cache_diagnostics_are_consistent() {
        let result = MultiGa::new(12, 4, MultiGaConfig::quick()).run(21, &sum_fitness());
        assert_eq!(result.round_eval_stats.len(), result.rounds);
        let hits: u64 = result.round_eval_stats.iter().map(|s| s.hits).sum();
        let misses: u64 = result.round_eval_stats.iter().map(|s| s.misses).sum();
        assert_eq!(hits, result.cache_hits);
        assert_eq!(misses, result.unique_evaluations);
        // The engine must have evaluated at least one full first-round
        // population per instance, and mixing must have produced re-submits.
        let cfg = MultiGaConfig::quick();
        assert!(result.unique_evaluations >= (cfg.ga.population_size * cfg.instances) as u64);
        assert!(result.cache_hits > 0, "mix rounds re-submit known genomes");
        assert!(result.cache_hit_rate() > 0.0 && result.cache_hit_rate() < 1.0);
    }

    #[test]
    fn harder_multimodal_problem() {
        // Deceptive fitness: genome must spell an alternating pattern.
        let fitness = FnEvaluator::new(|g: &[u8]| {
            g.iter()
                .enumerate()
                .map(|(i, &x)| if x == ((i % 2) as u8 + 1) { 0.0 } else { 1.0 })
                .sum::<f64>()
        });
        let mut cfg = MultiGaConfig::quick();
        cfg.ga.generations = 40;
        cfg.max_rounds = 12;
        let result = MultiGa::new(20, 4, cfg).run(13, &fitness);
        assert_eq!(result.best.loss, 0.0, "engine should solve 20-gene pattern");
    }

    #[test]
    fn stepping_matches_monolithic_run() {
        let engine = MultiGa::new(14, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let reference = engine.run(31, &fitness);
        let mut state = engine.start(31);
        let mut steps = 0;
        while !engine.step(&mut state, &fitness) {
            steps += 1;
            assert_eq!(state.rounds(), steps);
        }
        assert_eq!(engine.result(&state), reference);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let engine = MultiGa::new(14, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let reference = engine.run(77, &fitness);
        // Interrupt after every possible round k, resume from a JSON
        // round-trip of the state, and compare the final result.
        for k in 1..reference.rounds {
            let mut state = engine.start(77);
            for _ in 0..k {
                assert!(!engine.step(&mut state, &fitness), "k within run");
            }
            let json = serde_json::to_string(&state).expect("state serializes");
            let mut resumed: EngineState = serde_json::from_str(&json).expect("state parses");
            assert_eq!(resumed, state);
            while !engine.step(&mut resumed, &fitness) {}
            assert_eq!(engine.result(&resumed), reference, "interrupted at {k}");
        }
    }

    #[test]
    fn finished_state_rejects_further_steps() {
        let engine = MultiGa::new(8, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let mut state = engine.start(3);
        while !engine.step(&mut state, &fitness) {}
        assert!(state.finished);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.step(&mut state, &fitness)
        }));
        assert!(result.is_err());
    }
}
