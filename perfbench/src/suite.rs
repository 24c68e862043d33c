//! `suite-cold` and `suite-rerun`: the quick 12-instance N=10 suite run at
//! once by one `ClaptonService` on a shared `WorkerPool`.

use crate::ledger::{Ledger, Replay};
use crate::{
    copy_dir, dir_bytes, fnv64, http, nproc, peak_memory, quantile, reset_peak_memory, Args,
    Outcome, RunDir,
};
use clapton_bench::{suite_run::SuiteConfig, Options};
use clapton_cache::{CacheConfig, CacheStore};
use clapton_circuits::TransformationAnsatz;
use clapton_runtime::{CancelToken, WorkerPool};
use clapton_service::{AdmittedJob, ClaptonService, JobSpec, MethodSpec, Report};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The seed the committed digest was made with, and the default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// `<fnv64 of the Clapton section> <instance>` per line, for the quick
/// suite at [`DEFAULT_SEED`].
const DIGEST: &str = include_str!("../suite_digest.txt");

/// Set-ups timed per `suite-cold` run; the median is reported.
const SETUP_REPS: usize = 15;
/// Set-ups timed per `suite-rerun` run (each rebuilds the index of the
/// filled store, so fewer repetitions suffice).
const REOPEN_REPS: usize = 5;

/// The suite exactly as `suite-runner --quick --emit-specs --seed <seed>`
/// writes it: 6 physics and 6 chemistry instances at N=10, Clapton only.
pub fn suite_specs(seed: u64) -> Vec<JobSpec> {
    SuiteConfig {
        options: Options { effort: 0, seed },
        qubits: 10,
        halt_after_rounds: None,
    }
    .specs()
}

/// The `suite-rerun` resubmission: same problems and seeds, CAFQA added,
/// so the report tier misses while every Clapton loss is on disk.
fn rerun_specs(seed: u64) -> Vec<JobSpec> {
    let mut specs = suite_specs(seed);
    for spec in &mut specs {
        spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Clapton];
    }
    specs
}

/// A service the way `suite-runner` and the server build one: artifacts
/// under `<root>/artifacts`, the persistent store at `store` (default: the
/// conventional `.cache` under the artifact root).
fn open_service(
    pool: &Arc<WorkerPool>,
    root: &Path,
    store: Option<&Path>,
) -> Result<ClaptonService, String> {
    let artifacts = root.join("artifacts");
    let store_path = store.map_or_else(
        || artifacts.join(clapton_service::CACHE_DIR_NAME),
        Path::to_path_buf,
    );
    let store = CacheStore::open(&store_path, CacheConfig::default())
        .map_err(|e| format!("opening store {}: {e}", store_path.display()))?;
    Ok(ClaptonService::with_pool(Arc::clone(pool))
        .with_artifacts(&artifacts)
        .map_err(|e| e.to_string())?
        .with_cache(Arc::new(store)))
}

/// Runs `setup` `reps` times and returns the median duration plus the
/// last set-up's value. Every set-up but the last runs in a scratch root
/// that is removed, untimed, before the next one starts, so each starts
/// from the same file-system state; the last runs in `root`.
fn median_setup<T>(
    reps: usize,
    run: &RunDir,
    root: &Path,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let scratch = run.join("setup");
    let mut times = Vec::with_capacity(reps);
    for _ in 1..reps {
        let started = Instant::now();
        let value = setup(&scratch)?;
        times.push(started.elapsed().as_secs_f64());
        drop(value);
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let started = Instant::now();
    let value = setup(root)?;
    times.push(started.elapsed().as_secs_f64());
    Ok((quantile(&times, 0.5), value))
}

/// One service pass over the suite.
struct Pass {
    reports: Vec<Result<Report, String>>,
    /// From the pass's start to each job's report.
    job_s: Vec<f64>,
    suite_s: f64,
}

/// Admits every spec back to back (validation and the durable spec record,
/// before any job runs), then executes all of them at once on the
/// service's pool, each from its own thread: the server's dispatch path
/// (`admit`, then `execute_admitted`), with every job dispatched at once.
/// Dispatching `nproc` at a time instead, as the server's default
/// dispatchers would, made `job_s_p50` and `suite_s` spread more across
/// seeds (see `LEDGER.md`).
fn run_pass(service: &ClaptonService, specs: &[JobSpec]) -> Pass {
    let t0 = Instant::now();
    let admitted: Vec<Result<AdmittedJob, String>> = specs
        .iter()
        .map(|spec| service.admit(spec.clone()).map_err(|e| e.to_string()))
        .collect();
    let done: Vec<(Result<Report, String>, f64)> = std::thread::scope(|scope| {
        let jobs: Vec<_> = admitted
            .iter()
            .map(|job| {
                scope.spawn(move || {
                    let report = match job {
                        Ok(job) => service
                            .execute_admitted(job, None, CancelToken::new())
                            .map_err(|e| e.to_string()),
                        Err(e) => Err(e.clone()),
                    };
                    (report, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        jobs.into_iter()
            .map(|job| job.join().expect("job thread"))
            .collect()
    });
    let (reports, job_s): (Vec<_>, Vec<_>) = done.into_iter().unzip();
    Pass {
        reports,
        suite_s: job_s.iter().copied().fold(0.0, f64::max),
        job_s,
    }
}

/// The Clapton section of a report as JSON, or why it is missing.
fn clapton_json(report: &Result<Report, String>) -> Result<String, String> {
    let report = report.as_ref().map_err(Clone::clone)?;
    let clapton = report
        .clapton
        .as_ref()
        .ok_or_else(|| format!("{}: no Clapton section", report.name))?;
    Ok(serde_json::to_string(clapton).expect("result serializes"))
}

/// Checks every job reached `Done` with a self-consistent Clapton result;
/// returns the number of failed jobs.
fn check_pass(pass: &Pass, specs: &[JobSpec], out: &mut Outcome) -> u64 {
    let mut failed = 0;
    for (report, spec) in pass.reports.iter().zip(specs) {
        let problem = match report {
            Err(e) => Some(format!("{}: job failed: {e}", spec.display_name())),
            Ok(report) => match &report.clapton {
                None => Some(format!("{}: no Clapton section", report.name)),
                Some(c) if c.loss.to_bits() != (c.loss_n + c.loss_0).to_bits() => Some(format!(
                    "{}: loss {} != loss_n + loss_0 = {}",
                    report.name,
                    c.loss,
                    c.loss_n + c.loss_0
                )),
                Some(c) if c.round_bests.windows(2).any(|w| w[1] > w[0]) => {
                    Some(format!("{}: round_bests increase", report.name))
                }
                Some(_) => None,
            },
        };
        if let Some(problem) = problem {
            failed += 1;
            out.fail(problem);
        }
    }
    failed
}

/// Compares Clapton sections against the committed default-seed digest.
/// Every run checks one reference instance (re-run at the default seed);
/// a run at the default seed checks all twelve.
fn check_digest(
    pass: &Pass,
    specs: &[JobSpec],
    seed: u64,
    pool: &Arc<WorkerPool>,
    out: &mut Outcome,
) {
    let committed: Vec<(&str, &str)> = DIGEST
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let expect = |name: &str| committed.iter().find(|(_, n)| *n == name).map(|(h, _)| *h);
    let mut compare = |name: &str, json: Result<String, String>| match (json, expect(name)) {
        (Ok(json), Some(hash)) if fnv64(json.as_bytes()) == hash => {}
        (Ok(json), Some(hash)) => out.fail(format!(
            "{name}: Clapton digest {} differs from the committed {hash}",
            fnv64(json.as_bytes())
        )),
        (Ok(_), None) => out.fail(format!("{name}: no committed digest")),
        (Err(e), _) => out.fail(e),
    };
    if seed == DEFAULT_SEED {
        for (report, spec) in pass.reports.iter().zip(specs) {
            compare(&spec.display_name(), clapton_json(report));
        }
    } else {
        let reference = suite_specs(DEFAULT_SEED).remove(0);
        let name = reference.display_name();
        let report = ClaptonService::with_pool(Arc::clone(pool))
            .run(reference)
            .map_err(|e| e.to_string());
        compare(&name, clapton_json(&report));
    }
    eprintln!("perfbench: suite digest at seed {seed}:");
    for (report, spec) in pass.reports.iter().zip(specs) {
        if let Ok(json) = clapton_json(report) {
            eprintln!("{} {}", fnv64(json.as_bytes()), spec.display_name());
        }
    }
}

/// Per-instance input properties, printed beside every run's numbers.
fn print_inputs(pass: &Pass, specs: &[JobSpec], store: Option<&Arc<CacheStore>>) {
    let rows: Vec<String> = specs
        .iter()
        .zip(&pass.reports)
        .enumerate()
        .filter_map(|(i, (spec, report))| {
            let job = spec.validate().ok()?;
            let n = job.hamiltonian.num_qubits();
            let ansatz = TransformationAnsatz::new(n);
            let gates = report
                .as_ref()
                .ok()
                .and_then(|r| r.clapton.as_ref())
                .map_or(0, |c| ansatz.gates(&c.transformation.gamma).len());
            Some(format!(
                "{{\"name\": {}, \"qubits\": {n}, \"terms\": {}, \"genes\": {}, \
                 \"transformation_gates\": {gates}, \"job_s\": {}}}",
                crate::json_str(&job.name),
                job.hamiltonian.num_terms(),
                ansatz.num_genes(),
                pass.job_s[i]
            ))
        })
        .collect();
    let stats = store.map(|s| s.stats());
    println!(
        "{{\"inputs\": [{}], \"store_entries\": {}, \"store_bytes\": {}}}",
        rows.join(", "),
        stats.as_ref().map_or(0, |s| s.entries),
        stats.as_ref().map_or(0, |s| s.bytes)
    );
}

/// Runs `suite-cold` (`rerun == false`) or `suite-rerun`.
pub fn run(args: &Args, run: &RunDir, rerun: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = nproc();
    let cold = suite_specs(args.seed);
    let specs = if rerun {
        rerun_specs(args.seed)
    } else {
        cold.clone()
    };

    // suite-rerun: fill the store with an untimed cold pass first.
    let fill_root = run.join("fill");
    let fill = if rerun {
        let pool = Arc::new(WorkerPool::with_workers(workers));
        let service = open_service(&pool, &fill_root, None)?;
        let pass = run_pass(&service, &cold);
        out.failed += check_pass(&pass, &cold, &mut out);
        Some(pass)
    } else {
        None
    };
    let fill_store = fill_root
        .join("artifacts")
        .join(clapton_service::CACHE_DIR_NAME);
    let replay_store = run.join("replay-store");
    if rerun && args.trace {
        // The replay needs the store as the fill left it: the measured
        // pass below adds its reports to the original.
        copy_dir(&fill_store, &replay_store).map_err(|e| e.to_string())?;
    }

    reset_peak_memory();
    let root = run.join("suite");
    let store = rerun.then_some(fill_store.as_path());
    let reps = if rerun { REOPEN_REPS } else { SETUP_REPS };
    let (setup_s, (pool, service)) = median_setup(reps, run, &root, |root| {
        // The generated inputs are checked before anything is submitted;
        // without this CPU-bound work, set-up is ~0.3 ms of directory
        // creation whose median moved 26% between two sets of ten runs.
        for spec in &specs {
            spec.validate()
                .map_err(|e| format!("{}: {e}", spec.display_name()))?;
        }
        let pool = Arc::new(WorkerPool::with_workers(workers));
        let service = open_service(&pool, root, store)?;
        Ok((pool, service))
    })?;
    let pass = run_pass(&service, &specs);
    let peak = peak_memory();
    out.attempted = specs.len() as u64;
    out.failed += check_pass(&pass, &specs, &mut out);
    if let Some(fill) = &fill {
        for ((now, then), spec) in pass.reports.iter().zip(&fill.reports).zip(&specs) {
            if clapton_json(now).ok() != clapton_json(then).ok() {
                out.failed += 1;
                out.fail(format!(
                    "{}: Clapton section differs from the cold pass that filled the store",
                    spec.display_name()
                ));
            }
        }
    }
    check_digest(&pass, &specs, args.seed, &pool, &mut out);
    print_inputs(&pass, &specs, service.cache());
    let disk = dir_bytes(&root) + if rerun { dir_bytes(&fill_store) } else { 0 };

    out.put("setup_s", setup_s, "s");
    out.put("suite_s", pass.suite_s, "s");
    out.put("job_s_p50", quantile(&pass.job_s, 0.5), "s");
    out.put("peak_heap_mb", peak, "MB");
    out.put("disk_mb", disk as f64 / f64::from(1 << 20), "MB");
    out.put(
        "ok_frac",
        1.0 - out.failed.min(out.attempted) as f64 / out.attempted as f64,
        "ratio",
    );
    if !args.trace {
        return Ok(out);
    }

    // Traced run: replay the same jobs, all at once, on the same pool.
    let mut traced = out.for_trace();
    let ledger = Arc::new(Ledger::default());
    let replay_root = run.join("replay");
    let replay_store = if rerun {
        replay_store
    } else {
        replay_root.join("store")
    };
    let store = ledger.open_store(&replay_store)?;
    let replay_service = ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(replay_root.join("artifacts"))
        .map_err(|e| e.to_string())?
        .with_cache(Arc::clone(&store));
    let replay = Replay {
        service: &replay_service,
        store: &store,
        pool: &pool,
        ledger: &ledger,
    };
    let (replayed, traced_s) = replay.all(&specs, specs.len());
    for ((mine, theirs), spec) in replayed.iter().zip(&pass.reports).zip(&specs) {
        let same = match (mine, theirs) {
            (Ok(a), Ok(b)) => {
                serde_json::to_string(a).expect("report serializes")
                    == serde_json::to_string(b).expect("report serializes")
            }
            _ => false,
        };
        if !same {
            traced.failed += 1;
            traced.fail(format!(
                "{}: the traced replay's report differs from the service's{}",
                spec.display_name(),
                mine.as_ref()
                    .err()
                    .map_or(String::new(), |e| format!(" ({e})"))
            ));
        }
    }
    let stats = store.stats();
    let bytes_per_loss = stats.bytes as f64 / stats.entries.max(1) as f64;
    ledger.report(&mut traced, workers, bytes_per_loss);
    traced.put("trace.suite_s_untraced", pass.suite_s, "s");
    traced.put("trace.suite_s_traced", traced_s, "s");
    traced.put(
        "trace.overhead_frac",
        traced_s / pass.suite_s.max(f64::MIN_POSITIVE) - 1.0,
        "ratio",
    );
    drop(replay_service);
    drop(service);

    // The server layer on this workload: a short probe against the pass's
    // artifact root, resubmitting the suite (answered from persisted
    // reports) mixed with fresh small jobs.
    let warm: Vec<(JobSpec, Report)> = specs
        .iter()
        .cloned()
        .zip(pass.reports.iter().cloned())
        .filter_map(|(spec, report)| report.ok().map(|r| (spec, r)))
        .collect();
    http::probe(args.seed, run, &root, warm, &mut traced)?;
    Ok(traced)
}
