//! The server probe a traced suite run ends with: an in-process loopback
//! `clapton-server` fed an open loop of warm resubmissions and fresh small
//! jobs.
//!
//! Load comes from two threads, each with one connection at a time: the
//! sender submits on a fixed schedule and never waits for jobs; the
//! watcher follows each fresh job's event stream to its end. Completion
//! and dispatch times are read from the `Started`/`Finished` events, which
//! the job stamps with the process's monotonic telemetry clock — the same
//! clock the sender schedules by — so they are exact to the nanosecond
//! whenever the watcher gets to read them.

use crate::{nproc, quantile, Outcome, RunDir};
use clapton_cache::{CacheConfig, CacheStore};
use clapton_runtime::{EventKind, RunEvent, WorkerPool};
use clapton_server::client::Client;
use clapton_server::{Server, ServerConfig, ServerHandle};
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, NoiseSpec, ProblemSpec, Report, SuiteProblem, UniformNoise,
};
use clapton_telemetry::mono_ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Offered load: about half of the capacity measured for this mix on a
/// 2-core host (see `LEDGER.md`).
const OFFERED_PER_S: f64 = 20.0;
/// Every `FRESH_EVERY`-th request is a fresh job; the rest resubmit the
/// warm set.
const FRESH_EVERY: u64 = 5;
/// A submission answered later than this (from its scheduled time) counts
/// as failed.
const SUBMIT_LIMIT_MS: f64 = 500.0;
/// A fresh job whose report arrives later than this counts as failed.
const FRESH_LIMIT_S: f64 = 10.0;
/// Length of the probe.
const PROBE_SECONDS: f64 = 2.0;

/// The 6-qubit physics problems fresh and warm jobs draw from.
const SMALL_PROBLEMS: [&str; 6] = [
    "ising(J=0.25)",
    "ising(J=0.50)",
    "ising(J=1.00)",
    "xxz(J=0.25)",
    "xxz(J=0.50)",
    "xxz(J=1.00)",
];

/// A quick 6-qubit physics job with the suite's uniform noise and the
/// default methods (CAFQA + Clapton).
fn small_spec(problem: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: SMALL_PROBLEMS[problem % SMALL_PROBLEMS.len()].to_string(),
        qubits: 6,
    }));
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 3e-4,
        p2: 8e-3,
        readout: 2e-2,
        t1: None,
    });
    spec.engine = EngineSpec::Quick;
    spec.seed = seed;
    spec
}

/// A server bound on loopback with its accept loop on a thread of its own;
/// dropping it drains and joins.
struct Running {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    addr: String,
}

impl Running {
    /// Binds, serves, and returns once `/healthz` reports ready.
    fn start(root: &Path) -> Result<Running, String> {
        let mut config = ServerConfig::new(root);
        config.pool_workers = nproc();
        config.dispatchers = nproc();
        let server = Server::bind(config).map_err(|e| format!("binding the server: {e}"))?;
        let handle = server.handle();
        let addr = handle.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        let running = Running {
            handle,
            thread: Some(thread),
            addr,
        };
        let client = Client::new(running.addr.clone());
        let deadline = mono_ns() + 10_000_000_000;
        while !client.health().is_ok_and(|h| h.ready) {
            if mono_ns() > deadline {
                return Err("the server never became ready".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(running)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One submission as the sender saw it (monotonic nanoseconds).
struct Sent {
    fresh: bool,
    scheduled: u64,
    sent: u64,
    answered: u64,
    ok: bool,
}

/// A fresh job followed to its end by the watcher.
struct Fresh {
    spec: JobSpec,
    id: String,
    scheduled: u64,
    answered: u64,
    started: Option<u64>,
    finished: Option<u64>,
    report: Result<Report, String>,
}

/// What one open-loop window produced.
struct Load {
    sent: Vec<Sent>,
    fresh: Vec<Fresh>,
    lags_ms: Vec<f64>,
    first: u64,
}

/// Reads a fresh job's event stream to its end, then its report.
fn watch(client: &Client, job: &mut Fresh) {
    let frames = match client.events(&job.id) {
        Ok(frames) => frames,
        Err(e) => {
            job.report = Err(format!("event stream: {e}"));
            return;
        }
    };
    for frame in frames {
        if let Ok(event) = serde_json::from_str::<RunEvent>(&frame) {
            match event.kind {
                EventKind::Started => job.started = Some(event.mono_ns),
                EventKind::Finished(_) => job.finished = Some(event.mono_ns),
                _ => {}
            }
        }
    }
    job.report = client
        .status(&job.id)
        .and_then(|r| r.job())
        .map_err(|e| e.to_string())
        .and_then(|body| {
            body.report
                .ok_or_else(|| format!("job {} ended {}", job.id, body.state))
        });
}

/// Drives one open-loop window of [`PROBE_SECONDS`] at [`OFFERED_PER_S`]
/// against `addr`, then waits for every fresh job to finish.
fn drive(addr: &str, warm: &[(JobSpec, Report)], seed: u64) -> Load {
    let warm_json: Vec<String> = warm
        .iter()
        .map(|(spec, _)| serde_json::to_string(spec).expect("spec serializes"))
        .collect();
    let (tx, rx) = mpsc::channel::<Fresh>();
    let watcher = {
        let client = Client::new(addr.to_string());
        std::thread::spawn(move || {
            rx.into_iter()
                .map(|mut job| {
                    watch(&client, &mut job);
                    job
                })
                .collect::<Vec<Fresh>>()
        })
    };
    let client = Client::new(addr.to_string());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4854_5450_4d49_5844);
    let first = mono_ns() + 20_000_000;
    let requests = (PROBE_SECONDS * OFFERED_PER_S).round() as u64;
    let mut sent_log = Vec::new();
    let mut lags_ms = Vec::new();
    for k in 0..requests {
        // A fixed schedule and a fixed mix (every FRESH_EVERY-th request
        // fresh, problems in rotation) keep runs comparable; the seed
        // picks only the fresh jobs' GA seeds and the warm set.
        let scheduled = first + (k as f64 * 1e9 / OFFERED_PER_S) as u64;
        let fresh = k % FRESH_EVERY == FRESH_EVERY - 1;
        let (spec, warm_index) = if fresh {
            let problem = (k / FRESH_EVERY) as usize;
            (Some(small_spec(problem, rng.gen())), 0)
        } else {
            (None, k as usize % warm.len())
        };
        let body = spec.as_ref().map_or_else(
            || warm_json[warm_index].clone(),
            |s| serde_json::to_string(s).expect("spec serializes"),
        );
        let now = mono_ns();
        if now < scheduled {
            std::thread::sleep(Duration::from_nanos(scheduled - now));
        }
        let sent = mono_ns();
        lags_ms.push(sent.saturating_sub(scheduled) as f64 / 1e6);
        let response = client.submit(&body);
        let answered = mono_ns();
        let body = response
            .ok()
            .filter(|r| r.status / 100 == 2)
            .and_then(|r| r.job().ok());
        let ok = match (spec, body) {
            (Some(spec), Some(body)) => tx
                .send(Fresh {
                    spec,
                    id: body.id,
                    scheduled,
                    answered,
                    started: None,
                    finished: None,
                    report: Err("not watched".to_string()),
                })
                .is_ok(),
            (None, Some(body)) => body.report.is_some_and(|r| r == warm[warm_index].1),
            (_, None) => false,
        };
        sent_log.push(Sent {
            fresh,
            scheduled,
            sent,
            answered,
            ok,
        });
    }
    drop(tx);
    let fresh = watcher.join().expect("watcher thread");
    Load {
        sent: sent_log,
        fresh,
        lags_ms,
        first,
    }
}

impl Load {
    /// Counts failed or wrong submissions and latency-limit misses, and
    /// fails the run for a fresh job that ended without a report (which
    /// [`compare`] then counts).
    fn check(&self, out: &mut Outcome) -> u64 {
        let mut failed = 0;
        for s in &self.sent {
            let late = (s.answered - s.scheduled) as f64 / 1e6 > SUBMIT_LIMIT_MS;
            if !s.ok || late {
                failed += 1;
            }
        }
        for job in &self.fresh {
            if let Err(e) = &job.report {
                out.fail(format!("fresh job {}: {e}", job.id));
            } else if job
                .finished
                .is_none_or(|f| f.saturating_sub(job.scheduled) as f64 / 1e9 > FRESH_LIMIT_S)
            {
                failed += 1;
            }
        }
        failed
    }

    /// The server and load-generator rows of the per-layer ledger.
    fn layer_metrics(&self, out: &mut Outcome) {
        let rtt = |fresh: bool| {
            let v: Vec<f64> = self
                .sent
                .iter()
                .filter(|s| s.fresh == fresh)
                .map(|s| (s.answered - s.sent) as f64 / 1e3)
                .collect();
            quantile(&v, 0.5)
        };
        out.put("server.submit_rtt_us.fresh", rtt(true), "us");
        out.put("server.submit_rtt_us.warm", rtt(false), "us");
        let waits: Vec<f64> = self
            .fresh
            .iter()
            .filter_map(|j| j.started.map(|s| s.saturating_sub(j.answered) as f64 / 1e6))
            .collect();
        out.put(
            "server.queue_wait_ms",
            waits.iter().sum::<f64>() / waits.len().max(1) as f64,
            "ms",
        );
        let last = self
            .sent
            .iter()
            .map(|s| s.answered)
            .max()
            .unwrap_or(self.first);
        out.put("loadgen.offered_per_s", OFFERED_PER_S, "1/s");
        out.put(
            "loadgen.achieved_per_s",
            self.sent.len() as f64 / ((last - self.first) as f64 / 1e9).max(1e-9),
            "1/s",
        );
        out.put("loadgen.lag_ms_p99", quantile(&self.lags_ms, 0.99), "ms");
    }
}

/// Compares each fresh job's HTTP report with `expected`, byte for byte
/// as JSON; returns the number of mismatches.
fn compare(
    fresh: &[Fresh],
    expected: &[Result<Report, impl std::fmt::Display>],
    out: &mut Outcome,
) -> u64 {
    let mut mismatches = 0;
    for (job, want) in fresh.iter().zip(expected) {
        let same = match (&job.report, want) {
            (Ok(got), Ok(want)) => {
                serde_json::to_string(got).expect("report serializes")
                    == serde_json::to_string(want).expect("report serializes")
            }
            _ => false,
        };
        if !same {
            mismatches += 1;
            out.fail(format!(
                "fresh job {} ({}): the HTTP report differs from the in-process service's",
                job.id,
                job.spec.display_name()
            ));
        }
    }
    mismatches
}

/// The server and load-generator rows for a traced suite run: a short
/// window against a server bound on the suite's artifact root, where the
/// warm set is the suite itself (answered from its persisted reports). Its
/// rows time requests from their actual send, so send lateness (reported,
/// not checked: suite reports are large and slow the single sender) does
/// not enter them. Every fresh report must then equal, byte for byte, the
/// report an in-process `ClaptonService` returns for the same spec.
pub fn probe(
    seed: u64,
    run: &RunDir,
    root: &Path,
    warm: Vec<(JobSpec, Report)>,
    out: &mut Outcome,
) -> Result<(), String> {
    if warm.is_empty() {
        return Err("no solved suite job to resubmit".to_string());
    }
    let server = Running::start(root)?;
    let load = drive(&server.addr, &warm, seed);
    drop(server);
    out.attempted += load.sent.len() as u64;
    out.failed += load.check(out);
    load.layer_metrics(out);

    let specs: Vec<JobSpec> = load.fresh.iter().map(|j| j.spec.clone()).collect();
    let reference_root = run.join("reference");
    let store = CacheStore::open(reference_root.join("store"), CacheConfig::default())
        .map_err(|e| e.to_string())?;
    let reference = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(nproc())))
        .with_artifacts(reference_root.join("artifacts"))
        .map_err(|e| e.to_string())?
        .with_cache(Arc::new(store));
    let expected = reference
        .run_all(specs, None)
        .map_err(|e| format!("reference run: {e}"))?;
    out.failed += compare(&load.fresh, &expected, out);
    Ok(())
}
