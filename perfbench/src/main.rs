//! Layer-attributed end-to-end benchmark of the Clapton stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-cold|suite-rerun> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run drives one workload through the public API of `clapton-service`
//! (and, in a traced run, `clapton-server`), checks the outputs, and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! `LEDGER.md` beside this crate defines every metric, the workloads and
//! why they were chosen.
//!
//! Everything a run writes lives under `.bench_runs/` in the working
//! directory and is removed before the process exits.

mod heap;
mod http;
mod ledger;
mod suite;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: suite::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = |what: &str| format!("{}: {what} expected, got {value:?}", argv[i]);
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("u64"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("whole seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// One metric as printed: value plus unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each; empty means correct.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// The outcome a traced run prints: this run's counts and failed
    /// checks, with the per-layer metrics still to come.
    pub fn for_trace(&mut self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            errors: std::mem::take(&mut self.errors),
            metrics: BTreeMap::new(),
        }
    }

    /// Records a failed check (and prints it at once, so a run that later
    /// dies still leaves the reason on stderr).
    pub fn fail(&mut self, message: String) {
        eprintln!("perfbench: CHECK FAILED: {message}");
        self.errors.push(message);
    }
}

/// Per-run scratch space under `.bench_runs/`, removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    fn create(args: &Args) -> std::io::Result<RunDir> {
        let path = Path::new(".bench_runs").join(format!(
            "{}-s{}-p{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_runs` itself only when no other run still uses it.
        let _ = std::fs::remove_dir(Path::new(".bench_runs"));
    }
}

/// Worker threads and connections the benchmark may use: the machine's
/// cores, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total bytes of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Copies the directory tree `from` to `to` (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        let kind = entry.file_type()?;
        if kind.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else if kind.is_file() {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a new memory window: resets the peak live heap and the kernel's
/// peak-RSS mark, so both cover only what runs after this call (untimed
/// fills and warm-ups are excluded).
pub fn reset_peak_memory() {
    heap::reset_peak();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Reads the window's peak live heap (reported) and `VmHWM` (printed on a
/// `memory` line for reference), both in MB.
pub fn peak_memory() -> f64 {
    let heap = heap::peak_mb();
    println!(
        "{{\"memory\": {{\"peak_heap_mb\": {heap}, \"vm_hwm_mb\": {}}}}}",
        peak_rss_mb()
    );
    heap
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Provenance of the code under test: the git commit when the checkout is
/// a repository, and always a digest of the sources the benchmark builds.
fn source_identity() -> (String, String) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files.iter().chain([&PathBuf::from("Cargo.lock")]) {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    (commit, fnv64(&bytes))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON (non-finite values, which no metric should
/// produce, print as -1 and fail the run's correctness flag upstream).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match RunDir::create(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let (commit, sources) = source_identity();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"git_commit\": {}, \
         \"source_fnv64\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        nproc(),
        json_str(&commit),
        json_str(&sources),
        args.seconds,
        u8::from(args.trace)
    );
    let result = match args.workload.as_str() {
        "suite-cold" => suite::run(&args, &run, false),
        "suite-rerun" => suite::run(&args, &run, true),
        other => Err(format!(
            "unknown workload {other:?} (suite-cold, suite-rerun)"
        )),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some((name, _)) = outcome.metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        let name = name.clone();
        outcome.fail(format!("metric {name} is not finite"));
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
