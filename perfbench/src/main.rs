//! retrodns benchmark: three workloads over one simulated world per seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|stream|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures one workload and prints its
//! end-to-end metrics; with `--trace 1` it runs every layer once more
//! with spans around the calls into each layer and prints the per-layer
//! metrics. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry provenance and the workload's own metric names. See
//! `perfbench/NOTES.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod batch;
mod serve;
mod spans;
mod stats;
mod stream;
mod world;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use retrodns_core::PipelineConfig;
use spans::Tracer;
use world::{Scale, WorldDir};

/// Set-ups per measured run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The seed later changes confirm their claims on. Nothing in this
/// benchmark was tuned on it.
pub const CONFIRM_SEED: u64 = 1009;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batch,
    Stream,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch" => Some(Workload::Batch),
            "stream" => Some(Workload::Stream),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Stream => "stream",
            Workload::Serve => "serve",
        }
    }
}

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub scale: Scale,
    pub work: PathBuf,
    pub world: WorldDir,
    /// Worker threads the batch and stream analyses use.
    pub nproc: usize,
    /// Corrupt the report under check, to prove the check catches it.
    pub tamper: bool,
}

impl Ctx {
    /// The analysis configuration of `batch` and `stream`: defaults at
    /// `workers = nproc`.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            workers: self.nproc,
            ..PipelineConfig::default()
        }
    }
}

/// Flip one byte of a report so the byte-identity check must fail.
pub fn tamper(json: &mut String) {
    *json = json.replacen("\"funnel\"", "\"fumnel\"", 1);
}

/// One named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: counts, metrics, correctness problems and the
/// provenance of the numbers.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The same figures under the workload's own names
    /// (`analysis_p50_ms`, `week_tail_ms`, `weeks_per_s`, …).
    pub detail: Vec<Metric>,
    /// Failed correctness checks; empty means correct.
    pub problems: Vec<String>,
    pub observations: usize,
    pub weeks: usize,
    pub workers: usize,
    /// [`stats::host_probe_ms`] before and after the workload.
    pub host_probe_ms: [f64; 2],
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Fold in the problems and counts of a traced section.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.detail.extend(other.detail);
        self.problems.extend(other.problems);
        self.observations = self.observations.max(other.observations);
        self.weeks = self.weeks.max(other.weeks);
        self.workers = self.workers.max(other.workers);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    work: PathBuf,
    tamper: bool,
}

const USAGE: &str = "usage: retrodns-perfbench --workload batch|stream|serve --seed N --seconds S \
--trace 0|1 [--scale full|tiny] [--work-dir DIR] [--tamper]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut work = PathBuf::from("perfbench/.work");
    let mut tamper = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|_| "--seconds expects an integer")?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                })
            }
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--work-dir" => work = PathBuf::from(value()?),
            "--tamper" => tamper = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work,
        tamper,
    })
}

/// Git revision and dirty flag of the working directory, when it is a
/// git checkout (`GIT_DIR` pins the lookup to this directory).
fn git_provenance() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("none".into(), None);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .env("GIT_DIR", ".git")
            .env("GIT_WORK_TREE", ".")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        scale: args.scale,
        world: WorldDir::new(&work),
        work,
        nproc: nproc(),
        tamper: args.tamper,
    };
    let outcome = child_step(&ctx, "world").and_then(|_| {
        let before = child_step(&ctx, "host-probe")?;
        let outcome = if args.trace {
            traced(&ctx, args.workload)
        } else {
            match args.workload {
                Workload::Batch => batch::run(&ctx),
                Workload::Stream => stream::run(&ctx),
                Workload::Serve => serve::run(&ctx),
            }
        };
        let after = child_step(&ctx, "host-probe")?;
        outcome.map(|mut o| {
            o.host_probe_ms = [before, after];
            o
        })
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

/// Run `step` in a fresh child process over this run's directory and
/// return the number it prints. Set-up samples and host probes are taken
/// this way so that their freed heap never shapes the memory layout the
/// timed ops run on (a process that loaded the data three times ran its
/// analyses about 25 % slower than one that loaded it once); the world
/// is generated this way so its memory never counts toward a workload's
/// peak RSS.
pub fn child_step(ctx: &Ctx, step: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--step", step, "--seed", &ctx.seed.to_string()])
        .args(["--scale", ctx.scale.label()])
        .arg("--run-dir")
        .arg(&ctx.work)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning step {step}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("step {step} failed: {}", out.status));
    }
    text.trim()
        .parse()
        .map_err(|_| format!("step {step} printed {text:?}"))
}

/// `SETUP_REPEATS - 1` set-up samples, each from its own child process;
/// the workload's own set-up is the last sample.
pub fn setup_samples(ctx: &Ctx, step: &str) -> Result<Vec<f64>, String> {
    (1..SETUP_REPEATS).map(|_| child_step(ctx, step)).collect()
}

/// Child-process entry point for [`child_step`].
fn step(argv: &[String]) -> Result<f64, String> {
    let (mut step, mut seed, mut scale, mut dir) = (None, None, Scale::Full, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--step" => step = Some(v.clone()),
            "--seed" => seed = Some(v.parse().map_err(|_| "--seed expects an integer")?),
            "--scale" => scale = Scale::parse(v).ok_or(format!("unknown scale {v:?}"))?,
            "--run-dir" => dir = Some(PathBuf::from(v)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let work: PathBuf = dir.ok_or("--run-dir is required")?;
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::ZERO,
        scale,
        world: WorldDir::new(&work),
        work,
        nproc: nproc(),
        tamper: false,
    };
    match step.as_deref() {
        Some("world") => world::write(&ctx.world.dir, ctx.seed, ctx.scale).map(|()| 0.0),
        Some("host-probe") => Ok(stats::host_probe_ms()),
        Some("batch-setup") => batch::setup_sample(&ctx),
        Some("stream-prep") => stream::prepare(&ctx).map(|limit| limit as f64),
        Some("stream-setup") => stream::setup_sample(&ctx),
        Some("serve-setup") => serve::setup_sample(&ctx),
        other => Err(format!("unknown step {other:?}")),
    }
}

/// The traced run: every layer, whichever workload was named, because
/// each traced run reports every per-layer metric. Spans go to
/// `<work-dir>/spans-<workload>-<seed>.jsonl`.
fn traced(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let mut tracer = Tracer::default();
    let mut outcome = batch::traced(ctx, &mut tracer)?;
    outcome.absorb(stream::traced(ctx, &mut tracer)?);
    outcome.absorb(serve::traced(ctx, &mut tracer)?);
    let path = ctx
        .work
        .parent()
        .expect("run dir has a parent")
        .join(format!("spans-{}-{}.jsonl", workload.label(), ctx.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--step") {
        return match step(&argv) {
            Ok(v) => {
                println!("{v}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("metric {} is not a number", m.name));
        }
    }
    for p in &outcome.problems {
        eprintln!("correctness: {p}");
    }
    let nproc = nproc();
    let (rev, dirty) = git_provenance();
    let dirty = dirty.map_or("null".to_string(), |d| d.to_string());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"confirm_seed\": {CONFIRM_SEED}, \
\"scale\": \"{}\", \"seconds\": {}, \"nproc\": {nproc}, \"git_rev\": \"{rev}\", \"dirty\": {dirty}, \
\"observations\": {}, \"weeks\": {}, \"workers\": {}, \"host_probe_ms\": [{}, {}]}}}}",
        args.workload.label(),
        args.trace,
        args.seed,
        args.scale.label(),
        args.seconds,
        outcome.observations,
        outcome.weeks,
        outcome.workers,
        json_number(outcome.host_probe_ms[0]),
        json_number(outcome.host_probe_ms[1])
    );
    if !outcome.detail.is_empty() {
        println!("{{\"detail\": {}}}", metrics_json(&outcome.detail));
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
