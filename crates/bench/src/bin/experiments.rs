//! The experiment harness binary: regenerates every table and figure of
//! the paper's evaluation against a freshly simulated world.
//!
//! ```text
//! experiments [--scale quick|standard|full] [--seed N] [--workers N] <id>... | all
//! ```
//!
//! Ids: table1 fig2 fig3 fig4 fig5 population funnel table2 table3 table4
//! table5 observability table9 baselines reactive dnssec ablation.
//!
//! The extra ids below are not part of `all`. Each builds its own inputs,
//! so a run of only these never builds the shared world.
//!
//! `faults` runs the fault-injection survival campaign — five seeds ×
//! every fault kind plus a corroboration-stripped row per seed — writes
//! the matrix to `FAULTS_matrix.json`, and fails the process if any cell
//! fabricated a hijack verdict.
//!
//! `archetypes` runs the adversarial-archetype detection campaign — three
//! seeds × seven attacker archetypes, baseline vs extension signals —
//! writes the per-archetype precision/recall matrix to
//! `ARCHETYPES_matrix.json`, refreshes the matching `EXPERIMENTS.md`
//! section, and fails the process when a fully-catchable archetype misses
//! extended recall 1.0 or an evasion archetype's extended recall
//! regresses below the previously committed matrix.
//!
//! `mem` sweeps the columnar observation store's memory footprint over
//! 100k/1M/5M synthetic observations (streamed, never materialized as
//! rows) and persists the points into `BENCH_pipeline.json`.
//! `--max-bytes-per-obs X` and `--min-mem-reduction X` are the CI
//! regression gates; `--max-obs N` caps the largest sweep column.
//!
//! `serve` runs the `retrodns-serve` crash-tolerance harness: per worker
//! count (1/2/8) it SIGKILL-equivalently aborts a spawned server at
//! `--serve-kills` deterministic points mid-analysis, restarts it each
//! time, and fails the process unless the final report is byte-identical
//! to an uninterrupted golden; then a load test records sustained
//! queries/sec and p50/p99 latency under `--serve-clients` concurrent
//! clients while an analysis is active (`--min-serve-qps X` is the CI
//! gate). Points persist into `BENCH_pipeline.json`. (The hidden first
//! argument `__serve` is the harness's server child mode, not a user id.)
//!
//! None of these times the pipeline: `perfbench/` is the one harness
//! that does.

use retrodns_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use retrodns_bench::{Bundle, PipelineBenchReport, Scale};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

#[global_allocator]
static ALLOC: retrodns_core::metrics::CountingAlloc = retrodns_core::metrics::CountingAlloc;

/// Observation-count columns the `mem` id sweeps (capped by
/// `--max-obs`).
const MEM_SIZES: [usize; 3] = [100_000, 1_000_000, 5_000_000];

/// The settings the extra ids read.
struct Options {
    seed: u64,
    workers: usize,
    max_obs: usize,
    max_bytes_per_obs: Option<f64>,
    min_mem_reduction: Option<f64>,
    serve_kills: usize,
    serve_clients: usize,
    min_serve_qps: Option<f64>,
}

/// What an extra id runs.
type Run = fn(&Options) -> ExitCode;

/// The ids outside `all`, each with what it runs. None of them reads the
/// shared world; every other id is a paper table that does.
const EXTRA_IDS: [(&str, Run); 4] = [
    ("faults", run_faults),
    ("archetypes", run_archetypes),
    ("mem", run_mem),
    ("serve", run_serve),
];

/// What an extra id runs, or `None` for a paper id (or an unknown one).
fn extra(id: &str) -> Option<Run> {
    EXTRA_IDS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, run)| run)
}

/// Every id the binary accepts, space-separated.
fn known_ids() -> String {
    let extras = EXTRA_IDS.iter().map(|&(name, _)| name);
    let ids: Vec<&str> = ALL_EXPERIMENTS.iter().copied().chain(extras).collect();
    ids.join(" ")
}

/// The value after `flag`, parsed and accepted by `ok`; otherwise the
/// usage error "`flag` expects `what`".
fn flag_value<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .filter(|v| ok(v))
        .ok_or_else(|| format!("{flag} expects {what}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden server child mode of the serve harness: this process *is*
    // the server the chaos trials kill and restart.
    if args.first().map(String::as_str) == Some("__serve") {
        return match retrodns_bench::serve_child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("__serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut scale = Scale::Standard;
    let mut opts = Options {
        seed: 0xD05_11EC7,
        workers: 4,
        max_obs: 5_000_000,
        max_bytes_per_obs: None,
        min_mem_reduction: None,
        serve_kills: 5,
        serve_clients: 4,
        min_serve_qps: None,
    };
    let count = |v: &usize| *v >= 1;
    let positive = |v: &f64| *v > 0.0;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--workers" => {
                flag_value(&mut it, &arg, "a positive integer", count).map(|v| opts.workers = v)
            }
            "--max-obs" => {
                flag_value(&mut it, &arg, "a positive integer", count).map(|v| opts.max_obs = v)
            }
            "--serve-kills" => {
                flag_value(&mut it, &arg, "a positive integer", count).map(|v| opts.serve_kills = v)
            }
            "--serve-clients" => flag_value(&mut it, &arg, "a positive integer", count)
                .map(|v| opts.serve_clients = v),
            "--min-serve-qps" => flag_value(&mut it, &arg, "a positive number", positive)
                .map(|v| opts.min_serve_qps = Some(v)),
            "--max-bytes-per-obs" => flag_value(&mut it, &arg, "a positive number", positive)
                .map(|v| opts.max_bytes_per_obs = Some(v)),
            "--min-mem-reduction" => flag_value(&mut it, &arg, "a positive number", positive)
                .map(|v| opts.min_mem_reduction = Some(v)),
            "--seed" => {
                flag_value(&mut it, &arg, "an integer", |_: &u64| true).map(|v| opts.seed = v)
            }
            "--scale" => it
                .next()
                .and_then(|v| Scale::parse(&v))
                .map(|v| scale = v)
                .ok_or_else(|| "--scale expects quick|standard|full".to_string()),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale quick|standard|full] [--seed N] [--workers N] \
                     [--max-obs N] [--max-bytes-per-obs X] [--min-mem-reduction X] \
                     [--serve-kills N] [--serve-clients N] [--min-serve-qps X] <id>... | all\n\
                     ids: {}",
                    known_ids()
                );
                return ExitCode::SUCCESS;
            }
            other => {
                ids.push(other.to_string());
                Ok(())
            }
        };
        if let Err(usage) = parsed {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(id) = ids
        .iter()
        .find(|id| extra(id).is_none() && !ALL_EXPERIMENTS.contains(&id.as_str()))
    {
        eprintln!("unknown experiment {id:?}; known: {}", known_ids());
        return ExitCode::FAILURE;
    }

    // Only the paper ids read the shared world: build it once, up front,
    // and only if one of them was asked for.
    let bundle = ids
        .iter()
        .any(|id| extra(id).is_none())
        .then(|| build_bundle(scale, opts.seed));
    for id in &ids {
        let t = Instant::now();
        if let Some(run) = extra(id) {
            let code = run(&opts);
            if code != ExitCode::SUCCESS {
                return code;
            }
        } else {
            let bundle = bundle.as_ref().expect("built for the paper ids");
            let out = run_experiment(id, bundle).expect("validated id");
            println!("\n{out}");
        }
        eprintln!("[{id} took {:.1?}]", t.elapsed());
    }
    ExitCode::SUCCESS
}

/// Build the shared world the paper's tables read.
fn build_bundle(scale: Scale, seed: u64) -> Bundle {
    eprintln!("building world (scale {scale:?}, seed {seed:#x})...");
    let t0 = Instant::now();
    let bundle = Bundle::build(scale, seed);
    eprintln!(
        "world ready in {:.1?}: {} domains, {} scan records, {} certs, {} hijacks planted",
        t0.elapsed(),
        bundle.world.config.n_domains,
        bundle.dataset.len(),
        bundle.world.certs.len(),
        bundle.world.ground_truth.hijacked.len(),
    );
    bundle
}

/// Read `BENCH_pipeline.json` (empty if absent or unreadable), let
/// `update` replace one section, stamp the revision, write it back and
/// print its summary. The other section carries over.
fn persist(update: impl FnOnce(&mut PipelineBenchReport)) -> Result<PipelineBenchReport, ExitCode> {
    let path = "BENCH_pipeline.json";
    let mut report: PipelineBenchReport = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    update(&mut report);
    report.git_rev = retrodns_bench::git_rev();
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("\n{}", report.summary());
    eprintln!("[wrote {path}]");
    Ok(report)
}

/// Sweep the columnar store's memory footprint over the `MEM_SIZES`
/// observation counts and persist the points into
/// `BENCH_pipeline.json`, preserving whatever report is already there.
/// Fails when a point exceeds `--max-bytes-per-obs`, or when the
/// largest swept cell shrinks less than `--min-mem-reduction`× vs the
/// row-vector baseline.
fn run_mem(opts: &Options) -> ExitCode {
    let max_obs = opts.max_obs;
    let sizes: Vec<usize> = MEM_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max_obs)
        .collect();
    if sizes.is_empty() {
        eprintln!("--max-obs {max_obs} excludes every mem column {MEM_SIZES:?}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "memory trajectory: observations {sizes:?} ({} scans/domain, streamed)...",
        retrodns_bench::MEM_SCANS_PER_DOMAIN
    );
    let points = retrodns_bench::bench_mem(&sizes);
    let report = match persist(|report| report.memory = points) {
        Ok(report) => report,
        Err(code) => return code,
    };
    if let Some(max) = opts.max_bytes_per_obs {
        for p in &report.memory {
            if p.bytes_per_observation > max {
                eprintln!(
                    "REGRESSION: {:.1} bytes/observation at {} observations exceeds the \
                     {max:.1} gate",
                    p.bytes_per_observation, p.observations
                );
                return ExitCode::FAILURE;
            }
        }
        eprintln!("bytes/observation gate: all points <= {max:.1}, ok");
    }
    if let Some(min) = opts.min_mem_reduction {
        // Gate on the largest cell: dictionaries amortize with scale, so
        // it is the hardest honest cell the sweep ran.
        let p = report
            .memory
            .iter()
            .max_by_key(|p| p.observations)
            .expect("sizes is non-empty");
        if p.reduction < min {
            eprintln!(
                "REGRESSION: columnar store only {:.2}x smaller than rows at {} \
                 observations, below the {min:.2}x gate",
                p.reduction, p.observations
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "mem reduction gate: {:.2}x at {} observations >= {min:.2}x, ok",
            p.reduction, p.observations
        );
    }
    ExitCode::SUCCESS
}

/// Run the serve harness — chaos trials at each worker count, then the
/// concurrent-query load test — and persist the rows into
/// `BENCH_pipeline.json`, preserving whatever report is already there.
/// Fails when any chaos trial delivered fewer kills than scheduled or
/// produced a report that is not byte-identical to the uninterrupted
/// golden, and when the load test sustains fewer than `--min-serve-qps`
/// queries per second.
fn run_serve(opts: &Options) -> ExitCode {
    let (kills, clients) = (opts.serve_kills, opts.serve_clients);
    eprintln!(
        "serve harness: {kills} kills x workers {:?} + load test ({clients} clients), seed {:#x}...",
        retrodns_bench::SERVE_CHAOS_WORKERS,
        retrodns_bench::SERVE_SEED
    );
    let points = match retrodns_bench::run_serve_harness(&retrodns_bench::ServeHarness {
        kills,
        clients,
        seed: retrodns_bench::SERVE_SEED,
    }) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("serve harness failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match persist(|report| report.serve = points) {
        Ok(report) => report,
        Err(code) => return code,
    };
    let mut failed = false;
    for p in report.serve.iter().filter(|p| p.scenario != "load") {
        if p.kills < kills {
            eprintln!(
                "REGRESSION: {} delivered only {}/{kills} scheduled kills",
                p.scenario, p.kills
            );
            failed = true;
        }
        if !p.byte_identical {
            eprintln!(
                "REGRESSION: {} final report differs from the uninterrupted golden",
                p.scenario
            );
            failed = true;
        }
        if p.resumed_weeks == 0 {
            eprintln!(
                "REGRESSION: {} final incarnation resumed no weeks — recovery never engaged",
                p.scenario
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!("chaos gate: all trials byte-identical after {kills} kills, ok");
    if let Some(min) = opts.min_serve_qps {
        let Some(load) = report.serve.iter().find(|p| p.scenario == "load") else {
            eprintln!("REGRESSION: load row missing from serve harness output");
            return ExitCode::FAILURE;
        };
        if load.qps < min {
            eprintln!(
                "REGRESSION: load test sustained only {:.0} qps (p99 {:.2} ms), below the \
                 {min:.0} qps gate",
                load.qps, load.p99_ms
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "serve qps gate: {:.0} qps (p50 {:.2} ms, p99 {:.2} ms) >= {min:.0}, ok",
            load.qps, load.p50_ms, load.p99_ms
        );
    }
    ExitCode::SUCCESS
}

/// Markers bracketing the auto-refreshed archetype section of
/// `EXPERIMENTS.md`.
const ARCHETYPE_MD_BEGIN: &str = "<!-- archetypes:begin -->";
const ARCHETYPE_MD_END: &str = "<!-- archetypes:end -->";

/// Run the adversarial-archetype detection campaign: write
/// `ARCHETYPES_matrix.json`, refresh the marked section of
/// `EXPERIMENTS.md`, and fail on a gate violation (a fully-catchable
/// archetype below extended recall 1.0, or an evasion archetype
/// regressing below the previously committed matrix).
fn run_archetypes(opts: &Options) -> ExitCode {
    let seeds: Vec<u64> = (0..3).map(|i| opts.seed.wrapping_add(i)).collect();
    eprintln!(
        "archetype campaign: seeds {seeds:?} x {} archetypes, baseline + extended...",
        retrodns_bench::ARCHETYPES.len()
    );
    let path = "ARCHETYPES_matrix.json";
    // The previously committed matrix is the no-regression baseline for
    // the evasion archetypes; read it before overwriting.
    let prior = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<retrodns_bench::ArchetypeMatrix>(&s).ok());
    let matrix = retrodns_bench::run_archetype_campaign(&seeds, opts.workers);
    let json = serde_json::to_string_pretty(&matrix).expect("archetype matrix serializes");
    if let Err(e) = std::fs::write(path, json + "\n") {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", matrix.summary());
    eprintln!("[archetypes wrote {path}]");
    if let Err(e) = refresh_archetype_section("EXPERIMENTS.md", &matrix) {
        eprintln!("failed to refresh EXPERIMENTS.md: {e}");
        return ExitCode::FAILURE;
    }
    let violations = matrix.gate_violations(prior.as_ref());
    if violations.is_empty() {
        eprintln!("archetype gates: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        ExitCode::FAILURE
    }
}

/// Replace (or append) the marker-bracketed archetype table in
/// `EXPERIMENTS.md` with the freshly measured one.
fn refresh_archetype_section(
    path: &str,
    matrix: &retrodns_bench::ArchetypeMatrix,
) -> std::io::Result<()> {
    let body = format!(
        "{ARCHETYPE_MD_BEGIN}\n\
         Aggregate over seeds {:?} (auto-refreshed by `experiments archetypes`;\n\
         precision is per-archetype true positives over true positives plus\n\
         *global* false positives):\n\n{}{ARCHETYPE_MD_END}",
        matrix.seeds,
        matrix.markdown()
    );
    let current = std::fs::read_to_string(path).unwrap_or_default();
    let next = match (
        current.find(ARCHETYPE_MD_BEGIN),
        current.find(ARCHETYPE_MD_END),
    ) {
        (Some(b), Some(e)) if e >= b => {
            format!(
                "{}{}{}",
                &current[..b],
                body,
                &current[e + ARCHETYPE_MD_END.len()..]
            )
        }
        _ => format!("{current}\n## Adversarial archetypes (`experiments archetypes`)\n\n{body}\n"),
    };
    std::fs::write(path, next)
}

/// Run the fault-injection survival campaign and write
/// `FAULTS_matrix.json`; fails when any cell fabricated a verdict.
fn run_faults(opts: &Options) -> ExitCode {
    let seeds: Vec<u64> = (0..5).map(|i| opts.seed.wrapping_add(i)).collect();
    eprintln!(
        "fault campaign: seeds {seeds:?} x (5 data faults + 12 source outages + 2 store \
         corruptions + no-corroboration)..."
    );
    let matrix = retrodns_bench::run_fault_campaign(&seeds, opts.workers);
    let json = serde_json::to_string_pretty(&matrix).expect("fault matrix serializes");
    let path = "FAULTS_matrix.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", matrix.summary());
    eprintln!("[faults wrote {path}]");
    if matrix.all_survived() {
        ExitCode::SUCCESS
    } else {
        eprintln!("unsurvived fault cells (fabricated verdicts or tally drift)");
        ExitCode::FAILURE
    }
}
