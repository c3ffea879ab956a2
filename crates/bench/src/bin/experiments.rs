//! The experiment harness binary: regenerates every table and figure of
//! the paper's evaluation against a freshly simulated world.
//!
//! ```text
//! experiments [--scale quick|standard|full] [--seed N] [--workers N] <id>... | all
//! ```
//!
//! Ids: table1 fig2 fig3 fig4 fig5 population funnel table2 table3 table4
//! table5 observability table9 baselines ablation.
//!
//! The extra id `bench` (not part of `all`) times the parallelizable
//! pipeline stages serial-vs-parallel and writes the machine-readable
//! result to `BENCH_pipeline.json` in the working directory; pass
//! `--min-algorithm-speedup X` to fail the process when the reference
//! map build is less than `X` times slower than the arena engine, both
//! at one worker (the CI regression gate). Same-engine parallel scaling
//! is recorded but not gated.
//!
//! The extra id `matrix` (also not part of `all`) sweeps the map build
//! over a workers (1/2/4/8) × domain-count (2k → 1M synthetic) grid —
//! no world build, so it runs in seconds per small cell — and persists
//! the grid into `BENCH_pipeline.json` alongside the bench trajectory.
//! `--max-domains N` caps the largest grid column.
//!
//! The extra id `faults` (also not part of `all`) runs the
//! fault-injection survival campaign — five seeds × every fault kind
//! plus a corroboration-stripped row per seed — writes the matrix to
//! `FAULTS_matrix.json`, and fails the process if any cell fabricated a
//! hijack verdict.
//!
//! The extra id `archetypes` (also not part of `all`) runs the
//! adversarial-archetype detection campaign — three seeds × seven
//! attacker archetypes, baseline vs extension signals — writes the
//! per-archetype precision/recall matrix to `ARCHETYPES_matrix.json`,
//! refreshes the matching `EXPERIMENTS.md` section, and fails the
//! process when a fully-catchable archetype misses extended recall 1.0
//! or an evasion archetype's extended recall regresses below the
//! previously committed matrix.
//!
//! The extra id `mem` (also not part of `all`) sweeps the columnar
//! observation store's memory footprint over 100k/1M/5M synthetic
//! observations (streamed, never materialized as rows) and persists the
//! points into `BENCH_pipeline.json`. `--max-bytes-per-obs X` and
//! `--min-mem-reduction X` are the CI regression gates; `--max-obs N`
//! caps the largest sweep column.
//!
//! The extra id `stream` (also not part of `all`) measures incremental
//! week-at-a-time ingestion against full batch re-analysis on a
//! quick-scale world and persists the points into
//! `BENCH_pipeline.json`. `--stream-weeks N` sets the largest history
//! length (default 20); `--min-stream-speedup X` fails the process when
//! ingesting the latest week is less than `X`x faster than re-analyzing
//! the whole history at that point (the CI regression gate).
//!
//! The extra id `serve` (also not part of `all`) runs the
//! `retrodns-serve` crash-tolerance harness: per worker count (1/2/8) it
//! SIGKILL-equivalently aborts a spawned server at `--serve-kills`
//! deterministic points mid-analysis, restarts it each time, and fails
//! the process unless the final report is byte-identical to an
//! uninterrupted golden; then a load test records sustained queries/sec
//! and p50/p99 latency under `--serve-clients` concurrent clients while
//! an analysis is active (`--min-serve-qps X` is the CI gate). Points
//! persist into `BENCH_pipeline.json`. (The hidden first argument
//! `__serve` is the harness's server child mode, not a user id.)

use retrodns_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use retrodns_bench::{Bundle, Scale};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: retrodns_core::metrics::CountingAlloc = retrodns_core::metrics::CountingAlloc;

/// Worker counts the `matrix` id sweeps.
const MATRIX_WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Domain-count columns the `matrix` id sweeps (capped by
/// `--max-domains`).
const MATRIX_DOMAINS: [usize; 4] = [2_000, 20_000, 100_000, 1_000_000];
/// Observation-count columns the `mem` id sweeps (capped by
/// `--max-obs`).
const MEM_SIZES: [usize; 3] = [100_000, 1_000_000, 5_000_000];
/// History lengths (scan-weeks) the `stream` id sweeps (capped by
/// `--stream-weeks`).
const STREAM_WEEK_COUNTS: [usize; 3] = [5, 10, 20];

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
    let mut seed: u64 = 0xD05_11EC7;
    let mut workers: usize = 4;
    let mut reps: usize = 3;
    let mut max_domains: usize = 1_000_000;
    let mut max_obs: usize = 5_000_000;
    let mut stream_weeks: usize = 20;
    let mut serve_kills: usize = 5;
    let mut serve_clients: usize = 4;
    let mut min_serve_qps: Option<f64> = None;
    let mut min_stream_speedup: Option<f64> = None;
    let mut min_algorithm_speedup: Option<f64> = None;
    let mut max_bytes_per_obs: Option<f64> = None;
    let mut min_mem_reduction: Option<f64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--workers expects a positive integer");
                    return ExitCode::FAILURE;
                };
                workers = v;
            }
            "--reps" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--reps expects a positive integer");
                    return ExitCode::FAILURE;
                };
                reps = v;
            }
            "--max-domains" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--max-domains expects a positive integer");
                    return ExitCode::FAILURE;
                };
                max_domains = v;
            }
            "--max-obs" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--max-obs expects a positive integer");
                    return ExitCode::FAILURE;
                };
                max_obs = v;
            }
            "--stream-weeks" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 2)
                else {
                    eprintln!("--stream-weeks expects an integer >= 2");
                    return ExitCode::FAILURE;
                };
                stream_weeks = v;
            }
            "--serve-kills" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--serve-kills expects a positive integer");
                    return ExitCode::FAILURE;
                };
                serve_kills = v;
            }
            "--serve-clients" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--serve-clients expects a positive integer");
                    return ExitCode::FAILURE;
                };
                serve_clients = v;
            }
            "--min-serve-qps" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0)
                else {
                    eprintln!("--min-serve-qps expects a positive number");
                    return ExitCode::FAILURE;
                };
                min_serve_qps = Some(v);
            }
            "--min-stream-speedup" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0)
                else {
                    eprintln!("--min-stream-speedup expects a positive number");
                    return ExitCode::FAILURE;
                };
                min_stream_speedup = Some(v);
            }
            "--max-bytes-per-obs" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0)
                else {
                    eprintln!("--max-bytes-per-obs expects a positive number");
                    return ExitCode::FAILURE;
                };
                max_bytes_per_obs = Some(v);
            }
            "--min-mem-reduction" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0)
                else {
                    eprintln!("--min-mem-reduction expects a positive number");
                    return ExitCode::FAILURE;
                };
                min_mem_reduction = Some(v);
            }
            "--min-algorithm-speedup" => {
                let Some(v) = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0)
                else {
                    eprintln!("--min-algorithm-speedup expects a positive number");
                    return ExitCode::FAILURE;
                };
                min_algorithm_speedup = Some(v);
            }
            "--scale" => {
                let Some(v) = it.next().and_then(|v| Scale::parse(&v)) else {
                    eprintln!("--scale expects quick|standard|full");
                    return ExitCode::FAILURE;
                };
                scale = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed expects an integer");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale quick|standard|full] [--seed N] [--workers N] \
                     [--reps N] [--max-domains N] [--max-obs N] [--min-algorithm-speedup X] \
                     [--max-bytes-per-obs X] [--min-mem-reduction X] [--stream-weeks N] \
                     [--min-stream-speedup X] [--serve-kills N] [--serve-clients N] \
                     [--min-serve-qps X] <id>... | all\n\
                     ids: {} bench matrix faults archetypes mem stream serve",
                    ALL_EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if id != "bench"
            && id != "faults"
            && id != "matrix"
            && id != "mem"
            && id != "stream"
            && id != "serve"
            && id != "archetypes"
            && !ALL_EXPERIMENTS.contains(&id.as_str())
        {
            eprintln!(
                "unknown experiment {id:?}; known: {} bench matrix faults archetypes mem stream \
                 serve",
                ALL_EXPERIMENTS.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }

    // The faults campaign builds its own (damaged) worlds, and the
    // matrix and mem sweeps generate synthetic streams directly; run
    // them before paying for the shared bundle if no other id needs it.
    if ids.iter().all(|i| {
        i == "faults"
            || i == "matrix"
            || i == "mem"
            || i == "stream"
            || i == "serve"
            || i == "archetypes"
    }) {
        for id in &ids {
            let code = match id.as_str() {
                "faults" => run_faults(seed, workers),
                "archetypes" => run_archetypes(seed, workers),
                "mem" => run_mem(max_obs, max_bytes_per_obs, min_mem_reduction),
                "stream" => run_stream(stream_weeks, workers, reps, min_stream_speedup),
                "serve" => run_serve(serve_kills, serve_clients, min_serve_qps),
                _ => run_matrix(max_domains, reps),
            };
            if code != ExitCode::SUCCESS {
                return code;
            }
        }
        return ExitCode::SUCCESS;
    }

    eprintln!("building world (scale {scale:?}, seed {seed:#x})...");
    let t0 = std::time::Instant::now();
    let bundle = Bundle::build(scale, seed);
    eprintln!(
        "world ready in {:.1?}: {} domains, {} scan records, {} certs, {} hijacks planted",
        t0.elapsed(),
        bundle.world.config.n_domains,
        bundle.dataset.len(),
        bundle.world.certs.len(),
        bundle.world.ground_truth.hijacked.len(),
    );

    for id in &ids {
        let t = std::time::Instant::now();
        if id == "faults" {
            let code = run_faults(seed, workers);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[faults took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "archetypes" {
            let code = run_archetypes(seed, workers);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[archetypes took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "matrix" {
            let code = run_matrix(max_domains, reps);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[matrix took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "mem" {
            let code = run_mem(max_obs, max_bytes_per_obs, min_mem_reduction);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[mem took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "stream" {
            let code = run_stream(stream_weeks, workers, reps, min_stream_speedup);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[stream took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "serve" {
            let code = run_serve(serve_kills, serve_clients, min_serve_qps);
            if code != ExitCode::SUCCESS {
                return code;
            }
            eprintln!("[serve took {:.1?}]", t.elapsed());
            continue;
        }
        if id == "bench" {
            let mut report = retrodns_bench::bench_pipeline(&bundle, workers, reps);
            let path = "BENCH_pipeline.json";
            // Carry the other sections forward: load the previous report
            // (if any), keep its history and sweeps, and append this run
            // as a new trajectory point.
            if let Ok(prev) = std::fs::read_to_string(path) {
                if let Ok(prev) = serde_json::from_str::<retrodns_bench::PipelineBenchReport>(&prev)
                {
                    report.trajectory = prev.trajectory;
                    report.matrix = prev.matrix;
                    report.memory = prev.memory;
                    report.stream = prev.stream;
                    report.serve = prev.serve;
                }
            }
            let e2e = report.stages.iter().find(|s| s.stage == "end_to_end");
            report.trajectory.push(retrodns_bench::TrajectoryPoint {
                workers: report.workers,
                domains: report.domains,
                observations: report.observations,
                e2e_serial_ms: e2e.map_or(0.0, |s| s.serial_ms),
                e2e_parallel_ms: e2e.map_or(0.0, |s| s.parallel_ms),
                metrics_overhead_pct: report.metrics_overhead_pct,
                git_rev: report.git_rev.clone(),
                peak_rss_bytes: retrodns_core::metrics::peak_rss_kb().unwrap_or(0) * 1024,
                bytes_per_observation: retrodns_store::rows_footprint_bytes(
                    bundle.observations.iter(),
                ) as f64
                    / report.observations.max(1) as f64,
            });
            let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("\n{}", report.summary());
            eprintln!(
                "[bench wrote {path} (trajectory now {} points); took {:.1?}]",
                report.trajectory.len(),
                t.elapsed()
            );
            if let Some(min) = min_algorithm_speedup {
                let speedup = report.algorithm_speedup;
                if speedup < min {
                    eprintln!(
                        "REGRESSION: algorithm speedup {speedup:.2}x (reference map build vs \
                         arena, both at 1 worker) is below the {min:.2}x gate"
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!("algorithm speedup gate: {speedup:.2}x >= {min:.2}x, ok");
            }
            continue;
        }
        let out = run_experiment(id, &bundle).expect("validated id");
        println!("\n{out}");
        eprintln!("[{id} took {:.1?}]", t.elapsed());
    }
    ExitCode::SUCCESS
}

/// Sweep the map build over the workers × domain-count grid and persist
/// the cells (plus `git_rev`) into `BENCH_pipeline.json`, preserving
/// whatever bench report is already there.
fn run_matrix(max_domains: usize, reps: usize) -> ExitCode {
    let domain_counts: Vec<usize> = MATRIX_DOMAINS
        .iter()
        .copied()
        .filter(|&d| d <= max_domains)
        .collect();
    if domain_counts.is_empty() {
        eprintln!("--max-domains {max_domains} excludes every matrix column {MATRIX_DOMAINS:?}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "map-build matrix: workers {MATRIX_WORKERS:?} x domains {domain_counts:?}, best of {reps}..."
    );
    let cells = retrodns_bench::bench_map_matrix(&MATRIX_WORKERS, &domain_counts, reps);
    let path = "BENCH_pipeline.json";
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<retrodns_bench::PipelineBenchReport>(&s).ok())
        .unwrap_or_default();
    report.matrix = cells;
    report.git_rev = retrodns_bench::git_rev();
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", report.summary());
    eprintln!("[matrix wrote {path} ({} cells)]", report.matrix.len());
    ExitCode::SUCCESS
}

/// Sweep the columnar store's memory footprint over the `MEM_SIZES`
/// observation counts and persist the points into
/// `BENCH_pipeline.json`, preserving whatever report is already there.
/// Fails when a point exceeds `--max-bytes-per-obs`, or when the
/// largest swept cell shrinks less than `--min-mem-reduction`× vs the
/// row-vector baseline.
fn run_mem(
    max_obs: usize,
    max_bytes_per_obs: Option<f64>,
    min_mem_reduction: Option<f64>,
) -> ExitCode {
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
    let path = "BENCH_pipeline.json";
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<retrodns_bench::PipelineBenchReport>(&s).ok())
        .unwrap_or_default();
    report.memory = points;
    report.git_rev = retrodns_bench::git_rev();
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", report.summary());
    eprintln!("[mem wrote {path} ({} points)]", report.memory.len());
    if let Some(max) = max_bytes_per_obs {
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
    if let Some(min) = min_mem_reduction {
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

/// Sweep incremental week-at-a-time ingestion (each week ingested and
/// checkpointed) against full batch re-analysis over the
/// `STREAM_WEEK_COUNTS` history lengths and persist the points into
/// `BENCH_pipeline.json`, preserving whatever report is already there.
/// Fails when the largest swept history shows a week speedup below
/// `--min-stream-speedup`.
fn run_stream(
    stream_weeks: usize,
    workers: usize,
    reps: usize,
    min_stream_speedup: Option<f64>,
) -> ExitCode {
    let week_counts: Vec<usize> = STREAM_WEEK_COUNTS
        .iter()
        .copied()
        .filter(|&w| w <= stream_weeks)
        .chain((!STREAM_WEEK_COUNTS.contains(&stream_weeks)).then_some(stream_weeks))
        .collect();
    eprintln!(
        "streaming ingestion: weeks {week_counts:?} x {workers} workers, best of {reps} \
         (quick-scale world, seed {:#x})...",
        retrodns_bench::STREAM_SEED
    );
    let points = retrodns_bench::bench_stream(&week_counts, workers, reps);
    let path = "BENCH_pipeline.json";
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<retrodns_bench::PipelineBenchReport>(&s).ok())
        .unwrap_or_default();
    report.stream = points;
    report.git_rev = retrodns_bench::git_rev();
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", report.summary());
    eprintln!("[stream wrote {path} ({} points)]", report.stream.len());
    if let Some(min) = min_stream_speedup {
        // Gate on the longest history: that is where re-analysis hurts
        // most and where an O(history) regression in the incremental
        // path would hide at smaller cells.
        let p = report
            .stream
            .iter()
            .max_by_key(|p| p.weeks)
            .expect("week_counts is non-empty");
        if p.speedup < min {
            eprintln!(
                "REGRESSION: week ingest + checkpoint only {:.2}x faster than full \
                 re-analysis at {} weeks, below the {min:.2}x gate",
                p.speedup, p.weeks
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "stream speedup gate: {:.2}x at {} weeks >= {min:.2}x, ok",
            p.speedup, p.weeks
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
fn run_serve(kills: usize, clients: usize, min_serve_qps: Option<f64>) -> ExitCode {
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
    let path = "BENCH_pipeline.json";
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<retrodns_bench::PipelineBenchReport>(&s).ok())
        .unwrap_or_default();
    report.serve = points;
    report.git_rev = retrodns_bench::git_rev();
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", report.summary());
    eprintln!("[serve wrote {path} ({} rows)]", report.serve.len());
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
    if let Some(min) = min_serve_qps {
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
fn run_archetypes(seed: u64, workers: usize) -> ExitCode {
    let seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(i)).collect();
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
    let matrix = retrodns_bench::run_archetype_campaign(&seeds, workers);
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
fn run_faults(seed: u64, workers: usize) -> ExitCode {
    let seeds: Vec<u64> = (0..5).map(|i| seed.wrapping_add(i)).collect();
    eprintln!(
        "fault campaign: seeds {seeds:?} x (5 data faults + 12 source outages + 2 store \
         corruptions + no-corroboration)..."
    );
    let matrix = retrodns_bench::run_fault_campaign(&seeds, workers);
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
