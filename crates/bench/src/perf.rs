//! Machine-readable pipeline performance measurements.
//!
//! [`bench_pipeline`] times each parallelizable pipeline stage — map
//! building, classification, inspection — plus the end-to-end run, once
//! serially and once with a worker pool, and reports wall time and
//! ops/sec for both. The `experiments` binary serializes the result to
//! `BENCH_pipeline.json` so perf regressions are diffable across
//! commits, not locked in a terminal scrollback.

use crate::Bundle;
use retrodns_core::map::MapBuilder;
use retrodns_core::metrics::MetricsRegistry;
use retrodns_core::pipeline::{Pipeline, PipelineConfig};
use retrodns_core::shortlist::{shortlist, ShortlistConfig};
use retrodns_types::StudyWindow;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Serial-vs-parallel timing for one pipeline stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageBench {
    /// Stage name (`map_build`, `classify`, `inspect`, `end_to_end`).
    pub stage: String,
    /// Items the stage processes (its throughput unit).
    pub items: usize,
    /// Best-of-N serial wall milliseconds.
    pub serial_ms: f64,
    /// Best-of-N parallel wall milliseconds.
    pub parallel_ms: f64,
    /// Items per second, serial.
    pub serial_ops_per_sec: f64,
    /// Items per second, parallel.
    pub parallel_ops_per_sec: f64,
    /// serial_ms / parallel_ms.
    pub speedup: f64,
}

impl StageBench {
    fn new(stage: &str, items: usize, serial_ms: f64, parallel_ms: f64) -> StageBench {
        let ops = |ms: f64| {
            if ms > 0.0 {
                items as f64 / (ms / 1e3)
            } else {
                0.0
            }
        };
        StageBench {
            stage: stage.to_string(),
            items,
            serial_ms,
            parallel_ms,
            serial_ops_per_sec: ops(serial_ms),
            parallel_ops_per_sec: ops(parallel_ms),
            speedup: if parallel_ms > 0.0 {
                serial_ms / parallel_ms
            } else {
                0.0
            },
        }
    }
}

/// One appended point of the bench trajectory: the end-to-end numbers of
/// a single `experiments bench` run, kept across runs so perf drift is
/// visible in `BENCH_pipeline.json` itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Worker-pool size of the run.
    pub workers: usize,
    /// Simulated domains in the bench world (0 in pre-matrix entries).
    #[serde(default)]
    pub domains: usize,
    /// Scan observations fed to the pipeline.
    pub observations: usize,
    /// Best-of-N serial end-to-end wall milliseconds.
    pub e2e_serial_ms: f64,
    /// Best-of-N parallel end-to-end wall milliseconds.
    pub e2e_parallel_ms: f64,
    /// Metrics-collection overhead of the run, percent.
    pub metrics_overhead_pct: f64,
    /// Git revision (`git rev-parse --short HEAD`) the run was built
    /// from, so regressions in the trajectory are attributable to a
    /// commit. Empty in entries recorded before this field existed.
    #[serde(default)]
    pub git_rev: String,
    /// Peak resident set size of the bench process in bytes (0 off
    /// Linux and in entries recorded before this field existed).
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// Exact `Vec<DomainObservation>` bytes per observation of the run's
    /// input (0.0 in pre-existing entries) — speed and memory regress
    /// together in one trajectory.
    #[serde(default)]
    pub bytes_per_observation: f64,
}

/// One cell of the workers × domain-count map-build matrix: the
/// reference serial build vs the shard-local arena build over a
/// deterministic synthetic observation stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Worker count of the sharded measurement.
    pub workers: usize,
    /// Synthetic domains in the stream.
    pub domains: usize,
    /// Observations in the stream (≈ domains × scans-per-domain).
    pub observations: usize,
    /// Deployment maps the build produced.
    pub maps: usize,
    /// Best-of-N reference serial build wall milliseconds.
    pub serial_ms: f64,
    /// Best-of-N shard-local build wall milliseconds.
    pub sharded_ms: f64,
    /// serial_ms / sharded_ms.
    pub speedup: f64,
}

/// One cell of the memory-trajectory sweep (`experiments mem`): the
/// columnar store built by streaming a synthetic corpus of the given
/// size, measured against the exact bytes an equivalent
/// `Vec<DomainObservation>` would hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemPoint {
    /// Observations streamed into the store.
    pub observations: usize,
    /// Distinct synthetic domains in the stream.
    pub domains: usize,
    /// In-memory bytes held by the columnar store
    /// ([`ObservationStore::footprint_bytes`][fb]).
    ///
    /// [fb]: retrodns_store::ObservationStore::footprint_bytes
    pub store_bytes: usize,
    /// Exact bytes an exactly-sized row vector would hold
    /// ([`retrodns_store::rows_footprint_bytes`]).
    pub row_bytes: usize,
    /// `store_bytes / observations` — the regression-gated figure.
    pub bytes_per_observation: f64,
    /// `row_bytes / observations`, the baseline unit cost.
    pub row_bytes_per_observation: f64,
    /// `row_bytes / store_bytes` — how many times smaller the columnar
    /// form is (gated at ≥ 3× at the million-observation cell).
    pub reduction: f64,
    /// Cumulative allocator bytes requested while streaming the corpus
    /// into the store — allocation *churn*, not live bytes (0 when
    /// [`CountingAlloc`](retrodns_core::metrics::CountingAlloc) is not
    /// installed).
    pub build_alloc_bytes: u64,
    /// Peak resident set size after the build, bytes (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Chunks the store sealed (`⌈observations / CHUNK_ROWS⌉`).
    pub chunks: usize,
    /// Git revision the sweep ran from.
    #[serde(default)]
    pub git_rev: String,
}

/// One cell of the streaming-ingestion sweep (`experiments stream`): the
/// marginal cost of ingesting the latest scan-week through
/// [`IncrementalAnalyzer`](retrodns_core::IncrementalAnalyzer) versus
/// re-analyzing the entire history from scratch at that point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamPoint {
    /// Scan-weeks of history at the measurement point.
    pub weeks: usize,
    /// Worker-pool size of both paths.
    pub workers: usize,
    /// Observations across the whole truncated history.
    pub observations: usize,
    /// Observations in the final (timed) week alone.
    pub week_observations: usize,
    /// Best-of-N wall milliseconds to ingest the final week into an
    /// analyzer already holding the preceding `weeks - 1`, *plus* the
    /// checkpoint written after it — what `analyze --stream
    /// --checkpoint-dir` and serve jobs pay per week.
    pub week_ingest_ms: f64,
    /// Mean wall milliseconds per week (ingest plus checkpoint) across
    /// one full stream of the history (every week, not just the last).
    pub mean_week_ms: f64,
    /// Best-of-N wall milliseconds of a full batch re-analysis over the
    /// same `weeks` of history.
    pub full_reanalysis_ms: f64,
    /// `full_reanalysis_ms / week_ingest_ms` — the regression-gated
    /// figure: how much cheaper staying incremental is than re-running.
    pub speedup: f64,
    /// Git revision the sweep ran from.
    #[serde(default)]
    pub git_rev: String,
}

/// The full pipeline perf report emitted as `BENCH_pipeline.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineBenchReport {
    /// Worker-pool size used for the parallel measurements.
    pub workers: usize,
    /// Simulated domains in the bench world.
    pub domains: usize,
    /// Scan observations fed to the pipeline.
    pub observations: usize,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// Per-stage measurements in pipeline order.
    pub stages: Vec<StageBench>,
    /// Best-of-N parallel end-to-end wall milliseconds with metrics
    /// collection enabled ([`Pipeline::run_with`]).
    #[serde(default)]
    pub metered_ms: f64,
    /// Relative cost of metrics collection on the parallel end-to-end
    /// run, percent: `(metered - plain) / plain × 100`, clamped at 0 —
    /// a negative delta means timer noise exceeded the true overhead
    /// (see [`Self::metrics_overhead_noise`]). Budgeted at under 5%
    /// (`DESIGN.md` §8).
    #[serde(default)]
    pub metrics_overhead_pct: f64,
    /// The unclamped overhead delta, kept for honesty: when this is
    /// negative the metered run beat the plain run and the measurement
    /// is noise-dominated, not evidence of free metrics.
    #[serde(default)]
    pub metrics_overhead_raw_pct: f64,
    /// True when the raw overhead delta was negative (noise exceeded
    /// the signal), so `metrics_overhead_pct` was clamped to 0.
    #[serde(default)]
    pub metrics_overhead_noise: bool,
    /// Reference map build ÷ arena map build, both at one worker: the
    /// algorithmic gain of the map engine, kept apart from its parallel
    /// scaling (the `map_build` stage row compares the arena against
    /// itself).
    #[serde(default)]
    pub algorithm_speedup: f64,
    /// Git revision (`git rev-parse --short HEAD`) this report was
    /// generated from.
    #[serde(default)]
    pub git_rev: String,
    /// The workers × domain-count map-build scaling matrix, regenerated
    /// by `experiments matrix` (empty when only `bench` ran).
    #[serde(default)]
    pub matrix: Vec<MatrixCell>,
    /// End-to-end history across `experiments bench` runs; each run
    /// appends one [`TrajectoryPoint`].
    #[serde(default)]
    pub trajectory: Vec<TrajectoryPoint>,
    /// The memory-trajectory sweep, regenerated by `experiments mem`
    /// (empty when only `bench`/`matrix` ran).
    #[serde(default)]
    pub memory: Vec<MemPoint>,
    /// The streaming-ingestion sweep, regenerated by `experiments
    /// stream` (empty when it has not run).
    #[serde(default)]
    pub stream: Vec<StreamPoint>,
    /// The serve harness rows (chaos trials + load test), regenerated by
    /// `experiments serve` (empty when it has not run).
    #[serde(default)]
    pub serve: Vec<crate::serve_load::ServePoint>,
}

impl PipelineBenchReport {
    /// Human-readable table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        // Only `experiments bench` times the stages; other runs would
        // print a table of zeros as if they had been measured.
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "== Pipeline stage benchmark ({} domains, {} observations, {} workers, best of {}) ==",
                self.domains, self.observations, self.workers, self.reps
            );
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>14} {:>14} {:>8}",
                "stage", "items", "serial ms", "par ms", "serial ops/s", "par ops/s", "speedup"
            );
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<12} {:>8} {:>12.2} {:>12.2} {:>14.0} {:>14.0} {:>7.2}x",
                    s.stage,
                    s.items,
                    s.serial_ms,
                    s.parallel_ms,
                    s.serial_ops_per_sec,
                    s.parallel_ops_per_sec,
                    s.speedup
                );
            }
            let _ = writeln!(
                out,
                "algorithm speedup: {:.2}x (reference map build vs arena, both at 1 worker)",
                self.algorithm_speedup
            );
            let _ = writeln!(
                out,
                "metrics overhead: {:.2} ms metered vs plain parallel e2e ({:+.1}%{})",
                self.metered_ms,
                self.metrics_overhead_pct,
                if self.metrics_overhead_noise {
                    format!(
                        ", noise-dominated: raw {:+.1}%",
                        self.metrics_overhead_raw_pct
                    )
                } else {
                    String::new()
                }
            );
        }
        if !self.memory.is_empty() {
            let _ = writeln!(
                out,
                "\n== Memory trajectory (columnar store vs row vector) =="
            );
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>14} {:>14} {:>8} {:>8} {:>8} {:>14} {:>12}",
                "observations",
                "domains",
                "store B",
                "rows B",
                "B/obs",
                "rows/obs",
                "shrink",
                "build alloc B",
                "peak RSS MB"
            );
            for m in &self.memory {
                let _ = writeln!(
                    out,
                    "{:<12} {:>9} {:>14} {:>14} {:>8.1} {:>8.1} {:>7.2}x {:>14} {:>12.1}",
                    m.observations,
                    m.domains,
                    m.store_bytes,
                    m.row_bytes,
                    m.bytes_per_observation,
                    m.row_bytes_per_observation,
                    m.reduction,
                    m.build_alloc_bytes,
                    m.peak_rss_bytes as f64 / (1024.0 * 1024.0)
                );
            }
        }
        if !self.stream.is_empty() {
            let _ = writeln!(
                out,
                "\n== Streaming ingestion (week ingest + checkpoint vs full re-analysis) =="
            );
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>10} {:>14} {:>14} {:>14} {:>8}",
                "weeks",
                "workers",
                "obs",
                "week obs",
                "week ms",
                "mean wk ms",
                "full ms",
                "speedup"
            );
            for s in &self.stream {
                let _ = writeln!(
                    out,
                    "{:<8} {:>8} {:>10} {:>10} {:>14.2} {:>14.2} {:>14.2} {:>7.2}x",
                    s.weeks,
                    s.workers,
                    s.observations,
                    s.week_observations,
                    s.week_ingest_ms,
                    s.mean_week_ms,
                    s.full_reanalysis_ms,
                    s.speedup
                );
            }
        }
        if !self.serve.is_empty() {
            let _ = writeln!(out, "\n== Serve harness (chaos trials + query load) ==");
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>7} {:>6} {:>8} {:>10} {:>8} {:>9} {:>10} {:>10} {:>10}",
                "scenario",
                "workers",
                "weeks",
                "kills",
                "resumed",
                "identical",
                "clients",
                "queries",
                "qps",
                "p50 ms",
                "p99 ms"
            );
            for s in &self.serve {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>7} {:>6} {:>8} {:>10} {:>8} {:>9} {:>10.0} {:>10.2} {:>10.2}",
                    s.scenario,
                    s.workers,
                    s.weeks,
                    s.kills,
                    s.resumed_weeks,
                    s.byte_identical,
                    s.clients,
                    s.queries,
                    s.qps,
                    s.p50_ms,
                    s.p99_ms
                );
            }
        }
        if !self.matrix.is_empty() {
            let _ = writeln!(out, "\n== Map-build scaling matrix (serial vs sharded) ==");
            let _ = writeln!(
                out,
                "{:<8} {:>9} {:>12} {:>12} {:>12} {:>8}",
                "workers", "domains", "obs", "serial ms", "sharded ms", "speedup"
            );
            for c in &self.matrix {
                let _ = writeln!(
                    out,
                    "{:<8} {:>9} {:>12} {:>12.2} {:>12.2} {:>7.2}x",
                    c.workers, c.domains, c.observations, c.serial_ms, c.sharded_ms, c.speedup
                );
            }
        }
        out
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a git
/// checkout (e.g. a source tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Best-of-`reps` wall milliseconds of `f`.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Benchmark the parallelizable pipeline stages, serial vs `workers`.
pub fn bench_pipeline(bundle: &Bundle, workers: usize, reps: usize) -> PipelineBenchReport {
    let observations = &bundle.observations;
    let window = bundle.world.config.window.clone();
    let serial = Pipeline::new(PipelineConfig {
        window: window.clone(),
        workers: 1,
        ..PipelineConfig::default()
    });
    let parallel = Pipeline::new(PipelineConfig {
        window: window.clone(),
        workers,
        ..PipelineConfig::default()
    });

    // Algorithm and parallelism are reported apart: the map stage's
    // serial column is the arena engine at one worker (the same engine
    // the parallel column runs), and the reference builder only enters
    // `algorithm_speedup`.
    let builder = MapBuilder::new(window);
    let map_reference = time_ms(reps, || builder.build(observations));
    let map_serial = time_ms(reps, || builder.build_sharded_stats(observations, 1));
    let map_parallel = time_ms(reps, || builder.build_sharded_stats(observations, workers));
    let algorithm_speedup = if map_serial > 0.0 {
        map_reference / map_serial
    } else {
        0.0
    };

    let (maps, _) = builder.build_sharded_stats(observations, 1);
    let patterns = serial.classify_maps(&maps);
    let classify_serial = time_ms(reps, || serial.classify_maps(&maps));
    let classify_parallel = time_ms(reps, || parallel.classify_maps(&maps));

    let shortlisted = shortlist(
        &maps,
        &patterns,
        &bundle.world.geo.asdb,
        &bundle.world.certs,
        &ShortlistConfig::default(),
    );
    let inputs = bundle.inputs();
    let inspect_serial = time_ms(reps, || {
        serial.inspect_candidates(&shortlisted.candidates, &inputs)
    });
    let inspect_parallel = time_ms(reps, || {
        parallel.inspect_candidates(&shortlisted.candidates, &inputs)
    });

    let e2e_serial = time_ms(reps, || serial.run(&inputs));
    let e2e_parallel = time_ms(reps, || parallel.run(&inputs));
    // The metered-vs-plain delta is a few percent of a run whose wall
    // time itself jitters by a few percent, so a low rep count can
    // (and did: −11.6% in an early report) produce a *negative*
    // overhead. Raise the floor to 5 reps for this comparison — the
    // min-of-reps estimator converges on the true floor — and clamp
    // what remains of the noise at 0 rather than reporting nonsense.
    let overhead_reps = reps.max(5);
    let plain_ms = time_ms(overhead_reps, || parallel.run(&inputs));
    let metered_ms = time_ms(overhead_reps, || {
        let mut metrics = MetricsRegistry::new();
        parallel.run_with(&inputs, &mut metrics)
    });
    let metrics_overhead_raw_pct = if plain_ms > 0.0 {
        (metered_ms - plain_ms) / plain_ms * 100.0
    } else {
        0.0
    };
    let metrics_overhead_noise = metrics_overhead_raw_pct < 0.0;
    let metrics_overhead_pct = metrics_overhead_raw_pct.max(0.0);

    PipelineBenchReport {
        workers,
        domains: bundle.world.config.n_domains,
        observations: observations.len(),
        reps: reps.max(1),
        metered_ms,
        metrics_overhead_pct,
        metrics_overhead_raw_pct,
        metrics_overhead_noise,
        algorithm_speedup,
        git_rev: git_rev(),
        matrix: Vec::new(),
        trajectory: Vec::new(),
        memory: Vec::new(),
        stream: Vec::new(),
        serve: Vec::new(),
        stages: vec![
            StageBench::new("map_build", observations.len(), map_serial, map_parallel),
            StageBench::new("classify", maps.len(), classify_serial, classify_parallel),
            StageBench::new(
                "inspect",
                shortlisted.candidates.len(),
                inspect_serial,
                inspect_parallel,
            ),
            StageBench::new("end_to_end", observations.len(), e2e_serial, e2e_parallel),
        ],
    }
}

/// Scans per synthetic domain in the memory sweep: thirty-two weekly
/// observations per domain is the multi-year retention shape the store
/// exists for — dictionaries amortize across repeat sightings of the
/// same domain, which an eight-scan stream would understate.
pub const MEM_SCANS_PER_DOMAIN: usize = 32;

/// Stream seed of the memory sweep (fixed: cells are comparable across
/// runs and machines).
pub const MEM_SEED: u64 = 0x3E3E;

/// Sweep the columnar store's memory footprint across observation
/// counts.
///
/// Each cell lazily streams a synthetic corpus
/// ([`retrodns_sim::synthetic_stream`]) straight into a
/// [`StoreBuilder`](retrodns_store::StoreBuilder) — the generator never
/// materializes, so peak RSS measures the *store* — and compares the
/// sealed store's footprint against the exact bytes an equivalent row
/// vector would hold (computed row-by-row during the same pass, also
/// without materializing it).
pub fn bench_mem(observation_targets: &[usize]) -> Vec<MemPoint> {
    let rev = git_rev();
    observation_targets
        .iter()
        .map(|&target| {
            let domains = (target / MEM_SCANS_PER_DOMAIN).max(1);
            let stream = retrodns_sim::synthetic_stream(domains, MEM_SCANS_PER_DOMAIN, MEM_SEED);
            let expected = stream.len();
            let alloc_before = retrodns_core::metrics::allocated_bytes_total();
            let mut builder = retrodns_store::StoreBuilder::with_capacity(expected, domains);
            let mut row_bytes = 0usize;
            for o in stream {
                row_bytes += retrodns_store::rows_footprint_bytes(std::iter::once(&o));
                builder
                    .push(&o)
                    .expect("synthetic dates fit the default-epoch day range");
            }
            let store = builder.finish();
            let build_alloc_bytes =
                retrodns_core::metrics::allocated_bytes_total().saturating_sub(alloc_before);
            let observations = store.len();
            let store_bytes = store.footprint_bytes();
            MemPoint {
                observations,
                domains,
                store_bytes,
                row_bytes,
                bytes_per_observation: store_bytes as f64 / observations.max(1) as f64,
                row_bytes_per_observation: row_bytes as f64 / observations.max(1) as f64,
                reduction: row_bytes as f64 / store_bytes.max(1) as f64,
                build_alloc_bytes,
                peak_rss_bytes: retrodns_core::metrics::peak_rss_kb().unwrap_or(0) * 1024,
                chunks: store.n_chunks(),
                git_rev: rev.clone(),
            }
        })
        .collect()
}

/// World seed of the streaming sweep (fixed: cells are comparable
/// across runs and machines).
pub const STREAM_SEED: u64 = 0x57AE;

/// Measure incremental week-at-a-time ingestion against full batch
/// re-analysis on a quick-scale world.
///
/// For each requested week count `n` the sweep truncates the world's
/// observation history to its first `n` scan-weeks, primes an
/// [`IncrementalAnalyzer`](retrodns_core::IncrementalAnalyzer) with
/// weeks `0..n-1` and checkpoints it once, then times (best of `reps`,
/// priming excluded — each rep clones the primed analyzer and copies
/// its checkpoint directory outside the timer, so the timed save stays
/// incremental):
///
/// * ingesting the final week into the primed analyzer and
///   checkpointing it, and
/// * a full batch [`Pipeline::run`] over all `n` weeks,
///
/// plus one untimed-rep full stream, checkpointed every week, to report
/// the mean per-week cost. Checkpoints go to a scratch directory under
/// the system temp dir, removed afterwards.
/// The ratio of the two timed figures is the `speedup` the CI gate
/// (`--min-stream-speedup`) checks: how much cheaper staying
/// incremental is than re-analyzing history every week.
pub fn bench_stream(week_counts: &[usize], workers: usize, reps: usize) -> Vec<StreamPoint> {
    use retrodns_core::pipeline::AnalystInputs;
    use retrodns_core::{CheckpointStore, IncrementalAnalyzer};
    use retrodns_store::RowsView;

    let world = retrodns_sim::World::build(retrodns_sim::SimConfig::small(STREAM_SEED));
    let dataset = world.scan();
    let observations = world.observations(&dataset);
    let scan_dates = world.config.window.scan_dates();
    let rev = git_rev();

    week_counts
        .iter()
        .map(|&weeks| {
            let cutoff = scan_dates
                .get(..weeks)
                .and_then(|head| head.last().copied());
            let history: Vec<_> = observations
                .iter()
                .filter(|o| cutoff.is_none_or(|c| o.date <= c))
                .cloned()
                .collect();
            let view = RowsView(&history);
            let inputs = AnalystInputs {
                observations: &view,
                asdb: &world.geo.asdb,
                certs: &world.certs,
                pdns: &world.pdns,
                crtsh: &world.crtsh,
                dnssec: Some(&world.dnssec),
                source_faults: None,
            };
            let config = PipelineConfig {
                window: world.config.window.clone(),
                workers,
                ..PipelineConfig::default()
            };

            // Per-date slices, ascending — the stream.
            let mut by_date: std::collections::BTreeMap<_, Vec<_>> = Default::default();
            for o in &history {
                by_date
                    .entry(o.date)
                    .or_insert_with(Vec::new)
                    .push(o.clone());
            }
            let slices: Vec<Vec<_>> = by_date.into_values().collect();
            let (last_week, prefix) = slices.split_last().expect("at least one week");

            let scratch = std::env::temp_dir().join(format!(
                "retrodns-bench-stream-{}-{weeks}",
                std::process::id()
            ));
            let open = |name: &str| {
                let dir = scratch.join(name);
                let _ = std::fs::remove_dir_all(&dir);
                CheckpointStore::open(dir).expect("open bench checkpoint dir")
            };

            // One full stream, timed per week, for the mean figure.
            let full = open("full");
            let mut streamer = IncrementalAnalyzer::new(config.clone());
            let t = Instant::now();
            for week in &slices {
                streamer.ingest_week(week, &inputs);
                streamer.checkpoint(&full).expect("bench checkpoint write");
            }
            let mean_week_ms = t.elapsed().as_secs_f64() * 1e3 / slices.len() as f64;

            // Prime with everything but the last week and checkpoint it,
            // once; each timed rep restarts from a clone of the primed
            // analyzer and a copy of its checkpoint.
            let mut primed = IncrementalAnalyzer::new(config.clone());
            for week in prefix {
                primed.ingest_week(week, &inputs);
            }
            let primed_store = open("primed");
            primed
                .checkpoint(&primed_store)
                .expect("bench checkpoint write");
            let mut week_ingest_ms = f64::INFINITY;
            for _ in 0..reps.max(1) {
                // Untimed: rep setup.
                let mut analyzer = primed.clone();
                let live = open("live");
                copy_dir(primed_store.dir(), live.dir()).expect("copy primed checkpoint");
                let t = Instant::now();
                std::hint::black_box(analyzer.ingest_week(last_week, &inputs));
                analyzer.checkpoint(&live).expect("bench checkpoint write");
                week_ingest_ms = week_ingest_ms.min(t.elapsed().as_secs_f64() * 1e3);
            }
            let _ = std::fs::remove_dir_all(&scratch);

            let pipeline = Pipeline::new(config);
            let full_reanalysis_ms = time_ms(reps, || pipeline.run(&inputs));

            StreamPoint {
                weeks: slices.len(),
                workers,
                observations: history.len(),
                week_observations: last_week.len(),
                week_ingest_ms,
                mean_week_ms,
                full_reanalysis_ms,
                speedup: if week_ingest_ms > 0.0 {
                    full_reanalysis_ms / week_ingest_ms
                } else {
                    0.0
                },
                git_rev: rev.clone(),
            }
        })
        .collect()
}

/// Recursively copy the directory `from` into `to`.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Scans per synthetic domain in the matrix streams: eight weekly
/// observations is enough history for deployments and period splits
/// without making the million-domain cell take minutes to generate.
const MATRIX_SCANS_PER_DOMAIN: usize = 8;

/// Time the map build across a workers × domain-count grid.
///
/// Each cell generates a deterministic synthetic observation stream
/// ([`retrodns_sim::synthetic_observations`], seed fixed per domain
/// count so every worker count sees the *same* stream), then times the
/// reference serial build against the shard-local arena build. The
/// serial measurement is shared across the cells of one domain count —
/// it does not depend on `workers`.
pub fn bench_map_matrix(
    worker_counts: &[usize],
    domain_counts: &[usize],
    reps: usize,
) -> Vec<MatrixCell> {
    let builder = MapBuilder::new(StudyWindow::default());
    let mut cells = Vec::with_capacity(worker_counts.len() * domain_counts.len());
    for &domains in domain_counts {
        let stream =
            retrodns_sim::synthetic_observations(domains, MATRIX_SCANS_PER_DOMAIN, 0x5CA1E);
        let serial_ms = time_ms(reps, || builder.build(&stream));
        let maps = builder.build(&stream).len();
        for &workers in worker_counts {
            let sharded_ms = time_ms(reps, || builder.build_sharded_stats(&stream, workers));
            cells.push(MatrixCell {
                workers,
                domains,
                observations: stream.len(),
                maps,
                serial_ms,
                sharded_ms,
                speedup: if sharded_ms > 0.0 {
                    serial_ms / sharded_ms
                } else {
                    0.0
                },
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn bench_report_shape_and_json() {
        let bundle = Bundle::build(Scale::Quick, 0xBE11);
        let report = bench_pipeline(&bundle, 2, 1);
        assert_eq!(report.stages.len(), 4);
        assert!(report.stages.iter().all(|s| s.serial_ms >= 0.0));
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        for key in [
            "map_build",
            "classify",
            "inspect",
            "end_to_end",
            "ops_per_sec",
            "metered_ms",
            "metrics_overhead_pct",
            "trajectory",
        ] {
            assert!(json.contains(key), "json missing {key}: {json}");
        }
        let back: PipelineBenchReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.stages.len(), 4);
        assert!(back.metered_ms > 0.0);
    }

    /// Reports written before the metrics fields existed still load (the
    /// trajectory append path reads the previous file).
    #[test]
    fn legacy_report_json_still_deserializes() {
        let legacy = r#"{
            "workers": 2, "domains": 10, "observations": 100, "reps": 1,
            "stages": [],
            "trajectory": [{
                "workers": 4, "observations": 100,
                "e2e_serial_ms": 1.0, "e2e_parallel_ms": 1.0,
                "metrics_overhead_pct": 0.0
            }]
        }"#;
        let back: PipelineBenchReport = serde_json::from_str(legacy).expect("legacy loads");
        assert_eq!(back.metered_ms, 0.0);
        assert!(back.matrix.is_empty());
        assert!(back.stream.is_empty());
        assert_eq!(back.git_rev, "");
        // Pre-existing trajectory points load with empty attribution.
        assert_eq!(back.trajectory.len(), 1);
        assert_eq!(back.trajectory[0].git_rev, "");
        assert_eq!(back.trajectory[0].domains, 0);
    }

    /// A report without stage measurements prints no stage table.
    #[test]
    fn summary_omits_the_unmeasured_stage_table() {
        let summary = PipelineBenchReport::default().summary();
        assert!(!summary.contains("Pipeline stage benchmark"), "{summary}");
        assert!(!summary.contains("algorithm speedup"), "{summary}");
        assert!(!summary.contains("metrics overhead"), "{summary}");
    }

    /// The overhead estimate never goes negative; when noise wins, the
    /// clamp fires and the raw value plus flag record it.
    #[test]
    fn overhead_is_clamped_and_flagged() {
        let bundle = Bundle::build(Scale::Quick, 0xBE12);
        let report = bench_pipeline(&bundle, 2, 1);
        assert!(report.metrics_overhead_pct >= 0.0);
        if report.metrics_overhead_noise {
            assert!(report.metrics_overhead_raw_pct < 0.0);
            assert_eq!(report.metrics_overhead_pct, 0.0);
        } else {
            assert_eq!(report.metrics_overhead_pct, report.metrics_overhead_raw_pct);
        }
        assert!(!report.git_rev.is_empty());
    }

    /// The memory sweep reports consistent unit costs and a columnar
    /// footprint well under the row baseline even at small scale.
    #[test]
    fn mem_sweep_shapes_and_shrinks() {
        let points = bench_mem(&[10_000, 50_000]);
        assert_eq!(points.len(), 2);
        for p in &points {
            // Streams append transient/unrouted extras past the target.
            assert!(p.observations >= p.domains * MEM_SCANS_PER_DOMAIN);
            assert!(p.store_bytes > 0 && p.row_bytes > p.store_bytes);
            assert!(
                (p.bytes_per_observation - p.store_bytes as f64 / p.observations as f64).abs()
                    < 1e-9
            );
            assert!(
                p.reduction >= 3.0,
                "columnar store only {:.2}x smaller than rows at {} observations",
                p.reduction,
                p.observations
            );
            assert!(p.chunks >= 1);
        }
        // Row baseline must match the exact helper over a materialized
        // vector of the same stream.
        let rows =
            retrodns_sim::synthetic_observations(points[0].domains, MEM_SCANS_PER_DOMAIN, MEM_SEED);
        assert_eq!(
            points[0].row_bytes,
            retrodns_store::rows_footprint_bytes(&rows)
        );
    }

    /// The streaming sweep reports coherent shapes: the timed week is
    /// part of the history, both paths were actually measured, and the
    /// speedup is the ratio of the two.
    #[test]
    fn stream_sweep_shapes_are_coherent() {
        let points = bench_stream(&[3, 5], 2, 1);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.workers, 2);
            assert!(p.week_observations > 0 && p.week_observations < p.observations);
            assert!(p.week_ingest_ms > 0.0 && p.full_reanalysis_ms > 0.0);
            assert!(p.mean_week_ms > 0.0);
            assert!((p.speedup - p.full_reanalysis_ms / p.week_ingest_ms).abs() < 1e-9);
        }
        assert_eq!(points[0].weeks, 3);
        assert_eq!(points[1].weeks, 5);
        assert!(points[1].observations > points[0].observations);
    }

    /// The matrix covers the full workers × domains grid, shares one
    /// serial baseline per domain count, and matches the stream sizes.
    #[test]
    fn map_matrix_covers_grid() {
        let cells = bench_map_matrix(&[1, 2], &[50, 200], 1);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(c.observations >= c.domains * MATRIX_SCANS_PER_DOMAIN);
            assert!(c.maps > 0);
            assert!(c.serial_ms >= 0.0 && c.sharded_ms >= 0.0);
        }
        assert_eq!(
            cells[0].serial_ms, cells[1].serial_ms,
            "serial baseline is shared across worker counts"
        );
        assert!(
            cells
                .iter()
                .map(|c| (c.workers, c.domains))
                .collect::<Vec<_>>()
                == vec![(1, 50), (2, 50), (1, 200), (2, 200)]
        );
    }
}
