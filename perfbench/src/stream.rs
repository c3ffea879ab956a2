//! `stream`: resume a week-at-a-time analysis from a half-way checkpoint,
//! then ingest and checkpoint one week per op, as `analyze --stream
//! --checkpoint-dir` and serve jobs do. A run streams the second half of
//! the study once, or stops early when `--seconds` runs out, so the set
//! of weeks measured stays the same from run to run.

use std::hint::black_box;
use std::path::Path;
use std::time::{Instant, UNIX_EPOCH};

use retrodns_core::{CheckpointStore, IncrementalAnalyzer, Pipeline, PipelineConfig};
use retrodns_scan::DomainObservation;
use retrodns_serve::JobData;

use crate::spans::Tracer;
use crate::stats::{median, ms, peak_rss_mb, quantile};
use crate::world::{first_weeks, week_slices, Scale};
use crate::{child_step, setup_samples, tamper, Ctx, Outcome};

/// Tail percentile of the per-week time.
const TAIL: f64 = 0.90;
/// Weeks timed even if `--seconds` runs out first.
const MIN_OPS: usize = 3;
/// Weeks a traced run ingests after resuming (a fixed count, so the
/// bytes each checkpoint writes repeat exactly between runs).
const TRACED_WEEKS: usize = 12;

/// Weeks of the study this scale streams.
fn week_limit(ctx: &Ctx, total: usize) -> usize {
    match ctx.scale {
        Scale::Full => total,
        Scale::Tiny => total.min(20),
    }
}

fn io(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(io(to))?;
    for entry in std::fs::read_dir(from).map_err(io(from))? {
        let entry = entry.map_err(io(from))?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(io(from))?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(io(&target))?;
        }
    }
    Ok(())
}

/// Untimed preparation, run in a child process: ingest the first half of
/// the weeks and write one checkpoint into `<work>/stream-prep`. Returns
/// the number of weeks the scale streams; the first half of them are in
/// the checkpoint.
pub fn prepare(ctx: &Ctx) -> Result<usize, String> {
    let cfg = &ctx.pipeline_config();
    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    let inputs = data.inputs(&observations);
    let weeks = week_slices(&observations);
    let limit = week_limit(ctx, weeks.len());
    let half = limit / 2;
    let dir = ctx.work.join("stream-prep");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).map_err(io(&dir))?;
    let mut analyzer = IncrementalAnalyzer::new(cfg.clone());
    for week in &weeks[..half] {
        analyzer.ingest_week(week, &inputs);
    }
    analyzer.checkpoint(&store).map_err(io(&dir))?;
    Ok(limit)
}

/// Weeks streamed by the prepared checkpoint's scale, and where the
/// checkpoint leaves off.
fn prepared(ctx: &Ctx) -> Result<(usize, usize), String> {
    let limit = child_step(ctx, "stream-prep")? as usize;
    Ok((limit / 2, limit))
}

/// One set-up: load, annotate and resume from the prepared checkpoint.
pub fn setup_sample(ctx: &Ctx) -> Result<f64, String> {
    let store = fresh_live(ctx)?;
    let t = Instant::now();
    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    let analyzer = resume(&ctx.pipeline_config(), &store)?;
    let setup = t.elapsed().as_secs_f64();
    black_box((data, observations, analyzer));
    Ok(setup)
}

/// Copy the prepared checkpoint into a fresh live directory (untimed).
fn fresh_live(ctx: &Ctx) -> Result<CheckpointStore, String> {
    let live = ctx.work.join("stream-live");
    let _ = std::fs::remove_dir_all(&live);
    copy_dir(&ctx.work.join("stream-prep"), &live)?;
    CheckpointStore::open(&live).map_err(io(&live))
}

fn resume(cfg: &PipelineConfig, store: &CheckpointStore) -> Result<IncrementalAnalyzer, String> {
    IncrementalAnalyzer::resume(cfg.clone(), store)
        .ok_or_else(|| format!("no valid checkpoint to resume in {}", store.dir().display()))
}

/// The streamed report must equal a batch run over the same weeks.
fn check_equivalence(
    ctx: &Ctx,
    cfg: &PipelineConfig,
    data: &JobData,
    observations: &[DomainObservation],
    analyzer: &IncrementalAnalyzer,
    out: &mut Outcome,
) {
    let weeks = analyzer.weeks() as usize;
    let prefix = first_weeks(observations, weeks);
    let expected = Pipeline::new(cfg.clone()).run(&data.inputs(&prefix));
    let expected = serde_json::to_string_pretty(&expected).expect("report serializes");
    let mut streamed = serde_json::to_string_pretty(analyzer.report()).expect("report serializes");
    if ctx.tamper {
        tamper(&mut streamed);
    }
    out.check(streamed == expected, || {
        format!("streamed report after {weeks} weeks differs from Pipeline::run over them")
    });
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ctx.pipeline_config();
    let (half, limit) = prepared(ctx)?;
    let mut setups = setup_samples(ctx, "stream-setup")?;
    let store = fresh_live(ctx)?;
    let t = Instant::now();
    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    let mut analyzer = resume(&cfg, &store)?;
    setups.push(t.elapsed().as_secs_f64());
    let weeks = week_slices(&observations);
    let inputs = data.inputs(&observations);

    let mut out = Outcome {
        observations: observations.len(),
        weeks: limit,
        workers: ctx.nproc,
        ..Outcome::default()
    };
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    for (i, week) in weeks.iter().enumerate().take(limit).skip(half) {
        if start.elapsed() >= ctx.seconds && times.len() >= MIN_OPS {
            break;
        }
        let t = Instant::now();
        analyzer.ingest_week(week, &inputs);
        let saved = analyzer.checkpoint(&store);
        let dt = ms(t.elapsed());
        out.attempted += 1;
        if let Err(e) = saved {
            out.failed += 1;
            eprintln!("checkpoint after week {}: {e}", i + 1);
        }
        // The first week after resume is the warm-up.
        if out.attempted > 1 {
            times.push(dt);
            rates.push(week.len() as f64 / (dt / 1e3));
        }
    }
    let peak = peak_rss_mb();
    check_equivalence(ctx, &cfg, &data, &observations, &analyzer, &mut out);
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} week checkpoints failed")
    });

    let p50 = median(&times);
    let tail = quantile(&times, TAIL);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_tail_ms", tail, "ms");
    out.metric("obs_per_s", median(&rates), "1/s");
    out.detail("week_p50_ms", p50, "ms");
    out.detail("week_p90_ms", tail, "ms");
    out.detail("weeks_timed", times.len() as f64, "count");
    Ok(out)
}

/// Bytes of every file under `dir` whose mtime is not the epoch, then
/// reset every mtime to the epoch: a checkpoint's writes are exactly
/// the files it touched between two calls.
fn written_since_reset(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            total += written_since_reset(&path);
            continue;
        }
        if meta.modified().is_ok_and(|m| m != UNIX_EPOCH) {
            total += meta.len();
        }
        if let Ok(f) = std::fs::File::options().write(true).open(&path) {
            let _ = f.set_modified(UNIX_EPOCH);
        }
    }
    total
}

/// Per-layer figures of the stream: resume, then a fixed number of
/// weeks with `ingest_week` and `checkpoint` each in a span.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let cfg = ctx.pipeline_config();
    let (half, limit) = prepared(ctx)?;
    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    let weeks = week_slices(&observations);
    let inputs = data.inputs(&observations);
    let store = fresh_live(ctx)?;
    let mut analyzer = tracer.span("resume", 0, || resume(&cfg, &store))?;
    written_since_reset(store.dir());

    let mut out = Outcome {
        weeks: limit,
        workers: ctx.nproc,
        ..Outcome::default()
    };
    let (mut obs, mut changes, mut bytes) = (0usize, 0usize, 0u64);
    let count = TRACED_WEEKS.min(limit - half);
    for (op, week) in weeks[half..half + count].iter().enumerate() {
        let op = op as u64;
        let delta = tracer.span("ingest", op, || analyzer.ingest_week(week, &inputs));
        let saved = tracer.span("checkpoint", op, || analyzer.checkpoint(&store));
        out.attempted += 1;
        if saved.is_err() {
            out.failed += 1;
        }
        bytes += written_since_reset(store.dir());
        obs += week.len();
        changes += delta.hijacked_upserts.len()
            + delta.hijacked_removed.len()
            + delta.targeted_upserts.len()
            + delta.targeted_removed.len();
    }
    out.observations = obs;
    check_equivalence(ctx, &cfg, &data, &observations, &analyzer, &mut out);
    out.check(out.failed == 0, || "a traced checkpoint failed".into());

    let per_week = |n: f64| n / count.max(1) as f64;
    out.metric("resume.ms", tracer.durations("resume")[0], "ms");
    out.metric("ingest.ms", median(&tracer.durations("ingest")), "ms");
    out.metric("ingest.obs", per_week(obs as f64), "count");
    out.metric("delta.changes", per_week(changes as f64), "count");
    out.metric(
        "checkpoint.ms",
        median(&tracer.durations("checkpoint")),
        "ms",
    );
    out.metric("checkpoint.bytes_written", per_week(bytes as f64), "bytes");
    out.metric(
        "checkpoint.bytes_per_obs",
        bytes as f64 / obs.max(1) as f64,
        "bytes",
    );
    Ok(out)
}
