//! `batch`: repeated full five-stage analyses of the loaded world, what
//! `retrodns analyze` does.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use retrodns_core::inspect::t1_star_pass;
use retrodns_core::pipeline::quarantine;
use retrodns_core::shortlist::shortlist;
use retrodns_core::{pivot, score_detection, MapBuilder, Pattern, Pipeline};
use retrodns_core::{AnalystInputs, Report};
use retrodns_scan::DomainObservation;
use retrodns_serve::JobData;

use crate::spans::Tracer;
use crate::stats::{median, ms, peak_rss_mb, quantile};
use crate::world::{week_count, Scale};
use crate::{setup_samples, tamper, Ctx, Outcome};

/// Tail percentile of the per-op analysis time (needs at least 100 ops
/// for ten samples beyond it).
const TAIL: f64 = 0.90;
/// Analyses timed even if `--seconds` runs out first.
const MIN_OPS: usize = 3;
/// Full analyses, untraced chains and traced chains in a traced run.
const TRACED_OPS: u64 = 8;
/// Single-worker map builds in a traced run.
const W1_BUILDS: usize = 3;

/// Detection scores on seed 7 at full scale, as `retrodns analyze
/// --score` prints them (two decimals).
const SEED7_SCORES: [(&str, &str); 4] = [
    ("hijacked precision", "1.00"),
    ("hijacked recall", "0.88"),
    ("targeted precision", "0.93"),
    ("targeted recall", "0.72"),
];

/// Floors every full-scale seed must meet. Over 40 seeds (0–25, 31, 42,
/// 99, 100, 123, 1000, 1009, 4242, 12345, 65535, 99999, 10^6, 2^32 − 1,
/// 2^64 − 1)
/// hijacked precision was always 1.00, hijacked recall 0.71–0.93 and
/// targeted precision 0.89–1.00.
const MIN_HIJACKED_PRECISION: f64 = 0.9;
const MIN_HIJACKED_RECALL: f64 = 0.6;
const MIN_TARGETED_PRECISION: f64 = 0.8;

fn load(ctx: &Ctx) -> Result<(JobData, Vec<DomainObservation>), String> {
    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    Ok((data, observations))
}

/// One set-up: load the data directory and annotate it. Returns seconds.
pub fn setup_sample(ctx: &Ctx) -> Result<f64, String> {
    let t = Instant::now();
    black_box(load(ctx)?);
    Ok(t.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = setup_samples(ctx, "batch-setup")?;
    let t = Instant::now();
    let (data, observations) = load(ctx)?;
    setups.push(t.elapsed().as_secs_f64());
    let inputs = data.inputs(&observations);
    let pipeline = Pipeline::new(ctx.pipeline_config());

    // Warm-up op, dropped from the timings; its report is the reference
    // every later op must reproduce byte for byte.
    let first = pipeline.run(&inputs);
    let mut reference = serde_json::to_string(&first).expect("report serializes");
    if ctx.tamper {
        tamper(&mut reference);
    }

    let mut out = Outcome {
        observations: observations.len(),
        weeks: week_count(&observations),
        workers: ctx.nproc,
        ..Outcome::default()
    };
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || times.len() < MIN_OPS {
        let t = Instant::now();
        let report = pipeline.run(black_box(&inputs));
        let json = serde_json::to_string(&report).expect("report serializes");
        times.push(ms(t.elapsed()));
        out.attempted += 1;
        if black_box(json) != reference {
            out.failed += 1;
        }
    }
    let peak = peak_rss_mb();
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} reports differ from the first")
    });
    score(ctx, &first, &mut out)?;

    let p50 = median(&times);
    let tail = quantile(&times, TAIL);
    let obs_per_s = observations.len() as f64 / (p50 / 1e3);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_tail_ms", tail, "ms");
    out.metric("obs_per_s", obs_per_s, "1/s");
    out.detail("analysis_p50_ms", p50, "ms");
    out.detail("analysis_p90_ms", tail, "ms");
    out.detail("analyses", times.len() as f64, "count");
    Ok(out)
}

/// Score the report against the planted ground truth.
fn score(ctx: &Ctx, report: &Report, out: &mut Outcome) -> Result<(), String> {
    let truth = ctx.world.truth()?;
    let h = score_detection(&report.hijacked_domains(), &truth.hijacked);
    let t = score_detection(&report.targeted_domains(), &truth.targeted);
    out.detail("hijacked_precision", h.precision(), "ratio");
    out.detail("hijacked_recall", h.recall(), "ratio");
    out.detail("targeted_precision", t.precision(), "ratio");
    out.detail("targeted_recall", t.recall(), "ratio");
    if ctx.scale != Scale::Full {
        return Ok(());
    }
    out.check(h.precision() >= MIN_HIJACKED_PRECISION, || {
        format!(
            "hijacked precision {:.2} below {MIN_HIJACKED_PRECISION}",
            h.precision()
        )
    });
    out.check(t.precision() >= MIN_TARGETED_PRECISION, || {
        format!(
            "targeted precision {:.2} below {MIN_TARGETED_PRECISION}",
            t.precision()
        )
    });
    out.check(h.recall() >= MIN_HIJACKED_RECALL, || {
        format!(
            "hijacked recall {:.2} below {MIN_HIJACKED_RECALL}",
            h.recall()
        )
    });
    if ctx.seed == 7 {
        let got = [h.precision(), h.recall(), t.precision(), t.recall()];
        for ((what, want), got) in SEED7_SCORES.iter().zip(got) {
            let got = format!("{got:.2}");
            out.check(got == *want, || {
                format!("seed 7 {what} is {got}, pinned {want}")
            });
        }
    }
    Ok(())
}

/// Counts one pass of the stage chain saw.
#[derive(Default)]
struct Chain {
    kept: usize,
    maps: usize,
    arena_bytes: usize,
    busy_frac: f64,
    transient_maps: usize,
    candidates: usize,
    confirmed: usize,
    pivot_found: usize,
    report: String,
}

/// The five stages called one by one through their public functions,
/// each in a span, then the report serialized. The chain skips what
/// only `Pipeline::run` does between stages (funnel accounting, verdict
/// dedup, stage metrics), which is why coverage is below one.
fn chain(
    tracer: &mut Tracer,
    op: u64,
    pipeline: &Pipeline,
    data: &JobData,
    inputs: &AnalystInputs,
    observations: &[DomainObservation],
    report: &Report,
) -> Chain {
    let cfg = &pipeline.config;
    let root = tracer.open("batch.op", op);
    let (kept, _) = tracer.span("quarantine", op, || {
        quarantine(observations, &cfg.window, &data.certs)
    });
    let (maps, shards) = tracer.span("map_build", op, || {
        MapBuilder::new(cfg.window.clone()).build_sharded_stats(&kept, cfg.workers)
    });
    let patterns = tracer.span("classify", op, || pipeline.classify_maps(&maps));
    let listed = tracer.span("shortlist", op, || {
        shortlist(&maps, &patterns, &data.asdb, &data.certs, &cfg.shortlist)
    });
    let inspected = tracer.span("inspect", op, || {
        pipeline.inspect_candidates(&listed.candidates, inputs)
    });
    let confirmed_ips: BTreeSet<_> = inspected
        .hijacked
        .iter()
        .flat_map(|h| h.attacker_ips.iter().copied())
        .collect();
    let starred = tracer.span("t1_star", op, || {
        t1_star_pass(&inspected.inconclusive, &confirmed_ips)
    });
    let mut hijacked = inspected.hijacked.clone();
    hijacked.extend(starred);
    let pivoted = tracer.span("pivot", op, || {
        pivot::pivot(&hijacked, &data.pdns, &data.crtsh, &cfg.pivot)
    });
    let json = tracer.span("serialize", op, || {
        serde_json::to_string(report).expect("report serializes")
    });
    let slowest = shards.iter().map(|s| s.wall).max().unwrap_or_default();
    let busy: f64 = shards.iter().map(|s| s.wall.as_secs_f64()).sum();
    let chain = Chain {
        kept: kept.len(),
        maps: maps.len(),
        arena_bytes: shards.iter().map(|s| s.arena_bytes).sum(),
        busy_frac: busy / (cfg.workers as f64 * slowest.as_secs_f64()),
        transient_maps: patterns
            .iter()
            .filter(|p| matches!(p, Pattern::Transient { .. }))
            .count(),
        candidates: listed.candidates.len(),
        confirmed: inspected.hijacked.len() + inspected.targeted.len(),
        pivot_found: pivoted.len(),
        report: json,
    };
    // Freeing the stage outputs is part of an analysis: inside the op,
    // as it is inside `Pipeline::run`.
    drop((kept, maps, patterns, listed, inspected, hijacked, pivoted));
    tracer.close(root);
    chain
}

/// Per-layer figures of the batch chain: data loading, annotation, then
/// each stage in a span. Full analyses, untraced chains and traced
/// chains alternate, so host drift falls on all three alike.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        workers: ctx.nproc,
        ..Outcome::default()
    };
    let data = tracer.span("data.load", 0, || JobData::load(&ctx.world.dir))?;
    let observations = tracer.span("annotate", 0, || data.observations());
    out.observations = observations.len();
    out.metric("data.load_ms", tracer.durations("data.load")[0], "ms");
    out.metric("data.bytes", ctx.world.input_bytes() as f64, "bytes");
    out.metric("annotate.ms", tracer.durations("annotate")[0], "ms");
    out.metric("annotate.obs", observations.len() as f64, "count");

    let pipeline = Pipeline::new(ctx.pipeline_config());
    let inputs = data.inputs(&observations);
    let report = pipeline.run(&inputs);
    let reference = serde_json::to_string(&report).expect("report serializes");
    let (mut full, mut bare) = (Vec::new(), Vec::new());
    let mut last = Chain::default();
    let mut busy = Vec::new();
    for op in 0..TRACED_OPS {
        let t = Instant::now();
        let json = serde_json::to_string(&pipeline.run(black_box(&inputs))).expect("serializes");
        full.push(ms(t.elapsed()));
        out.attempted += 1;
        if json != reference {
            out.failed += 1;
        }
        let t = Instant::now();
        black_box(chain(
            &mut Tracer::disabled(),
            op,
            &pipeline,
            &data,
            &inputs,
            &observations,
            &report,
        ));
        bare.push(ms(t.elapsed()));
        last = chain(
            tracer,
            op,
            &pipeline,
            &data,
            &inputs,
            &observations,
            &report,
        );
        busy.push(last.busy_frac);
        out.check(last.report == reference, || {
            "traced serialization differs".into()
        });
    }
    let (kept, _) = quarantine(&observations, &pipeline.config.window, &data.certs);
    let mut w1 = Vec::new();
    for _ in 0..W1_BUILDS {
        let t = Instant::now();
        black_box(MapBuilder::new(pipeline.config.window.clone()).build_sharded_stats(&kept, 1));
        w1.push(ms(t.elapsed()));
    }

    let obs = observations.len() as f64;
    let self_ms = |name: &str| median(&tracer.self_times(name));
    out.metric("quarantine.ms", self_ms("quarantine"), "ms");
    out.metric(
        "quarantine.ns_per_obs",
        self_ms("quarantine") * 1e6 / obs,
        "ns",
    );
    out.metric("quarantine.kept", last.kept as f64, "count");
    out.metric("map_build.ms", self_ms("map_build"), "ms");
    out.metric(
        "map_build.ns_per_obs",
        self_ms("map_build") * 1e6 / obs,
        "ns",
    );
    out.metric("map_build.maps", last.maps as f64, "count");
    out.metric("map_build.arena_bytes", last.arena_bytes as f64, "bytes");
    out.metric("map_build.busy_frac", median(&busy), "ratio");
    out.metric("map_build.w1_ms", median(&w1), "ms");
    out.metric("classify.ms", self_ms("classify"), "ms");
    out.metric("classify.maps", last.maps as f64, "count");
    out.metric("shortlist.ms", self_ms("shortlist"), "ms");
    out.metric("shortlist.candidates", last.candidates as f64, "count");
    out.metric(
        "shortlist.keep_frac",
        last.candidates as f64 / last.transient_maps.max(1) as f64,
        "ratio",
    );
    out.metric("inspect.ms", self_ms("inspect"), "ms");
    out.metric("inspect.candidates", last.candidates as f64, "count");
    out.metric(
        "inspect.confirm_frac",
        last.confirmed as f64 / last.candidates.max(1) as f64,
        "ratio",
    );
    out.metric("t1_star.ms", self_ms("t1_star"), "ms");
    out.metric("pivot.ms", self_ms("pivot"), "ms");
    out.metric("pivot.found", last.pivot_found as f64, "count");
    out.metric("report.serialize_ms", self_ms("serialize"), "ms");
    out.metric("report.bytes", last.report.len() as f64, "bytes");

    let full_p50 = median(&full);
    let stages = median(&tracer.children_total("batch.op"));
    out.metric("trace.batch_coverage", stages / full_p50, "ratio");
    out.metric(
        "trace.overhead_ms",
        median(&tracer.durations("batch.op")) - median(&bare),
        "ms",
    );
    out.detail("trace.untraced_analysis_p50_ms", full_p50, "ms");
    out.detail("trace.untraced_chain_p50_ms", median(&bare), "ms");
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} untraced reports differ"));
    Ok(out)
}
