//! Streaming ↔ batch equivalence: ingesting N scan-weeks one at a time
//! through [`IncrementalAnalyzer`] must yield a report byte-identical
//! (as JSON) to batch-analyzing all N weeks at once — at any worker
//! count, with or without killing and resuming the analyzer from
//! checkpoints between weeks — and the per-week [`WeekDelta`]s must
//! compose back into the final report without losing or duplicating a
//! verdict change. A resumed analyzer emits the same deltas as an
//! uninterrupted one, including across empty or fully quarantined
//! batches and under corroboration-source faults.

mod common;

use common::{world_up_to_week, InputsBuilder};
use proptest::prelude::*;
use retrodns::core::checkpoint::CheckpointStore;
use retrodns::core::incremental::{week_batches, IncrementalAnalyzer, WeekDelta};
use retrodns::core::pipeline::{AnalystInputs, Pipeline, PipelineConfig, Report};
use retrodns::scan::DomainObservation;
use retrodns::sim::{SourceFaultKind, SourceFaultPlan, World};
use retrodns::store::RowsView;
use retrodns::types::Day;

/// Worker counts the byte-identity contract is pinned at.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn config_for(world: &World, workers: usize) -> PipelineConfig {
    PipelineConfig {
        window: world.config.window.clone(),
        workers,
        ..PipelineConfig::default()
    }
}

fn report_json(report: &Report) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Stream every week through one analyzer, returning the final report
/// and the per-week deltas.
fn stream_weeks(
    world: &World,
    observations: &[DomainObservation],
    workers: usize,
) -> (Report, Vec<WeekDelta>) {
    let view = RowsView(observations);
    let inputs = InputsBuilder::new(world, &view).build();
    let (report, deltas, _) = stream_batches(
        &inputs,
        &config_for(world, workers),
        &week_batches(observations),
    );
    (report, deltas)
}

/// Feed `batches` through one uninterrupted analyzer. Returns the final
/// report, the per-batch deltas, and `last_date()` after each batch.
fn stream_batches(
    inputs: &AnalystInputs,
    config: &PipelineConfig,
    batches: &[Vec<DomainObservation>],
) -> (Report, Vec<WeekDelta>, Vec<Option<Day>>) {
    let mut analyzer = IncrementalAnalyzer::new(config.clone());
    let mut last_dates = Vec::new();
    let deltas = batches
        .iter()
        .map(|batch| {
            let delta = analyzer.ingest_week(batch, inputs);
            last_dates.push(analyzer.last_date());
            delta
        })
        .collect();
    (analyzer.report().clone(), deltas, last_dates)
}

/// Feed `batches` through a brand-new analyzer per batch, each resumed
/// from the checkpoint its predecessor wrote into a directory named by
/// `tag`. After every resume the analyzer must hold exactly the batches
/// already ingested and the `last_date` the uninterrupted stream had
/// then (`last_dates`, as [`stream_batches`] returns them). Returns the
/// final resumed report and every batch's delta.
fn stream_resuming_every_batch(
    inputs: &AnalystInputs,
    config: &PipelineConfig,
    batches: &[Vec<DomainObservation>],
    last_dates: &[Option<Day>],
    tag: &str,
) -> (Report, Vec<WeekDelta>) {
    let dir = std::env::temp_dir().join(format!("retrodns-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
    let mut deltas = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        // Everything the analyzer knows about batches 0..i must come
        // back from the checkpoint layer.
        let mut analyzer = IncrementalAnalyzer::resume(config.clone(), &store)
            .unwrap_or_else(|| IncrementalAnalyzer::new(config.clone()));
        assert_eq!(analyzer.weeks(), i as u32, "resume lost ingested weeks");
        let before = i.checked_sub(1).and_then(|p| last_dates[p]);
        assert_eq!(analyzer.last_date(), before, "resume moved last_date");
        deltas.push(analyzer.ingest_week(batch, inputs));
        analyzer.checkpoint(&store).expect("checkpoint write");
    }
    let finished =
        IncrementalAnalyzer::resume(config.clone(), &store).expect("final state resumes");
    assert_eq!(finished.weeks(), batches.len() as u32);
    assert_eq!(finished.last_date(), last_dates.last().copied().flatten());
    let _ = std::fs::remove_dir_all(&dir);
    (finished.report().clone(), deltas)
}

/// Each delta as compact JSON, so delta sequences compare byte for byte.
fn deltas_json(deltas: &[WeekDelta]) -> Vec<String> {
    deltas
        .iter()
        .map(|d| serde_json::to_string(d).expect("delta serializes"))
        .collect()
}

#[test]
fn streaming_equals_batch_on_the_quick_fixture() {
    // 130 weeks of the golden seed: the first attack campaign (days
    // 300–900) has concluded, so the pipeline issues real verdicts and
    // the stream produces real verdict deltas.
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let batch = Pipeline::new(config_for(&world, 1)).run(&inputs);
    let (streamed, deltas) = stream_weeks(&world, &observations, 1);
    assert_eq!(
        report_json(&streamed),
        report_json(&batch),
        "one-week-at-a-time ingestion diverged from the batch report"
    );
    assert!(
        !batch.hijacked.is_empty() || !batch.targeted.is_empty(),
        "fixture too short to exercise verdicts — move the truncation point"
    );
    // The verdicts appeared *during* the stream, not only at the end:
    // some mid-stream delta carries the first upsert.
    let first_change = deltas.iter().find(|d| d.has_verdict_changes());
    assert!(
        first_change.is_some(),
        "verdicts in the final report but no delta ever carried a change"
    );
}

#[test]
fn streaming_matches_batch_at_every_worker_count() {
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let baseline = report_json(&Pipeline::new(config_for(&world, 1)).run(&inputs));
    for workers in [1usize, 2, 8] {
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        assert_eq!(
            report_json(&batch),
            baseline,
            "batch report changed at workers={workers}"
        );
        let (streamed, _) = stream_weeks(&world, &observations, workers);
        assert_eq!(
            report_json(&streamed),
            baseline,
            "streamed report diverged at workers={workers}"
        );
    }
}

#[test]
fn kill_and_resume_between_every_week_is_invisible() {
    let (world, observations) = world_up_to_week(101, 130);
    let mut batches = week_batches(&observations);
    // Splice in an empty batch and a batch whose every row quarantine
    // rejects (a copy of the next week, unrouted): both count as weeks,
    // neither moves `last_date`, and a resume must not lose either.
    let unrouted: Vec<DomainObservation> = batches[6]
        .iter()
        .map(|o| DomainObservation {
            asn: None,
            ..o.clone()
        })
        .collect();
    batches.insert(6, unrouted);
    batches.insert(3, Vec::new());
    let all: Vec<DomainObservation> = batches.concat();
    let view = RowsView(&all);
    let inputs = InputsBuilder::new(&world, &view).build();
    let config = config_for(&world, 1);
    let batch = report_json(&Pipeline::new(config.clone()).run(&inputs));

    let (streamed, stream_deltas, last_dates) = stream_batches(&inputs, &config, &batches);
    assert_eq!(
        last_dates[3], last_dates[2],
        "an empty batch moved last_date"
    );
    assert_eq!(
        last_dates[7], last_dates[6],
        "a rejected batch moved last_date"
    );
    assert_eq!(report_json(&streamed), batch);
    let (resumed, resumed_deltas) =
        stream_resuming_every_batch(&inputs, &config, &batches, &last_dates, "stream-resume");
    assert_eq!(
        report_json(&resumed),
        batch,
        "kill-and-resume streaming diverged from the batch report"
    );
    assert_eq!(
        deltas_json(&resumed_deltas),
        deltas_json(&stream_deltas),
        "a resumed analyzer emitted a different delta than the uninterrupted stream"
    );
}

#[test]
fn resume_under_source_faults_is_invisible() {
    // Degraded verdicts are part of the report and of every delta, so a
    // resume must carry them across exactly like clean verdicts.
    let (world, observations) = world_up_to_week(101, 130);
    let faults = SourceFaultPlan {
        seed: 0x5EED,
        source: "pdns".to_string(),
        kind: SourceFaultKind::ErrorBurst,
        rate_pct: 30,
    };
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view)
        .source_faults(&faults)
        .build();
    let batches = week_batches(&observations);
    // Two workers, so every resume rebuilds the maps in two shards.
    let config = config_for(&world, 2);
    let (streamed, stream_deltas, last_dates) = stream_batches(&inputs, &config, &batches);
    assert!(
        !streamed.degraded.is_empty(),
        "the fault plan degraded nothing — raise its rate"
    );
    let (resumed, resumed_deltas) =
        stream_resuming_every_batch(&inputs, &config, &batches, &last_dates, "stream-faults");
    assert_eq!(
        report_json(&resumed),
        report_json(&streamed),
        "kill-and-resume under source faults diverged from the uninterrupted stream"
    );
    assert_eq!(
        deltas_json(&resumed_deltas),
        deltas_json(&stream_deltas),
        "a resumed faulted stream emitted a different delta"
    );
}

#[test]
fn week_deltas_compose_into_the_final_report() {
    let (world, observations) = world_up_to_week(101, 130);
    let (final_report, deltas) = stream_weeks(&world, &observations, 1);
    // Replay every delta over an empty (pre-week-0) report.
    let mut replayed = Report::default();
    for d in &deltas {
        d.apply(&mut replayed);
    }
    assert_eq!(
        report_json(&replayed),
        report_json(&final_report),
        "replaying the delta stream lost or duplicated a verdict change"
    );
}

proptest! {
    // Each case builds a world and runs both paths — keep the case
    // count small; the matrix below still covers seeds × lengths ×
    // worker counts.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn streaming_equals_batch_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..12,
        worker_i in 0usize..3,
    ) {
        let workers = WORKER_COUNTS[worker_i];
        let (world, observations) = world_up_to_week(seed, weeks);
        let view = RowsView(&observations);
        let inputs = InputsBuilder::new(&world, &view).build();
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        let (streamed, _) = stream_weeks(&world, &observations, workers);
        prop_assert_eq!(
            report_json(&streamed),
            report_json(&batch),
            "streaming diverged for seed={} weeks={} workers={}",
            seed, weeks, workers
        );
    }

    #[test]
    fn deltas_compose_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..12,
    ) {
        let (world, observations) = world_up_to_week(seed, weeks);
        let (final_report, deltas) = stream_weeks(&world, &observations, 1);
        let mut replayed = Report::default();
        for d in &deltas {
            d.apply(&mut replayed);
        }
        prop_assert_eq!(
            report_json(&replayed),
            report_json(&final_report),
            "delta replay diverged for seed={} weeks={}",
            seed, weeks
        );
    }

    #[test]
    fn kill_and_resume_equals_batch_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..10,
        worker_i in 0usize..3,
    ) {
        let workers = WORKER_COUNTS[worker_i];
        let (world, observations) = world_up_to_week(seed, weeks);
        let view = RowsView(&observations);
        let inputs = InputsBuilder::new(&world, &view).build();
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        let dir = std::env::temp_dir().join(format!(
            "retrodns-stream-prop-{}-{seed}-{weeks}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
        for week in week_batches(&observations) {
            let mut analyzer = IncrementalAnalyzer::resume(config_for(&world, workers), &store)
                .unwrap_or_else(|| IncrementalAnalyzer::new(config_for(&world, workers)));
            analyzer.ingest_week(&week, &inputs);
            analyzer.checkpoint(&store).expect("checkpoint write");
        }
        let finished = IncrementalAnalyzer::resume(config_for(&world, workers), &store)
            .expect("final state resumes");
        prop_assert_eq!(
            report_json(finished.report()),
            report_json(&batch),
            "kill-and-resume diverged for seed={} weeks={} workers={}",
            seed, weeks, workers
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
