//! Metrics-layer integration tests: the `funnel.*` counter namespace
//! must reconcile *exactly* with [`Report::funnel`], metrics collection
//! must not perturb report bytes across worker counts, and the
//! `--metrics-out` JSON schema must stay deterministic.

mod common;

use retrodns::core::metrics::{MetricsRegistry, MetricsSnapshot};
use retrodns::core::pipeline::{FunnelStats, PipelineConfig};
use retrodns::core::IncrementalAnalyzer;
use retrodns::sim::FaultPlan;
use std::collections::BTreeMap;

/// The counter set [`Report::funnel`] must map to — the same mirror the
/// pipeline's `record_funnel` writes. Field-for-field, no omissions.
fn expected_funnel_counters(f: &FunnelStats) -> BTreeMap<String, u64> {
    let mut c: BTreeMap<String, u64> = BTreeMap::new();
    for (reason, n) in &f.quarantined {
        c.insert(format!("funnel.quarantined.{reason}"), *n as u64);
    }
    c.insert("funnel.domains_total".into(), f.domains_total as u64);
    c.insert("funnel.maps_total".into(), f.maps_total as u64);
    for (cat, n) in &f.domain_categories {
        c.insert(format!("funnel.domain_category.{cat}"), *n as u64);
    }
    for (cat, n) in &f.map_categories {
        c.insert(format!("funnel.map_category.{cat}"), *n as u64);
    }
    c.insert("funnel.transient_maps".into(), f.transient_maps as u64);
    c.insert("funnel.shortlisted".into(), f.shortlisted as u64);
    c.insert("funnel.truly_anomalous".into(), f.truly_anomalous as u64);
    for (reason, n) in &f.pruned {
        c.insert(format!("funnel.pruned.{reason}"), *n as u64);
    }
    c.insert("funnel.dismissed_stale".into(), f.dismissed_stale as u64);
    c.insert("funnel.inconclusive".into(), f.inconclusive as u64);
    for (stage, n) in &f.degraded {
        c.insert(format!("funnel.degraded.{stage}"), *n as u64);
    }
    for (t, n) in &f.hijacks_by_type {
        c.insert(format!("funnel.hijacks.{t}"), *n as u64);
    }
    c
}

/// The `funnel.*` counters actually recorded in a snapshot.
fn recorded_funnel_counters(snapshot: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("funnel."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Every funnel field has its counter, every `funnel.*` counter has its
/// field, and the values agree — on a clean world.
#[test]
fn metrics_reconcile_with_funnel() {
    let world = common::small_world(0xAC0);
    let observations = common::observations_of(&world);
    let mut metrics = MetricsRegistry::new();
    let report = common::pipeline_for(&world)
        .run_with(&common::inputs_for(&world, &observations), &mut metrics);
    assert_eq!(
        recorded_funnel_counters(&metrics.snapshot()),
        expected_funnel_counters(&report.funnel),
        "funnel.* counters drifted from Report::funnel"
    );
    // The pipeline found something, so the reconciliation is not vacuous.
    assert!(report.funnel.maps_total > 0);
    assert!(!report.hijacked.is_empty());
}

/// The reconciliation also holds when input validation actually fires:
/// damaged inputs populate `funnel.quarantined.*`.
#[test]
fn metrics_reconcile_with_funnel_under_faults() {
    let world = common::small_world(0xAC1);
    let damaged = FaultPlan::all(0xFA_AC1).apply_world(&world);
    let mut metrics = MetricsRegistry::new();
    let report = common::pipeline_for(&world).run_with(
        &common::inputs_for(&world, &damaged.observations),
        &mut metrics,
    );
    assert!(
        !report.funnel.quarantined.is_empty(),
        "fault plan produced no quarantined records; test is vacuous"
    );
    assert_eq!(
        recorded_funnel_counters(&metrics.snapshot()),
        expected_funnel_counters(&report.funnel)
    );
}

/// Metrics collection must not perturb report bytes, at any worker
/// count: a metered run reproduces the plain serial run byte for byte.
#[test]
fn metered_report_is_byte_identical_across_workers() {
    let world = common::small_world(0xAC2);
    let observations = common::observations_of(&world);
    let inputs = common::inputs_for(&world, &observations);
    let baseline = common::pipeline_for(&world).run(&inputs);
    let baseline_json = serde_json::to_string_pretty(&baseline).expect("serializes");
    for workers in [1, 2, 8] {
        let pipeline = retrodns::core::pipeline::Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            workers,
            ..PipelineConfig::default()
        });
        let mut metrics = MetricsRegistry::new();
        let report = pipeline.run_with(&inputs, &mut metrics);
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(
            json == baseline_json,
            "metered report diverged at workers={workers} ({} vs {} bytes)",
            json.len(),
            baseline_json.len()
        );
        // The metrics themselves reconcile at every worker count too.
        let snapshot = metrics.snapshot();
        assert_eq!(
            recorded_funnel_counters(&snapshot),
            expected_funnel_counters(&report.funnel)
        );
        // The world is far above the parallel floor, so stage 0's clean
        // check runs one range per worker, each with its own gauges.
        assert!(observations.len() > 8 * retrodns::core::map::DEFAULT_MIN_OBS_PER_WORKER);
        let gauge = |k: &str| snapshot.gauges.get(k).copied();
        assert_eq!(gauge("quarantine.workers"), Some(workers as f64));
        let items: f64 = (0..workers)
            .map(|i| gauge(&format!("quarantine.worker.{i}.items")).expect("per-range items"))
            .sum();
        assert_eq!(items, observations.len() as f64);
        assert!(gauge("quarantine.utilization").is_some_and(|u| u > 0.0 && u <= 1.0 + 1e-9));
    }
}

/// The snapshot's JSON schema is stable: fixed top-level keys, fixed
/// histogram shape, and identical counters across identical runs.
#[test]
fn snapshot_schema_is_deterministic() {
    let world = common::small_world(0xAC3);
    let observations = common::observations_of(&world);
    let inputs = common::inputs_for(&world, &observations);
    let run = || {
        let mut metrics = MetricsRegistry::new();
        common::pipeline_for(&world).run_with(&inputs, &mut metrics);
        metrics.snapshot()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.counters, b.counters,
        "counters vary across identical runs"
    );

    let value: serde::Value = serde::json::from_str(&a.to_json()).expect("snapshot JSON parses");
    let keys: Vec<&str> = value
        .as_object()
        .expect("snapshot is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["counters", "gauges", "histograms", "spans"]);

    // Every span the pipeline claims to have run, in open order.
    let span_names: Vec<&str> = a.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        span_names,
        [
            "pipeline.run",
            "stage.quarantine",
            "stage.map_build",
            "stage.classify",
            "stage.shortlist",
            "stage.inspect",
            "stage.pivot",
            "stage.release",
        ]
    );
    assert!(a.spans.iter().all(|s| s.wall_ms >= 0.0));

    // Histograms keep the fixed 10-bound + overflow bucket shape.
    for (name, h) in &a.histograms {
        assert_eq!(
            h.counts.len(),
            11,
            "histogram {name} has wrong bucket count"
        );
        assert_eq!(h.counts.iter().sum::<u64>(), h.count, "histogram {name}");
    }
    assert!(a.histograms.contains_key("stage.wall_ms"));
    assert!(a.histograms.contains_key("map_build.shard_items"));

    // One streamed week runs the same stages-3–5 tail as the batch run.
    let first = observations
        .iter()
        .map(|o| o.date)
        .min()
        .expect("observations");
    let week: Vec<_> = observations
        .iter()
        .filter(|o| o.date == first)
        .cloned()
        .collect();
    let mut metrics = MetricsRegistry::new();
    IncrementalAnalyzer::new(common::pipeline_for(&world).config).ingest_week_metered(
        &week,
        &inputs,
        &mut metrics,
    );
    let streamed = metrics.snapshot();

    // Stage gauges exist for every stage each path runs.
    let batch_stages = [
        "quarantine",
        "map_build",
        "classify",
        "shortlist",
        "inspect",
        "pivot",
        "release",
    ];
    let stream_stages = ["shortlist", "inspect", "pivot"];
    for (path, snapshot, stages) in [
        ("batch", &a, &batch_stages[..]),
        ("stream", &streamed, &stream_stages[..]),
    ] {
        for stage in stages {
            assert!(
                snapshot
                    .gauges
                    .contains_key(&format!("stage.{stage}.wall_ms")),
                "{path}: missing stage.{stage}.wall_ms gauge"
            );
            assert!(
                snapshot
                    .gauges
                    .contains_key(&format!("stage.{stage}.items")),
                "{path}: missing stage.{stage}.items gauge"
            );
        }
    }
}
