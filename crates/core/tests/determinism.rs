//! The parallel execution model must be invisible in the output: a
//! `Pipeline::run` over the same inputs produces a byte-identical report
//! regardless of the `workers` knob. This is the guarantee that lets the
//! experiments (and any downstream cache keyed on report JSON) treat
//! worker count as a pure performance setting.

//!
//! Checkpointing extends the same guarantee: a run killed partway and
//! resumed from its stage snapshots must reproduce the uninterrupted
//! report byte for byte, even with faulted inputs in play.

use retrodns_core::checkpoint::STAGE_NAMES;
use retrodns_core::map::MapBuilder;
use retrodns_core::metrics::MetricsRegistry;
use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig};
use retrodns_core::CheckpointStore;
use retrodns_sim::{FaultPlan, SimConfig, World};

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let world = World::build(SimConfig::small(0xD15EA5E));
    let dataset = world.scan();
    let observations = world.observations(&dataset);
    let inputs = AnalystInputs {
        observations: &observations,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &world.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    };

    let run = |workers: usize| {
        let pipeline = Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            workers,
            ..PipelineConfig::default()
        });
        serde_json::to_string(&pipeline.run(&inputs)).expect("report serializes")
    };

    let serial = run(1);
    assert!(!serial.is_empty());
    for workers in [2, 8] {
        let parallel = run(workers);
        assert_eq!(
            serial, parallel,
            "report JSON differs between workers=1 and workers={workers}"
        );
    }
}

#[test]
fn maps_and_patterns_identical_across_worker_counts() {
    let world = World::build(SimConfig::small(0xCAFE));
    let dataset = world.scan();
    let observations = world.observations(&dataset);

    let run = |workers: usize| {
        let pipeline = Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            workers,
            ..PipelineConfig::default()
        });
        let (maps, _) = MapBuilder::new(world.config.window.clone())
            .build_sharded_stats(&observations, workers);
        let patterns = pipeline.classify_maps(&maps);
        (maps, patterns)
    };

    let (maps1, patterns1) = run(1);
    assert!(!maps1.is_empty());
    for workers in [2, 8] {
        let (maps_n, patterns_n) = run(workers);
        assert_eq!(maps1, maps_n, "maps differ at workers={workers}");
        assert_eq!(
            patterns1, patterns_n,
            "patterns differ at workers={workers}"
        );
    }
}

/// Worker-count invariance must also hold on deterministically damaged
/// inputs: the quarantine layer and every stage behind it stay
/// byte-identical across the `workers` knob under an active fault plan.
#[test]
fn faulted_report_is_byte_identical_across_worker_counts() {
    let world = World::build(SimConfig::small(0xFA_017));
    let damaged = FaultPlan::all(0xFA_017).apply_world(&world);
    let inputs = AnalystInputs {
        observations: &damaged.observations,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &damaged.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    };

    let run = |workers: usize| {
        let pipeline = Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            workers,
            ..PipelineConfig::default()
        });
        serde_json::to_string(&pipeline.run(&inputs)).expect("report serializes")
    };

    let serial = run(1);
    // The fault plan must actually have bitten: records were quarantined.
    assert!(
        serial.contains("\"unknown-cert\""),
        "fault plan produced no quarantined records"
    );
    for workers in [2, 8] {
        assert_eq!(
            serial,
            run(workers),
            "faulted report differs between workers=1 and workers={workers}"
        );
    }
}

/// Kill-and-resume equivalence: interrupting a checkpointed run after
/// any stage and resuming from the surviving snapshots yields the
/// uninterrupted run's report byte for byte.
#[test]
fn resumed_report_is_byte_identical_to_uninterrupted_run() {
    let world = World::build(SimConfig::small(0x2E5_04E));
    let dataset = world.scan();
    let observations = world.observations(&dataset);
    let inputs = AnalystInputs {
        observations: &observations,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &world.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    };
    let pipeline = Pipeline::new(PipelineConfig {
        window: world.config.window.clone(),
        workers: 2,
        ..PipelineConfig::default()
    });
    let uninterrupted = serde_json::to_string(&pipeline.run(&inputs)).unwrap();

    let dir = std::env::temp_dir().join(format!(
        "retrodns-determinism-resume-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).expect("open checkpoint dir");
    let resume = |store: &mut CheckpointStore| {
        let report = pipeline.run_with(&inputs, Some(store), &mut MetricsRegistry::new());
        serde_json::to_string(&report).unwrap()
    };

    // Full checkpointed run: everything computed, nothing resumed.
    let full = resume(&mut store);
    assert_eq!(uninterrupted, full, "checkpointing changed the report");
    assert_eq!(store.computed.len(), STAGE_NAMES.len());

    // Emulate a kill after each stage boundary: delete the snapshots of
    // every later stage, then resume. ("killed after classify" is i == 2:
    // maps + classify survive on disk, shortlist + inspect are gone.)
    for i in 1..=STAGE_NAMES.len() {
        for stage in &STAGE_NAMES[i..] {
            std::fs::remove_file(store.payload_path(stage)).expect("delete payload");
            std::fs::remove_file(store.meta_path(stage)).expect("delete meta");
        }
        let resumed = resume(&mut store);
        assert_eq!(
            uninterrupted, resumed,
            "resume after stage {i} diverged from the uninterrupted run"
        );
        assert_eq!(store.resumed, STAGE_NAMES[..i].to_vec());
        assert_eq!(store.computed, STAGE_NAMES[i..].to_vec());
    }

    // A corrupted snapshot mid-chain invalidates itself and everything
    // downstream, and the resumed report still matches.
    let path = store.payload_path("classify");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let resumed = resume(&mut store);
    assert_eq!(
        uninterrupted, resumed,
        "resume over a corrupted checkpoint diverged"
    );
    assert_eq!(store.resumed, vec!["maps"]);
    assert_eq!(store.computed, vec!["classify", "shortlist", "inspect"]);

    let _ = std::fs::remove_dir_all(&dir);
}
