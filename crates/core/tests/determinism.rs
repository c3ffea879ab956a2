//! The parallel execution model must be invisible in the output: a
//! `Pipeline::run` over the same inputs produces a byte-identical report
//! regardless of the `workers` knob. This is the guarantee that lets the
//! experiments (and any downstream cache keyed on report JSON) treat
//! worker count as a pure performance setting.

use retrodns_core::map::MapBuilder;
use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig};
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
