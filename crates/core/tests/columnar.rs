//! Golden equivalence: the pipeline must produce byte-identical report
//! JSON whether its observations arrive as the legacy row vector (the
//! correctness oracle) or as a columnar `ObservationStore`, at any
//! worker count, on clean and on dirty inputs.

use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig};
use retrodns_scan::DomainObservation;
use retrodns_sim::{SimConfig, World};
use retrodns_store::ObservationStore;

fn report_json(
    world: &World,
    view: &dyn retrodns_store::ObservationView,
    workers: usize,
) -> String {
    let pipeline = Pipeline::new(PipelineConfig {
        window: world.config.window.clone(),
        workers,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&AnalystInputs {
        observations: view,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &world.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    });
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn columnar_report_is_byte_identical_to_rows() {
    let world = World::build(SimConfig::small(0xC01));
    let dataset = world.scan();
    let observations = world.observations(&dataset);
    let store = ObservationStore::from_observations(&observations).expect("store builds");
    assert_eq!(store.len(), observations.len());

    let golden = report_json(&world, &observations, 1);
    assert!(golden.contains("\"hijacked\""));
    for workers in [1, 2, 8] {
        assert_eq!(
            golden,
            report_json(&world, &store, workers),
            "columnar report diverged from the row report at {workers} workers"
        );
        assert_eq!(
            golden,
            report_json(&world, &observations, workers),
            "row report not worker-invariant at {workers} workers"
        );
    }
}

#[test]
fn columnar_report_matches_rows_on_dirty_input() {
    let world = World::build(SimConfig::small(0xD1));
    let dataset = world.scan();
    let mut observations = world.observations(&dataset);

    // Damage the input identically for both representations: duplicates,
    // an unrouted record, an out-of-window record, and a global shuffle.
    let dup = observations[3].clone();
    observations.push(dup);
    let mut unrouted = observations[5].clone();
    unrouted.asn = None;
    observations.push(unrouted);
    let mut stray = observations[7].clone();
    stray.date = retrodns_types::Day(u16::MAX as u32 - 1);
    observations.push(stray);
    observations.reverse();

    let store = ObservationStore::from_observations(&observations).expect("store builds");
    let golden = report_json(&world, &observations, 1);
    assert!(golden.contains("\"quarantined\""));
    for workers in [1, 2, 8] {
        assert_eq!(
            golden,
            report_json(&world, &store, workers),
            "dirty columnar report diverged at {workers} workers"
        );
    }
}

/// The store's fingerprint must equal the row fold over the same data —
/// a checkpoint written by one representation validates under the other.
#[test]
fn fingerprints_transfer_between_representations() {
    let world = World::build(SimConfig::small(0xF1));
    let dataset = world.scan();
    let observations: Vec<DomainObservation> = world.observations(&dataset);
    let store = ObservationStore::from_observations(&observations).unwrap();
    assert_eq!(
        retrodns_store::rows_fingerprint(&observations),
        store.fingerprint()
    );
}
