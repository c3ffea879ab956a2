//! Shared world-building and pipeline helpers for the integration tests.
//!
//! Each integration-test binary compiles this module separately and uses
//! only a subset of the helpers, hence the crate-level `dead_code` allow.

#![allow(dead_code)]

use retrodns::cert::{CertId, Certificate, CrtShIndex};
use retrodns::core::pipeline::{AnalystInputs, Pipeline, PipelineConfig, Report};
use retrodns::dns::PassiveDns;
use retrodns::scan::DomainObservation;
use retrodns::sim::{SimConfig, World};
use retrodns::store::ObservationView;
use retrodns::types::SourceFaults;
use std::collections::HashMap;

/// A small (`SimConfig::small`) world for the given seed.
pub fn small_world(seed: u64) -> World {
    World::build(SimConfig::small(seed))
}

/// Scan a world and annotate the records into observations.
pub fn observations_of(world: &World) -> Vec<DomainObservation> {
    let dataset = world.scan();
    world.observations(&dataset)
}

/// A default pipeline configured for the world's study window.
pub fn pipeline_for(world: &World) -> Pipeline {
    Pipeline::new(PipelineConfig {
        window: world.config.window.clone(),
        ..PipelineConfig::default()
    })
}

/// Full analyst inputs over a world's own data sets (DNSSEC included).
/// `observations` may be a row vector or a columnar store — anything
/// implementing [`ObservationView`].
pub fn inputs_for<'a>(
    world: &'a World,
    observations: &'a dyn ObservationView,
) -> AnalystInputs<'a> {
    AnalystInputs {
        observations,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &world.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    }
}

/// Build a small world for `seed`, scan it, and run the full pipeline.
pub fn run_world(seed: u64) -> (World, Report) {
    let world = small_world(seed);
    let observations = observations_of(&world);
    let report = pipeline_for(&world).run(&inputs_for(&world, &observations));
    (world, report)
}

/// One shared way to assemble [`AnalystInputs`], defaulting every source
/// to the world's own datasets (DNSSEC included). Tests that damage or
/// remove a source override just that field instead of restating the
/// whole struct:
///
/// ```ignore
/// let inputs = InputsBuilder::new(&world, &observations)
///     .pdns(&empty_pdns)
///     .no_dnssec()
///     .build();
/// ```
pub struct InputsBuilder<'a> {
    world: &'a World,
    observations: &'a dyn ObservationView,
    certs: Option<&'a HashMap<CertId, Certificate>>,
    pdns: Option<&'a PassiveDns>,
    crtsh: Option<&'a CrtShIndex>,
    dnssec: bool,
    source_faults: Option<&'a dyn SourceFaults>,
}

impl<'a> InputsBuilder<'a> {
    /// Inputs over the world's own sources and the given observations.
    pub fn new(world: &'a World, observations: &'a dyn ObservationView) -> InputsBuilder<'a> {
        InputsBuilder {
            world,
            observations,
            certs: None,
            pdns: None,
            crtsh: None,
            dnssec: true,
            source_faults: None,
        }
    }

    /// Replace the analyst's certificate-contents store.
    pub fn certs(mut self, certs: &'a HashMap<CertId, Certificate>) -> Self {
        self.certs = Some(certs);
        self
    }

    /// Replace the passive-DNS database.
    pub fn pdns(mut self, pdns: &'a PassiveDns) -> Self {
        self.pdns = Some(pdns);
        self
    }

    /// Replace the crt.sh index.
    pub fn crtsh(mut self, crtsh: &'a CrtShIndex) -> Self {
        self.crtsh = Some(crtsh);
        self
    }

    /// Run without the DNSSEC measurement archive.
    pub fn no_dnssec(mut self) -> Self {
        self.dnssec = false;
        self
    }

    /// Inject source-level faults.
    pub fn source_faults(mut self, faults: &'a dyn SourceFaults) -> Self {
        self.source_faults = Some(faults);
        self
    }

    /// Optionally inject source-level faults (`None` leaves all sources
    /// healthy) — for tests parameterized over fault plans.
    pub fn maybe_source_faults(mut self, faults: Option<&'a dyn SourceFaults>) -> Self {
        self.source_faults = faults;
        self
    }

    /// Assemble the [`AnalystInputs`].
    pub fn build(self) -> AnalystInputs<'a> {
        AnalystInputs {
            observations: self.observations,
            asdb: &self.world.geo.asdb,
            certs: self.certs.unwrap_or(&self.world.certs),
            pdns: self.pdns.unwrap_or(&self.world.pdns),
            crtsh: self.crtsh.unwrap_or(&self.world.crtsh),
            dnssec: self.dnssec.then_some(&self.world.dnssec),
            source_faults: self.source_faults,
        }
    }
}

/// A small world for `seed` truncated to its first `n` scan weeks:
/// returns the world plus only the observations dated within those
/// weeks. The knob the streaming suite turns to compare "history up to
/// week n" against incremental ingestion.
pub fn world_up_to_week(seed: u64, n: usize) -> (World, Vec<DomainObservation>) {
    let world = small_world(seed);
    let observations = observations_of(&world);
    let dates = world.config.window.scan_dates();
    let kept: Vec<DomainObservation> = match dates.get(..n) {
        Some(head) => {
            let cutoff = head.last().copied();
            observations
                .into_iter()
                .filter(|o| Some(o.date) <= cutoff)
                .collect()
        }
        None => observations,
    };
    (world, kept)
}
