//! Shared experiment state: one simulated world, scanned and analyzed.
//!
//! Building the world and running the pipeline dominates experiment run
//! time, so every experiment shares a [`Bundle`] built once per
//! invocation.

use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig, Report};
use retrodns_core::report::DomainInfo;
use retrodns_core::{DeploymentMap, MapBuilder, Pattern};
use retrodns_scan::{DomainObservation, ScanDataset};
use retrodns_sim::{SimConfig, World};
use retrodns_types::DomainName;
use std::collections::HashMap;

/// World size for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~2 k domains — seconds even in debug builds.
    Quick,
    /// ~20 k domains — the default for `cargo run --release`.
    Standard,
    /// ~40 k domains — closer to a "full" run; needs release mode.
    Full,
}

impl Scale {
    /// Parse a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The simulator configuration for this scale.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            Scale::Quick => SimConfig::small(seed),
            Scale::Standard => SimConfig {
                seed,
                ..SimConfig::default()
            },
            Scale::Full => SimConfig {
                seed,
                n_domains: 40_000,
                ..SimConfig::default()
            },
        }
    }
}

/// One fully built and analyzed world.
pub struct Bundle {
    /// The simulated world (with ground truth).
    pub world: World,
    /// The weekly scan dataset.
    pub dataset: ScanDataset,
    /// Per-domain annotated observations.
    pub observations: Vec<DomainObservation>,
    /// The pipeline used.
    pub pipeline: Pipeline,
    /// Stage 1–2 output.
    pub maps: Vec<DeploymentMap>,
    /// Stage 2 output, parallel to `maps`.
    pub patterns: Vec<Pattern>,
    /// The full pipeline report.
    pub report: Report,
    /// domain → (sector, country, org) lookup.
    info_map: HashMap<DomainName, DomainInfo>,
}

impl Bundle {
    /// Build a bundle at the given scale and seed.
    pub fn build(scale: Scale, seed: u64) -> Bundle {
        let world = World::build(scale.config(seed));
        Bundle::from_world(world)
    }

    /// Build a bundle around an existing world.
    pub fn from_world(world: World) -> Bundle {
        let dataset = world.scan();
        let observations = world.observations(&dataset);
        let pipeline = Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            workers: 4,
            ..PipelineConfig::default()
        });
        let (maps, _) = MapBuilder::new(world.config.window.clone())
            .build_sharded_stats(&observations, pipeline.config.workers);
        let patterns = pipeline.classify_maps(&maps);
        let report = pipeline.run(&AnalystInputs {
            observations: &observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: &world.pdns,
            crtsh: &world.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: None,
        });
        let info_map = world
            .meta
            .iter()
            .map(|m| {
                (
                    m.domain.clone(),
                    DomainInfo {
                        sector: m.sector.to_string(),
                        country: Some(m.country),
                        org_name: m.org_name.clone(),
                    },
                )
            })
            .collect();
        Bundle {
            world,
            dataset,
            observations,
            pipeline,
            maps,
            patterns,
            report,
            info_map,
        }
    }

    /// The analyst inputs (borrowing from the bundle).
    pub fn inputs(&self) -> AnalystInputs<'_> {
        AnalystInputs {
            observations: &self.observations,
            asdb: &self.world.geo.asdb,
            certs: &self.world.certs,
            pdns: &self.world.pdns,
            crtsh: &self.world.crtsh,
            dnssec: Some(&self.world.dnssec),
            source_faults: None,
        }
    }

    /// Domain-info lookup for table rendering.
    pub fn info(&self, domain: &DomainName) -> Option<DomainInfo> {
        self.info_map.get(domain).cloned()
    }
}
