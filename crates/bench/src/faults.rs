//! The fault-injection survival campaign (`experiments faults`).
//!
//! Sweeps seeds × fault kinds: for every cell a world is damaged by a
//! single deterministic [`FaultPlan`], the full pipeline runs over the
//! damaged inputs, and the cell records whether the pipeline *survived*
//! — no panic (a panic aborts the campaign), no fabricated hijack
//! verdict (precision holds under loss; recall is allowed to drop), and
//! every rejected record accounted for in the report's quarantine
//! histogram. A per-seed `no-corroboration` row additionally strips
//! passive DNS and CT entirely and requires zero hijack verdicts — the
//! methodology's core conservativeness property.
//!
//! Source-outage rows (`<source>:<fault>`, e.g. `pdns:source-timeout`)
//! leave the data intact but make one corroboration *source* misbehave
//! at query time through a [`SourceFaultPlan`]. A fully dead source must
//! turn would-be verdicts into explicit `Degraded` entries — never into
//! hijack verdicts — and every cell (faulted or not) must *reconcile*:
//! the `source.<name>.exhausted` tallies match the degraded verdicts
//! that name the source, the `funnel.degraded` histogram matches the
//! report's degraded entries, and the quarantine metrics match the
//! funnel's quarantine histogram.
//!
//! Store-corruption rows (`store:truncated-chunk`, `store:bitflip-chunk`)
//! damage the *stream checkpoint* instead of the data: an
//! [`IncrementalAnalyzer`] checkpoints the seed's world into a temporary
//! directory, and chunk 0's part file then gets a torn (zeroed-tail)
//! write or a flipped bit on disk. Survival additionally requires the
//! damage to be *detected* the way the product meets it —
//! [`CheckpointStore::load`] refuses the log (`InvalidReason::BadLog`) and
//! [`IncrementalAnalyzer::resume`] declines — and the cell is scored on
//! the clean recompute that follows, with the damaged chunk's rows
//! counted as `injected`.

use retrodns_cert::CrtShIndex;
use retrodns_core::checkpoint::{config_fingerprint, InvalidReason};
use retrodns_core::metrics::MetricsRegistry;
use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig};
use retrodns_core::{CheckpointStore, IncrementalAnalyzer};
use retrodns_dns::PassiveDns;
use retrodns_sim::{
    FaultEffects, FaultKind, FaultPlan, SimConfig, SourceFaultKind, SourceFaultPlan, World,
};
use retrodns_types::SourceFaults;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// One (seed, fault) cell of the survival matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCell {
    /// World seed.
    pub seed: u64,
    /// Fault label ([`FaultKind::label`], or `no-corroboration`).
    pub fault: String,
    /// Records the fault plan actually damaged (dropped, truncated,
    /// corrupted, duplicated, or lost pDNS tuples).
    #[serde(default)]
    pub injected: usize,
    /// Records rejected by input validation, summed over reasons.
    pub quarantined: usize,
    /// Hijack verdicts emitted.
    pub hijacked: usize,
    /// Verdicts naming a genuinely attacked domain.
    pub true_positives: usize,
    /// Verdicts naming a benign domain (fabrications; must be zero).
    pub false_positives: usize,
    /// Candidates that survived shortlisting (degradation denominator).
    #[serde(default)]
    pub shortlisted: usize,
    /// Explicit degraded verdicts emitted (`Report::degraded`).
    #[serde(default)]
    pub degraded: usize,
    /// Did the source/funnel/quarantine tallies reconcile with the
    /// report (see the module docs)? Folded into `survived`.
    #[serde(default)]
    pub reconciled: bool,
    /// Did the pipeline survive this cell (zero fabrications, tallies
    /// reconciled, and — for full source outages — zero hijack verdicts
    /// with the loss surfaced as degraded entries)?
    pub survived: bool,
}

/// The machine-readable campaign result (`FAULTS_matrix.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultMatrix {
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Fault labels swept (columns).
    pub faults: Vec<String>,
    /// All cells, row-major (seed-major) order.
    pub cells: Vec<FaultCell>,
}

impl FaultMatrix {
    /// True when every cell survived.
    pub fn all_survived(&self) -> bool {
        self.cells.iter().all(|c| c.survived)
    }

    /// Human-readable table.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "fault-injection survival matrix\n\
             seed        fault                           injected  quarantined  hijacked  degraded  tp  fp  verdict\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10}  {:<30}  {:>8}  {:>11}  {:>8}  {:>8}  {:>2}  {:>2}  {}\n",
                c.seed,
                c.fault,
                c.injected,
                c.quarantined,
                c.hijacked,
                c.degraded,
                c.true_positives,
                c.false_positives,
                if c.survived {
                    "ok"
                } else if c.reconciled {
                    "FABRICATED"
                } else {
                    "DRIFT"
                }
            ));
        }
        let survived = self.cells.iter().filter(|c| c.survived).count();
        out.push_str(&format!(
            "{survived}/{} cells survived (fabrication-free, tallies reconciled)\n",
            self.cells.len()
        ));
        out
    }
}

/// The damaged corroboration sources one cell runs against.
struct CellInputs<'a> {
    observations: &'a dyn retrodns_store::ObservationView,
    pdns: &'a PassiveDns,
    crtsh: &'a CrtShIndex,
    source_faults: Option<&'a dyn SourceFaults>,
}

/// The pipeline configuration every cell over `world` runs with.
fn cell_config(world: &World, workers: usize) -> PipelineConfig {
    PipelineConfig {
        window: world.config.window.clone(),
        workers,
        ..PipelineConfig::default()
    }
}

fn run_cell(
    world: &World,
    seed: u64,
    fault: &str,
    effects: FaultEffects,
    cell: CellInputs<'_>,
    workers: usize,
) -> FaultCell {
    let pipeline = Pipeline::new(cell_config(world, workers));
    // Fault-plan applications are a metrics source like any other stage:
    // the per-kind damage counts land under `faults.*` next to the
    // pipeline's own counters, so one snapshot holds both the injected
    // damage and the funnel's reaction to it.
    let mut metrics = MetricsRegistry::new();
    for (label, n) in effects.by_label() {
        if n > 0 {
            metrics.count(&format!("faults.{label}"), n as u64);
        }
    }
    let report = pipeline.run_with(
        &AnalystInputs {
            observations: cell.observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: cell.pdns,
            crtsh: cell.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: cell.source_faults,
        },
        &mut metrics,
    );
    let quarantined: usize = report.funnel.quarantined.values().sum();
    let snapshot = metrics.snapshot();
    let counter = |k: &str| snapshot.counters.get(k).copied().unwrap_or(0) as usize;
    let metered: u64 = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("funnel.quarantined."))
        .map(|(_, v)| v)
        .sum();
    // A degraded verdict names every source it is missing; each named
    // mention must be backed by an exhausted guarded call — and vice
    // versa (pivot frontier lookups and geo annotation failures degrade
    // lookups/annotations, not verdicts, so they reconcile separately).
    let mentions = |src: &str| {
        report
            .degraded
            .iter()
            .filter(|d| d.missing_sources.iter().any(|s| s == src))
            .count()
    };
    let mut stage_hist: BTreeMap<String, usize> = BTreeMap::new();
    for d in &report.degraded {
        *stage_hist.entry(d.stage.clone()).or_insert(0) += 1;
    }
    let reconciled = metered as usize == quarantined
        && counter("source.as2org.exhausted") == mentions("as2org")
        && counter("source.ct.exhausted") == mentions("ct")
        && counter("source.pdns.exhausted") == mentions("pdns") + counter("pivot.degraded_lookups")
        && counter("source.geo.exhausted") == counter("pivot.annotation_degraded")
        && stage_hist == report.funnel.degraded;
    let true_positives = report
        .hijacked
        .iter()
        .filter(|h| world.ground_truth.is_attacked(&h.domain))
        .count();
    let false_positives = report.hijacked.len() - true_positives;
    FaultCell {
        seed,
        fault: fault.to_string(),
        injected: effects.total(),
        quarantined,
        hijacked: report.hijacked.len(),
        true_positives,
        false_positives,
        shortlisted: report.funnel.shortlisted,
        degraded: report.degraded.len(),
        reconciled,
        survived: false_positives == 0 && reconciled,
    }
}

/// The corroboration sources swept by the source-outage rows. `geo` is
/// annotation-only (its loss never degrades a verdict), so it has no
/// outage row; its reconciliation is checked on every cell instead.
pub const OUTAGE_SOURCES: [&str; 3] = ["pdns", "ct", "as2org"];

/// The store-corruption rows swept per seed: a torn (zeroed-tail) write
/// of a checkpoint chunk part and a single flipped bit in it.
pub const STORE_FAULTS: [&str; 2] = ["store:truncated-chunk", "store:bitflip-chunk"];

/// Sweep `seeds` × every [`FaultKind`], every
/// source × [`SourceFaultKind`] outage, plus the `no-corroboration`
/// stripped-inputs row per seed, over `SimConfig::small` worlds.
pub fn run_fault_campaign(seeds: &[u64], workers: usize) -> FaultMatrix {
    let mut faults: Vec<String> = FaultKind::ALL
        .iter()
        .map(|k| k.label().to_string())
        .collect();
    for source in OUTAGE_SOURCES {
        for kind in SourceFaultKind::ALL {
            faults.push(format!("{source}:{}", kind.label()));
        }
    }
    for label in STORE_FAULTS {
        faults.push(label.to_string());
    }
    faults.push("no-corroboration".to_string());
    let mut cells = Vec::with_capacity(seeds.len() * faults.len());
    for &seed in seeds {
        let world = World::build(SimConfig::small(seed));
        for kind in FaultKind::ALL {
            let plan = FaultPlan::single(seed, kind);
            let damaged = plan.apply_world(&world);
            cells.push(run_cell(
                &world,
                seed,
                kind.label(),
                damaged.effects,
                CellInputs {
                    observations: &damaged.observations,
                    pdns: &damaged.pdns,
                    crtsh: &world.crtsh,
                    source_faults: None,
                },
                workers,
            ));
        }
        // Source outages: data intact, one source misbehaving for every
        // query. A fully dead source must yield zero hijack verdicts and
        // surface the loss as degraded entries (unless nothing was ever
        // shortlisted); latency spikes let retries recover some queries,
        // so they only demand fabrication-freedom and reconciliation.
        let dataset = world.scan();
        let observations = world.observations(&dataset);
        for source in OUTAGE_SOURCES {
            for kind in SourceFaultKind::ALL {
                let plan = SourceFaultPlan::outage(seed, source, kind);
                let label = format!("{source}:{}", kind.label());
                let mut cell = run_cell(
                    &world,
                    seed,
                    &label,
                    FaultEffects::default(),
                    CellInputs {
                        observations: &observations,
                        pdns: &world.pdns,
                        crtsh: &world.crtsh,
                        source_faults: Some(&plan),
                    },
                    workers,
                );
                if kind.is_full_outage_at_100() {
                    cell.survived = cell.survived
                        && cell.hijacked == 0
                        && (cell.shortlisted == 0 || cell.degraded > 0);
                }
                cells.push(cell);
            }
        }
        // Store corruption: a stream checkpoint of the seed's world (its
        // observations ingested as one batch) is damaged on disk — a torn
        // (zeroed-tail) write of chunk 0's part and a single flipped bit
        // in it. The load must refuse the log and resume must decline, so
        // the stream recomputes from scratch; the cell scores that clean
        // recompute, whose report is the batch run's.
        let config = cell_config(&world, workers);
        let dir =
            std::env::temp_dir().join(format!("retrodns-faults-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("checkpoint dir opens");
        let mut analyzer = IncrementalAnalyzer::new(config.clone());
        analyzer.ingest_week(
            &observations,
            &AnalystInputs {
                observations: &observations,
                asdb: &world.geo.asdb,
                certs: &world.certs,
                pdns: &world.pdns,
                crtsh: &world.crtsh,
                dnssec: Some(&world.dnssec),
                source_faults: None,
            },
        );
        analyzer.checkpoint(&store).expect("checkpoint writes");
        let fingerprint = config_fingerprint(&config);
        let (log, _) = store
            .load::<Value>(fingerprint)
            .expect("pristine checkpoint loads");
        let manifest = log.manifest();
        // Part 0 is the dictionary, part 1 is chunk 0.
        let chunk_path = store.part_paths(&manifest).swap_remove(1);
        let pristine = std::fs::read(&chunk_path).expect("chunk 0 part reads");
        let injected = manifest.chunk_rows_each[0] as usize;
        for label in STORE_FAULTS {
            let mut bytes = pristine.clone();
            let mid = bytes.len() / 2;
            match label {
                "store:truncated-chunk" => bytes[mid..].fill(0),
                _ => bytes[mid] ^= 0x10,
            }
            std::fs::write(&chunk_path, &bytes).expect("damaged part writes");
            let detected = store.load::<Value>(fingerprint).err() == Some(InvalidReason::BadLog)
                && IncrementalAnalyzer::resume(config.clone(), &store).is_none();
            let mut cell = run_cell(
                &world,
                seed,
                label,
                FaultEffects::default(),
                CellInputs {
                    observations: &observations,
                    pdns: &world.pdns,
                    crtsh: &world.crtsh,
                    source_faults: None,
                },
                workers,
            );
            cell.injected = injected;
            cell.survived = cell.survived && detected;
            cells.push(cell);
        }
        let _ = std::fs::remove_dir_all(&dir);
        // Corroboration-stripped: no pDNS, no CT. Conservativeness demands
        // zero hijack verdicts here, not merely zero fabrications.
        let empty_pdns = PassiveDns::new();
        let empty_crtsh = CrtShIndex::default();
        let mut cell = run_cell(
            &world,
            seed,
            "no-corroboration",
            FaultEffects::default(),
            CellInputs {
                observations: &observations,
                pdns: &empty_pdns,
                crtsh: &empty_crtsh,
                source_faults: None,
            },
            workers,
        );
        cell.survived = cell.survived && cell.hijacked == 0;
        cells.push(cell);
    }
    FaultMatrix {
        seeds: seeds.to_vec(),
        faults,
        cells,
    }
}
