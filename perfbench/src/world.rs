//! The benchmark's input: one simulated world per seed, written in the
//! `retrodns simulate` data-directory layout.
//!
//! The world is exactly what `retrodns simulate --domains 2000 --seed N`
//! writes. Generating it is not program work: it happens untimed, in a
//! child process of its own.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use retrodns_scan::DomainObservation;
use retrodns_sim::{SimConfig, World};
use retrodns_types::{Day, DomainName};
use serde::{Deserialize, Serialize};

/// How big a world the benchmark builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2 000 domains over the 222-week study, the default campaigns.
    Full,
    /// A few hundred domains; the workloads also cap their weeks and
    /// queries. Only for the benchmark's own smoke test.
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    fn config(self, seed: u64) -> SimConfig {
        let n_domains = match self {
            Scale::Full => 2_000,
            Scale::Tiny => 300,
        };
        SimConfig {
            seed,
            n_domains,
            ..SimConfig::default()
        }
    }
}

/// The planted ground truth, in the same shape `retrodns simulate`
/// writes to `truth.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Truth {
    pub hijacked: Vec<DomainName>,
    pub targeted: Vec<DomainName>,
}

/// Every domain of the world, sorted: where verdict queries draw from.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DomainList {
    domains: Vec<DomainName>,
}

/// A generated world on disk.
pub struct WorldDir {
    pub dir: PathBuf,
}

impl WorldDir {
    /// The world of the run directory `work`.
    pub fn new(work: &Path) -> WorldDir {
        WorldDir {
            dir: work.join("world"),
        }
    }

    pub fn truth(&self) -> Result<Truth, String> {
        read_json(&self.dir.join("truth.json"))
    }

    pub fn domains(&self) -> Result<Vec<DomainName>, String> {
        read_json::<DomainList>(&self.dir.join("bench_domains.json")).map(|l| l.domains)
    }

    /// Bytes of the input files the program reads.
    pub fn input_bytes(&self) -> u64 {
        INPUT_FILES
            .iter()
            .filter_map(|f| std::fs::metadata(self.dir.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// The files `JobData::load` reads.
const INPUT_FILES: [&str; 7] = [
    "scans.json",
    "certs.json",
    "asdb.json",
    "pdns.json",
    "crtsh.json",
    "dnssec.json",
    "trust.json",
];

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = dir.join(name);
    let json = serde_json::to_vec(value).map_err(|e| format!("{name}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Build the world and write it to `out`.
pub fn write(out: &Path, seed: u64, scale: Scale) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let world = World::build(scale.config(seed));
    let dataset = world.scan();
    write_json(out, "scans.json", &dataset)?;
    write_json(out, "certs.json", &world.certs)?;
    write_json(out, "asdb.json", &world.geo.asdb)?;
    write_json(out, "pdns.json", &world.pdns)?;
    write_json(out, "crtsh.json", &world.crtsh)?;
    write_json(out, "dnssec.json", &world.dnssec)?;
    write_json(out, "trust.json", &world.trust)?;
    let truth = Truth {
        hijacked: world
            .ground_truth
            .hijacked
            .iter()
            .map(|h| h.domain.clone())
            .collect(),
        targeted: world
            .ground_truth
            .targeted
            .iter()
            .map(|t| t.domain.clone())
            .collect(),
    };
    let mut domains: Vec<DomainName> = world.meta.iter().map(|m| m.domain.clone()).collect();
    domains.sort();
    domains.dedup();
    write_json(out, "bench_domains.json", &DomainList { domains })?;
    write_json(out, "truth.json", &truth)
}

/// Per-scan-date batches, oldest first: the slicing `analyze --stream`
/// and serve jobs use.
pub fn week_slices(observations: &[DomainObservation]) -> Vec<Vec<DomainObservation>> {
    let mut by_date: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
    for o in observations {
        by_date.entry(o.date).or_default().push(o.clone());
    }
    by_date.into_values().collect()
}

/// Distinct scan dates (weeks) among `observations`.
pub fn week_count(observations: &[DomainObservation]) -> usize {
    let dates: BTreeSet<Day> = observations.iter().map(|o| o.date).collect();
    dates.len()
}

/// The observations of the first `weeks` scan dates, in input order:
/// what `Pipeline::run` must see to match a stream over those weeks.
pub fn first_weeks(observations: &[DomainObservation], weeks: usize) -> Vec<DomainObservation> {
    let dates: BTreeSet<Day> = observations.iter().map(|o| o.date).collect();
    let Some(&last) = dates.iter().take(weeks).next_back() else {
        return Vec::new();
    };
    observations
        .iter()
        .filter(|o| o.date <= last)
        .cloned()
        .collect()
}
