//! Checkpoints for the streaming analyzer.
//!
//! There is one checkpoint format: the
//! [`IncrementalAnalyzer`](crate::incremental::IncrementalAnalyzer)'s
//! per-week checkpoint. After each ingested week,
//! [`checkpoint`](crate::incremental::IncrementalAnalyzer::checkpoint)
//! writes the quarantine-kept observation log's changed parts and a small
//! record (quarantine histogram, week count, last date, report) into a
//! [`CheckpointStore`]; a killed stream
//! [`resume`](crate::incremental::IncrementalAnalyzer::resume)s from the
//! last completed week by rebuilding maps and patterns from the log, and
//! still produces a `Report` byte-identical to an uninterrupted run (see
//! `DESIGN.md` §7 and §11). A batch
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) writes no
//! checkpoints: rerunning it is cheaper than loading per-stage snapshots
//! would be.
//!
//! ## On-disk format
//!
//! * `observations/` — the log as a content-addressed columnar store: a
//!   `manifest.json` plus `dict-<hash>.bin` / `chunk-<hash>.bin` parts
//!   named by their content hash, so a save writes only changed parts and
//!   deletes the ones the new manifest no longer lists;
//! * `stage_<name>.json` — a record payload, plain serde JSON (for the
//!   analyzer, a few kilobytes: the log carries everything else);
//! * `stage_<name>.meta.json` — a [`StageMeta`] envelope: format version,
//!   stage name, fingerprints of the pipeline configuration and the
//!   input observations, and the BKDR hash of the payload bytes.
//!
//! A state checkpoint is *valid* only if every envelope field matches
//! and the payload bytes hash to `payload_hash`; an observation log is
//! valid only if every part matches its manifest hash. Any mismatch —
//! version bump, different config, different inputs, truncated or
//! bit-flipped bytes — makes the load fail, and the caller starts over
//! rather than trusting damaged state.

use retrodns_scan::DomainObservation;
use retrodns_store::{ObservationStore, StoreManifest};
use retrodns_types::hash::bytes_hash;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped whenever a stage payload's serialized shape changes; old
/// checkpoints are then invalid wholesale. Version 3 dropped the maps and
/// patterns from the analyzer's record.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// Fingerprints binding a checkpoint to one (config, inputs) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Hash of the serialized [`PipelineConfig`](crate::pipeline::PipelineConfig).
    pub config: u64,
    /// Hash over every input observation's fields.
    pub inputs: u64,
}

/// The validation envelope written beside each stage payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageMeta {
    /// Checkpoint format version.
    pub version: u32,
    /// Stage name (defense against renamed files).
    pub stage: String,
    /// Config fingerprint at write time.
    pub config_hash: u64,
    /// Input fingerprint at write time.
    pub inputs_hash: u64,
    /// BKDR hash of the payload file's bytes.
    pub payload_hash: u64,
}

/// Fingerprint a pipeline configuration (any serializable config works;
/// the pipeline passes its full `PipelineConfig`).
pub fn config_fingerprint<C: Serialize>(config: &C) -> u64 {
    let bytes = serde_json::to_vec(config).expect("config serializes");
    bytes_hash(&bytes)
}

/// Fingerprint the input observations without serializing them: a
/// field-order fold of every record through the workspace BKDR hash.
/// Deterministic across runs and platforms, and sensitive to any record
/// edit, insertion, deletion or reordering.
///
/// This is [`retrodns_store::rows_fingerprint`] — the canonical
/// definition both input representations share, so a checkpoint written
/// from a row vector validates when the same data arrives as a columnar
/// [`retrodns_store::ObservationStore`] (whose
/// [`fingerprint`](retrodns_store::ObservationStore::fingerprint) is
/// computed from its columns, bit-identically).
pub fn inputs_fingerprint(observations: &[DomainObservation]) -> u64 {
    retrodns_store::rows_fingerprint(observations)
}

/// Why a stage checkpoint failed validation (diagnostic; resume treats
/// every variant the same — start over).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidReason {
    /// Payload or meta file absent.
    Missing,
    /// Meta file unreadable or not valid JSON.
    BadMeta,
    /// Format version mismatch.
    Version,
    /// Stage name in the envelope does not match the file.
    WrongStage,
    /// Config fingerprint mismatch (thresholds changed between runs).
    ConfigChanged,
    /// Input fingerprint mismatch (observations changed between runs).
    InputsChanged,
    /// Payload bytes do not hash to the recorded `payload_hash`.
    Corrupt,
    /// Payload hashed correctly but failed to deserialize.
    Undeserializable,
}

impl InvalidReason {
    /// Stable machine-readable label (metric key suffix).
    pub fn label(&self) -> &'static str {
        match self {
            InvalidReason::Missing => "missing",
            InvalidReason::BadMeta => "bad-meta",
            InvalidReason::Version => "version",
            InvalidReason::WrongStage => "wrong-stage",
            InvalidReason::ConfigChanged => "config-changed",
            InvalidReason::InputsChanged => "inputs-changed",
            InvalidReason::Corrupt => "corrupt",
            InvalidReason::Undeserializable => "undeserializable",
        }
    }
}

/// A checkpoint directory for one stream.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if necessary) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Remove everything the store writes — every `stage_*` file and the
    /// observation log — so nothing from an earlier run can be resumed
    /// (fresh-run semantics). Other files in the directory are left alone.
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with("stage_") {
                ignore_missing(std::fs::remove_file(entry.path()))?;
            }
        }
        ignore_missing(std::fs::remove_dir_all(self.observations_dir()))
    }

    /// Path of a stage's payload file.
    pub fn payload_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("stage_{stage}.json"))
    }

    /// Path of a stage's meta envelope.
    pub fn meta_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("stage_{stage}.meta.json"))
    }

    /// Validate and load one stage checkpoint against `fp`.
    pub fn load<T: DeserializeOwned>(
        &self,
        stage: &str,
        fp: &Fingerprint,
    ) -> Result<T, InvalidReason> {
        let meta_bytes =
            std::fs::read(self.meta_path(stage)).map_err(|_| InvalidReason::Missing)?;
        let meta: StageMeta =
            serde_json::from_slice(&meta_bytes).map_err(|_| InvalidReason::BadMeta)?;
        if meta.version != CHECKPOINT_FORMAT_VERSION {
            return Err(InvalidReason::Version);
        }
        if meta.stage != stage {
            return Err(InvalidReason::WrongStage);
        }
        if meta.config_hash != fp.config {
            return Err(InvalidReason::ConfigChanged);
        }
        if meta.inputs_hash != fp.inputs {
            return Err(InvalidReason::InputsChanged);
        }
        let payload =
            std::fs::read(self.payload_path(stage)).map_err(|_| InvalidReason::Missing)?;
        if bytes_hash(&payload) != meta.payload_hash {
            return Err(InvalidReason::Corrupt);
        }
        serde_json::from_slice(&payload).map_err(|_| InvalidReason::Undeserializable)
    }

    /// Write one stage checkpoint (payload first, envelope last, so a
    /// crash mid-write leaves a detectably incomplete checkpoint).
    pub fn save<T: Serialize>(
        &self,
        stage: &str,
        fp: &Fingerprint,
        payload: &T,
    ) -> std::io::Result<()> {
        let bytes = serde_json::to_vec(payload).expect("stage payload serializes");
        let meta = StageMeta {
            version: CHECKPOINT_FORMAT_VERSION,
            stage: stage.to_string(),
            config_hash: fp.config,
            inputs_hash: fp.inputs,
            payload_hash: bytes_hash(&bytes),
        };
        // Remove any stale envelope first: if the payload write below
        // succeeds but the envelope write crashes, the old envelope must
        // not validate the new payload (it won't — hash mismatch — but a
        // missing envelope is the cleaner failure).
        ignore_missing(std::fs::remove_file(self.meta_path(stage)))?;
        std::fs::write(self.payload_path(stage), &bytes)?;
        std::fs::write(
            self.meta_path(stage),
            serde_json::to_vec(&meta).expect("meta serializes"),
        )
    }

    /// Directory holding the content-addressed observation checkpoint.
    pub fn observations_dir(&self) -> PathBuf {
        self.dir.join("observations")
    }

    /// Checkpoint a columnar observation store incrementally: the
    /// dictionary and every chunk are written to files *named by their
    /// content hash* (already computed when the store was sealed — no
    /// re-hashing here), so a part whose file already exists is skipped
    /// without being re-serialized. A store that shares chunks with the
    /// previous checkpoint only pays for the chunks that changed; an
    /// identical store writes nothing but the manifest. Once the new
    /// manifest is written, every part it does not list is deleted, so
    /// the directory holds exactly the live checkpoint.
    ///
    /// Returns the number of part files actually written.
    pub fn save_observations(&self, store: &ObservationStore) -> std::io::Result<usize> {
        let dir = self.observations_dir();
        std::fs::create_dir_all(&dir)?;
        let manifest = store.manifest();
        let parts = part_names(&manifest);
        let mut written = 0usize;
        for (i, name) in parts.iter().enumerate() {
            let path = dir.join(name);
            if !path.exists() {
                // Part 0 is the dictionary, part `c + 1` is chunk `c`.
                let bytes = match i {
                    0 => store.encode_dict(),
                    c => store.encode_chunk(c - 1),
                };
                std::fs::write(&path, bytes)?;
                written += 1;
            }
        }
        // Manifest last: a crash mid-write leaves either the previous
        // manifest with all of its parts, or none.
        std::fs::write(
            dir.join(MANIFEST),
            serde_json::to_vec(&manifest).expect("manifest serializes"),
        )?;
        // Only now are the previous manifest's parts unreachable. A part
        // that fails to delete is garbage no load ever reads.
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != MANIFEST && !parts.contains(&name) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(written)
    }

    /// Load the observation checkpoint written by
    /// [`save_observations`](Self::save_observations), re-verifying every
    /// part against the manifest's content hashes. Any missing, corrupt,
    /// or undecodable part yields `None` — recompute rather than trust
    /// damaged state.
    pub fn load_observations(&self) -> Option<ObservationStore> {
        let dir = self.observations_dir();
        let manifest: StoreManifest =
            serde_json::from_slice(&std::fs::read(dir.join(MANIFEST)).ok()?).ok()?;
        let mut parts = part_names(&manifest)
            .into_iter()
            .map(|name| std::fs::read(dir.join(name)).ok());
        let dict = parts.next()??;
        let chunks: Vec<Vec<u8>> = parts.collect::<Option<_>>()?;
        ObservationStore::from_parts(&manifest, &dict, &chunks).ok()
    }
}

/// File name of the observation log's manifest.
const MANIFEST: &str = "manifest.json";

/// File names of the parts a manifest lists: the dictionary first, then
/// every chunk in order.
fn part_names(manifest: &StoreManifest) -> Vec<String> {
    std::iter::once(format!("dict-{:016x}.bin", manifest.dict_hash))
        .chain(
            manifest
                .chunk_hashes
                .iter()
                .map(|hash| format!("chunk-{hash:016x}.bin")),
        )
        .collect()
}

/// Treat a missing file as already removed.
fn ignore_missing(result: std::io::Result<()>) -> std::io::Result<()> {
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            config: 11,
            inputs: 22,
        }
    }

    /// A fresh store in a directory of its own: tests run in parallel,
    /// so each call takes the next number from a process-wide counter.
    fn store() -> CheckpointStore {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "retrodns-ckpt-unit-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    #[test]
    fn save_load_round_trip() {
        let s = store();
        s.save("maps", &fp(), &vec![1u32, 2, 3]).unwrap();
        let back: Vec<u32> = s.load("maps", &fp()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn observation_checkpoints_are_incremental() {
        use retrodns_cert::CertId;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let rows = |n: usize| -> Vec<DomainObservation> {
            (0..n)
                .map(|i| DomainObservation {
                    // A fixed pool of domains/certs keeps the dictionary
                    // identical when more rows are appended.
                    domain: format!("d{:05}.example.com", i % 1024).parse().unwrap(),
                    date: Day((i / 1024) as u32 * 7),
                    ip: Ipv4Addr(i as u32),
                    asn: Some(Asn(13335)),
                    country: "US".parse().ok(),
                    cert: CertId((i % 1024) as u64),
                    trusted: true,
                })
                .collect()
        };
        let dir = std::env::temp_dir().join(format!("retrodns-ckpt-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = CheckpointStore::open(dir).unwrap();
        let chunk = retrodns_store::CHUNK_ROWS;
        // The directory holds exactly the manifest and the live parts.
        let files_are = |store: &ObservationStore| {
            let mut on_disk: Vec<String> = std::fs::read_dir(s.observations_dir())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            on_disk.sort();
            let mut live = part_names(&store.manifest());
            live.push(MANIFEST.to_string());
            live.sort();
            assert_eq!(on_disk, live);
        };

        // Two chunks (one full, one half): first save writes dict + both.
        let a = ObservationStore::from_observations(&rows(chunk + chunk / 2)).unwrap();
        assert_eq!(s.save_observations(&a).unwrap(), 3);
        // Identical store: nothing to write.
        assert_eq!(s.save_observations(&a).unwrap(), 0);
        assert_eq!(s.load_observations().unwrap(), a);
        files_are(&a);

        // Grow the data: chunk 0 and the dictionary are unchanged (the
        // appended rows reuse existing domains/certs), so only the
        // changed tail chunk and the new third chunk are written.
        let b = ObservationStore::from_observations(&rows(2 * chunk + 100)).unwrap();
        assert_eq!(b.chunk_hashes()[0], a.chunk_hashes()[0]);
        assert_eq!(s.save_observations(&b).unwrap(), 2);
        assert_eq!(s.load_observations().unwrap(), b);
        // The replaced tail chunk is gone; the shared chunk 0 stays.
        files_are(&b);

        // A damaged part is detected: the load refuses rather than
        // resuming from corrupt observations.
        let path = s
            .observations_dir()
            .join(format!("chunk-{:016x}.bin", b.chunk_hashes()[1]));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.load_observations().is_none());
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn fingerprint_mismatch_invalidates() {
        let s = store();
        s.save("maps", &fp(), &vec![1u32]).unwrap();
        let other = Fingerprint {
            config: 99,
            inputs: 22,
        };
        assert_eq!(
            s.load::<Vec<u32>>("maps", &other).unwrap_err(),
            InvalidReason::ConfigChanged
        );
        let other = Fingerprint {
            config: 11,
            inputs: 99,
        };
        assert_eq!(
            s.load::<Vec<u32>>("maps", &other).unwrap_err(),
            InvalidReason::InputsChanged
        );
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn corrupt_payload_detected() {
        let s = store();
        s.save("maps", &fp(), &vec![1u32, 2, 3]).unwrap();
        let path = s.payload_path("maps");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            s.load::<Vec<u32>>("maps", &fp()).unwrap_err(),
            InvalidReason::Corrupt
        );
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn older_format_version_is_refused() {
        use crate::incremental::{IncrementalAnalyzer, INCREMENTAL_STAGE};
        use crate::pipeline::PipelineConfig;

        // Version 2 is the last format whose record carried the maps and
        // patterns; its envelope must not validate today's payload.
        let downgrade = |s: &CheckpointStore, stage: &str| {
            let path = s.meta_path(stage);
            let mut meta: StageMeta =
                serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
            meta.version = 2;
            std::fs::write(&path, serde_json::to_vec(&meta).unwrap()).unwrap();
        };
        let s = store();
        s.save("maps", &fp(), &vec![1u32]).unwrap();
        downgrade(&s, "maps");
        assert_eq!(
            s.load::<Vec<u32>>("maps", &fp()).unwrap_err(),
            InvalidReason::Version
        );

        let config = PipelineConfig::default();
        IncrementalAnalyzer::new(config.clone())
            .checkpoint(&s)
            .unwrap();
        assert!(IncrementalAnalyzer::resume(config.clone(), &s).is_some());
        downgrade(&s, INCREMENTAL_STAGE);
        assert!(IncrementalAnalyzer::resume(config, &s).is_none());
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn clear_removes_the_analyzer_checkpoint() {
        use crate::incremental::IncrementalAnalyzer;
        use crate::pipeline::{AnalystInputs, PipelineConfig};
        use retrodns_sim::{SimConfig, World};

        let world = World::build(SimConfig {
            n_domains: 200,
            ..SimConfig::small(0xC1EA)
        });
        let observations = world.observations(&world.scan());
        let inputs = AnalystInputs {
            observations: &observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: &world.pdns,
            crtsh: &world.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: None,
        };
        let config = PipelineConfig {
            window: world.config.window.clone(),
            ..PipelineConfig::default()
        };
        let first = observations.iter().map(|o| o.date).min().unwrap();
        let week: Vec<_> = observations
            .iter()
            .filter(|o| o.date == first)
            .cloned()
            .collect();
        let mut analyzer = IncrementalAnalyzer::new(config.clone());
        analyzer.ingest_week(&week, &inputs);

        let s = store();
        analyzer.checkpoint(&s).unwrap();
        std::fs::write(s.dir().join("report.json"), b"{}").unwrap();
        assert!(IncrementalAnalyzer::resume(config.clone(), &s).is_some());
        s.clear().unwrap();
        assert!(IncrementalAnalyzer::resume(config, &s).is_none());
        assert!(!s.observations_dir().exists(), "observation parts survived");
        let left: Vec<String> = std::fs::read_dir(s.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, ["report.json"], "clear touched only stage files");
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn inputs_fingerprint_is_order_and_field_sensitive() {
        use retrodns_cert::CertId;
        use retrodns_types::{Day, Ipv4Addr};
        let obs = |dom: &str, date: u32| DomainObservation {
            domain: dom.parse().unwrap(),
            date: Day(date),
            ip: Ipv4Addr(1),
            asn: None,
            country: None,
            cert: CertId(5),
            trusted: false,
        };
        let a = vec![obs("a.com", 1), obs("b.com", 2)];
        let b = vec![obs("b.com", 2), obs("a.com", 1)];
        assert_ne!(inputs_fingerprint(&a), inputs_fingerprint(&b));
        let mut c = a.clone();
        c[0].date = Day(3);
        assert_ne!(inputs_fingerprint(&a), inputs_fingerprint(&c));
        assert_eq!(inputs_fingerprint(&a), inputs_fingerprint(&a.clone()));
    }
}
