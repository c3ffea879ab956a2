//! Checkpoints for the streaming analyzer.
//!
//! There is one checkpoint format: the
//! [`IncrementalAnalyzer`](crate::incremental::IncrementalAnalyzer)'s
//! per-week checkpoint. After each ingested week,
//! [`checkpoint`](crate::incremental::IncrementalAnalyzer::checkpoint)
//! saves the quarantine-kept observation log and a small record
//! (quarantine histogram, week count, last date, report) into a
//! [`CheckpointStore`]; a killed stream
//! [`resume`](crate::incremental::IncrementalAnalyzer::resume)s from the
//! last completed week by rebuilding maps and patterns from the log, and
//! still produces a `Report` byte-identical to an uninterrupted run (see
//! `DESIGN.md` §7 and §11). A batch
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) writes no
//! checkpoints: rerunning it is cheaper than loading snapshots would be.
//!
//! ## On-disk format
//!
//! * `observations/dict-<hash>.bin`, `observations/chunk-<hash>.bin` — the
//!   log's parts, named by their content hash, so a save writes only the
//!   parts not already on disk;
//! * `checkpoint.json` — the commit: `{"hash":"<16 hex>","checkpoint":B}`,
//!   where `B` holds the format version, the config fingerprint, the log's
//!   [`StoreManifest`] and the record, and `hash` is the BKDR hash of
//!   `B`'s bytes.
//!
//! A save writes the missing parts, then replaces `checkpoint.json` in one
//! [`write_atomic`], and only then deletes the parts the new manifest does
//! not list (and the two record files a format ≤ 3 checkpoint kept beside
//! its log, if they are still there). A crash at any point leaves the
//! previous commit with all of its parts, or the new one with all of its
//! parts. A load is valid only if the commit hashes to its header, its
//! version and config fingerprint match, and every part matches its
//! manifest hash; anything else — a version bump, changed thresholds, a
//! truncated or bit-flipped byte anywhere — fails the load, and the
//! caller starts over rather than trusting damaged state.

use crate::durable::{remove_tmp_files, write_atomic};
use retrodns_store::{ObservationStore, StoreManifest};
use retrodns_types::hash::bytes_hash;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped whenever the commit's serialized shape changes; old checkpoints
/// are then invalid wholesale. Version 4 folded the log manifest, the
/// record and its envelope into one `checkpoint.json`.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 4;

/// File name of the commit.
const CHECKPOINT_FILE: &str = "checkpoint.json";

/// The files a format ≤ 3 checkpoint kept beside its log (the record and
/// its envelope). No load reads them; a save removes them.
const LEGACY_FILES: [&str; 2] = ["stage_incremental.json", "stage_incremental.meta.json"];

/// What `checkpoint.json` commits, inside its hash header.
#[derive(Debug, Serialize, Deserialize)]
struct Commit<R> {
    version: u32,
    config_hash: u64,
    manifest: StoreManifest,
    record: R,
}

/// Fingerprint a pipeline configuration (any serializable config works;
/// the pipeline passes its full `PipelineConfig`).
pub fn config_fingerprint<C: Serialize>(config: &C) -> u64 {
    let bytes = serde_json::to_vec(config).expect("config serializes");
    bytes_hash(&bytes)
}

/// Why a checkpoint failed to load (diagnostic; resume treats every
/// variant the same — start over).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidReason {
    /// No `checkpoint.json`.
    Missing,
    /// The commit's bytes do not hash to its header, or the header is
    /// malformed.
    Corrupt,
    /// The commit hashed correctly but failed to deserialize.
    Undeserializable,
    /// Format version mismatch.
    Version,
    /// Config fingerprint mismatch (thresholds changed between runs).
    ConfigChanged,
    /// A log part is missing, or does not match its manifest hash.
    BadLog,
}

/// A checkpoint directory for one stream. It holds exactly one
/// checkpoint: each [`save`](Self::save) replaces the previous one.
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

    /// Directory holding the log's content-addressed parts.
    fn observations_dir(&self) -> PathBuf {
        self.dir.join("observations")
    }

    /// The part files a checkpoint of a log with `manifest` consists of:
    /// the dictionary first, then every chunk in order.
    pub fn part_paths(&self, manifest: &StoreManifest) -> Vec<PathBuf> {
        let dir = self.observations_dir();
        part_names(manifest)
            .into_iter()
            .map(|name| dir.join(name))
            .collect()
    }

    /// Remove the checkpoint — `checkpoint.json` and the observation
    /// parts — so nothing from an earlier run can be resumed (fresh-run
    /// semantics). Other files in the directory are left alone.
    pub fn clear(&self) -> std::io::Result<()> {
        ignore_missing(std::fs::remove_file(self.dir.join(CHECKPOINT_FILE)))?;
        ignore_missing(std::fs::remove_dir_all(self.observations_dir()))
    }

    /// Replace the checkpoint with `log` and `record`, bound to
    /// `config_hash`. Parts already on disk are skipped without being
    /// re-encoded (their names are the content hashes the store computed
    /// when it sealed them), so a log that shares chunks with the previous
    /// checkpoint only pays for the chunks that changed. Returns the
    /// number of part files written.
    pub fn save<R: Serialize>(
        &self,
        config_hash: u64,
        log: &ObservationStore,
        record: &R,
    ) -> std::io::Result<usize> {
        let dir = self.observations_dir();
        std::fs::create_dir_all(&dir)?;
        let manifest = log.manifest();
        let parts = part_names(&manifest);
        let mut written = 0usize;
        for (i, name) in parts.iter().enumerate() {
            let path = dir.join(name);
            if !path.exists() {
                // Part 0 is the dictionary, part `c + 1` is chunk `c`.
                let bytes = match i {
                    0 => log.encode_dict(),
                    c => log.encode_chunk(c - 1),
                };
                write_atomic(&path, &bytes)?;
                written += 1;
            }
        }
        // The commit point: until this rename the previous checkpoint is
        // the valid one, and all of its parts are still on disk.
        let body = serde_json::to_vec(&Commit {
            version: CHECKPOINT_FORMAT_VERSION,
            config_hash,
            manifest,
            record,
        })
        .expect("checkpoint serializes");
        let mut file = header(&body).into_bytes();
        file.extend_from_slice(&body);
        file.push(b'}');
        write_atomic(&self.dir.join(CHECKPOINT_FILE), &file)?;
        // Only now are the previous checkpoint's parts unreachable. A file
        // that fails to delete is garbage no load ever reads; the next
        // save retries it. Nothing else writes these names (the store's
        // directory is held under a `DirLock`), so the sweep is safe.
        let _ = remove_tmp_files(&self.dir, CHECKPOINT_FILE);
        for legacy in LEGACY_FILES {
            let _ = std::fs::remove_file(self.dir.join(legacy));
        }
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name();
            if !parts.iter().any(|p| name == p.as_str()) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(written)
    }

    /// Load the checkpoint [`save`](Self::save) committed, verified: the
    /// commit against its hash header, version and `config_hash`, and
    /// every log part against its manifest hash.
    pub fn load<R: DeserializeOwned>(
        &self,
        config_hash: u64,
    ) -> Result<(ObservationStore, R), InvalidReason> {
        let file =
            std::fs::read(self.dir.join(CHECKPOINT_FILE)).map_err(|_| InvalidReason::Missing)?;
        let body = verified_body(&file).ok_or(InvalidReason::Corrupt)?;
        let commit: Commit<R> =
            serde_json::from_slice(body).map_err(|_| InvalidReason::Undeserializable)?;
        if commit.version != CHECKPOINT_FORMAT_VERSION {
            return Err(InvalidReason::Version);
        }
        if commit.config_hash != config_hash {
            return Err(InvalidReason::ConfigChanged);
        }
        let mut parts = self
            .part_paths(&commit.manifest)
            .into_iter()
            .map(|path| std::fs::read(path).map_err(|_| InvalidReason::BadLog));
        let dict = parts.next().ok_or(InvalidReason::BadLog)??;
        let chunks: Vec<Vec<u8>> = parts.collect::<Result<_, _>>()?;
        let log = ObservationStore::from_parts(&commit.manifest, &dict, &chunks)
            .map_err(|_| InvalidReason::BadLog)?;
        Ok((log, commit.record))
    }
}

/// The header that opens a commit file: its body's hash, in the first
/// field of a JSON object whose second field is the body.
fn header(body: &[u8]) -> String {
    format!("{{\"hash\":\"{:016x}\",\"checkpoint\":", bytes_hash(body))
}

/// Length of every [`header`]: 16 hex digits between fixed literals.
const HEADER_LEN: usize = 40;

/// The body of a commit file whose bytes hash to its header, or `None`.
fn verified_body(file: &[u8]) -> Option<&[u8]> {
    let body = file.get(HEADER_LEN..)?.strip_suffix(b"}")?;
    (file[..HEADER_LEN] == *header(body).as_bytes()).then_some(body)
}

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
    use retrodns_scan::DomainObservation;

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

    /// A log of `n` rows over a fixed pool of domains and certificates,
    /// so the dictionary stays identical as more rows are appended.
    fn log(n: usize) -> ObservationStore {
        use retrodns_cert::CertId;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let rows: Vec<DomainObservation> = (0..n)
            .map(|i| DomainObservation {
                domain: format!("d{:05}.example.com", i % 1024).parse().unwrap(),
                date: Day((i / 1024) as u32 * 7),
                ip: Ipv4Addr(i as u32),
                asn: Some(Asn(13335)),
                country: "US".parse().ok(),
                cert: CertId((i % 1024) as u64),
                trusted: true,
            })
            .collect();
        ObservationStore::from_observations(&rows).unwrap()
    }

    /// Every file under the store's directory, relative and sorted.
    fn files(s: &CheckpointStore) -> Vec<String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(s.dir()).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type().unwrap().is_dir() {
                for part in std::fs::read_dir(entry.path()).unwrap() {
                    let part = part.unwrap().file_name();
                    out.push(format!("{name}/{}", part.to_string_lossy()));
                }
            } else {
                out.push(name);
            }
        }
        out.sort();
        out
    }

    /// The files a checkpoint of `log` consists of.
    fn live(log: &ObservationStore) -> Vec<String> {
        let mut out: Vec<String> = part_names(&log.manifest())
            .into_iter()
            .map(|p| format!("observations/{p}"))
            .collect();
        out.push(CHECKPOINT_FILE.to_string());
        out.sort();
        out
    }

    /// Copy `from`'s checkpoint files into `to` without deleting any: the
    /// parts only, or the commit too.
    fn copy_checkpoint(from: &CheckpointStore, to: &CheckpointStore, commit: bool) {
        std::fs::create_dir_all(to.observations_dir()).unwrap();
        for name in files(from) {
            if commit || name != CHECKPOINT_FILE {
                std::fs::copy(from.dir().join(&name), to.dir().join(&name)).unwrap();
            }
        }
    }

    /// Rewrite the commit's body through `edit`, under a fresh, valid
    /// hash header.
    fn edit_commit(s: &CheckpointStore, edit: impl FnOnce(String) -> String) {
        let path = s.dir().join(CHECKPOINT_FILE);
        let file = std::fs::read(&path).unwrap();
        let body = edit(String::from_utf8(verified_body(&file).unwrap().to_vec()).unwrap());
        std::fs::write(&path, format!("{}{body}}}", header(body.as_bytes()))).unwrap();
    }

    #[test]
    fn save_load_round_trip_leaves_only_the_live_files() {
        let s = store();
        let a = log(100);
        s.save(11, &a, &vec![1u32, 2, 3]).unwrap();
        let (back, record) = s.load::<Vec<u32>>(11).unwrap();
        assert_eq!(back, a);
        assert_eq!(record, vec![1, 2, 3]);
        assert_eq!(files(&s), live(&a));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn saves_write_only_changed_parts() {
        let s = store();
        let chunk = retrodns_store::CHUNK_ROWS;
        // Two chunks (one full, one half): first save writes dict + both.
        let a = log(chunk + chunk / 2);
        assert_eq!(s.save(1, &a, &0u32).unwrap(), 3);
        // Identical log: nothing but the commit to write.
        assert_eq!(s.save(1, &a, &1u32).unwrap(), 0);
        assert_eq!(s.load::<u32>(1).unwrap(), (a.clone(), 1));
        assert_eq!(files(&s), live(&a));

        // Grow the log: chunk 0 and the dictionary are unchanged (the
        // appended rows reuse existing domains/certs), so only the
        // changed tail chunk and the new third chunk are written.
        let b = log(2 * chunk + 100);
        assert_eq!(b.chunk_hashes()[0], a.chunk_hashes()[0]);
        assert_eq!(s.save(1, &b, &2u32).unwrap(), 2);
        assert_eq!(s.load::<u32>(1).unwrap(), (b.clone(), 2));
        // The replaced tail chunk is gone; the shared chunk 0 stays.
        assert_eq!(files(&s), live(&b));

        // A damaged part is detected: the load refuses rather than
        // resuming from corrupt observations.
        let path = s
            .observations_dir()
            .join(format!("chunk-{:016x}.bin", b.chunk_hashes()[1]));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(s.load::<u32>(1).unwrap_err(), InvalidReason::BadLog);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    /// `save` trusts a part already on disk by its name, so re-saving the
    /// same log keeps a damaged part. A save that does not list the part
    /// sweeps it — what a stream restarted from its first week does — and
    /// the next save of the full log writes it afresh.
    #[test]
    fn a_damaged_part_is_swept_by_a_save_that_does_not_list_it() {
        let s = store();
        let full = log(2 * retrodns_store::CHUNK_ROWS + 100);
        s.save(1, &full, &0u32).unwrap();
        // Part 0 is the dictionary, part 2 is chunk 1.
        let damaged = s.part_paths(&full.manifest()).swap_remove(2);
        let mut bytes = std::fs::read(&damaged).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&damaged, &bytes).unwrap();
        assert_eq!(s.load::<u32>(1).unwrap_err(), InvalidReason::BadLog);
        assert_eq!(s.save(1, &full, &1u32).unwrap(), 0);
        assert_eq!(s.load::<u32>(1).unwrap_err(), InvalidReason::BadLog);

        let week = log(1024);
        s.save(1, &week, &2u32).unwrap();
        assert!(!damaged.exists(), "the damaged part survived the sweep");
        assert_eq!(files(&s), live(&week));
        s.save(1, &full, &3u32).unwrap();
        assert_eq!(s.load::<u32>(1).unwrap(), (full, 3));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn mismatches_invalidate() {
        let s = store();
        assert_eq!(s.load::<u32>(11).unwrap_err(), InvalidReason::Missing);
        s.save(11, &log(10), &7u32).unwrap();
        assert_eq!(s.load::<u32>(99).unwrap_err(), InvalidReason::ConfigChanged);
        assert_eq!(
            s.load::<String>(11).unwrap_err(),
            InvalidReason::Undeserializable
        );
        // Version 3 is the last format with a separate manifest and
        // envelope; a commit claiming it must not load.
        edit_commit(&s, |body| {
            body.replacen("\"version\":4", "\"version\":3", 1)
        });
        assert_eq!(s.load::<u32>(11).unwrap_err(), InvalidReason::Version);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn a_changed_commit_byte_is_detected() {
        let s = store();
        s.save(11, &log(10), &vec![1u32, 2, 3]).unwrap();
        let path = s.dir().join(CHECKPOINT_FILE);
        let good = std::fs::read(&path).unwrap();
        // Bit 5 of the first hash digit (which turns a hex letter into
        // its capital, the same value), a body byte, the closing brace.
        for (pos, flip) in [(9, 0x20), (HEADER_LEN + 3, 0x01), (good.len() - 1, 0x02)] {
            let mut bytes = good.clone();
            bytes[pos] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(
                s.load::<Vec<u32>>(11).unwrap_err(),
                InvalidReason::Corrupt,
                "flip at byte {pos}"
            );
        }
        let _ = std::fs::remove_dir_all(s.dir());
    }

    /// A save killed after writing the new parts but before its commit
    /// leaves the previous checkpoint loadable.
    #[test]
    fn crash_before_the_commit_loads_the_previous_week() {
        let chunk = retrodns_store::CHUNK_ROWS;
        let (a, b) = (log(chunk / 2), log(chunk + 10));
        let s = store();
        s.save(1, &a, &10u32).unwrap();
        let next = store();
        next.save(1, &b, &11u32).unwrap();
        copy_checkpoint(&next, &s, false);
        assert_eq!(s.load::<u32>(1).unwrap(), (a, 10));
        // The next save commits over the debris and sweeps it.
        s.save(1, &b, &11u32).unwrap();
        assert_eq!(files(&s), live(&b));
        let _ = std::fs::remove_dir_all(s.dir());
        let _ = std::fs::remove_dir_all(next.dir());
    }

    /// A save killed after its commit but before it deleted the parts it
    /// replaced leaves the new checkpoint loadable.
    #[test]
    fn crash_after_the_commit_loads_the_new_week() {
        let chunk = retrodns_store::CHUNK_ROWS;
        let (a, b) = (log(chunk / 2), log(chunk + 10));
        let s = store();
        s.save(1, &a, &10u32).unwrap();
        let next = store();
        next.save(1, &b, &11u32).unwrap();
        copy_checkpoint(&next, &s, true);
        assert_ne!(files(&s), live(&b), "the old tail chunk is still there");
        assert_eq!(s.load::<u32>(1).unwrap(), (b.clone(), 11));
        s.save(1, &b, &11u32).unwrap();
        assert_eq!(files(&s), live(&b));
        let _ = std::fs::remove_dir_all(s.dir());
        let _ = std::fs::remove_dir_all(next.dir());
    }

    /// A save killed between writing its commit's tmp file and renaming
    /// it leaves the tmp file, which loads ignore and the next save
    /// removes.
    #[test]
    fn a_leftover_commit_tmp_is_ignored_then_swept() {
        let (a, b) = (log(10), log(20));
        let s = store();
        s.save(1, &a, &10u32).unwrap();
        let tmp = s.dir().join(format!("{CHECKPOINT_FILE}.tmp.7"));
        std::fs::write(&tmp, b"{\"hash\":\"0").unwrap();
        assert_eq!(s.load::<u32>(1).unwrap(), (a, 10));
        s.save(1, &b, &11u32).unwrap();
        assert!(!tmp.exists(), "the orphaned commit tmp survived a save");
        assert_eq!(files(&s), live(&b));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    /// A directory last written before format 4 still holds the old
    /// record files; the first save removes exactly those two names.
    #[test]
    fn save_removes_the_legacy_record_files_and_nothing_else() {
        let s = store();
        for name in LEGACY_FILES.iter().chain(&["notes.txt"]) {
            std::fs::write(s.dir().join(name), b"{}").unwrap();
        }
        let a = log(10);
        s.save(1, &a, &10u32).unwrap();
        let mut expected = live(&a);
        expected.push("notes.txt".to_string());
        expected.sort();
        assert_eq!(files(&s), expected);
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
        let week = &crate::incremental::week_batches(&observations)[0];
        let mut analyzer = IncrementalAnalyzer::new(config.clone());
        analyzer.ingest_week(week, &inputs);

        let s = store();
        analyzer.checkpoint(&s).unwrap();
        std::fs::write(s.dir().join("report.json"), b"{}").unwrap();
        assert!(IncrementalAnalyzer::resume(config.clone(), &s).is_some());
        s.clear().unwrap();
        assert!(IncrementalAnalyzer::resume(config, &s).is_none());
        assert_eq!(files(&s), ["report.json"], "clear touched other files");
        let _ = std::fs::remove_dir_all(s.dir());
    }
}
