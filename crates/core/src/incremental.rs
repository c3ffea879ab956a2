//! Incremental week-at-a-time ingestion (§7.1 direction).
//!
//! The batch pipeline re-consumes the entire scan history on every run;
//! this module ingests one new scan batch (typically a week) at a time
//! and keeps the deployment maps, classifications, shortlist, and report
//! current in O(changes) rather than O(history):
//!
//! * **Quarantine** validates only the new batch; rejection reasons are
//!   per-record, so per-week histograms accumulate to the batch
//!   histogram exactly.
//! * **Map build** goes through
//!   [`MapBuilder::append_scan`](crate::map::MapBuilder::append_scan):
//!   only maps whose observation set changed are touched, and the merge is
//!   provably identical to relinking the full history under the stream
//!   discipline (appended dates strictly exceed everything ingested).
//! * **Classify** re-runs only on the dirty maps reported by the append,
//!   through the pipeline's one guarded per-map classify: a map whose
//!   classification panics holds `Pattern::Unclassified` and is counted
//!   under `funnel.quarantined.worker_panic`, recounted every week, as the
//!   batch run counts it — never a panic out of the stream.
//! * **Shortlist/inspect/pivot** re-run over the updated state through
//!   the batch pipeline's own tail (`Pipeline::analyze_classified`; they are
//!   O(maps), a small fraction of O(observations) — the repeat-period
//!   and T1* checks are inherently cross-week, so their inputs cannot
//!   be windowed without changing verdicts).
//! * The resulting [`Report`] is byte-identical (as JSON) to a batch
//!   [`Pipeline::run`] over the concatenated history on fault-free
//!   inputs, at any worker count — `tests/streaming_equivalence.rs`
//!   pins this with golden tests and proptests.
//!
//! Each ingested week yields a [`WeekDelta`] — the verdict changes the
//! week introduced, the feed serve's `/jobs/{id}/deltas` and `/watch`
//! routes read. Deltas compose: replaying them over the week-0 report
//! reconstructs the final report exactly.
//!
//! Persistence is the system's one checkpoint format (see
//! `core::checkpoint`), and the kept-row observation log *is* the
//! durable state: each [`IncrementalAnalyzer::checkpoint`] writes the
//! log's changed content-addressed parts (see [`ObservationStore::append`])
//! and then commits, in one atomic file, the log's manifest beside a small
//! record — quarantine histogram, week count, last date and the report.
//! Maps and patterns are never written: [`IncrementalAnalyzer::resume`]
//! rebuilds them from the log through the batch run's own stages-1–2
//! path (`Pipeline::build_and_classify`).
//! A killed analyzer resumes from the last committed week. The record does
//! not say whose data the log came from, so [`WeeklyStream`] — the one
//! weekly driver, which both `analyze --stream` and serve jobs run —
//! resumes a checkpoint only when its log and quarantine histogram match
//! the data's first weeks, and otherwise streams afresh. On
//! the 2 000-domain benchmark world a weekly checkpoint writes ~0.4 MB
//! (the log's tail chunk and dictionary) instead of the ~6 MB the maps
//! and patterns took, and a resume half-way through the study costs
//! about a third of what loading them did.

use crate::checkpoint::{config_fingerprint, CheckpointStore};
use crate::classify::Pattern;
use crate::durable::write_atomic;
use crate::inspect::{DegradedVerdict, DetectedHijack, DetectedTarget};
use crate::lock::DirLock;
use crate::map::{sorted_selection, ColSource, DeploymentMap};
use crate::metrics::MetricsRegistry;
use crate::pipeline::{quarantine, AnalystInputs, FunnelStats, Pipeline, PipelineConfig, Report};
use retrodns_scan::DomainObservation;
use retrodns_store::{DictCodes, ObservationStore, StoreBuilder};
use retrodns_types::{Day, DomainName};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Slice observations into per-scan-date batches, oldest first: the
/// weeks a stream feeds to [`IncrementalAnalyzer::ingest_week`]. The
/// slicing is deterministic, so batch `i` is batch `i` again on every
/// resume.
pub fn week_batches(observations: &[DomainObservation]) -> Vec<Vec<DomainObservation>> {
    let mut by_date: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
    for o in observations {
        by_date.entry(o.date).or_default().push(o.clone());
    }
    by_date.into_values().collect()
}

/// The verdict changes one ingested week introduced, relative to the
/// report before it. Keyed by domain (reports hold at most one hijack
/// and one target verdict per domain); [`apply`](WeekDelta::apply)
/// replays a delta over the prior report to reconstruct the next one
/// exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeekDelta {
    /// Zero-based index of the ingested batch in the stream.
    pub week: u32,
    /// Latest scan date the batch carried (`Day(0)` for an empty batch).
    pub date: Day,
    /// Hijack verdicts that appeared or changed this week.
    pub hijacked_upserts: Vec<DetectedHijack>,
    /// Domains whose hijack verdict disappeared this week.
    pub hijacked_removed: Vec<DomainName>,
    /// Target verdicts that appeared or changed this week.
    pub targeted_upserts: Vec<DetectedTarget>,
    /// Domains whose target verdict disappeared this week (including
    /// promotions to hijacked).
    pub targeted_removed: Vec<DomainName>,
    /// Full replacement for [`Report::degraded`] when it changed, else
    /// `None`. Degraded verdicts are not unique per domain, so they
    /// cannot be keyed like the verdict lists; fault-free streams never
    /// produce any, so the replacement is almost always `None` or tiny.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub degraded: Option<Vec<DegradedVerdict>>,
    /// The funnel after this week (population counters move every week,
    /// so the funnel is carried wholesale rather than diffed).
    pub funnel: FunnelStats,
}

impl WeekDelta {
    /// Diff two consecutive reports into the delta that turns `old`
    /// into `new`.
    pub fn between(week: u32, date: Day, old: &Report, new: &Report) -> WeekDelta {
        fn diff<T: Clone + PartialEq>(
            old: &[T],
            new: &[T],
            domain: impl Fn(&T) -> &DomainName,
        ) -> (Vec<T>, Vec<DomainName>) {
            let old_by: BTreeMap<&DomainName, &T> = old.iter().map(|v| (domain(v), v)).collect();
            let new_by: BTreeMap<&DomainName, &T> = new.iter().map(|v| (domain(v), v)).collect();
            let upserts = new
                .iter()
                .filter(|v| old_by.get(domain(v)) != Some(v))
                .cloned()
                .collect();
            let removed = old
                .iter()
                .map(domain)
                .filter(|d| !new_by.contains_key(*d))
                .cloned()
                .collect();
            (upserts, removed)
        }
        let (hijacked_upserts, hijacked_removed) =
            diff(&old.hijacked, &new.hijacked, |h: &DetectedHijack| &h.domain);
        let (targeted_upserts, targeted_removed) =
            diff(&old.targeted, &new.targeted, |t: &DetectedTarget| &t.domain);
        WeekDelta {
            week,
            date,
            hijacked_upserts,
            hijacked_removed,
            targeted_upserts,
            targeted_removed,
            degraded: (old.degraded != new.degraded).then(|| new.degraded.clone()),
            funnel: new.funnel.clone(),
        }
    }

    /// Replay this delta over `report` (the report the delta was diffed
    /// against), producing the next week's report in place. Verdicts are
    /// rebuilt through a domain-keyed `BTreeMap`, which is exactly the
    /// ordering the pipeline's dedup stage produces — so a replayed
    /// report serializes byte-identically to the analyzed one.
    pub fn apply(&self, report: &mut Report) {
        fn patch<T: Clone>(
            into: &mut Vec<T>,
            upserts: &[T],
            removed: &[DomainName],
            domain: impl Fn(&T) -> DomainName,
        ) {
            let mut by: BTreeMap<DomainName, T> = into.drain(..).map(|v| (domain(&v), v)).collect();
            for d in removed {
                by.remove(d);
            }
            for v in upserts {
                by.insert(domain(v), v.clone());
            }
            *into = by.into_values().collect();
        }
        patch(
            &mut report.hijacked,
            &self.hijacked_upserts,
            &self.hijacked_removed,
            |h| h.domain.clone(),
        );
        patch(
            &mut report.targeted,
            &self.targeted_upserts,
            &self.targeted_removed,
            |t| t.domain.clone(),
        );
        if let Some(d) = &self.degraded {
            report.degraded = d.clone();
        }
        report.funnel = self.funnel.clone();
    }

    /// Did this week change any verdict (as opposed to only moving
    /// population counters)?
    pub fn has_verdict_changes(&self) -> bool {
        !self.hijacked_upserts.is_empty()
            || !self.hijacked_removed.is_empty()
            || !self.targeted_upserts.is_empty()
            || !self.targeted_removed.is_empty()
            || self.degraded.is_some()
    }
}

/// The analyzer's checkpoint record: what the observation log cannot
/// rebuild. Maps and patterns are not in it — [`IncrementalAnalyzer::resume`]
/// rebuilds them from the log through the batch engine — but the report
/// is: resume has no corroboration sources to recompute stages 3–5 with,
/// and the first [`WeekDelta`] after a resume diffs against it. The
/// stage-0 histogram is kept beside it: rejected rows are not in the
/// log, and `report.funnel.quarantined` also counts the classify and
/// inspect stages' panics, which each week recounts from scratch.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IncrementalState {
    quarantined: BTreeMap<String, usize>,
    weeks: u32,
    last_date: Option<Day>,
    report: Report,
}

/// Streaming analyzer: feed it one scan batch at a time and it keeps a
/// [`Report`] current that is byte-identical to batch-analyzing the
/// concatenated history. See the module docs for the dataflow and
/// `DESIGN.md` §11 for the dirty-set propagation argument.
#[derive(Debug, Clone)]
pub struct IncrementalAnalyzer {
    pipeline: Pipeline,
    maps: Vec<DeploymentMap>,
    patterns: Vec<Pattern>,
    quarantined: BTreeMap<String, usize>,
    weeks: u32,
    last_date: Option<Day>,
    report: Report,
    log: ObservationStore,
    /// Interning tables mirroring `log`'s dictionaries, carried across
    /// appends so the weekly write stays O(batch), not O(dictionary).
    log_codes: DictCodes,
}

impl IncrementalAnalyzer {
    /// A fresh analyzer (no weeks ingested) for `config`.
    pub fn new(config: PipelineConfig) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            pipeline: Pipeline::new(config),
            maps: Vec::new(),
            patterns: Vec::new(),
            quarantined: BTreeMap::new(),
            weeks: 0,
            last_date: None,
            report: Report::default(),
            log: StoreBuilder::new().finish(),
            log_codes: DictCodes::default(),
        }
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.pipeline.config
    }

    /// The current report (after all ingested weeks).
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Number of batches ingested so far.
    pub fn weeks(&self) -> u32 {
        self.weeks
    }

    /// Did this analyzer ingest exactly the first [`weeks`](Self::weeks)
    /// of `batches`? Its log must fingerprint like those batches'
    /// quarantine-kept rows, and its quarantine histogram must match
    /// theirs. [`resume`](Self::resume) cannot tell whose data a
    /// checkpoint's log came from; [`WeeklyStream::open`] asks this
    /// before it carries on, and starts afresh on `false`.
    fn holds_first_batches(
        &self,
        batches: &[Vec<DomainObservation>],
        inputs: &AnalystInputs,
    ) -> bool {
        let Some(ingested) = batches.get(..self.weeks as usize) else {
            return false;
        };
        let mut kept_rows = Vec::new();
        let mut rejected: BTreeMap<String, usize> = BTreeMap::new();
        for batch in ingested {
            let (kept, reasons) = quarantine(batch, &self.pipeline.config.window, inputs.certs);
            kept_rows.extend_from_slice(&kept);
            for (reason, n) in reasons {
                *rejected.entry(reason).or_insert(0) += n;
            }
        }
        retrodns_store::rows_fingerprint(&kept_rows) == self.log.fingerprint()
            && rejected == self.quarantined
    }

    /// Latest scan date ingested, if any.
    pub fn last_date(&self) -> Option<Day> {
        self.last_date
    }

    /// Ingest one scan batch. Every observation date must be strictly
    /// greater than all previously ingested dates (the stream discipline
    /// [`MapBuilder::append_scan`](crate::map::MapBuilder::append_scan)
    /// requires); batches arriving in scan order — the natural feed —
    /// satisfy this.
    ///
    /// `inputs` supplies the corroboration sources (as-db, certificates,
    /// pDNS, CT, DNSSEC) — its `observations` field is ignored; the
    /// batch itself is the input. Returns the [`WeekDelta`] of verdict
    /// changes the batch introduced.
    pub fn ingest_week(&mut self, week: &[DomainObservation], inputs: &AnalystInputs) -> WeekDelta {
        self.ingest_week_metered(week, inputs, &mut MetricsRegistry::new())
    }

    /// [`ingest_week`](Self::ingest_week) recording per-ingest metrics
    /// into `metrics`: the `stage.{shortlist,inspect,pivot}` spans and
    /// samples, T1*/pivot counters, and source guard tallies.
    pub fn ingest_week_metered(
        &mut self,
        week: &[DomainObservation],
        inputs: &AnalystInputs,
        metrics: &mut MetricsRegistry,
    ) -> WeekDelta {
        let date = week.iter().map(|o| o.date).max().unwrap_or(Day(0));
        let cfg = &self.pipeline.config;

        // Stage 0 over the batch only. Reasons are per-record, so the
        // accumulated histogram equals the batch histogram; duplicates
        // cannot span weeks (a full-record repeat implies an equal scan
        // date, which the stream discipline forbids across batches).
        let (kept, rejected) = quarantine(week, &cfg.window, inputs.certs);
        for (reason, n) in rejected {
            *self.quarantined.entry(reason).or_insert(0) += n;
        }
        debug_assert!(
            self.last_date
                .is_none_or(|last| kept.iter().all(|o| o.date > last)),
            "stream discipline violated: batch dates must exceed all ingested dates"
        );
        self.log
            .append_with_codes(&kept, &mut self.log_codes)
            .expect("quarantine-kept dates fit the log epoch range");

        // Stage 1 in O(batch): merge the batch into the existing maps
        // and collect the dirty set.
        let outcome = self
            .pipeline
            .map_builder()
            .append_scan(&mut self.maps, &kept);

        // Stage 2 over the dirty set only. Inserted indices arrive
        // ascending and post-merge, so in-order insertion keeps
        // `patterns` parallel to `maps` throughout.
        for &i in &outcome.inserted {
            let pattern = self.pipeline.classify_one(&self.maps[i]);
            self.patterns.insert(i, pattern);
        }
        for &i in &outcome.updated {
            self.patterns[i] = self.pipeline.classify_one(&self.maps[i]);
        }

        // Stages 3–5 over the full state: these are O(maps) — the
        // repeat-period shortlist checks and the T1* confirmed-IP pass
        // are cross-week by construction, so their inputs cannot shrink
        // without changing verdicts.
        let report = self.pipeline.analyze_classified(
            &self.maps,
            &self.patterns,
            self.quarantined.clone(),
            inputs,
            metrics,
        );

        let delta = WeekDelta::between(self.weeks, date, &self.report, &report);
        self.report = report;
        self.weeks += 1;
        if !kept.is_empty() {
            self.last_date = Some(self.last_date.map_or(date, |d| d.max(date)));
        }
        delta
    }

    /// Persist the analyzer into `store`, replacing its checkpoint: the
    /// kept-row observation log (parts already on disk are skipped) and
    /// the small record (quarantine histogram, week count, last date,
    /// report), bound to the configuration.
    pub fn checkpoint(&self, store: &CheckpointStore) -> std::io::Result<()> {
        let state = IncrementalState {
            quarantined: self.quarantined.clone(),
            weeks: self.weeks,
            last_date: self.last_date,
            report: self.report.clone(),
        };
        let config_hash = config_fingerprint(&self.pipeline.config);
        store.save(config_hash, &self.log, &state).map(|_| ())
    }

    /// Resume a previously checkpointed analyzer from `store`. Returns
    /// `None` when there is nothing valid to resume: no checkpoint, a
    /// damaged one (content hashes fail), or one written under another
    /// `config` — callers then start from [`new`](Self::new) and
    /// re-ingest.
    ///
    /// Maps and patterns are rebuilt from the log by the batch run's own
    /// stages-1–2 path (`Pipeline::build_and_classify`), which under the
    /// stream discipline yields exactly the maps the weekly merges
    /// produced, and the same guarded classify: a map whose
    /// classification panics is `Pattern::Unclassified` here as in the
    /// stream, never a panic out of `resume`. The log holds only
    /// quarantine-kept rows, so stage 0 is not rerun; the log is in week
    /// order, so it reaches the map engine through a `(domain, date)`
    /// sorted selection.
    pub fn resume(config: PipelineConfig, store: &CheckpointStore) -> Option<IncrementalAnalyzer> {
        Self::resume_metered(config, store, &mut MetricsRegistry::new())
    }

    /// [`resume`](Self::resume) recording the rebuild's
    /// `stage.map_build`/`stage.classify` spans and samples into
    /// `metrics`.
    pub(crate) fn resume_metered(
        config: PipelineConfig,
        store: &CheckpointStore,
        metrics: &mut MetricsRegistry,
    ) -> Option<IncrementalAnalyzer> {
        let (log, state): (ObservationStore, IncrementalState) =
            store.load(config_fingerprint(&config)).ok()?;
        let mut analyzer = IncrementalAnalyzer::new(config);
        let src = ColSource(log.columns());
        let by_name = sorted_selection(&src, None);
        let (maps, patterns) = analyzer
            .pipeline
            .build_and_classify(&src, Some(&by_name), metrics);
        analyzer.patterns = patterns;
        analyzer.maps = maps;
        analyzer.quarantined = state.quarantined;
        analyzer.weeks = state.weeks;
        analyzer.last_date = state.last_date;
        analyzer.report = state.report;
        analyzer.log_codes = DictCodes::of(&log);
        analyzer.log = log;
        Some(analyzer)
    }
}

/// The final report's archive beside a [`WeeklyStream`]'s checkpoint.
pub const REPORT_FILE: &str = "report.json";

/// How a [`WeeklyStream`] began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStart {
    /// Nothing to resume: no checkpoint store, no checkpoint in it, a
    /// damaged one, or one written under another configuration.
    Fresh,
    /// The checkpoint held this data's first `n` weeks; the stream
    /// carries on from week `n`.
    Resumed(u32),
    /// The checkpoint holds other data than this stream's first weeks
    /// (the data set was replaced or shrank): the stream starts at week 0
    /// and its first checkpoint replaces the old one.
    Refused,
}

/// The one weekly driver behind `analyze --stream` and serve jobs: it
/// slices the weeks, resumes only a checkpoint of this data's first
/// weeks, skips the weeks already ingested, checkpoints with a lock
/// heartbeat, and archives the final report. Callers loop over
/// [`next_week`](Self::next_week) and [`checkpoint`](Self::checkpoint),
/// separate calls so a crash can land between a week's ingest and its
/// commit.
pub struct WeeklyStream<'a> {
    analyzer: IncrementalAnalyzer,
    batches: Vec<Vec<DomainObservation>>,
    inputs: &'a AnalystInputs<'a>,
    /// The checkpoint store with the caller's lock on its directory: a
    /// checkpointed stream always holds its lock.
    checkpoint: Option<(CheckpointStore, &'a DirLock)>,
}

impl<'a> WeeklyStream<'a> {
    /// Open a stream over the first `max_weeks` weeks (all on `None`) of
    /// `observations`, resuming the store's checkpoint when it holds
    /// their first weeks (the rebuild's spans go to `metrics`).
    pub fn open(
        config: PipelineConfig,
        observations: &[DomainObservation],
        max_weeks: Option<usize>,
        inputs: &'a AnalystInputs<'a>,
        checkpoint: Option<(CheckpointStore, &'a DirLock)>,
        metrics: &mut MetricsRegistry,
    ) -> (WeeklyStream<'a>, StreamStart) {
        let mut batches = week_batches(observations);
        batches.truncate(max_weeks.unwrap_or(usize::MAX));
        let resumed = checkpoint.as_ref().and_then(|(store, _)| {
            IncrementalAnalyzer::resume_metered(config.clone(), store, metrics)
        });
        let (start, analyzer) = match resumed {
            Some(a) if a.holds_first_batches(&batches, inputs) => {
                (StreamStart::Resumed(a.weeks()), a)
            }
            Some(_) => (StreamStart::Refused, IncrementalAnalyzer::new(config)),
            None => (StreamStart::Fresh, IncrementalAnalyzer::new(config)),
        };
        let stream = WeeklyStream {
            analyzer,
            batches,
            inputs,
            checkpoint,
        };
        (stream, start)
    }

    /// The analyzer: its report and week count so far.
    pub fn analyzer(&self) -> &IncrementalAnalyzer {
        &self.analyzer
    }

    /// Number of weeks the stream covers.
    pub fn weeks_total(&self) -> u32 {
        self.batches.len() as u32
    }

    /// Is every week ingested?
    pub fn done(&self) -> bool {
        self.analyzer.weeks() as usize >= self.batches.len()
    }

    /// Ingest the first week not yet ingested (the slicing is
    /// deterministic, so week `i` is week `i` again after a resume).
    /// `None` once [`done`](Self::done).
    pub fn next_week(&mut self, metrics: &mut MetricsRegistry) -> Option<WeekDelta> {
        let batch = self.batches.get(self.analyzer.weeks() as usize)?;
        Some(
            self.analyzer
                .ingest_week_metered(batch, self.inputs, metrics),
        )
    }

    /// Commit the ingested weeks to the checkpoint store, then heartbeat
    /// the lock. A stream without a store has nothing to do.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        if let Some((store, lock)) = &self.checkpoint {
            self.analyzer.checkpoint(store)?;
            let _ = lock.heartbeat();
        }
        Ok(())
    }

    /// The final report and, for a checkpointed stream, its pretty JSON
    /// as archived in [`REPORT_FILE`]: atomically, since a resumed stream
    /// must reproduce it byte for byte.
    pub fn finish(self) -> std::io::Result<(Report, Option<String>)> {
        let report = self.analyzer.report;
        let Some((store, _)) = &self.checkpoint else {
            return Ok((report, None));
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        write_atomic(&store.dir().join(REPORT_FILE), json.as_bytes())?;
        Ok((report, Some(json)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_week_yields_empty_delta() {
        let delta = WeekDelta::between(0, Day(0), &Report::default(), &Report::default());
        assert!(!delta.has_verdict_changes());
        let mut r = Report::default();
        delta.apply(&mut r);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&Report::default()).unwrap()
        );
    }

    #[test]
    fn delta_upsert_and_remove_round_trip() {
        let hij = |d: &str, day: u32| DetectedHijack {
            domain: d.parse().unwrap(),
            dtype: crate::inspect::DetectionType::T1,
            sub: None,
            first_evidence: Day(day),
            pdns_corroborated: true,
            ct_corroborated: false,
            dnssec_corroborated: false,
            malicious_cert: None,
            attacker_ips: vec![],
            attacker_asn: None,
            attacker_cc: None,
            attacker_ns: vec![],
            victim_asns: vec![],
            victim_ccs: vec![],
            geo_implausible: false,
        };
        let old = Report {
            hijacked: vec![hij("a.com", 1), hij("b.com", 2)],
            ..Report::default()
        };
        let new = Report {
            hijacked: vec![hij("b.com", 2), hij("c.com", 3)],
            ..Report::default()
        };
        let delta = WeekDelta::between(1, Day(7), &old, &new);
        assert_eq!(delta.hijacked_upserts.len(), 1, "only c.com is new");
        assert_eq!(delta.hijacked_removed.len(), 1, "a.com disappeared");
        let mut replay = old.clone();
        delta.apply(&mut replay);
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&new).unwrap()
        );
    }

    #[test]
    fn changed_verdict_is_an_upsert() {
        let t = |d: &str, day: u32| DetectedTarget {
            domain: d.parse().unwrap(),
            sub: None,
            first_evidence: Day(day),
            pdns_corroborated: false,
            ct_corroborated: false,
            attacker_ip: None,
            attacker_asn: None,
            attacker_cc: None,
            victim_asns: vec![],
            victim_ccs: vec![],
        };
        let old = Report {
            targeted: vec![t("a.com", 1)],
            ..Report::default()
        };
        let new = Report {
            targeted: vec![t("a.com", 9)],
            ..Report::default()
        };
        let delta = WeekDelta::between(2, Day(14), &old, &new);
        assert_eq!(delta.targeted_upserts.len(), 1, "changed evidence re-emits");
        assert!(delta.targeted_removed.is_empty());
        let mut replay = old.clone();
        delta.apply(&mut replay);
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&new).unwrap()
        );
    }

    #[test]
    fn stream_resumes_only_a_checkpoint_of_its_own_first_weeks() {
        use retrodns_sim::{SimConfig, World};

        let world = World::build(SimConfig {
            n_domains: 120,
            ..SimConfig::small(0x57A7)
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
        let dir =
            std::env::temp_dir().join(format!("retrodns-incr-stream-start-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lock = DirLock::acquire(&dir).unwrap();
        let open = |observations: &[DomainObservation]| {
            let store = CheckpointStore::open(&dir).unwrap();
            let checkpoint = Some((store, &lock));
            let metrics = &mut MetricsRegistry::new();
            WeeklyStream::open(
                config.clone(),
                observations,
                None,
                &inputs,
                checkpoint,
                metrics,
            )
        };
        let next_week = |stream: &mut WeeklyStream| {
            let delta = stream.next_week(&mut MetricsRegistry::new());
            delta.expect("a week remains").week
        };

        // A fresh stream commits its first three weeks.
        let (mut stream, start) = open(&observations);
        assert_eq!(start, StreamStart::Fresh);
        for _ in 0..3 {
            next_week(&mut stream);
            stream.checkpoint().unwrap();
        }

        // Reopened over the same data, it carries on from week 3.
        let (mut stream, start) = open(&observations);
        assert_eq!(start, StreamStart::Resumed(3));
        assert_eq!(next_week(&mut stream), 3);

        // Without the first scan date every week shifts by one: the
        // checkpoint is not this data's, and the stream starts at week 0.
        let first = observations.iter().map(|o| o.date).min().unwrap();
        let shifted: Vec<DomainObservation> = observations
            .iter()
            .filter(|o| o.date != first)
            .cloned()
            .collect();
        let (mut stream, start) = open(&shifted);
        assert_eq!(start, StreamStart::Refused);
        assert_eq!(stream.analyzer().weeks(), 0);
        assert_eq!(next_week(&mut stream), 0);

        drop(lock);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rebuilds_exactly_the_merged_state() {
        use crate::map::ObsSource;
        use retrodns_sim::{SimConfig, World};
        use std::cmp::Ordering;

        // 400 domains × 40 weeks is over 8 192 logged rows, so the
        // rebuild at workers 2 really splits the log into two shards.
        let world = World::build(SimConfig {
            n_domains: 400,
            ..SimConfig::small(0x5E5)
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
        let mut weeks: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
        for o in &observations {
            weeks.entry(o.date).or_default().push(o.clone());
        }
        let weeks: Vec<Vec<DomainObservation>> = weeks.into_values().take(41).collect();
        let (next, history) = weeks.split_last().unwrap();

        for workers in [1, 2] {
            let config = PipelineConfig {
                window: world.config.window.clone(),
                workers,
                ..PipelineConfig::default()
            };
            let mut merged = IncrementalAnalyzer::new(config.clone());
            for week in history {
                merged.ingest_week(week, &inputs);
            }
            assert!(merged.log.len() > 2 * crate::map::DEFAULT_MIN_OBS_PER_WORKER);
            // The log is in week order, not name order, so the rebuild
            // must sort it before the map engine sees it.
            let log = ColSource(merged.log.columns());
            assert!(
                (1..log.len()).any(|i| log.cmp_domain_date(i - 1, i) == Ordering::Greater),
                "the logged rows are already in (domain, date) order"
            );
            let dir = std::env::temp_dir().join(format!(
                "retrodns-incr-rebuild-{}-{workers}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).unwrap();
            merged.checkpoint(&store).unwrap();
            let mut rebuilt = IncrementalAnalyzer::resume(config, &store).unwrap();
            let _ = std::fs::remove_dir_all(&dir);

            assert!(
                rebuilt.maps == merged.maps,
                "maps differ at workers={workers}"
            );
            assert!(
                rebuilt.patterns == merged.patterns,
                "patterns differ at workers={workers}"
            );
            assert_eq!(rebuilt.last_date, merged.last_date);
            assert_eq!(rebuilt.weeks, merged.weeks);
            assert_eq!(rebuilt.quarantined, merged.quarantined);
            // The next append starts from the same state on both sides.
            merged.ingest_week(next, &inputs);
            rebuilt.ingest_week(next, &inputs);
            assert!(rebuilt.maps == merged.maps, "next week's maps differ");
            assert!(rebuilt.patterns == merged.patterns);
            assert_eq!(
                serde_json::to_string(&rebuilt.report).unwrap(),
                serde_json::to_string(&merged.report).unwrap()
            );
        }
    }
}
