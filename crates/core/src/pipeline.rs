//! The five-stage pipeline, wired end to end.
//!
//! [`Pipeline::run`] consumes the analyst-visible inputs — annotated scan
//! observations, the network-metadata database, certificate contents,
//! passive DNS, and the crt.sh index — and produces a [`Report`]: the
//! detected hijacks (Table 2), detected targets (Table 3), and the full
//! funnel accounting (§4.2–4.5) the experiments reproduce.
//!
//! Stages 1–2 (map build, then classify) have one path,
//! `Pipeline::build_and_classify`, shared by the batch run and
//! [`IncrementalAnalyzer::resume`](crate::incremental::IncrementalAnalyzer::resume);
//! weekly ingest re-classifies its dirty maps through the same guarded
//! per-map classify. A map whose classification panics gets
//! [`Pattern::Unclassified`] on every path, and stages 3–5 count it under
//! `funnel.quarantined.worker_panic` and otherwise skip it, exactly as if
//! it had never been built.

use crate::classify::{classify, ClassifyConfig, Pattern};
use crate::inspect::{
    inspect_candidate, t1_star_pass, DegradedVerdict, DetectedHijack, DetectedTarget,
    DismissReason, InspectConfig, InspectOutcome,
};
use crate::map::{
    ColSource, DeploymentMap, MapBuilder, ObsSource, RowSource, DEFAULT_MIN_OBS_PER_WORKER,
};
use crate::metrics::{self, MetricsRegistry, MetricsShard};
use crate::pivot::{pivot_guarded, PivotConfig};
use crate::shortlist::{shortlist_guarded, Candidate, ShortlistConfig};
use crate::sources::{query_key, ResilientSource, SourceGuard, SourcePolicy, SRC_GEO};
use retrodns_asdb::AsDatabase;
use retrodns_cert::{CertId, Certificate, CrtShIndex};
use retrodns_dns::{DnssecArchive, PassiveDns};
use retrodns_scan::DomainObservation;
use retrodns_store::ObservationView;
use retrodns_types::{Day, DomainName, SourceFaults, StudyWindow};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Everything a third-party analyst has access to.
pub struct AnalystInputs<'a> {
    /// Annotated per-domain scan observations (Censys CUIDS analog), in
    /// either representation: a row vector / [`retrodns_store::RowsView`]
    /// or a columnar
    /// [`ObservationStore`](retrodns_store::ObservationStore). Both run
    /// through the same engines, and the pipeline produces
    /// byte-identical reports for equivalent inputs in either form.
    pub observations: &'a dyn ObservationView,
    /// pfx2as + as2org + geolocation.
    pub asdb: &'a AsDatabase,
    /// Certificate contents by id (retrievable from the scans themselves).
    pub certs: &'a HashMap<CertId, Certificate>,
    /// The passive-DNS database.
    pub pdns: &'a PassiveDns,
    /// The crt.sh index over CT.
    pub crtsh: &'a CrtShIndex,
    /// Optional DNSSEC measurement archive (§7.1 extension signal; only
    /// consulted when `InspectConfig::use_dnssec_signal` is set).
    pub dnssec: Option<&'a DnssecArchive>,
    /// Optional source-level fault injection (the fault harness and the
    /// resilience tests). `None` means every source call succeeds
    /// instantly, making the run byte-identical to one without the
    /// resilience layer.
    pub source_faults: Option<&'a dyn SourceFaults>,
}

/// Pipeline configuration: all stage thresholds plus execution knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The study window (periods, scan cadence).
    pub window: StudyWindow,
    /// Deployment-linking gap tolerance (missed scans).
    pub link_gap_scans: u32,
    /// Stage-2 thresholds.
    pub classify: ClassifyConfig,
    /// Stage-3 heuristics.
    pub shortlist: ShortlistConfig,
    /// Stage-4 thresholds.
    pub inspect: InspectConfig,
    /// Stage-5 thresholds.
    pub pivot: PivotConfig,
    /// Worker threads for the parallel stages — map building,
    /// classification and inspection (1 = fully serial). Any value
    /// produces a byte-identical [`Report`]; see `DESIGN.md` for the
    /// execution model.
    pub workers: usize,
    /// Retry/deadline/circuit-breaker policy for the corroboration
    /// sources (pdns, ct, as2org, geo); see `core::sources`.
    #[serde(default)]
    pub sources: SourcePolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: StudyWindow::default(),
            link_gap_scans: 2,
            classify: ClassifyConfig::default(),
            shortlist: ShortlistConfig::default(),
            inspect: InspectConfig::default(),
            pivot: PivotConfig::default(),
            workers: 1,
            sources: SourcePolicy::default(),
        }
    }
}

/// Funnel accounting across the five stages.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FunnelStats {
    /// Input records rejected by validation before map building, by
    /// reason (`out-of-window`, `unrouted`, `unknown-cert`, `duplicate`).
    /// Empty on clean inputs. Quarantined records are counted, never
    /// silently dropped — and never analyzed.
    #[serde(default)]
    pub quarantined: BTreeMap<String, usize>,
    /// Domains with at least one deployment map.
    pub domains_total: usize,
    /// (domain, period) maps built.
    pub maps_total: usize,
    /// Domain-level category counts (a domain counts as its most
    /// suspicious category across periods: transient > noisy >
    /// transition > stable).
    pub domain_categories: BTreeMap<String, usize>,
    /// Map-level category counts.
    pub map_categories: BTreeMap<String, usize>,
    /// Maps carrying at least one transient finding.
    pub transient_maps: usize,
    /// Candidates surviving the shortlist heuristics.
    pub shortlisted: usize,
    /// Of those, shortlisted via the truly-anomalous route.
    pub truly_anomalous: usize,
    /// Shortlist prune-reason histogram.
    pub pruned: BTreeMap<String, usize>,
    /// Candidates dismissed at inspection (stale certificates).
    pub dismissed_stale: usize,
    /// Candidates left inconclusive after inspection and the T1* pass.
    pub inconclusive: usize,
    /// Degraded verdicts per stage (`inspect` for shortlist/inspect
    /// candidates, `pivot` for pivot discoveries): verdicts whose
    /// corroboration sources stayed unavailable past their retry
    /// budget. Empty — and omitted from serialization — on a fault-free
    /// run.
    #[serde(default, skip_serializing_if = "serde::__is_default")]
    pub degraded: BTreeMap<String, usize>,
    /// Hijacks found per detection type.
    pub hijacks_by_type: BTreeMap<String, usize>,
}

/// The pipeline's output.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Domains concluded hijacked (Table 2), deduplicated, ordered by
    /// domain name.
    pub hijacked: Vec<DetectedHijack>,
    /// Domains concluded targeted but not hijacked (Table 3).
    pub targeted: Vec<DetectedTarget>,
    /// Verdicts the pipeline could not corroborate because sources were
    /// unavailable past their retry budget, sorted (degraded mode —
    /// explicit, never silently upgraded or dropped). Empty — and
    /// omitted from serialization, keeping fault-free report JSON
    /// byte-identical to a build without the resilience layer — unless
    /// faults fired.
    #[serde(default, skip_serializing_if = "serde::__is_default")]
    pub degraded: Vec<DegradedVerdict>,
    /// Funnel accounting.
    pub funnel: FunnelStats,
}

impl Report {
    /// The detected-hijack domain set.
    pub fn hijacked_domains(&self) -> Vec<DomainName> {
        self.hijacked.iter().map(|h| h.domain.clone()).collect()
    }

    /// The detected-target domain set.
    pub fn targeted_domains(&self) -> Vec<DomainName> {
        self.targeted.iter().map(|t| t.domain.clone()).collect()
    }
}

/// The five-stage pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Configuration used by every stage.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// A [`MapBuilder`] with this pipeline's window and link gap.
    pub(crate) fn map_builder(&self) -> MapBuilder {
        let mut builder = MapBuilder::new(self.config.window.clone());
        builder.link_gap_scans = self.config.link_gap_scans;
        builder
    }

    /// Stage 2 for one map, guarded: a classification that panics yields
    /// [`Pattern::Unclassified`] instead of taking its worker (and the
    /// run) down. Every classify in the pipeline goes through here.
    pub(crate) fn classify_one(&self, map: &DeploymentMap) -> Pattern {
        catch_item(|| {
            #[cfg(test)]
            assert_ne!(map.domain.as_str(), tests::CLASSIFY_FAULT_DOMAIN);
            classify(map, &self.config.classify)
        })
        .unwrap_or(Pattern::Unclassified)
    }

    /// Stage 2: classify every map through the guarded
    /// `classify_one`, in parallel contiguous
    /// chunks when `workers > 1`. Chunks write their own windows of the
    /// output, so it is identical to the serial one. A map whose
    /// classification panicked holds [`Pattern::Unclassified`]; the
    /// pipeline quarantines it under `worker_panic`.
    pub fn classify_maps(&self, maps: &[DeploymentMap]) -> Vec<Pattern> {
        self.classify_maps_metered(maps, &mut MetricsShard::default())
    }

    /// [`classify_maps`](Self::classify_maps) with per-worker metering:
    /// each worker's wall time and item count land in `shard` under
    /// `classify.worker.<i>.*`, plus a `classify.utilization` gauge (sum
    /// of worker time over `workers × slowest`; 1.0 = perfectly balanced
    /// chunks).
    fn classify_maps_metered(
        &self,
        maps: &[DeploymentMap],
        shard: &mut MetricsShard,
    ) -> Vec<Pattern> {
        // Pre-sized output written in place: each worker owns a disjoint
        // `&mut` window of the final vector, so there is nothing to
        // collect, merge, or re-order after the join.
        let mut patterns = vec![Pattern::Unclassified; maps.len()];
        let classify_chunk = |slice: &[DeploymentMap], out: &mut [Pattern]| {
            let t = Instant::now();
            for (m, o) in slice.iter().zip(out.iter_mut()) {
                *o = self.classify_one(m);
            }
            (slice.len(), t.elapsed())
        };
        let Some(chunk) = parallel_chunk(maps.len(), self.config.workers, MIN_CLASSIFY_PER_WORKER)
        else {
            shard.record_worker_stats("classify", &[classify_chunk(maps, &mut patterns)]);
            return patterns;
        };
        let mut worker_stats = Vec::new();
        crossbeam::scope(|scope| {
            let handles: Vec<_> = maps
                .chunks(chunk)
                .zip(patterns.chunks_mut(chunk))
                .map(|(slice, out)| scope.spawn(move |_| classify_chunk(slice, out)))
                .collect();
            for h in handles {
                worker_stats.push(h.join().expect("classify worker thread died"));
            }
        })
        .expect("crossbeam scope");
        shard.record_worker_stats("classify", &worker_stats);
        patterns
    }

    /// Stage 4: inspect a contiguous chunk of candidates, accumulating a
    /// mergeable partial result. Each chunk owns its source guards (so
    /// breaker history needs no locks and is deterministic for a given
    /// chunking) and its panic isolation: a candidate whose inspection
    /// panics is counted in `worker_panics` instead of killing the run.
    /// Guard tallies land in `shard` under `source.<name>.*`.
    fn inspect_chunk(
        &self,
        candidates: &[Candidate],
        inputs: &AnalystInputs,
        shard: &mut MetricsShard,
    ) -> InspectionResults {
        let mut pdns = ResilientSource::new(inputs.pdns, self.config.sources, inputs.source_faults);
        let mut crtsh =
            ResilientSource::new(inputs.crtsh, self.config.sources, inputs.source_faults);
        let mut out = InspectionResults::default();
        for candidate in candidates {
            let Some(outcome) =
                catch_item(|| self.inspect_one(candidate, inputs, &mut pdns, &mut crtsh))
            else {
                out.worker_panics += 1;
                continue;
            };
            match outcome {
                InspectOutcome::Hijacked(h) => out.hijacked.push(h),
                InspectOutcome::Targeted(t) => out.targeted.push(t),
                InspectOutcome::Degraded(d) => out.degraded.push(d),
                InspectOutcome::Dismissed(DismissReason::StaleCert) => {
                    out.dismissed_stale += 1;
                }
                InspectOutcome::Inconclusive => {
                    // Retain what we know for the T1* pass.
                    let (issued, cert, sub) = candidate
                        .finding
                        .new_certs
                        .iter()
                        .filter_map(|id| inputs.certs.get(id))
                        .map(|c| {
                            (
                                c.not_before,
                                Some(c.id),
                                c.names.iter().find(|n| n.is_sensitive()).cloned(),
                            )
                        })
                        .next()
                        .unwrap_or((candidate.transient.first, None, None));
                    out.inconclusive
                        .push((candidate.clone(), issued, cert, sub));
                }
            }
        }
        pdns.record(shard);
        crtsh.record(shard);
        out
    }

    /// Inspect one candidate through the guarded sources. One logical
    /// call per source — keyed by (domain, period) — models the
    /// transport round for all of that candidate's sub-queries; only
    /// when every source answers does the pure decision procedure run.
    /// Any exhausted source (or a degradation inherited from the
    /// shortlist) turns the verdict into an explicit
    /// [`InspectOutcome::Degraded`].
    fn inspect_one(
        &self,
        candidate: &Candidate,
        inputs: &AnalystInputs,
        pdns: &mut ResilientSource<PassiveDns>,
        crtsh: &mut ResilientSource<CrtShIndex>,
    ) -> InspectOutcome {
        let key = query_key(&[
            candidate.domain.as_str().as_bytes(),
            &candidate.period.id.to_le_bytes(),
        ]);
        let mut missing: BTreeSet<String> = candidate.degraded_sources.iter().cloned().collect();
        if pdns.call(key, |_| ()).is_err() {
            missing.insert(pdns.guard().name().to_string());
        }
        if crtsh.call(key, |_| ()).is_err() {
            missing.insert(crtsh.guard().name().to_string());
        }
        if !missing.is_empty() {
            return InspectOutcome::Degraded(DegradedVerdict {
                domain: candidate.domain.clone(),
                stage: "inspect".to_string(),
                first_evidence: candidate.transient.first,
                missing_sources: missing.into_iter().collect(),
            });
        }
        inspect_candidate(
            candidate,
            inputs.pdns,
            inputs.crtsh,
            inputs.certs,
            inputs.dnssec,
            &self.config.inspect,
        )
    }

    /// Stage 4 over all candidates: a crossbeam worker pool over
    /// contiguous chunks when `workers > 1`. Inputs are shared by
    /// reference (all read-only); per-worker partials merge in chunk
    /// order, reproducing the serial output exactly.
    pub fn inspect_candidates(
        &self,
        candidates: &[Candidate],
        inputs: &AnalystInputs,
    ) -> InspectionResults {
        self.inspect_candidates_metered(candidates, inputs, &mut MetricsShard::default())
    }

    /// [`inspect_candidates`](Self::inspect_candidates) with per-worker
    /// metering (`inspect.worker.<i>.*` gauges plus
    /// `inspect.utilization`), mirroring the classify stage.
    fn inspect_candidates_metered(
        &self,
        candidates: &[Candidate],
        inputs: &AnalystInputs,
        shard: &mut MetricsShard,
    ) -> InspectionResults {
        let Some(chunk) = parallel_chunk(
            candidates.len(),
            self.config.workers,
            MIN_INSPECT_PER_WORKER,
        ) else {
            let t = Instant::now();
            let out = self.inspect_chunk(candidates, inputs, shard);
            shard.record_worker_stats("inspect", &[(candidates.len(), t.elapsed())]);
            return out;
        };
        let workers = self.config.workers;
        let mut partials: Vec<InspectionResults> = Vec::with_capacity(workers);
        let mut worker_stats: Vec<(usize, Duration)> = Vec::with_capacity(workers);
        crossbeam::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move |_| {
                        let t = Instant::now();
                        let mut chunk_shard = MetricsShard::default();
                        let out = self.inspect_chunk(slice, inputs, &mut chunk_shard);
                        (out, chunk_shard, slice.len(), t.elapsed())
                    })
                })
                .collect();
            for h in handles {
                let (out, chunk_shard, items, wall) = h.join().expect("inspect worker thread died");
                partials.push(out);
                shard.merge(chunk_shard);
                worker_stats.push((items, wall));
            }
        })
        .expect("crossbeam scope");
        shard.record_worker_stats("inspect", &worker_stats);
        let mut merged = InspectionResults::default();
        for p in partials {
            merged.hijacked.extend(p.hijacked);
            merged.targeted.extend(p.targeted);
            merged.inconclusive.extend(p.inconclusive);
            merged.dismissed_stale += p.dismissed_stale;
            merged.degraded.extend(p.degraded);
            merged.worker_panics += p.worker_panics;
        }
        merged
    }

    /// Run the full pipeline.
    pub fn run(&self, inputs: &AnalystInputs) -> Report {
        self.run_with(inputs, &mut MetricsRegistry::new())
    }

    /// Run the full pipeline, recording counters, gauges, histograms and
    /// spans into `metrics`.
    ///
    /// The returned [`Report`] is byte-identical (as JSON) to
    /// [`Pipeline::run`] — metrics never touch report serialization.
    /// After the run, `metrics.snapshot()` holds the full observability
    /// picture: the `funnel.*` counters reconcile exactly with
    /// [`Report::funnel`], `stage.*` gauges carry per-stage wall time /
    /// items / RSS / allocation deltas, and `*.worker.*` gauges expose
    /// shard balance.
    pub fn run_with(&self, inputs: &AnalystInputs, metrics: &mut MetricsRegistry) -> Report {
        // The one representation match: everything from stage 0 on runs
        // monomorphized over the concrete source.
        match inputs.observations.as_rows() {
            Some(rows) => self.run_source(&RowSource(rows), inputs, metrics),
            None => {
                let obs_store = inputs
                    .observations
                    .as_store()
                    .expect("an ObservationView exposes rows or a store");
                self.run_source(&ColSource(obs_store.columns()), inputs, metrics)
            }
        }
    }

    /// [`run_with`](Self::run_with) over one concrete source.
    fn run_source<S: ObsSource>(
        &self,
        src: &S,
        inputs: &AnalystInputs,
        metrics: &mut MetricsRegistry,
    ) -> Report {
        let run_span = metrics.span_open("pipeline.run");

        // ---- stage 0: validate + quarantine ---------------------------
        // The survivors are a selection into the source; the
        // observations never move.
        let span = metrics.span_open("stage.quarantine");
        let alloc0 = metrics::allocated_bytes_total();
        let t = Instant::now();
        let mut stage_shard = MetricsShard::default();
        let (selection, quarantined) = quarantine_source(
            src,
            &self.config.window,
            inputs.certs,
            self.config.workers,
            &mut stage_shard,
        );
        metrics.merge(stage_shard);
        stage_sample(
            metrics,
            "quarantine",
            inputs.observations.len(),
            t.elapsed(),
            alloc0,
        );
        metrics.span_close(span);

        // ---- stages 1–5 -----------------------------------------------
        let (maps, patterns) = self.build_and_classify(src, selection.as_deref(), metrics);
        let report = self.analyze_classified(&maps, &patterns, quarantined, inputs, metrics);

        // ---- release --------------------------------------------------
        // Freeing the maps costs milliseconds at corpus scale; time it in
        // its own span so the run's wall time stays covered by stages.
        let span = metrics.span_open("stage.release");
        let alloc0 = metrics::allocated_bytes_total();
        let t = Instant::now();
        let released = maps.len();
        drop(maps);
        drop(patterns);
        stage_sample(metrics, "release", released, t.elapsed(), alloc0);
        metrics.span_close(span);

        record_funnel(metrics, &report.funnel);
        if let Some(kb) = metrics::peak_rss_kb() {
            metrics.gauge("process.peak_rss_kb", kb as f64);
        }
        if metrics::alloc_counting_active() {
            metrics.gauge(
                "process.alloc_bytes_total",
                metrics::allocated_bytes_total() as f64,
            );
            metrics.gauge(
                "process.alloc_count_total",
                metrics::allocation_count_total() as f64,
            );
        }
        metrics.span_close(run_span);
        report
    }

    /// Stages 1–2, the one path for the batch run and
    /// [`IncrementalAnalyzer::resume`](crate::incremental::IncrementalAnalyzer::resume):
    /// build the deployment maps of `src` (restricted to `selection`, the
    /// quarantine stage's kept rows; `None` means every row), then
    /// classify them through the guarded [`classify_one`](Self::classify_one).
    /// `src` through `selection` must already be `(domain, date)`-sorted,
    /// as both outputs of stage 0 are; the map engine does not re-check.
    /// Each stage runs in its `stage.*` span with its stage sample, the
    /// map build's shard gauges and both stages' worker gauges. The
    /// patterns parallel the maps, a failed classification holding
    /// [`Pattern::Unclassified`].
    pub(crate) fn build_and_classify<S: ObsSource>(
        &self,
        src: &S,
        selection: Option<&[u32]>,
        metrics: &mut MetricsRegistry,
    ) -> (Vec<DeploymentMap>, Vec<Pattern>) {
        // ---- stage 1: deployment maps ---------------------------------
        let kept_len = selection.map_or(src.len(), <[u32]>::len);
        let span = metrics.span_open("stage.map_build");
        let alloc0 = metrics::allocated_bytes_total();
        let t = Instant::now();
        let (maps, shards) = self
            .map_builder()
            .build_sorted(src, selection, self.config.workers);
        let mut stage_shard = MetricsShard::default();
        for (i, s) in shards.iter().enumerate() {
            stage_shard.gauge(&format!("map_build.shard.{i}.items"), s.observations as f64);
            stage_shard.gauge(&format!("map_build.shard.{i}.maps"), s.maps as f64);
            stage_shard.gauge(
                &format!("map_build.shard.{i}.arena_bytes"),
                s.arena_bytes as f64,
            );
            stage_shard.observe("map_build.shard_items", s.observations as f64);
        }
        let max = shards.iter().map(|s| s.observations).max().unwrap_or(0);
        if max > 0 {
            let mean =
                shards.iter().map(|s| s.observations).sum::<usize>() as f64 / shards.len() as f64;
            stage_shard.gauge("map_build.shard_balance", mean / max as f64);
        }
        let worker_stats: Vec<(usize, Duration)> =
            shards.iter().map(|s| (s.observations, s.wall)).collect();
        stage_shard.record_worker_stats("map_build", &worker_stats);
        metrics.merge(stage_shard);
        stage_sample(metrics, "map_build", kept_len, t.elapsed(), alloc0);
        metrics.span_close(span);

        // ---- stage 2: classify ----------------------------------------
        let span = metrics.span_open("stage.classify");
        let alloc0 = metrics::allocated_bytes_total();
        let mut stage_shard = MetricsShard::default();
        let t = Instant::now();
        let patterns = self.classify_maps_metered(&maps, &mut stage_shard);
        metrics.merge(stage_shard);
        stage_sample(metrics, "classify", maps.len(), t.elapsed(), alloc0);
        metrics.span_close(span);
        (maps, patterns)
    }

    /// Stages 3–5 over classified maps, shared by the batch run and the
    /// incremental analyzer: the funnel's population statistics, the
    /// shortlist and inspect stages (each in its `stage.*` span, with its
    /// stage sample), then [`finish_report`](Self::finish_report).
    /// [`Pattern::Unclassified`] maps count under
    /// `funnel.quarantined.worker_panic`, on top of the stage-0 histogram
    /// `quarantined`, and are otherwise skipped as if never built. The
    /// `funnel.*` counters are left to the caller, so a stream does not
    /// add them up week after week.
    pub(crate) fn analyze_classified(
        &self,
        maps: &[DeploymentMap],
        patterns: &[Pattern],
        quarantined: BTreeMap<String, usize>,
        inputs: &AnalystInputs,
        metrics: &mut MetricsRegistry,
    ) -> Report {
        let mut funnel = funnel_population(maps, patterns, quarantined);

        // ---- stage 3: shortlist -------------------------------------
        let span = metrics.span_open("stage.shortlist");
        let alloc0 = metrics::allocated_bytes_total();
        let t = Instant::now();
        let mut as2org =
            ResilientSource::new(inputs.asdb, self.config.sources, inputs.source_faults);
        let shortlisted = shortlist_guarded(
            maps,
            patterns,
            &mut as2org,
            inputs.certs,
            &self.config.shortlist,
        );
        let mut src_shard = MetricsShard::default();
        as2org.record(&mut src_shard);
        metrics.merge(src_shard);
        stage_sample(metrics, "shortlist", maps.len(), t.elapsed(), alloc0);
        metrics.span_close(span);
        apply_shortlist_funnel(&mut funnel, &shortlisted);

        // ---- stage 4: inspect ----------------------------------------
        let candidates = &shortlisted.candidates;
        let span = metrics.span_open("stage.inspect");
        let alloc0 = metrics::allocated_bytes_total();
        let mut stage_shard = MetricsShard::default();
        let t = Instant::now();
        let inspected = self.inspect_candidates_metered(candidates, inputs, &mut stage_shard);
        metrics.merge(stage_shard);
        stage_sample(metrics, "inspect", candidates.len(), t.elapsed(), alloc0);
        metrics.span_close(span);

        self.finish_report(inputs, funnel, inspected, metrics)
    }

    /// The post-inspection tail of the pipeline: T1* promotion, pivot
    /// expansion, attacker geo backfill, degraded-mode accounting, and
    /// verdict dedup/ordering. Returns the assembled [`Report`].
    fn finish_report(
        &self,
        inputs: &AnalystInputs,
        mut funnel: FunnelStats,
        inspected: InspectionResults,
        metrics: &mut MetricsRegistry,
    ) -> Report {
        let InspectionResults {
            mut hijacked,
            targeted,
            inconclusive,
            dismissed_stale,
            degraded,
            worker_panics,
        } = inspected;
        funnel.dismissed_stale = dismissed_stale;
        let mut degraded = degraded;
        if worker_panics > 0 {
            *funnel
                .quarantined
                .entry("worker_panic".to_string())
                .or_insert(0) += worker_panics;
        }

        // ---- T1* pass -------------------------------------------------
        let confirmed_ips: BTreeSet<_> = hijacked
            .iter()
            .flat_map(|h| h.attacker_ips.iter().copied())
            .collect();
        let starred = t1_star_pass(&inconclusive, &confirmed_ips);
        metrics.count("t1_star.promoted", starred.len() as u64);
        let starred_domains: BTreeSet<_> = starred.iter().map(|h| h.domain.clone()).collect();
        funnel.inconclusive = inconclusive
            .iter()
            .filter(|(c, _, _, _)| !starred_domains.contains(&c.domain))
            .count();
        hijacked.extend(starred);

        // ---- stage 5: pivot -------------------------------------------
        let span = metrics.span_open("stage.pivot");
        let alloc0 = metrics::allocated_bytes_total();
        let t = Instant::now();
        let mut pdns_src =
            ResilientSource::new(inputs.pdns, self.config.sources, inputs.source_faults);
        let mut crtsh_src =
            ResilientSource::new(inputs.crtsh, self.config.sources, inputs.source_faults);
        let pivoted = pivot_guarded(&hijacked, &mut pdns_src, &mut crtsh_src, &self.config.pivot);
        metrics.count("pivot.discovered", pivoted.found.len() as u64);
        if pivoted.degraded_lookups > 0 {
            metrics.count("pivot.degraded_lookups", pivoted.degraded_lookups as u64);
        }
        let mut src_shard = MetricsShard::default();
        pdns_src.record(&mut src_shard);
        crtsh_src.record(&mut src_shard);
        metrics.merge(src_shard);
        stage_sample(metrics, "pivot", hijacked.len(), t.elapsed(), alloc0);
        metrics.span_close(span);
        hijacked.extend(pivoted.found);
        degraded.extend(pivoted.degraded);

        // Backfill attacker network annotations (pivot discoveries know
        // only the IP; the as-database supplies ASN and country for the
        // Table 2/5 columns). The annotation is advisory, so an
        // unavailable geolocation source degrades only the annotation —
        // the verdict stands, and the gap is counted, never guessed.
        let mut geo = SourceGuard::new(SRC_GEO, self.config.sources, inputs.source_faults);
        let mut annotation_degraded = 0u64;
        for h in hijacked.iter_mut() {
            if h.attacker_asn.is_some() {
                continue;
            }
            let Some(ip) = h.attacker_ips.first().copied() else {
                continue;
            };
            let key = query_key(&[h.domain.as_str().as_bytes(), &ip.0.to_le_bytes()]);
            match geo.call(key, || inputs.asdb.annotate(ip)) {
                Ok(ann) => {
                    h.attacker_asn = ann.asn;
                    h.attacker_cc = ann.country;
                }
                Err(_) => annotation_degraded += 1,
            }
        }
        if annotation_degraded > 0 {
            metrics.count("pivot.annotation_degraded", annotation_degraded);
        }
        let mut src_shard = MetricsShard::default();
        geo.record(&mut src_shard);
        metrics.merge(src_shard);

        // ---- degraded-mode accounting ---------------------------------
        degraded.sort();
        for d in &degraded {
            *funnel.degraded.entry(d.stage.clone()).or_insert(0) += 1;
        }

        // ---- dedup + ordering -----------------------------------------
        let hijacked = dedup_hijacks(hijacked);
        let hijacked_set: BTreeSet<_> = hijacked.iter().map(|h| h.domain.clone()).collect();
        let targeted = dedup_targets(targeted, &hijacked_set);
        for h in &hijacked {
            *funnel
                .hijacks_by_type
                .entry(h.dtype.label().to_string())
                .or_insert(0) += 1;
        }

        Report {
            hijacked,
            targeted,
            degraded,
            funnel,
        }
    }
}

/// Seed the funnel with population statistics: per-map and worst-per-domain
/// category histograms over the classified maps, plus the quarantine
/// counts from stage 0 and the unclassified maps as `worker_panic`.
fn funnel_population(
    maps: &[DeploymentMap],
    patterns: &[Pattern],
    quarantined: BTreeMap<String, usize>,
) -> FunnelStats {
    let mut funnel = FunnelStats {
        quarantined,
        ..FunnelStats::default()
    };
    // Maps arrive sorted by domain, so a domain's periods are adjacent:
    // comparing against the previous map's domain replaces interning,
    // and the handful of category labels are tallied through
    // &'static str keys — no per-map hashing or String allocation.
    let rank = |c: &str| match c {
        "transient" => 3,
        "noisy" => 2,
        "transition" => 1,
        _ => 0,
    };
    let mut map_cats: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut domain_cats: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut prev_domain: Option<&DomainName> = None;
    let mut worst: &'static str = "stable";
    for (m, p) in maps.iter().zip(patterns) {
        if matches!(p, Pattern::Unclassified) {
            *funnel.quarantined.entry("worker_panic".into()).or_insert(0) += 1;
            continue;
        }
        funnel.maps_total += 1;
        let cat = p.category();
        *map_cats.entry(cat).or_insert(0) += 1;
        if matches!(p, Pattern::Transient { .. }) {
            funnel.transient_maps += 1;
        }
        if prev_domain != Some(&m.domain) {
            if prev_domain.is_some() {
                *domain_cats.entry(worst).or_insert(0) += 1;
            }
            prev_domain = Some(&m.domain);
            worst = "stable";
            funnel.domains_total += 1;
        }
        if rank(cat) > rank(worst) {
            worst = cat;
        }
    }
    if prev_domain.is_some() {
        *domain_cats.entry(worst).or_insert(0) += 1;
    }
    for (cat, n) in map_cats {
        funnel.map_categories.insert(cat.to_string(), n);
    }
    for (cat, n) in domain_cats {
        funnel.domain_categories.insert(cat.to_string(), n);
    }
    funnel
}

/// Fold shortlist results into the funnel (candidate, anomalous-route and
/// per-reason prune counts).
fn apply_shortlist_funnel(
    funnel: &mut FunnelStats,
    shortlisted: &crate::shortlist::ShortlistOutcome,
) {
    funnel.shortlisted = shortlisted.candidates.len();
    funnel.truly_anomalous = shortlisted
        .candidates
        .iter()
        .filter(|c| c.via_anomalous_route)
        .count();
    for (reason, n) in shortlisted.prune_histogram() {
        funnel.pruned.insert(reason.label().to_string(), n);
    }
}

/// Run one work item, converting a panic into `None` so a poisoned
/// record cannot take down its worker (or the run). The caller counts
/// `None` under the `worker_panic` quarantine reason. The default panic
/// hook still prints to stderr; suppressing it globally would hide
/// panics from unrelated threads.
fn catch_item<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Record one stage's point-in-time samples: wall time and item count as
/// `stage.<name>.*` gauges, the wall time into the shared `stage.wall_ms`
/// histogram, plus RSS (Linux) and the allocation delta since `alloc0`
/// (when [`CountingAlloc`](crate::metrics::CountingAlloc) is installed).
fn stage_sample(
    metrics: &mut MetricsRegistry,
    name: &str,
    items: usize,
    wall: Duration,
    alloc0: u64,
) {
    // Read the allocation total before this function's own gauge keys
    // and `/proc` read allocate, so the delta is the stage's alone.
    let alloc_delta = metrics::allocated_bytes_total().saturating_sub(alloc0);
    let ms = wall.as_secs_f64() * 1e3;
    metrics.gauge(&format!("stage.{name}.wall_ms"), ms);
    metrics.gauge(&format!("stage.{name}.items"), items as f64);
    metrics.observe("stage.wall_ms", ms);
    if let Some(kb) = metrics::rss_kb_now() {
        metrics.gauge(&format!("stage.{name}.rss_kb"), kb as f64);
    }
    if metrics::alloc_counting_active() {
        metrics.gauge(&format!("stage.{name}.alloc_bytes"), alloc_delta as f64);
    }
}

/// Below this many maps per worker, classification runs serially:
/// classifying a map is microseconds of column math, so thread spawn
/// plus join dominates until chunks are in the thousands.
const MIN_CLASSIFY_PER_WORKER: usize = 1024;

/// Below this many candidates per worker, inspection runs serially.
/// Inspection does real corroboration work per candidate, so the
/// break-even chunk is much smaller than classify's — but the typical
/// shortlist (single digits of candidates) must never pay thread spawn.
const MIN_INSPECT_PER_WORKER: usize = 32;

/// Chunk size for splitting `items` across `workers`, or `None` when the
/// stage should run serially: a single worker, or too few items for the
/// per-thread spawn cost to pay for itself (`min_per_worker` is the
/// stage-specific break-even point).
fn parallel_chunk(items: usize, workers: usize, min_per_worker: usize) -> Option<usize> {
    if workers <= 1 || items < 2 || items < workers.saturating_mul(min_per_worker) {
        return None;
    }
    Some(items.div_ceil(workers))
}

/// Mirror every [`FunnelStats`] field into the `funnel.*` counter
/// namespace. The mapping is exact and exhaustive — the
/// `tests/metrics.rs` reconciliation test asserts counter-for-field
/// equality against [`Report::funnel`], so a new funnel field must be
/// added here (and there) to compile the accounting loop shut.
fn record_funnel(metrics: &mut MetricsRegistry, funnel: &FunnelStats) {
    for (reason, n) in &funnel.quarantined {
        metrics.count(&format!("funnel.quarantined.{reason}"), *n as u64);
    }
    metrics.count("funnel.domains_total", funnel.domains_total as u64);
    metrics.count("funnel.maps_total", funnel.maps_total as u64);
    for (cat, n) in &funnel.domain_categories {
        metrics.count(&format!("funnel.domain_category.{cat}"), *n as u64);
    }
    for (cat, n) in &funnel.map_categories {
        metrics.count(&format!("funnel.map_category.{cat}"), *n as u64);
    }
    metrics.count("funnel.transient_maps", funnel.transient_maps as u64);
    metrics.count("funnel.shortlisted", funnel.shortlisted as u64);
    metrics.count("funnel.truly_anomalous", funnel.truly_anomalous as u64);
    for (reason, n) in &funnel.pruned {
        metrics.count(&format!("funnel.pruned.{reason}"), *n as u64);
    }
    metrics.count("funnel.dismissed_stale", funnel.dismissed_stale as u64);
    metrics.count("funnel.inconclusive", funnel.inconclusive as u64);
    for (stage, n) in &funnel.degraded {
        metrics.count(&format!("funnel.degraded.{stage}"), *n as u64);
    }
    for (t, n) in &funnel.hijacks_by_type {
        metrics.count(&format!("funnel.hijacks.{t}"), *n as u64);
    }
}

/// Input validation: reject observations the pipeline cannot analyze,
/// with a per-reason histogram, instead of panicking or silently
/// skipping them inside the stages.
///
/// Reasons (checked in this order; a record counts once):
/// * `out-of-window` — the scan date falls outside the study window
///   (`start..=end`), so in no study period;
/// * `unrouted` — no origin AS (the map builder needs network identity);
/// * `unknown-cert` — the certificate id is absent from the analyst's
///   cert store, so nothing about the endpoint can be corroborated;
/// * `duplicate` — an exact repeat of a kept record.
///
/// Clean, sorted input is returned as `Cow::Borrowed` with an empty
/// histogram (zero copies on the fast path). Otherwise the surviving
/// records are re-sorted and deduplicated, restoring the ordering
/// contract of [`retrodns_scan::domain_observations`] for the stages
/// downstream. The check runs on the calling thread; the batch run's
/// stage 0 splits the same check across its workers.
pub fn quarantine<'a>(
    observations: &'a [DomainObservation],
    window: &StudyWindow,
    certs: &HashMap<CertId, Certificate>,
) -> (Cow<'a, [DomainObservation]>, BTreeMap<String, usize>) {
    let (selection, reasons) = quarantine_source(
        &RowSource(observations),
        window,
        certs,
        1,
        &mut MetricsShard::default(),
    );
    let kept = match selection {
        None => Cow::Borrowed(observations),
        Some(sel) => Cow::Owned(
            sel.iter()
                .map(|&i| observations[i as usize].clone())
                .collect(),
        ),
    };
    (kept, reasons)
}

/// [`quarantine`] over any source. The survivors are returned as a
/// *selection* — indices of the kept observations, in analysis order —
/// instead of copied records. A clean, sorted source returns `None`
/// (analyze every observation in place) with an empty histogram.
///
/// The clean check splits `0..n` into up to `workers` equal ranges
/// (serial below [`DEFAULT_MIN_OBS_PER_WORKER`] rows per worker), each
/// checked on its own worker. A range checks its own rows and the
/// order of its first row against the row before it, so each cut costs
/// one compare across the boundary and the ranges together check every
/// adjacent pair exactly once. The per-range wall times land in `shard`
/// as `quarantine.worker.<i>.*`. Dirty input (only fault worlds) then
/// takes one serial reject pass, sort and dedup.
fn quarantine_source<S: ObsSource>(
    src: &S,
    window: &StudyWindow,
    certs: &HashMap<CertId, Certificate>,
    workers: usize,
    shard: &mut MetricsShard,
) -> (Option<Vec<u32>>, BTreeMap<String, usize>) {
    // A fresh reject test per pass (one per clean-check range, one for
    // the dirty pass). Each remembers the last certificate id it found in
    // `certs` and skips the lookup while the next row presents that same
    // id, as adjacent rows mostly do. An id that is not found is never
    // remembered, so every row carrying it is looked up and rejected.
    let new_pass = || {
        let mut known: Option<CertId> = None;
        move |i: usize| -> Option<&'static str> {
            if !window.contains(src.date(i)) {
                return Some("out-of-window");
            }
            if src.asn(i).is_none() {
                return Some("unrouted");
            }
            let cert = src.cert(i);
            if known != Some(cert) {
                if !certs.contains_key(&cert) {
                    return Some("unknown-cert");
                }
                known = Some(cert);
            }
            None
        }
    };

    let n = src.len();
    let check_range = |lo: usize, hi: usize| {
        let t = Instant::now();
        let mut reject = new_pass();
        let clean = (lo..hi)
            .all(|i| reject(i).is_none() && (i == 0 || src.cmp_full(i - 1, i) == Ordering::Less));
        (clean, (hi - lo, t.elapsed()))
    };
    let ranges: Vec<(bool, (usize, Duration))> =
        match parallel_chunk(n, workers, DEFAULT_MIN_OBS_PER_WORKER) {
            None => vec![check_range(0, n)],
            Some(chunk) => crossbeam::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|lo| scope.spawn(move |_| check_range(lo, (lo + chunk).min(n))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("quarantine worker thread died"))
                    .collect()
            })
            .expect("crossbeam scope"),
        };
    let (clean, worker_stats): (Vec<bool>, Vec<_>) = ranges.into_iter().unzip();
    shard.record_worker_stats("quarantine", &worker_stats);
    if clean.iter().all(|&c| c) {
        return (None, BTreeMap::new());
    }

    let n = u32::try_from(n).expect("a source fits u32 indices");
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut kept: Vec<u32> = Vec::with_capacity(n as usize);
    let mut reject = new_pass();
    for i in 0..n {
        match reject(i as usize) {
            Some(r) => *reasons.entry(r.to_string()).or_insert(0) += 1,
            None => kept.push(i),
        }
    }
    // Stable sort + full-order dedup (`Equal` under the full comparator
    // means field-for-field identical records).
    kept.sort_by(|&a, &b| src.cmp_full(a as usize, b as usize));
    let before = kept.len();
    kept.dedup_by(|a, b| src.cmp_full(*a as usize, *b as usize) == Ordering::Equal);
    if before > kept.len() {
        *reasons.entry("duplicate".to_string()).or_insert(0) += before - kept.len();
    }
    (Some(kept), reasons)
}

/// Aggregated stage-4 outcomes for a set of candidates (before the T1*
/// pass). Partials from parallel workers merge by concatenation, so the
/// struct doubles as the per-chunk accumulator.
#[derive(Debug, Default, Clone)]
pub struct InspectionResults {
    /// Candidates concluded hijacked.
    pub hijacked: Vec<DetectedHijack>,
    /// Candidates concluded targeted but not hijacked.
    pub targeted: Vec<DetectedTarget>,
    /// Inconclusive candidates with the evidence retained for the T1*
    /// pass: (candidate, issuance day, certificate, sensitive name).
    pub inconclusive: Vec<(Candidate, Day, Option<CertId>, Option<DomainName>)>,
    /// Candidates dismissed for stale certificates.
    pub dismissed_stale: usize,
    /// Candidates whose verdict degraded: a corroboration source stayed
    /// unavailable past its retry budget.
    pub degraded: Vec<DegradedVerdict>,
    /// Candidates skipped because their inspection panicked; the
    /// pipeline quarantines them under `worker_panic`.
    pub worker_panics: usize,
}

/// Deduplicate hijacks by domain: earliest evidence wins the date; types,
/// IPs and nameservers merge; corroboration flags OR together.
fn dedup_hijacks(hijacks: Vec<DetectedHijack>) -> Vec<DetectedHijack> {
    let mut by_domain: BTreeMap<DomainName, DetectedHijack> = BTreeMap::new();
    for h in hijacks {
        match by_domain.get_mut(&h.domain) {
            None => {
                by_domain.insert(h.domain.clone(), h);
            }
            Some(existing) => {
                existing.first_evidence = existing.first_evidence.min(h.first_evidence);
                existing.pdns_corroborated |= h.pdns_corroborated;
                existing.ct_corroborated |= h.ct_corroborated;
                existing.geo_implausible |= h.geo_implausible;
                if existing.malicious_cert.is_none() {
                    existing.malicious_cert = h.malicious_cert;
                }
                if existing.sub.is_none() {
                    existing.sub = h.sub;
                }
                for ip in h.attacker_ips {
                    if !existing.attacker_ips.contains(&ip) {
                        existing.attacker_ips.push(ip);
                    }
                }
                for ns in h.attacker_ns {
                    if !existing.attacker_ns.contains(&ns) {
                        existing.attacker_ns.push(ns);
                    }
                }
            }
        }
    }
    by_domain.into_values().collect()
}

/// Deduplicate targets by domain and drop any already concluded hijacked.
fn dedup_targets(
    targets: Vec<DetectedTarget>,
    hijacked: &BTreeSet<DomainName>,
) -> Vec<DetectedTarget> {
    let mut by_domain: BTreeMap<DomainName, DetectedTarget> = BTreeMap::new();
    for t in targets {
        if hijacked.contains(&t.domain) {
            continue;
        }
        by_domain.entry(t.domain.clone()).or_insert(t);
    }
    by_domain.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortlist::ShortlistConfig;
    use retrodns_sim::{SimConfig, World};

    /// The one domain the test-only classify fault panics on. No
    /// simulated world generates a `.test` name.
    pub(super) const CLASSIFY_FAULT_DOMAIN: &str = "classify-fault.test";

    /// End-to-end: the pipeline recovers most planted hijacks with no
    /// false positives among benign domains.
    #[test]
    fn pipeline_recovers_planted_attacks() {
        let world = World::build(SimConfig::small(0xBEEF));
        let dataset = world.scan();
        let observations = world.observations(&dataset);
        let pipeline = Pipeline::new(PipelineConfig {
            window: world.config.window.clone(),
            ..PipelineConfig::default()
        });
        let report = pipeline.run(&AnalystInputs {
            observations: &observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: &world.pdns,
            crtsh: &world.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: None,
        });

        let truth_hijacked: BTreeSet<_> = world
            .ground_truth
            .hijacked
            .iter()
            .map(|h| h.domain.clone())
            .collect();
        let detected: BTreeSet<_> = report.hijacked_domains().into_iter().collect();

        // Recall: at least two thirds of planted hijacks recovered.
        let tp = detected.intersection(&truth_hijacked).count();
        assert!(
            tp * 3 >= truth_hijacked.len() * 2,
            "recall too low: {tp}/{} (detected {:?})",
            truth_hijacked.len(),
            detected
        );

        // Precision: every *hijacked* verdict is a truly attacked domain
        // (hijacked or at least staged).
        for h in &report.hijacked {
            assert!(
                world.ground_truth.is_attacked(&h.domain),
                "false positive hijack: {} ({:?})",
                h.domain,
                h.dtype
            );
        }

        // The funnel monotonically narrows.
        let f = &report.funnel;
        assert!(f.transient_maps >= f.shortlisted);
        assert!(
            f.shortlisted
                >= report.hijacked.len()
                    - f.hijacks_by_type.get("P-IP").copied().unwrap_or(0)
                    - f.hijacks_by_type.get("P-NS").copied().unwrap_or(0)
        );
        // Population is overwhelmingly stable.
        let stable = f.domain_categories.get("stable").copied().unwrap_or(0);
        assert!(stable as f64 > 0.9 * f.domains_total as f64);
    }

    /// Ablations: disabling shortlist heuristics can only widen the
    /// candidate set.
    #[test]
    fn ablation_widens_shortlist() {
        let world = World::build(SimConfig::small(0xF00D));
        let dataset = world.scan();
        let observations = world.observations(&dataset);
        let base = Pipeline::new(PipelineConfig::default());
        let loose = Pipeline::new(PipelineConfig {
            shortlist: ShortlistConfig {
                disable_org_check: true,
                disable_geo_check: true,
                disable_visibility_check: true,
                disable_repeat_check: true,
                disable_sensitive_filter: true,
                ..ShortlistConfig::default()
            },
            ..PipelineConfig::default()
        });
        let inputs = AnalystInputs {
            observations: &observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: &world.pdns,
            crtsh: &world.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: None,
        };
        let r1 = base.run(&inputs);
        let r2 = loose.run(&inputs);
        assert!(r2.funnel.shortlisted >= r1.funnel.shortlisted);
        assert!(r2.funnel.pruned.values().sum::<usize>() == 0);
    }

    /// Stage 0 over `rows` at `workers`, with one known certificate,
    /// `CertId(1)`.
    fn quarantine_at(
        rows: &[DomainObservation],
        window: &StudyWindow,
        workers: usize,
    ) -> (Option<Vec<u32>>, BTreeMap<String, usize>) {
        use retrodns_cert::{CaId, KeyId};
        let name = rows[0].domain.clone();
        let cert = Certificate::new(CertId(1), vec![name], CaId(0), Day(0), 90, KeyId(0));
        let certs = HashMap::from([(CertId(1), cert)]);
        quarantine_source(
            &RowSource(rows),
            window,
            &certs,
            workers,
            &mut MetricsShard::default(),
        )
    }

    /// The parallel clean check cuts `0..n` into ranges and checks each
    /// range's first row against the row before it. Every flaw planted at
    /// a cut, or as the first or last row of a range, must give the
    /// serial selection and histogram at every worker count — in
    /// particular a duplicate or out-of-order pair straddling a cut, which
    /// only that boundary compare sees. Every pass remembers the last
    /// certificate id it found; the unknown ids planted here (a lone one
    /// between two rows on the known id, and runs of one repeated id)
    /// must each be looked up and rejected on every row.
    #[test]
    fn parallel_clean_check_matches_serial_at_every_cut() {
        use retrodns_types::{Asn, Ipv4Addr};

        // Started after `Day::EPOCH` so that the day before it exists.
        let window = StudyWindow {
            start: Day(100),
            ..StudyWindow::default()
        };
        // 1 700 domains × 20 weekly scans: above the parallel floor even
        // at 8 workers.
        let clean: Vec<DomainObservation> = (0..1_700u32)
            .flat_map(|d| {
                let domain: DomainName = format!("d{d:05}.com").parse().unwrap();
                (0..20u32).map(move |w| DomainObservation {
                    domain: domain.clone(),
                    date: window.start + 7 * w,
                    ip: Ipv4Addr(0x0A00_0001),
                    asn: Some(Asn(64_500)),
                    country: None,
                    cert: CertId(1),
                    trusted: true,
                })
            })
            .collect();
        let n = clean.len();
        type Flaw = fn(&mut DomainObservation);
        let rejects: [(&str, Flaw); 3] = [
            ("out-of-window", |o| o.date = Day(u32::MAX)),
            ("unrouted", |o| o.asn = None),
            ("unknown-cert", |o| o.cert = CertId(2)),
        ];

        for workers in [1, 2, 3, 8] {
            assert_eq!(
                quarantine_at(&clean, &window, workers),
                (None, BTreeMap::new())
            );
        }
        // Each check: the flawed rows, the expected histogram, and the
        // worker counts to compare against the serial run.
        let check = |rows: &[DomainObservation], expect: &[(&str, usize)], workers: &[usize]| {
            let serial = quarantine_at(rows, &window, 1);
            assert!(serial.0.is_some(), "a flawed input returned no selection");
            let expect: BTreeMap<String, usize> =
                expect.iter().map(|&(r, k)| (r.to_string(), k)).collect();
            assert_eq!(serial.1, expect);
            for &w in workers {
                assert!(
                    quarantine_at(rows, &window, w) == serial,
                    "workers={w} diverged"
                );
            }
        };
        // Two adjacent rows on one unknown id. `CertId(0)` also catches a
        // memo seeded with a default id instead of none.
        let unknown_run = |run: std::ops::Range<usize>| {
            let mut rows = clean.clone();
            for o in &mut rows[run] {
                o.cert = CertId(0);
            }
            rows
        };
        for (reason, flaw) in rejects {
            for pos in [0, n - 1] {
                let mut rows = clean.clone();
                flaw(&mut rows[pos]);
                check(&rows, &[(reason, 1)], &[2, 3, 8]);
            }
        }
        for run in [0..2, n - 2..n] {
            check(&unknown_run(run), &[("unknown-cert", 2)], &[2, 3, 8]);
        }
        // The window is `start..=end`: of rows dated the day before it,
        // its first day, its last day and the day after, only the outer
        // two are rejected. A second address keeps the inner two from
        // repeating a kept row.
        let mut rows = clean.clone();
        let edges = [window.start - 1, window.start, window.end, window.end + 1];
        for (pos, date) in [0, n / 3, 2 * n / 3, n - 1].into_iter().zip(edges) {
            rows[pos].date = date;
            rows[pos].ip = Ipv4Addr(0x0A00_0002);
        }
        check(&rows, &[("out-of-window", 2)], &[2, 3, 8]);
        for workers in [2, 3, 8] {
            let chunk = parallel_chunk(n, workers, DEFAULT_MIN_OBS_PER_WORKER)
                .expect("the row set is above the parallel floor");
            for cut in (chunk..n).step_by(chunk) {
                let mut rows = clean.clone();
                rows[cut] = rows[cut - 1].clone();
                check(&rows, &[("duplicate", 1)], &[workers]);

                let mut rows = clean.clone();
                rows.swap(cut - 1, cut);
                check(&rows, &[], &[workers]);

                // The lone `unknown-cert` flaw sits between two rows on
                // the known id.
                for (reason, flaw) in rejects {
                    for pos in [cut - 1, cut] {
                        let mut rows = clean.clone();
                        flaw(&mut rows[pos]);
                        check(&rows, &[(reason, 1)], &[workers]);
                    }
                }
                // A run ending one range, straddling the cut, and
                // starting the next range.
                for run in [cut - 2..cut, cut - 1..cut + 1, cut..cut + 2] {
                    check(&unknown_run(run), &[("unknown-cert", 2)], &[workers]);
                }
            }
        }
    }

    /// A panicking work item becomes `None` instead of killing the run.
    #[test]
    fn catch_item_converts_panics() {
        assert_eq!(catch_item(|| 5), Some(5));
        assert_eq!(catch_item::<i32>(|| panic!("poisoned record")), None);
    }

    /// A classification that panics is quarantined alike on every
    /// stages-1–2 path: the batch run, an all-weeks stream and a stream
    /// resumed from a mid-way checkpoint give byte-identical reports, each
    /// counting the poisoned maps under `worker_panic`, and none of them
    /// panics out. The world has more than `2 × MIN_CLASSIFY_PER_WORKER`
    /// maps, so batch and resume classify in parallel chunks at 2 workers.
    #[test]
    fn classify_fault_is_quarantined_alike_in_batch_stream_and_resume() {
        use crate::checkpoint::CheckpointStore;
        use crate::incremental::{week_batches, IncrementalAnalyzer};

        let world = World::build(SimConfig {
            n_domains: 600,
            ..SimConfig::small(0xFA17)
        });
        let window = &world.config.window;
        let mut observations = world.observations(&world.scan());
        // The faulting domain gets a copy of one domain's routed,
        // in-window, known-cert rows, so stage 0 keeps every one of them.
        let template = observations[0].domain.clone();
        let planted: Vec<DomainObservation> = observations
            .iter()
            .filter(|o| o.domain == template && o.asn.is_some())
            .filter(|o| window.contains(o.date) && world.certs.contains_key(&o.cert))
            .map(|o| DomainObservation {
                domain: CLASSIFY_FAULT_DOMAIN.parse().unwrap(),
                ..o.clone()
            })
            .collect();
        let poisoned: BTreeSet<_> = planted
            .iter()
            .filter_map(|o| window.period_of(o.date))
            .map(|p| p.id)
            .collect();
        assert!(!poisoned.is_empty());
        observations.extend(planted);
        observations.sort();
        let weeks = week_batches(&observations);
        let half = weeks.len() / 2;
        let inputs = AnalystInputs {
            observations: &observations,
            asdb: &world.geo.asdb,
            certs: &world.certs,
            pdns: &world.pdns,
            crtsh: &world.crtsh,
            dnssec: Some(&world.dnssec),
            source_faults: None,
        };
        let json = |r: &Report| serde_json::to_string(r).unwrap();
        let panics = |f: &FunnelStats| f.quarantined.get("worker_panic").copied().unwrap_or(0);

        for workers in [1, 2] {
            let config = PipelineConfig {
                window: window.clone(),
                workers,
                ..PipelineConfig::default()
            };
            let mut metrics = MetricsRegistry::new();
            let batch = Pipeline::new(config.clone()).run_with(&inputs, &mut metrics);
            assert_eq!(panics(&batch.funnel), poisoned.len());
            assert_eq!(
                metrics.snapshot().counters["funnel.quarantined.worker_panic"],
                poisoned.len() as u64
            );

            let dir = std::env::temp_dir().join(format!(
                "retrodns-classify-fault-{}-{workers}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).unwrap();
            let mut stream = IncrementalAnalyzer::new(config.clone());
            for (i, week) in weeks.iter().enumerate() {
                if i == half {
                    stream.checkpoint(&store).unwrap();
                    let mid = &stream.report().funnel;
                    assert!(panics(mid) > 0);
                    assert!(mid.maps_total + panics(mid) > 2 * MIN_CLASSIFY_PER_WORKER);
                }
                stream.ingest_week(week, &inputs);
            }
            let mut resumed = IncrementalAnalyzer::resume(config, &store).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            for week in &weeks[half..] {
                resumed.ingest_week(week, &inputs);
            }

            assert_eq!(
                json(stream.report()),
                json(&batch),
                "stream, workers={workers}"
            );
            assert_eq!(
                json(resumed.report()),
                json(&batch),
                "resume, workers={workers}"
            );
        }
    }
}
