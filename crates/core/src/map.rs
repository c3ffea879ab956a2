//! Stage 1: building deployment maps (§4.1).
//!
//! A *deployment group* is the observable infrastructure of one domain in
//! one ASN on one scan date. Groups in the same ASN observed across
//! nearby scan dates link into a *deployment*; all deployments of a
//! domain within one six-month period form its *deployment map*.
//!
//! Linking tolerates short observation gaps (an endpoint missing from a
//! scan or two) via `link_gap_scans`; a longer silence splits the run, so
//! the same ASN can legitimately host several distinct deployments in a
//! period (which is how repeated transients appear).
//!
//! Every production path builds maps through one engine: the
//! `ObsSource`-generic, range-sharded arena
//! ([`MapBuilder::build_sharded_stats`] over rows,
//! [`MapBuilder::build_store_stats`] over a columnar store, and
//! [`MapBuilder::append_scan`] for first sightings). The two public builds
//! take input in any order and sort it first when they must; the
//! pipeline's stages-1–2 path hands the engine input that stage 0 has
//! already put in `(domain, date)` order, and the engine trusts it. The
//! HashMap/interner builder in [`reference`](mod@reference) is kept only
//! as the equivalence oracle.

use retrodns_cert::CertId;
use retrodns_scan::DomainObservation;
use retrodns_store::{ObsColumns, ObservationStore, ASN_NONE, COUNTRY_NONE};
use retrodns_types::{Asn, CountryCode, Day, DomainName, Ipv4Addr, Period, PeriodId, StudyWindow};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Field access the map engine and the quarantine stage need from an
/// observation batch, abstracted over representation: a row slice, or
/// columnar store slices read in place (no row rehydration — the arena
/// build pulls each field straight out of its column).
///
/// Indices are positions in the *logical* stream (after any
/// [`Selected`] routing), which the hot loops carry as `u32` in the
/// arena.
pub(crate) trait ObsSource: Sync {
    /// Observations in the batch.
    fn len(&self) -> usize;
    /// Scan date of observation `i`.
    fn date(&self, i: usize) -> Day;
    /// Address of observation `i`.
    fn ip(&self, i: usize) -> Ipv4Addr;
    /// Origin ASN of observation `i` (`None` = unrouted).
    fn asn(&self, i: usize) -> Option<Asn>;
    /// Country of observation `i`.
    fn country(&self, i: usize) -> Option<CountryCode>;
    /// Certificate of observation `i`.
    fn cert(&self, i: usize) -> CertId;
    /// Trust bit of observation `i`.
    fn trusted(&self, i: usize) -> bool;
    /// Do observations `a` and `b` name the same domain? (For columns
    /// this is one integer compare — interned ids are bijective with
    /// names.)
    fn same_domain(&self, a: usize, b: usize) -> bool;
    /// The domain name of observation `i` (only touched once per output
    /// map, at bucket flush).
    fn domain_at(&self, i: usize) -> &DomainName;
    /// `(domain, date)` ordering of observations `a` and `b` — the
    /// sort key the map engine needs.
    fn cmp_domain_date(&self, a: usize, b: usize) -> Ordering;
    /// Full ordering of observations `a` and `b`, matching the derived
    /// [`DomainObservation`] `Ord` field for field (`None` first for the
    /// optional fields) — the sort and dedup key of the quarantine stage.
    fn cmp_full(&self, a: usize, b: usize) -> Ordering {
        self.cmp_domain_date(a, b)
            .then_with(|| self.ip(a).cmp(&self.ip(b)))
            .then_with(|| self.asn(a).cmp(&self.asn(b)))
            .then_with(|| self.country(a).cmp(&self.country(b)))
            .then_with(|| self.cert(a).cmp(&self.cert(b)))
            .then_with(|| self.trusted(a).cmp(&self.trusted(b)))
    }
}

/// Row-slice source: any slice of borrowable observations.
pub(crate) struct RowSource<'a, O>(pub(crate) &'a [O]);

impl<O: Borrow<DomainObservation> + Sync> ObsSource for RowSource<'_, O> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn date(&self, i: usize) -> Day {
        self.0[i].borrow().date
    }
    #[inline]
    fn ip(&self, i: usize) -> Ipv4Addr {
        self.0[i].borrow().ip
    }
    #[inline]
    fn asn(&self, i: usize) -> Option<Asn> {
        self.0[i].borrow().asn
    }
    #[inline]
    fn country(&self, i: usize) -> Option<CountryCode> {
        self.0[i].borrow().country
    }
    #[inline]
    fn cert(&self, i: usize) -> CertId {
        self.0[i].borrow().cert
    }
    #[inline]
    fn trusted(&self, i: usize) -> bool {
        self.0[i].borrow().trusted
    }
    #[inline]
    fn same_domain(&self, a: usize, b: usize) -> bool {
        self.0[a].borrow().domain == self.0[b].borrow().domain
    }
    #[inline]
    fn domain_at(&self, i: usize) -> &DomainName {
        &self.0[i].borrow().domain
    }
    #[inline]
    fn cmp_domain_date(&self, a: usize, b: usize) -> Ordering {
        let (a, b) = (self.0[a].borrow(), self.0[b].borrow());
        (&a.domain, a.date).cmp(&(&b.domain, b.date))
    }
    #[inline]
    fn cmp_full(&self, a: usize, b: usize) -> Ordering {
        self.0[a].borrow().cmp(self.0[b].borrow())
    }
}

/// Columnar source: borrowed store columns.
pub(crate) struct ColSource<'a>(pub(crate) ObsColumns<'a>);

impl ObsSource for ColSource<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn date(&self, i: usize) -> Day {
        self.0.date(i)
    }
    #[inline]
    fn ip(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr(self.0.ip[i])
    }
    #[inline]
    fn asn(&self, i: usize) -> Option<Asn> {
        match self.0.asn[i] {
            ASN_NONE => None,
            a => Some(Asn(a)),
        }
    }
    #[inline]
    fn country(&self, i: usize) -> Option<CountryCode> {
        match self.0.country[i] {
            COUNTRY_NONE => None,
            c => Some(CountryCode::new(c.to_be_bytes())),
        }
    }
    #[inline]
    fn cert(&self, i: usize) -> CertId {
        self.0.certs[self.0.cert[i] as usize]
    }
    #[inline]
    fn trusted(&self, i: usize) -> bool {
        self.0.trusted_bit(i)
    }
    #[inline]
    fn same_domain(&self, a: usize, b: usize) -> bool {
        self.0.domain_id[a] == self.0.domain_id[b]
    }
    #[inline]
    fn domain_at(&self, i: usize) -> &DomainName {
        &self.0.domains[self.0.domain_id[i] as usize]
    }
    #[inline]
    fn cmp_domain_date(&self, a: usize, b: usize) -> Ordering {
        let (ida, idb) = (self.0.domain_id[a], self.0.domain_id[b]);
        // Interned ids are first-seen, not lexicographic: equal ids mean
        // equal names (skip the string compare), different ids fall back
        // to name order.
        let by_domain = if ida == idb {
            Ordering::Equal
        } else {
            self.0.domains[ida as usize].cmp(&self.0.domains[idb as usize])
        };
        by_domain.then(self.0.day[a].cmp(&self.0.day[b]))
    }
}

/// A *selection* of a source: the listed observation indices, in the
/// listed order. This is how the quarantine stage's kept observations
/// and the engine's sort of unsorted input reach the arena — the
/// underlying rows or columns never move.
struct Selected<'a, S> {
    src: &'a S,
    sel: &'a [u32],
}

impl<S: ObsSource> Selected<'_, S> {
    /// Logical index → index in the underlying source.
    #[inline]
    fn at(&self, i: usize) -> usize {
        self.sel[i] as usize
    }
}

impl<S: ObsSource> ObsSource for Selected<'_, S> {
    #[inline]
    fn len(&self) -> usize {
        self.sel.len()
    }
    #[inline]
    fn date(&self, i: usize) -> Day {
        self.src.date(self.at(i))
    }
    #[inline]
    fn ip(&self, i: usize) -> Ipv4Addr {
        self.src.ip(self.at(i))
    }
    #[inline]
    fn asn(&self, i: usize) -> Option<Asn> {
        self.src.asn(self.at(i))
    }
    #[inline]
    fn country(&self, i: usize) -> Option<CountryCode> {
        self.src.country(self.at(i))
    }
    #[inline]
    fn cert(&self, i: usize) -> CertId {
        self.src.cert(self.at(i))
    }
    #[inline]
    fn trusted(&self, i: usize) -> bool {
        self.src.trusted(self.at(i))
    }
    #[inline]
    fn same_domain(&self, a: usize, b: usize) -> bool {
        self.src.same_domain(self.at(a), self.at(b))
    }
    #[inline]
    fn domain_at(&self, i: usize) -> &DomainName {
        self.src.domain_at(self.at(i))
    }
    #[inline]
    fn cmp_domain_date(&self, a: usize, b: usize) -> Ordering {
        self.src.cmp_domain_date(self.at(a), self.at(b))
    }
    #[inline]
    fn cmp_full(&self, a: usize, b: usize) -> Ordering {
        self.src.cmp_full(self.at(a), self.at(b))
    }
}

/// One certificate of a deployment: when it was first and last seen, and
/// whether any scan group presenting it was browser-trusted. The window
/// distinguishes rollover S2 from added-certificate S4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertSighting {
    /// The certificate.
    pub id: CertId,
    /// First scan date it was returned.
    pub first: Day,
    /// Last scan date it was returned.
    pub last: Day,
    /// Returned in a group with a browser-trusted endpoint.
    pub trusted: bool,
}

impl CertSighting {
    /// A sighting on `date` alone.
    fn on(id: CertId, date: Day, trusted: bool) -> CertSighting {
        CertSighting {
            id,
            first: date,
            last: date,
            trusted,
        }
    }
}

/// One country of a deployment and when it was first and last seen (a
/// late first sighting is within-AS geographic expansion, pattern S3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountrySighting {
    /// The country the addresses geolocate to.
    pub cc: CountryCode,
    /// First scan date it was seen.
    pub first: Day,
    /// Last scan date it was seen.
    pub last: Day,
}

impl CountrySighting {
    /// A sighting on `date` alone.
    fn on(cc: CountryCode, date: Day) -> CountrySighting {
        CountrySighting {
            cc,
            first: date,
            last: date,
        }
    }
}

/// A longitudinal run of same-ASN scan groups. Each infrastructure
/// column is an exact-size vector, strictly ascending by key, so
/// membership is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// The ASN all groups share.
    pub asn: Asn,
    /// First scan date observed.
    pub first: Day,
    /// Last scan date observed.
    pub last: Day,
    /// Every scan date the deployment appeared on, ascending.
    pub dates: Vec<Day>,
    /// Distinct addresses, ascending.
    pub ips: Vec<Ipv4Addr>,
    /// Distinct certificates, ascending by id.
    pub certs: Vec<CertSighting>,
    /// Distinct countries, ascending by code.
    pub countries: Vec<CountrySighting>,
}

impl Deployment {
    /// Observed lifetime in days (first to last sighting, inclusive).
    pub fn span_days(&self) -> u32 {
        self.last - self.first + 1
    }

    /// Number of scans the deployment appeared in.
    pub fn scan_count(&self) -> usize {
        self.dates.len()
    }

    /// Was `ip` observed in this deployment?
    pub fn has_ip(&self, ip: Ipv4Addr) -> bool {
        self.ips.binary_search(&ip).is_ok()
    }

    /// Certificate ids, ascending.
    pub fn cert_ids(&self) -> impl Iterator<Item = CertId> + '_ {
        self.certs.iter().map(|s| s.id)
    }

    /// Browser-trusted certificate ids, ascending.
    pub fn trusted_cert_ids(&self) -> impl Iterator<Item = CertId> + '_ {
        self.certs.iter().filter(|s| s.trusted).map(|s| s.id)
    }

    /// Country codes, ascending.
    pub fn country_codes(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.countries.iter().map(|s| s.cc)
    }

    /// Does this deployment present any browser-trusted certificate?
    pub fn has_trusted_cert(&self) -> bool {
        self.certs.iter().any(|s| s.trusted)
    }

    /// Do two certificates' sighting windows strictly overlap (both seen
    /// concurrently rather than rolled over)?
    pub fn has_concurrent_certs(&self) -> bool {
        self.certs.iter().enumerate().any(|(i, a)| {
            self.certs[i + 1..]
                .iter()
                .any(|b| a.first < b.last && b.first < a.last)
        })
    }

    /// Did a new country appear more than `margin_days` after the
    /// deployment's first sighting (within-AS geographic expansion)?
    pub fn country_added_after(&self, margin_days: u32) -> bool {
        self.countries
            .iter()
            .any(|s| s.first > self.first + margin_days)
    }
}

/// All deployments of one domain within one analysis period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentMap {
    /// The registered domain.
    pub domain: DomainName,
    /// The analysis period.
    pub period: Period,
    /// Deployments, ordered by (first, asn).
    pub deployments: Vec<Deployment>,
    /// Scan dates (within the period) on which the domain appeared at all.
    pub dates_present: Vec<Day>,
    /// Number of scan dates the period contains.
    pub expected_scans: usize,
}

impl DeploymentMap {
    /// Fraction of the period's scans in which the domain appeared.
    pub fn visibility(&self) -> f64 {
        if self.expected_scans == 0 {
            return 0.0;
        }
        self.dates_present.len() as f64 / self.expected_scans as f64
    }

    /// Union of ASNs across all deployments.
    pub fn asns(&self) -> BTreeSet<Asn> {
        self.deployments.iter().map(|d| d.asn).collect()
    }

    /// Days between consecutive expected scans in this period (≥ 1). The
    /// single source of truth for the classify edge margin and the
    /// rendered timeline slots — keeping the two from drifting apart.
    pub fn scan_interval(&self) -> u32 {
        (self.period.len_days() as usize / self.expected_scans.max(1)).max(1) as u32
    }
}

/// Builder turning annotated scan observations into per-period maps.
#[derive(Debug, Clone)]
pub struct MapBuilder {
    /// The study window (defines periods and scan cadence).
    pub window: StudyWindow,
    /// Maximum number of *missed scans* between sightings that still link
    /// two groups into one deployment.
    pub link_gap_scans: u32,
    /// Adaptive single-range threshold for the sharded build: when a
    /// worker would receive fewer than this many observations, the input
    /// is too small to amortize thread spawn and the whole input is built
    /// as one arena range on the calling thread. Tests force the sharded
    /// path by setting 0.
    pub min_obs_per_worker: usize,
}

/// Default [`MapBuilder::min_obs_per_worker`]: a shard below this size
/// finishes in well under a thread-spawn's worth of work.
pub const DEFAULT_MIN_OBS_PER_WORKER: usize = 4096;

impl MapBuilder {
    /// A builder with the paper's defaults (weekly scans, gap of 2 missed
    /// scans tolerated).
    pub fn new(window: StudyWindow) -> MapBuilder {
        MapBuilder {
            window,
            link_gap_scans: 2,
            min_obs_per_worker: DEFAULT_MIN_OBS_PER_WORKER,
        }
    }

    /// Build deployment maps for every (domain, period) with data, with
    /// per-shard statistics (observation and map counts, wall time, arena
    /// footprint) for the metrics layer. Observations with no origin ASN
    /// are dropped (cannot be grouped); input may arrive in any order.
    ///
    /// Observations are partitioned into `workers` *contiguous ranges cut
    /// at domain boundaries* of the `(domain, date)`-sorted input, so each
    /// worker owns a disjoint domain key range and builds its maps to
    /// completion in a per-shard [`ShardArena`]. Because the ranges are
    /// ordered, the final output is a stable-by-key concatenation of the
    /// per-shard outputs — no global merge, no re-sort. With one worker,
    /// or fewer than `workers ×` [`min_obs_per_worker`](Self::min_obs_per_worker)
    /// observations, the same arena builds the whole input as one range
    /// without spawning a thread.
    pub fn build_sharded_stats(
        &self,
        observations: &[DomainObservation],
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        self.build_selection(&RowSource(observations), None, workers)
    }

    /// [`build_sharded_stats`](Self::build_sharded_stats) straight from a
    /// columnar [`ObservationStore`] — fields are read out of the store's
    /// columns in place; no `DomainObservation` row is ever rehydrated.
    /// `selection` lists the store rows to analyze (the quarantine
    /// stage's kept rows); `None` means every row.
    pub fn build_store_stats(
        &self,
        store: &ObservationStore,
        selection: Option<&[u32]>,
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        self.build_selection(&ColSource(store.columns()), selection, workers)
    }

    /// The public entry points' engine call over a source in any order,
    /// optionally routed through a selection: input that is not
    /// `(domain, date)`-sorted is routed through
    /// [`sorted_selection`] first; the observations themselves never move.
    fn build_selection<S: ObsSource>(
        &self,
        src: &S,
        selection: Option<&[u32]>,
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        let sorted = match selection {
            None => source_is_sorted(src),
            Some(sel) => source_is_sorted(&Selected { src, sel }),
        };
        if sorted {
            return self.build_sorted(src, selection, workers);
        }
        let sel = sorted_selection(src, selection);
        self.build_sorted(src, Some(&sel), workers)
    }

    /// The engine over a source (restricted to `selection`, if any) that
    /// is already `(domain, date)`-sorted — the order the quarantine
    /// stage's output carries. The order is trusted, not re-checked,
    /// except by a `debug_assert!` in debug builds.
    pub(crate) fn build_sorted<S: ObsSource>(
        &self,
        src: &S,
        selection: Option<&[u32]>,
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        assert!(workers >= 1);
        match selection {
            None => {
                debug_assert!(source_is_sorted(src), "unsorted source");
                self.build_source(src, workers)
            }
            Some(sel) => {
                let sel = Selected { src, sel };
                debug_assert!(source_is_sorted(&sel), "unsorted selection");
                self.build_source(&sel, workers)
            }
        }
    }

    /// Sharded build over an already-sorted source. Small inputs (and
    /// `workers == 1`) build as a single arena range on the calling
    /// thread.
    fn build_source<S: ObsSource>(
        &self,
        src: &S,
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        if workers == 1 || src.len() < workers.saturating_mul(self.min_obs_per_worker) {
            let periods = PeriodIndex::new(&self.window);
            let (maps, stats) = self.build_shard(src, 0, src.len(), &periods);
            return (maps, vec![stats]);
        }
        self.build_ranges(src, workers)
    }

    /// Cut `observations` into `workers` domain-aligned ranges, build each
    /// range's maps in a scoped worker with its own [`ShardArena`], and
    /// concatenate the per-range outputs in range order. Range order is
    /// domain order, so the concatenation is already the `(domain,
    /// period)` total order.
    fn build_ranges<S: ObsSource>(
        &self,
        src: &S,
        workers: usize,
    ) -> (Vec<DeploymentMap>, Vec<ShardStats>) {
        let periods = PeriodIndex::new(&self.window);
        let cuts = domain_range_cuts(src, workers);
        let mut maps: Vec<DeploymentMap> = Vec::new();
        let mut stats: Vec<ShardStats> = Vec::with_capacity(workers);
        crossbeam::scope(|scope| {
            let handles: Vec<_> = cuts
                .windows(2)
                .map(|w| {
                    let (lo, hi) = (w[0], w[1]);
                    let periods = &periods;
                    scope.spawn(move |_| self.build_shard(src, lo, hi, periods))
                })
                .collect();
            for h in handles {
                let (out, stat) = h.join().expect("map worker panicked");
                maps.extend(out);
                stats.push(stat);
            }
        })
        .expect("crossbeam scope");
        debug_assert!(
            maps.windows(2)
                .all(|w| (&w[0].domain, w[0].period.id) < (&w[1].domain, w[1].period.id)),
            "range concatenation broke the (domain, period) total order"
        );
        (maps, stats)
    }

    /// Build one range `[lo, hi)` in a fresh [`ShardArena`], timing it.
    fn build_shard<S: ObsSource>(
        &self,
        src: &S,
        lo: usize,
        hi: usize,
        periods: &PeriodIndex,
    ) -> (Vec<DeploymentMap>, ShardStats) {
        let t = Instant::now();
        let mut arena = ShardArena::default();
        let maps = self.build_range(src, lo, hi, periods, &mut arena);
        let stats = ShardStats {
            observations: hi - lo,
            maps: maps.len(),
            wall: t.elapsed(),
            arena_bytes: arena.footprint_bytes(),
        };
        (maps, stats)
    }

    /// Build every map of one domain-aligned index range `[lo, hi)` of
    /// the source.
    ///
    /// The range is `(domain, date)`-sorted, so domains form contiguous
    /// runs and periods form contiguous sub-runs within them: one linear
    /// pass flushes a `(domain, period)` bucket whenever either changes.
    /// All intermediate state lives in the shard's arena; the only
    /// per-map allocations are the output containers themselves.
    fn build_range<S: ObsSource>(
        &self,
        src: &S,
        lo: usize,
        hi: usize,
        periods: &PeriodIndex,
        arena: &mut ShardArena,
    ) -> Vec<DeploymentMap> {
        assert!(
            hi <= u32::MAX as usize,
            "a shard range cannot extend past u32::MAX observations"
        );
        let mut maps: Vec<DeploymentMap> = Vec::new();
        let mut run_start = lo;
        let mut cur_period: Option<PeriodId> = None;
        for i in lo..hi {
            let new_domain = i > run_start && !src.same_domain(run_start, i);
            if new_domain {
                if let Some(pid) = cur_period.take() {
                    self.flush_bucket(src, run_start, pid, periods, arena, &mut maps);
                }
                run_start = i;
            }
            if src.asn(i).is_none() {
                continue;
            }
            let Some(pid) = periods.lookup(src.date(i)) else {
                continue;
            };
            if cur_period != Some(pid) {
                if let Some(prev) = cur_period.take() {
                    self.flush_bucket(src, run_start, prev, periods, arena, &mut maps);
                }
                cur_period = Some(pid);
            }
            arena.kept.push(i as u32);
        }
        if let Some(pid) = cur_period.take() {
            self.flush_bucket(src, run_start, pid, periods, arena, &mut maps);
        }
        maps
    }

    /// Turn the arena's pending `(domain, period)` observation indices
    /// into one [`DeploymentMap`], clearing the arena for the next
    /// bucket. This is the reference builder's linking restated over flat
    /// arrays: group by `(asn, date)` via one unstable sort, link runs
    /// with the gap rule, and deduplicate each deployment's accumulated
    /// ip / certificate / country columns with one sort per column, each
    /// certificate's and country's one-day sightings folding into one
    /// window.
    #[allow(clippy::too_many_arguments)]
    fn flush_bucket<S: ObsSource>(
        &self,
        src: &S,
        domain_row: usize,
        pid: PeriodId,
        periods: &PeriodIndex,
        arena: &mut ShardArena,
        maps: &mut Vec<DeploymentMap>,
    ) {
        if arena.kept.is_empty() {
            return;
        }
        let max_gap_days = (self.link_gap_scans + 1) * self.window.scan_interval_days;

        // (asn, date, index) triples; sorting by (asn, date) yields each
        // ASN's date-ordered group sequence — the same iteration order as
        // the reference path's nested BTreeMaps.
        arena.triples.clear();
        arena.map_dates.clear();
        for &idx in &arena.kept {
            let date = src.date(idx as usize);
            if arena.map_dates.last() != Some(&date) {
                arena.map_dates.push(date);
            }
            arena.triples.push((
                src.asn(idx as usize).expect("kept observations are routed"),
                date,
                idx,
            ));
        }
        arena.kept.clear();
        arena.triples.sort_unstable();

        let triples = std::mem::take(&mut arena.triples);
        let mut i = 0;
        while i < triples.len() {
            let asn = triples[i].0;
            while i < triples.len() && triples[i].0 == asn {
                let date = triples[i].1;
                if matches!(arena.dates.last(), Some(&last) if date - last > max_gap_days) {
                    arena.finish_deployment(asn);
                }
                // One (asn, date) group: collect its sightings and the
                // group-level trust flag (any trusted endpoint marks every
                // certificate of the group as trusted, as in the
                // reference's `DeploymentGroup::trusted`).
                let group_start = arena.certs.len();
                let mut trusted = false;
                while i < triples.len() && triples[i].0 == asn && triples[i].1 == date {
                    let j = triples[i].2 as usize;
                    arena.ips.push(src.ip(j));
                    arena.certs.push(CertSighting::on(src.cert(j), date, false));
                    if let Some(cc) = src.country(j) {
                        arena.countries.push(CountrySighting::on(cc, date));
                    }
                    trusted |= src.trusted(j);
                    i += 1;
                }
                for s in &mut arena.certs[group_start..] {
                    s.trusted = trusted;
                }
                arena.dates.push(date);
            }
            arena.finish_deployment(asn);
        }
        arena.triples = triples;
        arena.triples.clear();
        arena.deployments.sort_by_key(|d| (d.first, d.asn));

        let period = periods.period(pid);
        maps.push(DeploymentMap {
            domain: src.domain_at(domain_row).clone(),
            period,
            deployments: arena.deployments.drain(..).collect(),
            dates_present: arena.map_dates.clone(),
            expected_scans: periods.expected_scans(pid),
        });
    }

    /// Merge one new scan batch into already-built maps — the incremental
    /// ingestion path. `maps` must be sorted by `(domain, period.id)` (the
    /// order every build method produces) and every observation date must
    /// be strictly greater than all dates previously ingested into `maps`;
    /// under that stream discipline the result is byte-identical to
    /// rebuilding from the concatenated history, in O(batch) not
    /// O(history).
    ///
    /// Equivalence argument: appended dates exceed every existing
    /// deployment's `last`, so the only linking decision the batch can
    /// affect is "extend the ASN's most recent run or open a new one" —
    /// exactly what linking the full group sequence would decide. An
    /// ASN's most recent run is its deployment with maximal `first`, i.e.
    /// its last occurrence in the `(first, asn)` sorted vector. An unseen
    /// `(domain, period)` has the batch as its whole history, so the
    /// arena engine builds it as one range.
    ///
    /// Returns the dirty set: indices (into the post-merge `maps`) of
    /// maps that changed or appeared, so callers re-classify only those.
    pub fn append_scan(
        &self,
        maps: &mut Vec<DeploymentMap>,
        observations: &[DomainObservation],
    ) -> AppendOutcome {
        let max_gap_days = (self.link_gap_scans + 1) * self.window.scan_interval_days;
        // Sort row references into (domain, period, date, asn) order —
        // the exact visit order nested BTreeMap bucketing would produce
        // — then walk contiguous groups. A weekly batch touches most
        // (domain, period) buckets exactly once, so sort-and-scan beats
        // per-row tree inserts (no node allocation, batch stays in
        // cache). Group contents are order-independent set unions, so
        // an unstable sort is safe.
        let periods = PeriodIndex::new(&self.window);
        let mut rows: Vec<(&DomainName, PeriodId, Day, Asn, &DomainObservation)> = observations
            .iter()
            .filter_map(|obs| {
                let asn = obs.asn?;
                let pid = periods.lookup(obs.date)?;
                Some((&obs.domain, pid, obs.date, asn, obs))
            })
            .collect();
        rows.sort_unstable_by(|a, b| (a.0, a.1, a.2, a.3).cmp(&(b.0, b.1, b.2, b.3)));

        // First-sighting buckets are built by the arena engine, reading
        // the same sorted rows.
        let refs: Vec<&DomainObservation> = rows.iter().map(|r| r.4).collect();
        let bucket_rows = RowSource(&refs);
        let mut arena = ShardArena::default();
        let mut outcome = AppendOutcome::default();
        // Merge-join against the (domain, period.id)-sorted maps:
        // buckets arrive in that same order, so a forward cursor finds
        // each bucket's position with ~one comparison instead of a
        // binary search per bucket (whose probes scatter across the
        // whole map vector). The cursor lands exactly where the binary
        // search would: on the matching map, or on the insertion point.
        let mut cursor = 0usize;
        let mut i = 0usize;
        while i < rows.len() {
            let (domain, pid) = (rows[i].0, rows[i].1);
            let mut end = i + 1;
            while end < rows.len() && rows[end].0 == domain && rows[end].1 == pid {
                end += 1;
            }
            while cursor < maps.len()
                && (&maps[cursor].domain, maps[cursor].period.id) < (domain, pid)
            {
                cursor += 1;
            }
            let found = cursor < maps.len()
                && maps[cursor].domain == *domain
                && maps[cursor].period.id == pid;
            if found {
                let map = &mut maps[cursor];
                let mut j = i;
                while j < end {
                    let (date, asn) = (rows[j].2, rows[j].3);
                    let mut k = j + 1;
                    while k < end && rows[k].2 == date && rows[k].3 == asn {
                        k += 1;
                    }
                    if map.dates_present.last() != Some(&date) {
                        map.dates_present.push(date);
                    }
                    // Per-ASN most recent run: last occurrence in the
                    // (first, asn) sorted vector, so scan backwards
                    // (deployments per map are few — a lookup table
                    // costs more than it saves).
                    let di = match map.deployments.iter().rposition(|d| d.asn == asn) {
                        Some(di) if date - map.deployments[di].last <= max_gap_days => di,
                        _ => {
                            // Appended dates strictly exceed every
                            // existing `first`, and groups arrive in
                            // (date, asn) order, so pushing keeps the
                            // (first, asn) sort invariant.
                            map.deployments.push(new_deployment(asn, date));
                            map.deployments.len() - 1
                        }
                    };
                    let group = &rows[j..k];
                    absorb_group(
                        &mut map.deployments[di],
                        date,
                        group.iter().any(|r| r.4.trusted),
                        group.iter().map(|r| r.4.ip),
                        group.iter().map(|r| r.4.cert),
                        group.iter().filter_map(|r| r.4.country),
                    );
                    j = k;
                }
                debug_assert!(
                    map.deployments
                        .windows(2)
                        .all(|w| (w[0].first, w[0].asn) <= (w[1].first, w[1].asn)),
                    "append broke the (first, asn) deployment order"
                );
                outcome.updated.push(cursor);
            } else {
                // First sighting of this (domain, period): the batch is
                // its entire history, so the arena engine builds it
                // outright from the bucket's rows.
                let built = self.build_range(&bucket_rows, i, end, &periods, &mut arena);
                let [map]: [DeploymentMap; 1] = built
                    .try_into()
                    .expect("a routed, in-window bucket builds exactly one map");
                maps.insert(cursor, map);
                outcome.inserted.push(cursor);
            }
            // Step past the map this bucket matched or inserted; later
            // buckets are strictly greater, so earlier recorded indices
            // stay valid.
            cursor += 1;
            i = end;
        }
        outcome
    }
}

/// Dirty set reported by [`MapBuilder::append_scan`]: which maps the
/// batch touched, as ascending indices into the post-merge map vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Pre-existing maps the batch extended.
    pub updated: Vec<usize>,
    /// Brand-new (domain, period) maps the batch introduced.
    pub inserted: Vec<usize>,
}

impl AppendOutcome {
    /// All touched indices, ascending (the re-classify worklist).
    pub fn dirty(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .updated
            .iter()
            .chain(self.inserted.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all
    }
}

/// Fold one `(date, asn)` scan group, dated no earlier than the run's
/// last sighting, into a deployment run: extend the sighting span and
/// merge the group's addresses, certificates and countries (in any
/// order, repeats allowed) into the sorted columns. A known key widens
/// its window; a new key is inserted at its place. `trusted` is the
/// group's trust flag, which marks every certificate of the group.
/// Shared by the reference linker and the incremental append so the two
/// paths cannot drift.
fn absorb_group(
    d: &mut Deployment,
    date: Day,
    trusted: bool,
    ips: impl IntoIterator<Item = Ipv4Addr>,
    certs: impl IntoIterator<Item = CertId>,
    countries: impl IntoIterator<Item = CountryCode>,
) {
    d.last = date;
    if d.dates.last() != Some(&date) {
        d.dates.push(date);
    }
    for ip in ips {
        if let Err(at) = d.ips.binary_search(&ip) {
            d.ips.insert(at, ip);
        }
    }
    for id in certs {
        match d.certs.binary_search_by_key(&id, |s| s.id) {
            Ok(at) => {
                d.certs[at].last = date;
                d.certs[at].trusted |= trusted;
            }
            Err(at) => d.certs.insert(at, CertSighting::on(id, date, trusted)),
        }
    }
    for cc in countries {
        match d.countries.binary_search_by_key(&cc, |s| s.cc) {
            Ok(at) => d.countries[at].last = date,
            Err(at) => d.countries.insert(at, CountrySighting::on(cc, date)),
        }
    }
}

/// An empty deployment run opening at `first`, ready for its first
/// [`absorb_group`].
fn new_deployment(asn: Asn, first: Day) -> Deployment {
    Deployment {
        asn,
        first,
        last: first,
        dates: Vec::new(),
        ips: Vec::new(),
        certs: Vec::new(),
        countries: Vec::new(),
    }
}

/// Per-shard execution statistics from
/// [`MapBuilder::build_sharded_stats`], consumed by the pipeline's
/// metrics layer (`map_build.shard.*` / `map_build.utilization` gauges).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Observations in this worker's domain range.
    pub observations: usize,
    /// Deployment maps the worker produced.
    pub maps: usize,
    /// Worker wall time.
    pub wall: Duration,
    /// Final footprint of the worker's [`ShardArena`] scratch space.
    pub arena_bytes: usize,
}

/// Per-shard bump-style scratch space for the sharded map build.
///
/// Every intermediate column of the hot loop — kept-observation indices,
/// `(asn, date, index)` grouping triples, the ip / certificate / country
/// sightings of the deployment under construction, and the bucket's
/// finished deployments — lives in these flat vectors. They are cleared
/// (length reset, capacity retained) between buckets, so after the first
/// few domains a shard allocates nothing but the output: per map its
/// domain name, `dates_present` and deployment vector, and per deployment
/// one exact-size copy of each non-empty column (at most four).
#[derive(Debug, Default)]
pub struct ShardArena {
    /// Indices of routed, in-window observations of the current
    /// `(domain, period)` bucket.
    kept: Vec<u32>,
    /// `(asn, date, index)` triples of the bucket being flushed.
    triples: Vec<(Asn, Day, u32)>,
    /// Distinct scan dates of the bucket, in order (→ `dates_present`).
    map_dates: Vec<Day>,
    /// Address column of the deployment under construction.
    ips: Vec<Ipv4Addr>,
    /// One-day certificate sightings, one per observation (folded per
    /// certificate on finish).
    certs: Vec<CertSighting>,
    /// One-day country sightings, one per geolocated observation.
    countries: Vec<CountrySighting>,
    /// Distinct scan dates of the deployment, in order.
    dates: Vec<Day>,
    /// Finished deployments of the bucket being flushed.
    deployments: Vec<Deployment>,
}

impl ShardArena {
    /// Sort the accumulated columns, fold each key's sightings into one
    /// window, push the [`Deployment`] they describe — one exact-size
    /// `to_vec` per column — and clear the columns (capacity retained)
    /// for the next.
    fn finish_deployment(&mut self, asn: Asn) {
        self.ips.sort_unstable();
        self.ips.dedup();
        // Sorted by (key, date), a key's sightings are contiguous and
        // ascending: the first keeps its `first`, the later ones widen it.
        self.certs.sort_unstable_by_key(|s| (s.id, s.first));
        self.certs.dedup_by(|later, s| {
            let same = later.id == s.id;
            if same {
                s.last = later.last;
                s.trusted |= later.trusted;
            }
            same
        });
        self.countries.sort_unstable_by_key(|s| (s.cc, s.first));
        self.countries.dedup_by(|later, s| {
            let same = later.cc == s.cc;
            if same {
                s.last = later.last;
            }
            same
        });
        self.deployments.push(Deployment {
            asn,
            first: self.dates[0],
            last: self.dates[self.dates.len() - 1],
            dates: self.dates.to_vec(),
            ips: self.ips.to_vec(),
            certs: self.certs.to_vec(),
            countries: self.countries.to_vec(),
        });
        self.ips.clear();
        self.certs.clear();
        self.countries.clear();
        self.dates.clear();
    }

    /// Total bytes currently reserved by the arena's scratch vectors.
    pub fn footprint_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.kept)
            + bytes(&self.triples)
            + bytes(&self.map_dates)
            + bytes(&self.ips)
            + bytes(&self.certs)
            + bytes(&self.countries)
            + bytes(&self.dates)
            + bytes(&self.deployments)
    }
}

/// Precomputed period table for amortized-O(1) date→period lookup inside
/// the shard workers (the reference path's
/// [`StudyWindow::period_of`] re-derives calendar months per call).
struct PeriodIndex {
    periods: Vec<Period>,
    expected_scans: Vec<usize>,
    window: StudyWindow,
}

impl PeriodIndex {
    fn new(window: &StudyWindow) -> PeriodIndex {
        let periods = window.periods();
        let expected_scans = periods
            .iter()
            .map(|p| window.scan_dates_in(p).len())
            .collect();
        PeriodIndex {
            window: window.clone(),
            periods,
            expected_scans,
        }
    }

    /// The period containing `day`, if inside the window. Periods
    /// partition the window contiguously, so a binary search over the
    /// start days suffices.
    #[inline]
    fn lookup(&self, day: Day) -> Option<PeriodId> {
        if !self.window.contains(day) {
            return None;
        }
        let idx = self.periods.partition_point(|p| p.start <= day) - 1;
        debug_assert!(self.periods[idx].contains(day));
        Some(self.periods[idx].id)
    }

    #[inline]
    fn period(&self, pid: PeriodId) -> Period {
        self.periods[pid]
    }

    #[inline]
    fn expected_scans(&self, pid: PeriodId) -> usize {
        self.expected_scans[pid]
    }
}

/// Is the source sorted by `(domain, date)` (the order
/// [`crate::pipeline::quarantine`] guarantees)?
fn source_is_sorted<S: ObsSource>(src: &S) -> bool {
    (1..src.len()).all(|i| src.cmp_domain_date(i - 1, i) != Ordering::Greater)
}

/// `selection` (`None`: every row of `src`) stably sorted by
/// `(domain, date)`, ready for [`MapBuilder::build_sorted`].
pub(crate) fn sorted_selection<S: ObsSource>(src: &S, selection: Option<&[u32]>) -> Vec<u32> {
    let mut sel: Vec<u32> = match selection {
        Some(s) => s.to_vec(),
        None => (0..u32::try_from(src.len()).expect("a source fits u32 indices")).collect(),
    };
    sel.sort_by(|&a, &b| src.cmp_domain_date(a as usize, b as usize));
    sel
}

/// Cut points (exactly `workers + 1`, starting at 0 and ending at
/// `src.len()`) splitting a sorted source into `workers` contiguous
/// ranges that never split a domain: each tentative equal-size cut
/// advances to the next domain boundary. Ranges can be empty when there
/// are fewer domains than workers.
fn domain_range_cuts<S: ObsSource>(src: &S, workers: usize) -> Vec<usize> {
    let len = src.len();
    let target = len.div_ceil(workers).max(1);
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(0);
    for w in 1..workers {
        let mut cut = (target * w).min(len).max(*cuts.last().expect("nonempty"));
        while cut > 0 && cut < len {
            if !src.same_domain(cut - 1, cut) {
                break;
            }
            cut += 1;
        }
        cuts.push(cut);
    }
    cuts.push(len);
    cuts
}

/// The HashMap/interner map builder, kept as the equivalence oracle the
/// arena engine is tested against. It buckets observations into
/// BTree-set groups and meets the sorted-vector [`Deployment`] only when
/// it links a group into a run. No pipeline path calls it.
#[doc(hidden)]
pub mod reference {
    use super::*;
    use retrodns_types::{DomainId, DomainInterner};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// Observable infrastructure of a domain in one ASN (the bucket key)
    /// on one scan date.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeploymentGroup {
        /// Scan date.
        pub date: Day,
        /// Addresses observed.
        pub ips: BTreeSet<Ipv4Addr>,
        /// Certificates returned.
        pub certs: BTreeSet<CertId>,
        /// Countries the addresses geolocate to.
        pub countries: BTreeSet<CountryCode>,
        /// Any browser-trusted certificate among them?
        pub trusted: bool,
    }

    impl MapBuilder {
        /// Build deployment maps for every (domain, period) with data.
        /// Observations with no origin ASN are dropped (cannot be grouped).
        #[doc(hidden)]
        pub fn build(&self, observations: &[DomainObservation]) -> Vec<DeploymentMap> {
            self.build_refs(observations.iter())
        }

        /// [`Self::build`] over any iterator of borrowed observations. This is
        /// the zero-copy core: callers hand in references and nothing is
        /// cloned until the final per-map `DomainName` materialization.
        ///
        /// Domains are interned to dense [`DomainId`]s up front, so the hot
        /// bucketing loop hashes a `(u32, usize)` key instead of a domain
        /// string, and period membership is the O(1)
        /// [`StudyWindow::period_of`] rather than a scan over all periods.
        #[doc(hidden)]
        pub fn build_refs<'a, I>(&self, observations: I) -> Vec<DeploymentMap>
        where
            I: IntoIterator<Item = &'a DomainObservation>,
        {
            let mut interner = DomainInterner::new();
            // (domain, period) → (date, asn) → group
            let mut buckets: HashMap<(DomainId, PeriodId), BTreeMap<(Day, Asn), DeploymentGroup>> =
                HashMap::new();
            for obs in observations {
                let Some(asn) = obs.asn else { continue };
                let Some(period) = self.window.period_of(obs.date) else {
                    continue;
                };
                let domain = interner.intern(&obs.domain);
                let group = buckets
                    .entry((domain, period.id))
                    .or_default()
                    .entry((obs.date, asn))
                    .or_insert_with(|| DeploymentGroup {
                        date: obs.date,
                        ips: BTreeSet::new(),
                        certs: BTreeSet::new(),
                        countries: BTreeSet::new(),
                        trusted: false,
                    });
                group.ips.insert(obs.ip);
                group.certs.insert(obs.cert);
                if let Some(cc) = obs.country {
                    group.countries.insert(cc);
                }
                group.trusted |= obs.trusted;
            }

            let periods = self.window.periods();
            let mut maps: Vec<DeploymentMap> = buckets
                .into_iter()
                .map(|((domain, pid), groups)| {
                    self.link(interner.resolve(domain).clone(), periods[pid], groups)
                })
                .collect();
            maps.sort_by(|a, b| (&a.domain, a.period.id).cmp(&(&b.domain, b.period.id)));
            maps
        }

        /// Link one (domain, period) bucket of groups into deployments.
        fn link(
            &self,
            domain: DomainName,
            period: Period,
            groups: BTreeMap<(Day, Asn), DeploymentGroup>,
        ) -> DeploymentMap {
            let max_gap_days = (self.link_gap_scans + 1) * self.window.scan_interval_days;
            // Per-ASN date-ordered group lists (BTreeMap iteration is sorted).
            let mut by_asn: BTreeMap<Asn, Vec<DeploymentGroup>> = BTreeMap::new();
            let mut dates_present: BTreeSet<Day> = BTreeSet::new();
            for ((date, asn), group) in groups {
                dates_present.insert(date);
                by_asn.entry(asn).or_default().push(group);
            }
            let mut deployments = Vec::new();
            for (asn, groups) in by_asn {
                let mut current: Option<Deployment> = None;
                for g in groups {
                    if !matches!(&current, Some(d) if g.date - d.last <= max_gap_days) {
                        deployments.extend(current.replace(new_deployment(asn, g.date)));
                    }
                    absorb_group(
                        current.as_mut().expect("a run is open"),
                        g.date,
                        g.trusted,
                        g.ips,
                        g.certs,
                        g.countries,
                    );
                }
                deployments.extend(current);
            }
            deployments.sort_by_key(|d| (d.first, d.asn));
            let expected_scans = self.window.scan_dates_in(&period).len();
            DeploymentMap {
                domain,
                period,
                deployments,
                dates_present: dates_present.into_iter().collect(),
                expected_scans,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(domain: &str, date: u32, ip: u32, asn: u32, cc: &str, cert: u64) -> DomainObservation {
        DomainObservation {
            domain: domain.parse().unwrap(),
            date: Day(date),
            ip: Ipv4Addr(ip),
            asn: Some(Asn(asn)),
            country: cc.parse().ok(),
            cert: CertId(cert),
            trusted: true,
        }
    }

    fn builder() -> MapBuilder {
        MapBuilder::new(StudyWindow::default())
    }

    /// Maps built by the engine at one worker, checked against the
    /// reference builder.
    fn maps(observations: &[DomainObservation]) -> Vec<DeploymentMap> {
        maps_by(&builder(), observations)
    }

    /// Maps built by `b`'s engine at one worker, checked against its
    /// reference builder and against `append_scan` fed one scan date at
    /// a time.
    fn maps_by(b: &MapBuilder, observations: &[DomainObservation]) -> Vec<DeploymentMap> {
        let (maps, _) = b.build_sharded_stats(observations, 1);
        assert_eq!(
            maps,
            b.build(observations),
            "engine diverged from reference"
        );
        let mut by_date = observations.to_vec();
        by_date.sort_by_key(|o| o.date);
        let mut streamed: Vec<DeploymentMap> = Vec::new();
        for scan in by_date.chunk_by(|a, b| a.date == b.date) {
            let out = b.append_scan(&mut streamed, scan);
            assert!(out.dirty().iter().all(|&i| i < streamed.len()));
        }
        assert_eq!(streamed, maps, "incremental append must equal rebuild");
        maps
    }

    #[test]
    fn one_stable_run_links_into_one_deployment() {
        let observations: Vec<_> = (0..20)
            .map(|i| obs("a.com", i * 7, 1, 100, "GR", 1))
            .collect();
        let built = maps(&observations);
        assert_eq!(built.len(), 1);
        let m = &built[0];
        assert_eq!(m.deployments.len(), 1);
        assert_eq!(m.deployments[0].scan_count(), 20);
        assert_eq!(m.deployments[0].first, Day(0));
        assert_eq!(m.deployments[0].last, Day(133));
    }

    /// The `link_gap` rule at day granularity: after a weekly run, a
    /// same-ASN silence of up to `(link_gap_scans + 1) * scan_interval_days`
    /// days links, one day more splits, whether the maps come from the
    /// engine, the reference linker or a scan-by-scan append.
    #[test]
    fn small_gap_links_big_gap_splits() {
        for gap_scans in [0u32, 1, 2] {
            let mut b = builder();
            b.link_gap_scans = gap_scans;
            let max_gap = (gap_scans + 1) * b.window.scan_interval_days;
            for (gap, runs) in [(max_gap - 1, 1), (max_gap, 1), (max_gap + 1, 2)] {
                let observations: Vec<_> = [0, 7, 14, 14 + gap]
                    .iter()
                    .map(|&day| obs("a.com", day, 1, 100, "GR", 1))
                    .collect();
                assert_eq!(
                    maps_by(&b, &observations)[0].deployments.len(),
                    runs,
                    "link_gap_scans {gap_scans}, a {gap}-day gap"
                );
            }
        }
    }

    #[test]
    fn different_asns_form_separate_deployments() {
        let mut observations: Vec<_> = (0..20)
            .map(|i| obs("a.com", i * 7, 1, 100, "GR", 1))
            .collect();
        observations.push(obs("a.com", 70, 99, 200, "NL", 666));
        let built = maps(&observations);
        let m = &built[0];
        assert_eq!(m.deployments.len(), 2);
        let transient = m.deployments.iter().find(|d| d.asn == Asn(200)).unwrap();
        assert_eq!(transient.scan_count(), 1);
        assert_eq!(transient.span_days(), 1);
        assert!(transient.cert_ids().eq([CertId(666)]));
    }

    #[test]
    fn periods_split_maps() {
        // One observation in period 0, one in period 1.
        let observations = vec![
            obs("a.com", 0, 1, 100, "GR", 1),
            obs("a.com", 200, 1, 100, "GR", 1),
        ];
        let built = maps(&observations);
        assert_eq!(built.len(), 2);
        assert_eq!(built[0].period.id, 0);
        assert_eq!(built[1].period.id, 1);
    }

    #[test]
    fn multiple_domains_independent() {
        let observations = vec![
            obs("a.com", 0, 1, 100, "GR", 1),
            obs("b.com", 0, 2, 200, "NL", 2),
        ];
        let built = maps(&observations);
        assert_eq!(built.len(), 2);
        assert!(built.iter().all(|m| m.deployments.len() == 1));
    }

    #[test]
    fn unrouted_observations_dropped() {
        let mut o = obs("a.com", 0, 1, 100, "GR", 1);
        o.asn = None;
        assert!(maps(&[o]).is_empty());
    }

    #[test]
    fn append_scan_week_by_week_equals_batch() {
        // Stable host + a transient ASN week 10 + a second domain that
        // first appears mid-stream + a gap long enough to split a run.
        let mut all: Vec<_> = (0..20)
            .filter(|i| !(12..=15).contains(i))
            .map(|i| obs("a.com", i * 7, 1, 100, "GR", 1))
            .collect();
        all.push(obs("a.com", 70, 99, 200, "NL", 666));
        all.extend((8..20).map(|i| obs("b.com", i * 7, 2, 300, "DE", 2)));
        let mut unrouted = obs("a.com", 35, 5, 0, "GR", 9);
        unrouted.asn = None;
        all.push(unrouted);
        // `maps` streams the scans through `append_scan` and compares.
        maps(&all);
    }

    #[test]
    fn append_scan_reports_dirty_indices() {
        let b = builder();
        let mut built = maps(&[obs("a.com", 0, 1, 100, "GR", 1)]);
        let out = b.append_scan(
            &mut built,
            &[
                obs("a.com", 7, 1, 100, "GR", 1),
                obs("b.com", 7, 2, 200, "NL", 2),
            ],
        );
        assert_eq!(out.updated, vec![0]);
        assert_eq!(out.inserted, vec![1]);
        assert_eq!(out.dirty(), vec![0, 1]);
        assert_eq!(built[1].domain.as_str(), "b.com");
    }

    #[test]
    fn append_scan_crossing_period_boundary_opens_new_map() {
        let b = builder();
        let mut built = maps(&[obs("a.com", 0, 1, 100, "GR", 1)]);
        // Day 200 falls in period 1: a fresh map, not an extension.
        let out = b.append_scan(&mut built, &[obs("a.com", 200, 1, 100, "GR", 1)]);
        assert_eq!(out.updated, Vec::<usize>::new());
        assert_eq!(out.inserted, vec![1]);
        let batch = maps(&[
            obs("a.com", 0, 1, 100, "GR", 1),
            obs("a.com", 200, 1, 100, "GR", 1),
        ]);
        assert_eq!(built, batch);
    }

    #[test]
    fn visibility_counts_distinct_dates() {
        let observations: Vec<_> = (0..13)
            .map(|i| obs("a.com", i * 14, 1, 100, "GR", 1))
            .collect();
        // Every other weekly scan over period 0 (26 scans expected).
        let built = maps(&observations);
        let m = &built[0];
        assert_eq!(m.expected_scans, 26);
        assert!((m.visibility() - 0.5).abs() < 0.05, "{}", m.visibility());
    }

    #[test]
    fn untrusted_certs_not_in_trusted_set() {
        let mut o = obs("a.com", 0, 1, 100, "GR", 7);
        o.trusted = false;
        let built = maps(&[o]);
        let d = &built[0].deployments[0];
        assert!(d.cert_ids().eq([CertId(7)]));
        assert!(!d.has_trusted_cert());
    }

    /// A builder whose sharded path engages regardless of input size.
    fn sharded_builder() -> MapBuilder {
        let mut b = builder();
        b.min_obs_per_worker = 0;
        b
    }

    fn mixed_observations() -> Vec<DomainObservation> {
        let mut observations = Vec::new();
        for dom in 0..50 {
            for week in 0..20 {
                observations.push(obs(
                    &format!("dom{dom}.com"),
                    week * 7,
                    dom,
                    100 + dom,
                    "GR",
                    dom as u64,
                ));
            }
            // A transient in a second ASN, a gap-split run, and an
            // unrouted record, to exercise every linking branch.
            observations.push(obs(&format!("dom{dom}.com"), 70, 999, 65000, "NL", 666));
            let mut unrouted = obs(&format!("dom{dom}.com"), 77, 1, 100 + dom, "GR", 1);
            unrouted.asn = None;
            observations.push(unrouted);
        }
        observations
    }

    #[test]
    fn parallel_build_matches_serial() {
        let observations = mixed_observations();
        let b = sharded_builder();
        let serial = b.build(&observations);
        for workers in [1, 2, 3, 4, 8, 16] {
            assert_eq!(serial, b.build_sharded_stats(&observations, workers).0);
        }
    }

    #[test]
    fn parallel_build_matches_serial_on_unsorted_input() {
        let mut observations = mixed_observations();
        // Deterministic shuffle: reverse, then interleave halves.
        observations.reverse();
        let half = observations.len() / 2;
        let tail = observations.split_off(half);
        let mut interleaved = Vec::with_capacity(observations.len() + tail.len());
        for pair in observations.into_iter().zip(tail.clone()) {
            interleaved.push(pair.0);
            interleaved.push(pair.1);
        }
        interleaved.extend(tail.into_iter().skip(interleaved.len() / 2));
        let b = sharded_builder();
        let serial = b.build(&interleaved);
        for workers in [1, 2, 4, 8] {
            assert_eq!(serial, b.build_sharded_stats(&interleaved, workers).0);
        }
    }

    #[test]
    fn sharded_build_handles_empty_and_single_domain_inputs() {
        let b = sharded_builder();
        let (maps, stats) = b.build_sharded_stats(&[], 4);
        assert!(maps.is_empty());
        assert_eq!(stats.iter().map(|s| s.observations).sum::<usize>(), 0);

        // One domain, eight workers: one range holds everything, the
        // rest are empty — output still matches the reference build.
        let observations: Vec<_> = (0..20)
            .map(|i| obs("only.com", i * 7, 1, 100, "GR", 1))
            .collect();
        let (maps, stats) = b.build_sharded_stats(&observations, 8);
        assert_eq!(maps, b.build(&observations));
        assert_eq!(stats.len(), 8);
        assert_eq!(
            stats.iter().map(|s| s.observations).sum::<usize>(),
            observations.len()
        );
        assert_eq!(stats.iter().filter(|s| s.observations > 0).count(), 1);
    }

    #[test]
    fn small_inputs_build_as_one_arena_range() {
        // Default threshold: 40 observations over 4 workers is far below
        // 4 × DEFAULT_MIN_OBS_PER_WORKER, so one arena range runs on the
        // calling thread — as it does for any input at one worker.
        let observations: Vec<_> = (0..40)
            .map(|i| obs("tiny.com", i * 7, 1, 100, "GR", 1))
            .collect();
        let b = builder();
        for workers in [1, 4] {
            let (built, stats) = b.build_sharded_stats(&observations, workers);
            assert_eq!(built, b.build(&observations));
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].observations, observations.len());
            assert!(
                stats[0].arena_bytes > 0,
                "the arena, not the reference, ran"
            );
        }
    }

    #[test]
    fn columnar_build_matches_rows() {
        let observations = mixed_observations();
        let store = ObservationStore::from_observations(&observations).unwrap();
        let b = sharded_builder();
        let serial = b.build(&observations);
        for workers in [1, 2, 4, 8] {
            let (maps, stats) = b.build_store_stats(&store, None, workers);
            assert_eq!(serial, maps, "columnar diverged at {workers} workers");
            assert_eq!(
                stats.iter().map(|s| s.observations).sum::<usize>(),
                observations.len()
            );
        }
        assert_eq!(serial, b.build_store_stats(&store, None, 3).0);
    }

    #[test]
    fn columnar_build_handles_unsorted_store() {
        let mut observations = mixed_observations();
        observations.reverse();
        let store = ObservationStore::from_observations(&observations).unwrap();
        let b = sharded_builder();
        let serial = b.build(&observations);
        for workers in [1, 4] {
            assert_eq!(serial, b.build_store_stats(&store, None, workers).0);
        }
    }

    #[test]
    fn columnar_build_honors_selection() {
        let observations = mixed_observations();
        let store = ObservationStore::from_observations(&observations).unwrap();
        // Keep only every other row; the row baseline sees the same subset.
        let sel: Vec<u32> = (0..observations.len() as u32)
            .filter(|i| i % 2 == 0)
            .collect();
        let subset: Vec<DomainObservation> = sel
            .iter()
            .map(|&i| observations[i as usize].clone())
            .collect();
        let b = sharded_builder();
        let serial = b.build(&subset);
        for workers in [1, 4] {
            let (maps, _) = b.build_store_stats(&store, Some(&sel), workers);
            assert_eq!(serial, maps);
        }
    }

    #[test]
    fn columnar_serial_fallback_never_rehydrates() {
        // Below the per-worker threshold the columnar path still goes
        // through the arena build (stats report its footprint).
        let observations: Vec<_> = (0..40)
            .map(|i| obs("tiny.com", i * 7, 1, 100, "GR", 1))
            .collect();
        let store = ObservationStore::from_observations(&observations).unwrap();
        let b = builder();
        let (maps, stats) = b.build_store_stats(&store, None, 4);
        assert_eq!(maps, b.build(&observations));
        assert_eq!(stats.len(), 1);
        assert!(stats[0].arena_bytes > 0);
    }

    #[test]
    fn domain_range_cuts_never_split_a_domain() {
        let observations = mixed_observations();
        for workers in [2, 3, 4, 7, 8, 16] {
            let cuts = domain_range_cuts(&RowSource(&observations), workers);
            assert_eq!(cuts.len(), workers + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), observations.len());
            for w in cuts.windows(2) {
                assert!(w[0] <= w[1]);
                if w[1] > 0 && w[1] < observations.len() {
                    assert_ne!(
                        observations[w[1] - 1].domain,
                        observations[w[1]].domain,
                        "cut splits a domain"
                    );
                }
            }
        }
    }
}
