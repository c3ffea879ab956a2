//! Stage 3: shortlisting suspicious transients (§4.3).
//!
//! Transient-classified maps are pruned by four heuristics, each targeting
//! a concrete benign explanation:
//!
//! 1. **Organizational relatedness** — the transient ASN belongs to the
//!    same organization as a stable ASN (Amazon AS16509 vs AS14618).
//! 2. **Geolocation** — the transient geolocates to a country the stable
//!    deployment already uses.
//! 3. **Visibility** — the domain is missing from > 20 % of the period's
//!    scans, or shows similar transients in ≥ 3 consecutive periods: our
//!    view of it is too unstable to judge.
//! 4. **Sensitivity** — keep only transients whose browser-trusted
//!    certificate secures a *sensitive* subdomain; everything else is
//!    kept only when *truly anomalous* (a lone transient bracketed by
//!    fully stable periods).
//!
//! Every pruned map carries its [`PruneReason`], which the ablation
//! experiment histograms.

use crate::classify::{Pattern, StableBackground, TransientFinding};
use crate::map::{Deployment, DeploymentMap};
use crate::sources::{query_key, ResilientSource, SourcePolicy};
use retrodns_asdb::AsDatabase;
use retrodns_cert::{CertId, Certificate};
use retrodns_types::{Asn, CountryCode, DomainName, Period, PeriodId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Why a transient map was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// Transient ASN organizationally related to a stable ASN.
    RelatedOrg,
    /// Transient geolocates to a stable deployment's country.
    SameCountry,
    /// Domain missing from too many scans in the period.
    LowVisibility,
    /// Similar transients in three-plus consecutive periods.
    RepeatedTransients,
    /// No sensitive trusted certificate and not truly anomalous.
    NotSensitiveNotAnomalous,
}

impl PruneReason {
    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            PruneReason::RelatedOrg => "related-org",
            PruneReason::SameCountry => "same-country",
            PruneReason::LowVisibility => "low-visibility",
            PruneReason::RepeatedTransients => "repeated-transients",
            PruneReason::NotSensitiveNotAnomalous => "not-sensitive-not-anomalous",
        }
    }
}

/// A shortlisted suspicious transient.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The domain.
    pub domain: DomainName,
    /// Period the transient was observed in.
    pub period: Period,
    /// The transient finding (kind, new certs).
    pub finding: TransientFinding,
    /// The transient deployment itself.
    pub transient: Deployment,
    /// The stable background it was judged against.
    pub background: StableBackground,
    /// The transient is *truly anomalous*: the only transient in this
    /// period's map, bracketed by fully stable periods. Licenses the
    /// "targeted but not hijacked" verdict when corroboration is absent.
    pub truly_anomalous: bool,
    /// Shortlisted *via* the truly-anomalous route (no sensitive trusted
    /// certificate) rather than the sensitive-name route — the paper's
    /// "47 domains shortlisted for being truly anomalous".
    pub via_anomalous_route: bool,
    /// The sensitive names secured by the transient's trusted certs.
    pub sensitive_names: Vec<DomainName>,
    /// Sources that stayed unavailable while judging this candidate
    /// (currently only `as2org`): the shortlist kept it rather than
    /// prune on missing evidence, and inspection must report it under
    /// the degraded tier.
    pub degraded_sources: Vec<String>,
    /// Cross-period recurrence (slow-burn signal): length of the run of
    /// consecutive periods showing a similar transient, when the
    /// recurrence signal kept a candidate the repeat heuristic would
    /// have pruned. Zero for ordinary candidates.
    pub recurrent_periods: usize,
    /// Geo-implausibility (BGP-assisted-hijack signal): the transient
    /// geolocates to a stable country, but its origin AS does not
    /// plausibly announce addresses there — the geolocation is likely an
    /// artifact of a hijacked more-specific prefix.
    pub geo_implausible: bool,
}

/// Shortlisting thresholds and ablation switches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShortlistConfig {
    /// Minimum fraction of period scans the domain must appear in.
    pub min_visibility: f64,
    /// Transients in this many consecutive periods ⇒ prune.
    pub repeat_periods: usize,
    /// Ablation: skip the organizational-relatedness check.
    pub disable_org_check: bool,
    /// Ablation: skip the geolocation check.
    pub disable_geo_check: bool,
    /// Ablation: skip the visibility check.
    pub disable_visibility_check: bool,
    /// Ablation: skip the repeated-transients check.
    pub disable_repeat_check: bool,
    /// Ablation: skip the sensitive-name requirement (keep everything).
    pub disable_sensitive_filter: bool,
    /// Cross-period recurrence signal (slow-burn campaigns): a run of
    /// similar transients that would be pruned as `RepeatedTransients`
    /// is *kept* when the recurring transient presents a browser-trusted
    /// certificate for a sensitive name the stable background never
    /// used. Off by default (additive; preserves baseline reports).
    #[serde(default)]
    pub recurrence_signal: bool,
    /// Geo-implausibility signal (BGP-assisted hijacks): before pruning
    /// `SameCountry`, check whether the transient's origin AS plausibly
    /// announces addresses in the shared country; if not, the candidate
    /// is kept and annotated instead. Off by default.
    #[serde(default)]
    pub geo_implausibility_check: bool,
}

impl Default for ShortlistConfig {
    fn default() -> Self {
        ShortlistConfig {
            min_visibility: 0.8,
            repeat_periods: 3,
            disable_org_check: false,
            disable_geo_check: false,
            disable_visibility_check: false,
            disable_repeat_check: false,
            disable_sensitive_filter: false,
            recurrence_signal: false,
            geo_implausibility_check: false,
        }
    }
}

/// The shortlist result: survivors plus a full prune audit trail.
#[derive(Debug, Clone, Default)]
pub struct ShortlistOutcome {
    /// Candidates that survived all heuristics.
    pub candidates: Vec<Candidate>,
    /// Pruned (domain, period, reason) triples.
    pub pruned: Vec<(DomainName, Period, PruneReason)>,
}

impl ShortlistOutcome {
    /// Histogram of prune reasons.
    pub fn prune_histogram(&self) -> HashMap<PruneReason, usize> {
        let mut h = HashMap::new();
        for (_, _, r) in &self.pruned {
            *h.entry(*r).or_insert(0) += 1;
        }
        h
    }
}

/// Run the shortlist heuristics over classified maps. `patterns` is
/// parallel to `maps`. The as2org lookups run unguarded (no faults, no
/// budget); the pipeline uses [`shortlist_guarded`] instead.
pub fn shortlist(
    maps: &[DeploymentMap],
    patterns: &[Pattern],
    asdb: &AsDatabase,
    certs: &HashMap<CertId, Certificate>,
    cfg: &ShortlistConfig,
) -> ShortlistOutcome {
    let mut as2org = ResilientSource::new(asdb, SourcePolicy::default(), None);
    shortlist_guarded(maps, patterns, &mut as2org, certs, cfg)
}

/// [`shortlist`] with the as2org relatedness oracle behind a
/// [`ResilientSource`]. When the oracle stays unavailable past its
/// retry budget for a finding, the candidate is *kept* (we cannot
/// prove it benign) with the source recorded in
/// [`Candidate::degraded_sources`], and the remaining prune heuristics
/// are skipped — every exhausted as2org call surfaces as exactly one
/// degraded verdict downstream, never as a silent prune.
pub fn shortlist_guarded(
    maps: &[DeploymentMap],
    patterns: &[Pattern],
    as2org: &mut ResilientSource<AsDatabase>,
    certs: &HashMap<CertId, Certificate>,
    cfg: &ShortlistConfig,
) -> ShortlistOutcome {
    assert_eq!(maps.len(), patterns.len(), "patterns must parallel maps");
    // Per-domain period → (category, transient ASNs) index for the
    // repeat / truly-anomalous cross-period checks. Only transient maps
    // ever consult the index (and only for their own domain), and maps
    // arrive sorted by (domain, period) so a domain's periods are
    // adjacent — the index is built per contiguous domain run, and only
    // for runs carrying at least one transient map. Non-transient
    // domains (the vast majority) cost one adjacent string comparison.
    struct PeriodClass {
        category: &'static str,
        /// ASNs of the transient deployments in this period's map
        /// (empty unless the period classified transient).
        transient_asns: BTreeSet<Asn>,
    }
    const UNINDEXED: usize = usize::MAX;
    let mut ids: Vec<usize> = vec![UNINDEXED; maps.len()];
    let mut by_domain: Vec<HashMap<PeriodId, PeriodClass>> = Vec::new();
    let mut start = 0;
    while start < maps.len() {
        let domain = &maps[start].domain;
        let mut end = start + 1;
        while end < maps.len() && maps[end].domain == *domain {
            end += 1;
        }
        if patterns[start..end]
            .iter()
            .any(|p| matches!(p, Pattern::Transient { .. }))
        {
            let id = by_domain.len();
            let mut periods = HashMap::with_capacity(end - start);
            // An unclassified map is quarantined: its period stays out.
            let run = maps[start..end].iter().zip(&patterns[start..end]);
            for (m, p) in run.filter(|(_, p)| **p != Pattern::Unclassified) {
                let transient_asns = match p {
                    Pattern::Transient { findings, .. } => findings
                        .iter()
                        .map(|f| m.deployments[f.deployment].asn)
                        .collect(),
                    _ => BTreeSet::new(),
                };
                periods.insert(
                    m.period.id,
                    PeriodClass {
                        category: p.category(),
                        transient_asns,
                    },
                );
            }
            by_domain.push(periods);
            ids[start..end].fill(id);
        }
        start = end;
    }

    // §4.3 prunes on *similar* transients across consecutive periods:
    // adjacent transient periods extend the run only when they share a
    // transient ASN (a recurring benign visitor), not merely because
    // both happened to classify transient. Two unrelated transients in
    // adjacent periods are two separate one-period runs.
    let consecutive_transients = |domain: usize, pid: PeriodId| -> usize {
        let periods = &by_domain[domain];
        let similar = |a: PeriodId, b: PeriodId| -> bool {
            match (periods.get(&a), periods.get(&b)) {
                (Some(x), Some(y)) => {
                    x.category == "transient"
                        && y.category == "transient"
                        && x.transient_asns
                            .intersection(&y.transient_asns)
                            .next()
                            .is_some()
                }
                _ => false,
            }
        };
        let mut run = 1;
        let mut i = pid;
        while i > 0 && similar(i - 1, i) {
            run += 1;
            i -= 1;
        }
        let mut i = pid;
        while similar(i, i + 1) {
            run += 1;
            i += 1;
        }
        run
    };

    let mut out = ShortlistOutcome::default();

    for ((m, p), &domain_id) in maps.iter().zip(patterns).zip(&ids) {
        let Pattern::Transient {
            findings,
            background,
        } = p
        else {
            continue;
        };

        // Map-level checks first (visibility, repetition).
        if !cfg.disable_visibility_check && m.visibility() < cfg.min_visibility {
            out.pruned
                .push((m.domain.clone(), m.period, PruneReason::LowVisibility));
            continue;
        }
        let mut recurrent_periods = 0usize;
        if !cfg.disable_repeat_check {
            let run = consecutive_transients(domain_id, m.period.id);
            if run >= cfg.repeat_periods {
                // Cross-period recurrence signal: a slow-burn attacker
                // *deliberately* recurs under the transient threshold.
                // Keep the run (annotated) when the recurring transient
                // presents a browser-trusted certificate for a sensitive
                // name that the stable background never used; benign
                // repeat visitors don't hold such certificates.
                let suspicious_recurrence = cfg.recurrence_signal
                    && findings.iter().any(|f| {
                        let d = &m.deployments[f.deployment];
                        d.trusted_cert_ids().any(|id| {
                            !background.certs.contains(&id)
                                && certs
                                    .get(&id)
                                    .map(|c| !c.sensitive_names().is_empty())
                                    .unwrap_or(false)
                        })
                    });
                if suspicious_recurrence {
                    recurrent_periods = run;
                } else {
                    out.pruned
                        .push((m.domain.clone(), m.period, PruneReason::RepeatedTransients));
                    continue;
                }
            }
        }

        // Truly anomalous: a single transient finding, with fully stable
        // periods before and after. Edge periods don't qualify.
        let neighbors = &by_domain[domain_id];
        let stable_at = |id: PeriodId| neighbors.get(&id).map(|c| c.category) == Some("stable");
        let truly_anomalous = findings.len() == 1
            && m.period.id > 0
            && stable_at(m.period.id - 1)
            && stable_at(m.period.id + 1);

        let mut kept_any = false;
        let mut last_prune: Option<PruneReason> = None;
        for finding in findings {
            let transient = &m.deployments[finding.deployment];
            let mut degraded_sources: Vec<String> = Vec::new();

            if !cfg.disable_org_check {
                let key =
                    query_key(&[m.domain.as_str().as_bytes(), &transient.asn.0.to_le_bytes()]);
                match as2org.call(key, |db| {
                    background
                        .asns
                        .iter()
                        .any(|stable_asn| db.related_asns(transient.asn, *stable_asn))
                }) {
                    Ok(true) => {
                        last_prune = Some(PruneReason::RelatedOrg);
                        continue;
                    }
                    Ok(false) => {}
                    // Oracle unavailable: keep the candidate, degraded,
                    // and skip the remaining prunes (we cannot prove it
                    // benign without the evidence we just lost).
                    Err(_) => degraded_sources.push(as2org.guard().name().to_string()),
                }
            }
            let mut geo_implausible = false;
            if degraded_sources.is_empty() && !cfg.disable_geo_check {
                let shared: Vec<CountryCode> = transient
                    .country_codes()
                    .filter(|cc| background.countries.contains(cc))
                    .collect();
                if !shared.is_empty() {
                    if cfg.geo_implausibility_check {
                        // BGP-assisted hijacks geolocate *into* the
                        // victim's country by stealing a more-specific
                        // prefix there. Before pruning, ask whether the
                        // transient's origin AS plausibly announces
                        // addresses in the shared countries at all; if
                        // not, keep the candidate annotated instead.
                        let key = query_key(&[
                            m.domain.as_str().as_bytes(),
                            &transient.asn.0.to_le_bytes(),
                            b"geo-plausibility",
                        ]);
                        match as2org.call(key, |db| {
                            shared
                                .iter()
                                .all(|cc| !db.plausible_origin(transient.asn, *cc))
                        }) {
                            Ok(true) => geo_implausible = true,
                            Ok(false) => {
                                last_prune = Some(PruneReason::SameCountry);
                                continue;
                            }
                            Err(_) => degraded_sources.push(as2org.guard().name().to_string()),
                        }
                    } else {
                        last_prune = Some(PruneReason::SameCountry);
                        continue;
                    }
                }
            }

            // Sensitive trusted certificate, or truly anomalous.
            let sensitive_names: Vec<DomainName> = transient
                .trusted_cert_ids()
                .filter_map(|id| certs.get(&id))
                .flat_map(|c| c.sensitive_names().into_iter().cloned())
                .collect();
            let sensitive_ok = !sensitive_names.is_empty();
            if degraded_sources.is_empty()
                && !cfg.disable_sensitive_filter
                && !sensitive_ok
                && !truly_anomalous
            {
                last_prune = Some(PruneReason::NotSensitiveNotAnomalous);
                continue;
            }

            kept_any = true;
            // Multiple guards can degrade while judging one candidate;
            // canonicalize so the report never depends on guard order.
            degraded_sources.sort();
            degraded_sources.dedup();
            out.candidates.push(Candidate {
                domain: m.domain.clone(),
                period: m.period,
                finding: finding.clone(),
                transient: transient.clone(),
                background: background.clone(),
                truly_anomalous,
                via_anomalous_route: truly_anomalous && !sensitive_ok,
                sensitive_names,
                degraded_sources,
                recurrent_periods,
                geo_implausible,
            });
        }
        if !kept_any {
            if let Some(reason) = last_prune {
                out.pruned.push((m.domain.clone(), m.period, reason));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifyConfig};
    use crate::map::MapBuilder;
    use retrodns_asdb::{GeoTableBuilder, OrgId, OrgTableBuilder, PrefixTableBuilder};
    use retrodns_cert::{authority::CaId, KeyId};
    use retrodns_scan::DomainObservation;
    use retrodns_types::{Asn, Day, Ipv4Addr, StudyWindow};

    fn obs(domain: &str, week: u32, ip: u32, asn: u32, cc: &str, cert: u64) -> DomainObservation {
        DomainObservation {
            domain: domain.parse().unwrap(),
            date: Day(week * 7),
            ip: Ipv4Addr(ip),
            asn: Some(Asn(asn)),
            country: cc.parse().ok(),
            cert: CertId(cert),
            trusted: true,
        }
    }

    fn asdb() -> AsDatabase {
        let mut o = OrgTableBuilder::new();
        o.insert(Asn(100), OrgId(1), "Victim Hosting");
        o.insert(Asn(200), OrgId(2), "Attacker VPS");
        o.insert(Asn(201), OrgId(2), "Attacker VPS"); // sibling of 200
        AsDatabase {
            prefixes: PrefixTableBuilder::new().build(),
            orgs: o.build(),
            geo: GeoTableBuilder::new().build(),
        }
    }

    fn certs() -> HashMap<CertId, Certificate> {
        let mut m = HashMap::new();
        m.insert(
            CertId(1),
            Certificate::new(
                CertId(1),
                vec!["www.victim.gr".parse().unwrap()],
                CaId(1),
                Day(0),
                800,
                KeyId(1),
            ),
        );
        m.insert(
            CertId(666),
            Certificate::new(
                CertId(666),
                vec!["mail.victim.gr".parse().unwrap()],
                CaId(1),
                Day(80),
                90,
                KeyId(9),
            ),
        );
        m.insert(
            CertId(777),
            Certificate::new(
                CertId(777),
                vec!["www.victim.gr".parse().unwrap()],
                CaId(1),
                Day(80),
                90,
                KeyId(9),
            ),
        );
        m
    }

    /// Stable GR background + one-scan transient with cert `cert` from
    /// (asn, cc).
    fn world(asn: u32, cc: &str, cert: u64) -> (Vec<DeploymentMap>, Vec<Pattern>) {
        let mut o: Vec<DomainObservation> = (0..26)
            .map(|i| obs("victim.gr", i, 1, 100, "GR", 1))
            .collect();
        o.push(obs("victim.gr", 12, 99, asn, cc, cert));
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        (maps, patterns)
    }

    #[test]
    fn sensitive_foreign_transient_survives() {
        let (maps, patterns) = world(200, "NL", 666);
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert_eq!(out.candidates.len(), 1);
        let c = &out.candidates[0];
        assert_eq!(c.transient.asn, Asn(200));
        assert!(!c.truly_anomalous);
        assert_eq!(
            c.sensitive_names,
            vec!["mail.victim.gr".parse::<DomainName>().unwrap()]
        );
    }

    #[test]
    fn related_org_pruned() {
        // Stable on AS200 (org 2); transient in sibling AS201 (same org).
        let mut o: Vec<DomainObservation> = (0..26)
            .map(|i| obs("victim.gr", i, 1, 200, "GR", 1))
            .collect();
        o.push(obs("victim.gr", 12, 99, 201, "NL", 666));
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert!(out.candidates.is_empty());
        assert_eq!(out.pruned[0].2, PruneReason::RelatedOrg);
        // Ablation: disabling the check lets it through.
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig {
                disable_org_check: true,
                ..Default::default()
            },
        );
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn same_country_pruned() {
        let (maps, patterns) = world(200, "GR", 666);
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert!(out.candidates.is_empty());
        assert_eq!(out.pruned[0].2, PruneReason::SameCountry);
    }

    #[test]
    fn low_visibility_pruned() {
        // Background present in only half the scans.
        let mut o: Vec<DomainObservation> = (0..26)
            .step_by(2)
            .map(|i| obs("victim.gr", i, 1, 100, "GR", 1))
            .collect();
        o.push(obs("victim.gr", 12, 99, 200, "NL", 666));
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        // Either the map fragmented (no transient classified) or it was
        // pruned for visibility; it must not survive.
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn repeated_transients_pruned() {
        // The same foreign one-scan transient in periods 1, 2, 3.
        let mut o: Vec<DomainObservation> = (0..26 * 4)
            .map(|i| obs("victim.gr", i, 1, 100, "GR", 1))
            .collect();
        for p in 1..4u32 {
            o.push(obs("victim.gr", 26 * p + 10, 99, 200, "NL", 666));
        }
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert!(out.candidates.is_empty());
        assert!(out
            .pruned
            .iter()
            .all(|(_, _, r)| *r == PruneReason::RepeatedTransients));
        assert_eq!(out.pruned.len(), 3);
    }

    /// Regression: the repeat check used to count *any*
    /// transient-classified period as a repeat; §4.3 prunes on *similar*
    /// transients (same transient ASN recurring). Three adjacent periods
    /// with three unrelated transient ASNs are three independent
    /// anomalies, not one repeated benign visitor — none may be pruned
    /// as `RepeatedTransients`.
    #[test]
    fn unrelated_adjacent_transients_are_not_repeats() {
        let mut o: Vec<DomainObservation> = (0..26 * 4)
            .map(|i| obs("victim.gr", i, 1, 100, "GR", 1))
            .collect();
        // Periods 1, 2, 3: one-scan transients from three unrelated
        // foreign ASNs (no shared org, none in the asdb org table).
        for (p, asn) in [(1u32, 300u32), (2, 400), (3, 500)] {
            o.push(obs("victim.gr", 26 * p + 10, 99, asn, "NL", 666));
        }
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert!(
            !out.pruned
                .iter()
                .any(|(_, _, r)| *r == PruneReason::RepeatedTransients),
            "unrelated adjacent transients pruned as repeats: {:?}",
            out.pruned
        );
        assert_eq!(
            out.candidates.len(),
            3,
            "all three unrelated transients should survive the shortlist"
        );
        let asns: Vec<Asn> = out.candidates.iter().map(|c| c.transient.asn).collect();
        assert_eq!(asns, vec![Asn(300), Asn(400), Asn(500)]);
    }

    #[test]
    fn non_sensitive_pruned_unless_truly_anomalous() {
        // Transient cert 777 secures only www (not sensitive); single
        // period of data means it cannot be truly anomalous → pruned.
        let (maps, patterns) = world(200, "NL", 777);
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert!(out.candidates.is_empty());
        assert_eq!(out.pruned[0].2, PruneReason::NotSensitiveNotAnomalous);

        // Give it stable periods before and after → truly anomalous.
        let mut o: Vec<DomainObservation> = (0..26 * 3)
            .map(|i| obs("victim.gr", i, 1, 100, "GR", 1))
            .collect();
        o.push(obs("victim.gr", 26 + 12, 99, 200, "NL", 777));
        let maps = MapBuilder::new(StudyWindow::default()).build(&o);
        let patterns: Vec<Pattern> = maps
            .iter()
            .map(|m| classify(m, &ClassifyConfig::default()))
            .collect();
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        assert_eq!(out.candidates.len(), 1);
        assert!(out.candidates[0].truly_anomalous);
        assert!(out.candidates[0].via_anomalous_route);
    }

    #[test]
    fn prune_histogram_counts() {
        let (maps, patterns) = world(200, "GR", 666);
        let out = shortlist(
            &maps,
            &patterns,
            &asdb(),
            &certs(),
            &ShortlistConfig::default(),
        );
        let h = out.prune_histogram();
        assert_eq!(h.get(&PruneReason::SameCountry), Some(&1));
    }
}
