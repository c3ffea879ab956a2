//! Stage 4: inspecting shortlisted candidates against pDNS and CT (§4.4).
//!
//! This stage replaces the paper's manual per-domain analysis with the
//! same decision procedure, codified:
//!
//! * **T1** — the transient presented a *new* certificate. It is a hijack
//!   when pDNS shows a short-lived delegation (or resolution) change
//!   *near the certificate's issuance day*; it is dismissed when the
//!   certificate long predates the transient's visibility (a legitimate
//!   deployment briefly visible to scans); lacking pDNS it stays
//!   inconclusive until the shared-infrastructure (T1*) pass.
//! * **T2** — the transient presented the stable deployment's own
//!   certificate (proxy prelude). It is a hijack when pDNS shows the
//!   redirection *and* CT shows a fresh certificate for the sensitive
//!   subdomain in the same window; redirection without a certificate
//!   marks the domain *targeted* (the ais.gov.vn case), as does a truly
//!   anomalous transient with no corroboration at all.

use crate::shortlist::Candidate;
use retrodns_cert::{CertId, Certificate, CrtShIndex};
use retrodns_dns::{DnssecArchive, PassiveDns, PdnsEntry, RecordType};
use retrodns_types::{Asn, CountryCode, Day, DomainName, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// How a hijacked domain was identified (Table 2's *Type* column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectionType {
    /// Transient with new certificate, pDNS-corroborated.
    T1,
    /// Transient with new certificate, no pDNS — but the attacker IP was
    /// used in another confirmed hijack.
    T1Star,
    /// Proxy prelude with pDNS redirection + CT issuance.
    T2,
    /// Discovered by pivoting on a confirmed attacker IP.
    PivotIp,
    /// Discovered by pivoting on a confirmed rogue nameserver.
    PivotNs,
}

impl DetectionType {
    /// Table 2 rendering.
    pub fn label(&self) -> &'static str {
        match self {
            DetectionType::T1 => "T1",
            DetectionType::T1Star => "T1*",
            DetectionType::T2 => "T2",
            DetectionType::PivotIp => "P-IP",
            DetectionType::PivotNs => "P-NS",
        }
    }
}

/// A domain concluded hijacked, with its evidence (one Table 2 row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectedHijack {
    /// The victim registered domain.
    pub domain: DomainName,
    /// How it was identified.
    pub dtype: DetectionType,
    /// The targeted sensitive subdomain, if identified.
    pub sub: Option<DomainName>,
    /// First day of hijack evidence (Table 2 *Hij.* column).
    pub first_evidence: Day,
    /// pDNS corroboration present?
    pub pdns_corroborated: bool,
    /// CT corroboration present?
    pub ct_corroborated: bool,
    /// DNSSEC-disable corroboration present (§7.1 extension signal)?
    pub dnssec_corroborated: bool,
    /// The maliciously obtained certificate, if found.
    pub malicious_cert: Option<CertId>,
    /// Attacker server address(es).
    pub attacker_ips: Vec<Ipv4Addr>,
    /// Attacker ASN (of the transient deployment).
    pub attacker_asn: Option<Asn>,
    /// Attacker country.
    pub attacker_cc: Option<CountryCode>,
    /// Rogue nameservers implicated via pDNS.
    pub attacker_ns: Vec<DomainName>,
    /// The victim's stable ASNs (empty for pivot-only discoveries).
    pub victim_asns: Vec<Asn>,
    /// The victim's stable countries.
    pub victim_ccs: Vec<CountryCode>,
    /// The transient geolocated to a victim country but its origin AS does
    /// not plausibly announce addresses there (BGP-assisted-hijack
    /// annotation, carried from the shortlist stage).
    #[serde(default, skip_serializing_if = "serde::__is_default")]
    pub geo_implausible: bool,
}

/// A domain concluded targeted-but-not-hijacked (one Table 3 row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectedTarget {
    /// The victim registered domain.
    pub domain: DomainName,
    /// The sensitive subdomain involved, if identified.
    pub sub: Option<DomainName>,
    /// First day of the suspicious transient.
    pub first_evidence: Day,
    /// pDNS corroboration present?
    pub pdns_corroborated: bool,
    /// CT corroboration present?
    pub ct_corroborated: bool,
    /// The suspected attacker address.
    pub attacker_ip: Option<Ipv4Addr>,
    /// Attacker ASN.
    pub attacker_asn: Option<Asn>,
    /// Attacker country.
    pub attacker_cc: Option<CountryCode>,
    /// Victim stable ASNs.
    pub victim_asns: Vec<Asn>,
    /// Victim stable countries.
    pub victim_ccs: Vec<CountryCode>,
}

/// A verdict the pipeline could not reach with full corroboration: one
/// or more sources stayed unavailable past their retry budget, so the
/// candidate (or pivot discovery) is reported under an explicit
/// *degraded* confidence tier — never silently dismissed and never
/// upgraded to hijacked.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DegradedVerdict {
    /// The registered domain whose verdict is degraded.
    pub domain: DomainName,
    /// Pipeline stage at which the degradation surfaced (`inspect` for
    /// shortlist/inspect candidates, `pivot` for pivot discoveries).
    pub stage: String,
    /// First day of the suspicious evidence that made the domain a
    /// candidate.
    pub first_evidence: Day,
    /// Canonical names of the unavailable sources, sorted.
    pub missing_sources: Vec<String>,
}

/// Why a candidate was dropped at inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DismissReason {
    /// The transient's certificate was issued long before the transient
    /// became visible — a legitimate deployment briefly caught by scans.
    StaleCert,
}

/// Per-candidate inspection outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum InspectOutcome {
    /// Concluded hijacked.
    Hijacked(DetectedHijack),
    /// Concluded targeted but not hijacked.
    Targeted(DetectedTarget),
    /// Dropped with a concrete benign explanation.
    Dismissed(DismissReason),
    /// Suspicious but uncorroborated (kept for the T1* pass).
    Inconclusive,
    /// A corroboration source stayed unavailable past its retry budget:
    /// the candidate is reported degraded instead of being judged.
    Degraded(DegradedVerdict),
}

/// Inspection thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InspectConfig {
    /// Certificate issuance must fall within this many days of the pDNS
    /// change to count as "issued near the time" (§4.4).
    pub issue_window_days: u32,
    /// A certificate issued at least this long before the transient's
    /// first scan appearance, absent pDNS changes, is a stale legitimate
    /// deployment.
    pub stale_days: u32,
    /// Maximum pDNS visibility (days) for a delegation/resolution change
    /// to count as "short-lived".
    pub short_change_max_days: u32,
    /// Slack (days) around the transient window when searching pDNS/CT.
    pub slack_days: u32,
    /// §7.1 extension: accept a DNSSEC-disable event overlapping the
    /// window as corroboration for T1 candidates lacking pDNS coverage.
    /// Off by default (the paper's baseline methodology).
    pub use_dnssec_signal: bool,
    /// Certificate-lineage extension (CERTainty-style): before dismissing
    /// a T1 candidate as a stale legitimate deployment, check whether the
    /// certificate breaks the domain's lineage (it is not one of the
    /// stable deployment's certificates and covers a sensitive name); if
    /// so, re-anchor the pDNS search at the *issuance* day — a
    /// cert-mimicry attacker flips the delegation weeks before the
    /// endpoint ever becomes visible to scans. Off by default.
    #[serde(default)]
    pub cert_lineage_signal: bool,
    /// Maximum sighting density (observations per visibility day) for a
    /// *long-span* NS aggregate to count as an intermittent delegation.
    /// Aggregated pDNS merges repeat sightings of one (name, rdata) into
    /// a single row, so a slow-burn actor reusing the same rogue
    /// nameservers across periods leaves an aggregate spanning months
    /// that was actually sighted on only a handful of days — long enough
    /// to evade the short-change filter, yet far too sparse to be a real
    /// delegation (those are sighted near-daily). Only consulted for
    /// candidates the shortlist kept via the cross-period recurrence
    /// signal, so it is inert in the paper-baseline configuration.
    #[serde(default = "default_sparse_ns_max_density")]
    pub sparse_ns_max_density: f64,
}

fn default_sparse_ns_max_density() -> f64 {
    0.05
}

impl Default for InspectConfig {
    fn default() -> Self {
        InspectConfig {
            issue_window_days: 14,
            stale_days: 42,
            short_change_max_days: 45,
            slack_days: 21,
            use_dnssec_signal: false,
            cert_lineage_signal: false,
            sparse_ns_max_density: default_sparse_ns_max_density(),
        }
    }
}

/// pDNS evidence gathered for one candidate.
#[derive(Debug, Clone, Default)]
struct PdnsEvidence {
    /// Short-lived NS entries overlapping the window.
    ns_changes: Vec<PdnsEntry>,
    /// A-record entries resolving into the transient's addresses.
    a_changes: Vec<PdnsEntry>,
}

fn gather_pdns(pdns: &PassiveDns, candidate: &Candidate, cfg: &InspectConfig) -> PdnsEvidence {
    let from = candidate
        .transient
        .first
        .saturating_sub_days(cfg.slack_days + 7);
    let to = candidate.transient.last + cfg.slack_days;
    gather_pdns_window(pdns, candidate, from, to, cfg)
}

fn gather_pdns_window(
    pdns: &PassiveDns,
    candidate: &Candidate,
    from: Day,
    to: Day,
    cfg: &InspectConfig,
) -> PdnsEvidence {
    let all = pdns.entries_under(&candidate.domain);
    let mut ev = PdnsEvidence::default();
    for e in all {
        if !e.overlaps(from, to) {
            continue;
        }
        match e.rtype {
            RecordType::Ns
                if e.name == candidate.domain
                    && e.visibility_days() <= cfg.short_change_max_days =>
            {
                ev.ns_changes.push(e);
            }
            RecordType::A => {
                if let Some(ip) = e.rdata.as_a() {
                    if candidate.transient.has_ip(ip)
                        && e.visibility_days() <= cfg.short_change_max_days
                    {
                        ev.a_changes.push(e);
                    }
                }
            }
            _ => {}
        }
    }
    ev
}

/// Long-span NS aggregates over the candidate's domain that were sighted
/// too rarely to be a live delegation (see
/// [`InspectConfig::sparse_ns_max_density`]).
fn sparse_ns_aggregates(
    pdns: &PassiveDns,
    candidate: &Candidate,
    cfg: &InspectConfig,
) -> Vec<PdnsEntry> {
    pdns.entries_under(&candidate.domain)
        .into_iter()
        .filter(|e| {
            e.rtype == RecordType::Ns
                && e.name == candidate.domain
                && e.visibility_days() > cfg.short_change_max_days
                && (e.count as f64) <= cfg.sparse_ns_max_density * f64::from(e.visibility_days())
        })
        .collect()
}

/// Is `day` within `window` days of any change's sighting window?
fn near_change(changes: &[PdnsEntry], day: Day, window: u32) -> bool {
    changes.iter().any(|e| {
        let lo = e.first_seen.saturating_sub_days(window);
        let hi = e.last_seen + window;
        day >= lo && day <= hi
    })
}

#[allow(clippy::too_many_arguments)]
fn evidence_hijack(
    candidate: &Candidate,
    dtype: DetectionType,
    first_evidence: Day,
    pdns_ev: &PdnsEvidence,
    ct: bool,
    dnssec: bool,
    cert: Option<CertId>,
    sub: Option<DomainName>,
) -> DetectedHijack {
    let attacker_ns: Vec<DomainName> = pdns_ev
        .ns_changes
        .iter()
        .filter_map(|e| e.rdata.as_ns().cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    DetectedHijack {
        domain: candidate.domain.clone(),
        dtype,
        sub,
        first_evidence,
        pdns_corroborated: !pdns_ev.ns_changes.is_empty() || !pdns_ev.a_changes.is_empty(),
        ct_corroborated: ct,
        dnssec_corroborated: dnssec,
        malicious_cert: cert,
        attacker_ips: candidate.transient.ips.to_vec(),
        attacker_asn: Some(candidate.transient.asn),
        attacker_cc: candidate.transient.country_codes().next(),
        attacker_ns,
        victim_asns: candidate.background.asns.iter().copied().collect(),
        victim_ccs: candidate.background.countries.iter().copied().collect(),
        geo_implausible: candidate.geo_implausible,
    }
}

fn evidence_target(
    candidate: &Candidate,
    first_evidence: Day,
    pdns: bool,
    ct: bool,
    sub: Option<DomainName>,
) -> DetectedTarget {
    DetectedTarget {
        domain: candidate.domain.clone(),
        sub,
        first_evidence,
        pdns_corroborated: pdns,
        ct_corroborated: ct,
        attacker_ip: candidate.transient.ips.first().copied(),
        attacker_asn: Some(candidate.transient.asn),
        attacker_cc: candidate.transient.country_codes().next(),
        victim_asns: candidate.background.asns.iter().copied().collect(),
        victim_ccs: candidate.background.countries.iter().copied().collect(),
    }
}

/// Inspect one candidate. `dnssec` supplies the §7.1 extension signal
/// (ignored unless `cfg.use_dnssec_signal` is set).
pub fn inspect_candidate(
    candidate: &Candidate,
    pdns: &PassiveDns,
    crtsh: &CrtShIndex,
    certs: &HashMap<CertId, Certificate>,
    dnssec: Option<&DnssecArchive>,
    cfg: &InspectConfig,
) -> InspectOutcome {
    let pdns_ev = gather_pdns(pdns, candidate, cfg);
    let window_from = candidate
        .transient
        .first
        .saturating_sub_days(cfg.slack_days + 7);
    let window_to = candidate.transient.last + cfg.slack_days;

    match candidate.finding.kind {
        crate::classify::TransientKind::T1 => {
            // The suspicious certificate(s): new certs of the transient.
            // Issuance day from CT where logged, else from the scanned
            // certificate itself.
            let mut best: Option<(CertId, Day, Option<DomainName>)> = None;
            for id in &candidate.finding.new_certs {
                let (issued, sub) = match crtsh.record(*id) {
                    Some(r) => (r.issued, r.names.iter().find(|n| n.is_sensitive()).cloned()),
                    None => match certs.get(id) {
                        Some(c) => (
                            c.not_before,
                            c.names.iter().find(|n| n.is_sensitive()).cloned(),
                        ),
                        None => continue,
                    },
                };
                // Prefer sensitive-name certs, then recency.
                let better = match &best {
                    None => true,
                    Some((_, bd, bsub)) => {
                        (sub.is_some() && bsub.is_none())
                            || (sub.is_some() == bsub.is_some() && issued > *bd)
                    }
                };
                if better {
                    best = Some((*id, issued, sub));
                }
            }
            let Some((cert_id, issued, sub)) = best else {
                return InspectOutcome::Inconclusive;
            };

            let pdns_changes_near: bool =
                near_change(&pdns_ev.ns_changes, issued, cfg.issue_window_days)
                    || near_change(&pdns_ev.a_changes, issued, cfg.issue_window_days);

            if pdns_changes_near {
                return InspectOutcome::Hijacked(evidence_hijack(
                    candidate,
                    DetectionType::T1,
                    issued,
                    &pdns_ev,
                    crtsh.record(cert_id).is_some(),
                    false,
                    Some(cert_id),
                    sub,
                ));
            }

            // §7.1 extension: a DNSSEC-disable event bracketing the
            // issuance substitutes for missing pDNS coverage — only a
            // registrar/registry-capable actor can strip the DS records.
            if cfg.use_dnssec_signal {
                if let Some(archive) = dnssec {
                    let events = archive.disable_events_in(
                        &candidate.domain,
                        issued.saturating_sub_days(cfg.issue_window_days),
                        issued + cfg.issue_window_days,
                    );
                    if !events.is_empty() {
                        return InspectOutcome::Hijacked(evidence_hijack(
                            candidate,
                            DetectionType::T1,
                            issued,
                            &pdns_ev,
                            crtsh.record(cert_id).is_some(),
                            true,
                            Some(cert_id),
                            sub,
                        ));
                    }
                }
            }

            // Recurrence extension: the shortlist kept this candidate
            // because a similar transient recurs across ≥3 consecutive
            // periods. A slow-burn actor reusing one set of rogue
            // nameservers leaves their delegation flips merged into a
            // single months-spanning pDNS aggregate whose visibility
            // window fails the short-change filter above — but whose
            // sighting count is a give-away: a genuine delegation is
            // observed near-daily, while the merged flips amount to a
            // few sighting-days spread over months. Accept such a
            // sparse aggregate bracketing the issuance day as the
            // delegation-change corroboration.
            if candidate.recurrent_periods > 0 {
                let sparse = sparse_ns_aggregates(pdns, candidate, cfg);
                if near_change(&sparse, issued, cfg.issue_window_days) {
                    let ev = PdnsEvidence {
                        ns_changes: sparse,
                        a_changes: pdns_ev.a_changes.clone(),
                    };
                    return InspectOutcome::Hijacked(evidence_hijack(
                        candidate,
                        DetectionType::T1,
                        issued,
                        &ev,
                        crtsh.record(cert_id).is_some(),
                        false,
                        Some(cert_id),
                        sub,
                    ));
                }
            }

            // Cert-lineage extension: the transient's certificate is not
            // one the stable deployment ever used and it covers a
            // sensitive name — before trusting the stale-cert heuristic,
            // re-anchor the pDNS search around the issuance day itself.
            // A cert-mimicry attacker flips the delegation (and obtains
            // the certificate) weeks before standing up the visible
            // endpoint, putting the flip outside the transient-anchored
            // search window above.
            if cfg.cert_lineage_signal
                && sub.is_some()
                && !candidate.background.certs.contains(&cert_id)
            {
                let near_ev = gather_pdns_window(
                    pdns,
                    candidate,
                    issued.saturating_sub_days(cfg.slack_days),
                    issued + cfg.slack_days,
                    cfg,
                );
                if near_change(&near_ev.ns_changes, issued, cfg.issue_window_days)
                    || near_change(&near_ev.a_changes, issued, cfg.issue_window_days)
                {
                    return InspectOutcome::Hijacked(evidence_hijack(
                        candidate,
                        DetectionType::T1,
                        issued,
                        &near_ev,
                        crtsh.record(cert_id).is_some(),
                        false,
                        Some(cert_id),
                        sub,
                    ));
                }
                // Lineage is broken but no flip was captured: the
                // stale-cert dismissal no longer applies — keep the
                // candidate for the shared-infrastructure (T1*) pass
                // rather than writing it off as a benign deployment.
                return InspectOutcome::Inconclusive;
            }

            // No pDNS change near issuance. Stale certificate ⇒ benign
            // deployment briefly visible.
            if issued + cfg.stale_days < candidate.transient.first
                && pdns_ev.ns_changes.is_empty()
                && pdns_ev.a_changes.is_empty()
            {
                return InspectOutcome::Dismissed(DismissReason::StaleCert);
            }

            // A T1-pattern anomaly with a fresh certificate but no pDNS
            // corroboration stays inconclusive: the paper's *targeted*
            // verdicts all match pattern T2 (Table 3: "deployment maps
            // for all these domains match Pattern T2"), while T1-pattern
            // candidates without corroboration were left undetermined.
            InspectOutcome::Inconclusive
        }

        crate::classify::TransientKind::T2 => {
            let redirected = !pdns_ev.ns_changes.is_empty() || !pdns_ev.a_changes.is_empty();
            // Fresh certificate for a sensitive subdomain in the window,
            // not one the stable deployment uses.
            let fresh_cert = crtsh
                .search_registered_in(&candidate.domain, window_from..=window_to)
                .into_iter()
                .filter(|r| !candidate.background.certs.contains(&r.id))
                .filter(|r| crtsh.introduces_new_key(&candidate.domain, r))
                .find(|r| r.names.iter().any(|n| n.is_sensitive()));

            match (redirected, fresh_cert) {
                (true, Some(r)) => {
                    let sub = r.names.iter().find(|n| n.is_sensitive()).cloned();
                    let issued = r.issued;
                    let id = r.id;
                    InspectOutcome::Hijacked(evidence_hijack(
                        candidate,
                        DetectionType::T2,
                        issued,
                        &pdns_ev,
                        true,
                        false,
                        Some(id),
                        sub,
                    ))
                }
                (true, None) => InspectOutcome::Targeted(evidence_target(
                    candidate,
                    candidate.transient.first,
                    true,
                    false,
                    None,
                )),
                (false, _) if candidate.truly_anomalous => InspectOutcome::Targeted(
                    evidence_target(candidate, candidate.transient.first, false, false, None),
                ),
                _ => InspectOutcome::Inconclusive,
            }
        }
    }
}

/// The T1* pass: inconclusive T1 candidates whose attacker IP was used in
/// another *confirmed* hijack are concluded hijacked (the paper's
/// apc.gov.ae / moh.gov.kw rule).
pub fn t1_star_pass(
    inconclusive: &[(Candidate, Day, Option<CertId>, Option<DomainName>)],
    confirmed_ips: &BTreeSet<Ipv4Addr>,
) -> Vec<DetectedHijack> {
    let mut out = Vec::new();
    for (candidate, issued, cert, sub) in inconclusive {
        if candidate
            .transient
            .ips
            .iter()
            .any(|ip| confirmed_ips.contains(ip))
        {
            out.push(DetectedHijack {
                domain: candidate.domain.clone(),
                dtype: DetectionType::T1Star,
                sub: sub.clone(),
                first_evidence: *issued,
                pdns_corroborated: false,
                ct_corroborated: cert.is_some(),
                dnssec_corroborated: false,
                malicious_cert: *cert,
                attacker_ips: candidate.transient.ips.to_vec(),
                attacker_asn: Some(candidate.transient.asn),
                attacker_cc: candidate.transient.country_codes().next(),
                attacker_ns: Vec::new(),
                victim_asns: candidate.background.asns.iter().copied().collect(),
                victim_ccs: candidate.background.countries.iter().copied().collect(),
                geo_implausible: candidate.geo_implausible,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{StableBackground, TransientFinding, TransientKind};
    use crate::map::{CertSighting, CountrySighting, Deployment};
    use retrodns_cert::authority::CaId;
    use retrodns_cert::{CtLog, KeyId};
    use retrodns_dns::RecordData;
    use retrodns_types::StudyWindow;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn transient(first: u32, last: u32, the_ip: &str, cert: u64) -> Deployment {
        Deployment {
            asn: Asn(200),
            first: Day(first),
            last: Day(last),
            dates: vec![Day(first), Day(last)],
            ips: vec![ip(the_ip)],
            certs: vec![CertSighting {
                id: CertId(cert),
                first: Day(first),
                last: Day(last),
                trusted: true,
            }],
            countries: vec![CountrySighting {
                cc: "NL".parse().unwrap(),
                first: Day(first),
                last: Day(last),
            }],
        }
    }

    fn candidate(kind: TransientKind, cert: u64, truly_anomalous: bool) -> Candidate {
        let mut background = StableBackground::default();
        background.asns.insert(Asn(100));
        background.countries.insert("KG".parse().unwrap());
        background.certs.insert(CertId(1));
        Candidate {
            domain: d("mfa.gov.kg"),
            period: StudyWindow::default().periods()[0],
            finding: TransientFinding {
                deployment: 0,
                kind,
                new_certs: if kind == TransientKind::T1 {
                    [CertId(cert)].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            },
            transient: transient(98, 105, "94.103.91.159", cert),
            background,
            truly_anomalous,
            via_anomalous_route: false,
            sensitive_names: vec![d("mail.mfa.gov.kg")],
            degraded_sources: Vec::new(),
            recurrent_periods: 0,
            geo_implausible: false,
        }
    }

    /// CT index with the malicious cert issued on day 100.
    fn crtsh_with(cert: u64, issued: u32) -> (CrtShIndex, HashMap<CertId, Certificate>) {
        let c = Certificate::new(
            CertId(cert),
            vec![d("mail.mfa.gov.kg")],
            CaId(1),
            Day(issued),
            90,
            KeyId(9),
        );
        let mut log = CtLog::new();
        log.submit(c.clone(), Day(issued));
        let idx = CrtShIndex::build(&log);
        let mut map = HashMap::new();
        map.insert(CertId(cert), c);
        (idx, map)
    }

    fn pdns_with_hijack() -> PassiveDns {
        let mut p = PassiveDns::new();
        // Long-lived legitimate delegation.
        p.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.infocom.kg")),
            Day(0),
            Day(180),
            100,
        );
        // Short-lived rogue delegation around day 100.
        p.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.kg-infocom.ru")),
            Day(100),
            Day(101),
            2,
        );
        // Targeted subdomain resolving to the attacker IP.
        p.insert_aggregate(
            &d("mail.mfa.gov.kg"),
            RecordData::A(ip("94.103.91.159")),
            Day(100),
            Day(100),
            1,
        );
        p
    }

    #[test]
    fn t1_with_pdns_and_ct_is_hijacked() {
        // The changes are sighted on days 100–101. `issue_window_days` is
        // 14 and inclusive: issuance 13 and 14 days before the first
        // sighting or after the last still corroborates.
        for issued in [100, 87, 86, 114, 115] {
            let (crtsh, certs) = crtsh_with(666, issued);
            let out = inspect_candidate(
                &candidate(TransientKind::T1, 666, false),
                &pdns_with_hijack(),
                &crtsh,
                &certs,
                None,
                &InspectConfig::default(),
            );
            let InspectOutcome::Hijacked(h) = out else {
                panic!("issued day {issued}: expected hijacked, got {out:?}")
            };
            assert_eq!(h.dtype, DetectionType::T1);
            assert!(h.pdns_corroborated && h.ct_corroborated);
            assert_eq!(h.malicious_cert, Some(CertId(666)));
            assert_eq!(h.sub, Some(d("mail.mfa.gov.kg")));
            assert_eq!(h.attacker_ns, vec![d("ns1.kg-infocom.ru")]);
            assert_eq!(h.first_evidence, Day(issued));
        }
    }

    #[test]
    fn t1_without_pdns_is_inconclusive() {
        let (crtsh, certs) = crtsh_with(666, 100);
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &PassiveDns::new(),
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));
    }

    #[test]
    fn t1_stale_cert_dismissed() {
        // The transient is first seen on day 98. A cert issued on day 0 is
        // stale; `stale_days` is 42 and the cutoff is strict, so a first
        // sighting 41 or 42 days after issuance is not.
        let mut pdns = PassiveDns::new();
        pdns.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.infocom.kg")),
            Day(0),
            Day(180),
            10,
        );
        for (issued, stale) in [
            (0, true),
            (98 - 43, true),
            (98 - 42, false),
            (98 - 41, false),
        ] {
            let (crtsh, certs) = crtsh_with(666, issued);
            let out = inspect_candidate(
                &candidate(TransientKind::T1, 666, false),
                &pdns,
                &crtsh,
                &certs,
                None,
                &InspectConfig::default(),
            );
            if stale {
                assert!(
                    matches!(out, InspectOutcome::Dismissed(DismissReason::StaleCert)),
                    "issued day {issued}: {out:?}"
                );
            } else {
                assert!(
                    matches!(out, InspectOutcome::Inconclusive),
                    "issued day {issued}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn t1_issuance_far_from_change_not_hijacked() {
        // Cert issued day 100 but the only pDNS change was in day 10.
        let (crtsh, certs) = crtsh_with(666, 100);
        let mut pdns = PassiveDns::new();
        pdns.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.kg-infocom.ru")),
            Day(10),
            Day(11),
            2,
        );
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &pdns,
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        assert!(!matches!(out, InspectOutcome::Hijacked(_)));

        // One day past the inclusive 14-day window on either side of the
        // day 100–101 changes.
        for issued in [85, 116] {
            let (crtsh, certs) = crtsh_with(666, issued);
            let out = inspect_candidate(
                &candidate(TransientKind::T1, 666, false),
                &pdns_with_hijack(),
                &crtsh,
                &certs,
                None,
                &InspectConfig::default(),
            );
            assert!(
                matches!(out, InspectOutcome::Inconclusive),
                "issued day {issued}: {out:?}"
            );
        }
    }

    #[test]
    fn t2_with_redirection_and_fresh_cert_is_hijacked() {
        let (crtsh, certs) = crtsh_with(667, 100);
        let out = inspect_candidate(
            &candidate(TransientKind::T2, 1, false),
            &pdns_with_hijack(),
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        let InspectOutcome::Hijacked(h) = out else {
            panic!("expected hijacked, got {out:?}")
        };
        assert_eq!(h.dtype, DetectionType::T2);
        assert_eq!(h.malicious_cert, Some(CertId(667)));
    }

    #[test]
    fn t2_redirection_without_cert_is_targeted() {
        // pDNS shows redirection but CT has nothing (ais.gov.vn case).
        let out = inspect_candidate(
            &candidate(TransientKind::T2, 1, false),
            &pdns_with_hijack(),
            &CrtShIndex::default(),
            &HashMap::new(),
            None,
            &InspectConfig::default(),
        );
        let InspectOutcome::Targeted(t) = out else {
            panic!("expected targeted, got {out:?}")
        };
        assert!(t.pdns_corroborated);
        assert!(!t.ct_corroborated);
    }

    #[test]
    fn t2_no_corroboration_targeted_only_if_truly_anomalous() {
        let quiet = PassiveDns::new();
        let out = inspect_candidate(
            &candidate(TransientKind::T2, 1, false),
            &quiet,
            &CrtShIndex::default(),
            &HashMap::new(),
            None,
            &InspectConfig::default(),
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));

        let out = inspect_candidate(
            &candidate(TransientKind::T2, 1, true),
            &quiet,
            &CrtShIndex::default(),
            &HashMap::new(),
            None,
            &InspectConfig::default(),
        );
        assert!(matches!(out, InspectOutcome::Targeted(_)));
    }

    #[test]
    fn t1_dnssec_signal_substitutes_for_pdns() {
        let (crtsh, certs) = crtsh_with(666, 100);
        let mut archive = DnssecArchive::new();
        archive.record_span(Day(0), Day(97), &d("mfa.gov.kg"), true);
        archive.record_span(Day(98), Day(120), &d("mfa.gov.kg"), false);
        archive.record_span(Day(121), Day(400), &d("mfa.gov.kg"), true);
        // Without the signal enabled: inconclusive (no pDNS).
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &PassiveDns::new(),
            &crtsh,
            &certs,
            Some(&archive),
            &InspectConfig::default(),
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));
        // With the signal enabled: hijacked, dnssec-corroborated.
        let cfg = InspectConfig {
            use_dnssec_signal: true,
            ..InspectConfig::default()
        };
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &PassiveDns::new(),
            &crtsh,
            &certs,
            Some(&archive),
            &cfg,
        );
        let InspectOutcome::Hijacked(h) = out else {
            panic!("expected hijacked, got {out:?}")
        };
        assert!(h.dnssec_corroborated);
        assert!(!h.pdns_corroborated);
        // A disable event far from the issuance does not corroborate.
        let mut far = DnssecArchive::new();
        far.record_span(Day(0), Day(500), &d("mfa.gov.kg"), true);
        far.record_span(Day(501), Day(520), &d("mfa.gov.kg"), false);
        far.record_span(Day(521), Day(600), &d("mfa.gov.kg"), true);
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &PassiveDns::new(),
            &crtsh,
            &certs,
            Some(&far),
            &cfg,
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));
    }

    /// pDNS as a slow-burn attacker leaves it: the legitimate delegation
    /// is a dense months-long aggregate, while the rogue nameserver's
    /// repeated one-day flips have been merged by `insert_aggregate` into
    /// one months-spanning row with only a handful of sighting-days.
    fn pdns_with_merged_slowburn_flips() -> PassiveDns {
        let mut p = PassiveDns::new();
        p.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.infocom.kg")),
            Day(0),
            Day(180),
            170, // near-daily: a real delegation
        );
        p.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.kg-infocom.ru")),
            Day(20),
            Day(160),
            5, // five sighting-days over ~five months: merged flips
        );
        p
    }

    #[test]
    fn recurrent_candidate_accepts_sparse_merged_ns_aggregate() {
        let (crtsh, certs) = crtsh_with(666, 100);
        let mut cand = candidate(TransientKind::T1, 666, false);
        cand.recurrent_periods = 4;
        let out = inspect_candidate(
            &cand,
            &pdns_with_merged_slowburn_flips(),
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        let InspectOutcome::Hijacked(h) = out else {
            panic!("expected hijacked, got {out:?}")
        };
        assert_eq!(h.dtype, DetectionType::T1);
        assert!(h.pdns_corroborated && h.ct_corroborated);
        // Only the sparse rogue delegation counts as evidence — the dense
        // legitimate aggregate fails the sparsity filter.
        assert_eq!(h.attacker_ns, vec![d("ns1.kg-infocom.ru")]);

        // The density threshold itself (0.05 sightings/day): over
        // Day(20)..=Day(159), 140 days, 7 sightings are sparse enough to
        // be evidence and 8 are not.
        for (count, evidence) in [(7, true), (8, false)] {
            let mut pdns = PassiveDns::new();
            pdns.insert_aggregate(
                &d("mfa.gov.kg"),
                RecordData::Ns(d("ns1.kg-infocom.ru")),
                Day(20),
                Day(159),
                count,
            );
            let out = inspect_candidate(
                &cand,
                &pdns,
                &crtsh,
                &certs,
                None,
                &InspectConfig::default(),
            );
            assert_eq!(
                matches!(out, InspectOutcome::Hijacked(_)),
                evidence,
                "{count} sightings over 140 days: {out:?}"
            );
        }
    }

    #[test]
    fn sparse_ns_path_is_inert_without_recurrence() {
        // Identical pDNS, but the candidate did not recur across periods
        // (`recurrent_periods` stays 0, as in baseline mode where the
        // recurrence signal is off): outcome unchanged from before the
        // extension existed.
        let (crtsh, certs) = crtsh_with(666, 100);
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &pdns_with_merged_slowburn_flips(),
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));
    }

    #[test]
    fn sparse_aggregate_far_from_issuance_does_not_corroborate() {
        // The merged-flip aggregate starts well after the cert issuance:
        // sparsity alone is not evidence, the issuance must fall inside
        // the aggregate's (padded) sighting window.
        let (crtsh, certs) = crtsh_with(666, 100);
        let mut p = PassiveDns::new();
        p.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.kg-infocom.ru")),
            Day(150),
            Day(300),
            5,
        );
        let mut cand = candidate(TransientKind::T1, 666, false);
        cand.recurrent_periods = 4;
        let out = inspect_candidate(&cand, &p, &crtsh, &certs, None, &InspectConfig::default());
        assert!(matches!(out, InspectOutcome::Inconclusive));
    }

    #[test]
    fn cert_lineage_reanchors_stale_cert_at_issuance() {
        // Cert issued day 40; transient visible day 98–105: stale by the
        // baseline heuristic (98 - 40 > 42). The delegation flip sits at
        // the issuance day, far outside the transient-anchored window.
        let (crtsh, certs) = crtsh_with(666, 40);
        let mut pdns = PassiveDns::new();
        pdns.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.infocom.kg")),
            Day(0),
            Day(180),
            100,
        );
        pdns.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.kg-infocom.ru")),
            Day(40),
            Day(41),
            2,
        );
        // Baseline: dismissed as a stale legitimate deployment.
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &pdns,
            &crtsh,
            &certs,
            None,
            &InspectConfig::default(),
        );
        assert!(matches!(
            out,
            InspectOutcome::Dismissed(DismissReason::StaleCert)
        ));
        // With the lineage signal: the flip near issuance promotes it.
        let cfg = InspectConfig {
            cert_lineage_signal: true,
            ..InspectConfig::default()
        };
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &pdns,
            &crtsh,
            &certs,
            None,
            &cfg,
        );
        let InspectOutcome::Hijacked(h) = out else {
            panic!("expected hijacked, got {out:?}")
        };
        assert_eq!(h.dtype, DetectionType::T1);
        assert_eq!(h.first_evidence, Day(40));
        assert_eq!(h.attacker_ns, vec![d("ns1.kg-infocom.ru")]);
    }

    #[test]
    fn cert_lineage_without_flip_is_inconclusive_not_dismissed() {
        // Lineage is broken (fresh sensitive cert, not a background cert)
        // but pDNS shows no flip anywhere near issuance: a benign stale
        // blip migrates Dismissed → Inconclusive when the signal is on,
        // and is never upgraded to hijacked.
        let (crtsh, certs) = crtsh_with(666, 40);
        let mut pdns = PassiveDns::new();
        pdns.insert_aggregate(
            &d("mfa.gov.kg"),
            RecordData::Ns(d("ns1.infocom.kg")),
            Day(0),
            Day(180),
            100,
        );
        let cfg = InspectConfig {
            cert_lineage_signal: true,
            ..InspectConfig::default()
        };
        let out = inspect_candidate(
            &candidate(TransientKind::T1, 666, false),
            &pdns,
            &crtsh,
            &certs,
            None,
            &cfg,
        );
        assert!(matches!(out, InspectOutcome::Inconclusive));
    }

    #[test]
    fn t1_star_requires_shared_infrastructure() {
        let c = candidate(TransientKind::T1, 666, false);
        let inconclusive = vec![(c, Day(100), Some(CertId(666)), Some(d("mail.mfa.gov.kg")))];
        let mut confirmed: BTreeSet<Ipv4Addr> = BTreeSet::new();
        assert!(t1_star_pass(&inconclusive, &confirmed).is_empty());
        confirmed.insert(ip("94.103.91.159"));
        let found = t1_star_pass(&inconclusive, &confirmed);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].dtype, DetectionType::T1Star);
        assert!(!found[0].pdns_corroborated);
    }
}
