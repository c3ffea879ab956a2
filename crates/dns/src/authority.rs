//! The time-indexed authoritative DNS database.
//!
//! [`DnsDb`] holds the three layers of state a DNS infrastructure hijack
//! manipulates, each as a [`TimeSeries`] so resolution can be replayed as
//! of any past day:
//!
//! 1. **Registry delegations** — which nameserver hostnames a registered
//!    domain delegates to. Changing this requires authorization through
//!    the [`crate::registrar`] model (this is what the attacker rewrites).
//! 2. **Zone content per nameserver** — what each nameserver host answers
//!    for each name. The legitimate operator's nameservers answer the real
//!    records; the attacker's rogue nameservers answer whatever the
//!    attacker stages (the counterfeit A records, the ACME TXT tokens).
//! 3. **Glue** — nameserver hostname → IP address, letting the pivot stage
//!    tie rogue nameservers to attacker address space.
//!
//! Resolution (`resolve`) follows the delegation in effect on the queried
//! day, unions the answers of the delegated nameservers that carry zone
//! data for the name, and reports `NxDomain`/`NoData` faithfully. This
//! models the paper's central mechanism: when the delegation points at the
//! rogue nameservers, *every* consumer — users, the weekly scanner, the
//! ACME validation check — sees the attacker's answers.

use crate::record::{RecordData, RecordType};
use crate::registrar::{Actor, AuthError, RegistrarId, RegistrarRegistry};
use crate::timeseries::TimeSeries;
use retrodns_types::{Day, DomainName, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionError {
    /// The registered domain has no delegation on the queried day.
    NxDomain(DomainName),
    /// Delegation exists but no delegated nameserver answers for the name.
    NoData,
}

impl fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolutionError::NxDomain(d) => write!(f, "NXDOMAIN: no delegation for {d}"),
            ResolutionError::NoData => write!(f, "NODATA: delegated servers have no answer"),
        }
    }
}

impl std::error::Error for ResolutionError {}

/// The authoritative DNS database (registry + nameservers + glue).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DnsDb {
    /// Registration/authorization layer.
    pub registrars: RegistrarRegistry,
    /// registered domain → delegated NS hostnames over time.
    delegations: HashMap<DomainName, TimeSeries<Vec<DomainName>>>,
    /// (nameserver host, owner name, rtype) → answer set over time.
    zone_data: HashMap<(DomainName, DomainName, RecordType), TimeSeries<Vec<RecordData>>>,
    /// (owner name, rtype) → days any nameserver's content changed
    /// (secondary index powering [`DnsDb::resolution_segments`]).
    zone_change_days: HashMap<(DomainName, RecordType), Vec<Day>>,
    /// nameserver host → addresses over time (glue).
    glue: HashMap<DomainName, TimeSeries<Vec<Ipv4Addr>>>,
    /// registered domain → DNSSEC signing status over time. Changing it
    /// requires the same registry capability as changing the delegation
    /// (DS records live at the registry).
    dnssec: HashMap<DomainName, TimeSeries<bool>>,
}

impl DnsDb {
    /// An empty database.
    pub fn new() -> DnsDb {
        DnsDb::default()
    }

    // ------------------------------------------------------------------
    // Registration & delegation (authorized writes)
    // ------------------------------------------------------------------

    /// Register a domain with a registrar (no delegation yet).
    pub fn register_domain(&mut self, domain: DomainName, registrar: RegistrarId, day: Day) {
        self.registrars.register_domain(domain, registrar, day);
    }

    /// Change a domain's delegation, subject to the actor's capability.
    ///
    /// This is the sole write path into the registry layer: legitimate
    /// owners and attackers alike go through it, so simulated attacks are
    /// possible exactly when the modelled capability exists.
    pub fn set_delegation(
        &mut self,
        actor: &Actor,
        domain: &DomainName,
        nameservers: Vec<DomainName>,
        day: Day,
    ) -> Result<(), AuthError> {
        self.registrars.authorize(actor, domain)?;
        self.delegations
            .entry(domain.clone())
            .or_default()
            .set(day, nameservers);
        Ok(())
    }

    /// Set a domain's DNSSEC signing status, subject to the actor's
    /// capability (attackers with registrar/registry access disable it
    /// before hijacking signed domains, §3).
    pub fn set_dnssec(
        &mut self,
        actor: &Actor,
        domain: &DomainName,
        signed: bool,
        day: Day,
    ) -> Result<(), AuthError> {
        self.registrars.authorize(actor, domain)?;
        self.dnssec
            .entry(domain.clone())
            .or_default()
            .set(day, signed);
        Ok(())
    }

    /// Is the domain DNSSEC-signed on `day`? (`false` when never set.)
    pub fn dnssec_enabled(&self, domain: &DomainName, day: Day) -> bool {
        self.dnssec
            .get(domain)
            .and_then(|ts| ts.value_at(day))
            .copied()
            .unwrap_or(false)
    }

    /// Piecewise DNSSEC status over `[from, to]`.
    pub fn dnssec_segments(
        &self,
        domain: &DomainName,
        from: Day,
        to: Day,
    ) -> Vec<(Day, Day, bool)> {
        assert!(from <= to, "inverted segment window");
        let mut breakpoints: Vec<Day> = vec![from];
        if let Some(ts) = self.dnssec.get(domain) {
            breakpoints.extend(
                ts.changes()
                    .map(|(d, _)| d)
                    .filter(|d| *d > from && *d <= to),
            );
        }
        breakpoints.sort();
        breakpoints.dedup();
        let mut out: Vec<(Day, Day, bool)> = Vec::new();
        for (i, &start) in breakpoints.iter().enumerate() {
            let end = breakpoints.get(i + 1).map(|next| *next - 1).unwrap_or(to);
            let signed = self.dnssec_enabled(domain, start);
            match out.last_mut() {
                Some(last) if last.2 == signed => last.1 = end,
                _ => out.push((start, end, signed)),
            }
        }
        out
    }

    /// The NS hostnames a domain delegates to on `day`.
    pub fn delegation_of(&self, domain: &DomainName, day: Day) -> Option<&[DomainName]> {
        self.delegations
            .get(domain)?
            .value_at(day)
            .map(Vec::as_slice)
    }

    // ------------------------------------------------------------------
    // Zone content & glue (nameserver-operator writes, no registry auth)
    // ------------------------------------------------------------------

    /// Set the answer a nameserver host serves for `(name, rtype)` from
    /// `day` onward. The operator of a nameserver controls its content —
    /// authorization happened (or was usurped) at the delegation layer.
    pub fn set_zone_record(
        &mut self,
        ns_host: &DomainName,
        name: &DomainName,
        data: Vec<RecordData>,
        day: Day,
    ) {
        debug_assert!(
            !data.is_empty(),
            "use remove_zone_record to delete an answer"
        );
        let rtype = data[0].rtype();
        debug_assert!(
            data.iter().all(|d| d.rtype() == rtype),
            "mixed record types in one answer set"
        );
        self.zone_data
            .entry((ns_host.clone(), name.clone(), rtype))
            .or_default()
            .set(day, data);
        self.note_zone_change(name, rtype, day);
    }

    /// Remove a nameserver's answer for `(name, rtype)` from `day` onward.
    pub fn remove_zone_record(
        &mut self,
        ns_host: &DomainName,
        name: &DomainName,
        rtype: RecordType,
        day: Day,
    ) {
        self.zone_data
            .entry((ns_host.clone(), name.clone(), rtype))
            .or_default()
            .set(day, Vec::new());
        self.note_zone_change(name, rtype, day);
    }

    fn note_zone_change(&mut self, name: &DomainName, rtype: RecordType, day: Day) {
        let days = self
            .zone_change_days
            .entry((name.clone(), rtype))
            .or_default();
        if !days.contains(&day) {
            days.push(day);
        }
    }

    /// Set the glue addresses for a nameserver host from `day` onward.
    pub fn set_glue(&mut self, ns_host: &DomainName, ips: Vec<Ipv4Addr>, day: Day) {
        self.glue.entry(ns_host.clone()).or_default().set(day, ips);
    }

    /// The glue addresses of a nameserver host on `day`.
    pub fn ns_addresses(&self, ns_host: &DomainName, day: Day) -> &[Ipv4Addr] {
        self.glue
            .get(ns_host)
            .and_then(|ts| ts.value_at(day))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolve `(name, rtype)` as of `day`: follow the delegation of the
    /// name's registered domain and union the delegated nameservers'
    /// answers (deduplicated, in first-seen order).
    pub fn resolve(
        &self,
        name: &DomainName,
        rtype: RecordType,
        day: Day,
    ) -> Result<Vec<RecordData>, ResolutionError> {
        let registered = name.registered_domain();
        let nameservers = self
            .delegation_of(&registered, day)
            .ok_or_else(|| ResolutionError::NxDomain(registered.clone()))?;
        let mut answers: Vec<RecordData> = Vec::new();
        let mut any_zone = false;
        for ns in nameservers {
            if let Some(ts) = self.zone_data.get(&(ns.clone(), name.clone(), rtype)) {
                if let Some(data) = ts.value_at(day) {
                    any_zone = true;
                    for d in data {
                        if !answers.contains(d) {
                            answers.push(d.clone());
                        }
                    }
                }
            }
        }
        if !any_zone || answers.is_empty() {
            return Err(ResolutionError::NoData);
        }
        Ok(answers)
    }

    /// Resolve A records to plain addresses.
    pub fn resolve_a(&self, name: &DomainName, day: Day) -> Result<Vec<Ipv4Addr>, ResolutionError> {
        Ok(self
            .resolve(name, RecordType::A, day)?
            .iter()
            .filter_map(RecordData::as_a)
            .collect())
    }

    /// Resolve TXT records to strings.
    pub fn resolve_txt(&self, name: &DomainName, day: Day) -> Result<Vec<String>, ResolutionError> {
        Ok(self
            .resolve(name, RecordType::Txt, day)?
            .iter()
            .filter_map(|d| d.as_txt().map(str::to_string))
            .collect())
    }

    /// The piecewise-constant resolution of `(name, rtype)` over
    /// `[from, to]`: maximal segments `(start, end_inclusive, answers)`
    /// where `answers` is empty for NXDOMAIN/NODATA stretches.
    ///
    /// Resolution can only change on days where either the registered
    /// domain's delegation changed or some nameserver's content for the
    /// name changed, so this costs O(changes), not O(days) — the
    /// observation generators (pDNS sampling, zone snapshots) rely on it
    /// to stay cheap over a four-year window.
    pub fn resolution_segments(
        &self,
        name: &DomainName,
        rtype: RecordType,
        from: Day,
        to: Day,
    ) -> Vec<(Day, Day, Vec<RecordData>)> {
        assert!(from <= to, "inverted segment window");
        let registered = name.registered_domain();
        let mut breakpoints: Vec<Day> = vec![from];
        if let Some(ts) = self.delegations.get(&registered) {
            breakpoints.extend(
                ts.changes()
                    .map(|(d, _)| d)
                    .filter(|d| *d > from && *d <= to),
            );
        }
        if let Some(days) = self.zone_change_days.get(&(name.clone(), rtype)) {
            breakpoints.extend(days.iter().copied().filter(|d| *d > from && *d <= to));
        }
        breakpoints.sort();
        breakpoints.dedup();
        let mut out: Vec<(Day, Day, Vec<RecordData>)> = Vec::new();
        for (i, &start) in breakpoints.iter().enumerate() {
            let end = breakpoints.get(i + 1).map(|next| *next - 1).unwrap_or(to);
            let answers = self.resolve(name, rtype, start).unwrap_or_default();
            match out.last_mut() {
                Some(last) if last.2 == answers => last.1 = end,
                _ => out.push((start, end, answers)),
            }
        }
        out
    }

    /// Like [`Self::resolution_segments`] but for the delegation (NS set)
    /// of a registered domain, empty vec meaning "no delegation".
    pub fn delegation_segments(
        &self,
        registered: &DomainName,
        from: Day,
        to: Day,
    ) -> Vec<(Day, Day, Vec<DomainName>)> {
        assert!(from <= to, "inverted segment window");
        let mut breakpoints: Vec<Day> = vec![from];
        if let Some(ts) = self.delegations.get(registered) {
            breakpoints.extend(
                ts.changes()
                    .map(|(d, _)| d)
                    .filter(|d| *d > from && *d <= to),
            );
        }
        breakpoints.sort();
        breakpoints.dedup();
        let mut out: Vec<(Day, Day, Vec<DomainName>)> = Vec::new();
        for (i, &start) in breakpoints.iter().enumerate() {
            let end = breakpoints.get(i + 1).map(|next| *next - 1).unwrap_or(to);
            let ns = self
                .delegation_of(registered, start)
                .map(<[DomainName]>::to_vec)
                .unwrap_or_default();
            match out.last_mut() {
                Some(last) if last.2 == ns => last.1 = end,
                _ => out.push((start, end, ns)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Build the mfa.gov.kg scenario: stable infocom delegation, hijacked
    /// to kg-infocom.ru for days 100..=120.
    fn hijack_world() -> DnsDb {
        let mut db = DnsDb::new();
        db.registrars.add_registrar(RegistrarId(1), "KG NIC");
        db.register_domain(d("mfa.gov.kg"), RegistrarId(1), Day(0));

        // Legitimate setup.
        db.set_delegation(
            &Actor::Owner,
            &d("mfa.gov.kg"),
            vec![d("ns1.infocom.kg"), d("ns2.infocom.kg")],
            Day(0),
        )
        .unwrap();
        for ns in ["ns1.infocom.kg", "ns2.infocom.kg"] {
            db.set_zone_record(
                &d(ns),
                &d("mail.mfa.gov.kg"),
                vec![RecordData::A(ip("10.0.0.5"))],
                Day(0),
            );
        }
        db.set_glue(&d("ns1.infocom.kg"), vec![ip("10.0.0.1")], Day(0));

        // Attacker stages rogue NS content *before* flipping delegation.
        db.set_zone_record(
            &d("ns1.kg-infocom.ru"),
            &d("mail.mfa.gov.kg"),
            vec![RecordData::A(ip("94.103.91.159"))],
            Day(99),
        );
        db.set_glue(&d("ns1.kg-infocom.ru"), vec![ip("94.103.91.1")], Day(99));

        // Hijack: delegation flipped day 100, restored day 121.
        let attacker = Actor::StolenCredentials(d("mfa.gov.kg"));
        db.set_delegation(
            &attacker,
            &d("mfa.gov.kg"),
            vec![d("ns1.kg-infocom.ru")],
            Day(100),
        )
        .unwrap();
        db.set_delegation(
            &Actor::Owner,
            &d("mfa.gov.kg"),
            vec![d("ns1.infocom.kg"), d("ns2.infocom.kg")],
            Day(121),
        )
        .unwrap();
        db
    }

    #[test]
    fn resolution_follows_delegation_over_time() {
        let db = hijack_world();
        let name = d("mail.mfa.gov.kg");
        assert_eq!(db.resolve_a(&name, Day(50)).unwrap(), vec![ip("10.0.0.5")]);
        assert_eq!(
            db.resolve_a(&name, Day(105)).unwrap(),
            vec![ip("94.103.91.159")],
            "during the hijack the rogue NS answers"
        );
        assert_eq!(db.resolve_a(&name, Day(121)).unwrap(), vec![ip("10.0.0.5")]);
    }

    #[test]
    fn unauthorized_delegation_change_is_rejected() {
        let mut db = hijack_world();
        let wrong = Actor::StolenCredentials(d("other.gov.kg"));
        let err = db
            .set_delegation(&wrong, &d("mfa.gov.kg"), vec![d("evil.ru")], Day(50))
            .unwrap_err();
        assert_eq!(err, AuthError::NotAuthorized);
        // State unchanged.
        assert_eq!(
            db.delegation_of(&d("mfa.gov.kg"), Day(50)).unwrap(),
            &[d("ns1.infocom.kg"), d("ns2.infocom.kg")]
        );
    }

    #[test]
    fn nxdomain_for_unregistered_name() {
        let db = hijack_world();
        assert_eq!(
            db.resolve_a(&d("mail.unknown.kg"), Day(50)).unwrap_err(),
            ResolutionError::NxDomain(d("unknown.kg"))
        );
    }

    #[test]
    fn nodata_when_nameserver_lacks_record() {
        let db = hijack_world();
        assert_eq!(
            db.resolve_a(&d("www.mfa.gov.kg"), Day(50)).unwrap_err(),
            ResolutionError::NoData
        );
        // TXT for a name that only has A data is NODATA too.
        assert_eq!(
            db.resolve_txt(&d("mail.mfa.gov.kg"), Day(50)).unwrap_err(),
            ResolutionError::NoData
        );
    }

    #[test]
    fn answers_union_and_dedup_across_nameservers() {
        let mut db = DnsDb::new();
        db.registrars.add_registrar(RegistrarId(1), "R");
        db.register_domain(d("example.com"), RegistrarId(1), Day(0));
        db.set_delegation(
            &Actor::Owner,
            &d("example.com"),
            vec![d("ns1.example.com"), d("ns2.example.com")],
            Day(0),
        )
        .unwrap();
        db.set_zone_record(
            &d("ns1.example.com"),
            &d("example.com"),
            vec![RecordData::A(ip("10.0.0.1")), RecordData::A(ip("10.0.0.2"))],
            Day(0),
        );
        db.set_zone_record(
            &d("ns2.example.com"),
            &d("example.com"),
            vec![RecordData::A(ip("10.0.0.2")), RecordData::A(ip("10.0.0.3"))],
            Day(0),
        );
        let ips = db.resolve_a(&d("example.com"), Day(5)).unwrap();
        assert_eq!(ips, vec![ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3")]);
    }

    #[test]
    fn record_removal_yields_nodata() {
        let mut db = hijack_world();
        db.remove_zone_record(
            &d("ns1.infocom.kg"),
            &d("mail.mfa.gov.kg"),
            RecordType::A,
            Day(60),
        );
        db.remove_zone_record(
            &d("ns2.infocom.kg"),
            &d("mail.mfa.gov.kg"),
            RecordType::A,
            Day(60),
        );
        assert!(db.resolve_a(&d("mail.mfa.gov.kg"), Day(61)).is_err());
        // History before removal is intact.
        assert!(db.resolve_a(&d("mail.mfa.gov.kg"), Day(59)).is_ok());
    }

    #[test]
    fn glue_lookup_over_time() {
        let db = hijack_world();
        assert_eq!(
            db.ns_addresses(&d("ns1.kg-infocom.ru"), Day(100)),
            &[ip("94.103.91.1")]
        );
        assert!(db.ns_addresses(&d("ns1.kg-infocom.ru"), Day(50)).is_empty());
        assert!(db.ns_addresses(&d("nsX.nowhere.com"), Day(50)).is_empty());
    }

    #[test]
    fn resolution_segments_cover_hijack_exactly() {
        let db = hijack_world();
        let segs = db.resolution_segments(&d("mail.mfa.gov.kg"), RecordType::A, Day(0), Day(200));
        assert_eq!(
            segs,
            vec![
                (Day(0), Day(99), vec![RecordData::A(ip("10.0.0.5"))]),
                (Day(100), Day(120), vec![RecordData::A(ip("94.103.91.159"))]),
                (Day(121), Day(200), vec![RecordData::A(ip("10.0.0.5"))]),
            ]
        );
    }

    #[test]
    fn resolution_segments_before_any_data_are_empty() {
        let db = hijack_world();
        let segs = db.resolution_segments(&d("www.mfa.gov.kg"), RecordType::A, Day(0), Day(10));
        assert_eq!(segs, vec![(Day(0), Day(10), vec![])]);
    }

    #[test]
    fn delegation_segments_show_flip_and_restore() {
        let db = hijack_world();
        let segs = db.delegation_segments(&d("mfa.gov.kg"), Day(0), Day(200));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[1], (Day(100), Day(120), vec![d("ns1.kg-infocom.ru")]));
        // Unknown domain: one empty segment.
        let none = db.delegation_segments(&d("unknown.kg"), Day(0), Day(10));
        assert_eq!(none, vec![(Day(0), Day(10), vec![])]);
    }

    #[test]
    fn segments_merge_no_op_changes() {
        let mut db = hijack_world();
        // Re-setting the same record value creates a change day but not a
        // distinct segment.
        db.set_zone_record(
            &d("ns1.infocom.kg"),
            &d("mail.mfa.gov.kg"),
            vec![RecordData::A(ip("10.0.0.5"))],
            Day(50),
        );
        let segs = db.resolution_segments(&d("mail.mfa.gov.kg"), RecordType::A, Day(0), Day(99));
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn dnssec_status_is_authorized_and_time_indexed() {
        let mut db = hijack_world();
        db.set_dnssec(&Actor::Owner, &d("mfa.gov.kg"), true, Day(0))
            .unwrap();
        assert!(db.dnssec_enabled(&d("mfa.gov.kg"), Day(50)));
        // The attacker disables it before the hijack.
        let actor = Actor::StolenCredentials(d("mfa.gov.kg"));
        db.set_dnssec(&actor, &d("mfa.gov.kg"), false, Day(99))
            .unwrap();
        db.set_dnssec(&Actor::Owner, &d("mfa.gov.kg"), true, Day(130))
            .unwrap();
        assert!(!db.dnssec_enabled(&d("mfa.gov.kg"), Day(100)));
        assert!(db.dnssec_enabled(&d("mfa.gov.kg"), Day(130)));
        // Unauthorized actors cannot touch it.
        let wrong = Actor::StolenCredentials(d("other.gov.kg"));
        assert!(db
            .set_dnssec(&wrong, &d("mfa.gov.kg"), false, Day(140))
            .is_err());
        // Segments reflect the excursion.
        let segs = db.dnssec_segments(&d("mfa.gov.kg"), Day(0), Day(200));
        assert_eq!(
            segs,
            vec![
                (Day(0), Day(98), true),
                (Day(99), Day(129), false),
                (Day(130), Day(200), true),
            ]
        );
        // Unknown domains are simply unsigned.
        assert!(!db.dnssec_enabled(&d("unknown.kg"), Day(5)));
    }

    #[test]
    fn txt_resolution_for_acme_challenges() {
        let mut db = hijack_world();
        // Attacker places the ACME token on their rogue NS; during the
        // hijack window the CA sees it.
        db.set_zone_record(
            &d("ns1.kg-infocom.ru"),
            &d("_acme-challenge.mail.mfa.gov.kg"),
            vec![RecordData::Txt("acme-token".into())],
            Day(100),
        );
        assert_eq!(
            db.resolve_txt(&d("_acme-challenge.mail.mfa.gov.kg"), Day(101))
                .unwrap(),
            vec!["acme-token".to_string()]
        );
        // Before and after the hijack the legitimate NS have no such record.
        assert!(db
            .resolve_txt(&d("_acme-challenge.mail.mfa.gov.kg"), Day(99))
            .is_err());
        assert!(db
            .resolve_txt(&d("_acme-challenge.mail.mfa.gov.kg"), Day(121))
            .is_err());
    }
}
