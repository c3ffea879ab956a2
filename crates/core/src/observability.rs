//! §5.3 observability statistics.
//!
//! How visible are these attacks in each data source?
//!
//! * pDNS captures the *attack itself* (resolutions to malicious
//!   infrastructure) for at most one day for ~51 % of hijacked domains;
//! * the malicious certificate appears in a scan within 8 days of
//!   issuance for >50 % of domains, and in only **one** weekly scan for
//!   >50 % (two scans for another ~20 %);
//! * daily zone files almost never catch the delegation flip.
//!
//! The module also hosts the *operational* observability of the pipeline
//! itself: [`span_summary`] tabulates the wall time the metrics
//! registry's `pipeline.run` and `stage.*` spans recorded, so `analyze`
//! can report where a run spent its time.

use crate::inspect::DetectedHijack;
use crate::metrics::SpanRecord;
use retrodns_dns::{PassiveDns, RecordType, ZoneSnapshotArchive};
use retrodns_scan::ScanDataset;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The stage-timings table `analyze` prints: wall time summed per span
/// name, one line per name in first-open order. A stream opens the same
/// stage spans every week, so its lines are totals over all weeks.
pub fn span_summary(spans: &[SpanRecord]) -> String {
    let mut totals: Vec<(&str, f64)> = Vec::new();
    for s in spans {
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, ms)) => *ms += s.wall_ms,
            None => totals.push((&s.name, s.wall_ms)),
        }
    }
    let mut out = String::new();
    for (name, ms) in totals {
        let _ = writeln!(out, "{name:<16} {ms:>9.2} ms");
    }
    out
}

/// The §5.3 statistics over a set of detected hijacks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObservabilityStats {
    /// Hijacks with any pDNS attack evidence (A records to attacker IPs).
    pub with_pdns_attack_evidence: usize,
    /// Of those, how many had at most one day of visibility.
    pub pdns_at_most_one_day: usize,
    /// Per-hijack pDNS attack-evidence visibility in days.
    pub pdns_visibility_days: Vec<u32>,
    /// Hijacks whose malicious certificate appeared in any scan.
    pub cert_scanned: usize,
    /// Of those, how many appeared within 8 days of issuance (lag in
    /// `0..=8`; certs first scanned *before* their recorded issuance
    /// are excluded and counted in `cert_scan_before_issuance`).
    pub cert_scanned_within_8_days: usize,
    /// Certs whose first scan sighting predates their recorded
    /// issuance day (CT backdating / clock skew) — anomalous, and
    /// never silently clamped into the within-8-days count.
    pub cert_scan_before_issuance: usize,
    /// Per-hijack (issuance → first scan) lag in days, signed:
    /// negative when the first scan sighting predates issuance.
    pub cert_scan_lag_days: Vec<i64>,
    /// Histogram of how many scans the malicious cert appeared in
    /// (index 0 = one scan, 1 = two scans, …). The **last** bucket is
    /// an *overflow* bucket: it counts certs seen in `len()` **or
    /// more** scans, not exactly `len()` — see
    /// [`frac_cert_in_at_least_n_scans`](Self::frac_cert_in_at_least_n_scans).
    pub cert_scan_count_histogram: Vec<usize>,
    /// Hijacked domains with zone-file access.
    pub zone_accessible: usize,
    /// Of those, how many show the rogue delegation in any daily snapshot.
    pub zone_visible: usize,
}

impl ObservabilityStats {
    /// Fraction of pDNS-evidenced hijacks visible at most one day.
    pub fn frac_pdns_one_day(&self) -> f64 {
        if self.with_pdns_attack_evidence == 0 {
            return 0.0;
        }
        self.pdns_at_most_one_day as f64 / self.with_pdns_attack_evidence as f64
    }

    /// Fraction of scanned malicious certs seen within 8 days of issuance.
    pub fn frac_cert_within_8_days(&self) -> f64 {
        if self.cert_scanned == 0 {
            return 0.0;
        }
        self.cert_scanned_within_8_days as f64 / self.cert_scanned as f64
    }

    /// Fraction of scanned malicious certs appearing in exactly `n` scans
    /// (1-based). Exact counts exist only below the histogram's overflow
    /// bucket, so `n` must be less than the histogram length; for the
    /// overflow bucket ("`len()` or more scans") use
    /// [`frac_cert_in_at_least_n_scans`](Self::frac_cert_in_at_least_n_scans)
    /// — asking for an exact count there returns 0.
    pub fn frac_cert_in_n_scans(&self, n: usize) -> f64 {
        if self.cert_scanned == 0 || n == 0 || n >= self.cert_scan_count_histogram.len() {
            return 0.0;
        }
        self.cert_scan_count_histogram[n - 1] as f64 / self.cert_scanned as f64
    }

    /// Fraction of scanned malicious certs appearing in at least `n`
    /// scans (1-based). Well-defined for every `n` up to and including
    /// the overflow bucket (`n == histogram.len()` means "`n` or more").
    pub fn frac_cert_in_at_least_n_scans(&self, n: usize) -> f64 {
        if self.cert_scanned == 0 || n == 0 || n > self.cert_scan_count_histogram.len() {
            return 0.0;
        }
        let tail: usize = self.cert_scan_count_histogram[n - 1..].iter().sum();
        tail as f64 / self.cert_scanned as f64
    }
}

/// Compute the observability statistics for detected hijacks.
pub fn observability(
    hijacks: &[DetectedHijack],
    pdns: &PassiveDns,
    scans: &ScanDataset,
    zones: &ZoneSnapshotArchive,
    crtsh: &retrodns_cert::CrtShIndex,
) -> ObservabilityStats {
    let mut stats = ObservabilityStats {
        cert_scan_count_histogram: vec![0; 6],
        ..Default::default()
    };

    for h in hijacks {
        // --- pDNS attack-evidence visibility -------------------------
        let mut best: Option<u32> = None;
        for e in pdns.entries_under(&h.domain) {
            if e.rtype != RecordType::A {
                continue;
            }
            let Some(ip) = e.rdata.as_a() else { continue };
            if h.attacker_ips.contains(&ip) {
                let v = e.visibility_days();
                best = Some(best.map(|b| b.max(v)).unwrap_or(v));
            }
        }
        if let Some(days) = best {
            stats.with_pdns_attack_evidence += 1;
            stats.pdns_visibility_days.push(days);
            if days <= 1 {
                stats.pdns_at_most_one_day += 1;
            }
        }

        // --- malicious certificate in scans ---------------------------
        if let Some(cert) = h.malicious_cert {
            let mut dates: Vec<_> = scans
                .records()
                .iter()
                .filter(|r| r.cert == cert)
                .map(|r| r.date)
                .collect();
            dates.sort();
            dates.dedup();
            if let Some(first) = dates.first() {
                stats.cert_scanned += 1;
                let issued = crtsh.record(cert).map(|r| r.issued).unwrap_or(*first);
                // Signed lag: a cert whose recorded issuance postdates its
                // first scan sighting (CT backdating, clock skew) must not
                // be clamped to lag 0 — that would silently inflate the
                // within-8-days count.
                let lag = first.0 as i64 - issued.0 as i64;
                stats.cert_scan_lag_days.push(lag);
                if lag < 0 {
                    stats.cert_scan_before_issuance += 1;
                } else if lag <= 8 {
                    stats.cert_scanned_within_8_days += 1;
                }
                let bucket = (dates.len() - 1).min(stats.cert_scan_count_histogram.len() - 1);
                stats.cert_scan_count_histogram[bucket] += 1;
            }
        }

        // --- zone-file visibility --------------------------------------
        if zones.has_access(&h.domain) {
            stats.zone_accessible += 1;
            let visible = h
                .attacker_ns
                .iter()
                .any(|ns| !zones.days_with_nameserver(&h.domain, ns).is_empty());
            if visible {
                stats.zone_visible += 1;
            }
        }
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::DetectionType;
    use retrodns_cert::authority::CaId;
    use retrodns_cert::{CertId, Certificate, CrtShIndex, CtLog, KeyId};
    use retrodns_dns::RecordData;
    use retrodns_scan::{ScanDataset, ScanRecord};
    use retrodns_types::{Day, DomainName, Ipv4Addr};

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn hijack(cert: Option<u64>) -> DetectedHijack {
        DetectedHijack {
            domain: d("victim.com"),
            dtype: DetectionType::T1,
            sub: Some(d("mail.victim.com")),
            first_evidence: Day(100),
            pdns_corroborated: true,
            ct_corroborated: true,
            dnssec_corroborated: false,
            malicious_cert: cert.map(CertId),
            attacker_ips: vec![ip("6.6.6.6")],
            attacker_asn: None,
            attacker_cc: None,
            attacker_ns: vec![d("ns1.evil.ru")],
            victim_asns: vec![],
            victim_ccs: vec![],
            geo_implausible: false,
        }
    }

    #[test]
    fn stats_cover_all_three_sources() {
        let mut pdns = PassiveDns::new();
        pdns.insert_aggregate(
            &d("mail.victim.com"),
            RecordData::A(ip("6.6.6.6")),
            Day(100),
            Day(100),
            1,
        );

        let scans = ScanDataset::from_records(vec![ScanRecord {
            date: Day(105),
            ip: ip("6.6.6.6"),
            port: 443,
            cert: CertId(666),
        }]);

        let mut log = CtLog::new();
        log.submit(
            Certificate::new(
                CertId(666),
                vec![d("mail.victim.com")],
                CaId(1),
                Day(100),
                90,
                KeyId(1),
            ),
            Day(100),
        );
        let crtsh = CrtShIndex::build(&log);

        let mut zones = ZoneSnapshotArchive::with_access(vec!["com".into()]);
        zones.record_span(Day(0), Day(99), &d("victim.com"), &[d("ns1.legit.com")]);
        zones.record(Day(100), &d("victim.com"), &[d("ns1.evil.ru")]);

        let stats = observability(&[hijack(Some(666))], &pdns, &scans, &zones, &crtsh);
        assert_eq!(stats.with_pdns_attack_evidence, 1);
        assert_eq!(stats.pdns_at_most_one_day, 1);
        assert!((stats.frac_pdns_one_day() - 1.0).abs() < 1e-9);
        assert_eq!(stats.cert_scanned, 1);
        assert_eq!(stats.cert_scan_lag_days, vec![5]);
        assert_eq!(stats.cert_scanned_within_8_days, 1);
        assert!((stats.frac_cert_in_n_scans(1) - 1.0).abs() < 1e-9);
        assert_eq!(stats.zone_accessible, 1);
        assert_eq!(stats.zone_visible, 1);
    }

    #[test]
    fn invisible_hijack_counts_nothing() {
        let stats = observability(
            &[hijack(None)],
            &PassiveDns::new(),
            &ScanDataset::default(),
            &ZoneSnapshotArchive::with_access(vec!["kg".into()]),
            &CrtShIndex::default(),
        );
        assert_eq!(stats.with_pdns_attack_evidence, 0);
        assert_eq!(stats.cert_scanned, 0);
        assert_eq!(stats.zone_accessible, 0);
        assert_eq!(stats.frac_pdns_one_day(), 0.0);
        assert_eq!(stats.frac_cert_in_n_scans(1), 0.0);
    }

    #[test]
    fn timings_summary_lists_all_stages() {
        let span = |name: &str, wall_ms: f64| SpanRecord {
            name: name.to_string(),
            depth: 0,
            start_ms: 0.0,
            wall_ms,
        };
        let s = span_summary(&[
            span("pipeline.run", 9.0),
            span("stage.shortlist", 1.5),
            span("stage.inspect", 2.0),
            span("stage.shortlist", 0.25),
        ]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(
            lines,
            [
                "pipeline.run          9.00 ms",
                "stage.shortlist       1.75 ms",
                "stage.inspect         2.00 ms",
            ]
        );
        assert_eq!(span_summary(&[]), "");
    }

    /// Regression: a certificate whose recorded issuance *postdates* its
    /// first scan sighting (CT backdating / clock skew) used to clamp to
    /// lag 0 and silently inflate `cert_scanned_within_8_days`. The true
    /// signed lag must be recorded and the cert counted separately.
    #[test]
    fn backdated_cert_is_not_counted_within_8_days() {
        let scans = ScanDataset::from_records(vec![ScanRecord {
            date: Day(105),
            ip: ip("6.6.6.6"),
            port: 443,
            cert: CertId(666),
        }]);
        let mut log = CtLog::new();
        log.submit(
            Certificate::new(
                CertId(666),
                vec![d("mail.victim.com")],
                CaId(1),
                Day(110), // issued five days *after* the scan sighting
                90,
                KeyId(1),
            ),
            Day(110),
        );
        let crtsh = CrtShIndex::build(&log);
        let stats = observability(
            &[hijack(Some(666))],
            &PassiveDns::new(),
            &scans,
            &ZoneSnapshotArchive::with_access(Vec::<String>::new()),
            &crtsh,
        );
        assert_eq!(stats.cert_scanned, 1);
        assert_eq!(stats.cert_scan_lag_days, vec![-5]);
        assert_eq!(
            stats.cert_scanned_within_8_days, 0,
            "backdated cert clamped into the within-8-days count"
        );
        assert_eq!(stats.cert_scan_before_issuance, 1);
        assert_eq!(stats.frac_cert_within_8_days(), 0.0);
    }

    /// Regression: the last histogram bucket is an overflow bucket ("6+
    /// scans"); `frac_cert_in_n_scans(6)` used to report it as "exactly
    /// 6". Exact fractions stop below the overflow bucket; the overflow
    /// mass is exposed via `frac_cert_in_at_least_n_scans`.
    #[test]
    fn overflow_bucket_is_at_least_not_exactly() {
        // Cert seen in 7 distinct scans: lands in the overflow bucket.
        let scans = ScanDataset::from_records(
            (0..7)
                .map(|i| ScanRecord {
                    date: Day(100 + i * 7),
                    ip: ip("6.6.6.6"),
                    port: 443,
                    cert: CertId(666),
                })
                .collect(),
        );
        let mut log = CtLog::new();
        log.submit(
            Certificate::new(
                CertId(666),
                vec![d("mail.victim.com")],
                CaId(1),
                Day(99),
                90,
                KeyId(1),
            ),
            Day(99),
        );
        let crtsh = CrtShIndex::build(&log);
        let stats = observability(
            &[hijack(Some(666))],
            &PassiveDns::new(),
            &scans,
            &ZoneSnapshotArchive::with_access(Vec::<String>::new()),
            &crtsh,
        );
        let overflow = stats.cert_scan_count_histogram.len(); // 6
        assert_eq!(stats.cert_scan_count_histogram[overflow - 1], 1);
        assert_eq!(
            stats.frac_cert_in_n_scans(overflow),
            0.0,
            "overflow bucket reported as an exact scan count"
        );
        assert!((stats.frac_cert_in_at_least_n_scans(overflow) - 1.0).abs() < 1e-9);
        assert!((stats.frac_cert_in_at_least_n_scans(1) - 1.0).abs() < 1e-9);
        assert_eq!(stats.frac_cert_in_at_least_n_scans(overflow + 1), 0.0);
    }

    #[test]
    fn multi_scan_cert_lands_in_right_bucket() {
        let scans = ScanDataset::from_records(
            (0..3)
                .map(|i| ScanRecord {
                    date: Day(100 + i * 7),
                    ip: ip("6.6.6.6"),
                    port: 443,
                    cert: CertId(666),
                })
                .collect(),
        );
        let mut log = CtLog::new();
        log.submit(
            Certificate::new(
                CertId(666),
                vec![d("mail.victim.com")],
                CaId(1),
                Day(99),
                90,
                KeyId(1),
            ),
            Day(99),
        );
        let crtsh = CrtShIndex::build(&log);
        let stats = observability(
            &[hijack(Some(666))],
            &PassiveDns::new(),
            &scans,
            &ZoneSnapshotArchive::with_access(Vec::<String>::new()),
            &crtsh,
        );
        assert!((stats.frac_cert_in_n_scans(3) - 1.0).abs() < 1e-9);
        assert_eq!(stats.frac_cert_in_n_scans(1), 0.0);
    }
}
