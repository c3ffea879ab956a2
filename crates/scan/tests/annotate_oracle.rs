//! `domain_observations` against the string-sorting oracle it replaced.
//!
//! The oracle builds one row per scan record × registered domain (ports
//! included, so a record seen on three ports yields three equal rows),
//! sorts the rows by their derived order, domain string first, and
//! deduplicates. The production pass works on integer keys instead; the
//! property below pins that it returns exactly the oracle's rows, in the
//! oracle's order.

use proptest::prelude::*;
use retrodns_asdb::{AsDatabase, GeoTableBuilder, OrgId, OrgTableBuilder, PrefixTableBuilder};
use retrodns_cert::authority::{CaKind, CertAuthority};
use retrodns_cert::{CaId, CertId, Certificate, KeyId, TrustStore};
use retrodns_scan::{domain_observations, DomainObservation, ScanDataset, ScanRecord};
use retrodns_types::{Asn, CountryCode, Day, DomainName, Ipv4Addr};
use std::collections::HashMap;

/// The string-sorting annotation join, kept as the reference.
fn oracle(
    dataset: &ScanDataset,
    certs: &HashMap<CertId, Certificate>,
    asdb: &AsDatabase,
    trust: &TrustStore,
) -> Vec<DomainObservation> {
    let mut out = Vec::new();
    // Memoize per-cert registered domains and per-ip annotations.
    let mut cert_domains: HashMap<CertId, (Vec<DomainName>, bool)> = HashMap::new();
    let mut ip_ann: HashMap<Ipv4Addr, (Option<Asn>, Option<CountryCode>)> = HashMap::new();
    for r in dataset.records() {
        let (domains, trusted) = cert_domains
            .entry(r.cert)
            .or_insert_with(|| match certs.get(&r.cert) {
                Some(c) => (c.registered_domains(), trust.is_browser_trusted(c.issuer)),
                None => (Vec::new(), false),
            })
            .clone();
        let (asn, country) = *ip_ann.entry(r.ip).or_insert_with(|| {
            let a = asdb.annotate(r.ip);
            (a.asn, a.country)
        });
        for domain in domains {
            out.push(DomainObservation {
                domain,
                date: r.date,
                ip: r.ip,
                asn,
                country,
                cert: r.cert,
                trusted,
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

/// SANs certificates draw from: several per registered domain, wildcards
/// (including one whose parent is a public suffix), and multi-label
/// public suffixes, so one certificate can name several domains.
const SANS: &[&str] = &[
    "mail.a.com",
    "www.a.com",
    "a.com",
    "*.a.com",
    "*.b.net",
    "mx.b.net",
    "mail.mfa.gov.kg",
    "*.mfa.gov.kg",
    "www.c.co.uk",
    "z.com",
    "*.z.com",
    "mail.a.com.cy",
    "*.com",
    "webmail.kyvernisi.gr",
    "ab.com",
];

/// Addresses records draw from: the first four are routed, the rest are
/// not.
const IPS: &[&str] = &[
    "84.205.248.69",
    "84.205.248.1",
    "95.179.131.225",
    "95.179.128.7",
    "1.2.3.4",
    "1.2.3.5",
    "203.0.113.9",
];

/// Certificate ids `0..CERTS` exist; records also name `CERTS..CERTS + 3`,
/// which the certificate map lacks.
const CERTS: u64 = 8;

fn asdb() -> AsDatabase {
    let mut p = PrefixTableBuilder::new();
    p.insert("84.205.248.0/24".parse().unwrap(), Asn(35506));
    p.insert("95.179.128.0/18".parse().unwrap(), Asn(20473));
    let mut g = GeoTableBuilder::new();
    g.insert_prefix("84.205.248.0/24".parse().unwrap(), "GR".parse().unwrap())
        .unwrap();
    g.insert_prefix("95.179.128.0/18".parse().unwrap(), "NL".parse().unwrap())
        .unwrap();
    let mut o = OrgTableBuilder::new();
    o.insert(Asn(35506), OrgId(1), "Greek Gov NOC");
    o.insert(Asn(20473), OrgId(2), "Vultr");
    AsDatabase {
        prefixes: p.build(),
        orgs: o.build(),
        geo: g.build(),
    }
}

fn trust() -> TrustStore {
    let mut trust = TrustStore::new();
    trust.register_public(CertAuthority::new(
        CaId(1),
        "Let's Encrypt",
        CaKind::AcmeDv,
        90,
    ));
    trust.register_internal(CertAuthority::new(
        CaId(3),
        "Internal",
        CaKind::Internal,
        730,
    ));
    trust
}

/// Certificate `i` carries the SANs `sans[i]` (indices into [`SANS`]) and
/// is issued by the public CA when `public[i]`, else by the internal one.
fn certs(sans: &[Vec<usize>], public: &[bool]) -> HashMap<CertId, Certificate> {
    (0..CERTS as usize)
        .map(|i| {
            let names = sans[i].iter().map(|&s| SANS[s].parse().unwrap()).collect();
            let ca = if public[i] { CaId(1) } else { CaId(3) };
            let id = CertId(i as u64);
            (
                id,
                Certificate::new(id, names, ca, Day(0), 90, KeyId(i as u64)),
            )
        })
        .collect()
}

/// A dataset holding `records` exactly as given: unsorted, duplicates
/// kept. Deserializing bypasses `ScanDataset::from_records`, as loading
/// `scans.json` does.
fn raw_dataset(records: &[ScanRecord]) -> ScanDataset {
    let json = format!(
        "{{\"records\":{}}}",
        serde_json::to_string(records).unwrap()
    );
    serde_json::from_str(&json).unwrap()
}

fn arb_record() -> impl Strategy<Value = ScanRecord> {
    (0u32..5, 0..IPS.len(), 0usize..3, 0..CERTS + 3).prop_map(|(week, ip, port, cert)| ScanRecord {
        date: Day(week * 7),
        ip: IPS[ip].parse().unwrap(),
        port: [443, 993, 995][port],
        cert: CertId(cert),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn domain_observations_equal_the_string_sorting_oracle(
        sans in prop::collection::vec(
            prop::collection::vec(0..SANS.len(), 1..4),
            CERTS as usize,
        ),
        public in prop::collection::vec(any::<bool>(), CERTS as usize),
        records in prop::collection::vec(arb_record(), 0..80),
        // Repeat a prefix of the records on another port, so some keys
        // differ only by port.
        reprise in 0usize..40,
    ) {
        let certs = certs(&sans, &public);
        let (asdb, trust) = (asdb(), trust());
        let mut records = records;
        let repeats: Vec<ScanRecord> = records
            .iter()
            .take(reprise)
            .map(|r| ScanRecord { port: 465, ..*r })
            .collect();
        records.extend(repeats);
        for ds in [raw_dataset(&records), ScanDataset::from_records(records.clone())] {
            let want = oracle(&ds, &certs, &asdb, &trust);
            let got = domain_observations(&ds, &certs, &asdb, &trust);
            prop_assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap()
            );
        }
    }
}
