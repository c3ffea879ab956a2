//! Stage 2: pattern classification (§4.2, Figures 3–5).
//!
//! Every deployment map is assigned exactly one pattern:
//!
//! * **Stable (S1–S4)** — the same ASNs serve the domain throughout the
//!   period; certificates may roll over (S2), geography may expand within
//!   the AS (S3), a new certificate may appear on the same infrastructure
//!   (S4).
//! * **Transition (X1–X3)** — a new AS appears and *persists to the end
//!   of the period* (expansion X1/X2) or fully replaces the old one
//!   (migration X3). Long-term-stable changes are benign.
//! * **Transient (T1/T2)** — a deployment in a different AS that appears
//!   *and disappears* within the period, living less than the transient
//!   threshold (3 months — the free-certificate lifetime). T1 presents a
//!   certificate the stable deployment never used; T2 presents the stable
//!   deployment's own certificate (proxy prelude).
//! * **Noisy** — no stable background to compare against; the paper
//!   excludes these from inference (footnote 7).
//!
//! [`classify`] itself never yields [`Pattern::Unclassified`]: the
//! pipeline's guarded classify puts it in the slot of a map whose
//! classification panicked.

use crate::map::DeploymentMap;
use retrodns_cert::CertId;
use retrodns_types::{Asn, CountryCode, Day, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Stable sub-patterns (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StableKind {
    /// Single deployment, single certificate.
    S1,
    /// Certificate rollover within the deployment.
    S2,
    /// Geographic expansion within the same AS.
    S3,
    /// New certificate on the same infrastructure.
    S4,
}

/// Transition sub-patterns (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// Expansion into an additional AS with an existing certificate.
    X1,
    /// Expansion into an additional AS with a new certificate.
    X2,
    /// Migration: old infrastructure torn down, new persists.
    X3,
}

/// Transient sub-patterns (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// Transient presents a certificate the stable deployment never used.
    T1,
    /// Transient presents the stable deployment's own certificate.
    T2,
}

/// One suspicious transient deployment within a map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientFinding {
    /// Index into `map.deployments`.
    pub deployment: usize,
    /// T1 or T2.
    pub kind: TransientKind,
    /// Certificates the transient presented that the stable background
    /// never did (empty for T2).
    pub new_certs: BTreeSet<CertId>,
}

/// The stable background a transient is judged against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StableBackground {
    /// Indices of the background deployments.
    pub deployments: Vec<usize>,
    /// Union of background ASNs.
    pub asns: BTreeSet<Asn>,
    /// Union of background countries.
    pub countries: BTreeSet<CountryCode>,
    /// Union of background certificates.
    pub certs: BTreeSet<CertId>,
}

/// The classification of one deployment map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Benign stable map.
    Stable(StableKind),
    /// Benign long-term change.
    Transition(TransitionKind),
    /// One or more suspicious transients against a stable background.
    Transient {
        /// The transient deployments found.
        findings: Vec<TransientFinding>,
        /// The background they are judged against.
        background: StableBackground,
    },
    /// No stable background; excluded from inference.
    Noisy,
    /// Classification panicked. The pipeline quarantines the map under
    /// `worker_panic`; stages 3–5 skip it as if it had never been built.
    Unclassified,
}

impl Pattern {
    /// The short figure label ("S1" … "T2", "Noisy").
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Stable(StableKind::S1) => "S1",
            Pattern::Stable(StableKind::S2) => "S2",
            Pattern::Stable(StableKind::S3) => "S3",
            Pattern::Stable(StableKind::S4) => "S4",
            Pattern::Transition(TransitionKind::X1) => "X1",
            Pattern::Transition(TransitionKind::X2) => "X2",
            Pattern::Transition(TransitionKind::X3) => "X3",
            Pattern::Transient { findings, .. } => {
                if findings.iter().any(|f| f.kind == TransientKind::T1) {
                    "T1"
                } else {
                    "T2"
                }
            }
            Pattern::Noisy => "Noisy",
            Pattern::Unclassified => "Unclassified",
        }
    }

    /// Top-level category ("stable", "transition", "transient", "noisy",
    /// or "unclassified").
    pub fn category(&self) -> &'static str {
        match self {
            Pattern::Stable(_) => "stable",
            Pattern::Transition(_) => "transition",
            Pattern::Transient { .. } => "transient",
            Pattern::Noisy => "noisy",
            Pattern::Unclassified => "unclassified",
        }
    }
}

/// Classifier thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifyConfig {
    /// Maximum lifetime (days) of a bounded deployment to count as
    /// transient — the paper's 3 months ≈ free-certificate validity.
    pub transient_max_days: u32,
    /// How many scan intervals from a period edge still count as
    /// "covering" that edge.
    pub edge_margin_scans: u32,
    /// Minimum fraction of the period a lone deployment must span to be
    /// called stable rather than unclassifiable.
    pub min_stable_coverage: f64,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            transient_max_days: 90,
            edge_margin_scans: 2,
            min_stable_coverage: 0.6,
        }
    }
}

/// Classify one deployment map.
pub fn classify(map: &DeploymentMap, cfg: &ClassifyConfig) -> Pattern {
    if map.deployments.is_empty() {
        return Pattern::Noisy;
    }
    let period_len = map.period.len_days();
    let interval = map.scan_interval();
    let margin = (cfg.edge_margin_scans + 1) * interval;
    let start_edge = map.period.start + margin;
    // Fully saturating: a quarantine-degraded or zero-/one-day period can
    // put `end` at `Day(0)`, where a bare `- 1` underflows.
    let end_edge = Day(map.period.end.0.saturating_sub(1).saturating_sub(margin));

    let covers_start = |i: usize| map.deployments[i].first <= start_edge;
    let covers_end = |i: usize| map.deployments[i].last >= end_edge;

    // Sub-pattern of a deployment judged stable on its own: concurrent
    // certificates ⇒ S4, late-appearing country ⇒ S3, rollover ⇒ S2.
    let stable_kind_of = |i: usize| -> StableKind {
        let d = &map.deployments[i];
        if d.certs.len() > 1 && d.has_concurrent_certs() {
            StableKind::S4
        } else if d.country_added_after(margin) {
            StableKind::S3
        } else if d.certs.len() <= 1 {
            StableKind::S1
        } else {
            StableKind::S2
        }
    };

    // A lone deployment has nothing to be compared against.
    if map.deployments.len() == 1 {
        let d = &map.deployments[0];
        let coverage = d.span_days() as f64 / period_len as f64;
        if coverage >= cfg.min_stable_coverage || (covers_start(0) && covers_end(0)) {
            return Pattern::Stable(stable_kind_of(0));
        }
        return Pattern::Noisy;
    }

    let stable: Vec<usize> = (0..map.deployments.len())
        .filter(|&i| covers_start(i) && covers_end(i))
        .collect();

    if stable.is_empty() {
        // Migration handoff: something covered the start, something else
        // covers the end, and there are only a couple of deployments in
        // play. Many deployments with no stable background is churn.
        if map.deployments.len() <= 3 {
            let old = (0..map.deployments.len()).find(|&i| covers_start(i));
            let new = (0..map.deployments.len()).find(|&i| covers_end(i));
            if let (Some(o), Some(n)) = (old, new) {
                if o != n {
                    return Pattern::Transition(TransitionKind::X3);
                }
            }
        }
        return Pattern::Noisy;
    }

    let background = {
        let mut bg = StableBackground {
            deployments: stable.clone(),
            ..StableBackground::default()
        };
        for &i in &stable {
            let d = &map.deployments[i];
            bg.asns.insert(d.asn);
            bg.countries.extend(d.country_codes());
            bg.certs.extend(d.cert_ids());
        }
        bg
    };
    let in_stable_ips = |ip: &Ipv4Addr| stable.iter().any(|&i| map.deployments[i].has_ip(*ip));

    let mut findings: Vec<TransientFinding> = Vec::new();
    let mut transition: Option<TransitionKind> = None;
    let mut stable_kind_upgrade: Option<StableKind> = None;

    for i in 0..map.deployments.len() {
        if stable.contains(&i) {
            continue;
        }
        let d = &map.deployments[i];
        let starts_mid = !covers_start(i);
        let ends_early = !covers_end(i);
        match (starts_mid, ends_early) {
            (true, false) => {
                // Appears mid-period and persists: expansion.
                if background.asns.contains(&d.asn) {
                    // Same AS: S3 (new location) or S4 (new cert, same infra).
                    let kind = if d.ips.iter().all(in_stable_ips) {
                        StableKind::S4
                    } else if d.cert_ids().all(|id| background.certs.contains(&id)) {
                        StableKind::S3
                    } else {
                        StableKind::S4
                    };
                    stable_kind_upgrade = Some(match (stable_kind_upgrade, kind) {
                        (Some(StableKind::S4), _) | (_, StableKind::S4) => StableKind::S4,
                        _ => StableKind::S3,
                    });
                } else if d.cert_ids().all(|id| background.certs.contains(&id)) {
                    transition = Some(match transition {
                        Some(TransitionKind::X3) => TransitionKind::X3,
                        Some(TransitionKind::X2) => TransitionKind::X2,
                        _ => TransitionKind::X1,
                    });
                } else {
                    transition = Some(match transition {
                        Some(TransitionKind::X3) => TransitionKind::X3,
                        _ => TransitionKind::X2,
                    });
                }
            }
            (false, true) => {
                // Covered the start, torn down: migration/scale-down.
                transition = Some(TransitionKind::X3);
            }
            (true, true) => {
                // Bounded mid-period deployment.
                if background.asns.contains(&d.asn) {
                    // Same-AS flicker; linking artifact or short test —
                    // not the foreign-infrastructure signature.
                    continue;
                }
                if d.span_days() <= cfg.transient_max_days {
                    let new_certs: BTreeSet<CertId> = d
                        .cert_ids()
                        .filter(|id| !background.certs.contains(id))
                        .collect();
                    let kind = if new_certs.is_empty() {
                        TransientKind::T2
                    } else {
                        TransientKind::T1
                    };
                    findings.push(TransientFinding {
                        deployment: i,
                        kind,
                        new_certs,
                    });
                } else {
                    // Long-lived bounded change: treat as migration-ish.
                    transition = Some(TransitionKind::X3);
                }
            }
            (false, false) => unreachable!("covered both edges yet not stable"),
        }
    }

    if !findings.is_empty() {
        return Pattern::Transient {
            findings,
            background,
        };
    }
    if let Some(t) = transition {
        return Pattern::Transition(t);
    }
    if let Some(s) = stable_kind_upgrade {
        return Pattern::Stable(s);
    }
    // Purely stable: the richest sub-pattern across background
    // deployments wins (S4 > S3 > S2 > S1).
    let kind = stable
        .iter()
        .map(|&i| stable_kind_of(i))
        .max_by_key(|k| match k {
            StableKind::S1 => 0,
            StableKind::S2 => 1,
            StableKind::S3 => 2,
            StableKind::S4 => 3,
        })
        .expect("stable set non-empty");
    Pattern::Stable(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapBuilder;
    use retrodns_sim::archetypes::all_archetypes;
    use retrodns_types::StudyWindow;

    /// Every archetype of Figures 3–5 classifies to its expected label.
    #[test]
    fn archetypes_classify_as_expected() {
        let builder = MapBuilder::new(StudyWindow::default());
        let cfg = ClassifyConfig::default();
        for arch in all_archetypes() {
            let maps = builder.build(&arch.observations);
            assert_eq!(maps.len(), 1, "{}: one map expected", arch.label);
            let pattern = classify(&maps[0], &cfg);
            assert_eq!(
                pattern.label(),
                arch.expected,
                "{} ({}) misclassified as {:?}",
                arch.label,
                arch.description,
                pattern
            );
        }
    }

    #[test]
    fn empty_map_is_noisy() {
        let map = DeploymentMap {
            domain: "x.com".parse().unwrap(),
            period: StudyWindow::default().periods()[0],
            deployments: vec![],
            dates_present: vec![],
            expected_scans: 26,
        };
        assert_eq!(classify(&map, &ClassifyConfig::default()), Pattern::Noisy);
    }

    /// Regression: a quarantine-degraded period can end at `Day(0)` (or
    /// one day later). The old edge computation did a bare
    /// `map.period.end.0 - 1` before its `saturating_sub`, which panics
    /// in debug builds the moment such a period reaches the classifier.
    #[test]
    fn degenerate_period_does_not_underflow() {
        use crate::map::{CertSighting, Deployment};
        use retrodns_types::{Asn, Period};
        let deployment = Deployment {
            asn: Asn(100),
            first: Day(0),
            last: Day(0),
            dates: vec![Day(0)],
            ips: vec![retrodns_types::Ipv4Addr(1)],
            certs: vec![CertSighting {
                id: CertId(1),
                first: Day(0),
                last: Day(0),
                trusted: false,
            }],
            countries: vec![],
        };
        for end in [0u32, 1] {
            let map = DeploymentMap {
                domain: "x.com".parse().unwrap(),
                period: Period {
                    id: 0,
                    start: Day(0),
                    end: Day(end),
                },
                deployments: vec![deployment.clone()],
                dates_present: vec![Day(0)],
                expected_scans: 1,
            };
            // Must classify without panicking; the verdict itself is
            // secondary for a degenerate period.
            let _ = classify(&map, &ClassifyConfig::default());
        }
    }

    #[test]
    fn lone_short_deployment_is_noisy() {
        // A domain visible for only three weeks mid-period (the
        // no-stable-infra hijack shape): nothing to compare against.
        use retrodns_scan::DomainObservation;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let observations: Vec<_> = (10..13)
            .map(|i| DomainObservation {
                domain: "x.com".parse().unwrap(),
                date: Day(i * 7),
                ip: Ipv4Addr(1),
                asn: Some(Asn(200)),
                country: "NL".parse().ok(),
                cert: retrodns_cert::CertId(1),
                trusted: true,
            })
            .collect();
        let maps = MapBuilder::new(StudyWindow::default()).build(&observations);
        assert_eq!(
            classify(&maps[0], &ClassifyConfig::default()),
            Pattern::Noisy
        );
    }

    #[test]
    fn transient_threshold_separates_t_from_x() {
        use retrodns_scan::DomainObservation;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let mk = |weeks: std::ops::Range<u32>, asn: u32, cert: u64| -> Vec<DomainObservation> {
            weeks
                .map(|i| DomainObservation {
                    domain: "x.com".parse().unwrap(),
                    date: Day(i * 7),
                    ip: Ipv4Addr(asn),
                    asn: Some(Asn(asn)),
                    country: "NL".parse().ok(),
                    cert: retrodns_cert::CertId(cert),
                    trusted: true,
                })
                .collect()
        };
        let cfg = ClassifyConfig::default();
        let builder = MapBuilder::new(StudyWindow::default());

        // 8-week foreign deployment: transient (56 days < 90).
        let mut obs = mk(0..26, 100, 1);
        obs.extend(mk(8..16, 200, 2));
        let p = classify(&builder.build(&obs)[0], &cfg);
        assert_eq!(p.label(), "T1");

        // 15-week foreign deployment (98 days > 90): a long-lived change.
        let mut obs = mk(0..26, 100, 1);
        obs.extend(mk(5..20, 200, 2));
        let p = classify(&builder.build(&obs)[0], &cfg);
        assert_eq!(p.label(), "X3");
    }

    /// A 180-day period, so that `min_stable_coverage` of it is a whole
    /// number of days, scanned weekly.
    const PERIOD: retrodns_types::Period = retrodns_types::Period {
        id: 0,
        start: Day(0),
        end: Day(180),
    };

    /// A deployment in `asn` seen on `first` and `last` (inclusive),
    /// presenting `cert` throughout.
    fn deployment(asn: u32, first: u32, last: u32, cert: u64) -> crate::map::Deployment {
        use retrodns_types::{Asn, Ipv4Addr};
        crate::map::Deployment {
            asn: Asn(asn),
            first: Day(first),
            last: Day(last),
            dates: vec![Day(first), Day(last)],
            ips: vec![Ipv4Addr(asn)],
            certs: vec![crate::map::CertSighting {
                id: CertId(cert),
                first: Day(first),
                last: Day(last),
                trusted: false,
            }],
            countries: vec![],
        }
    }

    fn map_of(deployments: Vec<crate::map::Deployment>) -> DeploymentMap {
        DeploymentMap {
            domain: "x.com".parse().unwrap(),
            period: PERIOD,
            deployments,
            dates_present: vec![],
            expected_scans: PERIOD.len_days() as usize / 7,
        }
    }

    /// A bounded foreign deployment against a stable background is
    /// transient up to and including `transient_max_days` of lifetime,
    /// and a long-lived change one day later.
    #[test]
    fn transient_max_days_boundary() {
        let cfg = ClassifyConfig::default();
        let max = cfg.transient_max_days;
        for (span, expected) in [(max - 1, "T1"), (max, "T1"), (max + 1, "X3")] {
            let background = deployment(100, 0, PERIOD.end.0 - 1, 1);
            let bounded = deployment(200, 40, 40 + span - 1, 2);
            assert_eq!(bounded.span_days(), span);
            let p = classify(&map_of(vec![background, bounded]), &cfg);
            assert_eq!(p.label(), expected, "span {span} days: {p:?}");
        }
    }

    /// A lone deployment covering neither period edge is stable from
    /// exactly `min_stable_coverage` of the period on, noisy below it.
    #[test]
    fn min_stable_coverage_boundary() {
        let cfg = ClassifyConfig::default();
        let at = (cfg.min_stable_coverage * PERIOD.len_days() as f64) as u32;
        assert_eq!(
            at as f64 / PERIOD.len_days() as f64,
            cfg.min_stable_coverage
        );
        for (span, expected) in [(at - 1, "Noisy"), (at, "S1"), (at + 1, "S1")] {
            let lone = deployment(100, 30, 30 + span - 1, 1);
            let p = classify(&map_of(vec![lone]), &cfg);
            assert_eq!(p.label(), expected, "span {span} days: {p:?}");
        }
    }

    #[test]
    fn same_asn_flicker_is_not_transient() {
        use retrodns_scan::DomainObservation;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let mut obs: Vec<DomainObservation> = (0..26)
            .map(|i| DomainObservation {
                domain: "x.com".parse().unwrap(),
                date: Day(i * 7),
                ip: Ipv4Addr(1),
                asn: Some(Asn(100)),
                country: "GR".parse().ok(),
                cert: retrodns_cert::CertId(1),
                trusted: true,
            })
            .collect();
        // A second IP in the SAME ASN appears for one scan with the same
        // cert — e.g. anycast jitter. Builder links it into the same
        // deployment (same ASN), so the map stays stable.
        obs.push(DomainObservation {
            domain: "x.com".parse().unwrap(),
            date: Day(70),
            ip: Ipv4Addr(2),
            asn: Some(Asn(100)),
            country: "GR".parse().ok(),
            cert: retrodns_cert::CertId(1),
            trusted: true,
        });
        let maps = MapBuilder::new(StudyWindow::default()).build(&obs);
        let p = classify(&maps[0], &ClassifyConfig::default());
        assert_eq!(p.category(), "stable");
    }

    #[test]
    fn multiple_transients_all_reported() {
        use retrodns_scan::DomainObservation;
        use retrodns_types::{Asn, Day, Ipv4Addr};
        let mk = |week: u32, ip: u32, asn: u32, cert: u64| DomainObservation {
            domain: "x.com".parse().unwrap(),
            date: Day(week * 7),
            ip: Ipv4Addr(ip),
            asn: Some(Asn(asn)),
            country: "NL".parse().ok(),
            cert: retrodns_cert::CertId(cert),
            trusted: true,
        };
        let mut obs: Vec<DomainObservation> = (0..26).map(|i| mk(i, 1, 100, 1)).collect();
        obs.push(mk(8, 50, 200, 666));
        obs.push(mk(16, 60, 300, 1)); // T2-style: stable cert from foreign AS
        let maps = MapBuilder::new(StudyWindow::default()).build(&obs);
        let p = classify(&maps[0], &ClassifyConfig::default());
        match p {
            Pattern::Transient {
                findings,
                background,
            } => {
                assert_eq!(findings.len(), 2);
                let kinds: Vec<TransientKind> = findings.iter().map(|f| f.kind).collect();
                assert!(kinds.contains(&TransientKind::T1));
                assert!(kinds.contains(&TransientKind::T2));
                assert_eq!(background.asns.len(), 1);
            }
            other => panic!("expected transient, got {other:?}"),
        }
    }
}
