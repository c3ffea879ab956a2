//! Property-based tests for deployment-map construction, pattern
//! classification over arbitrary observation sets, and checkpoint
//! corruption detection.

use proptest::prelude::*;
use retrodns_cert::CertId;
use retrodns_core::checkpoint::CheckpointStore;
use retrodns_core::classify::{classify, ClassifyConfig};
use retrodns_core::map::{DeploymentMap, MapBuilder};
use retrodns_scan::DomainObservation;
use retrodns_store::ObservationStore;
use retrodns_types::{Asn, Day, DomainName, Ipv4Addr, StudyWindow};
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_observation() -> impl Strategy<Value = DomainObservation> {
    (
        0u8..4,    // domain index
        0u32..220, // scan week
        0u32..40,  // ip
        0u32..6,   // asn index
        0u8..4,    // country index
        0u64..10,  // cert
        any::<bool>(),
    )
        .prop_map(|(dom, week, ip, asn, cc, cert, trusted)| {
            const CCS: [&str; 4] = ["KG", "NL", "DE", "US"];
            DomainObservation {
                domain: format!("dom{dom}.example{dom}.com").parse().unwrap(),
                date: Day(week * 7),
                ip: Ipv4Addr(ip),
                asn: Some(Asn(100 + asn)),
                country: CCS[cc as usize].parse().ok(),
                cert: CertId(cert),
                trusted,
            }
        })
}

/// The column invariants of every deployment in `maps`, checked against
/// the `observations` they were built from:
/// - `ips`, certificate sightings and country sightings are strictly
///   ascending by key;
/// - every sighting window lies inside `[first, last]`, and both of its
///   endpoints are scan dates of the deployment;
/// - a certificate is trusted exactly when one of its groups had a
///   trusted endpoint, and `has_trusted_cert()` exactly when some
///   sighting is.
fn check_columns(maps: &[DeploymentMap], observations: &[DomainObservation]) -> Result<(), String> {
    for m in maps {
        for d in &m.deployments {
            prop_assert!(d.ips.windows(2).all(|w| w[0] < w[1]), "ips not ascending");
            prop_assert!(
                d.certs.windows(2).all(|w| w[0].id < w[1].id),
                "certs not ascending"
            );
            prop_assert!(
                d.countries.windows(2).all(|w| w[0].cc < w[1].cc),
                "countries not ascending"
            );
            let windows = d
                .certs
                .iter()
                .map(|s| (s.first, s.last))
                .chain(d.countries.iter().map(|s| (s.first, s.last)));
            for (first, last) in windows {
                prop_assert!(d.first <= first && first <= last && last <= d.last);
                prop_assert!(
                    d.dates.binary_search(&first).is_ok(),
                    "window opens off a scan"
                );
                prop_assert!(
                    d.dates.binary_search(&last).is_ok(),
                    "window closes off a scan"
                );
            }
            // The deployment's groups: its domain's rows in its ASN on
            // its scan dates.
            let rows: Vec<&DomainObservation> = observations
                .iter()
                .filter(|o| {
                    o.domain == m.domain
                        && o.asn == Some(d.asn)
                        && d.dates.binary_search(&o.date).is_ok()
                })
                .collect();
            for s in &d.certs {
                let trusted = rows
                    .iter()
                    .any(|o| o.trusted && rows.iter().any(|p| p.date == o.date && p.cert == s.id));
                prop_assert_eq!(s.trusted, trusted, "trust of cert {:?}", s.id);
            }
            prop_assert_eq!(d.has_trusted_cert(), d.certs.iter().any(|s| s.trusted));
            prop_assert_eq!(d.has_trusted_cert(), rows.iter().any(|o| o.trusted));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structural invariants of every built map:
    /// deployments are date-ordered runs of a single ASN, each date lies
    /// within the map's period, and per-ASN runs never overlap in time.
    #[test]
    fn map_builder_invariants(observations in prop::collection::vec(arb_observation(), 0..200)) {
        let builder = MapBuilder::new(StudyWindow::default());
        let maps = builder.build(&observations);
        for m in &maps {
            prop_assert!(!m.deployments.is_empty());
            let mut per_asn: std::collections::HashMap<Asn, Vec<(Day, Day)>> = Default::default();
            for d in &m.deployments {
                prop_assert!(d.first <= d.last);
                prop_assert!(!d.dates.is_empty());
                prop_assert_eq!(*d.dates.first().unwrap(), d.first);
                prop_assert_eq!(*d.dates.last().unwrap(), d.last);
                let mut sorted = d.dates.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(&sorted, &d.dates, "dates sorted unique");
                for date in &d.dates {
                    prop_assert!(m.period.contains(*date));
                }
                // Cert windows nest inside the deployment span.
                for s in &d.certs {
                    prop_assert!(s.first >= d.first && s.last <= d.last);
                }
                per_asn.entry(d.asn).or_default().push((d.first, d.last));
            }
            for runs in per_asn.values_mut() {
                runs.sort();
                for w in runs.windows(2) {
                    prop_assert!(w[0].1 < w[1].0, "same-ASN runs must not overlap");
                }
            }
            // Visibility is a proper fraction.
            prop_assert!(m.visibility() >= 0.0 && m.visibility() <= 1.0 + 1e-9);
        }
    }

    /// Every observation is attributable to a deployment in its period.
    #[test]
    fn no_observation_is_lost(observations in prop::collection::vec(arb_observation(), 1..150)) {
        let builder = MapBuilder::new(StudyWindow::default());
        let maps = builder.build(&observations);
        for o in &observations {
            let Some(asn) = o.asn else { continue };
            let covered = maps.iter().any(|m| {
                m.domain == o.domain
                    && m.period.contains(o.date)
                    && m.deployments.iter().any(|d| {
                        d.asn == asn && d.dates.contains(&o.date) && d.has_ip(o.ip)
                    })
            });
            prop_assert!(covered, "lost observation {o:?}");
        }
    }

    /// Classification is total: every map yields exactly one category,
    /// and the label is consistent with the category.
    #[test]
    fn classification_total(observations in prop::collection::vec(arb_observation(), 0..200)) {
        let builder = MapBuilder::new(StudyWindow::default());
        let cfg = ClassifyConfig::default();
        for m in builder.build(&observations) {
            let p = classify(&m, &cfg);
            match p.category() {
                "stable" => prop_assert!(p.label().starts_with('S')),
                "transition" => prop_assert!(p.label().starts_with('X')),
                "transient" => prop_assert!(p.label().starts_with('T')),
                "noisy" => prop_assert_eq!(p.label(), "Noisy"),
                other => prop_assert!(false, "unknown category {other}"),
            }
        }
    }

    /// Observations are order-insensitive: shuffling the input changes
    /// nothing.
    #[test]
    fn build_is_order_insensitive(
        observations in prop::collection::vec(arb_observation(), 0..100),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let builder = MapBuilder::new(StudyWindow::default());
        let a = builder.build(&observations);
        let mut shuffled = observations.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = builder.build(&shuffled);
        prop_assert_eq!(a, b);
    }

    /// Any truncation or bit flip anywhere in `checkpoint.json` — its
    /// hash header, the log manifest, the record — or in one of the log's
    /// parts — the dictionary or a chunk — is detected: `load` refuses the
    /// damaged checkpoint (forcing a clean recompute) rather than resuming
    /// from garbage, and a re-save fully recovers. A damaged part is only
    /// rewritten once a save that does not list it has swept it, since
    /// `save` trusts a part on disk by its name.
    #[test]
    fn checkpoint_corruption_is_always_detected(
        observations in prop::collection::vec(arb_observation(), 0..64),
        record in prop::collection::vec(any::<u64>(), 1..64),
        damage_part in any::<bool>(),
        part_seed in any::<u64>(),
        truncate in any::<bool>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "retrodns-ckpt-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let store = CheckpointStore::open(&dir).expect("open store");
        let log = ObservationStore::from_observations(&observations).unwrap();
        store.save(7, &log, &record).expect("save");

        let mut parts = store.part_paths(&log.manifest());
        let path = if damage_part {
            let n = parts.len() as u64;
            parts.swap_remove((part_seed % n) as usize)
        } else {
            dir.join("checkpoint.json")
        };
        let mut bytes = std::fs::read(&path).expect("read target");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).expect("write damaged target");

        if let Ok(loaded) = store.load::<Vec<u64>>(7) {
            // Only a part may take a harmless flip (a padding bit of the
            // trust bitmap, the letter case of a domain name), and then it
            // must load what was saved.
            prop_assert!(
                damage_part && loaded == (log.clone(), record.clone()),
                "corruption went undetected ({} at byte {pos} of {}, now {} bytes)",
                if truncate { "truncation" } else { "bit flip" },
                path.display(),
                bytes.len(),
            );
        }
        if damage_part {
            let sweep = ObservationStore::from_observations(&[DomainObservation {
                domain: "sweep.example.org".parse().unwrap(),
                date: Day(0),
                ip: Ipv4Addr(1_000_000),
                asn: None,
                country: None,
                cert: CertId(1_000_000),
                trusted: false,
            }])
            .unwrap();
            store.save(7, &sweep, &record).expect("sweeping save");
            prop_assert!(!path.exists(), "the damaged part survived the sweep");
        }
        // Re-saving restores a loadable checkpoint.
        store.save(7, &log, &record).expect("re-save");
        prop_assert_eq!(store.load::<Vec<u64>>(7).unwrap(), (log, record));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Engine equivalence: the arena map engine is byte-for-byte the
    /// reference builder for arbitrary, unsorted observation sets at
    /// every worker count 1–16, read from rows or from a columnar store
    /// — including the degenerate shapes (empty input, and a single
    /// domain collapsing all work into one shard with the rest empty).
    #[test]
    fn parallel_build_equals_serial(
        observations in prop::collection::vec(arb_observation(), 0..200),
        workers in 1usize..=16,
        single_domain in any::<bool>(),
        as_store in any::<bool>(),
    ) {
        let mut observations = observations;
        if single_domain {
            // One domain, many dates: every cut lands on the same key,
            // so one shard owns everything and the others are empty.
            let dom: DomainName = "only.example.com".parse().unwrap();
            for o in &mut observations {
                o.domain = dom.clone();
            }
        }
        let mut builder = MapBuilder::new(StudyWindow::default());
        // Disable the adaptive single-range threshold so small generated
        // sets still exercise the sharded code path.
        builder.min_obs_per_worker = 0;
        let reference = builder.build(&observations);
        let (engine, _) = if as_store {
            let store = ObservationStore::from_observations(&observations).unwrap();
            builder.build_store_stats(&store, None, workers)
        } else {
            builder.build_sharded_stats(&observations, workers)
        };
        prop_assert_eq!(
            reference,
            engine,
            "engine diverged at workers={} (store: {})",
            workers,
            as_store
        );
    }

    /// The engine's sorted columns hold the invariants the BTree sets
    /// once held by construction, whether the maps come from the sharded
    /// build at any worker count or from a week-by-week `append_scan`.
    #[test]
    fn engine_columns_stay_sorted_and_consistent(
        observations in prop::collection::vec(arb_observation(), 0..200),
        workers in 1usize..=4,
    ) {
        let mut builder = MapBuilder::new(StudyWindow::default());
        builder.min_obs_per_worker = 0;
        let (built, _) = builder.build_sharded_stats(&observations, workers);
        check_columns(&built, &observations)?;

        let mut by_date = observations.clone();
        by_date.sort_by_key(|o| o.date);
        let mut streamed = Vec::new();
        for scan in by_date.chunk_by(|a, b| a.date == b.date) {
            builder.append_scan(&mut streamed, scan);
        }
        check_columns(&streamed, &observations)?;
        prop_assert_eq!(streamed, built);
    }

    /// A domain name never appears in a map it does not own.
    #[test]
    fn maps_do_not_mix_domains(observations in prop::collection::vec(arb_observation(), 0..150)) {
        let builder = MapBuilder::new(StudyWindow::default());
        let maps = builder.build(&observations);
        let mut seen: std::collections::HashSet<(DomainName, usize)> = Default::default();
        for m in &maps {
            prop_assert!(
                seen.insert((m.domain.clone(), m.period.id)),
                "duplicate map for {} period {}",
                m.domain,
                m.period.id
            );
        }
    }
}
