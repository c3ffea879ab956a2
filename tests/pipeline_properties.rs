//! Property-style integration tests over randomized worlds: invariants
//! that must hold for any seed.

mod common;

use common::{inputs_for, observations_of, pipeline_for, small_world};
use retrodns::core::classify::{classify, ClassifyConfig};
use retrodns::core::map::MapBuilder;
use std::collections::BTreeSet;

/// Deployment maps partition the observations: every routed observation
/// lands in exactly one deployment of exactly one map.
#[test]
fn maps_partition_observations() {
    let world = small_world(77);
    let observations = observations_of(&world);
    let builder = MapBuilder::new(world.config.window.clone());
    let maps = builder.build(&observations);

    // Index maps: (domain, period id) -> (date set, ip set).
    let mut dates_by_map: std::collections::HashMap<_, BTreeSet<_>> = Default::default();
    let mut ips_by_map: std::collections::HashMap<_, BTreeSet<_>> = Default::default();
    let periods = world.config.window.periods();
    for m in &maps {
        let key = (m.domain.clone(), m.period.id);
        let dates = dates_by_map.entry(key.clone()).or_default();
        let ips = ips_by_map.entry(key).or_default();
        for d in &m.deployments {
            dates.extend(d.dates.iter().copied());
            ips.extend(d.ips.iter().copied());
        }
    }
    // Every observation key must appear in its (domain, period) map.
    for o in &observations {
        if o.asn.is_none() {
            continue;
        }
        let period = periods
            .iter()
            .find(|p| p.contains(o.date))
            .expect("in window");
        let key = (o.domain.clone(), period.id);
        assert!(
            dates_by_map
                .get(&key)
                .map(|s| s.contains(&o.date))
                .unwrap_or(false),
            "observation date missing from maps: {} {}",
            o.domain,
            o.date
        );
        assert!(
            ips_by_map
                .get(&key)
                .map(|s| s.contains(&o.ip))
                .unwrap_or(false),
            "observation ip missing from maps: {} {}",
            o.domain,
            o.ip
        );
    }
}

/// Classification is total and deterministic: every map gets exactly one
/// pattern, and re-classification agrees.
#[test]
fn classification_is_total_and_stable() {
    let world = small_world(78);
    let observations = observations_of(&world);
    let builder = MapBuilder::new(world.config.window.clone());
    let maps = builder.build(&observations);
    let cfg = ClassifyConfig::default();
    for m in &maps {
        let p1 = classify(m, &cfg);
        let p2 = classify(m, &cfg);
        assert_eq!(p1, p2);
        assert!(matches!(
            p1.category(),
            "stable" | "transition" | "transient" | "noisy"
        ));
    }
}

/// Serial and parallel map building agree on a full world's observations.
#[test]
fn parallel_map_building_agrees_with_serial() {
    let world = small_world(79);
    let observations = observations_of(&world);
    let builder = MapBuilder::new(world.config.window.clone());
    let serial = builder.build(&observations);
    let (parallel, _) = builder.build_sharded_stats(&observations, 4);
    assert_eq!(serial, parallel);
}

/// Tightening the transient threshold can only shrink the transient set.
#[test]
fn transient_threshold_is_monotone() {
    let world = small_world(80);
    let observations = observations_of(&world);
    let builder = MapBuilder::new(world.config.window.clone());
    let maps = builder.build(&observations);
    let count_at = |days: u32| {
        let cfg = ClassifyConfig {
            transient_max_days: days,
            ..ClassifyConfig::default()
        };
        maps.iter()
            .filter(|m| classify(m, &cfg).category() == "transient")
            .count()
    };
    let (t30, t90, t150) = (count_at(30), count_at(90), count_at(150));
    assert!(t30 <= t90, "{t30} > {t90}");
    assert!(t90 <= t150, "{t90} > {t150}");
}

/// Every hijack verdict carries actionable evidence: an attacker IP or a
/// rogue nameserver, and at least one corroborating source.
#[test]
fn hijack_verdicts_carry_evidence() {
    let world = small_world(81);
    let observations = observations_of(&world);
    let report = pipeline_for(&world).run(&inputs_for(&world, &observations));
    for h in &report.hijacked {
        assert!(
            !h.attacker_ips.is_empty() || !h.attacker_ns.is_empty(),
            "{}: no attacker infrastructure recorded",
            h.domain
        );
        assert!(
            h.pdns_corroborated || h.ct_corroborated,
            "{}: no corroborating source",
            h.domain
        );
        // Detected attacker infrastructure must match ground truth for
        // true positives.
        if let Some(gt) = world
            .ground_truth
            .hijacked
            .iter()
            .find(|g| g.domain == h.domain)
        {
            if h.pdns_corroborated && !h.attacker_ips.is_empty() {
                assert!(
                    h.attacker_ips.contains(&gt.attacker_ip) || !h.attacker_ns.is_empty(),
                    "{}: detected infra {:?} does not include true {}",
                    h.domain,
                    h.attacker_ips,
                    gt.attacker_ip
                );
            }
        }
    }
}
