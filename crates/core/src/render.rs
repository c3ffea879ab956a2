//! ASCII rendering of deployment maps (Figure 2) and pattern galleries
//! (Figures 3–5).
//!
//! Each deployment renders as one row: a timeline of scan slots where `█`
//! marks a scan the deployment appeared in and `·` a scan it missed,
//! annotated with ASN, countries and certificates — the same information
//! the paper's figures convey.

use crate::classify::Pattern;
use crate::map::DeploymentMap;
use retrodns_types::Day;
use std::fmt::Write;

/// Render one deployment map as an ASCII timeline.
pub fn render_map(map: &DeploymentMap, pattern: Option<&Pattern>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Deployment map: {}  period {} [{} .. {})  visibility {:.0}%",
        map.domain,
        map.period.id,
        map.period.start,
        map.period.end,
        map.visibility() * 100.0
    );
    if let Some(p) = pattern {
        let _ = writeln!(out, "Pattern: {} ({})", p.label(), p.category());
    }
    let interval = map.scan_interval();
    let slots: Vec<Day> = (0..map.expected_scans)
        .map(|i| map.period.start + (i as u32) * interval)
        .collect();
    for (i, d) in map.deployments.iter().enumerate() {
        let mut lane = String::with_capacity(slots.len());
        for slot in &slots {
            let hit = d
                .dates
                .iter()
                .any(|date| *date >= *slot && *date < *slot + interval);
            lane.push(if hit { '#' } else { '.' });
        }
        let countries: Vec<String> = d.country_codes().map(|c| c.to_string()).collect();
        let certs: Vec<String> = d.cert_ids().map(|c| c.0.to_string()).collect();
        let _ = writeln!(
            out,
            "  d{i} |{lane}| {}  [{}]  certs[{}]  {} scans, {} days",
            d.asn,
            countries.join(","),
            certs.join(","),
            d.scan_count(),
            d.span_days()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifyConfig};
    use crate::map::MapBuilder;
    use retrodns_sim::archetypes::transient_archetypes;
    use retrodns_types::StudyWindow;

    #[test]
    fn render_contains_lanes_and_labels() {
        let arch = &transient_archetypes()[0]; // T1
        let maps = MapBuilder::new(StudyWindow::default()).build(&arch.observations);
        let pattern = classify(&maps[0], &ClassifyConfig::default());
        let s = render_map(&maps[0], Some(&pattern));
        assert!(s.contains("example.gov.kg"));
        assert!(s.contains("Pattern: T1"));
        assert!(s.contains("AS100"));
        assert!(s.contains("AS200"));
        // Two deployments → two lanes.
        assert_eq!(s.lines().filter(|l| l.contains('|')).count(), 2);
        // The stable lane is mostly filled, the transient lane mostly not.
        let lanes: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        let fill = |l: &str| l.chars().filter(|c| *c == '#').count();
        assert!(fill(lanes[0]) > 20);
        assert_eq!(fill(lanes[1]), 1);
    }

    #[test]
    fn render_without_pattern_omits_pattern_line() {
        let arch = &transient_archetypes()[0];
        let maps = MapBuilder::new(StudyWindow::default()).build(&arch.observations);
        let s = render_map(&maps[0], None);
        assert!(!s.contains("Pattern:"));
    }
}
