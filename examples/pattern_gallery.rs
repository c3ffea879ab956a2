//! Render every deployment-map pattern of Figures 3–5 and show the
//! classifier's verdict on each — the at-a-glance catalog of what
//! "stable", "transition" and "transient" look like in scan data.
//!
//! ```text
//! cargo run --example pattern_gallery
//! ```

use retrodns::core::classify::{classify, ClassifyConfig};
use retrodns::core::map::MapBuilder;
use retrodns::core::render::render_map;
use retrodns::sim::archetypes::all_archetypes;
use retrodns::types::StudyWindow;

fn main() {
    let builder = MapBuilder::new(StudyWindow::default());
    let cfg = ClassifyConfig::default();
    for arch in all_archetypes() {
        println!("================================================================");
        println!("{}: {}", arch.label, arch.description);
        let (maps, _) = builder.build_sharded_stats(&arch.observations, 1);
        let pattern = classify(&maps[0], &cfg);
        print!("{}", render_map(&maps[0], Some(&pattern)));
        println!(
            "expected {}, classified {} — {}",
            arch.expected,
            pattern.label(),
            if pattern.label() == arch.expected {
                "correct"
            } else {
                "MISMATCH"
            }
        );
        println!();
    }
    println!("Legend: each lane is one deployment; # marks scans where the");
    println!("deployment answered. T1/T2 lanes are the attack signatures the");
    println!("pipeline shortlists; everything else is pruned as benign.");
}
