//! Allocation budget of the map build. Each map allocates its domain
//! name, `dates_present` and deployment vector; each deployment at most
//! one exact-size vector per non-empty column (dates, ips, certificates,
//! countries). Allocation calls are counted by installing `CountingAlloc`
//! as this test binary's global allocator, which is why the test sits
//! alone in its own file: another test running beside it would add its
//! allocations to the count.

use retrodns_core::map::MapBuilder;
use retrodns_core::metrics::{allocation_count_total, CountingAlloc};
use retrodns_sim::{SimConfig, World};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations that do not scale with the output: the arena's scratch
/// vectors growing to their high-water marks, the output vector's
/// doublings and the per-shard statistics.
const FIXED_ALLOCATIONS: usize = 256;

#[test]
fn map_build_allocates_per_column_not_per_element() {
    let world = World::build(SimConfig {
        n_domains: 300,
        ..SimConfig::small(0xA110C)
    });
    let observations = world.observations(&world.scan());
    let builder = MapBuilder::new(world.config.window.clone());

    let before = allocation_count_total();
    let (maps, _) = builder.build_sharded_stats(&observations, 1);
    let calls = (allocation_count_total() - before) as usize;

    let deployments: usize = maps.iter().map(|m| m.deployments.len()).sum();
    assert!(
        deployments > 1_000,
        "fixture too small: {deployments} deployments"
    );
    let budget = 4 * deployments + 3 * maps.len() + FIXED_ALLOCATIONS;
    assert!(
        calls <= budget,
        "{calls} allocation calls for {} maps and {deployments} deployments \
         (budget {budget})",
        maps.len()
    );
}
