//! # retrodns-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each returning its rendered output so both the
//! `experiments` binary and the test suite can exercise it. See
//! `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

#![warn(missing_docs)]
pub mod archetypes;
pub mod bundle;
pub mod experiments;
pub mod faults;
pub mod perf;
pub mod serve_load;

pub use archetypes::{
    run_archetype_campaign, ArchetypeCell, ArchetypeMatrix, ARCHETYPES, EVASION_ARCHETYPES,
    GATED_FULL_RECALL,
};
pub use bundle::{Bundle, Scale};
pub use faults::{run_fault_campaign, FaultCell, FaultMatrix};
pub use perf::{bench_mem, git_rev, MemPoint, PipelineBenchReport, MEM_SCANS_PER_DOMAIN};
pub use serve_load::{
    run_serve_harness, serve_child_main, ServeHarness, ServePoint, SERVE_CHAOS_WORKERS, SERVE_SEED,
};
