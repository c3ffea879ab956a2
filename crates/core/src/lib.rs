//! # retrodns-core
//!
//! The paper's contribution: a five-stage retroactive forensic pipeline
//! that identifies targeted DNS infrastructure hijacks from longitudinal
//! third-party observations.
//!
//! ```text
//!  scan observations ─► [1] deployment maps  (map)
//!                    ─► [2] pattern classes  (classify)   S/X/T/Noisy
//!                    ─► [3] shortlisting     (shortlist)  heuristics of §4.3
//!                    ─► [4] inspection       (inspect)    pDNS + CT verdicts
//!                    ─► [5] pivot            (pivot)      P-IP / P-NS expansion
//!                                  │
//!                                  ▼
//!                              report / score / render
//! ```
//!
//! [`pipeline::Pipeline`] wires the stages together; each stage is also
//! usable on its own (the experiments interrogate them separately).
//! [`baseline`] holds the naive third-party detectors the evaluation
//! compares against, [`observability`] computes the §5.3 statistics, and
//! [`reactive`] implements the near-real-time intervention the paper
//! proposes as future work (§7.1): reactive DNS measurement triggered by
//! certificate issuance.

#![warn(missing_docs)]
pub mod baseline;
pub mod checkpoint;
pub mod classify;
pub mod durable;
pub mod incremental;
pub mod inspect;
pub mod lock;
pub mod map;
pub mod metrics;
pub mod observability;
pub mod pipeline;
pub mod pivot;
pub mod reactive;
pub mod render;
pub mod report;
pub mod score;
pub mod shortlist;
pub mod sources;

pub use checkpoint::CheckpointStore;
pub use classify::{Pattern, StableKind, TransientKind, TransitionKind};
pub use incremental::{week_batches, IncrementalAnalyzer, StreamStart, WeekDelta, WeeklyStream};
pub use inspect::{DegradedVerdict, DetectedHijack, DetectedTarget, DetectionType, InspectOutcome};
pub use lock::{DirLock, LockError};
pub use map::{CertSighting, CountrySighting, Deployment, DeploymentMap, MapBuilder};
pub use metrics::{CountingAlloc, MetricsRegistry, MetricsShard, MetricsSnapshot};
pub use pipeline::{AnalystInputs, InspectionResults, Pipeline, PipelineConfig, Report};
pub use score::{score_detection, Score};
pub use sources::{ResilientSource, Source, SourceGuard, SourcePolicy};
