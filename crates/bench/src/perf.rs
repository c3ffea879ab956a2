//! The `BENCH_pipeline.json` record of the `experiments` harness's
//! deterministic gates: the columnar store's memory sweep
//! (`experiments mem`) and the serve harness rows (`experiments serve`).
//!
//! Nothing here times the pipeline; `perfbench/` is the one harness that
//! does, end to end and per layer.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One cell of the memory-trajectory sweep (`experiments mem`): the
/// columnar store built by streaming a synthetic corpus of the given
/// size, measured against the exact bytes an equivalent
/// `Vec<DomainObservation>` would hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemPoint {
    /// Observations streamed into the store.
    pub observations: usize,
    /// Distinct synthetic domains in the stream.
    pub domains: usize,
    /// In-memory bytes held by the columnar store
    /// ([`ObservationStore::footprint_bytes`][fb]).
    ///
    /// [fb]: retrodns_store::ObservationStore::footprint_bytes
    pub store_bytes: usize,
    /// Exact bytes an exactly-sized row vector would hold
    /// ([`retrodns_store::rows_footprint_bytes`]).
    pub row_bytes: usize,
    /// `store_bytes / observations` — the regression-gated figure.
    pub bytes_per_observation: f64,
    /// `row_bytes / observations`, the baseline unit cost.
    pub row_bytes_per_observation: f64,
    /// `row_bytes / store_bytes` — how many times smaller the columnar
    /// form is (gated at ≥ 3× at the million-observation cell).
    pub reduction: f64,
    /// Cumulative allocator bytes requested while streaming the corpus
    /// into the store — allocation *churn*, not live bytes (0 when
    /// [`CountingAlloc`](retrodns_core::metrics::CountingAlloc) is not
    /// installed).
    pub build_alloc_bytes: u64,
    /// Peak resident set size after the build, bytes (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Chunks the store sealed (`⌈observations / CHUNK_ROWS⌉`).
    pub chunks: usize,
    /// Git revision the sweep ran from.
    #[serde(default)]
    pub git_rev: String,
}

/// The report persisted as `BENCH_pipeline.json`: each `experiments`
/// id that writes it replaces its own section and keeps the other.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineBenchReport {
    /// Git revision (`git rev-parse --short HEAD`) of the latest run
    /// that wrote the file.
    #[serde(default)]
    pub git_rev: String,
    /// The memory-trajectory sweep, regenerated by `experiments mem`
    /// (empty when it has not run).
    #[serde(default)]
    pub memory: Vec<MemPoint>,
    /// The serve harness rows (chaos trials + load test), regenerated by
    /// `experiments serve` (empty when it has not run).
    #[serde(default)]
    pub serve: Vec<crate::serve_load::ServePoint>,
}

impl PipelineBenchReport {
    /// Human-readable table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.memory.is_empty() {
            let _ = writeln!(
                out,
                "\n== Memory trajectory (columnar store vs row vector) =="
            );
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>14} {:>14} {:>8} {:>8} {:>8} {:>14} {:>12}",
                "observations",
                "domains",
                "store B",
                "rows B",
                "B/obs",
                "rows/obs",
                "shrink",
                "build alloc B",
                "peak RSS MB"
            );
            for m in &self.memory {
                let _ = writeln!(
                    out,
                    "{:<12} {:>9} {:>14} {:>14} {:>8.1} {:>8.1} {:>7.2}x {:>14} {:>12.1}",
                    m.observations,
                    m.domains,
                    m.store_bytes,
                    m.row_bytes,
                    m.bytes_per_observation,
                    m.row_bytes_per_observation,
                    m.reduction,
                    m.build_alloc_bytes,
                    m.peak_rss_bytes as f64 / (1024.0 * 1024.0)
                );
            }
        }
        if !self.serve.is_empty() {
            let _ = writeln!(out, "\n== Serve harness (chaos trials + query load) ==");
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>7} {:>6} {:>8} {:>10} {:>8} {:>9} {:>10} {:>10} {:>10}",
                "scenario",
                "workers",
                "weeks",
                "kills",
                "resumed",
                "identical",
                "clients",
                "queries",
                "qps",
                "p50 ms",
                "p99 ms"
            );
            for s in &self.serve {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>7} {:>6} {:>8} {:>10} {:>8} {:>9} {:>10.0} {:>10.2} {:>10.2}",
                    s.scenario,
                    s.workers,
                    s.weeks,
                    s.kills,
                    s.resumed_weeks,
                    s.byte_identical,
                    s.clients,
                    s.queries,
                    s.qps,
                    s.p50_ms,
                    s.p99_ms
                );
            }
        }
        out
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a git
/// checkout (e.g. a source tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Scans per synthetic domain in the memory sweep: thirty-two weekly
/// observations per domain is the multi-year retention shape the store
/// exists for — dictionaries amortize across repeat sightings of the
/// same domain, which an eight-scan stream would understate.
pub const MEM_SCANS_PER_DOMAIN: usize = 32;

/// Stream seed of the memory sweep (fixed: cells are comparable across
/// runs and machines).
pub const MEM_SEED: u64 = 0x3E3E;

/// Sweep the columnar store's memory footprint across observation
/// counts.
///
/// Each cell lazily streams a synthetic corpus
/// ([`retrodns_sim::synthetic_stream`]) straight into a
/// [`StoreBuilder`](retrodns_store::StoreBuilder) — the generator never
/// materializes, so peak RSS measures the *store* — and compares the
/// sealed store's footprint against the exact bytes an equivalent row
/// vector would hold (computed row-by-row during the same pass, also
/// without materializing it).
pub fn bench_mem(observation_targets: &[usize]) -> Vec<MemPoint> {
    let rev = git_rev();
    observation_targets
        .iter()
        .map(|&target| {
            let domains = (target / MEM_SCANS_PER_DOMAIN).max(1);
            let stream = retrodns_sim::synthetic_stream(domains, MEM_SCANS_PER_DOMAIN, MEM_SEED);
            let expected = stream.len();
            let alloc_before = retrodns_core::metrics::allocated_bytes_total();
            let mut builder = retrodns_store::StoreBuilder::with_capacity(expected, domains);
            let mut row_bytes = 0usize;
            for o in stream {
                row_bytes += retrodns_store::rows_footprint_bytes(std::iter::once(&o));
                builder
                    .push(&o)
                    .expect("synthetic dates fit the default-epoch day range");
            }
            let store = builder.finish();
            let build_alloc_bytes =
                retrodns_core::metrics::allocated_bytes_total().saturating_sub(alloc_before);
            let observations = store.len();
            let store_bytes = store.footprint_bytes();
            MemPoint {
                observations,
                domains,
                store_bytes,
                row_bytes,
                bytes_per_observation: store_bytes as f64 / observations.max(1) as f64,
                row_bytes_per_observation: row_bytes as f64 / observations.max(1) as f64,
                reduction: row_bytes as f64 / store_bytes.max(1) as f64,
                build_alloc_bytes,
                peak_rss_bytes: retrodns_core::metrics::peak_rss_kb().unwrap_or(0) * 1024,
                chunks: store.n_chunks(),
                git_rev: rev.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal serve row, as the load trial records it.
    fn load_row() -> crate::serve_load::ServePoint {
        serde_json::from_str(
            r#"{"scenario": "load", "workers": 1, "weeks": 4, "kills": 0,
                "resumed_weeks": 0, "byte_identical": true, "qps": 120.0}"#,
        )
        .expect("serve row loads")
    }

    /// The report holds exactly its two sections plus the revision,
    /// round-trips through JSON, and prints a table per non-empty section.
    #[test]
    fn bench_report_shape_and_json() {
        let report = PipelineBenchReport {
            git_rev: git_rev(),
            memory: bench_mem(&[10_000]),
            serve: vec![load_row()],
        };
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("report is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["git_rev", "memory", "serve"]);
        let back: PipelineBenchReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.memory.len(), 1);
        assert_eq!(back.serve[0].qps, 120.0);
        assert!(!back.git_rev.is_empty());

        let summary = report.summary();
        assert!(summary.contains("Memory trajectory"), "{summary}");
        assert!(summary.contains("Serve harness"), "{summary}");
        let empty = PipelineBenchReport::default().summary();
        assert!(empty.is_empty(), "{empty}");
    }

    /// A file written before the pipeline timings moved to perfbench
    /// still loads: `mem` and `serve` each rewrite the file keeping the
    /// other's section, and the retired timing sections are dropped.
    #[test]
    fn legacy_report_json_still_deserializes() {
        let legacy = r#"{
            "workers": 2, "domains": 10, "observations": 100, "reps": 1,
            "stages": [{"stage": "end_to_end", "items": 100, "serial_ms": 1.0,
                        "parallel_ms": 1.0, "serial_ops_per_sec": 1.0,
                        "parallel_ops_per_sec": 1.0, "speedup": 1.0}],
            "metered_ms": 1.0, "metrics_overhead_pct": 0.0,
            "algorithm_speedup": 4.0, "git_rev": "abc1234",
            "matrix": [], "stream": [],
            "trajectory": [{
                "workers": 4, "observations": 100,
                "e2e_serial_ms": 1.0, "e2e_parallel_ms": 1.0,
                "metrics_overhead_pct": 0.0
            }],
            "serve": [{"scenario": "load", "workers": 1, "weeks": 4, "kills": 0,
                       "resumed_weeks": 0, "byte_identical": true}]
        }"#;
        let back: PipelineBenchReport = serde_json::from_str(legacy).expect("legacy loads");
        assert_eq!(back.git_rev, "abc1234");
        assert!(back.memory.is_empty());
        assert_eq!(back.serve.len(), 1);
        assert_eq!(back.serve[0].scenario, "load");
        let json = serde_json::to_string(&back).expect("serializes");
        assert!(
            !json.contains("trajectory") && !json.contains("stages"),
            "{json}"
        );
    }

    /// The memory sweep reports consistent unit costs and a columnar
    /// footprint well under the row baseline even at small scale.
    #[test]
    fn mem_sweep_shapes_and_shrinks() {
        let points = bench_mem(&[10_000, 50_000]);
        assert_eq!(points.len(), 2);
        for p in &points {
            // Streams append transient/unrouted extras past the target.
            assert!(p.observations >= p.domains * MEM_SCANS_PER_DOMAIN);
            assert!(p.store_bytes > 0 && p.row_bytes > p.store_bytes);
            assert!(
                (p.bytes_per_observation - p.store_bytes as f64 / p.observations as f64).abs()
                    < 1e-9
            );
            assert!(
                p.reduction >= 3.0,
                "columnar store only {:.2}x smaller than rows at {} observations",
                p.reduction,
                p.observations
            );
            assert!(p.chunks >= 1);
        }
        // Row baseline must match the exact helper over a materialized
        // vector of the same stream.
        let rows =
            retrodns_sim::synthetic_observations(points[0].domains, MEM_SCANS_PER_DOMAIN, MEM_SEED);
        assert_eq!(
            points[0].row_bytes,
            retrodns_store::rows_footprint_bytes(&rows)
        );
    }
}
