//! Pipeline-wide metrics and tracing.
//!
//! Operating the pipeline at production scale — checkpointed, resumed,
//! fault-injected, sharded across workers — needs more observability
//! than a wall clock. This module is the registry every side-channel
//! count and every stage timing funnels into:
//!
//! * **Counters** — monotone event counts (quarantine reasons, prune
//!   reasons, checkpoint loads/saves/invalidations, hijack verdicts).
//!   The `funnel.*` namespace mirrors [`FunnelStats`]
//!   field-for-field and is integration-test-asserted to reconcile
//!   exactly with the report.
//! * **Gauges** — point-in-time samples (per-stage wall time, items,
//!   worker utilization, RSS, allocation deltas).
//! * **Histograms** — fixed-bucket distributions (per-worker shard
//!   sizes, stage wall times). Buckets are cumulative-le on exposition,
//!   Prometheus-style.
//! * **Spans** — lightweight hierarchical timings. Opening a span
//!   records its depth; closing records its duration. With tracing
//!   enabled every open/close is narrated to stderr as it happens.
//!
//! ## Concurrency model: sharded, merge-on-collect
//!
//! The registry itself is single-threaded and lock-free. Parallel
//! workers never touch it: each worker accumulates into its own
//! [`MetricsShard`] (plain `BTreeMap`s, no atomics, no locks) and the
//! coordinating thread merges the shards after the crossbeam join —
//! exactly the merge-in-chunk-order discipline the pipeline already
//! uses for stage results (`DESIGN.md` §6). Merging is commutative for
//! counters and histograms; gauges are last-write-wins, so workers
//! record gauges under per-worker keys.
//!
//! ## Exposition
//!
//! A collected [`MetricsSnapshot`] serializes three ways:
//!
//! * JSON (`analyze --metrics-out metrics.json`) — struct fields in
//!   declaration order, map entries key-sorted: byte-deterministic
//!   schema for diffing and dashboards;
//! * Prometheus text exposition ([`MetricsSnapshot::to_prometheus`],
//!   `--metrics-format prom`) — counters, gauges, and cumulative
//!   `_bucket{le=...}` histogram series under the `retrodns_` prefix;
//! * a human trace narrative (`--trace`) — span open/close lines with
//!   durations, indented by depth, on stderr.
//!
//! The registry stays entirely out of [`Report`](crate::pipeline::Report)
//! serialization: report JSON remains byte-identical across worker
//! counts whether or not metrics are collected.
//!
//! [`FunnelStats`]: crate::pipeline::FunnelStats

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Histogram bucket upper bounds (milliseconds / items — callers pick
/// the unit): a coarse exponential ladder that keeps every histogram
/// fixed-width and merge-compatible. The implicit final bucket is +Inf.
pub const HISTOGRAM_BOUNDS: [f64; 10] = [
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
];

/// A fixed-bucket histogram (bounds from [`HISTOGRAM_BOUNDS`], plus an
/// implicit +Inf overflow bucket at the end of `counts`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket observation counts; `counts[i]` holds observations
    /// `<= HISTOGRAM_BOUNDS[i]` (exclusive of lower buckets), and the
    /// final element is the +Inf overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HISTOGRAM_BOUNDS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Merge another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A worker-local batch of metric updates. No locks, no atomics: one
/// shard belongs to exactly one thread, and the coordinator merges
/// shards after joining the workers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsShard {
    /// Monotone counters by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by dotted name.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms by dotted name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsShard {
    /// Add `n` to a counter.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Record per-worker wall time and item counts for one parallel
    /// stage, plus a `<stage>.utilization` gauge: total worker time over
    /// `workers × slowest worker` (1.0 = perfectly balanced chunks,
    /// lower = idle workers waiting on a straggler). A serial run is a
    /// one-element slice, so `<stage>.workers` doubles as a record of
    /// whether the adaptive fallback fired.
    pub fn record_worker_stats(&mut self, stage: &str, workers: &[(usize, std::time::Duration)]) {
        let mut max_ms = 0.0f64;
        let mut sum_ms = 0.0f64;
        for (i, (items, wall)) in workers.iter().enumerate() {
            let ms = wall.as_secs_f64() * 1e3;
            self.gauge(&format!("{stage}.worker.{i}.ms"), ms);
            self.gauge(&format!("{stage}.worker.{i}.items"), *items as f64);
            max_ms = max_ms.max(ms);
            sum_ms += ms;
        }
        self.gauge(&format!("{stage}.workers"), workers.len() as f64);
        if max_ms > 0.0 {
            self.gauge(
                &format!("{stage}.utilization"),
                sum_ms / (workers.len() as f64 * max_ms),
            );
        }
    }

    /// Fold another shard into this one. Counters and histograms add;
    /// gauges are last-write-wins in merge order (workers should use
    /// per-worker gauge keys to avoid clobbering).
    pub fn merge(&mut self, other: MetricsShard) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            self.gauges.insert(k, v);
        }
        for (k, h) in other.histograms {
            self.histograms.entry(k).or_default().merge(&h);
        }
    }
}

/// Handle returned by [`MetricsRegistry::span_open`]; pass it back to
/// [`MetricsRegistry::span_close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One completed (or still-open) span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Dotted span name (`pipeline.run`, `stage.map_build`, …).
    pub name: String,
    /// Nesting depth at open time (0 = root).
    pub depth: usize,
    /// Milliseconds since registry creation at open time.
    pub start_ms: f64,
    /// Span duration in milliseconds (0 until closed).
    pub wall_ms: f64,
}

/// The single-owner metrics registry: one per pipeline run.
///
/// Cheap to construct; every [`Pipeline::run`](crate::pipeline::Pipeline::run)
/// uses one internally even when the caller never looks at it (the
/// recording cost is a handful of `BTreeMap` updates per *stage*, not
/// per record — see the `<5 %` overhead budget in `DESIGN.md` §8).
#[derive(Debug)]
pub struct MetricsRegistry {
    root: MetricsShard,
    spans: Vec<SpanRecord>,
    open: Vec<SpanId>,
    epoch: Instant,
    trace: bool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A silent registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            root: MetricsShard::default(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: Instant::now(),
            trace: false,
        }
    }

    /// A registry that narrates span open/close events to stderr.
    pub fn with_trace(trace: bool) -> MetricsRegistry {
        MetricsRegistry {
            trace,
            ..MetricsRegistry::new()
        }
    }

    /// Is stderr span narration on?
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Add `n` to a counter.
    pub fn count(&mut self, name: &str, n: u64) {
        self.root.count(name, n);
    }

    /// Set a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.root.gauge(name, value);
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.root.observe(name, value);
    }

    /// Merge a worker shard (collected after a crossbeam join).
    pub fn merge(&mut self, shard: MetricsShard) {
        self.root.merge(shard);
    }

    /// Drain the accumulated counters/gauges/histograms, leaving the
    /// registry empty (spans stay). A long-running service uses this to
    /// fold per-ingest registries into one process-wide exposition
    /// registry without holding its lock across the ingest itself.
    pub fn take_shard(&mut self) -> MetricsShard {
        std::mem::take(&mut self.root)
    }

    /// Open a hierarchical span.
    pub fn span_open(&mut self, name: &str) -> SpanId {
        let depth = self.open.len();
        let id = SpanId(self.spans.len());
        self.spans.push(SpanRecord {
            name: name.to_string(),
            depth,
            start_ms: self.epoch.elapsed().as_secs_f64() * 1e3,
            wall_ms: 0.0,
        });
        self.open.push(id);
        if self.trace {
            eprintln!("{:indent$}-> {name}", "", indent = depth * 2);
        }
        id
    }

    /// Close a span, recording its duration (and narrating it under
    /// `--trace`). Closing out of order closes the given span anyway;
    /// any spans opened after it are popped with it.
    pub fn span_close(&mut self, id: SpanId) {
        let wall_ms = self.epoch.elapsed().as_secs_f64() * 1e3 - self.spans[id.0].start_ms;
        self.spans[id.0].wall_ms = wall_ms;
        if let Some(pos) = self.open.iter().position(|o| *o == id) {
            self.open.truncate(pos);
        }
        if self.trace {
            let s = &self.spans[id.0];
            eprintln!(
                "{:indent$}<- {} {:.2} ms",
                "",
                s.name,
                s.wall_ms,
                indent = s.depth * 2
            );
        }
    }

    /// Collect everything recorded so far into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.root.counters.clone(),
            gauges: self.root.gauges.clone(),
            histograms: self.root.histograms.clone(),
            spans: self.spans.clone(),
        }
    }
}

/// A point-in-time collection of every metric, ready for exposition.
/// Field order (and `BTreeMap` key order) is the stable JSON schema.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Completed spans in open order.
    pub spans: Vec<SpanRecord>,
}

/// Sanitize a dotted metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Pretty JSON exposition (deterministic key order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Prometheus text exposition (format version 0.0.4): counters,
    /// gauges, and cumulative-`le` histogram series, all under the
    /// `retrodns_` prefix.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE retrodns_{n} counter");
            let _ = writeln!(out, "retrodns_{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE retrodns_{n} gauge");
            let _ = writeln!(out, "retrodns_{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE retrodns_{n} histogram");
            let mut cumulative = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = match HISTOGRAM_BOUNDS.get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "retrodns_{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "retrodns_{n}_sum {}", h.sum);
            let _ = writeln!(out, "retrodns_{n}_count {}", h.count);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Memory sampling hooks
// ---------------------------------------------------------------------

/// Parse a `VmRSS:`/`VmHWM:` line (kB) out of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size right now, in kB (`None` off Linux).
pub fn rss_kb_now() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set size of the process, in kB (`None` off Linux).
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Binaries opt in:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: retrodns_core::metrics::CountingAlloc = CountingAlloc;
/// ```
///
/// Relaxed-ordering atomics on the allocation path: two uncontended
/// fetch-adds per `alloc`, nothing on `dealloc`, so the counter is a
/// lifetime *allocation* total (not live bytes) — the right shape for
/// per-stage allocation deltas.
pub struct CountingAlloc;

// SAFETY: delegates every allocation verbatim to `System`; the counter
// updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total bytes requested from the allocator since process start (0 when
/// [`CountingAlloc`] is not installed as the global allocator).
pub fn allocated_bytes_total() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Total allocation calls since process start (0 when [`CountingAlloc`]
/// is not installed).
pub fn allocation_count_total() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

/// Is allocation counting live (i.e. is [`CountingAlloc`] installed)?
pub fn alloc_counting_active() -> bool {
    allocation_count_total() > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_and_merge() {
        let mut reg = MetricsRegistry::new();
        reg.count("a.b", 2);
        reg.count("a.b", 3);
        reg.gauge("g", 1.5);

        let mut shard = MetricsShard::default();
        shard.count("a.b", 10);
        shard.count("c", 1);
        shard.gauge("g2", 7.0);
        reg.merge(shard);

        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("a.b"), Some(&15));
        assert_eq!(snap.counters.get("c"), Some(&1));
        assert_eq!(snap.gauges.get("g"), Some(&1.5));
        assert_eq!(snap.gauges.get("g2"), Some(&7.0));
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut a = Histogram::default();
        a.observe(0.5); // bucket 0 (<= 1)
        a.observe(7.0); // bucket 2 (<= 10)
        a.observe(1e9); // +Inf overflow
        let mut b = Histogram::default();
        b.observe(7.0);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.counts[0], 1);
        assert_eq!(a.counts[2], 2);
        assert_eq!(a.counts[HISTOGRAM_BOUNDS.len()], 1);
        assert!((a.sum - (0.5 + 7.0 + 1e9 + 7.0)).abs() < 1e-6);
    }

    #[test]
    fn spans_nest_and_close() {
        let mut reg = MetricsRegistry::new();
        let outer = reg.span_open("outer");
        let inner = reg.span_open("inner");
        reg.span_close(inner);
        reg.span_close(outer);
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].depth, 0);
        assert_eq!(snap.spans[1].name, "inner");
        assert_eq!(snap.spans[1].depth, 1);
        assert!(snap.spans[1].wall_ms <= snap.spans[0].wall_ms + 1e-3);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.count("z.last", 1);
            reg.count("a.first", 2);
            reg.gauge("mid", 3.0);
            reg.observe("h", 2.0);
            let mut snap = reg.snapshot();
            snap.spans.clear(); // timings vary run to run
            snap.to_json()
        };
        assert_eq!(build(), build());
        // Key-sorted: "a.first" serializes before "z.last".
        let json = build();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.count("funnel.shortlisted", 4);
        reg.gauge("stage.map_build.wall_ms", 12.5);
        reg.observe("map_build.shard_items", 3.0);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE retrodns_funnel_shortlisted counter"));
        assert!(prom.contains("retrodns_funnel_shortlisted 4"));
        assert!(prom.contains("# TYPE retrodns_stage_map_build_wall_ms gauge"));
        assert!(prom.contains("retrodns_map_build_shard_items_bucket{le=\"5\"} 1"));
        assert!(prom.contains("retrodns_map_build_shard_items_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("retrodns_map_build_shard_items_count 1"));
    }

    #[test]
    fn memory_hooks_report_on_linux() {
        if cfg!(target_os = "linux") {
            // Read the current RSS first: parallel tests can grow it
            // between two reads, but the peak read after it covers it.
            let now = rss_kb_now().unwrap_or(0);
            assert!(now > 0);
            assert!(peak_rss_kb().unwrap_or(0) >= now);
        }
    }
}
