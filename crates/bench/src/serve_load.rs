//! The `experiments serve` harness: chaos-tested crash tolerance plus a
//! concurrent-query load test against `retrodns-serve`.
//!
//! Two gates, both recorded as [`ServePoint`]s in `BENCH_pipeline.json`:
//!
//! * **Chaos** — for each worker count the harness spawns a real server
//!   process (the hidden `experiments __serve` child mode, which calls
//!   the same [`retrodns_serve::run`] the binary does), submits one
//!   analysis job, and SIGKILL-equivalently `abort()`s the server at
//!   every [`KillPoint`] of a deterministic
//!   [`ChaosPlan`], restarting it after each crash. A final unkilled
//!   incarnation finishes the job; its archived report must be
//!   **byte-identical** to a golden computed in-process by streaming the
//!   same weeks through [`IncrementalAnalyzer`] directly.
//! * **Load** — an in-process server runs a deliberately paced analysis
//!   while client threads hammer the query surface; the point records
//!   sustained queries/sec and p50/p99 latency, and `--min-serve-qps`
//!   fails a server that stops answering. It is a floor, not a
//!   benchmark: `perfbench/`'s `serve` workload times the request path.
//!
//! Everything is deterministic but the clock: the world, the kill
//! schedule, and the week slicing are all seed-fixed, so a failing chaos
//! trial replays exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use retrodns_core::pipeline::PipelineConfig;
use retrodns_core::IncrementalAnalyzer;
use retrodns_scan::DomainObservation;
use retrodns_serve::client;
use retrodns_serve::{JobSpec, JobState, JobStatus, ServeConfig, ServerHandle, SupervisorConfig};
use retrodns_sim::{ChaosPlan, KillPoint, SimConfig, World};
use retrodns_types::Day;
use serde::{Deserialize, Serialize};

/// World seed of the serve harness (fixed: points are comparable across
/// runs and machines).
pub const SERVE_SEED: u64 = 0x5E4E;

/// Analysis worker counts the chaos gate sweeps — byte-identity must
/// hold at every parallelism level, not just serially.
pub const SERVE_CHAOS_WORKERS: [usize; 3] = [1, 2, 8];

/// Most weeks a single chaos incarnation ingests before its kill. Kept
/// small so five kills fit comfortably inside the small world's stream.
const KILL_MAX_WEEKS: u32 = 3;

/// One row of the serve harness: a chaos trial (per worker count) or the
/// load test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServePoint {
    /// `chaos-w<N>` or `load`.
    pub scenario: String,
    /// Analysis worker threads of the job.
    pub workers: usize,
    /// Weeks the job ingested end to end.
    pub weeks: u32,
    /// SIGKILL-equivalent aborts delivered (0 for the load row).
    pub kills: usize,
    /// Weeks the final incarnation resumed from checkpoint — non-zero
    /// proves recovery actually happened.
    pub resumed_weeks: u32,
    /// Final report byte-identical to the uninterrupted golden (always
    /// true for the load row, which is not a crash trial).
    pub byte_identical: bool,
    /// Concurrent client threads (load row).
    #[serde(default)]
    pub clients: usize,
    /// Queries the clients completed (load row).
    #[serde(default)]
    pub queries: usize,
    /// Transport failures or 5xx responses observed (load row).
    #[serde(default)]
    pub errors: usize,
    /// Sustained queries per second across all clients (load row).
    #[serde(default)]
    pub qps: f64,
    /// Median query latency, milliseconds (load row).
    #[serde(default)]
    pub p50_ms: f64,
    /// 99th-percentile query latency, milliseconds (load row).
    #[serde(default)]
    pub p99_ms: f64,
    /// Git revision the harness ran from.
    #[serde(default)]
    pub git_rev: String,
}

/// Harness tunables (`experiments serve` flags).
#[derive(Debug, Clone)]
pub struct ServeHarness {
    /// Scheduled kills per chaos trial (≥ 5 is the acceptance floor).
    pub kills: usize,
    /// Concurrent client threads of the load test.
    pub clients: usize,
    /// World / kill-schedule seed.
    pub seed: u64,
}

impl Default for ServeHarness {
    fn default() -> Self {
        ServeHarness {
            kills: 5,
            clients: 4,
            seed: SERVE_SEED,
        }
    }
}

/// Serialize `value` as compact JSON into `dir/name`.
fn save<T: Serialize>(dir: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = dir.join(name);
    let json = serde_json::to_vec(value).map_err(|e| format!("{name}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Build the small deterministic world once and write it in the
/// `retrodns simulate` data-dir layout the server ingests.
fn write_data_dir(dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let world = World::build(SimConfig::small(seed));
    let dataset = world.scan();
    save(dir, "scans.json", &dataset)?;
    save(dir, "certs.json", &world.certs)?;
    save(dir, "asdb.json", &world.geo.asdb)?;
    save(dir, "pdns.json", &world.pdns)?;
    save(dir, "crtsh.json", &world.crtsh)?;
    save(dir, "dnssec.json", &world.dnssec)?;
    save(dir, "trust.json", &world.trust)?;
    Ok(())
}

/// Per-scan-date observation batches, oldest first — the same slicing
/// the server (and `analyze --stream`) uses.
fn week_slices(observations: &[DomainObservation]) -> Vec<Vec<DomainObservation>> {
    let mut by_date: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
    for o in observations {
        by_date.entry(o.date).or_default().push(o.clone());
    }
    by_date.into_values().collect()
}

/// The uninterrupted oracle: stream the first `max_weeks` of the data
/// dir through the analyzer in-process and render the report exactly as
/// the server archives it. An independent path to the same bytes — the
/// chaos gate then proves crash/resume changes nothing.
fn golden_report(data_dir: &Path, workers: usize, max_weeks: u32) -> Result<String, String> {
    let data = retrodns_serve::JobData::load(data_dir)?;
    let observations = data.observations();
    let inputs = data.inputs(&observations);
    let config = PipelineConfig {
        workers: workers.max(1),
        ..PipelineConfig::default()
    };
    let mut analyzer = IncrementalAnalyzer::new(config);
    for batch in week_slices(&observations).iter().take(max_weeks as usize) {
        analyzer.ingest_week(batch, &inputs);
    }
    serde_json::to_string_pretty(analyzer.report()).map_err(|e| e.to_string())
}

/// Spawn one server incarnation (the hidden `__serve` child mode of the
/// running `experiments` binary) and wait until it publishes its port.
fn spawn_server(
    root: &Path,
    port_file: &Path,
    chaos: Option<&KillPoint>,
) -> Result<(Child, String), String> {
    let _ = std::fs::remove_file(port_file);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("__serve")
        .arg("--checkpoint-root")
        .arg(root)
        .arg("--port-file")
        .arg(port_file)
        .arg("--job-workers")
        .arg("1")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(kill) = chaos {
        cmd.arg("--chaos-abort-weeks")
            .arg(kill.after_weeks.to_string())
            .arg("--chaos-abort-phase")
            .arg(if kill.before_checkpoint {
                "before"
            } else {
                "after"
            });
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn __serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return Ok((child, addr));
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("__serve exited before listening: {status}"));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err("timed out waiting for __serve port file".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait for a child to exit, killing it on timeout.
fn wait_exit(child: &mut Child, timeout: Duration) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("timed out waiting for __serve to exit".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Poll a job until it reaches a terminal state.
fn wait_terminal(addr: &str, id: &str, timeout: Duration) -> Result<JobStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let status: JobStatus = client::get(addr, &format!("/jobs/{id}"))?.json()?;
        if status.state.terminal() {
            return Ok(status);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "job {id} still {:?} after {timeout:?}",
                status.state
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One chaos trial: kill/restart the server through the whole plan, then
/// let a final incarnation finish and compare bytes against the golden.
fn chaos_trial(
    tmp: &Path,
    data_dir: &Path,
    workers: usize,
    kills: usize,
    seed: u64,
) -> Result<ServePoint, String> {
    let plan = ChaosPlan::generate(seed ^ workers as u64, kills, 1, KILL_MAX_WEEKS);
    let weeks = plan.min_job_weeks();
    let root = tmp.join(format!("chaos-w{workers}"));
    let port_file = tmp.join(format!("port-w{workers}"));
    let mut delivered = 0usize;

    for (i, kill) in plan.kills.iter().enumerate() {
        let (mut child, addr) = spawn_server(&root, &port_file, Some(kill))?;
        if i == 0 {
            let spec = JobSpec {
                id: "chaos".into(),
                data_dir: data_dir.display().to_string(),
                workers,
                dnssec_signal: false,
                max_weeks: weeks,
                week_delay_ms: 0,
            };
            let body = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            let resp = client::post(&addr, "/jobs", &body)?;
            if resp.status != 202 {
                let _ = child.kill();
                return Err(format!("submit failed: {} {}", resp.status, resp.text()));
            }
        }
        // The scheduled abort is the only way this incarnation ends.
        let status = wait_exit(&mut child, Duration::from_secs(180))?;
        if status.success() {
            return Err(format!(
                "incarnation {i} exited cleanly instead of dying at its kill point {kill:?}"
            ));
        }
        delivered += 1;
    }

    // Final incarnation: no chaos — recover, resume, finish.
    let (mut child, addr) = spawn_server(&root, &port_file, None)?;
    let status = wait_terminal(&addr, "chaos", Duration::from_secs(180))?;
    if !matches!(status.state, JobState::Done | JobState::Degraded) {
        let _ = child.kill();
        return Err(format!(
            "chaos job ended {:?}: {}",
            status.state, status.error
        ));
    }
    let report = client::get(&addr, "/jobs/chaos/report")?;
    if report.status != 200 {
        let _ = child.kill();
        return Err(format!("report fetch failed: {}", report.status));
    }
    let _ = client::post(&addr, "/shutdown", "");
    wait_exit(&mut child, Duration::from_secs(60))?;

    let golden = golden_report(data_dir, workers, weeks)?;
    Ok(ServePoint {
        scenario: format!("chaos-w{workers}"),
        workers,
        weeks: status.weeks_done,
        kills: delivered,
        resumed_weeks: status.resumed_weeks,
        byte_identical: report.body == golden.as_bytes(),
        clients: 0,
        queries: 0,
        errors: 0,
        qps: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
        git_rev: crate::git_rev(),
    })
}

/// `p` in `[0, 1]` over an ascending-sorted sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// How long the load clients hammer the query surface.
const LOAD_DURATION: Duration = Duration::from_millis(1500);

/// The load test: an in-process server runs a paced analysis while
/// client threads sweep the query surface for a fixed window.
fn load_trial(tmp: &Path, data_dir: &Path, clients: usize) -> Result<ServePoint, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: 4,
        supervisor: SupervisorConfig {
            checkpoint_root: tmp.join("load"),
            job_workers: 1,
            ..SupervisorConfig::default()
        },
        port_file: None,
    };
    let handle = ServerHandle::start(cfg)?;
    let addr = handle.addr().to_string();

    // Pace the analysis so it is still observably active for the whole
    // measurement window; pacing never changes the report.
    let spec = JobSpec {
        id: "load".into(),
        data_dir: data_dir.display().to_string(),
        workers: 2,
        dnssec_signal: false,
        max_weeks: 0,
        week_delay_ms: 20,
    };
    let body = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
    let resp = client::post(&addr, "/jobs", &body)?;
    if resp.status != 202 {
        return Err(format!(
            "load submit failed: {} {}",
            resp.status,
            resp.text()
        ));
    }
    // Wait until the analysis is actually running so every measured
    // query lands during active ingestion.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status: JobStatus = client::get(&addr, "/jobs/load")?.json()?;
        if status.state == JobState::Running && status.weeks_done > 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("load job never started: {:?}", status.state));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    const PATHS: [&str; 6] = [
        "/healthz",
        "/readyz",
        "/jobs",
        "/jobs/load",
        "/jobs/load/funnel",
        "/metrics",
    ];
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for c in 0..clients.max(1) {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let errors = Arc::clone(&errors);
        handles.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::new();
            let started = Instant::now();
            let mut i = c; // stagger the rotation across clients
            while !stop.load(Ordering::Relaxed) {
                let path = PATHS[i % PATHS.len()];
                i += 1;
                let t = Instant::now();
                match client::get(&addr, path) {
                    Ok(resp) if resp.status < 500 => {
                        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3)
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            (latencies_ms, started.elapsed())
        }));
    }
    std::thread::sleep(LOAD_DURATION);
    stop.store(true, Ordering::Relaxed);
    let mut all_ms = Vec::new();
    let mut wall = Duration::ZERO;
    for h in handles {
        let (lat, elapsed) = h.join().map_err(|_| "load client panicked")?;
        all_ms.extend(lat);
        wall = wall.max(elapsed);
    }

    let status: JobStatus = client::get(&addr, "/jobs/load")?.json()?;
    let _ = client::post(&addr, "/jobs/load/cancel", "");
    handle.shutdown();

    all_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let queries = all_ms.len();
    Ok(ServePoint {
        scenario: "load".into(),
        workers: 2,
        weeks: status.weeks_done,
        kills: 0,
        resumed_weeks: 0,
        byte_identical: true,
        clients: clients.max(1),
        queries,
        errors: errors.load(Ordering::Relaxed),
        qps: queries as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: percentile(&all_ms, 0.50),
        p99_ms: percentile(&all_ms, 0.99),
        git_rev: crate::git_rev(),
    })
}

/// Run the whole harness: one chaos trial per worker count, then the
/// load test. The scratch directory (world data + checkpoint roots) is
/// removed on success and kept on failure for post-mortems.
pub fn run_serve_harness(h: &ServeHarness) -> Result<Vec<ServePoint>, String> {
    let tmp = std::env::temp_dir().join(format!("retrodns-serve-bench-{}", std::process::id()));
    let data_dir = tmp.join("data");
    write_data_dir(&data_dir, h.seed)?;
    let mut points = Vec::new();
    for &workers in &SERVE_CHAOS_WORKERS {
        eprintln!("chaos trial: {} kills at {workers} workers...", h.kills);
        points.push(chaos_trial(&tmp, &data_dir, workers, h.kills, h.seed)?);
    }
    eprintln!("load test: {} clients for {LOAD_DURATION:?}...", h.clients);
    points.push(load_trial(&tmp, &data_dir, h.clients)?);
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(points)
}

/// The hidden `experiments __serve` child mode: parse the server flags
/// the harness passes and run [`retrodns_serve::run`] — the same entry
/// point the real `retrodns-serve` binary uses.
pub fn serve_child_main(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut chaos_weeks: u64 = 0;
    let mut chaos_before = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} expects a value"))
        };
        match arg.as_str() {
            "--checkpoint-root" => cfg.supervisor.checkpoint_root = PathBuf::from(value()?),
            "--port-file" => cfg.port_file = Some(PathBuf::from(value()?)),
            "--job-workers" => {
                cfg.supervisor.job_workers = value()?
                    .parse()
                    .map_err(|e| format!("--job-workers: {e}"))?
            }
            "--http-workers" => {
                cfg.http_workers = value()?
                    .parse()
                    .map_err(|e| format!("--http-workers: {e}"))?
            }
            "--chaos-abort-weeks" => {
                chaos_weeks = value()?
                    .parse()
                    .map_err(|e| format!("--chaos-abort-weeks: {e}"))?
            }
            "--chaos-abort-phase" => {
                chaos_before = match value()?.as_str() {
                    "before" => true,
                    "after" => false,
                    other => return Err(format!("--chaos-abort-phase: {other:?}")),
                }
            }
            other => return Err(format!("__serve: unknown argument {other:?}")),
        }
    }
    if chaos_weeks > 0 {
        cfg.supervisor.chaos = Some(retrodns_serve::ChaosAbort {
            after_weeks: chaos_weeks,
            before_checkpoint: chaos_before,
        });
    }
    retrodns_serve::run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_ranks() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!((percentile(&sorted, 0.5) - 51.0).abs() <= 1.0);
        assert!((percentile(&sorted, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn serve_point_round_trips_and_defaults() {
        let p = ServePoint {
            scenario: "chaos-w2".into(),
            workers: 2,
            weeks: 12,
            kills: 5,
            resumed_weeks: 9,
            byte_identical: true,
            clients: 0,
            queries: 0,
            errors: 0,
            qps: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            git_rev: "abc1234".into(),
        };
        let json = serde_json::to_string(&p).expect("serializes");
        let back: ServePoint = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.scenario, "chaos-w2");
        assert_eq!(back.kills, 5);
        // Rows written before the load fields existed still load.
        let legacy = r#"{"scenario":"load","workers":2,"weeks":3,"kills":0,
                         "resumed_weeks":0,"byte_identical":true}"#;
        let back: ServePoint = serde_json::from_str(legacy).expect("legacy loads");
        assert_eq!(back.qps, 0.0);
        assert_eq!(back.clients, 0);
    }

    #[test]
    fn chaos_plans_fit_the_small_world() {
        // The harness sizes jobs with `min_job_weeks`; every swept worker
        // count must stay inside a ~20-week budget of the small world.
        for workers in SERVE_CHAOS_WORKERS {
            let plan = ChaosPlan::generate(SERVE_SEED ^ workers as u64, 5, 1, KILL_MAX_WEEKS);
            assert!(plan.min_job_weeks() <= 20, "plan too long: {plan:?}");
        }
    }
}
