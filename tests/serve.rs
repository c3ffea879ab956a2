//! Integration tests of `retrodns-serve`: the job lifecycle over HTTP,
//! backpressure, graceful-shutdown parking, and crash/resume — including
//! a real SIGKILL of the server binary with the resumed report pinned
//! byte-identical to an uninterrupted golden.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use retrodns::core::pipeline::{AnalystInputs, PipelineConfig};
use retrodns::core::{week_batches, CheckpointStore, IncrementalAnalyzer, MetricsRegistry};
use retrodns::scan::DomainObservation;
use retrodns::serve::client;
use retrodns::serve::{
    EventLog, JobData, JobSpec, JobState, JobStatus, JobSupervisor, ServeConfig, ServerHandle,
    SupervisorConfig,
};
use retrodns::sim::{SimConfig, World};
use retrodns::types::Day;

/// One simulated data directory, shared read-only by every test in this
/// binary (simulation is deterministic and the server never writes into
/// its data dir).
fn data_dir() -> &'static Path {
    static DATA: OnceLock<PathBuf> = OnceLock::new();
    DATA.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("retrodns-serve-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_retrodns"))
            .args(["simulate", "--out"])
            .arg(&dir)
            .args(["--seed", "41", "--domains", "900"])
            .output()
            .expect("run simulate");
        assert!(
            out.status.success(),
            "simulate failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        dir
    })
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("retrodns-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start an in-process server over a fresh checkpoint root.
fn start(root: &Path, queue_capacity: usize, job_workers: usize) -> ServerHandle {
    ServerHandle::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: 2,
        supervisor: SupervisorConfig {
            checkpoint_root: root.to_path_buf(),
            job_workers,
            queue_capacity,
            ..SupervisorConfig::default()
        },
        port_file: None,
    })
    .expect("server starts")
}

fn submit(addr: &str, spec: &JobSpec) -> client::HttpResponse {
    let body = serde_json::to_string(spec).expect("spec serializes");
    client::post(addr, "/jobs", &body).expect("submit request")
}

fn status(addr: &str, id: &str) -> JobStatus {
    client::get(addr, &format!("/jobs/{id}"))
        .expect("status request")
        .json()
        .expect("status json")
}

/// Poll until `pred` holds on the job's status.
fn wait_for(addr: &str, id: &str, what: &str, pred: impl Fn(&JobStatus) -> bool) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = status(addr, id);
        if pred(&s) {
            return s;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {what}: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The uninterrupted oracle: stream the first `max_weeks` through the
/// analyzer in-process, rendered exactly as the server archives reports.
fn golden_report(workers: usize, max_weeks: u32) -> String {
    let data = JobData::load(data_dir()).expect("data loads");
    let observations = data.observations();
    let inputs = data.inputs(&observations);
    let mut by_date: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
    for o in &observations {
        by_date.entry(o.date).or_default().push(o.clone());
    }
    let mut analyzer = IncrementalAnalyzer::new(PipelineConfig {
        workers: workers.max(1),
        ..PipelineConfig::default()
    });
    for batch in by_date.values().take(max_weeks as usize) {
        analyzer.ingest_week(batch, &inputs);
    }
    serde_json::to_string_pretty(analyzer.report()).expect("report serializes")
}

#[test]
fn submit_poll_report_lifecycle() {
    let root = temp_root("lifecycle");
    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();

    // Liveness and readiness come up with the server.
    let health = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text().trim(), "ok");
    assert_eq!(client::get(&addr, "/readyz").expect("readyz").status, 200);

    // Unknown jobs are 404; invalid and duplicate ids are rejected.
    assert_eq!(client::get(&addr, "/jobs/nope").expect("get").status, 404);
    let bad = submit(
        &addr,
        &JobSpec {
            id: ".hidden".into(),
            data_dir: data_dir().display().to_string(),
            ..Default::default()
        },
    );
    assert_eq!(bad.status, 400, "{}", bad.text());
    let missing = submit(
        &addr,
        &JobSpec {
            id: "nodata".into(),
            data_dir: "/does/not/exist".into(),
            ..Default::default()
        },
    );
    assert_eq!(missing.status, 400, "{}", missing.text());

    let spec = JobSpec {
        id: "alpha".into(),
        data_dir: data_dir().display().to_string(),
        workers: 2,
        max_weeks: 5,
        ..Default::default()
    };
    let accepted = submit(&addr, &spec);
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let dup = submit(&addr, &spec);
    assert_eq!(dup.status, 409, "{}", dup.text());

    // Polling the report of an unfinished job is an explicit 409/404,
    // never a torn read (it may legitimately finish fast, so only the
    // terminal result is asserted strictly).
    let done = wait_for(&addr, "alpha", "terminal", |s| s.state.terminal());
    assert!(
        matches!(done.state, JobState::Done | JobState::Degraded),
        "{done:?}"
    );
    assert_eq!(done.weeks_done, 5);
    assert_eq!(done.weeks_total, 5);

    // The archived report is byte-identical to the in-process oracle.
    let report = client::get(&addr, "/jobs/alpha/report").expect("report");
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body,
        golden_report(2, 5).as_bytes(),
        "served report differs from the uninterrupted in-process golden"
    );

    // Query surface: list, funnel, degraded set, deltas, verdict, watch,
    // metrics — all answer while the state is terminal.
    let list = client::get(&addr, "/jobs").expect("list");
    assert_eq!(list.status, 200);
    assert!(list.text().contains("alpha"), "{}", list.text());
    assert_eq!(
        client::get(&addr, "/jobs/alpha/funnel")
            .expect("funnel")
            .status,
        200
    );
    assert_eq!(
        client::get(&addr, "/jobs/alpha/degraded")
            .expect("degraded")
            .status,
        200
    );
    assert_eq!(
        client::get(&addr, "/jobs/alpha/deltas")
            .expect("deltas")
            .status,
        200
    );
    let verdict = client::get(&addr, "/jobs/alpha/verdict/example.com").expect("verdict");
    assert_eq!(verdict.status, 200);
    assert!(verdict.text().contains("\"verdict\""), "{}", verdict.text());
    let watch = client::get(&addr, "/watch?since=0&wait_ms=0").expect("watch");
    assert_eq!(watch.status, 200);
    assert!(watch.text().contains("\"events\""), "{}", watch.text());
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("serve"), "{}", metrics.text());

    // Cancelling a terminal job is a conflict, not a state change.
    let cancel = client::post(&addr, "/jobs/alpha/cancel", "").expect("cancel");
    assert_eq!(cancel.status, 409, "{}", cancel.text());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn backpressure_rejects_with_429_and_retry_after() {
    let root = temp_root("backpressure");
    let server = start(&root, 1, 1);
    let addr = server.addr().to_string();
    let spec = |id: &str| JobSpec {
        id: id.into(),
        data_dir: data_dir().display().to_string(),
        week_delay_ms: 100,
        ..Default::default()
    };

    // Fill the single worker, then the single queue slot.
    assert_eq!(submit(&addr, &spec("running")).status, 202);
    wait_for(&addr, "running", "Running", |s| {
        s.state == JobState::Running
    });
    assert_eq!(submit(&addr, &spec("queued")).status, 202);

    // The queue is full: explicit throttle with a Retry-After hint.
    let throttled = submit(&addr, &spec("overflow"));
    assert_eq!(throttled.status, 429, "{}", throttled.text());
    assert_eq!(throttled.header("retry-after"), Some("2"));

    // Cancelling the queued job frees the slot; the next submit lands.
    assert_eq!(
        client::post(&addr, "/jobs/queued/cancel", "")
            .expect("cancel")
            .status,
        202
    );
    assert_eq!(submit(&addr, &spec("after-cancel")).status, 202);

    let _ = client::post(&addr, "/jobs/running/cancel", "");
    let _ = client::post(&addr, "/jobs/after-cancel/cancel", "");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_job_body_is_rejected_and_server_survives() {
    let root = temp_root("nesting");
    let server = start(&root, 1, 1);
    let addr = server.addr().to_string();

    // 1 MiB of `[`, bare and under an unknown key the spec skips: each is
    // a 400, not a stack overflow that takes the process down.
    let brackets = "[".repeat(1 << 20);
    let under_key = format!("{{\"data_dir\":\"d\",\"x\":{brackets}");
    for body in [&brackets, &under_key] {
        let resp = client::post(&addr, "/jobs", body).expect("submit request");
        assert_eq!(resp.status, 400, "{}", resp.text());
        if body == &under_key {
            assert!(resp.text().contains("nesting"), "{}", resp.text());
        }
    }

    assert_eq!(client::get(&addr, "/healthz").expect("healthz").status, 200);
    let jobs = client::get(&addr, "/jobs").expect("job list");
    assert_eq!(jobs.status, 200, "{}", jobs.text());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn graceful_shutdown_parks_job_and_restart_resumes() {
    let root = temp_root("park");
    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();
    let spec = JobSpec {
        id: "park".into(),
        data_dir: data_dir().display().to_string(),
        workers: 1,
        max_weeks: 8,
        week_delay_ms: 60,
        ..Default::default()
    };
    assert_eq!(submit(&addr, &spec).status, 202);
    wait_for(&addr, "park", "2 ingested weeks", |s| s.weeks_done >= 2);

    // Drain: the worker parks the job at its next week boundary and the
    // on-disk state is non-terminal, ready for resume.
    server.shutdown();
    let persisted = std::fs::read_to_string(root.join("park").join("status.json"))
        .expect("status.json persisted");
    assert!(
        persisted.contains("Queued"),
        "parked job should persist as Queued: {persisted}"
    );

    // A fresh server over the same root recovers the job, resumes it
    // mid-stream, and finishes with the exact golden bytes.
    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();
    assert_eq!(client::get(&addr, "/readyz").expect("readyz").status, 200);
    let done = wait_for(&addr, "park", "terminal", |s| s.state.terminal());
    assert!(
        matches!(done.state, JobState::Done | JobState::Degraded),
        "{done:?}"
    );
    assert!(
        done.resumed_weeks >= 2,
        "restart should resume from the checkpoint: {done:?}"
    );
    let report = client::get(&addr, "/jobs/park/report").expect("report");
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body,
        golden_report(1, 8).as_bytes(),
        "parked-and-resumed report differs from the uninterrupted golden"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A crashed job whose data dir was replaced before the restart: its
/// checkpoint holds weeks of other data, and resuming it would archive a
/// report mixing the two. The job must stream its own data afresh.
#[test]
fn checkpoint_over_other_data_is_not_resumed() {
    let root = temp_root("foreign");
    let job_dir = root.join("foreign");
    let spec = JobSpec {
        id: "foreign".into(),
        data_dir: data_dir().display().to_string(),
        workers: 1,
        max_weeks: 6,
        ..Default::default()
    };
    // Three weeks of another world, checkpointed under the job's config.
    let world = World::build(SimConfig {
        n_domains: 150,
        ..SimConfig::small(0xF0E)
    });
    let observations = world.observations(&world.scan());
    let inputs = AnalystInputs {
        observations: &observations,
        asdb: &world.geo.asdb,
        certs: &world.certs,
        pdns: &world.pdns,
        crtsh: &world.crtsh,
        dnssec: Some(&world.dnssec),
        source_faults: None,
    };
    let mut analyzer = IncrementalAnalyzer::new(PipelineConfig {
        workers: 1,
        ..PipelineConfig::default()
    });
    for batch in week_batches(&observations).iter().take(3) {
        analyzer.ingest_week(batch, &inputs);
    }
    let store = CheckpointStore::open(&job_dir).expect("job dir");
    analyzer.checkpoint(&store).expect("checkpoint");
    std::fs::write(
        job_dir.join("job.json"),
        serde_json::to_string_pretty(&spec).expect("spec serializes"),
    )
    .expect("write job.json");

    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();
    let done = wait_for(&addr, "foreign", "terminal", |s| s.state.terminal());
    assert!(
        matches!(done.state, JobState::Done | JobState::Degraded),
        "{done:?}"
    );
    assert_eq!(done.resumed_weeks, 0, "resumed another world's weeks");
    let report = client::get(&addr, "/jobs/foreign/report").expect("report");
    assert_eq!(
        report.body,
        golden_report(1, 6).as_bytes(),
        "the archived report carries the other data's weeks"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery removes the tmp files of writes a kill interrupted, and
/// nothing else.
#[test]
fn recovery_sweeps_orphaned_tmp_files() {
    let root = temp_root("orphans");
    let job_dir = root.join("swept");
    std::fs::create_dir_all(&job_dir).unwrap();
    let spec = JobSpec {
        id: "swept".into(),
        data_dir: data_dir().display().to_string(),
        ..Default::default()
    };
    let status = JobStatus {
        id: "swept".into(),
        state: JobState::Cancelled,
        weeks_done: 0,
        weeks_total: 0,
        resumed_weeks: 0,
        error: String::new(),
        hijacked: 0,
        targeted: 0,
        degraded: 0,
    };
    std::fs::write(job_dir.join("job.json"), serde_json::to_vec(&spec).unwrap()).unwrap();
    std::fs::write(
        job_dir.join("status.json"),
        serde_json::to_vec(&status).unwrap(),
    )
    .unwrap();
    let orphans = [
        "status.json.tmp.3",
        "checkpoint.json.tmp.0",
        "lock.json.tmp.17",
    ];
    for name in orphans {
        std::fs::write(job_dir.join(name), b"{\"torn").unwrap();
    }

    let supervisor = JobSupervisor::new(
        SupervisorConfig {
            checkpoint_root: root.clone(),
            ..SupervisorConfig::default()
        },
        std::sync::Arc::new(EventLog::new()),
        std::sync::Arc::new(std::sync::Mutex::new(MetricsRegistry::new())),
    );
    supervisor.recover().expect("recover");
    let mut left: Vec<String> = std::fs::read_dir(&job_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["job.json", "status.json"]);
    assert_eq!(
        supervisor.status("swept").map(|s| s.state),
        Some(JobState::Cancelled)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watch_rejects_stale_cursors() {
    let root = temp_root("watch-cursor");
    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();

    // A fresh watch hands back the incarnation epoch with the cursor.
    #[derive(serde::Deserialize)]
    struct Watch {
        latest: u64,
        epoch: u64,
    }
    let first: Watch = client::get(&addr, "/watch?since=0&wait_ms=0")
        .expect("watch")
        .json()
        .expect("watch json");
    assert_ne!(first.epoch, 0);

    // Cursor from that same incarnation: accepted.
    let ok = client::get(
        &addr,
        &format!(
            "/watch?since={}&epoch={}&wait_ms=0",
            first.latest, first.epoch
        ),
    )
    .expect("watch");
    assert_eq!(ok.status, 200, "{}", ok.text());

    // Cursor minted under another incarnation's epoch: explicit 409, not
    // a silent event gap.
    let stale = client::get(
        &addr,
        &format!("/watch?since=0&epoch={}&wait_ms=0", first.epoch ^ 1),
    )
    .expect("watch");
    assert_eq!(stale.status, 409, "{}", stale.text());

    // Epoch-unaware client holding a cursor beyond this incarnation's
    // log (i.e. from before a restart): also 409.
    let beyond = client::get(&addr, "/watch?since=999999&wait_ms=0").expect("watch");
    assert_eq!(beyond.status, 409, "{}", beyond.text());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Deadlock regression: parking a running job at shutdown counts a
/// metric, and `/metrics` reads the queue depth — with inconsistent lock
/// order a concurrent scrape wedged both sides and `shutdown()` never
/// returned. Hammer `/metrics` across the drain and require completion.
#[test]
fn metrics_scrape_during_shutdown_drain_completes() {
    let root = temp_root("metrics-drain");
    let server = start(&root, 8, 1);
    let addr = server.addr().to_string();
    let spec = JobSpec {
        id: "scrape".into(),
        data_dir: data_dir().display().to_string(),
        workers: 1,
        week_delay_ms: 50,
        ..Default::default()
    };
    assert_eq!(submit(&addr, &spec).status, 202);
    wait_for(&addr, "scrape", "Running", |s| s.state == JobState::Running);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let (addr, stop) = (addr.clone(), std::sync::Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut scrapes = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if let Ok(r) = client::get(&addr, "/metrics") {
                    assert_eq!(r.status, 200);
                    scrapes += 1;
                }
            }
            scrapes
        })
    };

    // The drain parks the running job at its next week boundary while
    // the scraper keeps the metrics lock hot; this returning at all is
    // the assertion.
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "scraper never landed a request");

    let persisted = std::fs::read_to_string(root.join("scrape").join("status.json"))
        .expect("status.json persisted");
    assert!(
        persisted.contains("Queued"),
        "parked job should persist as Queued: {persisted}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Spawn the real `retrodns-serve` binary and wait for its port file.
fn spawn_serve(root: &Path, port_file: &Path) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_retrodns-serve"))
        .arg("--checkpoint-root")
        .arg(root)
        .arg("--port-file")
        .arg(port_file)
        .args(["--job-workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn retrodns-serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            if !addr.trim().is_empty() {
                return (child, addr.trim().to_string());
            }
        }
        if let Ok(Some(code)) = child.try_wait() {
            panic!("retrodns-serve exited before listening: {code}");
        }
        assert!(Instant::now() < deadline, "timed out waiting for port file");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkill_and_restart_resume_is_byte_identical() {
    let root = temp_root("sigkill");
    let port_file = std::env::temp_dir().join(format!(
        "retrodns-serve-sigkill-port-{}",
        std::process::id()
    ));

    let (mut child, addr) = spawn_serve(&root, &port_file);
    let spec = JobSpec {
        id: "kill".into(),
        data_dir: data_dir().display().to_string(),
        workers: 2,
        max_weeks: 10,
        week_delay_ms: 150,
        ..Default::default()
    };
    assert_eq!(submit(&addr, &spec).status, 202);
    wait_for(&addr, "kill", "2 ingested weeks", |s| s.weeks_done >= 2);

    // SIGKILL: no drain, no destructors — at most the in-flight week is
    // lost, everything checkpointed stays durable.
    child.kill().expect("kill server");
    let _ = child.wait();

    let (mut child, addr) = spawn_serve(&root, &port_file);
    let done = wait_for(&addr, "kill", "terminal", |s| s.state.terminal());
    assert!(
        matches!(done.state, JobState::Done | JobState::Degraded),
        "{done:?}"
    );
    assert!(
        done.resumed_weeks >= 1,
        "restart should resume from the checkpoint: {done:?}"
    );
    assert_eq!(done.weeks_done, 10);
    let report = client::get(&addr, "/jobs/kill/report").expect("report");
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body,
        golden_report(2, 10).as_bytes(),
        "post-SIGKILL report differs from the uninterrupted golden"
    );

    assert_eq!(
        client::post(&addr, "/shutdown", "")
            .expect("shutdown")
            .status,
        202
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(code) = child.try_wait().expect("wait") {
            assert!(code.success(), "graceful shutdown exited {code}");
            break;
        }
        assert!(Instant::now() < deadline, "server never exited");
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&port_file);
}
