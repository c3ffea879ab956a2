//! End-to-end test of the `retrodns` CLI: simulate → info → analyze
//! --score over a temp directory, plus the stream checkpoint/resume flags,
//! the metrics and trace outputs, and the lock and checkpoint-dir errors.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_retrodns"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("retrodns-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn simulate_analyze_roundtrip() {
    let dir = std::env::temp_dir().join(format!("retrodns-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // simulate
    let out = bin()
        .args(["simulate", "--out"])
        .arg(&dir)
        .args(["--seed", "9", "--domains", "1500"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "scans.json",
        "certs.json",
        "asdb.json",
        "pdns.json",
        "crtsh.json",
        "truth.json",
    ] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // info
    let out = bin()
        .args(["info", "--data"])
        .arg(&dir)
        .output()
        .expect("run info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scans.json"), "{stdout}");

    // analyze --score
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&dir)
        .arg("--score")
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("funnel:"), "{stdout}");
    assert!(stdout.contains("scoring vs ground truth"), "{stdout}");
    assert!(stdout.contains("hijacked: precision"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_checkpoint_without_stream_is_a_usage_error() {
    let base = temp_dir("ckpt-usage");
    let data = base.join("data");
    let ckpt = base.join("checkpoints");

    // Only the streaming analyzer checkpoints: a batch run is rerun.
    for resume in [false, true] {
        let mut cmd = bin();
        cmd.args(["analyze", "--data"])
            .arg(&data)
            .arg("--checkpoint-dir")
            .arg(&ckpt);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd
            .output()
            .expect("run analyze --checkpoint-dir without --stream");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--stream"), "{stderr}");
    }
    assert!(!ckpt.exists(), "a rejected run touched the checkpoint dir");

    // --resume without --checkpoint-dir is a usage error.
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--resume")
        .output()
        .expect("run analyze --resume without dir");
    assert!(!out.status.success());
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .args(["--stream", "--resume"])
        .output()
        .expect("run analyze --stream --resume without dir");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint-dir"), "{stderr}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_stream_resume_over_different_data_starts_fresh() {
    let base = temp_dir("ckpt-foreign");
    let simulate = |name: &str, seed: &str| {
        let dir = base.join(name);
        let out = bin()
            .args(["simulate", "--out"])
            .arg(&dir)
            .args(["--seed", seed, "--domains", "400"])
            .output()
            .expect("run simulate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        dir
    };
    let stream = |data: &Path, ckpt: &Path, resume: bool| {
        let mut cmd = bin();
        cmd.args(["analyze", "--data"])
            .arg(data)
            .arg("--stream")
            .arg("--checkpoint-dir")
            .arg(ckpt);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("run analyze --stream");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read(ckpt.join("report.json")).expect("report.json");
        (report, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let a = simulate("a", "3");
    let b = simulate("b", "11");
    let (ckpt, fresh_ckpt) = (base.join("ckpt"), base.join("fresh"));

    // A copy of A with one extra scan record from an unrouted address:
    // its observation is quarantined, so the kept rows (and the log) are
    // A's and only the quarantine histogram tells the two apart.
    let dup = base.join("a-dup");
    std::fs::create_dir_all(&dup).unwrap();
    for entry in std::fs::read_dir(&a).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dup.join(path.file_name().unwrap())).unwrap();
    }
    let scans = std::fs::read_to_string(a.join("scans.json")).unwrap();
    let start = scans.find('[').unwrap() + 1;
    let end = start + scans[start..].find('}').unwrap() + 1;
    let first = &scans[start..end];
    let ip = first.find("\"ip\":").unwrap() + 5;
    let ip_end = ip + first[ip..].find(',').unwrap();
    let unrouted = format!("{}0{}", &first[..ip], &first[ip_end..]);
    let scans = format!("{},{unrouted}{}", &scans[..end], &scans[end..]);
    std::fs::write(dup.join("scans.json"), scans).unwrap();

    let (report_a, _) = stream(&a, &ckpt, false);
    let (resumed_dup, stderr) = stream(&dup, &ckpt, true);
    assert!(stderr.contains("different data"), "{stderr}");
    assert!(resumed_dup != report_a, "resume kept A's quarantine counts");

    let (fresh_b, _) = stream(&b, &fresh_ckpt, false);
    assert!(
        report_a != fresh_b,
        "the two worlds analyze alike; test is vacuous"
    );

    // A checkpoint of other data is not B's: the resume is refused and
    // B streams from its first week.
    let (resumed_b, stderr) = stream(&b, &ckpt, true);
    assert!(stderr.contains("different data"), "{stderr}");
    assert!(!stderr.contains("resumed from checkpoint"), "{stderr}");
    assert!(
        resumed_b == fresh_b,
        "resume over foreign data kept the old report"
    );

    // B's own checkpoint resumes and reproduces B's report byte for byte.
    let (again_b, stderr) = stream(&b, &ckpt, true);
    assert!(stderr.contains("resumed from checkpoint"), "{stderr}");
    assert!(again_b == fresh_b);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_metrics_out_and_trace() {
    let base = temp_dir("metrics");
    let data = base.join("data");
    let out = bin()
        .args(["simulate", "--out"])
        .arg(&data)
        .args(["--seed", "11", "--domains", "1500"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // JSON exposition + --trace narration.
    let metrics_json = base.join("metrics.json");
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--metrics-out")
        .arg(&metrics_json)
        .arg("--trace")
        .output()
        .expect("run analyze --metrics-out");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("-> pipeline.run"),
        "no trace open: {stderr}"
    );
    assert!(
        stderr.contains("<- pipeline.run"),
        "no trace close: {stderr}"
    );
    assert!(stderr.contains("-> stage.inspect"), "{stderr}");

    let json = std::fs::read_to_string(&metrics_json).expect("metrics json");
    let v: serde::Value = serde::json::from_str(&json).expect("valid metrics JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("metrics snapshot is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["counters", "gauges", "histograms", "spans"]);
    let counters = v.get("counters").and_then(|c| c.as_object()).unwrap();
    assert!(
        counters.iter().any(|(k, _)| k.starts_with("funnel.")),
        "no funnel counters in {json}"
    );
    // The CLI installs the counting allocator, so the sampling hooks
    // must have produced per-stage allocation gauges.
    let gauges = v.get("gauges").and_then(|g| g.as_object()).unwrap();
    assert!(
        gauges.iter().any(|(k, _)| k.ends_with(".alloc_bytes")),
        "no allocation gauges in {json}"
    );
    // `analyze` runs one worker per hardware thread: stage 0's clean
    // check cuts its rows into that many ranges, unless they are too
    // few for the per-worker floor (this world's rows clear it at up to
    // ~80 threads).
    let snapshot: retrodns::core::metrics::MetricsSnapshot =
        serde::json::from_str(&json).expect("metrics snapshot");
    let rows: f64 = snapshot
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("quarantine.worker.") && k.ends_with(".items"))
        .map(|(_, v)| v)
        .sum();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = retrodns::core::map::DEFAULT_MIN_OBS_PER_WORKER;
    let expected = if rows >= (nproc * floor) as f64 {
        nproc
    } else {
        1
    };
    assert_eq!(
        snapshot.gauges.get("quarantine.workers"),
        Some(&(expected as f64)),
        "{json}"
    );
    // The release stage only frees memory, so bytes it reports as
    // allocated would be the sampler's own gauge keys and `/proc` read.
    let released = snapshot.gauges.get("stage.release.alloc_bytes");
    assert!(
        released.is_some_and(|&bytes| bytes < 1024.0),
        "stage.release.alloc_bytes = {released:?}"
    );

    // Prometheus exposition.
    let metrics_prom = base.join("metrics.prom");
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--metrics-out")
        .arg(&metrics_prom)
        .args(["--metrics-format", "prom"])
        .output()
        .expect("run analyze --metrics-format prom");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&metrics_prom).expect("metrics prom");
    assert!(
        prom.contains("# TYPE retrodns_funnel_domains_total counter"),
        "{prom}"
    );
    assert!(prom.contains("_bucket{le=\"+Inf\"}"), "{prom}");

    // Bad format is a usage error.
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .args(["--metrics-out", "x.json", "--metrics-format", "xml"])
        .output()
        .expect("run analyze with bad format");
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_source_resilience_flags() {
    let base = temp_dir("source-flags");
    let data = base.join("data");
    let out = bin()
        .args(["simulate", "--out"])
        .arg(&data)
        .args(["--seed", "13", "--domains", "1500"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The resilience knobs parse and a clean run (no injector reachable
    // from the CLI) emits no degraded verdicts, so the run succeeds even
    // without --allow-degraded.
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .args(["--source-deadline-ms", "500", "--source-retries", "1"])
        .output()
        .expect("run analyze with source flags");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("funnel:"), "{stdout}");
    assert!(
        !stdout.contains("degraded"),
        "clean run reported degradation: {stdout}"
    );

    // --allow-degraded is accepted.
    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--allow-degraded")
        .output()
        .expect("run analyze --allow-degraded");
    assert!(out.status.success());

    // Non-numeric knob values are usage errors.
    for bad in [
        ["--source-deadline-ms", "soon"],
        ["--source-retries", "lots"],
    ] {
        let out = bin()
            .args(["analyze", "--data"])
            .arg(&data)
            .args(bad)
            .output()
            .expect("run analyze with bad value");
        assert!(!out.status.success(), "{bad:?} accepted");
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_missing_dir_fails_cleanly() {
    let out = bin()
        .args(["analyze", "--data", "/nonexistent/retrodns-data"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Simulate a small data set under `base/data` for the robustness tests
/// below; they only need the analyzer to get as far as touching the
/// checkpoint directory.
fn small_data(base: &Path) -> PathBuf {
    let data = base.join("data");
    let out = bin()
        .args(["simulate", "--out"])
        .arg(&data)
        .args(["--seed", "3", "--domains", "600"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    data
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[test]
fn analyze_stream_held_lock_fails_cleanly() {
    let base = temp_dir("heldlock");
    let data = small_data(&base);
    let ckpt = base.join("checkpoints");
    std::fs::create_dir_all(&ckpt).unwrap();

    // A live holder: PID 1 always exists in the container and the
    // heartbeat is fresh, so the stale-takeover path must NOT fire.
    let lock = format!("{{\"pid\":1,\"token\":1,\"heartbeat_ms\":{}}}", now_ms());
    std::fs::write(ckpt.join("lock.json"), lock).unwrap();

    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--stream")
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .output()
        .expect("run analyze");
    assert!(!out.status.success(), "held lock was not rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("held by pid 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_stream_stale_lock_is_taken_over() {
    let base = temp_dir("stalelock");
    let data = small_data(&base);
    let ckpt = base.join("checkpoints");
    std::fs::create_dir_all(&ckpt).unwrap();

    // A SIGKILLed run leaves its lockfile behind; a dead PID (or an
    // ancient heartbeat) must be treated as abandoned, not block forever.
    let lock = "{\"pid\":4294967294,\"token\":7,\"heartbeat_ms\":0}";
    std::fs::write(ckpt.join("lock.json"), lock).unwrap();

    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--stream")
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "stale lock blocked the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.join("report.json").exists(), "report.json missing");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_stream_checkpoint_dir_not_a_directory() {
    let base = temp_dir("notadir");
    let data = small_data(&base);
    let file = base.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();

    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--stream")
        .arg("--checkpoint-dir")
        .arg(file.join("sub"))
        .output()
        .expect("run analyze");
    assert!(!out.status.success(), "file-as-parent path was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint dir"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_dir_all(&base);
}

#[cfg(unix)]
#[test]
fn analyze_stream_readonly_checkpoint_dir_fails_cleanly() {
    use std::os::unix::fs::PermissionsExt;

    let base = temp_dir("readonly");
    let data = small_data(&base);
    let ckpt = base.join("checkpoints");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::set_permissions(&ckpt, std::fs::Permissions::from_mode(0o555)).unwrap();

    // Root ignores directory permission bits; probe first and skip when
    // the sandbox can't actually make the directory unwritable.
    if std::fs::write(ckpt.join(".probe"), b"x").is_ok() {
        eprintln!("skipping: running as root, directory permissions not enforced");
        std::fs::set_permissions(&ckpt, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&base);
        return;
    }

    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--stream")
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .output()
        .expect("run analyze");
    std::fs::set_permissions(&ckpt, std::fs::Permissions::from_mode(0o755)).unwrap();
    assert!(!out.status.success(), "read-only dir was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint dir"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_dir_all(&base);
}

/// The `stage timings:` table of an `analyze` run's stdout, as (span
/// name, total ms) pairs in printed order.
fn stage_table(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .skip_while(|l| *l != "stage timings:")
        .skip(1)
        .take_while(|l| *l != "funnel:")
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert!(matches!(cols[..], [_, _, "ms"]), "malformed line {l:?}");
            (cols[0].to_string(), cols[1].parse().expect("total ms"))
        })
        .collect()
}

#[test]
fn analyze_stage_timings_list_the_recorded_spans() {
    let base = temp_dir("timings");
    let data = small_data(&base);
    let table = |stream: bool| {
        let mut cmd = bin();
        cmd.args(["analyze", "--data"]).arg(&data);
        if stream {
            cmd.arg("--stream");
        }
        let out = cmd.output().expect("run analyze");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stage_table(&String::from_utf8_lossy(&out.stdout))
    };
    let names = |t: &[(String, f64)]| t.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();

    // Batch: the whole run, then every stage from quarantine to release.
    let batch = table(false);
    assert_eq!(
        names(&batch),
        [
            "pipeline.run",
            "stage.quarantine",
            "stage.map_build",
            "stage.classify",
            "stage.shortlist",
            "stage.inspect",
            "stage.pivot",
            "stage.release",
        ]
    );
    assert!(batch[0].1 > 0.0, "{batch:?}");

    // Stream: only the stages each week opens a span for, summed over
    // the weeks, so no line reads zero.
    let stream = table(true);
    assert_eq!(
        names(&stream),
        ["stage.shortlist", "stage.inspect", "stage.pivot"]
    );
    for (name, ms) in &stream {
        assert!(*ms > 0.0, "{name} totals {ms} ms");
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_stream_resume_times_the_rebuild() {
    let base = temp_dir("resume-timings");
    let data = small_data(&base);
    let ckpt = base.join("checkpoints");
    let stream = |resume: bool| {
        let mut cmd = bin();
        cmd.args(["analyze", "--data"])
            .arg(&data)
            .arg("--stream")
            .arg("--checkpoint-dir")
            .arg(&ckpt);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("run analyze --stream");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stage_table(&String::from_utf8_lossy(&out.stdout))
    };
    stream(false);

    // Every week is already ingested, so the resume's map rebuild and
    // classify are the whole stream's work: they must show.
    let table = stream(true);
    let names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["stage.map_build", "stage.classify"], "{table:?}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn analyze_stream_first_checkpoint_failure_leaves_no_week_resumable() {
    let base = temp_dir("first-ckpt-fails");
    let data = small_data(&base);
    let ckpt = base.join("checkpoints");
    std::fs::create_dir_all(&ckpt).unwrap();
    // A file where the log's parts directory belongs: the first
    // checkpoint cannot be written, so nothing is ever committed.
    std::fs::write(ckpt.join("observations"), b"").unwrap();

    let out = bin()
        .args(["analyze", "--data"])
        .arg(&data)
        .arg("--stream")
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--resume")
        .output()
        .expect("run analyze");
    assert!(!out.status.success(), "the failed checkpoint was ignored");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint write failed at week 1 "),
        "{stderr}"
    );
    assert!(stderr.contains("no week is resumable"), "{stderr}");
    assert!(!stderr.contains("remain resumable"), "{stderr}");
    assert!(!ckpt.join("checkpoint.json").exists());

    let _ = std::fs::remove_dir_all(&base);
}
