//! `retrodns` — the command-line workflow.
//!
//! ```text
//! retrodns simulate --out DIR [--seed N] [--domains N]   write a world's data sets as JSON
//! retrodns analyze  --data DIR [--dnssec-signal] [--score]
//!                   [--stream [--checkpoint-dir DIR [--resume]]]   run the pipeline over them
//!                   [--metrics-out PATH [--metrics-format json|prom]] [--trace]
//!                   [--source-deadline-ms N] [--source-retries N] [--allow-degraded]
//! retrodns info     --data DIR                            summarize the data sets
//! ```
//!
//! `simulate` produces exactly the files a real deployment would convert
//! from its feeds (scans, certificate contents, network metadata, passive
//! DNS, crt.sh dump, zone and DNSSEC archives), so `analyze` is the
//! adoption surface: swap the synthetic JSON for converted real data and
//! the pipeline runs unchanged.

use retrodns::core::incremental::REPORT_FILE;
use retrodns::core::inspect::InspectConfig;
use retrodns::core::metrics::{CountingAlloc, MetricsRegistry};
use retrodns::core::observability::span_summary;
use retrodns::core::pipeline::{AnalystInputs, Pipeline, PipelineConfig, Report};
use retrodns::core::report::{render_table2, render_table3, DomainInfo};
use retrodns::core::score_detection;
use retrodns::core::{CheckpointStore, DirLock, SourcePolicy, StreamStart, WeeklyStream};
use retrodns::scan::DomainObservation;
use retrodns::serve::JobData;
use retrodns::sim::{DomainMeta, SimConfig, World};
use retrodns::types::DomainName;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Count allocations so `--metrics-out` can report per-stage allocation
// deltas (`stage.*.alloc_bytes`); without this the hooks stay silent.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ground truth sidecar written by `simulate` for `analyze --score`.
#[derive(serde::Serialize, serde::Deserialize)]
struct TruthFile {
    hijacked: Vec<DomainName>,
    targeted: Vec<DomainName>,
}

fn save<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<()> {
    let path = dir.join(name);
    let json = serde_json::to_vec(value).expect("serializable");
    std::fs::write(&path, json)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn load<T: serde::de::DeserializeOwned>(dir: &Path, name: &str) -> Result<T, String> {
    let path = dir.join(name);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn simulate(out: &Path, seed: u64, domains: usize) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let config = SimConfig {
        seed,
        n_domains: domains,
        ..SimConfig::default()
    };
    eprintln!("building world ({domains} domains, seed {seed:#x})...");
    let world = World::build(config);
    let dataset = world.scan();
    eprintln!(
        "world ready: {} scan records, {} certificates, {} hijacks planted",
        dataset.len(),
        world.certs.len(),
        world.ground_truth.hijacked.len()
    );
    let io = |e: std::io::Error| e.to_string();
    save(out, "scans.json", &dataset).map_err(io)?;
    save(out, "certs.json", &world.certs).map_err(io)?;
    save(out, "asdb.json", &world.geo.asdb).map_err(io)?;
    save(out, "pdns.json", &world.pdns).map_err(io)?;
    save(out, "crtsh.json", &world.crtsh).map_err(io)?;
    save(out, "zones.json", &world.zones).map_err(io)?;
    save(out, "dnssec.json", &world.dnssec).map_err(io)?;
    save(out, "trust.json", &world.trust).map_err(io)?;
    save(out, "meta.json", &world.meta).map_err(io)?;
    save(
        out,
        "truth.json",
        &TruthFile {
            hijacked: world
                .ground_truth
                .hijacked
                .iter()
                .map(|h| h.domain.clone())
                .collect(),
            targeted: world
                .ground_truth
                .targeted
                .iter()
                .map(|t| t.domain.clone())
                .collect(),
        },
    )
    .map_err(io)?;
    Ok(())
}

/// The analysis inputs ([`JobData`], shared with `retrodns-serve` so the
/// two front ends can never drift on the on-disk contract) plus the
/// CLI-only rendering sidecar.
struct LoadedData {
    data: JobData,
    meta: Vec<DomainMeta>,
}

fn load_data(dir: &Path) -> Result<LoadedData, String> {
    Ok(LoadedData {
        data: JobData::load(dir)?,
        meta: load(dir, "meta.json").unwrap_or_default(),
    })
}

/// Checkpointing options for `analyze --stream`.
struct CheckpointOpts {
    /// Per-week checkpoint directory (`--checkpoint-dir`).
    dir: PathBuf,
    /// Pick the stream up from a valid checkpoint instead of clearing it
    /// (`--resume`).
    resume: bool,
}

/// Metrics exposition format for `--metrics-out` (`--metrics-format`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    /// Deterministic pretty JSON (the default).
    Json,
    /// Prometheus text exposition 0.0.4.
    Prom,
}

/// Observability options for `analyze`.
struct MetricsOpts {
    /// Where to write the metrics snapshot (`--metrics-out`).
    out: Option<PathBuf>,
    /// Exposition format for the snapshot file.
    format: MetricsFormat,
    /// Narrate span open/close events to stderr (`--trace`).
    trace: bool,
}

/// Corroboration-source resilience options for `analyze`.
struct SourceOpts {
    /// Per-call deadline and retry budget (`--source-deadline-ms`,
    /// `--source-retries`); breaker settings keep their defaults.
    policy: SourcePolicy,
    /// Treat degraded verdicts as an acceptable outcome (`--allow-degraded`).
    /// Without it any degraded verdict fails the run after reporting.
    allow_degraded: bool,
}

fn analyze(
    dir: &Path,
    dnssec_signal: bool,
    score: bool,
    stream: bool,
    ckpt: Option<CheckpointOpts>,
    metrics_opts: MetricsOpts,
    source_opts: SourceOpts,
) -> Result<(), String> {
    let LoadedData { data, meta } = load_data(dir)?;
    eprintln!(
        "loaded: {} scan records, {} certs, {} pDNS tuples, {} CT records",
        data.dataset.len(),
        data.certs.len(),
        data.pdns.len(),
        data.crtsh.len()
    );
    let observations = data.observations();
    // One analysis worker per hardware thread (1 when the count is
    // unknown); reports do not depend on the worker count.
    let pipeline = Pipeline::new(PipelineConfig {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        inspect: InspectConfig {
            use_dnssec_signal: dnssec_signal,
            ..InspectConfig::default()
        },
        sources: source_opts.policy,
        ..PipelineConfig::default()
    });
    let inputs = data.inputs(&observations);
    // A checkpoint dir is exclusive for the duration of the run: two
    // processes interleaving weekly checkpoints would corrupt both. The
    // lock is PID+heartbeat based, so a SIGKILLed run goes stale and is
    // taken over rather than wedging the directory forever.
    let lock = match &ckpt {
        Some(opts) => Some(
            DirLock::acquire(&opts.dir)
                .map_err(|e| format!("checkpoint dir {}: {e}", opts.dir.display()))?,
        ),
        None => None,
    };
    let mut metrics = MetricsRegistry::with_trace(metrics_opts.trace);
    let report = if stream {
        stream_analyze(
            &pipeline,
            &observations,
            &inputs,
            ckpt.as_ref().zip(lock.as_ref()),
            &mut metrics,
        )?
    } else {
        pipeline.run_with(&inputs, &mut metrics)
    };
    let snapshot = metrics.snapshot();
    if let Some(path) = &metrics_opts.out {
        let body = match metrics_opts.format {
            MetricsFormat::Json => snapshot.to_json(),
            MetricsFormat::Prom => snapshot.to_prometheus(),
        };
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote metrics to {}", path.display());
    }

    println!("stage timings:");
    print!("{}", span_summary(&snapshot.spans));

    let f = &report.funnel;
    println!("funnel:");
    println!("  domains observed        {}", f.domains_total);
    println!("  transient maps          {}", f.transient_maps);
    println!("  shortlisted             {}", f.shortlisted);
    println!("  dismissed (stale cert)  {}", f.dismissed_stale);
    println!("  inconclusive            {}", f.inconclusive);
    println!(
        "  hijacked                {} ({:?})",
        report.hijacked.len(),
        f.hijacks_by_type
    );
    println!("  targeted                {}", report.targeted.len());
    if !report.degraded.is_empty() {
        println!(
            "  degraded                {} ({:?})",
            report.degraded.len(),
            f.degraded
        );
    }

    let info_map: HashMap<DomainName, DomainInfo> = meta
        .iter()
        .map(|m| {
            (
                m.domain.clone(),
                DomainInfo {
                    sector: m.sector.to_string(),
                    country: Some(m.country),
                    org_name: m.org_name.clone(),
                },
            )
        })
        .collect();
    let info = |d: &DomainName| info_map.get(d).cloned();
    println!("\nhijacked domains:");
    print!("{}", render_table2(&report.hijacked, &info));
    println!("\ntargeted domains:");
    print!("{}", render_table3(&report.targeted, &info));

    if score {
        let truth: TruthFile = load(dir, "truth.json")?;
        let sh = score_detection(&report.hijacked_domains(), &truth.hijacked);
        let st = score_detection(&report.targeted_domains(), &truth.targeted);
        println!("\nscoring vs ground truth:");
        println!(
            "  hijacked: precision {:.2} recall {:.2} f1 {:.2}",
            sh.precision(),
            sh.recall(),
            sh.f1()
        );
        println!(
            "  targeted: precision {:.2} recall {:.2} f1 {:.2}",
            st.precision(),
            st.recall(),
            st.f1()
        );
    }
    if !report.degraded.is_empty() && !source_opts.allow_degraded {
        return Err(format!(
            "{} verdict(s) degraded by unavailable corroboration sources \
             (rerun with --allow-degraded to accept them)",
            report.degraded.len()
        ));
    }
    Ok(())
}

/// `analyze --stream`: feed the observations week by week through a
/// [`WeeklyStream`], narrating each week's verdict delta. With
/// `--checkpoint-dir` the stream checkpoints after every week, and
/// `--resume` picks it back up from the last completed week instead of
/// restarting — the final report is byte-identical to the batch run
/// either way.
fn stream_analyze(
    pipeline: &Pipeline,
    observations: &[DomainObservation],
    inputs: &AnalystInputs,
    ckpt: Option<(&CheckpointOpts, &DirLock)>,
    metrics: &mut MetricsRegistry,
) -> Result<Report, String> {
    let checkpoint = match ckpt {
        Some((opts, lock)) => {
            let store = CheckpointStore::open(&opts.dir)
                .map_err(|e| format!("checkpoint dir {}: {e}", opts.dir.display()))?;
            if !opts.resume {
                store
                    .clear()
                    .map_err(|e| format!("clearing checkpoint dir {}: {e}", opts.dir.display()))?;
            }
            Some((store, lock))
        }
        None => None,
    };
    let dir = || &ckpt.expect("a checkpoint outcome implies a store").0.dir;
    let (mut stream, start) = WeeklyStream::open(
        pipeline.config.clone(),
        observations,
        None,
        inputs,
        checkpoint,
        metrics,
    );
    match start {
        StreamStart::Resumed(weeks) => {
            eprintln!("resumed from checkpoint: {weeks} weeks already ingested")
        }
        StreamStart::Refused => eprintln!(
            "warning: the checkpoint in {} was written over different data; \
             starting the stream afresh",
            dir().display()
        ),
        StreamStart::Fresh => {}
    }
    let total = stream.weeks_total();
    while let Some(delta) = stream.next_week(metrics) {
        if delta.has_verdict_changes() {
            eprintln!(
                "week {:>3}/{} ({}): +{} hijacked -{} hijacked, +{} targeted -{} targeted",
                delta.week + 1,
                total,
                delta.date,
                delta.hijacked_upserts.len(),
                delta.hijacked_removed.len(),
                delta.targeted_upserts.len(),
                delta.targeted_removed.len()
            );
        }
        // An unwritable or vanished checkpoint dir mid-stream is an
        // operational fault, not a bug: exit cleanly with the path and
        // week so the operator knows exactly what was lost (everything
        // up to the previous week is still durable).
        stream.checkpoint().map_err(|e| {
            let resumable = match delta.week {
                0 => "no week is resumable".to_string(),
                w => format!("weeks 1..{w} remain resumable with --resume"),
            };
            format!(
                "checkpoint write failed at week {} in {}: {e} ({resumable})",
                delta.week + 1,
                dir().display()
            )
        })?;
    }
    eprintln!("streamed {total} weeks");
    let (report, _) = stream
        .finish()
        .map_err(|e| format!("{}: {e}", dir().join(REPORT_FILE).display()))?;
    Ok(report)
}

fn info(dir: &Path) -> Result<(), String> {
    let LoadedData { data, meta } = load_data(dir)?;
    println!("data sets in {}:", dir.display());
    println!(
        "  scans.json   {} records over {} dates",
        data.dataset.len(),
        data.dataset.dates().len()
    );
    println!("  certs.json   {} certificates", data.certs.len());
    println!("  pdns.json    {} aggregated tuples", data.pdns.len());
    println!("  crtsh.json   {} CT records", data.crtsh.len());
    println!(
        "  dnssec.json  {}",
        match &data.dnssec {
            Some(a) => format!("{} domains", a.len()),
            None => "absent".to_string(),
        }
    );
    println!("  meta.json    {} domain descriptions", meta.len());
    Ok(())
}

fn usage() -> &'static str {
    "usage:\n  retrodns simulate --out DIR [--seed N] [--domains N]\n  retrodns analyze --data DIR [--dnssec-signal] [--score] [--stream [--checkpoint-dir DIR [--resume]]]\n                   [--metrics-out PATH [--metrics-format json|prom]] [--trace]\n                   [--source-deadline-ms N] [--source-retries N] [--allow-degraded]\n  retrodns info --data DIR"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out: Option<PathBuf> = None;
    let mut data: Option<PathBuf> = None;
    let mut seed: u64 = 0xD05_11EC7;
    let mut domains: usize = 20_000;
    let mut dnssec_signal = false;
    let mut score = false;
    let mut stream = false;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_format = MetricsFormat::Json;
    let mut trace = false;
    let mut source_policy = SourcePolicy::default();
    let mut allow_degraded = false;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().map(PathBuf::from),
            "--data" => data = it.next().map(PathBuf::from),
            "--checkpoint-dir" => checkpoint_dir = it.next().map(PathBuf::from),
            "--resume" => resume = true,
            "--metrics-out" => metrics_out = it.next().map(PathBuf::from),
            "--metrics-format" => {
                metrics_format = match it.next().map(String::as_str) {
                    Some("json") => MetricsFormat::Json,
                    Some("prom") => MetricsFormat::Prom,
                    _ => {
                        eprintln!("--metrics-format expects json or prom");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace" => trace = true,
            "--seed" => {
                seed = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--seed expects an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--domains" => {
                domains = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--domains expects an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--dnssec-signal" => dnssec_signal = true,
            "--score" => score = true,
            "--stream" => stream = true,
            "--source-deadline-ms" => {
                source_policy.deadline_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--source-deadline-ms expects an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--source-retries" => {
                source_policy.retries = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--source-retries expects an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--allow-degraded" => allow_degraded = true,
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match cmd.as_str() {
        "simulate" => match out {
            Some(dir) => simulate(&dir, seed, domains),
            None => Err("simulate requires --out DIR".into()),
        },
        "analyze" => match data {
            Some(dir) => {
                if (resume || checkpoint_dir.is_some()) && !stream {
                    Err(
                        "--checkpoint-dir and --resume need --stream: only the streaming \
                         analyzer checkpoints (a batch run is simply rerun)"
                            .into(),
                    )
                } else if resume && checkpoint_dir.is_none() {
                    Err("--resume requires --checkpoint-dir DIR".into())
                } else {
                    let ckpt = checkpoint_dir.map(|dir| CheckpointOpts { dir, resume });
                    let metrics_opts = MetricsOpts {
                        out: metrics_out,
                        format: metrics_format,
                        trace,
                    };
                    let source_opts = SourceOpts {
                        policy: source_policy,
                        allow_degraded,
                    };
                    analyze(
                        &dir,
                        dnssec_signal,
                        score,
                        stream,
                        ckpt,
                        metrics_opts,
                        source_opts,
                    )
                }
            }
            None => Err("analyze requires --data DIR".into()),
        },
        "info" => match data {
            Some(dir) => info(&dir),
            None => Err("info requires --data DIR".into()),
        },
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
