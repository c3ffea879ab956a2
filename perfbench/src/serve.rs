//! `serve`: an in-process server streams one job through the study
//! while a single-threaded open-loop generator queries it at a fixed
//! rate.

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use retrodns_core::{Pipeline, PipelineConfig};
use retrodns_serve::{client, JobData, JobSpec, JobState, ServeConfig, ServerHandle};
use retrodns_serve::{JobStatus, SupervisorConfig};
use retrodns_types::DomainName;

use crate::spans::Tracer;
use crate::stats::{max, median, ms, peak_rss_mb, quantile};
use crate::world::{first_weeks, Scale};
use crate::{setup_samples, tamper, Ctx, Outcome};

/// Queries per second, about a tenth of what one closed-loop client
/// gets from the server.
const QUERY_RATE: f64 = 1000.0;
/// Tail percentile of query latency (needs at least 1 000 queries).
const TAIL: f64 = 0.99;
/// Weeks the job streams at full scale: sized so that, at one analysis
/// worker, the job finishes within a 20 s run.
const FULL_WEEKS: u32 = 100;
/// Tiny scale: weeks streamed and the cap on queries.
const TINY_WEEKS: u32 = 20;
const TINY_QUERIES: u64 = 200;
/// Clean domains drawn into the verdict query pool, beside every
/// planted victim.
const CLEAN_DOMAINS: usize = 48;
const JOB_ID: &str = "bench";
/// Client timeout per query.
const QUERY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long to wait for a job to finish once the timed phase is over.
const FINISH_TIMEOUT: Duration = Duration::from_secs(150);

/// The routes the generator cycles through, in order.
const ROUTES: [&str; 6] = ["status", "funnel", "verdict", "deltas", "watch", "metrics"];

fn max_weeks(ctx: &Ctx) -> u32 {
    match ctx.scale {
        Scale::Full => FULL_WEEKS,
        Scale::Tiny => TINY_WEEKS,
    }
}

/// splitmix64: a seeded stream for drawing domains.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every planted victim plus clean domains drawn by seed.
fn verdict_pool(ctx: &Ctx, rng: &mut Rng) -> Result<Vec<DomainName>, String> {
    let truth = ctx.world.truth()?;
    let mut pool: Vec<DomainName> = truth.hijacked.into_iter().chain(truth.targeted).collect();
    let all = ctx.world.domains()?;
    for _ in 0..CLEAN_DOMAINS.min(all.len()) {
        pool.push(all[rng.below(all.len())].clone());
    }
    pool.sort();
    pool.dedup();
    Ok(pool)
}

/// A running server with one submitted job.
struct LiveServer {
    server: ServerHandle,
    addr: String,
    root: PathBuf,
    start_ms: f64,
    queue_wait_ms: f64,
    running_at: Instant,
}

impl LiveServer {
    fn status(&self) -> Option<JobStatus> {
        self.server.service().supervisor.status(JOB_ID)
    }

    /// Cancel the job, drain the server and remove its state.
    fn discard(self) {
        let _ = self.server.service().supervisor.cancel(JOB_ID);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Start a server, submit the job, and wait until it has ingested its
/// first week. Returns the server and the set-up time in seconds.
fn start(ctx: &Ctx, root: PathBuf) -> Result<(LiveServer, f64), String> {
    let _ = std::fs::remove_dir_all(&root);
    let t = Instant::now();
    let server = ServerHandle::start(ServeConfig {
        supervisor: SupervisorConfig {
            checkpoint_root: root.clone(),
            job_workers: 1,
            ..SupervisorConfig::default()
        },
        ..ServeConfig::default()
    })?;
    let start_ms = ms(t.elapsed());
    let addr = server.addr().to_string();
    let data_dir = std::fs::canonicalize(&ctx.world.dir)
        .map_err(|e| format!("{}: {e}", ctx.world.dir.display()))?;
    let spec = JobSpec {
        id: JOB_ID.into(),
        data_dir: data_dir.to_string_lossy().into_owned(),
        workers: 1,
        max_weeks: max_weeks(ctx),
        ..JobSpec::default()
    };
    let body = serde_json::to_string(&spec).expect("spec serializes");
    let submitted = Instant::now();
    let resp = client::post(&addr, "/jobs", &body)?;
    if resp.status != 202 {
        server.shutdown();
        return Err(format!("submit answered {}: {}", resp.status, resp.text()));
    }
    let mut live = LiveServer {
        server,
        addr,
        root,
        start_ms,
        queue_wait_ms: f64::NAN,
        running_at: submitted,
    };
    let deadline = Instant::now() + FINISH_TIMEOUT;
    loop {
        let status = live.status().ok_or("submitted job vanished")?;
        if status.state != JobState::Queued && live.queue_wait_ms.is_nan() {
            live.running_at = Instant::now();
            live.queue_wait_ms = ms(live.running_at - submitted);
        }
        if status.weeks_done >= 1 || status.state.terminal() {
            if status.state == JobState::Failed {
                let err = status.error.clone();
                live.discard();
                return Err(format!("job failed: {err}"));
            }
            break;
        }
        if Instant::now() > deadline {
            live.discard();
            return Err("job ingested no week in time".into());
        }
        thread::sleep(Duration::from_millis(1));
    }
    let setup = t.elapsed().as_secs_f64();
    Ok((live, setup))
}

/// What the generator saw.
#[derive(Default)]
struct Load {
    /// Latency of every query from its due time; a failed query counts
    /// as the client timeout, above any latency limit.
    latency: Vec<f64>,
    /// How late each query was sent.
    late: Vec<f64>,
    per_route: [Vec<f64>; 6],
    route_failed: [u64; 6],
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// When a status query first saw the job finished.
    done_at: Option<Instant>,
    ended_at: Option<Instant>,
}

impl Load {
    fn problem(&mut self, p: String) {
        // One line per kind of problem is enough.
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// Check a 2xx body of `route`; returns the job status for the status
/// route and the next watch cursor for the watch route.
fn check_body(
    route: &str,
    body: &[u8],
    domain: &str,
    load: &mut Load,
    since: &mut u64,
) -> Option<JobStatus> {
    if route == "metrics" {
        let text = String::from_utf8_lossy(body);
        let ok = text.lines().any(|l| l.starts_with("retrodns_"))
            && text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .all(|l| {
                    l.rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok())
                });
        if !ok {
            load.problem("/metrics is not Prometheus text".into());
        }
        return None;
    }
    if route == "status" {
        return match serde_json::from_slice::<JobStatus>(body) {
            Ok(s) => Some(s),
            Err(e) => {
                load.problem(format!("/jobs/{{id}} body: {e}"));
                None
            }
        };
    }
    let value: serde_json::Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(e) => {
            load.problem(format!("{route} body does not parse: {e}"));
            return None;
        }
    };
    match route {
        "verdict" => {
            let verdict = value.get("verdict").and_then(|v| v.as_str());
            let answered = value.get("domain").and_then(|v| v.as_str());
            if !matches!(verdict, Some("clean" | "targeted" | "hijacked"))
                || answered != Some(domain)
            {
                load.problem(format!(
                    "verdict for {domain}: {verdict:?} about {answered:?}"
                ));
            }
        }
        "watch" => match value.get("latest") {
            Some(serde_json::Value::Num(serde_json::Number::U(n))) => *since = *n,
            other => load.problem(format!("/watch latest is {other:?}")),
        },
        _ => {}
    }
    None
}

/// Send queries at `QUERY_RATE`, each timed from when it was due, until
/// the job finishes or `--seconds` runs out.
fn generate(
    ctx: &Ctx,
    live: &LiveServer,
    pool: &[DomainName],
    rng: &mut Rng,
    mut tracer: Option<&mut Tracer>,
) -> Load {
    let mut load = Load::default();
    let cap = match ctx.scale {
        Scale::Full => u64::MAX,
        Scale::Tiny => TINY_QUERIES,
    };
    let mut since = 0u64;
    let start = Instant::now();
    for k in 0..cap {
        let due = start + Duration::from_secs_f64(k as f64 / QUERY_RATE);
        if due - start >= ctx.seconds {
            break;
        }
        let r = k as usize % ROUTES.len();
        let route = ROUTES[r];
        let domain = if route == "verdict" {
            pool[rng.below(pool.len())].as_str().to_string()
        } else {
            String::new()
        };
        let path = match route {
            "status" => format!("/jobs/{JOB_ID}"),
            "funnel" => format!("/jobs/{JOB_ID}/funnel"),
            "verdict" => format!("/jobs/{JOB_ID}/verdict/{domain}"),
            "deltas" => format!("/jobs/{JOB_ID}/deltas"),
            "watch" => format!("/watch?since={since}"),
            _ => "/metrics".to_string(),
        };
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let resp = client::request_with_timeout(&live.addr, "GET", &path, None, QUERY_TIMEOUT);
        let end = Instant::now();
        load.attempted += 1;
        load.late.push(ms(sent - due));
        let mut status = None;
        let ok = match resp {
            Ok(resp) if (200..300).contains(&resp.status) => {
                status = check_body(route, &resp.body, &domain, &mut load, &mut since);
                true
            }
            Ok(resp) => {
                eprintln!("{path} answered {}", resp.status);
                false
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                false
            }
        };
        let latency = if ok { ms(end - due) } else { ms(QUERY_TIMEOUT) };
        if !ok {
            load.failed += 1;
            load.route_failed[r] += 1;
        }
        load.latency.push(latency);
        load.per_route[r].push(latency);
        if let Some(t) = tracer.as_deref_mut() {
            t.record(&format!("route.{route}"), k, due, end);
        }
        if status.is_some_and(|s| s.state.terminal()) {
            load.done_at = Some(end);
            break;
        }
    }
    load.ended_at = Some(Instant::now());
    load
}

/// After the timed phase: wait for the job, fetch its served report and
/// compare it byte for byte with `Pipeline::run` over the same weeks.
/// Returns the observations of the first `weeks` weeks.
fn verify(ctx: &Ctx, live: LiveServer, weeks: u32, out: &mut Outcome) -> Result<usize, String> {
    let deadline = Instant::now() + FINISH_TIMEOUT;
    while !live.status().is_some_and(|s| s.state.terminal()) {
        if Instant::now() > deadline {
            live.discard();
            return Err("job did not finish".into());
        }
        thread::sleep(Duration::from_millis(20));
    }
    let status = live.status().expect("job exists");
    let served = client::get(&live.addr, &format!("/jobs/{JOB_ID}/report"));
    let root = live.root.clone();
    live.server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    out.check(status.state == JobState::Done, || {
        format!("job ended {:?}: {}", status.state, status.error)
    });
    let mut served = served?;
    if ctx.tamper {
        let mut text = served.text();
        tamper(&mut text);
        served.body = text.into_bytes();
    }

    let data = JobData::load(&ctx.world.dir)?;
    let observations = data.observations();
    let total = first_weeks(&observations, status.weeks_done as usize);
    let expected = Pipeline::new(PipelineConfig::default()).run(&data.inputs(&total));
    let expected = serde_json::to_string_pretty(&expected).expect("report serializes");
    out.check(served.body == expected.as_bytes(), || {
        format!(
            "served report after {} weeks differs from Pipeline::run over them",
            status.weeks_done
        )
    });
    out.observations = observations.len();
    Ok(first_weeks(&observations, weeks as usize).len())
}

/// The job's progress when the timed phase ended: (weeks, seconds since
/// it started running).
fn progress(live: &LiveServer, load: &Load) -> (u32, f64) {
    let end = load.done_at.or(load.ended_at).expect("generator ran");
    let weeks = live.status().map_or(0, |s| s.weeks_done);
    (weeks, (end - live.running_at).as_secs_f64())
}

fn absorb(out: &mut Outcome, load: &Load) {
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.problems.extend(load.problems.iter().cloned());
}

/// One set-up: start a server and wait for the job's first week.
pub fn setup_sample(ctx: &Ctx) -> Result<f64, String> {
    let (live, setup) = start(ctx, root(ctx))?;
    live.discard();
    Ok(setup)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng(ctx.seed);
    let pool = verdict_pool(ctx, &mut rng)?;
    let mut setups = setup_samples(ctx, "serve-setup")?;
    let (live, setup) = start(ctx, root(ctx))?;
    setups.push(setup);
    let load = generate(ctx, &live, &pool, &mut rng, None);
    let peak = peak_rss_mb();
    let (weeks, running_s) = progress(&live, &load);

    let mut out = Outcome {
        weeks: max_weeks(ctx) as usize,
        workers: 1,
        ..Outcome::default()
    };
    absorb(&mut out, &load);
    let ingested = verify(ctx, live, weeks, &mut out)?;

    let p50 = median(&load.latency);
    let tail = quantile(&load.latency, TAIL);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_tail_ms", tail, "ms");
    out.metric("obs_per_s", ingested as f64 / running_s, "1/s");
    out.detail("query_p50_ms", p50, "ms");
    out.detail("query_p99_ms", tail, "ms");
    out.detail("queries", load.latency.len() as f64, "count");
    out.detail("weeks_per_s", weeks as f64 / running_s, "1/s");
    out.detail("job_weeks_at_end", weeks as f64, "count");
    out.detail("gen.late_p99_ms", quantile(&load.late, TAIL), "ms");
    out.detail("gen.late_max_ms", max(&load.late), "ms");
    Ok(out)
}

fn root(ctx: &Ctx) -> PathBuf {
    ctx.work.join("serve")
}

/// Per-layer figures of the serve layer: server start, queue wait, and
/// each request in a span named after its route.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut rng = Rng(ctx.seed);
    let pool = verdict_pool(ctx, &mut rng)?;
    let (live, _) = start(ctx, root(ctx))?;
    let load = generate(ctx, &live, &pool, &mut rng, Some(tracer));
    let (weeks, _) = progress(&live, &load);
    let mut out = Outcome {
        workers: 1,
        ..Outcome::default()
    };
    out.metric("server.start_ms", live.start_ms, "ms");
    out.metric("job.queue_wait_ms", live.queue_wait_ms, "ms");
    for (r, route) in ROUTES.iter().enumerate() {
        let lat = &load.per_route[r];
        out.metric(&format!("route.{route}.p50_ms"), median(lat), "ms");
        out.metric(&format!("route.{route}.tail_ms"), quantile(lat, TAIL), "ms");
        out.metric(&format!("route.{route}.count"), lat.len() as f64, "count");
        out.metric(
            &format!("route.{route}.failed"),
            load.route_failed[r] as f64,
            "count",
        );
    }
    out.metric("gen.late_p99_ms", quantile(&load.late, TAIL), "ms");
    out.metric("gen.late_max_ms", max(&load.late), "ms");
    absorb(&mut out, &load);
    verify(ctx, live, weeks, &mut out)?;
    Ok(out)
}
