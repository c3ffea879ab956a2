//! Job supervision: queued analyses over the incremental analyzer.
//!
//! A job is a (data directory → final report) analysis run as a stream of
//! scan weeks through [`WeeklyStream`] — the driver `analyze --stream`
//! runs too — checkpointing into its own subdirectory of the supervisor's
//! checkpoint root after every week. That
//! per-week durability is the whole crash-tolerance story: a checkpoint
//! commits in one atomic file write, so a SIGKILLed server loses at most
//! the week in flight. On restart [`JobSupervisor::recover`] sweeps the
//! tmp files killed writes left, rediscovers every non-terminal job from
//! its `job.json` and re-enqueues it; [`WeeklyStream::open`] then
//! picks the stream back up, producing a final report byte-identical to
//! an uninterrupted run (the chaos harness pins exactly this). A
//! checkpoint that does not hold the first weeks of the data the job now
//! names (the data dir was replaced or shrank) is not resumed: the job
//! streams afresh.
//!
//! Every file in a job dir — `job.json`, `status.json`, `report.json`
//! and the checkpoint — is written through [`write_atomic`], so none is
//! ever torn.
//!
//! Supervision policies, all explicit:
//!
//! * **Backpressure** — the pending queue is bounded; a submit beyond
//!   capacity is rejected with [`SubmitError::QueueFull`] (HTTP 429 +
//!   `Retry-After`), never silently dropped or unboundedly buffered.
//! * **Admission** — a job must name an existing data directory whose
//!   scan file is under the configured byte cap, and its id must be a
//!   safe path segment; violations are rejected at submit time.
//! * **Degradation** — a run whose report carries degraded verdicts
//!   finishes in the explicit [`JobState::Degraded`] state, not
//!   `Failed`: the operator sees "completed, but these verdicts lack
//!   corroboration" instead of a dead job.
//! * **Graceful shutdown** — workers park their job at the next week
//!   boundary (already checkpointed), re-queue it, and exit; nothing
//!   terminal is lost and the next start resumes mid-stream.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use retrodns_core::durable::{remove_tmp_files, write_atomic};
use retrodns_core::pipeline::{PipelineConfig, Report};
use retrodns_core::{DirLock, LockError, MetricsRegistry, StreamStart, WeeklyStream};
use serde::{Deserialize, Serialize};

use crate::data::JobData;
use crate::events::EventLog;

/// Job spec file inside a job's checkpoint subdirectory.
pub const JOB_FILE: &str = "job.json";
/// Job status file (atomically rewritten at every state change).
pub const STATUS_FILE: &str = "status.json";
/// Final report archive (atomically written once, on completion).
pub use retrodns_core::incremental::REPORT_FILE;

/// What a client submits: which data to analyze and how.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job id; empty means "assign one". Must be a safe path segment
    /// (`[A-Za-z0-9._-]`, not starting with a dot).
    #[serde(default)]
    pub id: String,
    /// Data directory in the `retrodns simulate` layout.
    pub data_dir: String,
    /// Worker threads for the parallel stages (0 → 1). Any value yields
    /// a byte-identical report.
    #[serde(default)]
    pub workers: usize,
    /// Consult the DNSSEC archive at inspection (§7.1 signal).
    #[serde(default)]
    pub dnssec_signal: bool,
    /// Ingest only the first N scan weeks (0 → all). Lets a consumer
    /// re-run "the world as of week N" for delta comparisons.
    #[serde(default)]
    pub max_weeks: u32,
    /// Artificial pacing: sleep this long before each week's ingest.
    /// Test/chaos knob — keeps an analysis observably "active" so kill
    /// points and concurrent-query load land mid-run.
    #[serde(default)]
    pub week_delay_ms: u64,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// A worker is streaming weeks through the analyzer.
    Running,
    /// Finished; report has no degraded verdicts.
    Done,
    /// Finished, but some verdicts are degraded by unavailable
    /// corroboration sources — explicit, not a failure.
    Degraded,
    /// Terminal error (bad data, io failure, held lock).
    Failed,
    /// Cancelled by a client.
    Cancelled,
}

impl JobState {
    /// Terminal states never leave disk again.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Degraded | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Snapshot of a job's progress (what `GET /jobs/{id}` returns and what
/// `status.json` persists).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Weeks ingested so far.
    pub weeks_done: u32,
    /// Total weeks the data directory yields (0 until first run).
    pub weeks_total: u32,
    /// Weeks served from checkpoint at the latest (re)start — non-zero
    /// proves a resume happened.
    #[serde(default)]
    pub resumed_weeks: u32,
    /// Diagnostic for `Failed` jobs.
    #[serde(default)]
    pub error: String,
    /// Hijack verdicts in the latest report.
    #[serde(default)]
    pub hijacked: usize,
    /// Target verdicts in the latest report.
    #[serde(default)]
    pub targeted: usize,
    /// Degraded verdicts in the latest report.
    #[serde(default)]
    pub degraded: usize,
}

/// Why a submit was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// Queue at capacity — retry after the hinted seconds (429).
    QueueFull {
        /// `Retry-After` hint in seconds.
        retry_after_secs: u64,
    },
    /// A job with this id already exists (409).
    Duplicate(String),
    /// Invalid spec: bad id or missing data dir (400).
    BadRequest(String),
    /// Scan file exceeds the admission byte cap (413).
    TooLarge {
        /// Observed scan-file size.
        bytes: u64,
        /// Configured cap.
        cap: u64,
    },
    /// Filesystem error creating the job dir (500).
    Io(String),
}

/// Chaos hook: crash the process (SIGKILL-equivalent `abort`) after this
/// incarnation ingests N weeks. Counted per process lifetime, across
/// jobs — so a restarted server makes progress before the next kill, and
/// the kill schedule deterministically walks through the stream.
#[derive(Debug, Clone, Copy)]
pub struct ChaosAbort {
    /// Abort after this many weeks have been ingested in this process.
    pub after_weeks: u64,
    /// Abort *before* the week's checkpoint is written (crash at the
    /// dirtiest possible point) instead of after.
    pub before_checkpoint: bool,
}

/// Supervisor tunables.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Root directory; each job gets `<root>/<id>/`.
    pub checkpoint_root: PathBuf,
    /// Analysis worker threads (jobs running concurrently).
    pub job_workers: usize,
    /// Bounded pending-queue capacity.
    pub queue_capacity: usize,
    /// Admission cap on the job's `scans.json` size in bytes.
    pub max_data_bytes: u64,
    /// `Retry-After` hint handed to throttled clients.
    pub retry_after_secs: u64,
    /// Checkpoint-dir lock staleness budget.
    pub lock_stale_ms: u64,
    /// Optional chaos kill point.
    pub chaos: Option<ChaosAbort>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_root: PathBuf::from("retrodns-serve-state"),
            job_workers: 2,
            queue_capacity: 8,
            max_data_bytes: 512 * 1024 * 1024,
            retry_after_secs: 2,
            lock_stale_ms: retrodns_core::lock::DEFAULT_STALE_MS,
            chaos: None,
        }
    }
}

/// One job's in-memory record.
struct JobEntry {
    spec: JobSpec,
    status: JobStatus,
    cancel: Arc<AtomicBool>,
    /// Latest report — live (updated after every ingested week) while
    /// running, final afterwards. Verdict/funnel queries answer from
    /// this.
    report: Option<Arc<Report>>,
    /// Exact bytes of the archived final report (`report.json`), the
    /// byte-identity artifact.
    report_json: Option<Arc<String>>,
    /// Per-week verdict deltas observed this process lifetime.
    deltas: Vec<retrodns_core::WeekDelta>,
    /// Monotone completion stamp (run-diff events pair a finishing job
    /// with the most recently finished one over the same data dir).
    finished_at: u64,
}

struct SupState {
    queue: VecDeque<String>,
    jobs: BTreeMap<String, JobEntry>,
    finish_counter: u64,
    /// Submits that hold a queue slot while their job dir is written
    /// with the lock released (see [`JobSupervisor::submit`]).
    reserved: usize,
}

/// The supervisor: bounded queue, worker pool, per-job checkpoints.
///
/// Lock-order invariant: `state` and `metrics` are never held at the
/// same time — every method releases one before taking the other (and
/// the HTTP layer computes queue depth *before* locking metrics).
/// Holding both in either order is an AB-BA deadlock with the
/// `/metrics` handler.
pub struct JobSupervisor {
    cfg: SupervisorConfig,
    state: Mutex<SupState>,
    work: Condvar,
    events: Arc<EventLog>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    shutdown: AtomicBool,
    ready: AtomicBool,
    chaos_weeks: AtomicU64,
    next_id: AtomicU64,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && !id.starts_with('.')
        && id.len() <= 100
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

impl JobSupervisor {
    /// Create a supervisor (no recovery, no workers yet).
    pub fn new(
        cfg: SupervisorConfig,
        events: Arc<EventLog>,
        metrics: Arc<Mutex<MetricsRegistry>>,
    ) -> Arc<JobSupervisor> {
        Arc::new(JobSupervisor {
            cfg,
            state: Mutex::new(SupState {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                finish_counter: 0,
                reserved: 0,
            }),
            work: Condvar::new(),
            events,
            metrics,
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            chaos_weeks: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Configured checkpoint root.
    pub fn checkpoint_root(&self) -> &Path {
        &self.cfg.checkpoint_root
    }

    /// Has recovery finished (readiness gate)?
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Scan the checkpoint root and rebuild the job table: terminal jobs
    /// get their archived reports re-attached, non-terminal jobs are
    /// re-enqueued for resume. Must run before [`start`](Self::start);
    /// flips the readiness gate when done.
    pub fn recover(&self) -> Result<usize, String> {
        let root = &self.cfg.checkpoint_root;
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
            .map_err(|e| format!("{}: {e}", root.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join(JOB_FILE).is_file())
            .collect();
        dirs.sort();
        let mut resumed = 0;
        let mut state = self.state.lock().expect("supervisor poisoned");
        for dir in dirs {
            // No worker runs yet, so no write is in flight: a tmp file here
            // is the orphan of a killed write.
            if let Err(e) = remove_tmp_files(&dir, "") {
                eprintln!("recover: sweeping {}: {e}", dir.display());
            }
            let spec: JobSpec = match std::fs::read(dir.join(JOB_FILE))
                .map_err(|e| e.to_string())
                .and_then(|b| serde_json::from_slice(&b).map_err(|e| e.to_string()))
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("recover: skipping {}: bad {JOB_FILE}: {e}", dir.display());
                    continue;
                }
            };
            let id = spec.id.clone();
            let status: JobStatus = std::fs::read(dir.join(STATUS_FILE))
                .ok()
                .and_then(|b| serde_json::from_slice(&b).ok())
                .unwrap_or(JobStatus {
                    id: id.clone(),
                    state: JobState::Queued,
                    weeks_done: 0,
                    weeks_total: 0,
                    resumed_weeks: 0,
                    error: String::new(),
                    hijacked: 0,
                    targeted: 0,
                    degraded: 0,
                });
            // Keep id allocation ahead of any recovered `job-N` ids.
            if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
                self.next_id.fetch_max(n + 1, Ordering::SeqCst);
            }
            let mut entry = JobEntry {
                spec,
                status,
                cancel: Arc::new(AtomicBool::new(false)),
                report: None,
                report_json: None,
                deltas: Vec::new(),
                finished_at: 0,
            };
            if entry.status.state.terminal() {
                if let Ok(bytes) = std::fs::read_to_string(dir.join(REPORT_FILE)) {
                    if let Ok(report) = serde_json::from_str::<Report>(&bytes) {
                        entry.report = Some(Arc::new(report));
                        entry.report_json = Some(Arc::new(bytes));
                    }
                }
                state.finish_counter += 1;
                entry.finished_at = state.finish_counter;
            } else {
                // Interrupted mid-stream (crash or graceful park): back
                // to the queue; the worker resumes from the checkpoint.
                entry.status.state = JobState::Queued;
                let _ = write_atomic(
                    &dir.join(STATUS_FILE),
                    serde_json::to_string_pretty(&entry.status)
                        .expect("status serializes")
                        .as_bytes(),
                );
                state.queue.push_back(id.clone());
                resumed += 1;
            }
            state.jobs.insert(id, entry);
        }
        drop(state);
        self.ready.store(true, Ordering::SeqCst);
        self.work.notify_all();
        Ok(resumed)
    }

    /// Spawn the analysis worker pool.
    pub fn start(self: &Arc<Self>) {
        let mut workers = self.workers.lock().expect("supervisor poisoned");
        for i in 0..self.cfg.job_workers.max(1) {
            let sup = Arc::clone(self);
            workers.push(
                thread::Builder::new()
                    .name(format!("job-worker-{i}"))
                    .spawn(move || sup.worker_loop())
                    .expect("spawn job worker"),
            );
        }
    }

    /// Ask workers to park their jobs at the next week boundary and exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// Join the worker pool (after [`begin_shutdown`](Self::begin_shutdown)).
    pub fn join(&self) {
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("supervisor poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Submit a job. Returns its status snapshot (`Queued`).
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobStatus, SubmitError> {
        if spec.id.is_empty() {
            spec.id = format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        }
        if !valid_id(&spec.id) {
            return Err(SubmitError::BadRequest(format!(
                "invalid job id {:?}: want [A-Za-z0-9._-], not starting with '.'",
                spec.id
            )));
        }
        let scans = Path::new(&spec.data_dir).join("scans.json");
        let meta = std::fs::metadata(&scans).map_err(|_| {
            SubmitError::BadRequest(format!(
                "data_dir {:?} has no readable scans.json",
                spec.data_dir
            ))
        })?;
        if meta.len() > self.cfg.max_data_bytes {
            return Err(SubmitError::TooLarge {
                bytes: meta.len(),
                cap: self.cfg.max_data_bytes,
            });
        }
        let status = JobStatus {
            id: spec.id.clone(),
            state: JobState::Queued,
            weeks_done: 0,
            weeks_total: 0,
            resumed_weeks: 0,
            error: String::new(),
            hijacked: 0,
            targeted: 0,
            degraded: 0,
        };
        // Reserve under the lock: the job-table entry blocks duplicate
        // ids and the reservation counts against queue capacity, but the
        // id is not queued yet — the directory/spec/status writes below
        // run with the lock released, so a slow or hung filesystem never
        // stalls status/list/cancel/metrics.
        {
            let mut state = self.state.lock().expect("supervisor poisoned");
            if state.jobs.contains_key(&spec.id) {
                return Err(SubmitError::Duplicate(spec.id));
            }
            if state.queue.len() + state.reserved >= self.cfg.queue_capacity {
                return Err(SubmitError::QueueFull {
                    retry_after_secs: self.cfg.retry_after_secs,
                });
            }
            state.reserved += 1;
            state.jobs.insert(
                spec.id.clone(),
                JobEntry {
                    spec: spec.clone(),
                    status: status.clone(),
                    cancel: Arc::new(AtomicBool::new(false)),
                    report: None,
                    report_json: None,
                    deltas: Vec::new(),
                    finished_at: 0,
                },
            );
        }
        let dir = self.cfg.checkpoint_root.join(&spec.id);
        let persisted = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            write_atomic(
                &dir.join(JOB_FILE),
                serde_json::to_string_pretty(&spec)
                    .expect("spec serializes")
                    .as_bytes(),
            )?;
            write_atomic(
                &dir.join(STATUS_FILE),
                serde_json::to_string_pretty(&status)
                    .expect("status serializes")
                    .as_bytes(),
            )
        })();
        let mut state = self.state.lock().expect("supervisor poisoned");
        state.reserved -= 1;
        if let Err(e) = persisted {
            state.jobs.remove(&spec.id);
            return Err(SubmitError::Io(e.to_string()));
        }
        // A cancel may have landed on the reservation while the lock was
        // released; honor it instead of queueing a dead job (and re-persist
        // its status, since cancel()'s write can predate the job dir).
        let entry = state.jobs.get(&spec.id).expect("reserved entry");
        if entry.status.state == JobState::Cancelled {
            let cancelled = entry.status.clone();
            drop(state);
            let _ = write_atomic(
                &dir.join(STATUS_FILE),
                serde_json::to_string_pretty(&cancelled)
                    .expect("status serializes")
                    .as_bytes(),
            );
            return Ok(cancelled);
        }
        state.queue.push_back(spec.id.clone());
        drop(state);
        self.work.notify_one();
        self.count("jobs.submitted", 1);
        Ok(status)
    }

    /// Status snapshot of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let state = self.state.lock().expect("supervisor poisoned");
        state.jobs.get(id).map(|e| e.status.clone())
    }

    /// Status snapshots of all jobs, id-ordered.
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("supervisor poisoned");
        state.jobs.values().map(|e| e.status.clone()).collect()
    }

    /// Pending-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("supervisor poisoned").queue.len()
    }

    /// Cancel a job. Queued jobs cancel immediately; running jobs stop at
    /// the next week boundary. Terminal jobs return `Err`.
    pub fn cancel(&self, id: &str) -> Result<JobStatus, String> {
        let mut state = self.state.lock().expect("supervisor poisoned");
        let root = self.cfg.checkpoint_root.clone();
        let entry = state
            .jobs
            .get_mut(id)
            .ok_or_else(|| format!("no such job {id:?}"))?;
        if entry.status.state.terminal() {
            return Err(format!("job {id:?} already {:?}", entry.status.state));
        }
        entry.cancel.store(true, Ordering::SeqCst);
        if entry.status.state == JobState::Queued {
            entry.status.state = JobState::Cancelled;
            let _ = write_atomic(
                &root.join(id).join(STATUS_FILE),
                serde_json::to_string_pretty(&entry.status)
                    .expect("status serializes")
                    .as_bytes(),
            );
            let status = entry.status.clone();
            state.queue.retain(|queued| queued != id);
            drop(state);
            self.count("jobs.cancelled", 1);
            return Ok(status);
        }
        Ok(entry.status.clone())
    }

    /// Latest report (live while running, final afterwards).
    pub fn report(&self, id: &str) -> Option<Arc<Report>> {
        let state = self.state.lock().expect("supervisor poisoned");
        state.jobs.get(id).and_then(|e| e.report.clone())
    }

    /// Exact archived final-report JSON (terminal jobs only).
    pub fn report_json(&self, id: &str) -> Option<Arc<String>> {
        let state = self.state.lock().expect("supervisor poisoned");
        state.jobs.get(id).and_then(|e| e.report_json.clone())
    }

    /// Per-week deltas observed this process lifetime.
    pub fn deltas(&self, id: &str) -> Option<Vec<retrodns_core::WeekDelta>> {
        let state = self.state.lock().expect("supervisor poisoned");
        state.jobs.get(id).map(|e| e.deltas.clone())
    }

    fn count(&self, name: &str, n: u64) {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .count(&format!("serve.{name}"), n);
    }

    fn set_status(&self, id: &str, update: impl FnOnce(&mut JobStatus)) -> JobStatus {
        let mut state = self.state.lock().expect("supervisor poisoned");
        let entry = state.jobs.get_mut(id).expect("job entry exists");
        update(&mut entry.status);
        let status = entry.status.clone();
        drop(state);
        let _ = write_atomic(
            &self.cfg.checkpoint_root.join(id).join(STATUS_FILE),
            serde_json::to_string_pretty(&status)
                .expect("status serializes")
                .as_bytes(),
        );
        status
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let id = {
                let mut state = self.state.lock().expect("supervisor poisoned");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Jobs only run once recovery has rebuilt the table;
                    // a worker grabbing a half-recovered queue could race
                    // the readiness gate.
                    if self.ready.load(Ordering::SeqCst) {
                        if let Some(id) = state.queue.pop_front() {
                            break id;
                        }
                    }
                    state = self.work.wait(state).expect("supervisor poisoned");
                }
            };
            self.run_job(&id);
        }
    }

    /// Run (or resume) one job to completion, parking or cancelling at
    /// week boundaries when asked.
    fn run_job(&self, id: &str) {
        let (spec, cancel) = {
            let state = self.state.lock().expect("supervisor poisoned");
            let entry = state.jobs.get(id).expect("queued job exists");
            if entry.status.state.terminal() {
                // Cancelled between the queue pop and here — already
                // persisted by cancel(); never resurrect it.
                return;
            }
            (entry.spec.clone(), Arc::clone(&entry.cancel))
        };
        let dir = self.cfg.checkpoint_root.join(id);
        let fail = |message: String| {
            self.set_status(id, |s| {
                s.state = JobState::Failed;
                s.error = message.clone();
            });
            self.count("jobs.failed", 1);
        };

        // Exclusive hold on the job's checkpoint dir: a second process
        // pointed at the same root must not interleave writes.
        let lock = match DirLock::acquire_with(&dir, self.cfg.lock_stale_ms) {
            Ok(l) => l,
            Err(LockError::Held { pid, age_ms }) => {
                return fail(format!(
                    "checkpoint dir {} held by pid {pid} (heartbeat {age_ms} ms ago)",
                    dir.display()
                ));
            }
            Err(LockError::Io(e)) => {
                return fail(format!("checkpoint dir {}: {e}", dir.display()));
            }
        };

        // Re-check under the same lock that flips to Running: a cancel
        // landing after the terminal check above must win, not be
        // overwritten into a resurrected Running job.
        let mut started = false;
        self.set_status(id, |s| {
            if !s.state.terminal() {
                s.state = JobState::Running;
                started = true;
            }
        });
        if !started {
            return;
        }
        self.count("jobs.started", 1);

        let data = match JobData::load(Path::new(&spec.data_dir)) {
            Ok(d) => d,
            Err(e) => return fail(format!("loading data: {e}")),
        };
        let observations = data.observations();
        let inputs = data.inputs(&observations);
        let config = PipelineConfig {
            workers: spec.workers.max(1),
            inspect: retrodns_core::inspect::InspectConfig {
                use_dnssec_signal: spec.dnssec_signal,
                ..Default::default()
            },
            ..PipelineConfig::default()
        };
        let store = match retrodns_core::CheckpointStore::open(&dir) {
            Ok(s) => s,
            Err(e) => return fail(format!("checkpoint store {}: {e}", dir.display())),
        };
        // The checkpoint may predate an edit of the data dir: the stream
        // resumes only a checkpoint of this data's first weeks.
        let mut reg = MetricsRegistry::new();
        let (mut stream, start) = WeeklyStream::open(
            config,
            &observations,
            (spec.max_weeks > 0).then_some(spec.max_weeks as usize),
            &inputs,
            Some((store, &lock)),
            &mut reg,
        );
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .merge(reg.take_shard());
        let resumed = match start {
            StreamStart::Resumed(weeks) => weeks,
            StreamStart::Fresh | StreamStart::Refused => 0,
        };
        if resumed > 0 {
            self.count("jobs.resumed", 1);
            self.count("weeks.resumed", resumed as u64);
        }
        self.set_status(id, |s| {
            s.weeks_total = stream.weeks_total();
            s.weeks_done = resumed;
            s.resumed_weeks = resumed;
        });

        while !stream.done() {
            if cancel.load(Ordering::SeqCst) {
                self.set_status(id, |s| s.state = JobState::Cancelled);
                self.count("jobs.cancelled", 1);
                return;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Park: everything up to the previous week is durable.
                self.set_status(id, |s| s.state = JobState::Queued);
                let mut state = self.state.lock().expect("supervisor poisoned");
                state.queue.push_front(id.to_string());
                // Release before counting: count() takes the metrics
                // lock, and holding state across it inverts the lock
                // order against the /metrics handler.
                drop(state);
                self.count("jobs.parked", 1);
                return;
            }
            if spec.week_delay_ms > 0 {
                thread::sleep(Duration::from_millis(spec.week_delay_ms));
            }
            let mut reg = MetricsRegistry::new();
            let Some(delta) = stream.next_week(&mut reg) else {
                break;
            };
            {
                let mut metrics = self.metrics.lock().expect("metrics poisoned");
                metrics.merge(reg.take_shard());
                metrics.count("serve.weeks.ingested", 1);
            }
            self.events.append_delta(id, &delta);

            // Chaos kill point: crash as SIGKILL would — no destructors,
            // no checkpoint flush. `before_checkpoint` lands the crash
            // with a week ingested but not yet durable.
            let week = delta.week + 1;
            let kill = self.cfg.chaos.filter(|chaos| {
                self.chaos_weeks.fetch_add(1, Ordering::SeqCst) + 1 == chaos.after_weeks
            });
            if kill.is_some_and(|chaos| chaos.before_checkpoint) {
                eprintln!("chaos: aborting before checkpoint of week {week} (job {id})");
                std::process::abort();
            }
            if let Err(e) = stream.checkpoint() {
                return fail(format!("checkpoint write {}: {e}", dir.display()));
            }
            if kill.is_some() {
                eprintln!("chaos: aborting after checkpoint of week {week} (job {id})");
                std::process::abort();
            }

            let live = Arc::new(stream.analyzer().report().clone());
            let mut state = self.state.lock().expect("supervisor poisoned");
            if let Some(entry) = state.jobs.get_mut(id) {
                entry.report = Some(live);
                entry.deltas.push(delta);
            }
            drop(state);
            self.set_status(id, |s| s.weeks_done = week);
        }

        // Finished: archive the report (atomically: a crash mid-write
        // leaves a tmp file, never a torn report.json) and surface
        // degraded runs as their own state.
        let (report, json) = match stream.finish() {
            Ok((report, json)) => (report, json.expect("a job stream checkpoints")),
            Err(e) => return fail(format!("archiving report {}: {e}", dir.display())),
        };
        let final_state = if report.degraded.is_empty() {
            JobState::Done
        } else {
            JobState::Degraded
        };
        let (hijacked, targeted, degraded) = (
            report.hijacked.len(),
            report.targeted.len(),
            report.degraded.len(),
        );

        // Run-diff events: compare against the most recently finished job
        // over the same data dir (the "verdict changed between runs"
        // consumer story).
        let previous = {
            let state = self.state.lock().expect("supervisor poisoned");
            state
                .jobs
                .values()
                .filter(|e| {
                    e.spec.data_dir == spec.data_dir
                        && e.spec.id != id
                        && e.status.state.terminal()
                        && e.report.is_some()
                })
                .max_by_key(|e| e.finished_at)
                .and_then(|e| e.report.clone())
        };
        if let Some(previous) = previous {
            self.events.append_run_diff(id, &previous, &report);
        }

        {
            let mut state = self.state.lock().expect("supervisor poisoned");
            state.finish_counter += 1;
            let stamp = state.finish_counter;
            if let Some(entry) = state.jobs.get_mut(id) {
                entry.report = Some(Arc::new(report));
                entry.report_json = Some(Arc::new(json));
                entry.finished_at = stamp;
            }
        }
        self.set_status(id, |s| {
            s.state = final_state;
            s.hijacked = hijacked;
            s.targeted = targeted;
            s.degraded = degraded;
        });
        self.count(
            match final_state {
                JobState::Degraded => "jobs.degraded",
                _ => "jobs.completed",
            },
            1,
        );
        drop(lock);
    }
}
