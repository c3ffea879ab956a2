//! # retrodns-serve
//!
//! The crash-tolerant long-running analysis service: the ROADMAP's "serve
//! it as a system" layer over the deterministic pipeline. Operators
//! submit multi-year retroactive analyses as *jobs*; a supervised worker
//! pool streams them week-at-a-time through the incremental analyzer,
//! checkpointing every week into a per-job directory, and an HTTP/1.1
//! query surface (hand-rolled over `std::net` — the workspace is offline,
//! same vendored-shim philosophy as serde) serves verdicts, funnels,
//! degraded sets, metrics, and verdict-change watch streams while the
//! analyses run.
//!
//! Robustness is the headline, and it is tested, not asserted: the chaos
//! harness (`experiments serve`) SIGKILLs the server at deterministic
//! points mid-analysis, restarts it, and pins the final report
//! byte-identical to an uninterrupted golden run. See `DESIGN.md` §13 for
//! the architecture and the supervision/resume state machine.
//!
//! Module map:
//!
//! * [`http`] — minimal HTTP/1.1 server (bounded, drain-on-stop) and
//!   [`client`] — the matching tiny client for tests/bench.
//! * [`data`] — job input loading (shared with the CLI).
//! * [`jobs`] — the [`JobSupervisor`]: bounded queue, admission, crash
//!   recovery, chaos hook.
//! * [`events`] — verdict-change event log backing `/watch`.
//! * [`service`] — routing and shutdown sequencing.

#![warn(missing_docs)]

pub mod client;
pub mod data;
pub mod events;
pub mod http;
pub mod jobs;
pub mod service;

pub use data::JobData;
pub use events::{EventLog, VerdictEvent};
pub use jobs::{ChaosAbort, JobSpec, JobState, JobStatus, JobSupervisor, SupervisorConfig};
pub use service::AnalysisService;

use retrodns_core::durable::write_atomic;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything `retrodns-serve` (the binary) and the harnesses need to
/// start a server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// HTTP handler threads.
    pub http_workers: usize,
    /// Supervisor tunables (checkpoint root, queue bounds, chaos).
    pub supervisor: SupervisorConfig,
    /// If set, the bound `host:port` is written here (atomically) once
    /// listening — how spawned-process harnesses discover port 0 picks.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 4,
            supervisor: SupervisorConfig::default(),
            port_file: None,
        }
    }
}

/// A running server: HTTP layer + supervisor, with ordered shutdown.
pub struct ServerHandle {
    service: Arc<AnalysisService>,
    server: http::HttpServer,
}

impl ServerHandle {
    /// Recover jobs from the checkpoint root, start the worker pool, and
    /// begin serving. Returns once listening.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, String> {
        let service = AnalysisService::new(cfg.supervisor);
        service.set_http_workers(cfg.http_workers);
        let recovered = service
            .supervisor
            .recover()
            .map_err(|e| format!("recovery: {e}"))?;
        if recovered > 0 {
            eprintln!("recovered {recovered} in-flight job(s) for resume");
        }
        service.supervisor.start();
        let handler: http::Handler = {
            let service = Arc::clone(&service);
            Arc::new(move |req: &http::Request| service.handle(req))
        };
        let server = http::HttpServer::start(&cfg.addr, cfg.http_workers, handler)
            .map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        eprintln!("retrodns-serve listening on {}", server.addr());
        if let Some(port_file) = &cfg.port_file {
            write_atomic(port_file, server.addr().to_string().as_bytes())
                .map_err(|e| format!("port file {}: {e}", port_file.display()))?;
        }
        Ok(ServerHandle { service, server })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared service state (tests poke at it directly).
    pub fn service(&self) -> &Arc<AnalysisService> {
        &self.service
    }

    /// Block until a client POSTs `/shutdown` (or
    /// [`AnalysisService::request_shutdown`] is called), then drain.
    pub fn serve_until_shutdown(self) {
        self.service.wait_shutdown();
        self.finish();
    }

    /// Graceful stop from code: request shutdown, then drain.
    pub fn shutdown(self) {
        self.service.request_shutdown();
        self.finish();
    }

    /// Ordered drain: park analyses at their next checkpointed week
    /// boundary, join the workers, then drain accepted connections.
    fn finish(self) {
        eprintln!("draining: parking jobs at week boundaries");
        self.service.supervisor.begin_shutdown();
        self.service.supervisor.join();
        self.server.stop();
        eprintln!("retrodns-serve stopped");
    }
}

/// Run a server to completion (the binary's main loop).
pub fn run(cfg: ServeConfig) -> Result<(), String> {
    let handle = ServerHandle::start(cfg)?;
    handle.serve_until_shutdown();
    Ok(())
}
