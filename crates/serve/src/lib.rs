//! # confmask-serve — anonymization as a service
//!
//! A long-running daemon turning the one-shot ConfMask pipeline into a
//! shared service: an HTTP/1.1 JSON API over `std::net::TcpListener`
//! (zero dependencies, consistent with the workspace's offline policy), a
//! **bounded** MPMC job queue with 429 backpressure, and a fixed worker
//! pool running [`confmask::run_job`] with the PR 1 self-healing retry
//! budget and the PR 2 observability substrate.
//!
//! ## API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a config bundle + params → `202 {"id": "j1"}` |
//! | `GET /v1/jobs/{id}` | job state machine: `queued → running → done \| degraded \| failed`, with the `DegradationReport` inlined |
//! | `GET /v1/jobs/{id}/artifacts` | the anonymized configs as a multi-file JSON bundle |
//! | `GET /v1/jobs/{id}/trace` | the job's assembled span tree (request → queue wait → worker → pipeline → persistence) |
//! | `GET /metrics` | Prometheus text exposition of the metrics registry |
//! | `GET /metrics-json` | the full JSON observability report |
//! | `GET /healthz` | liveness + queue/worker/job snapshot |
//! | `POST /v1/shutdown` | graceful: stop accepting, drain workers, exit |
//!
//! A full queue answers `429 Too Many Requests` with `Retry-After` —
//! submission never blocks. Shutdown closes the queue: already-accepted
//! jobs are drained (none lost, none double-executed — see the queue
//! tests), then [`Server::run`] returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod failpoint;
pub mod http;
pub mod persist;
pub mod queue;
mod router;
pub mod store;
#[cfg(test)]
mod sweep_tests;
pub mod wal;
pub mod wire;
mod worker;

use crate::persist::{Persistence, Recovery};
use crate::queue::Bounded;
use crate::store::{JobCounts, JobStore};
use crate::worker::QueuedJob;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the `confmask serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads; 0 means available parallelism.
    pub workers: usize,
    /// Queue capacity (`--queue-cap`); beyond it submissions get 429.
    pub queue_cap: usize,
    /// Per-stage deadline applied to jobs that did not request their own
    /// (`--job-timeout-secs`).
    pub job_timeout: Option<Duration>,
    /// Durable state directory (`--state-dir`): WAL + snapshots live
    /// here and jobs survive crashes. `None` keeps the store in memory.
    pub state_dir: Option<PathBuf>,
    /// How many times a crash-interrupted job is re-admitted before it is
    /// failed (`--requeue-budget`).
    pub requeue_budget: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7077".to_string(),
            workers: 0,
            queue_cap: 64,
            job_timeout: None,
            state_dir: None,
            requeue_budget: persist::DEFAULT_REQUEUE_BUDGET,
        }
    }
}

/// Shared server state: the queue, the store, and the shutdown switch.
pub struct ServerState {
    pub(crate) queue: Arc<Bounded<QueuedJob>>,
    pub(crate) store: Arc<JobStore>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) workers: usize,
    addr: SocketAddr,
}

impl ServerState {
    /// Wakes the accept loop (it blocks in `accept`) with a throwaway
    /// local connection so it can observe the shutdown flag.
    fn wake(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

/// The daemon: a bound listener plus its worker pool. Construct with
/// [`Server::bind`], then [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: worker::WorkerPool,
    requeue: Option<JoinHandle<()>>,
}

/// Registers every `serve.*` metric at zero so the metric set is stable
/// regardless of traffic (the same convention the simulator uses for
/// `sim.*`).
fn register_metrics() {
    // The config codec's parse counters (per-vendor included) — the
    // daemon parses bundles on every submission.
    confmask_config::register_metrics();
    confmask_obs::counter_add("serve.jobs_accepted", 0);
    confmask_obs::counter_add("serve.jobs_rejected", 0);
    confmask_obs::counter_add("serve.jobs_done", 0);
    confmask_obs::counter_add("serve.jobs_failed", 0);
    confmask_obs::gauge_set("serve.queue_depth", 0.0);
    confmask_obs::gauge_set("serve.http.in_flight", 0.0);
    confmask_obs::histogram_register("serve.job_wall_ms");
    // Per-phase job latencies (milliseconds): the queue hop, the pipeline
    // run, and the completion persistence — the numbers the serve-mix
    // benchmark reports and every serve-scaling change moves.
    confmask_obs::histogram_register("serve.queue_wait_ms");
    confmask_obs::histogram_register("serve.run_ms");
    confmask_obs::histogram_register("serve.persist_ms");
    confmask_obs::histogram_register("serve.queue_depth_sampled");
    // Per-endpoint end-to-end request latencies (the router's closed
    // name set, see `router::endpoint_metric`).
    confmask_obs::histogram_register("serve.http.submit_ms");
    confmask_obs::histogram_register("serve.http.status_ms");
    confmask_obs::histogram_register("serve.http.artifacts_ms");
    confmask_obs::histogram_register("serve.http.trace_ms");
    confmask_obs::histogram_register("serve.http.health_ms");
    confmask_obs::histogram_register("serve.http.metrics_ms");
    confmask_obs::histogram_register("serve.http.shutdown_ms");
    confmask_obs::histogram_register("serve.http.other_ms");
    // Trace-index pressure (bounded per-trace span buffer in obs).
    confmask_obs::counter_add("obs.traces_evicted", 0);
    confmask_obs::counter_add("obs.trace_spans_dropped", 0);
    // Durability layer: registered at zero so the metric set is identical
    // whether or not `--state-dir` is in use.
    confmask_obs::counter_add("serve.wal.appends", 0);
    confmask_obs::counter_add("serve.wal.bytes", 0);
    confmask_obs::counter_add("serve.wal.append_errors", 0);
    confmask_obs::counter_add("serve.wal.snapshots", 0);
    confmask_obs::counter_add("serve.wal.torn_records", 0);
    confmask_obs::counter_add("serve.wal.skipped_records", 0);
    confmask_obs::counter_add("serve.recovery.replayed_records", 0);
    confmask_obs::counter_add("serve.recovery.requeued_jobs", 0);
    confmask_obs::counter_add("serve.recovery.interrupted_jobs", 0);
    confmask_obs::counter_add("serve.recovery.budget_exhausted", 0);
    confmask_obs::counter_add("serve.recovery.corrupt_artifacts", 0);
    confmask_obs::counter_add("serve.recovery.missing_artifacts", 0);
    confmask_obs::counter_add("serve.recovered_jobs", 0);
    confmask_obs::counter_add("serve.store.invalid_transition", 0);
    // The workers share the process-wide simulation cache and executor;
    // their metric sets must likewise be complete before the first job
    // arrives. The executor pool is sized by CONFMASK_THREADS (or
    // available parallelism), independent of `--workers`: workers bound
    // job concurrency, the executor bounds per-job simulation fan-out.
    confmask_sim_delta::register_metrics();
    confmask_exec::register_metrics();
    // Every strategy a submission can name (`anon.strategy.*` plus the
    // `netcloak.*` expansion counters): the daemon's metric set must not
    // depend on which strategies the traffic happened to exercise.
    confmask::register_strategy_metrics();
}

impl Server {
    /// Binds the listener, spawns the worker pool, and registers the
    /// `serve.*` metrics. Enables global metrics collection — a daemon's
    /// `/metrics` endpoint must be live from the first request.
    pub fn bind(opts: &ServeOptions) -> io::Result<Server> {
        confmask_obs::set_enabled(true);
        register_metrics();
        failpoint::load_env();
        let listener = TcpListener::bind(&opts.addr)?;
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
        } else {
            opts.workers
        };
        let queue = Arc::new(Bounded::new(opts.queue_cap));
        let (store, recovery) = match &opts.state_dir {
            Some(dir) => {
                let (persistence, recovery) =
                    Persistence::open(dir, persist::DEFAULT_SNAPSHOT_EVERY, opts.requeue_budget)?;
                let store = JobStore::durable(Arc::new(persistence), &recovery);
                (Arc::new(store), Some(recovery))
            }
            None => (Arc::new(JobStore::new()), None),
        };
        let pool = worker::spawn(
            workers,
            Arc::clone(&queue),
            Arc::clone(&store),
            opts.job_timeout,
        );
        let requeue = recovery
            .filter(|r| !r.requeue.is_empty())
            .map(|r| spawn_requeue(r, Arc::clone(&queue), Arc::clone(&store)));
        let state = Arc::new(ServerState {
            queue,
            store,
            shutdown: AtomicBool::new(false),
            workers,
            addr: listener.local_addr()?,
        });
        Ok(Server {
            listener,
            state,
            pool,
            requeue,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Serves until `POST /v1/shutdown`, then drains the worker pool and
    /// returns the final per-state job counts. Connection handlers run on
    /// short-lived threads; the job queue, not the connection count, is
    /// the admission control.
    pub fn run(self) -> io::Result<JobCounts> {
        // Queue-depth sampler: the gauge is otherwise only updated on
        // push/pop edges, so a stuck queue would freeze it at a stale
        // value. A 50 ms cadence also feeds the sampled-depth histogram
        // (p99 backlog at saturation).
        let sampler = {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("confmask-sampler".to_string())
                .spawn(move || {
                    while !state.shutdown.load(Ordering::Acquire) {
                        let depth = state.queue.len();
                        confmask_obs::gauge_set("serve.queue_depth", depth as f64);
                        confmask_obs::observe("serve.queue_depth_sampled", depth as u64);
                        std::thread::sleep(Duration::from_millis(50));
                    }
                })
                .expect("spawn sampler thread")
        };
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    let _ = std::thread::Builder::new()
                        .name("confmask-http".to_string())
                        .spawn(move || handle_connection(stream, &state));
                }
                Err(e) => {
                    confmask_obs::warn!("serve", "accept failed: {e}");
                }
            }
        }
        // Drain: the queue is already closed by the shutdown handler
        // (closing again is idempotent); workers finish what was accepted.
        self.state.queue.close();
        if let Some(h) = self.requeue {
            let _ = h.join();
        }
        self.pool.join();
        let _ = sampler.join();
        let counts = self.state.store.counts();
        confmask_obs::info!(
            "serve",
            "drained: {} done, {} degraded, {} failed",
            counts.done,
            counts.degraded,
            counts.failed
        );
        Ok(counts)
    }
}

/// Re-admits recovered jobs on a dedicated thread, honoring each job's
/// jittered backoff delay. Pushes retry through transient queue-full
/// backpressure; a closed queue (shutdown) leaves the remaining jobs
/// non-terminal in the durable store, where the next boot's recovery
/// picks them up again.
fn spawn_requeue(
    recovery: Recovery,
    queue: Arc<Bounded<QueuedJob>>,
    store: Arc<JobStore>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("confmask-requeue".to_string())
        .spawn(move || {
            let boot = Instant::now();
            let mut entries: Vec<(Duration, u64)> = recovery
                .requeue
                .iter()
                .map(|e| (e.delay, e.id))
                .collect();
            entries.sort();
            let submissions: std::collections::BTreeMap<u64, &str> = recovery
                .jobs
                .iter()
                .filter_map(|j| Some((j.id, j.submission.as_deref()?)))
                .collect();
            'entries: for (delay, id) in entries {
                if let Some(remaining) = delay.checked_sub(boot.elapsed()) {
                    std::thread::sleep(remaining);
                }
                let Some(sub) = submissions
                    .get(&id)
                    .and_then(|s| wire::decode_submit(s.as_bytes()).ok())
                else {
                    store.finish(
                        id,
                        Err("recovered submission no longer decodes".to_string()),
                    );
                    continue;
                };
                // A requeued job gets a fresh trace (the original request's
                // trace belongs to the process that crashed); the store's
                // record points at whichever trace actually ran the job.
                let trace = confmask_obs::TraceId::mint();
                store.set_trace(id, trace.get());
                confmask_obs::retain_trace(trace.get());
                let mut job = QueuedJob {
                    id,
                    configs: sub.configs,
                    params: sub.params,
                    vendor: sub.vendor,
                    strategy: sub.strategy,
                    ctx: confmask_obs::SpanContext::root(trace),
                    enqueued_us: confmask_obs::now_us(),
                };
                loop {
                    match queue.push(job) {
                        Ok(_) => {
                            confmask_obs::info!("serve.recovery", "requeued job j{id}");
                            break;
                        }
                        Err(queue::PushError::Full(back)) => {
                            job = back;
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        Err(queue::PushError::Closed(_)) => break 'entries,
                    }
                }
            }
        })
        .expect("spawn requeue thread")
}

/// Requests currently being handled (drives the `serve.http.in_flight`
/// gauge; process-global, like the metrics registry it feeds).
static IN_FLIGHT: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(0);

/// RAII in-flight accounting: increments on open, decrements on every
/// exit path (including handler panics caught by the thread boundary).
struct InFlight;

impl InFlight {
    fn enter() -> InFlight {
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        // Publish a fresh read rather than the RMW's local result: two
        // racing threads can still order their gauge_set calls either way,
        // but each published value reflects the counter at publish time,
        // so the gauge re-converges on the very next update instead of
        // holding a value the counter never had.
        confmask_obs::gauge_set(
            "serve.http.in_flight",
            IN_FLIGHT.load(Ordering::Relaxed) as f64,
        );
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        confmask_obs::gauge_set(
            "serve.http.in_flight",
            IN_FLIGHT.load(Ordering::Relaxed) as f64,
        );
    }
}

/// Handles one connection: read a request, route it, write the response.
/// `Connection: close` keeps the protocol state machine trivial; clients
/// poll with fresh connections.
///
/// Every parsed request is stamped with a fresh [`confmask_obs::TraceId`]
/// — echoed back as `X-Request-Id` — and handled under a `serve.request`
/// root span whose context rides into the job queue on submissions, so a
/// job's worker/pipeline/persistence spans stitch under the HTTP request
/// that accepted it.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _in_flight = InFlight::enter();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    match http::read_request(&mut reader) {
        Err(_) | Ok(None) => {}
        Ok(Some(Err(e))) => {
            let _ = http::Response::error(e.status, &e.message).write_to(&mut writer);
        }
        Ok(Some(Ok(req))) => {
            let trace = confmask_obs::TraceId::mint();
            let request_id = trace.as_hex();
            let span = confmask_obs::Span::child_of(
                "serve.request",
                confmask_obs::SpanContext::root(trace),
            );
            let response = router::route(&req, state, span.context())
                .with_header("X-Request-Id", request_id.clone());
            let status = response.status;
            let bytes = response.body.len();
            // Submissions carry the resolved strategy back in a header;
            // the access log reports it so operators can attribute load
            // per strategy without parsing bodies.
            let strategy = response
                .extra_headers
                .iter()
                .find(|(name, _)| *name == "X-Strategy")
                .map(|(_, value)| format!(" strategy={value}"))
                .unwrap_or_default();
            let _ = response.write_to(&mut writer);
            let elapsed = span.finish();
            confmask_obs::observe(
                router::endpoint_metric(&req.method, &req.path),
                elapsed.as_millis() as u64,
            );
            // The structured access log: one info line per request on
            // stderr (stdout stays machine-readable).
            confmask_obs::info!(
                "serve.http",
                "{} {} {status} {bytes}B {:.1}ms {request_id}{strategy}",
                req.method,
                req.path,
                elapsed.as_secs_f64() * 1_000.0
            );
            if req.method == "POST" && req.path == "/v1/shutdown" {
                state.wake();
            }
        }
    }
}
