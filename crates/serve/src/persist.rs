//! Durability for the job store: WAL journaling, periodic snapshots, and
//! the crash-recovery state machine.
//!
//! ## Files under `--state-dir`
//!
//! | file | contents |
//! |---|---|
//! | `wal.log` | append-only journal of every job transition (see [`crate::wal`]) |
//! | `snapshot.bin` | one [`Kind::Snapshot`] record holding the whole store |
//! | `snapshot.tmp` | in-flight snapshot (renamed into place atomically) |
//!
//! ## Record payloads (JSON)
//!
//! * `Created`   — `{"id", "key", "submission"}`: the canonical submission
//!   body plus its [`confmask::content_key`], written **before** the
//!   client's 202 (a job is accepted only once it is durable).
//! * `Running`   — `{"id", "attempt"}`: a worker picked the job up.
//! * `Finished`  — `{"id", "state", "error", "wall_ms", "summary"}`.
//! * `Artifacts` — `{"id", "checksum", "files"}`: written before
//!   `Finished`, so a durable `Finished` implies a durable bundle.
//! * `Removed`   — `{"id"}`: the queue refused the job after creation.
//! * `Requeued`  — `{"id", "requeues"}`: recovery re-admitted the job.
//!
//! ## Recovery state machine
//!
//! Replay folds snapshot + WAL into per-job states, *advance-only* (a
//! record never regresses a terminal job — re-applying the WAL after a
//! crash between snapshot-rename and WAL-truncate is idempotent):
//!
//! ```text
//! Created ──> queued ──Running──> running ──Finished──> done|degraded|failed
//!    ^                     │
//!    └──Requeued(+backoff)─┘   (running at crash = "interrupted")
//! ```
//!
//! A job that was `running` when the process died is classified
//! **interrupted**: if its attempt count is below the requeue budget it
//! is journaled `Requeued` and handed back with an attempt-count-aware
//! jittered backoff delay; otherwise it is journaled `Finished(failed)`.
//! A job that was `queued` is requeued as-is (waiting in a queue cannot
//! crash a daemon, so it costs no budget). Artifact bundles carry their
//! own FNV checksum over the sorted file list; a bundle that fails it is
//! dropped (the job's artifacts are *absent*, never partially served).

use crate::failpoint::{self, Action};
use crate::store::{JobRecord, JobState};
use crate::wal::{self, fnv1a, Kind, WalWriter, FNV_OFFSET};
use crate::wire;
use confmask::{ArtifactFile, DegradationReport, JobOutcome, JobSummary};
use confmask_obs::json::{escape, parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Snapshot after this many WAL appends (compaction cadence).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Default `--requeue-budget`: an interrupted job is re-admitted at most
/// this many times before recovery fails it.
pub const DEFAULT_REQUEUE_BUDGET: u32 = 3;

/// Jittered exponential backoff for requeued jobs: 100 ms doubling per
/// prior interruption, capped at 5 s, with a deterministic ±50% jitter
/// derived from the job id (so a thundering herd of interrupted jobs
/// spreads out, and tests can predict every delay).
pub fn backoff_delay(requeues: u32, id: u64) -> Duration {
    if requeues == 0 {
        return Duration::ZERO;
    }
    let base_ms = 100u64 << (u64::from(requeues) - 1).min(6);
    let base_ms = base_ms.min(5_000);
    // SplitMix64 on (id, requeues) for the jitter.
    let mut x = id ^ (u64::from(requeues) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = x % (base_ms / 2).max(1);
    Duration::from_millis(base_ms / 2 + jitter)
}

/// FNV checksum of an artifact bundle: sorted by path, then every path
/// and text folded in. Sorting makes the checksum independent of the
/// emit order, which JSON-object round-trips do not preserve.
pub fn bundle_checksum(files: &[ArtifactFile]) -> u64 {
    let mut sorted: Vec<&ArtifactFile> = files.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    let mut state = FNV_OFFSET;
    for f in sorted {
        state = fnv1a(f.path.as_bytes(), state);
        state = fnv1a(&[0], state);
        state = fnv1a(f.text.as_bytes(), state);
        state = fnv1a(&[0], state);
    }
    state
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn null_or<T: std::fmt::Display>(v: &Option<T>) -> String {
    v.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

fn payload_created(id: u64, key: u64, submission: &str) -> String {
    format!(
        "{{\"id\": {id}, \"key\": \"{key:#018x}\", \"submission\": {}}}",
        escape(submission)
    )
}

fn payload_running(id: u64, attempt: u32) -> String {
    format!("{{\"id\": {id}, \"attempt\": {attempt}}}")
}

fn payload_finished(
    id: u64,
    state: JobState,
    error: Option<&str>,
    wall_ms: Option<u64>,
    summary: Option<&JobSummary>,
) -> String {
    format!(
        "{{\"id\": {id}, \"state\": {}, \"error\": {}, \"wall_ms\": {}, \"summary\": {}}}",
        escape(state.name()),
        error.map(escape).unwrap_or_else(|| "null".into()),
        null_or(&wall_ms),
        summary.map(wire::encode_summary).unwrap_or_else(|| "null".into()),
    )
}

fn payload_artifacts(id: u64, files: &[ArtifactFile]) -> String {
    let mut out = format!(
        "{{\"id\": {id}, \"checksum\": \"{:#018x}\", \"files\": {{",
        bundle_checksum(files)
    );
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}: {}", escape(&f.path), escape(&f.text));
    }
    out.push_str("}}");
    out
}

fn payload_id_only(id: u64) -> String {
    format!("{{\"id\": {id}}}")
}

fn payload_requeued(id: u64, requeues: u32) -> String {
    format!("{{\"id\": {id}, \"requeues\": {requeues}}}")
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)?.as_u64()
}

fn get_str<'a>(doc: &'a Json, key: &'a str) -> Option<&'a str> {
    doc.get(key)?.as_str()
}

fn parse_hex_key(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn decode_files(doc: &Json) -> Option<Vec<ArtifactFile>> {
    let files = doc.get("files")?.as_obj()?;
    Some(
        files
            .iter()
            .filter_map(|(path, text)| {
                Some(ArtifactFile {
                    path: path.clone(),
                    text: text.as_str()?.to_string(),
                })
            })
            .collect(),
    )
}

fn state_from_name(name: &str) -> Option<JobState> {
    Some(match name {
        "queued" => JobState::Queued,
        "running" => JobState::Running,
        "interrupted" => JobState::Interrupted,
        "done" => JobState::Done,
        "degraded" => JobState::Degraded,
        "failed" => JobState::Failed,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Per-job state folded out of snapshot + WAL.
#[derive(Debug, Clone, Default)]
struct ReplayJob {
    state: Option<JobState>,
    error: Option<String>,
    wall_ms: Option<u64>,
    requeues: u32,
    key: u64,
    submission: Option<String>,
    summary: Option<JobSummary>,
    files: Option<Vec<ArtifactFile>>,
}

impl ReplayJob {
    fn terminal(&self) -> bool {
        self.state.is_some_and(JobState::is_terminal)
    }
}

#[derive(Debug, Default)]
struct Replay {
    jobs: BTreeMap<u64, ReplayJob>,
    max_id: u64,
    skipped: u64,
}

impl Replay {
    /// Applies one WAL record. Advance-only: terminal jobs never move.
    fn apply(&mut self, record: &wal::Record) {
        let Ok(text) = std::str::from_utf8(&record.payload) else {
            self.skipped += 1;
            return;
        };
        let Ok(doc) = parse(text) else {
            self.skipped += 1;
            return;
        };
        let Some(id) = get_u64(&doc, "id") else {
            self.skipped += 1;
            return;
        };
        self.max_id = self.max_id.max(id);
        match record.kind {
            Kind::Created => {
                let job = self.jobs.entry(id).or_default();
                if job.state.is_none() {
                    job.state = Some(JobState::Queued);
                    job.key = get_str(&doc, "key").and_then(parse_hex_key).unwrap_or(0);
                    job.submission = get_str(&doc, "submission").map(str::to_string);
                }
            }
            Kind::Running => {
                let Some(job) = self.jobs.get_mut(&id) else {
                    self.skipped += 1;
                    return;
                };
                if !job.terminal() {
                    job.state = Some(JobState::Running);
                    // The attempt that was in flight: if it dies, recovery
                    // has burned this much of the requeue budget.
                    job.requeues = get_u64(&doc, "attempt").unwrap_or(1) as u32;
                }
            }
            Kind::Finished => {
                let Some(job) = self.jobs.get_mut(&id) else {
                    self.skipped += 1;
                    return;
                };
                if job.terminal() {
                    self.skipped += 1; // duplicate Finished: first one wins
                    return;
                }
                let state = get_str(&doc, "state")
                    .and_then(state_from_name)
                    .filter(|s| s.is_terminal())
                    .unwrap_or(JobState::Failed);
                job.state = Some(state);
                job.error = get_str(&doc, "error").map(str::to_string);
                job.wall_ms = get_u64(&doc, "wall_ms");
                job.summary = doc.get("summary").and_then(wire::decode_summary);
                job.submission = None;
            }
            Kind::Artifacts => {
                let Some(job) = self.jobs.get_mut(&id) else {
                    self.skipped += 1;
                    return;
                };
                if job.files.is_some() {
                    return;
                }
                let files = decode_files(&doc);
                let recorded = get_str(&doc, "checksum").and_then(parse_hex_key);
                match (files, recorded) {
                    (Some(mut files), Some(sum)) if bundle_checksum(&files) == sum => {
                        files.sort_by(|a, b| a.path.cmp(&b.path));
                        job.files = Some(files);
                    }
                    _ => {
                        confmask_obs::counter_add("serve.recovery.corrupt_artifacts", 1);
                        confmask_obs::warn!(
                            "serve.recovery",
                            "job j{id}: artifact bundle failed its checksum; dropping it"
                        );
                    }
                }
            }
            Kind::Removed => {
                if self.jobs.get(&id).is_some_and(|j| !j.terminal()) {
                    self.jobs.remove(&id);
                }
            }
            Kind::Requeued => {
                let Some(job) = self.jobs.get_mut(&id) else {
                    self.skipped += 1;
                    return;
                };
                if !job.terminal() {
                    job.state = Some(JobState::Queued);
                    job.requeues = job.requeues.max(get_u64(&doc, "requeues").unwrap_or(0) as u32);
                }
            }
            Kind::Snapshot => {
                // A snapshot record inside the WAL is unexpected; skip.
                self.skipped += 1;
            }
        }
    }

    /// Loads the snapshot payload as the replay base.
    fn load_snapshot(&mut self, doc: &Json) {
        self.max_id = self
            .max_id
            .max(get_u64(doc, "next_id").unwrap_or(1).saturating_sub(1));
        let Some(jobs) = doc.get("jobs").and_then(Json::as_arr) else {
            return;
        };
        for j in jobs {
            let Some(id) = get_u64(j, "id") else { continue };
            self.max_id = self.max_id.max(id);
            let state = get_str(j, "state").and_then(state_from_name);
            let files = decode_files(j).map(|mut files| {
                files.sort_by(|a, b| a.path.cmp(&b.path));
                files
            });
            self.jobs.insert(
                id,
                ReplayJob {
                    state,
                    error: get_str(j, "error").map(str::to_string),
                    wall_ms: get_u64(j, "wall_ms"),
                    requeues: get_u64(j, "requeues").unwrap_or(0) as u32,
                    key: get_str(j, "key").and_then(parse_hex_key).unwrap_or(0),
                    submission: get_str(j, "submission").map(str::to_string),
                    summary: j.get("summary").and_then(wire::decode_summary),
                    files,
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery output
// ---------------------------------------------------------------------------

/// One job restored from disk.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// Store id.
    pub id: u64,
    /// Restored state: `Queued`/`Interrupted` jobs also appear in
    /// [`Recovery::requeue`]; terminal jobs are served as-is.
    pub state: JobState,
    /// Failure message, for `failed` jobs.
    pub error: Option<String>,
    /// Recorded wall-clock milliseconds, when finished.
    pub wall_ms: Option<u64>,
    /// Times recovery re-admitted this job.
    pub requeues: u32,
    /// Content key of the persisted submission.
    pub content_key: u64,
    /// The canonical submission body (non-terminal jobs only).
    pub submission: Option<String>,
    /// The reconstructed outcome (terminal successes with an intact
    /// bundle). The self-healing audit trail does not survive a restart,
    /// so `degradation` is empty.
    pub outcome: Option<JobOutcome>,
}

/// A job recovery wants re-executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequeueEntry {
    /// Store id.
    pub id: u64,
    /// Backoff delay before the job may re-enter the queue.
    pub delay: Duration,
}

/// Everything [`Persistence::open`] restored.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Id the store's allocator must resume from.
    pub next_id: u64,
    /// Every job on disk, in id order.
    pub jobs: Vec<RecoveredJob>,
    /// Non-terminal jobs to re-admit, with their backoff delays.
    pub requeue: Vec<RequeueEntry>,
}

impl Recovery {
    /// Jobs in a given state (test/assertion helper).
    pub fn count_state(&self, state: JobState) -> usize {
        self.jobs.iter().filter(|j| j.state == state).count()
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

struct WalState {
    writer: WalWriter,
    since_snapshot: u64,
}

/// The durability handle a [`crate::store::JobStore`] journals through.
pub struct Persistence {
    dir: PathBuf,
    wal: Mutex<WalState>,
    snapshot_every: u64,
    /// The WAL cut ([`Self::appends`]) the installed snapshot image was
    /// captured at. Held across a whole snapshot write, so two writes
    /// never share `snapshot.tmp` and an image never replaces a newer one.
    installed_cut: Mutex<u64>,
}

impl Persistence {
    /// Opens (or creates) a state directory, replays snapshot + WAL, and
    /// classifies non-terminal jobs for requeue. `requeue_budget` bounds
    /// how many interruptions a job survives before it is failed.
    pub fn open(
        dir: &Path,
        snapshot_every: u64,
        requeue_budget: u32,
    ) -> io::Result<(Persistence, Recovery)> {
        fs::create_dir_all(dir)?;
        // A stale in-flight snapshot is garbage from a crash mid-write.
        let _ = fs::remove_file(dir.join("snapshot.tmp"));

        let mut replay = Replay::default();
        let snapshot_path = dir.join("snapshot.bin");
        let snap_scan = wal::read_wal(&snapshot_path)?;
        if let Some(record) = snap_scan
            .records
            .iter()
            .find(|r| r.kind == Kind::Snapshot)
        {
            if let Ok(doc) = parse(std::str::from_utf8(&record.payload).unwrap_or("")) {
                replay.load_snapshot(&doc);
            }
        } else if snap_scan.discarded > 0 {
            confmask_obs::warn!(
                "serve.recovery",
                "snapshot at {} is unreadable; replaying the WAL alone",
                snapshot_path.display()
            );
        }

        let wal_path = dir.join("wal.log");
        let scan = wal::read_wal(&wal_path)?;
        if scan.discarded > 0 {
            confmask_obs::counter_add("serve.wal.torn_records", 1);
            confmask_obs::warn!(
                "serve.recovery",
                "WAL tail torn: {} byte(s) after the valid prefix discarded",
                scan.discarded
            );
        }
        for record in &scan.records {
            replay.apply(record);
        }
        confmask_obs::counter_add("serve.recovery.replayed_records", scan.records.len() as u64);
        confmask_obs::counter_add("serve.wal.skipped_records", replay.skipped);

        let writer = WalWriter::open(&wal_path, scan.valid_len)?;
        let persistence = Persistence {
            dir: dir.to_path_buf(),
            wal: Mutex::new(WalState {
                writer,
                since_snapshot: 0,
            }),
            snapshot_every: snapshot_every.max(1),
            installed_cut: Mutex::new(0),
        };

        let mut recovery = Recovery {
            next_id: replay.max_id + 1,
            ..Recovery::default()
        };
        for (id, job) in &replay.jobs {
            let mut state = job.state.unwrap_or(JobState::Queued);
            let mut error = job.error.clone();
            let mut requeues = job.requeues;
            match state {
                JobState::Running | JobState::Interrupted => {
                    // Died mid-run: interrupted. Requeue within budget —
                    // `requeues` counts runs that died, so a budget of N
                    // allows N re-admissions (budget 0 never requeues).
                    confmask_obs::counter_add("serve.recovery.interrupted_jobs", 1);
                    if requeues > requeue_budget {
                        state = JobState::Failed;
                        error = Some(format!(
                            "interrupted {requeues} time(s); requeue budget ({requeue_budget}) exhausted"
                        ));
                        confmask_obs::counter_add("serve.recovery.budget_exhausted", 1);
                        persistence.append_swallow(
                            Kind::Finished,
                            &payload_finished(*id, state, error.as_deref(), None, None),
                        );
                    } else {
                        state = JobState::Interrupted;
                        persistence
                            .append_swallow(Kind::Requeued, &payload_requeued(*id, requeues));
                        recovery.requeue.push(RequeueEntry {
                            id: *id,
                            delay: backoff_delay(requeues, *id),
                        });
                        confmask_obs::counter_add("serve.recovery.requeued_jobs", 1);
                    }
                }
                JobState::Queued => {
                    // Waiting in the queue costs no budget; requeue with
                    // the backoff its prior interruptions earned.
                    recovery.requeue.push(RequeueEntry {
                        id: *id,
                        delay: backoff_delay(requeues, *id),
                    });
                    confmask_obs::counter_add("serve.recovery.requeued_jobs", 1);
                    if requeues > 0 {
                        state = JobState::Interrupted;
                    }
                }
                JobState::Done | JobState::Degraded | JobState::Failed => {}
            }
            // `requeues` reported to clients counts re-admissions so far.
            if state == JobState::Interrupted {
                requeues = job.requeues;
            }
            let outcome = match (state.has_artifacts(), &job.files) {
                (true, Some(files)) => Some(JobOutcome {
                    artifacts: files.clone(),
                    summary: job.summary.clone().unwrap_or(JobSummary {
                        routers: 0,
                        hosts: 0,
                        fake_links: 0,
                        fake_hosts: 0,
                        fake_routers: 0,
                        config_utility: 0.0,
                        route_anonymity_avg: 0.0,
                        functionally_equivalent: true,
                    }),
                    degradation: DegradationReport { attempts: vec![] },
                }),
                (true, None) => {
                    confmask_obs::counter_add("serve.recovery.missing_artifacts", 1);
                    None
                }
                _ => None,
            };
            recovery.jobs.push(RecoveredJob {
                id: *id,
                state,
                error,
                wall_ms: job.wall_ms,
                requeues,
                content_key: job.key,
                submission: job.submission.clone(),
                outcome,
            });
        }
        confmask_obs::counter_add("serve.recovered_jobs", recovery.jobs.len() as u64);
        if !recovery.jobs.is_empty() {
            confmask_obs::info!(
                "serve.recovery",
                "recovered {} job(s) from {} ({} requeued)",
                recovery.jobs.len(),
                dir.display(),
                recovery.requeue.len()
            );
        }
        Ok((persistence, recovery))
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether an injected crash froze the journal (fail-point sweeps).
    pub fn halted(&self) -> bool {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).writer.halted()
    }

    /// Records appended so far (fail-point sweep sizing).
    pub fn appends(&self) -> u64 {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).writer.appends()
    }

    fn append(&self, kind: Kind, payload: &str) -> io::Result<()> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        wal.writer.append(kind, payload.as_bytes())?;
        wal.since_snapshot += 1;
        Ok(())
    }

    /// Appends, downgrading failures to a metric + warning. Used for
    /// transitions that already happened in memory: the daemon keeps
    /// serving with degraded durability rather than dying mid-job.
    fn append_swallow(&self, kind: Kind, payload: &str) {
        if let Err(e) = self.append(kind, payload) {
            confmask_obs::counter_add("serve.wal.append_errors", 1);
            confmask_obs::warn!("serve.wal", "append failed ({kind:?}): {e}");
        }
    }

    /// Journals a job acceptance. Errors propagate: a job is only
    /// accepted once its submission is durable.
    pub fn log_created(&self, id: u64, key: u64, submission: &str) -> io::Result<()> {
        self.append(Kind::Created, &payload_created(id, key, submission))
            .inspect_err(|_| {
                confmask_obs::counter_add("serve.wal.append_errors", 1);
            })
    }

    /// Journals a worker pickup.
    pub fn log_running(&self, id: u64, attempt: u32) {
        self.append_swallow(Kind::Running, &payload_running(id, attempt));
    }

    /// Journals a terminal transition (artifacts first for successes, so
    /// a durable `Finished` implies a durable bundle).
    pub fn log_finished(&self, record: &JobRecord) {
        // Nested under the worker's `serve.persist` span (same thread), so
        // job traces show how much of persistence is WAL fsync time.
        let _span = confmask_obs::span("serve.wal.finish");
        if let Some(outcome) = &record.outcome {
            self.append_swallow(Kind::Artifacts, &payload_artifacts(record.id, &outcome.artifacts));
        }
        let wall_ms = record.wall.map(|d| d.as_millis() as u64);
        self.append_swallow(
            Kind::Finished,
            &payload_finished(
                record.id,
                record.state,
                record.error.as_deref(),
                wall_ms,
                record.outcome.as_ref().map(|o| &o.summary),
            ),
        );
    }

    /// Journals a withdrawal (queue refused the created job).
    pub fn log_removed(&self, id: u64) {
        self.append_swallow(Kind::Removed, &payload_id_only(id));
    }

    /// Atomically claims a due snapshot, resetting the cadence counter so
    /// exactly one caller proceeds per window. The claimer must then
    /// capture an image (with [`Self::appends`]) under the store's jobs
    /// lock and hand both to [`Self::snapshot`].
    pub fn claim_snapshot_due(&self) -> bool {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        if wal.since_snapshot >= self.snapshot_every && !wal.writer.halted() {
            wal.since_snapshot = 0;
            true
        } else {
            false
        }
    }

    /// Writes `payload` as the new snapshot and compacts the WAL. The
    /// file I/O runs without any store lock held; the WAL is truncated
    /// only if no record was appended since the image was captured
    /// (`appends_at_capture`) — a raced append stays in the log, where a
    /// replay over the new snapshot tolerates it (records the snapshot
    /// already reflects are idempotent, advance-only).
    ///
    /// Snapshot writes run one at a time, and an image captured before
    /// the installed one is dropped: the newer image may already have
    /// truncated records the older one lacks.
    pub fn snapshot(&self, payload: &str, appends_at_capture: u64) {
        if let Err(e) = self.write_snapshot(payload, appends_at_capture) {
            confmask_obs::counter_add("serve.wal.append_errors", 1);
            confmask_obs::warn!("serve.wal", "snapshot failed: {e}");
        }
    }

    /// Freezes the journal exactly where it is (injected crash): every
    /// later operation is ignored, as on a dead process.
    fn halt_for_test(&self) {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).writer.halt();
    }

    fn write_snapshot(&self, payload: &str, appends_at_capture: u64) -> io::Result<()> {
        let mut installed_cut = self.installed_cut.lock().unwrap_or_else(|e| e.into_inner());
        if appends_at_capture < *installed_cut {
            confmask_obs::debug!(
                "serve.wal",
                "snapshot captured at {appends_at_capture} skipped: {} is installed",
                *installed_cut
            );
            return Ok(());
        }
        match failpoint::check("snapshot.write") {
            Some(Action::IoError) | Some(Action::DiskFull) => {
                return Err(failpoint::injected_error(Action::IoError));
            }
            Some(_) => {
                self.halt_for_test();
                return Ok(());
            }
            None => {}
        }
        let tmp = self.dir.join("snapshot.tmp");
        let bin = self.dir.join("snapshot.bin");
        {
            let mut w = WalWriter::open(&tmp, 0)?;
            w.append(Kind::Snapshot, payload.as_bytes())?;
        }
        if failpoint::check("snapshot.rename").is_some() {
            self.halt_for_test();
            return Ok(());
        }
        fs::rename(&tmp, &bin)?;
        *installed_cut = appends_at_capture;
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        if failpoint::check("snapshot.truncate").is_some() {
            self.halt_for_test();
            return Ok(());
        }
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        if wal.writer.appends() == appends_at_capture {
            wal.writer.reset()?;
        } else {
            // Something landed in the WAL after the image was captured;
            // truncating would destroy it. Keep the log — the next
            // snapshot compacts it.
            confmask_obs::counter_add("serve.wal.truncate_skipped", 1);
        }
        confmask_obs::counter_add("serve.wal.snapshots", 1);
        Ok(())
    }
}

pub(crate) fn encode_snapshot(jobs: &BTreeMap<u64, JobRecord>, next_id: u64) -> String {
    let mut out = format!("{{\"version\": 1, \"next_id\": {next_id}, \"jobs\": [");
    for (i, record) in jobs.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\": {}, \"state\": {}, \"requeues\": {}, \"key\": \"{:#018x}\", \
             \"error\": {}, \"wall_ms\": {}, \"submission\": {}, \"summary\": {}, ",
            record.id,
            escape(record.state.name()),
            record.requeues,
            record.content_key,
            record.error.as_deref().map(escape).unwrap_or_else(|| "null".into()),
            null_or(&record.wall.map(|d| d.as_millis() as u64)),
            record
                .submission
                .as_deref()
                .map(escape)
                .unwrap_or_else(|| "null".into()),
            record
                .outcome
                .as_ref()
                .map(|o| wire::encode_summary(&o.summary))
                .unwrap_or_else(|| "null".into()),
        );
        match &record.outcome {
            Some(o) => {
                let _ = write!(
                    out,
                    "\"checksum\": \"{:#018x}\", \"files\": {{",
                    bundle_checksum(&o.artifacts)
                );
                for (j, f) in o.artifacts.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}: {}", escape(&f.path), escape(&f.text));
                }
                out.push_str("}}");
            }
            None => out.push_str("\"checksum\": null, \"files\": null}"),
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::JobStore;
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "confmask-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn outcome() -> JobOutcome {
        JobOutcome {
            artifacts: vec![
                ArtifactFile {
                    path: "routers/r1.cfg".into(),
                    text: "hostname r1\ninterface eth0\n  ip address 10.0.0.1/24\n".into(),
                },
                ArtifactFile {
                    path: "hosts/h1.cfg".into(),
                    text: "hostname h1\n".into(),
                },
            ],
            summary: JobSummary {
                routers: 1,
                hosts: 1,
                fake_links: 2,
                fake_hosts: 0,
                fake_routers: 0,
                config_utility: 0.5,
                route_anonymity_avg: 2.0,
                functionally_equivalent: true,
            },
            degradation: DegradationReport { attempts: vec![] },
        }
    }

    fn sorted_artifacts() -> Vec<ArtifactFile> {
        let mut files = outcome().artifacts;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    }

    fn open(dir: &Path, every: u64, budget: u32) -> (Arc<Persistence>, Recovery) {
        let (p, r) = Persistence::open(dir, every, budget).expect("open state dir");
        (Arc::new(p), r)
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        assert_eq!(backoff_delay(0, 7), Duration::ZERO);
        for requeues in 1..12u32 {
            for id in [1u64, 42, 9_999] {
                let d = backoff_delay(requeues, id);
                assert_eq!(d, backoff_delay(requeues, id), "deterministic");
                let base = (100u64 << u64::from(requeues - 1).min(6)).min(5_000);
                let ms = d.as_millis() as u64;
                assert!(
                    ms >= base / 2 && ms < base,
                    "requeues {requeues} id {id}: {ms} ms outside [{}, {})",
                    base / 2,
                    base
                );
            }
        }
        // The jitter spreads different ids apart (thundering-herd guard).
        let delays: Vec<Duration> = (1..=8).map(|id| backoff_delay(3, id)).collect();
        assert!(delays.iter().any(|d| *d != delays[0]), "{delays:?}");
    }

    #[test]
    fn bundle_checksum_ignores_order_but_not_content() {
        let files = outcome().artifacts;
        let mut reversed = files.clone();
        reversed.reverse();
        assert_eq!(bundle_checksum(&files), bundle_checksum(&reversed));
        let mut tweaked = files.clone();
        tweaked[0].text.push('x');
        assert_ne!(bundle_checksum(&files), bundle_checksum(&tweaked));
        let mut renamed = files;
        renamed[0].path.push('x');
        assert_ne!(bundle_checksum(&renamed), bundle_checksum(&tweaked));
    }

    #[test]
    fn clean_lifecycle_round_trips_through_restart() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("lifecycle");
        let (p, r) = open(&dir, 1_000, 3);
        assert!(r.jobs.is_empty());
        let store = JobStore::durable(p, &r);
        let a = store.create_job(0xABCD, "body-a".into(), None, None).unwrap();
        store.mark_running(a);
        store.finish(a, Ok(outcome()));
        let b = store.create_job(0xB0B, "body-b".into(), None, None).unwrap();
        store.mark_running(b);
        store.finish(b, Err("pipeline exploded".into()));
        drop(store);

        let (_p, rec) = open(&dir, 1_000, 3);
        assert_eq!(rec.next_id, b + 1);
        assert!(rec.requeue.is_empty(), "terminal jobs are not requeued");
        let ra = rec.jobs.iter().find(|j| j.id == a).unwrap();
        assert_eq!(ra.state, JobState::Done);
        assert_eq!(ra.content_key, 0xABCD);
        assert!(ra.wall_ms.is_some());
        let out = ra.outcome.as_ref().expect("done job keeps its bundle");
        assert_eq!(out.artifacts, sorted_artifacts(), "byte-identical artifacts");
        assert_eq!(out.summary.fake_links, 2, "summary survives the WAL");
        assert!((out.summary.config_utility - 0.5).abs() < 1e-9);
        let rb = rec.jobs.iter().find(|j| j.id == b).unwrap();
        assert_eq!(rb.state, JobState::Failed);
        assert_eq!(rb.error.as_deref(), Some("pipeline exploded"));
        assert!(rb.outcome.is_none());
    }

    #[test]
    fn interrupted_job_is_requeued_until_the_budget_fails_it() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("budget");
        // Boot 1: the job dies mid-run (drop without finish = crash).
        let id = {
            let (p, r) = open(&dir, 1_000, 1);
            let store = JobStore::durable(p, &r);
            let id = store.create_job(1, "net".into(), None, None).unwrap();
            assert_eq!(store.mark_running(id), Some(1));
            id
        };
        // Boot 2: one interruption is within a budget of 1 — requeue.
        {
            let (p, rec) = open(&dir, 1_000, 1);
            assert_eq!(rec.count_state(JobState::Interrupted), 1);
            let j = &rec.jobs[0];
            assert_eq!(j.id, id);
            assert_eq!(j.requeues, 1);
            assert!(j.submission.is_some(), "submission survives for re-execution");
            assert_eq!(rec.requeue.len(), 1);
            let delay = rec.requeue[0].delay;
            assert_eq!(delay, backoff_delay(1, id), "attempt-count-aware backoff");
            assert!(delay >= Duration::from_millis(50) && delay < Duration::from_millis(100));
            // The re-run dies too.
            let store = JobStore::durable(p, &rec);
            assert_eq!(store.mark_running(id), Some(2), "attempt count survives");
        }
        // Boot 3: two interruptions exceed the budget — failed, durably.
        for boot in 0..2 {
            let (_p, rec) = open(&dir, 1_000, 1);
            let j = rec.jobs.iter().find(|j| j.id == id).unwrap();
            assert_eq!(j.state, JobState::Failed, "boot {boot}");
            assert!(
                j.error.as_deref().unwrap_or("").contains("requeue budget"),
                "boot {boot}: {:?}",
                j.error
            );
            assert!(rec.requeue.is_empty(), "boot {boot}");
        }
    }

    #[test]
    fn queued_jobs_requeue_without_burning_budget() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("queued");
        let id = {
            let (p, r) = open(&dir, 1_000, 0);
            let store = JobStore::durable(p, &r);
            store.create_job(2, "net".into(), None, None).unwrap()
        };
        // Even with a budget of zero, a job that never ran requeues
        // immediately across any number of restarts.
        for boot in 0..3 {
            let (_p, rec) = open(&dir, 1_000, 0);
            let j = rec.jobs.iter().find(|j| j.id == id).unwrap();
            assert_eq!(j.state, JobState::Queued, "boot {boot}");
            assert_eq!(rec.requeue, vec![RequeueEntry { id, delay: Duration::ZERO }]);
        }
    }

    #[test]
    fn snapshot_compacts_the_wal_and_restores_from_it() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("snapshot");
        let (p, r) = open(&dir, 1, 3); // snapshot on every finish
        let store = JobStore::durable(Arc::clone(&p), &r);
        let a = store.create_job(7, "body".into(), None, None).unwrap();
        store.mark_running(a);
        store.finish(a, Ok(outcome()));
        // The finish snapshotted and truncated the WAL to just its magic.
        let wal_len = fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len, wal::MAGIC.len() as u64, "WAL compacted");
        assert!(dir.join("snapshot.bin").exists());
        assert!(!dir.join("snapshot.tmp").exists(), "tmp renamed away");
        // A later job lands in the fresh WAL, after the snapshot.
        let b = store.create_job(8, "body-b".into(), None, None).unwrap();
        drop(store);
        drop(p);

        let (_p, rec) = open(&dir, 1_000, 3);
        assert_eq!(rec.next_id, b + 1);
        let ra = rec.jobs.iter().find(|j| j.id == a).unwrap();
        assert_eq!(ra.state, JobState::Done);
        assert_eq!(
            ra.outcome.as_ref().unwrap().artifacts,
            sorted_artifacts(),
            "artifacts restored from the snapshot"
        );
        let rb = rec.jobs.iter().find(|j| j.id == b).unwrap();
        assert_eq!(rb.state, JobState::Queued);
        assert_eq!(rec.requeue.len(), 1);
    }

    #[test]
    fn snapshot_never_truncates_records_appended_after_its_capture() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("truncate-guard");
        let (p, _r) = open(&dir, 1_000, 3);
        p.log_created(1, 0xA, "one").unwrap();
        // Capture an image that knows nothing about job 2...
        let cut = p.appends();
        let stale = encode_snapshot(&BTreeMap::new(), 2);
        // ...then a submission races in before the snapshot lands.
        p.log_created(2, 0xB, "two").unwrap();
        p.snapshot(&stale, cut);
        // The WAL was NOT truncated: job 2's Created record is the only
        // proof it was acknowledged, and it must survive.
        drop(p);
        let (_p, rec) = open(&dir, 1_000, 3);
        assert!(
            rec.jobs.iter().any(|j| j.id == 2),
            "acknowledged job lost to a raced snapshot truncation"
        );

        // With no raced append, the same snapshot does compact the WAL.
        let dir = tmp("truncate-clean");
        let (p, _r) = open(&dir, 1_000, 3);
        p.log_created(1, 0xA, "one").unwrap();
        let cut = p.appends();
        p.snapshot(&encode_snapshot(&BTreeMap::new(), 2), cut);
        assert_eq!(
            fs::metadata(dir.join("wal.log")).unwrap().len(),
            wal::MAGIC.len() as u64,
            "quiescent snapshot compacts the WAL"
        );
    }

    #[test]
    fn an_older_snapshot_never_replaces_a_newer_one() {
        // Two snapshots in flight: the later capture lands first and
        // compacts the WAL, so job 2's `Created` record now lives only in
        // its image. The earlier capture, which lacks job 2, must not be
        // installed over it.
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("stale-image");
        let (p, _r) = open(&dir, 1_000, 3);
        let mem = JobStore::new();
        let mut jobs = BTreeMap::new();
        let mut create = |key: u64, body: &str| {
            let id = mem.create_job(key, body.into(), None, None).unwrap();
            p.log_created(id, key, body).unwrap();
            jobs.insert(id, mem.get(id).unwrap());
            (id, encode_snapshot(&jobs, id + 1), p.appends())
        };
        let (_, image1, cut1) = create(0xA, "one");
        let (j2, image2, cut2) = create(0xB, "two");
        p.snapshot(&image2, cut2);
        assert_eq!(
            fs::metadata(dir.join("wal.log")).unwrap().len(),
            wal::MAGIC.len() as u64,
            "the newer image compacted the WAL"
        );
        p.snapshot(&image1, cut1);
        drop(p);
        let (_p, rec) = open(&dir, 1_000, 3);
        assert!(
            rec.jobs.iter().any(|j| j.id == j2),
            "acknowledged job lost to an older snapshot image"
        );
    }

    #[test]
    fn a_failed_create_append_means_the_job_was_never_accepted() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("create-err");
        let (p, r) = open(&dir, 1_000, 3);
        let store = JobStore::durable(p, &r);
        failpoint::arm("wal.append", Action::DiskFull, 1);
        let err = store.create_job(1, "net".into(), None, None).unwrap_err();
        assert!(err.to_string().contains("injected"));
        failpoint::clear();
        assert_eq!(store.counts(), crate::store::JobCounts::default());
        // The daemon keeps serving: the next submission succeeds.
        let id = store.create_job(2, "net2".into(), None, None).unwrap();
        drop(store);
        let (_p, rec) = open(&dir, 1_000, 3);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].id, id);
    }

    #[test]
    fn corrupt_artifact_bundles_are_dropped_not_served() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("corrupt-bundle");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        {
            let mut w = WalWriter::open(&path, 0).unwrap();
            w.append(Kind::Created, payload_created(1, 9, "body").as_bytes())
                .unwrap();
            w.append(Kind::Running, payload_running(1, 1).as_bytes()).unwrap();
            // A bundle whose recorded checksum does not match its files.
            let bad = format!(
                "{{\"id\": 1, \"checksum\": \"{:#018x}\", \"files\": {{\"a\": \"b\"}}}}",
                0xDEAD_BEEFu64
            );
            w.append(Kind::Artifacts, bad.as_bytes()).unwrap();
            w.append(
                Kind::Finished,
                payload_finished(1, JobState::Done, None, Some(12), None).as_bytes(),
            )
            .unwrap();
        }
        let (_p, rec) = open(&dir, 1_000, 3);
        let j = &rec.jobs[0];
        assert_eq!(j.state, JobState::Done, "the job stays terminal");
        assert!(
            j.outcome.is_none(),
            "a bundle failing its checksum is absent, never partial"
        );
    }

    #[test]
    fn wal_garbage_tail_does_not_lose_settled_jobs() {
        let _guard = failpoint::exclusive();
        failpoint::clear();
        let dir = tmp("garbage-tail");
        {
            let (p, r) = open(&dir, 1_000, 3);
            let store = JobStore::durable(p, &r);
            let a = store.create_job(3, "x".into(), None, None).unwrap();
            store.mark_running(a);
            store.finish(a, Ok(outcome()));
        }
        // A crash tears the last append: garbage beyond the valid prefix.
        let path = dir.join("wal.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7, 0, 0, 0, 1, 0xFF, 0xAA]);
        fs::write(&path, &bytes).unwrap();
        let (_p, rec) = open(&dir, 1_000, 3);
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].state, JobState::Done);
        assert_eq!(rec.jobs[0].outcome.as_ref().unwrap().artifacts, sorted_artifacts());
    }
}
