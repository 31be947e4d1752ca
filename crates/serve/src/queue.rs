//! Persistent on-disk job queue.
//!
//! State lives in one append-only journal, `journal.jsonl`, inside the
//! daemon's state directory: every lifecycle transition (`submitted`,
//! `started`, `finished`, `cancelled`, `cancel_requested`) is one JSON
//! line, appended through [`AppendLog`] before the transition is
//! acknowledged. That survives SIGKILL; the journal is not fsynced, so
//! a power loss may drop recent transitions. A
//! restarted daemon replays the journal to rebuild the queue: jobs
//! that were queued — or running when the daemon died — come back as
//! queued (the content-addressed result cache makes re-running a
//! partially-finished sweep cheap), terminal jobs come back as
//! history, and corrupt or truncated journal lines are skipped rather
//! than fatal, mirroring the result store's corruption tolerance.
//!
//! Scheduling is strict priority order (larger first), FIFO within a
//! priority. Submissions dedup against live (queued or running) jobs
//! by spec hash: two clients asking for the same work share one job.
//! Terminal jobs do *not* dedup — re-submitting finished work is how a
//! client gets an all-cache-hit re-run.

use crate::payload::JobPayload;
use rmt3d_obs::durable::AppendLog;
use rmt3d_obs::ledger::unix_now_ms;
use rmt3d_telemetry::json::{json_str, parse, JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Journal file name inside the daemon state directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the scheduler.
    Queued,
    /// Executing on the pool.
    Running,
    /// Finished with no failures.
    Done,
    /// Finished with failed pool items (or campaign violations).
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// The wire/journal name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Aggregate counts of a finished job's pool items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobOutcome {
    /// Items that simulated.
    pub executed: u64,
    /// Items served from the result cache.
    pub cache_hits: u64,
    /// Items that failed (panics, violations, cancelled items).
    pub failures: u64,
}

/// One job in the queue.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// Stable id (`job-NNNNNN`), assigned at submission.
    pub id: String,
    /// Monotonic submission sequence; the FIFO tie-breaker.
    pub seq: u64,
    /// Parsed, validated payload.
    pub payload: JobPayload,
    /// Normalized spec object text (as journaled).
    pub spec_json: String,
    /// Content hash used for dedup and the run ledger.
    pub spec_hash: u64,
    /// Larger runs earlier.
    pub priority: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Submission wall-clock stamp.
    pub submitted_unix_ms: u64,
    /// Ledger run id, once execution registered one.
    pub run_id: Option<String>,
    /// Pool item counts, once finished.
    pub outcome: Option<JobOutcome>,
    /// First failure message, when failed.
    pub error: Option<String>,
    /// True when an in-flight cancellation was requested.
    pub cancel_requested: bool,
}

impl JobEntry {
    /// Renders the entry as one JSON object (the `jobs` listing row).
    /// Field order is fixed; hashes are 16-digit hex strings because a
    /// JSON number cannot hold a full u64 exactly.
    pub fn to_json(&self) -> String {
        let outcome = self.outcome.unwrap_or_default();
        let mut o = JsonObject::new();
        o.str("job", &self.id)
            .str("kind", self.payload.kind())
            .str("state", self.state.as_str())
            .u64("priority", self.priority)
            .str("spec_hash", &format!("{:016x}", self.spec_hash))
            .u64("total_jobs", self.payload.total_jobs())
            .u64("cache_hits", outcome.cache_hits)
            .u64("executed", outcome.executed)
            .u64("failures", outcome.failures)
            .u64("submitted_unix_ms", self.submitted_unix_ms)
            .str("run_id", self.run_id.as_deref().unwrap_or(""))
            .str("error", self.error.as_deref().unwrap_or(""))
            .raw("spec", &self.spec_json);
        o.finish()
    }
}

/// What a cancellation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cancelled {
    /// The job was still queued and is now terminally cancelled.
    Queued,
    /// The job is executing; the cooperative cancel flag is the
    /// caller's to raise, and the scheduler records the terminal state
    /// when the pool drains.
    InFlight,
}

/// The persistent priority queue.
#[derive(Debug)]
pub struct JobQueue {
    dir: PathBuf,
    journal: AppendLog,
    jobs: BTreeMap<u64, JobEntry>,
    next_seq: u64,
}

impl JobQueue {
    /// Opens (creating if necessary) a queue directory and replays its
    /// journal. Corrupt journal lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or journal
    /// cannot be created.
    pub fn open(dir: &Path) -> io::Result<JobQueue> {
        let path = dir.join(JOURNAL_FILE);
        let mut jobs: BTreeMap<u64, JobEntry> = BTreeMap::new();
        let mut next_seq = 1u64;
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                replay_line(line, &mut jobs, &mut next_seq);
            }
        }
        // Jobs that were running when the daemon died resume as queued.
        for entry in jobs.values_mut() {
            if entry.state == JobState::Running {
                entry.state = JobState::Queued;
            }
            if entry.cancel_requested && !entry.state.is_terminal() {
                // A requested cancellation that never journaled its
                // terminal transition resolves to cancelled on replay.
                entry.state = JobState::Cancelled;
            }
        }
        Ok(JobQueue {
            dir: dir.to_path_buf(),
            journal: AppendLog::open(&path)?,
            jobs,
            next_seq,
        })
    }

    /// The directory backing this queue.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Enqueues a job, or returns the live job it duplicates.
    ///
    /// # Errors
    ///
    /// Returns the payload validation error, or the journal write
    /// error (a submission that cannot be persisted is not accepted).
    pub fn submit(
        &mut self,
        kind: &str,
        spec: &JsonValue,
        priority: u64,
    ) -> Result<(String, bool), String> {
        let payload = JobPayload::parse(kind, spec)?;
        let spec_hash = payload.spec_hash();
        if let Some(live) = self.jobs.values().find(|j| {
            !j.state.is_terminal() && j.spec_hash == spec_hash && j.payload.kind() == kind
        }) {
            return Ok((live.id.clone(), true));
        }
        let seq = self.next_seq;
        let id = format!("job-{seq:06}");
        let spec_json = payload.spec_json();
        let submitted_unix_ms = unix_now_ms();
        let mut o = JsonObject::new();
        o.str("event", "submitted")
            .str("job", &id)
            .u64("seq", seq)
            .str("kind", kind)
            .u64("priority", priority)
            .str("spec_hash", &format!("{spec_hash:016x}"))
            .u64("unix_ms", submitted_unix_ms)
            .raw("spec", &spec_json);
        self.journal
            .append(&o.finish())
            .map_err(|e| format!("cannot journal submission: {e}"))?;
        self.next_seq = seq + 1;
        self.jobs.insert(
            seq,
            JobEntry {
                id: id.clone(),
                seq,
                payload,
                spec_json,
                spec_hash,
                priority,
                state: JobState::Queued,
                submitted_unix_ms,
                run_id: None,
                outcome: None,
                error: None,
                cancel_requested: false,
            },
        );
        Ok((id, false))
    }

    /// The next job to run: highest priority, then submission order.
    pub fn next_ready(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .max_by(|a, b| a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)))
            .map(|j| j.seq)
    }

    /// Marks a queued job running (journaled best-effort).
    pub fn mark_started(&mut self, id: &str, run_id: Option<&str>) {
        let mut o = JsonObject::new();
        o.str("event", "started")
            .str("job", id)
            .str("run_id", run_id.unwrap_or(""))
            .u64("unix_ms", unix_now_ms());
        let line = o.finish();
        let _ = self.journal.append(&line);
        if let Some(entry) = self.find_mut(id) {
            entry.state = JobState::Running;
            entry.run_id = run_id.map(str::to_string);
        }
    }

    /// Records a job's terminal state (journaled best-effort).
    pub fn mark_finished(
        &mut self,
        id: &str,
        state: JobState,
        outcome: JobOutcome,
        error: Option<&str>,
    ) {
        debug_assert!(state.is_terminal());
        let mut o = JsonObject::new();
        o.str("event", "finished")
            .str("job", id)
            .str("state", state.as_str())
            .u64("executed", outcome.executed)
            .u64("cache_hits", outcome.cache_hits)
            .u64("failures", outcome.failures)
            .str("error", error.unwrap_or(""))
            .u64("unix_ms", unix_now_ms());
        let line = o.finish();
        let _ = self.journal.append(&line);
        if let Some(entry) = self.find_mut(id) {
            entry.state = state;
            entry.outcome = Some(outcome);
            entry.error = error.map(str::to_string);
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown id or an already-terminal job.
    pub fn cancel(&mut self, id: &str) -> Result<Cancelled, String> {
        let Some(entry) = self.find_mut(id) else {
            return Err(format!("unknown job {id:?}"));
        };
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                let line = format!(
                    "{{\"event\":\"cancelled\",\"job\":{},\"unix_ms\":{}}}",
                    json_str(id),
                    unix_now_ms()
                );
                let _ = self.journal.append(&line);
                Ok(Cancelled::Queued)
            }
            JobState::Running => {
                entry.cancel_requested = true;
                let line = format!(
                    "{{\"event\":\"cancel_requested\",\"job\":{},\"unix_ms\":{}}}",
                    json_str(id),
                    unix_now_ms()
                );
                let _ = self.journal.append(&line);
                Ok(Cancelled::InFlight)
            }
            terminal => Err(format!("job {id} is already {}", terminal.as_str())),
        }
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<&JobEntry> {
        self.jobs.values().find(|j| j.id == id)
    }

    /// All jobs in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &JobEntry> {
        self.jobs.values()
    }

    /// Jobs currently in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.jobs.values().filter(|j| j.state == state).count()
    }

    fn find_mut(&mut self, id: &str) -> Option<&mut JobEntry> {
        self.jobs.values_mut().find(|j| j.id == id)
    }
}

fn replay_line(line: &str, jobs: &mut BTreeMap<u64, JobEntry>, next_seq: &mut u64) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let Ok(v) = parse(line) else {
        return; // corrupt line: skip, never fatal
    };
    let event = v.get("event").and_then(JsonValue::as_str).unwrap_or("");
    let find = |jobs: &mut BTreeMap<u64, JobEntry>, v: &JsonValue| -> Option<u64> {
        let id = v.get("job").and_then(JsonValue::as_str)?;
        jobs.values().find(|j| j.id == id).map(|j| j.seq)
    };
    match event {
        "submitted" => {
            let fields = (
                v.get("job").and_then(JsonValue::as_str),
                v.get("seq").and_then(JsonValue::as_u64),
                v.get("kind").and_then(JsonValue::as_str),
                v.get("spec"),
            );
            let (Some(id), Some(seq), Some(kind), Some(spec)) = fields else {
                return;
            };
            let Ok(payload) = JobPayload::parse(kind, spec) else {
                return;
            };
            let spec_hash = v
                .get("spec_hash")
                .and_then(JsonValue::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| payload.spec_hash());
            let spec_json = payload.spec_json();
            jobs.insert(
                seq,
                JobEntry {
                    id: id.to_string(),
                    seq,
                    payload,
                    spec_json,
                    spec_hash,
                    priority: v.get("priority").and_then(JsonValue::as_u64).unwrap_or(0),
                    state: JobState::Queued,
                    submitted_unix_ms: v.get("unix_ms").and_then(JsonValue::as_u64).unwrap_or(0),
                    run_id: None,
                    outcome: None,
                    error: None,
                    cancel_requested: false,
                },
            );
            *next_seq = (*next_seq).max(seq + 1);
        }
        "started" => {
            if let Some(seq) = find(jobs, &v) {
                let entry = jobs.get_mut(&seq).expect("found above");
                entry.state = JobState::Running;
                entry.run_id = v
                    .get("run_id")
                    .and_then(JsonValue::as_str)
                    .filter(|r| !r.is_empty())
                    .map(str::to_string);
            }
        }
        "finished" => {
            if let Some(seq) = find(jobs, &v) {
                let entry = jobs.get_mut(&seq).expect("found above");
                entry.state = match v.get("state").and_then(JsonValue::as_str) {
                    Some("done") => JobState::Done,
                    Some("cancelled") => JobState::Cancelled,
                    _ => JobState::Failed,
                };
                entry.outcome = Some(JobOutcome {
                    executed: v.get("executed").and_then(JsonValue::as_u64).unwrap_or(0),
                    cache_hits: v.get("cache_hits").and_then(JsonValue::as_u64).unwrap_or(0),
                    failures: v.get("failures").and_then(JsonValue::as_u64).unwrap_or(0),
                });
                entry.error = v
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .filter(|e| !e.is_empty())
                    .map(str::to_string);
            }
        }
        "cancelled" => {
            if let Some(seq) = find(jobs, &v) {
                jobs.get_mut(&seq).expect("found above").state = JobState::Cancelled;
            }
        }
        "cancel_requested" => {
            if let Some(seq) = find(jobs, &v) {
                jobs.get_mut(&seq).expect("found above").cancel_requested = true;
            }
        }
        _ => {} // unknown event: forward-compatible skip
    }
}
