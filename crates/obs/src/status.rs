//! Live run status: a telemetry sink that folds job lifecycle events
//! into a `status.json` document, rewritten atomically at a bounded
//! interval.
//!
//! [`RunObserver`] implements [`Sink`], so the engines attach it as the
//! second half of a tee sink — the trace writer sees every event, and
//! so does the observer. It aggregates [`Event::JobStarted`],
//! [`Event::JobFinished`] (including the previously-unaggregated ETA
//! stream), [`Event::JobCacheHit`], [`Event::JobStalled`],
//! [`Event::PoolStats`], and [`Event::CacheStats`] into a [`RunStatus`]
//! and writes it through [`write_atomic`], so a concurrent
//! `rmt3d status --follow` always reads a complete JSON document.
//!
//! Writes are rate-limited: at most one per
//! [`RunObserver::with_interval`] period (default 250 ms), plus a final
//! forced write from [`RunObserver::finalize`]. Write errors never
//! interrupt the run — status is advisory — but the last error is kept
//! and surfaced by `finalize`.
//!
//! Schema: deterministic fields (counts, per-job states, cache totals)
//! are top-level; every clock- or schedule-dependent field lives under
//! the `"wall"` object (`updated_unix_ms`, `elapsed_nanos`,
//! `eta_nanos`, per-job timings, stall diagnostics, pool utilization).

use crate::durable::write_atomic;
use crate::ledger::unix_now_ms;
use rmt3d_telemetry::json::{parse, JsonObject, JsonValue};
use rmt3d_telemetry::{Event, MetricsRegistry, Sink};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Lifecycle state of one job, as rendered in `status.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobPhase {
    /// Not yet claimed by a worker.
    #[default]
    Pending,
    /// Claimed and simulating.
    Running,
    /// Running, and the watchdog has flagged it as silent too long.
    Stalled,
    /// Finished successfully.
    Done,
    /// Finished by panicking (isolated by the pool).
    Failed,
    /// Satisfied from the result cache without simulating.
    Cached,
}

impl JobPhase {
    /// The string stored in `status.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Pending => "pending",
            JobPhase::Running => "running",
            JobPhase::Stalled => "stalled",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cached => "cached",
        }
    }

    fn from_str(s: &str) -> JobPhase {
        match s {
            "running" => JobPhase::Running,
            "stalled" => JobPhase::Stalled,
            "done" => JobPhase::Done,
            "failed" => JobPhase::Failed,
            "cached" => JobPhase::Cached,
            _ => JobPhase::Pending,
        }
    }

    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Cached)
    }
}

/// Pool utilization totals from [`Event::PoolStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolTotals {
    /// Worker threads the pool ran.
    pub workers: u64,
    /// Jobs that executed (cache misses).
    pub executed: u64,
    /// Jobs served by the cache probe.
    pub cache_hits: u64,
    /// Executed jobs that panicked.
    pub failed: u64,
    /// Jobs claimed off another worker's round-robin slot (wall).
    pub steals: u64,
    /// Total worker busy nanoseconds (wall).
    pub busy_nanos: u64,
    /// Total worker idle nanoseconds (wall).
    pub idle_nanos: u64,
    /// Pool start-to-drain nanoseconds (wall).
    pub wall_nanos: u64,
}

/// Result-cache totals from [`Event::CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheTotals {
    /// Probes served from disk.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Entries that failed key verification (degraded to misses).
    pub verify_failures: u64,
    /// Entries on disk after the run.
    pub entries: u64,
    /// Total entry bytes on disk after the run.
    pub bytes: u64,
}

/// One watchdog stall record from [`Event::JobStalled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallInfo {
    /// Job index.
    pub job: u64,
    /// Job label.
    pub label: String,
    /// Silence when flagged, nanoseconds (wall).
    pub elapsed_nanos: u64,
    /// Median finished-job duration at flag time, nanoseconds (wall).
    pub median_nanos: u64,
}

/// Per-job wall timings, offsets from the observer's start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct JobWall {
    start_nanos: u64,
    end_nanos: u64,
    wall_nanos: u64,
}

/// Everything `status.json` records about a run in flight.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStatus {
    /// The run's name (matches the manifest).
    pub run_id: String,
    /// Run kind: `sweep`, `campaign`, or `profile`.
    pub kind: String,
    /// `running` until finalized, then the run outcome (`ok`/`failed`).
    pub state: String,
    /// Total jobs launched.
    pub total: u64,
    /// Jobs in a terminal state (executed + cached).
    pub done: u64,
    /// Jobs that executed (cache misses), including failures.
    pub executed: u64,
    /// Jobs served by the result cache.
    pub cache_hits: u64,
    /// Executed jobs that panicked.
    pub failures: u64,
    /// Per-job labels, filled as jobs are first seen.
    pub labels: Vec<String>,
    /// Per-job lifecycle states.
    pub phases: Vec<JobPhase>,
    /// Pool utilization, present once the pool drains.
    pub pool: Option<PoolTotals>,
    /// Cache totals, present when a cache was attached.
    pub cache: Option<CacheTotals>,
    /// Watchdog stall records, in flag order (wall).
    pub stalls: Vec<StallInfo>,
    /// Last write stamp, Unix milliseconds (wall).
    pub updated_unix_ms: u64,
    /// Nanoseconds since the observer was created (wall).
    pub elapsed_nanos: u64,
    /// Latest ETA from the pool's [`Event::JobFinished`] stream (wall).
    pub eta_nanos: u64,
    /// Per-job wall timings (wall).
    job_walls: Vec<JobWall>,
}

impl RunStatus {
    /// An empty status for a run of `total` jobs.
    pub fn new(run_id: &str, kind: &str, total: u64) -> RunStatus {
        RunStatus {
            run_id: run_id.to_string(),
            kind: kind.to_string(),
            state: String::from("running"),
            total,
            labels: vec![String::new(); total as usize],
            phases: vec![JobPhase::Pending; total as usize],
            job_walls: vec![JobWall::default(); total as usize],
            ..RunStatus::default()
        }
    }

    fn ensure_job(&mut self, job: u64, total: u64) {
        if total > self.total {
            self.total = total;
        }
        let need = (self.total.max(job + 1)) as usize;
        if self.labels.len() < need {
            self.labels.resize(need, String::new());
            self.phases.resize(need, JobPhase::Pending);
            self.job_walls.resize(need, JobWall::default());
        }
    }

    /// Per-job wall start/end/duration offsets (wall). Indexed like
    /// [`RunStatus::labels`]; zeros for jobs not yet started.
    pub fn job_wall(&self, job: usize) -> (u64, u64, u64) {
        self.job_walls
            .get(job)
            .map(|w| (w.start_nanos, w.end_nanos, w.wall_nanos))
            .unwrap_or((0, 0, 0))
    }

    /// Serializes the status as one JSON document; see the module docs
    /// for the schema.
    pub fn to_json(&self) -> String {
        let mut jobs = String::from("[");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                jobs.push(',');
            }
            let mut j = JsonObject::new();
            j.u64("job", i as u64)
                .str("label", &self.labels[i])
                .str("state", phase.as_str());
            jobs.push_str(&j.finish());
        }
        jobs.push(']');

        let mut wall = JsonObject::new();
        wall.u64("updated_unix_ms", self.updated_unix_ms)
            .u64("elapsed_nanos", self.elapsed_nanos)
            .u64("eta_nanos", self.eta_nanos);
        if let Some(p) = &self.pool {
            wall.u64("steals", p.steals)
                .u64("busy_nanos", p.busy_nanos)
                .u64("idle_nanos", p.idle_nanos)
                .u64("pool_wall_nanos", p.wall_nanos);
        }
        let mut wall_jobs = String::from("[");
        let mut first = true;
        for (i, w) in self.job_walls.iter().enumerate() {
            if *w == JobWall::default() {
                continue;
            }
            if !first {
                wall_jobs.push(',');
            }
            first = false;
            let mut j = JsonObject::new();
            j.u64("job", i as u64)
                .u64("start_nanos", w.start_nanos)
                .u64("end_nanos", w.end_nanos)
                .u64("wall_nanos", w.wall_nanos);
            wall_jobs.push_str(&j.finish());
        }
        wall_jobs.push(']');
        wall.raw("jobs", &wall_jobs);
        let mut stalls = String::from("[");
        for (i, s) in self.stalls.iter().enumerate() {
            if i > 0 {
                stalls.push(',');
            }
            let mut j = JsonObject::new();
            j.u64("job", s.job)
                .str("label", &s.label)
                .u64("elapsed_nanos", s.elapsed_nanos)
                .u64("median_nanos", s.median_nanos);
            stalls.push_str(&j.finish());
        }
        stalls.push(']');
        wall.raw("stalls", &stalls);

        let mut o = JsonObject::new();
        o.str("run_id", &self.run_id)
            .str("kind", &self.kind)
            .str("state", &self.state)
            .u64("total", self.total)
            .u64("done", self.done)
            .u64("executed", self.executed)
            .u64("cache_hits", self.cache_hits)
            .u64("failures", self.failures)
            .raw("jobs", &jobs);
        if let Some(p) = &self.pool {
            let mut pool = JsonObject::new();
            pool.u64("workers", p.workers)
                .u64("executed", p.executed)
                .u64("cache_hits", p.cache_hits)
                .u64("failed", p.failed);
            o.raw("pool", &pool.finish());
        }
        if let Some(c) = &self.cache {
            let mut cache = JsonObject::new();
            cache
                .u64("hits", c.hits)
                .u64("misses", c.misses)
                .u64("verify_failures", c.verify_failures)
                .u64("entries", c.entries)
                .u64("bytes", c.bytes);
            o.raw("cache", &cache.finish());
        }
        o.raw("wall", &wall.finish());
        o.finish()
    }

    /// Parses a document written by [`RunStatus::to_json`].
    pub fn from_json(text: &str) -> Result<RunStatus, String> {
        let v = parse(text)?;
        let str_of = |key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let u64_of = |node: &JsonValue, key: &str| -> u64 {
            node.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
        };
        let mut status = RunStatus {
            run_id: str_of("run_id"),
            kind: str_of("kind"),
            state: str_of("state"),
            total: u64_of(&v, "total"),
            done: u64_of(&v, "done"),
            executed: u64_of(&v, "executed"),
            cache_hits: u64_of(&v, "cache_hits"),
            failures: u64_of(&v, "failures"),
            ..RunStatus::default()
        };
        if status.run_id.is_empty() {
            return Err("status: missing run_id".into());
        }
        if let Some(JsonValue::Arr(jobs)) = v.get("jobs") {
            for j in jobs {
                status.labels.push(
                    j.get("label")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                );
                status.phases.push(JobPhase::from_str(
                    j.get("state").and_then(JsonValue::as_str).unwrap_or(""),
                ));
            }
        }
        status
            .job_walls
            .resize(status.labels.len(), JobWall::default());
        let mut pool = PoolTotals::default();
        let mut have_pool = false;
        if let Some(p) = v.get("pool") {
            have_pool = true;
            pool.workers = u64_of(p, "workers");
            pool.executed = u64_of(p, "executed");
            pool.cache_hits = u64_of(p, "cache_hits");
            pool.failed = u64_of(p, "failed");
        }
        if let Some(c) = v.get("cache") {
            status.cache = Some(CacheTotals {
                hits: u64_of(c, "hits"),
                misses: u64_of(c, "misses"),
                verify_failures: u64_of(c, "verify_failures"),
                entries: u64_of(c, "entries"),
                bytes: u64_of(c, "bytes"),
            });
        }
        if let Some(w) = v.get("wall") {
            status.updated_unix_ms = u64_of(w, "updated_unix_ms");
            status.elapsed_nanos = u64_of(w, "elapsed_nanos");
            status.eta_nanos = u64_of(w, "eta_nanos");
            if have_pool {
                pool.steals = u64_of(w, "steals");
                pool.busy_nanos = u64_of(w, "busy_nanos");
                pool.idle_nanos = u64_of(w, "idle_nanos");
                pool.wall_nanos = u64_of(w, "pool_wall_nanos");
            }
            if let Some(JsonValue::Arr(jobs)) = w.get("jobs") {
                for j in jobs {
                    let idx = u64_of(j, "job") as usize;
                    if idx < status.job_walls.len() {
                        status.job_walls[idx] = JobWall {
                            start_nanos: u64_of(j, "start_nanos"),
                            end_nanos: u64_of(j, "end_nanos"),
                            wall_nanos: u64_of(j, "wall_nanos"),
                        };
                    }
                }
            }
            if let Some(JsonValue::Arr(stalls)) = w.get("stalls") {
                for s in stalls {
                    status.stalls.push(StallInfo {
                        job: u64_of(s, "job"),
                        label: s
                            .get("label")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        elapsed_nanos: u64_of(s, "elapsed_nanos"),
                        median_nanos: u64_of(s, "median_nanos"),
                    });
                }
            }
        }
        if have_pool {
            status.pool = Some(pool);
        }
        Ok(status)
    }

    /// Renders the status for a terminal: one-line summary, progress
    /// bar, counts, ETA, and any stall diagnostics.
    pub fn format_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run {}  kind={}  state={}",
            self.run_id, self.kind, self.state
        );
        const WIDTH: usize = 40;
        let filled = if self.total == 0 {
            0
        } else {
            (self.done as usize * WIDTH) / self.total as usize
        };
        let running = self
            .phases
            .iter()
            .filter(|p| matches!(p, JobPhase::Running | JobPhase::Stalled))
            .count();
        let _ = writeln!(
            out,
            "  [{}{}] {}/{} done ({} executed, {} cached, {} failed, {} running)",
            "#".repeat(filled),
            "-".repeat(WIDTH - filled),
            self.done,
            self.total,
            self.executed,
            self.cache_hits,
            self.failures,
            running
        );
        let _ = writeln!(
            out,
            "  elapsed {}  eta {}{}",
            fmt_nanos(self.elapsed_nanos),
            if self.state == "running" && self.eta_nanos > 0 {
                format!("~{}", fmt_nanos(self.eta_nanos))
            } else {
                String::from("-")
            },
            match &self.pool {
                Some(p) => format!(
                    "  workers {}  steals {}  busy {}  idle {}",
                    p.workers,
                    p.steals,
                    fmt_nanos(p.busy_nanos),
                    fmt_nanos(p.idle_nanos)
                ),
                None => String::new(),
            }
        );
        if let Some(c) = &self.cache {
            let probes = c.hits + c.misses;
            let rate = if probes == 0 {
                0.0
            } else {
                100.0 * c.hits as f64 / probes as f64
            };
            let _ = writeln!(
                out,
                "  cache {}/{} hits ({rate:.0}%), {} verify-failures, {} entries, {} bytes",
                c.hits, probes, c.verify_failures, c.entries, c.bytes
            );
        }
        for s in &self.stalls {
            let _ = writeln!(
                out,
                "  STALL job {} ({}) silent {} (median job {})",
                s.job,
                s.label,
                fmt_nanos(s.elapsed_nanos),
                fmt_nanos(s.median_nanos)
            );
        }
        out
    }
}

/// `1_234_000_000` → `"1.2s"`; minutes past 120 s; `"-"` for 0.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos == 0 {
        return String::from("-");
    }
    let secs = nanos as f64 / 1e9;
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1}s")
    } else {
        let m = (secs / 60.0) as u64;
        format!("{m}m{:02.0}s", secs - m as f64 * 60.0)
    }
}

/// A [`Sink`] that folds job lifecycle events into a [`RunStatus`] and
/// persists it atomically at a bounded interval. See the module docs.
#[derive(Debug)]
pub struct RunObserver {
    status: RunStatus,
    path: PathBuf,
    interval: Duration,
    last_write: Option<Instant>,
    t0: Instant,
    registry: MetricsRegistry,
    last_error: Option<io::Error>,
}

impl RunObserver {
    /// Creates an observer persisting to `path` (normally the run
    /// directory's `status.json`).
    pub fn new(path: PathBuf, run_id: &str, kind: &str, total: u64) -> RunObserver {
        RunObserver {
            status: RunStatus::new(run_id, kind, total),
            path,
            interval: Duration::from_millis(250),
            last_write: None,
            t0: Instant::now(),
            registry: MetricsRegistry::new(),
            last_error: None,
        }
    }

    /// Overrides the minimum spacing between status writes.
    pub fn with_interval(mut self, interval: Duration) -> RunObserver {
        self.interval = interval;
        self
    }

    /// The aggregated status so far.
    pub fn status(&self) -> &RunStatus {
        &self.status
    }

    /// Metrics accumulated from observed events (`job_wall_nanos`
    /// histogram, `eta_nanos` series).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn now_nanos(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn on_event(&mut self, event: &Event) {
        let now = self.now_nanos();
        match event {
            Event::JobStarted { job, total, label } => {
                self.status.ensure_job(*job, *total);
                let i = *job as usize;
                self.status.labels[i] = label.clone();
                self.status.phases[i] = JobPhase::Running;
                self.status.job_walls[i].start_nanos = now;
            }
            Event::JobFinished {
                job,
                total,
                ok,
                wall_nanos,
                eta_nanos,
            } => {
                self.status.ensure_job(*job, *total);
                let i = *job as usize;
                self.status.phases[i] = if *ok {
                    JobPhase::Done
                } else {
                    JobPhase::Failed
                };
                self.status.done += 1;
                self.status.executed += 1;
                if !*ok {
                    self.status.failures += 1;
                }
                self.status.eta_nanos = *eta_nanos;
                self.status.job_walls[i].end_nanos = now;
                self.status.job_walls[i].wall_nanos = *wall_nanos;
                self.registry.record_hist("job_wall_nanos", *wall_nanos);
                self.registry.record("eta_nanos", *eta_nanos as f64);
            }
            Event::JobCacheHit { job, total, label } => {
                self.status.ensure_job(*job, *total);
                let i = *job as usize;
                self.status.labels[i] = label.clone();
                self.status.phases[i] = JobPhase::Cached;
                self.status.done += 1;
                self.status.cache_hits += 1;
                self.status.job_walls[i].start_nanos = now;
                self.status.job_walls[i].end_nanos = now;
            }
            Event::JobStalled {
                job,
                total,
                label,
                elapsed_nanos,
                median_nanos,
            } => {
                self.status.ensure_job(*job, *total);
                let i = *job as usize;
                if self.status.phases[i] == JobPhase::Running {
                    self.status.phases[i] = JobPhase::Stalled;
                }
                self.status.stalls.push(StallInfo {
                    job: *job,
                    label: label.clone(),
                    elapsed_nanos: *elapsed_nanos,
                    median_nanos: *median_nanos,
                });
                self.registry
                    .record("stall_elapsed_nanos", *elapsed_nanos as f64);
            }
            Event::PoolStats {
                workers,
                executed,
                cache_hits,
                failed,
                steals,
                busy_nanos,
                idle_nanos,
                wall_nanos,
            } => {
                self.status.pool = Some(PoolTotals {
                    workers: *workers,
                    executed: *executed,
                    cache_hits: *cache_hits,
                    failed: *failed,
                    steals: *steals,
                    busy_nanos: *busy_nanos,
                    idle_nanos: *idle_nanos,
                    wall_nanos: *wall_nanos,
                });
            }
            Event::CacheStats {
                hits,
                misses,
                verify_failures,
                entries,
                bytes,
            } => {
                self.status.cache = Some(CacheTotals {
                    hits: *hits,
                    misses: *misses,
                    verify_failures: *verify_failures,
                    entries: *entries,
                    bytes: *bytes,
                });
            }
            // Simulator-level events are not part of the run status.
            _ => {}
        }
    }

    fn write_now(&mut self) {
        self.status.updated_unix_ms = unix_now_ms();
        self.status.elapsed_nanos = self.now_nanos();
        if let Err(e) = write_atomic(&self.path, &self.status.to_json()) {
            self.last_error = Some(e);
        }
        self.last_write = Some(Instant::now());
    }

    fn maybe_write(&mut self) {
        let due = match self.last_write {
            None => true,
            Some(t) => t.elapsed() >= self.interval,
        };
        if due {
            self.write_now();
        }
    }

    /// Records the final run state and forces a last write. Returns the
    /// most recent write error, if any — earlier errors never interrupt
    /// the run.
    pub fn finalize(&mut self, state: &str) -> io::Result<()> {
        self.status.state = state.to_string();
        self.write_now();
        match self.last_error.take() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Sink for RunObserver {
    fn record(&mut self, event: &Event) {
        self.on_event(event);
        self.maybe_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_telemetry::emit;

    fn tempfile(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "rmt3d-status-{tag}-{}-{}.json",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn finished(job: u64, total: u64, eta_nanos: u64) -> Event {
        Event::JobFinished {
            job,
            total,
            ok: true,
            wall_nanos: 1_000,
            eta_nanos,
        }
    }

    #[test]
    fn observer_aggregates_job_lifecycle() {
        let path = tempfile("agg");
        let mut obs =
            RunObserver::new(path.clone(), "r1", "sweep", 4).with_interval(Duration::ZERO);
        emit(&mut obs, || Event::JobStarted {
            job: 0,
            total: 4,
            label: "a".into(),
        });
        emit(&mut obs, || Event::JobCacheHit {
            job: 1,
            total: 4,
            label: "b".into(),
        });
        emit(&mut obs, || finished(0, 4, 3_000));
        emit(&mut obs, || Event::JobStarted {
            job: 2,
            total: 4,
            label: "c".into(),
        });
        emit(&mut obs, || Event::JobStalled {
            job: 2,
            total: 4,
            label: "c".into(),
            elapsed_nanos: 9_000,
            median_nanos: 1_000,
        });
        let s = obs.status();
        assert_eq!(s.done, 2);
        assert_eq!(s.executed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.failures, 0);
        assert_eq!(s.eta_nanos, 3_000);
        assert_eq!(s.phases[0], JobPhase::Done);
        assert_eq!(s.phases[1], JobPhase::Cached);
        assert_eq!(s.phases[2], JobPhase::Stalled);
        assert_eq!(s.phases[3], JobPhase::Pending);
        assert_eq!(s.stalls.len(), 1);
        assert_eq!(
            obs.registry()
                .histogram("job_wall_nanos")
                .unwrap()
                .samples(),
            1
        );

        // The persisted document parses and round-trips the aggregates.
        obs.finalize("ok").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunStatus::from_json(&text).unwrap();
        assert_eq!(back.done, 2);
        assert_eq!(back.state, "ok");
        assert_eq!(back.phases, obs.status().phases);
        assert_eq!(back.stalls, obs.status().stalls);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eta_stream_is_aggregated_not_dropped() {
        // Regression: JobFinished.eta_nanos used to be emitted by the
        // pool but never aggregated anywhere. The observer must surface
        // the latest ETA and keep the whole series in its registry.
        let path = tempfile("eta");
        let mut obs =
            RunObserver::new(path.clone(), "r1", "sweep", 5).with_interval(Duration::ZERO);
        let etas = [8_000, 6_000, 4_000, 2_000, 0];
        for (i, eta) in etas.iter().enumerate() {
            emit(&mut obs, || finished(i as u64, 5, *eta));
            assert_eq!(obs.status().eta_nanos, *eta, "status tracks latest ETA");
        }
        let series = obs.registry().summary("eta_nanos").unwrap();
        assert_eq!(series.count, etas.len() as u64);
        assert_eq!(series.max, 8_000.0);
        assert_eq!(series.min, 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn status_round_trips_pool_and_cache() {
        let mut s = RunStatus::new("r2", "campaign", 2);
        s.pool = Some(PoolTotals {
            workers: 4,
            executed: 2,
            cache_hits: 0,
            failed: 1,
            steals: 3,
            busy_nanos: 100,
            idle_nanos: 50,
            wall_nanos: 40,
        });
        s.cache = Some(CacheTotals {
            hits: 1,
            misses: 1,
            verify_failures: 0,
            entries: 2,
            bytes: 999,
        });
        s.eta_nanos = 123;
        let back = RunStatus::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn interval_bounds_write_frequency() {
        let path = tempfile("rate");
        let mut obs = RunObserver::new(path.clone(), "r3", "sweep", 100)
            .with_interval(Duration::from_secs(3600));
        for i in 0..100u64 {
            emit(&mut obs, || finished(i, 100, 0));
        }
        // First event wrote (no prior write); the hour-long interval
        // suppresses the other 99, so the file shows 1 job done.
        let text = std::fs::read_to_string(&path).unwrap();
        let mid = RunStatus::from_json(&text).unwrap();
        assert_eq!(mid.done, 1);
        // finalize forces the full picture out.
        obs.finalize("ok").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let fin = RunStatus::from_json(&text).unwrap();
        assert_eq!(fin.done, 100);
        assert_eq!(fin.state, "ok");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jobs_beyond_declared_total_grow_the_status() {
        let path = tempfile("grow");
        let mut obs =
            RunObserver::new(path.clone(), "r4", "sweep", 0).with_interval(Duration::ZERO);
        emit(&mut obs, || Event::JobStarted {
            job: 7,
            total: 9,
            label: "late".into(),
        });
        assert_eq!(obs.status().total, 9);
        assert_eq!(obs.status().phases.len(), 9);
        assert_eq!(obs.status().phases[7], JobPhase::Running);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn human_rendering_mentions_the_essentials() {
        let mut s = RunStatus::new("sweep-x", "sweep", 4);
        s.done = 2;
        s.executed = 1;
        s.cache_hits = 1;
        s.stalls.push(StallInfo {
            job: 3,
            label: "3d-2a/swim".into(),
            elapsed_nanos: 9_000_000_000,
            median_nanos: 1_000_000_000,
        });
        let text = s.format_human();
        assert!(text.contains("sweep-x"));
        assert!(text.contains("2/4 done"));
        assert!(text.contains("STALL job 3 (3d-2a/swim)"));
        assert!(text.contains("9.0s"));
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(0), "-");
        assert_eq!(fmt_nanos(500_000_000), "500ms");
        assert_eq!(fmt_nanos(1_500_000_000), "1.5s");
        assert_eq!(fmt_nanos(125_000_000_000), "2m05s");
    }
}
