//! The `rmt3d serve` daemon: accept loop, scheduler, and fan-out.
//!
//! Three kinds of threads cooperate around one mutex-guarded
//! [`State`]:
//!
//! - the **scheduler** (the thread that called [`serve`]) pops the
//!   highest-priority queued job and executes it on the existing
//!   work-stealing pool via `run_sweep` / `run_campaign_with`, one
//!   job at a time — the pool already saturates the machine within a
//!   job, so running jobs concurrently would only thrash the cores;
//! - the **accept loop** hands each TCP connection to its own handler
//!   thread;
//! - **handler** threads parse newline-delimited JSON requests and
//!   answer them. `watch` registers an mpsc sender under the job id;
//!   the executing job's telemetry sink forwards every event to all
//!   subscribers, dropping any whose client disconnected — a dead
//!   watcher can never stall the queue.
//!
//! Shutdown (`{"op":"shutdown"}`) stops the accept loop and the
//! scheduler after the in-flight job drains; queued jobs stay in the
//! journal, so a restarted daemon resumes exactly the remainder. A
//! killed daemon loses nothing either — the journal is flushed before
//! every acknowledgement — it merely re-runs the job that was
//! in-flight, which the shared result cache turns into cache hits for
//! every item that had already been saved.

use crate::metrics::{
    sample_line, CacheCounters, DaemonMetrics, MetricsRing, METRICS_RING_CAP, METRICS_RING_FILE,
    TRACE_LOG_FILE,
};
use crate::payload::JobPayload;
use crate::proto::{
    error_line, parse_request, read_request_line, Request, RequestLine, MAX_REQUEST_LINE,
};
use crate::queue::{Cancelled, JobEntry, JobOutcome, JobQueue, JobState};
use rmt3d_campaign::{run_campaign_with, CampaignOptions, CampaignRun};
use rmt3d_obs::durable::{write_atomic, AppendLog};
use rmt3d_obs::ledger::unix_now_ms;
use rmt3d_obs::RunTracker;
use rmt3d_sweep::{codec, run_sweep, CacheMode, ResultStore, SweepOptions};
use rmt3d_telemetry::json::{json_str, JsonObject};
use rmt3d_telemetry::{Event, Sink};
use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Queue + journal directory (also holds campaign reports).
    pub state_dir: PathBuf,
    /// Shared content-addressed result cache directory.
    pub cache_dir: PathBuf,
    /// Pool workers per job; 0 means available parallelism.
    pub workers: usize,
    /// When set, LRU-evict the result cache down to this many bytes
    /// after every job.
    pub cache_max_bytes: Option<u64>,
    /// Run-ledger root; `None` disables ledger registration.
    pub runs_root: Option<PathBuf>,
    /// Suppress stderr chatter.
    pub quiet: bool,
}

struct State {
    queue: JobQueue,
    watchers: HashMap<String, Vec<mpsc::Sender<String>>>,
    cancels: HashMap<String, Arc<AtomicBool>>,
    running: Option<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

struct Ctx {
    shared: Arc<Shared>,
    store: ResultStore,
    state_dir: PathBuf,
    quiet: bool,
    inst: Arc<Instruments>,
}

/// The daemon's observability bundle: live counters/histograms, the
/// bounded `daemon.metrics.jsonl` time-series ring, and the raw span
/// log behind `trace-report --chrome-out`. Ring or log open failures
/// degrade to `None` (counted, warned) — observability must never take
/// the queue down with it.
struct Instruments {
    metrics: DaemonMetrics,
    ring: Mutex<Option<MetricsRing>>,
    trace: Mutex<Option<AppendLog>>,
}

impl Instruments {
    fn open(state_dir: &Path, quiet: bool) -> Instruments {
        let metrics = DaemonMetrics::new();
        let ring = match MetricsRing::open(&state_dir.join(METRICS_RING_FILE), METRICS_RING_CAP) {
            Ok(r) => Some(r),
            Err(e) => {
                metrics.note_metrics_write_error();
                if !quiet {
                    eprintln!("serve: warning: metrics ring disabled: {e}");
                }
                None
            }
        };
        let trace = match AppendLog::open(&state_dir.join(TRACE_LOG_FILE)) {
            Ok(t) => Some(t),
            Err(e) => {
                metrics.note_metrics_write_error();
                if !quiet {
                    eprintln!("serve: warning: span trace log disabled: {e}");
                }
                None
            }
        };
        Instruments {
            metrics,
            ring: Mutex::new(ring),
            trace: Mutex::new(trace),
        }
    }

    /// Opens a job-lifecycle phase span in the trace log.
    fn span_begin(&self, job: u64, phase: &'static str) {
        let ts = self.metrics.tick();
        self.trace_event(&Event::JobSpanBegin {
            job,
            phase: phase.into(),
            ts,
        });
    }

    /// Closes a job-lifecycle phase span in the trace log.
    fn span_end(&self, job: u64, phase: &'static str, wall_nanos: u64) {
        let ts = self.metrics.tick();
        self.trace_event(&Event::JobSpanEnd {
            job,
            phase: phase.into(),
            ts,
            wall_nanos,
        });
    }

    fn trace_event(&self, event: &Event) {
        let mut guard = self.trace.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(log) = guard.as_mut() {
            if log.append(&event.to_json_line(false)).is_err() {
                self.metrics.note_metrics_write_error();
            }
        }
    }
}

/// Appends one snapshot of the daemon to the time-series ring. Takes
/// the state lock itself (briefly) — call without holding it.
fn sample_now(shared: &Shared, inst: &Instruments, store: &ResultStore) {
    let (queued, running, done, failed, cancelled, watchers) = {
        let st = lock(shared);
        (
            st.queue.count(JobState::Queued) as u64,
            st.queue.count(JobState::Running) as u64,
            st.queue.count(JobState::Done) as u64,
            st.queue.count(JobState::Failed) as u64,
            st.queue.count(JobState::Cancelled) as u64,
            st.watchers.values().map(Vec::len).sum::<usize>() as u64,
        )
    };
    let counters = store.stats();
    let (entries, bytes) = store.totals().unwrap_or((0, 0));
    inst.metrics
        .record_gauge("daemon_queue_depth", (queued + running) as f64);
    let line = sample_line(
        unix_now_ms(),
        queued,
        running,
        done,
        failed,
        cancelled,
        watchers,
        &CacheCounters {
            hits: counters.hits,
            misses: counters.misses,
            verify_failures: counters.verify_failures,
            entries,
            bytes,
        },
        &inst.metrics,
    );
    let mut guard = inst.ring.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(ring) = guard.as_mut() {
        if ring.append(&line).is_err() {
            inst.metrics.note_metrics_write_error();
        }
    }
}

/// Runs the daemon on an already-bound listener until a shutdown
/// request drains it. Blocks the calling thread.
///
/// # Errors
///
/// Returns a message when the queue or the result store cannot be
/// opened, or the listener cannot be configured.
pub fn serve(listener: TcpListener, opts: ServeOptions) -> Result<(), String> {
    let queue = JobQueue::open(&opts.state_dir)
        .map_err(|e| format!("cannot open queue {}: {e}", opts.state_dir.display()))?;
    let store = ResultStore::open(&opts.cache_dir)
        .map_err(|e| format!("cannot open cache {}: {e}", opts.cache_dir.display()))?;
    let recovered = queue.count(JobState::Queued);
    if !opts.quiet {
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        eprintln!(
            "serve: listening on {addr}, cache {}, {recovered} queued job(s) recovered",
            opts.cache_dir.display()
        );
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure listener: {e}"))?;
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue,
            watchers: HashMap::new(),
            cancels: HashMap::new(),
            running: None,
            shutdown: false,
        }),
        wake: Condvar::new(),
    });
    let inst = Arc::new(Instruments::open(&opts.state_dir, opts.quiet));
    let ctx = Arc::new(Ctx {
        shared: Arc::clone(&shared),
        store: store.clone(),
        state_dir: opts.state_dir.clone(),
        quiet: opts.quiet,
        inst: Arc::clone(&inst),
    });
    // First ring sample: the recovered queue as the daemon saw it at
    // startup, so a restart is visible in the time-series.
    sample_now(&shared, &inst, &store);
    let acceptor = thread::spawn(move || accept_loop(listener, ctx));
    scheduler(&shared, &store, &opts, &inst);
    // Release any watcher still blocked on a queued job, then let the
    // accept loop notice the shutdown flag and exit.
    let mut st = lock(&shared);
    let ids: Vec<String> = st.watchers.keys().cloned().collect();
    for id in ids {
        if let Some(entry) = st.queue.get(&id) {
            let line = job_done_line(entry);
            broadcast(&mut st, &id, &line);
        }
        st.watchers.remove(&id);
    }
    drop(st);
    let _ = store.flush_index();
    let _ = acceptor.join();
    if !opts.quiet {
        eprintln!(
            "serve: drained, queue persisted under {}",
            opts.state_dir.display()
        );
    }
    Ok(())
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>) {
    loop {
        if lock(&ctx.shared).shutdown {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || handle_client(stream, &ctx));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn scheduler(shared: &Arc<Shared>, store: &ResultStore, opts: &ServeOptions, inst: &Instruments) {
    loop {
        let seq = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(seq) = st.queue.next_ready() {
                    break seq;
                }
                st = shared
                    .wake
                    .wait_timeout(st, Duration::from_millis(250))
                    .map(|(guard, _)| guard)
                    .unwrap_or_else(|p| p.into_inner().0);
            }
        };
        execute_job(shared, store, opts, seq, inst);
    }
}

/// Forwards every telemetry event the engine emits — JobStarted,
/// JobFinished (with ETA), JobCacheHit, JobStalled, PoolStats,
/// CacheStats, CampaignTrial — to the job's subscribers as JSON lines
/// tagged with the job id.
struct FanoutSink {
    shared: Arc<Shared>,
    job_id: String,
}

impl Sink for FanoutSink {
    fn record(&mut self, event: &Event) {
        let line = tag_line(&self.job_id, &event.to_json_line(false));
        let mut st = lock(&self.shared);
        broadcast(&mut st, &self.job_id, &line);
    }
}

fn execute_job(
    shared: &Arc<Shared>,
    store: &ResultStore,
    opts: &ServeOptions,
    seq: u64,
    inst: &Instruments,
) {
    let (id, payload, spec_hash, cancel, submitted_unix_ms) = {
        let mut st = lock(shared);
        let Some(entry) = st.queue.iter().find(|j| j.seq == seq) else {
            return;
        };
        if entry.state != JobState::Queued {
            return;
        }
        let id = entry.id.clone();
        let payload = entry.payload.clone();
        let spec_hash = entry.spec_hash;
        let submitted_unix_ms = entry.submitted_unix_ms;
        let cancel = Arc::new(AtomicBool::new(false));
        st.cancels.insert(id.clone(), Arc::clone(&cancel));
        (id, payload, spec_hash, cancel, submitted_unix_ms)
    };

    // The scheduler leased the job: close its queued phase (wait time
    // from the journaled submission stamp) and open the lease phase.
    let queue_wait_ms = unix_now_ms().saturating_sub(submitted_unix_ms);
    inst.metrics
        .record_queue_wait(payload.kind(), queue_wait_ms);
    inst.span_end(seq, "queued", queue_wait_ms.saturating_mul(1_000_000));
    inst.span_begin(seq, "leased");
    let lease_started = Instant::now();

    let tracker = opts.runs_root.as_ref().and_then(|root| {
        let mut config = payload.config();
        config.push(("source".to_string(), "serve".to_string()));
        config.push(("job".to_string(), id.clone()));
        match RunTracker::start(
            root,
            payload.kind(),
            spec_hash,
            payload.total_jobs(),
            &config,
        ) {
            Ok(tracker) => {
                if !opts.quiet {
                    eprintln!(
                        "serve: {id} run {} ({})",
                        tracker.run_id(),
                        tracker.dir().display()
                    );
                }
                Some(tracker)
            }
            Err(e) => {
                eprintln!("serve: warning: run ledger disabled: {e}");
                None
            }
        }
    });
    let run_id = tracker.as_ref().map(|t| t.run_id().to_string());

    {
        let mut st = lock(shared);
        st.queue.mark_started(&id, run_id.as_deref());
        st.running = Some(id.clone());
        let line = state_line(&id, "running", run_id.as_deref());
        broadcast(&mut st, &id, &line);
    }
    if !opts.quiet {
        eprintln!("serve: {id} started ({})", payload.summary());
    }
    inst.span_end(seq, "leased", lease_started.elapsed().as_nanos() as u64);
    inst.span_begin(seq, "run");
    sample_now(shared, inst, store);
    let run_started = Instant::now();

    let mut sink = (
        tracker,
        FanoutSink {
            shared: Arc::clone(shared),
            job_id: id.clone(),
        },
    );
    let (state, outcome, error) = match &payload {
        JobPayload::Sweep(spec) => {
            let jobs = spec.expand();
            let sweep_opts = SweepOptions {
                jobs: opts.workers,
                cache: CacheMode::Dir(opts.cache_dir.clone()),
                watchdog: None,
                cancel: Some(Arc::clone(&cancel)),
            };
            match run_sweep(jobs, &sweep_opts, &mut sink) {
                Ok(report) => {
                    let outcome = JobOutcome {
                        executed: report.executed as u64,
                        cache_hits: report.cache_hits as u64,
                        failures: report.failures as u64,
                    };
                    let error = report.records.iter().find_map(|r| {
                        r.outcome
                            .as_ref()
                            .err()
                            .map(|e| format!("{}: {e}", r.job.label()))
                    });
                    let state = if cancel.load(Ordering::SeqCst) {
                        JobState::Cancelled
                    } else if report.failures > 0 {
                        JobState::Failed
                    } else {
                        JobState::Done
                    };
                    (state, outcome, error)
                }
                Err(e) => (JobState::Failed, JobOutcome::default(), Some(e)),
            }
        }
        JobPayload::Campaign(spec) => {
            let campaign_opts = CampaignOptions {
                jobs: opts.workers,
                cancel: Some(Arc::clone(&cancel)),
                ..CampaignOptions::default()
            };
            match run_campaign_with(spec, &campaign_opts, &mut sink) {
                Ok(CampaignRun { report, .. }) => {
                    let violations = report.violations().len() as u64;
                    // Trials that ran: all but those a cancel stopped
                    // before they started.
                    let ran = report
                        .records
                        .iter()
                        .filter(|r| r.outcome.as_ref().err().is_none_or(|e| e != "cancelled"))
                        .count() as u64;
                    let report_path = opts.state_dir.join("results").join(format!("{id}.jsonl"));
                    if let Err(e) = write_atomic(&report_path, &report.to_jsonl()) {
                        eprintln!("serve: warning: cannot write campaign report for {id}: {e}");
                    }
                    let outcome = JobOutcome {
                        executed: ran,
                        cache_hits: 0,
                        failures: violations,
                    };
                    let state = if cancel.load(Ordering::SeqCst) {
                        JobState::Cancelled
                    } else if violations > 0 {
                        JobState::Failed
                    } else {
                        JobState::Done
                    };
                    let error = (violations > 0).then(|| report.summary());
                    (state, outcome, error)
                }
                Err(e) => (JobState::Failed, JobOutcome::default(), Some(e)),
            }
        }
    };

    let run_nanos = run_started.elapsed().as_nanos() as u64;
    inst.metrics
        .record_exec(payload.kind(), run_nanos / 1_000_000);
    inst.span_end(seq, "run", run_nanos);
    inst.span_begin(seq, "store_write");
    let store_started = Instant::now();

    let outcome_str = match state {
        JobState::Done => "ok",
        JobState::Cancelled => "cancelled",
        _ => "failed",
    };
    let (tracker, _) = sink;
    if let Some(Err(errors)) = tracker.map(|t| t.finish(outcome_str, None)) {
        for e in errors {
            // Counted, not just logged: the failure shows up in the
            // `stats` line as `metrics_write_errors`, so a daemon
            // quietly losing its run artifacts is visible to every
            // client instead of only to whoever tails stderr.
            inst.metrics.note_metrics_write_error();
            eprintln!("serve: warning: {e}");
        }
    }

    if let Some(max) = opts.cache_max_bytes {
        match store.evict_to(max) {
            Ok(report) => {
                inst.metrics.note_evictions(report.evicted_entries);
                if report.evicted_entries > 0 && !opts.quiet {
                    eprintln!(
                        "serve: cache evicted {} entr{} ({} bytes), {} bytes retained",
                        report.evicted_entries,
                        if report.evicted_entries == 1 {
                            "y"
                        } else {
                            "ies"
                        },
                        report.evicted_bytes,
                        report.remaining_bytes,
                    );
                }
            }
            Err(e) => eprintln!("serve: warning: cache eviction failed: {e}"),
        }
    }
    inst.span_end(
        seq,
        "store_write",
        store_started.elapsed().as_nanos() as u64,
    );

    {
        let mut st = lock(shared);
        st.queue
            .mark_finished(&id, state, outcome, error.as_deref());
        st.running = None;
        st.cancels.remove(&id);
        if let Some(entry) = st.queue.get(&id) {
            let line = job_done_line(entry);
            broadcast(&mut st, &id, &line);
        }
        st.watchers.remove(&id);
    }
    // Close the outer lifecycle span and snapshot the daemon with the
    // job in its terminal state.
    inst.span_end(
        seq,
        "job",
        unix_now_ms()
            .saturating_sub(submitted_unix_ms)
            .saturating_mul(1_000_000),
    );
    sample_now(shared, inst, store);
    if !opts.quiet {
        eprintln!(
            "serve: {id} {}: simulated {}, cache-hit {}, failed {}",
            state.as_str(),
            outcome.executed,
            outcome.cache_hits,
            outcome.failures,
        );
    }
}

fn broadcast(st: &mut State, job_id: &str, line: &str) {
    if let Some(subs) = st.watchers.get_mut(job_id) {
        // A send fails only when the watcher's handler thread is gone
        // (client disconnected); dropping it here is what keeps dead
        // clients from stalling the queue.
        subs.retain(|tx| tx.send(line.to_string()).is_ok());
    }
}

fn tag_line(job_id: &str, event_line: &str) -> String {
    debug_assert!(event_line.starts_with('{'));
    format!("{{\"job\":{},{}", json_str(job_id), &event_line[1..])
}

fn state_line(job_id: &str, state: &str, run_id: Option<&str>) -> String {
    let mut o = JsonObject::new();
    o.str("job", job_id)
        .str("event", "job_state")
        .str("state", state)
        .str("run_id", run_id.unwrap_or(""));
    o.finish()
}

/// The terminal `watch` line. Also sent when the daemon drains with
/// the job still queued — "job_done" means "this watch stream is
/// over", and `state` tells the client what actually happened.
fn job_done_line(entry: &JobEntry) -> String {
    let outcome = entry.outcome.unwrap_or_default();
    let mut o = JsonObject::new();
    o.str("job", &entry.id)
        .str("event", "job_done")
        .str("state", entry.state.as_str())
        .u64("executed", outcome.executed)
        .u64("cache_hits", outcome.cache_hits)
        .u64("failures", outcome.failures)
        .str("run_id", entry.run_id.as_deref().unwrap_or(""))
        .str("error", entry.error.as_deref().unwrap_or(""));
    o.finish()
}

fn write_line(w: &mut TcpStream, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

fn handle_client(stream: TcpStream, ctx: &Ctx) {
    ctx.inst.metrics.connection_opened();
    handle_client_inner(stream, ctx);
    ctx.inst.metrics.connection_closed();
}

fn handle_client_inner(stream: TcpStream, ctx: &Ctx) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_request_line(&mut reader, MAX_REQUEST_LINE) {
            Ok(Some(RequestLine::Text(l))) => l,
            Ok(Some(RequestLine::Oversized)) => {
                let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                if write_line(&mut writer, &error_line(&msg)).is_err() {
                    return;
                }
                continue;
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let flow = match parse_request(&line) {
            Err(e) => write_line(&mut writer, &error_line(&e)),
            Ok(req) => dispatch(req, &mut writer, ctx),
        };
        if flow.is_err() {
            return;
        }
    }
}

fn dispatch(req: Request, writer: &mut TcpStream, ctx: &Ctx) -> io::Result<()> {
    match req {
        Request::Ping => write_line(writer, "{\"ok\":true}"),
        Request::Shutdown => {
            let in_flight = {
                let mut st = lock(&ctx.shared);
                st.shutdown = true;
                u64::from(st.running.is_some())
            };
            ctx.shared.wake.notify_all();
            if !ctx.quiet {
                eprintln!("serve: shutdown requested, draining {in_flight} in-flight job(s)");
            }
            let mut o = JsonObject::new();
            o.bool("ok", true)
                .str("state", "draining")
                .u64("in_flight", in_flight);
            write_line(writer, &o.finish())
        }
        Request::Submit {
            kind,
            spec,
            priority,
        } => {
            let (line, accepted) = {
                let mut st = lock(&ctx.shared);
                if st.shutdown {
                    (error_line("daemon is shutting down"), None)
                } else {
                    match st.queue.submit(&kind, &spec, priority) {
                        Err(e) => (error_line(&e), None),
                        Ok((id, deduped)) => {
                            let entry = st.queue.get(&id).expect("submitted job exists");
                            let mut o = JsonObject::new();
                            o.bool("ok", true)
                                .str("job", &id)
                                .str("state", entry.state.as_str())
                                .bool("deduped", deduped)
                                .str("spec_hash", &format!("{:016x}", entry.spec_hash))
                                .u64("total_jobs", entry.payload.total_jobs());
                            let summary = entry.payload.summary();
                            let seq = entry.seq;
                            (o.finish(), (!deduped).then_some((id, summary, seq)))
                        }
                    }
                }
            };
            ctx.shared.wake.notify_all();
            if let Some((id, summary, seq)) = accepted {
                // A fresh (non-deduped) submission opens the outer
                // lifecycle span and the queued phase; the scheduler
                // closes them as the job advances.
                ctx.inst.span_begin(seq, "job");
                ctx.inst.span_begin(seq, "queued");
                sample_now(&ctx.shared, &ctx.inst, &ctx.store);
                if !ctx.quiet {
                    eprintln!("serve: {id} submitted ({summary})");
                }
            }
            write_line(writer, &line)
        }
        Request::Jobs => {
            let line = {
                let st = lock(&ctx.shared);
                let mut out = String::from("{\"ok\":true,\"server\":");
                out.push_str(if st.shutdown {
                    "\"draining\""
                } else {
                    "\"running\""
                });
                out.push_str(",\"jobs\":[");
                for (i, entry) in st.queue.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&entry.to_json());
                }
                out.push_str("]}");
                out
            };
            write_line(writer, &line)
        }
        Request::Stats => {
            let (queued, running, done, failed, cancelled, watchers) = {
                let st = lock(&ctx.shared);
                (
                    st.queue.count(JobState::Queued),
                    st.queue.count(JobState::Running),
                    st.queue.count(JobState::Done),
                    st.queue.count(JobState::Failed),
                    st.queue.count(JobState::Cancelled),
                    st.watchers.values().map(Vec::len).sum::<usize>(),
                )
            };
            let counters = ctx.store.stats();
            let (entries, bytes) = ctx.store.totals().unwrap_or((0, 0));
            let m = &ctx.inst.metrics;
            let mut o = JsonObject::new();
            o.bool("ok", true)
                .u64("queued", queued as u64)
                .u64("running", running as u64)
                .u64("done", done as u64)
                .u64("failed", failed as u64)
                .u64("cancelled", cancelled as u64)
                .u64("queue_depth", (queued + running) as u64)
                .u64("watchers", watchers as u64)
                .u64("connections", m.connections_open())
                .u64("connections_total", m.connections_total())
                .u64("cache_hits", counters.hits)
                .u64("cache_misses", counters.misses)
                .u64("cache_verify_failures", counters.verify_failures)
                .u64("cache_entries", entries)
                .u64("cache_bytes", bytes)
                .u64("cache_evictions", m.cache_evictions())
                .u64("metrics_write_errors", m.metrics_write_errors())
                .raw("metrics", &m.metrics_doc());
            write_line(writer, &o.finish())
        }
        Request::Cancel { job } => {
            let line = {
                let mut st = lock(&ctx.shared);
                match st.queue.cancel(&job) {
                    Err(e) => error_line(&e),
                    Ok(Cancelled::Queued) => {
                        if let Some(entry) = st.queue.get(&job) {
                            let done = job_done_line(entry);
                            broadcast(&mut st, &job, &done);
                        }
                        st.watchers.remove(&job);
                        cancel_response(&job, "cancelled")
                    }
                    Ok(Cancelled::InFlight) => {
                        if let Some(flag) = st.cancels.get(&job) {
                            flag.store(true, Ordering::SeqCst);
                        }
                        cancel_response(&job, "cancel_requested")
                    }
                }
            };
            write_line(writer, &line)
        }
        Request::Watch { job } => {
            let (first, rx) = {
                let mut st = lock(&ctx.shared);
                match st.queue.get(&job) {
                    None => (error_line(&format!("unknown job {job:?}")), None),
                    Some(entry) if entry.state.is_terminal() => (job_done_line(entry), None),
                    Some(entry) => {
                        let ack = state_line(&job, entry.state.as_str(), entry.run_id.as_deref());
                        let (tx, rx) = mpsc::channel();
                        st.watchers.entry(job.clone()).or_default().push(tx);
                        (ack, Some(rx))
                    }
                }
            };
            write_line(writer, &first)?;
            let Some(rx) = rx else {
                return Ok(());
            };
            // Stream until the terminal line or until the daemon drops
            // every sender (drain). A failed write ends the stream; the
            // executor notices the dead receiver on its next send.
            while let Ok(line) = rx.recv() {
                write_line(writer, &line)?;
                if line.contains("\"event\":\"job_done\"") {
                    break;
                }
            }
            Ok(())
        }
        Request::Result { job } => {
            let looked_up = {
                let st = lock(&ctx.shared);
                st.queue
                    .get(&job)
                    .map(|e| (e.payload.clone(), e.state, e.run_id.clone()))
            };
            let Some((payload, state, run_id)) = looked_up else {
                return write_line(writer, &error_line(&format!("unknown job {job:?}")));
            };
            let line = match &payload {
                JobPayload::Sweep(spec) => {
                    let mut out = String::from("{\"ok\":true,\"job\":");
                    out.push_str(&json_str(&job));
                    out.push_str(",\"state\":");
                    out.push_str(&json_str(state.as_str()));
                    out.push_str(",\"run_id\":");
                    out.push_str(&json_str(run_id.as_deref().unwrap_or("")));
                    out.push_str(",\"results\":[");
                    for (i, sweep_job) in spec.expand().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"label\":");
                        out.push_str(&json_str(&sweep_job.label()));
                        out.push_str(",\"encoded\":");
                        // Loads count as cache hits and touch the usage
                        // index: serving results *is* cache traffic.
                        match ctx.store.load(sweep_job) {
                            Some(result) => out.push_str(&json_str(&codec::encode(&result))),
                            None => out.push_str("\"\""),
                        }
                        out.push('}');
                    }
                    out.push_str("]}");
                    out
                }
                JobPayload::Campaign(_) => {
                    let path = ctx.state_dir.join("results").join(format!("{job}.jsonl"));
                    let report = std::fs::read_to_string(&path).unwrap_or_default();
                    let mut o = JsonObject::new();
                    o.bool("ok", true)
                        .str("job", &job)
                        .str("state", state.as_str())
                        .str("run_id", run_id.as_deref().unwrap_or(""))
                        .str("report", &report);
                    o.finish()
                }
            };
            write_line(writer, &line)
        }
    }
}

fn cancel_response(job: &str, state: &str) -> String {
    let mut o = JsonObject::new();
    o.bool("ok", true).str("job", job).str("state", state);
    o.finish()
}
