//! In-daemon metrics: live counters, latency histograms, the
//! append-only `daemon.metrics.jsonl` time-series ring, and the raw
//! span-event log behind `rmt3d trace-report --chrome-out`.
//!
//! [`DaemonMetrics`] is the daemon's shared instrument panel: lock-free
//! atomic counters for connection/watcher/error tallies, a logical tick
//! clock for span timestamps, and a mutex-guarded
//! [`MetricsRegistry`] holding per-kind `Log2Histogram`s of queue-wait
//! and execution latency. The `stats` protocol verb renders it as one
//! strict-JSON line; [`MetricsRing`] persists periodic snapshots so
//! dashboards can plot the daemon *over time*, not just now.
//!
//! Both files are [`AppendLog`]s, like the queue journal: one JSON
//! line per record, a torn tail closed off on reopen, corrupt or torn
//! lines skipped (never fatal) at replay. The ring is additionally
//! bounded — when the file exceeds twice the retention cap it is
//! compacted down to the newest `cap` samples with
//! [`write_atomic`], so a long-lived daemon cannot grow it without
//! bound.

use rmt3d_obs::durable::{write_atomic, AppendLog};
use rmt3d_obs::metrics_to_json;
use rmt3d_telemetry::json::{parse, JsonObject, JsonValue};
use rmt3d_telemetry::MetricsRegistry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Time-series ring file name inside the daemon state directory.
pub const METRICS_RING_FILE: &str = "daemon.metrics.jsonl";

/// Raw span/event log file name inside the daemon state directory:
/// one codec line per job-lifecycle span event, with real wall
/// durations. `TraceEventSink` is `Rc`-based and single-threaded, so
/// the daemon logs raw lines and `trace-report --chrome-out` renders.
pub const TRACE_LOG_FILE: &str = "daemon.trace.jsonl";

/// Samples retained by the ring after compaction.
pub const METRICS_RING_CAP: usize = 512;

/// Live daemon instrumentation, shared by every thread.
#[derive(Debug, Default)]
pub struct DaemonMetrics {
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    cache_evictions: AtomicU64,
    metrics_write_errors: AtomicU64,
    ticks: AtomicU64,
    registry: Mutex<MetricsRegistry>,
}

impl DaemonMetrics {
    /// A fresh panel with all counters at zero.
    pub fn new() -> DaemonMetrics {
        DaemonMetrics::default()
    }

    /// Next logical tick — the monotonic, wall-clock-free timestamp
    /// threaded through job-lifecycle span events so traces stay
    /// byte-deterministic for a fixed submission order.
    pub fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }

    /// A client connected.
    pub fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// A client disconnected.
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently-open client connections.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Connections accepted over the daemon's lifetime.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Result-cache entries evicted by the post-job LRU pass.
    pub fn note_evictions(&self, entries: u64) {
        self.cache_evictions.fetch_add(entries, Ordering::Relaxed);
    }

    /// Total evicted cache entries.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// A per-run metrics/status artifact failed to persist. This is the
    /// counter that replaces silent stderr-only degradation: operators
    /// see it in `stats` instead of having to tail the daemon log.
    pub fn note_metrics_write_error(&self) {
        self.metrics_write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Total persistence failures observed.
    pub fn metrics_write_errors(&self) -> u64 {
        self.metrics_write_errors.load(Ordering::Relaxed)
    }

    /// Records how long a job of `kind` sat queued before leasing.
    pub fn record_queue_wait(&self, kind: &str, millis: u64) {
        let mut reg = self.lock_registry();
        reg.record_hist(&format!("daemon_queue_wait_ms_{kind}"), millis);
        reg.record(&format!("daemon_queue_wait_ms_{kind}"), millis as f64);
    }

    /// Records how long a job of `kind` spent executing on the pool.
    pub fn record_exec(&self, kind: &str, millis: u64) {
        let mut reg = self.lock_registry();
        reg.record_hist(&format!("daemon_exec_ms_{kind}"), millis);
        reg.record(&format!("daemon_exec_ms_{kind}"), millis as f64);
    }

    /// Records a point-in-time gauge into the summary series (queue
    /// depth at sample time, and friends).
    pub fn record_gauge(&self, name: &str, value: f64) {
        self.lock_registry().record(name, value);
    }

    /// The cumulative registry rendered as the shared
    /// `{"series":…,"hist":…}` metrics document — the same schema
    /// `metrics.json` uses, so `parse_metrics` and the dashboard's
    /// histogram renderer work on daemon data unchanged.
    pub fn metrics_doc(&self) -> String {
        metrics_to_json(&self.lock_registry())
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Bounded, corrupt-tolerant `daemon.metrics.jsonl` time-series.
#[derive(Debug)]
pub struct MetricsRing {
    path: PathBuf,
    log: AppendLog,
    lines: usize,
    cap: usize,
}

impl MetricsRing {
    /// Opens (creating if necessary) the ring file, counting the valid
    /// samples already present. Corrupt or torn lines are ignored here
    /// and dropped at the next compaction; they are never fatal.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// created or opened for append.
    pub fn open(path: &Path, cap: usize) -> io::Result<MetricsRing> {
        let log = AppendLog::open(path)?;
        let lines = fs::read_to_string(path).map_or(0, |text| {
            text.lines()
                .filter(|l| parse_sample_line(l).is_some())
                .count()
        });
        Ok(MetricsRing {
            path: path.to_path_buf(),
            log,
            lines,
            cap: cap.max(1),
        })
    }

    /// Valid samples currently on disk.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// True when no valid sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Appends one sample line and compacts the file down to the
    /// newest `cap` samples once it holds twice that many — an atomic
    /// rewrite, so a crash mid-compaction leaves either the old or the
    /// new file, never a mix.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers are expected to count
    /// failures (see [`DaemonMetrics::note_metrics_write_error`])
    /// rather than die.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        self.log.append(line)?;
        self.lines += 1;
        if self.lines >= self.cap * 2 {
            self.compact()?;
        }
        Ok(())
    }

    fn compact(&mut self) -> io::Result<()> {
        let text = fs::read_to_string(&self.path)?;
        let valid: Vec<&str> = text
            .lines()
            .filter(|l| parse_sample_line(l).is_some())
            .collect();
        let keep = valid.len().saturating_sub(self.cap);
        let mut out = String::new();
        for line in &valid[keep..] {
            out.push_str(line);
            out.push('\n');
        }
        write_atomic(&self.path, &out)?;
        self.log = AppendLog::open(&self.path)?;
        self.lines = valid.len() - keep;
        Ok(())
    }
}

/// Parses one ring line, returning `None` for corrupt or torn input
/// (the replay filter both the ring and its readers share).
pub fn parse_sample_line(line: &str) -> Option<JsonValue> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let v = parse(line).ok()?;
    // A sample must at least carry its timestamp; anything else is a
    // foreign or torn line.
    v.get("unix_ms").and_then(JsonValue::as_u64)?;
    Some(v)
}

/// Renders one time-series sample. `gauges` are the job-state counts
/// at sample time, the cache fields come from the shared result store,
/// and the cumulative `metrics` document is embedded whole so a single
/// tail line is enough to rebuild every histogram.
#[allow(clippy::too_many_arguments)]
pub fn sample_line(
    unix_ms: u64,
    queued: u64,
    running: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    watchers: u64,
    cache: &CacheCounters,
    metrics: &DaemonMetrics,
) -> String {
    let mut o = JsonObject::new();
    o.u64("unix_ms", unix_ms)
        .u64("queued", queued)
        .u64("running", running)
        .u64("done", done)
        .u64("failed", failed)
        .u64("cancelled", cancelled)
        .u64("depth", queued + running)
        .u64("watchers", watchers)
        .u64("connections", metrics.connections_open())
        .u64("connections_total", metrics.connections_total())
        .u64("cache_hits", cache.hits)
        .u64("cache_misses", cache.misses)
        .u64("cache_verify_failures", cache.verify_failures)
        .u64("cache_entries", cache.entries)
        .u64("cache_bytes", cache.bytes)
        .u64("cache_evictions", metrics.cache_evictions())
        .u64("metrics_write_errors", metrics.metrics_write_errors())
        .raw("metrics", &metrics.metrics_doc());
    o.finish()
}

/// Cache counter snapshot threaded into [`sample_line`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub verify_failures: u64,
    pub entries: u64,
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rmt3d-metrics-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(metrics: &DaemonMetrics, unix_ms: u64) -> String {
        sample_line(
            unix_ms,
            2,
            1,
            5,
            0,
            1,
            3,
            &CacheCounters {
                hits: 10,
                misses: 4,
                verify_failures: 0,
                entries: 14,
                bytes: 9_000,
            },
            metrics,
        )
    }

    #[test]
    fn sample_lines_are_strict_json_with_embedded_metrics() {
        let metrics = DaemonMetrics::new();
        metrics.record_queue_wait("sweep", 120);
        metrics.record_exec("sweep", 900);
        metrics.note_metrics_write_error();
        let line = sample(&metrics, 1_000);
        let v = parse(&line).expect("sample must be strict JSON");
        assert_eq!(v.get("depth").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("metrics_write_errors").and_then(JsonValue::as_u64),
            Some(1)
        );
        let doc = v.get("metrics").expect("embedded metrics document");
        assert!(doc.get("hist").is_some());
        // The embedded document round-trips through the shared parser.
        let parsed = rmt3d_obs::parse_metrics(&metrics.metrics_doc()).unwrap();
        let hist = parsed.hist("daemon_queue_wait_ms_sweep").unwrap();
        assert_eq!(hist.samples, 1);
    }

    #[test]
    fn ring_replays_past_a_torn_tail_without_inventing_data() {
        let dir = tmp("torn");
        let path = dir.join(METRICS_RING_FILE);
        let metrics = DaemonMetrics::new();
        {
            let mut ring = MetricsRing::open(&path, 16).unwrap();
            ring.append(&sample(&metrics, 1)).unwrap();
            ring.append(&sample(&metrics, 2)).unwrap();
        }
        // Simulate a torn write: half a line at the tail.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"unix_ms\":3,\"queued\":");
        fs::write(&path, &text).unwrap();
        let ring = MetricsRing::open(&path, 16).unwrap();
        assert_eq!(ring.len(), 2, "torn tail must not count as a sample");
        let replayed: Vec<JsonValue> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter_map(parse_sample_line)
            .collect();
        assert_eq!(replayed.len(), 2);
        assert_eq!(
            replayed.last().unwrap().get("unix_ms").unwrap().as_u64(),
            Some(2),
            "no invented data after the torn tail"
        );
    }

    #[test]
    fn a_sample_appended_after_a_torn_tail_is_kept() {
        let dir = tmp("torn-append");
        let path = dir.join(METRICS_RING_FILE);
        let metrics = DaemonMetrics::new();
        {
            let mut ring = MetricsRing::open(&path, 16).unwrap();
            ring.append(&sample(&metrics, 1)).unwrap();
            ring.append(&sample(&metrics, 2)).unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"unix_ms\":99,\"queued\":");
        fs::write(&path, &text).unwrap();
        MetricsRing::open(&path, 16)
            .unwrap()
            .append(&sample(&metrics, 3))
            .unwrap();
        let ring = MetricsRing::open(&path, 16).unwrap();
        assert_eq!(ring.len(), 3, "the sample after the torn tail was lost");
        let last = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter_map(parse_sample_line)
            .next_back()
            .unwrap();
        assert_eq!(last.get("unix_ms").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    fn ring_compacts_to_cap_and_survives_garbage_lines() {
        let dir = tmp("compact");
        let path = dir.join(METRICS_RING_FILE);
        fs::write(&path, "not json at all\n\n{\"foreign\":true}\n").unwrap();
        let metrics = DaemonMetrics::new();
        let mut ring = MetricsRing::open(&path, 4).unwrap();
        assert_eq!(ring.len(), 0, "garbage lines are not samples");
        for i in 0..20 {
            ring.append(&sample(&metrics, i)).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        let samples: Vec<JsonValue> = text.lines().filter_map(parse_sample_line).collect();
        assert!(
            samples.len() <= 8,
            "ring must stay bounded, got {}",
            samples.len()
        );
        // Compaction keeps the newest samples and drops the garbage.
        assert_eq!(
            samples.last().unwrap().get("unix_ms").unwrap().as_u64(),
            Some(19)
        );
        assert!(!fs::read_to_string(&path).unwrap().contains("foreign"));
    }

    #[test]
    fn counters_track_connections_and_evictions() {
        let m = DaemonMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.note_evictions(3);
        assert_eq!(m.connections_open(), 1);
        assert_eq!(m.connections_total(), 2);
        assert_eq!(m.cache_evictions(), 3);
        assert_eq!(m.tick(), 0);
        assert_eq!(m.tick(), 1);
    }
}
