//! Reader for the daemon's `daemon.metrics.jsonl` time-series ring.
//!
//! The `rmt3d serve` daemon appends one JSON snapshot line per notable
//! transition (startup, submit, job start, job finish); this module is
//! the consumer side, shared by the HTML dashboard's daemon panel and
//! anything else that wants the fleet's history. Parsing mirrors the
//! queue journal's replay discipline: corrupt or torn lines are
//! skipped, never fatal, and nothing is invented past a torn tail.
//!
//! Each sample carries flat gauges (queue depth, job-state counts,
//! cache counters, watcher/connection counts) plus the daemon's
//! cumulative metrics document embedded under `"metrics"` — the same
//! `{"series":…,"hist":…}` schema as a run's `metrics.json`, so the
//! newest sample alone is enough to rebuild every latency histogram.

use crate::metricsio::{metrics_from_value, ParsedMetrics};
use rmt3d_telemetry::json::{parse, JsonValue};

/// One snapshot line from the ring, flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonSample {
    /// Wall-clock stamp of the snapshot.
    pub unix_ms: u64,
    /// Jobs waiting for the scheduler.
    pub queued: u64,
    /// Jobs executing.
    pub running: u64,
    /// Jobs finished clean.
    pub done: u64,
    /// Jobs finished with failures.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Outstanding work: queued + running.
    pub depth: u64,
    /// Live watch subscriptions.
    pub watchers: u64,
    /// Open client connections.
    pub connections: u64,
    /// Result-cache hits so far.
    pub cache_hits: u64,
    /// Result-cache misses so far.
    pub cache_misses: u64,
    /// Cache entries evicted by the LRU pass so far.
    pub cache_evictions: u64,
    /// Run-artifact persistence failures so far.
    pub metrics_write_errors: u64,
}

impl DaemonSample {
    /// Cache hit rate in [0, 1], when any probe has happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// The parsed time-series: every valid sample in file order, plus the
/// newest sample's embedded cumulative metrics document.
#[derive(Debug, Clone, Default)]
pub struct DaemonSeries {
    /// Valid samples, oldest first.
    pub samples: Vec<DaemonSample>,
    /// The newest sample's `"metrics"` document (latency histograms,
    /// gauge series), when present and well-formed.
    pub metrics: Option<ParsedMetrics>,
}

impl DaemonSeries {
    /// Parses ring text, skipping corrupt or torn lines.
    pub fn parse(text: &str) -> DaemonSeries {
        let mut out = DaemonSeries::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = parse(line) else {
                continue; // corrupt or torn line: skip, never fatal
            };
            let Some(unix_ms) = v.get("unix_ms").and_then(JsonValue::as_u64) else {
                continue; // foreign line
            };
            let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            out.samples.push(DaemonSample {
                unix_ms,
                queued: u("queued"),
                running: u("running"),
                done: u("done"),
                failed: u("failed"),
                cancelled: u("cancelled"),
                depth: u("depth"),
                watchers: u("watchers"),
                connections: u("connections"),
                cache_hits: u("cache_hits"),
                cache_misses: u("cache_misses"),
                cache_evictions: u("cache_evictions"),
                metrics_write_errors: u("metrics_write_errors"),
            });
            // Keep the newest metrics document; the registry is
            // cumulative so the last one subsumes the rest.
            if let Some(doc) = v.get("metrics") {
                out.metrics = Some(metrics_from_value(doc));
            }
        }
        out
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<&DaemonSample> {
        self.samples.last()
    }

    /// True when no valid sample was found.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(unix_ms: u64, depth: u64) -> String {
        format!(
            "{{\"unix_ms\":{unix_ms},\"queued\":{depth},\"running\":0,\"done\":3,\
             \"failed\":0,\"cancelled\":1,\"depth\":{depth},\"watchers\":2,\
             \"connections\":1,\"cache_hits\":10,\"cache_misses\":5,\
             \"cache_evictions\":0,\"metrics_write_errors\":0,\
             \"metrics\":{{\"series\":{{}},\"hist\":{{\"daemon_exec_ms_sweep\":\
             {{\"samples\":3,\"mean\":7.0,\"buckets\":[[4,7,3]]}}}}}}}}"
        )
    }

    #[test]
    fn parses_samples_and_latest_metrics() {
        let text = format!("{}\n{}\n", line(1, 4), line(2, 2));
        let series = DaemonSeries::parse(&text);
        assert_eq!(series.samples.len(), 2);
        let last = series.latest().unwrap();
        assert_eq!(last.unix_ms, 2);
        assert_eq!(last.depth, 2);
        assert_eq!(last.hit_rate(), Some(10.0 / 15.0));
        let hist = series
            .metrics
            .as_ref()
            .unwrap()
            .hist("daemon_exec_ms_sweep")
            .unwrap();
        assert_eq!(hist.samples, 3);
        assert_eq!(hist.buckets, vec![(4, 7, 3)]);
    }

    #[test]
    fn skips_torn_and_foreign_lines_without_inventing_data() {
        let text = format!(
            "garbage\n{}\n{{\"foreign\":true}}\n{}\n{{\"unix_ms\":9,\"queued\":",
            line(5, 1),
            line(6, 3)
        );
        let series = DaemonSeries::parse(&text);
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.latest().unwrap().unix_ms, 6);
    }

    #[test]
    fn empty_and_missing_input() {
        assert!(DaemonSeries::parse("").is_empty());
        assert!(DaemonSeries::parse("\n\n").is_empty());
    }
}
