//! Exporters: the JSONL streaming sink, the in-memory collector that
//! feeds the metrics registry, and the CSV writer for interval samples.

use crate::registry::MetricsRegistry;
use crate::sample::IntervalSample;
use crate::sink::Sink;
use crate::Event;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// Streams every event as one JSON line to an [`io::Write`]r.
///
/// Clonable: clones share the writer, so the sink can be handed to the
/// leader, the checker, and the system at once. In deterministic mode
/// wall-clock fields are written as 0 so two identical runs produce
/// byte-identical traces.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: Rc<RefCell<W>>,
    deterministic: bool,
    error: Rc<RefCell<Option<io::Error>>>,
}

// Manual impl: the derive would demand `W: Clone`, but clones share the
// writer through the `Rc` (so `Box<dyn Write>` works too).
impl<W: Write> Clone for JsonlSink<W> {
    fn clone(&self) -> Self {
        JsonlSink {
            out: Rc::clone(&self.out),
            deterministic: self.deterministic,
            error: Rc::clone(&self.error),
        }
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer; wall clocks are reported as measured.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Rc::new(RefCell::new(out)),
            deterministic: false,
            error: Rc::new(RefCell::new(None)),
        }
    }

    /// Zeroes wall-clock fields for reproducible traces.
    pub fn deterministic(mut self) -> Self {
        self.deterministic = true;
        self
    }

    /// Appends the metrics-summary line (tagged `"event":"summary"`)
    /// and flushes. Call once, after the run.
    pub fn write_summary(&mut self, registry: &MetricsRegistry) {
        let line = registry.to_json_line();
        self.write_line(&line);
        let flushed = self.out.borrow_mut().flush();
        if let Err(e) = flushed {
            self.note_error(e);
        }
    }

    /// Flushes the underlying writer and surfaces the first I/O error
    /// hit while streaming, if any. Call once at the end of the run;
    /// errors during streaming are latched rather than panicking
    /// mid-simulation.
    pub fn finish(&mut self) -> io::Result<()> {
        self.out.borrow_mut().flush()?;
        match self.error.borrow_mut().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn write_line(&mut self, line: &str) {
        let mut out = self.out.borrow_mut();
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            drop(out);
            self.note_error(e);
        }
    }

    fn note_error(&mut self, e: io::Error) {
        let mut slot = self.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Flush-on-drop: a CLI error path that returns before calling
        // `finish()` still leaves a complete, newline-terminated JSONL
        // file behind. Every record is written whole, so flushing is
        // all finalization requires; errors here have nowhere to go.
        if let Ok(mut out) = self.out.try_borrow_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let line = event.to_json_line(self.deterministic);
        self.write_line(&line);
    }
}

/// In-memory aggregation: every interval sample, scalar series into a
/// [`MetricsRegistry`], and fault, recovery and DFS tallies.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    /// Every interval sample, in arrival order.
    pub samples: Vec<IntervalSample>,
    /// Scalar series summarized at end of run.
    pub registry: MetricsRegistry,
    faults: u64,
    faults_corrected: u64,
    recoveries: u64,
    unrecoverable: u64,
    dfs_transitions: u64,
}

impl Collector {
    fn observe(&mut self, event: &Event) {
        match event {
            Event::Counter { name, value, .. } => self.registry.record(name, *value),
            Event::DfsTransition {
                to_level, fraction, ..
            } => {
                self.dfs_transitions += 1;
                self.registry.record("dfs_level", f64::from(*to_level));
                self.registry.record("checker_fraction", *fraction);
            }
            Event::FaultInjected { corrected, .. } => {
                self.faults += 1;
                if *corrected {
                    self.faults_corrected += 1;
                }
            }
            Event::Recovery {
                penalty_cycles,
                unrecoverable,
                ..
            } => {
                self.recoveries += 1;
                if *unrecoverable {
                    self.unrecoverable += 1;
                }
                self.registry
                    .record("recovery_penalty_cycles", *penalty_cycles as f64);
            }
            Event::SolverIteration { residual, .. } => {
                self.registry.record("solver_residual", *residual);
            }
            Event::Interval(s) => {
                self.registry.record("interval_ipc", s.ipc);
                self.registry.record("rob_occupancy", f64::from(s.rob));
                self.registry.record("lsq_occupancy", f64::from(s.lsq));
                self.registry.record("rvq_occupancy", f64::from(s.rvq));
                self.registry.record("lvq_occupancy", f64::from(s.lvq));
                self.registry.record("boq_occupancy", f64::from(s.boq));
                self.registry.record("stb_occupancy", f64::from(s.stb));
                // Log2 histograms: slack (RVQ depth is the leader/checker
                // slack) and per-structure occupancy distributions.
                self.registry.record_hist("slack", u64::from(s.rvq));
                self.registry.record_hist("rob_occupancy", u64::from(s.rob));
                self.registry.record_hist("lsq_occupancy", u64::from(s.lsq));
                self.registry.record_hist("lvq_occupancy", u64::from(s.lvq));
                self.registry.record_hist("boq_occupancy", u64::from(s.boq));
                self.registry.record_hist("stb_occupancy", u64::from(s.stb));
                self.samples.push(*s);
            }
            Event::JobFinished { wall_nanos, .. } => {
                self.registry.record("job_wall_nanos", *wall_nanos as f64);
                self.registry.record_hist("job_wall_nanos", *wall_nanos);
            }
            Event::JobStalled { elapsed_nanos, .. } => {
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
                self.registry.record("pool_workers", *workers as f64);
                self.registry.record("pool_executed", *executed as f64);
                self.registry.record("pool_cache_hits", *cache_hits as f64);
                self.registry.record("pool_failed", *failed as f64);
                self.registry.record("pool_steals", *steals as f64);
                self.registry.record("pool_busy_nanos", *busy_nanos as f64);
                self.registry.record("pool_idle_nanos", *idle_nanos as f64);
                self.registry.record("pool_wall_nanos", *wall_nanos as f64);
            }
            Event::CacheStats {
                hits,
                misses,
                verify_failures,
                entries,
                bytes,
            } => {
                self.registry.record("cache_hits", *hits as f64);
                self.registry.record("cache_misses", *misses as f64);
                self.registry
                    .record("cache_verify_failures", *verify_failures as f64);
                self.registry.record("cache_entries", *entries as f64);
                self.registry.record("cache_bytes", *bytes as f64);
            }
            Event::CampaignTrial { detect_cycles, .. } => {
                // Zero means the fault never reached the checker
                // (corrected or masked) — not a latency sample.
                if *detect_cycles > 0 {
                    self.registry
                        .record_hist("detection_latency", *detect_cycles);
                }
            }
            Event::SpanBegin { .. }
            | Event::SpanEnd { .. }
            | Event::JobStarted { .. }
            | Event::JobCacheHit { .. }
            | Event::JobSpanBegin { .. }
            | Event::JobSpanEnd { .. } => {}
        }
    }

    /// Total faults injected (and how many ECC corrected).
    pub fn fault_counts(&self) -> (u64, u64) {
        (self.faults, self.faults_corrected)
    }

    /// Total recoveries (and how many were unrecoverable).
    pub fn recovery_counts(&self) -> (u64, u64) {
        (self.recoveries, self.unrecoverable)
    }

    /// Number of DFS level changes observed.
    pub fn dfs_transitions(&self) -> u64 {
        self.dfs_transitions
    }
}

/// Clonable sink that feeds a shared [`Collector`].
#[derive(Debug, Clone, Default)]
pub struct CollectorSink {
    inner: Rc<RefCell<Collector>>,
}

impl CollectorSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` against the aggregated state.
    pub fn with<R>(&self, f: impl FnOnce(&Collector) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Clones out the aggregated state.
    pub fn snapshot(&self) -> Collector {
        self.inner.borrow().clone()
    }
}

impl Sink for CollectorSink {
    fn record(&mut self, event: &Event) {
        self.inner.borrow_mut().observe(event);
    }
}

/// Column order of [`write_samples_csv`], matching [`IntervalSample`]'s
/// fields.
pub const CSV_HEADER: &str = "index,cycle,committed,ipc,rob,iq_int,iq_fp,lsq,rvq,lvq,boq,stb,\
checker_fraction,dl1_accesses,dl1_misses,l2_accesses,l2_misses,commit_stall_cycles";

/// Writes interval samples as CSV (header + one row per sample).
pub fn write_samples_csv<'a, W: Write>(
    out: &mut W,
    samples: impl Iterator<Item = &'a IntervalSample>,
) -> io::Result<()> {
    writeln!(out, "{CSV_HEADER}")?;
    for s in samples {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.index,
            s.cycle,
            s.committed,
            s.ipc,
            s.rob,
            s.iq_int,
            s.iq_fp,
            s.lsq,
            s.rvq,
            s.lvq,
            s.boq,
            s.stb,
            s.checker_fraction,
            s.dl1_accesses,
            s.dl1_misses,
            s.l2_accesses,
            s.l2_misses,
            s.commit_stall_cycles,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Log2Histogram;

    /// Shared byte buffer that outlives the sink, so tests can inspect
    /// output after the sink (and its drop guard) is gone.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.borrow().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn fault(cycle: u64, corrected: bool) -> Event {
        Event::FaultInjected {
            cycle,
            site: "lvq_value".into(),
            bit: 1,
            corrected,
        }
    }

    #[test]
    fn jsonl_sink_streams_parseable_lines() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(&fault(10, true));
        sink.record(&Event::SpanBegin {
            name: "measure".into(),
            cycle: 10,
        });
        let mut reg = MetricsRegistry::new();
        reg.record("ipc", 1.25);
        sink.write_summary(&reg);
        sink.finish().unwrap();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            Event::from_json_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[2].contains("\"event\":\"summary\""));
    }

    #[test]
    fn jsonl_dropped_mid_run_is_parseable_and_newline_terminated() {
        let buf = SharedBuf::default();
        {
            let sink = JsonlSink::new(buf.clone());
            let mut clone = sink.clone();
            clone.record(&fault(10, true));
            clone.record(&Event::Recovery {
                cycle: 20,
                penalty_cycles: 200,
                unrecoverable: false,
            });
            // Dropped without finish(): simulates a CLI error path that
            // bails before end-of-run finalization.
        }
        let text = buf.text();
        assert!(text.ends_with('\n'), "trace must be newline-terminated");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            Event::from_json_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn jsonl_clones_share_the_writer() {
        let sink = JsonlSink::new(Vec::new());
        let mut a = sink.clone();
        let mut b = sink.clone();
        a.record(&fault(1, false));
        b.record(&fault(2, false));
        let text = String::from_utf8(sink.out.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn collector_tallies_kinds() {
        let mut sink = CollectorSink::new();
        sink.record(&fault(1, true));
        sink.record(&fault(2, false));
        sink.record(&Event::Recovery {
            cycle: 3,
            penalty_cycles: 200,
            unrecoverable: false,
        });
        sink.record(&Event::DfsTransition {
            cycle: 4,
            from_level: 4,
            to_level: 5,
            fraction: 0.6,
        });
        sink.record(&Event::Interval(IntervalSample {
            index: 0,
            cycle: 100,
            ipc: 1.5,
            ..IntervalSample::default()
        }));
        assert_eq!(sink.with(|c| c.fault_counts()), (2, 1));
        assert_eq!(sink.with(|c| c.recovery_counts()), (1, 0));
        assert_eq!(sink.with(|c| c.dfs_transitions()), 1);
        assert_eq!(sink.with(|c| c.samples.len()), 1);
        let ipc = sink.with(|c| c.registry.summary("interval_ipc").unwrap());
        assert_eq!(ipc.mean, 1.5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let samples = [
            IntervalSample {
                index: 0,
                cycle: 100,
                committed: 80,
                ipc: 0.8,
                ..IntervalSample::default()
            },
            IntervalSample {
                index: 1,
                cycle: 200,
                committed: 90,
                ipc: 0.9,
                ..IntervalSample::default()
            },
        ];
        let mut buf = Vec::new();
        write_samples_csv(&mut buf, samples.iter()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,cycle,"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and rows must have the same arity"
        );
        assert!(lines[1].starts_with("0,100,80,0.8"));
    }

    #[test]
    fn csv_header_is_pinned() {
        // The sample-CSV header is a published interface: downstream
        // notebooks key on these exact column names. Changing it is a
        // breaking change and must be deliberate.
        assert_eq!(
            CSV_HEADER,
            "index,cycle,committed,ipc,rob,iq_int,iq_fp,lsq,rvq,lvq,boq,stb,\
             checker_fraction,dl1_accesses,dl1_misses,l2_accesses,l2_misses,commit_stall_cycles"
        );
    }

    #[test]
    fn collector_feeds_histograms() {
        let mut sink = CollectorSink::new();
        sink.record(&Event::Interval(IntervalSample {
            rvq: 12,
            rob: 100,
            ..IntervalSample::default()
        }));
        sink.record(&Event::CampaignTrial {
            trial: 0,
            site: "rvq_operand".into(),
            fate: "detected_recovered".into(),
            detect_cycles: 37,
            ok: true,
        });
        sink.record(&Event::CampaignTrial {
            trial: 1,
            site: "lvq_value".into(),
            fate: "corrected_by_ecc".into(),
            detect_cycles: 0,
            ok: true,
        });
        sink.with(|c| {
            let slack = c.registry.histogram("slack").unwrap();
            assert_eq!(slack.samples(), 1);
            assert_eq!(slack.count(Log2Histogram::bucket_of(12)), 1);
            let lat = c.registry.histogram("detection_latency").unwrap();
            assert_eq!(lat.samples(), 1, "zero-latency trials are not samples");
            assert_eq!(lat.count(Log2Histogram::bucket_of(37)), 1);
        });
    }
}
