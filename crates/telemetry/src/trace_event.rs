//! Chrome/Perfetto `trace_event` export.
//!
//! [`TraceEventSink`] streams every [`Event`] as a record in the
//! standard [trace-event JSON format], so a run's `.trace.json` loads
//! directly in `ui.perfetto.dev` or `chrome://tracing`. Timestamps are
//! the leader cycle interpreted as microseconds — no wall clock is ever
//! read, so two identical runs produce byte-identical traces.
//!
//! Track layout (one process, four threads):
//! - tid 1 `leader`: counter samples and fault/recovery instants
//! - tid 2 `checker`: counter series whose name starts with `checker`
//! - tid 3 `driver`: phase spans (`warmup`, `measure`, …), sweep-job
//!   and campaign instants, thermal-solver residuals
//! - tid 4 `daemon`: job-lifecycle spans from `rmt3d serve`, rendered
//!   as *async* events (`"ph":"b"`/`"e"`, `"cat":"job"`, `"id"` = job
//!   sequence) so overlapping jobs each get their own nested lane
//!
//! [trace-event JSON format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! [`Sink::record`] is the only renderer. `rmt3d trace-report
//! --chrome-out` decodes a JSONL trace with [`Event::from_json_line`]
//! and records each event here, so a replayed trace is byte-identical
//! to one written live. That is how the daemon's `daemon.trace.jsonl`
//! becomes a timeline: the daemon is multi-threaded and cannot hold
//! this `Rc`-based sink, so it appends JSONL and the file is rendered
//! offline.
//!
//! The sink is clonable (clones share the writer) and finalizes the
//! JSON document exactly once: call [`TraceEventSink::finish`] to close
//! the array and surface I/O errors, or rely on the drop guard, which
//! best-effort terminates the document when the last clone goes away —
//! an early CLI error path still leaves a parseable trace behind.

use crate::json::JsonObject;
use crate::sink::Sink;
use crate::Event;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

const PID: u64 = 1;
const TID_LEADER: u64 = 1;
const TID_CHECKER: u64 = 2;
const TID_DRIVER: u64 = 3;
const TID_DAEMON: u64 = 4;

/// Streams events in Chrome/Perfetto `trace_event` JSON format.
#[derive(Debug)]
pub struct TraceEventSink<W: Write> {
    state: Rc<RefCell<TraceState<W>>>,
}

// Manual impl: clones share the writer through the `Rc`, so `W` does
// not need to be `Clone` (mirrors `JsonlSink`).
impl<W: Write> Clone for TraceEventSink<W> {
    fn clone(&self) -> Self {
        TraceEventSink {
            state: Rc::clone(&self.state),
        }
    }
}

#[derive(Debug)]
struct TraceState<W: Write> {
    out: W,
    first: bool,
    finished: bool,
    error: Option<io::Error>,
}

impl<W: Write> TraceState<W> {
    fn write_record(&mut self, json: &str) {
        let sep: &[u8] = if self.first { b"\n" } else { b",\n" };
        self.first = false;
        let r = self
            .out
            .write_all(sep)
            .and_then(|()| self.out.write_all(json.as_bytes()));
        if let Err(e) = r {
            self.note_error(e);
        }
    }

    fn terminate(&mut self) -> io::Result<()> {
        if !self.finished {
            self.finished = true;
            self.out.write_all(b"\n]}\n")?;
            self.out.flush()?;
        }
        Ok(())
    }

    fn note_error(&mut self, e: io::Error) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

impl<W: Write> Drop for TraceState<W> {
    fn drop(&mut self) {
        // Best-effort: a sink dropped without `finish()` (early-return
        // error path) still leaves a complete JSON document behind.
        let _ = self.terminate();
    }
}

impl<W: Write> TraceEventSink<W> {
    /// Wraps a writer and emits the document header plus the
    /// process/thread-name metadata records.
    pub fn new(out: W) -> Self {
        let sink = TraceEventSink {
            state: Rc::new(RefCell::new(TraceState {
                out,
                first: true,
                finished: false,
                error: None,
            })),
        };
        {
            let mut st = sink.state.borrow_mut();
            if let Err(e) = st.out.write_all(b"{\"traceEvents\":[") {
                st.note_error(e);
            }
            let meta = [
                (0, "process_name", "rmt3d"),
                (TID_LEADER, "thread_name", "leader"),
                (TID_CHECKER, "thread_name", "checker"),
                (TID_DRIVER, "thread_name", "driver"),
                (TID_DAEMON, "thread_name", "daemon"),
            ];
            for (tid, kind, name) in meta {
                let mut args = JsonObject::new();
                args.str("name", name);
                let mut o = JsonObject::new();
                o.str("name", kind).str("ph", "M").u64("pid", PID);
                if tid != 0 {
                    o.u64("tid", tid);
                }
                o.raw("args", &args.finish());
                st.write_record(&o.finish());
            }
        }
        sink
    }

    /// Closes the `traceEvents` array, flushes, and surfaces the first
    /// I/O error hit while streaming, if any. Idempotent; the drop
    /// guard covers paths that never get here.
    pub fn finish(&mut self) -> io::Result<()> {
        let mut st = self.state.borrow_mut();
        if let Err(e) = st.terminate() {
            st.note_error(e);
        }
        match st.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<W: Write> Sink for TraceEventSink<W> {
    fn record(&mut self, event: &Event) {
        match event {
            Event::SpanBegin { name, cycle } => {
                self.span(name, "B", *cycle);
            }
            Event::SpanEnd { name, cycle, .. } => {
                // Wall-clock nanos are dropped: trace output must stay
                // byte-identical across runs.
                self.span(name, "E", *cycle);
            }
            Event::Counter { name, cycle, value } => {
                self.counter(name, *cycle, &[("value", *value)]);
            }
            Event::DfsTransition {
                cycle,
                to_level,
                fraction,
                ..
            } => {
                self.counter(
                    "checker_frequency",
                    *cycle,
                    &[("fraction", *fraction), ("level", f64::from(*to_level))],
                );
            }
            Event::FaultInjected {
                cycle,
                site,
                bit,
                corrected,
            } => {
                let mut args = JsonObject::new();
                args.str("site", site)
                    .u64("bit", u64::from(*bit))
                    .bool("corrected", *corrected);
                self.instant("fault", *cycle, TID_LEADER, &args.finish());
            }
            Event::Recovery {
                cycle,
                penalty_cycles,
                unrecoverable,
            } => {
                let mut args = JsonObject::new();
                args.u64("penalty_cycles", *penalty_cycles)
                    .bool("unrecoverable", *unrecoverable);
                self.instant("recovery", *cycle, TID_LEADER, &args.finish());
            }
            Event::SolverIteration {
                iteration,
                residual,
            } => {
                self.counter("solver_residual", *iteration, &[("kelvin", *residual)]);
            }
            Event::Interval(s) => {
                self.counter("ipc", s.cycle, &[("value", s.ipc)]);
                self.counter(
                    "slack_queues",
                    s.cycle,
                    &[
                        ("rvq", f64::from(s.rvq)),
                        ("lvq", f64::from(s.lvq)),
                        ("boq", f64::from(s.boq)),
                        ("stb", f64::from(s.stb)),
                    ],
                );
                self.counter(
                    "leader_occupancy",
                    s.cycle,
                    &[
                        ("rob", f64::from(s.rob)),
                        ("iq_int", f64::from(s.iq_int)),
                        ("iq_fp", f64::from(s.iq_fp)),
                        ("lsq", f64::from(s.lsq)),
                    ],
                );
                self.counter(
                    "checker_fraction",
                    s.cycle,
                    &[("value", s.checker_fraction)],
                );
            }
            Event::JobStarted { job, total, label } => {
                let mut args = JsonObject::new();
                args.u64("job", *job)
                    .u64("total", *total)
                    .str("label", label);
                self.instant("job_started", *job, TID_DRIVER, &args.finish());
            }
            Event::JobFinished { job, total, ok, .. } => {
                let mut args = JsonObject::new();
                args.u64("job", *job).u64("total", *total).bool("ok", *ok);
                self.instant("job_finished", *job, TID_DRIVER, &args.finish());
            }
            Event::JobCacheHit { job, total, label } => {
                let mut args = JsonObject::new();
                args.u64("job", *job)
                    .u64("total", *total)
                    .str("label", label);
                self.instant("job_cache_hit", *job, TID_DRIVER, &args.finish());
            }
            Event::PoolStats {
                workers,
                executed,
                cache_hits,
                failed,
                ..
            } => {
                // Wall-clock and schedule-dependent fields are dropped:
                // trace output must stay byte-identical across runs.
                let mut args = JsonObject::new();
                args.u64("workers", *workers)
                    .u64("executed", *executed)
                    .u64("cache_hits", *cache_hits)
                    .u64("failed", *failed);
                self.instant("pool_stats", 0, TID_DRIVER, &args.finish());
            }
            Event::CacheStats {
                hits,
                misses,
                verify_failures,
                entries,
                bytes,
            } => {
                let mut args = JsonObject::new();
                args.u64("hits", *hits)
                    .u64("misses", *misses)
                    .u64("verify_failures", *verify_failures)
                    .u64("entries", *entries)
                    .u64("bytes", *bytes);
                self.instant("cache_stats", 0, TID_DRIVER, &args.finish());
            }
            Event::JobStalled {
                job, total, label, ..
            } => {
                let mut args = JsonObject::new();
                args.u64("job", *job)
                    .u64("total", *total)
                    .str("label", label);
                self.instant("job_stalled", *job, TID_DRIVER, &args.finish());
            }
            Event::JobSpanBegin { job, phase, ts } => {
                self.async_span(phase, "b", *job, *ts);
            }
            Event::JobSpanEnd { job, phase, ts, .. } => {
                // Wall-clock nanos are dropped: trace output must stay
                // byte-identical across runs.
                self.async_span(phase, "e", *job, *ts);
            }
            Event::CampaignTrial {
                trial,
                site,
                fate,
                detect_cycles,
                ok,
            } => {
                let mut args = JsonObject::new();
                args.str("site", site)
                    .str("fate", fate)
                    .u64("detect_cycles", *detect_cycles)
                    .bool("ok", *ok);
                self.instant("campaign_trial", *trial, TID_DRIVER, &args.finish());
            }
        }
    }
}

impl<W: Write> TraceEventSink<W> {
    fn span(&mut self, name: &str, ph: &str, ts: u64) {
        let mut o = JsonObject::new();
        o.str("name", name)
            .str("ph", ph)
            .str("cat", "phase")
            .u64("ts", ts)
            .u64("pid", PID)
            .u64("tid", TID_DRIVER);
        self.state.borrow_mut().write_record(&o.finish());
    }

    fn counter(&mut self, name: &str, ts: u64, values: &[(&str, f64)]) {
        let tid = if name.starts_with("checker") || name.starts_with("cpi_checker") {
            TID_CHECKER
        } else {
            TID_LEADER
        };
        let mut args = JsonObject::new();
        for (key, value) in values {
            args.f64(key, *value);
        }
        let mut o = JsonObject::new();
        o.str("name", name)
            .str("ph", "C")
            .u64("ts", ts)
            .u64("pid", PID)
            .u64("tid", tid)
            .raw("args", &args.finish());
        self.state.borrow_mut().write_record(&o.finish());
    }

    /// One half of a Chrome *async* span: grouped by `"cat"` + `"id"`
    /// (the daemon job sequence) rather than thread stack order, so
    /// spans of concurrently-queued jobs nest per job instead of
    /// corrupting one shared B/E stack.
    fn async_span(&mut self, name: &str, ph: &str, id: u64, ts: u64) {
        let mut o = JsonObject::new();
        o.str("name", name)
            .str("ph", ph)
            .str("cat", "job")
            .str("id", &format!("0x{id:x}"))
            .u64("ts", ts)
            .u64("pid", PID)
            .u64("tid", TID_DAEMON);
        self.state.borrow_mut().write_record(&o.finish());
    }

    fn instant(&mut self, name: &str, ts: u64, tid: u64, args: &str) {
        let mut o = JsonObject::new();
        o.str("name", name)
            .str("ph", "i")
            .str("s", "t")
            .u64("ts", ts)
            .u64("pid", PID)
            .u64("tid", tid)
            .raw("args", args);
        self.state.borrow_mut().write_record(&o.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::sample::IntervalSample;

    /// Shared byte buffer that outlives the sink, so tests can inspect
    /// output written by the drop guard.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive(sink: &mut TraceEventSink<SharedBuf>) {
        sink.record(&Event::SpanBegin {
            name: "measure".into(),
            cycle: 0,
        });
        sink.record(&Event::Counter {
            name: "leader_commit_stall".into(),
            cycle: 10,
            value: 1.0,
        });
        sink.record(&Event::Interval(IntervalSample {
            index: 0,
            cycle: 100,
            ipc: 1.25,
            rvq: 12,
            ..IntervalSample::default()
        }));
        sink.record(&Event::DfsTransition {
            cycle: 150,
            from_level: 4,
            to_level: 5,
            fraction: 0.6,
        });
        sink.record(&Event::FaultInjected {
            cycle: 180,
            site: "rvq_operand".into(),
            bit: 3,
            corrected: false,
        });
        sink.record(&Event::SpanEnd {
            name: "measure".into(),
            cycle: 200,
            wall_nanos: 123_456,
        });
    }

    fn trace_events(text: &str) -> Vec<JsonValue> {
        let doc = parse(text).unwrap_or_else(|e| panic!("invalid trace JSON: {e}\n{text}"));
        match doc.get("traceEvents") {
            Some(JsonValue::Arr(events)) => events.clone(),
            other => panic!("traceEvents missing or not an array: {other:?}"),
        }
    }

    #[test]
    fn finished_trace_is_valid_and_tracked() {
        let buf = SharedBuf::default();
        let mut sink = TraceEventSink::new(buf.clone());
        drive(&mut sink);
        sink.finish().unwrap();
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let events = trace_events(&text);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 5);
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 1);
        assert!(phases.iter().filter(|p| **p == "C").count() >= 5);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        // The checker_frequency counter lands on the checker track.
        let dfs = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("checker_frequency"))
            .unwrap();
        assert_eq!(dfs.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(
            dfs.get("args").unwrap().get("fraction").unwrap().as_f64(),
            Some(0.6)
        );
        // Wall-clock fields never reach the trace.
        assert!(!text.contains("wall_nanos"));
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let render = || {
            let buf = SharedBuf::default();
            let mut sink = TraceEventSink::new(buf.clone());
            drive(&mut sink);
            sink.finish().unwrap();
            let bytes = buf.0.borrow().clone();
            bytes
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn drop_without_finish_still_terminates_the_document() {
        let buf = SharedBuf::default();
        {
            let sink = TraceEventSink::new(buf.clone());
            let mut clone = sink.clone();
            drive(&mut clone);
            // Both clones dropped here without finish(): simulates a CLI
            // error path bailing early.
        }
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        assert!(text.ends_with("]}\n"));
        assert!(!trace_events(&text).is_empty());
    }

    #[test]
    fn finish_is_idempotent_and_single_terminator() {
        let buf = SharedBuf::default();
        let mut sink = TraceEventSink::new(buf.clone());
        let mut clone = sink.clone();
        drive(&mut clone);
        sink.finish().unwrap();
        sink.finish().unwrap();
        drop(clone);
        drop(sink);
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        assert_eq!(text.matches("]}").count(), 1);
        trace_events(&text);
    }

    #[test]
    fn empty_trace_is_valid() {
        let buf = SharedBuf::default();
        TraceEventSink::new(buf.clone()).finish().unwrap();
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        assert_eq!(trace_events(&text).len(), 5, "metadata records only");
    }

    #[test]
    fn job_spans_render_as_async_events_keyed_by_job() {
        let buf = SharedBuf::default();
        let mut sink = TraceEventSink::new(buf.clone());
        // Two jobs with interleaved queued phases: a same-tid B/E stack
        // would mis-nest these; async ids keep them separate.
        sink.record(&Event::JobSpanBegin {
            job: 1,
            phase: "queued".into(),
            ts: 10,
        });
        sink.record(&Event::JobSpanBegin {
            job: 2,
            phase: "queued".into(),
            ts: 11,
        });
        sink.record(&Event::JobSpanEnd {
            job: 1,
            phase: "queued".into(),
            ts: 20,
            wall_nanos: 99,
        });
        sink.record(&Event::JobSpanEnd {
            job: 2,
            phase: "queued".into(),
            ts: 30,
            wall_nanos: 77,
        });
        sink.finish().unwrap();
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let events = trace_events(&text);
        let spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("job"))
            .collect();
        assert_eq!(spans.len(), 4);
        for span in &spans {
            let ph = span.get("ph").and_then(JsonValue::as_str).unwrap();
            assert!(ph == "b" || ph == "e", "async phases only, got {ph}");
            assert!(span.get("id").and_then(JsonValue::as_str).is_some());
            assert_eq!(span.get("tid").unwrap().as_u64(), Some(TID_DAEMON));
        }
        assert_eq!(spans[0].get("id").and_then(JsonValue::as_str), Some("0x1"));
        assert_eq!(spans[1].get("id").and_then(JsonValue::as_str), Some("0x2"));
        // Wall-clock fields never reach the trace.
        assert!(!text.contains("wall_nanos"));
    }
}
