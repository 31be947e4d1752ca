//! # rmt3d-telemetry
//!
//! Structured tracing, metrics, and machine-readable run artifacts for
//! the rmt3d simulation stack.
//!
//! The crate has three layers:
//!
//! 1. **Events and sinks** ([`Event`], [`Sink`], [`emit`]): simulators
//!    are generic over a sink and emit typed events — span begin/end
//!    with wall-clock timing, counter samples, DFS level transitions,
//!    fault injections, recoveries, and thermal-solver residuals. The
//!    default [`NullSink`] has `ENABLED = false`, so instrumented code
//!    compiles down to the uninstrumented code: event construction is
//!    gated behind a compile-time constant.
//! 2. **Interval sampling** ([`IntervalSample`]): the driver in
//!    `rmt3d::simulate` snapshots pipeline, intercore-queue, and cache
//!    state every N cycles into flat records.
//! 3. **Exporters** ([`JsonlSink`], [`TraceEventSink`],
//!    [`CollectorSink`], [`write_samples_csv`], [`MetricsRegistry`]):
//!    JSON Lines streams, Chrome/Perfetto traces, CSV tables, and
//!    min/max/mean/p50/p99 summaries per series.
//!
//! There is one event type in both directions: [`Event::from_json_line`]
//! decodes a JSONL trace back into [`Event`]s, which `trace-report`
//! replays through the same sinks that rendered them live.
//!
//! There is no serde in this workspace (it builds fully offline); the
//! [`json`] module provides the small writer/parser the schema needs.
//!
//! ```
//! use rmt3d_telemetry::{emit, Event, RecordingSink, Sink};
//!
//! let mut sink = RecordingSink::new();
//! emit(&mut sink, || Event::Counter { name: "ipc".into(), cycle: 100, value: 1.5 });
//! assert_eq!(sink.events().len(), 1);
//! ```

pub mod codec;
pub mod cpi;
pub mod event;
pub mod export;
pub mod json;
pub mod registry;
pub mod sample;
pub mod sink;
pub mod trace_event;

pub use cpi::{CpiComponent, CpiStack};
pub use event::Event;
pub use export::{write_samples_csv, Collector, CollectorSink, JsonlSink, CSV_HEADER};
pub use registry::{Log2Histogram, MetricsRegistry, SeriesSummary};
pub use sample::IntervalSample;
pub use sink::{emit, NullSink, RecordingSink, Sink};
pub use trace_event::TraceEventSink;

use std::time::Instant;

/// Measures the wall-clock duration of a named phase, pairing an
/// [`Event::SpanBegin`] with an [`Event::SpanEnd`].
///
/// When the sink is disabled the timer neither reads the clock nor
/// builds events.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Emits `SpanBegin` and starts the clock.
    pub fn begin<S: Sink>(sink: &mut S, name: &'static str, cycle: u64) -> SpanTimer {
        emit(sink, || Event::SpanBegin {
            name: name.into(),
            cycle,
        });
        SpanTimer {
            name,
            start: S::ENABLED.then(Instant::now),
        }
    }

    /// Emits `SpanEnd` with the elapsed wall-clock nanoseconds.
    pub fn end<S: Sink>(self, sink: &mut S, cycle: u64) {
        let wall_nanos = self
            .start
            .map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        emit(sink, || Event::SpanEnd {
            name: self.name.into(),
            cycle,
            wall_nanos,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_timer_pairs_events() {
        let mut sink = RecordingSink::new();
        let span = SpanTimer::begin(&mut sink, "phase", 5);
        span.end(&mut sink, 10);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::SpanBegin {
                name: "phase".into(),
                cycle: 5
            }
        );
        match &events[1] {
            Event::SpanEnd { name, cycle, .. } => {
                assert_eq!(name, "phase");
                assert_eq!(*cycle, 10);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn span_timer_is_silent_under_null_sink() {
        let mut sink = NullSink;
        let span = SpanTimer::begin(&mut sink, "phase", 0);
        assert!(span.start.is_none(), "no clock read when disabled");
        span.end(&mut sink, 1);
    }
}
