//! The sink abstraction: where telemetry events go.
//!
//! Simulators are generic over `S: Sink`. The default, [`NullSink`],
//! has `ENABLED = false` and an inlined empty `record`, so event
//! construction is gated out by [`emit`] and the instrumented code
//! compiles to exactly the uninstrumented code. Real sinks (JSONL
//! writer, in-memory collector) opt in with `ENABLED = true`.

use crate::Event;
use std::cell::RefCell;
use std::rc::Rc;

/// A destination for telemetry [`Event`]s.
///
/// Implementations should be cheap to clone when they are to be shared
/// across the leader, checker, and system layers (wrap shared state in
/// `Rc<RefCell<..>>`).
pub trait Sink {
    /// Whether this sink observes events. [`emit`] skips event
    /// construction entirely when this is `false`, making disabled
    /// telemetry zero-cost.
    const ENABLED: bool = true;

    /// Records one event.
    fn record(&mut self, event: &Event);
}

/// Constructs and records an event only if the sink is enabled.
///
/// The closure runs only when `S::ENABLED` is true, so gathering the
/// event's fields costs nothing under [`NullSink`].
#[inline(always)]
pub fn emit<S: Sink>(sink: &mut S, build: impl FnOnce() -> Event) {
    if S::ENABLED {
        sink.record(&build());
    }
}

/// The do-nothing sink: telemetry disabled, zero runtime cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// A clonable in-memory sink that appends every event to a shared
/// vector. Used by tests and by consumers that post-process events.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Rc<RefCell<Vec<Event>>>,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Sink for RecordingSink {
    fn record(&mut self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

/// Sharing adapter: a sink behind `Rc<RefCell<..>>` is itself a sink,
/// letting several simulator layers feed one underlying sink.
impl<S: Sink> Sink for Rc<RefCell<S>> {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&mut self, event: &Event) {
        self.borrow_mut().record(event);
    }
}

/// Tee adapter: a pair of sinks receives every event in order. Enabled
/// if either side is, and [`emit`] still elides construction when both
/// sides are [`NullSink`].
impl<A: Sink, B: Sink> Sink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, event: &Event) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

/// Optional adapter: a sink that may be absent (a run ledger switched
/// off, say) is still a sink; `None` drops every event.
impl<S: Sink> Sink for Option<S> {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&mut self, event: &Event) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(cycle: u64) -> Event {
        Event::Counter {
            name: "x".into(),
            cycle,
            value: 1.0,
        }
    }

    #[test]
    fn null_sink_elides_construction() {
        let mut sink = NullSink;
        let mut built = false;
        emit(&mut sink, || {
            built = true;
            counter(0)
        });
        assert!(!built, "emit must not build events for NullSink");
    }

    #[test]
    fn recording_sink_observes_emits() {
        let mut sink = RecordingSink::new();
        emit(&mut sink, || counter(3));
        emit(&mut sink, || counter(4));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::Counter {
                name: "x".into(),
                cycle: 3,
                value: 1.0
            }
        );
    }

    #[test]
    fn clones_share_storage() {
        let sink = RecordingSink::new();
        let mut a = sink.clone();
        let mut b = sink.clone();
        emit(&mut a, || counter(1));
        emit(&mut b, || counter(2));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn tee_feeds_both_sides() {
        let rec = RecordingSink::new();
        let mut tee = (rec.clone(), rec.clone());
        emit(&mut tee, || counter(9));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn an_absent_sink_drops_events() {
        let rec = RecordingSink::new();
        let mut present = Some(rec.clone());
        let mut absent: Option<RecordingSink> = None;
        emit(&mut present, || counter(1));
        emit(&mut absent, || counter(2));
        assert_eq!(rec.events(), vec![counter(1)]);
        const { assert!(!<Option<NullSink> as Sink>::ENABLED) };
    }

    #[test]
    fn tee_of_nulls_stays_disabled() {
        const { assert!(!<(NullSink, NullSink) as Sink>::ENABLED) };
        const { assert!(<(RecordingSink, NullSink) as Sink>::ENABLED) };
    }
}
