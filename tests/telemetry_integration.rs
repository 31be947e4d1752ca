//! End-to-end checks of the telemetry stack: JSONL round-trips through
//! the hand-rolled codec, traces are deterministic across identical
//! runs, and attaching a `NullSink` cannot change simulation results.

use rmt3d::telemetry::{
    CollectorSink, CpiComponent, Event, JsonlSink, RecordingSink, TraceEventSink,
};
use rmt3d::{simulate, simulate_traced, PerfResult, ProcessorModel, RunScale, SimConfig};
use rmt3d_workload::Benchmark;
use std::cell::RefCell;
use std::rc::Rc;

fn quick_cfg(model: ProcessorModel) -> SimConfig {
    SimConfig::nominal(
        model,
        RunScale {
            warmup_instructions: 5_000,
            instructions: 40_000,
            thermal_grid: 50,
        },
    )
}

/// Shared byte buffer a `JsonlSink` can write into.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run(model: ProcessorModel, interval: u64) -> (PerfResult, String) {
    let buf = SharedBuf::default();
    let jsonl = JsonlSink::new(buf.clone()).deterministic();
    let collector = CollectorSink::new();
    let r = simulate_traced(
        &quick_cfg(model),
        Benchmark::Gzip,
        interval,
        (collector.clone(), jsonl.clone()),
    );
    let mut jsonl = jsonl;
    jsonl.write_summary(&collector.snapshot().registry);
    jsonl.finish().unwrap();
    let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
    (r, text)
}

#[test]
fn every_jsonl_line_parses_and_covers_multiple_kinds() {
    let (_, text) = traced_run(ProcessorModel::ThreeD2A, 2_000);
    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0;
    for line in text.lines() {
        let parsed = Event::from_json_line(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        kinds.insert(parsed.as_ref().map_or("summary", Event::kind));
        lines += 1;
    }
    assert!(lines > 20, "trace should have many lines, got {lines}");
    assert!(
        kinds.len() >= 3,
        "expected at least 3 distinct event kinds, got {kinds:?}"
    );
    assert!(kinds.contains("interval"), "{kinds:?}");
    assert!(kinds.contains("span_begin"), "{kinds:?}");
    assert!(kinds.contains("summary"), "{kinds:?}");
    assert!(
        text.lines()
            .last()
            .unwrap()
            .contains("\"event\":\"summary\""),
        "summary is the final line"
    );
}

#[test]
fn deterministic_traces_are_byte_identical() {
    let (r1, t1) = traced_run(ProcessorModel::ThreeD2A, 5_000);
    let (r2, t2) = traced_run(ProcessorModel::ThreeD2A, 5_000);
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(t1, t2, "identical runs must produce identical traces");
}

#[test]
fn null_sink_results_match_untraced_simulate() {
    for model in [ProcessorModel::TwoDA, ProcessorModel::ThreeD2A] {
        let cfg = quick_cfg(model);
        let plain = simulate(&cfg, Benchmark::Gzip);
        let traced = simulate_traced(&cfg, Benchmark::Gzip, 0, rmt3d::telemetry::NullSink);
        assert_eq!(plain.leader, traced.leader, "{model:?}");
        assert_eq!(plain.trailer, traced.trailer, "{model:?}");
        assert_eq!(plain.total_cycles, traced.total_cycles, "{model:?}");
        assert_eq!(plain.dfs_histogram, traced.dfs_histogram, "{model:?}");
        assert_eq!(
            plain.mean_checker_fraction, traced.mean_checker_fraction,
            "{model:?}"
        );
    }
}

#[test]
fn recording_sink_results_match_untraced_simulate() {
    // Telemetry must observe, never perturb: even a live sink leaves
    // every simulated number untouched.
    let cfg = quick_cfg(ProcessorModel::ThreeD2A);
    let plain = simulate(&cfg, Benchmark::Gzip);
    let sink = RecordingSink::new();
    let traced = simulate_traced(&cfg, Benchmark::Gzip, 1_000, sink.clone());
    assert_eq!(plain.leader, traced.leader);
    assert_eq!(plain.total_cycles, traced.total_cycles);
    // The untraced checker runs behind the leader in batches; the traced
    // one steps in lockstep. Both must see the same checker.
    assert_eq!(plain.trailer, traced.trailer);
    assert_eq!(plain.dfs_histogram, traced.dfs_histogram);
    assert_eq!(plain.mean_checker_fraction, traced.mean_checker_fraction);
    assert_eq!(plain.caches, traced.caches);
    assert_eq!(format!("{:?}", plain.l2), format!("{:?}", traced.l2));
    assert!(!sink.is_empty(), "sink saw events");
}

#[test]
fn sampler_emits_expected_interval_cadence() {
    let sink = RecordingSink::new();
    let r = simulate_traced(
        &quick_cfg(ProcessorModel::TwoDA),
        Benchmark::Gzip,
        1_000,
        sink.clone(),
    );
    let samples: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Interval(_)))
        .collect();
    let expected = r.total_cycles / 1_000;
    assert!(
        samples.len() as u64 >= expected.saturating_sub(1) && samples.len() as u64 <= expected + 1,
        "{} samples over {} cycles",
        samples.len(),
        r.total_cycles
    );
    // Indices are sequential and cycles strictly increase.
    let mut last_cycle = 0;
    for (i, e) in samples.iter().enumerate() {
        let Event::Interval(s) = e else {
            unreachable!()
        };
        assert_eq!(s.index, i as u64);
        assert!(s.cycle > last_cycle || i == 0);
        last_cycle = s.cycle;
    }
}

#[test]
fn cpi_stacks_partition_total_cycles_end_to_end() {
    for model in [ProcessorModel::TwoDA, ProcessorModel::ThreeD2A] {
        let (r, _) = traced_run(model, 2_000);
        assert_eq!(
            r.leader_cpi.total(),
            r.total_cycles,
            "{model:?}: every cycle is attributed exactly once"
        );
        assert!(r.leader_cpi.get(CpiComponent::BaseIssue) > 0, "{model:?}");
        if model.has_checker() {
            assert_eq!(r.trailer_cpi.total(), r.total_cycles, "{model:?}");
            assert!(
                r.trailer_cpi.get(CpiComponent::DfsThrottled) > 0,
                "{model:?}: the checker spends gated cycles under DFS"
            );
        } else {
            assert!(r.trailer_cpi.is_empty(), "{model:?}: no checker, no stack");
        }
    }
}

#[test]
fn perfetto_trace_is_strict_json_and_byte_deterministic() {
    let render = || {
        let buf = SharedBuf::default();
        let mut sink = TraceEventSink::new(buf.clone());
        let r = simulate_traced(
            &quick_cfg(ProcessorModel::ThreeD2A),
            Benchmark::Gzip,
            2_000,
            sink.clone(),
        );
        sink.finish().unwrap();
        let bytes = buf.0.borrow().clone();
        (r, String::from_utf8(bytes).unwrap())
    };
    let (r1, t1) = render();
    let (r2, t2) = render();
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(t1, t2, "trace export must be byte-deterministic");
    let doc = rmt3d::telemetry::json::parse(&t1).expect("strict JSON");
    let events = match doc.get("traceEvents") {
        Some(rmt3d::telemetry::json::JsonValue::Arr(events)) => events,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert!(events.len() > 20, "got {} records", events.len());
    // The exported CPI counters are present for both tracks.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"cpi_leader_base_issue"), "{names:?}");
    assert!(names.contains(&"cpi_checker_dfs_throttled"), "{names:?}");
}

#[test]
fn collector_registry_summarizes_checker_series() {
    let collector = CollectorSink::new();
    let _ = simulate_traced(
        &quick_cfg(ProcessorModel::ThreeD2A),
        Benchmark::Gzip,
        2_000,
        collector.clone(),
    );
    let snap = collector.snapshot();
    assert!(snap.dfs_transitions() > 0, "DFS moved at least once");
    let ipc = snap.registry.summary("interval_ipc").expect("ipc series");
    assert!(ipc.count > 0 && ipc.min <= ipc.p50 && ipc.p50 <= ipc.max);
    assert!(
        snap.registry.summary("checker_fraction").is_some(),
        "DFS transitions feed the checker_fraction series"
    );
}
