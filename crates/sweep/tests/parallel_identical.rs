//! Integration proof of the engine's two core guarantees: a 2-thread
//! sweep aggregates byte-identical results to the 1-thread run, and a
//! second run over the same cache directory is 100% cache hits. Jobs
//! that share a trace, run grouped by benchmark, keep the records and
//! events of jobs run one by one.

use rmt3d::{simulate, ProcessorModel, RunScale};
use rmt3d_sweep::{codec, run_sweep, CacheMode, SweepOptions, SweepReport, SweepSpec};
use rmt3d_telemetry::{Event, NullSink, RecordingSink};
use rmt3d_workload::Benchmark;
use std::path::PathBuf;

fn spec() -> SweepSpec {
    SweepSpec::new(
        &[ProcessorModel::TwoDA, ProcessorModel::ThreeD2A],
        &[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim],
        RunScale {
            warmup_instructions: 2_000,
            instructions: 15_000,
            thermal_grid: 25,
        },
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep's aggregated output as bytes: every record's result in
/// spec order through the canonical codec.
fn aggregate_bytes(report: &SweepReport) -> String {
    report
        .records
        .iter()
        .map(|r| codec::encode(r.outcome.as_ref().expect("job succeeded")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_threads_match_one_thread_and_second_run_is_all_cache_hits() {
    let jobs = spec().expand();
    assert!(jobs.len() >= 6, "need at least 6 (model, benchmark) jobs");
    let total = jobs.len();

    let serial = run_sweep(jobs.clone(), &SweepOptions::serial(), &mut NullSink).unwrap();
    assert_eq!(serial.executed, total);

    let dir = tmp_dir("identical");
    let parallel_opts = SweepOptions {
        jobs: 2,
        cache: CacheMode::Dir(dir.clone()),
        ..SweepOptions::default()
    };
    let parallel = run_sweep(jobs.clone(), &parallel_opts, &mut NullSink).unwrap();
    assert_eq!(parallel.executed, total);
    assert_eq!(parallel.cache_hits, 0);
    assert_eq!(
        aggregate_bytes(&serial),
        aggregate_bytes(&parallel),
        "2-thread aggregate must be byte-identical to 1-thread"
    );

    // Oversubscribed worker pool (more threads than jobs per model):
    // still byte-identical, uncached.
    let eight = run_sweep(
        jobs.clone(),
        &SweepOptions {
            jobs: 8,
            ..SweepOptions::default()
        },
        &mut NullSink,
    )
    .unwrap();
    assert_eq!(eight.executed, total);
    assert_eq!(
        aggregate_bytes(&serial),
        aggregate_bytes(&eight),
        "8-thread aggregate must be byte-identical to 1-thread"
    );

    // Second run over the same cache: zero simulations, all hits, and
    // the aggregate is still byte-identical.
    let sink = RecordingSink::new();
    let rerun = run_sweep(jobs, &parallel_opts, &mut sink.clone()).unwrap();
    assert_eq!(rerun.executed, 0, "no job may re-simulate");
    assert_eq!(rerun.cache_hits, total);
    assert_eq!(aggregate_bytes(&serial), aggregate_bytes(&rerun));

    // Per-job events are all cache hits; the run closes with exactly
    // one pool summary and one cache summary, both all-hit.
    let events = sink.events();
    assert_eq!(events.len(), total + 2, "hits + PoolStats + CacheStats");
    let mut seen_jobs = Vec::new();
    let mut pool_stats = Vec::new();
    let mut cache_stats = Vec::new();
    for e in events.iter() {
        match e {
            Event::JobCacheHit { job, total: t, .. } => {
                assert_eq!(*t, total as u64);
                seen_jobs.push(*job);
            }
            Event::PoolStats {
                executed,
                cache_hits,
                ..
            } => pool_stats.push((*executed, *cache_hits)),
            Event::CacheStats {
                hits,
                misses,
                entries,
                bytes,
                ..
            } => cache_stats.push((*hits, *misses, *entries, *bytes)),
            other => panic!("unexpected event on a fully-cached rerun: {other:?}"),
        }
    }
    seen_jobs.sort_unstable();
    assert_eq!(seen_jobs, (0..total as u64).collect::<Vec<_>>());
    assert_eq!(pool_stats, vec![(0, total as u64)]);
    let [(hits, misses, entries, bytes)] = cache_stats[..] else {
        panic!("exactly one CacheStats event, got {cache_stats:?}");
    };
    assert_eq!(hits, total as u64);
    assert_eq!(misses, 0);
    assert_eq!(entries, total as u64, "index.json is not a cache entry");
    assert!(bytes > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn executed_sweep_emits_started_and_finished_pairs_with_eta() {
    let jobs = spec().expand();
    let total = jobs.len();
    let sink = RecordingSink::new();
    let report = run_sweep(
        jobs,
        &SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        },
        &mut sink.clone(),
    )
    .unwrap();
    assert_eq!(report.executed, total);
    let events = sink.events();
    let started = events
        .iter()
        .filter(|e| matches!(e, Event::JobStarted { .. }))
        .count();
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::JobFinished { ok, eta_nanos, .. } => Some((*ok, *eta_nanos)),
            _ => None,
        })
        .collect();
    assert_eq!(started, total);
    assert_eq!(finished.len(), total);
    assert!(finished.iter().all(|(ok, _)| *ok));
    // The last job to finish has nothing left: its ETA is zero.
    assert_eq!(finished.last().unwrap().1, 0);
}

/// One record as bytes: spec index, label, cache flag and result.
fn record_bytes(report: &SweepReport) -> Vec<String> {
    report
        .records
        .iter()
        .map(|r| {
            let outcome = r.outcome.as_ref().expect("job succeeded");
            format!(
                "{} {} {} {}",
                r.job.index,
                r.job.label(),
                r.cached,
                codec::encode(outcome)
            )
        })
        .collect()
}

#[test]
fn model_major_jobs_share_traces_and_keep_their_records_and_events() {
    // Model-major: each benchmark's jobs are `benchmarks` apart, and the
    // pool runs them together on one trace.
    let jobs = spec().expand();
    assert_ne!(jobs[0].benchmark, jobs[1].benchmark, "model-major order");
    let alone: Vec<String> = jobs
        .iter()
        .map(|j| {
            format!(
                "{} {} false {}",
                j.index,
                j.label(),
                codec::encode(&simulate(&j.cfg, j.benchmark))
            )
        })
        .collect();
    for workers in [1, 2] {
        let sink = RecordingSink::new();
        let report = run_sweep(
            jobs.clone(),
            &SweepOptions {
                jobs: workers,
                ..SweepOptions::default()
            },
            &mut sink.clone(),
        )
        .unwrap();
        assert_eq!(record_bytes(&report), alone, "{workers} workers");
        let mut started = Vec::new();
        for e in sink.events().iter() {
            if let Event::JobStarted { job, label, .. } = e {
                assert_eq!(
                    *label,
                    jobs[*job as usize].label(),
                    "events keep spec indices"
                );
                started.push(*job);
            }
        }
        started.sort_unstable();
        assert_eq!(started, (0..jobs.len() as u64).collect::<Vec<_>>());
    }
}
