//! A sweep with `jobs: N` runs on exactly N worker threads plus the
//! calling thread: no simulation brings threads of its own, so a pool
//! sized to the host never silently oversubscribes it.
#![cfg(target_os = "linux")]

use rmt3d::{ProcessorModel, RunScale};
use rmt3d_sweep::{run_sweep, SweepOptions, SweepSpec};
use rmt3d_telemetry::NullSink;
use rmt3d_workload::Benchmark;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// This process's live thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn a_two_worker_sweep_adds_exactly_two_threads() {
    let jobs = SweepSpec::new(
        &[ProcessorModel::ThreeD2A],
        &[Benchmark::Gzip, Benchmark::Mcf],
        RunScale {
            warmup_instructions: 5_000,
            instructions: 30_000,
            thermal_grid: 25,
        },
    )
    .expand();

    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                thread::sleep(Duration::from_millis(1));
            }
        })
    };
    // Counted with the sampler already running.
    let before = threads();

    let opts = SweepOptions {
        jobs: 2,
        ..SweepOptions::serial()
    };
    let report = run_sweep(jobs, &opts, &mut NullSink).expect("sweep runs");
    stop.store(true, Ordering::Release);
    sampler.join().expect("sampler thread");

    assert_eq!(report.executed, 2);
    assert_eq!(report.failures, 0);
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= before + 2,
        "peak {peak} threads during a 2-worker sweep, {before} before it"
    );
}
