//! Serial-vs-parallel wall time for the `rmt3d-sweep` engine on the
//! (model × benchmark) grid, plus cache-hit replay cost.
//!
//! Run with `cargo bench -p rmt3d-bench --bench sweep`. Set
//! `RMT3D_BENCH_JSON=path` for machine-readable records.

use rmt3d::{ProcessorModel, RunScale};
use rmt3d_bench::bench;
use rmt3d_sweep::{run_sweep, CacheMode, SweepOptions, SweepSpec};
use rmt3d_telemetry::NullSink;
use rmt3d_workload::Benchmark;
use std::hint::black_box;

fn main() {
    let spec = SweepSpec::new(
        &ProcessorModel::ALL,
        &[Benchmark::Gzip, Benchmark::Swim, Benchmark::Vpr],
        RunScale {
            warmup_instructions: 10_000,
            instructions: 60_000,
            thermal_grid: 25,
        },
    );
    let jobs = spec.expand();
    let workers = SweepOptions::default().worker_count();
    println!("sweep: {} jobs, {} workers available", jobs.len(), workers);

    let serial = bench("sweep_serial", 3, || {
        black_box(run_sweep(jobs.clone(), &SweepOptions::serial(), &mut NullSink).unwrap())
    });
    let parallel = bench("sweep_parallel_auto", 3, || {
        black_box(run_sweep(jobs.clone(), &SweepOptions::default(), &mut NullSink).unwrap())
    });
    println!(
        "parallel speedup: {:.2}x on {} workers",
        serial / parallel,
        workers
    );

    // Cached replay: first run populates, timed runs are 100% hits.
    let dir = std::env::temp_dir().join(format!("rmt3d-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        jobs: 0,
        cache: CacheMode::Dir(dir.clone()),
        ..SweepOptions::default()
    };
    run_sweep(jobs.clone(), &opts, &mut NullSink).unwrap();
    bench("sweep_cache_replay", 3, || {
        let report = run_sweep(jobs.clone(), &opts, &mut NullSink).unwrap();
        assert_eq!(report.executed, 0, "replay must be all cache hits");
        black_box(report)
    });
    let _ = std::fs::remove_dir_all(&dir);
}
