//! # rmt3d-sweep
//!
//! A std-only parallel design-space-exploration engine for the rmt3d
//! experiment suite.
//!
//! The paper's results are an embarrassingly-parallel sweep — 19
//! benchmarks × processor models × checker-power/frequency/process
//! axes — that the original drivers ran serially. This crate turns
//! that into a job engine:
//!
//! 1. **Declarative specs** ([`SweepSpec`]): axes over
//!    [`ProcessorModel`](rmt3d::ProcessorModel),
//!    [`Benchmark`](rmt3d_workload::Benchmark), leader frequency,
//!    checker frequency cap, and NUCA policy expand into a
//!    deterministic [`JobSpec`] list.
//! 2. **Parallel execution** ([`run_sweep`]): a `std::thread` pool
//!    pulls jobs from a shared cursor; a panicking job is isolated and
//!    reported as failed while the sweep completes.
//! 3. **Deterministic aggregation** ([`SweepReport`]): records come
//!    back in spec order, so parallel output is bit-identical to
//!    serial.
//! 4. **Result cache** ([`ResultStore`]): each job persists to a
//!    content-addressed JSON entry (key = stable FNV-1a hash of the
//!    full job configuration + crate version); re-runs skip completed
//!    jobs and interrupted sweeps resume.
//! 5. **Telemetry**: job started / finished / cache-hit / stalled
//!    events with an ETA, plus end-of-run pool utilization and cache
//!    counters, stream through any [`rmt3d_telemetry::Sink`]. An
//!    optional heartbeat watchdog
//!    ([`SweepOptions::watchdog`](SweepOptions)) flags jobs that run
//!    far past the median without finishing.
//!
//! [`ParallelSimulator`] plugs the engine into the experiment drivers
//! through the [`rmt3d::Simulator`] trait: every simulating experiment
//! in `rmt3d::experiments` has one entry point, `run_with(sim, …)`.
//!
//! ```no_run
//! use rmt3d::{ProcessorModel, RunScale};
//! use rmt3d_sweep::{run_sweep, SweepOptions, SweepSpec};
//! use rmt3d_workload::Benchmark;
//!
//! let spec = SweepSpec::paper_suite(RunScale::paper());
//! let report = run_sweep(
//!     spec.expand(),
//!     &SweepOptions::default(), // all cores, no cache
//!     &mut rmt3d_telemetry::NullSink,
//! )
//! .unwrap();
//! for record in &report.records {
//!     let perf = record.outcome.as_ref().unwrap();
//!     println!("{}: IPC {:.3}", record.job.label(), perf.ipc());
//! }
//! ```

pub mod codec;
mod engine;
mod pool;
mod spec;
mod store;

pub use engine::{run_sweep, CacheMode, JobRecord, ParallelSimulator, SweepOptions, SweepReport};
pub use pool::{eta_nanos, panic_message, run_pool, PoolEvent, PoolRecord, PoolStatsSummary};
pub use spec::{JobSpec, SweepSpec, CACHE_VERSION};
pub use store::{CacheCounters, EvictionReport, IndexEntry, ResultStore, INDEX_FILE};
