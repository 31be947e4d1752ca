//! The parallel execution engine.
//!
//! Jobs are pulled from a shared atomic cursor by `--jobs` worker
//! threads (default: available parallelism), each running
//! `rmt3d::simulate` with telemetry disabled — the traced path is
//! bit-identical to the untraced one, so workers lose nothing. Results
//! stream back to the coordinator (the calling thread), which owns the
//! caller's [`Sink`], emits job lifecycle events with an ETA, and
//! aggregates records in **spec order**, so parallel output is
//! bit-identical to a 1-thread run. A panicking job is caught,
//! reported as failed, and the sweep completes.
//!
//! Jobs of one benchmark at one run length share one [`Trace`]: the
//! first worker that needs it generates it, and the key's last job
//! drops it. The pool is handed the jobs grouped by that key, so only
//! the traces of the jobs running at once are live.

use crate::pool::{run_pool, PoolEvent};
use crate::spec::JobSpec;
use crate::store::ResultStore;
use rmt3d::{simulate, simulate_on, PerfResult};
use rmt3d_obs::WatchdogConfig;
use rmt3d_telemetry::{emit, Event, Sink};
use rmt3d_workload::{Benchmark, Trace};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

/// Where cached results live.
#[derive(Debug, Clone, Default)]
pub enum CacheMode {
    /// No cache: every job simulates, nothing is persisted.
    #[default]
    Disabled,
    /// Read and write entries under this directory. Completed jobs are
    /// skipped on re-runs, which is also how an interrupted sweep
    /// resumes.
    Dir(PathBuf),
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Result-cache policy.
    pub cache: CacheMode,
    /// Heartbeat watchdog; `None` (the default) disables stall
    /// detection and keeps the coordinator on a blocking `recv`.
    pub watchdog: Option<WatchdogConfig>,
    /// Cooperative cancellation flag. When set to `true` mid-sweep,
    /// jobs not yet started fail fast with a `"cancelled"` panic
    /// message instead of simulating; jobs already simulating run to
    /// completion (and are cached), so a cancelled sweep still makes
    /// resumable progress. `None` (the default) disables the check.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SweepOptions {
    /// Serial execution, no cache — the reference configuration.
    pub fn serial() -> SweepOptions {
        SweepOptions {
            jobs: 1,
            cache: CacheMode::Disabled,
            watchdog: None,
            cancel: None,
        }
    }

    /// The worker count after resolving the 0-means-auto default.
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            thread::available_parallelism().map_or(1, usize::from)
        }
    }
}

/// One job's outcome, in spec order inside [`SweepReport`].
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job that produced this record.
    pub job: JobSpec,
    /// The result, or the panic message of a failed job.
    pub outcome: Result<PerfResult, String>,
    /// True when the result came from the cache without simulating.
    pub cached: bool,
    /// Wall-clock nanoseconds spent simulating (0 for cache hits).
    pub wall_nanos: u64,
}

/// Aggregated output of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One record per job, in spec order — independent of execution
    /// order and worker count.
    pub records: Vec<JobRecord>,
    /// Wall-clock nanoseconds for the whole sweep.
    pub wall_nanos: u64,
    /// Jobs that actually simulated.
    pub executed: usize,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Jobs that panicked.
    pub failures: usize,
}

impl SweepReport {
    /// The results in spec order, or the first failure's message.
    ///
    /// # Errors
    ///
    /// Returns the label and panic message of the first failed job.
    pub fn results(&self) -> Result<Vec<PerfResult>, String> {
        self.records
            .iter()
            .map(|r| {
                r.outcome
                    .clone()
                    .map_err(|e| format!("job {} ({}) failed: {e}", r.job.index, r.job.label()))
            })
            .collect()
    }

    /// One-line completion summary (`simulated N, cache-hit M, failed K`).
    pub fn summary(&self) -> String {
        format!(
            "{} jobs in {:.1} s: simulated {}, cache-hit {}, failed {}",
            self.records.len(),
            self.wall_nanos as f64 / 1e9,
            self.executed,
            self.cache_hits,
            self.failures
        )
    }
}

/// The traces of one sweep, one per (benchmark, trace length) key:
/// built by the first job that needs it, dropped after the key's last
/// job.
struct SharedTraces {
    /// The keys, in order of first appearance.
    keys: Vec<(Benchmark, usize)>,
    /// Each job's position in `keys`, by spec index.
    key_of: Vec<usize>,
    /// Per key: the trace once built, and the jobs not yet done.
    slots: Vec<Mutex<(Option<Trace>, usize)>>,
}

impl SharedTraces {
    fn new(jobs: &[JobSpec]) -> SharedTraces {
        let mut keys: Vec<(Benchmark, usize)> = Vec::new();
        let key_of: Vec<usize> = jobs
            .iter()
            .map(|job| {
                let key = (job.benchmark, job.cfg.scale.trace_len());
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        let mut left = vec![0; keys.len()];
        for &k in &key_of {
            left[k] += 1;
        }
        SharedTraces {
            keys,
            key_of,
            slots: left.into_iter().map(|n| Mutex::new((None, n))).collect(),
        }
    }

    /// Spec indices grouped by key, stably, keys in order of first
    /// appearance: the order the pool is handed the jobs.
    fn pool_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.key_of.len()).collect();
        order.sort_by_key(|&i| self.key_of[i]);
        order
    }

    fn slot(&self, index: usize) -> MutexGuard<'_, (Option<Trace>, usize)> {
        self.slots[self.key_of[index]]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The trace of job `index`, generated on first demand. Other jobs
    /// of the key wait for it rather than generate it again.
    fn get(&self, index: usize) -> Trace {
        let (benchmark, len) = self.keys[self.key_of[index]];
        self.slot(index)
            .0
            .get_or_insert_with(|| Trace::new(benchmark.profile(), len))
            .clone()
    }

    /// Counts job `index` done; the key's last job drops the trace.
    fn done(&self, index: usize) {
        let mut slot = self.slot(index);
        slot.1 -= 1;
        if slot.1 == 0 {
            slot.0 = None;
        }
    }
}

/// Counts a job done when its run ends, panic or not.
struct Done<'a>(&'a SharedTraces, usize);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.done(self.1);
    }
}

/// Runs every job and aggregates the records in spec order.
///
/// Events emitted to `sink`: [`Event::JobStarted`] when a worker begins
/// simulating a job, [`Event::JobFinished`] (with wall time and an ETA
/// extrapolated from the mean executed-job wall time) when it
/// completes, and [`Event::JobCacheHit`] when the cache satisfies a job
/// without simulation. When [`SweepOptions::watchdog`] is set, silent
/// jobs surface as [`Event::JobStalled`]. After the pool drains, one
/// [`Event::PoolStats`] reports utilization totals, and — when a cache
/// directory is configured — one [`Event::CacheStats`] reports lookup
/// counters plus on-disk entry totals (the usage index is also flushed,
/// best-effort).
///
/// # Errors
///
/// Returns an error when the cache directory cannot be created; job
/// panics are *not* errors — they surface as failed [`JobRecord`]s.
pub fn run_sweep<S: Sink>(
    jobs: Vec<JobSpec>,
    opts: &SweepOptions,
    sink: &mut S,
) -> Result<SweepReport, String> {
    let store = match &opts.cache {
        CacheMode::Disabled => None,
        CacheMode::Dir(dir) => {
            Some(ResultStore::open(dir).map_err(|e| format!("cannot open cache {dir:?}: {e}"))?)
        }
    };
    let total = jobs.len();
    let t0 = Instant::now();
    let store = store.as_ref();
    let traces = SharedTraces::new(&jobs);
    // The pool sees positions in `order`; everything it reports is
    // mapped back to spec indices.
    let order = traces.pool_order();
    let pool_records = run_pool(
        &order,
        opts.worker_count(),
        |&i: &usize| {
            let hit = store.and_then(|s| s.load(&jobs[i]));
            if hit.is_some() {
                traces.done(i);
            }
            hit
        },
        |&i: &usize| {
            let _done = Done(&traces, i);
            // Cancellation rides the pool's existing panic channel: the
            // worker's catch_unwind turns this into a failed record
            // with message "cancelled", and the sweep still drains.
            if let Some(flag) = &opts.cancel {
                if flag.load(Ordering::SeqCst) {
                    panic!("cancelled");
                }
            }
            let job = &jobs[i];
            simulate_on(&job.cfg, job.benchmark, traces.get(i))
        },
        |&i: &usize, result: &PerfResult| {
            // Cache writes are best-effort: a full disk must not fail
            // the sweep, only cost the resume.
            if let Some(store) = store {
                let _ = store.save(&jobs[i], result);
            }
        },
        opts.watchdog,
        |_, _, _| {},
        |ev| match ev {
            PoolEvent::Started { index } => emit(sink, || Event::JobStarted {
                job: order[index] as u64,
                total: total as u64,
                label: jobs[order[index]].label(),
            }),
            PoolEvent::CacheHit { index } => emit(sink, || Event::JobCacheHit {
                job: order[index] as u64,
                total: total as u64,
                label: jobs[order[index]].label(),
            }),
            PoolEvent::Finished {
                index,
                ok,
                wall_nanos,
                eta_nanos,
            } => emit(sink, || Event::JobFinished {
                job: order[index] as u64,
                total: total as u64,
                ok,
                wall_nanos,
                eta_nanos,
            }),
            PoolEvent::Stalled {
                index,
                elapsed_nanos,
                median_nanos,
            } => emit(sink, || Event::JobStalled {
                job: order[index] as u64,
                total: total as u64,
                label: jobs[order[index]].label(),
                elapsed_nanos,
                median_nanos,
            }),
            PoolEvent::Drained { stats } => emit(sink, || Event::PoolStats {
                workers: stats.workers,
                executed: stats.executed,
                cache_hits: stats.cache_hits,
                failed: stats.failed,
                steals: stats.steals,
                busy_nanos: stats.busy_nanos,
                idle_nanos: stats.idle_nanos,
                wall_nanos: stats.wall_nanos,
            }),
        },
    );
    if let Some(store) = store {
        // The usage index is advisory; a failed flush costs only the
        // eviction metadata.
        let _ = store.flush_index();
        let counters = store.stats();
        let (entries, bytes) = store.totals().unwrap_or((0, 0));
        emit(sink, || Event::CacheStats {
            hits: counters.hits,
            misses: counters.misses,
            verify_failures: counters.verify_failures,
            entries,
            bytes,
        });
    }

    let mut by_spec: Vec<_> = order.iter().zip(pool_records).collect();
    by_spec.sort_by_key(|(&i, _)| i);
    let mut executed = 0usize;
    let mut cache_hits = 0usize;
    let mut failures = 0usize;
    let records: Vec<JobRecord> = jobs
        .iter()
        .zip(by_spec.into_iter().map(|(_, r)| r))
        .map(|(job, r)| {
            if r.cached {
                cache_hits += 1;
            } else {
                executed += 1;
                if r.outcome.is_err() {
                    failures += 1;
                }
            }
            JobRecord {
                job: job.clone(),
                outcome: r.outcome,
                cached: r.cached,
                wall_nanos: r.wall_nanos,
            }
        })
        .collect();
    Ok(SweepReport {
        records,
        wall_nanos: t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        executed,
        cache_hits,
        failures,
    })
}

/// A [`rmt3d::Simulator`] that fans batches out through [`run_sweep`],
/// letting every experiment driver's `run_with` (fig4, fig5, fig6,
/// fig7, iso-thermal, heterogeneous, the Fig. 1 summary, DTM, leakage
/// feedback and resilience) overlap its independent simulations.
///
/// # Panics
///
/// [`rmt3d::Simulator::simulate_batch`] panics when a job fails, since
/// the experiment drivers' signatures have no failure channel for
/// individual runs — matching the serial behaviour, where a panicking
/// `simulate` unwinds through the driver.
#[derive(Debug, Clone, Default)]
pub struct ParallelSimulator {
    opts: SweepOptions,
}

impl ParallelSimulator {
    /// A simulator with `jobs` workers (0 = available parallelism) and
    /// no cache.
    pub fn new(jobs: usize) -> ParallelSimulator {
        ParallelSimulator {
            opts: SweepOptions {
                jobs,
                ..SweepOptions::default()
            },
        }
    }

    /// Attaches a result cache so repeated experiment invocations skip
    /// completed simulations.
    #[must_use]
    pub fn with_cache(mut self, dir: PathBuf) -> ParallelSimulator {
        self.opts.cache = CacheMode::Dir(dir);
        self
    }
}

impl rmt3d::Simulator for ParallelSimulator {
    fn simulate(&self, cfg: &rmt3d::SimConfig, benchmark: rmt3d_workload::Benchmark) -> PerfResult {
        simulate(cfg, benchmark)
    }

    fn simulate_batch(
        &self,
        batch: &[(rmt3d::SimConfig, rmt3d_workload::Benchmark)],
    ) -> Vec<PerfResult> {
        let jobs: Vec<JobSpec> = batch
            .iter()
            .enumerate()
            .map(|(index, (cfg, benchmark))| JobSpec {
                index,
                cfg: cfg.clone(),
                benchmark: *benchmark,
            })
            .collect();
        let report = run_sweep(jobs, &self.opts, &mut rmt3d_telemetry::NullSink)
            .unwrap_or_else(|e| panic!("sweep engine: {e}"));
        report.results().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use rmt3d::{ProcessorModel, RunScale};
    use rmt3d_telemetry::NullSink;
    use rmt3d_workload::Benchmark;

    fn tiny() -> RunScale {
        RunScale {
            warmup_instructions: 2_000,
            instructions: 15_000,
            thermal_grid: 25,
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let mut jobs = SweepSpec::new(
            &[ProcessorModel::TwoDA],
            &[Benchmark::Gzip, Benchmark::Mcf],
            tiny(),
        )
        .expand();
        // An empty NUCA layout makes the cache model panic on first
        // access; the engine must report that job failed and still
        // complete the other.
        jobs[0].cfg.layout = Some(rmt3d_cache::NucaLayout {
            banks: vec![],
            ..rmt3d_cache::NucaLayout::two_d_a()
        });
        let report = run_sweep(
            jobs,
            &SweepOptions {
                jobs: 2,
                ..SweepOptions::default()
            },
            &mut NullSink,
        )
        .expect("engine runs");
        assert_eq!(report.failures, 1);
        assert!(report.records[0].outcome.is_err());
        assert!(report.records[1].outcome.is_ok());
        assert!(report.results().is_err());
        assert!(report.summary().contains("failed 1"));
    }

    #[test]
    fn traces_are_grouped_shared_and_dropped_after_their_last_job() {
        let jobs = SweepSpec::new(
            &[ProcessorModel::TwoDA, ProcessorModel::ThreeD2A],
            &[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim],
            tiny(),
        )
        .expand();
        let traces = SharedTraces::new(&jobs);
        assert_eq!(traces.pool_order(), [0, 3, 1, 4, 2, 5]);
        let live = |i: usize| traces.slot(i).0.is_some();
        let _ = traces.get(0);
        traces.done(0);
        assert!(live(3), "the key's other job still needs it");
        let _ = traces.get(3);
        traces.done(3);
        assert!(!live(0) && !live(3), "dropped after the key's last job");
        assert!(!live(1), "built on demand only");
    }

    #[test]
    fn worker_count_resolves_auto() {
        assert!(SweepOptions::default().worker_count() >= 1);
        assert_eq!(
            SweepOptions {
                jobs: 3,
                ..Default::default()
            }
            .worker_count(),
            3
        );
    }
}
