//! `sweep-cold`: the 76-job paper suite (4 models × 19 benchmarks)
//! through `run_sweep` into a fresh result cache. The seed permutes
//! the order jobs are handed to the pool; results are checked per job,
//! keyed by label, so the check does not depend on that order.

use super::{permutation, secs, Ctx, PoolSink, Prepared, Round, Size};
use crate::digest;
use crate::expected::Expected;
use crate::trace::Tracer;
use rmt3d::{ProcessorModel, RunScale};
use rmt3d_sweep::{codec, run_sweep, CacheMode, JobSpec, SweepOptions, SweepSpec};
use rmt3d_workload::Benchmark;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "sweep-cold";

/// Simulation lengths of every sweep job (`Size::Full`).
pub const SCALE: RunScale = RunScale {
    warmup_instructions: 10_000,
    instructions: 100_000,
    thermal_grid: 50,
};

/// The job list of a round. The seed permutes the order of the models
/// and, shared by every model, the order of the benchmarks; jobs stay
/// model-major, so whatever the seed, jobs that run at once (on hosts
/// with four CPUs or more, which get two workers) are mostly of the
/// same model.
pub fn jobs(size: Size, seed: u64) -> Vec<JobSpec> {
    let (models, benchmarks, scale): (&[ProcessorModel], &[Benchmark], RunScale) = match size {
        Size::Full => (&ProcessorModel::ALL, &Benchmark::ALL, SCALE),
        Size::Tiny => (
            &[ProcessorModel::TwoDA, ProcessorModel::ThreeD2A],
            &[Benchmark::Gzip, Benchmark::Mcf],
            RunScale {
                warmup_instructions: 1_000,
                instructions: 5_000,
                thermal_grid: 10,
            },
        ),
    };
    let models: Vec<ProcessorModel> = permutation(models.len(), seed)
        .iter()
        .map(|&i| models[i])
        .collect();
    let benchmarks: Vec<Benchmark> = permutation(benchmarks.len(), seed ^ 0x5eed)
        .iter()
        .map(|&i| benchmarks[i])
        .collect();
    SweepSpec::new(&models, &benchmarks, scale).expand()
}

/// A cold sweep, ready to run.
pub struct SweepCold {
    jobs: Vec<JobSpec>,
    opts: SweepOptions,
}

impl SweepCold {
    /// Expands the jobs in the seed's order and creates an empty cache
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn setup(ctx: &Ctx) -> Result<SweepCold, String> {
        let jobs = jobs(ctx.size, ctx.seed);
        let cache = ctx.dir.join("cache");
        std::fs::create_dir_all(&cache).map_err(|e| format!("cannot create {cache:?}: {e}"))?;
        Ok(SweepCold {
            jobs,
            opts: SweepOptions {
                jobs: ctx.workers,
                cache: CacheMode::Dir(cache),
                ..SweepOptions::default()
            },
        })
    }
}

impl Prepared for SweepCold {
    fn run(self: Box<Self>, tracer: &Tracer, expected: Option<&Expected>) -> Round {
        let mut sink = PoolSink::default();
        let t0 = Instant::now();
        let report = tracer.span_n("sweep::run_sweep", self.jobs.len() as u64, 0, || {
            run_sweep(self.jobs, &self.opts, &mut sink)
        });
        let mut round = Round {
            wall_s: secs(t0),
            layer: sink.layer_obs(),
            ..Round::default()
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                round.check(false, || format!("run_sweep refused: {e}"));
                return round;
            }
        };
        let mut results = Vec::new();
        for rec in &report.records {
            round.job_ms.push(rec.wall_nanos as f64 / 1e6);
            let label = rec.job.label();
            match &rec.outcome {
                Ok(r) => {
                    round.instructions +=
                        r.leader.committed + rec.job.cfg.scale.warmup_instructions;
                    let encoded = codec::encode(r);
                    let h = digest::hash_hex(encoded.as_bytes());
                    results.push((rec.job.canonical(), h.clone()));
                    round.expect(expected, NAME, label, h, true);
                }
                Err(e) => round.check(false, || format!("job {label} panicked: {e}")),
            }
        }
        round.check(report.cache_hits == 0, || {
            format!(
                "cold sweep served {} jobs from the cache",
                report.cache_hits
            )
        });
        round
            .digests
            .push(("results".to_string(), digest::keyed(&results)));
        round
    }
}
