//! The four workloads. Each one is set up (until it is ready to run),
//! then run once as a timed round; the benchmark repeats rounds, each
//! from a fresh set-up, and reports medians across them.

use crate::expected::{Expected, Verdict};
use crate::probe::HostIndex;
use crate::trace::Tracer;
use rmt3d::telemetry::{Event, Sink};
use rmt3d_workload::SplitMix64;
use std::path::PathBuf;
use std::time::Instant;

pub mod campaign;
pub mod daemon;
pub mod sweep;
pub mod thermal;

/// Workload names. `BENCHMARK.json` gates `campaign-journaled` and
/// `sweep-cold` (see the README).
pub const NAMES: [&str; 4] = [
    "sweep-cold",
    "thermal-fig4",
    "campaign-journaled",
    "daemon-mixed",
];

/// How big a round is: `Full` is the benchmark, `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as documented.
    Full,
    /// A few-job miniature with the same code path.
    Tiny,
}

/// Everything a round's set-up needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// A fresh directory this round owns.
    pub dir: PathBuf,
    /// Pool workers (at most the available CPUs).
    pub workers: usize,
    /// Concurrent daemon clients (at most the available CPUs).
    pub clients: usize,
    /// Round size.
    pub size: Size,
}

/// Values a round observed at a layer boundary through a public API
/// (pool and cache events, daemon `stats`); the traced run reports
/// them as per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerObs {
    /// `PoolStats` busy and idle worker time, s.
    pub pool_busy_idle_s: Option<(f64, f64)>,
    /// Result-store lookups that hit and missed.
    pub store_hits_misses: Option<(u64, u64)>,
    /// Daemon mean queue wait and execution time of sweep jobs, ms.
    pub queue_wait_exec_ms: Option<(f64, f64)>,
}

/// What one round produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round's body, s.
    pub wall_s: f64,
    /// Host time of each job, ms.
    pub job_ms: Vec<f64>,
    /// Committed leader instructions the round simulated.
    pub instructions: u64,
    /// Operations attempted: jobs plus run-level checks.
    pub attempted: u64,
    /// Operations that panicked, were refused, or failed their check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Named digests of the round's simulated outputs.
    pub digests: Vec<(String, String)>,
    /// Every output compared with `expected.json`, as `(key, value)`.
    pub observed: Vec<(String, String)>,
    /// Layer-boundary observations.
    pub layer: LayerObs,
    /// The host index while the round ran (see [`crate::probe`]); 0
    /// until the runner sets it.
    pub host: HostIndex,
}

impl Round {
    /// Counts one checked operation, recording `problem` if it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Checks one output against its committed value as one operation
    /// and keeps it for `--emit-expected`. Without expectations (the
    /// tests' tiny rounds) nothing is compared.
    pub fn expect(
        &mut self,
        expected: Option<&Expected>,
        workload: &str,
        key: String,
        value: String,
        required: bool,
    ) -> Verdict {
        let verdict = expected.map_or(Verdict::Unchecked, |e| {
            e.verdict(workload, &key, &value, required)
        });
        self.observed.push((key, value));
        let problem = match &verdict {
            Verdict::Mismatch(m) => Some(m.clone()),
            _ => None,
        };
        self.check(problem.is_none(), || problem.unwrap_or_default());
        verdict
    }
}

/// A workload that has been set up and is ready to run.
pub trait Prepared {
    /// Runs the timed body, then checks its outputs.
    fn run(self: Box<Self>, tracer: &Tracer, expected: Option<&Expected>) -> Round;
}

/// Sets up workload `name` in `ctx.dir`.
///
/// # Errors
///
/// Returns a message for an unknown name or a failed set-up.
pub fn prepare(name: &str, ctx: &Ctx) -> Result<Box<dyn Prepared>, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("cannot create {:?}: {e}", ctx.dir))?;
    Ok(match name {
        "sweep-cold" => Box::new(sweep::SweepCold::setup(ctx)?),
        "thermal-fig4" => Box::new(thermal::ThermalFig4::setup(ctx)),
        "campaign-journaled" => Box::new(campaign::CampaignJournaled::setup(ctx)?),
        "daemon-mixed" => Box::new(daemon::DaemonMixed::setup(ctx)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// A seeded permutation of `0..n` (Fisher-Yates on the workspace PRNG).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below_usize(i + 1));
    }
    v
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Telemetry sink that keeps only the pool's per-job wall times and
/// its end-of-run utilization and cache counters.
#[derive(Debug, Default)]
pub struct PoolSink {
    /// `(job index, wall ns)` of every executed job.
    pub finished: Vec<(u64, u64)>,
    /// Busy and idle worker ns from `PoolStats`.
    pub busy_idle_ns: Option<(u64, u64)>,
    /// Hits and misses from `CacheStats`.
    pub hits_misses: Option<(u64, u64)>,
}

impl Sink for PoolSink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::JobFinished {
                job, wall_nanos, ..
            } => self.finished.push((*job, *wall_nanos)),
            Event::PoolStats {
                busy_nanos,
                idle_nanos,
                ..
            } => self.busy_idle_ns = Some((*busy_nanos, *idle_nanos)),
            Event::CacheStats { hits, misses, .. } => self.hits_misses = Some((*hits, *misses)),
            _ => {}
        }
    }
}

impl PoolSink {
    /// The pool observations as [`LayerObs`] fields.
    pub fn layer_obs(&self) -> LayerObs {
        LayerObs {
            pool_busy_idle_s: self
                .busy_idle_ns
                .map(|(b, i)| (b as f64 / 1e9, i as f64 / 1e9)),
            store_hits_misses: self.hits_misses,
            queue_wait_exec_ms: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(76, 1);
        assert_eq!(a, permutation(76, 1));
        assert_ne!(a, permutation(76, 2));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..76).collect::<Vec<_>>());
    }
}
