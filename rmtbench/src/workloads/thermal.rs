//! `thermal-fig4`: `fig4::run_with` at grid 50 on a
//! `ParallelSimulator`, over gzip, mcf and swim (about 69 SOR solves,
//! run serially on the calling thread). The seed permutes the order
//! the batch's simulations are handed to the pool; the peak
//! temperatures are checked exactly.

use super::{permutation, secs, Ctx, Prepared, Round, Size};
use crate::digest;
use crate::expected::Expected;
use crate::trace::Tracer;
use rmt3d::experiments::fig4::{self, Fig4Result};
use rmt3d::{PerfResult, RunScale, SimConfig, Simulator};
use rmt3d_sweep::ParallelSimulator;
use rmt3d_workload::Benchmark;
use std::sync::Mutex;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "thermal-fig4";

/// Benchmarks averaged into every Fig. 4 point.
pub const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim];

/// Simulation lengths and thermal grid (`Size::Full`).
pub const SCALE: RunScale = RunScale {
    warmup_instructions: 20_000,
    instructions: 120_000,
    thermal_grid: 50,
};

/// A [`Simulator`] that hands a batch to the pool in a seeded order and
/// returns the results in input order, keeping a copy of each.
pub struct SeededSimulator {
    inner: ParallelSimulator,
    seed: u64,
    /// Every result the batch produced, in input order.
    pub results: Mutex<Vec<PerfResult>>,
}

impl SeededSimulator {
    /// A pool simulator with `workers` threads and a permuting seed.
    pub fn new(workers: usize, seed: u64) -> SeededSimulator {
        SeededSimulator {
            inner: ParallelSimulator::new(workers),
            seed,
            results: Mutex::new(Vec::new()),
        }
    }
}

impl Simulator for SeededSimulator {
    fn simulate(&self, cfg: &SimConfig, benchmark: Benchmark) -> PerfResult {
        self.simulate_batch(&[(cfg.clone(), benchmark)]).remove(0)
    }

    fn simulate_batch(&self, jobs: &[(SimConfig, Benchmark)]) -> Vec<PerfResult> {
        let order = permutation(jobs.len(), self.seed);
        let permuted: Vec<(SimConfig, Benchmark)> =
            order.iter().map(|&i| jobs[i].clone()).collect();
        let out = self.inner.simulate_batch(&permuted);
        let mut slots: Vec<Option<PerfResult>> = vec![None; jobs.len()];
        for (r, &i) in out.into_iter().zip(&order) {
            slots[i] = Some(r);
        }
        let results: Vec<PerfResult> = slots
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect();
        self.results
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend(results.iter().cloned());
        results
    }
}

/// Wraps each batch a [`SeededSimulator`] runs in a span.
struct TracedSimulator<'a> {
    sim: &'a SeededSimulator,
    tracer: &'a Tracer,
}

impl Simulator for TracedSimulator<'_> {
    fn simulate(&self, cfg: &SimConfig, benchmark: Benchmark) -> PerfResult {
        self.simulate_batch(&[(cfg.clone(), benchmark)]).remove(0)
    }

    fn simulate_batch(&self, jobs: &[(SimConfig, Benchmark)]) -> Vec<PerfResult> {
        self.tracer.span_n(
            "sweep::ParallelSimulator::simulate_batch",
            jobs.len() as u64,
            0,
            || self.sim.simulate_batch(jobs),
        )
    }
}

/// Every temperature Fig. 4 reports, keyed by series and checker power.
pub fn peaks(r: &Fig4Result) -> Vec<(String, f64)> {
    let mut v = vec![("baseline_2d_a".to_string(), r.baseline_2d_a.0)];
    for p in &r.points {
        let w = p.checker_power.0;
        v.push((format!("2d-2a@{w}W"), p.two_d_2a.0));
        v.push((format!("3d-2a@{w}W"), p.three_d_2a.0));
    }
    for x in &r.variants {
        let w = x.checker_power.0;
        v.push((format!("default_3d@{w}W"), x.default_3d.0));
        v.push((format!("inactive_silicon@{w}W"), x.inactive_silicon.0));
        v.push((format!("corner_checker@{w}W"), x.corner_checker.0));
        v.push((format!("dense_checker@{w}W"), x.dense_checker.0));
    }
    v
}

/// Fig. 4, ready to run.
pub struct ThermalFig4 {
    sim: SeededSimulator,
    benchmarks: Vec<Benchmark>,
    scale: RunScale,
}

impl ThermalFig4 {
    /// Builds the seeded pool simulator.
    pub fn setup(ctx: &Ctx) -> ThermalFig4 {
        let (benchmarks, scale) = match ctx.size {
            Size::Full => (BENCHMARKS.to_vec(), SCALE),
            Size::Tiny => (
                vec![Benchmark::Gzip],
                RunScale {
                    warmup_instructions: 1_000,
                    instructions: 5_000,
                    thermal_grid: 10,
                },
            ),
        };
        ThermalFig4 {
            sim: SeededSimulator::new(ctx.workers, ctx.seed),
            benchmarks,
            scale,
        }
    }
}

impl Prepared for ThermalFig4 {
    fn run(self: Box<Self>, tracer: &Tracer, expected: Option<&Expected>) -> Round {
        let sim = TracedSimulator {
            sim: &self.sim,
            tracer,
        };
        let t0 = Instant::now();
        let result = tracer.span("core::fig4::run_with", || {
            fig4::run_with(&sim, &self.benchmarks, self.scale)
        });
        let wall_s = secs(t0);
        let mut round = Round {
            wall_s,
            job_ms: vec![wall_s * 1e3],
            ..Round::default()
        };
        round.instructions = self
            .sim
            .results
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|r| r.leader.committed + self.scale.warmup_instructions)
            .sum();
        match result {
            Ok(r) => {
                let mut all = Vec::new();
                for (key, celsius) in peaks(&r) {
                    let value = format!("{celsius:?}");
                    all.push((key.clone(), value.clone()));
                    round.expect(expected, NAME, key, value, true);
                }
                round
                    .digests
                    .push(("peaks".to_string(), digest::keyed(&all)));
            }
            Err(e) => round.check(false, || format!("fig4 failed: {e}")),
        }
        round
    }
}
