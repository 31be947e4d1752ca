//! The paper's evaluation, experiment by experiment.
//!
//! Each submodule regenerates one table or figure; `EXPERIMENTS.md` maps
//! them to the paper and records paper-vs-measured values. Every
//! experiment built on [`SimConfig`] runs through one entry point,
//! `run_with(sim: &dyn Simulator, …)`, which submits its independent
//! performance runs through [`Simulator::simulate_batch`].

use crate::simulate::{PerfResult, SimConfig, Simulator};
use rmt3d_workload::Benchmark;

pub mod dfs_ablation;
pub mod dtm;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hard_error;
pub mod heterogeneous;
pub mod interconnect;
pub mod interrupts;
pub mod iso_thermal;
pub mod leakage_feedback;
pub mod margins;
pub mod resilience;
pub mod rmt_summary;
pub mod shared_cache;
pub mod tables;
pub mod tmr_study;

/// Runs every `(config, benchmark)` pair of the grid as one batch
/// through `sim`. Returns one row per config, each in benchmark order,
/// so callers accumulate over benchmarks exactly as a serial loop would.
pub(crate) fn simulate_grid<const N: usize>(
    sim: &dyn Simulator,
    configs: [SimConfig; N],
    benchmarks: &[Benchmark],
) -> [Vec<PerfResult>; N] {
    let jobs: Vec<(SimConfig, Benchmark)> = configs
        .iter()
        .flat_map(|cfg| benchmarks.iter().map(move |&b| (cfg.clone(), b)))
        .collect();
    let mut results = sim.simulate_batch(&jobs).into_iter();
    configs.map(|_| results.by_ref().take(benchmarks.len()).collect())
}
