//! The perf gate's deterministic stats, enforced by every `cargo test`.
//!
//! `crates/bench/benches/gate.rs` times these two simulations and
//! records the same stats for `rmt3d bench-gate`; this test checks them
//! exactly without timing anything, so a change that moves a single
//! simulated cycle fails here even where the wall-clock gate is not run.

use rmt3d::{simulate, ProcessorModel, RunScale, SimConfig};
use rmt3d_workload::Benchmark;

/// The gate's scale: 5k warm-up instructions, 40k measured.
fn gate_scale() -> RunScale {
    RunScale {
        warmup_instructions: 5_000,
        instructions: 40_000,
        thermal_grid: 25,
    }
}

#[test]
fn gate_stats_are_exact() {
    for (model, total_cycles) in [
        (ProcessorModel::TwoDA, 23_160),
        (ProcessorModel::ThreeD2A, 23_060),
    ] {
        let r = simulate(&SimConfig::nominal(model, gate_scale()), Benchmark::Gzip);
        assert_eq!(r.total_cycles, total_cycles, "{model}/gzip total_cycles");
        assert_eq!(r.leader.committed, 40_001, "{model}/gzip committed");
    }
}
