//! §3.2 leakage-temperature coupling.
//!
//! "We also modeled the effect of temperature on leakage power in L2
//! cache banks. ... We found the overall impact of temperature on
//! leakage power of caches to be negligible." This experiment closes
//! the loop — solve thermals, re-evaluate each bank's leakage at its own
//! temperature, re-solve — and verifies convergence to a peak shift of
//! well under a degree.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, PowerMapConfig};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_cache::CactiLite;
use rmt3d_floorplan::BlockId;
use rmt3d_power::CheckerPowerModel;
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, TechNode, Watts};
use rmt3d_workload::Benchmark;

/// Result of the coupled iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageFeedback {
    /// Peak temperature with temperature-independent bank leakage.
    pub open_loop_peak: Celsius,
    /// Peak temperature after the leakage-temperature fixpoint.
    pub closed_loop_peak: Celsius,
    /// Total extra leakage power the feedback added.
    pub extra_leakage: Watts,
    /// Fixpoint iterations used.
    pub iterations: u32,
}

impl LeakageFeedback {
    /// The peak-temperature shift caused by the coupling (the paper's
    /// "negligible" quantity).
    pub fn peak_shift(&self) -> f64 {
        self.closed_loop_peak.0 - self.open_loop_peak.0
    }
}

/// Runs the coupled solve for one benchmark on the 3d-2a chip, whose
/// performance run goes through `sim`.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn run_with(
    sim: &dyn Simulator,
    benchmark: Benchmark,
    scale: RunScale,
) -> Result<LeakageFeedback, ThermalError> {
    let model = ProcessorModel::ThreeD2A;
    let [perfs] = simulate_grid(sim, [SimConfig::nominal(model, scale)], &[benchmark]);
    let base = build_power_map(
        &perfs[0],
        &PowerMapConfig::with_checker(CheckerPowerModel::optimistic_7w()),
    );
    let tcfg = ThermalConfig {
        grid: scale.thermal_grid,
        ..ThermalConfig::paper()
    };
    let plan = model.floorplan();
    let bank = CactiLite::new(TechNode::N65).bank_1mb();

    let open_loop = solve(&plan, &base.map, &tcfg)?;
    let mut map = base.map.clone();
    let mut prev_peak = open_loop.peak();
    let mut extra;
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Re-evaluate each bank's leakage at its solved temperature.
        let solved = solve(&plan, &map, &tcfg)?;
        extra = Watts::ZERO;
        for die in &plan.dies {
            for b in &die.blocks {
                if matches!(b.id, BlockId::L2Bank { .. }) {
                    let t = solved.block_peak(b.id).expect("bank exists");
                    let delta = bank.leakage_at(t.0) - bank.leakage;
                    map.set(b.id, base.map.get(b.id) + delta);
                    if delta.0 > 0.0 {
                        extra += delta;
                    }
                }
            }
        }
        let peak = solved.peak();
        if (peak.0 - prev_peak.0).abs() < 0.05 || iterations >= 8 {
            return Ok(LeakageFeedback {
                open_loop_peak: open_loop.peak(),
                closed_loop_peak: peak,
                extra_leakage: extra,
                iterations,
            });
        }
        prev_peak = peak;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn coupling_is_negligible_as_the_paper_reports() {
        let r =
            run_with(&SerialSimulator, Benchmark::Gzip, RunScale::quick()).expect("coupled solve");
        // Banks run *below* CACTI's 85 C reference here, so the coupling
        // can even be slightly negative; either way the paper's claim is
        // that it barely moves the peak.
        assert!(
            r.peak_shift().abs() < 1.0,
            "leakage-temperature coupling moved the peak {} C",
            r.peak_shift()
        );
        assert!(r.iterations <= 8);
        // The feedback magnitude itself is small relative to the chip.
        assert!(r.extra_leakage.0.abs() < 5.0);
    }
}
