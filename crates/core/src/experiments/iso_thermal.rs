//! §3.3 — iso-thermal operation: how fast can the 3D reliable chip run
//! while matching the 2d-a baseline's peak temperature?
//!
//! The paper scales voltage and frequency together (V ∝ f over the
//! range, after \[2\]) and finds the 3d-2a chip with a 7 W (15 W) checker
//! matches the baseline thermals at 1.9 GHz (1.8 GHz), costing 4.1%
//! (8.2%) performance — less than the frequency loss because memory
//! latency is constant in nanoseconds.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, PowerMapConfig};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_power::{CheckerPowerModel, DvfsPoint};
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, Gigahertz, Watts};
use rmt3d_workload::Benchmark;

/// Result of the iso-thermal search for one checker power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoThermalPoint {
    /// Checker power parameter.
    pub checker_power: Watts,
    /// Baseline (2d-a at 2 GHz) mean peak temperature.
    pub baseline_temp: Celsius,
    /// Frequency at which the 3d-2a chip matches it.
    pub matched_frequency: Gigahertz,
    /// Work-rate loss versus the 2 GHz 3d-2a chip
    /// (`1 - IPC(f)·f / (IPC(2)·2)`).
    pub performance_loss: f64,
}

/// Suite-mean peak temperature of a model at a DVFS point. The
/// per-benchmark performance runs go through `sim` as one batch; the
/// thermal solves stay on the calling thread.
fn mean_peak(
    sim: &dyn Simulator,
    model: ProcessorModel,
    benchmarks: &[Benchmark],
    freq: Gigahertz,
    checker: CheckerPowerModel,
    scale: RunScale,
) -> Result<(Celsius, f64), ThermalError> {
    let tcfg = ThermalConfig {
        grid: scale.thermal_grid,
        ..ThermalConfig::paper()
    };
    let cfg = SimConfig {
        frequency: freq,
        ..SimConfig::nominal(model, scale)
    };
    let [perfs] = simulate_grid(sim, [cfg], benchmarks);
    let mut temp = 0.0;
    let mut work = 0.0;
    for perf in perfs {
        let mut pm_cfg = PowerMapConfig::with_checker(checker);
        pm_cfg.dvfs = DvfsPoint::from_frequency_linear_vdd(freq.value() / 2.0);
        let chip = build_power_map(&perf, &pm_cfg);
        let r = solve(&model.floorplan(), &chip.map, &tcfg)?;
        temp += r.peak().0;
        work += perf.ipc() * freq.value();
    }
    let n = benchmarks.len() as f64;
    Ok((Celsius(temp / n), work / n))
}

/// Bisects the 3d-2a frequency until its thermals match the 2d-a
/// baseline. The bisection is inherently sequential (each frequency
/// choice depends on the previous solve), but every step's
/// per-benchmark runs go through `sim` as one batch, so a parallel
/// simulator still overlaps within a step.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn run_with(
    sim: &dyn Simulator,
    checker_watts: f64,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<IsoThermalPoint, ThermalError> {
    let checker = CheckerPowerModel::with_peak(Watts(checker_watts));
    let (baseline, _) = mean_peak(
        sim,
        ProcessorModel::TwoDA,
        benchmarks,
        Gigahertz(2.0),
        checker,
        scale,
    )?;
    let (temp_full, work_full) = mean_peak(
        sim,
        ProcessorModel::ThreeD2A,
        benchmarks,
        Gigahertz(2.0),
        checker,
        scale,
    )?;

    let mut lo = 1.4;
    let mut hi = 2.0;
    let mut best = (Gigahertz(2.0), work_full);
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        let (t, w) = mean_peak(
            sim,
            ProcessorModel::ThreeD2A,
            benchmarks,
            Gigahertz(mid),
            checker,
            scale,
        )?;
        if t.0 > baseline.0 {
            hi = mid;
        } else {
            lo = mid;
            best = (Gigahertz(mid), w);
        }
    }
    // If even 2.0 GHz is cool enough, report no loss.
    if temp_full.0 <= baseline.0 {
        best = (Gigahertz(2.0), work_full);
    }
    Ok(IsoThermalPoint {
        checker_power: Watts(checker_watts),
        baseline_temp: baseline,
        matched_frequency: best.0,
        performance_loss: (1.0 - best.1 / work_full).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn seven_watt_checker_iso_thermal() {
        let p = run_with(
            &SerialSimulator,
            7.0,
            &[Benchmark::Gzip, Benchmark::Swim],
            RunScale::quick(),
        )
        .expect("iso-thermal search");
        // Paper: ~1.9 GHz and ~4.1% loss. Allow a generous band for the
        // quick scale.
        let f = p.matched_frequency.value();
        assert!((1.75..2.0).contains(&f), "matched frequency {f} GHz");
        assert!(
            (0.0..0.12).contains(&p.performance_loss),
            "perf loss {}",
            p.performance_loss
        );
    }

    #[test]
    fn bigger_checker_needs_lower_frequency() {
        let scale = RunScale::quick();
        let bench = [Benchmark::Gzip];
        let p7 = run_with(&SerialSimulator, 7.0, &bench, scale).unwrap();
        let p15 = run_with(&SerialSimulator, 15.0, &bench, scale).unwrap();
        assert!(
            p15.matched_frequency.value() <= p7.matched_frequency.value() + 1e-9,
            "15W {} vs 7W {}",
            p15.matched_frequency,
            p7.matched_frequency
        );
        assert!(p15.performance_loss >= p7.performance_loss - 1e-9);
    }
}
