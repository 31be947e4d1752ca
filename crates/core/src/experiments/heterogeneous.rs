//! §4 — the heterogeneous checker die: fabricate the upper die at 90 nm.
//!
//! Consequences modelled (all from the paper):
//!
//! * the checker's dynamic power scales up by Table 8's 2.21 and its
//!   leakage down by 0.40 (14.5 W-class checker → ~24 W);
//! * the same die area now fits only ~5 MB of L2 whose leakage shrinks;
//! * checker area grows by (90/65)², *lowering* its power density, so
//!   peak temperature drops despite more total power;
//! * gate delay grows 500 ps → 714 ps, capping the checker at 1.4 GHz —
//!   the DFS controller saturates at 0.7 f and the leader slows ~3%;
//! * variability and SER both improve (Table 6, Figs. 8-9).

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, PowerMapConfig};
use crate::simulate::{PerfResult, SimConfig, Simulator};
use rmt3d_cache::{CactiLite, NucaLayout};
use rmt3d_floorplan::ChipFloorplan;
use rmt3d_power::{tech, CheckerPowerModel};
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, DegreesDelta, Gigahertz, Picoseconds, TechNode, Watts};
use rmt3d_workload::Benchmark;

/// The §4 heterogeneous-die report.
#[derive(Debug, Clone)]
pub struct HeteroReport {
    /// Checker-core power at 65 nm (the pessimistic 15 W-class core).
    pub checker_65: Watts,
    /// The same core's power at 90 nm (paper: ~23.7 W for its 14.5 W
    /// split).
    pub checker_90: Watts,
    /// Upper-die L2 power at 65 nm (9 banks; paper: ~3.5 W).
    pub upper_l2_65: Watts,
    /// Upper-die L2 power at 90 nm (4 banks; paper: ~1.2 W for 5 MB).
    pub upper_l2_90: Watts,
    /// Net checker-die power change (paper: +6.9 W).
    pub net_power_change: Watts,
    /// 90 nm peak checker frequency (paper: 1.4 GHz).
    pub checker_peak_frequency: Gigahertz,
    /// Mean checker frequency the workload actually needs (paper: the
    /// checker averages 1.26 GHz against a 2 GHz leader).
    pub needed_mean_frequency: Gigahertz,
    /// Leading-core slowdown caused by the 1.4 GHz cap (paper: ~3%).
    pub cap_slowdown: f64,
    /// Suite-mean peak temperature of the homogeneous 65 nm 3d-2a.
    pub temp_homogeneous: Celsius,
    /// Suite-mean peak temperature of the heterogeneous stack.
    pub temp_heterogeneous: Celsius,
    /// 2d-a baseline temperature.
    pub temp_baseline: Celsius,
}

impl HeteroReport {
    /// Temperature change from moving the checker die to 90 nm (paper:
    /// a *drop* of ~4 °C despite higher power).
    pub fn temp_drop(&self) -> DegreesDelta {
        self.temp_homogeneous - self.temp_heterogeneous
    }

    /// Overhead of the heterogeneous reliable chip versus the 2d-a
    /// baseline (paper summary: 3 °C).
    pub fn overhead_vs_baseline(&self) -> DegreesDelta {
        self.temp_heterogeneous - self.temp_baseline
    }

    /// Formats the report as text.
    pub fn to_table(&self) -> String {
        format!(
            "Sec 4 Heterogeneous checker die (90 nm upper die)\n\
             checker core: {:.1} W @65nm -> {:.1} W @90nm\n\
             upper-die L2: {:.1} W (9 MB @65nm) -> {:.1} W (4 MB @90nm)\n\
             net die power change: {:+.1} W\n\
             checker peak frequency: {:.2} GHz (needs {:.2} GHz mean)\n\
             leader slowdown from cap: {:.1}%\n\
             peak temp: homogeneous {:.1} C, heterogeneous {:.1} C (drop {:.1} C)\n\
             overhead vs 2d-a baseline: {:+.1} C\n",
            self.checker_65.0,
            self.checker_90.0,
            self.upper_l2_65.0,
            self.upper_l2_90.0,
            self.net_power_change.0,
            self.checker_peak_frequency.value(),
            self.needed_mean_frequency.value(),
            100.0 * self.cap_slowdown,
            self.temp_homogeneous.0,
            self.temp_heterogeneous.0,
            self.temp_drop().0,
            self.overhead_vs_baseline().0
        )
    }
}

/// Suite-mean peak temperature of `perfs` on a plan with a fixed
/// checker power.
fn mean_peak(
    plan: &ChipFloorplan,
    perfs: &[PerfResult],
    checker_w: Watts,
    scale: RunScale,
) -> Result<Celsius, ThermalError> {
    let tcfg = ThermalConfig {
        grid: scale.thermal_grid,
        ..ThermalConfig::paper()
    };
    let mut acc = 0.0;
    for perf in perfs {
        let mut chip = build_power_map(
            perf,
            &PowerMapConfig::with_checker(CheckerPowerModel::with_peak(checker_w)),
        );
        crate::powermap::override_checker_power(&mut chip, checker_w);
        let r = solve(plan, &chip.map, &tcfg)?;
        acc += r.peak().0;
    }
    Ok(Celsius(acc / perfs.len() as f64))
}

/// Runs the §4 study with the pessimistic 15 W-class checker. Its three
/// configurations (free 3d-2a, capped 90 nm 3d-2a, 2d-a baseline) run
/// through `sim` as one batch; the thermal comparison reuses them.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn run_with(
    sim: &dyn Simulator,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<HeteroReport, ThermalError> {
    // Power remap of the checker core (Table 8 arithmetic).
    let checker = CheckerPowerModel::pessimistic_15w();
    let (dyn65, leak65) = checker.split();
    let (dyn90, leak90) =
        tech::remap_power(dyn65.0, leak65.0, TechNode::N90).expect("90 nm is tabulated");
    let checker_90 = Watts(dyn90 + leak90);

    // Upper-die L2 power: 9 banks at 65 nm vs 4 banks at 90 nm, idle
    // (leakage + router floor) as the dominant term.
    let b65 = CactiLite::new(TechNode::N65);
    let b90 = CactiLite::new(TechNode::N90);
    let upper_l2_65 = (b65.bank_1mb().leakage + b65.router_power() * 0.15) * 9.0;
    let upper_l2_90 = (b90.bank_1mb().leakage + b90.router_power() * 0.15) * 4.0;
    let net = (checker_90 + upper_l2_90) - (Watts(15.0) + upper_l2_65);

    // Frequency cap from the gate-delay retarget: 500 ps -> 714 ps.
    let stage =
        tech::retargeted_stage_time(Picoseconds(500.0), TechNode::N90).expect("90 nm is tabulated");
    let peak_ghz = 1000.0 / stage.0;

    // Performance with the capped checker vs uncapped.
    let free_cfg = SimConfig::nominal(ProcessorModel::ThreeD2A, scale);
    let capped_cfg = SimConfig {
        layout: Some(NucaLayout::three_d_hetero_90nm()),
        checker_peak_fraction: peak_ghz / 2.0,
        ..free_cfg.clone()
    };
    let base_cfg = SimConfig::nominal(ProcessorModel::TwoDA, scale);
    let [free, capped, base] = simulate_grid(sim, [free_cfg, capped_cfg, base_cfg], benchmarks);
    let mut slow_acc = 0.0;
    let mut need_acc = 0.0;
    for (free, capped) in free.iter().zip(&capped) {
        slow_acc += 1.0 - capped.ipc() / free.ipc();
        need_acc += free.mean_checker_fraction * 2.0;
    }
    let cap_slowdown = slow_acc / benchmarks.len() as f64;
    let needed = Gigahertz(need_acc / benchmarks.len() as f64);

    // Thermals: homogeneous (65 nm checker, 15 W dense strip) versus
    // heterogeneous (90 nm checker, more power over more area).
    let temp_homogeneous = mean_peak(&ChipFloorplan::three_d_2a(), &free, Watts(15.0), scale)?;
    let temp_heterogeneous = mean_peak(
        &ChipFloorplan::three_d_2a_hetero_90nm(),
        &capped,
        checker_90,
        scale,
    )?;
    let temp_baseline = mean_peak(&ChipFloorplan::two_d_a(), &base, Watts::ZERO, scale)?;

    Ok(HeteroReport {
        checker_65: Watts(15.0),
        checker_90,
        upper_l2_65,
        upper_l2_90,
        net_power_change: net,
        checker_peak_frequency: Gigahertz(peak_ghz),
        needed_mean_frequency: needed,
        cap_slowdown,
        temp_homogeneous,
        temp_heterogeneous,
        temp_baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    fn quick() -> HeteroReport {
        run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Swim],
            RunScale::quick(),
        )
        .expect("hetero study")
    }

    #[test]
    fn power_remap_matches_section4() {
        let r = quick();
        // 15 W checker grows substantially at 90 nm (paper: 14.5 -> 23.7;
        // our 75/25 split gives ~26).
        assert!(
            (22.0..28.0).contains(&r.checker_90.0),
            "90nm checker {}",
            r.checker_90
        );
        // L2 shrinks and leaks less.
        assert!(r.upper_l2_90 < r.upper_l2_65);
        // Net die power increases (paper: +6.9 W).
        assert!(
            (4.0..12.0).contains(&r.net_power_change.0),
            "net change {}",
            r.net_power_change
        );
    }

    #[test]
    fn frequency_cap_is_14ghz_and_cheap() {
        let r = quick();
        assert!((r.checker_peak_frequency.value() - 1.4).abs() < 0.01);
        // Paper: needed mean ~1.26 GHz < 1.4 GHz cap.
        assert!(
            r.needed_mean_frequency.value() < 1.45,
            "needed {}",
            r.needed_mean_frequency
        );
        // Leader slowdown ~3% (paper); generous band.
        assert!(
            (-0.01..0.08).contains(&r.cap_slowdown),
            "cap slowdown {}",
            r.cap_slowdown
        );
    }

    #[test]
    fn older_process_runs_cooler_despite_more_power() {
        let r = quick();
        assert!(
            r.temp_heterogeneous < r.temp_homogeneous,
            "hetero {} vs homo {}",
            r.temp_heterogeneous,
            r.temp_homogeneous
        );
        // Paper: drop of up to 4 C; overhead vs baseline ~3 C.
        let drop = r.temp_drop().0;
        assert!((0.5..8.0).contains(&drop), "temp drop {drop}");
    }

    #[test]
    fn report_formats() {
        assert!(quick().to_table().contains("90 nm"));
    }
}
