//! Figure 4 — thermal overhead of the 3D checker versus checker power —
//! plus the §3.2 placement variants.
//!
//! For each checker power in {2, 5, 7, 10, 15, 20, 25} W the experiment
//! solves the steady-state thermals of the 3d-2a and 2d-2a chips under
//! benchmark-averaged power maps, and compares against the 2d-a baseline
//! line.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, override_checker_power, PowerMapConfig};
use crate::simulate::{PerfResult, SimConfig, Simulator};
use rmt3d_power::CheckerPowerModel;
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, Watts};
use rmt3d_workload::Benchmark;

/// The paper's checker-power sweep points (Fig. 4 x-axis).
pub const CHECKER_POWERS_W: [f64; 7] = [2.0, 5.0, 7.0, 10.0, 15.0, 20.0, 25.0];

/// One point of the Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Checker power parameter.
    pub checker_power: Watts,
    /// Benchmark-averaged peak temperature of the 2d-2a chip.
    pub two_d_2a: Celsius,
    /// Benchmark-averaged peak temperature of the 3d-2a chip.
    pub three_d_2a: Celsius,
}

/// §3.2 variant temperatures at one checker power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Variants {
    /// Checker power used.
    pub checker_power: Watts,
    /// Default 3d-2a.
    pub default_3d: Celsius,
    /// Upper die holds only the checker (inactive silicon).
    pub inactive_silicon: Celsius,
    /// Checker moved to the top-die corner.
    pub corner_checker: Celsius,
    /// Checker at double power density.
    pub dense_checker: Celsius,
}

/// Complete Fig. 4 output.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The 2d-a baseline line.
    pub baseline_2d_a: Celsius,
    /// Sweep points.
    pub points: Vec<Fig4Point>,
    /// §3.2 variants at 7 W and 15 W.
    pub variants: Vec<Fig4Variants>,
}

impl Fig4Result {
    /// The sweep point nearest a checker power.
    pub fn at(&self, watts: f64) -> Option<&Fig4Point> {
        self.points
            .iter()
            .find(|p| (p.checker_power.0 - watts).abs() < 1e-9)
    }

    /// Formats the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = String::from(
            "Fig.4 Thermal overhead analysis of 3D checker\n\
             checker_W   2d-2a(C)   3d-2a(C)   [2d-a baseline ",
        );
        s.push_str(&format!("{:.1} C]\n", self.baseline_2d_a.0));
        for p in &self.points {
            s.push_str(&format!(
                "{:9.1} {:10.1} {:10.1}\n",
                p.checker_power.0, p.two_d_2a.0, p.three_d_2a.0
            ));
        }
        for v in &self.variants {
            s.push_str(&format!(
                "variants @{:.0}W: default {:.1}, inactive-Si {:.1}, corner {:.1}, dense {:.1}\n",
                v.checker_power.0,
                v.default_3d.0,
                v.inactive_silicon.0,
                v.corner_checker.0,
                v.dense_checker.0
            ));
        }
        s
    }
}

fn mean_peak_on_plan(
    perfs: &[PerfResult],
    checker_w: f64,
    grid: usize,
    plan: &rmt3d_floorplan::ChipFloorplan,
) -> Result<Celsius, ThermalError> {
    let tcfg = ThermalConfig {
        grid,
        ..ThermalConfig::paper()
    };
    let mut acc = 0.0;
    for perf in perfs {
        let mut chip = build_power_map(
            perf,
            &PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(checker_w))),
        );
        if perf.model.has_checker() {
            override_checker_power(&mut chip, Watts(checker_w));
        }
        let r = solve(plan, &chip.map, &tcfg)?;
        acc += r.peak().0;
    }
    Ok(Celsius(acc / perfs.len() as f64))
}

/// Mean-of-peaks over benchmarks for one model and checker power.
fn mean_peak(
    perfs: &[PerfResult],
    model: ProcessorModel,
    checker_w: f64,
    grid: usize,
) -> Result<Celsius, ThermalError> {
    mean_peak_on_plan(perfs, checker_w, grid, &model.floorplan())
}

/// Runs the Fig. 4 experiment over the given benchmarks. All
/// `4 × |benchmarks|` performance runs go through `sim` as one batch,
/// so a parallel simulator overlaps them.
///
/// # Errors
///
/// Propagates thermal solver failures.
///
/// # Panics
///
/// Panics if `benchmarks` is empty.
pub fn run_with(
    sim: &dyn Simulator,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<Fig4Result, ThermalError> {
    assert!(!benchmarks.is_empty(), "need at least one benchmark");
    let [base_perfs, p2_perfs, p3_perfs, pc_perfs] = simulate_grid(
        sim,
        ProcessorModel::ALL.map(|m| SimConfig::nominal(m, scale)),
        benchmarks,
    );

    let baseline = mean_peak(&base_perfs, ProcessorModel::TwoDA, 0.0, scale.thermal_grid)?;
    let mut points = Vec::new();
    for w in CHECKER_POWERS_W {
        points.push(Fig4Point {
            checker_power: Watts(w),
            two_d_2a: mean_peak(&p2_perfs, ProcessorModel::TwoD2A, w, scale.thermal_grid)?,
            three_d_2a: mean_peak(&p3_perfs, ProcessorModel::ThreeD2A, w, scale.thermal_grid)?,
        });
    }

    let mut variants = Vec::new();
    for w in [7.0, 15.0] {
        variants.push(Fig4Variants {
            checker_power: Watts(w),
            default_3d: mean_peak(&p3_perfs, ProcessorModel::ThreeD2A, w, scale.thermal_grid)?,
            inactive_silicon: mean_peak(
                &pc_perfs,
                ProcessorModel::ThreeDChecker,
                w,
                scale.thermal_grid,
            )?,
            corner_checker: mean_peak_on_plan(
                &p3_perfs,
                w,
                scale.thermal_grid,
                &rmt3d_floorplan::ChipFloorplan::three_d_2a_corner_checker(),
            )?,
            dense_checker: mean_peak_on_plan(
                &p3_perfs,
                w,
                scale.thermal_grid,
                &rmt3d_floorplan::ChipFloorplan::three_d_2a_dense_checker(),
            )?,
        });
    }

    Ok(Fig4Result {
        baseline_2d_a: baseline,
        points,
        variants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    fn quick() -> Fig4Result {
        run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim],
            RunScale::quick(),
        )
        .expect("fig4 solves")
    }

    #[test]
    fn reproduces_paper_shape() {
        let r = quick();
        // Monotone in checker power.
        for w in r.points.windows(2) {
            assert!(w[1].three_d_2a >= w[0].three_d_2a);
            assert!(w[1].two_d_2a >= w[0].two_d_2a);
        }
        // 3D is hotter than the iso-transistor 2D chip (tiny tolerance
        // at the lowest checker powers, where the two are nearly tied).
        for p in &r.points {
            assert!(
                p.three_d_2a > p.two_d_2a - rmt3d_units::DegreesDelta(1.0),
                "at {}: 3d {} vs 2d-2a {}",
                p.checker_power,
                p.three_d_2a,
                p.two_d_2a
            );
        }
        assert!(r.at(15.0).unwrap().three_d_2a > r.at(15.0).unwrap().two_d_2a);
        // Low-power checker: 2d-2a is *cooler* than (or close to) 2d-a
        // thanks to lateral spreading and the larger sink.
        let low = r.at(2.0).unwrap();
        assert!(low.two_d_2a < r.baseline_2d_a + rmt3d_units::DegreesDelta(1.0));
    }

    #[test]
    fn deltas_land_in_paper_bands() {
        let r = quick();
        let d7 = r.at(7.0).unwrap().three_d_2a - r.baseline_2d_a;
        let d15 = r.at(15.0).unwrap().three_d_2a - r.baseline_2d_a;
        // Paper: +4.5 C at 7 W, +7 C at 15 W (generous bands).
        assert!((1.0..9.0).contains(&d7.0), "7W delta {d7:?}");
        assert!((3.0..15.0).contains(&d15.0), "15W delta {d15:?}");
        assert!(d15 > d7);
    }

    #[test]
    fn variants_behave_like_section_3_2() {
        let r = quick();
        let v7 = &r.variants[0];
        // Inactive silicon on the top die cools by a couple of degrees.
        assert!(
            v7.inactive_silicon < v7.default_3d,
            "inactive Si {} vs default {}",
            v7.inactive_silicon,
            v7.default_3d
        );
        // Corner checker is no hotter than default.
        assert!(v7.corner_checker <= v7.default_3d + rmt3d_units::DegreesDelta(0.5));
        // Double density is hotter; dramatic at 15 W (paper: up to +19 C
        // over the baseline).
        let v15 = &r.variants[1];
        assert!(v15.dense_checker > v15.default_3d);
    }

    #[test]
    fn table_formatting() {
        let r = quick();
        let t = r.to_table();
        assert!(t.contains("2d-2a"));
        assert!(t.lines().count() >= CHECKER_POWERS_W.len() + 2);
    }
}
