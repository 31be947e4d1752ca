//! Figure 5 — per-benchmark peak temperatures for the five thermal
//! configurations: 2d-a, 2d-2a @7 W, 3d-2a @7 W, 2d-2a @15 W,
//! 3d-2a @15 W.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, override_checker_power, PowerMapConfig};
use crate::simulate::{PerfResult, SimConfig, Simulator};
use rmt3d_power::CheckerPowerModel;
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, Watts};
use rmt3d_workload::Benchmark;

/// One benchmark's row in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// 2d-a baseline.
    pub two_d_a: Celsius,
    /// 2d-2a with a 7 W checker.
    pub two_d_2a_7w: Celsius,
    /// 3d-2a with a 7 W checker.
    pub three_d_2a_7w: Celsius,
    /// 2d-2a with a 15 W checker.
    pub two_d_2a_15w: Celsius,
    /// 3d-2a with a 15 W checker.
    pub three_d_2a_15w: Celsius,
}

/// The full Fig. 5 dataset.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One row per benchmark.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Suite-mean 2d-a peak temperature (the Fig. 4 baseline line).
    pub fn mean_baseline(&self) -> Celsius {
        Celsius(self.rows.iter().map(|r| r.two_d_a.0).sum::<f64>() / self.rows.len() as f64)
    }

    /// Suite-mean of one column, selected by an accessor.
    pub fn mean_of(&self, f: impl Fn(&Fig5Row) -> Celsius) -> Celsius {
        Celsius(self.rows.iter().map(|r| f(r).0).sum::<f64>() / self.rows.len() as f64)
    }

    /// Formats the dataset as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = String::from(
            "Fig.5 Per-benchmark peak temperature (C)\n\
             benchmark   2d_a  2d_2a_7W  3d_2a_7W  2d_2a_15W  3d_2a_15W\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:10} {:6.1} {:9.1} {:9.1} {:10.1} {:10.1}\n",
                r.benchmark.name(),
                r.two_d_a.0,
                r.two_d_2a_7w.0,
                r.three_d_2a_7w.0,
                r.two_d_2a_15w.0,
                r.three_d_2a_15w.0
            ));
        }
        s
    }
}

/// Runs Fig. 5 for the given benchmarks (use [`Benchmark::ALL`] for the
/// paper's full set). Each of the three distinct models simulates once
/// per benchmark (checker wattage only affects the thermal solve, so
/// the 7 W and 15 W columns share one performance run) and the whole
/// grid goes through `sim` as one batch.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn run_with(
    sim: &dyn Simulator,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<Fig5Result, ThermalError> {
    let tcfg = ThermalConfig {
        grid: scale.thermal_grid,
        ..ThermalConfig::paper()
    };
    let [base, p2, p3] = simulate_grid(
        sim,
        [
            ProcessorModel::TwoDA,
            ProcessorModel::TwoD2A,
            ProcessorModel::ThreeD2A,
        ]
        .map(|m| SimConfig::nominal(m, scale)),
        benchmarks,
    );
    let solve_at = |perf: &PerfResult, watts: f64| {
        let mut chip = build_power_map(
            perf,
            &PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(watts.max(1.0)))),
        );
        if perf.model.has_checker() {
            override_checker_power(&mut chip, Watts(watts));
        }
        solve(&perf.model.floorplan(), &chip.map, &tcfg).map(|r| r.peak())
    };
    let mut rows = Vec::with_capacity(benchmarks.len());
    for (i, &b) in benchmarks.iter().enumerate() {
        let (base, p2, p3) = (&base[i], &p2[i], &p3[i]);
        rows.push(Fig5Row {
            benchmark: b,
            two_d_a: solve_at(base, 0.0)?,
            two_d_2a_7w: solve_at(p2, 7.0)?,
            three_d_2a_7w: solve_at(p3, 7.0)?,
            two_d_2a_15w: solve_at(p2, 15.0)?,
            three_d_2a_15w: solve_at(p3, 15.0)?,
        });
    }
    Ok(Fig5Result { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn per_benchmark_ordering_holds() {
        let r = run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Mcf],
            RunScale::quick(),
        )
        .expect("fig5 solves");
        for row in &r.rows {
            // 3D runs hotter than the 2D chip with the same contents
            // (a small tolerance at 7 W, where cool benchmarks tie).
            assert!(
                row.three_d_2a_7w.0 > row.two_d_2a_7w.0 - 1.0,
                "{}: 3d7 {} vs 2d7 {}",
                row.benchmark,
                row.three_d_2a_7w,
                row.two_d_2a_7w
            );
            assert!(row.three_d_2a_15w > row.two_d_2a_15w, "{}", row.benchmark);
            // 15 W checker no cooler than 7 W.
            assert!(row.three_d_2a_15w >= row.three_d_2a_7w);
            // Everything is above ambient.
            assert!(row.two_d_a.0 > 47.0);
        }
        // Busy gzip runs hotter than memory-bound mcf (Fig. 5's spread).
        let gzip = &r.rows[0];
        let mcf = &r.rows[1];
        assert!(gzip.two_d_a > mcf.two_d_a);
        // Means and table formatting.
        assert!(r.mean_baseline().0 > 47.0);
        assert!(r.to_table().contains("gzip"));
    }
}
