//! Dynamic thermal management (§3.2: "Higher temperatures will either
//! require better cooling capacities or dynamic thermal management (DTM)
//! that can lead to performance loss").
//!
//! For a fixed package limit, each organization is DVFS-throttled until
//! its suite-mean peak temperature fits under the cap; the resulting
//! work-rate loss is the DTM cost of that organization. This generalizes
//! the §3.3 iso-thermal study from "match the baseline" to "meet a
//! thermal envelope".

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::powermap::{build_power_map, override_checker_power, PowerMapConfig};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_power::{CheckerPowerModel, DvfsPoint};
use rmt3d_thermal::{solve, ThermalConfig, ThermalError};
use rmt3d_units::{Celsius, Gigahertz, Watts};
use rmt3d_workload::Benchmark;

/// One organization's DTM operating point under a thermal cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmRow {
    /// Organization.
    pub model: ProcessorModel,
    /// Checker power parameter (ignored for 2d-a).
    pub checker_power: Watts,
    /// Peak temperature at full speed.
    pub full_speed_temp: Celsius,
    /// Highest frequency fitting under the cap (2 GHz when no
    /// throttling is needed).
    pub frequency: Gigahertz,
    /// Work-rate loss versus running the same chip at 2 GHz.
    pub performance_loss: f64,
}

/// The DTM study.
#[derive(Debug, Clone)]
pub struct DtmReport {
    /// Thermal cap used.
    pub cap: Celsius,
    /// Operating points.
    pub rows: Vec<DtmRow>,
}

impl DtmReport {
    /// Formats as text.
    pub fn to_table(&self) -> String {
        let mut s = format!(
            "Sec 3.2/3.3 DTM under a {:.0} C package cap\n\
             model       checker_W  full-speed(C)  f(GHz)  perf-loss\n",
            self.cap.0
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:11} {:9.0} {:14.1} {:7.2} {:8.1}%\n",
                r.model.name(),
                r.checker_power.0,
                r.full_speed_temp.0,
                r.frequency.value(),
                100.0 * r.performance_loss
            ));
        }
        s
    }
}

/// Suite-mean peak temperature and work rate of `model` at `freq`; the
/// per-benchmark runs go through `sim` as one batch.
fn point(
    sim: &dyn Simulator,
    model: ProcessorModel,
    benchmarks: &[Benchmark],
    freq: Gigahertz,
    checker_w: Watts,
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
        let mut pm =
            PowerMapConfig::with_checker(CheckerPowerModel::with_peak(checker_w.max(Watts(1.0))));
        pm.dvfs = DvfsPoint::from_frequency_linear_vdd(freq.value() / 2.0);
        let mut chip = build_power_map(&perf, &pm);
        if model.has_checker() {
            override_checker_power(
                &mut chip,
                checker_w * pm.dvfs.dynamic_factor().max(pm.dvfs.leakage_factor()),
            );
        }
        let r = solve(&model.floorplan(), &chip.map, &tcfg)?;
        temp += r.peak().0;
        work += perf.ipc() * freq.value();
    }
    let n = benchmarks.len() as f64;
    Ok((Celsius(temp / n), work / n))
}

/// Finds the DTM operating point for one organization under `cap`.
fn throttle_to_cap(
    sim: &dyn Simulator,
    model: ProcessorModel,
    checker_w: Watts,
    cap: Celsius,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<DtmRow, ThermalError> {
    let (full_temp, full_work) = point(sim, model, benchmarks, Gigahertz(2.0), checker_w, scale)?;
    if full_temp.0 <= cap.0 {
        return Ok(DtmRow {
            model,
            checker_power: checker_w,
            full_speed_temp: full_temp,
            frequency: Gigahertz(2.0),
            performance_loss: 0.0,
        });
    }
    let mut lo = 1.0;
    let mut hi = 2.0;
    let mut best = (Gigahertz(lo), 0.0);
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        let (t, w) = point(sim, model, benchmarks, Gigahertz(mid), checker_w, scale)?;
        if t.0 > cap.0 {
            hi = mid;
        } else {
            lo = mid;
            best = (Gigahertz(mid), w);
        }
    }
    Ok(DtmRow {
        model,
        checker_power: checker_w,
        full_speed_temp: full_temp,
        frequency: best.0,
        performance_loss: (1.0 - best.1 / full_work).max(0.0),
    })
}

/// Runs the study for the three organizations at 7 W and 15 W checkers,
/// every probed operating point's runs going through `sim` as one batch.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn run_with(
    sim: &dyn Simulator,
    cap: Celsius,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> Result<DtmReport, ThermalError> {
    let throttle =
        |model, checker_w| throttle_to_cap(sim, model, checker_w, cap, benchmarks, scale);
    let mut rows = vec![throttle(ProcessorModel::TwoDA, Watts::ZERO)?];
    for w in [7.0, 15.0] {
        for model in [ProcessorModel::TwoD2A, ProcessorModel::ThreeD2A] {
            rows.push(throttle(model, Watts(w))?);
        }
    }
    Ok(DtmReport { cap, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn hotter_organizations_throttle_harder() {
        let r = run_with(
            &SerialSimulator,
            Celsius(82.0),
            &[Benchmark::Gzip],
            RunScale::quick(),
        )
        .expect("dtm study");
        let loss = |m: ProcessorModel, w: f64| {
            r.rows
                .iter()
                .find(|x| x.model == m && (x.checker_power.0 - w).abs() < 1e-9)
                .map(|x| x.performance_loss)
                .expect("row exists")
        };
        // 3D with the 15 W checker is the hottest and loses the most.
        assert!(
            loss(ProcessorModel::ThreeD2A, 15.0) >= loss(ProcessorModel::ThreeD2A, 7.0),
            "{r:?}"
        );
        assert!(
            loss(ProcessorModel::ThreeD2A, 15.0) >= loss(ProcessorModel::TwoD2A, 15.0),
            "{r:?}"
        );
        // Frequencies stay in the DVFS range.
        for row in &r.rows {
            let f = row.frequency.value();
            assert!((1.0..=2.0).contains(&f), "{row:?}");
        }
        assert!(r.to_table().contains("perf-loss"));
    }
}
