//! Error-resilience synthesis: the abstract's claim that the 3D checker
//! — especially with an older-process die — buys "higher error
//! resilience", quantified by combining the Fig. 8/9 models, the §2
//! protection inventory, and the measured Fig. 7 timing slack.

use crate::experiments::fig7;
use crate::model::RunScale;
use crate::simulate::Simulator;
use rmt3d_reliability::{ChipInventory, TimingModel};
use rmt3d_units::TechNode;
use rmt3d_workload::Benchmark;

/// Resilience summary of one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Organization name.
    pub name: String,
    /// Relative residual soft-error rate of the core structures
    /// (normalized to the 2d-a baseline = 1).
    pub core_residual: f64,
    /// Relative residual of the recovery point (trailer register file;
    /// 0 for the baseline, which has none to protect).
    pub recovery_point_residual: f64,
    /// Expected per-instruction timing-error probability of the
    /// *checking* mechanism (1.0 baseline = an uncheckable chip).
    pub timing_error_probability: f64,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// One row per organization.
    pub rows: Vec<ResilienceRow>,
}

impl ResilienceReport {
    /// Formats as text.
    pub fn to_table(&self) -> String {
        let mut s = String::from(
            "Error-resilience synthesis (relative to the 2d-a baseline)\n\
             organization           core-SER  recovery-pt  P(timing err)\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:22} {:8.3} {:12.2e} {:13.2e}\n",
                r.name, r.core_residual, r.recovery_point_residual, r.timing_error_probability
            ));
        }
        s
    }
}

/// Runs the synthesis: measures the Fig. 7 profile through `sim`, then
/// evaluates the three organizations.
pub fn run_with(
    sim: &dyn Simulator,
    benchmarks: &[Benchmark],
    scale: RunScale,
) -> ResilienceReport {
    let profile = fig7::run_with(sim, benchmarks, scale);
    let base = ChipInventory::two_d_a();
    let base_core = base.core_residual_rate();

    let mut rows = vec![ResilienceRow {
        name: "2d-a (unprotected)".to_string(),
        core_residual: 1.0,
        recovery_point_residual: 0.0,
        // An unprotected chip silently absorbs every timing error.
        timing_error_probability: 1.0,
    }];
    for node in [TechNode::N65, TechNode::N90] {
        let inv = ChipInventory::three_d_2a(node);
        let timing = TimingModel::for_node(node);
        rows.push(ResilienceRow {
            name: inv.name.to_string(),
            core_residual: inv.core_residual_rate() / base_core,
            recovery_point_residual: inv.structure_residual("checker-regfile") / base_core,
            timing_error_probability: timing.checker_error_probability(&profile.histogram, 12),
        });
    }
    ResilienceReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    #[test]
    fn resilience_ordering_matches_the_abstract() {
        let r = run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Gap],
            RunScale::quick(),
        );
        assert_eq!(r.rows.len(), 3);
        let base = &r.rows[0];
        let at65 = &r.rows[1];
        let at90 = &r.rows[2];
        // RMT slashes the core's residual rate.
        assert!(at65.core_residual < 0.1 * base.core_residual);
        // The older checker die further protects the recovery point
        // (the §4 headline) and the timing margins.
        assert!(at90.recovery_point_residual < at65.recovery_point_residual);
        assert!(at90.timing_error_probability < at65.timing_error_probability);
        assert!(r.to_table().contains("recovery-pt"));
    }
}
