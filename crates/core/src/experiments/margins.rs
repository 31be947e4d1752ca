//! §3.5 — conservative timing margins: deep pipelining versus the
//! DFS-provided slack.
//!
//! The paper evaluates two ways to give every checker pipeline stage
//! timing slack:
//!
//! 1. **Deep pipelining** at a fixed clock: less logic per stage, but
//!    Table 5 shows the latch/bypass power cost is "inordinate" —
//!    +52% total power even at 14 FO4 — so the paper rejects it.
//! 2. **The DFS fall-out**: the high-ILP checker usually runs at ~0.6 f
//!    anyway (Fig. 7), so each stage already has ~40% slack for free.
//!
//! This experiment quantifies both options' error-rate improvement per
//! watt, reproducing the section's conclusion.

use crate::experiments::fig7::Fig7Result;
use rmt3d_power::pipeline::{relative_power, stage_slack_fraction};
use rmt3d_reliability::TimingModel;
use rmt3d_units::TechNode;

/// One candidate checker timing strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginOption {
    /// Strategy name.
    pub name: &'static str,
    /// Relative checker power (1.3 = the 18 FO4 baseline's total).
    pub relative_power: f64,
    /// Expected per-instruction timing-error probability.
    pub error_probability: f64,
}

/// The §3.5 comparison.
#[derive(Debug, Clone)]
pub struct MarginsReport {
    /// Baseline and alternatives.
    pub options: Vec<MarginOption>,
}

impl MarginsReport {
    /// Finds an option by name.
    pub fn option(&self, name: &str) -> Option<&MarginOption> {
        self.options.iter().find(|o| o.name == name)
    }

    /// Formats as text.
    pub fn to_table(&self) -> String {
        let mut s = String::from(
            "Sec 3.5 Conservative timing margins for the checker\n\
             strategy                     rel.power  P(timing error)/insn\n",
        );
        for o in &self.options {
            s.push_str(&format!(
                "{:28} {:9.2} {:17.3e}\n",
                o.name, o.relative_power, o.error_probability
            ));
        }
        s
    }
}

/// Computes the §3.5 comparison for a measured Fig. 7 profile.
///
/// `stages` is the checker pipeline depth at the 18 FO4 baseline.
pub fn run(fig7: &Fig7Result, node: TechNode, stages: u32) -> MarginsReport {
    let m = TimingModel::for_node(node);
    let mut options = Vec::new();

    // Full-speed shallow pipeline: every stage crams 18 FO4 into an
    // 18 FO4 cycle — no margin.
    options.push(MarginOption {
        name: "18 FO4, full speed",
        relative_power: relative_power(18.0).total(),
        error_probability: m.pipeline_error_probability(1.0, stages),
    });

    // Deep pipelines at full clock: stage logic shrinks, cycle stays.
    for fo4 in [14.0, 10.0, 6.0] {
        let slack = stage_slack_fraction(fo4, 18.0);
        let logic_fraction = 1.0 - slack;
        // More stages hold the same total logic.
        let deep_stages = (stages as f64 * 18.0 / fo4).ceil() as u32;
        options.push(MarginOption {
            name: match fo4 as u32 {
                14 => "14 FO4 deep pipe",
                10 => "10 FO4 deep pipe",
                _ => "6 FO4 deep pipe",
            },
            relative_power: relative_power(fo4).total(),
            error_probability: m.pipeline_error_probability(logic_fraction, deep_stages),
        });
    }

    // The DFS fall-out: 18 FO4 pipeline whose cycle time stretches with
    // the measured Fig. 7 frequency profile — no power *increase* at
    // all (power goes down with f).
    options.push(MarginOption {
        name: "18 FO4 + DFS profile (free)",
        relative_power: relative_power(18.0).total(),
        error_probability: m.checker_error_probability(&fig7.histogram, stages),
    });

    MarginsReport { options }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig7;
    use crate::model::RunScale;
    use rmt3d_workload::Benchmark;

    fn report() -> MarginsReport {
        let f7 = fig7::run_with(
            &crate::SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Gap],
            RunScale::quick(),
        );
        run(&f7, TechNode::N65, 12)
    }

    #[test]
    fn deep_pipelining_costs_inordinate_power() {
        let r = report();
        let base = r.option("18 FO4, full speed").unwrap();
        let deep14 = r.option("14 FO4 deep pipe").unwrap();
        let deep6 = r.option("6 FO4 deep pipe").unwrap();
        // Paper: ~+50% at 14 FO4, ~3x at 6 FO4.
        assert!((deep14.relative_power / base.relative_power - 1.515).abs() < 0.05);
        assert!(deep6.relative_power / base.relative_power > 2.5);
        // Deep pipes do reduce error rates...
        assert!(deep14.error_probability < base.error_probability);
    }

    #[test]
    fn dfs_slack_is_free_and_effective() {
        let r = report();
        let base = r.option("18 FO4, full speed").unwrap();
        let dfs = r.option("18 FO4 + DFS profile (free)").unwrap();
        let deep14 = r.option("14 FO4 deep pipe").unwrap();
        // No power increase.
        assert!((dfs.relative_power - base.relative_power).abs() < 1e-9);
        // Large error-rate improvement over running flat out.
        assert!(dfs.error_probability < base.error_probability / 5.0);
        // The paper's conclusion: prefer the free DFS slack over paying
        // 52% more power for 14 FO4.
        assert!(
            dfs.error_probability
                < deep14.relative_power * dfs.error_probability + deep14.error_probability,
            "sanity: both options beat baseline"
        );
    }

    #[test]
    fn table_formats() {
        assert!(report().to_table().contains("DFS profile"));
    }
}
