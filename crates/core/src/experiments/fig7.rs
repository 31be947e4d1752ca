//! Figure 7 — histogram of the checker's DFS frequency levels, and the
//! timing-margin analysis of §3.5 built on it.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_reliability::TimingModel;
use rmt3d_rmt::DFS_LEVELS;
use rmt3d_units::TechNode;
use rmt3d_workload::Benchmark;

/// Fig. 7 output: fraction of DFS intervals at each normalized
/// frequency level (level `i` = `(i+1)/10 f`).
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Suite-aggregated histogram.
    pub histogram: [f64; DFS_LEVELS],
    /// Mean normalized frequency (paper: ~0.6 f, i.e. 1.26 GHz needed
    /// against a 2 GHz leader, §4).
    pub mean_fraction: f64,
}

impl Fig7Result {
    /// The modal frequency level as a fraction of peak.
    pub fn mode_fraction(&self) -> f64 {
        let (i, _) = self
            .histogram
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("fractions are finite"))
            .expect("histogram is non-empty");
        (i + 1) as f64 / DFS_LEVELS as f64
    }

    /// §3.5: expected per-instruction timing-error probability of the
    /// checker given its operating profile, relative to running every
    /// stage at full frequency. Uses the Table 6-derived timing model.
    pub fn timing_error_improvement(&self, node: TechNode, stages: u32) -> f64 {
        let m = TimingModel::for_node(node);
        let mut full = [0.0; DFS_LEVELS];
        full[DFS_LEVELS - 1] = 1.0;
        let at_full = m.checker_error_probability(&full, stages);
        let at_profile = m.checker_error_probability(&self.histogram, stages);
        at_full / at_profile.max(f64::MIN_POSITIVE)
    }

    /// Formats the histogram as a text table.
    pub fn to_table(&self) -> String {
        let mut s = String::from("Fig.7 Checker DFS frequency histogram\nfreq  intervals(%)\n");
        for (i, &f) in self.histogram.iter().enumerate() {
            s.push_str(&format!(
                "{:.1}f {:10.1}\n",
                (i + 1) as f64 / 10.0,
                f * 100.0
            ));
        }
        s.push_str(&format!("mean {:.2} f\n", self.mean_fraction));
        s
    }
}

/// Runs Fig. 7: aggregates the DFS histograms of 3d-2a runs across
/// benchmarks (weighted by intervals equally per benchmark). The
/// per-benchmark runs go through `sim` as one batch.
pub fn run_with(sim: &dyn Simulator, benchmarks: &[Benchmark], scale: RunScale) -> Fig7Result {
    let [perfs] = simulate_grid(
        sim,
        [SimConfig::nominal(ProcessorModel::ThreeD2A, scale)],
        benchmarks,
    );
    let mut histogram = [0.0; DFS_LEVELS];
    let mut mean = 0.0;
    for r in perfs {
        for (h, x) in histogram.iter_mut().zip(r.dfs_histogram) {
            *h += x / benchmarks.len() as f64;
        }
        mean += r.mean_checker_fraction / benchmarks.len() as f64;
    }
    Fig7Result {
        histogram,
        mean_fraction: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSimulator;

    fn quick() -> Fig7Result {
        // Mid/high-IPC programs: the checker's operating point tracks
        // leader throughput, so memory-bound programs pull the whole
        // histogram down (they appear in the full-suite run).
        run_with(
            &SerialSimulator,
            &[Benchmark::Gzip, Benchmark::Vortex, Benchmark::Gap],
            RunScale::quick(),
        )
    }

    #[test]
    fn histogram_peaks_near_06f() {
        let r = quick();
        let sum: f64 = r.histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Paper: "For most of the time, the checker operates at 0.6
        // times the peak frequency".
        let mode = r.mode_fraction();
        assert!(
            (0.4..=0.8).contains(&mode),
            "DFS mode {mode} should sit near 0.6 f"
        );
        assert!(
            (0.45..=0.75).contains(&r.mean_fraction),
            "mean fraction {}",
            r.mean_fraction
        );
    }

    #[test]
    fn slack_makes_the_checker_orders_safer() {
        // §3.5's conclusion: the DFS profile leaves so much stage slack
        // that timing errors collapse versus full-speed operation.
        let r = quick();
        let improvement = r.timing_error_improvement(TechNode::N65, 12);
        // Any interval spent at 0.9-1.0 f dominates the expected error
        // probability, so the improvement is bounded by the residual
        // full-speed time; an order of magnitude is the paper's point.
        assert!(
            improvement > 10.0,
            "checker timing-error improvement {improvement}x"
        );
    }

    #[test]
    fn older_node_checker_is_even_safer() {
        let r = quick();
        let at65 = r.timing_error_improvement(TechNode::N65, 12);
        let at90 = r.timing_error_improvement(TechNode::N90, 12);
        // §4: less variability at 90 nm, so the same profile buys more.
        assert!(at90 > at65, "90nm {at90} vs 65nm {at65}");
    }

    #[test]
    fn table_output() {
        assert!(quick().to_table().contains("0.6f"));
    }
}
