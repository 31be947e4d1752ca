//! Figure 6 — per-benchmark IPC for the four processor models, plus the
//! §3.3 cache-organization summary (L2 hit latency, misses per 10K,
//! 3d-2a vs 2d-2a improvement). The tests check §3.3's distributed-ways
//! comparison.

use crate::experiments::simulate_grid;
use crate::model::{ProcessorModel, RunScale};
use crate::simulate::{SimConfig, Simulator};
use rmt3d_workload::Benchmark;

/// One benchmark's IPC across the four models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// IPC on the 2d-a baseline.
    pub two_d_a: f64,
    /// IPC on 2d-2a.
    pub two_d_2a: f64,
    /// IPC on 3d-2a.
    pub three_d_2a: f64,
    /// IPC on 3d-checker (checker die, no extra cache).
    pub three_d_checker: f64,
}

/// The full Fig. 6 dataset plus §3.3 aggregates.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Per-benchmark IPCs.
    pub rows: Vec<Fig6Row>,
    /// Mean L2 hit latency observed on 2d-a (paper: 18 cycles).
    pub hit_cycles_2d_a: f64,
    /// Mean L2 hit latency observed on 2d-2a (paper: 22 cycles).
    pub hit_cycles_2d_2a: f64,
    /// Mean L2 hit latency observed on 3d-2a (paper: ~2d-a).
    pub hit_cycles_3d_2a: f64,
    /// Suite-mean L2 misses per 10K instructions at 6 MB (paper: 1.43).
    pub misses_per_10k_6mb: f64,
    /// Suite-mean L2 misses per 10K instructions at 15 MB (paper: 1.25).
    pub misses_per_10k_15mb: f64,
}

impl Fig6Result {
    /// Geometric-mean IPC of one column.
    pub fn gmean(&self, f: impl Fn(&Fig6Row) -> f64) -> f64 {
        let s: f64 = self.rows.iter().map(|r| f(r).ln()).sum();
        (s / self.rows.len() as f64).exp()
    }

    /// The §3.3 headline: 3d-2a performance improvement over 2d-2a
    /// (paper: 5.5%).
    pub fn improvement_3d_over_2d2a(&self) -> f64 {
        self.gmean(|r| r.three_d_2a) / self.gmean(|r| r.two_d_2a) - 1.0
    }

    /// Formats as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut s = String::from(
            "Fig.6 Performance evaluation (IPC, distributed-sets NUCA)\n\
             benchmark    2d-a  2d-2a  3d-2a  3d-checker\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:10} {:6.2} {:6.2} {:6.2} {:6.2}\n",
                r.benchmark.name(),
                r.two_d_a,
                r.two_d_2a,
                r.three_d_2a,
                r.three_d_checker
            ));
        }
        s.push_str(&format!(
            "L2 hit cycles: 2d-a {:.1}, 2d-2a {:.1}, 3d-2a {:.1}\n\
             L2 misses/10K: 6MB {:.2}, 15MB {:.2}\n\
             3d-2a vs 2d-2a: {:+.1}%\n",
            self.hit_cycles_2d_a,
            self.hit_cycles_2d_2a,
            self.hit_cycles_3d_2a,
            self.misses_per_10k_6mb,
            self.misses_per_10k_15mb,
            100.0 * self.improvement_3d_over_2d2a()
        ));
        s
    }
}

/// Runs Fig. 6 at the paper's nominal settings, whose NUCA policy is
/// distributed sets. All `4 × |benchmarks|` performance runs go through
/// `sim` as one batch.
pub fn run_with(sim: &dyn Simulator, benchmarks: &[Benchmark], scale: RunScale) -> Fig6Result {
    let [a, b, c, d] = simulate_grid(
        sim,
        ProcessorModel::ALL.map(|m| SimConfig::nominal(m, scale)),
        benchmarks,
    );
    let mut rows = Vec::with_capacity(benchmarks.len());
    let mut hit_a = 0.0;
    let mut hit_b = 0.0;
    let mut hit_c = 0.0;
    let mut miss6 = 0.0;
    let mut miss15 = 0.0;
    for (i, &benchmark) in benchmarks.iter().enumerate() {
        let (ra, rb, rc, rd) = (&a[i], &b[i], &c[i], &d[i]);
        hit_a += ra.l2.mean_hit_cycles();
        hit_b += rb.l2.mean_hit_cycles();
        hit_c += rc.l2.mean_hit_cycles();
        miss6 += ra.l2_misses_per_10k();
        miss15 += rc.l2_misses_per_10k();
        rows.push(Fig6Row {
            benchmark,
            two_d_a: ra.ipc(),
            two_d_2a: rb.ipc(),
            three_d_2a: rc.ipc(),
            three_d_checker: rd.ipc(),
        });
    }
    let n = benchmarks.len() as f64;
    Fig6Result {
        rows,
        hit_cycles_2d_a: hit_a / n,
        hit_cycles_2d_2a: hit_b / n,
        hit_cycles_3d_2a: hit_c / n,
        misses_per_10k_6mb: miss6 / n,
        misses_per_10k_15mb: miss15 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
    use crate::SerialSimulator;
    use rmt3d_cache::NucaPolicy;

    fn serial(benchmarks: &[Benchmark], scale: RunScale) -> Fig6Result {
        run_with(&SerialSimulator, benchmarks, scale)
    }

    #[test]
    fn cache_organization_effects() {
        let r = serial(
            &[Benchmark::Gzip, Benchmark::Vpr, Benchmark::Swim],
            RunScale::quick(),
        );
        // Paper: 18 vs 22 cycle mean L2 hit latency; 3d-2a near 2d-a.
        assert!(
            (16.0..20.0).contains(&r.hit_cycles_2d_a),
            "{}",
            r.hit_cycles_2d_a
        );
        assert!(
            (20.0..24.5).contains(&r.hit_cycles_2d_2a),
            "{}",
            r.hit_cycles_2d_2a
        );
        assert!(r.hit_cycles_3d_2a < r.hit_cycles_2d_2a);
        // 3d-2a beats 2d-2a (paper: 5.5%).
        let imp = r.improvement_3d_over_2d2a();
        assert!((0.0..0.15).contains(&imp), "improvement {imp}");
    }

    #[test]
    fn checker_costs_nothing_and_cache_grows_help_little() {
        let r = serial(&[Benchmark::Gzip], RunScale::quick());
        let row = &r.rows[0];
        // 3d-checker ~= 2d-a (same cache, free checker).
        assert!(
            (row.three_d_checker / row.two_d_a - 1.0).abs() < 0.05,
            "3d-checker {} vs 2d-a {}",
            row.three_d_checker,
            row.two_d_a
        );
        // For cache-friendly gzip the 15 MB cache does not transform
        // performance (paper: most differences are latency, not hits).
        assert!((row.three_d_2a / row.two_d_a - 1.0).abs() < 0.08);
    }

    #[test]
    fn distributed_ways_is_slightly_better() {
        // §3.3: < 2% better than distributed sets.
        let sets = SimConfig::nominal(ProcessorModel::TwoD2A, RunScale::quick());
        let ways = SimConfig {
            policy: NucaPolicy::DistributedWays,
            ..sets.clone()
        };
        let ratio = simulate(&ways, Benchmark::Gzip).ipc() / simulate(&sets, Benchmark::Gzip).ipc();
        assert!(
            (0.98..1.06).contains(&ratio),
            "ways vs sets on 2d-2a: {ratio}"
        );
    }

    #[test]
    fn table_output() {
        let r = serial(&[Benchmark::Eon], RunScale::quick());
        assert!(r.to_table().contains("eon"));
    }
}
