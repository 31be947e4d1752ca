//! Dynamic frequency scaling controller for the checker core (§2.1).
//!
//! Implements the algorithm of Madan & Balasubramonian \[19\]: at a fixed
//! interval the controller samples the RVQ occupancy and steps the
//! trailer's frequency up when the queue is filling (the checker is
//! falling behind) or down when it is draining (the checker is wasting
//! power). The paper notes a frequency change costs a single cycle on
//! Intel's Montecito, so transitions are modelled as free.
//!
//! The controller also records the Fig. 7 histogram: the fraction of
//! intervals spent at each normalized frequency level.

use rmt3d_units::NormalizedFrequency;

/// Number of discrete frequency levels (`0.1 f` steps, Fig. 7's x-axis).
pub const DFS_LEVELS: usize = 10;

/// DFS policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Leader cycles between occupancy samples.
    pub interval: u64,
    /// Step up when RVQ fill exceeds this fraction.
    pub hi_threshold: f64,
    /// Step down when RVQ fill is below this fraction.
    pub lo_threshold: f64,
    /// Frequency step per decision.
    pub step: f64,
    /// Maximum normalized frequency. 1.0 for a same-process checker;
    /// 0.7 for the §4 90 nm checker (1.4 GHz cap against a 2 GHz
    /// leader).
    pub max_fraction: f64,
}

impl DfsConfig {
    /// The paper's less-aggressive heuristic (§4 Discussion): it prefers
    /// running the checker a little fast over ever stalling the leader,
    /// which costs some power/heat but protects leader IPC.
    pub fn paper() -> DfsConfig {
        DfsConfig {
            interval: 200,
            hi_threshold: 0.35,
            lo_threshold: 0.12,
            step: 0.1,
            max_fraction: 1.0,
        }
    }

    /// Same heuristic with a capped peak frequency (older-process
    /// checker die, §4).
    pub fn with_frequency_cap(mut self, max_fraction: f64) -> DfsConfig {
        self.max_fraction = max_fraction.clamp(0.1, 1.0);
        self
    }

    /// An aggressive variant that throttles harder (used in the §4
    /// Discussion ablation: lower temperature, but it can stall the
    /// leader).
    pub fn aggressive() -> DfsConfig {
        DfsConfig {
            interval: 1000,
            hi_threshold: 0.85,
            lo_threshold: 0.5,
            step: 0.1,
            max_fraction: 1.0,
        }
    }

    /// Validates thresholds.
    ///
    /// # Errors
    ///
    /// Returns an error message when thresholds are out of order or the
    /// interval/step is degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("interval must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.lo_threshold)
            || !(0.0..=1.0).contains(&self.hi_threshold)
            || self.lo_threshold >= self.hi_threshold
        {
            return Err("need 0 <= lo < hi <= 1".to_string());
        }
        if self.step <= 0.0 || self.step > 1.0 {
            return Err("step must be in (0, 1]".to_string());
        }
        if !(0.1..=1.0).contains(&self.max_fraction) {
            return Err("max_fraction must be in [0.1, 1]".to_string());
        }
        Ok(())
    }
}

impl Default for DfsConfig {
    fn default() -> DfsConfig {
        DfsConfig::paper()
    }
}

/// The DFS controller state.
#[derive(Debug, Clone)]
pub struct DfsController {
    config: DfsConfig,
    current: NormalizedFrequency,
    since_decision: u64,
    /// Interval counts per level (Fig. 7). Bin `i` is frequency
    /// `(i+1) * 0.1 f`.
    histogram: [u64; DFS_LEVELS],
    intervals: u64,
}

impl DfsController {
    /// Creates a controller starting at the peak allowed frequency (the
    /// safe choice: the checker cannot start out behind).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: DfsConfig) -> DfsController {
        config.validate().expect("invalid DFS configuration");
        DfsController {
            config,
            current: NormalizedFrequency::new(config.max_fraction),
            since_decision: 0,
            histogram: [0; DFS_LEVELS],
            intervals: 0,
        }
    }

    /// The policy in force.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// The trailer's current normalized frequency.
    pub fn current(&self) -> NormalizedFrequency {
        self.current
    }

    /// Advances one leader cycle; when an interval boundary is reached
    /// the controller samples `rvq_fill` and possibly steps the
    /// frequency. Returns `true` when a decision was made.
    #[inline]
    pub fn tick(&mut self, rvq_fill: f64) -> bool {
        self.since_decision += 1;
        if self.since_decision < self.config.interval {
            return false;
        }
        self.since_decision = 0;
        self.intervals += 1;
        let bin = ((self.current.fraction() * DFS_LEVELS as f64).round() as usize)
            .clamp(1, DFS_LEVELS)
            - 1;
        self.histogram[bin] += 1;

        let f = self.current.fraction();
        let next = if rvq_fill > self.config.hi_threshold {
            f + self.config.step
        } else if rvq_fill < self.config.lo_threshold {
            f - self.config.step
        } else {
            f
        };
        // Quantize to the DFS levels first, then enforce the cap: a cap
        // that is not itself a level multiple (e.g. 1.4 GHz / 2 GHz =
        // 0.7, or arbitrary test values) must never be exceeded.
        let q = NormalizedFrequency::new(next.max(self.config.step))
            .quantize(self.config.step)
            .fraction();
        let floor = self.config.step.min(self.config.max_fraction);
        self.current = NormalizedFrequency::new(q.min(self.config.max_fraction).max(floor));
        true
    }

    /// The Fig. 7 histogram as fractions of intervals per level
    /// (level `i` = `(i+1)/10 f`).
    pub fn histogram_fractions(&self) -> [f64; DFS_LEVELS] {
        let mut out = [0.0; DFS_LEVELS];
        if self.intervals > 0 {
            for (o, &h) in out.iter_mut().zip(&self.histogram) {
                *o = h as f64 / self.intervals as f64;
            }
        }
        out
    }

    /// Raw interval counts per level.
    pub fn histogram_counts(&self) -> [u64; DFS_LEVELS] {
        self.histogram
    }

    /// Mean normalized frequency over all recorded intervals (the §4
    /// "average frequency of only 1.26 GHz" metric when multiplied by
    /// the 2 GHz peak).
    pub fn mean_fraction(&self) -> f64 {
        if self.intervals == 0 {
            return self.current.fraction();
        }
        let mut acc = 0.0;
        for (i, &h) in self.histogram.iter().enumerate() {
            acc += (i + 1) as f64 / DFS_LEVELS as f64 * h as f64;
        }
        acc / self.intervals as f64
    }

    /// Decisions made so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(DfsConfig::paper().validate().is_ok());
        assert!(DfsConfig {
            lo_threshold: 0.5,
            hi_threshold: 0.4,
            ..DfsConfig::paper()
        }
        .validate()
        .is_err());
        assert!(DfsConfig {
            interval: 0,
            ..DfsConfig::paper()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn steps_up_when_queue_fills() {
        let mut d = DfsController::new(DfsConfig {
            max_fraction: 1.0,
            ..DfsConfig::paper()
        });
        // Force it down first.
        for _ in 0..20_000 {
            d.tick(0.0);
        }
        assert!(d.current().fraction() < 0.15);
        for _ in 0..20_000 {
            d.tick(0.9);
        }
        assert!((d.current().fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn holds_inside_the_deadband() {
        let mut d = DfsController::new(DfsConfig::paper());
        let start = d.current().fraction();
        for _ in 0..10_000 {
            d.tick(0.3); // between lo (0.15) and hi (0.45)
        }
        assert!((d.current().fraction() - start).abs() < 1e-9);
    }

    #[test]
    fn respects_frequency_cap() {
        let mut d = DfsController::new(DfsConfig::paper().with_frequency_cap(0.7));
        assert!((d.current().fraction() - 0.7).abs() < 1e-9, "starts at cap");
        for _ in 0..50_000 {
            d.tick(1.0); // screaming for more speed
        }
        assert!(
            d.current().fraction() <= 0.7 + 1e-9,
            "the 90nm checker tops out at 1.4 GHz / 2 GHz = 0.7 f"
        );
    }

    #[test]
    fn histogram_sums_to_one() {
        let mut d = DfsController::new(DfsConfig::paper());
        let mut fill = 0.0;
        for i in 0..100_000u64 {
            // Oscillating load.
            fill = if i % 7000 < 3500 { 0.6 } else { 0.05 };
            d.tick(fill);
        }
        let _ = fill;
        let total: f64 = d.histogram_fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(d.intervals() > 0);
        let mean = d.mean_fraction();
        assert!(mean > 0.0 && mean <= 1.0);
    }

    #[test]
    fn never_drops_below_one_step() {
        let mut d = DfsController::new(DfsConfig::paper());
        for _ in 0..100_000 {
            d.tick(0.0);
        }
        assert!(d.current().fraction() >= 0.1 - 1e-9);
    }
}
