//! Heartbeat watchdog: flags jobs that have gone silent for much longer
//! than their peers took to finish.
//!
//! The watchdog is a pure state machine over an externally-supplied
//! clock (`now_nanos`), so the pool coordinator can drive it from real
//! `Instant`s while tests drive it with synthetic timestamps. A job's
//! heartbeat is its claim ([`Watchdog::start`]); [`Watchdog::scan`]
//! compares each running job's silence against a threshold derived
//! from the *median* duration of jobs that already finished — a stall
//! is "this job is taking several times longer than a typical job",
//! not an absolute timeout, so the same config works for microsecond
//! unit jobs and minute-long sweeps.
//!
//! Flagging is advisory: a stalled job keeps running (it may be a
//! legitimately heavy config) and is reported at most once. The
//! threshold never drops below [`WatchdogConfig::floor_nanos`], which
//! keeps sub-millisecond medians from flagging everything on a noisy
//! scheduler, and nothing is flagged before
//! [`WatchdogConfig::min_samples`] jobs have finished — with no
//! baseline there is no "typical job" to compare against.

/// Tuning for the stall detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// A job is stalled when its silence exceeds `multiplier` times the
    /// median finished-job duration.
    pub multiplier: f64,
    /// Completed-job count required before anything can be flagged.
    pub min_samples: usize,
    /// Lower bound on the stall threshold, regardless of median.
    pub floor_nanos: u64,
    /// How often the monitor loop should call [`Watchdog::scan`]. The
    /// watchdog itself does not enforce this; it is the coordinator's
    /// poll interval.
    pub poll_nanos: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            multiplier: 4.0,
            min_samples: 3,
            floor_nanos: 250_000_000, // 250 ms
            poll_nanos: 200_000_000,  // 200 ms
        }
    }
}

/// One stall verdict from [`Watchdog::scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// Item index of the silent job.
    pub index: usize,
    /// Nanoseconds since the job's last heartbeat.
    pub elapsed_nanos: u64,
    /// Median finished-job duration the threshold was derived from.
    pub median_nanos: u64,
}

/// Stall detector over heartbeats; see the module docs.
#[derive(Debug, Default)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Running jobs as `(index, last_beat_nanos)`.
    running: Vec<(usize, u64)>,
    /// Wall durations of finished jobs, unsorted.
    finished: Vec<u64>,
    /// Indices already reported, so each job is flagged at most once.
    flagged: Vec<usize>,
}

impl Watchdog {
    /// Creates a watchdog with the given tuning.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            ..Watchdog::default()
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Records that a job was claimed; its heartbeat starts now.
    pub fn start(&mut self, index: usize, now_nanos: u64) {
        self.running.push((index, now_nanos));
    }

    /// Records that a job finished after `wall_nanos`, feeding the
    /// median baseline and clearing any pending stall state.
    pub fn finish(&mut self, index: usize, wall_nanos: u64) {
        self.running.retain(|(i, _)| *i != index);
        self.finished.push(wall_nanos);
    }

    /// Median (nearest-rank) of finished-job durations, or `None` when
    /// nothing has finished.
    pub fn median_nanos(&self) -> Option<u64> {
        if self.finished.is_empty() {
            return None;
        }
        let mut sorted = self.finished.clone();
        sorted.sort_unstable();
        Some(sorted[(sorted.len() - 1) / 2])
    }

    /// The silence threshold a running job must exceed to be flagged,
    /// or `None` while below [`WatchdogConfig::min_samples`].
    pub fn threshold_nanos(&self) -> Option<u64> {
        if self.finished.len() < self.cfg.min_samples {
            return None;
        }
        let median = self.median_nanos()?;
        let scaled = (self.cfg.multiplier * median as f64).round();
        let scaled = if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        };
        Some(scaled.max(self.cfg.floor_nanos))
    }

    /// Flags every running job whose silence exceeds the threshold.
    /// Each job is reported at most once across all scans.
    pub fn scan(&mut self, now_nanos: u64) -> Vec<Stall> {
        let Some(threshold) = self.threshold_nanos() else {
            return Vec::new();
        };
        let median = self.median_nanos().unwrap_or(0);
        let mut stalls = Vec::new();
        for &(index, last_beat) in &self.running {
            let elapsed = now_nanos.saturating_sub(last_beat);
            if elapsed > threshold && !self.flagged.contains(&index) {
                stalls.push(Stall {
                    index,
                    elapsed_nanos: elapsed,
                    median_nanos: median,
                });
            }
        }
        self.flagged.extend(stalls.iter().map(|s| s.index));
        stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(multiplier: f64, min_samples: usize, floor_nanos: u64) -> WatchdogConfig {
        WatchdogConfig {
            multiplier,
            min_samples,
            floor_nanos,
            poll_nanos: 1,
        }
    }

    #[test]
    fn flags_a_deliberately_stalled_job_once() {
        let mut w = Watchdog::new(cfg(4.0, 3, 0));
        w.start(0, 0); // the job that will hang
        for i in 1..=3 {
            w.start(i, 0);
            w.finish(i, 100);
        }
        assert_eq!(w.median_nanos(), Some(100));
        assert_eq!(w.threshold_nanos(), Some(400));
        // Below threshold: silent 350ns <= 400ns.
        assert!(w.scan(350).is_empty());
        // Past threshold: flagged exactly once, with diagnostics.
        let stalls = w.scan(450);
        assert_eq!(
            stalls,
            vec![Stall {
                index: 0,
                elapsed_nanos: 450,
                median_nanos: 100,
            }]
        );
        assert!(w.scan(10_000).is_empty(), "a job is flagged at most once");
    }

    #[test]
    fn needs_min_samples_before_judging() {
        let mut w = Watchdog::new(cfg(4.0, 3, 0));
        w.start(0, 0);
        w.finish(1, 10);
        w.finish(2, 10);
        assert_eq!(w.threshold_nanos(), None);
        assert!(w.scan(u64::MAX).is_empty(), "no baseline, no verdict");
        w.finish(3, 10);
        assert_eq!(w.scan(u64::MAX).len(), 1);
    }

    #[test]
    fn floor_bounds_the_threshold_from_below() {
        let mut w = Watchdog::new(cfg(4.0, 1, 1_000));
        w.start(0, 0);
        w.finish(1, 10); // median 10 → scaled threshold 40, floored to 1000
        assert_eq!(w.threshold_nanos(), Some(1_000));
        assert!(w.scan(900).is_empty());
        assert_eq!(w.scan(1_100).len(), 1);
    }

    #[test]
    fn finishing_clears_running_state() {
        let mut w = Watchdog::new(cfg(1.0, 1, 0));
        w.start(0, 0);
        w.finish(5, 100);
        w.finish(0, 2_000); // slow but done before any scan saw it
        assert!(w.scan(1_000_000).is_empty());
        // Its duration now shifts the median for later jobs.
        assert_eq!(w.median_nanos(), Some(100));
        w.finish(6, 3_000);
        assert_eq!(w.median_nanos(), Some(2_000));
    }

    #[test]
    fn median_is_nearest_rank() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        assert_eq!(w.median_nanos(), None);
        for v in [50, 10, 30] {
            w.finish(0, v);
        }
        assert_eq!(w.median_nanos(), Some(30));
        w.finish(0, 40);
        assert_eq!(w.median_nanos(), Some(30), "even count takes lower middle");
    }
}
