//! Host-speed probe: two fixed kernels of the benchmark's own, timed at
//! a low duty cycle on a thread beside each round.
//!
//! The reference host is a 2-vCPU virtual machine that shares its
//! memory system and its cores with other tenants. How fast it runs the
//! simulator swings by up to about 1.8x from minute to minute, and fixed
//! work takes that much longer. Two channels show in the swings:
//!
//! - the memory system. A kernel of dependent random loads over a 4 MiB
//!   table, timed interleaved with campaign trials for 150 s, spread
//!   0.28-0.33 (interquartile range over median) over 3 to 10 s windows
//!   and the trials 0.30-0.39, while their ratio spread 0.04-0.07;
//! - the cores. In other hours the trials' time moved by 20% between
//!   runs with the load kernel flat. Across the rounds of ten runs an
//!   arithmetic kernel's time explained most of it: fitting the log of
//!   round time against the logs of both kernels' times left residuals
//!   of 0.04-0.06, against 0.07-0.09 for the load kernel alone.
//!
//! A round's host index is the product of the two kernels' median times
//! during it, each over its reference time: 1 on a host as fast as the
//! reference, 1.5 on one that takes half as long again. The adjusted
//! metrics divide a time by the index (and multiply a rate by it),
//! which expresses the round at the reference speed. The kernels are
//! part of the benchmark, not of the program, so a change to the
//! program moves the adjusted metrics and not the index, except through
//! the load the program's own threads put on the memory system and the
//! cores beside the probe.

use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Table the load kernel reads: 2^19 words, 4 MiB.
pub const TABLE_WORDS: usize = 1 << 19;

/// Loads per load-kernel call.
pub const LOAD_STEPS: usize = 100_000;

/// Steps per arithmetic-kernel call.
pub const ARITH_STEPS: usize = 150_000;

/// Pause between samples. A sample (both kernels) takes about 2 ms,
/// so the probe keeps one CPU busy for about 4% of a round.
pub const PERIOD: Duration = Duration::from_millis(50);

/// Load-kernel time, ns, that counts as 1, and arithmetic-kernel time:
/// about the medians the probe read beside `campaign-journaled` rounds
/// on the reference host when the benchmark was defined. They only set
/// the scale of the adjusted metrics; they must not change, or the
/// adjusted metrics change with them.
pub const REFERENCE_NS: (f64, f64) = (1.5e6, 4.3e5);

/// One sample: both kernels' times, ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Load kernel.
    pub load_ns: f64,
    /// Arithmetic kernel.
    pub arith_ns: f64,
}

/// A round's host index, by channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostIndex {
    /// Median load-kernel time over its reference.
    pub load: f64,
    /// Median arithmetic-kernel time over its reference.
    pub arith: f64,
}

impl HostIndex {
    /// The index of a set of samples.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn of(samples: &[Sample]) -> HostIndex {
        let load: Vec<f64> = samples.iter().map(|s| s.load_ns).collect();
        let arith: Vec<f64> = samples.iter().map(|s| s.arith_ns).collect();
        HostIndex {
            load: median(&load) / REFERENCE_NS.0,
            arith: median(&arith) / REFERENCE_NS.1,
        }
    }

    /// The product of both channels: the factor the adjusted metrics
    /// divide times by.
    pub fn value(self) -> f64 {
        self.load * self.arith
    }
}

/// The probe's table, built once per run.
pub struct HostProbe {
    table: Vec<u64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

impl HostProbe {
    /// Fills the table from a fixed xorshift sequence.
    pub fn new() -> HostProbe {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        HostProbe { table }
    }

    /// Times one call of each kernel.
    pub fn sample(&self) -> Sample {
        let t = Instant::now();
        black_box(load_kernel(&self.table, LOAD_STEPS));
        let load_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(arith_kernel(ARITH_STEPS));
        let arith_ns = t.elapsed().as_nanos() as f64;
        Sample { load_ns, arith_ns }
    }

    /// Runs `body` on this thread while a second thread samples both
    /// kernels every [`PERIOD`], from before `body` starts until it
    /// returns; returns `body`'s value and the samples (at least one).
    pub fn during<T>(&self, body: impl FnOnce() -> T) -> (T, Vec<Sample>) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    samples.push(self.sample());
                    if stop.load(Ordering::Acquire) {
                        return samples;
                    }
                    std::thread::park_timeout(PERIOD);
                    if stop.load(Ordering::Acquire) {
                        return samples;
                    }
                }
            });
            let value = body();
            stop.store(true, Ordering::Release);
            sampler.thread().unpark();
            let samples = sampler.join().unwrap_or_else(|_| {
                vec![Sample {
                    load_ns: REFERENCE_NS.0,
                    arith_ns: REFERENCE_NS.1,
                }]
            });
            (value, samples)
        })
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// `steps` dependent random loads over `table` (whose length is a power
/// of two), each followed by a branch on the loaded value.
pub fn load_kernel(table: &[u64], steps: usize) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x = xorshift(x);
        let v = table[(x as usize) & mask];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v)
        } else {
            acc.rotate_left(7) ^ v
        };
    }
    acc
}

/// `steps` xorshift steps, each followed by a branch on the value; no
/// loads.
pub fn arith_kernel(steps: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..steps as u64 {
        x = xorshift(x);
        acc = if x.is_multiple_of(3) {
            acc.wrapping_add(x ^ i)
        } else {
            acc.rotate_left(5) ^ x
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_fixed_work() {
        let p = HostProbe::new();
        assert_eq!(load_kernel(&p.table, 1000), load_kernel(&p.table, 1000));
        assert_ne!(load_kernel(&p.table, 1000), load_kernel(&p.table, 1001));
        assert_eq!(arith_kernel(1000), arith_kernel(1000));
        assert_ne!(arith_kernel(1000), arith_kernel(1001));
    }

    #[test]
    fn samples_cover_the_body() {
        let p = HostProbe::new();
        let (v, quick) = p.during(|| 7);
        assert_eq!(v, 7);
        assert!(!quick.is_empty());
        let (_, slow) = p.during(|| std::thread::sleep(PERIOD * 4));
        assert!(slow.len() >= 2, "{} samples over four periods", slow.len());
        assert!(slow.iter().all(|s| s.load_ns > 0.0 && s.arith_ns > 0.0));
    }

    #[test]
    fn index_is_the_product_of_the_channel_medians() {
        let (l, a) = REFERENCE_NS;
        let s = |x: f64, y: f64| Sample {
            load_ns: x * l,
            arith_ns: y * a,
        };
        let idx = HostIndex::of(&[s(1.0, 2.0), s(3.0, 1.0), s(1.5, 1.0)]);
        assert_eq!((idx.load, idx.arith), (1.5, 1.0));
        assert_eq!(idx.value(), 1.5);
        assert_eq!(HostIndex::of(&[s(2.0, 1.25)]).value(), 2.5);
    }
}
