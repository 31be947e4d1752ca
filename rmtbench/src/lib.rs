//! `rmtbench`: the rmt3d benchmark.
//!
//! One command runs one workload from a single process, prints every
//! metric by name with its unit, and checks every simulated output.
//! See `rmtbench/README.md` for the workloads, the metrics and how the
//! layers map onto them.

pub mod digest;
pub mod expected;
pub mod host;
pub mod layers;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
