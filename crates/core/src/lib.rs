//! `rmt3d`: a simulation platform reproducing *"Leveraging 3D Technology
//! for Improved Reliability"* (Madan & Balasubramonian, MICRO 2007).
//!
//! The paper proposes stacking an in-order *checker core* on a second
//! die above an out-of-order leading core ("snap-on" reliability) and
//! evaluates the thermal, performance, interconnect and technology
//! design space. This crate assembles the substrate crates —
//! workload synthesis, cycle-level cores, NUCA caches, RMT coupling,
//! Wattch-lite power, HotSpot-lite thermals, interconnect and
//! reliability models — into the paper's four processor models and an
//! experiment harness that regenerates every table and figure
//! (see `EXPERIMENTS.md` at the repository root).
//!
//! # Examples
//!
//! ```no_run
//! use rmt3d::{simulate, ProcessorModel, RunScale, SimConfig};
//! use rmt3d_workload::Benchmark;
//!
//! let cfg = SimConfig::nominal(ProcessorModel::ThreeD2A, RunScale::quick());
//! let result = simulate(&cfg, Benchmark::Mcf);
//! println!("mcf on 3d-2a: IPC {:.2}, checker at {:.2} f",
//!     result.ipc(), result.mean_checker_fraction);
//! ```

pub mod experiments;
mod model;
mod powermap;
pub mod report;
mod simulate;

pub use model::{L2Policy, ParseModelError, ProcessorModel, RunScale};
pub use powermap::{build_power_map, override_checker_power, ChipPower, PowerMapConfig};
pub use simulate::{
    simulate, simulate_on, simulate_traced, PerfResult, SerialSimulator, SimConfig, Simulator,
};

pub use rmt3d_telemetry as telemetry;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use rmt3d_cache as cache;
pub use rmt3d_cpu as cpu;
pub use rmt3d_floorplan as floorplan;
pub use rmt3d_interconnect as interconnect;
pub use rmt3d_power as power;
pub use rmt3d_reliability as reliability;
pub use rmt3d_rmt as rmt;
pub use rmt3d_thermal as thermal;
pub use rmt3d_units as units;
pub use rmt3d_workload as workload;
