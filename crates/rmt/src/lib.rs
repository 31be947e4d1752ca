//! Redundant multi-threading (RMT) machinery: the coupling between the
//! out-of-order leading core and the in-order checker core (paper §2).
//!
//! Provides:
//!
//! * [`IntercoreQueues`] — the RVQ / LVQ / BOQ / StB complex of Fig. 1,
//!   over the one [`rmt3d_cpu::CommitRing`] the leader commits into and
//!   the checker verifies from,
//! * [`DfsController`] — the dynamic-frequency-scaling throughput
//!   matcher whose interval histogram is the paper's Fig. 7,
//! * [`FaultInjector`] / [`EccConfig`] — the §2 transient-fault model,
//! * [`RmtSystem`] — the coupled system with detection and recovery,
//!   plus a golden architectural oracle that proves recoveries correct
//!   (kept from the first applied fault on; until then it equals the
//!   leader's register file); its leading core is any [`Leader`], an
//!   [`rmt3d_cpu::OooCore`] unless a campaign trial replays one,
//! * [`TmrSystem`] — the §4 triple-modular-redundancy extension.
//!
//! A leader cycle of [`RmtSystem`] commits straight into the ring, then
//! the checker's DFS-gated ticks verify from it in place and report
//! only how many checks passed and failed.
//!
//! # Examples
//!
//! ```
//! use rmt3d_rmt::{RmtConfig, RmtSystem};
//! use rmt3d_cpu::{CoreConfig, OooCore};
//! use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
//! use rmt3d_workload::{Benchmark, TraceGenerator};
//!
//! let leader = OooCore::new(
//!     CoreConfig::leading_ev7_like(),
//!     TraceGenerator::new(Benchmark::Gzip.profile()),
//!     CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
//! );
//! let mut system = RmtSystem::new(leader, RmtConfig::paper());
//! system.prefill_caches();
//! system.run_instructions(5_000);
//! assert_eq!(system.stats().detected, 0);
//! ```

mod dfs;
mod fault;
mod queues;
mod system;
mod tmr;

pub use dfs::{DfsConfig, DfsController, DFS_LEVELS};
pub use fault::{DirectedOutcome, DrawnFault, EccConfig, FaultFate, FaultInjector, FaultSite};
pub use queues::{IntercoreQueues, QueueConfig, QueueOccupancy};
pub use system::{Leader, RmtConfig, RmtStats, RmtSystem};
pub use tmr::{TmrStats, TmrSystem};
