//! Cycle-level core models for the `rmt3d` simulator: the out-of-order
//! leading core and the in-order trailing checker core.
//!
//! This crate plays the role SimpleScalar-3.0 plays in the paper (§3.1):
//! it executes the synthetic SPEC2k-like traces of `rmt3d-workload`
//! through a Table 1-configured out-of-order pipeline ([`OooCore`]) and
//! provides the power-efficient in-order checker ([`InOrderCore`]) that
//! re-executes the committed stream with perfect prediction and register
//! value prediction (§2.1). The RMT coupling (queues, slack, DFS, fault
//! injection) lives in `rmt3d-rmt`.
//!
//! The two cores meet in a [`CommitRing`]: the leader commits each op
//! straight into it (its commit output is any [`CommitSink`]; a `Vec`
//! works for tests), the checker dispatches ops from the ring's RVQ
//! part into its pipe part and verifies them in place, reporting to a
//! [`CheckSink`] (a `Vec<Verification>` keeps every record; a counting
//! sink keeps only what its owner reads). The checker's per-op
//! bookkeeping — functional unit, latency, result source, side queue —
//! comes from per-class tables.
//!
//! # Examples
//!
//! ```
//! use rmt3d_cpu::{CoreConfig, OooCore};
//! use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
//! use rmt3d_workload::{Benchmark, TraceGenerator};
//!
//! let mut core = OooCore::new(
//!     CoreConfig::leading_ev7_like(),
//!     TraceGenerator::new(Benchmark::Mcf.profile()),
//!     CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
//! );
//! core.run_instructions(10_000);
//! println!("mcf IPC = {:.2}", core.activity().ipc());
//! ```

mod activity;
mod bpred;
mod commit;
mod config;
mod inorder;
mod ooo;
mod refexec;
mod ring;

pub use activity::ActivityCounters;
pub use bpred::CombinedPredictor;
pub use commit::CommittedOp;
pub use config::{CoreConfig, TrailerConfig};
pub use inorder::{CheckOutcome, CheckSink, InOrderCore, Verification};
pub use ooo::{load_memory_value, OooCore, FETCH_RUN_AHEAD};
pub use refexec::ReferenceExecutor;
pub use ring::{CommitRing, CommitSink, QueueOccupancy};
