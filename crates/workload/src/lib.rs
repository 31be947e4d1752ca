//! Synthetic SPEC2k-like workloads for the `rmt3d` simulator.
//!
//! The paper evaluates 19 SPEC2k programs (7 integer, 12 floating point)
//! over 100M-instruction SimPoint windows. We do not have SPEC binaries or
//! an Alpha ISA simulator, so this crate provides the closest synthetic
//! equivalent: a deterministic, seeded generator of *micro-op traces* with
//! per-program instruction mixes, register-dependence distances, branch
//! behaviour and memory working sets, calibrated so the aggregate
//! behaviour (IPC on the paper's core, L2 miss rates, branch MPKI) lands
//! in the bands the paper reports.
//!
//! A [`Trace`] is what the leading core fetches from and what the
//! campaign's reference executor replays; the trailing core re-executes
//! the leader's committed ops, which mirrors the paper's
//! redundant-multithreading model. The stream is a pure function of the
//! profile, so a trace generates its first ops once and shares them:
//! every model of a sweep, and every checkpoint, trial and oracle of a
//! campaign, reads one copy per benchmark. [`TraceGenerator::next_op`]
//! stays the only producer of ops; past its shared ops a trace
//! continues from the generator's state, so the stream is the same at
//! any length.
//!
//! # Examples
//!
//! ```
//! use rmt3d_workload::{Benchmark, Trace, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(Benchmark::Mcf.profile());
//! let op = gen.next_op();
//! assert!(op.latency() >= 1);
//! // Traces are deterministic: the same benchmark yields the same stream.
//! let mut gen2 = TraceGenerator::new(Benchmark::Mcf.profile());
//! assert_eq!(gen2.next_op(), op);
//!
//! // A shared trace yields the same stream.
//! let mut trace = Trace::new(Benchmark::Mcf.profile(), 1_000);
//! assert_eq!(trace.next_op(), op);
//! ```

mod generator;
mod op;
pub mod prng;
mod profile;
mod spec2k;
mod trace;

pub use generator::{MemoryRegions, TraceGenerator};
pub use op::{ArchReg, BranchInfo, MemRef, MicroOp, OpClass, INT_REG_COUNT, REG_COUNT};
pub use prng::SplitMix64;
pub use profile::{InstructionMix, MemoryProfile, WorkloadProfile};
pub use spec2k::{Benchmark, Suite};
pub use trace::Trace;
