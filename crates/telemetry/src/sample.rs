//! Periodic machine-state snapshots.
//!
//! The interval sampler lives in `rmt3d::simulate`, which is the only
//! layer that can see the leader pipeline, the checker queues, and the
//! cache hierarchy at once. Every `--sample-interval` cycles it fills
//! an [`IntervalSample`] from read-only accessors and hands it to the
//! active [`Sink`](crate::Sink); sampling therefore never perturbs the
//! simulated numbers.

/// One snapshot of the coupled leader/checker machine state, taken
/// every `sample_interval` leader cycles.
///
/// All fields are plain numbers so a sample can be serialized as one
/// flat JSONL record or one CSV row without any schema machinery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalSample {
    /// 0-based index of the sample within the run.
    pub index: u64,
    /// Leader cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Instructions committed by the leader since the previous sample.
    pub committed: u64,
    /// Committed IPC over the interval.
    pub ipc: f64,
    /// Leader re-order buffer occupancy (entries).
    pub rob: u32,
    /// Leader integer issue-queue occupancy (entries).
    pub iq_int: u32,
    /// Leader floating-point issue-queue occupancy (entries).
    pub iq_fp: u32,
    /// Leader load/store-queue occupancy (entries).
    pub lsq: u32,
    /// Register value queue occupancy (leader -> checker operands).
    pub rvq: u32,
    /// Load value queue occupancy (leader -> checker load values).
    pub lvq: u32,
    /// Branch outcome queue occupancy (leader -> checker outcomes).
    pub boq: u32,
    /// Checker store buffer occupancy.
    pub stb: u32,
    /// Checker clock as a fraction of the leader clock (DFS level).
    pub checker_fraction: f64,
    /// Cumulative L1 data-cache accesses at the snapshot.
    pub dl1_accesses: u64,
    /// Cumulative L1 data-cache misses at the snapshot.
    pub dl1_misses: u64,
    /// Cumulative L2 accesses at the snapshot.
    pub l2_accesses: u64,
    /// Cumulative L2 misses at the snapshot.
    pub l2_misses: u64,
    /// Leader cycles spent commit-stalled since the previous sample.
    pub commit_stall_cycles: u64,
}
