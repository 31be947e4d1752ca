//! Architectural reference executor — the campaign's differential
//! oracle.
//!
//! Fault-injection campaigns must not check the out-of-order leader and
//! the in-order checker only against *each other*: a common-mode bug in
//! the pipeline models (or the golden-shadow bookkeeping) would go
//! unnoticed. [`ReferenceExecutor`] computes ground truth a third way —
//! a plain sequential interpreter over the same deterministic trace,
//! with no pipeline, no queues and no recovery machinery. After a run
//! drains, the leader register file, the trailer register file and the
//! reference register file must be identical; any disagreement is a
//! coverage violation.

use crate::ooo::load_memory_value;
use rmt3d_workload::{OpClass, Trace};

/// A sequential architectural interpreter over a [`Trace`].
///
/// The leader commits trace ops in sequence order (wrong-path work is
/// squashed, never committed), so replaying the first `n` ops of a
/// fresh trace with the same profile reproduces the architectural
/// state after `n` leader commits.
#[derive(Debug, Clone)]
pub struct ReferenceExecutor {
    trace: Trace,
    regfile: [u64; 64],
    executed: u64,
}

impl ReferenceExecutor {
    /// Creates an executor over a fresh trace (or generator) with the
    /// same profile as the core under test; sharing the core's trace
    /// generates the stream once.
    pub fn new(trace: impl Into<Trace>) -> ReferenceExecutor {
        ReferenceExecutor {
            trace: trace.into(),
            regfile: [0; 64],
            executed: 0,
        }
    }

    /// Executes the next op architecturally and returns its result
    /// value (0 for stores and branches).
    pub fn step(&mut self) -> u64 {
        let op = self.trace.next_op();
        let s1 = op.src1_reg.map_or(0, |r| self.regfile[r.index() as usize]);
        let s2 = op.src2_reg.map_or(0, |r| self.regfile[r.index() as usize]);
        let result = match op.kind {
            OpClass::Load => load_memory_value(op.mem_addr),
            OpClass::Store | OpClass::Branch => 0,
            _ => op.compute_result(s1, s2),
        };
        if let Some(d) = op.dest {
            self.regfile[d.index() as usize] = result;
        }
        self.executed += 1;
        result
    }

    /// Executes ops until `n` total have been executed (no-op if `n`
    /// ops already ran). Use with the core's committed count to bring
    /// the reference exactly level with a drained system.
    pub fn run_to(&mut self, n: u64) {
        while self.executed < n {
            self.step();
        }
    }

    /// Ops executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The reference architectural register file.
    pub fn regfile(&self) -> &[u64; 64] {
        &self.regfile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::ooo::OooCore;
    use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
    use rmt3d_workload::{Benchmark, TraceGenerator};

    #[test]
    fn reference_matches_ooo_leader_exactly() {
        for b in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim] {
            let mut core = OooCore::new(
                CoreConfig::leading_ev7_like(),
                TraceGenerator::new(b.profile()),
                CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
            );
            core.run_instructions(20_000);
            let committed = core.activity().committed;
            let mut oracle = ReferenceExecutor::new(TraceGenerator::new(b.profile()));
            oracle.run_to(committed);
            assert_eq!(oracle.executed(), committed);
            assert_eq!(
                oracle.regfile(),
                core.regfile(),
                "{b:?}: reference and leader state diverged"
            );
        }
    }

    #[test]
    fn run_to_is_idempotent_and_monotonic() {
        let mut r = ReferenceExecutor::new(TraceGenerator::new(Benchmark::Gzip.profile()));
        r.run_to(100);
        let snap = *r.regfile();
        r.run_to(100);
        r.run_to(50);
        assert_eq!(r.executed(), 100);
        assert_eq!(r.regfile(), &snap);
        r.run_to(101);
        assert_eq!(r.executed(), 101);
    }
}
