//! Inter-core queues: RVQ, LVQ, BOQ and StB (paper §2, Fig. 1).
//!
//! Physically we model one in-order stream of [`CommittedOp`] records
//! (that is what the inter-die via bundle of Table 4 carries), but each
//! logical queue has its own capacity and occupancy: the register value
//! queue holds every instruction, the load value queue only loads, the
//! branch outcome queue only branches, and the store buffer holds stores
//! from leader-commit until the checker verifies them.

use rmt3d_cpu::CommittedOp;
use rmt3d_workload::OpClass;
use std::collections::VecDeque;

/// Capacities of the four logical queues.
///
/// Defaults are the paper's §2.1 sizing for a slack of 200 instructions:
/// 200-entry RVQ, 80-entry LVQ, 40-entry BOQ, 40-entry StB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Register value queue entries.
    pub rvq: usize,
    /// Load value queue entries.
    pub lvq: usize,
    /// Branch outcome queue entries.
    pub boq: usize,
    /// Store buffer entries.
    pub stb: usize,
}

impl QueueConfig {
    /// The paper's sizing (§2.1).
    pub fn paper() -> QueueConfig {
        QueueConfig {
            rvq: 200,
            lvq: 80,
            boq: 40,
            stb: 40,
        }
    }

    /// Validates capacities.
    ///
    /// # Errors
    ///
    /// Returns an error message when any capacity is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.rvq == 0 || self.lvq == 0 || self.boq == 0 || self.stb == 0 {
            return Err("queue capacities must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig::paper()
    }
}

/// Occupancy snapshot of the logical queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueOccupancy {
    /// Entries in the RVQ.
    pub rvq: usize,
    /// Load entries in flight.
    pub lvq: usize,
    /// Branch entries in flight.
    pub boq: usize,
    /// Unverified stores in the StB.
    pub stb: usize,
}

/// The leader→trailer queue complex.
#[derive(Debug, Clone)]
pub struct IntercoreQueues {
    config: QueueConfig,
    stream: VecDeque<CommittedOp>,
    lvq: usize,
    boq: usize,
    stb: usize,
    /// High-water marks (for sizing studies).
    peak: QueueOccupancy,
    /// Total entries ever enqueued (for bandwidth/power accounting).
    pub total_enqueued: u64,
}

impl IntercoreQueues {
    /// Creates empty queues.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: QueueConfig) -> IntercoreQueues {
        config.validate().expect("invalid queue configuration");
        IntercoreQueues {
            config,
            stream: VecDeque::with_capacity(config.rvq),
            lvq: 0,
            boq: 0,
            stb: 0,
            peak: QueueOccupancy::default(),
            total_enqueued: 0,
        }
    }

    /// The configured capacities.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Current occupancies.
    pub fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            rvq: self.stream.len(),
            lvq: self.lvq,
            boq: self.boq,
            stb: self.stb,
        }
    }

    /// Highest occupancies observed.
    pub fn peak_occupancy(&self) -> QueueOccupancy {
        self.peak
    }

    /// RVQ occupancy as a fraction of capacity — the DFS controller's
    /// input signal.
    #[inline]
    pub fn rvq_fill(&self) -> f64 {
        self.stream.len() as f64 / self.config.rvq as f64
    }

    /// True when the leader may commit `headroom` more instructions of
    /// any type without overflowing a queue. The leader checks this
    /// before its commit stage; a full queue stalls retirement.
    #[inline]
    pub fn can_accept(&self, headroom: usize) -> bool {
        self.stream.len() + headroom <= self.config.rvq
            && self.lvq + headroom <= self.config.lvq
            && self.boq + headroom <= self.config.boq
            && self.stb + headroom <= self.config.stb
    }

    /// Enqueues a committed instruction.
    ///
    /// # Panics
    ///
    /// Panics if a queue would overflow — callers must gate leader commit
    /// with [`IntercoreQueues::can_accept`].
    #[inline]
    pub fn push(&mut self, item: CommittedOp) {
        assert!(self.stream.len() < self.config.rvq, "RVQ overflow");
        match item.op.kind {
            OpClass::Load => {
                assert!(self.lvq < self.config.lvq, "LVQ overflow");
                self.lvq += 1;
            }
            OpClass::Store => {
                assert!(self.stb < self.config.stb, "StB overflow");
                self.stb += 1;
            }
            OpClass::Branch => {
                assert!(self.boq < self.config.boq, "BOQ overflow");
                self.boq += 1;
            }
            _ => {}
        }
        self.stream.push_back(item);
        self.total_enqueued += 1;
        let occ = self.occupancy();
        self.peak.rvq = self.peak.rvq.max(occ.rvq);
        self.peak.lvq = self.peak.lvq.max(occ.lvq);
        self.peak.boq = self.peak.boq.max(occ.boq);
        self.peak.stb = self.peak.stb.max(occ.stb);
    }

    /// The queued ops, oldest first.
    pub fn stream(&self) -> &VecDeque<CommittedOp> {
        &self.stream
    }

    /// The trailer-side dequeue view. The trailer pops from this; the
    /// caller must report each popped op back via
    /// [`IntercoreQueues::on_trailer_consumed`] to keep the logical
    /// occupancies in sync.
    pub fn stream_mut(&mut self) -> &mut VecDeque<CommittedOp> {
        &mut self.stream
    }

    /// Records that the trailer consumed (verified or squashed) an op of
    /// the given class, releasing its LVQ/BOQ/StB slot. Stores leave the
    /// StB here: the paper commits stores to memory only after checking.
    #[inline]
    pub fn on_trailer_consumed(&mut self, kind: OpClass) {
        match kind {
            OpClass::Load => self.lvq = self.lvq.saturating_sub(1),
            OpClass::Store => self.stb = self.stb.saturating_sub(1),
            OpClass::Branch => self.boq = self.boq.saturating_sub(1),
            _ => {}
        }
    }

    /// Empties all queues (recovery squash).
    pub fn squash(&mut self) -> usize {
        let n = self.stream.len();
        self.stream.clear();
        self.lvq = 0;
        self.boq = 0;
        self.stb = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_workload::{ArchReg, MemRef, MicroOp};

    fn item(seq: u64, kind: OpClass) -> CommittedOp {
        let dest = kind.writes_register().then(|| ArchReg::new(1));
        let mem = kind.is_memory().then_some(MemRef { addr: 64, size: 8 });
        CommittedOp {
            op: MicroOp {
                seq,
                pc: 0x400000,
                kind,
                dest,
                imm: seq,
                mem_addr: MicroOp::pack_mem(mem),
                ..MicroOp::EMPTY
            },
            result: 0,
            src1_value: (kind == OpClass::Store) as u64 * 9,
            src2_value: 0,
            mem_value: (kind == OpClass::Load) as u64 * 7,
            commit_cycle: seq,
        }
    }

    #[test]
    fn paper_capacities() {
        let q = QueueConfig::paper();
        assert_eq!((q.rvq, q.lvq, q.boq, q.stb), (200, 80, 40, 40));
    }

    #[test]
    fn logical_occupancies_track_op_kinds() {
        let mut q = IntercoreQueues::new(QueueConfig::paper());
        q.push(item(0, OpClass::IntAlu));
        q.push(item(1, OpClass::Load));
        q.push(item(2, OpClass::Store));
        q.push(item(3, OpClass::Branch));
        let o = q.occupancy();
        assert_eq!((o.rvq, o.lvq, o.boq, o.stb), (4, 1, 1, 1));
        q.on_trailer_consumed(OpClass::Load);
        assert_eq!(q.occupancy().lvq, 0);
    }

    #[test]
    fn can_accept_respects_every_queue() {
        let mut q = IntercoreQueues::new(QueueConfig {
            rvq: 100,
            lvq: 80,
            boq: 40,
            stb: 2,
        });
        q.push(item(0, OpClass::Store));
        q.push(item(1, OpClass::Store));
        // StB is full: even though the RVQ has room, commit must stall.
        assert!(!q.can_accept(1));
        q.on_trailer_consumed(OpClass::Store);
        assert!(q.can_accept(1));
    }

    #[test]
    #[should_panic(expected = "StB overflow")]
    fn overflow_panics() {
        let mut q = IntercoreQueues::new(QueueConfig {
            rvq: 100,
            lvq: 80,
            boq: 40,
            stb: 1,
        });
        q.push(item(0, OpClass::Store));
        q.push(item(1, OpClass::Store));
    }

    #[test]
    fn squash_clears_everything() {
        let mut q = IntercoreQueues::new(QueueConfig::paper());
        for i in 0..10 {
            q.push(item(
                i,
                if i % 2 == 0 {
                    OpClass::Load
                } else {
                    OpClass::Store
                },
            ));
        }
        assert_eq!(q.squash(), 10);
        let o = q.occupancy();
        assert_eq!((o.rvq, o.lvq, o.boq, o.stb), (0, 0, 0, 0));
        assert_eq!(q.peak_occupancy().lvq, 5, "peaks survive squash");
    }

    #[test]
    fn fill_fraction() {
        let mut q = IntercoreQueues::new(QueueConfig {
            rvq: 10,
            lvq: 10,
            boq: 10,
            stb: 10,
        });
        for i in 0..5 {
            q.push(item(i, OpClass::IntAlu));
        }
        assert!((q.rvq_fill() - 0.5).abs() < 1e-12);
    }
}
