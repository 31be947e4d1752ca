//! Inter-core queues: RVQ, LVQ, BOQ and StB (paper §2, Fig. 1).
//!
//! Physically we model one in-order stream of [`CommittedOp`] records
//! (that is what the inter-die via bundle of Table 4 carries): the
//! [`CommitRing`] the leader commits into and the checker verifies
//! from. Each logical queue has its own capacity and occupancy: the
//! register value queue holds every instruction, the load value queue
//! only loads, the branch outcome queue only branches, and the store
//! buffer holds stores from leader-commit until the checker verifies
//! them.

pub use rmt3d_cpu::QueueOccupancy;
use rmt3d_cpu::{CommitRing, CommittedOp};

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

/// The leader→trailer queue complex.
#[derive(Debug, Clone)]
pub struct IntercoreQueues {
    config: QueueConfig,
    ring: CommitRing,
    /// High-water marks (for sizing studies).
    peak: QueueOccupancy,
}

impl IntercoreQueues {
    /// Creates empty queues. The ring holds the RVQ capacity rounded up
    /// to a power of two, which at the paper's sizing (200 → 256) also
    /// holds the checker's 16-deep pipe, so a coupled system never grows
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: QueueConfig) -> IntercoreQueues {
        config.validate().expect("invalid queue configuration");
        IntercoreQueues {
            config,
            ring: CommitRing::with_capacity(config.rvq),
            peak: QueueOccupancy::default(),
        }
    }

    /// The configured capacities.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Current occupancies.
    #[inline]
    pub fn occupancy(&self) -> QueueOccupancy {
        self.ring.occupancy()
    }

    /// Highest occupancies observed.
    pub fn peak_occupancy(&self) -> QueueOccupancy {
        self.peak
    }

    /// RVQ occupancy as a fraction of capacity — the DFS controller's
    /// input signal.
    #[inline]
    pub fn rvq_fill(&self) -> f64 {
        self.ring.queued() as f64 / self.config.rvq as f64
    }

    /// True when the leader may commit `headroom` more instructions of
    /// any type without overflowing a queue. The leader checks this
    /// before its commit stage; a full queue stalls retirement.
    #[inline]
    pub fn can_accept(&self, headroom: usize) -> bool {
        let o = self.ring.occupancy();
        o.rvq + headroom <= self.config.rvq
            && o.lvq + headroom <= self.config.lvq
            && o.boq + headroom <= self.config.boq
            && o.stb + headroom <= self.config.stb
    }

    /// Checks the ops the leader just committed into the ring and raises
    /// the high-water marks. Occupancies only grow during a commit, so
    /// one check after its last push covers every push.
    ///
    /// # Panics
    ///
    /// Panics if a queue holds more than its capacity — callers must gate
    /// leader commit with [`IntercoreQueues::can_accept`].
    #[inline]
    pub fn admit_commit(&mut self) {
        let o = self.ring.occupancy();
        assert!(o.rvq <= self.config.rvq, "RVQ overflow");
        assert!(o.lvq <= self.config.lvq, "LVQ overflow");
        assert!(o.stb <= self.config.stb, "StB overflow");
        assert!(o.boq <= self.config.boq, "BOQ overflow");
        self.peak.rvq = self.peak.rvq.max(o.rvq);
        self.peak.lvq = self.peak.lvq.max(o.lvq);
        self.peak.boq = self.peak.boq.max(o.boq);
        self.peak.stb = self.peak.stb.max(o.stb);
    }

    /// The ring the leader commits into and the checker verifies from.
    pub fn ring(&self) -> &CommitRing {
        &self.ring
    }

    /// Mutable access to the ring (leader commit, checker steps).
    pub fn ring_mut(&mut self) -> &mut CommitRing {
        &mut self.ring
    }

    /// The RVQ, oldest first.
    pub fn queued(&self) -> impl DoubleEndedIterator<Item = &CommittedOp> + ExactSizeIterator {
        self.ring.queue()
    }

    /// Mutable access to the `i`-th op of the RVQ (oldest is 0).
    pub fn queued_mut(&mut self, i: usize) -> &mut CommittedOp {
        assert!(i < self.ring.queued(), "RVQ position {i} out of range");
        let c = self.ring.next() + i as u64;
        self.ring.get_mut(c)
    }

    /// Empties all queues (recovery squash), the checker pipe included;
    /// returns how many ops were dropped.
    pub fn squash(&mut self) -> usize {
        self.ring.squash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_workload::{ArchReg, MemRef, MicroOp, OpClass};

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

    /// Commits `items` into the ring as the leader does: straight in,
    /// then one capacity check.
    fn commit(q: &mut IntercoreQueues, items: impl IntoIterator<Item = CommittedOp>) {
        for i in items {
            q.ring_mut().push(i);
        }
        q.admit_commit();
    }

    /// Lets a checker that verifies one op per cycle verify the `n`
    /// oldest ops.
    fn verify(q: &mut IntercoreQueues, n: usize) {
        let cfg = rmt3d_cpu::TrailerConfig {
            verify_ports: 1,
            ..rmt3d_cpu::TrailerConfig::checker()
        };
        let mut t = rmt3d_cpu::InOrderCore::new(cfg);
        let mut out = Vec::new();
        while out.len() < n {
            t.step_cycle(q.ring_mut(), &mut out);
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
        commit(
            &mut q,
            [
                item(0, OpClass::IntAlu),
                item(1, OpClass::Load),
                item(2, OpClass::Store),
                item(3, OpClass::Branch),
            ],
        );
        let o = q.occupancy();
        assert_eq!((o.rvq, o.lvq, o.boq, o.stb), (4, 1, 1, 1));
        verify(&mut q, 2);
        // The checker may have dispatched the other two out of the RVQ
        // into its pipe; they stay in their side queues until verified.
        let o = q.occupancy();
        let unverified = o.rvq + q.ring().in_pipe();
        assert_eq!((unverified, o.lvq, o.boq, o.stb), (2, 0, 1, 1));
    }

    #[test]
    fn can_accept_respects_every_queue() {
        let mut q = IntercoreQueues::new(QueueConfig {
            rvq: 100,
            lvq: 80,
            boq: 40,
            stb: 2,
        });
        commit(&mut q, [item(0, OpClass::Store), item(1, OpClass::Store)]);
        // StB is full: even though the RVQ has room, commit must stall.
        assert!(!q.can_accept(1));
        verify(&mut q, 1);
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
        commit(&mut q, [item(0, OpClass::Store), item(1, OpClass::Store)]);
    }

    #[test]
    fn squash_clears_everything() {
        let mut q = IntercoreQueues::new(QueueConfig::paper());
        commit(
            &mut q,
            (0..10).map(|i| {
                item(
                    i,
                    if i % 2 == 0 {
                        OpClass::Load
                    } else {
                        OpClass::Store
                    },
                )
            }),
        );
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
        commit(&mut q, (0..5).map(|i| item(i, OpClass::IntAlu)));
        assert!((q.rvq_fill() - 0.5).abs() < 1e-12);
    }
}
