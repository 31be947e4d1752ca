//! The commit ring between the leading core and the checker.

use crate::commit::CommittedOp;
use rmt3d_workload::OpClass;

/// Logical queue an op occupies besides the RVQ, indexed by
/// `OpClass as usize` (`IntAlu, IntMul, FpAlu, FpMul, Load, Store,
/// Branch`): 0 none, [`LVQ`] loads, [`STB`] stores, [`BOQ`] branches.
const SIDE_QUEUE: [usize; 7] = [0, 0, 0, 0, LVQ, STB, BOQ];

/// Side-queue indices of the per-class live counts.
const LVQ: usize = 1;
const STB: usize = 2;
const BOQ: usize = 3;

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

/// The commit ring: one buffer carries each committed op from the
/// leader's commit to the checker's verification (paper Fig. 1).
///
/// Three monotone cursors split the ring, oldest first:
///
/// * `[head, next)` is the checker's execution pipe: dispatched ops with
///   the trailer cycle at which each completes;
/// * `[next, tail)` is the register value queue (RVQ): committed ops the
///   checker has not dispatched yet.
///
/// The leader writes each op once, at `tail`; the checker dispatches it
/// by advancing `next` and verifies it in place at `head`. The ring also
/// counts the loads, stores and branches among `[head, tail)` — the
/// LVQ, StB and BOQ occupancies: a push adds to them, a verification
/// takes away and a squash zeroes them. The capacity is a power of two,
/// so a slot is a cursor under a mask; a push into a full ring doubles
/// it.
#[derive(Debug, Clone)]
pub struct CommitRing {
    pub(crate) items: Box<[CommittedOp]>,
    /// Trailer cycle at which each pipe slot completes.
    pub(crate) complete: Box<[u64]>,
    pub(crate) mask: u64,
    pub(crate) head: u64,
    pub(crate) next: u64,
    pub(crate) tail: u64,
    /// Ops in `[head, tail)`, per [`SIDE_QUEUE`] class.
    live: [usize; 4],
}

impl Default for CommitRing {
    fn default() -> CommitRing {
        CommitRing::with_capacity(1)
    }
}

impl CommitRing {
    /// An empty ring with room for at least `capacity` ops before it
    /// grows.
    pub fn with_capacity(capacity: usize) -> CommitRing {
        let cap = capacity.max(1).next_power_of_two();
        CommitRing {
            items: vec![CommittedOp::EMPTY; cap].into_boxed_slice(),
            complete: vec![0; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            head: 0,
            next: 0,
            tail: 0,
            live: [0; 4],
        }
    }

    #[inline]
    pub(crate) fn slot(&self, cursor: u64) -> usize {
        (cursor & self.mask) as usize
    }

    /// Appends a committed op at the tail of the RVQ, doubling the ring
    /// first if it is full.
    #[inline]
    pub fn push(&mut self, op: CommittedOp) {
        if self.tail - self.head > self.mask {
            self.grow();
        }
        let slot = self.slot(self.tail);
        self.live[SIDE_QUEUE[op.op.kind as usize]] += 1;
        self.items[slot] = op;
        self.tail += 1;
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.items.len() * 2;
        let mut items = vec![CommittedOp::EMPTY; cap].into_boxed_slice();
        let mut complete = vec![0; cap].into_boxed_slice();
        let mask = cap as u64 - 1;
        for c in self.head..self.tail {
            let (from, to) = (self.slot(c), (c & mask) as usize);
            items[to] = self.items[from];
            complete[to] = self.complete[from];
        }
        self.items = items;
        self.complete = complete;
        self.mask = mask;
    }

    /// Removes the verified op at `head`, releasing its side-queue slot.
    #[inline]
    pub(crate) fn retire_head(&mut self, kind: OpClass) {
        self.head += 1;
        self.live[SIDE_QUEUE[kind as usize]] -= 1;
    }

    /// Moves the op at `next` from the RVQ into the checker pipe,
    /// completing at trailer cycle `complete`.
    #[inline]
    pub(crate) fn dispatch(&mut self, complete: u64) {
        let slot = self.slot(self.next);
        self.complete[slot] = complete;
        self.next += 1;
    }

    /// Oldest cursor: the op the checker verifies next.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// First cursor of the RVQ.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// One past the newest op; equals the number of ops ever pushed.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Ops in the RVQ (committed, not dispatched).
    #[inline]
    pub fn queued(&self) -> usize {
        (self.tail - self.next) as usize
    }

    /// Ops in the checker pipe (dispatched, not verified).
    #[inline]
    pub fn in_pipe(&self) -> usize {
        (self.next - self.head) as usize
    }

    /// True when nothing is queued or in the pipe.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Current occupancies.
    #[inline]
    pub fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            rvq: self.queued(),
            lvq: self.live[LVQ],
            boq: self.live[BOQ],
            stb: self.live[STB],
        }
    }

    /// The op at absolute cursor `c` (`head <= c < tail`).
    #[inline]
    pub fn get(&self, c: u64) -> &CommittedOp {
        debug_assert!(
            self.head <= c && c < self.tail,
            "cursor {c} outside the ring"
        );
        &self.items[self.slot(c)]
    }

    /// Mutable access to the op at absolute cursor `c`
    /// (`head <= c < tail`).
    #[inline]
    pub fn get_mut(&mut self, c: u64) -> &mut CommittedOp {
        debug_assert!(
            self.head <= c && c < self.tail,
            "cursor {c} outside the ring"
        );
        let slot = self.slot(c);
        &mut self.items[slot]
    }

    /// The RVQ, oldest first.
    pub fn queue(&self) -> impl DoubleEndedIterator<Item = &CommittedOp> + ExactSizeIterator {
        (0..self.queued()).map(move |k| self.get(self.next + k as u64))
    }

    /// Everything not yet verified — the pipe, then the RVQ — oldest
    /// first.
    pub fn unverified(&self) -> impl Iterator<Item = &CommittedOp> {
        (self.head..self.tail).map(move |c| self.get(c))
    }

    /// Empties the pipe and the RVQ (recovery squash); returns how many
    /// ops were dropped.
    pub fn squash(&mut self) -> usize {
        let n = (self.tail - self.head) as usize;
        self.head = self.tail;
        self.next = self.tail;
        self.live = [0; 4];
        n
    }
}

/// Where a core's committed ops go: a `Vec` for tests and tools, the
/// [`CommitRing`] when a checker follows the core.
pub trait CommitSink {
    /// Accepts one committed op, in commit order.
    fn commit(&mut self, op: CommittedOp);
}

impl CommitSink for Vec<CommittedOp> {
    #[inline]
    fn commit(&mut self, op: CommittedOp) {
        self.push(op);
    }
}

impl CommitSink for CommitRing {
    #[inline]
    fn commit(&mut self, op: CommittedOp) {
        self.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_workload::MicroOp;

    fn op(seq: u64, kind: OpClass) -> CommittedOp {
        CommittedOp {
            op: MicroOp {
                seq,
                kind,
                ..MicroOp::EMPTY
            },
            ..CommittedOp::EMPTY
        }
    }

    #[test]
    fn side_queue_table_follows_op_classes() {
        for k in OpClass::ALL {
            let want = match k {
                OpClass::Load => LVQ,
                OpClass::Store => STB,
                OpClass::Branch => BOQ,
                _ => 0,
            };
            assert_eq!(SIDE_QUEUE[k as usize], want, "{k:?}");
        }
    }

    #[test]
    fn cursors_split_pipe_and_queue() {
        let mut r = CommitRing::with_capacity(4);
        for (i, k) in [
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::IntAlu,
        ]
        .into_iter()
        .enumerate()
        {
            r.push(op(i as u64, k));
        }
        let o = r.occupancy();
        assert_eq!((o.rvq, o.lvq, o.stb, o.boq), (4, 1, 1, 1));
        r.dispatch(3);
        r.dispatch(3);
        assert_eq!((r.in_pipe(), r.queued()), (2, 2));
        assert_eq!(r.queue().map(|c| c.op.seq).collect::<Vec<_>>(), [2, 3]);
        r.retire_head(OpClass::Load);
        let o = r.occupancy();
        assert_eq!((o.rvq, o.lvq, o.stb, o.boq), (2, 0, 1, 1));
        assert_eq!(
            r.unverified().map(|c| c.op.seq).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn a_full_ring_doubles_in_order() {
        let mut r = CommitRing::with_capacity(2);
        r.push(op(0, OpClass::IntAlu));
        r.dispatch(1);
        r.retire_head(OpClass::IntAlu);
        for i in 1..10 {
            r.push(op(i, OpClass::IntAlu));
        }
        assert!(r.items.len() >= 16);
        assert_eq!(
            r.unverified().map(|c| c.op.seq).collect::<Vec<_>>(),
            (1..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn squash_zeroes_every_count() {
        let mut r = CommitRing::with_capacity(8);
        for i in 0..6 {
            r.push(op(i, OpClass::Store));
        }
        r.dispatch(9);
        assert_eq!(r.squash(), 6);
        assert_eq!(r.occupancy(), QueueOccupancy::default());
        assert!(r.is_empty());
        r.push(op(6, OpClass::Store));
        assert_eq!(r.occupancy().stb, 1);
    }
}
