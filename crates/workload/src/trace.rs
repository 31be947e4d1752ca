//! Materialized micro-op streams, shared between simulations.

use crate::generator::TraceGenerator;
use crate::op::MicroOp;
use crate::profile::WorkloadProfile;
use std::fmt;
use std::sync::Arc;

/// What every clone of a [`Trace`] shares: the first ops of the stream
/// and the generator state after the last of them.
struct Shared {
    ops: Box<[MicroOp]>,
    tail: TraceGenerator,
}

/// A cursor over a profile's micro-op stream whose first ops are
/// generated once and shared.
///
/// [`Trace::new`] runs a [`TraceGenerator`] for `len` ops and keeps
/// them, with the generator's state after the last one, behind an
/// [`Arc`]. A trace value is that `Arc`, a position, and a private
/// tail generator, cloned from the shared one the first time the
/// cursor runs past the end. The stream is therefore the generator's
/// at any length, whatever `len` was: `len` only decides how much of it
/// is paid for once instead of per cursor. Cloning a trace that has not
/// run past its end is an `Arc` bump.
///
/// A trace of length 0 is a plain generator, and a generator converts
/// into one ([`From`]), so simulators take a `Trace` and every caller
/// that holds a generator still works.
///
/// # Examples
///
/// ```
/// use rmt3d_workload::{Benchmark, Trace, TraceGenerator};
///
/// let shared = Trace::new(Benchmark::Mcf.profile(), 100);
/// let mut cursor = shared.clone();
/// let mut gen = TraceGenerator::new(Benchmark::Mcf.profile());
/// // The same ops inside the shared prefix and past its end.
/// for _ in 0..250 {
///     assert_eq!(cursor.next_op(), gen.next_op());
/// }
/// ```
#[derive(Clone)]
pub struct Trace {
    shared: Arc<Shared>,
    pos: usize,
    /// The stream past the shared ops; `None` until the cursor gets
    /// there.
    tail: Option<TraceGenerator>,
}

impl Trace {
    /// Generates the first `len` ops of `profile`'s stream, to be
    /// shared by every clone of the returned cursor (positioned at the
    /// first op).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`], as
    /// [`TraceGenerator::new`] does.
    pub fn new(profile: WorkloadProfile, len: usize) -> Trace {
        let mut gen = TraceGenerator::new(profile);
        let ops = gen.take_ops(len).into_boxed_slice();
        Trace {
            shared: Arc::new(Shared { ops, tail: gen }),
            pos: 0,
            tail: None,
        }
    }

    /// The next op in program order.
    #[inline]
    pub fn next_op(&mut self) -> MicroOp {
        if let Some(&op) = self.shared.ops.get(self.pos) {
            self.pos += 1;
            return op;
        }
        let shared = &self.shared;
        self.tail
            .get_or_insert_with(|| shared.tail.clone())
            .next_op()
    }

    /// The profile the stream is drawn from.
    pub fn profile(&self) -> &WorkloadProfile {
        self.shared.tail.profile()
    }
}

impl From<TraceGenerator> for Trace {
    /// A trace of length 0 that continues `gen`'s stream.
    fn from(gen: TraceGenerator) -> Trace {
        Trace {
            shared: Arc::new(Shared {
                ops: Box::new([]),
                tail: gen,
            }),
            pos: 0,
            tail: None,
        }
    }
}

impl fmt::Debug for Trace {
    /// The shared ops are summarized, not listed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("profile", &self.profile().name)
            .field("shared_ops", &self.shared.ops.len())
            .field("pos", &self.pos)
            .field("tail", &self.tail.as_ref().map(TraceGenerator::generated))
            .finish()
    }
}
