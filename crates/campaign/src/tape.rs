//! The fault-free leader as a tape: a trial replays the leading core's
//! commits instead of simulating it while its inputs are the fault-free
//! run's.
//!
//! A checker-side strike never reaches the leading core (paper §2). It
//! touches the leader only through the commit back-pressure flag and
//! through recovery's register-file restore, so the leader's run is a
//! function of its state and its per-cycle stall flags alone. A
//! [`LeaderTape`] records, for each leader cycle of the fault-free run,
//! the flag the leader saw and the ops it committed. A [`TapeLeader`]
//! stands in for the leader of a forked trial: it replays the tape while
//! each cycle's flag equals the recorded one, and from the first that
//! differs it clones the fault-free leader it forked from, steps it to
//! the current cycle with the tape's flags, and runs it live.

use rmt3d_cpu::{CommitRing, CommittedOp, OooCore};
use rmt3d_rmt::Leader;

/// One leader cycle on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapeCycle {
    /// The commit-stall flag the leader saw.
    stalled: bool,
    /// Ops committed by the end of the cycle: one past its last op in
    /// [`LeaderTape::ops`].
    committed: u32,
}

/// The fault-free run of a leading core from cycle 0: per leader cycle,
/// the commit-stall flag and the ops committed.
#[derive(Debug, Default, Clone)]
pub(crate) struct LeaderTape {
    cycles: Vec<TapeCycle>,
    /// Every committed op in commit order, so op `k` is the `k`-th
    /// committed.
    ops: Vec<CommittedOp>,
}

impl LeaderTape {
    /// Leader cycles recorded.
    pub(crate) fn len(&self) -> u64 {
        self.cycles.len() as u64
    }

    /// The stall flag of leader cycle `c`.
    fn stalled(&self, c: u64) -> bool {
        self.cycles[c as usize].stalled
    }

    /// Ops committed by the end of leader cycle `c`.
    fn committed(&self, c: u64) -> u64 {
        u64::from(self.cycles[c as usize].committed)
    }

    /// Inverts the stall flag of leader cycle `c`.
    #[cfg(test)]
    pub(crate) fn flip_stall(&mut self, c: u64) {
        self.cycles[c as usize].stalled ^= true;
    }
}

/// A leading core that records its run onto a tape.
#[derive(Debug)]
pub(crate) struct Recorder<'a> {
    core: OooCore,
    stalled: bool,
    tape: &'a mut LeaderTape,
}

impl<'a> Recorder<'a> {
    /// Records `core`'s run from cycle 0 onto an empty `tape`.
    pub(crate) fn new(core: OooCore, tape: &'a mut LeaderTape) -> Recorder<'a> {
        assert!(
            core.activity().cycles == 0 && tape.len() == 0,
            "a tape starts at cycle 0"
        );
        Recorder {
            core,
            stalled: false,
            tape,
        }
    }
}

impl Leader for Recorder<'_> {
    fn set_commit_stall(&mut self, stalled: bool) {
        self.stalled = stalled;
        self.core.set_commit_stall(stalled);
    }

    fn step_cycle(&mut self, ring: &mut CommitRing) -> u32 {
        let from = ring.tail();
        let n = self.core.step_cycle(ring);
        self.tape
            .ops
            .extend((from..ring.tail()).map(|c| *ring.get(c)));
        self.tape.cycles.push(TapeCycle {
            stalled: self.stalled,
            committed: u32::try_from(self.tape.ops.len()).expect("runs are capped far below 2^32"),
        });
        n
    }

    fn committed(&self) -> u64 {
        self.core.activity().committed
    }

    fn cycles(&self) -> u64 {
        self.core.activity().cycles
    }

    fn regfile(&self) -> &[u64; 64] {
        self.core.regfile()
    }

    /// Not on the tape: a run that recovers is no tape to replay.
    fn restore_regfile(&mut self, rf: &[u64; 64]) {
        self.core.restore_regfile(rf);
    }
}

/// A trial's leading core: the tape while the trial's stall flags equal
/// the fault-free run's, a live core from the first that differs.
#[derive(Debug)]
pub(crate) struct TapeLeader<'a> {
    tape: &'a LeaderTape,
    /// The fault-free leader at the fork, on the tape's run.
    fork: &'a OooCore,
    cycles: u64,
    committed: u64,
    /// The register file, kept as the core's commit keeps it.
    regfile: [u64; 64],
    stalled: bool,
    /// The live core, once the trial has left the tape.
    live: Option<OooCore>,
}

impl<'a> TapeLeader<'a> {
    /// A leader standing where `fork` stands, replaying `tape`, the run
    /// `fork` lies on.
    pub(crate) fn new(tape: &'a LeaderTape, fork: &'a OooCore) -> TapeLeader<'a> {
        let (cycles, committed) = (fork.activity().cycles, fork.activity().committed);
        debug_assert!(
            cycles == 0 || cycles <= tape.len() && tape.committed(cycles - 1) == committed,
            "the fork lies on the tape"
        );
        TapeLeader {
            tape,
            fork,
            cycles,
            committed,
            regfile: *fork.regfile(),
            stalled: false,
            live: None,
        }
    }

    /// True while the trial has not left the tape.
    pub(crate) fn on_tape(&self) -> bool {
        self.live.is_none()
    }

    /// Leader cycles the tape served that no core stepped: every cycle
    /// since the fork while on the tape, none once it left.
    pub(crate) fn replayed(&self) -> u64 {
        if self.on_tape() {
            self.cycles - self.fork.activity().cycles
        } else {
            0
        }
    }

    /// Leaves the tape: clones the fork and steps it to the current
    /// cycle with the tape's flags, which are the ones this leader saw.
    fn materialize(&mut self) -> &mut OooCore {
        let tape = self.tape;
        let (cycles, committed, regfile) = (self.cycles, self.committed, self.regfile);
        self.live.get_or_insert_with(|| {
            let mut core = self.fork.clone();
            let from = core.activity().committed as usize;
            let mut ops = Vec::new();
            for c in core.activity().cycles..cycles {
                core.set_commit_stall(tape.stalled(c));
                core.step_cycle(&mut ops);
            }
            debug_assert!(
                ops == tape.ops[from..committed as usize]
                    && core.activity().cycles == cycles
                    && core.activity().committed == committed
                    && *core.regfile() == regfile,
                "the core stepped on the tape's flags commits the tape"
            );
            core
        })
    }
}

impl Leader for TapeLeader<'_> {
    fn set_commit_stall(&mut self, stalled: bool) {
        match &mut self.live {
            Some(core) => core.set_commit_stall(stalled),
            None => self.stalled = stalled,
        }
    }

    fn step_cycle(&mut self, ring: &mut CommitRing) -> u32 {
        if let Some(core) = &mut self.live {
            return core.step_cycle(ring);
        }
        let c = self.cycles;
        if c >= self.tape.len() || self.tape.stalled(c) != self.stalled {
            let stalled = self.stalled;
            let core = self.materialize();
            core.set_commit_stall(stalled);
            return core.step_cycle(ring);
        }
        let to = self.tape.committed(c);
        for op in &self.tape.ops[self.committed as usize..to as usize] {
            if let Some(d) = op.op.dest {
                self.regfile[d.index() as usize] = op.result;
            }
            ring.push(*op);
        }
        let n = (to - self.committed) as u32;
        self.committed = to;
        self.cycles += 1;
        n
    }

    fn committed(&self) -> u64 {
        self.live
            .as_ref()
            .map_or(self.committed, |core| core.activity().committed)
    }

    fn cycles(&self) -> u64 {
        self.live
            .as_ref()
            .map_or(self.cycles, |core| core.activity().cycles)
    }

    fn regfile(&self) -> &[u64; 64] {
        self.live.as_ref().map_or(&self.regfile, OooCore::regfile)
    }

    /// A restore to the register file the leader already holds changes
    /// nothing; any other leaves the tape first.
    fn restore_regfile(&mut self, rf: &[u64; 64]) {
        if self.live.is_some() || *rf != self.regfile {
            self.materialize().restore_regfile(rf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::prefilled_system;
    use crate::DEFAULT_BENCHMARKS;
    use rmt3d_workload::{Benchmark, Trace};

    /// The prefilled cycle-0 leader of `benchmark` and its fault-free
    /// run to `instructions` committed, taped as a warm start tapes it.
    fn taped(benchmark: Benchmark, instructions: u64) -> (OooCore, LeaderTape) {
        let start = prefilled_system(Trace::new(benchmark.profile(), 0));
        let mut tape = LeaderTape::default();
        let mut sys = start.fork_with(Recorder::new(start.leader().clone(), &mut tape));
        sys.run_instructions(instructions);
        drop(sys);
        (start.leader().clone(), tape)
    }

    /// The premise of the tape: the leader's run is a function of its
    /// state and its stall flags alone. A core stepped on its own with
    /// the tape's flags commits the tape's ops, cycle for cycle, and a
    /// tape leader replaying the whole tape ends with its register file.
    #[test]
    fn a_core_stepped_alone_on_the_tape_flags_reproduces_the_tape() {
        for b in DEFAULT_BENCHMARKS {
            let (start, tape) = taped(b, 8_000);
            let mut core = start.clone();
            let mut ops = Vec::new();
            for c in 0..tape.len() {
                core.set_commit_stall(tape.stalled(c));
                core.step_cycle(&mut ops);
                assert_eq!(core.activity().committed, tape.committed(c), "{b:?}");
            }
            assert_eq!(ops, tape.ops, "{b:?}");
            assert_eq!(core.activity().cycles, tape.len(), "{b:?}");

            let mut leader = TapeLeader::new(&tape, &start);
            let mut ring = CommitRing::default();
            for c in 0..tape.len() {
                leader.set_commit_stall(tape.stalled(c));
                leader.step_cycle(&mut ring);
            }
            assert!(leader.on_tape(), "{b:?}");
            assert_eq!(leader.replayed(), tape.len(), "{b:?}");
            assert_eq!(Leader::regfile(&leader), core.regfile(), "{b:?}");
            assert_eq!(Leader::committed(&leader), core.activity().committed);
        }
    }

    /// A restore to the register file the leader holds keeps it on the
    /// tape; any other takes it off, into a core holding the restored
    /// file, which then steps live.
    #[test]
    fn only_a_restore_that_changes_the_register_file_leaves_the_tape() {
        let (start, tape) = taped(Benchmark::Gzip, 2_000);
        let mut core = start.clone();
        let mut ring = CommitRing::default();
        for c in 0..500 {
            core.set_commit_stall(tape.stalled(c));
            core.step_cycle(&mut ring);
        }
        let mut leader = TapeLeader::new(&tape, &core);
        let mut ring = CommitRing::default();
        leader.set_commit_stall(tape.stalled(500));
        leader.step_cycle(&mut ring);
        let rf = *Leader::regfile(&leader);
        leader.restore_regfile(&rf);
        assert!(leader.on_tape());
        let mut corrupt = rf;
        corrupt[7] ^= 1 << 60;
        leader.restore_regfile(&corrupt);
        assert!(!leader.on_tape());
        assert_eq!(Leader::regfile(&leader), &corrupt);
        assert_eq!(Leader::cycles(&leader), 501);
        leader.set_commit_stall(tape.stalled(501));
        leader.step_cycle(&mut ring);
        assert_eq!(Leader::cycles(&leader), 502);
    }
}
