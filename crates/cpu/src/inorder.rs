//! In-order trailing (checker) core (paper §2.1).
//!
//! The trailer re-executes the leader's committed instruction stream with
//! perfect branch prediction (BOQ), no D-cache accesses (LVQ) and —
//! optionally — register value prediction (RVP): operands are read from
//! the RVQ instead of the register file, removing every data-dependence
//! stall so ILP is bounded only by fetch bandwidth and functional units.
//! Each instruction is *verified* before it commits: the recomputed
//! result is compared against the leader's, and with RVP the predicted
//! operands are compared against the trailer's own register file.

use crate::activity::ActivityCounters;
use crate::commit::CommittedOp;
use crate::config::TrailerConfig;
use rmt3d_telemetry::{emit, CpiComponent, CpiStack, Event, NullSink, Sink};
use rmt3d_workload::OpClass;
use std::collections::VecDeque;

/// Outcome of verifying one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Values agree.
    Ok,
    /// The recomputed result differs from the leader's result — a fault
    /// in either core's datapath or in the RVQ payload.
    ResultMismatch,
    /// An RVP operand disagrees with the trailer's register file — a
    /// fault upstream of this instruction.
    OperandMismatch,
}

/// A completed verification, emitted at trailer commit.
///
/// The record is deliberately small (it is copied once per verified
/// instruction on the hot path): recovery and TMR voting need the full
/// checked payload only for *failed* checks, so those items are parked
/// in a side buffer on the core ([`InOrderCore::drain_error_items_into`],
/// [`InOrderCore::pop_error_item`]) instead of riding along here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verification {
    /// Sequence number of the checked instruction.
    pub seq: u64,
    /// The trailer's recomputed result value.
    pub result: u64,
    /// Kind of the checked instruction (for queue-slot accounting).
    pub kind: OpClass,
    /// Check result.
    pub outcome: CheckOutcome,
}

impl Verification {
    /// True when an error was detected.
    pub fn is_error(&self) -> bool {
        self.outcome != CheckOutcome::Ok
    }
}

/// The in-order checker pipeline.
///
/// Drive it one trailer-clock cycle at a time with [`InOrderCore::step_cycle`],
/// feeding instructions from the RVQ; verified instructions come back in
/// order. The caller owns the clock-domain crossing (GALS) and the DFS
/// policy — see the `rmt3d-rmt` crate.
///
/// Pipeline state is struct-of-arrays: payloads and completion cycles
/// live in parallel rings indexed by two monotone cursors
/// (`pipe_head..pipe_tail` is the occupied window, oldest first). The
/// ring capacity is the configured pipeline depth rounded up to a power
/// of two, so slot indexing is a mask instead of a modulo.
#[derive(Debug, Clone)]
pub struct InOrderCore<S: Sink = NullSink> {
    cfg: TrailerConfig,
    cycle: u64,
    regfile: [u64; 64],
    pipe_items: Box<[CommittedOp]>,
    pipe_complete: Box<[u64]>,
    pipe_mask: u64,
    pipe_head: u64,
    pipe_tail: u64,
    /// Payloads of failed checks, in verification order; drained by
    /// recovery (replay) and TMR voting (repair). Empty on the fault-free
    /// fast path.
    error_items: VecDeque<CommittedOp>,
    activity: ActivityCounters,
    cpi: CpiStack,
    sink: S,
}

impl InOrderCore {
    /// Creates an idle checker core with telemetry disabled
    /// ([`NullSink`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: TrailerConfig) -> InOrderCore {
        InOrderCore::with_sink(cfg, NullSink)
    }
}

impl<S: Sink> InOrderCore<S> {
    /// Creates an idle checker core that reports each detected mismatch
    /// to `sink` (as an [`Event::Counter`] named `checker_mismatch`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn with_sink(cfg: TrailerConfig, sink: S) -> InOrderCore<S> {
        cfg.validate().expect("invalid trailer configuration");
        let cap = (cfg.pipeline_depth as usize).next_power_of_two();
        InOrderCore {
            cfg,
            cycle: 0,
            regfile: [0; 64],
            pipe_items: vec![CommittedOp::EMPTY; cap].into_boxed_slice(),
            pipe_complete: vec![0; cap].into_boxed_slice(),
            pipe_mask: cap as u64 - 1,
            pipe_head: 0,
            pipe_tail: 0,
            error_items: VecDeque::new(),
            activity: ActivityCounters::default(),
            cpi: CpiStack::new(),
            sink,
        }
    }

    #[inline]
    fn pipe_len(&self) -> usize {
        (self.pipe_tail - self.pipe_head) as usize
    }

    /// Current trailer cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated activity counters.
    pub fn activity(&self) -> &ActivityCounters {
        &self.activity
    }

    /// Instructions currently in the trailer pipeline (dispatched but not
    /// yet verified).
    pub fn in_flight(&self) -> usize {
        self.pipe_len()
    }

    /// Injects a single-bit flip into the trailer's register file. Used
    /// by the fault-injection harness to model the §3.5 concern: errors
    /// in the checker's own state.
    pub fn flip_regfile_bit(&mut self, reg: u8, bit: u8) {
        self.regfile[reg as usize % 64] ^= 1u64 << (bit % 64);
    }

    /// CPI stack over trailer-clock ticks. Only populated when the sink
    /// is enabled; when populated, the components sum exactly to
    /// [`ActivityCounters::cycles`].
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.cpi
    }

    /// Resets statistics, keeping architectural state.
    pub fn reset_stats(&mut self) {
        self.activity = ActivityCounters::default();
        self.cpi = CpiStack::new();
    }

    /// Read-only view of the trailer's architectural register file — the
    /// system's recovery point (§2: "the register file state of the
    /// trailing thread is used to initiate recovery").
    pub fn regfile(&self) -> &[u64; 64] {
        &self.regfile
    }

    /// Overwrites the architectural register file (TMR repair: an
    /// outvoted checker is restored from the winner's state).
    pub fn restore_regfile(&mut self, rf: &[u64; 64]) {
        self.regfile = *rf;
    }

    /// Appends the payloads of every failed check since the last drain
    /// (in verification order) to `out` and clears the side buffer.
    /// Recovery replays these before the still-queued backlog.
    pub fn drain_error_items_into(&mut self, out: &mut Vec<CommittedOp>) {
        out.extend(self.error_items.drain(..));
    }

    /// Removes and returns the payload of the oldest undrained failed
    /// check. TMR voting consumes one per non-Ok verification, keeping
    /// the buffer in lockstep with the verification stream.
    ///
    /// # Panics
    ///
    /// Panics if no failed-check payload is buffered.
    pub fn pop_error_item(&mut self) -> CommittedOp {
        self.error_items
            .pop_front()
            .expect("a non-Ok verification parks its payload")
    }

    /// Re-executes one instruction architecturally from the trailer's
    /// own register state (ignoring the possibly-corrupt queue payload)
    /// and retires it. This is the recovery path: it produces the value
    /// a full re-execution from the trailer's checkpoint would produce.
    /// Returns the recomputed result.
    pub fn architectural_replay(&mut self, item: &CommittedOp) -> u64 {
        let op = item.op;
        let s1 = op.src1_reg.map_or(0, |r| self.regfile[r.index() as usize]);
        let s2 = op.src2_reg.map_or(0, |r| self.regfile[r.index() as usize]);
        let result = match op.kind {
            OpClass::Load => crate::ooo::load_memory_value(op.mem_addr),
            OpClass::Store | OpClass::Branch => 0,
            _ => op.compute_result(s1, s2),
        };
        if let Some(d) = op.dest {
            self.regfile[d.index() as usize] = result;
        }
        result
    }

    /// Empties the execution pipeline, returning the in-flight payloads
    /// oldest-first (recovery squash: the caller replays them).
    pub fn drain_pipe(&mut self) -> Vec<CommittedOp> {
        let mut out = Vec::with_capacity(self.pipe_len());
        self.drain_pipe_into(&mut out);
        out
    }

    /// Like [`drain_pipe`](Self::drain_pipe) but appends into a
    /// caller-owned buffer, so recovery paths can reuse scratch storage
    /// instead of allocating per flush.
    pub fn drain_pipe_into(&mut self, out: &mut Vec<CommittedOp>) {
        while self.pipe_head != self.pipe_tail {
            out.push(self.pipe_items[(self.pipe_head & self.pipe_mask) as usize]);
            self.pipe_head += 1;
        }
    }

    /// Advances one trailer cycle: verifies up to `verify_ports` oldest
    /// completed instructions (appending results to `out`), then
    /// dispatches up to `width` new instructions from `input`.
    ///
    /// Returns the number of instructions verified this cycle.
    pub fn step_cycle(
        &mut self,
        input: &mut VecDeque<CommittedOp>,
        out: &mut Vec<Verification>,
    ) -> u32 {
        let verified = self.do_verify(out);
        self.do_dispatch(input);
        // Cycle attribution is profiling-only: gated on the sink so the
        // NullSink build stays identical to the uninstrumented core.
        if S::ENABLED {
            self.cpi.add(self.classify_cycle(verified, input));
        }
        self.cycle += 1;
        self.activity.cycles += 1;
        if S::ENABLED {
            debug_assert_eq!(
                self.cpi.total(),
                self.activity.cycles,
                "CPI stack must sum to total cycles"
            );
        }
        verified
    }

    /// Attributes the trailer tick that just executed to one stall
    /// class. The trailer never misses in a cache (LVQ/BOQ) so its
    /// taxonomy is small: verifying is progress, an empty pipe with an
    /// empty RVQ is fetch starvation, a full pipe is a structural
    /// stall, and everything else is execute/dependence latency.
    fn classify_cycle(&self, verified: u32, input: &VecDeque<CommittedOp>) -> CpiComponent {
        if verified > 0 {
            return CpiComponent::BaseIssue;
        }
        if self.pipe_head == self.pipe_tail {
            if input.is_empty() {
                CpiComponent::FetchStarved
            } else {
                CpiComponent::BaseIssue
            }
        } else if self.pipe_len() >= self.cfg.pipeline_depth as usize {
            CpiComponent::StructFull
        } else {
            CpiComponent::BaseIssue
        }
    }

    fn do_verify(&mut self, out: &mut Vec<Verification>) -> u32 {
        let mut n = 0;
        while n < self.cfg.verify_ports {
            if self.pipe_head == self.pipe_tail {
                break;
            }
            let slot = (self.pipe_head & self.pipe_mask) as usize;
            if self.pipe_complete[slot] > self.cycle {
                break;
            }
            let item = self.pipe_items[slot];
            self.pipe_head += 1;
            let op = item.op;

            // Operand check (RVP only): predicted operands must match the
            // trailer's own architectural state.
            let mut outcome = CheckOutcome::Ok;
            if self.cfg.rvp {
                let s1_ok = op
                    .src1_reg
                    .is_none_or(|r| self.regfile[r.index() as usize] == item.src1_value);
                let s2_ok = op
                    .src2_reg
                    .is_none_or(|r| self.regfile[r.index() as usize] == item.src2_value);
                if !(s1_ok && s2_ok) {
                    outcome = CheckOutcome::OperandMismatch;
                }
            }

            // Recompute the result from the trailer's view of the
            // operands.
            let (s1, s2) = if self.cfg.rvp {
                (item.src1_value, item.src2_value)
            } else {
                (
                    op.src1_reg.map_or(0, |r| self.regfile[r.index() as usize]),
                    op.src2_reg.map_or(0, |r| self.regfile[r.index() as usize]),
                )
            };
            let result = match op.kind {
                OpClass::Load => item.mem_value, // from the LVQ
                OpClass::Store | OpClass::Branch => 0,
                _ => op.compute_result(s1, s2),
            };
            if outcome == CheckOutcome::Ok && op.dest.is_some() && result != item.result {
                outcome = CheckOutcome::ResultMismatch;
            }

            if outcome == CheckOutcome::Ok {
                if let Some(d) = op.dest {
                    self.regfile[d.index() as usize] = result;
                    self.activity.regfile_writes += 1;
                }
                self.activity.committed += 1;
            }
            // On a mismatch the trailer register file is left untouched:
            // it is the recovery point (paper §2).
            self.activity.regfile_reads +=
                op.src1_reg.is_some() as u64 + op.src2_reg.is_some() as u64;
            if outcome != CheckOutcome::Ok {
                let cycle = self.cycle;
                emit(&mut self.sink, || Event::Counter {
                    name: "checker_mismatch".into(),
                    cycle,
                    value: 1.0,
                });
                self.error_items.push_back(item);
            }
            out.push(Verification {
                seq: op.seq,
                result,
                kind: op.kind,
                outcome,
            });
            n += 1;
        }
        n
    }

    fn do_dispatch(&mut self, input: &mut VecDeque<CommittedOp>) {
        let mut int_alu = self.cfg.int_alu;
        let mut int_mul = self.cfg.int_mul;
        let mut fp_alu = self.cfg.fp_alu;
        let mut fp_mul = self.cfg.fp_mul;
        for _ in 0..self.cfg.width {
            if self.pipe_len() >= self.cfg.pipeline_depth as usize {
                break;
            }
            let Some(front) = input.front() else { break };
            let op = front.op;
            // In-order: a structural or data stall blocks younger ops.
            let unit = match op.kind {
                OpClass::IntAlu | OpClass::Load | OpClass::Store | OpClass::Branch => &mut int_alu,
                OpClass::IntMul => &mut int_mul,
                OpClass::FpAlu => &mut fp_alu,
                OpClass::FpMul => &mut fp_mul,
            };
            if *unit == 0 {
                break;
            }
            if !self.cfg.rvp && !self.operands_ready(&op) {
                break;
            }
            *unit -= 1;
            let item = input.pop_front().expect("front exists");
            let lat = match item.op.kind {
                OpClass::Load => 1, // LVQ read: no cache access
                k => k.execute_latency() as u64,
            };
            let complete = self.cycle + lat;
            let slot = (self.pipe_tail & self.pipe_mask) as usize;
            self.pipe_items[slot] = item;
            self.pipe_complete[slot] = complete;
            self.pipe_tail += 1;
            self.activity.dispatched += 1;
            self.activity.issued += 1;
            match op.kind {
                OpClass::IntMul => self.activity.int_mul_ops += 1,
                OpClass::FpAlu => self.activity.fp_alu_ops += 1,
                OpClass::FpMul => self.activity.fp_mul_ops += 1,
                _ => self.activity.int_alu_ops += 1,
            }
        }
    }

    fn operands_ready(&self, op: &rmt3d_workload::MicroOp) -> bool {
        for dist in [op.src1_dist, op.src2_dist].into_iter().flatten() {
            let producer = op.seq - dist.get() as u64;
            // If the producer is still in the pipe and not complete, stall.
            let mut i = self.pipe_head;
            while i != self.pipe_tail {
                let slot = (i & self.pipe_mask) as usize;
                if self.pipe_items[slot].op.seq == producer && self.pipe_complete[slot] > self.cycle
                {
                    return false;
                }
                i += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::ooo::OooCore;
    use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
    use rmt3d_workload::{Benchmark, TraceGenerator};

    /// Produces a committed stream from a real leading core.
    fn committed_stream(n: usize) -> Vec<CommittedOp> {
        committed_stream_of(Benchmark::Gzip, n)
    }

    fn committed_stream_of(b: Benchmark, n: usize) -> Vec<CommittedOp> {
        let mut c = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut out = Vec::new();
        while out.len() < n {
            c.step_cycle(&mut out);
        }
        out.truncate(n);
        out
    }

    fn run_trailer(cfg: TrailerConfig, stream: &[CommittedOp]) -> (Vec<Verification>, u64) {
        let mut t = InOrderCore::new(cfg);
        let mut q: VecDeque<CommittedOp> = stream.iter().copied().collect();
        let mut out = Vec::new();
        while out.len() < stream.len() {
            t.step_cycle(&mut q, &mut out);
            assert!(
                t.cycle() < 10 * stream.len() as u64 + 1000,
                "trailer wedged"
            );
        }
        (out, t.cycle())
    }

    #[test]
    fn fault_free_stream_verifies_clean() {
        let stream = committed_stream(5000);
        let (ver, _) = run_trailer(TrailerConfig::checker(), &stream);
        assert_eq!(ver.len(), 5000);
        assert!(ver.iter().all(|v| v.outcome == CheckOutcome::Ok));
        // In-order verification.
        for w in ver.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn rvp_gives_higher_throughput_than_no_rvp() {
        // mcf's short dependence chains stall an in-order pipeline that
        // must wait for real operands; RVP removes those stalls.
        let stream = committed_stream_of(Benchmark::Mcf, 8000);
        let (_, cyc_rvp) = run_trailer(TrailerConfig::checker(), &stream);
        let (_, cyc_plain) = run_trailer(TrailerConfig::checker_no_rvp(), &stream);
        assert!(
            cyc_rvp < cyc_plain,
            "RVP {cyc_rvp} cycles should beat non-RVP {cyc_plain}"
        );
        // The paper's point: with RVP the checker sustains high ILP.
        let ipc = 8000.0 / cyc_rvp as f64;
        assert!(ipc > 1.8, "checker IPC with RVP {ipc}");
    }

    #[test]
    fn corrupted_result_is_detected_exactly_once_at_that_op() {
        let mut stream = committed_stream(2000);
        // Flip a result bit in transit (datapath/RVQ fault) on an op
        // that writes a register (stores/branches carry no result).
        let victim = (1000..)
            .find(|&i| stream[i].op.dest.is_some())
            .expect("register-writing op exists");
        stream[victim].result ^= 1 << 17;
        let (ver, _) = run_trailer(TrailerConfig::checker(), &stream);
        assert_eq!(ver[victim].outcome, CheckOutcome::ResultMismatch);
        let errors = ver.iter().filter(|v| v.is_error()).count();
        // The corrupted value never enters the trailer regfile, so later
        // operand checks may flag descendants that consumed the bad value
        // from the leader's RVQ payload.
        assert!(errors >= 1);
        assert_eq!(
            ver[..victim].iter().filter(|v| v.is_error()).count(),
            0,
            "no false positives before the fault"
        );
    }

    #[test]
    fn corrupted_operand_payload_is_detected() {
        let mut stream = committed_stream(2000);
        let mut victim = None;
        for (i, c) in stream.iter_mut().enumerate().skip(500) {
            if c.op.src1_reg.is_some() && c.op.kind == OpClass::IntAlu {
                c.src1_value ^= 1 << 3;
                victim = Some(i);
                break;
            }
        }
        let victim = victim.expect("stream contains int alu ops with sources");
        let (ver, _) = run_trailer(TrailerConfig::checker(), &stream);
        assert!(
            ver[victim].is_error(),
            "operand corruption must be flagged at op {victim}: {:?}",
            ver[victim]
        );
    }

    #[test]
    fn trailer_regfile_fault_is_detected_on_next_use() {
        let stream = committed_stream(3000);
        let mut t = InOrderCore::new(TrailerConfig::checker());
        let mut q: VecDeque<CommittedOp> = stream.iter().copied().collect();
        let mut out = Vec::new();
        // Let it run a while, then corrupt trailer state.
        for _ in 0..200 {
            t.step_cycle(&mut q, &mut out);
        }
        assert!(out.iter().all(|v| !v.is_error()));
        // A burst of upsets across the integer register file: corruption
        // only survives until the register is next written, so flipping
        // many registers guarantees at least one is read while corrupt.
        for r in 1..31 {
            t.flip_regfile_bit(r, 11);
        }
        while !q.is_empty() {
            t.step_cycle(&mut q, &mut out);
        }
        assert!(
            out.iter()
                .any(|v| v.outcome == CheckOutcome::OperandMismatch),
            "a corrupted trailer register must eventually fail an RVP \
             operand check"
        );
    }

    #[test]
    fn verify_ports_bound_throughput() {
        let stream = committed_stream(6000);
        let mut fast = TrailerConfig::checker();
        fast.verify_ports = 4;
        let mut slow = TrailerConfig::checker();
        slow.verify_ports = 1;
        let (_, cyc_fast) = run_trailer(fast, &stream);
        let (_, cyc_slow) = run_trailer(slow, &stream);
        assert!(cyc_slow >= 6000, "1 port caps IPC at 1");
        assert!(cyc_fast < cyc_slow);
    }

    #[test]
    fn cpi_stack_sums_to_cycles_under_enabled_sink() {
        let stream = committed_stream(4000);
        let mut t = InOrderCore::with_sink(
            TrailerConfig::checker(),
            rmt3d_telemetry::RecordingSink::new(),
        );
        let mut q: VecDeque<CommittedOp> = stream.iter().copied().collect();
        let mut out = Vec::new();
        while out.len() < stream.len() {
            t.step_cycle(&mut q, &mut out);
        }
        // Run on empty input to exercise the fetch-starved class.
        for _ in 0..10 {
            t.step_cycle(&mut q, &mut out);
        }
        assert_eq!(t.cpi_stack().total(), t.activity().cycles);
        assert!(t.cpi_stack().get(CpiComponent::BaseIssue) > 0);
        assert!(t.cpi_stack().get(CpiComponent::FetchStarved) >= 10);
    }

    #[test]
    fn cpi_stack_stays_zero_under_null_sink() {
        let stream = committed_stream(1000);
        let (_, _) = run_trailer(TrailerConfig::checker(), &stream);
        let t = InOrderCore::new(TrailerConfig::checker());
        assert!(t.cpi_stack().is_empty());
    }

    #[test]
    fn empty_input_idles() {
        let mut t = InOrderCore::new(TrailerConfig::checker());
        let mut q = VecDeque::new();
        let mut out = Vec::new();
        for _ in 0..10 {
            assert_eq!(t.step_cycle(&mut q, &mut out), 0);
        }
        assert!(out.is_empty());
        assert_eq!(t.in_flight(), 0);
    }
}
