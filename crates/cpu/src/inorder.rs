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
use crate::ring::CommitRing;
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

/// A completed verification, reported at trailer commit.
///
/// Recovery and TMR voting need the full checked payload only for
/// *failed* checks, so those items are parked in a side buffer on the
/// core ([`InOrderCore::replay_error_items`],
/// [`InOrderCore::pop_error_item`]) instead of riding along here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verification {
    /// Sequence number of the checked instruction.
    pub seq: u64,
    /// The trailer's recomputed result value.
    pub result: u64,
    /// Check result.
    pub outcome: CheckOutcome,
}

impl Verification {
    /// True when an error was detected.
    pub fn is_error(&self) -> bool {
        self.outcome != CheckOutcome::Ok
    }
}

/// Where the checker reports its verifications: a `Vec` keeps every
/// record (tests, TMR voting); a counting sink keeps only what its
/// owner reads.
pub trait CheckSink {
    /// Accepts one verification, in program order.
    fn record(&mut self, v: Verification);
}

impl CheckSink for Vec<Verification> {
    #[inline]
    fn record(&mut self, v: Verification) {
        self.push(v);
    }
}

/// Functional unit per class in both cores, indexed by `OpClass as
/// usize` (`IntAlu, IntMul, FpAlu, FpMul, Load, Store, Branch`): 0 integer
/// ALU (which also serves loads, stores and branches), 1 integer
/// multiplier, 2 FP ALU, 3 FP multiplier.
pub(crate) const UNIT: [usize; 7] = [0, 1, 2, 3, 0, 0, 0];

/// Dispatch-to-verify latency per class: the execute latency, except
/// that a load reads its value from the LVQ in one cycle.
const LATENCY: [u64; 7] = [1, 3, 2, 4, 1, 1, 1];

/// Where a class's result comes from, in the leader's commit and the
/// checker's verification alike; the value indexes `[recomputed,
/// loaded, 0]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultSource {
    /// Recomputed from the operands.
    Compute = 0,
    /// The loaded value (from memory in the leader, the LVQ in the
    /// checker).
    Lvq = 1,
    /// No register result (stores, branches).
    Zero = 2,
}

/// Result source per class, indexed by `OpClass as usize`.
pub(crate) const SOURCE: [ResultSource; 7] = [
    ResultSource::Compute,
    ResultSource::Compute,
    ResultSource::Compute,
    ResultSource::Compute,
    ResultSource::Lvq,
    ResultSource::Zero,
    ResultSource::Zero,
];

/// The in-order checker pipeline.
///
/// Drive it one trailer-clock cycle at a time with
/// [`InOrderCore::step_cycle`] over a [`CommitRing`]: it dispatches
/// from the ring's RVQ into the ring's pipe and verifies the pipe's
/// oldest ops in place, reporting each to a [`CheckSink`] in order. The
/// caller owns the clock-domain crossing (GALS) and the DFS policy —
/// see the `rmt3d-rmt` crate.
#[derive(Debug, Clone)]
pub struct InOrderCore<S: Sink = NullSink> {
    cfg: TrailerConfig,
    cycle: u64,
    /// The architectural register file behind a sink slot: register `i`
    /// lives at `regs[i + 1]` (its [`reg_slot`]), and slot 0 absorbs the
    /// writes of ops with no destination and of failed checks, so the
    /// checker writes without branching. Reads of an absent operand are
    /// masked to 0.
    regs: [u64; 65],
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
        InOrderCore {
            cfg,
            cycle: 0,
            regs: [0; 65],
            error_items: VecDeque::new(),
            activity: ActivityCounters::default(),
            cpi: CpiStack::new(),
            sink,
        }
    }

    /// Current trailer cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated activity counters.
    pub fn activity(&self) -> &ActivityCounters {
        &self.activity
    }

    /// Injects a single-bit flip into the trailer's register file. Used
    /// by the fault-injection harness to model the §3.5 concern: errors
    /// in the checker's own state.
    pub fn flip_regfile_bit(&mut self, reg: u8, bit: u8) {
        self.regs[reg as usize % 64 + 1] ^= 1u64 << (bit % 64);
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
        self.regs[1..]
            .try_into()
            .expect("64 registers follow the sink slot")
    }

    /// Overwrites the architectural register file (TMR repair: an
    /// outvoted checker is restored from the winner's state).
    pub fn restore_regfile(&mut self, rf: &[u64; 64]) {
        self.regs[1..].copy_from_slice(rf);
    }

    /// Replays, architecturally and in verification order, the payload
    /// of every failed check since the last drain, and clears the side
    /// buffer. Recovery does this before replaying the ring.
    pub fn replay_error_items(&mut self) {
        while let Some(item) = self.error_items.pop_front() {
            self.architectural_replay(&item);
        }
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
        let s1 = self.read(reg_slot(op.src1_reg));
        let s2 = self.read(reg_slot(op.src2_reg));
        let result = match op.kind {
            OpClass::Load => crate::ooo::load_memory_value(op.mem_addr),
            OpClass::Store | OpClass::Branch => 0,
            _ => op.compute_result(s1, s2),
        };
        self.regs[reg_slot(op.dest)] = result;
        result
    }

    /// The register at `slot`, or 0 for an absent operand (slot 0).
    #[inline]
    fn read(&self, slot: usize) -> u64 {
        self.regs[slot] & 0u64.wrapping_sub((slot != 0) as u64)
    }

    /// Advances one trailer cycle: verifies up to `verify_ports` oldest
    /// completed ops of the ring's pipe (reporting each to `out`), then
    /// dispatches up to `width` ops from the ring's RVQ.
    ///
    /// Returns the number of instructions verified this cycle.
    pub fn step_cycle(&mut self, ring: &mut CommitRing, out: &mut impl CheckSink) -> u32 {
        let verified = self.do_verify(ring, out);
        self.do_dispatch(ring);
        // Cycle attribution is profiling-only: gated on the sink so the
        // NullSink build stays identical to the uninstrumented core.
        if S::ENABLED {
            self.cpi.add(self.classify_cycle(verified, ring));
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
    fn classify_cycle(&self, verified: u32, ring: &CommitRing) -> CpiComponent {
        if verified > 0 {
            return CpiComponent::BaseIssue;
        }
        if ring.in_pipe() == 0 {
            if ring.queued() == 0 {
                CpiComponent::FetchStarved
            } else {
                CpiComponent::BaseIssue
            }
        } else if ring.in_pipe() >= self.cfg.pipeline_depth as usize {
            CpiComponent::StructFull
        } else {
            CpiComponent::BaseIssue
        }
    }

    fn do_verify(&mut self, ring: &mut CommitRing, out: &mut impl CheckSink) -> u32 {
        let mut n = 0;
        while n < self.cfg.verify_ports && ring.head != ring.next {
            let slot = ring.slot(ring.head);
            if ring.complete[slot] > self.cycle {
                break;
            }
            let item = &ring.items[slot];
            let op = &item.op;
            let k = op.kind as usize;
            let (r1, r2, rd) = (
                reg_slot(op.src1_reg),
                reg_slot(op.src2_reg),
                reg_slot(op.dest),
            );

            // Operand check (RVP only): predicted operands must match the
            // trailer's own architectural state. A missing operand is
            // never compared; its payload still feeds the recomputation.
            let (s1, s2, operands_ok) = if self.cfg.rvp {
                let bad1 = (r1 != 0) & (self.regs[r1] != item.src1_value);
                let bad2 = (r2 != 0) & (self.regs[r2] != item.src2_value);
                (item.src1_value, item.src2_value, !(bad1 | bad2))
            } else {
                (self.read(r1), self.read(r2), true)
            };
            let result = [op.compute_result(s1, s2), item.mem_value, 0][SOURCE[k] as usize];
            let result_ok = (rd == 0) | (result == item.result);
            // An operand mismatch outranks a result mismatch.
            let outcome = match (operands_ok, result_ok) {
                (false, _) => CheckOutcome::OperandMismatch,
                (true, false) => CheckOutcome::ResultMismatch,
                (true, true) => CheckOutcome::Ok,
            };
            let ok = operands_ok & result_ok;
            // A failed check leaves the register file untouched (its
            // result goes to the sink slot): it is the recovery point
            // (paper §2).
            self.regs[if ok { rd } else { 0 }] = result;
            self.activity.regfile_reads += (r1 != 0) as u64 + (r2 != 0) as u64;
            self.activity.regfile_writes += (ok & (rd != 0)) as u64;
            self.activity.committed += ok as u64;
            let (seq, kind) = (op.seq, op.kind);
            if !ok {
                self.error_items.push_back(*item);
                let cycle = self.cycle;
                emit(&mut self.sink, || Event::Counter {
                    name: "checker_mismatch".into(),
                    cycle,
                    value: 1.0,
                });
            }
            ring.retire_head(kind);
            out.record(Verification {
                seq,
                result,
                outcome,
            });
            n += 1;
        }
        n
    }

    fn do_dispatch(&mut self, ring: &mut CommitRing) {
        let cfg = self.cfg;
        let mut free = [cfg.int_alu, cfg.int_mul, cfg.fp_alu, cfg.fp_mul];
        let depth = cfg.pipeline_depth as usize;
        let first = ring.next;
        for _ in 0..cfg.width {
            if ring.next == ring.tail || ring.in_pipe() >= depth {
                break;
            }
            let op = &ring.items[ring.slot(ring.next)].op;
            let k = op.kind as usize;
            // In-order: a structural or data stall blocks younger ops.
            let unit = UNIT[k];
            if free[unit] == 0 {
                break;
            }
            if !cfg.rvp && !self.operands_ready(ring, op) {
                break;
            }
            free[unit] -= 1;
            ring.dispatch(self.cycle + LATENCY[k]);
        }
        // Every dispatched op took one unit, so the units used count the
        // ops per class.
        let dispatched = ring.next - first;
        let a = &mut self.activity;
        a.dispatched += dispatched;
        a.issued += dispatched;
        a.int_alu_ops += u64::from(cfg.int_alu - free[0]);
        a.int_mul_ops += u64::from(cfg.int_mul - free[1]);
        a.fp_alu_ops += u64::from(cfg.fp_alu - free[2]);
        a.fp_mul_ops += u64::from(cfg.fp_mul - free[3]);
    }
    /// True unless a producer of `op` is still executing in the pipe
    /// (the non-RVP checker reads operands from its register file).
    fn operands_ready(&self, ring: &CommitRing, op: &rmt3d_workload::MicroOp) -> bool {
        for dist in [op.src1_dist, op.src2_dist].into_iter().flatten() {
            let producer = op.seq - dist.get() as u64;
            for c in ring.head..ring.next {
                let slot = ring.slot(c);
                if ring.items[slot].op.seq == producer && ring.complete[slot] > self.cycle {
                    return false;
                }
            }
        }
        true
    }
}

/// Index of an optional register in [`InOrderCore`]'s `regs` (and the
/// leader's): the register's index + 1, or slot 0 when absent.
#[inline]
pub(crate) fn reg_slot(r: Option<rmt3d_workload::ArchReg>) -> usize {
    r.map_or(0, |r| r.index() as usize + 1)
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

    fn ring_of(stream: &[CommittedOp]) -> CommitRing {
        let mut ring = CommitRing::with_capacity(stream.len());
        for c in stream {
            ring.push(*c);
        }
        ring
    }

    fn run_trailer(cfg: TrailerConfig, stream: &[CommittedOp]) -> (Vec<Verification>, u64) {
        let mut t = InOrderCore::new(cfg);
        let mut q = ring_of(stream);
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
    fn class_tables_follow_op_classes() {
        for k in OpClass::ALL {
            let unit = match k {
                OpClass::IntMul => 1,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 3,
                _ => 0,
            };
            assert_eq!(UNIT[k as usize], unit, "{k:?}");
            let latency = if k == OpClass::Load {
                1
            } else {
                k.execute_latency() as u64
            };
            assert_eq!(LATENCY[k as usize], latency, "{k:?}");
            let source = match k {
                OpClass::Load => ResultSource::Lvq,
                OpClass::Store | OpClass::Branch => ResultSource::Zero,
                _ => ResultSource::Compute,
            };
            assert!(SOURCE[k as usize] == source, "{k:?}");
        }
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
        let mut q = ring_of(&stream);
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
        let mut q = ring_of(&stream);
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
        let mut q = CommitRing::default();
        let mut out = Vec::new();
        for _ in 0..10 {
            assert_eq!(t.step_cycle(&mut q, &mut out), 0);
        }
        assert!(out.is_empty());
        assert_eq!(q.in_pipe(), 0);
    }
}
