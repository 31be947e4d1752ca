//! Cycle-level out-of-order leading core (paper Table 1 configuration).
//!
//! Trace-driven: micro-ops stream in from a [`Trace`] and flow
//! through fetch → dispatch → issue → execute → commit, constrained by
//! the ROB, issue queues, LSQ, functional units, the branch predictor and
//! the cache hierarchy. Branch mispredictions block fetch until the
//! branch resolves (the standard trace-driven redirect model: wrong-path
//! work is not simulated, its delay is).

use crate::activity::ActivityCounters;
use crate::bpred::CombinedPredictor;
use crate::commit::CommittedOp;
use crate::config::CoreConfig;
use crate::ring::CommitSink;
use rmt3d_cache::CacheHierarchy;
use rmt3d_telemetry::{emit, CpiComponent, CpiStack, Event, NullSink, Sink};
use rmt3d_workload::{MicroOp, OpClass, Trace};

/// Completion-time ring capacity. Must exceed `rob_size + ifq_size +
/// max dependence distance (63)`; validated in [`OooCore::new`].
const RING: usize = 256;
/// Sentinel: result not yet available.
const PENDING: u64 = u64::MAX;

/// Bound on the ops the leader holds fetched but not yet committed: the
/// ROB plus the fetch queue, which [`OooCore::new`] keeps below the op
/// ring by more than a commit group. A [`Trace`] that covers a run's
/// commits plus this many ops is never read past its end.
pub const FETCH_RUN_AHEAD: u64 = RING as u64;

/// Per-cycle functional-unit issue budget.
#[derive(Debug, Clone, Copy)]
struct FuBudget {
    int_alu: u32,
    int_mul: u32,
    fp_alu: u32,
    fp_mul: u32,
    total: u32,
}

impl FuBudget {
    fn new(cfg: &CoreConfig) -> FuBudget {
        FuBudget {
            int_alu: cfg.int_alu,
            int_mul: cfg.int_mul,
            fp_alu: cfg.fp_alu,
            fp_mul: cfg.fp_mul,
            total: cfg.dispatch_width, // global issue width
        }
    }

    /// Tries to reserve a unit for `kind`; returns false when exhausted.
    fn take(&mut self, kind: OpClass) -> bool {
        if self.total == 0 {
            return false;
        }
        let slot = match kind {
            // Loads, stores and branches use an integer ALU for address
            // generation / condition evaluation.
            OpClass::IntAlu | OpClass::Load | OpClass::Store | OpClass::Branch => &mut self.int_alu,
            OpClass::IntMul => &mut self.int_mul,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::FpMul => &mut self.fp_mul,
        };
        if *slot == 0 {
            false
        } else {
            *slot -= 1;
            self.total -= 1;
            true
        }
    }
}

/// A dispatched-but-unissued op in the select window.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    seq: u64,
    kind: OpClass,
    /// Cycle at which every operand is available: the max of the
    /// producers' `complete_at`. `PENDING` while `blocker` is unissued.
    ready_at: u64,
    /// An unissued producer; only meaningful while `ready_at` is
    /// `PENDING`.
    blocker: u64,
}

/// The out-of-order leading core.
///
/// # Examples
///
/// ```
/// use rmt3d_cpu::{CoreConfig, OooCore};
/// use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
/// use rmt3d_workload::{Benchmark, TraceGenerator};
///
/// let mut core = OooCore::new(
///     CoreConfig::leading_ev7_like(),
///     TraceGenerator::new(Benchmark::Gzip.profile()),
///     CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
/// );
/// let mut out = Vec::new();
/// for _ in 0..1000 {
///     core.step_cycle(&mut out);
/// }
/// assert!(core.activity().committed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct OooCore<S: Sink = NullSink> {
    cfg: CoreConfig,
    trace: Trace,
    caches: CacheHierarchy,
    bpred: CombinedPredictor,
    cycle: u64,
    /// Fetch stalled until this cycle (I-cache miss).
    fetch_blocked_until: u64,
    /// Sequence number of an unresolved mispredicted branch.
    redirect_seq: Option<u64>,
    /// Struct-of-arrays pipeline state: op payloads live in one ring
    /// indexed by `seq % RING`, written once at fetch and read in place
    /// until commit. Three monotone sequence cursors partition the ring:
    /// the ROB is `commit_head..dispatch_head`, the fetch queue is
    /// `dispatch_head..fetch_tail`.
    ops: Box<[MicroOp; RING]>,
    commit_head: u64,
    dispatch_head: u64,
    fetch_tail: u64,
    /// Dispatched-but-unissued ops in program order: the issue stage's
    /// select window. Each entry caches its operand-ready cycle, so a
    /// scan tests one field per waiting op; entries leave on issue.
    unissued: Vec<Waiting>,
    /// Earliest cycle at which any waiting op can issue; `do_issue`
    /// skips its scan before then. Set by each scan, lowered by
    /// dispatch.
    issue_wake: u64,
    iq_int: u32,
    iq_fp: u32,
    lsq: u32,
    /// Completion cycle per ring slot; `PENDING` from fetch until issue,
    /// so `complete_at[slot] != PENDING` doubles as the issued flag.
    complete_at: Box<[u64; RING]>,
    regfile: [u64; 64],
    commit_stalled: bool,
    activity: ActivityCounters,
    cpi: CpiStack,
    last_fetch_line: u64,
    sink: S,
}

impl OooCore {
    /// Creates a core over a trace (or a generator, a trace of length
    /// 0) and cache hierarchy, with telemetry disabled ([`NullSink`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (the dependence ring
    /// requires `rob + ifq + 63 < 256`).
    pub fn new(cfg: CoreConfig, trace: impl Into<Trace>, caches: CacheHierarchy) -> OooCore {
        OooCore::with_sink(cfg, trace, caches, NullSink)
    }
}

impl<S: Sink> OooCore<S> {
    /// Creates a core that reports telemetry events to `sink` (commit
    /// back-pressure transitions, as [`Event::Counter`] samples).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (the dependence ring
    /// requires `rob + ifq + 63 < 256`).
    pub fn with_sink(
        cfg: CoreConfig,
        trace: impl Into<Trace>,
        caches: CacheHierarchy,
        sink: S,
    ) -> OooCore<S> {
        cfg.validate().expect("invalid core configuration");
        assert!(
            (cfg.rob_size + cfg.ifq_size + 63) < RING as u32,
            "dependence ring too small for this window"
        );
        OooCore {
            cfg,
            trace: trace.into(),
            caches,
            bpred: CombinedPredictor::table1(),
            cycle: 0,
            fetch_blocked_until: 0,
            redirect_seq: None,
            ops: Box::new([MicroOp::EMPTY; RING]),
            commit_head: 0,
            dispatch_head: 0,
            fetch_tail: 0,
            unissued: Vec::with_capacity(cfg.rob_size as usize),
            issue_wake: PENDING,
            iq_int: 0,
            iq_fp: 0,
            lsq: 0,
            complete_at: Box::new([0; RING]),
            regfile: [0; 64],
            commit_stalled: false,
            activity: ActivityCounters::default(),
            cpi: CpiStack::new(),
            last_fetch_line: u64::MAX,
            sink,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Re-order buffer occupancy (entries), for interval sampling.
    pub fn rob_occupancy(&self) -> u32 {
        (self.dispatch_head - self.commit_head) as u32
    }

    /// Integer issue-queue occupancy (entries).
    pub fn iq_int_occupancy(&self) -> u32 {
        self.iq_int
    }

    /// Floating-point issue-queue occupancy (entries).
    pub fn iq_fp_occupancy(&self) -> u32 {
        self.iq_fp
    }

    /// Load/store-queue occupancy (entries).
    pub fn lsq_occupancy(&self) -> u32 {
        self.lsq
    }

    /// Accumulated activity counters.
    pub fn activity(&self) -> &ActivityCounters {
        &self.activity
    }

    /// CPI stack: every cycle attributed to one stall class. Only
    /// populated when the sink is enabled (under [`NullSink`] the
    /// per-cycle classification compiles out and the stack stays zero);
    /// when populated, the components sum exactly to
    /// [`ActivityCounters::cycles`].
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.cpi
    }

    /// The cache hierarchy (for L2 statistics and per-bank power maps).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Mutable cache hierarchy access (e.g. to rescale memory latency
    /// under DVFS).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
    }

    /// Branch predictor statistics.
    pub fn bpred(&self) -> &CombinedPredictor {
        &self.bpred
    }

    /// Applies or releases commit back-pressure (RVQ/StB full). While
    /// stalled the core stops retiring — this is how an over-throttled
    /// checker slows the leader (paper §4 Discussion).
    pub fn set_commit_stall(&mut self, stalled: bool) {
        if stalled != self.commit_stalled {
            let cycle = self.cycle;
            emit(&mut self.sink, || Event::Counter {
                name: "leader_commit_stall".into(),
                cycle,
                value: if stalled { 1.0 } else { 0.0 },
            });
        }
        self.commit_stalled = stalled;
    }

    /// Injects a single-bit flip into the architectural register file
    /// (leading-core transient-fault model).
    pub fn flip_regfile_bit(&mut self, reg: u8, bit: u8) {
        self.regfile[reg as usize % 64] ^= 1u64 << (bit % 64);
    }

    /// Read-only view of the architectural register file.
    pub fn regfile(&self) -> &[u64; 64] {
        &self.regfile
    }

    /// Overwrites the architectural register file — the recovery action:
    /// the leader restarts from the trailer's checked state (§2).
    pub fn restore_regfile(&mut self, rf: &[u64; 64]) {
        self.regfile = *rf;
    }

    /// Resets statistics after warm-up, keeping microarchitectural state.
    pub fn reset_stats(&mut self) {
        self.activity = ActivityCounters::default();
        self.cpi = CpiStack::new();
        self.bpred.reset_stats();
        self.caches.reset_stats();
    }

    /// Warms the caches with the workload's hot/warm/code regions and
    /// clears statistics. Call once before measuring: it stands in for
    /// the billions of instructions a SimPoint window assumes have
    /// already run (§3.1). Follow with a short instruction warm-up to
    /// train the branch predictor.
    pub fn prefill_caches(&mut self) {
        let regions = rmt3d_workload::MemoryRegions::of(self.trace.profile());
        self.caches
            .prefill_data_region(regions.warm.0, regions.warm.1);
        self.caches
            .prefill_data_region(regions.hot.0, regions.hot.1);
        self.caches
            .prefill_code_region(regions.code.0, regions.code.1);
        self.caches.reset_stats();
    }

    /// Advances one cycle; committed instructions go to `out` in commit
    /// order (a `Vec`, or the [`CommitRing`](crate::CommitRing) a
    /// checker reads). Returns the number committed this cycle.
    // Kept out of line: being generic, it is compiled into each calling
    // crate and would be a candidate for inlining into every caller's
    // cycle loop, which bloats those loops for no measured gain.
    #[inline(never)]
    pub fn step_cycle(&mut self, out: &mut impl CommitSink) -> u32 {
        let committed = self.do_commit(out);
        self.do_issue();
        self.do_dispatch();
        self.do_fetch();
        // Cycle attribution is profiling-only: gated on the sink so the
        // NullSink build stays identical to the uninstrumented core.
        if S::ENABLED {
            self.cpi.add(self.classify_cycle(committed));
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
        committed
    }

    /// Attributes the cycle that just executed to one stall class
    /// (first matching cause wins, ordered from the commit end of the
    /// pipe backwards).
    fn classify_cycle(&self, committed: u32) -> CpiComponent {
        if committed > 0 {
            return CpiComponent::BaseIssue;
        }
        if self.commit_stalled {
            return CpiComponent::CheckerStall;
        }
        if self.commit_head == self.dispatch_head {
            // Empty window: blame whatever is holding fetch back.
            if self.redirect_seq.is_some() {
                CpiComponent::BranchRedirect
            } else if self.cycle < self.fetch_blocked_until {
                CpiComponent::IcacheMiss
            } else {
                CpiComponent::FetchStarved
            }
        } else {
            let slot = (self.commit_head % RING as u64) as usize;
            if self.complete_at[slot] != PENDING {
                // Commit waits on the head's execution; loads mean
                // an outstanding D-cache access, the rest is plain
                // execute latency (dependence-bound).
                if self.ops[slot].kind == OpClass::Load {
                    CpiComponent::DcacheMiss
                } else {
                    CpiComponent::BaseIssue
                }
            } else if self.rob_occupancy() >= self.cfg.rob_size
                || self.iq_int >= self.cfg.iq_int_size
                || self.iq_fp >= self.cfg.iq_fp_size
                || self.lsq >= self.cfg.lsq_size
            {
                CpiComponent::StructFull
            } else {
                CpiComponent::BaseIssue
            }
        }
    }

    fn do_commit(&mut self, out: &mut impl CommitSink) -> u32 {
        if self.commit_stalled {
            self.activity.commit_stall_cycles += 1;
            return 0;
        }
        let mut n = 0;
        while n < self.cfg.commit_width {
            if self.commit_head == self.dispatch_head {
                break;
            }
            let slot = (self.commit_head % RING as u64) as usize;
            // PENDING is `u64::MAX`, so one comparison covers both "not
            // yet issued" and "issued but not yet complete".
            if self.complete_at[slot] > self.cycle {
                break;
            }
            let op = self.ops[slot];
            self.commit_head += 1;
            // Architectural value semantics (in commit order).
            let s1 = op.src1_reg.map_or(0, |r| self.regfile[r.index() as usize]);
            let s2 = op.src2_reg.map_or(0, |r| self.regfile[r.index() as usize]);
            let (result, mem_value) = match op.kind {
                OpClass::Load => {
                    let v = load_memory_value(op.mem_addr);
                    (v, v)
                }
                OpClass::Store => {
                    // Stores write the data operand; the write is charged
                    // to the D-cache at commit.
                    self.caches.data_access(op.mem_addr, true);
                    self.activity.dcache_accesses += 1;
                    (0, 0)
                }
                OpClass::Branch => (0, 0),
                _ => (op.compute_result(s1, s2), 0),
            };
            if let Some(d) = op.dest {
                self.regfile[d.index() as usize] = result;
                self.activity.regfile_writes += 1;
            }
            if op.kind.is_memory() {
                self.lsq -= 1;
            }
            self.activity.committed += 1;
            self.caches.add_instructions(1);
            out.commit(CommittedOp {
                op,
                result,
                src1_value: s1,
                src2_value: s2,
                mem_value,
                commit_cycle: self.cycle,
            });
            n += 1;
        }
        n
    }

    fn do_issue(&mut self) {
        let cycle = self.cycle;
        if cycle < self.issue_wake {
            // No waiting op is ready: the full scan would issue nothing.
            debug_assert!(
                self.unissued.iter().all(|w| !Self::operands_ready(
                    &self.complete_at,
                    &self.ops[(w.seq % RING as u64) as usize],
                    cycle
                )),
                "skipped an issue scan with a ready op at cycle {cycle}"
            );
            return;
        }
        let mut budget = FuBudget::new(&self.cfg);
        let mut wake = PENDING;
        // Oldest-first select over the waiting window; ops that issue
        // are compacted out of the list in place.
        let len = self.unissued.len();
        let mut keep = 0;
        let mut i = 0;
        while i < len {
            if budget.total == 0 {
                self.unissued.copy_within(i..len, keep);
                keep += len - i;
                wake = cycle + 1;
                break;
            }
            let mut w = self.unissued[i];
            i += 1;
            if w.ready_at == PENDING
                && self.complete_at[(w.blocker % RING as u64) as usize] != PENDING
            {
                // The blocker has issued, in an earlier scan or (being
                // older) earlier in this one: re-derive.
                (w.ready_at, w.blocker) =
                    Self::ready_at(&self.complete_at, &self.ops[(w.seq % RING as u64) as usize]);
            }
            let stay = if w.ready_at > cycle {
                Some(w.ready_at)
            } else if !budget.take(w.kind) {
                // Ready, but its functional units are taken this cycle.
                Some(cycle + 1)
            } else {
                None
            };
            if let Some(at) = stay {
                wake = wake.min(at);
                self.unissued[keep] = w;
                keep += 1;
                continue;
            }
            let slot = (w.seq % RING as u64) as usize;
            let kind = w.kind;
            let complete = match kind {
                OpClass::Load => {
                    let addr = self.ops[slot].mem_addr;
                    let acc = self.caches.data_access(addr, false);
                    self.activity.dcache_accesses += 1;
                    cycle + 1 + acc.cycles as u64
                }
                _ => cycle + kind.execute_latency() as u64,
            };
            self.complete_at[slot] = complete;
            let op = &self.ops[slot];
            // Free the issue-queue slot.
            if op.kind.is_fp() {
                self.iq_fp -= 1;
            } else {
                self.iq_int -= 1;
            }
            self.activity.issued += 1;
            self.activity.regfile_reads +=
                op.src1_reg.is_some() as u64 + op.src2_reg.is_some() as u64;
            self.activity.bypass_transfers += 1;
            match kind {
                OpClass::IntMul => self.activity.int_mul_ops += 1,
                OpClass::FpAlu => self.activity.fp_alu_ops += 1,
                OpClass::FpMul => self.activity.fp_mul_ops += 1,
                _ => self.activity.int_alu_ops += 1,
            }
            if kind.is_memory() {
                self.activity.lsq_accesses += 1;
            }
        }
        self.unissued.truncate(keep);
        self.issue_wake = wake;
    }

    /// The cycle at which all of `op`'s operands are available, or
    /// `(PENDING, producer)` while some producer has not issued. A
    /// producer's `complete_at` is written once, at issue, and its ring
    /// slot outlives every waiting consumer, so the result never goes
    /// stale.
    fn ready_at(ring: &[u64; RING], op: &MicroOp) -> (u64, u64) {
        let mut ready = 0;
        for dist in [op.src1_dist, op.src2_dist].into_iter().flatten() {
            let producer = op.seq - dist.get() as u64;
            let done = ring[(producer % RING as u64) as usize];
            if done == PENDING {
                return (PENDING, producer);
            }
            ready = ready.max(done);
        }
        (ready, 0)
    }

    /// The readiness predicate a full per-cycle rescan would apply;
    /// checks skipped scans in debug builds.
    fn operands_ready(ring: &[u64; RING], op: &MicroOp, cycle: u64) -> bool {
        for dist in [op.src1_dist, op.src2_dist].into_iter().flatten() {
            let producer = op.seq - dist.get() as u64;
            if ring[(producer % RING as u64) as usize] > cycle {
                return false;
            }
        }
        true
    }

    fn do_dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            if self.rob_occupancy() >= self.cfg.rob_size {
                break;
            }
            if self.dispatch_head == self.fetch_tail {
                break;
            }
            let op = &self.ops[(self.dispatch_head % RING as u64) as usize];
            let kind = op.kind;
            // Structural checks before consuming.
            if kind.is_fp() {
                if self.iq_fp >= self.cfg.iq_fp_size {
                    break;
                }
            } else if self.iq_int >= self.cfg.iq_int_size {
                break;
            }
            if kind.is_memory() && self.lsq >= self.cfg.lsq_size {
                break;
            }
            if kind.is_fp() {
                self.iq_fp += 1;
            } else {
                self.iq_int += 1;
            }
            if kind.is_memory() {
                self.lsq += 1;
            }
            // The ring slot already reads PENDING (marked at fetch), so
            // there is no ROB entry to fill: dispatch records when the
            // operands will be ready and advances the cursor into the
            // issue window.
            let (ready_at, blocker) = Self::ready_at(&self.complete_at, op);
            self.issue_wake = self.issue_wake.min(ready_at);
            self.unissued.push(Waiting {
                seq: self.dispatch_head,
                kind,
                ready_at,
                blocker,
            });
            self.dispatch_head += 1;
            self.activity.dispatched += 1;
        }
    }

    fn do_fetch(&mut self) {
        // A pending mispredict blocks fetch until the branch resolves
        // plus the front-end refill depth.
        if let Some(seq) = self.redirect_seq {
            let done = self.complete_at[(seq % RING as u64) as usize];
            if done != PENDING && self.cycle >= done + self.cfg.frontend_refill as u64 {
                self.redirect_seq = None;
            } else {
                return;
            }
        }
        if self.cycle < self.fetch_blocked_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if (self.fetch_tail - self.dispatch_head) as u32 >= self.cfg.ifq_size {
                break;
            }
            // Decode straight into the op ring: the payload is written
            // once here and read in place through dispatch, issue and
            // commit.
            let slot = (self.fetch_tail % RING as u64) as usize;
            self.ops[slot] = self.trace.next_op();
            let op = &self.ops[slot];
            debug_assert_eq!(op.seq, self.fetch_tail);
            self.fetch_tail += 1;
            // Mark the slot pending as soon as the op exists, so stale
            // ring contents can never look "ready".
            self.complete_at[slot] = PENDING;
            // I-cache: one access per new line.
            let line = op.pc / 64;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                self.activity.icache_accesses += 1;
                let pc = op.pc;
                let stall = self.caches.fetch(pc);
                if stall > 0 {
                    self.fetch_blocked_until = self.cycle + stall as u64;
                }
            }
            self.activity.fetched += 1;
            let op = &self.ops[slot];
            if let Some(b) = op.branch() {
                self.activity.bpred_accesses += 1;
                let pred = self.bpred.predict_and_train(op.pc, b.taken);
                if pred != b.taken {
                    self.activity.branch_mispredicts += 1;
                    self.redirect_seq = Some(op.seq);
                    break;
                }
                if b.taken {
                    // A taken branch ends the fetch group.
                    break;
                }
            }
            if self.cycle < self.fetch_blocked_until {
                break;
            }
        }
    }

    /// Runs until `n` instructions have committed (no RMT coupling);
    /// returns the committed stream length actually produced. Useful for
    /// stand-alone performance experiments (Fig. 6).
    pub fn run_instructions(&mut self, n: u64) -> u64 {
        let mut sink = Vec::with_capacity(8);
        let start = self.activity.committed;
        while self.activity.committed - start < n {
            sink.clear();
            self.step_cycle(&mut sink);
        }
        self.activity.committed - start
    }
}

/// Deterministic "memory contents" function shared with the LVQ checks:
/// the value a load observes at `addr`.
#[inline]
pub fn load_memory_value(addr: u64) -> u64 {
    let mut z = addr.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xdead_beef_cafe_f00d;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_cache::{NucaLayout, NucaPolicy};
    use rmt3d_workload::{Benchmark, TraceGenerator};

    fn core(b: Benchmark) -> OooCore {
        OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        )
    }

    #[test]
    fn cpi_stack_sums_to_cycles_under_enabled_sink() {
        let mut c = OooCore::with_sink(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(Benchmark::Mcf.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
            rmt3d_telemetry::RecordingSink::new(),
        );
        let mut out = Vec::new();
        for _ in 0..20_000 {
            c.step_cycle(&mut out);
        }
        assert_eq!(c.cpi_stack().total(), c.activity().cycles);
        assert!(
            c.cpi_stack().get(CpiComponent::BaseIssue) > 0,
            "a real run commits"
        );
        // mcf is memory-bound: some cycles must be charged to the
        // D-cache with the commit-stall heuristic.
        assert!(c.cpi_stack().get(CpiComponent::DcacheMiss) > 0);
        c.reset_stats();
        assert!(c.cpi_stack().is_empty());
    }

    #[test]
    fn cpi_stack_stays_zero_under_null_sink() {
        let mut c = core(Benchmark::Gzip);
        c.run_instructions(5_000);
        assert!(
            c.cpi_stack().is_empty(),
            "NullSink must not pay for classification"
        );
    }

    #[test]
    fn commits_in_program_order() {
        let mut c = core(Benchmark::Gzip);
        let mut out = Vec::new();
        for _ in 0..5000 {
            c.step_cycle(&mut out);
        }
        for w in out.windows(2) {
            assert_eq!(w[1].op.seq, w[0].op.seq + 1, "commit must be in order");
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn ipc_is_plausible() {
        let mut c = core(Benchmark::Gzip);
        c.prefill_caches();
        c.run_instructions(20_000); // predictor warm-up
        c.reset_stats();
        c.run_instructions(50_000);
        let ipc = c.activity().ipc();
        assert!(ipc > 1.0 && ipc <= 4.0, "gzip steady-state IPC {ipc}");
    }

    #[test]
    fn low_ilp_program_is_slower() {
        let mut a = core(Benchmark::Mcf);
        let mut b = core(Benchmark::Eon);
        a.run_instructions(30_000);
        b.run_instructions(30_000);
        assert!(
            a.activity().ipc() < b.activity().ipc(),
            "mcf {} should trail eon {}",
            a.activity().ipc(),
            b.activity().ipc()
        );
    }

    #[test]
    fn commit_stall_blocks_retirement() {
        let mut c = core(Benchmark::Gzip);
        let mut out = Vec::new();
        for _ in 0..200 {
            c.step_cycle(&mut out);
        }
        let before = c.activity().committed;
        c.set_commit_stall(true);
        for _ in 0..100 {
            c.step_cycle(&mut out);
        }
        assert_eq!(c.activity().committed, before);
        assert!(c.activity().commit_stall_cycles >= 100);
        c.set_commit_stall(false);
        for _ in 0..100 {
            c.step_cycle(&mut out);
        }
        assert!(c.activity().committed > before, "commit resumes");
    }

    #[test]
    fn rob_never_overflows() {
        let mut c = core(Benchmark::Mcf);
        let mut out = Vec::new();
        for _ in 0..10_000 {
            c.step_cycle(&mut out);
            assert!(c.rob_occupancy() <= c.cfg.rob_size);
            assert!(c.iq_int <= c.cfg.iq_int_size);
            assert!(c.iq_fp <= c.cfg.iq_fp_size);
            assert!(c.lsq <= c.cfg.lsq_size);
        }
    }

    #[test]
    fn committed_values_are_deterministic() {
        let run = |n: usize| {
            let mut c = core(Benchmark::Twolf);
            let mut out = Vec::new();
            while out.len() < n {
                c.step_cycle(&mut out);
            }
            out.truncate(n);
            out
        };
        assert_eq!(run(2000), run(2000));
    }

    #[test]
    fn loads_carry_load_values_and_stores_store_values() {
        let mut c = core(Benchmark::Vpr);
        let mut out = Vec::new();
        while out.len() < 3000 {
            c.step_cycle(&mut out);
        }
        for co in &out {
            match co.op.kind {
                OpClass::Load => {
                    let v = co.load_value().expect("loads have load values");
                    assert_eq!(v, load_memory_value(co.op.mem().unwrap().addr));
                    assert_eq!(co.result, v);
                }
                OpClass::Store => {
                    assert!(co.store_value().is_some());
                    assert!(co.load_value().is_none());
                }
                _ => assert!(co.load_value().is_none() && co.store_value().is_none()),
            }
        }
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // Compare IPC of a predictable vs unpredictable profile with the
        // same memory behaviour: the predictor must matter.
        use rmt3d_workload::WorkloadProfile;
        let mk = |pred: f64, seed: u64| -> WorkloadProfile {
            let mut p = Benchmark::Gzip.profile();
            p.predictability = pred;
            p.seed = seed;
            p
        };
        let run = |p: WorkloadProfile| {
            let mut c = OooCore::new(
                CoreConfig::leading_ev7_like(),
                TraceGenerator::new(p),
                CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
            );
            c.run_instructions(30_000);
            c.activity().ipc()
        };
        let good = run(mk(0.98, 7));
        let bad = run(mk(0.0, 7));
        assert!(good > bad, "predictable {good} vs random {bad}");
    }

    #[test]
    fn bigger_cache_helps_oversized_working_set() {
        // A hot 8 MB working set fits the 15 MB NUCA but thrashes the
        // 6 MB one. Warm up first so only steady-state misses count.
        let mk = |layout: NucaLayout| {
            let mut p = Benchmark::Mcf.profile();
            p.memory.hot_kb = 8 * 1024;
            p.memory.p_hot = 0.95;
            p.memory.p_warm = 0.04;
            let mut c = OooCore::new(
                CoreConfig::leading_ev7_like(),
                TraceGenerator::new(p),
                CacheHierarchy::new(layout, NucaPolicy::DistributedSets),
            );
            c.prefill_caches();
            c.run_instructions(300_000);
            c.caches().stats().l2_misses
        };
        let small = mk(NucaLayout::two_d_a());
        let large = mk(NucaLayout::three_d_2a());
        assert!(
            (large as f64) < 0.7 * small as f64,
            "15 MB misses {large} should be well below 6 MB misses {small}"
        );
    }
}
