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
use crate::inorder::{reg_slot, SOURCE, UNIT};
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

/// No op waits on this ring slot: the end of a waiter list.
const NO_WAITER: u16 = u16::MAX;

/// Execute latency per class, indexed by `OpClass as usize`; a load's
/// cache time is added at issue.
const LATENCY: [u64; 7] = [1, 3, 2, 4, 1, 1, 1];

/// Issue queue per class: 0 integer, 1 floating point.
const IQ: [usize; 7] = [0, 0, 1, 1, 0, 0, 0];

/// Load/store-queue entries per class: one for loads and stores.
const LSQ: [u32; 7] = [0, 0, 0, 0, 1, 1, 0];

/// Register-file slot that absorbs the writes of ops with no
/// destination; slot 0 (an absent operand) is never written, so it
/// always reads 0.
const SINK: usize = 65;

/// Per-cycle functional-unit issue budget.
#[derive(Debug, Clone, Copy)]
struct FuBudget {
    /// Free units per [`UNIT`] index.
    units: [u32; 4],
    /// Free global issue slots.
    total: u32,
}

impl FuBudget {
    fn new(cfg: &CoreConfig) -> FuBudget {
        FuBudget {
            units: [cfg.int_alu, cfg.int_mul, cfg.fp_alu, cfg.fp_mul],
            total: cfg.dispatch_width, // global issue width
        }
    }

    /// Tries to reserve a unit for class `k`; returns false when its
    /// units are taken. The caller checks `total` first.
    fn take(&mut self, k: usize) -> bool {
        let free = &mut self.units[UNIT[k]];
        if *free == 0 {
            false
        } else {
            *free -= 1;
            self.total -= 1;
            true
        }
    }
}

/// A dispatched op whose producers have all issued, waiting in the
/// select window.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    seq: u64,
    kind: OpClass,
    /// Cycle at which every operand is available: the max of the
    /// producers' `complete_at`.
    ready_at: u64,
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
    /// Dispatched-but-unissued ops whose producers have all issued, in
    /// program order: the issue stage's select window. Each entry caches
    /// its operand-ready cycle, so a scan tests one field per waiting
    /// op; entries leave on issue.
    unissued: Vec<Waiting>,
    /// Waiter lists, intrusive and indexed by ring slot: a dispatched
    /// op with an unissued producer waits on that producer's list
    /// (`waiters[producer]` is the head, `next_waiter[op]` the link,
    /// [`NO_WAITER`] the end) and is re-filed when the producer issues.
    waiters: [u16; RING],
    next_waiter: [u16; RING],
    /// Ops woken during an issue scan, merged into `unissued` after it.
    woken: Vec<Waiting>,
    /// Earliest cycle at which any op in `unissued` can issue;
    /// `do_issue` skips its scan before then. Set by each scan, lowered
    /// by dispatch.
    issue_wake: u64,
    /// Issue-queue occupancy per [`IQ`] index (integer, floating point).
    iq: [u32; 2],
    lsq: u32,
    /// Completion cycle per ring slot; `PENDING` from fetch until issue,
    /// so `complete_at[slot] != PENDING` doubles as the issued flag.
    complete_at: Box<[u64; RING]>,
    /// The architectural register file behind two extra slots: register
    /// `i` lives at `regs[i + 1]` (its [`reg_slot`]), slot 0 reads 0 for
    /// an absent operand, and [`SINK`] takes the writes of ops with no
    /// destination.
    regs: [u64; 66],
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
            waiters: [NO_WAITER; RING],
            next_waiter: [NO_WAITER; RING],
            woken: Vec::with_capacity(cfg.rob_size as usize),
            issue_wake: PENDING,
            iq: [0; 2],
            lsq: 0,
            complete_at: Box::new([0; RING]),
            regs: [0; 66],
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
        self.iq[0]
    }

    /// Floating-point issue-queue occupancy (entries).
    pub fn iq_fp_occupancy(&self) -> u32 {
        self.iq[1]
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
        self.regs[reg as usize % 64 + 1] ^= 1u64 << (bit % 64);
    }

    /// Read-only view of the architectural register file.
    pub fn regfile(&self) -> &[u64; 64] {
        self.regs[1..SINK]
            .try_into()
            .expect("64 registers follow the zero slot")
    }

    /// Overwrites the architectural register file — the recovery action:
    /// the leader restarts from the trailer's checked state (§2).
    pub fn restore_regfile(&mut self, rf: &[u64; 64]) {
        self.regs[1..SINK].copy_from_slice(rf);
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
                || self.iq[0] >= self.cfg.iq_int_size
                || self.iq[1] >= self.cfg.iq_fp_size
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
            // Architectural value semantics (in commit order), selected
            // by class without branching on it.
            let k = op.kind as usize;
            let s1 = self.regs[reg_slot(op.src1_reg)];
            let s2 = self.regs[reg_slot(op.src2_reg)];
            let loaded = load_memory_value(op.mem_addr);
            let source = SOURCE[k] as usize;
            let result = [op.compute_result(s1, s2), loaded, 0][source];
            let mem_value = [0, loaded, 0][source];
            if op.kind == OpClass::Store {
                // Stores write the data operand; the write is charged
                // to the D-cache at commit.
                self.caches.data_access(op.mem_addr, true);
                self.activity.dcache_accesses += 1;
            }
            let rd = reg_slot(op.dest);
            self.regs[if rd == 0 { SINK } else { rd }] = result;
            self.activity.regfile_writes += (rd != 0) as u64;
            self.lsq -= LSQ[k];
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
        if cfg!(debug_assertions) {
            self.check_select_window(cycle < self.issue_wake);
        }
        if cycle < self.issue_wake {
            // No op in the window is ready: a scan would issue nothing.
            return;
        }
        let mut budget = FuBudget::new(&self.cfg);
        let mut wake = PENDING;
        // Oldest-first select over the window; ops that issue are
        // compacted out of the list in place.
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
            let w = self.unissued[i];
            i += 1;
            let k = w.kind as usize;
            if w.ready_at > cycle || !budget.take(k) {
                // Operands not ready yet, or ready but its functional
                // units are taken this cycle.
                wake = wake.min(w.ready_at.max(cycle + 1));
                self.unissued[keep] = w;
                keep += 1;
                continue;
            }
            let slot = (w.seq % RING as u64) as usize;
            let mut complete = cycle + LATENCY[k];
            if w.kind == OpClass::Load {
                let addr = self.ops[slot].mem_addr;
                complete += self.caches.data_access(addr, false).cycles as u64;
                self.activity.dcache_accesses += 1;
            }
            self.complete_at[slot] = complete;
            // Free the issue-queue slot.
            self.iq[IQ[k]] -= 1;
            let op = &self.ops[slot];
            let a = &mut self.activity;
            a.issued += 1;
            a.regfile_reads += op.src1_reg.is_some() as u64 + op.src2_reg.is_some() as u64;
            a.bypass_transfers += 1;
            let unit = UNIT[k];
            a.int_alu_ops += (unit == 0) as u64;
            a.int_mul_ops += (unit == 1) as u64;
            a.fp_alu_ops += (unit == 2) as u64;
            a.fp_mul_ops += (unit == 3) as u64;
            a.lsq_accesses += LSQ[k] as u64;
            wake = wake.min(self.wake_waiters(slot));
        }
        self.unissued.truncate(keep);
        // A woken op is ready no earlier than the next cycle, so it
        // could not have issued in this scan; it joins the window at
        // its program-order place.
        for w in self.woken.drain(..) {
            let at = self.unissued.partition_point(|u| u.seq < w.seq);
            self.unissued.insert(at, w);
        }
        self.issue_wake = wake;
    }

    /// Re-files every op waiting on the op in `slot`, which has just
    /// issued; returns the earliest operand-ready cycle among the ops
    /// this leaves in `woken` (`PENDING` for none).
    fn wake_waiters(&mut self, slot: usize) -> u64 {
        let mut wake = PENDING;
        let mut next = std::mem::replace(&mut self.waiters[slot], NO_WAITER);
        while next != NO_WAITER {
            let waiter = next as usize;
            next = self.next_waiter[waiter];
            if let Some(w) = self.file(waiter) {
                wake = wake.min(w.ready_at);
                self.woken.push(w);
            }
        }
        wake
    }

    /// Files the dispatched op in `slot`: onto the waiter list of its
    /// first unissued producer, or, when every producer has issued,
    /// returns it as a window entry with its operand-ready cycle.
    fn file(&mut self, slot: usize) -> Option<Waiting> {
        let op = &self.ops[slot];
        match Self::ready_at(&self.complete_at, op) {
            Ok(ready_at) => Some(Waiting {
                seq: op.seq,
                kind: op.kind,
                ready_at,
            }),
            Err(producer) => {
                let head = (producer % RING as u64) as usize;
                self.next_waiter[slot] = self.waiters[head];
                self.waiters[head] = slot as u16;
                None
            }
        }
    }

    /// The cycle at which all of `op`'s operands are available, or
    /// `Err(producer)` while that producer has not issued. A producer's
    /// `complete_at` is written once, at issue, and its ring slot
    /// outlives every waiting consumer, so the result never goes stale.
    #[inline]
    fn ready_at(ring: &[u64; RING], op: &MicroOp) -> Result<u64, u64> {
        // A distance of 0 means no producer. It names the op's own slot,
        // which reads `PENDING`, so its completion is masked to 0.
        let d1 = op.src1_dist.map_or(0, |d| d.get() as u64);
        let d2 = op.src2_dist.map_or(0, |d| d.get() as u64);
        let (p1, p2) = (op.seq - d1, op.seq - d2);
        let c1 = ring[(p1 % RING as u64) as usize] & 0u64.wrapping_sub((d1 != 0) as u64);
        let c2 = ring[(p2 % RING as u64) as usize] & 0u64.wrapping_sub((d2 != 0) as u64);
        match c1.max(c2) {
            PENDING => Err(if c1 == PENDING { p1 } else { p2 }),
            ready => Ok(ready),
        }
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

    /// Debug-build check of the select window: `unissued` is in program
    /// order, every dispatched, unissued op is in exactly one of
    /// `unissued` or a single waiter list, and no issued op is in
    /// either. With `skipped`, also checks that none of them is ready
    /// this cycle (the scan being skipped would have issued nothing).
    fn check_select_window(&self, skipped: bool) {
        assert!(
            self.unissued.windows(2).all(|w| w[0].seq < w[1].seq),
            "select window out of program order at cycle {}",
            self.cycle
        );
        let slot = |seq: u64| (seq % RING as u64) as usize;
        let mut filed = [0u32; RING];
        for w in &self.unissued {
            filed[slot(w.seq)] += 1;
        }
        for seq in self.commit_head..self.dispatch_head {
            let mut next = self.waiters[slot(seq)];
            while next != NO_WAITER {
                filed[next as usize] += 1;
                next = self.next_waiter[next as usize];
            }
        }
        for seq in self.commit_head..self.dispatch_head {
            let s = slot(seq);
            let unissued = self.complete_at[s] == PENDING;
            assert_eq!(
                filed[s], unissued as u32,
                "op {seq} filed {} times at cycle {}",
                filed[s], self.cycle
            );
            assert!(
                !(skipped
                    && unissued
                    && Self::operands_ready(&self.complete_at, &self.ops[s], self.cycle)),
                "skipped an issue scan with op {seq} ready at cycle {}",
                self.cycle
            );
        }
    }

    fn do_dispatch(&mut self) {
        let iq_size = [self.cfg.iq_int_size, self.cfg.iq_fp_size];
        for _ in 0..self.cfg.dispatch_width {
            if self.rob_occupancy() >= self.cfg.rob_size {
                break;
            }
            if self.dispatch_head == self.fetch_tail {
                break;
            }
            let slot = (self.dispatch_head % RING as u64) as usize;
            let k = self.ops[slot].kind as usize;
            // Structural checks before consuming. The LSQ never holds
            // more than its size, so only a memory op can find it full.
            let (iq, lsq) = (IQ[k], LSQ[k]);
            if self.iq[iq] >= iq_size[iq] || self.lsq + lsq > self.cfg.lsq_size {
                break;
            }
            self.iq[iq] += 1;
            self.lsq += lsq;
            // The ring slot already reads PENDING (marked at fetch), so
            // there is no ROB entry to fill: dispatch files the op in the
            // select window or on a producer's waiter list and advances
            // the cursor.
            if let Some(w) = self.file(slot) {
                self.issue_wake = self.issue_wake.min(w.ready_at);
                self.unissued.push(w);
            }
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
            debug_assert_eq!(self.waiters[slot], NO_WAITER, "a committed op has waiters");
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
    use crate::inorder::ResultSource;
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
    fn class_tables_follow_op_classes() {
        for k in OpClass::ALL {
            let i = k as usize;
            assert_eq!(LATENCY[i], k.execute_latency() as u64, "{k:?}");
            assert_eq!(IQ[i], k.is_fp() as usize, "{k:?}");
            assert_eq!(LSQ[i], k.is_memory() as u32, "{k:?}");
            // Issue counts an op on its unit's counter: loads, stores
            // and branches on the integer ALU's.
            let unit = match k {
                OpClass::IntMul => 1,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 3,
                _ => 0,
            };
            assert_eq!(UNIT[i], unit, "{k:?}");
            let source = match k {
                OpClass::Load => ResultSource::Lvq,
                OpClass::Store | OpClass::Branch => ResultSource::Zero,
                _ => ResultSource::Compute,
            };
            assert!(SOURCE[i] == source, "{k:?}");
        }
    }

    #[test]
    fn register_file_sits_between_the_zero_and_sink_slots() {
        let mut c = core(Benchmark::Gzip);
        c.regs[SINK] = 0xdead;
        c.flip_regfile_bit(0, 3);
        c.flip_regfile_bit(63, 1);
        assert_eq!((c.regfile()[0], c.regfile()[63]), (8, 2));
        c.restore_regfile(&[7; 64]);
        assert_eq!(c.regfile(), &[7; 64]);
        assert_eq!((c.regs[0], c.regs[SINK]), (0, 0xdead));
        // Whatever the sink holds, an absent operand reads 0.
        let mut out = Vec::new();
        while out.len() < 3000 {
            c.step_cycle(&mut out);
        }
        for co in &out {
            assert!(co.op.src1_reg.is_some() || co.src1_value == 0, "{}", co.op);
            assert!(co.op.src2_reg.is_some() || co.src2_value == 0, "{}", co.op);
        }
        assert_eq!(c.regs[0], 0);
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
            assert!(c.iq[0] <= c.cfg.iq_int_size);
            assert!(c.iq[1] <= c.cfg.iq_fp_size);
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
