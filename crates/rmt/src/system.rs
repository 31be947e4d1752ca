//! The coupled reliable processor: leading core + queues + DFS-throttled
//! checker core, with fault injection and recovery (paper §2, Fig. 1).

use crate::dfs::{DfsConfig, DfsController, DFS_LEVELS};
use crate::fault::{DirectedOutcome, DrawnFault, EccConfig, FaultFate, FaultInjector, FaultSite};
use crate::queues::{IntercoreQueues, QueueConfig};
use rmt3d_cpu::{
    load_memory_value, CheckOutcome, CommittedOp, InOrderCore, OooCore, TrailerConfig, Verification,
};
use rmt3d_telemetry::{emit, CpiComponent, CpiStack, Event, NullSink, Sink};
use rmt3d_workload::OpClass;

/// Configuration of the coupled RMT system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmtConfig {
    /// Inter-core queue capacities.
    pub queues: QueueConfig,
    /// DFS policy for the checker.
    pub dfs: DfsConfig,
    /// Checker pipeline configuration.
    pub trailer: TrailerConfig,
    /// Leader cycles charged per recovery (pipeline flush + restore +
    /// refill).
    pub recovery_penalty: u64,
}

impl RmtConfig {
    /// The paper's configuration.
    pub fn paper() -> RmtConfig {
        RmtConfig {
            queues: QueueConfig::paper(),
            dfs: DfsConfig::paper(),
            trailer: TrailerConfig::checker(),
            recovery_penalty: 200,
        }
    }
}

impl Default for RmtConfig {
    fn default() -> RmtConfig {
        RmtConfig::paper()
    }
}

/// Reliability and coupling statistics of an RMT run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RmtStats {
    /// Errors detected by the checker (mismatched verifications).
    pub detected: u64,
    /// Recovery procedures executed.
    pub recoveries: u64,
    /// Recoveries after which the trailer state disagreed with the
    /// golden architectural state (detected but unrecoverable — the
    /// §3.5 multi-error concern).
    pub unrecoverable: u64,
    /// Leader cycles spent in recovery stalls.
    pub recovery_stall_cycles: u64,
    /// Instructions verified clean.
    pub verified_ok: u64,
    /// Sum of RVQ occupancy samples (for mean slack).
    pub slack_sum: u64,
    /// Number of slack samples.
    pub slack_samples: u64,
    /// Leader cycles spent synchronizing for interrupt service (§2).
    pub interrupt_sync_cycles: u64,
    /// Interrupts serviced.
    pub interrupts_serviced: u64,
}

impl RmtStats {
    /// Mean slack (RVQ occupancy) in instructions.
    pub fn mean_slack(&self) -> f64 {
        if self.slack_samples == 0 {
            0.0
        } else {
            self.slack_sum as f64 / self.slack_samples as f64
        }
    }
}

/// The coupled leading-core / checker-core system.
///
/// One call to [`RmtSystem::step`] advances one leading-core cycle; the
/// checker advances fractionally according to the DFS controller's
/// current normalized frequency (GALS-style decoupling, §2.1).
#[derive(Debug, Clone)]
pub struct RmtSystem<S: Sink = NullSink> {
    leader: OooCore<S>,
    trailer: InOrderCore<S>,
    queues: IntercoreQueues,
    dfs: DfsController,
    injector: Option<FaultInjector>,
    config: RmtConfig,
    /// Fractional trailer-cycle accumulator.
    accum: f64,
    /// Remaining recovery stall cycles.
    recovery_cooldown: u64,
    /// Golden architectural register file: updated with fault-free
    /// recomputation of every committed op; the oracle for recovery
    /// verification.
    golden: [u64; 64],
    stats: RmtStats,
    commit_buf: Vec<CommittedOp>,
    verify_buf: Vec<Verification>,
    replay_scratch: Vec<CommittedOp>,
    fault_fates: Vec<(FaultSite, FaultFate)>,
    sink: S,
}

impl RmtSystem {
    /// Couples a leading core to a fresh checker, telemetry disabled.
    pub fn new(leader: OooCore, config: RmtConfig) -> RmtSystem {
        RmtSystem::with_sink(leader, config, NullSink)
    }
}

impl<S: Sink + Clone> RmtSystem<S> {
    /// Couples a leading core to a fresh checker; the sink is cloned
    /// into the checker and also receives system-level events (DFS
    /// transitions, fault injections, recoveries). The leader should
    /// have been built with a clone of the same sink
    /// ([`OooCore::with_sink`]).
    pub fn with_sink(leader: OooCore<S>, config: RmtConfig, sink: S) -> RmtSystem<S> {
        RmtSystem {
            leader,
            trailer: InOrderCore::with_sink(config.trailer, sink.clone()),
            queues: IntercoreQueues::new(config.queues),
            dfs: DfsController::new(config.dfs),
            injector: None,
            config,
            accum: 0.0,
            recovery_cooldown: 0,
            golden: [0; 64],
            stats: RmtStats::default(),
            commit_buf: Vec::with_capacity(8),
            verify_buf: Vec::with_capacity(8),
            replay_scratch: Vec::new(),
            fault_fates: Vec::new(),
            sink,
        }
    }
}

impl<S: Sink> RmtSystem<S> {
    /// Enables random fault injection.
    pub fn with_fault_injection(mut self, seed: u64, rate: f64, ecc: EccConfig) -> RmtSystem<S> {
        self.injector = Some(FaultInjector::new(seed, rate, ecc));
        self
    }

    /// The leading core.
    pub fn leader(&self) -> &OooCore<S> {
        &self.leader
    }

    /// The checker core.
    pub fn trailer(&self) -> &InOrderCore<S> {
        &self.trailer
    }

    /// The DFS controller (Fig. 7 histogram lives here).
    pub fn dfs(&self) -> &DfsController {
        &self.dfs
    }

    /// The queue complex.
    pub fn queues(&self) -> &IntercoreQueues {
        &self.queues
    }

    /// Reliability statistics.
    pub fn stats(&self) -> &RmtStats {
        &self.stats
    }

    /// Fault injector statistics, when injection is enabled.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// `(site, fate)` record of every applied (non-ECC-corrected) fault.
    pub fn fault_fates(&self) -> &[(FaultSite, FaultFate)] {
        &self.fault_fates
    }

    /// Leader cycles including recovery stalls.
    pub fn total_cycles(&self) -> u64 {
        self.leader.activity().cycles + self.stats.recovery_stall_cycles
    }

    /// Leader CPI stack lifted into the system cycle domain: the
    /// per-core stack (populated only when the sink is enabled) plus
    /// one `Recovery` cycle per recovery stall, during which the leader
    /// core does not step. When the sink is enabled the components sum
    /// exactly to [`RmtSystem::total_cycles`].
    pub fn leader_cpi_stack(&self) -> CpiStack {
        let mut s = *self.leader.cpi_stack();
        s.add_cycles(CpiComponent::Recovery, self.stats.recovery_stall_cycles);
        s
    }

    /// Checker CPI stack lifted into the same (leader) cycle domain:
    /// the trailer's per-tick stack, plus `Recovery` stalls, plus one
    /// `DfsThrottled` cycle for every leader cycle the checker's gated
    /// clock did not tick. The DFS fraction never exceeds 1, so trailer
    /// ticks never exceed leader cycles and the composition also sums
    /// to [`RmtSystem::total_cycles`] when the sink is enabled.
    pub fn trailer_cpi_stack(&self) -> CpiStack {
        let mut s = *self.trailer.cpi_stack();
        s.add_cycles(CpiComponent::Recovery, self.stats.recovery_stall_cycles);
        let leader_cycles = self.leader.activity().cycles;
        let trailer_ticks = self.trailer.activity().cycles;
        s.add_cycles(
            CpiComponent::DfsThrottled,
            leader_cycles.saturating_sub(trailer_ticks),
        );
        s
    }

    /// End-to-end IPC of the reliable processor: committed instructions
    /// over leader cycles plus recovery stalls.
    pub fn effective_ipc(&self) -> f64 {
        let c = self.total_cycles();
        if c == 0 {
            0.0
        } else {
            self.leader.activity().committed as f64 / c as f64
        }
    }

    /// Warm the leader's caches and reset statistics (see
    /// [`OooCore::prefill_caches`]).
    pub fn prefill_caches(&mut self) {
        self.leader.prefill_caches();
    }

    /// Advances one leading-core cycle.
    pub fn step(&mut self) {
        if self.recovery_cooldown > 0 {
            self.recovery_cooldown -= 1;
            self.stats.recovery_stall_cycles += 1;
            return;
        }
        // Back-pressure: stall leader commit if any queue is near full.
        let can = self.queues.can_accept(4);
        self.leader.set_commit_stall(!can);
        self.commit_buf.clear();
        self.leader.step_cycle(&mut self.commit_buf);

        // Golden shadow execution + fault injection + enqueue.
        let cycle = self.leader.activity().cycles;
        for i in 0..self.commit_buf.len() {
            let mut item = self.commit_buf[i];
            self.update_golden(&item);
            if let Some(inj) = self.injector.as_mut() {
                if let Some((fault, corrected)) = inj.draw_event() {
                    emit(&mut self.sink, || Event::FaultInjected {
                        cycle,
                        site: fault.site.name().into(),
                        bit: fault.bit,
                        corrected,
                    });
                    if corrected {
                        // Absorbed by ECC; invisible to execution.
                    } else if fault.site == FaultSite::TrailerRegfile {
                        self.trailer.flip_regfile_bit(fault.reg, fault.bit);
                        self.fault_fates.push((fault.site, FaultFate::Masked));
                    } else if FaultInjector::apply_to_payload(fault, &mut item) {
                        // Fate resolved when (if) the checker flags it.
                        self.fault_fates.push((fault.site, FaultFate::Masked));
                    }
                }
            }
            self.queues.push(item);
        }

        // DFS decision and fractional trailer advance.
        let level_before = self.dfs.current().level();
        self.dfs.tick(self.queues.rvq_fill());
        let after = self.dfs.current();
        if after.level() != level_before {
            emit(&mut self.sink, || Event::DfsTransition {
                cycle,
                from_level: level_before,
                to_level: after.level(),
                fraction: after.fraction(),
            });
        }
        self.stats.slack_sum += self.queues.occupancy().rvq as u64;
        self.stats.slack_samples += 1;

        self.accum += self.dfs.current().fraction();
        while self.accum >= 1.0 {
            self.accum -= 1.0;
            self.verify_buf.clear();
            self.trailer
                .step_cycle(self.queues.stream_mut(), &mut self.verify_buf);
            if !self.verify_buf.is_empty() {
                self.process_verifications();
            }
        }
    }

    /// Fault-free shadow execution of one committed op against the
    /// golden register file (the recovery-verification oracle).
    fn update_golden(&mut self, item: &CommittedOp) {
        let golden = &mut self.golden;
        let op = item.op;
        let s1 = op.src1_reg.map_or(0, |r| golden[r.index() as usize]);
        let s2 = op.src2_reg.map_or(0, |r| golden[r.index() as usize]);
        let result = match op.kind {
            OpClass::Load => load_memory_value(op.mem_addr),
            OpClass::Store | OpClass::Branch => 0,
            _ => op.compute_result(s1, s2),
        };
        if let Some(d) = op.dest {
            golden[d.index() as usize] = result;
        }
    }

    fn process_verifications(&mut self) {
        let mut any_error = false;
        let verifications = std::mem::take(&mut self.verify_buf);
        for v in verifications.iter() {
            self.queues.on_trailer_consumed(v.kind);
            if v.outcome == CheckOutcome::Ok {
                self.stats.verified_ok += 1;
            } else {
                self.stats.detected += 1;
                any_error = true;
            }
        }
        if any_error {
            self.recover();
            // Mark the most recent unresolved fault as detected.
            let recovered = self.trailer.regfile() == &self.golden;
            let cycle = self.leader.activity().cycles;
            let penalty = self.config.recovery_penalty;
            emit(&mut self.sink, || Event::Recovery {
                cycle,
                penalty_cycles: penalty,
                unrecoverable: !recovered,
            });
            if let Some(last) = self
                .fault_fates
                .iter_mut()
                .rev()
                .find(|(_, fate)| *fate == FaultFate::Masked)
            {
                last.1 = if recovered {
                    FaultFate::DetectedRecovered
                } else {
                    FaultFate::DetectedUnrecoverable
                };
            }
        }
        self.verify_buf = verifications;
        self.verify_buf.clear();
    }

    /// Recovery (§2): squash everything in flight, re-execute it
    /// architecturally from the trailer's checked state, restore the
    /// leader's register file from the trailer, and charge the stall.
    fn recover(&mut self) {
        self.stats.recoveries += 1;
        self.recovery_cooldown = self.config.recovery_penalty;

        // Replay the flagged verification batch tail (ops the trailer
        // refused to retire), then the trailer pipe, then the queued
        // backlog — all in program order. The scratch buffer lives on
        // the system so repeated recoveries allocate nothing.
        let mut replay = std::mem::take(&mut self.replay_scratch);
        replay.clear();
        // The trailer parked the payload of every failed check; those are
        // exactly the ops of the flagged tail it refused to retire.
        self.trailer.drain_error_items_into(&mut replay);
        self.trailer.drain_pipe_into(&mut replay);
        replay.extend(self.queues.stream_mut().drain(..));
        self.queues.squash();
        for item in &replay {
            self.trailer.architectural_replay(item);
        }
        self.replay_scratch = replay;
        let rf = *self.trailer.regfile();
        self.leader.restore_regfile(&rf);
        if rf != self.golden {
            self.stats.unrecoverable += 1;
        }
    }

    /// Injects one directed single-bit fault (the campaign harness's
    /// entry point; random soft-error arrival uses
    /// [`RmtSystem::with_fault_injection`] instead).
    ///
    /// ECC-protected sites absorb the strike without touching state.
    /// `TrailerRegfile` strikes flip the checker's own register file.
    /// Payload sites strike the *newest* suitable op in the RVQ stream
    /// ([`RmtSystem::strike_target`]) — the fault hits the value as it enters the queue, so the detection
    /// latency observed by the caller measures the full leader/checker
    /// slack. Returns [`DirectedOutcome::NoTarget`] when nothing
    /// suitable is queued; the caller may step and retry.
    pub fn inject_directed(&mut self, fault: DrawnFault, ecc: EccConfig) -> DirectedOutcome {
        let cycle = self.leader.activity().cycles;
        if ecc.corrects(fault.site) {
            emit(&mut self.sink, || Event::FaultInjected {
                cycle,
                site: fault.site.name().into(),
                bit: fault.bit,
                corrected: true,
            });
            return DirectedOutcome::CorrectedByEcc;
        }
        if fault.site == FaultSite::TrailerRegfile {
            self.trailer.flip_regfile_bit(fault.reg, fault.bit);
        } else {
            let Some(at) = self.strike_target(fault.site) else {
                return DirectedOutcome::NoTarget;
            };
            let item = &mut self.queues.stream_mut()[at];
            let applied = FaultInjector::apply_to_payload(fault, item);
            debug_assert!(applied, "can_strike guarantees a mutable target");
        }
        // Fate starts Masked; process_verifications upgrades it when
        // (if) the checker flags the corruption.
        self.fault_fates.push((fault.site, FaultFate::Masked));
        emit(&mut self.sink, || Event::FaultInjected {
            cycle,
            site: fault.site.name().into(),
            bit: fault.bit,
            corrected: false,
        });
        DirectedOutcome::Applied
    }

    /// The RVQ position a payload strike at `site` would hit: the
    /// newest queued op the site [can strike](FaultSite::can_strike).
    /// `None` when nothing suitable is queued, and always for
    /// `TrailerRegfile`, which strikes core state. Read-only, so a
    /// caller can find a strike's cycle without striking.
    pub fn strike_target(&self, site: FaultSite) -> Option<usize> {
        self.queues
            .stream()
            .iter()
            .rposition(|i| site.can_strike(i))
    }

    /// Runs until `n` instructions have committed on the leader.
    pub fn run_instructions(&mut self, n: u64) {
        let start = self.leader.activity().committed;
        while self.leader.activity().committed - start < n {
            self.step();
        }
    }

    /// Services an external interrupt or exception (§2: "the leading
    /// thread must wait for the trailing thread to catch up before
    /// servicing the interrupt").
    ///
    /// Stalls the leader and runs the checker at full speed until every
    /// in-flight instruction is verified, then returns the number of
    /// leader cycles the synchronization cost. The architectural state
    /// at return is fully checked — safe to expose to a handler.
    pub fn service_interrupt(&mut self) -> u64 {
        let mut cycles = 0u64;
        self.leader.set_commit_stall(true);
        while self.queues.occupancy().rvq > 0 || self.trailer.in_flight() > 0 {
            // The leader pipeline keeps ticking (stalled at commit); the
            // checker catches up at its peak frequency.
            self.verify_buf.clear();
            self.trailer
                .step_cycle(self.queues.stream_mut(), &mut self.verify_buf);
            if !self.verify_buf.is_empty() {
                self.process_verifications();
            }
            cycles += 1;
            assert!(
                cycles < 1_000_000,
                "interrupt synchronization failed to converge"
            );
        }
        self.leader.set_commit_stall(false);
        self.stats.interrupt_sync_cycles += cycles;
        self.stats.interrupts_serviced += 1;
        cycles
    }

    /// Drains the checker until it has verified everything the leader
    /// committed (call after the last `run_instructions`).
    pub fn drain(&mut self) {
        let mut idle = 0;
        while self.queues.occupancy().rvq > 0 || self.trailer.in_flight() > 0 {
            self.verify_buf.clear();
            self.trailer
                .step_cycle(self.queues.stream_mut(), &mut self.verify_buf);
            if self.verify_buf.is_empty() {
                idle += 1;
                assert!(idle < 10_000, "checker failed to drain");
            } else {
                idle = 0;
                self.process_verifications();
            }
        }
    }

    /// The Fig. 7 histogram: fraction of intervals per 0.1 f frequency
    /// level.
    pub fn frequency_histogram(&self) -> [f64; DFS_LEVELS] {
        self.dfs.histogram_fractions()
    }

    /// True when the leader's architectural state matches the golden
    /// shadow (no silent corruption escaped the checker).
    pub fn leader_matches_golden(&self) -> bool {
        self.leader.regfile() == &self.golden
    }

    /// True when the checker's architectural state matches the golden
    /// shadow. Only meaningful after [`RmtSystem::drain`] (the trailer
    /// lags the leader while ops are in flight); a mismatch then means
    /// the recovery point itself is corrupt — latent state corruption
    /// that a future recovery would propagate.
    pub fn trailer_matches_golden(&self) -> bool {
        self.trailer.regfile() == &self.golden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
    use rmt3d_cpu::CoreConfig;
    use rmt3d_workload::{Benchmark, TraceGenerator};

    fn system(b: Benchmark) -> RmtSystem {
        let leader = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
        );
        RmtSystem::new(leader, RmtConfig::paper())
    }

    #[test]
    fn composed_cpi_stacks_sum_to_total_cycles() {
        use rmt3d_telemetry::RecordingSink;
        let sink = RecordingSink::new();
        let leader = OooCore::with_sink(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(Benchmark::Gzip.profile()),
            CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
            sink.clone(),
        );
        let mut s = RmtSystem::with_sink(leader, RmtConfig::paper(), sink).with_fault_injection(
            7,
            2e-4,
            EccConfig::paper(),
        );
        s.prefill_caches();
        s.run_instructions(30_000);
        s.drain();
        let leader_cpi = s.leader_cpi_stack();
        let trailer_cpi = s.trailer_cpi_stack();
        assert_eq!(leader_cpi.total(), s.total_cycles());
        assert_eq!(trailer_cpi.total(), s.total_cycles());
        assert_eq!(
            leader_cpi.get(CpiComponent::Recovery),
            s.stats().recovery_stall_cycles
        );
        // The DFS-throttled checker runs at a fraction of the leader
        // clock: gated-off cycles must be attributed, not lost.
        assert!(trailer_cpi.get(CpiComponent::DfsThrottled) > 0);
    }

    #[test]
    fn fault_free_run_is_clean() {
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(30_000);
        s.drain();
        assert_eq!(s.stats().detected, 0);
        assert_eq!(s.stats().recoveries, 0);
        assert!(s.leader_matches_golden());
        assert!(s.stats().verified_ok >= 30_000);
    }

    #[test]
    fn checker_keeps_up_without_stalling_leader() {
        // Paper Fig. 1: "No performance loss for the leading core".
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(60_000);
        let stall =
            s.leader().activity().commit_stall_cycles as f64 / s.leader().activity().cycles as f64;
        assert!(stall < 0.02, "leader stalled {:.3} of cycles", stall);
    }

    #[test]
    fn checker_runs_below_peak_frequency() {
        let mut s = system(Benchmark::Twolf);
        s.prefill_caches();
        s.run_instructions(120_000);
        let mean = s.dfs().mean_fraction();
        assert!(
            mean > 0.2 && mean < 0.95,
            "checker should settle well below peak, got {mean}"
        );
    }

    #[test]
    fn injected_faults_are_detected_and_recovered() {
        let mut s = system(Benchmark::Gzip).with_fault_injection(7, 2e-4, EccConfig::paper());
        s.prefill_caches();
        s.run_instructions(50_000);
        s.drain();
        assert!(s.injector().unwrap().injected() > 0, "faults were injected");
        assert!(s.stats().detected > 0, "checker detected errors");
        assert!(s.stats().recoveries > 0);
        // With full ECC every recovery must restore golden state.
        assert_eq!(s.stats().unrecoverable, 0, "paper config recovers fully");
        assert!(s.leader_matches_golden(), "no silent corruption");
    }

    #[test]
    fn recovery_costs_cycles() {
        let run = |rate: f64| {
            let mut s = system(Benchmark::Gzip).with_fault_injection(3, rate, EccConfig::paper());
            s.prefill_caches();
            s.run_instructions(40_000);
            (s.effective_ipc(), s.stats().recoveries)
        };
        let (clean_ipc, r0) = run(0.0);
        let (faulty_ipc, r1) = run(5e-3);
        assert_eq!(r0, 0);
        assert!(r1 > 0);
        assert!(
            faulty_ipc < clean_ipc,
            "recoveries must cost throughput: {faulty_ipc} vs {clean_ipc}"
        );
    }

    #[test]
    fn boq_faults_are_harmless() {
        // Only inject BOQ-class faults by using a payload mutation
        // directly: branch outcome flips must never corrupt state.
        let mut s = system(Benchmark::Vpr).with_fault_injection(11, 1e-3, EccConfig::paper());
        s.prefill_caches();
        s.run_instructions(30_000);
        s.drain();
        // Any BOQ-site fault must be classified masked or recovered; the
        // system must end architecturally clean either way.
        assert!(s.leader_matches_golden());
    }

    #[test]
    fn slack_is_maintained_near_queue_capacity_fraction() {
        let mut s = system(Benchmark::Mesa);
        s.prefill_caches();
        s.run_instructions(80_000);
        let slack = s.stats().mean_slack();
        assert!(
            slack > 5.0 && slack < 200.0,
            "slack should sit inside the RVQ, got {slack}"
        );
    }

    #[test]
    fn interrupt_service_waits_for_the_checker() {
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(5_000);
        let backlog = s.queues().occupancy().rvq + s.trailer().in_flight();
        let cycles = s.service_interrupt();
        // Everything verified: safe to take the interrupt.
        assert_eq!(s.queues().occupancy().rvq, 0);
        assert_eq!(s.trailer().in_flight(), 0);
        // The wait is bounded by the backlog at checker throughput.
        assert!(
            cycles as usize <= backlog + 64,
            "sync took {cycles} cycles for backlog {backlog}"
        );
        assert_eq!(s.stats().interrupts_serviced, 1);
        // Execution resumes normally afterwards.
        let before = s.leader().activity().committed;
        s.run_instructions(2_000);
        assert!(s.leader().activity().committed > before);
        assert_eq!(s.stats().detected, 0);
    }

    #[test]
    fn interrupt_latency_tracks_slack() {
        // With a near-empty RVQ the synchronization is nearly free.
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(5_000);
        s.drain();
        let cycles = s.service_interrupt();
        assert!(cycles < 16, "drained system syncs instantly, took {cycles}");
    }

    /// Steps until a directed fault lands, then returns the outcome.
    fn inject_when_possible(s: &mut RmtSystem, fault: crate::DrawnFault) -> DirectedOutcome {
        use crate::DirectedOutcome::*;
        for _ in 0..10_000 {
            match s.inject_directed(fault, EccConfig::paper()) {
                NoTarget => s.step(),
                outcome => return outcome,
            }
        }
        panic!("no target op ever appeared for {fault:?}");
    }

    #[test]
    fn directed_unprotected_faults_are_detected() {
        use crate::DrawnFault;
        for site in [FaultSite::LeaderResult, FaultSite::RvqOperand] {
            let mut s = system(Benchmark::Gzip);
            s.prefill_caches();
            s.run_instructions(3_000);
            let out = inject_when_possible(
                &mut s,
                DrawnFault {
                    site,
                    bit: 13,
                    reg: 0,
                },
            );
            assert_eq!(out, DirectedOutcome::Applied);
            s.run_instructions(2_000);
            s.drain();
            assert!(s.stats().detected > 0, "{site:?} must be detected");
            assert_eq!(s.stats().unrecoverable, 0);
            assert!(s.leader_matches_golden());
            assert!(s.trailer_matches_golden());
            assert_eq!(
                s.fault_fates(),
                &[(site, FaultFate::DetectedRecovered)],
                "{site:?}"
            );
        }
    }

    #[test]
    fn directed_ecc_sites_are_corrected() {
        use crate::DrawnFault;
        for site in [FaultSite::LvqValue, FaultSite::TrailerRegfile] {
            let mut s = system(Benchmark::Gzip);
            s.prefill_caches();
            s.run_instructions(3_000);
            let out = s.inject_directed(
                DrawnFault {
                    site,
                    bit: 5,
                    reg: 3,
                },
                EccConfig::paper(),
            );
            assert_eq!(out, DirectedOutcome::CorrectedByEcc, "{site:?}");
            s.drain();
            assert_eq!(s.stats().detected, 0);
            assert!(s.fault_fates().is_empty());
            assert!(s.trailer_matches_golden());
        }
    }

    /// The premise of the campaign's absorbed-strike shortcut: a strike
    /// that ECC absorbs leaves the system on its fault-free trajectory.
    #[test]
    fn absorbed_strikes_leave_the_fault_free_trajectory_unchanged() {
        use crate::DrawnFault;
        for site in [FaultSite::LvqValue, FaultSite::TrailerRegfile] {
            let mut struck = system(Benchmark::Gzip);
            struck.prefill_caches();
            struck.run_instructions(3_000);
            let mut free = struck.clone();
            let fault = DrawnFault {
                site,
                bit: 17,
                reg: 5,
            };
            let out = struck.inject_directed(fault, EccConfig::paper());
            assert_eq!(out, DirectedOutcome::CorrectedByEcc, "{site:?}");
            assert_same_state(&struck, &free);
            assert_eq!(struck.fault_fates(), free.fault_fates());
            run_to_6000_and_drain([&mut struck, &mut free]);
            assert_same_state(&struck, &free);
            assert_eq!(struck.fault_fates(), free.fault_fates());
        }
    }

    /// The premise of the campaign's BOQ shortcut: a flipped branch
    /// outcome in the queue is a hint nothing downstream reads, so the
    /// system stays on its fault-free trajectory and only records the
    /// strike.
    #[test]
    fn boq_strikes_leave_the_fault_free_trajectory_unchanged() {
        use crate::DrawnFault;
        let fault = DrawnFault {
            site: FaultSite::BoqOutcome,
            bit: 0,
            reg: 0,
        };
        for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
            let mut struck = system(benchmark);
            struck.prefill_caches();
            struck.run_instructions(3_000);
            // Step until a branch is queued; the clone is the system
            // just before the strike lands.
            let mut free = loop {
                let free = struck.clone();
                match struck.inject_directed(fault, EccConfig::paper()) {
                    DirectedOutcome::NoTarget => struck.step(),
                    out => {
                        assert_eq!(out, DirectedOutcome::Applied, "{benchmark:?}");
                        break free;
                    }
                }
            };
            assert_same_state(&struck, &free);
            run_to_6000_and_drain([&mut struck, &mut free]);
            assert_same_state(&struck, &free);
            assert!(free.fault_fates().is_empty());
            assert_eq!(
                struck.fault_fates(),
                &[(FaultSite::BoqOutcome, FaultFate::Masked)]
            );
        }
    }

    /// `strike_target` names the op `inject_directed` strikes: at every
    /// cycle of a short run and for every payload site, it is `None`
    /// exactly when the strike finds no target, and otherwise the one
    /// queued op the strike changes.
    #[test]
    fn strike_target_agrees_with_inject_directed_at_every_cycle() {
        use crate::DrawnFault;
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        let (mut found, mut missed) = (0, 0);
        while s.leader().activity().committed < 400 {
            for site in FaultSite::ALL {
                if site == FaultSite::TrailerRegfile {
                    assert_eq!(s.strike_target(site), None);
                    continue;
                }
                let target = s.strike_target(site);
                let mut struck = s.clone();
                let fault = DrawnFault {
                    site,
                    bit: 3,
                    reg: 1,
                };
                let out = struck.inject_directed(fault, EccConfig::none());
                assert_eq!(
                    target.is_none(),
                    out == DirectedOutcome::NoTarget,
                    "{site:?}"
                );
                let changed: Vec<usize> = (s.queues().stream().iter())
                    .zip(struck.queues().stream())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(changed, Vec::from_iter(target), "{site:?}");
                found += usize::from(target.is_some());
                missed += usize::from(target.is_none());
            }
            s.step();
        }
        assert!(
            found > 0 && missed > 0,
            "both answers occur: {found}/{missed}"
        );
    }

    fn run_to_6000_and_drain(systems: [&mut RmtSystem; 2]) {
        for s in systems {
            while s.leader().activity().committed < 6_000 {
                s.step();
            }
            s.drain();
        }
    }

    /// Everything but `fault_fates()`, which records the strikes.
    fn assert_same_state(a: &RmtSystem, b: &RmtSystem) {
        assert_eq!(a.leader().regfile(), b.leader().regfile());
        assert_eq!(a.trailer().regfile(), b.trailer().regfile());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.leader().activity(), b.leader().activity());
        assert_eq!(a.trailer().activity(), b.trailer().activity());
    }

    #[test]
    fn directed_boq_fault_is_masked_and_harmless() {
        use crate::DrawnFault;
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(3_000);
        let out = inject_when_possible(
            &mut s,
            DrawnFault {
                site: FaultSite::BoqOutcome,
                bit: 0,
                reg: 0,
            },
        );
        assert_eq!(out, DirectedOutcome::Applied);
        s.run_instructions(2_000);
        s.drain();
        assert_eq!(s.stats().detected, 0, "BOQ hints are never compared");
        assert_eq!(
            s.fault_fates(),
            &[(FaultSite::BoqOutcome, FaultFate::Masked)]
        );
        assert!(s.leader_matches_golden());
        assert!(s.trailer_matches_golden());
    }

    #[test]
    fn directed_trailer_fault_without_ecc_corrupts_recovery_point() {
        use crate::DrawnFault;
        // The §3.5 concern: with trailer-regfile ECC disabled, a strike
        // there either surfaces as an unrecoverable recovery or as
        // latent trailer-state corruption.
        let mut s = system(Benchmark::Gzip);
        s.prefill_caches();
        s.run_instructions(3_000);
        let out = s.inject_directed(
            DrawnFault {
                site: FaultSite::TrailerRegfile,
                bit: 60,
                reg: 7,
            },
            EccConfig {
                lvq: true,
                trailer_regfile: false,
            },
        );
        assert_eq!(out, DirectedOutcome::Applied);
        s.run_instructions(5_000);
        s.drain();
        let violated = s.stats().unrecoverable > 0 || !s.trailer_matches_golden();
        let healed = s.trailer_matches_golden() && s.stats().unrecoverable == 0;
        assert!(
            violated || healed,
            "fault must either surface or be overwritten"
        );
    }

    #[test]
    fn frequency_histogram_is_a_distribution() {
        let mut s = system(Benchmark::Gap);
        s.prefill_caches();
        s.run_instructions(100_000);
        let h = s.frequency_histogram();
        let sum: f64 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
