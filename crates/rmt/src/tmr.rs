//! Triple modular redundancy — the §4 extension.
//!
//! The paper notes that if the checker is as error-prone as the leader,
//! guaranteed recovery needs an ECC-protected checker register file "and
//! possibly even a third core to implement triple modular redundancy
//! (TMR)". This module provides that third core: two identical in-order
//! checkers verify the leading core, and disagreements are resolved by
//! majority vote instead of rollback:
//!
//! * both checkers agree with the leader — verified;
//! * one checker disagrees — the leader + other checker outvote it; the
//!   losing checker's register file is repaired from the winner's
//!   (forward recovery: **zero leader stall**, no ECC needed);
//! * both checkers disagree with the leader — the leader is outvoted;
//!   its register file is restored from the checkers' agreed state.
//!
//! TMR thus tolerates checker-state corruption that the dual-core
//! system can only handle with ECC, at the price of a second checker's
//! power and die area.

use crate::dfs::{DfsConfig, DfsController};
use crate::fault::{DrawnFault, EccConfig, FaultInjector, FaultSite};
use rmt3d_cpu::{
    load_memory_value, CheckOutcome, CommitRing, CommittedOp, InOrderCore, OooCore, TrailerConfig,
    Verification,
};
use rmt3d_workload::OpClass;
use std::collections::VecDeque;

/// TMR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmrStats {
    /// Instructions verified by both checkers.
    pub verified: u64,
    /// Votes where one checker was outvoted and repaired.
    pub checker_outvoted: u64,
    /// Votes where the leader was outvoted and restored.
    pub leader_outvoted: u64,
    /// Three-way disagreements (unresolvable by vote; counted, then
    /// resolved pessimistically from checker 0).
    pub unresolved: u64,
}

/// A leading core checked by two voting in-order cores.
#[derive(Debug)]
pub struct TmrSystem {
    leader: OooCore,
    checkers: [InOrderCore; 2],
    rings: [CommitRing; 2],
    dfs: DfsController,
    injector: Option<FaultInjector>,
    accum: f64,
    golden: [u64; 64],
    stats: TmrStats,
    rvq_capacity: usize,
    commit_buf: Vec<CommittedOp>,
    vbuf: [Vec<Verification>; 2],
    /// Pending verifications awaiting their sibling, keyed implicitly by
    /// arrival order (identical checkers run in lockstep).
    pending: [VecDeque<Verification>; 2],
}

impl TmrSystem {
    /// Builds a TMR system around a leading core.
    pub fn new(leader: OooCore) -> TmrSystem {
        let cfg = TrailerConfig::checker();
        TmrSystem {
            leader,
            checkers: [InOrderCore::new(cfg), InOrderCore::new(cfg)],
            rings: [CommitRing::default(), CommitRing::default()],
            dfs: DfsController::new(DfsConfig::paper()),
            injector: None,
            accum: 0.0,
            golden: [0; 64],
            stats: TmrStats::default(),
            rvq_capacity: 200,
            commit_buf: Vec::with_capacity(8),
            vbuf: [Vec::new(), Vec::new()],
            pending: [VecDeque::new(), VecDeque::new()],
        }
    }

    /// Enables fault injection. TMR is typically exercised with
    /// [`EccConfig::none`]: voting replaces ECC.
    pub fn with_fault_injection(mut self, seed: u64, rate: f64, ecc: EccConfig) -> TmrSystem {
        self.injector = Some(FaultInjector::new(seed, rate, ecc));
        self
    }

    /// The leading core.
    pub fn leader(&self) -> &OooCore {
        &self.leader
    }

    /// Voting statistics.
    pub fn stats(&self) -> TmrStats {
        self.stats
    }

    /// True when the leader's architectural state matches the fault-free
    /// golden execution.
    pub fn leader_matches_golden(&self) -> bool {
        self.leader.regfile() == &self.golden
    }

    /// Warms the leader's caches.
    pub fn prefill_caches(&mut self) {
        self.leader.prefill_caches();
    }

    fn update_golden(&mut self, item: &CommittedOp) {
        let op = item.op;
        let s1 = op.src1_reg.map_or(0, |r| self.golden[r.index() as usize]);
        let s2 = op.src2_reg.map_or(0, |r| self.golden[r.index() as usize]);
        let result = match op.kind {
            OpClass::Load => load_memory_value(op.mem_addr),
            OpClass::Store | OpClass::Branch => 0,
            _ => op.compute_result(s1, s2),
        };
        if let Some(d) = op.dest {
            self.golden[d.index() as usize] = result;
        }
    }

    fn apply_fault(&mut self, fault: DrawnFault, item: &mut [CommittedOp; 2]) {
        match fault.site {
            FaultSite::TrailerRegfile => {
                // Strike one checker's register file (alternating by bit
                // parity to spread strikes).
                let victim = (fault.bit & 1) as usize;
                self.checkers[victim].flip_regfile_bit(fault.reg, fault.bit);
            }
            FaultSite::LeaderResult => {
                // A leader datapath fault corrupts the value seen by
                // *both* checkers (it is the committed result).
                FaultInjector::apply_to_payload(fault, &mut item[0]);
                FaultInjector::apply_to_payload(fault, &mut item[1]);
            }
            _ => {
                // Queue/transit faults strike one copy.
                let victim = (fault.bit & 1) as usize;
                FaultInjector::apply_to_payload(fault, &mut item[victim]);
            }
        }
    }

    /// Advances one leading-core cycle.
    pub fn step(&mut self) {
        let full = self.rings[0].queued() + 4 > self.rvq_capacity
            || self.rings[1].queued() + 4 > self.rvq_capacity;
        self.leader.set_commit_stall(full);
        self.commit_buf.clear();
        self.leader.step_cycle(&mut self.commit_buf);
        for i in 0..self.commit_buf.len() {
            let item = self.commit_buf[i];
            self.update_golden(&item);
            let mut copies = [item, item];
            if let Some(fault) = self.injector.as_mut().and_then(FaultInjector::draw) {
                self.apply_fault(fault, &mut copies);
            }
            self.rings[0].push(copies[0]);
            self.rings[1].push(copies[1]);
        }

        self.dfs
            .tick(self.rings[0].queued() as f64 / self.rvq_capacity as f64);
        self.accum += self.dfs.current().fraction();
        while self.accum >= 1.0 {
            self.accum -= 1.0;
            for c in 0..2 {
                self.checkers[c].step_cycle(&mut self.rings[c], &mut self.vbuf[c]);
                self.pending[c].extend(self.vbuf[c].drain(..));
            }
            self.vote();
        }
    }

    /// Majority voting over paired verifications.
    fn vote(&mut self) {
        while !self.pending[0].is_empty() && !self.pending[1].is_empty() {
            let a = self.pending[0].pop_front().expect("nonempty");
            let b = self.pending[1].pop_front().expect("nonempty");
            debug_assert_eq!(a.seq, b.seq, "checkers verify in lockstep");
            // A non-Ok verification parks its payload on the emitting
            // checker; pop it to keep the side buffers in lockstep.
            match (a.outcome == CheckOutcome::Ok, b.outcome == CheckOutcome::Ok) {
                (true, true) => self.stats.verified += 1,
                (true, false) => {
                    // Checker 1 outvoted: repair it from checker 0.
                    let _ = self.checkers[1].pop_error_item();
                    self.repair_checker(1, &b);
                    self.stats.checker_outvoted += 1;
                }
                (false, true) => {
                    let _ = self.checkers[0].pop_error_item();
                    self.repair_checker(0, &a);
                    self.stats.checker_outvoted += 1;
                }
                (false, false) => {
                    let disputed = self.checkers[0].pop_error_item();
                    let _ = self.checkers[1].pop_error_item();
                    debug_assert_eq!(disputed.op.seq, a.seq);
                    if a.result == b.result {
                        // The checkers agree with each other: the leader
                        // (payload) was wrong. Restore the leader.
                        self.repair_leader(&disputed);
                        self.stats.leader_outvoted += 1;
                    } else {
                        // Three-way split: resolve from checker 0 (and
                        // count it — the paper's unresolvable case).
                        self.repair_leader(&disputed);
                        self.stats.unresolved += 1;
                    }
                }
            }
        }
    }

    /// Repairs an outvoted checker: replay the disputed instruction
    /// architecturally on the *winner*, then copy its register file into
    /// the loser. Forward recovery — the leader never stalls.
    fn repair_checker(&mut self, loser: usize, loser_v: &Verification) {
        let winner = 1 - loser;
        // The winner already retired this instruction; the loser refused
        // to. Replay it on the loser from the winner's state.
        let rf = *self.checkers[winner].regfile();
        self.checkers[loser].restore_regfile(&rf);
        let _ = loser_v;
    }

    /// Resolves a leader-outvoted instruction: the checkers replay it
    /// architecturally from their own (checked, correct) state and
    /// retire it with the agreed value. The disputed value lived only in
    /// the transit payload; the leading core's own architectural state
    /// is untouched — checker regfiles lag the leader, so copying them
    /// upward would rewind correct state and cascade false mismatches.
    /// (A persistent fault in the leader's register file itself needs
    /// the rollback recovery of `RmtSystem`, which TMR can trigger just
    /// as well; the vote merely localizes the faulty component first.)
    fn repair_leader(&mut self, disputed: &CommittedOp) {
        self.checkers[0].architectural_replay(disputed);
        let rf = *self.checkers[0].regfile();
        self.checkers[1].restore_regfile(&rf);
    }

    /// Runs until `n` instructions commit.
    pub fn run_instructions(&mut self, n: u64) {
        let start = self.leader.activity().committed;
        while self.leader.activity().committed - start < n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
    use rmt3d_cpu::CoreConfig;
    use rmt3d_workload::{Benchmark, TraceGenerator};

    fn tmr(rate: f64, seed: u64) -> TmrSystem {
        let leader = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(Benchmark::Gzip.profile()),
            CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
        );
        let mut sys = TmrSystem::new(leader);
        if rate > 0.0 {
            sys = sys.with_fault_injection(seed, rate, EccConfig::none());
        }
        sys.prefill_caches();
        sys
    }

    #[test]
    fn clean_run_verifies_everything() {
        let mut s = tmr(0.0, 0);
        s.run_instructions(20_000);
        assert!(s.stats().verified > 15_000);
        assert_eq!(s.stats().checker_outvoted, 0);
        assert_eq!(s.stats().leader_outvoted, 0);
        assert!(s.leader_matches_golden());
    }

    #[test]
    fn tmr_survives_without_any_ecc() {
        // The dual-core design needs trailer-regfile ECC; TMR votes
        // instead and must stay architecturally clean with ECC off.
        let mut s = tmr(1e-3, 11);
        s.run_instructions(60_000);
        let st = s.stats();
        assert!(
            st.checker_outvoted + st.leader_outvoted > 0,
            "faults produced votes: {st:?}"
        );
        assert!(s.leader_matches_golden(), "TMR must mask everything");
    }

    #[test]
    fn checker_faults_never_stall_the_leader() {
        let mut s = tmr(2e-3, 3);
        s.run_instructions(40_000);
        // Forward recovery: no recovery-stall mechanism exists at all,
        // so commit stalls come only from queue back-pressure.
        let a = s.leader().activity();
        assert!(
            (a.commit_stall_cycles as f64) < 0.1 * a.cycles as f64,
            "stalls {} of {}",
            a.commit_stall_cycles,
            a.cycles
        );
        assert!(s.leader_matches_golden());
    }

    #[test]
    fn vote_statistics_are_consistent() {
        let mut s = tmr(5e-3, 19);
        s.run_instructions(30_000);
        let st = s.stats();
        let total = st.verified + st.checker_outvoted + st.leader_outvoted + st.unresolved;
        assert!(total >= 29_000, "every instruction gets a vote: {st:?}");
    }
}
