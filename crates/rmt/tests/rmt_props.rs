//! Property tests over the RMT machinery: queue conservation, DFS
//! boundedness, fault-injection coverage and recovery invariants.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream so every failure
//! replays deterministically without an external property-test crate.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CoreConfig, InOrderCore, OooCore, TrailerConfig};
use rmt3d_rmt::{
    DfsConfig, EccConfig, IntercoreQueues, QueueConfig, RmtConfig, RmtSystem, TmrSystem,
};
use rmt3d_workload::{ArchReg, Benchmark, MemRef, MicroOp, OpClass, SplitMix64, TraceGenerator};

fn item(seq: u64, kind: OpClass) -> rmt3d_cpu::CommittedOp {
    rmt3d_cpu::CommittedOp {
        op: MicroOp {
            seq,
            pc: 0x40_0000,
            kind,
            dest: kind.writes_register().then(|| ArchReg::new(1)),
            imm: seq,
            mem_addr: MicroOp::pack_mem(kind.is_memory().then_some(MemRef { addr: 64, size: 8 })),
            ..MicroOp::EMPTY
        },
        result: 0,
        src1_value: (kind == OpClass::Store) as u64 * 2,
        src2_value: 0,
        mem_value: (kind == OpClass::Load) as u64,
        commit_cycle: seq,
    }
}

#[test]
fn queue_occupancy_is_conserved() {
    let mut rng = SplitMix64::new(0x0cc);
    for _ in 0..32 {
        let n = rng.range_u64(1, 120) as usize;
        let kinds: Vec<OpClass> = (0..n).map(|_| OpClass::ALL[rng.below_usize(7)]).collect();
        let mut q = IntercoreQueues::new(QueueConfig::paper());
        let mut pushed = 0usize;
        for (i, &k) in kinds.iter().enumerate() {
            if q.can_accept(1) {
                q.ring_mut().push(item(i as u64, k));
                q.admit_commit();
                pushed += 1;
            }
        }
        assert_eq!(q.occupancy().rvq, pushed);
        // A checker verifying the whole stream empties every logical
        // queue.
        let mut checker = InOrderCore::new(TrailerConfig::checker());
        let mut out = Vec::new();
        while out.len() < pushed {
            checker.step_cycle(q.ring_mut(), &mut out);
        }
        let o = q.occupancy();
        assert_eq!((o.rvq, o.lvq, o.boq, o.stb), (0, 0, 0, 0));
        // Peaks are monotone records.
        assert!(q.peak_occupancy().rvq >= 1 || pushed == 0);
    }
}

#[test]
fn dfs_histogram_mass_equals_decisions() {
    let mut rng = SplitMix64::new(0xd1f5);
    for _ in 0..32 {
        let n = rng.range_u64(1, 50) as usize;
        let mut d = rmt3d_rmt::DfsController::new(DfsConfig::paper());
        let mut ticks = 0u64;
        for _ in 0..n {
            let f = rng.next_f64();
            for _ in 0..250 {
                d.tick(f);
                ticks += 1;
            }
        }
        let decisions: u64 = d.histogram_counts().iter().sum();
        assert_eq!(decisions, d.intervals());
        assert_eq!(d.intervals(), ticks / DfsConfig::paper().interval);
    }
}

#[test]
fn rmt_recovers_at_any_fault_rate() {
    let mut rng = SplitMix64::new(0x4ec0);
    for _ in 0..8 {
        let seed = rng.below(1000);
        let rate_exp = rng.range_u64(1, 4) as u32;
        // Rates from 1e-4 to 1e-2: with the paper ECC set, golden state
        // must always be restored.
        let rate = 10f64.powi(-(rate_exp as i32 + 1));
        let leader = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(Benchmark::Gzip.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut sys = RmtSystem::new(leader, RmtConfig::paper()).with_fault_injection(
            seed,
            rate,
            EccConfig::paper(),
        );
        sys.prefill_caches();
        sys.run_instructions(12_000);
        sys.drain();
        assert_eq!(sys.stats().unrecoverable, 0);
        assert!(sys.leader_matches_golden());
        // Recovery squashes re-execute work architecturally, so at high
        // fault rates many instructions retire via replay instead of
        // normal verification; the invariant is golden-state equality,
        // not the verified count.
        assert!(sys.stats().verified_ok > 0);
    }
}

/// Promoted from `rmt_props.proptest-regressions` (case
/// `cc 795a865b…`, "shrinks to seed = 0, rate_exp = 1"): the shrunk
/// historical failure of [`rmt_recovers_at_any_fault_rate`], pinned as
/// a named test so it replays on every run — by name, with no seed
/// file — and never regresses silently.
#[test]
fn regression_seed0_rate_exp1_recovers_at_percent_fault_rate() {
    let seed = 0;
    let rate_exp: u32 = 1;
    let rate = 10f64.powi(-(rate_exp as i32 + 1)); // 1e-2: the harshest drawn rate
    let leader = OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(Benchmark::Gzip.profile()),
        CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
    );
    let mut sys = RmtSystem::new(leader, RmtConfig::paper()).with_fault_injection(
        seed,
        rate,
        EccConfig::paper(),
    );
    sys.prefill_caches();
    sys.run_instructions(12_000);
    sys.drain();
    assert_eq!(sys.stats().unrecoverable, 0);
    assert!(sys.leader_matches_golden());
    assert!(sys.stats().verified_ok > 0);
    // The regression case strikes often enough to exercise recovery,
    // not just verification.
    assert!(sys.stats().recoveries > 0, "stats {:?}", sys.stats());
}

#[test]
fn tmr_masks_everything_without_ecc() {
    let mut rng = SplitMix64::new(0x73a);
    for _ in 0..6 {
        let seed = rng.below(500);
        let leader = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(Benchmark::Vpr.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut sys = TmrSystem::new(leader).with_fault_injection(seed, 2e-3, EccConfig::none());
        sys.prefill_caches();
        sys.run_instructions(10_000);
        assert!(sys.leader_matches_golden(), "stats {:?}", sys.stats());
    }
}
