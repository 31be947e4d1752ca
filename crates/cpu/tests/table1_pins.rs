//! Regression pins for the Table 1 leading core.
//!
//! Each run prefills the caches, commits `INSTRUCTIONS` ops on the
//! `leading_ev7_like` core over the 2d-a hierarchy and pins the cycle
//! count, an FNV-1a hash of the commit stream `(seq, commit_cycle,
//! result)`, and an FNV-1a hash of the final `ActivityCounters` and
//! `HierarchyStats`. The values were captured from the select that
//! rescanned blocked ops every cycle, the per-class `match`es in
//! dispatch, issue and commit, and the line-by-line cache prefill, so
//! they prove the waiter-list select, the class tables and the run
//! installers retire the same ops on the same cycles with the same
//! values and leave the same cache traffic behind.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CoreConfig, OooCore};
use rmt3d_workload::{Benchmark, TraceGenerator};

const INSTRUCTIONS: u64 = 20_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `INSTRUCTIONS` commits; returns (cycles, commit-stream hash,
/// activity-and-cache-statistics hash).
fn run(b: Benchmark) -> (u64, u64, u64) {
    let mut core = OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(b.profile()),
        CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
    );
    core.prefill_caches();
    let mut out = Vec::new();
    let mut stream = FNV_OFFSET;
    while core.activity().committed < INSTRUCTIONS {
        assert!(
            core.cycle() < 50 * INSTRUCTIONS,
            "{b:?}: core stopped committing"
        );
        out.clear();
        core.step_cycle(&mut out);
        for c in &out {
            for v in [c.op.seq, c.commit_cycle, c.result] {
                stream = fnv1a(stream, &v.to_le_bytes());
            }
        }
    }
    let a = core.activity();
    let state = format!("{a:?} {:?}", core.caches().stats());
    (a.cycles, stream, fnv1a(FNV_OFFSET, state.as_bytes()))
}

#[test]
fn table1_leader_commit_stream_is_pinned() {
    let pins = [
        (
            Benchmark::Gzip,
            (13_806, 303676618048291051, 8902287683858843720),
        ),
        (
            Benchmark::Twolf,
            (34_682, 15665066665989032003, 8964276956113945585),
        ),
        (
            Benchmark::Mcf,
            (83_149, 6947476744990841996, 7065090635280162665),
        ),
        (
            Benchmark::Art,
            (67_724, 13568071759738779202, 3245485793653359515),
        ),
        (
            Benchmark::Swim,
            (34_685, 14879431923023140309, 6894025396417858076),
        ),
        (
            Benchmark::Equake,
            (28_597, 13211956838929939168, 3945675282556383645),
        ),
    ];
    for (b, want) in pins {
        let got = run(b);
        assert_eq!(got, want, "{b:?}: (cycles, commit hash, state hash)");
    }
}
