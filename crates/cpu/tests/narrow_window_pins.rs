//! Regression pins for narrow out-of-order configurations.
//!
//! The Table 1 core rarely runs out of issue slots; these configurations
//! do so constantly, which exercises the select path that must retry on
//! the very next cycle. Each run pins an FNV-1a hash of the commit
//! stream `(seq, commit_cycle, result)` and of the final
//! `ActivityCounters`, plus the cycle count for a readable diff. The
//! values were captured from the rescan-every-cycle select, so they
//! prove the waiter-list select retires the same ops on the same
//! cycles with the same values.

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

/// A 2-wide front end and commit with a single integer multiplier.
fn two_wide_one_mul() -> CoreConfig {
    CoreConfig {
        fetch_width: 2,
        dispatch_width: 2,
        commit_width: 2,
        int_mul: 1,
        ..CoreConfig::leading_ev7_like()
    }
}

/// Runs `INSTRUCTIONS` commits; returns (cycles, commit-stream hash,
/// activity hash).
fn run(cfg: CoreConfig, b: Benchmark) -> (u64, u64, u64) {
    let mut core = OooCore::new(
        cfg,
        TraceGenerator::new(b.profile()),
        CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
    );
    core.prefill_caches();
    let mut out = Vec::new();
    let mut stream = FNV_OFFSET;
    while core.activity().committed < INSTRUCTIONS {
        // A select that stops waking up stalls the core for good: fail
        // instead of spinning.
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
    let activity = fnv1a(FNV_OFFSET, format!("{a:?}").as_bytes());
    (a.cycles, stream, activity)
}

fn check(cfg: CoreConfig, pins: [(Benchmark, (u64, u64, u64)); 3]) {
    for (b, want) in pins {
        let got = run(cfg, b);
        assert_eq!(got, want, "{b:?}: (cycles, commit hash, activity hash)");
    }
}

#[test]
fn checker_as_leader_commit_stream_is_pinned() {
    check(
        CoreConfig::checker_as_leader(),
        [
            (
                Benchmark::Mcf,
                (88_844, 2834975041334102986, 2315609245211423858),
            ),
            (
                Benchmark::Swim,
                (44_563, 17412858034418292316, 662117020080436423),
            ),
            (
                Benchmark::Gzip,
                (16_708, 9692723408190015908, 13632583784010530811),
            ),
        ],
    );
}

#[test]
fn two_wide_single_multiplier_commit_stream_is_pinned() {
    check(
        two_wide_one_mul(),
        [
            (
                Benchmark::Mcf,
                (84_810, 997807265954888434, 13978865895203724171),
            ),
            (
                Benchmark::Swim,
                (35_805, 6731795364613759856, 4239852877962524337),
            ),
            (
                Benchmark::Gzip,
                (17_284, 4444584121551126553, 9546839451834818908),
            ),
        ],
    );
}
