//! Regression pins for the in-order checker.
//!
//! Each run feeds a committed stream from the Table 1 leader through a
//! checker and pins an FNV-1a hash of every verification
//! `(seq, outcome, result)`, an FNV-1a hash of the checker's final
//! `ActivityCounters`, and its cycle count. Four streams per benchmark:
//! clean, a flipped result, a flipped operand, and a flipped
//! `src1_value` on an op with no `src1_reg` (an operand that must never
//! be compared; with RVP it still feeds the recomputed result, so the
//! check fails as a result mismatch where the op writes a register).
//! The values were captured from the checker that kept a
//! private pipeline ring and matched on the op class per check, so they
//! prove the table-driven checker on the shared commit ring produces
//! the same verifications on the same cycles.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CheckOutcome, CommitRing, CoreConfig, InOrderCore, OooCore, TrailerConfig};
use rmt3d_workload::{Benchmark, TraceGenerator};

const OPS: usize = 6_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How the stream is corrupted before the checker sees it.
#[derive(Debug, Clone, Copy)]
enum Case {
    Clean,
    /// A result bit of the first register-writing op from the middle.
    ResultFlip,
    /// A `src1_value` bit of the first op with a `src1_reg` from the
    /// middle.
    OperandFlip,
    /// A `src1_value` bit of the first op with no `src1_reg` (such ops
    /// only occur near the start): the checker must not compare it.
    AbsentOperandFlip,
}

fn stream(b: Benchmark, case: Case) -> Vec<rmt3d_cpu::CommittedOp> {
    let mut core = OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(b.profile()),
        CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
    );
    core.prefill_caches();
    let mut out = Vec::new();
    while out.len() < OPS {
        core.step_cycle(&mut out);
    }
    out.truncate(OPS);
    let mid = OPS / 2;
    let victim = |from: usize, pred: &dyn Fn(&rmt3d_cpu::CommittedOp) -> bool| {
        (from..OPS)
            .find(|&i| pred(&out[i]))
            .expect("a victim op exists")
    };
    match case {
        Case::Clean => {}
        Case::ResultFlip => {
            let i = victim(mid, &|c| c.op.dest.is_some());
            out[i].result ^= 1 << 21;
        }
        Case::OperandFlip => {
            let i = victim(mid, &|c| c.op.src1_reg.is_some());
            out[i].src1_value ^= 1 << 9;
        }
        Case::AbsentOperandFlip => {
            let i = victim(0, &|c| c.op.src1_reg.is_none());
            out[i].src1_value ^= 1 << 9;
        }
    }
    out
}

/// Per benchmark, the pinned `(cycles, verification hash, activity
/// hash)` of each [`Case`], in declaration order.
type Pins = [(Benchmark, [(u64, u64, u64); 4]); 3];

/// Verifies the whole stream; returns (cycles, verification hash,
/// activity hash).
fn verify(cfg: TrailerConfig, ops: &[rmt3d_cpu::CommittedOp]) -> (u64, u64, u64) {
    let mut t = InOrderCore::new(cfg);
    let mut ring = CommitRing::with_capacity(ops.len());
    for op in ops {
        ring.push(*op);
    }
    let mut out = Vec::new();
    while out.len() < ops.len() {
        assert!(t.cycle() < 20 * ops.len() as u64, "checker wedged");
        t.step_cycle(&mut ring, &mut out);
    }
    let mut h = FNV_OFFSET;
    for v in &out {
        let outcome = match v.outcome {
            CheckOutcome::Ok => 0u64,
            CheckOutcome::ResultMismatch => 1,
            CheckOutcome::OperandMismatch => 2,
        };
        for x in [v.seq, outcome, v.result] {
            h = fnv1a(h, &x.to_le_bytes());
        }
    }
    let a = t.activity();
    (t.cycle(), h, fnv1a(FNV_OFFSET, format!("{a:?}").as_bytes()))
}

fn check(cfg: TrailerConfig, pins: Pins) {
    for (b, want) in pins {
        for (case, want) in [
            Case::Clean,
            Case::ResultFlip,
            Case::OperandFlip,
            Case::AbsentOperandFlip,
        ]
        .into_iter()
        .zip(want)
        {
            let got = verify(cfg, &stream(b, case));
            assert_eq!(
                got, want,
                "{b:?} {case:?}: (cycles, verification hash, activity hash)"
            );
        }
    }
}

#[test]
fn checker_with_rvp_verifications_are_pinned() {
    check(TrailerConfig::checker(), PINS_RVP);
}

#[test]
fn checker_without_rvp_verifications_are_pinned() {
    check(TrailerConfig::checker_no_rvp(), PINS_NO_RVP);
}

const PINS_RVP: Pins = [
    (
        Benchmark::Gzip,
        [
            (2001, 1351328436789967079, 9660813442780537242),
            (2001, 4843645778812628674, 15722919646891707646),
            (2001, 4311279720676306385, 15722919646891707646),
            (2001, 1351328436789967079, 9660813442780537242),
        ],
    ),
    (
        Benchmark::Mcf,
        [
            (2002, 17218190967485749845, 15896234690783420565),
            (2002, 13296700786197272532, 658744419395813283),
            (2002, 15771007566708543363, 2228777249667380323),
            (2002, 11609013773790028936, 11011600131416619557),
        ],
    ),
    (
        Benchmark::Swim,
        [
            (2038, 14178096516667635923, 4940911736009979209),
            (2038, 17104190039997976096, 2985660059940550274),
            (2038, 7577840494723591338, 2985660059940550274),
            (2038, 14178096516667635923, 4940911736009979209),
        ],
    ),
];

const PINS_NO_RVP: Pins = [
    (
        Benchmark::Gzip,
        [
            (2292, 1351328436789967079, 10613142685167049556),
            (2292, 2388682086385625694, 12607885225995620409),
            (2292, 1351328436789967079, 10613142685167049556),
            (2292, 1351328436789967079, 10613142685167049556),
        ],
    ),
    (
        Benchmark::Mcf,
        [
            (3411, 17218190967485749845, 2329712712812333322),
            (3411, 10661117900758920373, 665228149688246262),
            (3411, 17218190967485749845, 2329712712812333322),
            (3411, 17218190967485749845, 2329712712812333322),
        ],
    ),
    (
        Benchmark::Swim,
        [
            (5157, 14178096516667635923, 15518118388349387344),
            (5157, 1248777821876169043, 8507759444095702950),
            (5157, 14178096516667635923, 15518118388349387344),
            (5157, 14178096516667635923, 15518118388349387344),
        ],
    ),
];
