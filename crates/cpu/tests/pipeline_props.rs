//! Property tests over the core pipelines: structural invariants must
//! hold for every benchmark profile and random configuration tweak.
//!
//! Cases come from a seeded [`SplitMix64`] stream for bit-for-bit
//! reproducibility without an external property-test dependency.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{
    CheckOutcome, CommitRing, CommittedOp, CoreConfig, InOrderCore, OooCore, TrailerConfig,
};
use rmt3d_workload::{Benchmark, SplitMix64, TraceGenerator};

fn ring_of(stream: Vec<CommittedOp>) -> CommitRing {
    let mut ring = CommitRing::with_capacity(stream.len());
    for c in stream {
        ring.push(c);
    }
    ring
}

fn any_benchmark(rng: &mut SplitMix64) -> Benchmark {
    Benchmark::ALL[rng.below_usize(19)]
}

#[test]
fn commits_are_in_order_and_complete() {
    let mut rng = SplitMix64::new(0x0de2);
    for _ in 0..24 {
        let b = any_benchmark(&mut rng);
        let cycles = rng.range_u64(500, 3000);
        let mut core = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut out = Vec::new();
        for _ in 0..cycles {
            core.step_cycle(&mut out);
        }
        for w in out.windows(2) {
            assert_eq!(w[1].op.seq, w[0].op.seq + 1);
        }
        let a = core.activity();
        assert!(a.committed <= a.dispatched);
        assert!(a.dispatched <= a.fetched);
        assert!(a.issued <= a.dispatched);
    }
}

#[test]
fn narrow_cores_are_never_faster() {
    let mut rng = SplitMix64::new(0xa22);
    for _ in 0..6 {
        let b = any_benchmark(&mut rng);
        let run = |cfg: CoreConfig| {
            let mut core = OooCore::new(
                cfg,
                TraceGenerator::new(b.profile()),
                CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
            );
            core.prefill_caches();
            core.run_instructions(15_000);
            core.activity().ipc()
        };
        let wide = run(CoreConfig::leading_ev7_like());
        let narrow = run(CoreConfig::checker_as_leader());
        assert!(narrow <= wide * 1.02, "narrow {narrow} vs wide {wide}");
    }
}

#[test]
fn checker_verifies_any_committed_stream_clean() {
    let mut rng = SplitMix64::new(0xc4ec);
    for _ in 0..12 {
        let b = any_benchmark(&mut rng);
        let n = rng.range_u64(500, 3000) as usize;
        let ports = rng.range_u64(1, 4) as u32;
        let mut core = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut stream = Vec::new();
        while stream.len() < n {
            core.step_cycle(&mut stream);
        }
        stream.truncate(n);

        let mut cfg = TrailerConfig::checker();
        cfg.verify_ports = ports;
        let mut trailer = InOrderCore::new(cfg);
        let mut q = ring_of(stream);
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < n {
            trailer.step_cycle(&mut q, &mut out);
            guard += 1;
            assert!(guard < 50 * n + 1000, "trailer wedged");
        }
        // Fault-free stream: every verification passes, in order.
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.outcome, CheckOutcome::Ok, "at {}", i);
            assert_eq!(v.seq, i as u64);
        }
        // Port count bounds throughput.
        assert!(trailer.cycle() + 64 >= n as u64 / ports as u64);
    }
}

#[test]
fn single_bit_flip_is_always_detected() {
    let mut rng = SplitMix64::new(0xf11b);
    for _ in 0..24 {
        let b = any_benchmark(&mut rng);
        let victim_frac = rng.range_f64(0.1, 0.9);
        let bit = rng.below(64) as u8;
        let mut core = OooCore::new(
            CoreConfig::leading_ev7_like(),
            TraceGenerator::new(b.profile()),
            CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets),
        );
        let mut stream = Vec::new();
        while stream.len() < 1200 {
            core.step_cycle(&mut stream);
        }
        stream.truncate(1200);
        // Flip a result bit on the first register-writing op past the
        // chosen point.
        let start = (victim_frac * stream.len() as f64) as usize;
        let Some(victim) = (start..stream.len()).find(|&i| stream[i].op.dest.is_some()) else {
            continue;
        };
        stream[victim].result ^= 1u64 << bit;

        let mut trailer = InOrderCore::new(TrailerConfig::checker());
        let mut q = ring_of(stream);
        let mut out = Vec::new();
        while out.len() < 1200 {
            trailer.step_cycle(&mut q, &mut out);
        }
        assert!(
            out[victim].outcome != CheckOutcome::Ok,
            "flip of bit {bit} at op {victim} must be detected"
        );
        assert!(
            out[..victim].iter().all(|v| v.outcome == CheckOutcome::Ok),
            "no false positives before the fault"
        );
    }
}
