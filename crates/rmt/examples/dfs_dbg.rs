//! Diagnostic: DFS controller trace — queue occupancies, checker
//! frequency trajectory and the Fig. 7 histogram for one benchmark.
use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CoreConfig, OooCore};
use rmt3d_rmt::{RmtConfig, RmtSystem};
use rmt3d_workload::{Benchmark, TraceGenerator};

fn main() {
    let leader = OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(Benchmark::Gzip.profile()),
        CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
    );
    let mut s = RmtSystem::new(leader, RmtConfig::paper());
    s.prefill_caches();
    for i in 0..10 {
        s.run_instructions(6000);
        let o = s.queues().occupancy();
        println!(
            "{i}: f={:.2} rvq={} lvq={} boq={} stb={} inflight={} stall={} committed={} tcyc={}",
            s.dfs().current().fraction(),
            o.rvq,
            o.lvq,
            o.boq,
            o.stb,
            s.queues().ring().in_pipe(),
            s.leader().activity().commit_stall_cycles,
            s.leader().activity().committed,
            s.trailer().activity().cycles
        );
    }
    println!(
        "hist: {:?}",
        s.frequency_histogram().map(|f| (f * 100.0).round())
    );
    println!(
        "mean f = {:.3}, stallfrac = {:.3}, ipc = {:.3}",
        s.dfs().mean_fraction(),
        s.leader().activity().commit_stall_cycles as f64 / s.leader().activity().cycles as f64,
        s.effective_ipc()
    );
}
