//! Performance simulation of one (model, benchmark) pair.

use crate::model::{ProcessorModel, RunScale};
use rmt3d_cache::{CacheHierarchy, HierarchyStats, NucaPolicy, NucaStats};
use rmt3d_cpu::{ActivityCounters, CoreConfig, OooCore};
use rmt3d_rmt::{DfsConfig, RmtConfig, RmtSystem, DFS_LEVELS};
use rmt3d_telemetry::{
    emit, CpiComponent, CpiStack, Event, IntervalSample, NullSink, Sink, SpanTimer,
};
use rmt3d_units::Gigahertz;
use rmt3d_workload::{Benchmark, TraceGenerator};

/// Everything a performance run produces — the raw material for the
/// Fig. 4-7 and §3.3/§4 analyses.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Model simulated.
    pub model: ProcessorModel,
    /// Benchmark simulated.
    pub benchmark: Benchmark,
    /// Leading-core clock used (2 GHz nominal).
    pub frequency: Gigahertz,
    /// Leading-core activity over the measured window.
    pub leader: ActivityCounters,
    /// Checker activity (zeroed for 2d-a).
    pub trailer: ActivityCounters,
    /// Cache-hierarchy counters.
    pub caches: HierarchyStats,
    /// L2 NUCA statistics (per-bank accesses for power maps).
    pub l2: NucaStats,
    /// DFS frequency histogram (Fig. 7); zeros for 2d-a.
    pub dfs_histogram: [f64; DFS_LEVELS],
    /// Mean normalized checker frequency.
    pub mean_checker_fraction: f64,
    /// Leader cycles including recovery stalls.
    pub total_cycles: u64,
    /// Leader CPI stack over the measured window. Zero under
    /// [`NullSink`] (classification is profiling-only); when populated
    /// its components sum exactly to [`PerfResult::total_cycles`].
    pub leader_cpi: CpiStack,
    /// Checker CPI stack lifted into the leader-cycle domain (zero for
    /// checker-less models and under [`NullSink`]); when populated it
    /// also sums to [`PerfResult::total_cycles`].
    pub trailer_cpi: CpiStack,
}

impl PerfResult {
    /// End-to-end instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.leader.committed as f64 / self.total_cycles as f64
        }
    }

    /// L2 misses per 10 000 instructions (§3.3 metric).
    pub fn l2_misses_per_10k(&self) -> f64 {
        self.caches.l2_misses_per_10k()
    }
}

/// Configuration for one run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Processor organization.
    pub model: ProcessorModel,
    /// Overrides the model's NUCA bank layout (used by the §4
    /// heterogeneous study, whose upper die holds only 4 banks).
    pub layout: Option<rmt3d_cache::NucaLayout>,
    /// NUCA placement policy (paper default: distributed sets).
    pub policy: NucaPolicy,
    /// Leading-core clock. Scaling this below 2 GHz models the §3.3
    /// iso-thermal DVFS point: memory latency is constant in
    /// nanoseconds, so the cycle-denominated latency shrinks.
    pub frequency: Gigahertz,
    /// Cap on the checker's normalized frequency (1.0 same-process;
    /// 0.7 for the §4 90 nm checker die).
    pub checker_peak_fraction: f64,
    /// Simulation lengths.
    pub scale: RunScale,
}

impl SimConfig {
    /// The paper's nominal configuration for a model.
    pub fn nominal(model: ProcessorModel, scale: RunScale) -> SimConfig {
        SimConfig {
            model,
            layout: None,
            policy: NucaPolicy::DistributedSets,
            frequency: Gigahertz(2.0),
            checker_peak_fraction: 1.0,
            scale,
        }
    }
}

/// Memory latency in leader cycles at clock `f` (150 ns constant).
fn memory_cycles(f: Gigahertz) -> u32 {
    (150.0 * f.value()).round() as u32
}

/// Runs one (model, benchmark) performance simulation with telemetry
/// disabled. Equivalent to [`simulate_traced`] with a
/// [`NullSink`] — and produces bit-identical results, since the
/// [`NullSink`] path compiles event construction out entirely.
pub fn simulate(cfg: &SimConfig, benchmark: Benchmark) -> PerfResult {
    simulate_traced(cfg, benchmark, 0, NullSink)
}

/// Strategy for producing [`PerfResult`]s.
///
/// Experiment drivers (`fig4`, `fig5`, `iso_thermal`, …) route every
/// simulation through this trait and submit independent
/// `(config, benchmark)` pairs as one batch, so an implementation may
/// fan the batch out over worker threads (see the `rmt3d-sweep` crate).
/// Because [`simulate`] is deterministic, any implementation that runs
/// each job through it yields results bit-identical to
/// [`SerialSimulator`], whatever the execution order.
pub trait Simulator {
    /// Produces the result of one `(config, benchmark)` run.
    fn simulate(&self, cfg: &SimConfig, benchmark: Benchmark) -> PerfResult;

    /// Produces results for a batch of independent runs, in input
    /// order. The default runs them serially through
    /// [`Simulator::simulate`]; parallel implementations override this.
    fn simulate_batch(&self, jobs: &[(SimConfig, Benchmark)]) -> Vec<PerfResult> {
        jobs.iter()
            .map(|(cfg, b)| Simulator::simulate(self, cfg, *b))
            .collect()
    }
}

/// The in-process, single-threaded [`Simulator`]: every job runs
/// through [`simulate`] on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialSimulator;

impl Simulator for SerialSimulator {
    fn simulate(&self, cfg: &SimConfig, benchmark: Benchmark) -> PerfResult {
        simulate(cfg, benchmark)
    }
}

/// Periodic machine-state snapshots: every `interval` cycles the run
/// loop reads occupancies/counters through accessors and emits an
/// [`Event::Interval`], so sampling never perturbs the simulation.
struct Sampler {
    interval: u64,
    index: u64,
    last_cycle: u64,
    last_committed: u64,
    last_stall: u64,
}

impl Sampler {
    fn new(interval: u64, cycle: u64, committed: u64, stall_cycles: u64) -> Sampler {
        Sampler {
            interval,
            index: 0,
            last_cycle: cycle,
            last_committed: committed,
            last_stall: stall_cycles,
        }
    }

    fn due(&self, cycle: u64) -> bool {
        self.interval != 0 && cycle - self.last_cycle >= self.interval
    }

    /// Builds the next sample's run-loop-level fields from cumulative
    /// counters; the caller fills in the structure occupancies.
    fn take(&mut self, cycle: u64, committed: u64, stall_cycles: u64) -> IntervalSample {
        let window = (cycle - self.last_cycle).max(1);
        let delta = committed - self.last_committed;
        let sample = IntervalSample {
            index: self.index,
            cycle,
            committed: delta,
            ipc: delta as f64 / window as f64,
            commit_stall_cycles: stall_cycles - self.last_stall,
            ..IntervalSample::default()
        };
        self.index += 1;
        self.last_cycle = cycle;
        self.last_committed = committed;
        self.last_stall = stall_cycles;
        sample
    }
}

/// Runs one (model, benchmark) performance simulation, streaming
/// telemetry to `sink`: `simulate`/`warmup`/`measure` spans, every
/// event the cores and the RMT system emit, and — when
/// `sample_interval > 0` — an [`Event::Interval`] snapshot of
/// pipeline/queue occupancies every `sample_interval` leader cycles of
/// the measured window.
pub fn simulate_traced<S: Sink + Clone>(
    cfg: &SimConfig,
    benchmark: Benchmark,
    sample_interval: u64,
    mut sink: S,
) -> PerfResult {
    let layout = cfg
        .layout
        .clone()
        .unwrap_or_else(|| cfg.model.nuca_layout());
    let mut hierarchy = CacheHierarchy::new(layout, cfg.policy);
    hierarchy.set_memory_cycles(memory_cycles(cfg.frequency));
    let leader = OooCore::with_sink(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(benchmark.profile()),
        hierarchy,
        sink.clone(),
    );
    let run_span = SpanTimer::begin(&mut sink, "simulate", 0);

    let result = if cfg.model.has_checker() {
        let rmt_cfg = RmtConfig {
            dfs: DfsConfig::paper().with_frequency_cap(cfg.checker_peak_fraction),
            ..RmtConfig::paper()
        };
        let mut sys = RmtSystem::with_sink(leader, rmt_cfg, sink.clone());
        sys.prefill_caches();
        let warm_span = SpanTimer::begin(&mut sink, "warmup", 0);
        sys.run_instructions(cfg.scale.warmup_instructions);
        warm_span.end(&mut sink, sys.total_cycles());
        // Reset is not exposed on the composite; measure the delta
        // window instead.
        let start_leader = *sys.leader().activity();
        let start_trailer = *sys.trailer().activity();
        let start_leader_cpi = sys.leader_cpi_stack();
        let start_trailer_cpi = sys.trailer_cpi_stack();
        let start_cycles = sys.total_cycles();
        let measure_span = SpanTimer::begin(&mut sink, "measure", start_cycles);
        let mut sampler = Sampler::new(
            sample_interval,
            start_cycles,
            start_leader.committed,
            start_leader.commit_stall_cycles,
        );
        while sys.leader().activity().committed - start_leader.committed < cfg.scale.instructions {
            sys.step();
            let cycle = sys.total_cycles();
            if sampler.due(cycle) {
                let act = sys.leader().activity();
                let mut s = sampler.take(cycle, act.committed, act.commit_stall_cycles);
                s.rob = sys.leader().rob_occupancy();
                s.iq_int = sys.leader().iq_int_occupancy();
                s.iq_fp = sys.leader().iq_fp_occupancy();
                s.lsq = sys.leader().lsq_occupancy();
                let occ = sys.queues().occupancy();
                s.rvq = occ.rvq as u32;
                s.lvq = occ.lvq as u32;
                s.boq = occ.boq as u32;
                s.stb = occ.stb as u32;
                s.checker_fraction = sys.dfs().current().fraction();
                let stats = sys.leader().caches().stats();
                s.dl1_accesses = stats.l1d.accesses;
                s.dl1_misses = stats.l1d.misses;
                s.l2_accesses = stats.l2_accesses;
                s.l2_misses = stats.l2_misses;
                emit(&mut sink, || Event::Interval(s));
            }
        }
        measure_span.end(&mut sink, sys.total_cycles());
        let leader_act = sys.leader().activity().delta_since(&start_leader);
        let trailer_act = sys.trailer().activity().delta_since(&start_trailer);
        // The composed stacks fold in recovery/DFS cycles from system
        // stats, which advance even when the cores skip classification;
        // under a disabled sink the stacks must stay all-zero.
        let (leader_cpi, trailer_cpi) = if S::ENABLED {
            (
                sys.leader_cpi_stack().delta_since(&start_leader_cpi),
                sys.trailer_cpi_stack().delta_since(&start_trailer_cpi),
            )
        } else {
            (CpiStack::new(), CpiStack::new())
        };
        if S::ENABLED {
            // Export the stacks as counter samples so an offline
            // `trace-report` can rebuild them from the JSONL alone.
            let cycle = sys.total_cycles();
            for c in CpiComponent::ALL {
                emit(&mut sink, || Event::Counter {
                    name: c.leader_counter_name().into(),
                    cycle,
                    value: leader_cpi.get(c) as f64,
                });
                emit(&mut sink, || Event::Counter {
                    name: c.checker_counter_name().into(),
                    cycle,
                    value: trailer_cpi.get(c) as f64,
                });
            }
        }
        PerfResult {
            model: cfg.model,
            benchmark,
            frequency: cfg.frequency,
            leader: leader_act,
            trailer: trailer_act,
            caches: sys.leader().caches().stats(),
            l2: sys.leader().caches().l2().stats().clone(),
            dfs_histogram: sys.frequency_histogram(),
            mean_checker_fraction: sys.dfs().mean_fraction(),
            total_cycles: sys.total_cycles() - start_cycles,
            leader_cpi,
            trailer_cpi,
        }
    } else {
        let mut core = leader;
        core.prefill_caches();
        let warm_span = SpanTimer::begin(&mut sink, "warmup", 0);
        core.run_instructions(cfg.scale.warmup_instructions);
        core.reset_stats();
        warm_span.end(&mut sink, core.activity().cycles);
        let measure_span = SpanTimer::begin(&mut sink, "measure", 0);
        let mut sampler = Sampler::new(sample_interval, 0, 0, 0);
        let mut commit_buf = Vec::with_capacity(8);
        while core.activity().committed < cfg.scale.instructions {
            commit_buf.clear();
            core.step_cycle(&mut commit_buf);
            let cycle = core.activity().cycles;
            if sampler.due(cycle) {
                let act = core.activity();
                let mut s = sampler.take(cycle, act.committed, act.commit_stall_cycles);
                s.rob = core.rob_occupancy();
                s.iq_int = core.iq_int_occupancy();
                s.iq_fp = core.iq_fp_occupancy();
                s.lsq = core.lsq_occupancy();
                let stats = core.caches().stats();
                s.dl1_accesses = stats.l1d.accesses;
                s.dl1_misses = stats.l1d.misses;
                s.l2_accesses = stats.l2_accesses;
                s.l2_misses = stats.l2_misses;
                emit(&mut sink, || Event::Interval(s));
            }
        }
        measure_span.end(&mut sink, core.activity().cycles);
        // reset_stats() after warm-up cleared the stack, so the core's
        // accumulated stack is exactly the measured window.
        let leader_cpi = *core.cpi_stack();
        if S::ENABLED {
            let cycle = core.activity().cycles;
            for c in CpiComponent::ALL {
                emit(&mut sink, || Event::Counter {
                    name: c.leader_counter_name().into(),
                    cycle,
                    value: leader_cpi.get(c) as f64,
                });
            }
        }
        PerfResult {
            model: cfg.model,
            benchmark,
            frequency: cfg.frequency,
            leader: *core.activity(),
            trailer: ActivityCounters::default(),
            caches: core.caches().stats(),
            l2: core.caches().l2().stats().clone(),
            dfs_histogram: [0.0; DFS_LEVELS],
            mean_checker_fraction: 0.0,
            total_cycles: core.activity().cycles,
            leader_cpi,
            trailer_cpi: CpiStack::new(),
        }
    };
    run_span.end(&mut sink, result.total_cycles);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RunScale;

    #[test]
    fn cpi_stacks_sum_to_total_cycles_when_traced() {
        use rmt3d_telemetry::RecordingSink;
        let quick = RunScale::quick();
        for model in [ProcessorModel::TwoDA, ProcessorModel::ThreeD2A] {
            let r = simulate_traced(
                &SimConfig::nominal(model, quick),
                Benchmark::Gzip,
                0,
                RecordingSink::new(),
            );
            assert_eq!(
                r.leader_cpi.total(),
                r.total_cycles,
                "{model:?} leader CPI stack must sum to total cycles"
            );
            if model.has_checker() {
                assert_eq!(
                    r.trailer_cpi.total(),
                    r.total_cycles,
                    "{model:?} checker CPI stack must sum to total cycles"
                );
                assert!(r.trailer_cpi.get(CpiComponent::DfsThrottled) > 0);
            } else {
                assert!(r.trailer_cpi.is_empty());
            }
        }
    }

    #[test]
    fn cpi_stacks_are_zero_untraced() {
        let r = simulate(
            &SimConfig::nominal(ProcessorModel::ThreeD2A, RunScale::quick()),
            Benchmark::Gzip,
        );
        assert!(r.leader_cpi.is_empty(), "NullSink does not classify");
        assert!(r.trailer_cpi.is_empty());
    }

    #[test]
    fn baseline_and_3d_have_similar_ipc() {
        // §3.3: the checker imposes negligible overhead; 3d-checker
        // matches 2d-a.
        let quick = RunScale::quick();
        let a = simulate(
            &SimConfig::nominal(ProcessorModel::TwoDA, quick),
            Benchmark::Gzip,
        );
        let b = simulate(
            &SimConfig::nominal(ProcessorModel::ThreeDChecker, quick),
            Benchmark::Gzip,
        );
        let loss = 1.0 - b.ipc() / a.ipc();
        assert!(
            loss.abs() < 0.05,
            "3d-checker IPC {} vs 2d-a {} (loss {loss})",
            b.ipc(),
            a.ipc()
        );
    }

    #[test]
    fn lower_frequency_costs_less_than_proportionally() {
        // Memory latency is constant in ns, so a 10% slower clock loses
        // less than 10% IPC-seconds (§3.3).
        let quick = RunScale::quick();
        let full = simulate(
            &SimConfig::nominal(ProcessorModel::TwoDA, quick),
            Benchmark::Mcf,
        );
        let slow_cfg = SimConfig {
            frequency: Gigahertz(1.8),
            ..SimConfig::nominal(ProcessorModel::TwoDA, quick)
        };
        let slow = simulate(&slow_cfg, Benchmark::Mcf);
        // Work per second = IPC * f.
        let perf_full = full.ipc() * 2.0;
        let perf_slow = slow.ipc() * 1.8;
        let loss = 1.0 - perf_slow / perf_full;
        assert!(
            loss < 0.10 && loss > -0.02,
            "mcf at 1.8 GHz loses {loss} (memory-bound programs lose least)"
        );
    }

    #[test]
    fn checker_histogram_produced_for_rmt_models() {
        let r = simulate(
            &SimConfig::nominal(ProcessorModel::ThreeD2A, RunScale::quick()),
            Benchmark::Gap,
        );
        let sum: f64 = r.dfs_histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.mean_checker_fraction > 0.2);
        assert!(r.trailer.committed > 0);
    }

    #[test]
    fn frequency_capped_checker_still_keeps_up_mostly() {
        // §4: the 1.4 GHz-capped checker slows the leader only ~3%.
        let quick = RunScale::quick();
        let free = simulate(
            &SimConfig::nominal(ProcessorModel::ThreeD2A, quick),
            Benchmark::Gzip,
        );
        let capped_cfg = SimConfig {
            checker_peak_fraction: 0.7,
            ..SimConfig::nominal(ProcessorModel::ThreeD2A, quick)
        };
        let capped = simulate(&capped_cfg, Benchmark::Gzip);
        let slowdown = 1.0 - capped.ipc() / free.ipc();
        assert!(
            slowdown < 0.12,
            "frequency-capped checker slowdown {slowdown}"
        );
        assert!(capped.mean_checker_fraction <= 0.7 + 1e-9);
    }
}
