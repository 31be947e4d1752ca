//! The traced run's layer probes: small, fixed calls into each layer's
//! public functions, each wrapped in a span.
//!
//! Where layers nest inside `simulate`, they are attributed by
//! difference between public calls: the trace generator and the cache
//! hierarchy are replayed standalone on a benchmark's profile, the
//! leader is timed through 2d-a (leader-only) runs, and the checker as
//! 3d-2a minus 2d-a on the same benchmark: under the threaded engine
//! that is its overhead on the leader's critical path (see [`note`]).

use crate::trace::{totals_by_name, Span, Tracer};
use crate::workloads::{self, daemon, LayerObs, PoolSink, Round};
use rmt3d::units::Watts;
use rmt3d::{build_power_map, override_checker_power, simulate, PerfResult, PowerMapConfig};
use rmt3d::{ProcessorModel, RunScale, SimConfig};
use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_campaign::{run_trial, CampaignSpec, Journal, TrialResult};
use rmt3d_power::CheckerPowerModel;
use rmt3d_serve::client;
use rmt3d_sweep::{codec, run_sweep, JobSpec, ResultStore, SweepOptions, SweepSpec};
use rmt3d_thermal::{solve, ThermalConfig};
use rmt3d_workload::{Benchmark, MemoryRegions, OpClass, TraceGenerator};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: [(&str, &str); 24] = [
    ("workload.gen_ns_per_op", "ns"),
    ("cpu.ooo_ns_per_instr", "ns"),
    ("rmt.checker_ns_per_instr", "ns"),
    ("cache.setup_ms", "ms"),
    ("cache.access_ns", "ns"),
    ("power.map_ms", "ms"),
    ("thermal.solve_ms_2d", "ms"),
    ("thermal.solve_ms_3d", "ms"),
    ("thermal.sor_iterations", "count"),
    ("sweep.pool_busy_s", "s"),
    ("sweep.pool_idle_s", "s"),
    ("sweep.peak_threads", "count"),
    ("sweep.codec_encode_us", "us"),
    ("sweep.codec_decode_us", "us"),
    ("sweep.store_save_ms", "ms"),
    ("sweep.store_load_ms", "ms"),
    ("sweep.store_hit_ratio", "ratio"),
    ("campaign.trial_ms", "ms"),
    ("campaign.journal_append_us", "us"),
    ("serve.connect_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("obs.ledger_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// What a per-layer metric measures, where its name alone would
/// mislead; printed beside it and kept in the record.
pub fn note(metric: &str) -> Option<String> {
    (metric == "rmt.checker_ns_per_instr").then(|| {
        format!(
            "checker critical-path overhead under the engine {}: 3d-2a minus 2d-a \
             simulate time per instruction, not the checker's own work when it runs \
             on a thread of its own",
            crate::host::engine("sweep-cold")
        )
    })
}

/// Micro-ops generated per benchmark by the generator probe.
const GEN_OPS: usize = 50_000;
/// Benchmarks of the leader/checker probe.
const SIM_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Gzip,
    Benchmark::Mcf,
    Benchmark::Art,
    Benchmark::Swim,
];
/// Repetitions of the cheap per-call probes.
const REPS: usize = 25;
/// Every n-th trial of the seed's grid is run standalone.
const TRIAL_STRIDE: usize = 50;

/// Warms `h` as the OoO core does before measuring: the profile's
/// warm, hot and code regions.
fn prefill(h: &mut CacheHierarchy, b: Benchmark) {
    let r = MemoryRegions::of(&b.profile());
    h.prefill_data_region(r.warm.0, r.warm.1);
    h.prefill_data_region(r.hot.0, r.hot.1);
    h.prefill_code_region(r.code.0, r.code.1);
}

/// Where a per-layer value came from, for the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Spans around the layer probes.
    Probe,
    /// The workload's own traced round.
    Workload,
}

/// Results of the probe suite that are not span timings.
#[derive(Debug, Default)]
pub struct ProbeOut {
    /// Pool, store and daemon observations of the probes' own small
    /// sweep and daemon session.
    pub layer: LayerObs,
    /// SOR iterations of the probe's solves (exact).
    pub sor_iterations: u64,
    /// Leader instructions (warm-up included) of the 2d-a probe runs.
    pub instr_2da: u64,
    /// Leader instructions (warm-up included) of the 3d-2a probe runs.
    pub instr_3d: u64,
    /// Checks the probes made, as a round (only counts are used).
    pub checks: Round,
}

/// Runs every probe under `tracer`, in `dir`.
pub fn run_probes(tracer: &Tracer, dir: &Path, seed: u64, workers: usize) -> ProbeOut {
    let mut out = ProbeOut::default();
    generator_and_cache(tracer);
    let perfs = leader_and_checker(tracer);
    let warmup = workloads::sweep::SCALE.warmup_instructions;
    out.instr_2da = perfs.iter().map(|(a, _)| a.leader.committed + warmup).sum();
    out.instr_3d = perfs.iter().map(|(_, c)| c.leader.committed + warmup).sum();
    power_and_thermal(tracer, &perfs, &mut out);
    codec_and_store(tracer, dir, &perfs, &mut out.checks);
    out.layer.pool_busy_idle_s = mini_sweep(tracer, workers, &mut out.checks);
    trials_and_journal(tracer, dir, seed, &mut out.checks);
    match mini_daemon(tracer, dir, workers) {
        Ok(obs) => {
            out.layer.store_hits_misses = obs.store_hits_misses;
            out.layer.queue_wait_exec_ms = obs.queue_wait_exec_ms;
            out.checks.check(true, String::new);
        }
        Err(e) => out.checks.check(false, || format!("daemon probe: {e}")),
    }
    ledger(tracer, dir, &mut out.checks);
    out
}

fn generator_and_cache(tracer: &Tracer) {
    for b in Benchmark::ALL {
        let mut gen = TraceGenerator::new(b.profile());
        tracer.span_n(
            "workload::TraceGenerator::next_op",
            GEN_OPS as u64,
            0,
            || {
                for _ in 0..GEN_OPS {
                    black_box(gen.next_op());
                }
            },
        );
        // The same profile's memory references, replayed through a
        // warmed 2d-a hierarchy.
        let mut gen = TraceGenerator::new(b.profile());
        let refs: Vec<(u64, bool)> = (0..GEN_OPS)
            .filter_map(|_| {
                let op = gen.next_op();
                op.mem().map(|m| (m.addr, op.kind == OpClass::Store))
            })
            .collect();
        let mut h = CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets);
        prefill(&mut h, b);
        tracer.span_n(
            "cache::CacheHierarchy::data_access",
            refs.len() as u64,
            0,
            || {
                for &(addr, write) in &refs {
                    black_box(h.data_access(addr, write));
                }
            },
        );
    }
    for layout in [
        NucaLayout::two_d_a(),
        NucaLayout::two_d_2a(),
        NucaLayout::three_d_2a(),
    ] {
        for b in [Benchmark::Gzip, Benchmark::Mcf] {
            tracer.span("cache::CacheHierarchy::new+prefill", || {
                let mut h = CacheHierarchy::new(layout.clone(), NucaPolicy::DistributedSets);
                prefill(&mut h, b);
                black_box(h);
            });
        }
    }
}

/// 2d-a and 3d-2a runs of each probe benchmark at the sweep's scale,
/// as `(2d-a, 3d-2a)` pairs.
fn leader_and_checker(tracer: &Tracer) -> Vec<(PerfResult, PerfResult)> {
    let scale = workloads::sweep::SCALE;
    SIM_BENCHMARKS
        .iter()
        .map(|&b| {
            let run = |model: ProcessorModel, name: &str| {
                let cfg = SimConfig::nominal(model, scale);
                tracer.span(name, || simulate(&cfg, b))
            };
            let a = run(ProcessorModel::TwoDA, "core::simulate/2d-a");
            let c = run(ProcessorModel::ThreeD2A, "core::simulate/3d-2a");
            (a, c)
        })
        .collect()
}

fn power_and_thermal(tracer: &Tracer, perfs: &[(PerfResult, PerfResult)], out: &mut ProbeOut) {
    let cfg = PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(7.0)));
    for (a, c) in perfs {
        for _ in 0..REPS {
            black_box(tracer.span("core::build_power_map", || build_power_map(a, &cfg)));
            black_box(tracer.span("core::build_power_map", || build_power_map(c, &cfg)));
        }
    }
    let tcfg = ThermalConfig {
        grid: 50,
        ..ThermalConfig::paper()
    };
    for (a, c) in perfs.iter().take(2) {
        let chip_2d = build_power_map(a, &cfg);
        let mut chip_3d = build_power_map(c, &cfg);
        override_checker_power(&mut chip_3d, Watts(7.0));
        let solves = [
            ("thermal::solve/2d", ProcessorModel::TwoDA, chip_2d),
            ("thermal::solve/3d", ProcessorModel::ThreeD2A, chip_3d),
        ];
        for (name, model, chip) in solves {
            let plan = model.floorplan();
            match tracer.span(name, || solve(&plan, &chip.map, &tcfg)) {
                Ok(r) => {
                    out.sor_iterations += r.iterations() as u64;
                    out.checks.check(true, String::new);
                }
                Err(e) => out.checks.check(false, || format!("{name} failed: {e}")),
            }
        }
    }
}

fn codec_and_store(
    tracer: &Tracer,
    dir: &Path,
    perfs: &[(PerfResult, PerfResult)],
    checks: &mut Round,
) {
    let results: Vec<&PerfResult> = perfs.iter().flat_map(|(a, c)| [a, c]).collect();
    let mut encoded = Vec::new();
    tracer.span_n(
        "sweep::codec::encode",
        (REPS * results.len()) as u64,
        0,
        || {
            for _ in 0..REPS {
                encoded = results.iter().map(|r| codec::encode(r)).collect::<Vec<_>>();
            }
        },
    );
    let mut decoded = Vec::new();
    tracer.span_n(
        "sweep::codec::decode",
        (REPS * encoded.len()) as u64,
        0,
        || {
            for _ in 0..REPS {
                decoded = encoded.iter().map(|e| codec::decode(e)).collect::<Vec<_>>();
            }
        },
    );
    for (d, e) in decoded.iter().zip(&encoded) {
        let same = d.as_ref().is_ok_and(|r| codec::encode(r) == *e);
        checks.check(same, || "codec round trip changed a result".to_string());
    }

    let store = match ResultStore::open(&dir.join("store")) {
        Ok(s) => s,
        Err(e) => return checks.check(false, || format!("cannot open probe store: {e}")),
    };
    let jobs: Vec<JobSpec> = results
        .iter()
        .enumerate()
        .map(|(index, r)| JobSpec {
            index,
            cfg: SimConfig::nominal(r.model, workloads::sweep::SCALE),
            benchmark: r.benchmark,
        })
        .collect();
    for _ in 0..REPS / 5 {
        for (job, r) in jobs.iter().zip(&results) {
            let saved = tracer.span("sweep::ResultStore::save", || store.save(job, r));
            checks.check(saved.is_ok(), || format!("store save failed: {saved:?}"));
        }
        for (job, e) in jobs.iter().zip(&encoded) {
            let loaded = tracer.span("sweep::ResultStore::load", || store.load(job));
            let same = loaded.is_some_and(|r| codec::encode(&r) == *e);
            checks.check(same, || {
                "store load did not return the saved result".to_string()
            });
        }
    }
}

/// A 4-job sweep whose `PoolStats` stands in for workloads that do not
/// run the pool through `run_sweep` themselves.
fn mini_sweep(tracer: &Tracer, workers: usize, checks: &mut Round) -> Option<(f64, f64)> {
    let spec = SweepSpec::new(
        &[ProcessorModel::TwoDA, ProcessorModel::ThreeD2A],
        &[Benchmark::Gzip, Benchmark::Mcf],
        RunScale {
            warmup_instructions: 2_000,
            instructions: 20_000,
            thermal_grid: 50,
        },
    );
    let opts = SweepOptions {
        jobs: workers,
        ..SweepOptions::default()
    };
    let mut sink = PoolSink::default();
    let report = tracer.span_n("sweep::run_sweep/probe", 4, 0, || {
        run_sweep(spec.expand(), &opts, &mut sink)
    });
    let ok = report.as_ref().is_ok_and(|r| r.failures == 0);
    checks.check(ok, || "probe sweep failed".to_string());
    sink.layer_obs().pool_busy_idle_s
}

fn trials_and_journal(tracer: &Tracer, dir: &Path, seed: u64, checks: &mut Round) {
    let spec = CampaignSpec::default_grid(seed);
    let outcomes: Vec<(usize, Result<TrialResult, String>)> = spec
        .expand()
        .iter()
        .step_by(TRIAL_STRIDE)
        .map(|t| {
            let r = tracer.span("campaign::run_trial", || run_trial(t));
            checks.check(r.ok(), || format!("probe trial {} not covered", t.label()));
            (t.index, Ok(r))
        })
        .collect();
    let path = dir.join("probe.journal.jsonl");
    let mut journal = match Journal::create(&path, &spec) {
        Ok(j) => j,
        Err(e) => return checks.check(false, || format!("cannot create probe journal: {e}")),
    };
    for _ in 0..REPS / 5 {
        for (index, outcome) in &outcomes {
            let r = tracer.span("campaign::Journal::trial_done", || {
                journal.trial_done(*index, outcome)
            });
            checks.check(r.is_ok(), || format!("journal append failed: {r:?}"));
        }
    }
}

/// A short daemon session: no-work `jobs` requests, then each tiny
/// spec cold and warm, then `stats`.
fn mini_daemon(tracer: &Tracer, dir: &Path, workers: usize) -> Result<LayerObs, String> {
    let server = daemon::Daemon::start(&dir.join("daemon"), workers)?;
    let addr = &server.addr;
    for _ in 0..REPS {
        tracer.span("serve::client::request/jobs", || {
            client::request(addr, "{\"op\":\"jobs\"}")
        })?;
    }
    for spec in daemon::specs(workloads::Size::Tiny) {
        for _ in 0..2 {
            daemon::round_trip(addr, &spec.json, tracer, 0)?;
        }
    }
    daemon::stats(addr)
}

fn ledger(tracer: &Tracer, dir: &Path, checks: &mut Round) {
    let ledger = match rmt3d_obs::RunLedger::open(dir.join("runs")) {
        Ok(l) => l,
        Err(e) => return checks.check(false, || format!("cannot open probe ledger: {e}")),
    };
    for i in 0..REPS as u64 {
        let r = tracer.span("obs::RunLedger::create_run+finish", || {
            ledger
                .create_run("probe", i, 1, &[])
                .and_then(|mut run| run.finish("ok"))
        });
        checks.check(r.is_ok(), || format!("ledger run failed: {r:?}"));
    }
}

/// Mean self time per work item of spans named `name`, in `unit_ns`
/// units (1 for ns, 1e3 for µs, 1e6 for ms); 0 when none ran.
pub fn per_item(spans: &[Span], name: &str, unit_ns: f64) -> f64 {
    totals_by_name(spans)
        .get(name)
        .filter(|t| t.count > 0)
        .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / unit_ns)
}

/// Every per-layer metric from the spans, the probes' own readings and
/// the workload's traced round. `threads` is the sampled peak thread
/// count; `overhead_s` is traced minus untraced round wall time.
pub fn metrics(
    spans: &[Span],
    probe: &ProbeOut,
    round: &LayerObs,
    threads: u64,
    overhead_s: f64,
) -> Vec<(&'static str, f64, Source)> {
    let totals = totals_by_name(spans);
    let self_ns = |n: &str| totals.get(n).map_or(0.0, |t| t.self_ns as f64);
    let (a, c) = (
        self_ns("core::simulate/2d-a"),
        self_ns("core::simulate/3d-2a"),
    );
    let (ia, ic) = (probe.instr_2da.max(1) as f64, probe.instr_3d.max(1) as f64);
    let pick = |own: Option<(f64, f64)>, fallback: Option<(f64, f64)>| match own {
        Some(v) => (v, Source::Workload),
        None => (fallback.unwrap_or_default(), Source::Probe),
    };
    let (pool, pool_src) = pick(round.pool_busy_idle_s, probe.layer.pool_busy_idle_s);
    let ratio = |hm: Option<(u64, u64)>| {
        hm.map(|(h, m)| {
            (
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                },
                0.0,
            )
        })
    };
    let (hits, hits_src) = pick(
        ratio(round.store_hits_misses),
        ratio(probe.layer.store_hits_misses),
    );
    let (serve, serve_src) = pick(round.queue_wait_exec_ms, probe.layer.queue_wait_exec_ms);
    let p = Source::Probe;
    vec![
        (
            "workload.gen_ns_per_op",
            per_item(spans, "workload::TraceGenerator::next_op", 1.0),
            p,
        ),
        ("cpu.ooo_ns_per_instr", a / ia, p),
        ("rmt.checker_ns_per_instr", c / ic - a / ia, p),
        (
            "cache.setup_ms",
            per_item(spans, "cache::CacheHierarchy::new+prefill", 1e6),
            p,
        ),
        (
            "cache.access_ns",
            per_item(spans, "cache::CacheHierarchy::data_access", 1.0),
            p,
        ),
        (
            "power.map_ms",
            per_item(spans, "core::build_power_map", 1e6),
            p,
        ),
        (
            "thermal.solve_ms_2d",
            per_item(spans, "thermal::solve/2d", 1e6),
            p,
        ),
        (
            "thermal.solve_ms_3d",
            per_item(spans, "thermal::solve/3d", 1e6),
            p,
        ),
        ("thermal.sor_iterations", probe.sor_iterations as f64, p),
        ("sweep.pool_busy_s", pool.0, pool_src),
        ("sweep.pool_idle_s", pool.1, pool_src),
        ("sweep.peak_threads", threads as f64, Source::Workload),
        (
            "sweep.codec_encode_us",
            per_item(spans, "sweep::codec::encode", 1e3),
            p,
        ),
        (
            "sweep.codec_decode_us",
            per_item(spans, "sweep::codec::decode", 1e3),
            p,
        ),
        (
            "sweep.store_save_ms",
            per_item(spans, "sweep::ResultStore::save", 1e6),
            p,
        ),
        (
            "sweep.store_load_ms",
            per_item(spans, "sweep::ResultStore::load", 1e6),
            p,
        ),
        ("sweep.store_hit_ratio", hits.0, hits_src),
        (
            "campaign.trial_ms",
            per_item(spans, "campaign::run_trial", 1e6),
            p,
        ),
        (
            "campaign.journal_append_us",
            per_item(spans, "campaign::Journal::trial_done", 1e3),
            p,
        ),
        (
            "serve.connect_ms",
            per_item(spans, "serve::client::request/jobs", 1e6),
            p,
        ),
        ("serve.queue_wait_ms", serve.0, serve_src),
        ("serve.exec_ms", serve.1, serve_src),
        (
            "obs.ledger_ms",
            per_item(spans, "obs::RunLedger::create_run+finish", 1e6),
            p,
        ),
        ("trace.overhead_s", overhead_s, Source::Workload),
    ]
}

/// Samples `Threads:` of `/proc/self/status` until `stop` is set and
/// returns the peak, not counting the sampling thread itself.
pub fn sample_threads(stop: &AtomicBool) -> u64 {
    let mut peak = 0;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(crate::host::proc_status("Threads").unwrap_or(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    peak.saturating_sub(1)
}
