//! `rmt3d` command-line interface.
//!
//! ```text
//! rmt3d list
//! rmt3d simulate  --model 3d-2a --benchmark mcf [--instructions N] [--ways]
//!                 [--trace-out run.jsonl] [--csv-out samples.csv]
//!                 [--sample-interval N] [--metrics] [--quiet]
//! rmt3d thermal   --model 3d-2a --benchmark gzip --checker-watts 15
//! rmt3d experiment <name> [--paper] [--jobs N]
//! rmt3d sweep     [--models M,..|all] [--benchmarks B,..|all]
//!                 [--instructions N] [--jobs N] [--out-dir DIR]
//!                 [--cache-max-bytes N] [--resume] [--no-cache]
//!                 [--quiet] [--trace-out FILE]
//! rmt3d campaign  [--sites S,..|all] [--benchmarks B,..|all]
//!                 [--faults-per-site N] [--seed N] [--instructions N]
//!                 (at most 10000 faults per site and 1000000
//!                 instructions)
//!                 [--jobs N] [--out-dir DIR] [--sabotage SITE]
//!                 [--journal] [--resume] [--quiet] [--trace-out FILE]
//! rmt3d profile   --model 3d-2a --benchmark gzip [--instructions N]
//!                 [--sample-interval N] [--out-dir DIR] [--quiet]
//! rmt3d trace-report --in run.jsonl [--chrome-out FILE]
//! rmt3d bench-gate --baseline FILE --current FILE [--tolerance PCT]
//!                 [--json]
//! rmt3d status    [--run ID] [--follow] [--interval MS]
//!                 [--runs-root DIR]
//! rmt3d report    --html [--run ID] [--out FILE] [--runs-root DIR]
//!                 [--daemon-metrics FILE] [--refresh SECS]
//! rmt3d serve     [--listen ADDR] [--state-dir DIR] [--out-dir DIR]
//!                 [--jobs N] [--cache-max-bytes N] [--runs-root DIR]
//!                 [--no-ledger] [--quiet]
//! rmt3d submit    [--addr ADDR] [--kind sweep|campaign] [--priority N]
//!                 [--spec JSON | axis flags] [--wait] [--quiet]
//! rmt3d jobs      [--addr ADDR]
//! rmt3d cancel    JOB [--addr ADDR]
//! rmt3d watch     JOB [--addr ADDR]
//! rmt3d stats     [--addr ADDR]
//! rmt3d top       [--watch] [--interval MS] [--addr ADDR]
//! rmt3d shutdown  [--addr ADDR]
//! ```
//!
//! `sweep`, `campaign`, and `profile` additionally accept
//! `--runs-root DIR` / `--no-ledger` (run-ledger registration, stderr
//! announcements only) and — for the pool-driven commands —
//! `--stall-factor F` (heartbeat watchdog).
//!
//! Experiment names: `tables`, `fig4`, `fig5`, `fig6`, `fig7`,
//! `iso-thermal`, `interconnect`, `heterogeneous`, `margins`,
//! `dfs-ablation`, `hard-error`, `summary`, `tmr`, `interrupts`,
//! `resilience`, `dtm`, `shared-cache`, `leakage`.
//!
//! Unknown flags are errors; every argument must be consumed by the
//! selected command. Every subcommand is one entry of [`COMMANDS`] and
//! returns `Result`; [`main`] is the single place that turns an `Err`
//! into `error: …` plus the usage text.

mod args;
mod profile;
mod runctl;
mod servecmd;

use args::{check_range, Args, DEFAULT_CACHE_DIR};
use rmt3d::experiments::{
    dfs_ablation, dtm, fig4, fig5, fig6, fig7, hard_error, heterogeneous, interconnect, interrupts,
    iso_thermal, leakage_feedback, margins, resilience, rmt_summary, shared_cache, tables,
    tmr_study,
};
use rmt3d::power::CheckerPowerModel;
use rmt3d::telemetry::{write_samples_csv, CollectorSink, Event, JsonlSink, Sink};
use rmt3d::thermal::{solve, ThermalConfig};
use rmt3d::{
    build_power_map, override_checker_power, simulate, simulate_traced, PerfResult, PowerMapConfig,
    ProcessorModel, RunScale, SerialSimulator, SimConfig, Simulator,
};
use rmt3d_cache::NucaPolicy;
use rmt3d_campaign::{run_campaign_with, shrink, write_fixture, CampaignOptions, JOURNAL_FILE};
use rmt3d_obs::durable::write_atomic;
use rmt3d_obs::WatchdogConfig;
use rmt3d_rmt::FaultSite;
use rmt3d_serve::JobPayload;
use rmt3d_sweep::{run_sweep, CacheMode, ParallelSimulator, ResultStore, SweepOptions};
use rmt3d_units::{TechNode, Watts};
use rmt3d_workload::Benchmark;
use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

// Literal newlines, not `\n\` continuations: a continuation would
// also strip the next line's indentation.
const USAGE: &str = "\
usage: rmt3d <command>

commands:
  list                               benchmarks and models
  simulate   --model M --benchmark B [--instructions N] [--ways]
             [--trace-out FILE.jsonl] [--csv-out FILE.csv]
             [--sample-interval N] [--metrics] [--quiet]
  thermal    --model M --benchmark B [--checker-watts W]
  experiment <name> [--paper] [--jobs N]   regenerate a paper result
  sweep      [--models M1,M2|all] [--benchmarks B1,B2|all]
             [--instructions N] [--jobs N] [--out-dir DIR]
             [--cache-max-bytes N] [--resume] [--no-cache]
             [--quiet] [--trace-out FILE.jsonl]
  campaign   [--sites S1,S2|all] [--benchmarks B1,B2|all]
             [--faults-per-site N] [--seed N] [--instructions N]
             (N <= 10000 faults per site, 4000 <= N <= 1000000
             instructions)
             [--jobs N] [--out-dir DIR] [--sabotage SITE]
             [--journal] [--resume] [--quiet]
             [--trace-out FILE.jsonl]
  profile    --model M --benchmark B [--instructions N]
             [--sample-interval N] [--out-dir DIR] [--quiet]
             CPI stacks, histograms, Perfetto .trace.json
  trace-report --in FILE.jsonl [--chrome-out FILE]
             rebuild the report offline; --chrome-out renders
             the events as a Perfetto-loadable .trace.json
  bench-gate --baseline FILE --current FILE [--tolerance PCT]
             [--json]   fail on wall-clock or deterministic-
             stat regression; --json prints one result line
  status     [--run ID] [--follow] [--interval MS]
             [--runs-root DIR]
             live progress of a ledgered run (default: latest)
  report     --html [--run ID] [--out FILE] [--runs-root DIR]
             [--daemon-metrics FILE] [--refresh SECS]
             self-contained HTML dashboard for a ledgered run;
             --daemon-metrics adds the daemon fleet panel,
             --refresh embeds a browser auto-reload tag
  serve      [--listen ADDR] [--state-dir DIR] [--out-dir DIR]
             [--jobs N] [--cache-max-bytes N] [--runs-root DIR]
             [--no-ledger] [--quiet]
             job daemon: persistent priority queue over the
             shared result cache (default 127.0.0.1:7733)
  submit     [--addr ADDR] [--kind sweep|campaign] [--priority N]
             [--spec JSON | --models/--benchmarks/--sites/...]
             [--wait] [--quiet]   enqueue a job on the daemon;
             --wait streams progress and prints the results
  jobs       [--addr ADDR]        one-line JSON job listing
  cancel     JOB [--addr ADDR]    cancel a queued/running job
  watch      JOB [--addr ADDR]    stream a job's event lines
  stats      [--addr ADDR]        one-line JSON daemon metrics
  top        [--watch] [--interval MS] [--addr ADDR]
             human daemon health view; --watch redraws
  shutdown   [--addr ADDR]        drain the daemon and exit it

models: 2d-a, 2d-2a, 3d-2a, 3d-checker
experiments: tables fig4 fig5 fig6 fig7 iso-thermal interconnect
             heterogeneous margins dfs-ablation hard-error summary
             tmr interrupts resilience shared-cache leakage dtm

fault sites: leader_result, rvq_operand, lvq_value, boq_outcome,
             trailer_regfile

sweep caches each job's result under --out-dir (default
target/sweep-cache) and skips cached jobs on re-runs;
--cache-max-bytes N evicts least-recently-used entries after
the run to keep the cache under N bytes.
sweep, campaign, and profile register every invocation in the
run ledger (default target/runs; --runs-root DIR overrides,
--no-ledger disables) with a live status.json; --stall-factor F
(sweep/campaign) flags jobs running F x the median duration.
campaign writes a JSONL coverage report (and, on violations, a
minimized regression fixture) under --out-dir (default
target/campaign) and exits non-zero unless coverage is 100%.
campaign --journal appends a crash-safe write-ahead journal
(campaign.journal.jsonl, fsynced per trial) under --out-dir;
campaign --resume replays it, skips completed trials, and
produces a report byte-identical to an uninterrupted run.
validation errors:
  --jobs must be at least 1
  --resume and --no-cache are mutually exclusive
  --resume requires an existing --out-dir cache directory";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    usage()
}

/// A subcommand: consumes its arguments and runs. `Err` is a usage or
/// I/O error, reported by [`main`] as `error: …` plus the usage text;
/// an outcome that is not an error (sweep failures, campaign
/// violations) is `Ok(ExitCode::FAILURE)`.
type Command = fn(Args) -> Result<ExitCode, String>;

/// Every subcommand, in usage order.
const COMMANDS: &[(&str, Command)] = &[
    ("list", run_list_command),
    ("simulate", run_simulate_command),
    ("thermal", run_thermal_command),
    ("experiment", run_experiment_command),
    ("sweep", run_sweep_command),
    ("campaign", run_campaign_command),
    ("profile", profile::run_profile_command),
    ("trace-report", profile::run_trace_report_command),
    ("bench-gate", profile::run_bench_gate_command),
    ("status", runctl::run_status_command),
    ("report", runctl::run_report_command),
    ("serve", servecmd::run_serve_command),
    ("submit", servecmd::run_submit_command),
    ("jobs", servecmd::run_jobs_command),
    ("cancel", servecmd::run_cancel_command),
    ("watch", servecmd::run_watch_command),
    ("stats", servecmd::run_stats_command),
    ("top", servecmd::run_top_command),
    ("shutdown", servecmd::run_shutdown_command),
];

/// One result line of `sweep`; `submit --wait` prints the same bytes.
pub fn sweep_line(label: &str, r: &PerfResult) -> String {
    format!(
        "{label:28} IPC {:.3}  L2 {:5.2} misses/10K  checker {:.2} f",
        r.ipc(),
        r.l2_misses_per_10k(),
        r.mean_checker_fraction,
    )
}

/// The `--trace-out` JSONL writer of `simulate`, `sweep` and
/// `campaign` (discarding when no path is given).
fn trace_sink(path: Option<&str>) -> Result<JsonlSink<Box<dyn Write>>, String> {
    let writer: Box<dyn Write> = match path {
        Some(path) => Box::new(io::BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => Box::new(io::sink()),
    };
    Ok(JsonlSink::new(writer))
}

/// Flushes a [`trace_sink`], reporting the first write error.
fn finish_trace(mut jsonl: JsonlSink<Box<dyn Write>>) -> Result<(), String> {
    jsonl
        .finish()
        .map_err(|e| format!("trace write failed: {e}"))
}

/// The `--stall-factor F` heartbeat watchdog of `sweep` and `campaign`.
fn stall_watchdog(stall_factor: Option<f64>) -> Result<Option<WatchdogConfig>, String> {
    check_range(
        "--stall-factor",
        stall_factor,
        |f| f > 1.0,
        "greater than 1",
    )?;
    Ok(stall_factor.map(|multiplier| WatchdogConfig {
        multiplier,
        ..WatchdogConfig::default()
    }))
}

/// Streams sweep and campaign progress to stderr as the engine emits
/// job events. The bracket counts jobs finished so far (cache hits
/// included) out of the total: the pool runs jobs out of grid order, so
/// a job's grid index would not read as progress.
struct ProgressSink {
    quiet: bool,
    finished: u64,
}

impl ProgressSink {
    fn new(quiet: bool) -> ProgressSink {
        ProgressSink { quiet, finished: 0 }
    }
}

impl Sink for ProgressSink {
    fn record(&mut self, event: &Event) {
        if self.quiet {
            return;
        }
        match event {
            Event::JobStarted { total, label, .. } => {
                eprintln!("[{}/{total}] start  {label}", self.finished);
            }
            Event::JobCacheHit { total, label, .. } => {
                self.finished += 1;
                eprintln!("[{}/{total}] cached {label}", self.finished);
            }
            Event::JobFinished {
                total,
                ok,
                wall_nanos,
                eta_nanos,
                ..
            } => {
                self.finished += 1;
                eprintln!(
                    "[{}/{total}] {} in {:.1} s (eta {:.1} s)",
                    self.finished,
                    if *ok { "done  " } else { "FAILED" },
                    *wall_nanos as f64 / 1e9,
                    *eta_nanos as f64 / 1e9,
                );
            }
            _ => {}
        }
    }
}

/// Telemetry-related `simulate` flags.
struct TelemetryOpts {
    trace_out: Option<String>,
    csv_out: Option<String>,
    sample_interval: u64,
    metrics: bool,
}

impl TelemetryOpts {
    fn from_args(a: &mut Args) -> Result<TelemetryOpts, String> {
        Ok(TelemetryOpts {
            trace_out: a.opt("--trace-out")?,
            csv_out: a.opt("--csv-out")?,
            sample_interval: a.parsed("--sample-interval")?.unwrap_or(0),
            metrics: a.flag("--metrics"),
        })
    }

    fn enabled(&self) -> bool {
        self.trace_out.is_some()
            || self.csv_out.is_some()
            || self.sample_interval > 0
            || self.metrics
    }
}

/// Runs the simulation with the configured exporters attached and
/// writes the artifacts; on I/O failure returns the error message.
fn run_traced(
    cfg: &SimConfig,
    bench: Benchmark,
    opts: &TelemetryOpts,
) -> Result<PerfResult, String> {
    let jsonl = trace_sink(opts.trace_out.as_deref())?;
    let collector = CollectorSink::new();
    let result = simulate_traced(
        cfg,
        bench,
        opts.sample_interval,
        (collector.clone(), jsonl.clone()),
    );
    let snapshot = collector.snapshot();
    let mut jsonl = jsonl;
    jsonl.write_summary(&snapshot.registry);
    finish_trace(jsonl)?;
    if let Some(path) = &opts.csv_out {
        let mut f = io::BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        write_samples_csv(&mut f, snapshot.samples.iter())
            .map_err(|e| format!("csv write failed: {e}"))?;
    }
    if opts.metrics {
        let (injected, corrected) = snapshot.fault_counts();
        let (recoveries, unrecoverable) = snapshot.recovery_counts();
        eprintln!("-- metrics --");
        eprint!("{}", snapshot.registry.format_human());
        eprintln!(
            "samples: {}, dfs transitions: {}",
            snapshot.samples.len(),
            snapshot.dfs_transitions(),
        );
        eprintln!(
            "faults: {injected} injected ({corrected} ECC-corrected), \
             recoveries: {recoveries} ({unrecoverable} unrecoverable)"
        );
    }
    Ok(result)
}

/// `rmt3d list`: the processor models and benchmarks.
fn run_list_command(a: Args) -> Result<ExitCode, String> {
    a.finish()?;
    println!("models:");
    for m in ProcessorModel::ALL {
        println!(
            "  {:11} {} MB L2, checker: {}",
            m.name(),
            m.nuca_layout().bank_count(),
            if m.has_checker() { "yes" } else { "no" }
        );
    }
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {:8} ({})", b.name(), b.suite());
    }
    Ok(ExitCode::SUCCESS)
}

/// `rmt3d simulate --model M --benchmark B`: one run, optionally with
/// the telemetry exporters attached.
fn run_simulate_command(mut a: Args) -> Result<ExitCode, String> {
    let model = a.model()?;
    let bench = a.benchmark()?;
    let instructions = a.parsed("--instructions")?.unwrap_or(500_000);
    let ways = a.flag("--ways");
    let quiet = a.flag("--quiet");
    let telemetry = TelemetryOpts::from_args(&mut a)?;
    a.finish()?;
    let mut cfg = SimConfig::nominal(model, RunScale::with_instructions(instructions));
    if ways {
        cfg.policy = NucaPolicy::DistributedWays;
    }
    let r = if telemetry.enabled() {
        run_traced(&cfg, bench, &telemetry)?
    } else {
        simulate(&cfg, bench)
    };
    if !quiet {
        println!(
            "model {} benchmark {} ({} instructions)",
            model, bench, instructions
        );
        println!("IPC: {:.3}", r.ipc());
        println!(
            "L2: {:.1}-cycle mean hit, {:.2} misses/10K",
            r.l2.mean_hit_cycles(),
            r.l2_misses_per_10k()
        );
        if model.has_checker() {
            println!("checker mean frequency: {:.2} f", r.mean_checker_fraction);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `rmt3d thermal --model M --benchmark B [--checker-watts W]`: a
/// steady-state thermal solve of one run's power map.
fn run_thermal_command(mut a: Args) -> Result<ExitCode, String> {
    let model = a.model()?;
    let bench = a.benchmark()?;
    let watts = a.parsed("--checker-watts")?.unwrap_or(7.0);
    let quiet = a.flag("--quiet");
    a.finish()?;
    check_range(
        "--checker-watts",
        Some(watts),
        |w| w >= 0.0,
        "a finite, non-negative wattage",
    )?;
    let perf = simulate(
        &SimConfig::nominal(
            model,
            RunScale {
                warmup_instructions: 50_000,
                instructions: 300_000,
                thermal_grid: 50,
            },
        ),
        bench,
    );
    let mut chip = build_power_map(
        &perf,
        &PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(watts))),
    );
    if model.has_checker() {
        override_checker_power(&mut chip, Watts(watts));
    }
    let r = solve(&model.floorplan(), &chip.map, &ThermalConfig::paper()).expect("thermal solve");
    if !quiet {
        println!("model {} benchmark {} checker {} W", model, bench, watts);
        println!("chip power: {:.1} W", chip.total().0);
        println!("peak temperature: {}", r.peak());
        for (d, _) in model.floorplan().dies.iter().enumerate() {
            println!("  die {d}: {}", r.die_peak(d));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `rmt3d experiment <name> [--paper] [--jobs N]`: regenerate one of
/// the paper's tables or figures.
fn run_experiment_command(mut a: Args) -> Result<ExitCode, String> {
    // The flags are consumed before the positional so a flag's value is
    // never taken for the name, but a missing name is reported first.
    let paper = a.flag("--paper");
    let jobs = a.jobs();
    let name = a.positional().ok_or("experiment requires a name")?;
    let sim: Box<dyn Simulator> = match jobs? {
        None | Some(1) => Box::new(SerialSimulator),
        Some(n) => Box::new(ParallelSimulator::new(n)),
    };
    let sim = sim.as_ref();
    a.finish()?;
    let (benchmarks, scale): (Vec<Benchmark>, RunScale) = if paper {
        (Benchmark::ALL.to_vec(), RunScale::paper())
    } else {
        (
            vec![Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim],
            RunScale {
                warmup_instructions: 50_000,
                instructions: 250_000,
                thermal_grid: 50,
            },
        )
    };
    match name.as_str() {
        "tables" => {
            print!("{}", tables::table4_text());
            print!("{}", tables::table5_text());
            print!("{}", tables::table6_text());
            print!("{}", tables::table7_text());
            print!("{}", tables::table8_text());
        }
        "fig4" => print!(
            "{}",
            fig4::run_with(sim, &benchmarks, scale)
                .expect("fig4")
                .to_table()
        ),
        "fig5" => print!(
            "{}",
            fig5::run_with(sim, &benchmarks, scale)
                .expect("fig5")
                .to_table()
        ),
        "fig6" => print!("{}", fig6::run_with(sim, &benchmarks, scale).to_table()),
        "fig7" => print!("{}", fig7::run_with(sim, &benchmarks, scale).to_table()),
        "iso-thermal" => {
            for w in [7.0, 15.0] {
                let p = iso_thermal::run_with(sim, w, &benchmarks, scale).expect("iso-thermal");
                println!(
                    "{:4.0} W checker: {:.2} GHz, perf loss {:.1}%",
                    w,
                    p.matched_frequency.value(),
                    100.0 * p.performance_loss
                );
            }
        }
        "interconnect" => print!("{}", interconnect::run().to_table()),
        "heterogeneous" => print!(
            "{}",
            heterogeneous::run_with(sim, &benchmarks, scale)
                .expect("heterogeneous")
                .to_table()
        ),
        "margins" => {
            let f7 = fig7::run_with(sim, &benchmarks, scale);
            print!("{}", margins::run(&f7, TechNode::N65, 12).to_table());
        }
        "dfs-ablation" => print!("{}", dfs_ablation::run(&benchmarks, scale).to_table()),
        "hard-error" => print!("{}", hard_error::run(&benchmarks, scale).to_table()),
        "summary" => print!(
            "{}",
            rmt_summary::run_with(sim, &benchmarks, scale).to_table()
        ),
        "tmr" => print!(
            "{}",
            tmr_study::run(Benchmark::Twolf, if paper { 20 } else { 6 }, 2e-3, 30_000).to_table()
        ),
        "interrupts" => print!("{}", interrupts::run(&benchmarks, 10_000, scale).to_table()),
        "resilience" => print!(
            "{}",
            resilience::run_with(sim, &benchmarks, scale).to_table()
        ),
        "dtm" => print!(
            "{}",
            dtm::run_with(sim, rmt3d_units::Celsius(82.0), &benchmarks, scale)
                .expect("dtm study")
                .to_table()
        ),
        "shared-cache" => print!(
            "{}",
            shared_cache::run(if paper { 400_000 } else { 80_000 }).to_table()
        ),
        "leakage" => {
            let r = leakage_feedback::run_with(sim, Benchmark::Gzip, scale).expect("coupled solve");
            println!(
                "leakage-temperature coupling: open-loop peak {:.2} C, \
                 closed-loop {:.2} C (shift {:+.3} C in {} iterations) — negligible, \
                 as the paper reports",
                r.open_loop_peak.0,
                r.closed_loop_peak.0,
                r.peak_shift(),
                r.iterations
            );
        }
        other => return Err(format!("unknown experiment: {other}")),
    }
    Ok(ExitCode::SUCCESS)
}

/// The `rmt3d sweep` subcommand: expand a declarative spec and run it
/// on the parallel engine with the on-disk result cache.
fn run_sweep_command(mut a: Args) -> Result<ExitCode, String> {
    let payload = a.sweep_job()?;
    let jobs = a.jobs()?.unwrap_or(0); // 0: the pool's automatic size
    let resume = a.flag("--resume");
    let no_cache = a.flag("--no-cache");
    let out_dir = PathBuf::from(a.opt_or("--out-dir", DEFAULT_CACHE_DIR)?);
    let cache_max_bytes = a.parsed::<u64>("--cache-max-bytes")?;
    let quiet = a.flag("--quiet");
    let trace_out = a.opt("--trace-out")?;
    let stall_factor = a.parsed::<f64>("--stall-factor")?;
    let ledger_root = a.ledger_root()?;
    a.finish()?;
    payload.validate()?;
    if resume && no_cache {
        return Err("--resume and --no-cache are mutually exclusive".into());
    }
    if cache_max_bytes.is_some() && no_cache {
        return Err("--cache-max-bytes has no effect with --no-cache".into());
    }
    let watchdog = stall_watchdog(stall_factor)?;
    let cache = if no_cache {
        CacheMode::Disabled
    } else {
        if resume && !out_dir.is_dir() {
            return Err(format!(
                "--resume requires an existing cache directory, but {} does not exist",
                out_dir.display()
            ));
        }
        CacheMode::Dir(out_dir)
    };

    let spec = payload.sweep_spec();
    let opts = SweepOptions {
        jobs,
        cache,
        watchdog,
        cancel: None,
    };
    if !quiet {
        eprintln!(
            "sweep: {} jobs ({} models x {} benchmarks, {} instructions) on {} workers",
            spec.job_count(),
            spec.models.len(),
            spec.benchmarks.len(),
            spec.scale.instructions,
            opts.worker_count(),
        );
    }

    let mut config = payload.config();
    config.push(("workers".to_string(), opts.worker_count().to_string()));
    config.push((
        "cache".to_string(),
        match &opts.cache {
            CacheMode::Disabled => "disabled".to_string(),
            CacheMode::Dir(d) => d.display().to_string(),
        },
    ));
    let tracker = runctl::start_run(
        ledger_root.as_deref(),
        payload.kind(),
        payload.spec_hash(),
        payload.total_jobs(),
        &config,
        quiet,
    );

    let jsonl = trace_sink(trace_out.as_deref())?;
    let mut sink = ((ProgressSink::new(quiet), jsonl.clone()), tracker);
    let report = run_sweep(spec.expand(), &opts, &mut sink)?;
    let (_, tracker) = sink;
    finish_trace(jsonl)?;
    let outcome = if report.failures > 0 { "failed" } else { "ok" };
    runctl::finish_run(tracker, outcome, None, quiet);
    if let (Some(max), CacheMode::Dir(dir)) = (cache_max_bytes, &opts.cache) {
        match ResultStore::open(dir).and_then(|store| store.evict_to(max)) {
            Ok(ev) if ev.evicted_entries > 0 && !quiet => eprintln!(
                "sweep: cache evicted {} entr{} ({} bytes), {} bytes retained",
                ev.evicted_entries,
                if ev.evicted_entries == 1 { "y" } else { "ies" },
                ev.evicted_bytes,
                ev.remaining_bytes,
            ),
            Ok(_) => {}
            Err(e) => eprintln!("sweep: warning: cache eviction failed: {e}"),
        }
    }

    for record in &report.records {
        let label = record.job.label();
        match &record.outcome {
            Ok(r) => println!("{}", sweep_line(&label, r)),
            Err(e) => println!("{label:28} FAILED: {e}"),
        }
    }
    println!("{}", report.summary());
    Ok(if report.failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `rmt3d campaign` subcommand: expand a fault-injection grid, run
/// it on the parallel engine, write the JSONL coverage report, and — on
/// a violation — minimize the first one into a regression fixture.
fn run_campaign_command(mut a: Args) -> Result<ExitCode, String> {
    let mut payload = a.campaign_job()?;
    let jobs = a.jobs()?.unwrap_or(0); // 0: the pool's automatic size
    let out_dir = PathBuf::from(a.opt_or("--out-dir", "target/campaign")?);
    let sabotage = a
        .opt("--sabotage")?
        .map(|s| FaultSite::parse(&s))
        .transpose()?;
    let journal = a.flag("--journal");
    let resume = a.flag("--resume");
    let quiet = a.flag("--quiet");
    let trace_out = a.opt("--trace-out")?;
    let stall_factor = a.parsed::<f64>("--stall-factor")?;
    let ledger_root = a.ledger_root()?;
    a.finish()?;
    let watchdog = stall_watchdog(stall_factor)?;
    // A sabotaged grid is another job: its spec hash covers the ECC.
    if let Some(site) = sabotage {
        payload = JobPayload::Campaign(payload.campaign_spec().clone().sabotage(site)?);
    }
    payload.validate()?;
    let spec = payload.campaign_spec();
    if !quiet {
        eprintln!(
            "campaign: {} trials ({} sites x {} benchmarks x {} faults, \
             {} instructions, seed {}){}",
            spec.total_trials(),
            spec.sites.len(),
            spec.benchmarks.len(),
            spec.faults_per_cell,
            spec.instructions,
            spec.seed,
            if sabotage.is_some() {
                " [ECC SABOTAGED]"
            } else {
                ""
            },
        );
    }

    let tracker = runctl::start_run(
        ledger_root.as_deref(),
        payload.kind(),
        payload.spec_hash(),
        payload.total_jobs(),
        &payload.config(),
        quiet,
    );

    let jsonl = trace_sink(trace_out.as_deref())?;
    let mut sink = ((ProgressSink::new(quiet), jsonl.clone()), tracker);
    let opts = CampaignOptions {
        jobs,
        watchdog,
        journal: (journal || resume).then(|| out_dir.join(JOURNAL_FILE)),
        resume,
        cancel: None,
    };
    let run = run_campaign_with(spec, &opts, &mut sink)?;
    if !quiet {
        if let Some(reason) = &run.journal_discarded {
            eprintln!("campaign: journal discarded ({reason}); starting fresh");
        }
        if run.resumed > 0 || run.requeued > 0 {
            eprintln!(
                "campaign: resumed {} completed trials from the journal, re-queued {}",
                run.resumed, run.requeued
            );
        }
    }
    let report = run.report;
    let (_, tracker) = sink;
    finish_trace(jsonl)?;
    let outcome = if report.violations().is_empty() {
        "ok"
    } else {
        "failed"
    };
    runctl::finish_run(tracker, outcome, None, quiet);

    let report_path = out_dir.join("campaign.jsonl");
    write_atomic(&report_path, &report.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

    for s in report.site_summaries() {
        println!(
            "{:16} {:4} trials: {:4} corrected, {:4} detected, {:4} masked, \
             {:2} violations | detect latency p50 {} p90 {} p99 {} max {} cycles",
            s.site.name(),
            s.trials,
            s.corrected,
            s.detected,
            s.masked,
            s.violations + s.failed,
            s.latency.p50,
            s.latency.p90,
            s.latency.p99,
            s.latency.max,
        );
    }
    println!("{}", report.summary());
    println!("report: {}", report_path.display());

    let violations = report.violations();
    if let Some(victim) = violations.first() {
        if let Some(violation) = victim.outcome.as_ref().ok().and_then(|t| t.violation) {
            if !quiet {
                eprintln!("minimizing first violation: {}", victim.spec.label());
            }
            match shrink(&victim.spec, 300) {
                Ok(shrunk) => {
                    match write_fixture(&out_dir.join("fixtures"), &shrunk.spec, violation) {
                        Ok(path) => println!(
                            "minimized fixture ({} attempts, {} reductions): {}",
                            shrunk.attempts,
                            shrunk.accepted,
                            path.display()
                        ),
                        Err(e) => eprintln!("fixture write failed: {e}"),
                    }
                }
                Err(e) => eprintln!("shrink failed: {e}"),
            }
        }
    }
    Ok(if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some((_, run)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        return fail(&format!("unknown command: {cmd}"));
    };
    run(Args::new(&args[1..])).unwrap_or_else(|e| fail(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_usage_text_keeps_its_indentation() {
        let lines: Vec<&str> = USAGE.lines().collect();
        for (name, _) in COMMANDS {
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("  {name} "))),
                "{name} is not indented under `commands:`"
            );
        }
        // Continuation lines sit under the flags, not the command names.
        let i = lines
            .iter()
            .position(|l| l.starts_with("  simulate "))
            .unwrap();
        assert!(lines[i + 1].starts_with("             [--trace-out FILE.jsonl]"));
    }

    #[test]
    fn every_command_is_listed_in_the_usage_text() {
        for (name, _) in COMMANDS {
            assert!(
                USAGE
                    .lines()
                    .any(|line| line.split_whitespace().next() == Some(name)),
                "{name} missing from the usage text"
            );
        }
    }
}
