//! The profiler-facing subcommands: `profile`, `trace-report`, and
//! `bench-gate`.
//!
//! * `profile` runs one simulation with the CPI-stack classifier and
//!   the Perfetto trace exporter attached, prints the cycle-accounting
//!   report, and writes a `.trace.json` loadable in ui.perfetto.dev.
//!   Everything printed is simulation-deterministic — no wall times —
//!   so two runs of the same configuration are byte-identical.
//! * `trace-report` rebuilds the same report offline from a JSONL
//!   trace produced by `simulate --trace-out` (the CPI stacks ride in
//!   the trace as `cpi_leader_*`/`cpi_checker_*` counter samples).
//! * `bench-gate` compares two `RMT3D_BENCH_JSON` files and fails on
//!   wall-clock regressions beyond a tolerance or on any drift in a
//!   deterministic stat.

use crate::args::{check_range, Args};
use crate::runctl;
use rmt3d::telemetry::json::{parse, JsonObject, JsonValue};
use rmt3d::telemetry::{
    CollectorSink, CpiComponent, CpiStack, Event, MetricsRegistry, Sink, TraceEventSink,
};
use rmt3d::{simulate_traced, RunScale, SimConfig};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

/// `rmt3d profile --model M --benchmark B`: run with the profiler
/// sinks attached, print the CPI stacks and histograms, and export a
/// Perfetto trace.
pub fn run_profile_command(mut a: Args) -> Result<ExitCode, String> {
    let model = a.model()?;
    let bench = a.benchmark()?;
    let instructions = a.parsed("--instructions")?.unwrap_or(200_000);
    let sample_interval = a.parsed("--sample-interval")?.unwrap_or(1_000);
    let out_dir = PathBuf::from(a.opt_or("--out-dir", "target/profile")?);
    let quiet = a.flag("--quiet");
    let ledger_root = a.ledger_root()?;
    a.finish()?;

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("{model}-{bench}.trace.json"));
    let writer = BufWriter::new(
        File::create(&trace_path)
            .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?,
    );

    let cfg = SimConfig::nominal(model, RunScale::with_instructions(instructions));
    let label = format!("{model}/{bench}");
    let canonical =
        format!("profile|{label}|instructions={instructions}|sample_interval={sample_interval}");
    let config = vec![
        ("model".to_string(), model.to_string()),
        ("benchmark".to_string(), bench.to_string()),
        ("instructions".to_string(), instructions.to_string()),
        ("sample_interval".to_string(), sample_interval.to_string()),
    ];
    let mut tracker = runctl::start_run(
        ledger_root.as_deref(),
        "profile",
        rmt3d_obs::spec_hash(std::iter::once(canonical.as_str())),
        1,
        &config,
        quiet,
    );
    // The profiler has no job pool; drive the run's single job through
    // the observer by hand so status.json reflects the simulation.
    tracker.record(&Event::JobStarted {
        job: 0,
        total: 1,
        label: label.clone(),
    });

    let collector = CollectorSink::new();
    let mut trace = TraceEventSink::new(writer);
    let t0 = std::time::Instant::now();
    let r = simulate_traced(
        &cfg,
        bench,
        sample_interval,
        (collector.clone(), trace.clone()),
    );
    let wall_nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    trace
        .finish()
        .map_err(|e| format!("trace write failed: {e}"))?;
    let snapshot = collector.snapshot();
    tracker.record(&Event::JobFinished {
        job: 0,
        total: 1,
        ok: true,
        wall_nanos,
        eta_nanos: 0,
    });

    println!(
        "profile: model {model} benchmark {bench} ({instructions} instructions, \
         sample interval {sample_interval})"
    );
    println!(
        "IPC {:.3} over {} cycles ({} committed)",
        r.ipc(),
        r.total_cycles,
        r.leader.committed
    );
    println!();
    print!(
        "{}",
        r.leader_cpi.format_table("leader", r.leader.committed)
    );
    debug_assert_eq!(r.leader_cpi.total(), r.total_cycles);
    if model.has_checker() {
        println!();
        print!(
            "{}",
            r.trailer_cpi.format_table("checker", r.leader.committed)
        );
        debug_assert_eq!(r.trailer_cpi.total(), r.total_cycles);
    }
    if !snapshot.registry.is_empty() {
        println!();
        println!("-- histograms --");
        print!("{}", snapshot.registry.format_histograms());
    }
    println!();
    println!("trace: {}", trace_path.display());
    // The collector's registry (CPI counters, occupancy histograms) is
    // the interesting snapshot for a profile run's dashboard.
    runctl::finish_run(tracker, "ok", Some(&snapshot.registry), quiet);
    if !quiet {
        eprintln!(
            "open the trace in ui.perfetto.dev, or re-derive this report with \
             `rmt3d trace-report` from a simulate --trace-out JSONL"
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Maps an exported counter-series name back to its CPI component and
/// track (`true` = leader).
fn cpi_series(name: &str) -> Option<(bool, CpiComponent)> {
    for c in CpiComponent::ALL {
        if name == c.leader_counter_name() {
            return Some((true, c));
        }
        if name == c.checker_counter_name() {
            return Some((false, c));
        }
    }
    None
}

/// `rmt3d trace-report --in FILE [--chrome-out FILE]`: rebuild the
/// profile report from a JSONL event trace, offline. `--chrome-out`
/// additionally records the decoded events into the same
/// `TraceEventSink` that `profile` uses live, so the `.trace.json` is
/// byte-identical to a live one — the offline path for the daemon's
/// `daemon.trace.jsonl`, whose job spans become async timeline events.
pub fn run_trace_report_command(mut a: Args) -> Result<ExitCode, String> {
    let path = a.required("--in")?;
    let chrome_out = a.opt("--chrome-out")?;
    a.finish()?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut chrome = match &chrome_out {
        Some(out) => Some(TraceEventSink::new(BufWriter::new(
            File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?,
        ))),
        None => None,
    };

    let mut leader = CpiStack::new();
    let mut checker = CpiStack::new();
    let mut registry = MetricsRegistry::default();
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    let mut events = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let event =
            Event::from_json_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        events += 1;
        // The trailing metrics-summary line is counted but has no event
        // form.
        let kind = event.as_ref().map_or("summary", Event::kind);
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
        let Some(event) = event else { continue };
        if let Some(chrome) = chrome.as_mut() {
            chrome.record(&event);
        }
        match &event {
            Event::Counter { name, value, .. } => {
                // The stacks are exported once, post-measurement; keep
                // the last sample in case a file concatenates runs.
                match cpi_series(name) {
                    Some((true, c)) => leader.set(c, *value as u64),
                    Some((false, c)) => checker.set(c, *value as u64),
                    None => registry.record(name, *value),
                }
            }
            Event::Interval(s) => {
                registry.record("interval_ipc", s.ipc);
                registry.record_hist("slack", u64::from(s.rvq));
                registry.record_hist("rob_occupancy", u64::from(s.rob));
                registry.record_hist("lsq_occupancy", u64::from(s.lsq));
                registry.record_hist("lvq_occupancy", u64::from(s.lvq));
                registry.record_hist("boq_occupancy", u64::from(s.boq));
                registry.record_hist("stb_occupancy", u64::from(s.stb));
            }
            Event::CampaignTrial { detect_cycles, .. } if *detect_cycles > 0 => {
                registry.record_hist("detection_latency", *detect_cycles);
            }
            _ => {}
        }
    }

    if let Some(mut chrome) = chrome {
        chrome
            .finish()
            .map_err(|e| format!("chrome trace write failed: {e}"))?;
        if let Some(out) = &chrome_out {
            println!("chrome trace: {out}");
        }
    }

    println!("trace report: {path} ({events} events)");
    for (kind, n) in &counts {
        println!("  {kind:16} {n:>10}");
    }
    if !leader.is_empty() {
        println!();
        print!("{}", leader.format_table("leader", 0));
    }
    if !checker.is_empty() {
        println!();
        print!("{}", checker.format_table("checker", 0));
    }
    if !registry.is_empty() {
        println!();
        println!("-- histograms --");
        print!("{}", registry.format_histograms());
    }
    Ok(ExitCode::SUCCESS)
}

/// One record from an `RMT3D_BENCH_JSON` file: either a timed target
/// (minimum wall nanoseconds kept — the most noise-resistant statistic)
/// or a deterministic stat that must match the baseline exactly.
enum BenchRecord {
    Wall(f64),
    Stat(f64),
}

fn read_bench_file(path: &str) -> Result<Vec<(String, BenchRecord)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records: Vec<(String, BenchRecord)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}:{}: record without \"name\"", lineno + 1))?
            .to_string();
        let record = if let Some(stat) = v.get("stat").and_then(JsonValue::as_f64) {
            BenchRecord::Stat(stat)
        } else if let Some(min) = v.get("min").and_then(JsonValue::as_f64) {
            BenchRecord::Wall(min)
        } else {
            return Err(format!(
                "{path}:{}: record has neither \"stat\" nor \"min\"",
                lineno + 1
            ));
        };
        // Re-runs append; the last record for a name wins.
        match records.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = record,
            None => records.push((name, record)),
        }
    }
    Ok(records)
}

/// Looks up the deterministic stat `<target>/<stat>` in a bench record
/// set (e.g. `gate/2d-a/gzip` + `total_cycles`).
fn stat_of(records: &[(String, BenchRecord)], target: &str, stat: &str) -> Option<f64> {
    let key = format!("{target}/{stat}");
    records.iter().find_map(|(n, r)| match r {
        BenchRecord::Stat(s) if *n == key => Some(*s),
        _ => None,
    })
}

/// `rmt3d bench-gate --baseline FILE --current FILE [--tolerance PCT]
/// [--json]`: compare two bench JSONL files; exit non-zero on
/// regression. `--json` replaces the human table with one strict-JSON
/// result line for CI consumption.
pub fn run_bench_gate_command(mut a: Args) -> Result<ExitCode, String> {
    let baseline_path = a.required("--baseline")?;
    let current_path = a.required("--current")?;
    let tolerance = a.parsed::<f64>("--tolerance")?.unwrap_or(10.0);
    let json = a.flag("--json");
    a.finish()?;
    check_range(
        "--tolerance",
        Some(tolerance),
        |t| (0.0..1000.0).contains(&t),
        "a percentage in [0, 1000)",
    )?;
    let baseline = read_bench_file(&baseline_path)?;
    let current = read_bench_file(&current_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path} contains no records"));
    }

    let mut violations = 0u32;
    let (mut regressed, mut drifted_n, mut missing, mut kind_changed) = (0u32, 0u32, 0u32, 0u32);
    if !json {
        println!(
            "bench gate: {current_path} vs baseline {baseline_path} \
             (wall tolerance {tolerance}%)"
        );
    }
    for (name, base) in &baseline {
        let cur = current.iter().find(|(n, _)| n == name).map(|(_, r)| r);
        match (base, cur) {
            (_, None) => {
                violations += 1;
                missing += 1;
                if !json {
                    println!("  {name:44} MISSING from current run");
                }
            }
            (BenchRecord::Wall(b), Some(BenchRecord::Wall(c))) => {
                let delta = 100.0 * (c - b) / b;
                let over = *c > b * (1.0 + tolerance / 100.0);
                if over {
                    violations += 1;
                    regressed += 1;
                }
                if !json {
                    println!(
                        "  {name:44} wall {:>10.0} ns -> {:>10.0} ns  {delta:+6.1}%  {}",
                        b,
                        c,
                        if over { "REGRESSED" } else { "ok" }
                    );
                }
                // Throughput view: pair the wall time with the target's
                // own `<name>/total_cycles` deterministic stat when one
                // is recorded (positive delta = faster simulator).
                let base_cycles = stat_of(&baseline, name, "total_cycles");
                let cur_cycles = stat_of(&current, name, "total_cycles").or(base_cycles);
                if let (Some(bc), Some(cc)) = (base_cycles, cur_cycles) {
                    let base_rate = bc / (b * 1e-9);
                    let cur_rate = cc / (c * 1e-9);
                    let rate_delta = 100.0 * (cur_rate - base_rate) / base_rate;
                    if !json {
                        println!(
                            "  {:44}      {:>10.3} Mc/s -> {:>7.3} Mc/s  {rate_delta:+6.1}%",
                            "",
                            base_rate / 1e6,
                            cur_rate / 1e6
                        );
                    }
                }
            }
            (BenchRecord::Stat(b), Some(BenchRecord::Stat(c))) => {
                let drifted = b != c;
                if drifted {
                    violations += 1;
                    drifted_n += 1;
                }
                if !json {
                    println!(
                        "  {name:44} stat {b} -> {c}  {}",
                        if drifted { "DRIFTED" } else { "exact" }
                    );
                }
            }
            _ => {
                violations += 1;
                kind_changed += 1;
                if !json {
                    println!("  {name:44} record kind changed between runs");
                }
            }
        }
    }
    let mut new_targets = 0u32;
    for (name, _) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            new_targets += 1;
            if !json {
                println!("  {name:44} new (not in baseline; re-bless to gate it)");
            }
        }
    }
    if json {
        // One strict-JSON result line for CI to parse and archive.
        let mut o = JsonObject::new();
        o.bool("ok", violations == 0)
            .u64("violations", u64::from(violations))
            .u64("regressed", u64::from(regressed))
            .u64("drifted", u64::from(drifted_n))
            .u64("missing", u64::from(missing))
            .u64("kind_changed", u64::from(kind_changed))
            .u64("new_targets", u64::from(new_targets))
            .u64("compared", baseline.len() as u64)
            .f64("tolerance_pct", tolerance)
            .str("baseline", &baseline_path)
            .str("current", &current_path);
        println!("{}", o.finish());
    } else if violations > 0 {
        println!("bench gate: {violations} violation(s)");
    } else {
        println!("bench gate: clean");
    }
    Ok(if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

// The subcommands above are exercised end-to-end by the CLI
// integration tests; `cpi_series` is the only pure helper worth
// pinning here.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_series_maps_both_tracks_and_rejects_noise() {
        assert_eq!(
            cpi_series("cpi_leader_base_issue"),
            Some((true, CpiComponent::BaseIssue))
        );
        assert_eq!(
            cpi_series("cpi_checker_dfs_throttled"),
            Some((false, CpiComponent::DfsThrottled))
        );
        assert_eq!(cpi_series("interval_ipc"), None);
        assert_eq!(cpi_series("cpi_leader_bogus"), None);
    }
}
