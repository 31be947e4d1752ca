//! Run-ledger plumbing and the observability subcommands.
//!
//! Every `sweep`, `campaign`, and `profile` invocation registers itself
//! in the run ledger (default root `target/runs`, overridable with
//! `--runs-root`, disabled with `--no-ledger`): a `manifest.json` at
//! start, a live `status.json` while the pool drains, and a
//! `metrics.json` snapshot at the end. `rmt3d status` and
//! `rmt3d report --html` read those documents back.
//!
//! Ledger chatter goes to **stderr only** — command stdout stays
//! byte-identical with and without the ledger, which CI relies on.
//! Ledger failures (unwritable root, full disk) degrade to stderr
//! warnings: observability must never fail the run it observes.

use crate::args::Args;
use rmt3d_obs::durable::write_atomic;
use rmt3d_obs::ledger::{format_unix_ms, RunLedger, METRICS_FILE, REPORT_FILE, STATUS_FILE};
use rmt3d_obs::metricsio::parse_metrics;
use rmt3d_obs::{render_html_with, DaemonSeries, Manifest, ReportOptions, RunStatus, RunTracker};
use rmt3d_telemetry::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Registers a run in the ledger at `root` (`None`: `--no-ledger`).
/// A ledger that cannot be opened is a stderr warning, not an error.
pub fn start_run(
    root: Option<&Path>,
    kind: &str,
    spec_hash: u64,
    total_jobs: u64,
    config: &[(String, String)],
    quiet: bool,
) -> Option<RunTracker> {
    match RunTracker::start(root?, kind, spec_hash, total_jobs, config) {
        Ok(tracker) => {
            if !quiet {
                eprintln!("run: {} ({})", tracker.run_id(), tracker.dir().display());
            }
            Some(tracker)
        }
        Err(e) => {
            eprintln!("warning: run ledger disabled: {e}");
            None
        }
    }
}

/// Closes a run from [`start_run`] (see [`RunTracker::finish`]); its
/// failures are stderr warnings.
pub fn finish_run(
    tracker: Option<RunTracker>,
    outcome: &str,
    metrics: Option<&MetricsRegistry>,
    quiet: bool,
) {
    let Some(tracker) = tracker else {
        return;
    };
    let run_id = tracker.run_id().to_string();
    if let Err(errors) = tracker.finish(outcome, metrics) {
        for e in errors {
            eprintln!("warning: {e}");
        }
    }
    if !quiet {
        eprintln!("run: {run_id} {outcome}; inspect with `rmt3d status --run {run_id}`");
    }
}

fn open_resolved(a: &mut Args) -> Result<(RunLedger, String), String> {
    let root = a.runs_root()?;
    let run = a.opt("--run")?;
    let ledger =
        RunLedger::open(&root).map_err(|e| format!("cannot open {}: {e}", root.display()))?;
    let run_id = ledger.resolve(run.as_deref())?;
    Ok((ledger, run_id))
}

fn load_manifest(ledger: &RunLedger, run_id: &str) -> Result<Manifest, String> {
    let path = ledger
        .run_dir(run_id)
        .join(rmt3d_obs::ledger::MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Manifest::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_status(ledger: &RunLedger, run_id: &str) -> Result<Option<RunStatus>, String> {
    let path = ledger.run_dir(run_id).join(STATUS_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => RunStatus::from_json(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

fn print_status(manifest: &Manifest, status: Option<&RunStatus>) {
    match status {
        Some(s) => print!("{}", s.format_human()),
        None => println!(
            "run {}  kind={}  outcome={}  (no status.json yet)",
            manifest.run_id, manifest.kind, manifest.outcome
        ),
    }
    println!(
        "started {}  version {}  spec {}",
        format_unix_ms(manifest.started_unix_ms),
        manifest.version,
        manifest.spec_hash
    );
}

/// `rmt3d status [--run ID] [--follow] [--interval MS]
/// [--runs-root DIR]`: print a run's live progress; `--follow`
/// refreshes every `--interval` milliseconds (default 500) until the
/// run reaches a terminal state.
///
/// Under `--follow` a run that does not exist *yet* is waited for
/// rather than failed on: `rmt3d serve` registers a job's run only
/// when the scheduler starts it, so "submit, then watch the latest
/// run" would otherwise race the daemon. Without `--follow` a missing
/// run is still an immediate error.
pub fn run_status_command(mut a: Args) -> Result<ExitCode, String> {
    let follow = a.interval_ms("--follow", 500)?;
    let root = a.runs_root()?;
    let run = a.opt("--run")?;
    a.finish()?;
    let mut announced = false;
    // Under --follow a missing run or manifest is waited for; else it
    // is the command's error.
    let mut wait = |e: String| -> Result<(), String> {
        let Some(interval) = follow else {
            return Err(e);
        };
        if !announced {
            eprintln!("status: waiting for the run to appear ({e})");
            announced = true;
        }
        std::thread::sleep(interval);
        Ok(())
    };
    let (ledger, run_id) = loop {
        let resolved = RunLedger::open(&root)
            .map_err(|e| format!("cannot open {}: {e}", root.display()))
            .and_then(|ledger| {
                ledger
                    .resolve(run.as_deref())
                    .map(|run_id| (ledger, run_id))
            });
        match resolved {
            Ok(ok) => break ok,
            Err(e) => wait(e)?,
        }
    };
    loop {
        let manifest = match load_manifest(&ledger, &run_id) {
            Ok(m) => m,
            Err(e) => {
                wait(e)?;
                continue;
            }
        };
        let status = load_status(&ledger, &run_id)?;
        if follow.is_some() {
            // Clear the screen between frames, watch(1)-style.
            print!("\x1b[2J\x1b[H");
        }
        print_status(&manifest, status.as_ref());
        let running = status
            .as_ref()
            .map_or(manifest.outcome == "running", |s| s.state == "running");
        match follow {
            Some(interval) if running => std::thread::sleep(interval),
            _ => return Ok(ExitCode::SUCCESS),
        }
    }
}

/// `rmt3d report --html [--run ID] [--out FILE] [--runs-root DIR]
/// [--daemon-metrics FILE] [--refresh SECS]`: render a run's
/// self-contained HTML dashboard from its ledger documents (default
/// output: `report.html` inside the run directory).
/// `--daemon-metrics` adds the daemon fleet panel from a
/// `daemon.metrics.jsonl` time-series ring; `--refresh` embeds a meta
/// refresh tag so a report regenerated in place reloads itself.
pub fn run_report_command(mut a: Args) -> Result<ExitCode, String> {
    let html = a.flag("--html");
    let out = a.opt("--out")?;
    let daemon_metrics = a.opt("--daemon-metrics")?.map(PathBuf::from);
    let refresh_secs = a.parsed::<u64>("--refresh")?;
    if refresh_secs == Some(0) {
        return Err("--refresh must be at least 1 second".into());
    }
    let (ledger, run_id) = open_resolved(&mut a)?;
    a.finish()?;
    if !html {
        return Err("report currently supports only --html".into());
    }
    let manifest = load_manifest(&ledger, &run_id)?;
    // A run registered but killed before its first status write still
    // gets a (sparse) report.
    let status = load_status(&ledger, &run_id)?
        .unwrap_or_else(|| RunStatus::new(&manifest.run_id, &manifest.kind, manifest.total_jobs));
    let metrics_path = ledger.run_dir(&run_id).join(METRICS_FILE);
    let metrics = match std::fs::read_to_string(&metrics_path) {
        Ok(text) => {
            Some(parse_metrics(&text).map_err(|e| format!("{}: {e}", metrics_path.display()))?)
        }
        Err(_) => None,
    };
    // An explicitly named ring that cannot be read is an error; an
    // empty or torn one still renders (the parser skips bad lines).
    let daemon = match &daemon_metrics {
        Some(path) => Some(DaemonSeries::parse(
            &std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        )),
        None => None,
    };
    let rendered = render_html_with(
        &manifest,
        &status,
        metrics.as_ref(),
        &ReportOptions {
            daemon: daemon.as_ref(),
            refresh_secs,
        },
    );
    let out_path = out
        .map(PathBuf::from)
        .unwrap_or_else(|| ledger.run_dir(&run_id).join(REPORT_FILE));
    write_atomic(&out_path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!("report: {}", out_path.display());
    Ok(ExitCode::SUCCESS)
}
