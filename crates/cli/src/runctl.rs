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
use crate::fail;
use rmt3d_obs::durable::write_atomic;
use rmt3d_obs::ledger::{format_unix_ms, RunLedger, METRICS_FILE, REPORT_FILE, STATUS_FILE};
use rmt3d_obs::metricsio::{metrics_to_json, parse_metrics};
use rmt3d_obs::{render_html_with, DaemonSeries, Manifest, ReportOptions, RunObserver, RunStatus};
use rmt3d_telemetry::{Event, MetricsRegistry, Sink};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Default runs root, relative to the working directory.
pub const DEFAULT_RUNS_ROOT: &str = "target/runs";

/// Shared `--runs-root` / `--no-ledger` flags.
pub struct LedgerOpts {
    /// Runs-root directory.
    pub root: PathBuf,
    /// False when `--no-ledger` was passed.
    pub enabled: bool,
}

impl LedgerOpts {
    /// Consumes the ledger flags from an argument list.
    pub fn from_args(a: &mut Args) -> Result<LedgerOpts, String> {
        let root = a.opt("--runs-root")?;
        let enabled = !a.flag("--no-ledger");
        Ok(LedgerOpts {
            root: PathBuf::from(root.unwrap_or_else(|| DEFAULT_RUNS_ROOT.into())),
            enabled,
        })
    }
}

/// A live run registration: ledger handle + status observer.
pub struct RunTracker {
    handle: rmt3d_obs::ledger::RunHandle,
    /// The status-folding sink; tee it into the command's sink stack.
    pub observer: RunObserver,
    quiet: bool,
}

impl RunTracker {
    /// Registers a run in the ledger. Returns `None` (with a stderr
    /// warning) when the ledger is disabled or cannot be created.
    pub fn start(
        opts: &LedgerOpts,
        kind: &str,
        spec_hash: u64,
        total_jobs: u64,
        config: &[(String, String)],
        quiet: bool,
    ) -> Option<RunTracker> {
        if !opts.enabled {
            return None;
        }
        let ledger = match RunLedger::open(&opts.root) {
            Ok(l) => l,
            Err(e) => {
                eprintln!(
                    "warning: run ledger disabled: cannot open {}: {e}",
                    opts.root.display()
                );
                return None;
            }
        };
        let handle = match ledger.create_run(kind, spec_hash, total_jobs, config) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("warning: run ledger disabled: cannot create run: {e}");
                return None;
            }
        };
        if !quiet {
            eprintln!("run: {} ({})", handle.run_id(), handle.dir().display());
        }
        let observer = RunObserver::new(handle.status_path(), handle.run_id(), kind, total_jobs);
        Some(RunTracker {
            handle,
            observer,
            quiet,
        })
    }

    /// Closes the run: final status write, `metrics.json` snapshot
    /// (from `metrics` when given, else the observer's own registry),
    /// and the manifest outcome. All best-effort.
    pub fn finish(mut self, outcome: &str, metrics: Option<&MetricsRegistry>) {
        if let Err(e) = self.observer.finalize(outcome) {
            eprintln!("warning: status write failed: {e}");
        }
        let json = metrics_to_json(metrics.unwrap_or_else(|| self.observer.registry()));
        if let Err(e) = write_atomic(&self.handle.metrics_path(), &json) {
            eprintln!("warning: metrics write failed: {e}");
        }
        if let Err(e) = self.handle.finish(outcome) {
            eprintln!("warning: manifest write failed: {e}");
        }
        if !self.quiet {
            eprintln!(
                "run: {} {outcome}; inspect with `rmt3d status --run {}`",
                self.handle.run_id(),
                self.handle.run_id()
            );
        }
    }
}

/// Adapter teeing events into an optional [`RunObserver`] — the ledger
/// may be disabled, but the command's sink type is fixed at compile
/// time.
pub struct ObserverSink<'a>(pub Option<&'a mut RunObserver>);

impl Sink for ObserverSink<'_> {
    fn record(&mut self, event: &Event) {
        if let Some(obs) = self.0.as_mut() {
            obs.record(event);
        }
    }
}

fn open_resolved(a: &mut Args) -> Result<(RunLedger, String), String> {
    let root = a.opt("--runs-root")?;
    let root = PathBuf::from(root.unwrap_or_else(|| DEFAULT_RUNS_ROOT.into()));
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
pub fn run_status_command(mut a: Args) -> ExitCode {
    let follow = a.flag("--follow");
    let interval = match a.parsed::<u64>("--interval") {
        Ok(Some(0)) => return fail("--interval must be at least 1 millisecond"),
        Ok(Some(_)) if !follow => return fail("--interval requires --follow"),
        Ok(Some(ms)) => Duration::from_millis(ms),
        Ok(None) => Duration::from_millis(500),
        Err(e) => return fail(&e),
    };
    let root = match a.opt("--runs-root") {
        Ok(r) => PathBuf::from(r.unwrap_or_else(|| DEFAULT_RUNS_ROOT.into())),
        Err(e) => return fail(&e),
    };
    let run = match a.opt("--run") {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    let mut announced = false;
    let mut wait = |e: String| -> Option<String> {
        if !follow {
            return Some(e);
        }
        if !announced {
            eprintln!("status: waiting for the run to appear ({e})");
            announced = true;
        }
        std::thread::sleep(interval);
        None
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
            Err(e) => {
                if let Some(e) = wait(e) {
                    return fail(&e);
                }
            }
        }
    };
    loop {
        let manifest = match load_manifest(&ledger, &run_id) {
            Ok(m) => m,
            Err(e) => match wait(e) {
                Some(e) => return fail(&e),
                None => continue,
            },
        };
        let status = match load_status(&ledger, &run_id) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        if follow {
            // Clear the screen between frames, watch(1)-style.
            print!("\x1b[2J\x1b[H");
        }
        print_status(&manifest, status.as_ref());
        let running = status
            .as_ref()
            .map_or(manifest.outcome == "running", |s| s.state == "running");
        if !follow || !running {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

/// `rmt3d report --html [--run ID] [--out FILE] [--runs-root DIR]
/// [--daemon-metrics FILE] [--refresh SECS]`: render a run's
/// self-contained HTML dashboard from its ledger documents (default
/// output: `report.html` inside the run directory).
/// `--daemon-metrics` adds the daemon fleet panel from a
/// `daemon.metrics.jsonl` time-series ring; `--refresh` embeds a meta
/// refresh tag so a report regenerated in place reloads itself.
pub fn run_report_command(mut a: Args) -> ExitCode {
    let html = a.flag("--html");
    let out = match a.opt("--out") {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let daemon_metrics = match a.opt("--daemon-metrics") {
        Ok(d) => d.map(PathBuf::from),
        Err(e) => return fail(&e),
    };
    let refresh_secs = match a.parsed::<u64>("--refresh") {
        Ok(Some(0)) => return fail("--refresh must be at least 1 second"),
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let (ledger, run_id) = match open_resolved(&mut a) {
        Ok(ok) => ok,
        Err(e) => return fail(&e),
    };
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    if !html {
        return fail("report currently supports only --html");
    }
    let manifest = match load_manifest(&ledger, &run_id) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let status = match load_status(&ledger, &run_id) {
        Ok(Some(s)) => s,
        Ok(None) => {
            // A run registered but killed before its first status write
            // still gets a (sparse) report.
            RunStatus::new(&manifest.run_id, &manifest.kind, manifest.total_jobs)
        }
        Err(e) => return fail(&e),
    };
    let metrics_path = ledger.run_dir(&run_id).join(METRICS_FILE);
    let metrics = match std::fs::read_to_string(&metrics_path) {
        Ok(text) => match parse_metrics(&text) {
            Ok(m) => Some(m),
            Err(e) => return fail(&format!("{}: {e}", metrics_path.display())),
        },
        Err(_) => None,
    };
    // An explicitly named ring that cannot be read is an error; an
    // empty or torn one still renders (the parser skips bad lines).
    let daemon = match &daemon_metrics {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(DaemonSeries::parse(&text)),
            Err(e) => return fail(&format!("cannot read {}: {e}", path.display())),
        },
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
    if let Err(e) = write_atomic(&out_path, &rendered) {
        return fail(&format!("cannot write {}: {e}", out_path.display()));
    }
    println!("report: {}", out_path.display());
    ExitCode::SUCCESS
}
