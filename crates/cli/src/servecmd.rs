//! The sweep-as-a-service subcommands: `rmt3d serve` (the daemon) and
//! its clients `submit`, `jobs`, `cancel`, `watch`, `stats`, `top`,
//! and `shutdown`.
//!
//! The daemon side wires [`rmt3d_serve::serve`] to the CLI's
//! conventions: the shared result cache defaults to the same
//! `target/sweep-cache` directory `rmt3d sweep` uses (so one-shot and
//! service runs share hits), and every executed job registers in the
//! same run ledger `rmt3d status` / `rmt3d report` read.
//!
//! The client side keeps stdout script-friendly: `submit` prints the
//! job id (or, with `--wait`, the same result lines `rmt3d sweep`
//! prints — byte-identical across cold and warm runs); `jobs`,
//! `cancel`, and `shutdown` print the server's raw JSON response line;
//! `watch` prints the daemon's event lines exactly as received. Human
//! chatter goes to stderr.

use crate::args::{Args, DEFAULT_CACHE_DIR};
use crate::sweep_line;
use rmt3d_serve::client::{self, DEFAULT_ADDR};
use rmt3d_serve::{serve, ServeOptions};
use rmt3d_sweep::codec;
use rmt3d_telemetry::json::JsonValue;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

fn addr_opt(a: &mut Args) -> Result<String, String> {
    a.opt_or("--addr", DEFAULT_ADDR)
}

/// The `error` of an `{"ok":false,…}` server line, if it is one.
fn server_error(v: &JsonValue) -> Option<String> {
    (v.get("ok").and_then(JsonValue::as_bool) == Some(false)).then(|| {
        v.get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("server reported an error")
            .to_string()
    })
}

/// `rmt3d serve [--listen ADDR] [--state-dir DIR] [--out-dir DIR]
/// [--jobs N] [--cache-max-bytes N] [--runs-root DIR] [--no-ledger]
/// [--quiet]`: run the job daemon until a shutdown request drains it.
pub fn run_serve_command(mut a: Args) -> Result<ExitCode, String> {
    let listen = a.opt_or("--listen", DEFAULT_ADDR)?;
    let state_dir = PathBuf::from(a.opt_or("--state-dir", "target/serve")?);
    let cache_dir = PathBuf::from(a.opt_or("--out-dir", DEFAULT_CACHE_DIR)?);
    let workers = a.jobs()?.unwrap_or(0); // 0: the pool's automatic size
    let cache_max_bytes = a.parsed::<u64>("--cache-max-bytes")?;
    let runs_root = a.ledger_root()?;
    let quiet = a.flag("--quiet");
    a.finish()?;
    let listener =
        TcpListener::bind(&listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let opts = ServeOptions {
        state_dir,
        cache_dir,
        workers,
        cache_max_bytes,
        runs_root,
        quiet,
    };
    serve(listener, opts)?;
    Ok(ExitCode::SUCCESS)
}

/// `rmt3d submit [--addr A] [--kind sweep|campaign] [--priority N]
/// [--spec JSON | axis flags] [--wait] [--quiet]`: enqueue a job on a
/// running daemon. Prints the job id; with `--wait`, streams progress
/// to stderr and prints the job's results to stdout when it finishes.
///
/// Axis flags build the job exactly as `rmt3d sweep` / `rmt3d campaign`
/// do, so a bad one fails here; a `--spec` object is sent as given and
/// the daemon validates it.
pub fn run_submit_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    let kind = a.opt_or("--kind", "sweep")?;
    let priority = a.parsed::<u64>("--priority")?.unwrap_or(0);
    let spec = match a.opt("--spec")? {
        Some(spec) => spec,
        None => {
            let payload = match kind.as_str() {
                "sweep" => a.sweep_job()?,
                "campaign" => a.campaign_job()?,
                other => return Err(format!("unknown job kind {other:?}")),
            };
            payload.validate()?;
            payload.spec_json()
        }
    };
    let wait = a.flag("--wait");
    let quiet = a.flag("--quiet");
    a.finish()?;
    let resp = client::request(&addr, &client::submit_line(&kind, &spec, priority))?;
    let job = resp
        .get("job")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    let deduped = resp.get("deduped").and_then(JsonValue::as_bool) == Some(true);
    if !quiet {
        eprintln!(
            "submit: {job} {} ({} pool items, spec {})",
            if deduped {
                "joined (identical live job)"
            } else {
                "queued"
            },
            resp.get("total_jobs")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            resp.get("spec_hash")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
        );
    }
    if !wait {
        println!("{job}");
        return Ok(ExitCode::SUCCESS);
    }
    let final_state = wait_for(&addr, &job, quiet)?;
    match final_state.as_str() {
        "done" | "failed" => {}
        other => return Err(format!("job {job} ended {other} before completing")),
    }
    let code = print_results(&addr, &job)?;
    if final_state == "failed" {
        return Ok(ExitCode::FAILURE);
    }
    Ok(code)
}

/// Streams the job's watch events to stderr until the terminal
/// `job_done` line; returns the job's final state.
fn wait_for(addr: &str, job: &str, quiet: bool) -> Result<String, String> {
    let stream = client::watch(addr, job)?;
    for event in stream {
        let v = event?;
        if let Some(e) = server_error(&v) {
            return Err(e);
        }
        let kind = v.get("event").and_then(JsonValue::as_str).unwrap_or("");
        if kind == "job_done" {
            let state = v
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string();
            if !state_is_terminal(&state) {
                return Err(format!(
                    "daemon drained before job {job} ran (still {state}; it will resume on restart)"
                ));
            }
            return Ok(state);
        }
        if !quiet {
            // Raw forwarded telemetry: same line format as --trace-out.
            eprintln!("{}", render_line(&v));
        }
    }
    Err(format!("watch stream for {job} ended unexpectedly"))
}

fn state_is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

fn render_line(v: &JsonValue) -> String {
    // The daemon already sends compact single-line JSON; re-rendering
    // key fields keeps the stderr stream greppable without a decoder.
    let kind = v.get("event").and_then(JsonValue::as_str).unwrap_or("?");
    let label = v.get("label").and_then(JsonValue::as_str).unwrap_or("");
    let job = v.get("job").and_then(JsonValue::as_u64);
    let total = v.get("total").and_then(JsonValue::as_u64);
    match (job, total) {
        (Some(j), Some(t)) => format!("watch: {kind} [{}/{t}] {label}", j + 1),
        _ => format!("watch: {kind} {label}"),
    }
}

/// Fetches and prints a finished job's results in `rmt3d sweep`'s
/// stdout format (or a campaign's JSONL report verbatim).
fn print_results(addr: &str, job: &str) -> Result<ExitCode, String> {
    let resp = client::request(addr, &client::job_line("result", job))?;
    if let Some(report) = resp.get("report").and_then(JsonValue::as_str) {
        print!("{report}");
        return Ok(ExitCode::SUCCESS);
    }
    let Some(JsonValue::Arr(results)) = resp.get("results") else {
        return Err("malformed result response".into());
    };
    let mut missing = 0usize;
    for item in results {
        let label = item.get("label").and_then(JsonValue::as_str).unwrap_or("?");
        let encoded = item
            .get("encoded")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        match codec::decode(encoded) {
            Ok(r) => println!("{}", sweep_line(label, &r)),
            Err(_) => {
                missing += 1;
                println!("{label:28} NO CACHED RESULT");
            }
        }
    }
    if missing > 0 {
        eprintln!("submit: {missing} job(s) had no cached result");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `rmt3d jobs [--addr A]`: print the daemon's job listing as one JSON
/// line (strict JSON; pipe through a formatter to pretty-print).
pub fn run_jobs_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    one_shot(&addr, a, "{\"op\":\"jobs\"}")
}

/// `rmt3d cancel JOB [--addr A]`: cancel a queued or in-flight job.
pub fn run_cancel_command(mut a: Args) -> Result<ExitCode, String> {
    // `--addr` is consumed before the positional so its value is never
    // taken for the job id, but a missing job id is reported first.
    let addr = addr_opt(&mut a);
    let job = a.positional().ok_or("cancel requires a job id")?;
    one_shot(&addr?, a, &client::job_line("cancel", &job))
}

/// `rmt3d stats [--addr A]`: print the daemon's live metrics snapshot
/// as one JSON line (strict JSON; pipe through a formatter to
/// pretty-print).
pub fn run_stats_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    one_shot(&addr, a, "{\"op\":\"stats\"}")
}

/// `rmt3d top [--watch] [--interval MS] [--addr A]`: a one-screen
/// human view of the daemon's `stats` snapshot; `--watch` redraws at
/// the polling interval (default 1000 ms) until interrupted.
pub fn run_top_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    let watch = a.interval_ms("--watch", 1000)?;
    a.finish()?;
    loop {
        let resp = client::request(&addr, "{\"op\":\"stats\"}")?;
        if watch.is_some() {
            // Clear the screen between frames, watch(1)-style.
            print!("\x1b[2J\x1b[H");
        }
        print_top(&addr, &resp);
        let Some(interval) = watch else {
            return Ok(ExitCode::SUCCESS);
        };
        std::thread::sleep(interval);
    }
}

/// Renders one `stats` snapshot as the `top` screen.
fn print_top(addr: &str, v: &JsonValue) {
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    println!(
        "rmt3d daemon {addr}\n\
         queue   depth {} ({} queued, {} running)",
        u("queue_depth"),
        u("queued"),
        u("running"),
    );
    println!(
        "jobs    {} done, {} failed, {} cancelled",
        u("done"),
        u("failed"),
        u("cancelled"),
    );
    println!(
        "clients {} open ({} total), {} watchers",
        u("connections"),
        u("connections_total"),
        u("watchers"),
    );
    let hits = u("cache_hits");
    let misses = u("cache_misses");
    let probes = hits + misses;
    let rate = if probes == 0 {
        String::from("-")
    } else {
        format!("{:.0}%", 100.0 * hits as f64 / probes as f64)
    };
    println!(
        "cache   {hits} hits / {misses} misses ({rate}), {} entries, {} bytes, {} evicted",
        u("cache_entries"),
        u("cache_bytes"),
        u("cache_evictions"),
    );
    if u("cache_verify_failures") > 0 {
        println!(
            "warning {} cache verify failures",
            u("cache_verify_failures")
        );
    }
    if u("metrics_write_errors") > 0 {
        println!(
            "warning {} metrics/artifact write failures — telemetry may be incomplete",
            u("metrics_write_errors")
        );
    }
    // Latency histograms from the embedded cumulative metrics document.
    if let Some(JsonValue::Obj(hists)) = v.get("metrics").and_then(|m| m.get("hist")) {
        let mut printed_header = false;
        for (name, h) in hists {
            if !name.starts_with("daemon_") {
                continue;
            }
            let samples = h.get("samples").and_then(JsonValue::as_u64).unwrap_or(0);
            if samples == 0 {
                continue;
            }
            if !printed_header {
                println!("latency");
                printed_header = true;
            }
            let mean = h.get("mean").and_then(JsonValue::as_f64).unwrap_or(0.0);
            println!("  {name:28} {samples:>7} jobs  mean {mean:.1} ms");
        }
    }
}

/// `rmt3d shutdown [--addr A]`: ask the daemon to drain and exit.
pub fn run_shutdown_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    one_shot(&addr, a, "{\"op\":\"shutdown\"}")
}

/// Sends one request line and prints the raw response line; the exit
/// code is the response's `ok`.
fn one_shot(addr: &str, a: Args, line: &str) -> Result<ExitCode, String> {
    a.finish()?;
    let resp = client::request_raw(addr, line)?;
    println!("{resp}");
    let ok = rmt3d_telemetry::json::parse(&resp)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `rmt3d watch JOB [--addr A]`: print a job's event lines to stdout
/// exactly as the daemon sent them, until it reaches a terminal state.
/// Exit code reflects the final state.
pub fn run_watch_command(mut a: Args) -> Result<ExitCode, String> {
    let addr = addr_opt(&mut a)?;
    let job = a.positional().ok_or("watch requires a job id")?;
    a.finish()?;
    for event in client::watch(&addr, &job)? {
        let event = event?;
        if let Some(e) = server_error(&event) {
            return Err(e);
        }
        println!("{}", event.line);
        if event.get("event").and_then(JsonValue::as_str) == Some("job_done") {
            match event.get("state").and_then(JsonValue::as_str) {
                Some("done") => return Ok(ExitCode::SUCCESS),
                Some(_) => return Ok(ExitCode::FAILURE),
                None => break,
            }
        }
    }
    Err(format!("watch stream for {job} ended unexpectedly"))
}
