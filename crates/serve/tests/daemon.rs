//! End-to-end daemon tests over real sockets: cold/warm cache
//! identity, protocol robustness, concurrent tenants, and
//! drain-then-resume. Each test binds port 0 and runs the daemon on a
//! background thread against its own temp state.

use rmt3d_serve::client;
use rmt3d_serve::{serve, ServeOptions};
use rmt3d_telemetry::json::{parse, JsonValue};
use rmt3d_telemetry::Event;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    addr: String,
    thread: JoinHandle<Result<(), String>>,
}

fn start(root: &Path, runs: bool) -> Daemon {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let addr = listener.local_addr().unwrap().to_string();
    let opts = ServeOptions {
        state_dir: root.join("state"),
        cache_dir: root.join("cache"),
        workers: 2,
        cache_max_bytes: None,
        runs_root: runs.then(|| root.join("runs")),
        quiet: true,
    };
    let thread = thread::spawn(move || serve(listener, opts));
    Daemon { addr, thread }
}

impl Daemon {
    fn stop(self) {
        let _ = client::request(&self.addr, "{\"op\":\"shutdown\"}");
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    }
}

fn submit(addr: &str, spec: &str, priority: u64) -> String {
    let resp = client::request(addr, &client::submit_line("sweep", spec, priority))
        .expect("submit accepted");
    resp.get("job")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string()
}

/// Watches until the terminal line; returns the job's final state.
fn wait_done(addr: &str, job: &str) -> String {
    for event in client::watch(addr, job).expect("watch connects") {
        let v = event.expect("event parses");
        assert_ne!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(false),
            "watch errored: {v:?}"
        );
        if v.get("event").and_then(JsonValue::as_str) == Some("job_done") {
            return v
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
        }
    }
    panic!("watch stream for {job} ended without job_done");
}

fn job_row(addr: &str, job: &str) -> JsonValue {
    let resp = client::request(addr, "{\"op\":\"jobs\"}").expect("jobs listing");
    let JsonValue::Arr(jobs) = resp.get("jobs").cloned().unwrap() else {
        panic!("jobs is not an array");
    };
    jobs.into_iter()
        .find(|j| j.get("job").and_then(JsonValue::as_str) == Some(job))
        .unwrap_or_else(|| panic!("job {job} not listed"))
}

fn counts(row: &JsonValue) -> (u64, u64) {
    (
        row.get("executed").and_then(JsonValue::as_u64).unwrap(),
        row.get("cache_hits").and_then(JsonValue::as_u64).unwrap(),
    )
}

/// The per-item results payload of a finished sweep, as raw text —
/// identical text means identical cached bytes.
fn results_text(addr: &str, job: &str) -> String {
    let raw = client::request_raw(addr, &client::job_line("result", job)).expect("result");
    let start = raw.find("\"results\":").expect("results field");
    raw[start..].to_string()
}

const SPEC: &str = r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":15000}"#;

#[test]
fn cold_submit_executes_warm_resubmit_is_all_cache_hits_byte_identical() {
    let root = tmp("warm");
    let daemon = start(&root, true);

    let cold = submit(&daemon.addr, SPEC, 0);
    assert_eq!(wait_done(&daemon.addr, cold.as_str()), "done");
    let (executed, hits) = counts(&job_row(&daemon.addr, &cold));
    assert_eq!((executed, hits), (2, 0), "cold run simulates everything");

    // Identical spec after completion: a fresh job, served entirely
    // from the shared store.
    let warm = submit(&daemon.addr, SPEC, 0);
    assert_ne!(warm, cold);
    assert_eq!(wait_done(&daemon.addr, warm.as_str()), "done");
    let (executed, hits) = counts(&job_row(&daemon.addr, &warm));
    assert_eq!((executed, hits), (0, 2), "warm run never simulates");

    assert_eq!(
        results_text(&daemon.addr, &cold),
        results_text(&daemon.addr, &warm),
        "cached results are byte-identical across tenants"
    );

    // The executed job registered in the run ledger.
    let run_id = job_row(&daemon.addr, &cold)
        .get("run_id")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    assert!(root
        .join("runs")
        .join(&run_id)
        .join("manifest.json")
        .exists());
    daemon.stop();

    // Every span line the daemon appended parses as a codec event, and
    // both finished jobs closed every span they opened.
    let trace = std::fs::read_to_string(root.join("state").join(rmt3d_serve::TRACE_LOG_FILE))
        .expect("span trace written");
    let (mut begins, mut ends) = (0, 0);
    for line in trace.lines() {
        match Event::from_json_line(line).expect("span line is a codec event") {
            Some(Event::JobSpanBegin { .. }) => begins += 1,
            Some(Event::JobSpanEnd { .. }) => ends += 1,
            other => panic!("unexpected event in the span trace: {other:?}"),
        }
    }
    assert!(begins > 0, "the jobs left spans in the trace");
    assert_eq!(begins, ends, "every span opened was closed");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_oversized_and_ill_typed_requests_never_kill_the_daemon() {
    let root = tmp("robust");
    let daemon = start(&root, false);

    // One persistent connection, a parade of abuse, structured errors
    // for every line — and the connection keeps serving afterwards.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |line: &str| -> JsonValue {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        parse(resp.trim_end()).expect("response is valid JSON")
    };
    let expect_error = |v: JsonValue| {
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        let msg = v.get("error").and_then(JsonValue::as_str).unwrap();
        assert!(!msg.is_empty());
    };
    expect_error(roundtrip("this is not json"));
    expect_error(roundtrip("{\"truncated\":"));
    expect_error(roundtrip("{\"op\":\"teleport\"}"));
    expect_error(roundtrip("{\"op\":42}"));
    expect_error(roundtrip("{\"op\":\"cancel\"}"));
    expect_error(roundtrip("{\"op\":\"watch\",\"job\":[]}"));
    expect_error(roundtrip("{\"op\":\"submit\",\"kind\":\"thermal\"}"));
    expect_error(roundtrip(
        "{\"op\":\"submit\",\"spec\":{\"models\":[\"warp\"]}}",
    ));
    expect_error(roundtrip("{\"op\":\"cancel\",\"job\":\"job-000042\"}"));
    let oversized = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(70 * 1024));
    expect_error(roundtrip(&oversized));
    let oversized_stats = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(70 * 1024));
    expect_error(roundtrip(&oversized_stats));
    // A deeply nested line is refused, not recursed into.
    expect_error(roundtrip(&"[".repeat(20_000)));
    // The reader resynchronized at the newline: same connection, sane
    // request, sane answer.
    let v = roundtrip("{\"op\":\"ping\"}");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
    // `stats` on the abused connection: still one strict-JSON line
    // with the full gauge set (ill-typed extra fields are ignored).
    let v = roundtrip("{\"op\":\"stats\",\"job\":[42],\"depth\":\"nope\"}");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
    for key in [
        "queued",
        "running",
        "done",
        "failed",
        "cancelled",
        "queue_depth",
        "watchers",
        "connections",
        "connections_total",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "metrics_write_errors",
        "metrics",
    ] {
        assert!(v.get(key).is_some(), "stats response missing {key}");
    }

    // And the daemon still schedules real work afterwards.
    let job = submit(&daemon.addr, SPEC, 0);
    assert_eq!(wait_done(&daemon.addr, &job), "done");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stats_is_one_strict_json_line_under_concurrency_and_the_ring_survives_a_torn_tail() {
    let root = tmp("stats");
    let daemon = start(&root, false);

    // Hammer `stats` from several clients while a real job runs: every
    // answer is exactly one strict-JSON line, never a panic or a
    // truncated document.
    let job = submit(&daemon.addr, SPEC, 0);
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            thread::spawn(move || {
                for _ in 0..25 {
                    let raw = client::request_raw(&addr, "{\"op\":\"stats\"}").expect("stats");
                    assert!(!raw.contains('\n'), "one line only");
                    let v = parse(&raw).expect("stats is strict JSON");
                    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
                    let queued = v.get("queued").and_then(JsonValue::as_u64).unwrap();
                    let running = v.get("running").and_then(JsonValue::as_u64).unwrap();
                    let depth = v.get("queue_depth").and_then(JsonValue::as_u64).unwrap();
                    assert_eq!(depth, queued + running, "depth is queued + running");
                }
            })
        })
        .collect();
    assert_eq!(wait_done(&daemon.addr, &job), "done");
    for h in hammers {
        h.join().expect("stats hammer thread");
    }

    // After an executed job the cumulative metrics document carries
    // the per-kind latency histograms.
    let v = client::request(&daemon.addr, "{\"op\":\"stats\"}").expect("stats");
    assert_eq!(v.get("done").and_then(JsonValue::as_u64), Some(1));
    let exec_hist = v
        .get("metrics")
        .and_then(|m| m.get("hist"))
        .and_then(|h| h.get("daemon_exec_ms_sweep"))
        .expect("execution latency histogram present");
    assert!(exec_hist.get("samples").and_then(JsonValue::as_u64) >= Some(1));
    assert!(v
        .get("metrics")
        .and_then(|m| m.get("hist"))
        .and_then(|h| h.get("daemon_queue_wait_ms_sweep"))
        .is_some());
    daemon.stop();

    // The time-series ring persisted valid samples, and the newest one
    // agrees with the final stats answer.
    let ring_path = root.join("state").join(rmt3d_serve::METRICS_RING_FILE);
    let text = std::fs::read_to_string(&ring_path).expect("ring file written");
    let series = rmt3d_obs::DaemonSeries::parse(&text);
    assert!(!series.is_empty(), "ring holds samples");
    assert_eq!(series.latest().unwrap().done, 1);

    // Tear the tail (a SIGKILL mid-append) and add garbage: a
    // restarted daemon replays past both without panicking or
    // inventing data, and keeps appending.
    let torn = format!("{text}garbage line\n{{\"unix_ms\":12,\"queued\":");
    std::fs::write(&ring_path, &torn).expect("tear the ring tail");
    let daemon = start(&root, false);
    let job2 = submit(
        &daemon.addr,
        r#"{"models":["2d-2a"],"benchmarks":["gzip"],"instructions":15000}"#,
        0,
    );
    assert_eq!(wait_done(&daemon.addr, &job2), "done");
    daemon.stop();
    let after = std::fs::read_to_string(&ring_path).expect("ring file survives");
    let series = rmt3d_obs::DaemonSeries::parse(&after);
    // The journal replays the first job on restart, so the newest
    // sample counts both; the torn record (unix_ms 12) never became a
    // sample with data invented for its missing fields.
    assert_eq!(series.latest().unwrap().done, 2);
    assert!(series.samples.iter().all(|s| s.unix_ms != 12));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watcher_disconnect_mid_stream_does_not_stall_the_queue() {
    let root = tmp("disconnect");
    let daemon = start(&root, false);

    let first = submit(&daemon.addr, SPEC, 0);
    let second = submit(
        &daemon.addr,
        r#"{"models":["2d-2a"],"benchmarks":["gzip"],"instructions":15000}"#,
        0,
    );
    {
        // Subscribe to the first job, read the acknowledgement, then
        // vanish without reading the stream.
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .write_all(format!("{}\n", client::job_line("watch", &first)).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains(&first), "ack names the job: {ack}");
        // Dropped here, mid-stream.
    }
    // Both jobs still run to completion: the dead subscriber was
    // pruned on its first failed send.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s1 = job_row(&daemon.addr, &first);
        let s2 = job_row(&daemon.addr, &second);
        let done = |v: &JsonValue| v.get("state").and_then(JsonValue::as_str) == Some("done");
        if done(&s1) && done(&s2) {
            break;
        }
        assert!(Instant::now() < deadline, "queue stalled after disconnect");
        thread::sleep(Duration::from_millis(100));
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_tenants_with_overlapping_specs_share_the_store() {
    let root = tmp("tenants");
    let daemon = start(&root, false);

    // Two clients, overlapping on mcf. Jobs execute one at a time, so
    // whichever sweep runs second gets its overlap from the cache.
    let addr_a = daemon.addr.clone();
    let addr_b = daemon.addr.clone();
    let a = thread::spawn(move || {
        let job = submit(
            &addr_a,
            r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":15000}"#,
            0,
        );
        assert_eq!(wait_done(&addr_a, &job), "done");
        job
    });
    let b = thread::spawn(move || {
        let job = submit(
            &addr_b,
            r#"{"models":["2d-a"],"benchmarks":["mcf","vpr"],"instructions":15000}"#,
            0,
        );
        assert_eq!(wait_done(&addr_b, &job), "done");
        job
    });
    let job_a = a.join().unwrap();
    let job_b = b.join().unwrap();

    let (exec_a, hits_a) = counts(&job_row(&daemon.addr, &job_a));
    let (exec_b, hits_b) = counts(&job_row(&daemon.addr, &job_b));
    assert_eq!(exec_a + hits_a, 2);
    assert_eq!(exec_b + hits_b, 2);
    // Three distinct (model, benchmark) points; the shared mcf entry
    // simulated exactly once.
    assert_eq!(exec_a + exec_b, 3, "overlap deduplicated by the store");
    assert_eq!(hits_a + hits_b, 1);

    // Both tenants read back the shared mcf result identically.
    let text_a = results_text(&daemon.addr, &job_a);
    let text_b = results_text(&daemon.addr, &job_b);
    let mcf = |text: &str| -> String {
        // `text` is the `"results":…]}` tail of the response line, so
        // prepending a brace reconstitutes a complete object.
        let v = parse(&format!("{{{text}")).expect("results parse");
        let JsonValue::Arr(items) = v.get("results").cloned().unwrap() else {
            panic!("no results array");
        };
        items
            .iter()
            .find(|i| i.get("label").and_then(JsonValue::as_str) == Some("2d-a/mcf"))
            .and_then(|i| {
                i.get("encoded")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .expect("mcf entry present")
    };
    assert_eq!(mcf(&text_a), mcf(&text_b));
    assert!(!mcf(&text_a).is_empty());
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_in_flight_and_a_restart_resumes_the_queue() {
    let root = tmp("resume");
    let daemon = start(&root, false);

    // A heavyweight job to hold the scheduler, then two queued behind
    // it. The instruction count must keep the job in flight long
    // enough for the poll below to observe it `running` — too small
    // and it races straight to `done` on a fast simulator.
    let big = submit(
        &daemon.addr,
        r#"{"models":["2d-a","3d-2a"],"benchmarks":["gzip"],"instructions":1000000}"#,
        0,
    );
    let queued_hi = submit(
        &daemon.addr,
        r#"{"models":["2d-2a"],"benchmarks":["gzip"],"instructions":15000}"#,
        2,
    );
    let queued_lo = submit(
        &daemon.addr,
        r#"{"models":["3d-checker"],"benchmarks":["gzip"],"instructions":15000}"#,
        1,
    );
    // Don't race the scheduler: only shut down once the big job is
    // actually in flight, so the drain has something to drain. A job
    // that reaches `done` before we ever saw it `running` fails fast —
    // the drain below would be vacuous.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = job_row(&daemon.addr, &big)
            .get("state")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        match state.as_deref() {
            Some("running") => break,
            Some("done") => panic!("big job finished before shutdown could catch it in flight"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "big job never started");
        thread::sleep(Duration::from_millis(2));
    }
    let resp = client::request(&daemon.addr, "{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(
        resp.get("state").and_then(JsonValue::as_str),
        Some("draining")
    );
    // New submissions are refused while draining.
    assert!(client::request(&daemon.addr, &client::submit_line("sweep", SPEC, 0)).is_err());
    daemon.thread.join().unwrap().unwrap();

    // Restart on a fresh port, same state dir: the in-flight job is
    // done (drained, not killed), the queued two come back and run in
    // priority order.
    let daemon = start(&root, false);
    let big_state = job_row(&daemon.addr, &big)
        .get("state")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    assert_eq!(big_state, "done", "shutdown drained the in-flight job");
    assert_eq!(wait_done(&daemon.addr, &queued_lo), "done");
    let (hi_exec, _) = counts(&job_row(&daemon.addr, &queued_hi));
    assert_eq!(
        job_row(&daemon.addr, &queued_hi)
            .get("state")
            .and_then(JsonValue::as_str),
        Some("done"),
        "higher priority job ran before the lower one we waited on"
    );
    assert_eq!(hi_exec, 1);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_campaign_job_registers_the_hash_of_its_grid_and_reproduces_the_golden() {
    let root = tmp("campaign");
    let daemon = start(&root, true);
    // CampaignSpec::smoke(13), the grid of the committed golden report.
    let spec = r#"{"sites":"all","benchmarks":["gzip"],"faults_per_site":4,"seed":13,"instructions":8000}"#;
    let resp = client::request(&daemon.addr, &client::submit_line("campaign", spec, 0))
        .expect("submit accepted");
    let job = resp.get("job").and_then(JsonValue::as_str).unwrap();
    assert_eq!(wait_done(&daemon.addr, job), "done");

    let result = client::request(&daemon.addr, &client::job_line("result", job)).unwrap();
    let golden = include_str!("../../campaign/tests/golden/smoke_campaign.jsonl");
    assert_eq!(
        result.get("report").and_then(JsonValue::as_str),
        Some(golden)
    );

    let run_id = job_row(&daemon.addr, job)
        .get("run_id")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    daemon.stop();
    let manifest = std::fs::read_to_string(root.join("runs").join(run_id).join("manifest.json"))
        .expect("the job registered a run");
    let manifest = rmt3d_obs::Manifest::from_json(&manifest).unwrap();
    let canonical = rmt3d_campaign::CampaignSpec::smoke(13).canonical();
    assert_eq!(
        manifest.spec_hash,
        format!(
            "{:016x}",
            rmt3d_obs::spec_hash(std::iter::once(canonical.as_str()))
        ),
        "the daemon registers the hash `rmt3d campaign` registers"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancelling_a_running_campaign_stops_its_remaining_trials() {
    let root = tmp("campaign-cancel");
    let daemon = start(&root, false);
    // 200 trials of 200k instructions: far longer than the test waits.
    let spec = r#"{"sites":"all","benchmarks":["gzip"],"faults_per_site":40,"seed":5,"instructions":200000}"#;
    let resp = client::request(&daemon.addr, &client::submit_line("campaign", spec, 0))
        .expect("submit accepted");
    let job = resp.get("job").and_then(JsonValue::as_str).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while job_row(&daemon.addr, job)
        .get("state")
        .and_then(JsonValue::as_str)
        != Some("running")
    {
        assert!(Instant::now() < deadline, "campaign never started");
        thread::sleep(Duration::from_millis(5));
    }
    let resp = client::request(&daemon.addr, &client::job_line("cancel", job)).unwrap();
    assert_eq!(
        resp.get("state").and_then(JsonValue::as_str),
        Some("cancel_requested")
    );
    // Cancelled trials finish with `"ok":false`, which `wait_done`
    // refuses; read the terminal line alone.
    let done = client::watch(&daemon.addr, job)
        .expect("watch connects")
        .map(|e| e.expect("event parses"))
        .find(|v| v.get("event").and_then(JsonValue::as_str) == Some("job_done"))
        .expect("watch ends with job_done");
    assert_eq!(
        done.get("state").and_then(JsonValue::as_str),
        Some("cancelled")
    );
    let row = job_row(&daemon.addr, job);
    let total = row.get("total_jobs").and_then(JsonValue::as_u64).unwrap();
    let (executed, _) = counts(&row);
    assert_eq!(total, 200);
    assert!(
        executed < total,
        "a cancelled campaign ran {executed} of {total} trials"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}
