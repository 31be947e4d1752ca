//! End-to-end service flow through the real binary: a `serve` daemon
//! child accepts `submit --wait` jobs (cold run executes, identical
//! warm run is served from cache byte-identically), `jobs` prints
//! strict JSON, `watch` prints the daemon's lines verbatim, `status
//! --follow` waits for the server-registered run instead of failing,
//! and `shutdown` drains the daemon cleanly.

mod daemon;

use daemon::{rmt3d, Daemon};
use rmt3d_telemetry::json::{parse, JsonValue};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn submit_wait(addr: &str) -> Output {
    rmt3d(&[
        "submit",
        "--addr",
        addr,
        "--models",
        "2d-a",
        "--benchmarks",
        "gzip,mcf",
        "--instructions",
        "15000",
        "--wait",
        "--quiet",
    ])
}

#[test]
fn cold_and_warm_submits_are_byte_identical_and_jobs_is_strict_json() {
    let root = tmp("lifecycle");
    let daemon = Daemon::start(&root);

    let cold = submit_wait(&daemon.addr);
    assert!(cold.status.success(), "cold submit failed: {cold:?}");
    let cold_text = stdout(&cold);
    assert!(
        cold_text.contains("2d-a/gzip"),
        "results on stdout: {cold_text}"
    );
    assert!(cold_text.contains("2d-a/mcf"));

    let warm = submit_wait(&daemon.addr);
    assert!(warm.status.success(), "warm submit failed: {warm:?}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "cache-served rerun must be byte-identical"
    );

    // `jobs` is one strict-JSON line; the warm job ran entirely from
    // the shared store.
    let jobs = rmt3d(&["jobs", "--addr", &daemon.addr]);
    assert!(jobs.status.success(), "jobs failed: {jobs:?}");
    let listing = parse(stdout(&jobs).trim()).expect("jobs output is strict JSON");
    let Some(JsonValue::Arr(rows)) = listing.get("jobs") else {
        panic!("jobs listing has a jobs array");
    };
    assert_eq!(rows.len(), 2);
    let field = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_u64).unwrap();
    let by_id = |id: &str| {
        rows.iter()
            .find(|r| r.get("job").and_then(JsonValue::as_str) == Some(id))
            .cloned()
            .expect("listed job")
    };
    let first = by_id("job-000001");
    assert_eq!(first.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(field(&first, "executed"), 2);
    let second = by_id("job-000002");
    assert_eq!(field(&second, "executed"), 0);
    assert_eq!(field(&second, "cache_hits"), 2);

    // `watch` prints the daemon's lines verbatim, so a finished job's
    // terminal line leads with its string id, not a re-rendered map.
    let watch = rmt3d(&["watch", "job-000001", "--addr", &daemon.addr]);
    assert!(watch.status.success(), "watch failed: {watch:?}");
    let watched = stdout(&watch);
    assert!(
        watched
            .lines()
            .last()
            .is_some_and(|l| l.starts_with(r#"{"job":"job-000001","event":"job_done""#)),
        "watch output: {watched}"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn status_follow_waits_for_the_server_registered_run() {
    let root = tmp("follow");
    let daemon = Daemon::start(&root);
    let runs = root.join("runs");

    // Start following before any run exists: the fixed `--follow` path
    // waits for the daemon to register one instead of failing.
    let mut follow = Command::new(env!("CARGO_BIN_EXE_rmt3d"))
        .args(["status", "--follow", "--runs-root", runs.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("status spawns");

    let job = submit_wait(&daemon.addr);
    assert!(job.status.success(), "submit failed: {job:?}");

    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        match follow.try_wait().expect("status waitable") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = follow.kill();
                panic!("status --follow never saw the run finish");
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    assert!(status.success(), "status --follow exited {status}");
    let mut text = String::new();
    follow
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut text)
        .expect("status output is utf-8");
    assert!(text.contains("sweep"), "final frame names the run: {text}");
    let mut err = String::new();
    follow
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("status stderr is utf-8");
    assert!(
        err.contains("waiting for the run"),
        "follow announced the wait: {err}"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}
