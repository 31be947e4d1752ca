//! Concurrent runs share one runs root: every `ledger.jsonl` line must
//! stay whole. Each append reaches the file in one `write(2)`; a line
//! written in two pieces interleaves with other writers' lines.

use rmt3d_obs::ledger::LEDGER_FILE;
use rmt3d_obs::RunLedger;
use rmt3d_telemetry::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const THREADS: u64 = 8;
const RUNS_PER_THREAD: u64 = 100;

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-ledger-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_runs_never_tear_ledger_lines() {
    let root = tempdir();
    let start = Arc::new(Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let root = root.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let ledger = RunLedger::open(&root).expect("ledger opens");
                start.wait();
                for _ in 0..RUNS_PER_THREAD {
                    let mut run = ledger.create_run("sweep", t, 1, &[]).expect("run created");
                    run.finish("ok").expect("run finished");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }

    let text = std::fs::read_to_string(root.join(LEDGER_FILE)).expect("ledger written");
    let mut per_run: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut malformed = 0;
    for line in text.lines() {
        let Ok(v) = parse(line) else {
            malformed += 1;
            continue;
        };
        let field = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        per_run
            .entry(field("run_id").expect("line names its run"))
            .or_default()
            .push(field("event").expect("line names its event"));
    }
    assert_eq!(
        malformed,
        0,
        "{malformed} of {} ledger lines do not parse",
        text.lines().count()
    );
    assert_eq!(per_run.len() as u64, THREADS * RUNS_PER_THREAD);
    for (run, events) in &per_run {
        assert_eq!(events, &["run_started", "run_finished"], "run {run}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
