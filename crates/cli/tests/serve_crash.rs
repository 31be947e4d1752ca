//! Kill testing of `rmt3d serve`: three jobs are submitted, then the
//! daemon is SIGKILLed at seeded instants while the first one runs and
//! restarted on the same state directory until the queue drains. Every
//! acknowledged job must reach `done`, and every spec's results must be
//! byte-identical to a run on a fresh, never-killed daemon.

mod daemon;
mod killtest;

use daemon::{rmt3d, Daemon};
use killtest::{kill_after, SCHEDULES};
use rmt3d_telemetry::json::{parse, JsonValue};
use rmt3d_workload::SplitMix64;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Three distinct sweeps. The first is long enough for the kill
/// schedules to land inside it; the other two wait behind it.
const SPECS: [[&str; 6]; 3] = [
    [
        "--models",
        "2d-a,3d-2a",
        "--benchmarks",
        "gzip,mcf",
        "--instructions",
        FIRST_JOB_INSTRUCTIONS,
    ],
    [
        "--models",
        "2d-2a",
        "--benchmarks",
        "gzip",
        "--instructions",
        "15000",
    ],
    [
        "--models",
        "3d-checker",
        "--benchmarks",
        "mcf",
        "--instructions",
        "15000",
    ],
];

/// A release build simulates about six times faster than a debug one,
/// while the two submits queued behind the first job cost the same
/// process spawns in both. The first job grows with the build's speed
/// so it still runs well past those submits.
const FIRST_JOB_INSTRUCTIONS: &str = if cfg!(debug_assertions) {
    "40000"
} else {
    "240000"
};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-serve-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(addr: &str, spec: &[&str], wait: bool) -> String {
    let mut args = vec!["submit", "--addr", addr, "--quiet"];
    args.extend_from_slice(spec);
    if wait {
        args.push("--wait");
    }
    let out = rmt3d(&args);
    assert!(out.status.success(), "submit failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn state_of(addr: &str, job: &str) -> String {
    job_states(addr)
        .into_iter()
        .find(|(id, _)| id == job)
        .map(|(_, state)| state)
        .unwrap_or_else(|| panic!("job {job} not listed"))
}

/// The state of every job the daemon lists, by id.
fn job_states(addr: &str) -> Vec<(String, String)> {
    let out = rmt3d(&["jobs", "--addr", addr]);
    assert!(out.status.success(), "jobs failed: {out:?}");
    let listing = parse(String::from_utf8_lossy(&out.stdout).trim()).expect("strict JSON");
    let Some(JsonValue::Arr(rows)) = listing.get("jobs") else {
        panic!("jobs listing has a jobs array");
    };
    let field = |row: &JsonValue, key: &str| {
        row.get(key)
            .and_then(JsonValue::as_str)
            .expect("job row field")
            .to_string()
    };
    rows.iter()
        .map(|row| (field(row, "job"), field(row, "state")))
        .collect()
}

#[test]
fn sigkilled_daemon_finishes_every_acknowledged_job_byte_identical() {
    let root = tmp("harness");

    // Golden: each spec on a fresh daemon that is never killed. The
    // first job's wall time calibrates the kill schedules.
    let daemon = Daemon::start(&root.join("golden"));
    let started = Instant::now();
    let mut golden = vec![submit(&daemon.addr, &SPECS[0], true)];
    let first_job = started.elapsed();
    golden.extend(SPECS[1..].iter().map(|s| submit(&daemon.addr, s, true)));
    daemon.stop();

    for sched in &SCHEDULES {
        let work = root.join(sched.name);
        let mut daemon = Daemon::start(&work);
        // The first job starts running once acknowledged, so the first
        // kill's delay counts from its submit, as `first_job` does.
        let started = Instant::now();
        let acked: Vec<String> = SPECS
            .iter()
            .map(|s| submit(&daemon.addr, s, false).trim().to_string())
            .collect();
        assert_eq!(acked.len(), 3);
        let mut rng = SplitMix64::new(sched.seed);
        let mut kills = 0u64;
        loop {
            let mut delay = sched.delay(&mut rng, kills, first_job);
            if kills == 0 {
                delay = delay.saturating_sub(started.elapsed());
            }
            assert!(
                kill_after(&mut daemon.child, delay).is_none(),
                "[{}] daemon exited on its own",
                sched.name
            );
            kills += 1;
            daemon = Daemon::start(&work);
            if state_of(&daemon.addr, &acked[0]) == "done" {
                break;
            }
            assert!(
                kills < 60,
                "[{}] daemon never outran the killer",
                sched.name
            );
        }
        // The loop only ends once a restart finds the first job done, so
        // a second kill means the first one landed while it ran.
        assert!(
            kills >= 2,
            "[{}] no kill landed during the first job — delays too long",
            sched.name
        );
        let deadline = Instant::now() + Duration::from_secs(120);
        while acked.iter().any(|id| state_of(&daemon.addr, id) != "done") {
            assert!(
                Instant::now() < deadline,
                "[{}] queue never drained",
                sched.name
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        // Every acknowledged job, and nothing else, survived as done.
        let mut states = job_states(&daemon.addr);
        states.sort();
        let expected: Vec<(String, String)> =
            acked.iter().map(|id| (id.clone(), "done".into())).collect();
        assert_eq!(states, expected, "[{}] after {kills} kills", sched.name);

        for (spec, want) in SPECS.iter().zip(&golden) {
            assert_eq!(
                &submit(&daemon.addr, spec, true),
                want,
                "[{}] results differ from the never-killed daemon after {kills} kills",
                sched.name
            );
        }
        daemon.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
}
