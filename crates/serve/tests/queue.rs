//! Persistent-queue semantics: priority order, cancellation of queued
//! vs in-flight jobs, duplicate-spec dedup, journal replay after a
//! restart (graceful or not), corrupt-journal tolerance, and appends
//! after a torn tail.

use rmt3d_serve::{Cancelled, JobOutcome, JobQueue, JobState, JOURNAL_FILE};
use rmt3d_telemetry::json::parse;
use std::fs;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmt3d-queue-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(text: &str) -> rmt3d_telemetry::json::JsonValue {
    parse(text).expect("test spec parses")
}

fn submit(q: &mut JobQueue, bench: &str, priority: u64) -> String {
    let (id, deduped) = q
        .submit(
            "sweep",
            &spec(&format!(
                r#"{{"models":["2d-a"],"benchmarks":["{bench}"],"instructions":20000}}"#
            )),
            priority,
        )
        .expect("submit accepted");
    assert!(!deduped);
    id
}

#[test]
fn priority_order_then_fifo() {
    let dir = tmp("priority");
    let mut q = JobQueue::open(&dir).unwrap();
    let low = submit(&mut q, "gzip", 0);
    let high_a = submit(&mut q, "mcf", 5);
    let high_b = submit(&mut q, "vpr", 5);
    let mid = submit(&mut q, "bzip2", 3);

    let mut order = Vec::new();
    while let Some(seq) = q.next_ready() {
        let id = q.iter().find(|j| j.seq == seq).unwrap().id.clone();
        q.mark_started(&id, None);
        q.mark_finished(&id, JobState::Done, JobOutcome::default(), None);
        order.push(id);
    }
    // Highest priority first; FIFO within a priority.
    assert_eq!(order, vec![high_a, high_b, mid, low]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dedup_joins_live_jobs_but_not_finished_ones() {
    let dir = tmp("dedup");
    let mut q = JobQueue::open(&dir).unwrap();
    let one = spec(r#"{"models":["2d-a"],"benchmarks":["gzip"],"instructions":20000}"#);
    let (a, deduped) = q.submit("sweep", &one, 0).unwrap();
    assert!(!deduped);
    // Identical spec while the first is live: joined, not re-queued.
    let (b, deduped) = q.submit("sweep", &one, 7).unwrap();
    assert!(deduped);
    assert_eq!(a, b);
    assert_eq!(q.count(JobState::Queued), 1);
    // The hash is content-addressed: a differing field (here the
    // instruction count, falling back to its 250k default) is a
    // different job, not a duplicate.
    let (c, deduped) = q
        .submit(
            "sweep",
            &spec(r#"{"models":["2d-a"],"benchmarks":["gzip"]}"#),
            0,
        )
        .unwrap();
    assert!(!deduped);
    assert_ne!(c, a);

    // Once terminal, the same spec is a fresh job (the all-cache-hit
    // re-run path).
    q.mark_started(&a, None);
    q.mark_finished(&a, JobState::Done, JobOutcome::default(), None);
    let (d, deduped) = q.submit("sweep", &one, 0).unwrap();
    assert!(!deduped);
    assert_ne!(d, a);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancel_queued_is_terminal_cancel_running_is_a_request() {
    let dir = tmp("cancel");
    let mut q = JobQueue::open(&dir).unwrap();
    let running = submit(&mut q, "gzip", 0);
    let queued = submit(&mut q, "mcf", 0);
    q.mark_started(&running, Some("run-1"));

    assert_eq!(q.cancel(&queued), Ok(Cancelled::Queued));
    assert_eq!(q.get(&queued).unwrap().state, JobState::Cancelled);
    assert!(q.next_ready().is_none(), "cancelled job left the queue");

    assert_eq!(q.cancel(&running), Ok(Cancelled::InFlight));
    assert_eq!(
        q.get(&running).unwrap().state,
        JobState::Running,
        "in-flight cancel is cooperative; the scheduler records the terminal state"
    );
    // The scheduler then drains the pool and marks it cancelled.
    q.mark_finished(
        &running,
        JobState::Cancelled,
        JobOutcome {
            executed: 1,
            cache_hits: 0,
            failures: 1,
        },
        None,
    );

    // Terminal jobs reject further cancellation, unknown ids error.
    assert!(q.cancel(&queued).is_err());
    assert!(q.cancel("job-999999").is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_resumes_the_remainder_deterministically() {
    let dir = tmp("replay");
    {
        let mut q = JobQueue::open(&dir).unwrap();
        let finished = submit(&mut q, "gzip", 0);
        let running = submit(&mut q, "mcf", 2);
        let queued = submit(&mut q, "vpr", 1);
        let cancelled = submit(&mut q, "bzip2", 0);
        q.mark_started(&finished, Some("run-1"));
        q.mark_finished(
            &finished,
            JobState::Done,
            JobOutcome {
                executed: 1,
                cache_hits: 0,
                failures: 0,
            },
            None,
        );
        q.mark_started(&running, Some("run-2"));
        q.cancel(&cancelled).unwrap();
        let _ = queued;
        // Daemon dies here: `running` never journaled a terminal state.
    }
    let q = JobQueue::open(&dir).unwrap();
    assert_eq!(q.count(JobState::Done), 1);
    assert_eq!(q.count(JobState::Cancelled), 1);
    // The in-flight victim came back queued (re-running it is cheap —
    // its finished items are cache hits), the queued one stayed queued.
    assert_eq!(q.count(JobState::Queued), 2);
    assert_eq!(q.count(JobState::Running), 0);
    // Priority order survives the restart: the ex-running job (priority
    // 2) outranks the queued one (priority 1).
    let next = q.next_ready().unwrap();
    assert_eq!(q.iter().find(|j| j.seq == next).unwrap().id, "job-000002");
    // Terminal outcome fields survived too.
    let done = q.get("job-000001").unwrap();
    assert_eq!(done.run_id.as_deref(), Some("run-1"));
    assert_eq!(done.outcome.unwrap().executed, 1);

    // New submissions never reuse an id from a previous life.
    let mut q = q;
    let fresh = submit(&mut q, "twolf", 0);
    assert_eq!(fresh, "job-000005");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_lines_are_skipped_not_fatal() {
    let dir = tmp("corrupt");
    {
        let mut q = JobQueue::open(&dir).unwrap();
        submit(&mut q, "gzip", 0);
        submit(&mut q, "mcf", 0);
    }
    let path = dir.join(JOURNAL_FILE);
    let mut text = fs::read_to_string(&path).unwrap();
    // Torn final write plus embedded garbage: both skipped on replay.
    text.insert_str(0, "{garbage\n\n{\"event\":\"elide\"}\n");
    text.push_str("{\"event\":\"submitted\",\"job\":\"job-9");
    fs::write(&path, text).unwrap();

    let q = JobQueue::open(&dir).unwrap();
    assert_eq!(q.count(JobState::Queued), 2, "intact lines survive");
    assert!(q.get("job-000001").is_some());
    assert!(q.get("job-000002").is_some());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_submit_after_a_torn_tail_survives_replay() {
    let dir = tmp("torn");
    {
        let mut q = JobQueue::open(&dir).unwrap();
        submit(&mut q, "gzip", 0);
        submit(&mut q, "mcf", 0);
        submit(&mut q, "vpr", 0);
    }
    let path = dir.join(JOURNAL_FILE);
    let full = fs::read(&path).unwrap();
    let last = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("three records")
        + 1;
    // Cut the last record at every byte: a crash mid-append.
    for cut in last..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let fresh = submit(&mut JobQueue::open(&dir).unwrap(), "twolf", 0);
        let q = JobQueue::open(&dir).unwrap();
        assert!(q.get("job-000001").is_some(), "cut {cut}");
        assert!(q.get("job-000002").is_some(), "cut {cut}");
        assert!(q.get(&fresh).is_some(), "cut {cut}: submit lost");
        // Cut only at its newline, the last record is whole and replays.
        let whole = usize::from(cut + 1 == full.len());
        assert_eq!(q.count(JobState::Queued), 3 + whole, "cut {cut}");
    }
    let _ = fs::remove_dir_all(&dir);
}
