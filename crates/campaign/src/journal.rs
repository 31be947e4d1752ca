//! Write-ahead journal for crash-safe campaigns.
//!
//! [`Journal`] appends one JSON line per event to
//! `campaign.journal.jsonl` inside the campaign's output directory: a
//! versioned header binding the file to one [`CampaignSpec`], a
//! `trial_started` line when a worker picks a trial up, a `trial_done`
//! line — fsynced *before* the trial is acknowledged — when it
//! finishes, and a `checkpoint` line with the running [`Tally`] every
//! [`CHECKPOINT_INTERVAL`] completions. The header is written with
//! [`write_atomic`], which also fsyncs the directory entry, so synced
//! trials survive power loss along with the file that holds them.
//!
//! [`replay`] is the read side: it rebuilds the set of completed
//! trials from whatever survived a crash. It never panics on corrupt
//! input. A line that fails to parse, carries ill-typed fields, or
//! points outside the grid is skipped (SIGKILL mid-write tears at most
//! the final line, so a skipped line only costs re-running that
//! trial). A header that is missing, unparsable, version-stale, or
//! bound to a different spec discards the whole journal — the run
//! restarts from scratch, which is slower but always correct.
//! Trials that started but never finished are the crash's in-flight
//! victims; the engine re-queues them.
//!
//! Because [`run_trial`](crate::run_trial) is deterministic and the
//! report carries no wall-clock fields, a resumed campaign's report is
//! byte-identical to an uninterrupted run no matter where the crash
//! landed — the invariant the kill-testing harness in `crates/cli`
//! proves with real SIGKILLs.

use crate::grid::CampaignSpec;
use crate::report::Tally;
use crate::trial::{TrialFate, TrialResult, Violation};
use rmt3d_obs::durable::{write_atomic, AppendLog};
use rmt3d_telemetry::json::{parse, JsonObject, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Journal file name inside the campaign output directory.
pub const JOURNAL_FILE: &str = "campaign.journal.jsonl";

/// Version tag in the journal header. Bumping the crate version or the
/// trailing schema revision invalidates old journals the same way
/// [`CACHE_VERSION`](rmt3d_sweep::CACHE_VERSION) invalidates sweep
/// caches: replay discards them and the campaign restarts.
pub const JOURNAL_VERSION: &str =
    concat!("rmt3d-campaign-journal/", env!("CARGO_PKG_VERSION"), "/1");

/// Completions between `checkpoint` lines.
pub const CHECKPOINT_INTERVAL: usize = 25;

/// Append-only writer for one campaign's journal.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Creates a fresh journal at `path`, replacing any existing file
    /// with the header line binding it to `spec`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: &Path, spec: &CampaignSpec) -> io::Result<Journal> {
        let mut o = JsonObject::new();
        o.str("event", "campaign_start")
            .str("journal", JOURNAL_VERSION)
            .str("spec", &spec.canonical())
            .u64("total", spec.total_trials() as u64);
        write_atomic(path, &(o.finish() + "\n"))?;
        Journal::open_append(path)
    }

    /// Reopens an existing journal at `path` for appending (the resume
    /// path, after [`replay`] accepted its header).
    ///
    /// A SIGKILL mid-write can leave the file ending in a torn partial
    /// line; that stub is terminated with a newline here so new
    /// records never glue onto it ([`replay`] skips the stub and its
    /// trial re-runs).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        Ok(Journal {
            log: AppendLog::open(path)?,
        })
    }

    fn append_synced(&mut self, line: &str) -> io::Result<()> {
        self.log.append(line)?;
        self.log.sync()
    }

    /// Records that a worker began executing trial `index`. Not
    /// fsynced: losing it costs only the in-flight diagnostic.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn trial_started(&mut self, index: usize) -> io::Result<()> {
        let mut o = JsonObject::new();
        o.str("event", "trial_started").u64("trial", index as u64);
        self.log.append(&o.finish())
    }

    /// Records trial `index`'s outcome, fsynced before returning — the
    /// durability point the resume guarantee rests on.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn trial_done(
        &mut self,
        index: usize,
        outcome: &Result<TrialResult, String>,
    ) -> io::Result<()> {
        let mut o = JsonObject::new();
        o.str("event", "trial_done").u64("trial", index as u64);
        match outcome {
            Ok(t) => {
                o.str("fate", t.fate.name())
                    .u64("detect_cycles", t.detect_cycles)
                    .u64("detections", t.detections)
                    .u64("recoveries", t.recoveries)
                    .u64("committed", t.committed);
                if let Some(v) = t.violation {
                    o.str("violation", v.name());
                }
            }
            Err(e) => {
                o.str("error", e);
            }
        }
        self.append_synced(&o.finish())
    }

    /// Records an aggregation checkpoint: `done` completions so far and
    /// the running fate tally, fsynced.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn checkpoint(&mut self, done: usize, tally: &Tally) -> io::Result<()> {
        let mut o = JsonObject::new();
        o.str("event", "checkpoint")
            .u64("done", done as u64)
            .u64("corrected", tally.corrected)
            .u64("detected", tally.detected)
            .u64("masked", tally.masked)
            .u64("not_injected", tally.not_injected)
            .u64("violations", tally.violations)
            .u64("failed", tally.failed);
        self.append_synced(&o.finish())
    }
}

/// What [`replay`] recovered from a journal.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Completed trials by grid index (panicked trials carry their
    /// message). Re-journaled duplicates resolve last-wins.
    pub completed: BTreeMap<usize, Result<TrialResult, String>>,
    /// Trials that started but never finished — the crash's in-flight
    /// victims, re-queued on resume.
    pub in_flight: Vec<usize>,
    /// Checkpoint lines that parsed and passed their consistency check.
    pub checkpoints: u64,
    /// Corrupt or ill-typed lines skipped (their trials re-run).
    pub skipped_lines: u64,
    /// When set, the journal as a whole was unusable (missing, corrupt
    /// header, stale version, different spec, or an inconsistent
    /// checkpoint) and every trial restarts; the reason is
    /// human-readable.
    pub discarded: Option<String>,
}

fn discard(reason: impl Into<String>) -> Replay {
    Replay {
        discarded: Some(reason.into()),
        ..Replay::default()
    }
}

fn decode_outcome(v: &JsonValue) -> Option<Result<TrialResult, String>> {
    if let Some(e) = v.get("error").and_then(JsonValue::as_str) {
        return Some(Err(e.to_string()));
    }
    let fate = TrialFate::parse(v.get("fate")?.as_str()?).ok()?;
    let violation = match v.get("violation") {
        None => None,
        Some(label) => Some(Violation::parse(label.as_str()?).ok()?),
    };
    Some(Ok(TrialResult {
        fate,
        violation,
        detect_cycles: v.get("detect_cycles")?.as_u64()?,
        detections: v.get("detections")?.as_u64()?,
        recoveries: v.get("recoveries")?.as_u64()?,
        committed: v.get("committed")?.as_u64()?,
    }))
}

/// Replays a journal's text against the spec it should belong to.
///
/// Never panics, whatever the input: the worst corruption can do is
/// discard the journal (see [`Replay::discarded`]) and re-run trials.
pub fn replay(text: &str, spec: &CampaignSpec) -> Replay {
    let total = spec.total_trials();
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return discard("journal is empty");
    };
    let Ok(header) = parse(first) else {
        return discard("journal header is corrupt");
    };
    if header.get("event").and_then(JsonValue::as_str) != Some("campaign_start") {
        return discard("journal does not start with a campaign_start header");
    }
    match header.get("journal").and_then(JsonValue::as_str) {
        Some(v) if v == JOURNAL_VERSION => {}
        Some(stale) => return discard(format!("journal version {stale} != {JOURNAL_VERSION}")),
        None => return discard("journal header has no version tag"),
    }
    if header.get("spec").and_then(JsonValue::as_str) != Some(spec.canonical().as_str()) {
        return discard("journal belongs to a different campaign spec");
    }
    if header.get("total").and_then(JsonValue::as_u64) != Some(total as u64) {
        return discard("journal trial count disagrees with the spec");
    }

    let mut r = Replay::default();
    let mut started = BTreeSet::new();
    for line in lines {
        let Ok(v) = parse(line) else {
            r.skipped_lines += 1;
            continue;
        };
        let index = v.get("trial").and_then(JsonValue::as_u64);
        match v.get("event").and_then(JsonValue::as_str) {
            Some("trial_started") => match index {
                Some(i) if (i as usize) < total => {
                    started.insert(i as usize);
                }
                _ => r.skipped_lines += 1,
            },
            Some("trial_done") => match (index, decode_outcome(&v)) {
                (Some(i), Some(outcome)) if (i as usize) < total => {
                    r.completed.insert(i as usize, outcome);
                }
                _ => r.skipped_lines += 1,
            },
            Some("checkpoint") => match v.get("done").and_then(JsonValue::as_u64) {
                // Every completion a checkpoint counts has a trial_done
                // line strictly before it (old segment or just
                // appended), so `done` can never exceed the distinct
                // completions replayed so far. A violation means the
                // journal is lying about history — start over.
                Some(done) if done as usize <= r.completed.len() => r.checkpoints += 1,
                _ => {
                    return discard(
                        "checkpoint counts more completions than the journal holds".to_string(),
                    )
                }
            },
            _ => r.skipped_lines += 1,
        }
    }
    r.in_flight = started
        .into_iter()
        .filter(|i| !r.completed.contains_key(i))
        .collect();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_rmt::{EccConfig, FaultSite};
    use rmt3d_workload::Benchmark;
    use std::path::PathBuf;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            sites: vec![FaultSite::LeaderResult, FaultSite::BoqOutcome],
            benchmarks: vec![Benchmark::Gzip],
            faults_per_cell: 3,
            seed: 9,
            instructions: 8_000,
            ecc: EccConfig::paper(),
        }
    }

    fn result() -> TrialResult {
        TrialResult {
            fate: TrialFate::DetectedRecovered,
            violation: None,
            detect_cycles: 120,
            detections: 1,
            recoveries: 1,
            committed: 8_000,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmt3d-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join(JOURNAL_FILE)
    }

    #[test]
    fn write_then_replay_roundtrips() {
        let path = tmp("roundtrip");
        let spec = spec();
        let mut j = Journal::create(&path, &spec).expect("journal creates");
        j.trial_started(0).unwrap();
        j.trial_done(0, &Ok(result())).unwrap();
        j.trial_started(1).unwrap();
        j.trial_started(2).unwrap();
        j.trial_done(2, &Err("boom".to_string())).unwrap();
        let mut tally = Tally::default();
        tally.add(&Ok(result()));
        tally.add(&Err("boom".to_string()));
        j.checkpoint(2, &tally).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let r = replay(&text, &spec);
        assert!(r.discarded.is_none(), "{:?}", r.discarded);
        assert_eq!(r.completed.len(), 2);
        assert_eq!(r.completed[&0], Ok(result()));
        assert_eq!(r.completed[&2], Err("boom".to_string()));
        assert_eq!(r.in_flight, vec![1]);
        assert_eq!(r.checkpoints, 1);
        assert_eq!(r.skipped_lines, 0);
    }

    #[test]
    fn open_append_terminates_a_torn_trailing_line() {
        let path = tmp("torn");
        let spec = spec();
        let mut j = Journal::create(&path, &spec).unwrap();
        j.trial_done(0, &Ok(result())).unwrap();
        j.trial_done(1, &Ok(result())).unwrap();
        drop(j);
        // Tear the last line mid-write, as a SIGKILL would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 25]).unwrap();
        let mut j = Journal::open_append(&path).unwrap();
        j.trial_done(2, &Ok(result())).unwrap();
        let r = replay(&std::fs::read_to_string(&path).unwrap(), &spec);
        assert!(r.discarded.is_none(), "{:?}", r.discarded);
        assert_eq!(
            r.completed.keys().copied().collect::<Vec<_>>(),
            vec![0, 2],
            "torn trial 1 re-runs; the appended record must not glue onto its stub"
        );
        assert_eq!(r.skipped_lines, 1);
    }

    #[test]
    fn violations_and_reappends_survive_replay() {
        let path = tmp("violation");
        let spec = spec();
        let mut j = Journal::create(&path, &spec).expect("journal creates");
        let mut bad = result();
        bad.violation = Some(Violation::SilentCorruption);
        j.trial_done(4, &Ok(bad)).unwrap();
        // A re-run after resume appends again: last write wins.
        j.trial_done(4, &Ok(result())).unwrap();
        let r = replay(&std::fs::read_to_string(&path).unwrap(), &spec);
        assert_eq!(r.completed[&4], Ok(result()));
    }

    #[test]
    fn empty_missing_and_foreign_journals_are_discarded() {
        let spec = spec();
        assert!(replay("", &spec).discarded.is_some());
        assert!(replay("not json\n", &spec).discarded.is_some());
        let mut other = spec.clone();
        other.seed += 1;
        let path = tmp("foreign");
        Journal::create(&path, &other).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let r = replay(&text, &spec);
        assert!(r
            .discarded
            .as_deref()
            .is_some_and(|m| m.contains("different campaign")));
    }

    #[test]
    fn stale_version_discards_the_journal() {
        let spec = spec();
        let path = tmp("stale");
        Journal::create(&path, &spec).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace(JOURNAL_VERSION, "rmt3d-campaign-journal/0.0.0/0");
        let r = replay(&text, &spec);
        assert!(r
            .discarded
            .as_deref()
            .is_some_and(|m| m.contains("version")));
    }

    #[test]
    fn lying_checkpoint_discards_the_journal() {
        let spec = spec();
        let path = tmp("lying");
        let mut j = Journal::create(&path, &spec).unwrap();
        j.trial_done(0, &Ok(result())).unwrap();
        j.checkpoint(3, &Tally::default()).unwrap();
        let r = replay(&std::fs::read_to_string(&path).unwrap(), &spec);
        assert!(r
            .discarded
            .as_deref()
            .is_some_and(|m| m.contains("checkpoint")));
    }

    #[test]
    fn a_deeply_nested_line_is_skipped_and_later_records_replay() {
        let spec = spec();
        let path = tmp("deep");
        let mut j = Journal::create(&path, &spec).unwrap();
        j.trial_done(0, &Ok(result())).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&"[".repeat(100_000));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let mut j = Journal::open_append(&path).unwrap();
        j.trial_done(1, &Ok(result())).unwrap();
        j.trial_done(2, &Err("boom".to_string())).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Replayed on a thread with the default 2 MiB stack, as a
        // daemon's worker would.
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || replay(&text, &spec))
            .unwrap()
            .join()
            .expect("replay survives the line");
        assert!(r.discarded.is_none(), "{:?}", r.discarded);
        assert_eq!(r.completed.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(r.skipped_lines, 1);
    }

    #[test]
    fn out_of_range_and_ill_typed_lines_are_skipped_not_fatal() {
        let spec = spec();
        let path = tmp("skip");
        let mut j = Journal::create(&path, &spec).unwrap();
        j.trial_done(1, &Ok(result())).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"event\":\"trial_done\",\"trial\":999,\"fate\":\"masked_harmless\",\"detect_cycles\":0,\"detections\":0,\"recoveries\":0,\"committed\":1}\n");
        text.push_str("{\"event\":\"trial_done\",\"trial\":\"two\",\"fate\":5}\n");
        text.push_str("{\"event\":\"trial_started\",\"trial\":-3}\n");
        text.push_str("{\"event\":\"mystery\"}\n");
        text.push_str("{\"event\":\"trial_done\",\"trial\":2,\"fate\":\"detected_");
        let r = replay(&text, &spec);
        assert!(r.discarded.is_none());
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.skipped_lines, 5);
    }
}
