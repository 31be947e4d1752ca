//! Run ledger: a durable, append-only directory of runs.
//!
//! Layout under the runs root (default `target/runs`):
//!
//! ```text
//! runs/
//!   ledger.jsonl              append-only run_started/run_finished index
//!   latest                    name of the most recently created run
//!   <run_id>/
//!     manifest.json           spec hash, version, config, outcome, times
//!     status.json             live progress (see crate::status)
//!     metrics.json            final metrics snapshot (see crate::metricsio)
//!     report.html             optional rendered dashboard
//! ```
//!
//! `manifest.json` is written when the run is created (outcome
//! `"running"`) and atomically rewritten once on [`RunHandle::finish`],
//! so a manifest whose outcome is still `"running"` long after its
//! start stamp is itself a diagnostic: the process died without
//! finishing. All multi-writer files (`manifest.json`, `latest`) go
//! through [`write_atomic`]; `ledger.jsonl` is an [`AppendLog`], one
//! JSON document per line.
//!
//! Determinism: the manifest is deterministic for a given spec and
//! version except for `run_id` (embeds the start stamp) and the
//! `"wall"` object (start/finish clocks).

use crate::durable::{write_atomic, AppendLog};
use crate::metricsio::metrics_to_json;
use crate::status::RunObserver;
use crate::version_string;
use rmt3d_telemetry::json::{parse, JsonObject, JsonValue};
use rmt3d_telemetry::{Event, MetricsRegistry, Sink};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// File name of a run's manifest inside its run directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of a run's live status document.
pub const STATUS_FILE: &str = "status.json";
/// File name of a run's final metrics snapshot.
pub const METRICS_FILE: &str = "metrics.json";
/// File name of a run's rendered HTML dashboard.
pub const REPORT_FILE: &str = "report.html";
/// File name of the append-only index at the runs root.
pub const LEDGER_FILE: &str = "ledger.jsonl";
/// File name of the latest-run pointer at the runs root.
pub const LATEST_FILE: &str = "latest";

/// Milliseconds since the Unix epoch, saturating at 0 for clocks set
/// before 1970.
pub fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// `(year, month, day, hour, minute, second)` in UTC for a Unix
/// millisecond stamp. Days-to-civil conversion per Howard Hinnant's
/// public-domain `civil_from_days` algorithm.
fn utc_parts(unix_ms: u64) -> (i64, u32, u32, u32, u32, u32) {
    let secs = (unix_ms / 1000) as i64;
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (
        y,
        m,
        d,
        (sod / 3600) as u32,
        (sod / 60 % 60) as u32,
        (sod % 60) as u32,
    )
}

/// `"2026-08-08 12:34:56 UTC"` for a Unix millisecond stamp; `"-"`
/// for 0 (the unset finish stamp of a live run).
pub fn format_unix_ms(unix_ms: u64) -> String {
    if unix_ms == 0 {
        return String::from("-");
    }
    let (y, mo, d, h, mi, s) = utc_parts(unix_ms);
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02} UTC")
}

/// Everything recorded about a run in `manifest.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Unique run name; also the run directory name. Embeds the UTC
    /// start stamp and the low 32 bits of the spec hash.
    pub run_id: String,
    /// What kind of run this is: `sweep`, `campaign`, or `profile`.
    pub kind: String,
    /// Build that produced the run, from [`version_string`].
    pub version: String,
    /// FNV-1a hash over the run's canonical job specs, as 16 hex chars.
    pub spec_hash: String,
    /// Number of jobs this run was launched with.
    pub total_jobs: u64,
    /// Outcome: `running` until [`RunHandle::finish`], then `ok`,
    /// `failed`, or whatever the engine reports.
    pub outcome: String,
    /// Run configuration as ordered key/value pairs.
    pub config: Vec<(String, String)>,
    /// Wall clock: run start, Unix milliseconds.
    pub started_unix_ms: u64,
    /// Wall clock: run finish, Unix milliseconds; 0 while running.
    pub finished_unix_ms: u64,
}

impl Manifest {
    /// Serializes the manifest as one JSON document. Deterministic
    /// fields come first; clock-dependent fields live under `"wall"`.
    pub fn to_json(&self) -> String {
        let mut config = JsonObject::new();
        for (k, v) in &self.config {
            config.str(k, v);
        }
        let mut wall = JsonObject::new();
        wall.u64("started_unix_ms", self.started_unix_ms)
            .u64("finished_unix_ms", self.finished_unix_ms);
        let mut o = JsonObject::new();
        o.str("run_id", &self.run_id)
            .str("kind", &self.kind)
            .str("version", &self.version)
            .str("spec_hash", &self.spec_hash)
            .u64("total_jobs", self.total_jobs)
            .str("outcome", &self.outcome)
            .raw("config", &config.finish())
            .raw("wall", &wall.finish());
        o.finish()
    }

    /// Parses a manifest document written by [`Manifest::to_json`].
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = parse(text)?;
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: missing string field '{key}'"))
        };
        let config = match v.get("config") {
            Some(JsonValue::Obj(map)) => map
                .iter()
                .map(|(k, val)| (k.clone(), val.as_str().unwrap_or_default().to_string()))
                .collect(),
            _ => Vec::new(),
        };
        let wall_u64 = |key: &str| -> u64 {
            v.get("wall")
                .and_then(|w| w.get(key))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        Ok(Manifest {
            run_id: s("run_id")?,
            kind: s("kind")?,
            version: s("version")?,
            spec_hash: s("spec_hash")?,
            total_jobs: v
                .get("total_jobs")
                .and_then(JsonValue::as_u64)
                .ok_or("manifest: missing total_jobs")?,
            outcome: s("outcome")?,
            config,
            started_unix_ms: wall_u64("started_unix_ms"),
            finished_unix_ms: wall_u64("finished_unix_ms"),
        })
    }
}

/// One row of [`RunLedger::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// The run's name / directory.
    pub run_id: String,
    /// Run kind from the manifest.
    pub kind: String,
    /// Outcome from the manifest (`running` if the run is live or died).
    pub outcome: String,
    /// Job count from the manifest.
    pub total_jobs: u64,
    /// Start stamp, Unix milliseconds.
    pub started_unix_ms: u64,
}

/// Handle to the runs root directory; creates and enumerates runs.
#[derive(Debug, Clone)]
pub struct RunLedger {
    root: PathBuf,
}

impl RunLedger {
    /// Opens (creating if needed) a runs root.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<RunLedger> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RunLedger { root })
    }

    /// The runs root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of a run by name (whether or not it exists).
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join(run_id)
    }

    /// The run the `latest` pointer names, if any.
    pub fn latest(&self) -> Option<String> {
        let text = fs::read_to_string(self.root.join(LATEST_FILE)).ok()?;
        let id = text.trim().to_string();
        if id.is_empty() {
            None
        } else {
            Some(id)
        }
    }

    /// Resolves a user-supplied run name: `None` or `"latest"` follow
    /// the latest pointer; anything else must be an existing run dir.
    pub fn resolve(&self, run_id: Option<&str>) -> Result<String, String> {
        let id = match run_id {
            None | Some("latest") => self
                .latest()
                .ok_or_else(|| format!("no runs recorded under {}", self.root.display()))?,
            Some(id) => id.to_string(),
        };
        if self.run_dir(&id).join(MANIFEST_FILE).is_file() {
            Ok(id)
        } else {
            Err(format!(
                "run '{id}' not found under {} (no manifest.json)",
                self.root.display()
            ))
        }
    }

    /// Creates a new run: makes its directory, writes the initial
    /// manifest (outcome `running`), appends a `run_started` ledger
    /// line, and repoints `latest`.
    pub fn create_run(
        &self,
        kind: &str,
        spec_hash: u64,
        total_jobs: u64,
        config: &[(String, String)],
    ) -> io::Result<RunHandle> {
        let started_unix_ms = unix_now_ms();
        let (y, mo, d, h, mi, s) = utc_parts(started_unix_ms);
        let base = format!(
            "{kind}-{y:04}{mo:02}{d:02}-{h:02}{mi:02}{s:02}-{:08x}",
            spec_hash as u32
        );
        // Uniquify via create_dir: two runs in the same second with the
        // same spec get `-2`, `-3`, ... suffixes.
        let mut run_id = base.clone();
        let mut attempt = 1u32;
        let dir = loop {
            let dir = self.run_dir(&run_id);
            match fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt < 1000 => {
                    attempt += 1;
                    run_id = format!("{base}-{attempt}");
                }
                Err(e) => return Err(e),
            }
        };
        let manifest = Manifest {
            run_id: run_id.clone(),
            kind: kind.to_string(),
            version: version_string(),
            spec_hash: format!("{spec_hash:016x}"),
            total_jobs,
            outcome: String::from("running"),
            config: config.to_vec(),
            started_unix_ms,
            finished_unix_ms: 0,
        };
        write_atomic(&dir.join(MANIFEST_FILE), &manifest.to_json())?;
        let mut line = JsonObject::new();
        line.str("event", "run_started")
            .str("run_id", &run_id)
            .str("kind", kind)
            .u64("total_jobs", total_jobs)
            .u64("unix_ms", started_unix_ms);
        AppendLog::open(&self.root.join(LEDGER_FILE))?.append(&line.finish())?;
        write_atomic(&self.root.join(LATEST_FILE), &format!("{run_id}\n"))?;
        Ok(RunHandle {
            root: self.root.clone(),
            dir,
            manifest,
        })
    }

    /// Every run with a parseable manifest, sorted by run id (which
    /// sorts by start stamp for a fixed kind).
    pub fn list(&self) -> io::Result<Vec<RunSummary>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Ok(text) = fs::read_to_string(entry.path().join(MANIFEST_FILE)) else {
                continue;
            };
            let Ok(m) = Manifest::from_json(&text) else {
                continue;
            };
            out.push(RunSummary {
                run_id: m.run_id,
                kind: m.kind,
                outcome: m.outcome,
                total_jobs: m.total_jobs,
                started_unix_ms: m.started_unix_ms,
            });
        }
        out.sort_by(|a, b| (a.started_unix_ms, &a.run_id).cmp(&(b.started_unix_ms, &b.run_id)));
        Ok(out)
    }
}

/// A live run created by [`RunLedger::create_run`]; owns the run
/// directory until [`RunHandle::finish`].
#[derive(Debug)]
pub struct RunHandle {
    root: PathBuf,
    dir: PathBuf,
    manifest: Manifest,
}

impl RunHandle {
    /// The run's name.
    pub fn run_id(&self) -> &str {
        &self.manifest.run_id
    }

    /// The run's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest as currently recorded.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Path for this run's live status document.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join(STATUS_FILE)
    }

    /// Path for this run's metrics snapshot.
    pub fn metrics_path(&self) -> PathBuf {
        self.dir.join(METRICS_FILE)
    }

    /// Seals the run: records the outcome and finish stamp in the
    /// manifest (atomic rewrite) and appends a `run_finished` ledger
    /// line.
    pub fn finish(&mut self, outcome: &str) -> io::Result<()> {
        self.manifest.outcome = outcome.to_string();
        self.manifest.finished_unix_ms = unix_now_ms();
        write_atomic(&self.dir.join(MANIFEST_FILE), &self.manifest.to_json())?;
        let mut line = JsonObject::new();
        line.str("event", "run_finished")
            .str("run_id", &self.manifest.run_id)
            .str("outcome", outcome)
            .u64("unix_ms", self.manifest.finished_unix_ms);
        AppendLog::open(&self.root.join(LEDGER_FILE))?.append(&line.finish())
    }
}

/// One registered run: its ledger entry plus the [`RunObserver`] that
/// folds its events into `status.json`. As a [`Sink`] it feeds the
/// observer; tee it into the run's sink stack. `rmt3d sweep`,
/// `campaign`, `profile` and every job `rmt3d serve` executes register
/// through it.
#[derive(Debug)]
pub struct RunTracker {
    handle: RunHandle,
    observer: RunObserver,
}

impl RunTracker {
    /// Opens the ledger at `root` and registers a run in it.
    ///
    /// # Errors
    ///
    /// Returns a message when the ledger cannot be opened or the run
    /// cannot be created.
    pub fn start(
        root: &Path,
        kind: &str,
        spec_hash: u64,
        total_jobs: u64,
        config: &[(String, String)],
    ) -> Result<RunTracker, String> {
        let ledger =
            RunLedger::open(root).map_err(|e| format!("cannot open {}: {e}", root.display()))?;
        let handle = ledger
            .create_run(kind, spec_hash, total_jobs, config)
            .map_err(|e| format!("cannot create run: {e}"))?;
        let observer = RunObserver::new(handle.status_path(), handle.run_id(), kind, total_jobs);
        Ok(RunTracker { handle, observer })
    }

    /// The run's name.
    pub fn run_id(&self) -> &str {
        self.handle.run_id()
    }

    /// The run's directory.
    pub fn dir(&self) -> &Path {
        self.handle.dir()
    }

    /// Closes the run: the final `status.json`, the `metrics.json`
    /// snapshot (of `metrics` when given, else of the observer's own
    /// registry) and the manifest outcome. Every step is attempted.
    ///
    /// # Errors
    ///
    /// Returns one message per step that failed, in step order.
    pub fn finish(
        mut self,
        outcome: &str,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if let Err(e) = self.observer.finalize(outcome) {
            errors.push(format!("status write failed: {e}"));
        }
        let json = metrics_to_json(metrics.unwrap_or_else(|| self.observer.registry()));
        if let Err(e) = write_atomic(&self.handle.metrics_path(), &json) {
            errors.push(format!("metrics write failed: {e}"));
        }
        if let Err(e) = self.handle.finish(outcome) {
            errors.push(format!("manifest write failed: {e}"));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

impl Sink for RunTracker {
    fn record(&mut self, event: &Event) {
        self.observer.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rmt3d-obs-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn kv(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            run_id: "sweep-20260808-120000-00c0ffee".into(),
            kind: "sweep".into(),
            version: "rmt3d/0.1.0".into(),
            spec_hash: "00000000c0ffee00".into(),
            total_jobs: 76,
            outcome: "ok".into(),
            config: kv(&[("cache", "readwrite"), ("workers", "4")]),
            started_unix_ms: 1_700_000_000_000,
            finished_unix_ms: 1_700_000_060_000,
        };
        let text = m.to_json();
        assert_eq!(Manifest::from_json(&text).unwrap(), m);
    }

    #[test]
    fn create_finish_and_list() {
        let root = tempdir("ledger");
        let ledger = RunLedger::open(&root).unwrap();
        let mut run = ledger
            .create_run("sweep", 0xc0ffee, 7, &kv(&[("workers", "2")]))
            .unwrap();
        assert!(run.dir().join(MANIFEST_FILE).is_file());
        assert_eq!(ledger.latest().as_deref(), Some(run.run_id()));
        assert_eq!(
            ledger.resolve(None).unwrap(),
            run.run_id(),
            "no --run follows the latest pointer"
        );
        let m = Manifest::from_json(&fs::read_to_string(run.dir().join(MANIFEST_FILE)).unwrap())
            .unwrap();
        assert_eq!(m.outcome, "running");
        assert!(m.run_id.starts_with("sweep-"));
        assert!(m.run_id.ends_with("00c0ffee"));

        run.finish("ok").unwrap();
        let m = Manifest::from_json(&fs::read_to_string(run.dir().join(MANIFEST_FILE)).unwrap())
            .unwrap();
        assert_eq!(m.outcome, "ok");
        assert!(m.finished_unix_ms >= m.started_unix_ms);

        let runs = ledger.list().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].outcome, "ok");
        assert_eq!(runs[0].total_jobs, 7);

        let ledger_text = fs::read_to_string(root.join(LEDGER_FILE)).unwrap();
        let lines: Vec<_> = ledger_text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("run_started"));
        assert!(lines[1].contains("run_finished"));
        for line in lines {
            parse(line).unwrap();
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn same_second_same_spec_runs_get_distinct_ids() {
        let root = tempdir("dup");
        let ledger = RunLedger::open(&root).unwrap();
        let a = ledger.create_run("sweep", 1, 1, &[]).unwrap();
        let b = ledger.create_run("sweep", 1, 1, &[]).unwrap();
        assert_ne!(a.run_id(), b.run_id());
        assert_eq!(ledger.latest().as_deref(), Some(b.run_id()));
        assert_eq!(ledger.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resolve_rejects_unknown_runs() {
        let root = tempdir("resolve");
        let ledger = RunLedger::open(&root).unwrap();
        assert!(ledger.resolve(None).is_err(), "empty ledger has no latest");
        assert!(ledger.resolve(Some("nope")).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn utc_parts_known_stamps() {
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(utc_parts(1_786_147_200_000), (2026, 8, 8, 0, 0, 0));
        // Epoch.
        assert_eq!(utc_parts(0), (1970, 1, 1, 0, 0, 0));
        // Leap-year boundary: 2024-02-29 23:59:59 UTC.
        assert_eq!(utc_parts(1_709_251_199_000), (2024, 2, 29, 23, 59, 59));
    }
}
