//! Campaign execution on the `rmt3d-sweep` work-stealing pool, with
//! optional write-ahead journaling and crash resume (see
//! [`crate::journal`]).

use crate::grid::CampaignSpec;
use crate::journal::{self, Journal, CHECKPOINT_INTERVAL};
use crate::report::{CampaignReport, Tally, TrialRecord};
use crate::trial::{run_trial_from, TrialResult, TrialSpec, WarmStart};
use rmt3d_sweep::{run_pool, PoolEvent};
use rmt3d_telemetry::{emit, Event, Sink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Knobs of [`run_campaign_with`]. The zero-value default (via
/// [`Default`]) is an unjournaled auto-parallel run.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Heartbeat watchdog flagging silent trials as
    /// [`Event::JobStalled`].
    pub watchdog: Option<rmt3d_obs::WatchdogConfig>,
    /// Write-ahead journal path (`None` disables journaling).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at the path before running, skipping
    /// completed trials. Without a usable journal this degrades to a
    /// fresh run (see [`CampaignRun::journal_discarded`]).
    pub resume: bool,
}

/// A campaign's report plus how the journal shaped the run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The aggregated outcome, byte-identical to an uninterrupted run.
    pub report: CampaignReport,
    /// Trials skipped because the journal already held their outcome.
    pub resumed: usize,
    /// Trials the journal knew about but had to re-run: in-flight
    /// victims of the crash plus previously panicked trials.
    pub requeued: usize,
    /// Why an existing journal was thrown away (`None` when it was
    /// absent on a fresh run or replayed cleanly).
    pub journal_discarded: Option<String>,
}

/// Journaling state owned by the pool coordinator, shared between the
/// completion hook (outcome + checkpoint lines) and the observer
/// (trial-started lines).
struct JournalState {
    journal: Journal,
    tally: Tally,
    done: usize,
    err: Option<String>,
}

impl JournalState {
    fn fail(&mut self, e: std::io::Error) {
        if self.err.is_none() {
            self.err = Some(format!("journal write failed: {e}"));
        }
    }
}

/// Runs every trial of `spec` on `opts.jobs` worker threads (0 =
/// available parallelism) and aggregates the records in grid order,
/// with an optional watchdog, write-ahead journal and crash resume.
///
/// Lifecycle events stream to `sink` while workers run
/// ([`Event::JobStarted`] / [`Event::JobFinished`], in completion
/// order, plus [`Event::JobStalled`] when a watchdog is set); once the
/// pool drains it emits one [`Event::PoolStats`] utilization summary,
/// then one [`Event::CampaignTrial`] per trial in grid order, so a
/// deterministic sink sees the same trial stream regardless of worker
/// count.
///
/// With `opts.journal` set, every completion is appended (and fsynced)
/// to the journal *before* it is acknowledged, so a SIGKILL at any
/// instant loses at most the trials still in flight. With
/// `opts.resume` also set, the journal is replayed first: completed
/// trials are served from it as cache hits, in-flight victims and
/// panicked trials re-run, and — because [`run_trial`](crate::run_trial) is
/// deterministic and the report carries no wall-clock fields — the
/// final report is byte-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns an error when the spec fails [`CampaignSpec::validate`] or
/// the journal cannot be created or written (a journal that cannot
/// keep its durability promise must not pretend to). Trial panics are
/// *not* errors — they surface as failed [`TrialRecord`]s.
pub fn run_campaign_with<S: Sink>(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    sink: &mut S,
) -> Result<CampaignRun, String> {
    spec.validate()?;
    let trials = spec.expand();
    let total = trials.len();
    let workers = if opts.jobs > 0 {
        opts.jobs
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };

    let mut completed: BTreeMap<usize, TrialResult> = BTreeMap::new();
    let mut resumed = 0usize;
    let mut requeued = 0usize;
    let mut journal_discarded = None;
    let journal = match &opts.journal {
        None => None,
        Some(path) => {
            let fresh = || {
                Journal::create(path, spec)
                    .map_err(|e| format!("cannot create journal {}: {e}", path.display()))
            };
            if opts.resume {
                let text = std::fs::read_to_string(path).unwrap_or_default();
                let rp = journal::replay(&text, spec);
                match rp.discarded {
                    Some(reason) => {
                        journal_discarded = Some(reason);
                        Some(fresh()?)
                    }
                    None => {
                        requeued = rp.in_flight.len();
                        for (i, outcome) in rp.completed {
                            match outcome {
                                Ok(t) => {
                                    completed.insert(i, t);
                                }
                                // Panicked trials re-run; determinism
                                // reproduces the identical record.
                                Err(_) => requeued += 1,
                            }
                        }
                        resumed = completed.len();
                        Some(Journal::open_append(path).map_err(|e| {
                            format!("cannot reopen journal {}: {e}", path.display())
                        })?)
                    }
                }
            } else {
                Some(fresh()?)
            }
        }
    };
    let jstate = RefCell::new(journal.map(|journal| JournalState {
        journal,
        tally: Tally::default(),
        done: 0,
        err: None,
    }));

    // One warm start per benchmark, checkpointed up to its latest
    // strike. The first trial that needs one builds it, so a fully
    // resumed run builds none; all are dropped when the campaign returns.
    let warm: Vec<(u64, OnceLock<WarmStart>)> = spec
        .benchmarks
        .iter()
        .map(|&b| {
            let strikes = trials.iter().filter(|t| t.benchmark == b);
            let last_inject = strikes.map(|t| t.inject_at).max().unwrap_or(0);
            (last_inject, OnceLock::new())
        })
        .collect();
    let run = |t: &TrialSpec| {
        let slot = spec.benchmarks.iter().position(|&b| b == t.benchmark);
        let (last_inject, cell) = &warm[slot.expect("trial benchmark is in the grid")];
        let ws = cell.get_or_init(|| WarmStart::new(t.benchmark, spec.instructions, *last_inject));
        run_trial_from(ws, t)
    };

    let pool_records = run_pool(
        &trials,
        workers,
        |t: &TrialSpec| completed.get(&t.index).copied(),
        run,
        |_, _| {},
        opts.watchdog,
        |index, outcome: &Result<TrialResult, String>, cached| {
            let mut guard = jstate.borrow_mut();
            let Some(js) = guard.as_mut() else { return };
            js.done += 1;
            js.tally.add(outcome);
            // Journal-before-acknowledge: replayed hits are already on
            // disk, everything else is fsynced here, ahead of the
            // record and any observer effect.
            let mut wrote = Ok(());
            if !cached {
                wrote = js.journal.trial_done(index, outcome);
            }
            if wrote.is_ok() && (js.done % CHECKPOINT_INTERVAL == 0 || js.done == total) {
                wrote = js.journal.checkpoint(js.done, &js.tally);
            }
            if let Err(e) = wrote {
                js.fail(e);
            }
        },
        |ev| match ev {
            PoolEvent::Started { index } => {
                if let Some(js) = jstate.borrow_mut().as_mut() {
                    if let Err(e) = js.journal.trial_started(index) {
                        js.fail(e);
                    }
                }
                emit(sink, || Event::JobStarted {
                    job: index as u64,
                    total: total as u64,
                    label: trials[index].label(),
                });
            }
            PoolEvent::Finished {
                index,
                ok,
                wall_nanos,
                eta_nanos,
            } => emit(sink, || Event::JobFinished {
                job: index as u64,
                total: total as u64,
                ok,
                wall_nanos,
                eta_nanos,
            }),
            PoolEvent::Stalled {
                index,
                elapsed_nanos,
                median_nanos,
            } => emit(sink, || Event::JobStalled {
                job: index as u64,
                total: total as u64,
                label: trials[index].label(),
                elapsed_nanos,
                median_nanos,
            }),
            PoolEvent::Drained { stats } => emit(sink, || Event::PoolStats {
                workers: stats.workers,
                executed: stats.executed,
                cache_hits: stats.cache_hits,
                failed: stats.failed,
                steals: stats.steals,
                busy_nanos: stats.busy_nanos,
                idle_nanos: stats.idle_nanos,
                wall_nanos: stats.wall_nanos,
            }),
            PoolEvent::CacheHit { .. } => {}
        },
    );
    if let Some(js) = jstate.into_inner() {
        if let Some(e) = js.err {
            return Err(e);
        }
    }
    let records: Vec<TrialRecord> = trials
        .into_iter()
        .zip(pool_records)
        .map(|(spec, r)| TrialRecord {
            spec,
            outcome: r.outcome,
        })
        .collect();
    for r in &records {
        emit(sink, || Event::CampaignTrial {
            trial: r.spec.index as u64,
            site: r.spec.site.name().into(),
            fate: r
                .outcome
                .as_ref()
                .map_or("panicked", |t| t.fate.name())
                .into(),
            detect_cycles: r.outcome.as_ref().map_or(0, |t| t.detect_cycles),
            ok: r.ok(),
        });
    }
    Ok(CampaignRun {
        report: CampaignReport { records },
        resumed,
        requeued,
        journal_discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_FILE;
    use rmt3d_telemetry::{NullSink, RecordingSink};

    /// An unjournaled campaign on `jobs` workers.
    fn run<S: Sink>(
        spec: &CampaignSpec,
        jobs: usize,
        sink: &mut S,
    ) -> Result<CampaignReport, String> {
        let opts = CampaignOptions {
            jobs,
            ..CampaignOptions::default()
        };
        run_campaign_with(spec, &opts, sink).map(|run| run.report)
    }

    #[test]
    fn smoke_campaign_has_full_coverage() {
        let spec = CampaignSpec::smoke(11);
        let report = run(&spec, 0, &mut NullSink).expect("campaign runs");
        assert_eq!(report.records.len(), spec.total_trials());
        assert!(
            report.full_coverage(),
            "violations: {:?}",
            report
                .violations()
                .iter()
                .map(|r| (r.spec.label(), &r.outcome))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_trial_events_arrive_in_grid_order() {
        let spec = CampaignSpec::smoke(3);
        let mut sink = RecordingSink::new();
        run(&spec, 2, &mut sink).expect("campaign runs");
        let trial_ids: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::CampaignTrial { trial, .. } => Some(*trial),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..spec.total_trials() as u64).collect();
        assert_eq!(trial_ids, expected);
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let mut spec = CampaignSpec::smoke(1);
        spec.benchmarks.clear();
        assert!(run(&spec, 1, &mut NullSink).is_err());
    }

    #[test]
    fn full_resume_serves_every_trial_from_the_journal() {
        let spec = CampaignSpec::smoke(29);
        let dir = std::env::temp_dir().join(format!("rmt3d-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CampaignOptions {
            jobs: 2,
            journal: Some(dir.join(JOURNAL_FILE)),
            ..CampaignOptions::default()
        };
        let first = run_campaign_with(&spec, &opts, &mut NullSink).expect("fresh run");
        assert_eq!(first.resumed, 0);
        let resume = CampaignOptions {
            resume: true,
            ..opts
        };
        let mut sink = RecordingSink::new();
        let second = run_campaign_with(&spec, &resume, &mut sink).expect("resumed run");
        assert_eq!(second.resumed, spec.total_trials());
        assert_eq!(second.requeued, 0);
        assert!(second.journal_discarded.is_none());
        assert_eq!(
            first.report.to_jsonl(),
            second.report.to_jsonl(),
            "resume must be byte-identical"
        );
        let hits: u64 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PoolStats { cache_hits, .. } => Some(*cache_hits),
                _ => None,
            })
            .sum();
        assert_eq!(hits, spec.total_trials() as u64, "no trial re-ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_a_journal_file_degrades_to_a_fresh_run() {
        let spec = CampaignSpec::smoke(31);
        let dir = std::env::temp_dir().join(format!("rmt3d-resume-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CampaignOptions {
            jobs: 2,
            journal: Some(dir.join(JOURNAL_FILE)),
            resume: true,
            ..CampaignOptions::default()
        };
        let run = run_campaign_with(&spec, &opts, &mut NullSink).expect("campaign runs");
        assert_eq!(run.resumed, 0);
        assert!(run.journal_discarded.is_some());
        assert_eq!(run.report.records.len(), spec.total_trials());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
