//! Campaign execution on the `rmt3d-sweep` work-stealing pool, with
//! optional write-ahead journaling and crash resume (see
//! [`crate::journal`]).

use crate::grid::CampaignSpec;
use crate::journal::{self, Journal, CHECKPOINT_INTERVAL};
use crate::report::{CampaignReport, Tally, TrialRecord};
use crate::trial::{run_trial_from, Cursor, TrialResult, TrialSpec, WarmStart};
use rmt3d_sweep::{run_pool, PoolEvent};
use rmt3d_telemetry::{emit, Event, Sink};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

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
    /// Cooperative cancellation flag, as in a sweep
    /// (`SweepOptions::cancel`): once it is `true`, trials not yet
    /// started fail fast with a `"cancelled"` panic and the campaign
    /// drains. A resume re-runs them, as it re-runs every failed trial.
    pub cancel: Option<Arc<AtomicBool>>,
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
/// count. Workers take the trials by benchmark and ascending strike,
/// each stepping one fault-free cursor forward; every event and
/// journal line still names a trial by its grid index.
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

    // One warm start per benchmark. The first trial that needs one
    // builds it, so a fully resumed run builds none; all are dropped
    // when the campaign returns.
    let slot = |t: &TrialSpec| {
        let slot = spec.benchmarks.iter().position(|&b| b == t.benchmark);
        slot.expect("trial benchmark is in the grid")
    };
    let warm: Vec<OnceLock<WarmStart>> = spec.benchmarks.iter().map(|_| OnceLock::new()).collect();
    thread_local! {
        /// This pool worker's fault-free cursor. A trial takes it out
        /// while it runs, so one that panics leaves none behind.
        static CURSOR: Cell<Option<Cursor>> = const { Cell::new(None) };
    }
    let run = |&i: &usize| {
        // Cancellation rides the pool's panic channel: the worker's
        // catch_unwind records the trial as failed with "cancelled".
        if opts
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
        {
            panic!("cancelled");
        }
        let t = &trials[i];
        let ws = warm[slot(t)].get_or_init(|| WarmStart::new(t.benchmark, spec.instructions));
        let mut cursor = CURSOR.take();
        let result = run_trial_from(ws, &mut cursor, t);
        CURSOR.set(cursor);
        result
    };
    // The pool sees positions in `order`: trials by benchmark, then by
    // strike, so each worker's cursor only moves forward. Everything it
    // reports is mapped back to grid indices.
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| (slot(&trials[i]), trials[i].inject_at));

    let pool_records = run_pool(
        &order,
        workers,
        |i: &usize| completed.get(i).copied(),
        run,
        |_, _| {},
        opts.watchdog,
        |pos, outcome: &Result<TrialResult, String>, cached| {
            let index = order[pos];
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
            PoolEvent::Started { index: pos } => {
                let index = order[pos];
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
                index: pos,
                ok,
                wall_nanos,
                eta_nanos,
            } => emit(sink, || Event::JobFinished {
                job: order[pos] as u64,
                total: total as u64,
                ok,
                wall_nanos,
                eta_nanos,
            }),
            PoolEvent::Stalled {
                index: pos,
                elapsed_nanos,
                median_nanos,
            } => emit(sink, || Event::JobStalled {
                job: order[pos] as u64,
                total: total as u64,
                label: trials[order[pos]].label(),
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
    let mut by_grid: Vec<_> = order.iter().zip(pool_records).collect();
    by_grid.sort_by_key(|(&i, _)| i);
    let records: Vec<TrialRecord> = trials
        .into_iter()
        .zip(by_grid.into_iter().map(|(_, r)| r))
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
    use crate::trial::tests::stepped_trial;
    use rmt3d_rmt::FaultSite;
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

    /// The pool runs trials by benchmark and strike, not in grid
    /// order; the journal and the job events still name grid indices.
    #[test]
    fn journal_and_job_events_name_grid_indices() {
        let spec = CampaignSpec::smoke(17);
        let trials = spec.expand();
        let total = trials.len() as u64;
        for jobs in [1, 2] {
            let dir = std::env::temp_dir()
                .join(format!("rmt3d-grid-indices-{}-{jobs}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = CampaignOptions {
                jobs,
                journal: Some(dir.join(JOURNAL_FILE)),
                ..CampaignOptions::default()
            };
            let mut sink = RecordingSink::new();
            let run = run_campaign_with(&spec, &opts, &mut sink).expect("campaign runs");
            let mut started = Vec::new();
            let mut finished = Vec::new();
            for e in sink.events() {
                match e {
                    Event::JobStarted { job, label, .. } => {
                        assert_eq!(label, trials[job as usize].label(), "{jobs} workers");
                        started.push(job);
                    }
                    Event::JobFinished { job, .. } => finished.push(job),
                    _ => {}
                }
            }
            if jobs == 1 {
                assert!(
                    started.windows(2).any(|w| w[0] > w[1]),
                    "the pool order differs from the grid's"
                );
            }

            let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal");
            let journaled: Vec<u64> = text
                .lines()
                .filter_map(|l| rmt3d_telemetry::json::parse(l).ok())
                .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some("trial_started"))
                .filter_map(|v| v.get("trial").and_then(|t| t.as_u64()))
                .collect();
            assert_eq!(journaled, started, "trial_started lines follow JobStarted");
            let replay = crate::journal::replay(&text, &spec);
            for r in &run.report.records {
                assert_eq!(replay.completed.get(&r.spec.index), Some(&r.outcome));
            }
            for ids in [&mut started, &mut finished] {
                ids.sort_unstable();
                assert_eq!(*ids, (0..total).collect::<Vec<_>>(), "{jobs} workers");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The default grid on an unseen seed, through the campaign's
    /// cursors and leader tapes on 2 workers, equals every trial stepped
    /// live from cycle 0, in grid order: under the paper's ECC and with
    /// `trailer_regfile` ECC sabotaged. Run with `cargo test --release
    /// -p rmt3d-campaign -- --ignored`.
    #[test]
    #[ignore = "two full 1000-trial grids; run in release"]
    fn default_grid_equals_stepped_trials_on_an_unseen_seed() {
        let paper = CampaignSpec::default_grid(3);
        let sabotaged = paper.clone().sabotage(FaultSite::TrailerRegfile);
        for spec in [paper, sabotaged.expect("ECC site")] {
            let report = run(&spec, 2, &mut NullSink).expect("campaign runs");
            let trials = spec.expand();
            assert_eq!(report.records.len(), trials.len());
            for (r, t) in report.records.iter().zip(&trials) {
                assert_eq!(r.spec, *t);
                assert_eq!(r.outcome, Ok(stepped_trial(t)), "{}", t.label());
            }
        }
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
