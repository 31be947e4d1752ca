//! # rmt3d-campaign
//!
//! A randomized fault-injection campaign engine for the rmt3d RMT
//! system, validating the paper's central coverage claim (§2) at
//! statistical scale: *any* single transient fault in an unprotected
//! datapath structure is detected by the 3D-stacked checker, every
//! ECC-protected strike is corrected and counted, and no corruption
//! escapes to architectural state silently.
//!
//! The engine composes five pieces:
//!
//! 1. **Grids** ([`CampaignSpec`]): (fault site × benchmark ×
//!    injection point × bit × register) tuples expand deterministically
//!    from one seed into [`TrialSpec`]s.
//! 2. **Trials** ([`run_trial`]): each spec runs an
//!    [`RmtSystem`](rmt3d_rmt::RmtSystem) to the injection point,
//!    strikes via the directed-injection API, drains, and classifies
//!    the fate against the site's expectation ([`expected_fate`]) and a
//!    *differential oracle* — a
//!    [`ReferenceExecutor`](rmt3d_cpu::ReferenceExecutor) replay of the
//!    same trace that cross-checks leader, checker, and golden-shadow
//!    state against pipeline-free ground truth.
//! 3. **Campaigns** ([`run_campaign_with`]): trials fan out on the
//!    `rmt3d-sweep` work-stealing pool with per-trial panic isolation;
//!    records aggregate in grid order, so the JSONL coverage report
//!    ([`CampaignReport::to_jsonl`], with per-site detection-latency
//!    percentiles) is byte-identical between serial and parallel runs.
//!    The fault-free part of a trial is shared: each pool worker
//!    keeps one fault-free system of the benchmark it is on, a cursor,
//!    and takes its trials by benchmark and ascending strike, so the
//!    cursor only steps forward; a trial forks a clone at its strike,
//!    with a clone of an oracle already run to `instructions`. Before
//!    the strike a trial's trajectory depends only on its benchmark,
//!    so results are bit-identical to starting from cycle 0;
//!    [`run_trial`] is the same path on a fresh cursor. A strike that
//!    ECC absorbs changes no state, and a flipped BOQ branch outcome is
//!    a hint nothing downstream reads, so such a trial takes the
//!    fault-free run's ending, run once per benchmark, instead of
//!    stepping to it; a BOQ trial reads its strike cycle off the cursor
//!    without forking.
//! 4. **Crash safety** ([`journal`], [`run_campaign_with`]): an
//!    append-only write-ahead journal records every trial completion —
//!    fsynced before the trial is acknowledged — plus periodic
//!    aggregation checkpoints; resume replays it, skips completed
//!    trials, re-queues in-flight victims, and produces a report
//!    byte-identical to an uninterrupted run, which a SIGKILL
//!    kill-testing harness in `crates/cli` proves against the real
//!    binary.
//! 5. **Minimization** ([`shrink`], [`write_fixture`]): a violation is
//!    greedily shrunk to the smallest (instructions, injection point,
//!    bit, register) tuple that still reproduces it, then emitted as a
//!    JSON fixture that [`replay_fixture`] turns into a deterministic
//!    regression test.
//!
//! ```no_run
//! use rmt3d_campaign::{run_campaign_with, CampaignOptions, CampaignSpec};
//!
//! let spec = CampaignSpec::default_grid(42);
//! let opts = CampaignOptions::default(); // all cores, no journal
//! let report = run_campaign_with(&spec, &opts, &mut rmt3d_telemetry::NullSink)
//!     .unwrap()
//!     .report;
//! assert!(report.full_coverage(), "{}", report.summary());
//! print!("{}", report.to_jsonl());
//! ```

mod engine;
mod fixture;
mod grid;
pub mod journal;
mod report;
mod shrink;
mod trial;

pub use engine::{run_campaign_with, CampaignOptions, CampaignRun};
pub use fixture::{
    fixture_file_name, fixture_json, parse_fixture, replay_fixture, write_fixture, FIXTURE_KIND,
    FIXTURE_VERSION,
};
pub use grid::{CampaignSpec, DEFAULT_BENCHMARKS, SPEC_VERSION};
pub use journal::{Journal, Replay, CHECKPOINT_INTERVAL, JOURNAL_FILE, JOURNAL_VERSION};
pub use report::{CampaignReport, LatencyStats, SiteSummary, Tally, TrialRecord};
pub use shrink::{reproduces, shrink, Shrunk};
pub use trial::{
    expected_fate, run_trial, Expectation, TrialFate, TrialResult, TrialSpec, Violation,
};
