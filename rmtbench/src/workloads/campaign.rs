//! `campaign-journaled`: the default 1000-trial fault grid (5 sites ×
//! 5 benchmarks × 40 faults, 20k instructions each), drawn from the
//! seed, through `run_campaign_with` with the fsync'd journal on.
//!
//! Checks: every trial is covered without a violation; the journal
//! replays to exactly the report's outcomes; and on the development
//! and held-out seeds the report's digest matches the committed one.

use super::{secs, Ctx, PoolSink, Prepared, Round, Size};
use crate::digest;
use crate::expected::Expected;
use crate::trace::Tracer;
use rmt3d_campaign::{journal, run_campaign_with, CampaignOptions, CampaignReport, CampaignSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "campaign-journaled";

/// The key the report digest of `seed` is committed under.
pub fn report_key(seed: u64) -> String {
    format!("report@seed{seed}")
}

/// The grid of a round.
pub fn spec(size: Size, seed: u64) -> CampaignSpec {
    match size {
        Size::Full => CampaignSpec::default_grid(seed),
        Size::Tiny => CampaignSpec::smoke(seed),
    }
}

/// A journaled campaign, ready to run.
pub struct CampaignJournaled {
    seed: u64,
    spec: CampaignSpec,
    opts: CampaignOptions,
    journal: PathBuf,
}

impl CampaignJournaled {
    /// Validates and expands the grid and creates the journal's
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid grid or an uncreatable
    /// directory.
    pub fn setup(ctx: &Ctx) -> Result<CampaignJournaled, String> {
        let spec = spec(ctx.size, ctx.seed);
        spec.validate()?;
        let trials = spec.expand();
        debug_assert_eq!(trials.len(), spec.total_trials());
        let dir = ctx.dir.join("campaign");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let journal = dir.join(rmt3d_campaign::JOURNAL_FILE);
        Ok(CampaignJournaled {
            seed: ctx.seed,
            spec,
            opts: CampaignOptions {
                jobs: ctx.workers,
                journal: Some(journal.clone()),
                ..CampaignOptions::default()
            },
            journal,
        })
    }

    /// Whether the journal replays to exactly the report's outcomes.
    fn journal_matches(&self, report: &CampaignReport) -> Result<(), String> {
        let text = std::fs::read_to_string(&self.journal)
            .map_err(|e| format!("cannot read journal: {e}"))?;
        let replay = journal::replay(&text, &self.spec);
        if let Some(why) = replay.discarded {
            return Err(format!("journal discarded on replay: {why}"));
        }
        if replay.completed.len() != report.records.len() {
            return Err(format!(
                "journal holds {} of {} trials",
                replay.completed.len(),
                report.records.len()
            ));
        }
        for rec in &report.records {
            if replay.completed.get(&rec.spec.index) != Some(&rec.outcome) {
                return Err(format!(
                    "journal disagrees with the report on trial {}",
                    rec.spec.index
                ));
            }
        }
        Ok(())
    }
}

impl Prepared for CampaignJournaled {
    fn run(self: Box<Self>, tracer: &Tracer, expected: Option<&Expected>) -> Round {
        let mut sink = PoolSink::default();
        let total = self.spec.total_trials() as u64;
        let t0 = Instant::now();
        let run = tracer.span_n("campaign::run_campaign_with", total, 0, || {
            run_campaign_with(&self.spec, &self.opts, &mut sink)
        });
        let mut round = Round {
            wall_s: secs(t0),
            job_ms: sink
                .finished
                .iter()
                .map(|&(_, ns)| ns as f64 / 1e6)
                .collect(),
            layer: sink.layer_obs(),
            ..Round::default()
        };
        let report = match run {
            Ok(run) => run.report,
            Err(e) => {
                round.check(false, || format!("run_campaign_with refused: {e}"));
                return round;
            }
        };
        for rec in &report.records {
            if let Ok(t) = &rec.outcome {
                round.instructions += t.committed;
            }
            round.check(rec.ok(), || {
                format!("trial {} not covered: {:?}", rec.spec.label(), rec.outcome)
            });
        }
        round.check(report.records.len() as u64 == total, || {
            format!("report holds {} of {total} trials", report.records.len())
        });
        let digest = digest::hash_hex(report.to_jsonl().as_bytes());
        round.digests.push(("report".to_string(), digest.clone()));
        round.expect(expected, NAME, report_key(self.seed), digest, false);
        let journal = self.journal_matches(&report);
        round.check(journal.is_ok(), || journal.unwrap_err());
        round
    }
}
