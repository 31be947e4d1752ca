//! Campaign grids: (fault site × benchmark × injection point × bit)
//! sampling, expanded deterministically from one seed.

use crate::trial::TrialSpec;
use rmt3d_rmt::{EccConfig, FaultSite};
use rmt3d_workload::{Benchmark, SplitMix64};

/// A declarative fault-injection campaign.
///
/// Expansion draws `faults_per_cell` randomized (injection point, bit,
/// register) tuples for every (site × benchmark) cell from a single
/// [`SplitMix64`] stream, so the full trial list — and therefore the
/// whole campaign, worker count notwithstanding — is a pure function of
/// the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Strike sites to sweep.
    pub sites: Vec<FaultSite>,
    /// Workloads to sweep.
    pub benchmarks: Vec<Benchmark>,
    /// Randomized faults per (site × benchmark) cell.
    pub faults_per_cell: usize,
    /// Master seed.
    pub seed: u64,
    /// Leader commits per trial.
    pub instructions: u64,
    /// ECC protection in force for every trial.
    pub ecc: EccConfig,
}

/// Version prefix of [`CampaignSpec::canonical`]. Bumping the crate
/// version or the trailing schema revision changes every canonical
/// string, which invalidates journals and spec hashes derived from it
/// — the same discipline as the sweep cache's `CACHE_VERSION`.
pub const SPEC_VERSION: &str = concat!("rmt3d-campaign/", env!("CARGO_PKG_VERSION"), "/1");

/// Most faults per (site, benchmark) cell a spec may ask for: with
/// every site and benchmark that is under a million trials, whose
/// specs and records the engine holds in memory at once.
pub const MAX_FAULTS_PER_SITE: usize = 10_000;

/// Most leader commits per trial a spec may ask for: each benchmark's
/// warm start holds a trace of that many ops (about 60 MB at the cap).
/// It is the paper's run length, and it caps a sweep job's measured
/// instructions too (`rmt3d_serve::JobPayload::validate`), since each
/// sweep job builds a trace that long.
pub const MAX_INSTRUCTIONS: u64 = 1_000_000;

/// The default campaign's benchmark slice: two int and two fp-adjacent
/// profiles plus the paper's canonical mcf, spanning branchy and
/// memory-bound behaviour.
pub const DEFAULT_BENCHMARKS: [Benchmark; 5] = [
    Benchmark::Gzip,
    Benchmark::Mcf,
    Benchmark::Twolf,
    Benchmark::Vpr,
    Benchmark::Swim,
];

impl CampaignSpec {
    /// The default 1000-trial grid: all five sites × five benchmarks ×
    /// 40 faults under the paper's ECC, 20k instructions per trial.
    pub fn default_grid(seed: u64) -> CampaignSpec {
        CampaignSpec {
            sites: FaultSite::ALL.to_vec(),
            benchmarks: DEFAULT_BENCHMARKS.to_vec(),
            faults_per_cell: 40,
            seed,
            instructions: 20_000,
            ecc: EccConfig::paper(),
        }
    }

    /// A small grid for CI smoke runs: all five sites × one benchmark ×
    /// 4 faults at 8k instructions (20 trials, a few seconds).
    pub fn smoke(seed: u64) -> CampaignSpec {
        CampaignSpec {
            sites: FaultSite::ALL.to_vec(),
            benchmarks: vec![Benchmark::Gzip],
            faults_per_cell: 4,
            seed,
            instructions: 8_000,
            ecc: EccConfig::paper(),
        }
    }

    /// Disables ECC at `site` (the seeded-bug mode that demonstrates
    /// the shrinker: violations become findable).
    ///
    /// # Errors
    ///
    /// Returns a message when `site` carries no ECC to disable.
    pub fn sabotage(mut self, site: FaultSite) -> Result<CampaignSpec, String> {
        match site {
            FaultSite::LvqValue => self.ecc.lvq = false,
            FaultSite::TrailerRegfile => self.ecc.trailer_regfile = false,
            other => {
                return Err(format!(
                    "site {} carries no ECC to sabotage (ECC sites: lvq_value, trailer_regfile)",
                    other.name()
                ))
            }
        }
        Ok(self)
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites.is_empty() {
            return Err("no fault sites selected".to_string());
        }
        if self.benchmarks.is_empty() {
            return Err("no benchmarks selected".to_string());
        }
        if self.faults_per_cell == 0 {
            return Err("faults-per-site must be positive".to_string());
        }
        if self.faults_per_cell > MAX_FAULTS_PER_SITE {
            return Err(format!(
                "faults-per-site {} exceeds the cap of {MAX_FAULTS_PER_SITE}",
                self.faults_per_cell
            ));
        }
        if self.instructions < 4_000 {
            return Err(format!(
                "instructions {} too small: trials need room for warm state, \
                 an injection window, and a post-fault tail",
                self.instructions
            ));
        }
        if self.instructions > MAX_INSTRUCTIONS {
            return Err(format!(
                "instructions {} exceeds the cap of {MAX_INSTRUCTIONS}",
                self.instructions
            ));
        }
        if self.checked_total().is_none() {
            return Err("the grid's trial count overflows".to_string());
        }
        Ok(())
    }

    /// The canonical text of this spec: every field that affects
    /// expansion, led by [`SPEC_VERSION`]. Two specs expand to the
    /// same trial list iff their canonical strings are equal, which is
    /// what lets the journal detect a resume against the wrong
    /// campaign.
    pub fn canonical(&self) -> String {
        format!(
            "{SPEC_VERSION}|sites={}|benchmarks={}|faults={}|seed={}|instructions={}|ecc_lvq={}|ecc_trailer={}",
            self.sites
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(","),
            self.benchmarks
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join(","),
            self.faults_per_cell,
            self.seed,
            self.instructions,
            self.ecc.lvq,
            self.ecc.trailer_regfile,
        )
    }

    /// Total trials the grid expands to (saturating at `usize::MAX`,
    /// which [`CampaignSpec::validate`] rejects).
    pub fn total_trials(&self) -> usize {
        self.checked_total().unwrap_or(usize::MAX)
    }

    fn checked_total(&self) -> Option<usize> {
        self.sites
            .len()
            .checked_mul(self.benchmarks.len())?
            .checked_mul(self.faults_per_cell)
    }

    /// Expands the grid into concrete trials (site-major, then
    /// benchmark, then fault index — always the same order).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`CampaignSpec::validate`].
    pub fn expand(&self) -> Vec<TrialSpec> {
        self.validate().expect("invalid campaign spec");
        let mut rng = SplitMix64::new(self.seed);
        // Strike inside the middle of the run: after warm state exists,
        // with a tail long enough to surface delayed effects.
        let lo = self.instructions / 8;
        let hi = self.instructions * 3 / 4;
        let mut trials = Vec::with_capacity(self.total_trials());
        for &site in &self.sites {
            for &benchmark in &self.benchmarks {
                for _ in 0..self.faults_per_cell {
                    trials.push(TrialSpec {
                        index: trials.len(),
                        site,
                        benchmark,
                        ecc: self.ecc,
                        instructions: self.instructions,
                        inject_at: rng.range_u64(lo, hi),
                        bit: rng.below(64) as u8,
                        // Full architectural file (int 1..32, fp 32..64):
                        // cold fp registers are exactly where latent
                        // trailer corruption hides in int-heavy profiles.
                        reg: rng.range_u64(1, 64) as u8,
                    });
                }
            }
        }
        trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_1000_trials_over_every_site() {
        let spec = CampaignSpec::default_grid(42);
        let trials = spec.expand();
        assert_eq!(trials.len(), 1000);
        assert_eq!(trials.len(), spec.total_trials());
        for site in FaultSite::ALL {
            assert!(
                trials.iter().any(|t| t.site == site),
                "{site:?} missing from default grid"
            );
        }
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.index, i);
            t.validate().expect("expanded trials are valid");
        }
    }

    #[test]
    fn expansion_is_seed_deterministic() {
        let a = CampaignSpec::default_grid(7).expand();
        let b = CampaignSpec::default_grid(7).expand();
        let c = CampaignSpec::default_grid(8).expand();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sabotage_only_applies_to_ecc_sites() {
        let spec = CampaignSpec::smoke(1);
        let s = spec.clone().sabotage(FaultSite::TrailerRegfile).unwrap();
        assert!(!s.ecc.trailer_regfile);
        assert!(s.ecc.lvq);
        let s = spec.clone().sabotage(FaultSite::LvqValue).unwrap();
        assert!(!s.ecc.lvq);
        assert!(spec.sabotage(FaultSite::BoqOutcome).is_err());
    }

    #[test]
    fn canonical_distinguishes_every_expansion_field() {
        let base = CampaignSpec::smoke(1);
        assert!(base.canonical().starts_with(SPEC_VERSION));
        assert_eq!(base.canonical(), CampaignSpec::smoke(1).canonical());
        let mut seeds = std::collections::BTreeSet::new();
        seeds.insert(base.canonical());
        let mut v = base.clone();
        v.seed = 2;
        seeds.insert(v.canonical());
        let mut v = base.clone();
        v.faults_per_cell = 5;
        seeds.insert(v.canonical());
        let mut v = base.clone();
        v.instructions = 9_000;
        seeds.insert(v.canonical());
        let mut v = base.clone();
        v.benchmarks = vec![Benchmark::Mcf];
        seeds.insert(v.canonical());
        let v = base.sabotage(FaultSite::LvqValue).unwrap();
        seeds.insert(v.canonical());
        assert_eq!(seeds.len(), 6, "every field must alter the canonical");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = CampaignSpec::smoke(1);
        spec.sites.clear();
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::smoke(1);
        spec.faults_per_cell = 0;
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::smoke(1);
        spec.instructions = 100;
        assert!(spec.validate().is_err());
    }
}
