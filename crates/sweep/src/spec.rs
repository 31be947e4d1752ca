//! Declarative sweep specifications and their expansion into jobs.
//!
//! A [`SweepSpec`] is the cross product of axes over the paper's design
//! space — processor model, benchmark, leader frequency, checker
//! frequency cap, NUCA policy — at one [`RunScale`]. [`SweepSpec::expand`]
//! flattens it into a deterministic, model-major job list; the engine
//! aggregates results back in exactly that order, so parallel execution
//! is invisible to consumers.

use rmt3d::{ProcessorModel, RunScale, SimConfig};
use rmt3d_cache::NucaPolicy;
use rmt3d_units::Gigahertz;
use rmt3d_workload::Benchmark;

/// Version tag folded into every cache key. Bump when the simulator or
/// the result schema changes in a way that invalidates cached results.
pub const CACHE_VERSION: &str = concat!("rmt3d-sweep/", env!("CARGO_PKG_VERSION"), "/2");

/// A declarative design-space sweep: the cross product of the axes,
/// expanded in axis order (model-major, then benchmark, frequency,
/// checker cap, policy).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Processor organizations to sweep.
    pub models: Vec<ProcessorModel>,
    /// Benchmarks to sweep.
    pub benchmarks: Vec<Benchmark>,
    /// Leading-core clocks (default: the nominal 2 GHz).
    pub frequencies: Vec<Gigahertz>,
    /// Checker peak-frequency caps (default: uncapped, 1.0).
    pub checker_peak_fractions: Vec<f64>,
    /// NUCA placement policies (default: distributed sets).
    pub policies: Vec<NucaPolicy>,
    /// Simulation lengths shared by every job.
    pub scale: RunScale,
}

impl SweepSpec {
    /// A sweep over `models × benchmarks` at the nominal configuration.
    pub fn new(models: &[ProcessorModel], benchmarks: &[Benchmark], scale: RunScale) -> SweepSpec {
        SweepSpec {
            models: models.to_vec(),
            benchmarks: benchmarks.to_vec(),
            frequencies: vec![Gigahertz(2.0)],
            checker_peak_fractions: vec![1.0],
            policies: vec![NucaPolicy::DistributedSets],
            scale,
        }
    }

    /// The paper's full 19-benchmark suite over all four models.
    pub fn paper_suite(scale: RunScale) -> SweepSpec {
        SweepSpec::new(&ProcessorModel::ALL, &Benchmark::ALL, scale)
    }

    /// Number of jobs the spec expands to.
    pub fn job_count(&self) -> usize {
        self.models.len()
            * self.benchmarks.len()
            * self.frequencies.len()
            * self.checker_peak_fractions.len()
            * self.policies.len()
    }

    /// Expands the cross product into the deterministic job list.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for &model in &self.models {
            for &benchmark in &self.benchmarks {
                for &frequency in &self.frequencies {
                    for &cap in &self.checker_peak_fractions {
                        for &policy in &self.policies {
                            let cfg = SimConfig {
                                policy,
                                frequency,
                                checker_peak_fraction: cap,
                                ..SimConfig::nominal(model, self.scale)
                            };
                            jobs.push(JobSpec {
                                index: jobs.len(),
                                cfg,
                                benchmark,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of work: a full [`SimConfig`] plus the benchmark to run.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in spec order; results aggregate back under this index.
    pub index: usize,
    /// Complete simulation configuration.
    pub cfg: SimConfig,
    /// Benchmark to simulate.
    pub benchmark: Benchmark,
}

impl JobSpec {
    /// Short human-readable description (`"3d-2a/mcf"`, with non-nominal
    /// axes appended).
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.cfg.model, self.benchmark);
        if (self.cfg.frequency.value() - 2.0).abs() > 1e-12 {
            s.push_str(&format!("@{:.2}GHz", self.cfg.frequency.value()));
        }
        if (self.cfg.checker_peak_fraction - 1.0).abs() > 1e-12 {
            s.push_str(&format!("/cap{:.2}", self.cfg.checker_peak_fraction));
        }
        if self.cfg.policy != NucaPolicy::DistributedSets {
            s.push_str("/ways");
        }
        s
    }

    /// Canonical text of everything that determines the job's result.
    /// The content-addressed cache stores this alongside the result and
    /// re-verifies it on load, so a hash collision can never alias two
    /// different configurations.
    pub fn canonical(&self) -> String {
        let layout = match &self.cfg.layout {
            None => String::from("nominal"),
            Some(l) => format!(
                "{}:banks{:?}:ctl{:?}:hop{}:cross{}:bank{}:ctrl{}",
                l.name,
                l.banks,
                l.controller,
                l.hop_cycles,
                l.die_cross_cycles,
                l.bank_cycles,
                l.controller_cycles
            ),
        };
        format!(
            "{CACHE_VERSION}|model={}|bench={}|layout={layout}|policy={}|freq={:?}|cap={:?}|warmup={}|instr={}|grid={}",
            self.cfg.model,
            self.benchmark,
            self.cfg.policy,
            self.cfg.frequency.value(),
            self.cfg.checker_peak_fraction,
            self.cfg.scale.warmup_instructions,
            self.cfg.scale.instructions,
            self.cfg.scale.thermal_grid,
        )
    }

    /// Stable 64-bit content hash of [`JobSpec::canonical`]
    /// ([`rmt3d_obs::fnv1a`], stable across platforms and compiler
    /// versions, unlike `DefaultHasher`); the cache file name is this
    /// key in hex.
    pub fn cache_key(&self) -> u64 {
        rmt3d_obs::fnv1a(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            &[ProcessorModel::TwoDA, ProcessorModel::ThreeD2A],
            &[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim],
            RunScale::quick(),
        )
    }

    #[test]
    fn expansion_is_deterministic_and_model_major() {
        let jobs_a = spec().expand();
        let jobs_b = spec().expand();
        assert_eq!(jobs_a.len(), 6);
        assert_eq!(jobs_a.len(), spec().job_count());
        for (a, b) in jobs_a.iter().zip(&jobs_b) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.canonical(), b.canonical());
        }
        // Model-major: first three jobs are 2d-a, last three 3d-2a.
        assert!(jobs_a[..3]
            .iter()
            .all(|j| j.cfg.model == ProcessorModel::TwoDA));
        assert!(jobs_a[3..]
            .iter()
            .all(|j| j.cfg.model == ProcessorModel::ThreeD2A));
    }

    #[test]
    fn cache_keys_are_stable_and_distinct() {
        let jobs = spec().expand();
        let keys: Vec<u64> = jobs.iter().map(JobSpec::cache_key).collect();
        let again: Vec<u64> = spec().expand().iter().map(JobSpec::cache_key).collect();
        assert_eq!(keys, again, "keys must be reproducible");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "keys must be distinct");
    }

    #[test]
    fn key_depends_on_every_axis() {
        let base = spec().expand().remove(0);
        let mut freq = base.clone();
        freq.cfg.frequency = Gigahertz(1.8);
        let mut cap = base.clone();
        cap.cfg.checker_peak_fraction = 0.7;
        let mut scale = base.clone();
        scale.cfg.scale.instructions += 1;
        for other in [&freq, &cap, &scale] {
            assert_ne!(base.cache_key(), other.cache_key());
        }
    }

    #[test]
    fn labels_name_the_design_point() {
        let jobs = spec().expand();
        assert_eq!(jobs[0].label(), "2d-a/gzip");
        let mut j = jobs[5].clone();
        j.cfg.frequency = Gigahertz(1.8);
        j.cfg.policy = NucaPolicy::DistributedWays;
        assert_eq!(j.label(), "3d-2a/swim@1.80GHz/ways");
    }

    #[test]
    fn paper_suite_is_the_19_benchmark_grid() {
        let s = SweepSpec::paper_suite(RunScale::quick());
        assert_eq!(s.job_count(), 4 * 19);
    }
}
