//! Job payloads: the kind-specific spec object inside a `submit`
//! request, normalized so the journal, the dedup hash, and the run
//! ledger all agree on one canonical form.
//!
//! A sweep payload hashes exactly like the equivalent `rmt3d sweep`
//! invocation (the [`rmt3d_obs::spec_hash`] of the expanded job
//! canonicals), and a campaign payload hashes like `rmt3d campaign`
//! (the hash of the campaign's canonical string) — so a server run in
//! the ledger carries the same spec hash the one-shot CLI would have
//! registered, and a warm client submission dedups against the cache
//! the CLI populated.

use rmt3d::{ProcessorModel, RunScale};
use rmt3d_campaign::{CampaignSpec, DEFAULT_BENCHMARKS};
use rmt3d_rmt::{EccConfig, FaultSite};
use rmt3d_sweep::SweepSpec;
use rmt3d_telemetry::json::{json_str, write_json_string, JsonValue};
use rmt3d_workload::Benchmark;

/// A validated, normalized job payload.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// A design-space sweep over `models × benchmarks`.
    Sweep {
        /// Processor organizations to sweep.
        models: Vec<ProcessorModel>,
        /// Benchmarks to sweep.
        benchmarks: Vec<Benchmark>,
        /// Instructions per job (warmup derives as a tenth, matching
        /// the `rmt3d sweep` CLI).
        instructions: u64,
    },
    /// A randomized fault-injection campaign.
    Campaign {
        /// Fault sites to strike.
        sites: Vec<FaultSite>,
        /// Benchmarks to inject into.
        benchmarks: Vec<Benchmark>,
        /// Faults per (site × benchmark) cell.
        faults_per_site: usize,
        /// Grid seed.
        seed: u64,
        /// Instructions per trial.
        instructions: u64,
    },
}

fn parse_names<T: Copy>(
    v: Option<&JsonValue>,
    all: &[T],
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, String> {
    match v {
        None => Ok(all.to_vec()),
        Some(JsonValue::Str(s)) if s == "all" => Ok(all.to_vec()),
        Some(JsonValue::Arr(items)) => {
            if items.is_empty() {
                return Err(format!("\"{what}s\" must not be empty"));
            }
            items
                .iter()
                .map(|item| {
                    let name = item
                        .as_str()
                        .ok_or_else(|| format!("\"{what}s\" entries must be strings"))?;
                    parse(name).ok_or_else(|| format!("unknown {what}: {name}"))
                })
                .collect()
        }
        Some(_) => Err(format!("\"{what}s\" must be an array of names or \"all\"")),
    }
}

fn parse_u64(v: Option<&JsonValue>, default: u64, what: &str) -> Result<u64, String> {
    match v {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| format!("\"{what}\" must be a non-negative integer")),
    }
}

impl JobPayload {
    /// Parses and validates a submit spec object for `kind`.
    ///
    /// # Errors
    ///
    /// Returns a structured message for unknown names, ill-typed
    /// fields, or an invalid campaign grid.
    pub fn parse(kind: &str, spec: &JsonValue) -> Result<JobPayload, String> {
        match kind {
            "sweep" => {
                let models = parse_names(
                    spec.get("models"),
                    &ProcessorModel::ALL,
                    |s| s.parse().ok(),
                    "model",
                )?;
                let benchmarks = parse_names(
                    spec.get("benchmarks"),
                    &Benchmark::ALL,
                    |s| s.parse().ok(),
                    "benchmark",
                )?;
                let instructions = parse_u64(spec.get("instructions"), 250_000, "instructions")?;
                if instructions == 0 {
                    return Err("\"instructions\" must be at least 1".to_string());
                }
                Ok(JobPayload::Sweep {
                    models,
                    benchmarks,
                    instructions,
                })
            }
            "campaign" => {
                let sites = parse_names(
                    spec.get("sites"),
                    &FaultSite::ALL,
                    |s| FaultSite::parse(s).ok(),
                    "site",
                )?;
                let benchmarks = match spec.get("benchmarks") {
                    None => DEFAULT_BENCHMARKS.to_vec(),
                    some => parse_names(some, &Benchmark::ALL, |s| s.parse().ok(), "benchmark")?,
                };
                let faults_per_site =
                    parse_u64(spec.get("faults_per_site"), 40, "faults_per_site")? as usize;
                let seed = parse_u64(spec.get("seed"), 42, "seed")?;
                let instructions = parse_u64(spec.get("instructions"), 20_000, "instructions")?;
                let payload = JobPayload::Campaign {
                    sites,
                    benchmarks,
                    faults_per_site,
                    seed,
                    instructions,
                };
                // Surface grid-validation errors at submit time, not
                // at execution time.
                if let JobPayload::Campaign { .. } = &payload {
                    payload.campaign_spec().validate()?;
                }
                Ok(payload)
            }
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    /// `"sweep"` or `"campaign"`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::Sweep { .. } => "sweep",
            JobPayload::Campaign { .. } => "campaign",
        }
    }

    /// The normalized spec object as one JSON line, with every default
    /// made explicit — this exact text persists in the journal and
    /// round-trips through [`JobPayload::parse`] on replay.
    pub fn spec_json(&self) -> String {
        fn names(out: &mut String, key: &str, items: &[String]) {
            out.push_str(&json_str(key));
            out.push_str(":[");
            for (i, name) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, name);
            }
            out.push(']');
        }
        let mut out = String::from("{");
        match self {
            JobPayload::Sweep {
                models,
                benchmarks,
                instructions,
            } => {
                names(
                    &mut out,
                    "models",
                    &models
                        .iter()
                        .map(|m| m.name().to_string())
                        .collect::<Vec<_>>(),
                );
                out.push(',');
                names(
                    &mut out,
                    "benchmarks",
                    &benchmarks
                        .iter()
                        .map(|b| b.name().to_string())
                        .collect::<Vec<_>>(),
                );
                out.push_str(&format!(",\"instructions\":{instructions}"));
            }
            JobPayload::Campaign {
                sites,
                benchmarks,
                faults_per_site,
                seed,
                instructions,
            } => {
                names(
                    &mut out,
                    "sites",
                    &sites
                        .iter()
                        .map(|s| s.name().to_string())
                        .collect::<Vec<_>>(),
                );
                out.push(',');
                names(
                    &mut out,
                    "benchmarks",
                    &benchmarks
                        .iter()
                        .map(|b| b.name().to_string())
                        .collect::<Vec<_>>(),
                );
                out.push_str(&format!(
                    ",\"faults_per_site\":{faults_per_site},\"seed\":{seed},\"instructions\":{instructions}"
                ));
            }
        }
        out.push('}');
        out
    }

    /// The content hash identifying this spec for dedup and the run
    /// ledger; matches what the equivalent one-shot CLI run registers.
    pub fn spec_hash(&self) -> u64 {
        match self {
            JobPayload::Sweep { .. } => {
                let canonicals: Vec<String> = self
                    .sweep_spec()
                    .expand()
                    .iter()
                    .map(|j| j.canonical())
                    .collect();
                rmt3d_obs::spec_hash(canonicals.iter().map(String::as_str))
            }
            JobPayload::Campaign {
                sites,
                benchmarks,
                faults_per_site,
                seed,
                instructions,
            } => {
                // Same canonical format as the `rmt3d campaign` CLI.
                let canonical = format!(
                    "sites={}|benchmarks={}|faults={}|seed={}|instructions={}|ecc_sabotage=none",
                    sites.iter().map(|s| s.name()).collect::<Vec<_>>().join(","),
                    benchmarks
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(","),
                    faults_per_site,
                    seed,
                    instructions,
                );
                rmt3d_obs::spec_hash(std::iter::once(canonical.as_str()))
            }
        }
    }

    /// Number of pool items (sweep jobs or campaign trials).
    pub fn total_jobs(&self) -> u64 {
        match self {
            JobPayload::Sweep {
                models, benchmarks, ..
            } => (models.len() * benchmarks.len()) as u64,
            JobPayload::Campaign { .. } => self.campaign_spec().total_trials() as u64,
        }
    }

    /// One-line human summary for daemon logs.
    pub fn summary(&self) -> String {
        match self {
            JobPayload::Sweep {
                models,
                benchmarks,
                instructions,
            } => format!(
                "sweep {} models x {} benchmarks @ {instructions} instructions",
                models.len(),
                benchmarks.len()
            ),
            JobPayload::Campaign {
                sites,
                benchmarks,
                faults_per_site,
                instructions,
                ..
            } => format!(
                "campaign {} sites x {} benchmarks x {faults_per_site} faults @ {instructions} instructions",
                sites.len(),
                benchmarks.len()
            ),
        }
    }

    /// Ledger config key-value pairs, mirroring the CLI manifests.
    pub fn config(&self) -> Vec<(String, String)> {
        match self {
            JobPayload::Sweep {
                models,
                benchmarks,
                instructions,
            } => vec![
                (
                    "models".to_string(),
                    models
                        .iter()
                        .map(|m| m.name())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                (
                    "benchmarks".to_string(),
                    benchmarks
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                ("instructions".to_string(), instructions.to_string()),
            ],
            JobPayload::Campaign {
                sites,
                benchmarks,
                faults_per_site,
                seed,
                instructions,
            } => vec![
                (
                    "sites".to_string(),
                    sites.iter().map(|s| s.name()).collect::<Vec<_>>().join(","),
                ),
                (
                    "benchmarks".to_string(),
                    benchmarks
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                ("faults_per_site".to_string(), faults_per_site.to_string()),
                ("seed".to_string(), seed.to_string()),
                ("instructions".to_string(), instructions.to_string()),
            ],
        }
    }

    /// The expanded sweep spec (panics on a campaign payload).
    pub fn sweep_spec(&self) -> SweepSpec {
        let JobPayload::Sweep {
            models,
            benchmarks,
            instructions,
        } = self
        else {
            panic!("sweep_spec on a campaign payload");
        };
        SweepSpec::new(
            models,
            benchmarks,
            RunScale {
                warmup_instructions: instructions / 10,
                instructions: *instructions,
                thermal_grid: 50,
            },
        )
    }

    /// The campaign grid (panics on a sweep payload).
    pub fn campaign_spec(&self) -> CampaignSpec {
        let JobPayload::Campaign {
            sites,
            benchmarks,
            faults_per_site,
            seed,
            instructions,
        } = self
        else {
            panic!("campaign_spec on a sweep payload");
        };
        CampaignSpec {
            sites: sites.clone(),
            benchmarks: benchmarks.clone(),
            faults_per_cell: *faults_per_site,
            seed: *seed,
            instructions: *instructions,
            ecc: EccConfig::paper(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_telemetry::json::parse;

    fn sweep(spec: &str) -> Result<JobPayload, String> {
        JobPayload::parse("sweep", &parse(spec).unwrap())
    }

    #[test]
    fn sweep_payload_normalizes_and_round_trips() {
        let p = sweep(r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":15000}"#)
            .unwrap();
        assert_eq!(p.total_jobs(), 2);
        let normalized = p.spec_json();
        let back = JobPayload::parse("sweep", &parse(&normalized).unwrap()).unwrap();
        assert_eq!(back.spec_json(), normalized, "journal round-trip");
        assert_eq!(back.spec_hash(), p.spec_hash());
    }

    #[test]
    fn sweep_hash_matches_the_cli_derivation() {
        let p = sweep(r#"{"models":["2d-a"],"benchmarks":["gzip"],"instructions":15000}"#).unwrap();
        let spec = p.sweep_spec();
        let canonicals: Vec<String> = spec.expand().iter().map(|j| j.canonical()).collect();
        assert_eq!(
            p.spec_hash(),
            rmt3d_obs::spec_hash(canonicals.iter().map(String::as_str))
        );
        assert_eq!(spec.scale.warmup_instructions, 1_500);
    }

    #[test]
    fn defaults_and_all_select_the_whole_axis() {
        let p = sweep("{}").unwrap();
        assert_eq!(
            p.total_jobs(),
            (ProcessorModel::ALL.len() * Benchmark::ALL.len()) as u64
        );
        let q = sweep(r#"{"models":"all","benchmarks":"all"}"#).unwrap();
        assert_eq!(q.total_jobs(), p.total_jobs());
        let c = JobPayload::parse("campaign", &parse("{}").unwrap()).unwrap();
        assert!(matches!(&c, JobPayload::Campaign { benchmarks, .. }
            if benchmarks == &DEFAULT_BENCHMARKS.to_vec()));
        assert!(c.total_jobs() > 0);
    }

    #[test]
    fn ill_typed_payloads_are_rejected() {
        for bad in [
            r#"{"models":["warp-drive"]}"#,
            r#"{"models":[]}"#,
            r#"{"models":[42]}"#,
            r#"{"models":{"a":1}}"#,
            r#"{"instructions":"many"}"#,
            r#"{"instructions":0}"#,
        ] {
            assert!(sweep(bad).is_err(), "accepted {bad}");
        }
        assert!(
            JobPayload::parse("campaign", &parse(r#"{"sites":["reactor_core"]}"#).unwrap())
                .is_err()
        );
        assert!(JobPayload::parse("thermal", &parse("{}").unwrap()).is_err());
    }
}
