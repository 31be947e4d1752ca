//! Job payloads: the one definition of a sweep or a campaign job.
//!
//! `rmt3d sweep`, `rmt3d campaign` and `rmt3d submit` build a job from
//! flags, and the daemon builds one from a `submit` request's spec
//! object ([`JobPayload::parse`]). Both go through the same
//! constructors, [`JobPayload::sweep`] and [`JobPayload::campaign`], so
//! a job has one set of defaults, one ledger config, one normalized
//! spec text and one spec hash wherever it runs:
//!
//! - a sweep hashes as the [`rmt3d_obs::spec_hash`] of its expanded
//!   jobs' canonical strings, the keys of the shared result cache;
//! - a campaign hashes as the `spec_hash` of the
//!   [`CampaignSpec::canonical`] string of the grid that runs, ECC
//!   settings included.
//!
//! A server run in the ledger therefore carries the spec hash the
//! one-shot CLI registers for the same job, and a warm submission
//! dedups against the cache the CLI populated.

use rmt3d::{ProcessorModel, RunScale};
use rmt3d_campaign::{CampaignSpec, MAX_INSTRUCTIONS};
use rmt3d_rmt::FaultSite;
use rmt3d_sweep::{JobSpec, SweepSpec};
use rmt3d_telemetry::json::{write_json_string, JsonObject, JsonValue};
use rmt3d_workload::Benchmark;

/// Instructions per job of a sweep that names none.
const SWEEP_INSTRUCTIONS: u64 = 250_000;

/// Seed of a campaign that names none.
const CAMPAIGN_SEED: u64 = 42;

/// A sweep or campaign job, built by [`JobPayload::sweep`] or
/// [`JobPayload::campaign`].
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// A design-space sweep over `models × benchmarks` at the nominal
    /// configuration.
    Sweep(SweepSpec),
    /// A randomized fault-injection campaign.
    Campaign(CampaignSpec),
}

/// One field of a job's spec: a list of names or a count.
enum Field {
    Names(Vec<&'static str>),
    Count(u64),
}

fn names<T: Copy>(items: &[T], name: fn(T) -> &'static str) -> Field {
    Field::Names(items.iter().map(|&t| name(t)).collect())
}

/// A JSON name list: absent for the default, `"all"` for the whole
/// axis, else an array of known names.
fn parse_names<T: Copy>(
    v: Option<&JsonValue>,
    all: &[T],
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Option<Vec<T>>, String> {
    match v {
        None => Ok(None),
        Some(JsonValue::Str(s)) if s == "all" => Ok(Some(all.to_vec())),
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
                .collect::<Result<_, _>>()
                .map(Some)
        }
        Some(_) => Err(format!("\"{what}s\" must be an array of names or \"all\"")),
    }
}

fn parse_u64(v: Option<&JsonValue>, what: &str) -> Result<Option<u64>, String> {
    v.map(|n| {
        n.as_u64()
            .ok_or_else(|| format!("\"{what}\" must be a non-negative integer"))
    })
    .transpose()
}

impl JobPayload {
    /// A sweep of `models × benchmarks` (default: every model and
    /// benchmark) at `instructions` per job (default 250 000), warmed
    /// up on a tenth as many.
    pub fn sweep(
        models: Option<Vec<ProcessorModel>>,
        benchmarks: Option<Vec<Benchmark>>,
        instructions: Option<u64>,
    ) -> JobPayload {
        JobPayload::Sweep(SweepSpec::new(
            &models.unwrap_or_else(|| ProcessorModel::ALL.to_vec()),
            &benchmarks.unwrap_or_else(|| Benchmark::ALL.to_vec()),
            RunScale::with_instructions(instructions.unwrap_or(SWEEP_INSTRUCTIONS)),
        ))
    }

    /// A campaign under the paper's ECC. A field left `None` takes
    /// [`CampaignSpec::default_grid`]'s value; the default seed is 42.
    pub fn campaign(
        sites: Option<Vec<FaultSite>>,
        benchmarks: Option<Vec<Benchmark>>,
        faults_per_site: Option<usize>,
        seed: Option<u64>,
        instructions: Option<u64>,
    ) -> JobPayload {
        let grid = CampaignSpec::default_grid(seed.unwrap_or(CAMPAIGN_SEED));
        JobPayload::Campaign(CampaignSpec {
            sites: sites.unwrap_or(grid.sites),
            benchmarks: benchmarks.unwrap_or(grid.benchmarks),
            faults_per_cell: faults_per_site.unwrap_or(grid.faults_per_cell),
            instructions: instructions.unwrap_or(grid.instructions),
            ..grid
        })
    }

    /// Parses and validates a submit spec object for `kind`.
    ///
    /// A campaign's `faults_per_site` is capped at
    /// [`rmt3d_campaign::MAX_FAULTS_PER_SITE`], and the `instructions`
    /// of either kind at [`rmt3d_campaign::MAX_INSTRUCTIONS`], so no
    /// spec can make the daemon allocate a grid or a trace it cannot
    /// hold.
    ///
    /// # Errors
    ///
    /// Returns a structured message for unknown names, ill-typed
    /// fields, or a job that fails [`JobPayload::validate`].
    pub fn parse(kind: &str, spec: &JsonValue) -> Result<JobPayload, String> {
        let benchmarks = || {
            parse_names(
                spec.get("benchmarks"),
                &Benchmark::ALL,
                |s| s.parse().ok(),
                "benchmark",
            )
        };
        let payload = match kind {
            "sweep" => JobPayload::sweep(
                parse_names(
                    spec.get("models"),
                    &ProcessorModel::ALL,
                    |s| s.parse().ok(),
                    "model",
                )?,
                benchmarks()?,
                parse_u64(spec.get("instructions"), "instructions")?,
            ),
            "campaign" => JobPayload::campaign(
                parse_names(
                    spec.get("sites"),
                    &FaultSite::ALL,
                    |s| FaultSite::parse(s).ok(),
                    "site",
                )?,
                benchmarks()?,
                parse_u64(spec.get("faults_per_site"), "faults_per_site")?.map(|n| n as usize),
                parse_u64(spec.get("seed"), "seed")?,
                parse_u64(spec.get("instructions"), "instructions")?,
            ),
            other => return Err(format!("unknown job kind {other:?}")),
        };
        payload.validate()?;
        Ok(payload)
    }

    /// Checks the job can run: a sweep needs at least one instruction
    /// per job and at most [`rmt3d_campaign::MAX_INSTRUCTIONS`] (the
    /// paper's run length; each job builds a trace that long), a
    /// campaign a grid that passes [`CampaignSpec::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobPayload::Sweep(spec) if spec.scale.instructions == 0 => {
                Err("\"instructions\" must be at least 1".to_string())
            }
            JobPayload::Sweep(spec) if spec.scale.instructions > MAX_INSTRUCTIONS => Err(format!(
                "instructions {} exceeds the cap of {MAX_INSTRUCTIONS}",
                spec.scale.instructions
            )),
            JobPayload::Sweep(_) => Ok(()),
            JobPayload::Campaign(spec) => spec.validate(),
        }
    }

    /// `"sweep"` or `"campaign"`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::Sweep(_) => "sweep",
            JobPayload::Campaign(_) => "campaign",
        }
    }

    /// The job's fields in spec order, under their spec-object keys.
    fn fields(&self) -> Vec<(&'static str, Field)> {
        match self {
            JobPayload::Sweep(spec) => vec![
                ("models", names(&spec.models, ProcessorModel::name)),
                ("benchmarks", names(&spec.benchmarks, Benchmark::name)),
                ("instructions", Field::Count(spec.scale.instructions)),
            ],
            JobPayload::Campaign(spec) => vec![
                ("sites", names(&spec.sites, FaultSite::name)),
                ("benchmarks", names(&spec.benchmarks, Benchmark::name)),
                ("faults_per_site", Field::Count(spec.faults_per_cell as u64)),
                ("seed", Field::Count(spec.seed)),
                ("instructions", Field::Count(spec.instructions)),
            ],
        }
    }

    /// The normalized spec object as one JSON line, with every default
    /// made explicit — this exact text persists in the journal and
    /// round-trips through [`JobPayload::parse`] on replay. It holds
    /// the fields the constructors take: a sweep's nominal axes and a
    /// campaign's paper ECC are implied.
    pub fn spec_json(&self) -> String {
        let mut o = JsonObject::new();
        for (key, field) in self.fields() {
            match field {
                Field::Names(names) => {
                    let mut list = String::from("[");
                    for (i, name) in names.iter().enumerate() {
                        if i > 0 {
                            list.push(',');
                        }
                        write_json_string(&mut list, name);
                    }
                    list.push(']');
                    o.raw(key, &list);
                }
                Field::Count(n) => {
                    o.u64(key, n);
                }
            }
        }
        o.finish()
    }

    /// Ledger config key-value pairs: the spec's fields, name lists
    /// comma-joined.
    pub fn config(&self) -> Vec<(String, String)> {
        self.fields()
            .into_iter()
            .map(|(key, field)| {
                let value = match field {
                    Field::Names(names) => names.join(","),
                    Field::Count(n) => n.to_string(),
                };
                (key.to_string(), value)
            })
            .collect()
    }

    /// The content hash identifying this job for dedup and the run
    /// ledger (see the module docs).
    pub fn spec_hash(&self) -> u64 {
        match self {
            JobPayload::Sweep(spec) => {
                let canonicals: Vec<String> =
                    spec.expand().iter().map(JobSpec::canonical).collect();
                rmt3d_obs::spec_hash(canonicals.iter().map(String::as_str))
            }
            JobPayload::Campaign(spec) => {
                rmt3d_obs::spec_hash(std::iter::once(spec.canonical().as_str()))
            }
        }
    }

    /// Number of pool items (sweep jobs or campaign trials).
    pub fn total_jobs(&self) -> u64 {
        match self {
            JobPayload::Sweep(spec) => spec.job_count() as u64,
            JobPayload::Campaign(spec) => spec.total_trials() as u64,
        }
    }

    /// One-line human summary for daemon logs.
    pub fn summary(&self) -> String {
        match self {
            JobPayload::Sweep(spec) => format!(
                "sweep {} models x {} benchmarks @ {} instructions",
                spec.models.len(),
                spec.benchmarks.len(),
                spec.scale.instructions
            ),
            JobPayload::Campaign(spec) => format!(
                "campaign {} sites x {} benchmarks x {} faults @ {} instructions",
                spec.sites.len(),
                spec.benchmarks.len(),
                spec.faults_per_cell,
                spec.instructions
            ),
        }
    }

    /// The sweep spec (panics on a campaign payload).
    pub fn sweep_spec(&self) -> &SweepSpec {
        match self {
            JobPayload::Sweep(spec) => spec,
            JobPayload::Campaign(_) => panic!("sweep_spec on a campaign payload"),
        }
    }

    /// The campaign grid (panics on a sweep payload).
    pub fn campaign_spec(&self) -> &CampaignSpec {
        match self {
            JobPayload::Campaign(spec) => spec,
            JobPayload::Sweep(_) => panic!("campaign_spec on a sweep payload"),
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
    fn campaign_grids_past_the_caps_are_rejected_before_expansion() {
        let campaign = |spec: &str| JobPayload::parse("campaign", &parse(spec).unwrap());
        // 2^62 faults per site: expanding that grid would abort on its
        // allocation, so getting an error back at all shows it was
        // never built.
        let err = campaign(r#"{"faults_per_site":4611686018427387904}"#).unwrap_err();
        assert!(err.contains("faults-per-site"), "{err}");
        let at_cap = format!(
            r#"{{"sites":["leader_result"],"benchmarks":["gzip"],"faults_per_site":{}}}"#,
            rmt3d_campaign::MAX_FAULTS_PER_SITE
        );
        assert_eq!(
            campaign(&at_cap).unwrap().total_jobs(),
            rmt3d_campaign::MAX_FAULTS_PER_SITE as u64
        );
        let over = format!(
            r#"{{"instructions":{}}}"#,
            rmt3d_campaign::MAX_INSTRUCTIONS + 1
        );
        let err = campaign(&over).unwrap_err();
        assert!(err.contains("instructions"), "{err}");
    }

    #[test]
    fn sweeps_past_the_run_length_cap_are_rejected_before_a_trace() {
        // A 2^40-instruction job's trace would need 60 TB: getting an
        // error back at all shows none was built.
        let err =
            sweep(r#"{"models":["2d-a"],"benchmarks":["gzip"],"instructions":1099511627776}"#)
                .unwrap_err();
        assert_eq!(err, "instructions 1099511627776 exceeds the cap of 1000000");
        assert_eq!(MAX_INSTRUCTIONS, RunScale::paper().instructions);
        let at_cap = format!(r#"{{"instructions":{MAX_INSTRUCTIONS}}}"#);
        assert!(sweep(&at_cap).is_ok());
    }

    #[test]
    fn sweep_payload_normalizes_and_round_trips() {
        let p = sweep(r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":15000}"#)
            .unwrap();
        assert_eq!(p.total_jobs(), 2);
        let normalized = p.spec_json();
        assert_eq!(
            normalized,
            r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":15000}"#
        );
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
        assert_eq!(c.campaign_spec(), &CampaignSpec::default_grid(42));
        assert_eq!(c.total_jobs(), 1000);
    }

    #[test]
    fn a_campaign_hashes_as_the_canonical_string_of_its_grid() {
        let smoke = CampaignSpec::smoke(13);
        let p = JobPayload::parse(
            "campaign",
            &parse(
                r#"{"sites":"all","benchmarks":["gzip"],"faults_per_site":4,"seed":13,"instructions":8000}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(p.campaign_spec(), &smoke);
        assert_eq!(
            p.spec_hash(),
            rmt3d_obs::spec_hash(std::iter::once(smoke.canonical().as_str()))
        );
        // ECC is part of the grid: a sabotaged grid is another job.
        let sabotaged = smoke.sabotage(FaultSite::LvqValue).unwrap();
        assert_ne!(JobPayload::Campaign(sabotaged).spec_hash(), p.spec_hash());
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
