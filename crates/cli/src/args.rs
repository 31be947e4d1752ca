//! Strict argument consumer shared by every `rmt3d` subcommand.
//!
//! Commands pull out the flags they know, and [`Args::finish`] rejects
//! anything left over instead of silently ignoring it. Every flag rule
//! that more than one command shares (a default, a range, an error
//! message) is one typed helper here, and a sweep or campaign job is
//! read from its flags once, into the [`JobPayload`] the daemon uses
//! too.

use rmt3d::ProcessorModel;
use rmt3d_rmt::FaultSite;
use rmt3d_serve::JobPayload;
use rmt3d_workload::Benchmark;
use std::path::PathBuf;
use std::time::Duration;

/// Default runs root, relative to the working directory.
pub const DEFAULT_RUNS_ROOT: &str = "target/runs";

/// Default result cache, shared by `sweep` and `serve` so one-shot and
/// service runs hit the same entries.
pub const DEFAULT_CACHE_DIR: &str = "target/sweep-cache";

pub struct Args {
    args: Vec<String>,
    used: Vec<bool>,
}

impl Args {
    pub fn new(args: &[String]) -> Args {
        Args {
            args: args.to_vec(),
            used: vec![false; args.len()],
        }
    }

    /// Consumes a boolean `--flag`.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                self.used[i] = true;
                true
            }
            None => false,
        }
    }

    /// Consumes `--flag value`; errors when the flag is present without
    /// a value.
    pub fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.used[i] = true;
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.used[i + 1] = true;
                Ok(Some(v.clone()))
            }
            _ => Err(format!("{name} requires a value")),
        }
    }

    /// Consumes `--flag value` and parses it.
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {v}")),
            None => Ok(None),
        }
    }

    /// Consumes `--flag value`, falling back to `default`.
    pub fn opt_or(&mut self, name: &str, default: &str) -> Result<String, String> {
        Ok(self.opt(name)?.unwrap_or_else(|| default.into()))
    }

    /// Consumes a `--flag value` that must be present.
    pub fn required(&mut self, name: &str) -> Result<String, String> {
        self.opt(name)?.ok_or_else(|| format!("{name} is required"))
    }

    /// Consumes the required `--model`.
    pub fn model(&mut self) -> Result<ProcessorModel, String> {
        let m = self.required("--model")?;
        m.parse().map_err(|_| format!("unknown model: {m}"))
    }

    /// Consumes the required `--benchmark`.
    pub fn benchmark(&mut self) -> Result<Benchmark, String> {
        let b = self.required("--benchmark")?;
        b.parse().map_err(|_| format!("unknown benchmark: {b}"))
    }

    /// Consumes `--jobs N`; `None` means one worker per available core.
    pub fn jobs(&mut self) -> Result<Option<usize>, String> {
        match self.parsed("--jobs")? {
            Some(0) => Err("--jobs must be at least 1".into()),
            n => Ok(n),
        }
    }

    /// Consumes the redraw flag `requires` (`--follow`, `--watch`) and
    /// the `--interval MS` only it accepts. `None` means one frame;
    /// otherwise the redraw period (`default_ms` unless given).
    pub fn interval_ms(
        &mut self,
        requires: &str,
        default_ms: u64,
    ) -> Result<Option<Duration>, String> {
        let redraw = self.flag(requires);
        match self.parsed::<u64>("--interval")? {
            Some(0) => Err("--interval must be at least 1 millisecond".into()),
            Some(_) if !redraw => Err(format!("--interval requires {requires}")),
            ms => Ok(redraw.then(|| Duration::from_millis(ms.unwrap_or(default_ms)))),
        }
    }

    /// Consumes `--runs-root DIR` (default [`DEFAULT_RUNS_ROOT`]).
    pub fn runs_root(&mut self) -> Result<PathBuf, String> {
        self.opt_or("--runs-root", DEFAULT_RUNS_ROOT)
            .map(PathBuf::from)
    }

    /// Consumes `--runs-root DIR` and `--no-ledger`: the run ledger's
    /// root, `None` when registration is switched off.
    pub fn ledger_root(&mut self) -> Result<Option<PathBuf>, String> {
        let root = self.runs_root()?;
        Ok((!self.flag("--no-ledger")).then_some(root))
    }

    /// Consumes a sweep's `--models`, `--benchmarks` and
    /// `--instructions`.
    pub fn sweep_job(&mut self) -> Result<JobPayload, String> {
        Ok(JobPayload::sweep(
            parse_list(
                self.opt("--models")?,
                &ProcessorModel::ALL,
                |s| s.parse().ok(),
                "model",
            )?,
            self.benchmarks()?,
            self.parsed("--instructions")?,
        ))
    }

    /// Consumes a campaign's `--sites`, `--benchmarks`,
    /// `--faults-per-site`, `--seed` and `--instructions`.
    pub fn campaign_job(&mut self) -> Result<JobPayload, String> {
        Ok(JobPayload::campaign(
            parse_list(
                self.opt("--sites")?,
                &FaultSite::ALL,
                |s| FaultSite::parse(s).ok(),
                "fault site",
            )?,
            self.benchmarks()?,
            self.parsed("--faults-per-site")?,
            self.parsed("--seed")?,
            self.parsed("--instructions")?,
        ))
    }

    fn benchmarks(&mut self) -> Result<Option<Vec<Benchmark>>, String> {
        parse_list(
            self.opt("--benchmarks")?,
            &Benchmark::ALL,
            |s| s.parse().ok(),
            "benchmark",
        )
    }

    /// Consumes the next unused positional (non-flag) argument.
    pub fn positional(&mut self) -> Option<String> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && !a.starts_with("--") {
                self.used[i] = true;
                return Some(a.clone());
            }
        }
        None
    }

    /// Errors on any argument no consumer claimed (typo'd or misplaced
    /// flags).
    pub fn finish(self) -> Result<(), String> {
        let leftover: Vec<&str> = self
            .args
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|(a, _)| a.as_str())
            .collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {}", leftover.join(" ")))
        }
    }
}

/// Parses a comma-separated `--models`/`--benchmarks`/`--sites` list,
/// where the keyword `all` selects the whole axis; `None` (flag
/// absent) leaves the job's default.
fn parse_list<T: Copy>(
    spec: Option<String>,
    all: &[T],
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Option<Vec<T>>, String> {
    match spec.as_deref() {
        None => Ok(None),
        Some("all") => Ok(Some(all.to_vec())),
        Some(list) => {
            let items: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if items.is_empty() {
                return Err(format!("{what} list is empty"));
            }
            items
                .into_iter()
                .map(|s| parse(s).ok_or_else(|| format!("unknown {what}: {s}")))
                .collect::<Result<_, _>>()
                .map(Some)
        }
    }
}

/// The one range rule of the float flags (`--stall-factor`,
/// `--checker-watts`, `--tolerance`): a given value must be finite and
/// pass `in_range`, else `"{name} must be {rule}"`. Commands call it
/// after [`Args::finish`], so a leftover argument is reported first.
pub fn check_range(
    name: &str,
    value: Option<f64>,
    in_range: impl Fn(f64) -> bool,
    rule: &str,
) -> Result<(), String> {
    match value {
        Some(v) if !v.is_finite() || !in_range(v) => Err(format!("{name} must be {rule}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_options_and_positionals_consume() {
        let mut a = args(&["fig4", "--paper", "--jobs", "4"]);
        assert_eq!(a.positional().as_deref(), Some("fig4"));
        assert!(a.flag("--paper"));
        assert_eq!(a.parsed::<usize>("--jobs").unwrap(), Some(4));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn leftover_arguments_are_errors() {
        let mut a = args(&["--model", "3d-2a", "--typo"]);
        assert_eq!(a.opt("--model").unwrap().as_deref(), Some("3d-2a"));
        let err = a.finish().unwrap_err();
        assert!(err.contains("--typo"), "{err}");
    }

    #[test]
    fn option_without_value_is_an_error() {
        let mut a = args(&["--out-dir", "--resume"]);
        assert!(a.opt("--out-dir").is_err());
    }

    #[test]
    fn job_flags_build_the_payload_the_daemon_parses() {
        let sweep = args(&["--models", "2d-a", "--benchmarks", "gzip, mcf"])
            .sweep_job()
            .unwrap();
        let spec = sweep.spec_json();
        assert_eq!(
            spec,
            r#"{"models":["2d-a"],"benchmarks":["gzip","mcf"],"instructions":250000}"#
        );
        let parsed = rmt3d_telemetry::json::parse(&spec).unwrap();
        let back = JobPayload::parse("sweep", &parsed).unwrap();
        assert_eq!(back.spec_hash(), sweep.spec_hash());

        let campaign = args(&["--seed", "7"]).campaign_job().unwrap();
        assert_eq!(
            campaign.campaign_spec(),
            &rmt3d_campaign::CampaignSpec::default_grid(7)
        );
        let err = args(&["--sites", "leader_result,bogus"])
            .campaign_job()
            .unwrap_err();
        assert_eq!(err, "unknown fault site: bogus");
    }

    #[test]
    fn parse_failure_names_the_flag() {
        let mut a = args(&["--jobs", "many"]);
        let err = a.parsed::<usize>("--jobs").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }
}
