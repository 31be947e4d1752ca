//! Regression-test fixtures: a minimized failing trial serialized as
//! one JSON object, replayable forever.
//!
//! When a campaign finds a violation, the shrinker minimizes it and the
//! engine emits a fixture file. Committing that file under a crate's
//! `tests/fixtures/` directory (plus a test calling
//! [`replay_fixture`]) turns a one-in-a-thousand randomized find into a
//! deterministic regression test.

use crate::trial::{run_trial, TrialSpec, Violation};
use rmt3d_obs::durable::write_atomic;
use rmt3d_rmt::{EccConfig, FaultSite};
use rmt3d_telemetry::json::{parse, JsonObject, JsonValue};
use rmt3d_workload::Benchmark;
use std::path::{Path, PathBuf};

/// Fixture schema discriminator.
pub const FIXTURE_KIND: &str = "rmt3d-campaign-fixture";
/// Bumped when the fixture schema changes incompatibly.
pub const FIXTURE_VERSION: u64 = 1;

/// Serializes a violating spec as a fixture (one JSON object, trailing
/// newline).
pub fn fixture_json(spec: &TrialSpec, violation: Violation) -> String {
    let mut o = JsonObject::new();
    o.str("kind", FIXTURE_KIND)
        .u64("version", FIXTURE_VERSION)
        .str("site", spec.site.name())
        .str("benchmark", spec.benchmark.name())
        .bool("ecc_lvq", spec.ecc.lvq)
        .bool("ecc_trailer_regfile", spec.ecc.trailer_regfile)
        .u64("instructions", spec.instructions)
        .u64("inject_at", spec.inject_at)
        .u64("bit", u64::from(spec.bit))
        .u64("reg", u64::from(spec.reg))
        .str("violation", violation.name());
    let mut s = o.finish();
    s.push('\n');
    s
}

/// Parses a fixture back into the spec and the violation it reproduces.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `kind`/`version`, or
/// out-of-range fields.
pub fn parse_fixture(text: &str) -> Result<(TrialSpec, Violation), String> {
    let v = parse(text.trim())?;
    let s = |k: &str| -> Result<&str, String> {
        v.get(k)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing or non-string \"{k}\""))
    };
    let u = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing or non-integer \"{k}\""))
    };
    let b = |k: &str| -> Result<bool, String> {
        v.get(k)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing or non-boolean \"{k}\""))
    };
    if s("kind")? != FIXTURE_KIND {
        return Err(format!("not a campaign fixture: kind {:?}", s("kind")?));
    }
    if u("version")? != FIXTURE_VERSION {
        return Err(format!(
            "fixture version {} unsupported (expected {FIXTURE_VERSION})",
            u("version")?
        ));
    }
    let spec = TrialSpec {
        index: 0,
        site: FaultSite::parse(s("site")?)?,
        benchmark: s("benchmark")?
            .parse::<Benchmark>()
            .map_err(|e| e.to_string())?,
        ecc: EccConfig {
            lvq: b("ecc_lvq")?,
            trailer_regfile: b("ecc_trailer_regfile")?,
        },
        instructions: u("instructions")?,
        inject_at: u("inject_at")?,
        bit: u8::try_from(u("bit")?).map_err(|_| "\"bit\" out of range".to_string())?,
        reg: u8::try_from(u("reg")?).map_err(|_| "\"reg\" out of range".to_string())?,
    };
    spec.validate()?;
    Ok((spec, Violation::parse(s("violation")?)?))
}

/// The deterministic file name a fixture is written under.
pub fn fixture_file_name(spec: &TrialSpec, violation: Violation) -> String {
    format!(
        "{}_{}_{}_at{}_b{}_r{}.json",
        violation.name(),
        spec.site.name(),
        spec.benchmark.name(),
        spec.inject_at,
        spec.bit,
        spec.reg
    )
}

/// Writes a fixture into `dir` (created if missing) and returns its
/// path.
///
/// # Errors
///
/// Returns a message when the directory or file cannot be written.
pub fn write_fixture(
    dir: &Path,
    spec: &TrialSpec,
    violation: Violation,
) -> Result<PathBuf, String> {
    let path = dir.join(fixture_file_name(spec, violation));
    write_atomic(&path, &fixture_json(spec, violation))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(path)
}

/// Replays a fixture and reports whether the recorded violation still
/// reproduces. A regression test asserts `Ok(true)`.
///
/// # Errors
///
/// Returns a message when the fixture does not parse.
pub fn replay_fixture(text: &str) -> Result<bool, String> {
    let (spec, violation) = parse_fixture(text)?;
    Ok(run_trial(&spec).violation == Some(violation))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrialSpec {
        TrialSpec {
            index: 0,
            site: FaultSite::TrailerRegfile,
            benchmark: Benchmark::Mcf,
            ecc: EccConfig {
                lvq: true,
                trailer_regfile: false,
            },
            instructions: 9_000,
            inject_at: 4_000,
            bit: 12,
            reg: 5,
        }
    }

    #[test]
    fn fixture_round_trips() {
        let text = fixture_json(&spec(), Violation::UnrecoverableRecovery);
        let (parsed, violation) = parse_fixture(&text).expect("parses");
        assert_eq!(parsed, spec());
        assert_eq!(violation, Violation::UnrecoverableRecovery);
    }

    #[test]
    fn wrong_kind_and_version_are_rejected() {
        let good = fixture_json(&spec(), Violation::SilentCorruption);
        assert!(parse_fixture(&good.replace(FIXTURE_KIND, "other")).is_err());
        assert!(parse_fixture(&good.replace("\"version\":1", "\"version\":9")).is_err());
        assert!(parse_fixture("{not json").is_err());
        assert!(parse_fixture("{}").is_err());
    }

    #[test]
    fn file_name_is_deterministic_and_descriptive() {
        let name = fixture_file_name(&spec(), Violation::UnrecoverableRecovery);
        assert_eq!(
            name,
            "unrecoverable_recovery_trailer_regfile_mcf_at4000_b12_r5.json"
        );
    }

    #[test]
    fn write_and_replay_from_disk() {
        let dir = std::env::temp_dir().join("rmt3d_campaign_fixture_test");
        let path = write_fixture(&dir, &spec(), Violation::UnrecoverableRecovery).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let (parsed, _) = parse_fixture(&text).expect("parses");
        assert_eq!(parsed, spec());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
