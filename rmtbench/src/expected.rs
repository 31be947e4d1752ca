//! Committed expected outputs (`rmtbench/expected.json`).
//!
//! One flat table per workload maps an output's key (a job label, a
//! Fig. 4 point, a daemon spec, a campaign report at a given seed) to
//! the exact value the workload must produce. Values that do not
//! depend on the seed are keyed without one and checked on every seed;
//! the campaign report is drawn from the seed, so it is committed for
//! the development and the held-out seed only.

use rmt3d::telemetry::json::{parse, JsonValue};

/// The committed file, compiled in so the check cannot be skipped by
/// running from another directory.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Parsed expectations.
#[derive(Debug, Clone)]
pub struct Expected {
    root: JsonValue,
}

/// Outcome of comparing one output with its expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Matches the committed value.
    Match,
    /// Differs from, or (when required) lacks, a committed value.
    Mismatch(String),
    /// Nothing committed for this key, and none is required.
    Unchecked,
}

impl Expected {
    /// The committed expectations.
    ///
    /// # Panics
    ///
    /// Panics when the committed file is not valid JSON.
    pub fn committed() -> Expected {
        Expected::parse(EXPECTED_JSON).expect("rmtbench/expected.json is valid JSON")
    }

    /// Parses an expectations document.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for malformed JSON.
    pub fn parse(text: &str) -> Result<Expected, String> {
        Ok(Expected { root: parse(text)? })
    }

    /// The seed the expectations were developed on.
    pub fn dev_seed(&self) -> Option<u64> {
        self.root.get("dev_seed").and_then(JsonValue::as_u64)
    }

    /// The seed held out while developing.
    pub fn heldout_seed(&self) -> Option<u64> {
        self.root.get("heldout_seed").and_then(JsonValue::as_u64)
    }

    /// The committed value of `key` in `workload`'s table.
    pub fn value(&self, workload: &str, key: &str) -> Option<&str> {
        self.root.get(workload)?.get(key)?.as_str()
    }

    /// Compares `value` with the committed one. A `required` key with
    /// nothing committed is a mismatch.
    pub fn verdict(&self, workload: &str, key: &str, value: &str, required: bool) -> Verdict {
        match self.value(workload, key) {
            Some(v) if v == value => Verdict::Match,
            Some(v) => Verdict::Mismatch(format!("{workload} {key}: got {value}, expected {v}")),
            None if required => Verdict::Mismatch(format!(
                "{workload} {key}: no committed expectation (got {value})"
            )),
            None => Verdict::Unchecked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_file_names_both_seeds_and_every_workload() {
        let e = Expected::committed();
        let (dev, held) = (e.dev_seed().unwrap(), e.heldout_seed().unwrap());
        assert_ne!(dev, held);
        for w in crate::workloads::NAMES {
            assert!(e.root.get(w).is_some(), "{w} has no expectations");
        }
        for seed in [dev, held] {
            let key = crate::workloads::campaign::report_key(seed);
            assert!(
                e.value("campaign-journaled", &key).is_some(),
                "{key} missing"
            );
        }
    }

    #[test]
    fn verdicts() {
        let e = Expected::parse(r#"{"w":{"k":"v"}}"#).unwrap();
        assert_eq!(e.verdict("w", "k", "v", true), Verdict::Match);
        assert!(matches!(
            e.verdict("w", "k", "x", false),
            Verdict::Mismatch(_)
        ));
        assert!(matches!(
            e.verdict("w", "other", "x", true),
            Verdict::Mismatch(_)
        ));
        assert_eq!(e.verdict("w", "other", "x", false), Verdict::Unchecked);
    }
}
