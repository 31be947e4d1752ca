//! # rmt3d-obs
//!
//! Run-level observability for the rmt3d experiment engines: every
//! `sweep`/`campaign`/`profile` invocation becomes an inspectable,
//! durable *run* instead of a black box between launch and final
//! report.
//!
//! The crate has four pieces, all of whose files go through
//! [`durable`], the workspace's one way to append a line or replace a
//! file:
//!
//! 1. **Run ledger** ([`RunLedger`], [`Manifest`]): an append-only
//!    directory of runs. Each run gets `runs/<run_id>/manifest.json`
//!    (spec hash, version, config, start/end, outcome) plus an
//!    append-only `runs/ledger.jsonl` index and a `latest` pointer.
//!    [`RunTracker`] is the one way a run registers, feeds its status
//!    and closes, for the CLI and the job daemon alike.
//! 2. **Live status** ([`RunObserver`], [`RunStatus`]): a telemetry
//!    [`Sink`](rmt3d_telemetry::Sink) that aggregates job lifecycle
//!    events (including the ETA stream the pool emits) into
//!    `status.json`, rewritten atomically (temp file + rename) at a
//!    bounded interval so concurrent readers always see a parseable
//!    document.
//! 3. **Heartbeat watchdog** ([`Watchdog`]): jobs beat on claim; a
//!    monitor loop scans at a bounded interval
//!    and flags jobs whose silence exceeds a configurable multiple of
//!    the median completed-job duration, recording stall diagnostics
//!    into the ledger instead of hanging silently.
//! 4. **Dashboard** ([`render_html`]): a single-file, dependency-free
//!    HTML report (progress, CPI stacks, latency histograms, cache
//!    hit-rate, worker timeline) built from ledger + metrics, so any
//!    finished run is inspectable offline.
//!
//! **Determinism contract.** Everything here lives behind the zero-cost
//! sink gate: `NullSink` runs never construct events and never touch
//! the ledger. Manifest and status content is deterministic modulo the
//! explicitly-marked wall-clock sections — every schedule- or
//! clock-dependent field lives under a `"wall"` object (or carries a
//! `*_nanos`/`*_unix_ms` name), and `run_id` embeds the start stamp.

pub mod daemonseries;
pub mod durable;
pub mod ledger;
pub mod metricsio;
pub mod report;
pub mod status;
pub mod watchdog;

pub use daemonseries::{DaemonSample, DaemonSeries};
pub use ledger::{Manifest, RunLedger, RunSummary, RunTracker};
pub use metricsio::{metrics_to_json, parse_metrics, HistogramData, ParsedMetrics, SeriesData};
pub use report::{render_html, render_html_with, ReportOptions};
pub use status::{CacheTotals, JobPhase, PoolTotals, RunObserver, RunStatus, StallInfo};
pub use watchdog::{Stall, Watchdog, WatchdogConfig};

/// FNV-1a 64-bit over a byte string: tiny, dependency-free, stable
/// across platforms and compiler versions. Used for run spec hashes
/// and the sweep cache's keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds an iterator of canonical job descriptions into one spec hash.
pub fn spec_hash<'a>(canonicals: impl Iterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for c in canonicals {
        hash ^= fnv1a(c.as_bytes());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The version string recorded in run manifests: `git describe` when
/// the binary runs inside a git checkout, else the crate version.
pub fn version_string() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output();
    match git {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if text.is_empty() {
                fallback_version()
            } else {
                format!("{}+g{text}", fallback_version())
            }
        }
        _ => fallback_version(),
    }
}

fn fallback_version() -> String {
    concat!("rmt3d/", env!("CARGO_PKG_VERSION")).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Published FNV-1a test vector: the empty string hashes to the
        // offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn spec_hash_depends_on_every_member_and_order() {
        let a = spec_hash(["x", "y"].into_iter());
        let b = spec_hash(["y", "x"].into_iter());
        let c = spec_hash(["x"].into_iter());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, spec_hash(["x", "y"].into_iter()));
    }

    #[test]
    fn version_string_is_nonempty() {
        assert!(version_string().starts_with("rmt3d/"));
    }
}
