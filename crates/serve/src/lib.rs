//! Sweep-as-a-service: the `rmt3d serve` job daemon.
//!
//! Turns the one-shot `rmt3d sweep` / `rmt3d campaign` commands into a
//! long-running service. Clients speak newline-delimited JSON over TCP
//! ([`proto`]); accepted jobs land in a persistent, journaled priority
//! queue ([`queue`]) that survives daemon restarts; the scheduler
//! ([`serve`]) executes them on the existing work-stealing pool against
//! a shared content-addressed result store, so identical specs from
//! different tenants are served from cache, byte-identical. Progress
//! streams to subscribed clients by forwarding the engines' existing
//! telemetry events; each executed job is registered in the run ledger
//! so `rmt3d status` / `rmt3d report` work unchanged.
//!
//! The crate is std-only like the rest of the workspace: hand-rolled
//! JSON, `std::net` sockets, no async runtime.

mod daemon;
mod payload;
mod queue;

pub mod client;
pub mod metrics;
pub mod proto;

pub use daemon::{serve, ServeOptions};
pub use metrics::{
    parse_sample_line, DaemonMetrics, MetricsRing, METRICS_RING_CAP, METRICS_RING_FILE,
    TRACE_LOG_FILE,
};
pub use payload::JobPayload;
pub use queue::{Cancelled, JobEntry, JobOutcome, JobQueue, JobState, JOURNAL_FILE};
