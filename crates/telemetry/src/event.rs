//! Typed telemetry events emitted by the simulation stack.
//!
//! Events are flat values (no borrowed lifetimes, no foreign types) so
//! every layer of the workspace can emit them without the telemetry
//! crate depending on the simulators. Name-like fields are
//! `Cow<'static, str>`: emitters pass string literals (borrowed, no
//! allocation) and the JSONL decoder ([`Event::from_json_line`]) fills
//! them with owned strings, so one type serves both directions. The
//! JSONL schema of each variant is documented on the variant itself;
//! see `DESIGN.md` ("Observability") for the complete schema reference.

use crate::sample::IntervalSample;
use std::borrow::Cow;

/// One telemetry event. Each variant maps to one JSON Lines record with
/// an `"event"` discriminator field.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A named phase started. JSONL: `{"event":"span_begin","name":…,"cycle":…}`.
    SpanBegin {
        /// Phase name (`"simulate"`, `"warmup"`, `"measure"`, `"thermal_solve"`, …).
        name: Cow<'static, str>,
        /// Leader cycle (or solver iteration) at entry.
        cycle: u64,
    },
    /// A named phase ended. JSONL:
    /// `{"event":"span_end","name":…,"cycle":…,"wall_nanos":…}`.
    SpanEnd {
        /// Phase name, matching the corresponding [`Event::SpanBegin`].
        name: Cow<'static, str>,
        /// Leader cycle (or solver iteration) at exit.
        cycle: u64,
        /// Wall-clock nanoseconds spent inside the span (0 when the
        /// sink is configured deterministic).
        wall_nanos: u64,
    },
    /// A scalar counter sample. JSONL:
    /// `{"event":"counter","name":…,"cycle":…,"value":…}`.
    Counter {
        /// Series name.
        name: Cow<'static, str>,
        /// Leader cycle at the sample.
        cycle: u64,
        /// Sampled value.
        value: f64,
    },
    /// The DFS controller moved the checker to a new frequency level.
    /// JSONL: `{"event":"dfs_transition","cycle":…,"from_level":…,
    /// "to_level":…,"fraction":…}`.
    DfsTransition {
        /// Leader cycle of the decision.
        cycle: u64,
        /// Previous level index (0-based, `(i+1)*0.1 f`).
        from_level: u8,
        /// New level index.
        to_level: u8,
        /// New normalized frequency.
        fraction: f64,
    },
    /// A transient fault was injected into the datapath. JSONL:
    /// `{"event":"fault","cycle":…,"site":…,"bit":…,"corrected":…}`.
    FaultInjected {
        /// Leader cycle of the strike.
        cycle: u64,
        /// Strike site name (see `rmt3d_rmt::FaultSite`).
        site: Cow<'static, str>,
        /// Bit position flipped.
        bit: u8,
        /// True when ECC absorbed the strike before it propagated.
        corrected: bool,
    },
    /// The checker flagged an error and the system executed a recovery.
    /// JSONL: `{"event":"recovery","cycle":…,"penalty_cycles":…,
    /// "unrecoverable":…}`.
    Recovery {
        /// Leader cycle of the recovery.
        cycle: u64,
        /// Stall cycles charged.
        penalty_cycles: u64,
        /// True when the restored state disagreed with the golden
        /// shadow (the §3.5 multi-error concern).
        unrecoverable: bool,
    },
    /// One thermal-solver SOR iteration. JSONL:
    /// `{"event":"solver_iteration","iteration":…,"residual":…}`.
    SolverIteration {
        /// Iteration number (1-based).
        iteration: u64,
        /// Max-norm residual in kelvin.
        residual: f64,
    },
    /// A periodic snapshot of the machine state (see [`IntervalSample`]).
    /// JSONL: `{"event":"interval",…}` with the sample's fields inlined.
    Interval(IntervalSample),
    /// A sweep job began simulating (emitted by `rmt3d-sweep`; cache
    /// hits skip straight to [`Event::JobCacheHit`]). JSONL:
    /// `{"event":"job_started","job":…,"total":…,"label":…}`.
    JobStarted {
        /// Zero-based job index in spec order.
        job: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Human-readable job description (`"3d-2a/mcf"`).
        label: String,
    },
    /// A sweep job finished simulating. JSONL:
    /// `{"event":"job_finished","job":…,"total":…,"ok":…,
    /// "wall_nanos":…,"eta_nanos":…}`.
    JobFinished {
        /// Zero-based job index in spec order.
        job: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// False when the job panicked and was isolated.
        ok: bool,
        /// Wall-clock nanoseconds the job spent simulating (0 when the
        /// sink is configured deterministic).
        wall_nanos: u64,
        /// Estimated nanoseconds until the sweep completes, from the
        /// mean executed-job wall time (0 when deterministic).
        eta_nanos: u64,
    },
    /// A sweep job was satisfied from the on-disk result cache without
    /// simulating. JSONL:
    /// `{"event":"job_cache_hit","job":…,"total":…,"label":…}`.
    JobCacheHit {
        /// Zero-based job index in spec order.
        job: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Human-readable job description.
        label: String,
    },
    /// Aggregate statistics of one pool drain (emitted by the
    /// `rmt3d-sweep` engine once, after the last job completes). The
    /// schedule-dependent fields (`steals`, `busy_nanos`, `idle_nanos`,
    /// `wall_nanos`) are written as 0 by deterministic sinks. JSONL:
    /// `{"event":"pool_stats","workers":…,"executed":…,"cache_hits":…,
    /// "failed":…,"steals":…,"busy_nanos":…,"idle_nanos":…,
    /// "wall_nanos":…}`.
    PoolStats {
        /// Worker threads the pool ran.
        workers: u64,
        /// Jobs that executed (not served by the cache probe).
        executed: u64,
        /// Jobs satisfied by the cache probe.
        cache_hits: u64,
        /// Executed jobs that panicked.
        failed: u64,
        /// Jobs claimed off another worker's static round-robin slot —
        /// a proxy for work-stealing imbalance (0 when deterministic).
        steals: u64,
        /// Total wall-clock nanoseconds workers spent executing jobs
        /// (0 when deterministic).
        busy_nanos: u64,
        /// Total wall-clock nanoseconds workers sat idle — pool wall
        /// time × workers minus busy (0 when deterministic).
        idle_nanos: u64,
        /// Wall-clock nanoseconds from pool start to drain (0 when
        /// deterministic).
        wall_nanos: u64,
    },
    /// Result-cache statistics for one sweep (emitted by the
    /// `rmt3d-sweep` engine after the pool drains, when a cache is
    /// attached). JSONL: `{"event":"cache_stats","hits":…,"misses":…,
    /// "verify_failures":…,"entries":…,"bytes":…}`.
    CacheStats {
        /// Probes served from the on-disk store.
        hits: u64,
        /// Probes that missed (including corrupt/colliding entries).
        misses: u64,
        /// Entries whose stored canonical key failed verification —
        /// corruption or a 64-bit hash collision, degraded to a miss.
        verify_failures: u64,
        /// Entries on disk after the run.
        entries: u64,
        /// Total bytes of all entries on disk after the run.
        bytes: u64,
    },
    /// The heartbeat watchdog flagged a job as stalled: no heartbeat
    /// for longer than the configured multiple of the median job
    /// duration. The job may still complete — this is a diagnostic,
    /// not a kill. JSONL: `{"event":"job_stalled","job":…,"total":…,
    /// "label":…,"elapsed_nanos":…,"median_nanos":…}`.
    JobStalled {
        /// Zero-based job index in spec order.
        job: u64,
        /// Total jobs in the run.
        total: u64,
        /// Human-readable job description.
        label: String,
        /// Wall-clock nanoseconds since the job's last heartbeat when
        /// it was flagged (0 when deterministic).
        elapsed_nanos: u64,
        /// Median wall-clock nanoseconds of completed jobs at flag
        /// time — the baseline the threshold multiplies (0 when
        /// deterministic).
        median_nanos: u64,
    },
    /// A daemon job-lifecycle phase opened (emitted by `rmt3d serve`).
    /// Phases nest per job — `job` wraps `queued`, `leased`, `run`, and
    /// `store_write` — and render as Chrome *async* spans keyed by the
    /// job sequence number, so overlapping jobs do not corrupt each
    /// other's timelines. `ts` is a logical daemon tick (monotonic
    /// event counter, not wall clock), which keeps traces
    /// byte-deterministic for a fixed submission order. JSONL:
    /// `{"event":"job_span_begin","job":…,"phase":…,"ts":…}`.
    JobSpanBegin {
        /// Daemon job sequence number — the async-span id.
        job: u64,
        /// Phase name (`"job"`, `"queued"`, `"leased"`, `"run"`,
        /// `"store_write"`).
        phase: Cow<'static, str>,
        /// Logical daemon tick at phase entry.
        ts: u64,
    },
    /// A daemon job-lifecycle phase closed, matching the
    /// [`Event::JobSpanBegin`] with the same `job` and `phase`. JSONL:
    /// `{"event":"job_span_end","job":…,"phase":…,"ts":…,
    /// "wall_nanos":…}`.
    JobSpanEnd {
        /// Daemon job sequence number — the async-span id.
        job: u64,
        /// Phase name, matching the corresponding begin.
        phase: Cow<'static, str>,
        /// Logical daemon tick at phase exit.
        ts: u64,
        /// Wall-clock nanoseconds spent inside the phase (0 when the
        /// sink is configured deterministic).
        wall_nanos: u64,
    },
    /// One fault-injection campaign trial completed (emitted by
    /// `rmt3d-campaign`). JSONL: `{"event":"campaign_trial","trial":…,
    /// "site":…,"fate":…,"detect_cycles":…,"ok":…}`.
    CampaignTrial {
        /// Zero-based trial index in grid order.
        trial: u64,
        /// Strike site name (see `rmt3d_rmt::FaultSite`).
        site: Cow<'static, str>,
        /// Observed fate label (`"corrected_by_ecc"`,
        /// `"detected_recovered"`, `"masked_harmless"`, or a violation
        /// label).
        fate: Cow<'static, str>,
        /// Leader cycles from injection to checker detection (0 when
        /// the fault was corrected or masked).
        detect_cycles: u64,
        /// True when the trial satisfied the coverage invariant.
        ok: bool,
    },
}

impl Event {
    /// One representative of every variant, with every field set to a
    /// distinctive non-default value. The construction is paired with
    /// an exhaustive `match` in [`Event::examples_cover`]: adding a
    /// variant without extending this list is a compile error, so no
    /// variant can silently skip the codec round-trip tests (same
    /// pattern as `FaultSite::ALL` in `rmt3d-rmt`).
    pub fn examples() -> Vec<Event> {
        let examples = vec![
            Event::SpanBegin {
                name: "measure".into(),
                cycle: 7,
            },
            Event::SpanEnd {
                name: "measure".into(),
                cycle: 11,
                wall_nanos: 12_345,
            },
            Event::Counter {
                name: "ipc".into(),
                cycle: 13,
                value: 1.25,
            },
            Event::DfsTransition {
                cycle: 17,
                from_level: 4,
                to_level: 5,
                fraction: 0.6,
            },
            Event::FaultInjected {
                cycle: 19,
                site: "rvq_operand".into(),
                bit: 3,
                corrected: true,
            },
            Event::Recovery {
                cycle: 23,
                penalty_cycles: 200,
                unrecoverable: true,
            },
            Event::SolverIteration {
                iteration: 29,
                residual: 0.031,
            },
            Event::Interval(crate::sample::IntervalSample {
                index: 2,
                cycle: 31,
                committed: 37,
                ipc: 1.19,
                rob: 41,
                iq_int: 5,
                iq_fp: 2,
                lsq: 11,
                rvq: 13,
                lvq: 17,
                boq: 3,
                stb: 7,
                checker_fraction: 0.7,
                dl1_accesses: 43,
                dl1_misses: 6,
                l2_accesses: 9,
                l2_misses: 1,
                commit_stall_cycles: 8,
            }),
            Event::JobStarted {
                job: 1,
                total: 4,
                label: "3d-2a/mcf".into(),
            },
            Event::JobFinished {
                job: 1,
                total: 4,
                ok: false,
                wall_nanos: 5_000,
                eta_nanos: 15_000,
            },
            Event::JobCacheHit {
                job: 2,
                total: 4,
                label: "2d-a/gzip".into(),
            },
            Event::PoolStats {
                workers: 4,
                executed: 70,
                cache_hits: 6,
                failed: 1,
                steals: 9,
                busy_nanos: 80_000,
                idle_nanos: 20_000,
                wall_nanos: 25_000,
            },
            Event::CacheStats {
                hits: 6,
                misses: 70,
                verify_failures: 2,
                entries: 76,
                bytes: 123_456,
            },
            Event::JobStalled {
                job: 3,
                total: 4,
                label: "3d-2a/swim".into(),
                elapsed_nanos: 9_000_000,
                median_nanos: 1_000_000,
            },
            Event::JobSpanBegin {
                job: 53,
                phase: "queued".into(),
                ts: 59,
            },
            Event::JobSpanEnd {
                job: 53,
                phase: "queued".into(),
                ts: 61,
                wall_nanos: 67_000,
            },
            Event::CampaignTrial {
                trial: 47,
                site: "leader_result".into(),
                fate: "detected_recovered".into(),
                detect_cycles: 120,
                ok: true,
            },
        ];
        for e in &examples {
            Self::examples_cover(e);
        }
        examples
    }

    /// Exhaustiveness witness for [`Event::examples`]: no wildcard arm,
    /// so a new variant fails to compile here until `examples()` (and
    /// therefore the codec tests) know about it.
    fn examples_cover(event: &Event) {
        match event {
            Event::SpanBegin { .. }
            | Event::SpanEnd { .. }
            | Event::Counter { .. }
            | Event::DfsTransition { .. }
            | Event::FaultInjected { .. }
            | Event::Recovery { .. }
            | Event::SolverIteration { .. }
            | Event::Interval(_)
            | Event::JobStarted { .. }
            | Event::JobFinished { .. }
            | Event::JobCacheHit { .. }
            | Event::PoolStats { .. }
            | Event::CacheStats { .. }
            | Event::JobStalled { .. }
            | Event::JobSpanBegin { .. }
            | Event::JobSpanEnd { .. }
            | Event::CampaignTrial { .. } => {}
        }
    }

    /// The JSONL `"event"` discriminator for this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Counter { .. } => "counter",
            Event::DfsTransition { .. } => "dfs_transition",
            Event::FaultInjected { .. } => "fault",
            Event::Recovery { .. } => "recovery",
            Event::SolverIteration { .. } => "solver_iteration",
            Event::Interval(_) => "interval",
            Event::JobStarted { .. } => "job_started",
            Event::JobFinished { .. } => "job_finished",
            Event::JobCacheHit { .. } => "job_cache_hit",
            Event::PoolStats { .. } => "pool_stats",
            Event::CacheStats { .. } => "cache_stats",
            Event::JobStalled { .. } => "job_stalled",
            Event::JobSpanBegin { .. } => "job_span_begin",
            Event::JobSpanEnd { .. } => "job_span_end",
            Event::CampaignTrial { .. } => "campaign_trial",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let events = Event::examples();
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn interval_stays_the_largest_variant() {
        // Events travel by value through every sink: the `Cow` name
        // fields must not grow `Event` past an interval record plus its
        // discriminant.
        assert_eq!(
            std::mem::size_of::<Event>(),
            std::mem::size_of::<IntervalSample>() + 8
        );
    }

    #[test]
    fn examples_cover_every_variant_exactly_once() {
        let events = Event::examples();
        // One example per discriminator; `examples_cover`'s exhaustive
        // match guarantees no variant is missing at compile time.
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "duplicate example kinds");
    }
}
