//! JSON Lines encoding and decoding for [`Event`].
//!
//! Every event becomes one flat object with an `"event"` discriminator.
//! Decoding returns the same [`Event`] type, with its name-like
//! `Cow<'static, str>` fields owned, so a decoded event compares equal
//! to the one that was encoded and renders through the same sinks.

use crate::json::{parse, JsonObject, JsonValue};
use crate::sample::IntervalSample;
use crate::Event;
use std::borrow::Cow;

impl Event {
    /// Serializes the event as one JSON line (no trailing newline).
    ///
    /// When `deterministic` is true, wall-clock fields are written as 0
    /// so traces of identical runs are byte-identical.
    pub fn to_json_line(&self, deterministic: bool) -> String {
        let mut o = JsonObject::new();
        o.str("event", self.kind());
        match self {
            Event::SpanBegin { name, cycle } => {
                o.str("name", name).u64("cycle", *cycle);
            }
            Event::SpanEnd {
                name,
                cycle,
                wall_nanos,
            } => {
                o.str("name", name)
                    .u64("cycle", *cycle)
                    .u64("wall_nanos", if deterministic { 0 } else { *wall_nanos });
            }
            Event::Counter { name, cycle, value } => {
                o.str("name", name)
                    .u64("cycle", *cycle)
                    .f64("value", *value);
            }
            Event::DfsTransition {
                cycle,
                from_level,
                to_level,
                fraction,
            } => {
                o.u64("cycle", *cycle)
                    .u64("from_level", u64::from(*from_level))
                    .u64("to_level", u64::from(*to_level))
                    .f64("fraction", *fraction);
            }
            Event::FaultInjected {
                cycle,
                site,
                bit,
                corrected,
            } => {
                o.u64("cycle", *cycle)
                    .str("site", site)
                    .u64("bit", u64::from(*bit))
                    .bool("corrected", *corrected);
            }
            Event::Recovery {
                cycle,
                penalty_cycles,
                unrecoverable,
            } => {
                o.u64("cycle", *cycle)
                    .u64("penalty_cycles", *penalty_cycles)
                    .bool("unrecoverable", *unrecoverable);
            }
            Event::SolverIteration {
                iteration,
                residual,
            } => {
                o.u64("iteration", *iteration).f64("residual", *residual);
            }
            Event::Interval(s) => {
                o.u64("index", s.index)
                    .u64("cycle", s.cycle)
                    .u64("committed", s.committed)
                    .f64("ipc", s.ipc)
                    .u64("rob", u64::from(s.rob))
                    .u64("iq_int", u64::from(s.iq_int))
                    .u64("iq_fp", u64::from(s.iq_fp))
                    .u64("lsq", u64::from(s.lsq))
                    .u64("rvq", u64::from(s.rvq))
                    .u64("lvq", u64::from(s.lvq))
                    .u64("boq", u64::from(s.boq))
                    .u64("stb", u64::from(s.stb))
                    .f64("checker_fraction", s.checker_fraction)
                    .u64("dl1_accesses", s.dl1_accesses)
                    .u64("dl1_misses", s.dl1_misses)
                    .u64("l2_accesses", s.l2_accesses)
                    .u64("l2_misses", s.l2_misses)
                    .u64("commit_stall_cycles", s.commit_stall_cycles);
            }
            Event::JobStarted { job, total, label } => {
                o.u64("job", *job).u64("total", *total).str("label", label);
            }
            Event::JobFinished {
                job,
                total,
                ok,
                wall_nanos,
                eta_nanos,
            } => {
                o.u64("job", *job)
                    .u64("total", *total)
                    .bool("ok", *ok)
                    .u64("wall_nanos", if deterministic { 0 } else { *wall_nanos })
                    .u64("eta_nanos", if deterministic { 0 } else { *eta_nanos });
            }
            Event::JobCacheHit { job, total, label } => {
                o.u64("job", *job).u64("total", *total).str("label", label);
            }
            Event::PoolStats {
                workers,
                executed,
                cache_hits,
                failed,
                steals,
                busy_nanos,
                idle_nanos,
                wall_nanos,
            } => {
                // Steals are schedule-dependent (which worker claims
                // which job varies run to run), so deterministic traces
                // zero them alongside the wall clocks.
                let z = |v: &u64| if deterministic { 0 } else { *v };
                o.u64("workers", *workers)
                    .u64("executed", *executed)
                    .u64("cache_hits", *cache_hits)
                    .u64("failed", *failed)
                    .u64("steals", z(steals))
                    .u64("busy_nanos", z(busy_nanos))
                    .u64("idle_nanos", z(idle_nanos))
                    .u64("wall_nanos", z(wall_nanos));
            }
            Event::CacheStats {
                hits,
                misses,
                verify_failures,
                entries,
                bytes,
            } => {
                o.u64("hits", *hits)
                    .u64("misses", *misses)
                    .u64("verify_failures", *verify_failures)
                    .u64("entries", *entries)
                    .u64("bytes", *bytes);
            }
            Event::JobStalled {
                job,
                total,
                label,
                elapsed_nanos,
                median_nanos,
            } => {
                o.u64("job", *job)
                    .u64("total", *total)
                    .str("label", label)
                    .u64(
                        "elapsed_nanos",
                        if deterministic { 0 } else { *elapsed_nanos },
                    )
                    .u64(
                        "median_nanos",
                        if deterministic { 0 } else { *median_nanos },
                    );
            }
            Event::JobSpanBegin { job, phase, ts } => {
                o.u64("job", *job).str("phase", phase).u64("ts", *ts);
            }
            Event::JobSpanEnd {
                job,
                phase,
                ts,
                wall_nanos,
            } => {
                o.u64("job", *job)
                    .str("phase", phase)
                    .u64("ts", *ts)
                    .u64("wall_nanos", if deterministic { 0 } else { *wall_nanos });
            }
            Event::CampaignTrial {
                trial,
                site,
                fate,
                detect_cycles,
                ok,
            } => {
                o.u64("trial", *trial)
                    .str("site", site)
                    .str("fate", fate)
                    .u64("detect_cycles", *detect_cycles)
                    .bool("ok", *ok);
            }
        }
        o.finish()
    }

    /// Parses one JSON line back into an event. The trailing
    /// metrics-summary line (`"event":"summary"`) has no event form and
    /// decodes to `Ok(None)`. Errors on malformed JSON, unknown
    /// discriminators, and missing, mistyped or out-of-range fields.
    pub fn from_json_line(line: &str) -> Result<Option<Event>, String> {
        let v = parse(line)?;
        let kind = v
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"event\" field")?;
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer \"{k}\""))
        };
        let f = |k: &str| -> Result<f64, String> {
            match v.get(k) {
                Some(JsonValue::Null) => Ok(f64::NAN),
                Some(x) => x.as_f64().ok_or_else(|| format!("non-number \"{k}\"")),
                None => Err(format!("missing \"{k}\"")),
            }
        };
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string \"{k}\""))
        };
        let name = |k: &str| s(k).map(Cow::Owned);
        let b = |k: &str| -> Result<bool, String> {
            v.get(k)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("missing or non-boolean \"{k}\""))
        };
        let byte = |k: &str| -> Result<u8, String> {
            u(k).and_then(|n| u8::try_from(n).map_err(|_| format!("\"{k}\" out of u8 range")))
        };
        let word = |k: &str| -> Result<u32, String> {
            u(k).and_then(|n| u32::try_from(n).map_err(|_| format!("\"{k}\" out of u32 range")))
        };
        Ok(Some(match kind {
            "span_begin" => Event::SpanBegin {
                name: name("name")?,
                cycle: u("cycle")?,
            },
            "span_end" => Event::SpanEnd {
                name: name("name")?,
                cycle: u("cycle")?,
                wall_nanos: u("wall_nanos")?,
            },
            "counter" => Event::Counter {
                name: name("name")?,
                cycle: u("cycle")?,
                value: f("value")?,
            },
            "dfs_transition" => Event::DfsTransition {
                cycle: u("cycle")?,
                from_level: byte("from_level")?,
                to_level: byte("to_level")?,
                fraction: f("fraction")?,
            },
            "fault" => Event::FaultInjected {
                cycle: u("cycle")?,
                site: name("site")?,
                bit: byte("bit")?,
                corrected: b("corrected")?,
            },
            "recovery" => Event::Recovery {
                cycle: u("cycle")?,
                penalty_cycles: u("penalty_cycles")?,
                unrecoverable: b("unrecoverable")?,
            },
            "solver_iteration" => Event::SolverIteration {
                iteration: u("iteration")?,
                residual: f("residual")?,
            },
            "interval" => Event::Interval(IntervalSample {
                index: u("index")?,
                cycle: u("cycle")?,
                committed: u("committed")?,
                ipc: f("ipc")?,
                rob: word("rob")?,
                iq_int: word("iq_int")?,
                iq_fp: word("iq_fp")?,
                lsq: word("lsq")?,
                rvq: word("rvq")?,
                lvq: word("lvq")?,
                boq: word("boq")?,
                stb: word("stb")?,
                checker_fraction: f("checker_fraction")?,
                dl1_accesses: u("dl1_accesses")?,
                dl1_misses: u("dl1_misses")?,
                l2_accesses: u("l2_accesses")?,
                l2_misses: u("l2_misses")?,
                commit_stall_cycles: u("commit_stall_cycles")?,
            }),
            "job_started" => Event::JobStarted {
                job: u("job")?,
                total: u("total")?,
                label: s("label")?,
            },
            "job_finished" => Event::JobFinished {
                job: u("job")?,
                total: u("total")?,
                ok: b("ok")?,
                wall_nanos: u("wall_nanos")?,
                eta_nanos: u("eta_nanos")?,
            },
            "job_cache_hit" => Event::JobCacheHit {
                job: u("job")?,
                total: u("total")?,
                label: s("label")?,
            },
            "pool_stats" => Event::PoolStats {
                workers: u("workers")?,
                executed: u("executed")?,
                cache_hits: u("cache_hits")?,
                failed: u("failed")?,
                steals: u("steals")?,
                busy_nanos: u("busy_nanos")?,
                idle_nanos: u("idle_nanos")?,
                wall_nanos: u("wall_nanos")?,
            },
            "cache_stats" => Event::CacheStats {
                hits: u("hits")?,
                misses: u("misses")?,
                verify_failures: u("verify_failures")?,
                entries: u("entries")?,
                bytes: u("bytes")?,
            },
            "job_stalled" => Event::JobStalled {
                job: u("job")?,
                total: u("total")?,
                label: s("label")?,
                elapsed_nanos: u("elapsed_nanos")?,
                median_nanos: u("median_nanos")?,
            },
            "job_span_begin" => Event::JobSpanBegin {
                job: u("job")?,
                phase: name("phase")?,
                ts: u("ts")?,
            },
            "job_span_end" => Event::JobSpanEnd {
                job: u("job")?,
                phase: name("phase")?,
                ts: u("ts")?,
                wall_nanos: u("wall_nanos")?,
            },
            "campaign_trial" => Event::CampaignTrial {
                trial: u("trial")?,
                site: name("site")?,
                fate: name("fate")?,
                detect_cycles: u("detect_cycles")?,
                ok: b("ok")?,
            },
            "summary" => return Ok(None),
            other => return Err(format!("unknown event kind {other:?}")),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips() {
        // `Event::examples()` is exhaustiveness-checked: a new variant
        // cannot compile without joining this round-trip.
        for event in Event::examples() {
            let line = event.to_json_line(false);
            assert_eq!(Event::from_json_line(&line), Ok(Some(event)), "{line}");
        }
    }

    #[test]
    fn deterministic_round_trip_zeroes_only_wall_clocks() {
        // Re-encoding reproduces the line byte for byte: the round trip
        // loses nothing but the wall clocks the line already zeroed.
        for event in Event::examples() {
            let line = event.to_json_line(true);
            let decoded = Event::from_json_line(&line)
                .unwrap_or_else(|e| panic!("parse {line}: {e}"))
                .expect("an event, not the summary");
            assert_eq!(decoded.to_json_line(true), line);
        }
    }

    #[test]
    fn deterministic_mode_zeroes_wall_clock() {
        let event = Event::SpanEnd {
            name: "x".into(),
            cycle: 1,
            wall_nanos: 42,
        };
        let line = event.to_json_line(true);
        assert_eq!(
            Event::from_json_line(&line),
            Ok(Some(Event::SpanEnd {
                name: "x".into(),
                cycle: 1,
                wall_nanos: 0,
            }))
        );
    }

    #[test]
    fn summary_line_decodes_to_none() {
        assert_eq!(
            Event::from_json_line(r#"{"event":"summary","series":{}}"#),
            Ok(None)
        );
    }

    #[test]
    fn unknown_kind_is_an_error() {
        assert!(Event::from_json_line(r#"{"event":"bogus"}"#).is_err());
        assert!(Event::from_json_line(r#"{"cycle":1}"#).is_err());
    }

    #[test]
    fn out_of_range_interval_occupancy_is_an_error() {
        let line = Event::examples()
            .into_iter()
            .find(|e| matches!(e, Event::Interval(_)))
            .expect("an interval example")
            .to_json_line(true);
        let max = line.replacen("\"rob\":41", "\"rob\":4294967295", 1);
        assert_ne!(max, line);
        assert!(matches!(
            Event::from_json_line(&max),
            Ok(Some(Event::Interval(IntervalSample { rob: u32::MAX, .. })))
        ));
        let over = line.replacen("\"rob\":41", "\"rob\":4294967296", 1);
        assert_eq!(
            Event::from_json_line(&over),
            Err("\"rob\" out of u32 range".to_string())
        );
    }
}
