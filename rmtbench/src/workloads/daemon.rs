//! `daemon-mixed`: an in-process `serve` daemon on loopback, driven by
//! closed-loop clients (one per CPU, at most two) that submit a seeded
//! sequence of small sweep specs and wait for each result.
//!
//! The spec shape, size and order follow the daemon smoke run in CI and
//! the walkthrough in EXPERIMENTS.md ("Running as a service"): a spec is
//! two models × two benchmarks (four pool items) at the smoke run's 20k
//! instructions, submitted once cold (a write: simulate,
//! `ResultStore::save`, a ledger run) and, once that is done, again
//! warm (a read: a store load and `codec::decode`). The number of warm
//! re-submissions, [`REPEATS`], is a guess (see there). Each client owns
//! a disjoint share of the specs; the seed orders them. It changes only
//! that order, so every run does the same work. Checks: no request is
//! refused, every job ends `done`, every result decodes, each cold
//! response matches its committed digest, and every warm response is
//! byte-identical to the cold one.

use super::{permutation, secs, Ctx, LayerObs, Prepared, Round, Size};
use crate::digest;
use crate::expected::Expected;
use crate::trace::Tracer;
use rmt3d::telemetry::json::JsonValue;
use rmt3d_serve::{client, serve, ServeOptions};
use rmt3d_sweep::codec;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "daemon-mixed";

/// Warm re-submissions of every spec. A guess: the smoke run makes one,
/// and the walkthrough says the daemon serves repeated submissions, so
/// warm ones should outnumber cold ones, but nothing in the repository
/// gives the ratio. With one, half the round trips are cold, and the
/// median round trip fell on the gap between cold and warm ones and
/// moved between 102 and 151 ms from run to run.
pub const REPEATS: usize = 2;

/// The distinct specs: two models × two benchmarks each. The first is
/// the smoke run's own; the others cover the remaining models and
/// small (gzip, vpr, bzip2) to large (mcf, art, swim) working sets.
pub const SPECS: [([&str; 2], [&str; 2]); 8] = [
    (["2d-a", "3d-2a"], ["gzip", "mcf"]),
    (["2d-2a", "3d-checker"], ["gzip", "mcf"]),
    (["2d-a", "3d-2a"], ["art", "swim"]),
    (["2d-2a", "3d-checker"], ["art", "swim"]),
    (["2d-a", "3d-2a"], ["vpr", "twolf"]),
    (["2d-2a", "3d-checker"], ["vpr", "twolf"]),
    (["2d-a", "3d-2a"], ["bzip2", "equake"]),
    (["2d-2a", "3d-checker"], ["bzip2", "equake"]),
];

/// Instructions per job (`Size::Full`), as in the smoke run.
pub const INSTRUCTIONS: u64 = 20_000;

/// One spec as the daemon receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Stable name, the key of its committed digest.
    pub name: String,
    /// The `submit` request's `spec` object.
    pub json: String,
}

/// The specs of a round.
pub fn specs(size: Size) -> Vec<Spec> {
    let (list, instructions) = match size {
        Size::Full => (&SPECS[..], INSTRUCTIONS),
        Size::Tiny => (&SPECS[..2], 3_000),
    };
    list.iter()
        .map(|(models, benches)| Spec {
            name: format!(
                "{}:{}@{instructions}",
                models.join("+"),
                benches.join("+")
            ),
            json: format!(
                "{{\"models\":[\"{}\",\"{}\"],\"benchmarks\":[\"{}\",\"{}\"],\"instructions\":{instructions}}}",
                models[0], models[1], benches[0], benches[1]
            ),
        })
        .collect()
}

fn spec_instructions(spec_json: &str) -> u64 {
    rmt3d::telemetry::json::parse(spec_json)
        .ok()
        .and_then(|v| v.get("instructions").and_then(JsonValue::as_u64))
        .unwrap_or(0)
}

/// Client `c`'s submissions (indices into the spec list): its own
/// specs in a seeded order, each submitted `1 + REPEATS` times in a
/// row, so the first submission is cold and the rest are warm.
pub fn sequence(n_specs: usize, clients: usize, c: usize, seed: u64) -> Vec<usize> {
    let own: Vec<usize> = (0..n_specs).filter(|i| i % clients == c).collect();
    let seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    permutation(own.len(), seed)
        .into_iter()
        .flat_map(|k| std::iter::repeat_n(own[k], 1 + REPEATS))
        .collect()
}

/// A `serve` daemon on a loopback port; shut down and joined on drop.
pub struct Daemon {
    /// `host:port` it listens on.
    pub addr: String,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Binds a loopback port, starts `serve` on it with its state,
    /// cache and ledger under `dir`, and returns once the daemon has
    /// answered a no-work request (`jobs`): by then it has opened its
    /// queue and result store, creating their directories.
    ///
    /// # Errors
    ///
    /// Returns a message when the socket cannot be bound or the daemon
    /// does not come up.
    pub fn start(dir: &Path, workers: usize) -> Result<Daemon, String> {
        let opts = ServeOptions {
            state_dir: dir.join("state"),
            cache_dir: dir.join("cache"),
            workers,
            cache_max_bytes: None,
            runs_root: Some(dir.join("runs")),
            quiet: true,
        };
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?
            .to_string();
        let mut daemon = Daemon {
            addr,
            thread: Some(std::thread::spawn(move || serve(listener, opts))),
        };
        match client::request(&daemon.addr, "{\"op\":\"jobs\"}") {
            Ok(_) => Ok(daemon),
            // A daemon that failed to open its state has returned; one
            // still running is shut down and joined on drop.
            Err(e) => match daemon.thread.take_if(|t| t.is_finished()) {
                Some(t) => Err(match t.join() {
                    Ok(Err(why)) => format!("daemon did not start: {why}"),
                    _ => format!("daemon did not answer: {e}"),
                }),
                None => Err(format!("daemon did not answer: {e}")),
            },
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // A daemon that never came up has already returned; the
            // refused shutdown is then expected.
            let _ = client::request(&self.addr, "{\"op\":\"shutdown\"}");
            let _ = thread.join();
        }
    }
}

/// A running daemon and the client plan, ready to run.
pub struct DaemonMixed {
    daemon: Daemon,
    specs: Vec<Spec>,
    plans: Vec<Vec<usize>>,
}

impl DaemonMixed {
    /// Starts the daemon in `ctx.dir` and plans each client's
    /// submissions.
    ///
    /// # Errors
    ///
    /// Returns a message when the daemon cannot be started.
    pub fn setup(ctx: &Ctx) -> Result<DaemonMixed, String> {
        let daemon = Daemon::start(&ctx.dir, ctx.workers)?;
        let specs = specs(ctx.size);
        let plans = (0..ctx.clients)
            .map(|c| sequence(specs.len(), ctx.clients, c, ctx.seed))
            .collect();
        Ok(DaemonMixed {
            daemon,
            specs,
            plans,
        })
    }
}

/// The daemon's mean queue wait and execution time of sweep jobs and
/// its cache counters, from the `stats` verb.
pub fn stats(addr: &str) -> Result<LayerObs, String> {
    let v = client::request(addr, "{\"op\":\"stats\"}")?;
    let count = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let metrics = v
        .get("metrics")
        .map(rmt3d_obs::metricsio::metrics_from_value)
        .ok_or("stats answered without metrics")?;
    let mean = |k: &str| metrics.series(k).map_or(0.0, |s| s.mean);
    Ok(LayerObs {
        pool_busy_idle_s: None,
        store_hits_misses: Some((count("cache_hits"), count("cache_misses"))),
        queue_wait_exec_ms: Some((
            mean("daemon_queue_wait_ms_sweep"),
            mean("daemon_exec_ms_sweep"),
        )),
    })
}

/// Blocks until `job`'s terminal `job_done` event; returns its state.
fn wait_done(addr: &str, job: &str) -> Result<String, String> {
    for event in client::watch(addr, job)? {
        let v = event?;
        if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
            return Err(v
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("watch refused")
                .to_string());
        }
        if v.get("event").and_then(JsonValue::as_str) == Some("job_done") {
            return Ok(v
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string());
        }
    }
    Err(format!("watch stream for {job} ended before job_done"))
}

/// What one submit→done round trip returned.
struct Trip {
    spec: usize,
    ms: f64,
    /// `label\tencoded` lines of the results, and their committed
    /// leader instructions.
    outcome: Result<(String, u64), String>,
}

/// One submit→done round trip: submit, watch to `job_done`, fetch and
/// decode the results. Returns the results as `label\tencoded` lines
/// and their committed leader instructions, warm-up included.
pub fn round_trip(
    addr: &str,
    spec_json: &str,
    tracer: &Tracer,
    req: u64,
) -> Result<(String, u64), String> {
    let resp = tracer.span_n("serve::client::request/submit", 1, req, || {
        client::request(addr, &client::submit_line("sweep", spec_json, 0))
    })?;
    let job = resp
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or("submit answered without a job id")?
        .to_string();
    let state = tracer.span_n("serve::client::watch", 1, req, || wait_done(addr, &job))?;
    if state != "done" {
        return Err(format!("job {job} ended {state}"));
    }
    let resp = tracer.span_n("serve::client::request/result", 1, req, || {
        client::request(addr, &client::job_line("result", &job))
    })?;
    let Some(JsonValue::Arr(items)) = resp.get("results") else {
        return Err(format!("malformed result response for {job}"));
    };
    // The daemon warms each job up for a tenth of its instructions.
    let warmup = spec_instructions(spec_json) / 10;
    tracer.span_n(
        "sweep::codec::decode/round_trip",
        items.len() as u64,
        req,
        || {
            let mut text = String::new();
            let mut committed = 0;
            for item in items {
                let label = item.get("label").and_then(JsonValue::as_str).unwrap_or("?");
                let encoded = item
                    .get("encoded")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                let r = codec::decode(encoded).map_err(|e| format!("{job} {label}: {e}"))?;
                committed += r.leader.committed + warmup;
                text.push_str(label);
                text.push('\t');
                text.push_str(encoded);
                text.push('\n');
            }
            Ok((text, committed))
        },
    )
}

impl Prepared for DaemonMixed {
    fn run(self: Box<Self>, tracer: &Tracer, expected: Option<&Expected>) -> Round {
        let t0 = Instant::now();
        let root = tracer.current();
        let trips: Vec<Trip> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .plans
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    let (addr, specs) = (&self.daemon.addr, &self.specs);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (k, &spec) in plan.iter().enumerate() {
                            let req = (c * 1000 + k + 1) as u64;
                            let t = Instant::now();
                            let outcome =
                                tracer.span_under(root, "serve::round_trip", 1, req, || {
                                    round_trip(addr, &specs[spec].json, tracer, req)
                                });
                            out.push(Trip {
                                spec,
                                ms: secs(t) * 1e3,
                                outcome,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut round = Round {
            wall_s: secs(t0),
            job_ms: trips.iter().map(|t| t.ms).collect(),
            ..Round::default()
        };
        // Each client submits its specs in plan order, so a spec's
        // first trip in the list is its cold one.
        let mut cold: BTreeMap<usize, String> = BTreeMap::new();
        for trip in &trips {
            let name = &self.specs[trip.spec].name;
            match &trip.outcome {
                Err(e) => round.check(false, || format!("{name}: {e}")),
                Ok((text, committed)) => match cold.get(&trip.spec) {
                    None => {
                        round.instructions += committed;
                        cold.insert(trip.spec, text.clone());
                        let h = digest::hash_hex(text.as_bytes());
                        round.expect(expected, NAME, name.clone(), h, true);
                    }
                    Some(first) => round.check(first == text, || {
                        format!("{name}: warm response differs from the cold one")
                    }),
                },
            }
        }
        let all: Vec<(String, String)> = cold
            .iter()
            .map(|(&i, text)| {
                (
                    self.specs[i].name.clone(),
                    digest::hash_hex(text.as_bytes()),
                )
            })
            .collect();
        round
            .digests
            .push(("responses".to_string(), digest::keyed(&all)));
        match stats(&self.daemon.addr) {
            Ok(obs) => round.layer = obs,
            Err(e) => round.check(false, || format!("stats refused: {e}")),
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_split_specs_and_repeat_each() {
        let a = sequence(8, 2, 0, 7);
        let b = sequence(8, 2, 1, 7);
        assert_eq!(a.len(), 4 * (1 + REPEATS));
        assert!(a.iter().all(|i| i % 2 == 0) && b.iter().all(|i| i % 2 == 1));
        assert_eq!(a, sequence(8, 2, 0, 7));
        assert_ne!(a, sequence(8, 2, 0, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let expect: Vec<usize> = [0, 2, 4, 6]
            .iter()
            .flat_map(|&i| std::iter::repeat_n(i, 1 + REPEATS))
            .collect();
        assert_eq!(sorted, expect);
        // Every spec's submissions are consecutive: cold, then warm.
        for block in a.chunks(1 + REPEATS) {
            assert!(block.iter().all(|&i| i == block[0]));
        }
    }
}
