//! Command line, rounds, metrics and the printed record.

use crate::expected::Expected;
use crate::host;
use crate::layers::{self, Source};
use crate::probe::{HostIndex, HostProbe};
use crate::stats::{median, quartile_spread, tail};
use crate::trace::{self, Tracer};
use crate::workloads::{self, secs, Ctx, LayerObs, Round, Size};
use rmt3d::telemetry::json::JsonObject;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// End-to-end metrics the untraced run puts on its result line, with
/// their units: the ones `BENCHMARK.json` gates. Except `setup_s`, they
/// are adjusted to the reference host's speed by each round's host
/// index (see [`crate::probe`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_adj_s", "s"),
    ("job_p50_adj_ms", "ms"),
    ("sim_adj_minstr_per_s", "Minstr/s"),
];

/// End-to-end metrics the untraced run prints and records but leaves
/// off its result line: the unadjusted host times and the host index,
/// which follow the shared host's swings; the tail latency and peak
/// memory, which spread too far between runs to gate (see the README);
/// and the failed share, which is 0 on a correct run.
pub const RECORDED_ONLY: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("host_index", "ratio"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
];

/// Set-ups timed per run for the `setup_s` median, spread evenly over
/// the gaps before the rounds. A set-up takes tens of microseconds, and
/// 25 in a row all meet the host in one state: run after run, such
/// batches read anywhere from 20 to 100 us. The first is timed from the
/// start of `main`; the record keeps it apart as `setup_first_s`.
pub const SETUP_SAMPLES: usize = 25;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time the rounds are sized to.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Also print the outputs compared with `expected.json`.
    pub emit_expected: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: rmtbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--emit-expected]";

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value,
/// or an unknown workload.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        emit_expected: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-expected" {
            args.emit_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(value)?,
            "--seconds" => args.seconds = num(value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            workloads::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Round length on the reference host (2 CPUs), s. The round count is
/// fixed by `--seconds` and this table alone, so every run of a
/// workload at a given `--seconds` does the same work and yields the
/// same number of job samples, whatever the host's speed.
pub fn nominal_round_s(workload: &str) -> f64 {
    match workload {
        "sweep-cold" => 6.5,
        "thermal-fig4" => 20.0,
        "campaign-journaled" => 10.0,
        _ => 1.25,
    }
}

/// How many of the [`SETUP_SAMPLES`] set-ups run before each of
/// `rounds` rounds: as even as whole numbers allow, and at least one
/// before the first round, which is the one timed from the start of
/// `main`.
pub fn setup_batches(rounds: usize) -> Vec<usize> {
    let rounds = rounds.max(1);
    (0..rounds)
        .map(|i| (SETUP_SAMPLES * (i + 1)).div_ceil(rounds) - (SETUP_SAMPLES * i).div_ceil(rounds))
        .collect()
}

/// Rounds an untraced run makes.
pub fn rounds(workload: &str, seconds: u64) -> usize {
    ((seconds as f64 / nominal_round_s(workload)).floor() as usize).max(1)
}

/// Pool workers and daemon clients of `workload`. A sweep job runs its
/// simulation on the threaded engine, which adds a checker thread of
/// its own, so `sweep-cold` gets one worker per two CPUs and its busy
/// threads never outnumber the CPUs: with one worker per CPU, four
/// threads shared two CPUs and how the scheduler placed them spread
/// the round times by 0.17-0.22. The other workloads get one worker per
/// CPU, the program's default (`daemon-mixed` as the CI smoke run starts
/// the daemon, `thermal-fig4` spends its time in serial solves after a
/// short batch of simulations, and campaign trials run serially). There
/// are at most two clients, so the traffic mix is the same on larger
/// hosts.
pub fn workers_and_clients(workload: &str) -> (usize, usize) {
    let cpus = host::cpus();
    let workers = if workload == "sweep-cold" {
        (cpus / 2).max(1)
    } else {
        cpus
    };
    (workers, cpus.min(2))
}

struct Session {
    args: Args,
    work: PathBuf,
    next_dir: usize,
    workers: usize,
    clients: usize,
    /// Built at the first round, so that its table is not part of the
    /// first set-up.
    probe: Option<HostProbe>,
    /// Host-probe samples taken over the run's rounds.
    probe_samples: usize,
}

impl Session {
    fn ctx(&mut self) -> Ctx {
        self.next_dir += 1;
        Ctx {
            seed: self.args.seed,
            dir: self.work.join(format!("r{}", self.next_dir)),
            workers: self.workers,
            clients: self.clients,
            size: Size::Full,
        }
    }

    /// Sets up one round and runs it beside the host probe, then
    /// removes its directory.
    fn round(&mut self, tracer: &Tracer, expected: Option<&Expected>) -> Result<Round, String> {
        let ctx = self.ctx();
        let prepared = workloads::prepare(&self.args.workload, &ctx)?;
        let probe = self.probe.get_or_insert_with(HostProbe::new);
        let (mut round, samples) = probe.during(|| prepared.run(tracer, expected));
        round.host = HostIndex::of(&samples);
        self.probe_samples += samples.len();
        self.clear(&ctx.dir);
        Ok(round)
    }

    /// Removes a finished round's or set-up's directory. With the
    /// directories of earlier set-ups left in place, the daemon's
    /// set-up (opening its queue, store and instruments) grew from
    /// about 0.8 ms to 3-6 ms over the 25 set-ups of a run.
    fn clear(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        settle(&self.work);
    }

    /// `count` set-ups that are torn down without running. With
    /// `started`, the first is timed from the start of `main`.
    fn setups(&mut self, count: usize, started: Option<Instant>) -> Result<Vec<f64>, String> {
        (0..count)
            .map(|i| {
                let ctx = self.ctx();
                let t = started.filter(|_| i == 0).unwrap_or_else(Instant::now);
                let prepared = workloads::prepare(&self.args.workload, &ctx)?;
                let s = secs(t);
                drop(prepared);
                self.clear(&ctx.dir);
                Ok(s)
            })
            .collect()
    }
}

/// Commits the file-system metadata of `dir`'s entries to disk (fsync
/// of the directory), so the next set-up does not time the tail of the
/// last one's teardown or of a previous run's clean-up.
fn settle(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Totals over a run's rounds.
#[derive(Debug, Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Totals {
    fn add(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.problems.extend(r.problems.iter().cloned());
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

fn fingerprint(args: &Args, root: &Path, workers: usize, clients: usize) -> String {
    let mut o = JsonObject::new();
    o.u64("cpus", host::cpus() as u64)
        .str("cpu_model", &host::cpu_model())
        .str("host", &host::host_name())
        .str("engine", host::engine(&args.workload))
        .u64("workers", workers as u64)
        .u64("clients", clients as u64)
        .str("profile", host::build_profile())
        .str("rustc", &host::rustc_version())
        .str("git_commit", &host::git_commit(root))
        .str("source_digest", &host::source_digest(root))
        .u64("seed", args.seed);
    o.finish()
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut o = JsonObject::new();
    for (name, value, unit) in metrics {
        let mut m = JsonObject::new();
        m.f64("value", *value).str("unit", unit);
        o.raw(name, &m.finish());
    }
    o.finish()
}

fn digests_json(rounds: &[Round]) -> String {
    let mut o = JsonObject::new();
    if let Some(first) = rounds.first() {
        for (k, v) in &first.digests {
            o.str(k, v);
        }
    }
    o.finish()
}

/// The last line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut o = JsonObject::new();
    o.bool("correct", correct)
        .u64("attempted", attempted.max(1))
        .u64("failed", failed)
        .raw("metrics", &metrics_json(metrics));
    o.finish()
}

/// Runs the benchmark; returns the process exit code.
pub fn run(args: Args, started: Instant) -> i32 {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let out_dir = root.join(".bench_out");
    let _ = std::fs::remove_dir_all(&work);
    let (workers, clients) = workers_and_clients(&args.workload);
    let mut session = Session {
        args: args.clone(),
        work: work.clone(),
        next_dir: 0,
        workers,
        clients,
        probe: None,
        probe_samples: 0,
    };
    let expected = Expected::committed();
    let outcome = if args.trace {
        traced(&mut session, &expected, &out_dir)
    } else {
        untraced(&mut session, started, &expected)
    };
    let _ = std::fs::remove_dir_all(&work);
    settle(&root.join(".bench_work"));
    let (record, result, correct) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("rmtbench: {e}");
            return 2;
        }
    };
    let mut rec = JsonObject::new();
    rec.str("record", "rmtbench")
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .bool("trace", args.trace)
        .raw("fingerprint", &fingerprint(&args, &root, workers, clients))
        .raw("run", &record);
    let record_line = rec.finish();
    let _ = std::fs::create_dir_all(&out_dir);
    let name = format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(out_dir.join(name), format!("{record_line}\n"));
    println!("{record_line}");
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}

type Outcome = Result<(String, String, bool), String>;

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:28} {value:>16.6} {unit:9} {note}");
}

fn untraced(s: &mut Session, started: Instant, expected: &Expected) -> Outcome {
    let n = rounds(&s.args.workload, s.args.seconds);
    let tracer = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut done = Vec::with_capacity(n);
    for (i, count) in setup_batches(n).into_iter().enumerate() {
        setups.extend(s.setups(count, (i == 0).then_some(started))?);
        done.push(s.round(&tracer, Some(expected))?);
    }
    let mut totals = Totals::default();
    for r in &done {
        totals.add(r);
    }
    for w in done.windows(2) {
        totals.check(w[0].digests == w[1].digests, || {
            "rounds disagree on their digests".to_string()
        });
    }
    let jobs: Vec<f64> = done.iter().flat_map(|r| r.job_ms.iter().copied()).collect();
    let jobs = if jobs.is_empty() { vec![0.0] } else { jobs };
    let adj_jobs: Vec<f64> = done
        .iter()
        .flat_map(|r| r.job_ms.iter().map(move |ms| ms / r.host.value()))
        .collect();
    let adj_jobs = if adj_jobs.is_empty() {
        vec![0.0]
    } else {
        adj_jobs
    };
    let t = tail(&jobs);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    let minstr_per_s = |r: &Round| r.instructions as f64 / r.wall_s / 1e6;
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setups), "s"),
        ("wall_adj_s", per_round(&|r| r.wall_s / r.host.value()), "s"),
        ("job_p50_adj_ms", median(&adj_jobs), "ms"),
        (
            "sim_adj_minstr_per_s",
            per_round(&|r| minstr_per_s(r) * r.host.value()),
            "Minstr/s",
        ),
    ];
    let failed_ratio = totals.failed as f64 / totals.attempted.max(1) as f64;
    let mut all = metrics.clone();
    all.extend([
        ("wall_s", per_round(&|r| r.wall_s), "s"),
        ("job_p50_ms", median(&jobs), "ms"),
        ("sim_minstr_per_s", per_round(&minstr_per_s), "Minstr/s"),
        ("host_index", per_round(&|r| r.host.value()), "ratio"),
        ("job_tail_ms", t.value, "ms"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ("failed_ratio", failed_ratio, "ratio"),
    ]);
    println!(
        "rmtbench {} seed {} ({} rounds, {} set-ups)",
        s.args.workload,
        s.args.seed,
        n,
        setups.len()
    );
    for &(name, value, unit) in &all {
        let note = match name {
            "job_tail_ms" => format!(
                "p{} of {} jobs ({} beyond)",
                t.percentile, t.samples, t.beyond
            ),
            "failed_ratio" => format!("{} of {} operations", totals.failed, totals.attempted),
            _ => String::new(),
        };
        print_metric(name, value, unit, &note);
    }
    for p in &totals.problems {
        println!("FAILED: {p}");
    }
    if s.args.emit_expected {
        print_expected(&s.args.workload, &done);
    }
    let setup_first_s = setups[0];
    let setup_spread = quartile_spread(&setups);
    println!(
        "{:28} {setup_first_s:>16.6} {:9} first set-up, from the start of main",
        "setup_first_s", "s"
    );
    println!(
        "{:28} {setup_spread:>16.6} {:9} IQR/median of the {} set-ups",
        "setup_spread",
        "ratio",
        setups.len()
    );
    let mut tail_o = JsonObject::new();
    tail_o
        .f64("percentile", t.percentile)
        .u64("samples", t.samples as u64)
        .u64("beyond", t.beyond as u64);
    let list = |f: &dyn Fn(&Round) -> f64| {
        let v: Vec<String> = done.iter().map(|r| f(r).to_string()).collect();
        format!("[{}]", v.join(","))
    };
    let mut o = JsonObject::new();
    o.u64("rounds", n as u64)
        .raw("round_wall_s", &list(&|r| r.wall_s))
        .raw("round_host_index", &list(&|r| r.host.value()))
        .raw("round_host_load", &list(&|r| r.host.load))
        .raw("round_host_arith", &list(&|r| r.host.arith))
        .u64("probe_samples", s.probe_samples as u64)
        .u64("setups", setups.len() as u64)
        .raw(
            "setup_samples_s",
            &format!(
                "[{}]",
                setups
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .f64("setup_first_s", setup_first_s)
        .f64("setup_spread", setup_spread)
        .raw("metrics", &metrics_json(&all))
        .raw("job_tail", &tail_o.finish())
        .raw("digests", &digests_json(&done))
        .u64("attempted", totals.attempted)
        .u64("failed", totals.failed);
    let correct = totals.failed == 0;
    Ok((
        o.finish(),
        result_line(correct, totals.attempted, totals.failed, &metrics),
        correct,
    ))
}

fn print_expected(workload: &str, rounds: &[Round]) {
    let mut table = JsonObject::new();
    if let Some(r) = rounds.first() {
        for (k, v) in &r.observed {
            table.str(k, v);
        }
    }
    let mut o = JsonObject::new();
    o.raw(workload, &table.finish());
    println!("expected {}", o.finish());
}

fn traced(s: &mut Session, expected: &Expected, out_dir: &Path) -> Outcome {
    let n = (rounds(&s.args.workload, s.args.seconds) / 2).max(1);
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut totals = Totals::default();
    let mut plain = Vec::new();
    for _ in 0..n {
        let r = s.round(&off, Some(expected))?;
        totals.add(&r);
        plain.push(r);
    }
    let stop = AtomicBool::new(false);
    let (traced_rounds, threads) = std::thread::scope(|sc| {
        let sampler = sc.spawn(|| layers::sample_threads(&stop));
        let rounds: Result<Vec<Round>, String> = (0..n)
            .map(|i| {
                on.span_n("rmtbench::round", 1, i as u64 + 1, || {
                    s.round(&on, Some(expected))
                })
            })
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (rounds, sampler.join().unwrap_or(0))
    });
    let traced_rounds = traced_rounds?;
    for r in &traced_rounds {
        totals.add(r);
    }
    totals.check(
        plain
            .iter()
            .chain(&traced_rounds)
            .all(|r| r.digests == plain[0].digests),
        || "a traced round's digests differ from the untraced round's".to_string(),
    );
    let overhead_s = median(&traced_rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
        - median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let probe_dir = s.ctx().dir;
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("cannot create {probe_dir:?}: {e}"))?;
    let probe = layers::run_probes(&on, &probe_dir, s.args.seed, s.workers);
    totals.add(&probe.checks);

    let spans = on.spans();
    let _ = std::fs::create_dir_all(out_dir);
    let span_file = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        s.args.workload, s.args.seed
    ));
    let _ = std::fs::write(&span_file, trace::to_jsonl(&spans));

    let own: LayerObs = traced_rounds
        .last()
        .map(|r| r.layer.clone())
        .unwrap_or_default();
    let values = layers::metrics(&spans, &probe, &own, threads, overhead_s);
    let units: BTreeMap<&str, &str> = layers::METRICS.iter().copied().collect();
    println!(
        "rmtbench {} seed {} traced ({n} untraced + {n} traced rounds, then layer probes)",
        s.args.workload, s.args.seed
    );
    for &(name, value, src) in &values {
        let mut note = match src {
            Source::Probe => "probe".to_string(),
            Source::Workload => "workload".to_string(),
        };
        if let Some(n) = layers::note(name) {
            note = format!("{note}; {n}");
        }
        print_metric(name, value, units[name], &note);
    }
    println!("spans ({}): {}", spans.len(), span_file.display());
    for (name, t) in trace::totals_by_name(&spans) {
        println!(
            "  {name:44} spans {:6} items {:9} self {:12.3} ms",
            t.spans,
            t.count,
            t.self_ns as f64 / 1e6
        );
    }
    for p in &totals.problems {
        println!("FAILED: {p}");
    }
    let metrics: Vec<(&str, f64, &str)> =
        values.iter().map(|&(n, v, _)| (n, v, units[n])).collect();
    let mut sources = JsonObject::new();
    for &(name, _, src) in &values {
        sources.str(
            name,
            if src == Source::Probe {
                "probe"
            } else {
                "workload"
            },
        );
    }
    let mut notes = JsonObject::new();
    for &(name, _, _) in &values {
        if let Some(n) = layers::note(name) {
            notes.str(name, &n);
        }
    }
    let mut o = JsonObject::new();
    o.u64("rounds", n as u64)
        .raw("metrics", &metrics_json(&metrics))
        .raw("sources", &sources.finish())
        .raw("notes", &notes.finish())
        .raw("digests", &digests_json(&plain))
        .u64("spans", spans.len() as u64)
        .u64("attempted", totals.attempted)
        .u64("failed", totals.failed);
    let correct = totals.failed == 0;
    Ok((
        o.finish(),
        result_line(correct, totals.attempted, totals.failed, &metrics),
        correct,
    ))
}
