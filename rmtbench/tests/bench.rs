//! Tests of the benchmark's own code on tiny rounds.

use rmt3d::telemetry::json::{parse, JsonValue};
use rmtbench::layers;
use rmtbench::runner::{self, END_TO_END, RECORDED_ONLY};
use rmtbench::trace::Tracer;
use rmtbench::workloads::{self, Ctx, Round, Size};
use std::path::PathBuf;

fn tiny_round(workload: &str, seed: u64, traced: bool, tag: &str) -> (Round, usize) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = Ctx {
        seed,
        dir: dir.clone(),
        workers: 2,
        clients: 2,
        size: Size::Tiny,
    };
    let tracer = Tracer::new(traced);
    let round = workloads::prepare(workload, &ctx)
        .expect("tiny set-up succeeds")
        .run(&tracer, None);
    let _ = std::fs::remove_dir_all(&dir);
    (round, tracer.spans().len())
}

#[test]
fn traced_rounds_yield_the_untraced_digests() {
    for w in workloads::NAMES {
        let (plain, no_spans) = tiny_round(w, 5, false, "plain");
        let (traced, spans) = tiny_round(w, 5, true, "traced");
        assert_eq!(plain.failed, 0, "{w}: {:?}", plain.problems);
        assert_eq!(traced.failed, 0, "{w}: {:?}", traced.problems);
        assert!(!plain.digests.is_empty(), "{w} produced no digest");
        assert_eq!(
            plain.digests, traced.digests,
            "{w}: observing changed the results"
        );
        assert_eq!(plain.observed, traced.observed, "{w}");
        assert_eq!(no_spans, 0);
        assert!(spans > 0, "{w}: traced round recorded no span");
    }
}

#[test]
fn seed_only_reorders_the_fixed_workloads() {
    // The sweep, Fig. 4 and daemon inputs are fixed by the paper; the
    // seed permutes the order they run in, so their digests hold on
    // every seed. The campaign draws its fault grid from the seed.
    for w in ["sweep-cold", "thermal-fig4", "daemon-mixed"] {
        let (a, _) = tiny_round(w, 1, false, "s1");
        let (b, _) = tiny_round(w, 2, false, "s2");
        assert_eq!(a.digests, b.digests, "{w}");
    }
    let (a, _) = tiny_round("campaign-journaled", 1, false, "s1");
    let (b, _) = tiny_round("campaign-journaled", 2, false, "s2");
    assert_ne!(a.digests, b.digests);
}

fn valid_name(n: &str) -> bool {
    let mut chars = n.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn names_in(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_printed_metric_has_a_valid_name_and_unit_and_is_declared() {
    let printed: Vec<(&str, &str)> = END_TO_END
        .iter()
        .chain(RECORDED_ONLY.iter())
        .chain(layers::METRICS.iter())
        .copied()
        .collect();
    let mut names: Vec<&str> = printed.iter().map(|(n, _)| *n).collect();
    for (n, u) in &printed {
        assert!(valid_name(n), "bad metric name {n:?}");
        assert!(valid_unit(u), "bad unit {u:?} of {n}");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), printed.len(), "a metric name is used twice");

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_in(&bench, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_in(&bench, "per_layer"), own(&layers::METRICS));
    let Some(JsonValue::Arr(gated)) = bench.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    for w in gated {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap();
        assert!(workloads::NAMES.contains(&name), "unknown workload {name}");
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let metrics: Vec<(&str, f64, &str)> = END_TO_END.iter().map(|&(n, u)| (n, 1.25, u)).collect();
    let line = runner::result_line(true, 10, 0, &metrics);
    let JsonValue::Obj(top) = parse(&line).unwrap() else {
        panic!("not an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let JsonValue::Obj(m) = &top["metrics"] else {
        panic!("metrics is not an object");
    };
    assert_eq!(m.len(), END_TO_END.len());
    for (name, unit) in END_TO_END {
        assert_eq!(m[name].get("unit").and_then(JsonValue::as_str), Some(unit));
        assert_eq!(m[name].get("value").and_then(JsonValue::as_f64), Some(1.25));
    }
}

#[test]
fn arguments_are_checked() {
    let args =
        |v: &[&str]| runner::parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let ok = args(&[
        "--workload",
        "sweep-cold",
        "--seed",
        "3",
        "--seconds",
        "20",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 20, true));
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--workload", "sweep-cold", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "sweep-cold", "--seed"]).is_err());
    assert!(args(&["--workload", "sweep-cold", "--bogus", "1"]).is_err());
}

#[test]
fn set_ups_are_spread_over_the_rounds() {
    for rounds in [1, 2, 4, 6, 25, 32, 100] {
        let batches = runner::setup_batches(rounds);
        assert_eq!(batches.len(), rounds);
        assert_eq!(batches.iter().sum::<usize>(), runner::SETUP_SAMPLES);
        assert!(
            batches[0] >= 1,
            "{rounds} rounds: no set-up before the first"
        );
        let (lo, hi) = (batches.iter().min(), batches.iter().max());
        assert!(
            hi.unwrap() - lo.unwrap() <= 1,
            "{rounds} rounds: {batches:?}"
        );
    }
}

#[test]
fn every_run_makes_at_least_one_round() {
    for w in workloads::NAMES {
        assert_eq!(runner::rounds(w, 1), 1);
        assert!(runner::rounds(w, 60) >= runner::rounds(w, 20));
    }
}
