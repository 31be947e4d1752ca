//! Benchmark-harness crate: see `benches/` for its two targets.
//!
//! * `benches/gate.rs` — the perf-regression gate's timed simulations
//!   and exact stats.
//! * `benches/sweep.rs` — serial vs parallel sweep wall time and cached
//!   replay.
//!
//! The paper's tables and figures come from `rmt3d experiment <name>
//! [--paper]` and the `paper_run` example, not from here.
//!
//! The harness is a self-contained `std::time::Instant` timing loop
//! (no external benchmarking dependency): each target runs a warmup
//! pass, then `samples` timed passes, and reports min / mean / max
//! wall time per iteration.
//!
//! Set `RMT3D_BENCH_JSON=path` to additionally append one JSON-lines
//! record per target — `{"name", "min", "mean", "max", "samples"}`,
//! times in nanoseconds — so CI can diff runs machine-readably.

use rmt3d_obs::durable::AppendLog;
use rmt3d_telemetry::json::json_str;
use std::path::Path;
use std::time::Instant;

/// Times `f` over `samples` passes (after one warmup pass) and prints a
/// one-line `min/mean/max` summary. Returns the mean nanoseconds per
/// pass so callers can assert coarse regressions if they wish.
pub fn bench<R>(name: &str, samples: u32, mut f: impl FnMut() -> R) -> f64 {
    assert!(samples > 0, "need at least one sample");
    std::hint::black_box(f());
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut total = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as f64;
        min = min.min(ns);
        max = max.max(ns);
        total += ns;
    }
    let mean = total / samples as f64;
    println!(
        "{name:40} {:>12} min {:>12} mean {:>12} max  ({samples} samples)",
        format_ns(min),
        format_ns(mean),
        format_ns(max)
    );
    if let Ok(path) = std::env::var("RMT3D_BENCH_JSON") {
        if let Err(e) = append_json_record(&path, name, min, mean, max, samples) {
            eprintln!("warning: cannot append bench record to {path}: {e}");
        }
    }
    mean
}

/// Records a deterministic statistic (cycle counts, committed
/// instructions, …) alongside the wall-clock records. Stats must be
/// bit-identical across runs on any machine, so the perf-regression
/// gate compares them exactly while wall times get a tolerance.
/// Appends `{"name", "stat"}` to `RMT3D_BENCH_JSON` when set.
pub fn record_stat(name: &str, value: f64) {
    println!("{name:40} {value:>12} (deterministic stat)");
    if let Ok(path) = std::env::var("RMT3D_BENCH_JSON") {
        if let Err(e) = append_stat_record(&path, name, value) {
            eprintln!("warning: cannot append stat record to {path}: {e}");
        }
    }
}

fn append_stat_record(path: &str, name: &str, value: f64) -> std::io::Result<()> {
    AppendLog::open(Path::new(path))?
        .append(&format!("{{\"name\":{},\"stat\":{value}}}", json_str(name)))
}

/// Appends one `{"name", "min", "mean", "max", "samples"}` record to
/// the JSONL file at `path` (created on first use).
fn append_json_record(
    path: &str,
    name: &str,
    min: f64,
    mean: f64,
    max: f64,
    samples: u32,
) -> std::io::Result<()> {
    let name = json_str(name);
    AppendLog::open(Path::new(path))?.append(&format!(
        "{{\"name\":{name},\"min\":{min},\"mean\":{mean},\"max\":{max},\"samples\":{samples}}}"
    ))
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_mean() {
        let mean = bench("noop_spin", 3, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(mean > 0.0);
    }

    #[test]
    fn json_mode_appends_parseable_records() {
        let path =
            std::env::temp_dir().join(format!("rmt3d-bench-json-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_json_record(path.to_str().unwrap(), "spin \"q\"", 10.0, 20.5, 31.0, 3).unwrap();
        append_json_record(path.to_str().unwrap(), "second", 1.0, 2.0, 3.0, 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"name\":\"spin \\\"q\\\"\",\"min\":10,\"mean\":20.5,\"max\":31,\"samples\":3}"
        );
        assert!(lines[1].contains("\"name\":\"second\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stat_records_are_parseable_and_exact() {
        let path =
            std::env::temp_dir().join(format!("rmt3d-bench-stat-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_stat_record(
            path.to_str().unwrap(),
            "gate/2d-a/gzip/total_cycles",
            48123.0,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"gate/2d-a/gzip/total_cycles\",\"stat\":48123}\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn formats_scale() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("us"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with(" s"));
    }
}
