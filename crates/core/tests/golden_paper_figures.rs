//! Golden-file tests pinning the paper-figure outputs.
//!
//! Two layers of pinning:
//!
//! 1. Quick-scale runs of fig4, fig5, fig6, fig7, the iso-thermal
//!    search, the §4 heterogeneous die, the Fig. 1 summary and the DTM
//!    study, compared byte-for-byte against committed
//!    golden files under `tests/golden/`. Any change to the simulator,
//!    power, or thermal stack that moves a figure shows up as a diff
//!    here. To accept an intentional change, regenerate with
//!    `RMT3D_BLESS=1 cargo test -p rmt3d --test golden_paper_figures`
//!    and review the diff.
//! 2. The committed full-scale artifact `paper_results.txt`: the
//!    headline figure lines are pinned literally, and the numbers that
//!    appear in more than one figure (the 2d-a baseline, the 7 W and
//!    15 W suite means) are cross-checked for consistency.

use rmt3d::experiments::{dtm, fig4, fig5, fig6, fig7, heterogeneous, iso_thermal, rmt_summary};
use rmt3d::{RunScale, SerialSimulator};
use rmt3d_units::Celsius;
use rmt3d_workload::Benchmark;
use std::path::PathBuf;

/// The quick golden runs pin one benchmark: goldens exist to catch
/// numeric drift, and one deterministic profile drifts as loudly as
/// nineteen.
const BENCHMARKS: [Benchmark; 1] = [Benchmark::Gzip];

/// Smaller than [`RunScale::quick`]: the goldens pin determinism, not
/// statistical fidelity, and the iso-thermal search alone runs a dozen
/// simulations.
fn golden_scale() -> RunScale {
    RunScale {
        warmup_instructions: 10_000,
        instructions: 40_000,
        thermal_grid: 25,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden file, or rewrites the
/// file when `RMT3D_BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("RMT3D_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (regenerate with RMT3D_BLESS=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, regenerate \
         with RMT3D_BLESS=1 and review the diff"
    );
}

#[test]
fn fig4_quick_output_matches_golden() {
    let r = fig4::run_with(&SerialSimulator, &BENCHMARKS, golden_scale()).expect("fig4");
    assert_golden("fig4_quick.txt", &r.to_table());
}

#[test]
fn fig5_quick_output_matches_golden() {
    let r = fig5::run_with(&SerialSimulator, &BENCHMARKS, golden_scale()).expect("fig5");
    assert_golden("fig5_quick.txt", &r.to_table());
}

#[test]
fn iso_thermal_quick_output_matches_golden() {
    let mut out = String::new();
    for w in [7.0, 15.0] {
        let p = iso_thermal::run_with(&SerialSimulator, w, &BENCHMARKS, golden_scale())
            .expect("iso-thermal");
        out.push_str(&format!(
            "{:4.0} W checker: {:.2} GHz to match 2d-a ({:.1} C), perf loss {:.1}%\n",
            w,
            p.matched_frequency.value(),
            p.baseline_temp.0,
            100.0 * p.performance_loss,
        ));
    }
    assert_golden("iso_thermal_quick.txt", &out);
}

#[test]
fn fig6_quick_output_matches_golden() {
    let r = fig6::run_with(&SerialSimulator, &BENCHMARKS, golden_scale());
    assert_golden("fig6_quick.txt", &r.to_table());
}

#[test]
fn fig7_quick_output_matches_golden() {
    let r = fig7::run_with(&SerialSimulator, &BENCHMARKS, golden_scale());
    assert_golden("fig7_quick.txt", &r.to_table());
}

#[test]
fn heterogeneous_quick_output_matches_golden() {
    let r = heterogeneous::run_with(&SerialSimulator, &BENCHMARKS, golden_scale())
        .expect("heterogeneous");
    assert_golden("heterogeneous_quick.txt", &r.to_table());
}

#[test]
fn rmt_summary_quick_output_matches_golden() {
    let r = rmt_summary::run_with(&SerialSimulator, &BENCHMARKS, golden_scale());
    assert_golden("rmt_summary_quick.txt", &r.to_table());
}

#[test]
fn dtm_quick_output_matches_golden() {
    let r =
        dtm::run_with(&SerialSimulator, Celsius(82.0), &BENCHMARKS, golden_scale()).expect("dtm");
    assert_golden("dtm_quick.txt", &r.to_table());
}

/// The committed full-scale artifact, pinned literally: these are the
/// numbers the README and the paper comparison quote.
#[test]
fn paper_results_figure_lines_are_pinned() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../paper_results.txt"),
    )
    .expect("paper_results.txt at repo root");
    for line in [
        // Fig. 4: thermal overhead at the design point and the extremes.
        "      7.0       77.0       80.5",
        "     15.0       79.2       86.5",
        "variants @7W: default 80.5, inactive-Si 77.5, corner 79.8, dense 84.4",
        // Fig. 5: suite-mean peak temperatures.
        "suite means: 2d-a 75.5, 2d-2a@7 77.0, 3d-2a@7 80.5, 2d-2a@15 79.2, 3d-2a@15 86.5",
        // Sec 3.3: iso-thermal operating points.
        "   7 W checker: 1.86 GHz to match 2d-a (75.5 C), perf loss 7.0%",
        "  15 W checker: 1.74 GHz to match 2d-a (75.5 C), perf loss 13.0%",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "paper_results.txt lost pinned figure line: {line:?}"
        );
    }
}

/// Numbers quoted by more than one figure must agree with each other:
/// the 2d-a baseline and the 7 W / 15 W suite means each appear in
/// Fig. 4, Fig. 5, and the iso-thermal section.
#[test]
fn paper_results_figures_are_mutually_consistent() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../paper_results.txt"),
    )
    .expect("paper_results.txt at repo root");

    // Fig. 4 quotes the 2d-a baseline in its header.
    let fig4_baseline = between(&text, "[2d-a baseline ", " C]");
    // Fig. 5 reports it as the first suite mean.
    let fig5_means = text
        .lines()
        .find(|l| l.starts_with("suite means: 2d-a "))
        .expect("fig5 suite means line");
    let fig5_baseline = between(fig5_means, "2d-a ", ",");
    assert_eq!(fig4_baseline, fig5_baseline, "2d-a baseline disagrees");
    // The iso-thermal search targets the same baseline.
    for line in text.lines().filter(|l| l.contains("to match 2d-a (")) {
        assert_eq!(between(line, "2d-a (", " C)"), fig4_baseline, "{line}");
    }

    // The fig4 7 W row equals fig5's 7 W suite means, and likewise at
    // the 15 W thermal budget.
    for (row_prefix, w) in [("      7.0 ", 7), ("     15.0 ", 15)] {
        let row = text
            .lines()
            .find(|l| l.starts_with(row_prefix))
            .unwrap_or_else(|| panic!("fig4 {w} W row"));
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols.len(), 3, "{row}");
        assert_eq!(
            between(fig5_means, &format!("2d-2a@{w} "), ","),
            cols[1],
            "2d-2a at {w} W disagrees between fig4 and fig5"
        );
        let mean_3d = between(fig5_means, &format!("3d-2a@{w} "), ",");
        assert_eq!(
            mean_3d, cols[2],
            "3d-2a at {w} W disagrees between fig4 and fig5"
        );
    }
}

/// The substring of `text` between the first `start` and the next
/// `end` (with an end-of-line fallback for the last field on a line).
fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let from = text
        .find(start)
        .unwrap_or_else(|| panic!("missing {start:?}"))
        + start.len();
    let rest = &text[from..];
    let to = rest
        .find(end)
        .or_else(|| rest.find('\n'))
        .unwrap_or(rest.len());
    rest[..to].trim()
}
