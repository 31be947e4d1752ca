//! Design-space sweep: regenerates the paper's headline comparisons —
//! the Fig. 4 thermal sweep, the Fig. 6 performance comparison, and the
//! §3.3 iso-thermal operating points — at a configurable scale.
//!
//! ```sh
//! cargo run --release --example design_space [--paper]
//! ```
//!
//! `--paper` runs all 19 benchmarks at full scale (several minutes);
//! the default uses a representative subset.

use rmt3d::experiments::{fig4, fig6, iso_thermal};
use rmt3d::{RunScale, SerialSimulator};
use rmt3d_workload::Benchmark;

fn main() {
    let full = std::env::args().any(|a| a == "--paper");
    let (benchmarks, scale): (Vec<Benchmark>, RunScale) = if full {
        (Benchmark::ALL.to_vec(), RunScale::paper())
    } else {
        (
            vec![
                Benchmark::Gzip,
                Benchmark::Mcf,
                Benchmark::Swim,
                Benchmark::Eon,
                Benchmark::Art,
            ],
            RunScale {
                warmup_instructions: 50_000,
                instructions: 300_000,
                thermal_grid: 50,
            },
        )
    };

    println!("== Fig. 6: performance across processor models ==");
    let f6 = fig6::run_with(&SerialSimulator, &benchmarks, scale);
    print!("{}", f6.to_table());
    println!("\nIPC chart (2d-a | 3d-2a):");
    let labels: Vec<&str> = f6.rows.iter().map(|r| r.benchmark.name()).collect();
    let values: Vec<Vec<f64>> = f6
        .rows
        .iter()
        .map(|r| vec![r.two_d_a, r.three_d_2a])
        .collect();
    print!(
        "{}",
        rmt3d::report::grouped_chart(&labels, &["2d-a", "3d-2a"], &values, 40)
    );

    println!("\n== Fig. 4: thermal overhead vs. checker power ==");
    let f4 = fig4::run_with(&SerialSimulator, &benchmarks, scale).expect("fig4");
    print!("{}", f4.to_table());
    println!("3d-2a temperature rise over 2d-a:");
    let rise: Vec<(String, f64)> = f4
        .points
        .iter()
        .map(|p| {
            (
                format!("{:.0}W", p.checker_power.0),
                (p.three_d_2a - f4.baseline_2d_a).0,
            )
        })
        .collect();
    let rise_refs: Vec<(&str, f64)> = rise.iter().map(|(s, v)| (s.as_str(), *v)).collect();
    print!("{}", rmt3d::report::bar_chart(&rise_refs, 40));

    println!("\n== Sec 3.3: iso-thermal operating points ==");
    for w in [7.0, 15.0] {
        let p =
            iso_thermal::run_with(&SerialSimulator, w, &benchmarks, scale).expect("iso-thermal");
        println!(
            "{:4.0} W checker: match 2d-a thermals ({:.1} C) at {:.2} GHz, perf loss {:.1}%",
            w,
            p.baseline_temp.0,
            p.matched_frequency.value(),
            100.0 * p.performance_loss
        );
    }
}
