//! The §4 heterogeneity study: fabricate the checker die at 90 nm.
//!
//! Prints the power remap (Table 8 arithmetic), frequency cap, thermal
//! comparison, and the reliability upside (variability, SER, MBU).
//!
//! ```sh
//! cargo run --release --example heterogeneous_die
//! ```

use rmt3d::experiments::{heterogeneous, tables};
use rmt3d::reliability::{mbu_probability_at, per_bit_ser, variability, TimingModel};
use rmt3d::{RunScale, SerialSimulator};
use rmt3d_units::TechNode;
use rmt3d_workload::Benchmark;

fn main() {
    println!("== Sec 4: heterogeneous (90 nm) checker die ==\n");
    print!("{}", tables::table7_text());
    println!();
    print!("{}", tables::table8_text());
    println!();

    let scale = RunScale {
        warmup_instructions: 50_000,
        instructions: 300_000,
        thermal_grid: 50,
    };
    let report = heterogeneous::run_with(
        &SerialSimulator,
        &[Benchmark::Gzip, Benchmark::Swim, Benchmark::Vpr],
        scale,
    )
    .expect("heterogeneous study");
    print!("{}", report.to_table());

    println!("\n== reliability upside of the older process ==");
    for node in [TechNode::N65, TechNode::N90] {
        let v = variability(node);
        println!(
            "{node}: perf variability ±{:.0}%, per-bit SER {:.2}, MBU prob {:.3}, \
             stage-error prob at 0.6f {:.2e}",
            v.performance * 100.0,
            per_bit_ser(node).total(),
            mbu_probability_at(node),
            TimingModel::for_node(node).stage_error_probability(0.6)
        );
    }
}
