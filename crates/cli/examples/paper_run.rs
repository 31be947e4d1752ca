//! Full reproduction run: every table and figure, all 19 benchmarks.
//!
//! ```sh
//! cargo run --release -p rmt3d-cli --example paper_run | tee paper_results.txt
//! ```
//!
//! Takes about 3.5 minutes (207 s) on a 2-vCPU Xeon VM, most of it in
//! single-threaded thermal solves. Every section's simulations run on
//! the `rmt3d-sweep` parallel engine, one worker per available core;
//! stdout is the same with one worker. `EXPERIMENTS.md` records the run
//! against the paper's numbers, and CI `cmp`s stdout with the committed
//! `paper_results.txt`.

use rmt3d::experiments::{
    fig4, fig5, fig6, fig7, heterogeneous, interconnect, iso_thermal, rmt_summary, tables,
};
use rmt3d::RunScale;
use rmt3d_reliability::{critical_charge_fc, mbu_probability_at, per_bit_ser, relative_chip_ser};
use rmt3d_sweep::ParallelSimulator;
use rmt3d_units::TechNode;
use rmt3d_workload::Benchmark;

fn main() {
    let scale = RunScale {
        warmup_instructions: 100_000,
        instructions: 500_000,
        thermal_grid: 50,
    };
    let all = Benchmark::ALL;
    // One worker per core; results are bit-identical to the serial run.
    let sim = ParallelSimulator::new(0);

    println!("==== rmt3d full reproduction run ====");
    println!(
        "scale: {} instructions/benchmark, {}x{} thermal grid, 19 benchmarks\n",
        scale.instructions, scale.thermal_grid, scale.thermal_grid
    );

    println!("{}", tables::table4_text());
    println!("{}", tables::table5_text());
    println!("{}", tables::table6_text());
    println!("{}", tables::table7_text());
    println!("{}", tables::table8_text());

    println!("== Fig. 8: SRAM SER scaling ==");
    println!("node    neutron  alpha  per-bit  chip-relative");
    for n in [TechNode::N180, TechNode::N130, TechNode::N90, TechNode::N65] {
        let s = per_bit_ser(n);
        println!(
            "{:7} {:7.2} {:6.2} {:8.2} {:10.2}",
            n.to_string(),
            s.neutron,
            s.alpha,
            s.total(),
            relative_chip_ser(n)
        );
    }
    println!("\n== Fig. 9: MBU probability vs critical charge ==");
    for n in TechNode::ALL {
        println!(
            "{:7} Qcrit {:4.1} fC  P(MBU) {:.4}",
            n.to_string(),
            critical_charge_fc(n),
            mbu_probability_at(n)
        );
    }

    println!("\n== Fig. 6 (full suite) ==");
    let f6 = fig6::run_with(&sim, &all, scale);
    print!("{}", f6.to_table());

    println!("\n== Fig. 7 (full suite) ==");
    let f7 = fig7::run_with(&sim, &all, scale);
    print!("{}", f7.to_table());
    println!(
        "timing-error improvement vs full speed: {:.0}x (65nm), {:.0}x (90nm)",
        f7.timing_error_improvement(TechNode::N65, 12),
        f7.timing_error_improvement(TechNode::N90, 12)
    );

    println!("\n== Fig. 5 (full suite) ==");
    let f5 = fig5::run_with(&sim, &all, scale).expect("fig5");
    print!("{}", f5.to_table());
    println!(
        "suite means: 2d-a {:.1}, 2d-2a@7 {:.1}, 3d-2a@7 {:.1}, 2d-2a@15 {:.1}, 3d-2a@15 {:.1}",
        f5.mean_baseline().0,
        f5.mean_of(|r| r.two_d_2a_7w).0,
        f5.mean_of(|r| r.three_d_2a_7w).0,
        f5.mean_of(|r| r.two_d_2a_15w).0,
        f5.mean_of(|r| r.three_d_2a_15w).0
    );

    println!("\n== Fig. 4 (full suite) ==");
    let f4 = fig4::run_with(&sim, &all, scale).expect("fig4");
    print!("{}", f4.to_table());

    println!("\n== Sec 3.3: iso-thermal ==");
    for w in [7.0, 15.0] {
        let p = iso_thermal::run_with(&sim, w, &all, scale).expect("iso-thermal");
        println!(
            "{:4.0} W checker: {:.2} GHz to match 2d-a ({:.1} C), perf loss {:.1}%",
            w,
            p.matched_frequency.value(),
            p.baseline_temp.0,
            100.0 * p.performance_loss
        );
    }

    println!("\n== Sec 3.4: interconnect ==");
    print!("{}", interconnect::run().to_table());

    println!("\n== Sec 4: heterogeneous die ==");
    print!(
        "{}",
        heterogeneous::run_with(&sim, &all, scale)
            .expect("hetero")
            .to_table()
    );

    println!("\n== Fig. 1 summary ==");
    print!("{}", rmt_summary::run_with(&sim, &all, scale).to_table());
}
