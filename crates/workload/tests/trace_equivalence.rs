//! A shared [`Trace`] yields exactly the stream of a fresh
//! [`TraceGenerator`], inside its shared ops and past their end, for
//! every benchmark, and a clone continues from where it was taken.

use rmt3d_workload::{Benchmark, MicroOp, Trace, TraceGenerator};

/// `n` ops of a fresh generator for `b`.
fn generated(b: Benchmark, n: usize) -> Vec<MicroOp> {
    TraceGenerator::new(b.profile()).take_ops(n)
}

/// The next `n` ops of `trace`.
fn draw(trace: &mut Trace, n: usize) -> Vec<MicroOp> {
    (0..n).map(|_| trace.next_op()).collect()
}

#[test]
fn a_cursor_over_a_trace_of_any_length_yields_the_generator_stream() {
    for b in Benchmark::ALL {
        for len in [0, 1, 1000] {
            let n = 3 * len + 64;
            let cursor = draw(&mut Trace::new(b.profile(), len), n);
            assert!(cursor == generated(b, n), "{b} over a trace of {len}");
        }
    }
}

#[test]
fn a_clone_continues_identically_mid_trace_and_past_the_end() {
    const LEN: usize = 1000;
    for b in Benchmark::ALL {
        let expected = generated(b, 3 * LEN + 64);
        for at in [0, 1, LEN / 2, LEN - 1, LEN, LEN + 1, 2 * LEN] {
            let mut original = Trace::new(b.profile(), LEN);
            for _ in 0..at {
                original.next_op();
            }
            let mut clone = original.clone();
            let rest = expected.len() - at;
            let from_clone = draw(&mut clone, rest);
            let from_original = draw(&mut original, rest);
            assert!(from_clone == expected[at..], "{b}: clone taken at {at}");
            assert!(
                from_original == expected[at..],
                "{b}: original after a clone at {at}"
            );
        }
    }
}

#[test]
fn a_generator_converts_to_a_trace_that_continues_it() {
    let mut gen = TraceGenerator::new(Benchmark::Gzip.profile());
    gen.take_ops(10);
    let ops = draw(&mut Trace::from(gen), 100);
    assert!(ops == generated(Benchmark::Gzip, 110)[10..]);
}
