//! Micro-benchmarks: [`stopwatch`], the plain timing loop behind the
//! `benches/` targets. They print times and gate nothing; the timing
//! gate is the repo benchmark under `benchmark/`.
//!
//! The figures of the paper's evaluation and the extension experiments
//! are `pgrid figure NAME` (`crates/cli`), which owns their tables, CSVs
//! and SVGs.

#![forbid(unsafe_code)]

/// Minimal timing harness for the `benches/` targets — a plain
/// stopwatch loop (no external benchmark framework, so the workspace
/// builds fully offline).
pub mod stopwatch {
    use std::time::Instant;

    /// Wall-clock and per-iteration stats of one measured case.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Case label, e.g. `"can/route_1000_nodes_11d"`.
        pub label: String,
        /// Iterations timed.
        pub iters: u64,
        /// Total wall-clock across all iterations, in seconds.
        pub total_secs: f64,
        /// Mean seconds per iteration.
        pub secs_per_iter: f64,
    }

    impl Measurement {
        /// One-line human rendering (`label  mean/iter  total`).
        pub fn render(&self) -> String {
            format!(
                "{:<44} {:>12}  ({} iters, {:.3} s total)",
                self.label,
                human_duration(self.secs_per_iter),
                self.iters,
                self.total_secs
            )
        }
    }

    /// Formats a duration in adaptive units (ns/µs/ms/s).
    pub fn human_duration(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1} ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2} µs", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:.2} ms", secs * 1e3)
        } else {
            format!("{secs:.3} s")
        }
    }

    /// Times `iters` calls of `f` (after one untimed warm-up call) and
    /// prints + returns the measurement. `f`'s return value is passed
    /// through `std::hint::black_box` so the work can't be optimised
    /// away.
    pub fn bench<R>(label: &str, iters: u64, mut f: impl FnMut() -> R) -> Measurement {
        assert!(iters > 0);
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        record(label, iters, start.elapsed().as_secs_f64())
    }

    /// Prints + returns a measurement timed by the caller: `iters`
    /// units of work (ticks, hops, messages) in `total_secs`. For cells
    /// whose timed work is interleaved with untimed setup.
    pub fn record(label: &str, iters: u64, total_secs: f64) -> Measurement {
        assert!(iters > 0);
        let m = Measurement {
            label: label.to_string(),
            iters,
            total_secs,
            secs_per_iter: total_secs / iters as f64,
        };
        println!("{}", m.render());
        m
    }
}
