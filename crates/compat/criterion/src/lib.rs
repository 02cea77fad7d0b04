//! Offline stand-in for the `criterion` crate.
//!
//! Mirrors the subset of criterion's API the workspace benches use —
//! `Criterion`, `benchmark_group`, `bench_function`, `Bencher::iter` /
//! `iter_batched`, `Throughput`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros — but measures with a plain wall-clock loop:
//! a short warm-up, then timed batches until a small time budget is spent.
//! It prints one line per benchmark (mean ns/iter and, when a throughput
//! was declared, derived elements/sec). No plots, no statistics files.

use std::time::{Duration, Instant};

/// How per-iteration setup state is grouped; accepted for API parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is cheap to hold; batches may be large.
    SmallInput,
    /// Setup output is large; keep batches small.
    LargeInput,
    /// One setup call per timed call.
    PerIteration,
}

/// Declared work per iteration, used to derive a rate in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// Timing loop handed to each benchmark closure.
pub struct Bencher {
    total: Duration,
    iters: u64,
    budget: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Self {
            total: Duration::ZERO,
            iters: 0,
            budget,
        }
    }

    /// Time `routine` repeatedly until the budget is spent.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // warm-up: one untimed call
        let _ = routine();
        let mut batch = 1u64;
        while self.total < self.budget {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.total += start.elapsed();
            self.iters += batch;
            batch = batch.saturating_mul(2).min(1 << 20);
        }
    }

    /// Time `routine` over fresh `setup()` outputs; setup is untimed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let _ = routine(setup());
        while self.total < self.budget {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.total += start.elapsed();
            self.iters += 1;
        }
    }

    fn mean_ns(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        self.total.as_nanos() as f64 / self.iters as f64
    }
}

/// Top-level harness handle.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Small budget per benchmark keeps full-suite runs quick; override
        // with QLB_BENCH_MS for more stable numbers.
        let ms = std::env::var("QLB_BENCH_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(60);
        Self {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.as_ref().to_string(),
            throughput: None,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        run_one(self.budget, name.as_ref(), None, f);
        self
    }
}

/// A named group; prefixes each benchmark's report line.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration work for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API parity; the wall-clock loop has no sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.as_ref());
        run_one(self.criterion.budget, &full, self.throughput, f);
        self
    }

    /// End the group (no-op; provided for API parity).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    budget: Duration,
    name: &str,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher::new(budget);
    f(&mut b);
    let mean = b.mean_ns();
    match throughput {
        Some(Throughput::Elements(n)) if mean > 0.0 => {
            let rate = n as f64 * 1e9 / mean;
            println!("bench {name:<48} {mean:>14.1} ns/iter  {rate:>14.0} elem/s");
        }
        Some(Throughput::Bytes(n)) if mean > 0.0 => {
            let rate = n as f64 * 1e9 / mean;
            println!("bench {name:<48} {mean:>14.1} ns/iter  {rate:>14.0} B/s");
        }
        _ => println!("bench {name:<48} {mean:>14.1} ns/iter"),
    }
}

/// Bundle benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion {
            budget: Duration::from_millis(2),
        };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(4)).sample_size(10);
        let mut calls = 0u64;
        g.bench_function("inc", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        g.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u32, 2, 3],
                |v| v.iter().sum::<u32>(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
        assert!(calls > 0);
    }
}
