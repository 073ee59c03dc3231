//! A small benchmarking harness: warmup, bounded sampling, percentile
//! reporting.
//!
//! The surface intentionally mirrors the criterion API the `benches/`
//! targets were written against (`Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, and the
//! [`criterion_group!`](crate::criterion_group)/
//! [`criterion_main!`](crate::criterion_main) macros), so benchmark
//! code reads the same while running entirely on `std`.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver. One per process; groups hang off it.
#[derive(Debug)]
pub struct Criterion {
    defaults: SamplingConfig,
}

#[derive(Debug, Clone, Copy)]
struct SamplingConfig {
    sample_size: usize,
    warmup_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            defaults: SamplingConfig {
                sample_size: 50,
                warmup_time: Duration::from_millis(150),
                measurement_time: Duration::from_secs(2),
            },
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n-- {name} --");
        BenchmarkGroup {
            group_name: name.to_string(),
            config: self.defaults,
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, self.defaults, &mut routine);
    }
}

/// A group of benchmarks sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    group_name: String,
    config: SamplingConfig,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.config.sample_size = samples.max(1);
        self
    }

    /// Bounds the total sampling time per benchmark.
    pub fn measurement_time(&mut self, time: Duration) -> &mut Self {
        self.config.measurement_time = time;
        self
    }

    /// Bounds the warmup time per benchmark.
    pub fn warm_up_time(&mut self, time: Duration) -> &mut Self {
        self.config.warmup_time = time;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let label = format!("{}/{}", self.group_name, id.label());
        run_benchmark(&label, self.config, &mut routine);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let label = format!("{}/{}", self.group_name, id.label());
        run_benchmark(&label, self.config, &mut |b: &mut Bencher| {
            routine(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark id with a parameter, shown as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// A parameterless id shown only by its parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match (&self.name.is_empty(), &self.parameter) {
            (false, Some(p)) => format!("{}/{}", self.name, p),
            (false, None) => self.name.clone(),
            (true, Some(p)) => p.clone(),
            (true, None) => String::new(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

/// Timing handle passed to benchmark routines.
#[derive(Debug)]
pub struct Bencher {
    config: SamplingConfig,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: a warmup phase, then up to `sample_size` timed
    /// samples bounded by the group's measurement time.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let warmup_end = Instant::now() + self.config.warmup_time;
        let mut warmed = 0u32;
        while warmed < 3 || Instant::now() < warmup_end {
            black_box(routine());
            warmed += 1;
            if warmed >= 10_000 {
                break;
            }
        }

        self.samples.clear();
        let sampling_start = Instant::now();
        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
            if sampling_start.elapsed() > self.config.measurement_time {
                break;
            }
        }
    }
}

/// Summary statistics over one benchmark's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of timed samples.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (p50).
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

/// Computes summary statistics from raw samples.
pub fn summarize(samples: &[Duration]) -> Option<Stats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let total: Duration = sorted.iter().sum();
    let at = |q: f64| {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    Some(Stats {
        samples: sorted.len(),
        mean: total / sorted.len() as u32,
        p50: at(0.50),
        p90: at(0.90),
        p99: at(0.99),
    })
}

fn run_benchmark(label: &str, config: SamplingConfig, routine: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        config,
        samples: Vec::new(),
    };
    routine(&mut bencher);
    match summarize(&bencher.samples) {
        Some(stats) => println!(
            "{label:<44} mean {:>10}  p50 {:>10}  p90 {:>10}  p99 {:>10}  ({} samples)",
            fmt_duration(stats.mean),
            fmt_duration(stats.p50),
            fmt_duration(stats.p90),
            fmt_duration(stats.p99),
            stats.samples
        ),
        None => println!("{label:<44} (no samples: routine never called iter)"),
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function in the criterion style:
/// `criterion_group!(benches, bench_a, bench_b)` defines `fn benches()`
/// that runs each target against a fresh [`Criterion`](crate::benchkit::Criterion).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::benchkit::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("unit");
        group
            .sample_size(10)
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(1));
        let mut ran = 0u64;
        group.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        group.finish();
        assert!(ran > 10);
    }

    #[test]
    fn summarize_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let stats = summarize(&samples).unwrap();
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50, Duration::from_micros(51));
        assert_eq!(stats.p90, Duration::from_micros(90));
        assert_eq!(stats.p99, Duration::from_micros(99));
        assert!(stats.mean >= Duration::from_micros(50));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn benchmark_id_labels() {
        assert_eq!(BenchmarkId::new("size", 42).label(), "size/42");
        assert_eq!(BenchmarkId::from("plain").label(), "plain");
        assert_eq!(BenchmarkId::from_parameter(7).label(), "7");
    }
}
