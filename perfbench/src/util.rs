//! Small shared pieces: the seeded generator, percentiles, peak RSS
//! and the closed-loop timing record every workload fills in.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so every input the
/// benchmark derives from `--seed` is reproducible without depending
/// on any other crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Percentile of `values` (`p` in `0..=100`): the smallest value with
/// more than `p`% of the samples at or below it; 0 when empty.
///
/// Taking the sample just above the `p`% point, not at it, matters for
/// the rotating workloads: with six apps per rotation, half the ops
/// sit exactly below the median, and the sample at the point would be
/// the slowest op of the third-fastest app, a maximum that one hiccup
/// moves. The sample above it is the fastest op of the fourth app.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).floor() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Per-app latency summary of a rotating workload, on standard error.
pub fn print_per_app(workload: &str, names: &[&str], op_ms: &[f64]) {
    for (a, name) in names.iter().enumerate() {
        let mine: Vec<f64> = op_ms.iter().skip(a).step_by(names.len()).copied().collect();
        eprintln!(
            "{workload}: {name:<8} ops {:>4}  p10 {:>9.3}  p50 {:>9.3}  p90 {:>9.3} ms",
            mine.len(),
            percentile(&mine, 10.0),
            median(&mine),
            percentile(&mine, 90.0)
        );
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of process `pid` (`"self"` for this one),
/// in MiB, from the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// What a workload's closed loop measured: the set-up repetitions,
/// one latency per completed op, the measured wall time, and how many
/// ops were attempted and failed.
#[derive(Debug, Default)]
pub struct Timing {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
}

impl Timing {
    /// Records one op's latency and whether it succeeded.
    pub fn record(&mut self, op_ms: f64, ok: bool) {
        self.op_ms.push(op_ms);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The five end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let completed = self.attempted - self.failed;
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("op_ms_p50".into(), percentile(&self.op_ms, 50.0), "ms"),
            ("op_ms_p90".into(), percentile(&self.op_ms, 90.0), "ms"),
            (
                "ops_per_s".into(),
                completed as f64 / self.wall_s.max(1e-9),
                "1/s",
            ),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Times one set-up repetition, in seconds.
pub fn time_setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}
