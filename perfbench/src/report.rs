//! Result assembly shared by the workloads: output checks, sample
//! summaries, peak RSS and the input digest hasher.

use std::time::Instant;

/// What one benchmark run reports.
#[derive(Default)]
pub struct Outcome {
    /// Output checks made (each counts as one attempted operation).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Adds the median of `samples` as a metric and prints its summary line.
    pub fn timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let median = summarize(name, samples, unit);
        self.metric(name, median, unit);
    }

    /// Adds `setup_s` from set-up passes timed in short windows spread over
    /// the run: the mean over the windows of each window's median.  A shared
    /// host switches between speeds every few seconds, so one window sees
    /// one speed; the mean follows the share of windows that ran slow, where
    /// a median over all passes would jump between the speeds.
    pub fn setup(&mut self, windows: &[Vec<f64>]) {
        summarize("setup_s (all passes)", &windows.concat(), "s");
        let mean = windows.iter().map(|w| median(w)).sum::<f64>() / windows.len() as f64;
        println!("setup_s: mean of {} window medians={mean:.6} unit=s", windows.len());
        self.metric("setup_s", mean, "s");
    }

    /// Prints the final result line.
    pub fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of a sample set (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Prints `name: median, highest percentile with at least ten samples
/// beyond it (if any), sample count, unit` and returns the median.
pub fn summarize(name: &str, samples: &[f64], unit: &str) -> f64 {
    let n = samples.len();
    let median = median(samples);
    let tail = [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
        .map(|q| format!(" p{}={:.6}", q * 100.0, percentile(samples, q)))
        .unwrap_or_default();
    println!("{name}: median={median:.6}{tail} n={n} unit={unit}");
    median
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// FNV-1a over 64-bit words: the digest the self-test compares to show two
/// runs with one seed generate identical inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every token, gold label and crowd label of a dataset.
    pub fn dataset(&mut self, dataset: &lncl_crowd::CrowdDataset) {
        self.word(dataset.num_classes as u64);
        self.word(dataset.num_annotators as u64);
        for split in [&dataset.train, &dataset.dev, &dataset.test] {
            self.word(split.len() as u64);
            for inst in split.iter() {
                self.word(inst.tokens.len() as u64);
                inst.tokens.iter().for_each(|&t| self.word(t as u64));
                inst.gold.iter().for_each(|&g| self.word(g as u64));
                for label in &inst.crowd_labels {
                    self.word(label.annotator as u64);
                    label.labels.iter().for_each(|&c| self.word(c as u64));
                }
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
