//! Small shared pieces: statistics, a seeded generator, a digest, peak-RSS
//! sampling, and the metric record every workload fills in.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of a fixed ladder of percentiles that still has at least ten
/// samples strictly beyond it: `(percentile, value)`. `None` when there are
/// too few samples for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let index = rank.max(1) - 1;
            (n > index + 10).then(|| (p, sorted[index]))
        })
}

/// Seconds as `f64`.
pub fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Run `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, secs(start.elapsed()))
}

/// SplitMix64: a tiny seeded generator, enough for workload mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (index, weight) in weights.iter().enumerate() {
            if x < *weight {
                return index;
            }
            x -= weight;
        }
        weights.len() - 1
    }
}

/// A derived seed for the `index`-th input of a workload seeded by `seed`,
/// kept below 10⁹ so spec strings stay short.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(index)).next_u64() % 1_000_000_000
}

/// FNV-1a 64-bit digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the process's peak resident set size (`VmHWM`) to its current RSS,
/// so the next [`peak_rss_mib`] reading covers only what ran in between.
/// Freed heap pages are handed back first, so the reading starts from live
/// memory rather than from what earlier runs left cached in the allocator.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run `f` while a sampler thread takes the peak RSS of each one-second
/// stretch (the high-water mark is reset at the start of every stretch).
/// Returns `f`'s result and the stretch peaks in MiB; their median is a
/// server's peak RSS per run that one rare overlap of requests cannot move.
pub fn stretch_peaks<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    const STRETCH: Duration = Duration::from_secs(1);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks = Vec::new();
            reset_peak_rss();
            let mut start = Instant::now();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
                if start.elapsed() >= STRETCH {
                    peaks.push(peak_rss_mib());
                    reset_peak_rss();
                    start = Instant::now();
                }
            }
            peaks.push(peak_rss_mib());
            peaks
        });
        let value = f();
        done.store(true, Ordering::SeqCst);
        (value, sampler.join().expect("RSS sampler thread panicked"))
    })
}

/// The per-workload working directory (inputs and outputs), created empty.
pub fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (units of work, requests, checks).
    pub attempted: u64,
    /// Operations that failed: non-2xx, I/O error, or output mismatch.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one attempted operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = check {
            self.failed += 1;
            self.failures.push(message);
        }
    }
}
