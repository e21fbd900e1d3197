//! Small helpers shared by the workloads: seeded input generation,
//! summary statistics, scratch directories and process memory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gcs_core::NanoStats;
use gcs_core::SweepStats;
use gcs_workloads::Benchmark;

/// SplitMix64: the benchmark's own input generator, so the program under
/// test only ever sees generated inputs, never the benchmark's seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A queue of `len` benchmarks drawn uniformly from the suite.
    pub fn queue(&mut self, len: usize) -> Vec<Benchmark> {
        (0..len)
            .map(|_| Benchmark::ALL[self.below(Benchmark::ALL.len() as u64) as usize])
            .collect()
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Op latencies in seconds, summarised over consecutive windows of
/// `OpLatency::WINDOW` ops: the op percentiles are the means of the
/// windows' percentiles. The host's speed moves in phases of seconds,
/// and the median of a whole run jumps between the phases' medians as
/// the share of slow phases crosses one half; the mean of window
/// medians moves smoothly with that share. Memory stays constant
/// however many ops a run makes, so the benchmark's own samples do not
/// grow `peak_rss_mb`.
#[derive(Default)]
pub struct OpLatency {
    window: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    pub count: usize,
    pub sum: f64,
}

impl OpLatency {
    /// Ops per window: a p99 of a window has ten ops beyond it.
    pub const WINDOW: usize = 1000;

    pub fn push(&mut self, secs: f64) {
        self.count += 1;
        self.sum += secs;
        self.window.push(secs);
        if self.window.len() == Self::WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        let (p50, p99) = p50_p99(&self.window);
        self.p50s.push(p50);
        self.p99s.push(p99);
        self.window.clear();
    }

    /// Mean window median. A trailing partial window counts only when
    /// there is no whole one.
    pub fn p50(&self) -> f64 {
        if self.p50s.is_empty() {
            p50_p99(&self.window).0
        } else {
            mean(&self.p50s)
        }
    }

    /// Mean window p99 (nearest rank), as `p50`.
    pub fn p99(&self) -> f64 {
        if self.p99s.is_empty() {
            p50_p99(&self.window).1
        } else {
            mean(&self.p99s)
        }
    }
}

/// Median and nearest-rank p99 of a non-empty sample.
fn p50_p99(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (median(&s), s[(s.len() * 99).div_ceil(100) - 1])
}

/// Nearest-rank percentiles, in ns, of durations given in seconds.
pub fn percentiles(samples_s: &[f64]) -> NanoStats {
    let ns: Vec<u64> = samples_s.iter().map(|s| (s * 1e9) as u64).collect();
    NanoStats::from_samples(&ns)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh, empty directory `<work>/<tag>`.
pub fn fresh_dir(work: &Path, tag: &str) -> PathBuf {
    let dir = work.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory under the work dir");
    dir
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Bytes of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        bytes += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    bytes
}

/// The ledger's rendering of a sweep-counter delta.
pub fn sweep_line(label: &str, s: &SweepStats) -> String {
    format!(
        "{label}: {} jobs ({} simulated, {} cached), {} simulated cycles",
        s.jobs_total, s.jobs_simulated, s.jobs_cached, s.sim_cycles
    )
}

/// The job and cycle counters of `b` less those of `a`.
pub fn sweep_delta(a: &SweepStats, b: &SweepStats) -> SweepStats {
    let mut d = *b;
    d.jobs_total -= a.jobs_total;
    d.jobs_simulated -= a.jobs_simulated;
    d.jobs_cached -= a.jobs_cached;
    d.sim_cycles -= a.sim_cycles;
    d
}

/// All-zero sweep counters.
pub fn no_stats() -> SweepStats {
    gcs_core::SweepEngine::new(1).stats()
}
