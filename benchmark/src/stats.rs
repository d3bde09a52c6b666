//! The statistics every workload reports, defined once: order-statistic
//! percentiles with their sample count, the "highest percentile with at
//! least ten samples beyond it" rule, quartile spread as the driver
//! computes it, and the host-noise fields that say whether a run can be
//! trusted.

use std::time::{Duration, Instant};

/// A sorted sample set. Percentiles are order statistics (nearest rank),
/// never interpolated, so a reported latency is one that was observed.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile by nearest rank; `0.0` for an empty set (a
    /// workload with no samples fails its run before this is reported).
    pub fn percentile(&self, q: f64) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n => self.sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The highest of p50/p90/p99/p99.9 that still has at least ten
    /// samples beyond it, as `(q, value)`.
    pub fn highest_supported(&self) -> (f64, f64) {
        // In thousandths, so that 100 samples beyond p90 count as ten.
        let n = self.sorted.len();
        let q = [999, 990, 900]
            .into_iter()
            .find(|per_mille| n * (1000 - per_mille) >= 10_000)
            .map_or(0.5, |per_mille| per_mille as f64 / 1000.0);
        (q, self.percentile(q))
    }
}

/// One timed chunk of a closed loop, reduced to what is reported so a
/// long run holds no per-op state.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub ops: usize,
    /// Ops per second over the chunk's wall time.
    pub per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

impl Chunk {
    pub fn of(latencies_us: Vec<f64>, wall: Duration) -> Chunk {
        let s = Samples::new(latencies_us);
        Chunk {
            ops: s.len(),
            per_s: s.len() as f64 / wall.as_secs_f64(),
            p50_us: s.median(),
            p99_us: s.percentile(0.99),
            max_us: s.max(),
        }
    }
}

/// Every chunk of one closed-loop phase.
///
/// This host's speed moves in plateaus that last seconds (a pure ALU loop
/// pinned to one CPU reads 5 250, then 6 700, then 3 500 iterations per
/// 100 ms), so a median over chunks still lands on whichever plateau
/// filled most of the run. The host only ever slows the program down, so
/// the end-to-end figures are those of the *quietest* chunk — its best
/// rate, its lowest median — which ten runs reproduce two to three times
/// more closely. Medians over chunks are kept for the tails and printed
/// beside them.
#[derive(Debug, Default)]
pub struct Phase {
    pub chunks: Vec<Chunk>,
}

impl Phase {
    fn over_chunks(&self, f: impl Fn(&Chunk) -> f64) -> Samples {
        Samples::new(self.chunks.iter().map(f).collect())
    }

    pub fn ops(&self) -> usize {
        self.chunks.iter().map(|c| c.ops).sum()
    }

    pub fn quiet_per_s(&self) -> f64 {
        self.over_chunks(|c| c.per_s).max()
    }

    pub fn quiet_p50_us(&self) -> f64 {
        self.over_chunks(|c| c.p50_us).percentile(0.0)
    }

    pub fn per_s(&self) -> f64 {
        self.over_chunks(|c| c.per_s).median()
    }

    pub fn p50_us(&self) -> f64 {
        self.over_chunks(|c| c.p50_us).median()
    }

    pub fn p99_us(&self) -> f64 {
        self.over_chunks(|c| c.p99_us).median()
    }

    pub fn max_us(&self) -> f64 {
        self.over_chunks(|c| c.max_us).max()
    }
}

/// The lowest median among consecutive chunks of `chunk` samples: the
/// quiet-chunk median of a plain latency series.
pub fn quiet_p50(samples_us: &[f64], chunk: usize) -> f64 {
    let chunk = chunk.clamp(1, samples_us.len().max(1));
    let medians = samples_us
        .chunks_exact(chunk)
        .map(|c| Samples::new(c.to_vec()).median())
        .collect();
    Samples::new(medians).percentile(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver's definition of spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// CPUs this process may run on (one, when `run.sh` has pinned it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs the machine has, pinned or not.
pub fn machine_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// Counters that tell a slow program from a slow host: hypervisor steal
/// from `/proc/stat`, and this thread's context switches — voluntary
/// ones are the program blocking (I/O, locks), involuntary ones are the
/// scheduler taking the CPU away.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSnapshot {
    steal: u64,
    total: u64,
    voluntary: u64,
    involuntary: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    pub steal_frac: f64,
    pub voluntary: u64,
    pub involuntary: u64,
}

impl HostSnapshot {
    pub fn take() -> HostSnapshot {
        let cpu: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|t| t.lines().next().map(str::to_owned))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let thread = "/proc/thread-self/status";
        HostSnapshot {
            // user nice system idle iowait irq softirq steal
            steal: cpu.get(7).copied().unwrap_or(0),
            total: cpu.iter().take(8).sum(),
            voluntary: proc_field(thread, "voluntary_ctxt_switches").unwrap_or(0),
            involuntary: proc_field(thread, "nonvoluntary_ctxt_switches").unwrap_or(0),
        }
    }

    pub fn since(&self, earlier: &HostSnapshot) -> HostDelta {
        let total = self.total.saturating_sub(earlier.total);
        HostDelta {
            steal_frac: if total == 0 {
                0.0
            } else {
                self.steal.saturating_sub(earlier.steal) as f64 / total as f64
            },
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let s = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 100.0]);
        assert_eq!(s.median(), 4.0);
        assert_eq!(s.percentile(0.99), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        let of = |n: usize| Samples::new((0..n).map(|i| i as f64).collect()).highest_supported();
        assert_eq!(of(50).0, 0.5);
        assert_eq!(of(100).0, 0.9);
        assert_eq!(of(1_000).0, 0.99);
        assert_eq!(of(10_000).0, 0.999);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
