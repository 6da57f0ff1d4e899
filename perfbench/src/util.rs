//! Seeded randomness, order statistics, and `/proc` readings.

use std::time::Instant;

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_A4B1_1C0D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed round of a run: its wall time, the program's CPU time and
/// peak resident set, and its request latencies.
pub struct Round {
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub lat_ms: Vec<f64>,
}

/// Timed rounds per run. Throughput, latency and CPU are taken per round
/// and reported as the median over rounds, so a burst of host steal that
/// covers fewer than half of them does not move the result.
pub const ROUNDS: usize = 15;

/// The `i`-th of `ROUNDS` contiguous, equal slices of `v`.
pub fn round_slice<T>(v: &[T], i: usize) -> &[T] {
    &v[v.len() * i / ROUNDS..v.len() * (i + 1) / ROUNDS]
}

/// (requests/s, p50 ms, p99 ms, CPU ms per request, peak RSS MB):
/// throughput, CPU and memory as medians over rounds, latency percentiles
/// over the pooled samples.
pub fn round_medians(rounds: &[Round]) -> (f64, f64, f64, f64, f64) {
    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lat_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    (
        of(&|r| r.lat_ms.len() as f64 / r.wall_s),
        percentile(&pooled, 0.5),
        percentile(&pooled, 0.99),
        of(&|r| r.cpu_ms / r.lat_ms.len() as f64),
        of(&|r| r.peak_rss_mb),
    )
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// User + system CPU of a whole process (all threads, live and exited),
/// in milliseconds.
pub fn cpu_ms(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 1e3 / USER_HZ
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets a process's `VmHWM` to its current resident set, so the next
/// reading is the peak since now (`/proc/<pid>/clear_refs`, Linux 4.0+).
pub fn reset_peak_rss(pid: &str) {
    // Without the reset the reading is the peak since process start,
    // which is still a peak; nothing else depends on it succeeding.
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Host-wide CPU time counters from `/proc/stat`: (steal, total) ticks.
#[derive(Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = stat.lines().next().unwrap_or("");
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        HostTicks {
            steal: v.get(7).copied().unwrap_or(0),
            // user nice system idle iowait irq softirq steal (guest time
            // is already inside user).
            total: v.iter().take(8).sum(),
        }
    }

    /// Share of all host CPU time since `self` that the hypervisor stole.
    pub fn steal_frac_since(self) -> f64 {
        let now = HostTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            now.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Cores the benchmark may use: the generator's threads and connections,
/// and the simulation sweep's workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
