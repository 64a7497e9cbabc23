//! Host provenance, host speed and process resource usage, gathered
//! without reading any file: the CPU model from `cpuid`, peak RSS from
//! `getrusage`, and the speed of the moment from a fixed reference
//! workload owned by the benchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU brand string, or `"unknown"` off x86-64.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf; the brand
        // leaves are only queried when it says they exist.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            let brand = brand.trim_matches(char::from(0)).trim();
            if !brand.is_empty() {
                return brand.to_string();
            }
        }
    }
    "unknown".to_string()
}

/// Time the reference workload takes on the reference host when nothing
/// else contends for it (its typical time in the host's fast phases).
pub const REFERENCE_NOMINAL: Duration = Duration::from_micros(REFERENCE_NOMINAL_US);
const REFERENCE_NOMINAL_US: u64 = 280;

/// Runs the reference workload once and returns its wall time: sorting
/// 16 Ki pseudo-random `u64`s (128 KiB, cache-resident), a fixed amount
/// of CPU work no change to the program can touch. Timed between the
/// measured intervals, it tracks how fast the shared host runs the
/// benchmark at that moment.
pub fn time_reference() -> Duration {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    let mut v: Vec<u64> = (0..16 * 1024)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        })
        .collect();
    v.sort_unstable();
    black_box(&v);
    start.elapsed()
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MiB (`NaN` if the
/// kernel refuses the query).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the size
    // the kernel fills; `RUSAGE_SELF` (0) names this process.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    // Linux reports `ru_maxrss` in KiB.
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_populated() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        let rss = peak_rss_mb();
        assert!(rss > 0.0 && rss < 1.0e6, "implausible peak RSS {rss}");
        assert!(time_reference() > Duration::ZERO);
    }
}
