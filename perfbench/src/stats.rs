//! Small statistics helpers: histogram quantiles, fingerprints, memory.

use c3_sim::stats::LatencyHistogram;

/// The `q`-quantile of a log2 [`LatencyHistogram`] in nanoseconds,
/// linearly interpolated inside the bucket that holds it.
///
/// `LatencyHistogram::percentile` answers with the bucket's upper bound,
/// which is the same power of two for most seeds; interpolating by rank
/// keeps the figure sensitive to the distribution inside the bucket. The
/// bucket's rank range is recovered from `percentile` itself, which is
/// monotone in the rank. Returns 0 for an empty histogram.
pub fn quantile_ns(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `percentile` takes the rank `ceil(q * n)`; asking half a rank low
    // selects exactly rank `r`.
    let at = |r: u64| h.percentile((r as f64 - 0.5) / n as f64).as_ps();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let v = at(rank);
    // First and last rank that land in the same bucket as `rank`.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Bucket `b` holds samples whose bit length is `b`: [2^(b-1), v].
    let bits = 64 - v.leading_zeros();
    let lower = if bits == 0 { 0 } else { 1u64 << (bits - 1) };
    let frac = (rank - first + 1) as f64 / (last - first + 1) as f64;
    (lower as f64 + (v - lower) as f64 * frac) / 1_000.0
}

/// 64-bit FNV-1a, the hash the repository pins report renderings with.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_sim::time::Delay;

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let mut h = LatencyHistogram::new();
        // 100 samples in the [1024, 2047] ps bucket, one far above it.
        for _ in 0..100 {
            h.record(Delay::from_ps(1500));
        }
        h.record(Delay::from_ps(1_000_000));
        let p50 = quantile_ns(&h, 0.50);
        assert!(p50 > 1.024 && p50 < 2.047, "p50 {p50}");
        assert!(quantile_ns(&h, 0.25) < p50);
        // The top bucket ends at the exact maximum.
        assert_eq!(quantile_ns(&h, 1.0), 1_000.0);
        assert_eq!(quantile_ns(&LatencyHistogram::new(), 0.99), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
