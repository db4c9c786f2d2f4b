//! Dependency-free HDR-style latency histogram.
//!
//! Log-linear bucketing in the spirit of HdrHistogram: values below
//! `SUB_COUNT` land in unit-width buckets; above that, each power-of-two
//! range is split into `SUB_HALF` sub-buckets, bounding the relative
//! quantization error at `1 / SUB_HALF` (< 0.8%) across the full `u64`
//! range. Recording is two shifts and an increment — cheap enough to sit
//! on the consumer hot path of a latency harness — and the whole table is
//! ~59 KiB, so per-thread histograms merged at the end stay cache-friendly
//! and contention-free.
//!
//! The harness records nanoseconds, but the histogram is unit-agnostic.

/// log2 of the number of unit-width buckets in the first range.
const SUB_BITS: u32 = 8;
/// Values below this are counted exactly (unit-width buckets).
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Sub-buckets per power-of-two range above [`SUB_COUNT`].
const SUB_HALF: u64 = SUB_COUNT / 2;
/// Power-of-two ranges above the unit region (`2^8 ..= 2^63`).
const RANGES: usize = 64 - SUB_BITS as usize;
/// Total bucket count.
const BUCKETS: usize = SUB_COUNT as usize + RANGES * SUB_HALF as usize;

/// A log-linear histogram of `u64` samples (typically nanoseconds).
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Bucket index for a value: exact below [`SUB_COUNT`], log-linear above.
fn index_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    // msb >= SUB_BITS here, so `range >= 1` and the shift keeps the top
    // SUB_BITS bits of v, of which the leading one is implied: the
    // in-range offset is (v >> range) - SUB_HALF in [0, SUB_HALF).
    let msb = 63 - v.leading_zeros();
    let range = (msb - SUB_BITS + 1) as u64;
    let offset = (v >> range) - SUB_HALF;
    (SUB_COUNT + (range - 1) * SUB_HALF + offset) as usize
}

/// Lowest value mapping to `idx` (inverse of [`index_of`]).
fn value_at(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let range = (idx - SUB_COUNT) / SUB_HALF + 1;
    let offset = (idx - SUB_COUNT) % SUB_HALF;
    (SUB_HALF + offset) << range
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (exact, not bucket-quantized).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded sample (exact), or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at percentile `p` (0.0–100.0): the smallest bucket boundary
    /// such that at least `p`% of samples are at or below it. Within the
    /// bucketing error (< 0.8%) of the true order statistic.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Report the bucket's upper edge clamped to the observed
                // max, so p100 == max() and quantization never understates.
                return value_at(idx + 1).saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one (per-thread merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Snapshot of the headline statistics, ready for JSON serialization.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            min_ns: self.min(),
            mean_ns: self.mean(),
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
            p999_ns: self.percentile(99.9),
            max_ns: self.max,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Headline percentiles of a [`Histogram`], as serialized into the
/// benchmark JSON. Field names say `_ns` because every harness in this
/// repo records nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min_ns: u64,
    /// Exact arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_value_roundtrip_is_monotone_and_contiguous() {
        // Every bucket's lower edge maps back to that bucket, and indices
        // cover the probe values monotonically.
        for idx in 0..BUCKETS - 1 {
            let v = value_at(idx);
            assert_eq!(index_of(v), idx, "lower edge of bucket {idx}");
        }
        let mut last = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = index_of(v);
            assert!(idx >= last, "index must be monotone at {v}");
            last = idx;
            v = v.saturating_mul(2).saturating_add(1);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_COUNT);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_COUNT - 1);
        // p50 of 0..=255 uniform: near 127, exact region so no bucket error.
        let p50 = h.percentile(50.0);
        assert!((126..=129).contains(&p50), "p50={p50}");
    }

    #[test]
    fn percentiles_within_bucket_error() {
        let mut h = Histogram::new();
        // Uniform 1..=1_000_000: p50 ~ 500k, p99 ~ 990k, p999 ~ 999k.
        for v in 1..=1_000_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 500_000.0), (99.0, 990_000.0), (99.9, 999_000.0)] {
            let got = h.percentile(p) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.01, "p{p}: got {got}, expect {expect}, err {err}");
        }
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..10_000u64 {
            let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.9), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
