//! Log2-bucketed histograms with exact count/sum/min/max.
//!
//! A value `v` lands in bucket `bit_length(v)` (bucket 0 holds only zeros,
//! bucket `i` holds `2^(i-1) ..= 2^i - 1`), so 65 fixed buckets cover the
//! full `u64` range with ≤2x relative quantile error — the classic
//! HdrHistogram-lite trade: recording is two adds and a `leading_zeros`,
//! merging is elementwise addition, and the moments (count, sum, min, max,
//! mean) are kept exactly alongside the buckets.

/// Number of log2 buckets covering all of `u64`.
pub const NUM_BUCKETS: usize = 65;

/// A log2-bucketed distribution of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (used when draining per-thread shards).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum (0 for an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the geometric midpoint of the
    /// bucket containing the `⌈q·count⌉`-th sample, clamped to the exact
    /// min/max. ≤2x relative error by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The exact extremes are tracked, so the endpoint quantiles can be
        // answered exactly instead of via a bucket midpoint.
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = if i == 0 {
                    0
                } else {
                    // Bucket i spans [2^(i-1), 2^i - 1]: take ~1.5 · 2^(i-1).
                    (1u64 << (i - 1)).saturating_add(1u64 << (i.saturating_sub(2)))
                };
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bit_length, count)` pairs — the compact form
    /// the JSONL sink serialises.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn moments_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 7, 1000, u64::MAX / 2] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 3 + 7 + 1000 + u64::MAX / 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX / 2);
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new();
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..8 → bucket 3.
        for v in [0u64, 1, 2, 3, 4, 7] {
            h.record(v);
        }
        let b = h.nonzero_buckets();
        assert_eq!(b, vec![(0, 1), (1, 1), (2, 2), (3, 2)]);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 90, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 17, 1 << 20] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!(p50 / 500.0 < 2.0 && 500.0 / p50 < 2.0, "p50={p50}");
        assert!(p99 / 990.0 < 2.0 && 990.0 / p99 < 2.0, "p99={p99}");
        // Extreme quantiles clamp to the exact bounds.
        assert!(h.quantile(0.0) >= 1);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
