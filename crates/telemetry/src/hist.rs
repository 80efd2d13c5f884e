//! Log-scale histogram for cycle and latency samples.
//!
//! The paper's measurement methodology reports latency distributions whose
//! interesting structure spans decades (an L2 hit is ~200 cycles, a congested
//! memsim round trip can be tens of thousands), so fixed-width bins either
//! lose the head or truncate the tail. [`LogHistogram`] uses HDR-style
//! log-linear buckets: values below 16 get exact unit buckets, and every
//! power of two above that is split into 16 sub-buckets, bounding relative
//! quantile error at ~6% while covering the whole `u64` domain in 976
//! buckets. Histograms merge losslessly, so per-shard registries can be
//! combined.

use serde::{Deserialize, Serialize};

/// Number of low-order bits used for sub-bucketing: 2^4 = 16 sub-buckets per
/// power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count for the full `u64` domain.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// A mergeable log-linear histogram over `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Sparse tail is left unallocated: the vec only grows to the highest
    /// touched bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((exp - SUB_BITS + 1) as usize) * SUB + sub
}

/// Inclusive lower bound of a bucket's value range.
fn bucket_lo(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let block = (b / SUB) as u32;
    let sub = (b % SUB) as u64;
    let exp = block + SUB_BITS - 1;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

/// Representative value of a bucket: the midpoint of its range.
fn bucket_mid(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let block = (b / SUB) as u32;
    let exp = block + SUB_BITS - 1;
    let width = 1u64 << (exp - SUB_BITS);
    bucket_lo(b) + width / 2
}

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        // Saturate everywhere: a histogram that has absorbed ~u64::MAX
        // worth of samples must clamp, not wrap (release) or abort (debug).
        self.counts[b] = self.counts[b].saturating_add(n);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Value at quantile `q` in `[0, 1]`, approximated by bucket midpoints
    /// and clamped to the recorded `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q=0 -> first, q=1 -> last.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = bucket_mid(b) as f64;
                return Some(v.clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Adds all of `other`'s samples into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(src);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Upper bound on bucket count, exposed for tests.
pub const MAX_BUCKETS: usize = NUM_BUCKETS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for v in [0u64, 1, 5, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            assert!(b < NUM_BUCKETS);
            assert!(bucket_lo(b) <= v, "lo({b}) = {} > {v}", bucket_lo(b));
            prev = b;
        }
        // Exact unit buckets below SUB.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_mid(bucket_of(v)), v);
        }
        // Boundary continuity: 16 starts the first log block.
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_lo(bucket_of(16)), 16);
    }

    #[test]
    fn near_max_values_saturate_instead_of_overflowing() {
        // Regression: `count += n` / `sum += value * n` used to wrap in
        // release and panic in debug once the accumulators neared u64::MAX,
        // despite the adjacent saturating_mul.
        let mut h = LogHistogram::new();
        h.record_n(u64::MAX, 3); // sum saturates immediately
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), u64::MAX, "sum clamps at the top");
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.mean().unwrap().is_finite());
        assert!(h.quantile(0.5).unwrap().is_finite());

        // Count saturation: two huge batches cannot wrap the total.
        let mut c = LogHistogram::new();
        c.record_n(1, u64::MAX);
        c.record_n(1, u64::MAX);
        assert_eq!(c.count(), u64::MAX);
        assert_eq!(c.sum(), u64::MAX);

        // Merging two saturated histograms saturates too.
        let mut m = h.clone();
        m.merge(&c);
        assert_eq!(m.count(), u64::MAX);
        assert_eq!(m.sum(), u64::MAX);
        assert_eq!(m.min(), Some(1));
        assert_eq!(m.max(), Some(u64::MAX));
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [20u64, 100, 213, 1017, 65_535, 1 << 30, 1 << 50] {
            let mid = bucket_mid(bucket_of(v)) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 16.0 + 1e-12, "value {v}: mid {mid}, err {err}");
        }
    }
}
