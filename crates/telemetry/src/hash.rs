//! The workspace's one owner of seeded streams and content digests.
//!
//! Every cycle-level run is driven by a [`SplitMix64`] stream keyed by its
//! seed and sealed by an [`fnv1a64`] digest; the analytic engine hashes
//! addresses onto L2 slices with the same [`mix64`] finaliser. All three are
//! fixed functions: a seed or a byte string means the same thing in every
//! crate, process and run.

/// The splitmix64 increment: the odd 64-bit golden-ratio constant.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finaliser: a bijective, well-avalanched 64-bit mix.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream: a tiny, reproducible generator whose whole state is
/// the seed advanced by [`GOLDEN_GAMMA`] per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[inline]
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit draw.
    #[inline]
    #[allow(clippy::should_implement_trait)] // an endless stream: never `None`
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix64(self.0)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits of [`SplitMix64::next`].
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// FNV-1a 64-bit: the workspace's content hash, used for fault-plan, stats
/// and trace digests and for the serve cache's keys and payload checks.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // Reference outputs of splitmix64 seeded with 0.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(
            SplitMix64::new(7).next(),
            mix64(7u64.wrapping_add(GOLDEN_GAMMA))
        );
        let u = SplitMix64::new(1).next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
