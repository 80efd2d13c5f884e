//! Seeded input generation. Every workload draws its inputs from a
//! [`SplitMix`] stream derived from the run's `--seed`, so the same seed
//! always gives the same inputs and the program sees only those inputs.

/// splitmix64: a tiny, well-mixed, reproducible stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed` and a named purpose, so that different purposes
    /// draw different streams from one seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed;
        for b in stream.bytes() {
            state = mix(state ^ u64::from(b));
        }
        Self(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The splitmix64 finaliser.
pub fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |seed, name| {
            let mut g = SplitMix::new(seed, name);
            (0..64).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5, "mesh"), draw(5, "mesh"));
        assert_ne!(draw(5, "mesh"), draw(6, "mesh"));
        assert_ne!(draw(5, "mesh"), draw(5, "serve"));
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut g = SplitMix::new(1, "t");
        for _ in 0..10_000 {
            assert!(g.below(7) < 7);
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
