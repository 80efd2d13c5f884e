//! Deterministic hashing for simulator-assigned `u64` ids.
//!
//! Packet and message ids are handed out by the simulators themselves
//! (sequential counters) and L2 line addresses by the engine's address
//! tables, so they need neither SipHash's flood resistance nor
//! `RandomState`'s per-process seed. One multiply by an odd 64-bit constant spreads
//! consecutive ids across the product's bits. A multiply only carries bits
//! upward, though, and the table picks buckets from the hash's low bits, so
//! `finish` rotates the product's well-mixed high bits down: keys that
//! differ only in high bits, such as line addresses at a power-of-two
//! stride, still land in different buckets. Every map keyed this way is
//! looked up and removed from, never iterated, so hash order cannot reach
//! any output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u64` ids (the FxHash mixing step). Composite
/// keys of small integers and enums (`u32`, `usize`) mix one word per field.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.mix(u64::from(id));
    }

    /// Also what enum discriminants (`write_isize`) hash through.
    fn write_usize(&mut self, id: usize) {
        self.mix(id as u64);
    }

    fn write_u64(&mut self, id: u64) {
        self.mix(id);
    }
}

/// A map keyed by simulator-assigned ids.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A set of simulator-assigned ids.
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_fixed_across_processes() {
        let h = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(h.hash_one(0u64), 0);
        assert_eq!(h.hash_one(1u64), 0x517c_c1b7_2722_0a95u64.rotate_left(26));
        assert_ne!(h.hash_one(2u64), h.hash_one(3u64));
    }

    #[test]
    fn strided_keys_spread_over_buckets() {
        // Keys 2^20 apart: without the final rotation all 4,096 hash to the
        // same low 12 bits, i.e. to one bucket of a 4,096-bucket table. The
        // same holds for (partition, line) residency keys.
        let h = BuildHasherDefault::<IdHasher>::default();
        let ids: IdSet = (0..4_096u64).map(|i| h.hash_one(i << 20) & 0xfff).collect();
        let lines: IdSet = (0..4_096u64)
            .map(|i| h.hash_one((1u32, i << 20)) & 0xfff)
            .collect();
        assert!(ids.len() > 2_000, "{} buckets", ids.len());
        assert!(lines.len() > 2_000, "{} buckets", lines.len());
    }

    #[test]
    fn id_map_round_trips() {
        let mut m: IdMap<u32> = IdMap::default();
        for id in 0..1_000u64 {
            m.insert(id, id as u32 * 3);
        }
        assert_eq!(m.remove(&999), Some(2_997));
        assert_eq!(m.get(&17), Some(&51));
        assert_eq!(m.len(), 999);
    }
}
