//! Minimal L2 residency model.
//!
//! The paper's latency methodology only needs to distinguish *L2 hit* from
//! *L2 miss*: Algorithm 1 warms the working set so every measured access hits,
//! and the miss-penalty experiments use cold lines. [`L2State`] tracks which
//! (partition, line) pairs are resident, with FIFO replacement bounded by the
//! device's L2 capacity.

use gnoc_telemetry::IdHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;

/// Key identifying one cached copy: the die partition whose L2 holds it plus
/// the line address. Globally-shared devices use partition 0 for every line.
pub type ResidencyKey = (u32, u64);

/// Outcome of an L2 lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Outcome {
    /// The line was resident.
    Hit,
    /// The line was not resident; it is resident after the access.
    Miss,
}

/// FIFO-replacement residency tracker for the device's L2.
///
/// `resident` is keyed with the deterministic [`IdHasher`]: it is only
/// probed, inserted into and removed from, never iterated, and FIFO order
/// lives in `order`, so its hash order reaches no output.
#[derive(Debug, Clone, Default)]
pub struct L2State {
    resident: HashSet<ResidencyKey, BuildHasherDefault<IdHasher>>,
    order: VecDeque<ResidencyKey>,
    capacity_lines: usize,
}

impl L2State {
    /// Creates a tracker bounded to `capacity_lines` resident lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "L2 capacity must be non-zero");
        Self {
            resident: HashSet::default(),
            order: VecDeque::new(),
            capacity_lines,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// Whether `key` is currently resident, without touching state.
    pub fn contains(&self, key: ResidencyKey) -> bool {
        self.resident.contains(&key)
    }

    /// Performs an access: returns [`L2Outcome::Hit`] if resident, otherwise
    /// installs the line (evicting FIFO if full) and returns
    /// [`L2Outcome::Miss`].
    pub fn access(&mut self, key: ResidencyKey) -> L2Outcome {
        if self.resident.contains(&key) {
            L2Outcome::Hit
        } else {
            self.install(key);
            L2Outcome::Miss
        }
    }

    /// Warms `key` without reporting an outcome (the warm-up loop of
    /// Algorithm 1).
    pub fn warm(&mut self, key: ResidencyKey) {
        if !self.resident.contains(&key) {
            self.install(key);
        }
    }

    /// Drops all residency state (e.g. between experiments).
    pub fn flush(&mut self) {
        self.resident.clear();
        self.order.clear();
    }

    fn install(&mut self, key: ResidencyKey) {
        if self.resident.len() == self.capacity_lines {
            if let Some(victim) = self.order.pop_front() {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(key);
        self.order.push_back(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut l2 = L2State::new(4);
        assert_eq!(l2.access((0, 1)), L2Outcome::Miss);
        assert_eq!(l2.access((0, 1)), L2Outcome::Hit);
    }

    #[test]
    fn warm_makes_accesses_hit() {
        let mut l2 = L2State::new(4);
        l2.warm((0, 9));
        assert_eq!(l2.access((0, 9)), L2Outcome::Hit);
    }

    #[test]
    fn partition_copies_are_independent() {
        // On H100 each partition caches its own copy of a line.
        let mut l2 = L2State::new(4);
        l2.warm((0, 5));
        assert_eq!(l2.access((1, 5)), L2Outcome::Miss);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut l2 = L2State::new(2);
        l2.warm((0, 1));
        l2.warm((0, 2));
        l2.warm((0, 3)); // evicts line 1
        assert!(!l2.contains((0, 1)));
        assert!(l2.contains((0, 2)));
        assert!(l2.contains((0, 3)));
        assert_eq!(l2.len(), 2);
    }

    #[test]
    fn warm_is_idempotent() {
        let mut l2 = L2State::new(2);
        l2.warm((0, 1));
        l2.warm((0, 1));
        l2.warm((0, 2));
        // Line 1 must still be resident: double-warm must not double-insert.
        l2.warm((0, 3));
        assert!(!l2.contains((0, 1)) || l2.len() <= 2);
        assert_eq!(l2.len(), 2);
    }

    #[test]
    fn flush_empties_state() {
        let mut l2 = L2State::new(4);
        l2.warm((0, 1));
        l2.flush();
        assert!(l2.is_empty());
        assert_eq!(l2.access((0, 1)), L2Outcome::Miss);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = L2State::new(0);
    }
}
