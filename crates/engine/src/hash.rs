//! Address → L2-slice hashing.
//!
//! Modern GPUs hash physical addresses across all L2 slices to avoid *memory
//! camping* (paper Section IV-C, Observation #12): any realistic access
//! stream is spread near-uniformly over the slices. [`AddressMap`] implements
//! a deterministic mixing hash plus the inverse operation the paper's
//! methodology needs — finding sets of addresses that all map to one target
//! slice (the `M[s]` tables of Algorithms 1 and 2).

use gnoc_telemetry::hash::SplitMix64;
use gnoc_topo::{CachePolicy, Hierarchy, MpId, PartitionId, SliceId};
use serde::{Deserialize, Serialize};

/// Cache-line size in bytes; addresses handled by the map are line addresses.
pub const LINE_BYTES: u64 = 128;

/// The slice hash of a line address: the first splitmix64 draw seeded
/// with it.
#[inline]
fn line_hash(line: u64) -> u64 {
    SplitMix64::new(line).next()
}

/// Errors disabling L2 slices in an [`AddressMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceDisableError {
    /// A disabled slice id is out of range for the device.
    OutOfRange {
        /// The offending slice index.
        slice: u32,
        /// Slices on the device.
        num_slices: u32,
    },
    /// The same slice is disabled twice.
    Duplicate(u32),
    /// Every slice is disabled.
    AllDisabled,
    /// A partition-local device lost every slice of one partition, leaving
    /// its SMs with no local L2 to cache into.
    PartitionEmptied(PartitionId),
}

impl std::fmt::Display for SliceDisableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange { slice, num_slices } => {
                write!(
                    f,
                    "disabled slice {slice} out of range ({num_slices} slices)"
                )
            }
            Self::Duplicate(s) => write!(f, "slice {s} disabled twice"),
            Self::AllDisabled => write!(f, "every L2 slice is disabled"),
            Self::PartitionEmptied(p) => {
                write!(f, "partition {p} has no enabled L2 slice left")
            }
        }
    }
}

impl std::error::Error for SliceDisableError {}

/// Deterministic address-to-slice mapping for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressMap {
    num_slices: u32,
    slices_per_mp: u32,
    policy: CachePolicy,
    /// Enabled slice ids per die partition, for partition-local lookup.
    partition_slices: Vec<Vec<SliceId>>,
    /// MP of each slice.
    slice_mp: Vec<MpId>,
    /// Enabled slice ids in ascending order. On a pristine device this is
    /// every slice, and indexing it with the hash is the identity remap, so
    /// the fault-free path is bit-identical to a map without the field.
    enabled: Vec<SliceId>,
}

impl AddressMap {
    /// Builds the map for `hierarchy` under cache `policy`.
    pub fn new(hierarchy: &Hierarchy, policy: CachePolicy) -> Self {
        Self::with_disabled(hierarchy, policy, &[]).expect("empty disable set is valid")
    }

    /// Builds the map with the given L2 slices fused off: the hash is taken
    /// over the *enabled* slice list, so traffic redistributes uniformly over
    /// the survivors and a disabled slice is never the effective slice of any
    /// address. With no disabled slices this is exactly [`AddressMap::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SliceDisableError`] on out-of-range or duplicate ids, when
    /// all slices are disabled, or when a [`CachePolicy::PartitionLocal`]
    /// device loses every slice of one partition.
    pub fn with_disabled(
        hierarchy: &Hierarchy,
        policy: CachePolicy,
        disabled: &[u32],
    ) -> Result<Self, SliceDisableError> {
        let num_slices = hierarchy.num_slices() as u32;
        let mut off = vec![false; num_slices as usize];
        for &s in disabled {
            if s >= num_slices {
                return Err(SliceDisableError::OutOfRange {
                    slice: s,
                    num_slices,
                });
            }
            if off[s as usize] {
                return Err(SliceDisableError::Duplicate(s));
            }
            off[s as usize] = true;
        }
        let enabled: Vec<SliceId> = (0..num_slices)
            .filter(|&s| !off[s as usize])
            .map(SliceId::new)
            .collect();
        if enabled.is_empty() {
            return Err(SliceDisableError::AllDisabled);
        }
        let partition_slices: Vec<Vec<SliceId>> = (0..hierarchy.num_partitions())
            .map(|p| {
                hierarchy
                    .slices_in_partition(PartitionId::new(p as u32))
                    .iter()
                    .copied()
                    .filter(|s| !off[s.index()])
                    .collect()
            })
            .collect();
        if policy == CachePolicy::PartitionLocal {
            for (p, slices) in partition_slices.iter().enumerate() {
                if slices.is_empty() {
                    return Err(SliceDisableError::PartitionEmptied(PartitionId::new(
                        p as u32,
                    )));
                }
            }
        }
        Ok(Self {
            num_slices,
            slices_per_mp: hierarchy.spec().slices_per_mp,
            policy,
            partition_slices,
            slice_mp: hierarchy.slices().iter().map(|s| s.mp).collect(),
            enabled,
        })
    }

    /// The cache policy this map implements.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Number of enabled (surviving) slices.
    pub fn num_enabled(&self) -> usize {
        self.enabled.len()
    }

    /// Whether `slice` can be the effective slice of any address.
    pub fn is_enabled(&self, slice: SliceId) -> bool {
        self.enabled.binary_search(&slice).is_ok()
    }

    /// The *home* slice of a line address under the global hash. On
    /// globally-shared devices this is where the line is cached; on
    /// partition-local devices it determines the home memory partition only.
    /// With fused-off slices the hash runs over the enabled list, so homes
    /// land only on survivors.
    pub fn home_slice(&self, line: u64) -> SliceId {
        self.enabled[(line_hash(line) % self.enabled.len() as u64) as usize]
    }

    /// The home memory partition of a line address (where its DRAM lives).
    pub fn home_mp(&self, line: u64) -> MpId {
        self.slice_mp[self.home_slice(line).index()]
    }

    /// The slice that actually services a request for `line` issued from die
    /// partition `requester`.
    ///
    /// Under [`CachePolicy::GloballyShared`] this is the home slice; under
    /// [`CachePolicy::PartitionLocal`] (H100) the line is cached in a slice of
    /// the requester's own partition, so hit latency stays partition-local
    /// (paper Observation #6).
    pub fn effective_slice(&self, line: u64, requester: PartitionId) -> SliceId {
        match self.policy {
            CachePolicy::GloballyShared => self.home_slice(line),
            CachePolicy::PartitionLocal => {
                let local = &self.partition_slices[requester.index()];
                // Salt so the local spread is independent of the global hash.
                let idx = line_hash(line ^ 0xa5a5_5a5a_dead_beef) % local.len() as u64;
                local[idx as usize]
            }
        }
    }

    /// Whether `slice` is the effective slice of any line requested from
    /// `requester`: false when it is fused off, or outside the requester's
    /// partition under partition-local caching.
    pub(crate) fn can_serve(&self, slice: SliceId, requester: PartitionId) -> bool {
        match self.policy {
            CachePolicy::GloballyShared => self.is_enabled(slice),
            CachePolicy::PartitionLocal => {
                self.partition_slices[requester.index()].contains(&slice)
            }
        }
    }

    /// Number of slices on the device, enabled or not.
    pub(crate) fn num_slices(&self) -> usize {
        self.num_slices as usize
    }

    /// Finds `n` distinct line addresses whose *effective* slice (for
    /// `requester`) is `slice` — the `M[s]` table of the paper's algorithms.
    /// Searches line addresses upward from `start`.
    pub fn addresses_for_slice(
        &self,
        slice: SliceId,
        requester: PartitionId,
        n: usize,
        start: u64,
    ) -> Vec<u64> {
        // A slice that can never service this requester has no such
        // addresses, and the open-ended search below would never terminate.
        if !self.can_serve(slice, requester) {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        let mut line = start;
        while out.len() < n {
            if self.effective_slice(line, requester) == slice {
                out.push(line);
            }
            line += 1;
        }
        out
    }

    /// Histogram of effective-slice hits for an address stream — used to
    /// check hashing load balance (paper Fig. 16).
    pub fn slice_histogram<I>(&self, lines: I, requester: PartitionId) -> Vec<u64>
    where
        I: IntoIterator<Item = u64>,
    {
        let mut histogram = vec![0u64; self.num_slices as usize];
        for line in lines {
            histogram[self.effective_slice(line, requester).index()] += 1;
        }
        histogram
    }
}

/// The `M[s]` tables of one device, grown lazily.
///
/// Each table covers one residency domain: the whole device under
/// [`CachePolicy::GloballyShared`] (the effective slice ignores the
/// requester), one die partition under [`CachePolicy::PartitionLocal`].
/// A table holds every line below its scan cursor, listed under its
/// effective slice in ascending order, so entry `[s][..n]` equals
/// [`AddressMap::addresses_for_slice`]`(s, requester, n, 0)`. Growing one
/// slice's list to `n` lines costs one hash per newly scanned line, and the
/// lines it passes over land in the other slices' lists instead of being
/// rescanned for them. Built for one map: the owner drops the tables
/// whenever it replaces the map.
#[derive(Debug, Default)]
pub(crate) struct SliceTables {
    domains: Vec<SliceTable>,
}

#[derive(Debug, Default)]
struct SliceTable {
    /// Lines serviced by each slice, ascending.
    lines: Vec<Vec<u64>>,
    /// The next line address to scan.
    cursor: u64,
}

impl SliceTables {
    /// The residency domain `requester` belongs to under `map`'s policy.
    pub(crate) fn domain(map: &AddressMap, requester: PartitionId) -> usize {
        match map.policy {
            CachePolicy::GloballyShared => 0,
            CachePolicy::PartitionLocal => requester.index(),
        }
    }

    /// At least `n` lines whose effective slice for `requester` is `slice`,
    /// in ascending order — or none when the slice can never serve it.
    pub(crate) fn lines(
        &mut self,
        map: &AddressMap,
        slice: SliceId,
        requester: PartitionId,
        n: usize,
    ) -> &[u64] {
        if !map.can_serve(slice, requester) {
            return &[];
        }
        let d = Self::domain(map, requester);
        if self.domains.len() <= d {
            self.domains.resize_with(d + 1, SliceTable::default);
        }
        let table = &mut self.domains[d];
        if table.lines.is_empty() {
            table.lines = vec![Vec::new(); map.num_slices()];
        }
        while table.lines[slice.index()].len() < n {
            let line = table.cursor;
            table.cursor += 1;
            table.lines[map.effective_slice(line, requester).index()].push(line);
        }
        &table.lines[slice.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_topo::GpuSpec;

    fn v100_map() -> AddressMap {
        let h = GpuSpec::v100().hierarchy();
        AddressMap::new(&h, CachePolicy::GloballyShared)
    }

    fn h100_map() -> (AddressMap, Hierarchy) {
        let h = GpuSpec::h100().hierarchy();
        (AddressMap::new(&h, CachePolicy::PartitionLocal), h)
    }

    #[test]
    fn hash_is_deterministic() {
        let m = v100_map();
        assert_eq!(m.home_slice(42), m.home_slice(42));
    }

    #[test]
    fn hash_balances_sequential_addresses() {
        // Observation #12: sequential traffic is load-balanced across slices.
        let m = v100_map();
        let hist = m.slice_histogram(0..32_000u64, PartitionId::new(0));
        let mean = 32_000.0 / hist.len() as f64;
        for (s, &count) in hist.iter().enumerate() {
            let dev = (count as f64 - mean).abs() / mean;
            assert!(dev < 0.15, "slice {s} imbalanced: {count} vs mean {mean}");
        }
    }

    #[test]
    fn addresses_for_unservable_slice_are_empty_not_a_hang() {
        // Fused-off slice: no address can hash to it, so the search must
        // return empty instead of scanning the address space forever.
        let h = GpuSpec::v100().hierarchy();
        let m = AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &[7]).unwrap();
        assert!(!m.is_enabled(SliceId::new(7)));
        assert!(m
            .addresses_for_slice(SliceId::new(7), PartitionId::new(0), 4, 0)
            .is_empty());
        // Survivors still resolve.
        assert_eq!(
            m.addresses_for_slice(SliceId::new(8), PartitionId::new(0), 4, 0)
                .len(),
            4
        );

        // Partition-local: a remote slice can never serve this requester.
        let (m, h) = h100_map();
        let remote = h.slices_in_partition(PartitionId::new(1))[0];
        assert!(m
            .addresses_for_slice(remote, PartitionId::new(0), 4, 0)
            .is_empty());
    }

    #[test]
    fn addresses_for_slice_map_back() {
        let m = v100_map();
        let p = PartitionId::new(0);
        let target = SliceId::new(7);
        let addrs = m.addresses_for_slice(target, p, 64, 0);
        assert_eq!(addrs.len(), 64);
        for a in addrs {
            assert_eq!(m.effective_slice(a, p), target);
        }
    }

    #[test]
    fn globally_shared_ignores_requester() {
        let h = GpuSpec::a100().hierarchy();
        let m = AddressMap::new(&h, CachePolicy::GloballyShared);
        for line in 0..256 {
            assert_eq!(
                m.effective_slice(line, PartitionId::new(0)),
                m.effective_slice(line, PartitionId::new(1))
            );
        }
    }

    #[test]
    fn partition_local_keeps_hits_local() {
        let (m, h) = h100_map();
        for line in 0..512 {
            for p in 0..2u32 {
                let slice = m.effective_slice(line, PartitionId::new(p));
                assert_eq!(
                    h.slice(slice).partition,
                    PartitionId::new(p),
                    "line {line} served by remote slice on partition-local device"
                );
            }
        }
    }

    #[test]
    fn partition_local_home_mp_spans_both_partitions() {
        let (m, h) = h100_map();
        let mut seen = [false; 2];
        for line in 0..256 {
            seen[h.partition_of_mp(m.home_mp(line)).index()] = true;
        }
        assert!(seen[0] && seen[1], "home MPs should span both partitions");
    }

    #[test]
    fn disabled_slices_never_service_traffic() {
        let h = GpuSpec::a100().hierarchy();
        let disabled = [0u32, 17, 42, 79];
        let m = AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &disabled).unwrap();
        assert_eq!(m.num_enabled(), 76);
        for line in 0..8_192u64 {
            let s = m.effective_slice(line, PartitionId::new(0));
            assert!(m.is_enabled(s));
            assert!(!disabled.contains(&(s.index() as u32)));
        }
    }

    #[test]
    fn disabled_slices_keep_the_hash_balanced() {
        let h = GpuSpec::v100().hierarchy();
        let m = AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &[3, 9]).unwrap();
        let hist = m.slice_histogram(0..30_000u64, PartitionId::new(0));
        assert_eq!(hist[3], 0);
        assert_eq!(hist[9], 0);
        let mean = 30_000.0 / 30.0;
        for (s, &count) in hist.iter().enumerate() {
            if s == 3 || s == 9 {
                continue;
            }
            let dev = (count as f64 - mean).abs() / mean;
            assert!(dev < 0.15, "slice {s} imbalanced after remap: {count}");
        }
    }

    #[test]
    fn empty_disable_set_is_bit_identical_to_new() {
        let h = GpuSpec::a100().hierarchy();
        let pristine = AddressMap::new(&h, CachePolicy::GloballyShared);
        for line in 0..4_096u64 {
            // The enabled-list remap is the identity on a pristine device.
            assert_eq!(
                pristine.home_slice(line).index() as u64,
                super::line_hash(line) % h.num_slices() as u64
            );
        }
    }

    #[test]
    fn partition_local_rejects_emptied_partition() {
        let h = GpuSpec::h100().hierarchy();
        // Disable every slice of partition 0 (slices are partition-major).
        let disabled: Vec<u32> = (0..40).collect();
        assert_eq!(
            AddressMap::with_disabled(&h, CachePolicy::PartitionLocal, &disabled),
            Err(SliceDisableError::PartitionEmptied(PartitionId::new(0)))
        );
        // The same disable set is fine on a globally-shared device.
        AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &disabled).unwrap();
    }

    #[test]
    fn disable_validation_errors() {
        let h = GpuSpec::v100().hierarchy();
        assert_eq!(
            AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &[99]),
            Err(SliceDisableError::OutOfRange {
                slice: 99,
                num_slices: 32
            })
        );
        assert_eq!(
            AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &[1, 1]),
            Err(SliceDisableError::Duplicate(1))
        );
        let all: Vec<u32> = (0..32).collect();
        assert_eq!(
            AddressMap::with_disabled(&h, CachePolicy::GloballyShared, &all),
            Err(SliceDisableError::AllDisabled)
        );
    }

    #[test]
    fn home_mp_agrees_with_home_slice() {
        let m = v100_map();
        let h = GpuSpec::v100().hierarchy();
        for line in 0..128 {
            assert_eq!(m.home_mp(line), h.slice(m.home_slice(line)).mp);
        }
    }
}
