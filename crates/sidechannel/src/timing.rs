//! GPU kernel-timing models for the side-channel experiments.
//!
//! Both attacks in the paper reduce to kernel execution time that depends on
//! (a) a secret-dependent amount of memory work and (b) the *placement* of
//! the kernel's SMs relative to the L2 slices — the NoC contribution that is
//! the paper's subject (Fig. 17).

use gnoc_engine::GpuDevice;
use gnoc_topo::SmId;

/// Extra cycles per additional coalesced memory transaction once the first
/// transaction's latency is paid (the slope of Fig. 17a).
pub const ISSUE_GAP_CYCLES: f64 = 6.0;

/// Base line address of the resident AES T-tables in the device address
/// space (arbitrary but fixed; the tables are warmed into L2).
pub const TABLE_BASE_LINE: u64 = 0x4000_0000;

/// Execution time (cycles) of one warp performing coalesced reads that touch
/// the given table cache lines from `sm` — the Fig. 17a kernel.
///
/// The warp issues one memory transaction per *unique* line; the
/// transactions pipeline at [`ISSUE_GAP_CYCLES`] and the warp completes when
/// the slowest reply returns, so the time is the *maximum* per-line L2
/// latency (placement-dependent) plus the serialisation term. Measurement
/// jitter comes from the device's seeded noise stream.
pub fn warp_read_cycles(dev: &mut GpuDevice, sm: SmId, table_lines: &[u8]) -> f64 {
    // One bit per line. Words low to high, each word's set bits lowest
    // first, visit the unique lines in ascending order.
    let mut seen = [0u64; 4];
    for &line in table_lines {
        seen[usize::from(line >> 6)] |= 1 << (line & 63);
    }
    let unique: u32 = seen.iter().map(|w| w.count_ones()).sum();
    if unique == 0 {
        return 0.0;
    }
    let mut slowest = 0.0f64;
    for (w, &word) in (0u64..).zip(&seen) {
        let mut bits = word;
        while bits != 0 {
            let addr = TABLE_BASE_LINE + w * 64 + u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            slowest = slowest.max(dev.warm_and_time(sm, addr, 1) as f64);
        }
    }
    slowest + (f64::from(unique) - 1.0) * ISSUE_GAP_CYCLES
}

/// Fixed (compute) cycles of one `square()`/`multiply()` kernel invocation,
/// excluding memory and synchronisation.
pub const RSA_OP_COMPUTE_CYCLES: f64 = 52.0;

/// Execution time (cycles) of one two-SM RSA kernel operation (the CUDA
/// `square()` sample the paper measures in Fig. 17b).
///
/// Both SMs read the shared operand, which lives in L2 near `sm_a`; each
/// iteration ends with a barrier. When the SMs sit on different die
/// partitions the far SM pays the crossing on every access *and* the barrier
/// pays a round trip over the central interconnect — the paper measures up to
/// 1.7× on A100.
pub fn two_sm_op_cycles(dev: &GpuDevice, sm_a: SmId, sm_b: SmId) -> f64 {
    let h = dev.hierarchy();
    let pa = h.sm(sm_a).partition;
    // Shared data is resident in sm_a's partition (or the single partition).
    let data_slices = h.slices_in_partition(pa);
    let mean_lat = |sm: SmId| -> f64 {
        data_slices
            .iter()
            .map(|&s| dev.hit_cycles_mean(sm, s))
            .sum::<f64>()
            / data_slices.len() as f64
    };
    let sync = if h.sm(sm_b).partition == pa {
        0.0
    } else {
        2.0 * dev.calibration().partition_crossing_cycles
    };
    RSA_OP_COMPUTE_CYCLES + mean_lat(sm_a) + mean_lat(sm_b) + sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_topo::PartitionId;

    #[test]
    fn warp_time_grows_linearly_with_unique_lines() {
        // Fig. 17a: latency linear in the number of unique cache lines.
        let mut dev = GpuDevice::v100(0);
        let sm = SmId::new(0);
        let t1 = avg(&mut dev, sm, &[0]);
        let t4 = avg(&mut dev, sm, &[0, 1, 2, 3]);
        let t8 = avg(&mut dev, sm, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(t1 < t4 && t4 < t8, "{t1} {t4} {t8}");
        // Adding lines 4..8 to an existing set costs ≈ 4 serialisation gaps
        // (plus a bounded change in the max-latency term).
        assert!((t8 - t4 - 4.0 * ISSUE_GAP_CYCLES).abs() < 25.0, "{t4} {t8}");
    }

    fn avg(dev: &mut GpuDevice, sm: SmId, lines: &[u8]) -> f64 {
        (0..24)
            .map(|_| warp_read_cycles(dev, sm, lines))
            .sum::<f64>()
            / 24.0
    }

    #[test]
    fn duplicate_lines_coalesce() {
        let mut dev = GpuDevice::v100(1);
        let sm = SmId::new(3);
        let dup = avg(&mut dev, sm, &[5, 5, 5, 5]);
        let single = avg(&mut dev, sm, &[5]);
        assert!((dup - single).abs() < 5.0, "{dup} vs {single}");
    }

    #[test]
    fn warp_time_shifts_with_sm_placement() {
        // Fig. 17a: the linear relationship "shifts" between SMs.
        let mut dev = GpuDevice::a100(0);
        let near = avg(&mut dev, SmId::new(0), &[0, 1, 2, 3]);
        // Find an SM on the other partition: its view of the same table lines
        // is served by its own partition... on A100 (globally shared) the
        // table lines live on fixed slices, so a far SM pays the crossing.
        let far_sm = SmId::new(2);
        let far = avg(&mut dev, far_sm, &[0, 1, 2, 3]);
        assert!(
            (far - near).abs() > 15.0,
            "placement shift expected: {near} vs {far}"
        );
    }

    #[test]
    fn line_bitset_reads_like_a_sorted_deduplicated_list() {
        // The reference: copy, sort and dedup, then read in that order.
        fn reference(dev: &mut GpuDevice, sm: SmId, table_lines: &[u8]) -> f64 {
            let mut unique = table_lines.to_vec();
            unique.sort_unstable();
            unique.dedup();
            if unique.is_empty() {
                return 0.0;
            }
            let mut slowest = 0.0f64;
            for &line in &unique {
                let addr = TABLE_BASE_LINE + u64::from(line);
                dev.warm_line(sm, addr);
                slowest = slowest.max(dev.timed_read(sm, addr) as f64);
            }
            slowest + (unique.len() as f64 - 1.0) * ISSUE_GAP_CYCLES
        }
        let (mut dev, mut refdev) = (GpuDevice::a100(4), GpuDevice::a100(4));
        let sets: [&[u8]; 6] = [
            &[255, 64, 63, 200, 64, 0, 128, 127, 191, 192],
            &[31, 7, 7, 7, 30],
            &[0],
            &[255],
            &[],
            &[65, 129, 193, 1, 1, 65],
        ];
        for (i, lines) in sets.iter().cycle().take(60).enumerate() {
            let sm = SmId::new((i * 13 % 108) as u32);
            assert_eq!(
                warp_read_cycles(&mut dev, sm, lines).to_bits(),
                reference(&mut refdev, sm, lines).to_bits(),
                "{lines:?}"
            );
        }
    }

    #[test]
    fn empty_line_set_is_free() {
        let mut dev = GpuDevice::v100(0);
        assert_eq!(warp_read_cycles(&mut dev, SmId::new(0), &[]), 0.0);
    }

    #[test]
    fn cross_partition_rsa_op_costs_about_1_7x() {
        // Fig. 17b on A100: up to ≈ 1.7× across partitions, ≤ ~12 % within.
        let dev = GpuDevice::a100(0);
        let h = dev.hierarchy();
        let left = h.sms_in_partition(PartitionId::new(0)).to_vec();
        let right = h.sms_in_partition(PartitionId::new(1)).to_vec();
        let same = two_sm_op_cycles(&dev, left[0], left[1]);
        let cross = two_sm_op_cycles(&dev, left[0], right[0]);
        let ratio = cross / same;
        assert!((1.5..1.95).contains(&ratio), "cross/same = {ratio:.2}");

        // Within-partition variation stays modest.
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &b in left.iter().skip(1).take(12) {
            let t = two_sm_op_cycles(&dev, left[0], b);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        assert!(hi / lo < 1.15, "same-partition spread {:.3}", hi / lo);
    }

    #[test]
    fn v100_has_no_cross_partition_penalty() {
        let dev = GpuDevice::v100(0);
        let a = two_sm_op_cycles(&dev, SmId::new(0), SmId::new(40));
        let b = two_sm_op_cycles(&dev, SmId::new(0), SmId::new(1));
        assert!(a / b < 1.2, "{a} vs {b}");
    }
}
