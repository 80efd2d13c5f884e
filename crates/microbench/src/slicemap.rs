//! Reverse engineering of the address → L2-slice mapping.
//!
//! On V100 the paper reads the profiler's non-aggregated per-slice counters
//! to learn which slice each address maps to. On A100/H100 those counters are
//! gone (footnote 1), so the paper falls back to a contention probe: one
//! kernel hammers a fixed reference address while another hammers the
//! candidate; a bandwidth drop reveals that both addresses share a slice.
//! Both methods are implemented here against the virtual device.

use crate::bandwidth::cross_flows;
use gnoc_engine::{AccessKind, GpuDevice};
use gnoc_topo::{GpcId, SliceId, SmId};

/// Identifies the slice servicing `line` for `sm` via per-slice profiler
/// counters, or `None` on devices that hide them (A100/H100).
pub fn slice_via_profiler(dev: &mut GpuDevice, sm: SmId, line: u64) -> Option<SliceId> {
    if !dev.spec().per_slice_counters {
        return None;
    }
    dev.reset_profiler();
    dev.warm_and_time(sm, line, 8);
    dev.profiler().hottest_slice()
}

/// Relative bandwidth retained by a reference kernel when a probe kernel runs
/// alongside it. Values well below 1 indicate slice contention.
fn contention_ratio(dev: &GpuDevice, reference: u64, candidate: u64) -> f64 {
    let h = dev.hierarchy();
    // Two disjoint SM groups, one per "kernel", as in the paper's workaround.
    let group_a: Vec<SmId> = h
        .sms_in_gpc(GpcId::new(0))
        .iter()
        .copied()
        .take(6)
        .collect();
    let group_b: Vec<SmId> = h
        .sms_in_gpc(GpcId::new(1.min(h.num_gpcs() as u32 - 1)))
        .iter()
        .copied()
        .take(6)
        .collect();
    let ref_slice = dev.effective_slice(group_a[0], reference);
    let cand_slice = dev.effective_slice(group_b[0], candidate);

    let solo = dev
        .solve_bandwidth(&cross_flows(&group_a, &[ref_slice], AccessKind::ReadHit))
        .total_gbps;
    let mut flows = cross_flows(&group_a, &[ref_slice], AccessKind::ReadHit);
    flows.extend(cross_flows(&group_b, &[cand_slice], AccessKind::ReadHit));
    let sol = dev.solve_bandwidth(&flows);
    let together = sol.total_where(&flows, |f| group_a.contains(&f.sm));
    together / solo
}

/// Contention-probe test: do `reference` and `candidate` map to the same
/// slice (as seen from partition-0 SMs)?
///
/// This is the paper's A100/H100 methodology; it works on every device.
pub fn same_slice_via_contention(dev: &GpuDevice, reference: u64, candidate: u64) -> bool {
    contention_ratio(dev, reference, candidate) < 0.8
}

/// Groups `lines` into slice-equivalence classes using the best method the
/// device supports: profiler counters when available, contention probing
/// otherwise. Returns (representative line, members) per class.
pub fn classify_lines(dev: &mut GpuDevice, sm: SmId, lines: &[u64]) -> Vec<(u64, Vec<u64>)> {
    let mut classes: Vec<(u64, Vec<u64>)> = Vec::new();
    let use_profiler = dev.spec().per_slice_counters;
    let mut class_slice: Vec<SliceId> = Vec::new();
    for &line in lines {
        if use_profiler {
            let slice = slice_via_profiler(dev, sm, line).expect("profiler available");
            if let Some(pos) = class_slice.iter().position(|&s| s == slice) {
                classes[pos].1.push(line);
            } else {
                class_slice.push(slice);
                classes.push((line, vec![line]));
            }
        } else {
            let mut placed = false;
            for (rep, members) in classes.iter_mut() {
                if same_slice_via_contention(dev, *rep, line) {
                    members.push(line);
                    placed = true;
                    break;
                }
            }
            if !placed {
                classes.push((line, vec![line]));
            }
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_method_recovers_ground_truth_on_v100() {
        let mut dev = GpuDevice::v100(0);
        let sm = SmId::new(0);
        for line in 0..24u64 {
            let truth = dev.effective_slice(sm, line);
            assert_eq!(slice_via_profiler(&mut dev, sm, line), Some(truth));
        }
    }

    #[test]
    fn profiler_method_unavailable_on_a100() {
        let mut dev = GpuDevice::a100(0);
        assert_eq!(slice_via_profiler(&mut dev, SmId::new(0), 3), None);
    }

    #[test]
    fn contention_probe_detects_shared_slice() {
        let dev = GpuDevice::a100(0);
        let sm = SmId::new(0);
        let target = dev.effective_slice(sm, 0);
        // Find another line on the same slice and one on a different slice.
        let same = (1..)
            .find(|&l| dev.effective_slice(sm, l) == target)
            .unwrap();
        let diff = (1..)
            .find(|&l| dev.effective_slice(sm, l) != target)
            .unwrap();
        assert!(same_slice_via_contention(&dev, 0, same));
        assert!(!same_slice_via_contention(&dev, 0, diff));
    }

    #[test]
    fn classification_matches_hash_on_v100() {
        let mut dev = GpuDevice::v100(0);
        let sm = SmId::new(0);
        let lines: Vec<u64> = (0..40).collect();
        let classes = classify_lines(&mut dev, sm, &lines);
        // Every class must be slice-pure.
        for (_, members) in &classes {
            let s0 = dev.effective_slice(sm, members[0]);
            assert!(members.iter().all(|&l| dev.effective_slice(sm, l) == s0));
        }
        let total: usize = classes.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn contention_classification_is_slice_pure_on_a100() {
        let mut dev = GpuDevice::a100(0);
        let sm = SmId::new(0);
        let lines: Vec<u64> = (0..12).collect();
        let classes = classify_lines(&mut dev, sm, &lines);
        for (_, members) in &classes {
            let s0 = dev.effective_slice(sm, members[0]);
            assert!(
                members.iter().all(|&l| dev.effective_slice(sm, l) == s0),
                "class with rep slice {s0} is impure"
            );
        }
    }
}
