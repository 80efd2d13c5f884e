//! Bandwidth microbenchmarks — the paper's Algorithm 2.
//!
//! All threads of many blocks stream L1-bypassing accesses whose addresses
//! are pre-selected (via the `M[s]` tables) to hit chosen L2 slices;
//! bandwidth is bytes moved over elapsed time. The model resolves the
//! steady-state rates through the engine's max-min fair fabric solver and
//! adds small measurement jitter.

use gnoc_engine::{AccessKind, FlowSpec, GpuDevice};
use gnoc_topo::{CachePolicy, SliceId, SmId};

/// Builds one flow per `(sm, slice)` pair.
pub fn cross_flows(sms: &[SmId], slices: &[SliceId], kind: AccessKind) -> Vec<FlowSpec> {
    sms.iter()
        .flat_map(|&sm| {
            slices
                .iter()
                .map(move |&slice| FlowSpec { sm, slice, kind })
        })
        .collect()
}

/// The slices an SM's L2 traffic can target on this device: every slice on
/// globally-shared devices, the local partition's slices on H100-style
/// partition-local devices.
pub fn reachable_slices(dev: &GpuDevice, sm: SmId) -> Vec<SliceId> {
    let h = dev.hierarchy();
    match dev.spec().cache_policy {
        CachePolicy::GloballyShared => SliceId::range(h.num_slices()).collect(),
        CachePolicy::PartitionLocal => h.slices_in_partition(h.sm(sm).partition).to_vec(),
    }
}

/// Measured bandwidth (GB/s, with jitter) of `sms` streaming reads that hit
/// in `slice`. No SMs move no bytes: that reads exactly 0 and draws no
/// jitter.
pub fn sms_to_slice_gbps(dev: &mut GpuDevice, sms: &[SmId], slice: SliceId) -> f64 {
    if sms.is_empty() {
        return 0.0;
    }
    let flows = cross_flows(sms, &[slice], AccessKind::ReadHit);
    let total = dev.solve_bandwidth(&flows).total_gbps;
    measured(dev, total, sms.len())
}

/// Per-slice bandwidth profile of a single SM (paper Fig. 12): one
/// measurement per reachable slice, each with the slice as sole target.
/// Every slice's flow is solved first, in one pass; the jitter is then
/// drawn in slice order, as one measurement after another would draw it.
pub fn sm_slice_profile_gbps(dev: &mut GpuDevice, sm: SmId) -> Vec<f64> {
    let flows = cross_flows(&[sm], &reachable_slices(dev, sm), AccessKind::ReadHit);
    let mut profile = dev.solve_each(&flows);
    for gbps in &mut profile {
        *gbps = measured(dev, *gbps, 1);
    }
    profile
}

/// A solved rate of `num_sms` SMs as the benchmark reads it: with the
/// device's measurement jitter, never below 0.
fn measured(dev: &mut GpuDevice, gbps: f64, num_sms: usize) -> f64 {
    (gbps + dev.bandwidth_jitter(bw_sigma(num_sms))).max(0.0)
}

/// Aggregate L2 *fabric* bandwidth: every SM streams L2-hitting reads across
/// every reachable slice (paper Fig. 9a, "L2" bars).
pub fn aggregate_fabric_gbps(dev: &mut GpuDevice) -> f64 {
    aggregate_gbps(dev, AccessKind::ReadHit)
}

/// Aggregate *global memory* bandwidth: every SM streams L2-missing reads
/// (paper Fig. 9a, "memory" bars).
pub fn aggregate_memory_gbps(dev: &mut GpuDevice) -> f64 {
    aggregate_gbps(dev, AccessKind::ReadMiss)
}

fn aggregate_gbps(dev: &mut GpuDevice, kind: AccessKind) -> f64 {
    let num_sms = dev.hierarchy().num_sms();
    let mut flows = Vec::new();
    for sm in SmId::range(num_sms) {
        let slices = reachable_slices(dev, sm);
        flows.extend(cross_flows(&[sm], &slices, kind));
    }
    let total = dev.solve_bandwidth(&flows).total_gbps;
    (total + dev.bandwidth_jitter(2.0)).max(0.0)
}

/// Measurement noise grows mildly with the number of co-operating SMs; a
/// single-SM run matches the paper's σ ≈ 0.15 GB/s (Fig. 9b), a full-GPC run
/// its σ ≈ 0.06 GB/s relative tightness (Fig. 9c).
fn bw_sigma(num_sms: usize) -> f64 {
    if num_sms <= 1 {
        0.15
    } else {
        0.06
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_analysis::{Histogram, Summary};
    use gnoc_topo::{GpcId, PartitionId};

    #[test]
    fn single_sm_to_slice_is_34_gbps_on_v100() {
        // Fig. 9b: mean ≈ 34 GB/s, tight distribution.
        let mut dev = GpuDevice::v100(0);
        let samples: Vec<f64> = (0..40)
            .map(|i| sms_to_slice_gbps(&mut dev, &[SmId::new(i % 80)], SliceId::new((i * 7) % 32)))
            .collect();
        let s = Summary::of(&samples);
        assert!((32.0..36.0).contains(&s.mean), "{s}");
        assert!(s.stddev < 0.5, "distribution should be tight: {s}");
    }

    #[test]
    fn zero_sms_measure_zero_and_draw_no_jitter() {
        let mut dev = GpuDevice::v100(0);
        let mut fresh = GpuDevice::v100(0);
        for slice in SliceId::range(32) {
            assert_eq!(sms_to_slice_gbps(&mut dev, &[], slice), 0.0);
        }
        // The jitter stream is where a fresh device's is.
        let sm = [SmId::new(0)];
        assert_eq!(
            sms_to_slice_gbps(&mut dev, &sm, SliceId::new(0)).to_bits(),
            sms_to_slice_gbps(&mut fresh, &sm, SliceId::new(0)).to_bits()
        );
    }

    #[test]
    fn gpc_to_slice_saturates_near_85_on_v100() {
        // Fig. 9c.
        let mut dev = GpuDevice::v100(1);
        let sms = dev.hierarchy().sms_in_gpc(GpcId::new(2)).to_vec();
        let bw = sms_to_slice_gbps(&mut dev, &sms, SliceId::new(9));
        assert!((78.0..90.0).contains(&bw), "{bw}");
    }

    #[test]
    fn a100_profile_is_bimodal() {
        // Fig. 12/13a: near slices ≈ 39.5, far ≈ 26–30 GB/s.
        let mut dev = GpuDevice::a100(0);
        let profile = sm_slice_profile_gbps(&mut dev, SmId::new(0));
        assert_eq!(profile.len(), 80);
        let near = Summary::of(&profile[..40]);
        let far = Summary::of(&profile[40..]);
        assert!((37.0..42.0).contains(&near.mean), "near {near}");
        assert!((23.0..32.0).contains(&far.mean), "far {far}");
        let h = Histogram::new(&profile, 20.0, 45.0, 25);
        assert_eq!(h.peak_count(0.2), 2, "{}", h.render_ascii(40));
    }

    #[test]
    fn a100_sm0_and_sm2_mirror_each_other() {
        // Fig. 12: SM0 and SM2 sit on opposite partitions, so their near/far
        // slice ranges swap.
        let mut dev = GpuDevice::a100(0);
        let p0 = sm_slice_profile_gbps(&mut dev, SmId::new(0));
        let p2 = sm_slice_profile_gbps(&mut dev, SmId::new(2));
        let near0 = Summary::of(&p0[..40]).mean;
        let far0 = Summary::of(&p0[40..]).mean;
        let near2 = Summary::of(&p2[40..]).mean;
        let far2 = Summary::of(&p2[..40]).mean;
        assert!(near0 > far0 + 5.0);
        assert!(near2 > far2 + 5.0);
    }

    #[test]
    fn h100_profile_is_unimodal() {
        // Fig. 13b: partition-local caching leaves a single peak.
        let mut dev = GpuDevice::h100(0);
        let profile = sm_slice_profile_gbps(&mut dev, SmId::new(0));
        assert_eq!(profile.len(), 40);
        // Same axis style as Fig. 13: a fixed bandwidth range.
        let h = Histogram::new(&profile, 20.0, 70.0, 25);
        assert_eq!(h.peak_count(0.25), 1, "{}", h.render_ascii(40));
    }

    #[test]
    fn fabric_exceeds_memory_bandwidth_on_all_presets() {
        // Observation #7 via the microbench layer.
        for (name, mut dev) in [
            ("V100", GpuDevice::v100(0)),
            ("A100", GpuDevice::a100(0)),
            ("H100", GpuDevice::h100(0)),
        ] {
            let fabric = aggregate_fabric_gbps(&mut dev);
            let mem = aggregate_memory_gbps(&mut dev);
            let ratio = fabric / mem;
            assert!(
                (2.0..4.0).contains(&ratio),
                "{name}: fabric {fabric:.0} / mem {mem:.0} = {ratio:.2}"
            );
        }
    }

    #[test]
    fn partition_traffic_respects_cache_policy() {
        let dev = GpuDevice::h100(0);
        let sm = SmId::new(0);
        let slices = reachable_slices(&dev, sm);
        let p = dev.hierarchy().sm(sm).partition;
        assert!(slices
            .iter()
            .all(|&s| dev.hierarchy().slice(s).partition == p));
        assert_eq!(
            reachable_slices(&GpuDevice::v100(0), SmId::new(0)).len(),
            32
        );
        let _ = PartitionId::new(0);
    }
}
