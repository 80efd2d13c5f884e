//! What-if: H100 *without* partition-local L2 caching.
//!
//! Observation #6 credits H100's uniform hit latency to its partition-local
//! cache policy. This experiment builds the counterfactual device — H100's
//! geometry and fabric with A100-style globally shared L2 — and shows the
//! A100 pathologies (≈2× far-partition hit latency, bimodal per-slice
//! bandwidth) reappear, isolating the policy's contribution from the rest of
//! the Hopper design.

use gnoc_bench::{compare, header};
use gnoc_core::microbench::bandwidth::sm_slice_profile_gbps;
use gnoc_core::{
    CachePolicy, GpuDevice, GpuSpec, Histogram, LatencyProbe, PartitionId, SliceId, Summary,
};

fn characterise(dev: &mut GpuDevice) -> (f64, f64, usize) {
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 6,
    };
    let h = dev.hierarchy().clone();
    let sm = h.sms_in_partition(PartitionId::new(0))[0];
    // Mean hit latency to near- and far-partition homes. For the
    // partition-local device every hit is near by construction.
    let lat = |slices: &[SliceId], dev: &mut GpuDevice| -> f64 {
        slices
            .iter()
            .map(|&s| probe.measure_pair(dev, sm, s))
            .sum::<f64>()
            / slices.len() as f64
    };
    let near_slices = h.slices_in_partition(PartitionId::new(0))[..4].to_vec();
    let far_slices = h.slices_in_partition(PartitionId::new(1))[..4].to_vec();
    let near = lat(&near_slices, dev);
    let far = if dev.spec().cache_policy == CachePolicy::GloballyShared {
        lat(&far_slices, dev)
    } else {
        near // hits never leave the partition
    };
    let profile = sm_slice_profile_gbps(dev, sm);
    let peaks = Histogram::new(&profile, 15.0, 70.0, 25).peak_count(0.2);
    (near, far, peaks)
}

pub fn run() {
    header(
        "What-if — H100 with a globally shared L2",
        "removing partition-local caching re-introduces the A100 pathologies: \
         ≈2x far-partition hit latency and bimodal per-slice bandwidth",
    );
    let mut real = GpuDevice::h100(0);
    let (near, far, peaks) = characterise(&mut real);
    println!("H100 (real, partition-local L2):");
    compare(
        "  near-hit latency (cycles)",
        "uniform",
        format!("{near:.0}"),
    );
    compare(
        "  far-hit latency (cycles)",
        "n/a (always local)",
        format!("{far:.0}"),
    );
    compare("  per-slice BW peaks", "1", peaks.to_string());

    let mut spec = GpuSpec::h100();
    spec.cache_policy = CachePolicy::GloballyShared;
    spec.name = "H100-globalL2".into();
    let mut counterfactual = GpuDevice::with_seed(spec, 0).expect("valid");
    let (near, far, peaks) = characterise(&mut counterfactual);
    println!("\nH100-globalL2 (counterfactual):");
    compare(
        "  near-hit latency (cycles)",
        "A100-like ≈210",
        format!("{near:.0}"),
    );
    compare(
        "  far-hit latency (cycles)",
        "A100-like ≈400",
        format!("{far:.0}"),
    );
    compare("  per-slice BW peaks", "2 (bimodal)", peaks.to_string());

    let s = Summary::of(&[far - near]);
    println!(
        "\npartition-local caching removes a {:.0}-cycle hit-latency cliff \
         at the cost of duplicating hot lines in both partitions' L2.",
        s.mean
    );
}
