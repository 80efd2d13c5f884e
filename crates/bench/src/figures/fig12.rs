//! Fig. 12: A100 per-slice bandwidth from SM0 and SM2 — near/far partitions
//! mirror each other.

use gnoc_bench::{compare, header, series};
use gnoc_core::microbench::bandwidth::sm_slice_profile_gbps;
use gnoc_core::{GpuDevice, SmId, Summary};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 12 — A100 per-slice bandwidth from SM0 vs SM2",
        "near ≈39.5 GB/s, far ≈26 GB/s; SM0 and SM2 sit on opposite \
         partitions so their near/far halves swap",
    );
    let mut dev = GpuDevice::a100(0);
    for sm in [SmId::new(0), SmId::new(2)] {
        let p = dev.hierarchy().sm(sm).partition;
        let profile = sm_slice_profile_gbps(&mut dev, sm);
        println!("\n{sm} (partition {}):", p.index());
        println!("  slices 0..39 : {}", series(&profile[..40], 1));
        println!("  slices 40..79: {}", series(&profile[40..], 1));
        let lo = Summary::of(&profile[..40]);
        let hi = Summary::of(&profile[40..]);
        let (near, far) = if lo.mean > hi.mean {
            (lo, hi)
        } else {
            (hi, lo)
        };
        compare(
            "  near-partition mean (GB/s)",
            "≈39.5",
            format!("{:.1}", near.mean),
        );
        compare(
            "  far-partition mean (GB/s)",
            "≈26",
            format!("{:.1}", far.mean),
        );
    }
}
