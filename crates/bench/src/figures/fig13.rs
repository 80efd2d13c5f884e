//! Fig. 13: distribution of single-SM per-slice bandwidth — bimodal on A100
//! (near/far partitions), single-peaked on H100 (partition-local L2).

use gnoc_bench::{compare, header};
use gnoc_core::microbench::bandwidth::sm_slice_profile_gbps;
use gnoc_core::{GpuDevice, Histogram, SmId};

pub fn run() {
    header(
        "Fig. 13 — per-slice bandwidth distributions (A100 vs H100)",
        "A100 bimodal (near/far); H100 single peak; both above V100's 34 GB/s",
    );
    for (mut dev, paper_peaks) in [(GpuDevice::a100(13), 2usize), (GpuDevice::h100(13), 1)] {
        let name = dev.spec().name.clone();
        let mut samples = Vec::new();
        for sm in [0u32, 1, 2, 17, 40] {
            samples.extend(sm_slice_profile_gbps(&mut dev, SmId::new(sm)));
        }
        let h = Histogram::new(&samples, 15.0, 70.0, 28);
        println!("\n{name}:");
        print!("{}", h.render_ascii(40));
        compare(
            "  distribution peaks",
            &paper_peaks.to_string(),
            h.peak_count(0.2).to_string(),
        );
    }
}
