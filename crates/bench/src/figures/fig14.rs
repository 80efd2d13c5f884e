//! Fig. 14: A100 single-slice bandwidth as the number of SMs grows, near vs
//! far partition — Little's law gap closing by ≈8 SMs.

use gnoc_bench::{header, series};
use gnoc_core::microbench::bandwidth::sms_to_slice_gbps;
use gnoc_core::{GpuDevice, PartitionId, SmId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 14 — A100 slice bandwidth vs number of SMs (near vs far)",
        "1–2 SMs: far up to ≈28% lower (Little's law); converged by ≈8 SMs",
    );
    let mut dev = GpuDevice::a100(0);
    let h = dev.hierarchy().clone();
    let near_sms = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let far_sms = h.sms_in_partition(PartitionId::new(1)).to_vec();
    let slice = h.slices_in_partition(PartitionId::new(0))[0];

    let counts = [1usize, 2, 3, 4, 6, 8, 12, 16];
    let sweep = |dev: &mut GpuDevice, sms: &[SmId]| -> Vec<f64> {
        counts
            .iter()
            .map(|&n| sms_to_slice_gbps(dev, &sms[..n], slice))
            .collect()
    };
    let near = sweep(&mut dev, &near_sms);
    let far = sweep(&mut dev, &far_sms);
    println!("SMs:            {:?}", counts);
    println!("near (GB/s):    {}", series(&near, 1));
    println!("far  (GB/s):    {}", series(&far, 1));
    for (i, &n) in counts.iter().enumerate() {
        println!(
            "  {n:>2} SMs: far is {:>5.1}% below near",
            100.0 * (1.0 - far[i] / near[i])
        );
    }
}
