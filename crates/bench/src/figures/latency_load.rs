//! Extension: latency under load — the latency/bandwidth curve of each
//! preset, complementing Algorithm 1's unloaded numbers.

use gnoc_bench::header;
use gnoc_core::microbench::loaded::latency_bandwidth_curve;
use gnoc_core::{GpuDevice, SliceId, SmId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Extension — latency under load",
        "round-trip latency inflates as background traffic approaches the \
         fabric's saturation (equilibrium queueing model)",
    );
    for dev in [GpuDevice::v100(0), GpuDevice::a100(0), GpuDevice::h100(0)] {
        let counts = [0usize, 4, 8, 16, 24, 32];
        let curve = latency_bandwidth_curve(&dev, SmId::new(0), SliceId::new(0), &counts);
        println!("\n{} (probe SM0 → L2S0):", dev.spec().name);
        println!(
            "{:>16} {:>18} {:>16}",
            "background SMs", "background GB/s", "probe latency"
        );
        for p in curve {
            println!(
                "{:>16} {:>18.0} {:>16.0}",
                p.background_sms, p.background_gbps, p.probe_latency
            );
        }
    }
}
