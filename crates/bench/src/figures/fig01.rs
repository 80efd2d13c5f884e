//! Fig. 1: (a) non-uniform L2 access latency from SM 24 to all 32 L2 slices
//! on V100; (b) average latency and variation within each GPC.

use gnoc_bench::{compare, header, series};
use gnoc_core::{GpcId, GpuDevice, LatencyProbe, SmId, Summary};

pub fn run(telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 1 — non-uniform L2 access latency (V100)",
        "SM24→slices spans ≈175..248 cycles, mean ≈212; per-GPC means similar",
    );
    let mut dev = GpuDevice::v100(0);
    dev.set_telemetry(telemetry.clone());
    let probe = LatencyProbe::default();

    // (a) one SM's profile across the 32 slices.
    let profile = probe.sm_profile(&mut dev, SmId::new(24));
    println!("(a) SM24 latency per slice id (cycles):");
    println!("    {}", series(&profile, 0));
    let s = Summary::of(&profile);
    compare("min latency (cycles)", "175", format!("{:.0}", s.min));
    compare("max latency (cycles)", "248", format!("{:.0}", s.max));
    compare("mean latency (cycles)", "~212", format!("{:.0}", s.mean));

    // (b) per-GPC average and variation.
    println!("\n(b) per-GPC latency (all SMs of the GPC × all slices):");
    let h = dev.hierarchy().clone();
    for g in 0..6 {
        let mut all = Vec::new();
        for &sm in h.sms_in_gpc(GpcId::new(g)) {
            all.extend(probe.sm_profile(&mut dev, sm));
        }
        let s = Summary::of(&all);
        println!(
            "    GPC{g}: mean {:.0} cycles, sd {:.1}, span {:.0}",
            s.mean,
            s.stddev,
            s.span()
        );
    }
    telemetry.with(|t| dev.profiler().export_metrics(&mut t.registry));
}
