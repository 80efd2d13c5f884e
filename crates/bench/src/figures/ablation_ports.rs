//! Ablation: "speedup in space" vs "speedup in time".
//!
//! The paper (Fig. 15c) shows GPC speedup is partly provided as *space*
//! (additional per-MP connectivity) and not only *time* (more bandwidth per
//! port). This ablation trades one for the other at constant total port
//! capacity and re-runs the Fig. 15 experiments: narrow ports hurt
//! single-MP traffic, a small aggregate cap hurts fan-out traffic.

use gnoc_bench::header;
use gnoc_core::engine::Calibration;
use gnoc_core::microbench::bandwidth::cross_flows;
use gnoc_core::{AccessKind, GpcId, GpuDevice, GpuSpec, MpId, SliceId, SmId};

fn experiments(dev: &GpuDevice) -> (f64, f64) {
    let h = dev.hierarchy().clone();
    let gpc0: Vec<SmId> = h.sms_in_gpc(GpcId::new(0)).to_vec();
    let one_mp: Vec<SliceId> = h.slices_in_mp(MpId::new(0)).to_vec();
    let four_mp: Vec<SliceId> = (0..4)
        .flat_map(|m| h.slices_in_mp(MpId::new(m)).to_vec())
        .collect();
    let bw = |slices: &[SliceId]| {
        dev.solve_bandwidth(&cross_flows(&gpc0, slices, AccessKind::ReadHit))
            .total_gbps
    };
    (bw(&one_mp), bw(&four_mp))
}

pub fn run() {
    header(
        "Ablation — GPC port provisioning: space vs time",
        "sweeping per-MP port width at fixed aggregate shows which traffic \
         each kind of speedup serves (Fig. 15b/c mechanics)",
    );
    println!(
        "{:>14} {:>14} | {:>12} {:>12} {:>10}",
        "port (GB/s)", "aggregate", "GPC→1 MP", "GPC→4 MPs", "gain"
    );
    for (port, total) in [
        (45.0, 320.0),
        (65.0, 320.0),
        (85.0, 320.0),
        (105.0, 320.0),
        (85.0, 200.0),
        (85.0, 480.0),
    ] {
        let spec = GpuSpec::v100();
        let mut calib = Calibration::for_spec(&spec);
        calib.gpc_port_gbps = port;
        calib.gpc_total_gbps = total;
        let dev = GpuDevice::with_calibration(spec, calib, 0).expect("valid");
        let (one, four) = experiments(&dev);
        println!(
            "{port:>14.0} {total:>14.0} | {one:>12.0} {four:>12.0} {:>9.0}%",
            100.0 * (four / one - 1.0)
        );
    }
    println!(
        "\nWider ports lift the single-MP case (speedup in time at the port); \
         the aggregate cap gates the fan-out case, so the measured 1→4-MP \
         gain — the paper's +218 % — pins down the port:aggregate ratio."
    );
}
