//! Fig. 15: V100 bandwidth under placement sweeps — (a) contiguous vs
//! distributed L2 slices, (b) contiguous vs distributed SMs, (c) one GPC
//! fanning out to more MPs.

use gnoc_bench::{compare, header};
use gnoc_core::microbench::bandwidth::cross_flows;
use gnoc_core::{AccessKind, GpcId, GpuDevice, MpId, SliceId, SmId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 15 — placement sweeps (V100)",
        "(a) slice placement barely matters; (b) contiguous SMs lose ≈62% at \
         28 SMs→1 MP; (c) 14 contiguous SMs gain ≈3× from 1→4 MPs",
    );
    let dev = GpuDevice::v100(0);
    let h = dev.hierarchy().clone();
    let bw = |sms: &[SmId], slices: &[SliceId]| -> f64 {
        dev.solve_bandwidth(&cross_flows(sms, slices, AccessKind::ReadHit))
            .total_gbps
    };
    let all_sms: Vec<SmId> = SmId::range(80).collect();

    println!("(a) all 80 SMs → k slices, contiguous (one MP) vs distributed MPs:");
    for k in 1..=4usize {
        let contig: Vec<SliceId> = h.slices_in_mp(MpId::new(0))[..k].to_vec();
        let dist: Vec<SliceId> = (0..k)
            .map(|m| h.slices_in_mp(MpId::new(m as u32))[0])
            .collect();
        println!(
            "    k={k}: contiguous {:6.0} GB/s | distributed {:6.0} GB/s",
            bw(&all_sms, &contig),
            bw(&all_sms, &dist)
        );
    }

    println!("\n(b) N SMs → one MP (4 slices), contiguous GPCs vs spread over 6 GPCs:");
    let mp0: Vec<SliceId> = h.slices_in_mp(MpId::new(0)).to_vec();
    for n in [14usize, 28] {
        let contiguous: Vec<SmId> = h
            .sms_in_gpc(GpcId::new(0))
            .iter()
            .chain(h.sms_in_gpc(GpcId::new(1)))
            .copied()
            .take(n)
            .collect();
        let per_gpc = n.div_ceil(6);
        let distributed: Vec<SmId> = (0..6)
            .flat_map(|g| h.sms_in_gpc(GpcId::new(g))[..per_gpc].to_vec())
            .take(n)
            .collect();
        let c = bw(&contiguous, &mp0);
        let d = bw(&distributed, &mp0);
        println!(
            "    {n} SMs: contiguous {c:6.0} GB/s | distributed {d:6.0} GB/s | degradation {:.0}%",
            100.0 * (1.0 - c / d)
        );
        if n == 28 {
            compare(
                "    28-SM degradation",
                "≈62%",
                format!("{:.0}%", 100.0 * (1.0 - c / d)),
            );
        }
    }

    println!("\n(c) 14 SMs of GPC0 → slices spread over 1..4 MPs:");
    let gpc0: Vec<SmId> = h.sms_in_gpc(GpcId::new(0)).to_vec();
    let base = {
        let slices: Vec<SliceId> = h.slices_in_mp(MpId::new(0)).to_vec();
        bw(&gpc0, &slices)
    };
    for m in 1..=4usize {
        let slices: Vec<SliceId> = (0..m)
            .flat_map(|mp| h.slices_in_mp(MpId::new(mp as u32)).to_vec())
            .collect();
        let v = bw(&gpc0, &slices);
        println!(
            "    {m} MP(s): {v:6.0} GB/s ({:+.0}% vs 1 MP)",
            100.0 * (v / base - 1.0)
        );
    }
    compare("    1→4 MP gain", "≈+218%", "see above".into());
}
