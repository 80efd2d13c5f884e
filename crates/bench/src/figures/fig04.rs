//! Fig. 4: the approximate logical floorplan of the V100 die.

use gnoc_bench::header;
use gnoc_core::GpuSpec;

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 4 — approximate logical floorplan (V100)",
        "two rows of GPCs at the die edges, L2 slices/MPs in the central band",
    );
    let spec = GpuSpec::v100();
    let h = spec.hierarchy();
    let fp = spec.floorplan();
    print!("{}", fp.render_ascii(&h, 100, 28));
    println!();
    for g in 0..h.num_gpcs() {
        let r = fp.gpc_rect(gnoc_core::GpcId::new(g as u32));
        println!(
            "GPC{g}: x {:5.1}..{:5.1} mm, y {:5.1}..{:5.1} mm",
            r.min.x, r.max.x, r.min.y, r.max.y
        );
    }
    for m in 0..h.num_mps() {
        let r = fp.mp_rect(gnoc_core::MpId::new(m as u32));
        println!(
            "MP{m}:  x {:5.1}..{:5.1} mm (central band)",
            r.min.x, r.max.x
        );
    }
}
