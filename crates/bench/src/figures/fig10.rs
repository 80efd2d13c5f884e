//! Fig. 10: interconnect input speedup across GPU generations, for reads and
//! writes, at TPC / CPC / GPC-local / GPC-global level.

use gnoc_bench::header;
use gnoc_core::{input_speedups, AccessKind, GpuDevice};

pub fn run() {
    header(
        "Fig. 10 — interconnect input speedup",
        "TPC reads full (2×) everywhere; V100 TPC writes ≈1.09; GPC_l \
         requires 7/8/9 with ≈50%/…/≈85% achieved (writes); H100 CPC: reads \
         unaffected, writes ≈4.6 of 6",
    );
    println!(
        "{:<7} {:<7} {:>7} {:>9} {:>11} {:>12}",
        "GPU", "kind", "TPC", "CPC", "GPC_local", "GPC_global"
    );
    for dev in [GpuDevice::v100(0), GpuDevice::a100(0), GpuDevice::h100(0)] {
        for (kind, label) in [(AccessKind::ReadHit, "read"), (AccessKind::Write, "write")] {
            let r = input_speedups(&dev, kind);
            println!(
                "{:<7} {:<7} {:>7.2} {:>9} {:>11} {:>12}",
                dev.spec().name,
                label,
                r.tpc,
                r.cpc
                    .map(|c| format!("{c:.1}/{}", r.cpc_sms.unwrap()))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.1}/{}", r.gpc_local, r.gpc_tpcs),
                format!("{:.1}/{}", r.gpc_global, r.gpc_sms),
            );
        }
    }
}
