//! Fig. 5: latency matrix between the SMs of GPC4 and the slices of MP3 on
//! V100 — physically closer (SM, slice) pairs are faster.

use gnoc_bench::{compare, header};
use gnoc_core::{GpcId, GpuDevice, LatencyProbe, MpId};

pub fn run() {
    header(
        "Fig. 5 — GPC4 SMs × MP3 slices (V100)",
        "closest pair ≈180 cycles, farthest ≈217; rows shift, order is stable",
    );
    let mut dev = GpuDevice::v100(0);
    let probe = LatencyProbe {
        working_set_lines: 4,
        samples: 12,
    };
    let h = dev.hierarchy().clone();
    let sms = h.sms_in_gpc(GpcId::new(4)).to_vec();
    let slices = h.slices_in_mp(MpId::new(3)).to_vec();

    print!("{:>8}", "");
    for &s in &slices {
        print!("{:>9}", format!("{s}"));
    }
    println!();
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for &sm in &sms {
        print!("{:>8}", format!("{sm}"));
        for &s in &slices {
            let l = probe.measure_pair(&mut dev, sm, s);
            lo = lo.min(l);
            hi = hi.max(l);
            print!("{l:>9.0}");
        }
        println!();
    }
    compare("fastest pair (cycles)", "≈180", format!("{lo:.0}"));
    compare("slowest pair (cycles)", "≈217", format!("{hi:.0}"));
}
