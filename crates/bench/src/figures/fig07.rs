//! Fig. 7: the H100 CPC hierarchy and SM-to-SM (distributed shared memory)
//! latency per (source CPC, destination CPC) pair.

use gnoc_bench::{compare, header};
use gnoc_core::microbench::sm2sm::cpc_latency_matrix;
use gnoc_core::{GpcId, GpuDevice};

pub fn run() {
    header(
        "Fig. 7 — H100 SM-to-SM latency by CPC pair",
        "lowest ≈196 cycles within CPC0, ≈213 within CPC2; distance-ordered",
    );
    let mut dev = GpuDevice::h100(0);
    let m = cpc_latency_matrix(&mut dev, GpcId::new(0), 8).expect("H100");
    println!("(src CPC, dst CPC) mean latency (cycles):");
    print!("{:>8}", "");
    for j in 0..m.len() {
        print!("{:>10}", format!("CPC{j}"));
    }
    println!();
    for (i, row) in m.iter().enumerate() {
        print!("{:>8}", format!("CPC{i}"));
        for v in row {
            print!("{v:>10.0}");
        }
        println!();
    }
    compare("intra-CPC0 (cycles)", "≈196", format!("{:.0}", m[0][0]));
    compare("intra-CPC2 (cycles)", "≈213", format!("{:.0}", m[2][2]));
}
