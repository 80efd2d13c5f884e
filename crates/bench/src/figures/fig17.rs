//! Fig. 17: (a) warp timing vs number of unique cache lines, shifted per SM;
//! (b) two-SM square-kernel time across SM placements on A100.

use gnoc_bench::{compare, header, series};
use gnoc_core::sidechannel::timing::{two_sm_op_cycles, warp_read_cycles};
use gnoc_core::{GpuDevice, PartitionId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 17 — timing vs coalescing and SM placement (A100)",
        "(a) latency linear in unique lines; the line shifts with the SM. \
         (b) square kernel: ≤12% variation within a partition, ≈1.7× across",
    );
    let mut dev = GpuDevice::a100(0);
    let h = dev.hierarchy().clone();
    let left = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let right = h.sms_in_partition(PartitionId::new(1)).to_vec();

    println!("(a) warp time (cycles) vs unique lines, for three SMs:");
    let counts = [1usize, 4, 8, 12, 16, 20, 24, 28, 32];
    for sm in [left[0], left[6], right[0]] {
        let times: Vec<f64> = counts
            .iter()
            .map(|&n| {
                let lines: Vec<u8> = (0..n as u8).collect();
                (0..12)
                    .map(|_| warp_read_cycles(&mut dev, sm, &lines))
                    .sum::<f64>()
                    / 12.0
            })
            .collect();
        println!(
            "    {sm} (partition {}): {}",
            h.sm(sm).partition.index(),
            series(&times, 0)
        );
    }
    println!("    unique lines:          {counts:?}");

    println!("\n(b) square() kernel on SM pairs (first SM fixed, second varies):");
    let base = two_sm_op_cycles(&dev, left[0], left[1]);
    let mut same_hi = 0.0f64;
    for &b in left.iter().skip(1).take(16) {
        same_hi = same_hi.max(two_sm_op_cycles(&dev, left[0], b) / base);
    }
    let mut cross_hi = 0.0f64;
    for &b in right.iter().take(16) {
        cross_hi = cross_hi.max(two_sm_op_cycles(&dev, left[0], b) / base);
    }
    compare(
        "same-partition worst slowdown",
        "≤ ~1.12x",
        format!("{same_hi:.2}x"),
    );
    compare(
        "cross-partition worst slowdown",
        "≈1.7x",
        format!("{cross_hi:.2}x"),
    );
}
