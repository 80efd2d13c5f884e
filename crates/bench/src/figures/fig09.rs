//! Fig. 9: (a) aggregate L2-fabric vs global-memory bandwidth across GPUs;
//! (b) single-SM→slice bandwidth distribution; (c) single-GPC→slice
//! bandwidth distribution (V100).

use gnoc_bench::{compare, header};
use gnoc_core::microbench::bandwidth::{
    aggregate_fabric_gbps, aggregate_memory_gbps, sms_to_slice_gbps,
};
use gnoc_core::{GpcId, GpuDevice, Histogram, SliceId, SmId, Summary};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 9 — on-chip aggregate and per-slice bandwidth",
        "(a) fabric = 2.4–3.5× memory; memory ≈85–90% of peak. \
         (b) SM→slice ≈34 GB/s σ≈0.15. (c) GPC→slice ≈85 GB/s σ≈0.06",
    );

    println!("(a) aggregates:");
    for mut dev in [GpuDevice::v100(9), GpuDevice::a100(9), GpuDevice::h100(9)] {
        let fabric = aggregate_fabric_gbps(&mut dev);
        let mem = aggregate_memory_gbps(&mut dev);
        println!(
            "    {:<5} L2 fabric {fabric:6.0} GB/s | memory {mem:6.0} GB/s ({:.0}% of peak) | ratio {:.2}x",
            dev.spec().name,
            100.0 * mem / dev.spec().mem_peak_gbps,
            fabric / mem
        );
    }

    let mut dev = GpuDevice::v100(9);
    println!("\n(b) V100 single SM → single slice, all (SM, slice) samples:");
    let samples: Vec<f64> = (0..160)
        .map(|i| {
            sms_to_slice_gbps(
                &mut dev,
                &[SmId::new((i * 7) % 80)],
                SliceId::new((i * 11) % 32),
            )
        })
        .collect();
    let s = Summary::of(&samples);
    compare("    mean (GB/s)", "≈34", format!("{:.1}", s.mean));
    compare("    stddev (GB/s)", "≈0.147", format!("{:.3}", s.stddev));
    print!(
        "{}",
        Histogram::new(&samples, 33.0, 36.0, 12).render_ascii(40)
    );

    println!("\n(c) V100 one GPC → single slice, all (GPC, slice) samples:");
    let h = dev.hierarchy().clone();
    let samples: Vec<f64> = (0..48)
        .map(|i| {
            let sms = h.sms_in_gpc(GpcId::new((i % 6) as u32)).to_vec();
            sms_to_slice_gbps(&mut dev, &sms, SliceId::new(((i * 5) % 32) as u32))
        })
        .collect();
    let s = Summary::of(&samples);
    compare("    mean (GB/s)", "≈85", format!("{:.1}", s.mean));
    compare(
        "    stddev (GB/s)",
        "≈0.06 (tight)",
        format!("{:.3}", s.stddev),
    );
    print!(
        "{}",
        Histogram::new(&samples, 80.0, 90.0, 12).render_ascii(40)
    );
}
