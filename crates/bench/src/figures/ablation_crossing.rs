//! Ablation: sweep the inter-partition crossing cost and track everything
//! downstream of it — far-partition latency and bandwidth (Figs. 8/12) and
//! the strength of the scheduling defense (Fig. 19).
//!
//! The paper attributes A100's ≈400-cycle far-partition latency, its bimodal
//! bandwidth, and the defense's potency to the central interconnect; this
//! sweep shows all three scale together in the model.

use gnoc_bench::header;
use gnoc_core::engine::Calibration;
use gnoc_core::microbench::bandwidth::cross_flows;
use gnoc_core::{
    run_rsa_attack, AccessKind, CtaScheduler, GpuDevice, GpuSpec, LatencyProbe, PartitionId,
    RsaAttackConfig,
};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Ablation — inter-partition crossing cost sweep (A100 model)",
        "far latency, far bandwidth and the randomised-scheduler RSA weight \
         uncertainty all track the crossing cost",
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>16}",
        "crossing", "far latency", "near BW", "far BW", "RSA ±weight(rand)"
    );
    for crossing in [0.0f64, 40.0, 80.0, 120.0, 160.0] {
        let spec = GpuSpec::a100();
        let mut calib = Calibration::for_spec(&spec);
        calib.partition_crossing_cycles = crossing;
        let mut dev = GpuDevice::with_calibration(spec, calib, 3).expect("valid");

        let h = dev.hierarchy().clone();
        let near_sm = h.sms_in_partition(PartitionId::new(0))[0];
        let near_slice = h.slices_in_partition(PartitionId::new(0))[0];
        let far_slice = h.slices_in_partition(PartitionId::new(1))[0];

        let probe = LatencyProbe::default();
        let far_lat = probe.measure_pair(&mut dev, near_sm, far_slice);
        let near_bw = dev
            .solve_bandwidth(&cross_flows(&[near_sm], &[near_slice], AccessKind::ReadHit))
            .total_gbps;
        let far_bw = dev
            .solve_bandwidth(&cross_flows(&[near_sm], &[far_slice], AccessKind::ReadHit))
            .total_gbps;

        let rsa = run_rsa_attack(
            &dev,
            &RsaAttackConfig {
                samples: 120,
                scheduler: CtaScheduler::RandomSeed,
                ..RsaAttackConfig::default()
            },
            5,
        );
        println!(
            "{:>10.0} {:>12.0} {:>12.1} {:>12.1} {:>16}",
            crossing, far_lat, near_bw, far_bw, rsa.weight_uncertainty
        );
    }
    println!(
        "\nAt crossing = 0 the two partitions merge into one flat die: far \
         latency ≈ near, bandwidth unimodal, and the randomised scheduler \
         loses most of its entropy — the defense works *because* the NoC is \
         non-uniform. Note the non-monotone tail: at very large crossings \
         the same/cross timing clusters separate completely, so pairwise \
         2 %-agreement inversion finds no ambiguous pairs — a smarter \
         attacker could then classify the cluster first, which is why the \
         defense should randomise *within* partitions too."
    );
}
