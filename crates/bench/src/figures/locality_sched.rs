//! Extension: locality-aware CTA scheduling on a partitioned GPU.
//!
//! A natural question after the paper's A100 findings: should a kernel whose
//! working set lives on one partition be scheduled onto that partition's
//! SMs? The answer splits by regime, and the split is itself a consequence
//! of Observations #8 and #10: *latency*-bound kernels gain ≈2× from
//! locality (they pay the crossing on every dependent access), while
//! *bandwidth*-bound kernels are better off using all SMs — far SMs still
//! deliver ≈60 % of their near rate, and extra SMs engage extra GPC ports.

use gnoc_bench::{compare, header};
use gnoc_core::workloads::replay::{replay_on_sms, ReplayConfig};
use gnoc_core::workloads::MemoryTrace;
use gnoc_core::{GpuDevice, LatencyProbe, PartitionId, SmId};

pub fn run() {
    header(
        "Extension — locality-aware scheduling on A100",
        "latency-bound work: schedule onto the data's partition (≈2x); \
         bandwidth-bound work: use every SM — far SMs still add ≈60 %",
    );
    let mut dev = GpuDevice::a100(0);
    let h = dev.hierarchy().clone();

    // A working set resident on partition 0.
    let left_sm = h.sms_in_partition(PartitionId::new(0))[0];
    let lines: Vec<u64> = (0..200_000u64)
        .filter(|&l| h.slice(dev.effective_slice(left_sm, l)).partition == PartitionId::new(0))
        .take(60_000)
        .collect();

    // ---- Latency-bound regime: a dependent pointer chase. ------------------
    let probe = LatencyProbe::default();
    let near_slice = dev.effective_slice(left_sm, lines[0]);
    let far_sm = h.sms_in_partition(PartitionId::new(1))[0];
    let near_lat = probe.measure_pair(&mut dev, left_sm, near_slice);
    let far_lat = probe.measure_pair(&mut dev, far_sm, near_slice);
    println!("latency-bound kernel (dependent loads into the resident set):");
    compare(
        "  local SM latency (cycles)",
        "≈210",
        format!("{near_lat:.0}"),
    );
    compare("  far SM latency (cycles)", "≈400", format!("{far_lat:.0}"));
    println!(
        "  → locality speedup for serial chains: {:.2}x\n",
        far_lat / near_lat
    );

    // ---- Bandwidth-bound regime: streaming the resident set. ---------------
    let trace = MemoryTrace {
        name: "partition0-resident".into(),
        steps: lines.chunks(10_000).map(<[u64]>::to_vec).collect(),
    };
    let cfg = ReplayConfig {
        blocks: 108,
        ..ReplayConfig::default()
    };
    let near: Vec<SmId> = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let far: Vec<SmId> = h.sms_in_partition(PartitionId::new(1)).to_vec();
    let all: Vec<SmId> = SmId::range(h.num_sms()).collect();
    let r_near = replay_on_sms(&dev, &trace, &cfg, &near);
    let r_all = replay_on_sms(&dev, &trace, &cfg, &all);
    let r_far = replay_on_sms(&dev, &trace, &cfg, &far);

    println!("bandwidth-bound kernel (streaming the resident set):");
    compare(
        "  local-partition SMs only (GB/s)",
        "-",
        format!("{:.0}", r_near.mean_gbps()),
    );
    compare(
        "  all SMs (GB/s)",
        "best",
        format!("{:.0}", r_all.mean_gbps()),
    );
    compare(
        "  far-partition SMs only (GB/s)",
        "worst",
        format!("{:.0}", r_far.mean_gbps()),
    );
    println!(
        "  → all-SM placement beats strict locality by {:.2}x here: far SMs \
         still contribute {:.0} % of a near SM's rate (Little's law, Fig. 14), \
         and more SMs engage more GPC↔MP ports.",
        r_all.mean_gbps() / r_near.mean_gbps(),
        100.0 * r_far.mean_gbps() / r_near.mean_gbps(),
    );
    println!(
        "\nconclusion: the right NUMA policy on partitioned GPUs is \
         regime-dependent — pin latency-critical kernels, spread streaming \
         kernels."
    );
}
