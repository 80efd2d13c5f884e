//! Fig. 8: average L2 *hit* latency from each GPC to one MP (top row) and L2
//! *miss* penalty (bottom row) on V100 / A100 / H100.

use gnoc_bench::{header, series};
use gnoc_core::{GpcId, GpuDevice, LatencyProbe, MpId, SliceId, SmId};

pub fn run() {
    header(
        "Fig. 8 — L2 hit latency per GPC→MP and L2 miss penalty",
        "V100 ≈212 everywhere; A100 near ≈212 / far ≈400; H100 uniform hits. \
         Miss penalty constant on V100/A100, variable on H100",
    );
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 8,
    };

    for mut dev in [GpuDevice::v100(8), GpuDevice::a100(8), GpuDevice::h100(8)] {
        let name = dev.spec().name.clone();
        let h = dev.hierarchy().clone();
        println!("\n--- {name} ---");

        // Top: mean hit latency from each GPC to the slices of MP0 (for
        // partition-local devices, to the first local MP — footnote 5).
        let mut hits = Vec::new();
        for g in 0..h.num_gpcs() {
            let gpc = GpcId::new(g as u32);
            let sm = h.sms_in_gpc(gpc)[0];
            let mp = match dev.spec().cache_policy {
                gnoc_core::CachePolicy::GloballyShared => MpId::new(0),
                gnoc_core::CachePolicy::PartitionLocal => h.mps_in_partition(h.sm(sm).partition)[0],
            };
            let slices = h.slices_in_mp(mp).to_vec();
            // On partition-local devices only local slices can serve hits.
            let slices: Vec<SliceId> = slices
                .into_iter()
                .filter(|&s| {
                    dev.spec().cache_policy == gnoc_core::CachePolicy::GloballyShared
                        || h.slice(s).partition == h.sm(sm).partition
                })
                .collect();
            let mean = slices
                .iter()
                .map(|&s| probe.measure_pair(&mut dev, sm, s))
                .sum::<f64>()
                / slices.len() as f64;
            hits.push(mean);
        }
        println!("hit latency per GPC (cycles):  {}", series(&hits, 0));

        // Bottom: miss penalty for lines across home MPs, from GPC0's SM.
        let sm = SmId::new(0);
        let local_p = h.sm(sm).partition;
        let serving = match dev.spec().cache_policy {
            gnoc_core::CachePolicy::GloballyShared => None, // slice = home
            gnoc_core::CachePolicy::PartitionLocal => Some(h.slices_in_partition(local_p)[0]),
        };
        let mut penalties = Vec::new();
        for m in 0..h.num_mps() {
            let mp = MpId::new(m as u32);
            let slice = serving.unwrap_or_else(|| h.slices_in_mp(mp)[0]);
            let hit = dev.hit_cycles_mean(sm, slice);
            let miss = dev.miss_cycles_mean(sm, slice, mp);
            penalties.push(miss - hit);
        }
        println!(
            "miss penalty per home MP (cycles): {}",
            series(&penalties, 0)
        );
    }
}
