//! Fig. 3: per-MP sorted slice latency for SMs from two GPCs — the sorted
//! slice order is identical across SMs; same-GPC SMs share the whole trend.

use gnoc_bench::header;
use gnoc_core::{analysis, GpuDevice, LatencyProbe, SliceId, SmId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 3 — latency sorted within each memory partition (V100)",
        "sorted slice order per MP is identical across SMs; same-GPC SMs match",
    );
    let mut dev = GpuDevice::v100(0);
    let probe = LatencyProbe {
        working_set_lines: 4,
        samples: 24,
    };
    let h = dev.hierarchy().clone();
    let group_of: Vec<usize> = (0..32)
        .map(|s| h.slice(SliceId::new(s)).mp.index())
        .collect();

    let sms = [SmId::new(60), SmId::new(24), SmId::new(64), SmId::new(28)];
    let mut orders = Vec::new();
    for sm in sms {
        let profile = probe.sm_profile(&mut dev, sm);
        let order = analysis::sorted_members_by_group(&profile, &group_of, 8);
        println!(
            "{sm} (GPC{}): per-MP slice order (fastest→slowest):",
            h.sm(sm).gpc.index()
        );
        for (mp, members) in order.iter().enumerate() {
            let lat: Vec<String> = members
                .iter()
                .map(|&s| format!("L2S{s}:{:.0}", profile[s]))
                .collect();
            println!("    MP{mp}: {}", lat.join(" "));
        }
        orders.push(order);
    }
    for (a, b) in [(0usize, 1), (0, 2), (0, 3), (2, 3)] {
        println!(
            "order agreement {} vs {}: {:.0}% of MPs",
            sms[a],
            sms[b],
            100.0 * analysis::group_order_agreement(&orders[a], &orders[b])
        );
    }
}
