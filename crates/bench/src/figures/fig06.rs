//! Fig. 6: Pearson correlation heatmaps of SM latency profiles on V100, A100
//! and H100 — the block structure that reveals physical placement.

use gnoc_bench::header;
use gnoc_core::{render_heatmap, GpuDevice, LatencyCampaign, LatencyProbe, SmId};

pub fn run() {
    header(
        "Fig. 6 — Pearson heatmaps of SM latency profiles",
        "V100: GPC-pair blocks incl. negative edge-to-edge correlation; \
         A100: partition split; H100: finer CPC-grained blocks",
    );
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 6,
    };
    for mut dev in [GpuDevice::v100(6), GpuDevice::a100(6), GpuDevice::h100(6)] {
        let name = dev.spec().name.clone();
        let campaign = LatencyCampaign::run(&mut dev, &probe);
        let h = dev.hierarchy().clone();
        // Group the axes by GPC as the paper does.
        let mut order: Vec<usize> = (0..h.num_sms()).collect();
        order.sort_by_key(|&i| (h.sm(SmId::new(i as u32)).gpc, i));
        let reordered: Vec<Vec<f64>> = order
            .iter()
            .map(|&a| order.iter().map(|&b| campaign.correlation[a][b]).collect())
            .collect();
        println!("\n{name} ('@'=+1 … ' '=-1, separators every GPC):");
        print!(
            "{}",
            render_heatmap(&reordered, -1.0, 1.0, h.num_sms() / h.num_gpcs())
        );
    }
}
