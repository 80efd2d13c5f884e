//! Fig. 16: per-slice traffic over time for BFS and Gaussian elimination —
//! volume changes dramatically, the distribution across slices stays flat.

use gnoc_bench::{header, sparkline};
use gnoc_core::workloads::{bfs, gaussian, trace};
use gnoc_core::{render_heatmap, GpuDevice, PartitionId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 16 — memory traffic per L2 slice over time (V100 hash)",
        "traffic intensity varies over time but stays distributed across all \
         slices (address hashing prevents memory camping)",
    );
    let dev = GpuDevice::v100(0);
    let map = dev.address_map();
    for t in [
        bfs::generate(bfs::BfsConfig::default(), 1),
        gaussian::generate(gaussian::GaussianConfig {
            n: 512,
            step_stride: 16,
        }),
    ] {
        println!("\n--- {} ---", t.name);
        let volume: Vec<f64> = t.volume_profile().iter().map(|&v| v as f64).collect();
        println!("access volume over time: {}", sparkline(&volume));
        let traffic = trace::slice_traffic(&t, map, PartitionId::new(0));
        // Normalise rows so the heatmap shows the *distribution* per step.
        let rows: Vec<Vec<f64>> = traffic
            .iter()
            .filter(|row| row.iter().sum::<f64>() > 0.0)
            .map(|row| {
                let total: f64 = row.iter().sum();
                row.iter().map(|v| v / total).collect()
            })
            .collect();
        println!("per-slice share per step (rows=time, cols=slice):");
        print!("{}", render_heatmap(&rows, 0.0, 2.0 / 32.0, 0));
        let imb = trace::imbalance_per_step(&traffic, 3000.0);
        if let (Some(min), Some(max)) = (
            imb.iter().cloned().reduce(f64::min),
            imb.iter().cloned().reduce(f64::max),
        ) {
            println!("max/mean slice imbalance across busy steps: {min:.2}..{max:.2}");
        }
    }
}
