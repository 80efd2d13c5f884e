//! Ablation: remove the queueing-delay feedback from the bandwidth model and
//! watch Fig. 14's gradual saturation collapse into a hard kink.
//!
//! DESIGN.md calls out queueing feedback as one of the three mechanisms the
//! fabric model composes; this experiment isolates its contribution.

use gnoc_bench::{header, series};
use gnoc_core::engine::Calibration;
use gnoc_core::microbench::bandwidth::cross_flows;
use gnoc_core::{AccessKind, GpuDevice, GpuSpec, PartitionId, SmId};

fn sweep(dev: &GpuDevice, sms: &[SmId], slice: gnoc_core::SliceId) -> Vec<f64> {
    [1usize, 2, 3, 4, 6, 8]
        .iter()
        .map(|&n| {
            dev.solve_bandwidth(&cross_flows(&sms[..n], &[slice], AccessKind::ReadHit))
                .total_gbps
        })
        .collect()
}

pub fn run() {
    header(
        "Ablation — queueing feedback in the fabric model",
        "with queueing: smooth Fig. 14-style saturation; without: a hard kink \
         the moment demand crosses the port capacity",
    );
    let spec = GpuSpec::a100();
    let with_q = GpuDevice::a100(0);
    let mut calib = Calibration::for_spec(&spec);
    calib.slice_queue_cycles = 0.0;
    calib.gpc_port_queue_cycles = 0.0;
    let without_q = GpuDevice::with_calibration(spec, calib, 0).expect("valid");

    let h = with_q.hierarchy().clone();
    let near = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let slice = h.slices_in_partition(PartitionId::new(0))[0];

    let a = sweep(&with_q, &near, slice);
    let b = sweep(&without_q, &near, slice);
    println!("SMs:                 1    2    3    4    6    8");
    println!("with queueing   : {}", series(&a, 1));
    println!("without queueing: {}", series(&b, 1));

    // Quantify the knee sharpness: second difference at the saturation point.
    let knee = |v: &[f64]| (v[1] - v[0]) - (v[3] - v[2]);
    println!(
        "\nknee sharpness (Δ slope around saturation): with {:.1}, without {:.1}",
        knee(&a),
        knee(&b)
    );
    println!(
        "interpretation: queueing feedback spreads the approach to the slice \
         cap across several SM counts, as the paper's measured Fig. 14 shows."
    );
}
