//! Ablation: remove the MP-internal slice service chain and watch the
//! Fig. 3 invariant (identical per-MP slice ordering across SMs) decay.
//!
//! The chain term is the model's explanation for why "some L2 slices always
//! have lower latency" (paper Fig. 5): the ordering is a property of the
//! slice, not of the (SM, slice) geometry.

use gnoc_bench::{compare, header};
use gnoc_core::engine::Calibration;
use gnoc_core::{analysis, GpuDevice, GpuSpec, LatencyProbe, SliceId, SmId};

fn order_agreement(dev: &mut GpuDevice) -> f64 {
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 24,
    };
    let h = dev.hierarchy().clone();
    let group_of: Vec<usize> = (0..32)
        .map(|s| h.slice(SliceId::new(s)).mp.index())
        .collect();
    let sms = [SmId::new(60), SmId::new(24), SmId::new(64), SmId::new(28)];
    let orders: Vec<_> = sms
        .iter()
        .map(|&sm| {
            let profile = probe.sm_profile(dev, sm);
            analysis::sorted_members_by_group(&profile, &group_of, 8)
        })
        .collect();
    let mut acc = 0.0;
    let mut n = 0.0;
    for i in 0..orders.len() {
        for j in (i + 1)..orders.len() {
            acc += analysis::group_order_agreement(&orders[i], &orders[j]);
            n += 1.0;
        }
    }
    acc / n
}

pub fn run() {
    header(
        "Ablation — the MP-internal slice service chain",
        "with the chain: per-MP slice order identical from every SM (Fig. 3); \
         without it: ordering becomes geometry- and jitter-dependent",
    );
    let spec = GpuSpec::v100();

    let mut with_chain = GpuDevice::v100(7);
    let a = order_agreement(&mut with_chain);

    let mut calib = Calibration::for_spec(&spec);
    calib.slice_chain_cycles = 0.0;
    let mut without_chain = GpuDevice::with_calibration(spec, calib, 7).expect("valid");
    let b = order_agreement(&mut without_chain);

    compare(
        "order agreement with chain",
        "1.00 (Fig. 3)",
        format!("{a:.2}"),
    );
    compare(
        "order agreement without chain",
        "< 1 (unstable)",
        format!("{b:.2}"),
    );
    assert!(a > b, "chain term should stabilise the ordering");
    println!("\nThe chain term is what pins the within-MP order; geometry alone");
    println!("leaves near-ties that jitter and SM position flip.");
}
