//! Extension: memory-partition structure recovery from bandwidth
//! sub-additivity — the NoC-output counterpart of the Fig. 6 placement
//! recovery.

use gnoc_bench::{compare, header};
use gnoc_core::microbench::mpmap::{infer_mp_groups, pair_subadditivity, score_against_truth};
use gnoc_core::{GpuDevice, MpId, SliceId};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Extension — recovering the slice→MP map from bandwidth contention",
        "same-MP slice pairs share the GPC↔MP port and are sub-additive; \
         clustering sub-additivity recovers the MP structure exactly",
    );
    let dev = GpuDevice::v100(0);
    let h = dev.hierarchy().clone();

    let same = pair_subadditivity(
        &dev,
        h.slices_in_mp(MpId::new(0))[0],
        h.slices_in_mp(MpId::new(0))[1],
    );
    let diff = pair_subadditivity(
        &dev,
        h.slices_in_mp(MpId::new(0))[0],
        h.slices_in_mp(MpId::new(1))[0],
    );
    compare("same-MP pair sub-additivity", "large", format!("{same:.2}"));
    compare("cross-MP pair sub-additivity", "≈0", format!("{diff:.2}"));

    let slices: Vec<SliceId> = SliceId::range(16).collect();
    let labels = infer_mp_groups(&dev, &slices, 0.08);
    let score = score_against_truth(&dev, &slices, &labels);
    println!("\ninferred groups for slices 0..16: {labels:?}");
    println!(
        "true MPs:                         {:?}",
        slices
            .iter()
            .map(|&s| h.slice(s).mp.index())
            .collect::<Vec<_>>()
    );
    compare("Rand index vs ground truth", "1.00", format!("{score:.2}"));
    println!(
        "\nWith the MP map known, an attacker can stage a covert channel at \
         the L2 input (see the covert_channel experiment), and a scheduler \
         can avoid MP camping."
    );
}
