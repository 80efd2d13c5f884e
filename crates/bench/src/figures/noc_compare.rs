//! Extension experiment: load–latency curves of the paper's 2D-mesh baseline
//! vs the hierarchical crossbar real GPUs use (Implication #6).

use gnoc_bench::header;
use gnoc_core::noc::loadcurve::{hier_load_curve, mesh_load_curve, SweepConfig};
use gnoc_core::noc::{ArbiterKind, HierConfig, MeshConfig};

pub fn run() {
    header(
        "Extension — mesh vs hierarchical crossbar load/latency curves",
        "same 30 terminals and 6 MCs: the crossbar is uniform by construction \
         and reaches saturation with far lower latency",
    );
    let rates = [0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.25];
    let sweep = SweepConfig::default();
    let mesh = mesh_load_curve(
        MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
        sweep,
        &rates,
        1,
    );
    let hier = hier_load_curve(HierConfig::gpu_like(), sweep, &rates, 1);

    println!(
        "{:>9} | {:>14} {:>14} | {:>14} {:>14}",
        "offered", "mesh accepted", "mesh latency", "xbar accepted", "xbar latency"
    );
    for (m, x) in mesh.iter().zip(&hier) {
        println!(
            "{:>9.2} | {:>14.2} {:>14.1} | {:>14.2} {:>14.1}",
            m.offered, m.accepted, m.mean_latency, x.accepted, x.mean_latency
        );
    }
    println!(
        "\nThe mesh's multi-hop path and merge contention inflate latency well \
         before saturation; the two-stage crossbar stays near its unloaded \
         latency until the outputs themselves saturate — with no per-node \
         placement unfairness (see fig23 for the fairness contrast)."
    );
}
