//! Fig. 23: per-node throughput on a 6×6 mesh (30 compute nodes → 6 edge
//! MCs) under round-robin vs age-based arbitration.

use gnoc_bench::{compare, header, series};
use gnoc_core::noc::{run_fairness, ArbiterKind, FairnessConfig};

pub fn run(telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 23 — throughput fairness on a 6×6 mesh",
        "round-robin: up to ≈2.4× spread across nodes; age-based: uniform",
    );
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let (r, _) = run_fairness(FairnessConfig::paper(arbiter), 23, telemetry.clone(), false);
        println!("\n{arbiter:?} (packets/cycle per compute node, MCs on row 0):");
        for row in 0..5 {
            println!(
                "  row {} ({} hops min): {}",
                row + 1,
                row + 1,
                series(&r.throughput[row * 6..(row + 1) * 6], 3)
            );
        }
        println!("  max/min unfairness: {:.2}", r.unfairness);
        if arbiter == ArbiterKind::RoundRobin {
            compare(
                "  unfairness",
                "up to ≈2.4x",
                format!("{:.2}x", r.unfairness),
            );
        } else {
            compare("  unfairness", "≈1 (fair)", format!("{:.2}x", r.unfairness));
        }
    }
}
