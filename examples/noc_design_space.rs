//! NoC architecture implications (paper Section VI): the mesh fairness
//! problem (Fig. 23), the reply-interface "network wall" (Figs. 21/22), and
//! the crossbar contrast (Implication #6).
//!
//! Run with: `cargo run --release -p gnoc-core --example noc_design_space`

use gnoc_core::noc::{
    priorwork, run_fairness, run_memsim, ArbiterKind, Crossbar, CrossbarConfig, FairnessConfig,
    MemSimConfig, MemSimNets, NodeId, PacketClass,
};
use gnoc_core::TelemetryHandle;

fn main() {
    println!("=== Fig. 23: per-node throughput on a 6x6 mesh, 30 compute -> 6 MCs ===");
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let (r, _) = run_fairness(
            FairnessConfig::paper(arbiter),
            1,
            TelemetryHandle::disabled(),
            false,
        );
        println!("{arbiter:?}: unfairness (max/min) = {:.2}", r.unfairness);
        for row in 0..5 {
            let cells: Vec<String> = (0..6)
                .map(|c| format!("{:.3}", r.throughput[row * 6 + c]))
                .collect();
            println!(
                "  mesh row {} (hops to MCs: {}): {}",
                row + 1,
                row + 1,
                cells.join(" ")
            );
        }
    }

    println!("\n=== Implication #6: a single-hop crossbar is uniform by construction ===");
    let mut xbar = Crossbar::new(CrossbarConfig {
        inputs: 30,
        outputs: 6,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
    });
    let mut rng_state = 0x12345u64;
    for _ in 0..20_000 {
        for i in 0..30u32 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let dst = (rng_state >> 33) % 6;
            let _ = xbar.try_inject(
                NodeId::new(i),
                NodeId::new(dst as u32),
                1,
                PacketClass::Request,
            );
        }
        xbar.step();
        xbar.drain_ejected();
    }
    let d = &xbar.stats().delivered_by_src;
    let max = *d.iter().max().unwrap() as f64;
    let min = *d.iter().min().unwrap() as f64;
    println!("crossbar unfairness (max/min) = {:.3}", max / min);

    println!("\n=== Fig. 21: memory-channel utilisation vs reply-interface provisioning ===");
    for (label, cfg) in [
        (
            "under-provisioned reply interface (prior-work style)",
            MemSimConfig::underprovisioned(),
        ),
        (
            "provisioned reply interface (real-GPU style)",
            MemSimConfig::provisioned(),
        ),
    ] {
        let r = run_memsim(cfg, 3, MemSimNets::Split, &TelemetryHandle::disabled());
        let spark: String = r
            .utilization_timeline
            .iter()
            .take(40)
            .map(|&u| {
                let ramp = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
                ramp[((u * 9.0).round() as usize).min(9)]
            })
            .collect();
        println!("{label}:");
        println!(
            "  mean utilisation {:.0}%  timeline [{spark}]",
            100.0 * r.mean_utilization
        );
    }

    println!("\n=== Fig. 22: the 'network wall' in prior-work baselines ===");
    println!(
        "{:<6} {:<42} {:>9} {:>12} wall?",
        "ref", "system", "BW_MEM", "BW_NoC-MEM"
    );
    for p in priorwork::dataset() {
        println!(
            "{:<6} {:<42} {:>9.1} {:>12.1} {}",
            p.name,
            p.system,
            p.mem_bw_gbps,
            p.noc_mem_interface_gbps(),
            if p.network_wall() {
                "YES — interface-bound"
            } else {
                "no"
            },
        );
    }
}
