//! Fig. 22: memory bandwidth vs NoC↔MEM interface bandwidth of prior-work
//! simulation baselines — the "network wall" scatter.

use gnoc_bench::header;
use gnoc_core::noc::priorwork;

pub fn run() {
    header(
        "Fig. 22 — BW_MEM vs BW_NoC-MEM in prior-work baselines",
        "points below the BW_NoC-MEM = BW_MEM line are interface-bound \
         ('network wall') and can overstate NoC-optimisation gains",
    );
    println!(
        "{:<6} {:<42} {:>9} {:>12}   position",
        "ref", "system", "BW_MEM", "BW_NoC-MEM"
    );
    let mut walled = 0;
    let points = priorwork::dataset();
    for p in &points {
        let wall = p.network_wall();
        walled += usize::from(wall);
        println!(
            "{:<6} {:<42} {:>9.1} {:>12.1}   {}",
            p.name,
            p.system,
            p.mem_bw_gbps,
            p.noc_mem_interface_gbps(),
            if wall {
                "below the line (network wall)"
            } else {
                "above the line"
            },
        );
    }
    println!(
        "\n{walled}/{} surveyed baselines modelled an interface-bound NoC.",
        points.len()
    );
    println!("(Parameters are approximate reconstructions; see module docs.)");
}
