//! Fig. 20: the many-to-few-to-many communication pattern and the bandwidth
//! quantities the Section VI analysis uses — instantiated with the model's
//! numbers.

use gnoc_bench::header;
use gnoc_core::{Calibration, GpuSpec};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 20 — many-to-few-to-many and the bandwidth hierarchy",
        "many SMs → few MCs → many SMs; BW_NoC-MEM (interface) and BW_MEM are \
         the quantities that must be ordered correctly",
    );
    for spec in GpuSpec::paper_presets() {
        let c = Calibration::for_spec(&spec);
        let h = spec.hierarchy();
        let noc_mem = c.mp_port_gbps * h.num_mps() as f64;
        let mem = spec.mem_peak_gbps * c.mem_efficiency;
        println!(
            "{:<5}: {} SMs (many) → {} MPs (few); BW_NoC-MEM {:.0} GB/s vs BW_MEM {:.0} GB/s → {}",
            spec.name,
            h.num_sms(),
            h.num_mps(),
            noc_mem,
            mem,
            if noc_mem > mem {
                "interface properly provisioned (no network wall)"
            } else {
                "NETWORK WALL"
            }
        );
    }
    println!(
        "\nSeries law (Implication #5): end-to-end throughput = min over \
         SM-side, NoC bisection, NoC↔MEM interface, DRAM — the interface, \
         not the bisection, is the term prior work under-modelled."
    );
}
