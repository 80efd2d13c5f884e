//! Fig. 11: the speedup points inside the GPU NoC (block-diagram figure) —
//! rendered as the model's actual capacity hierarchy.

use gnoc_bench::header;
use gnoc_core::{Calibration, GpuSpec};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 11 — where input speedup lives in the NoC (model capacities)",
        "TPC speedup at the SM pair, GPC speedup in time (aggregate) and \
         space (per-MP ports), L2 input speedup at the MP port",
    );
    for spec in GpuSpec::paper_presets() {
        let c = Calibration::for_spec(&spec);
        println!("\n{}:", spec.name);
        println!(
            "  SM read port        {:>7.1} GB/s   (write {:>6.1})",
            c.sm_read_port_gbps, c.sm_write_port_gbps
        );
        println!(
            "  TPC output          {:>7.1} GB/s   (write {:>6.1})  → TPC speedup {:.2}/{:.2}",
            c.tpc_read_speedup * c.sm_read_port_gbps,
            c.tpc_write_speedup * c.sm_write_port_gbps,
            c.tpc_read_speedup,
            c.tpc_write_speedup,
        );
        if c.cpc_read_speedup.is_finite() {
            println!(
                "  CPC output          {:>7.1} GB/s   (write {:>6.1})",
                c.cpc_read_speedup * c.sm_read_port_gbps,
                c.cpc_write_speedup * c.sm_write_port_gbps,
            );
        }
        println!(
            "  GPC per-MP port     {:>7.1} GB/s   × {} MPs (speedup in space)",
            c.gpc_port_gbps, spec.hierarchy.num_mps
        );
        println!(
            "  GPC aggregate       {:>7.1} GB/s   (write {:>6.1}) (speedup in time)",
            c.gpc_total_gbps, c.gpc_total_write_gbps
        );
        println!("  L2 slice            {:>7.1} GB/s", c.slice_gbps);
        println!(
            "  MP input port       {:>7.1} GB/s   (≥ {} slices × slice rate: near-ideal L2 input speedup)",
            c.mp_port_gbps, spec.hierarchy.slices_per_mp
        );
        println!(
            "  DRAM per MP         {:>7.1} GB/s",
            c.dram_gbps_per_mp(&spec)
        );
    }
}
