//! Fig. 21: simulated memory-channel utilisation over time when the reply
//! NoC↔MEM interface is the bottleneck, vs a provisioned interface.

use gnoc_bench::{compare, header, sparkline};
use gnoc_core::noc::{run_memsim, MemSimConfig, MemSimNets};
use gnoc_core::TelemetryHandle;

pub fn run(telemetry: &TelemetryHandle) {
    header(
        "Fig. 21 — memory-channel utilisation fluctuation (cycle-level sim)",
        "reply-interface bottleneck: channel reaches 100% briefly but \
         averages ≈20%; provisioning the interface sustains it",
    );
    for (label, cfg) in [
        (
            "under-provisioned reply interface (prior-work model)",
            MemSimConfig::underprovisioned(),
        ),
        (
            "provisioned reply interface (real-GPU behaviour)",
            MemSimConfig::provisioned(),
        ),
    ] {
        let r = run_memsim(cfg, 21, MemSimNets::Split, telemetry);
        println!("\n{label}:");
        println!(
            "  channel-0 utilisation over time: {}",
            sparkline(&r.utilization_timeline)
        );
        let max = r
            .utilization_timeline
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        println!(
            "  mean {:.0}%  peak {:.0}%  replies delivered {}",
            100.0 * r.mean_utilization,
            100.0 * max,
            r.replies_delivered
        );
    }
    let off = TelemetryHandle::disabled();
    let under = run_memsim(
        MemSimConfig::underprovisioned(),
        21,
        MemSimNets::Split,
        &off,
    );
    compare(
        "under-provisioned mean utilisation",
        "≈20%",
        format!("{:.0}%", 100.0 * under.mean_utilization),
    );

    // Extension: one physical network with 2 VCs instead of two networks.
    let shared = run_memsim(MemSimConfig::provisioned(), 21, MemSimNets::Shared, &off);
    println!(
        "\nextension — single shared network (2 VCs, provisioned): mean {:.0}% \
         (shared links make replies steal request bandwidth)",
        100.0 * shared.mean_utilization
    );
}
