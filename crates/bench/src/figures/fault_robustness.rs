//! Headline robustness experiment: graceful degradation under real-world
//! faults.
//!
//! Part 1 — floorsweeping. The shipping A100 is a 128-SM die with 20 SMs
//! fused off (Table I); we measure the latency campaign and aggregate
//! bandwidth on the pristine full die and on the floor-swept product
//! configuration, showing the product die keeps the paper-calibrated
//! latency band.
//!
//! Part 2 — link faults. A 6x6 mesh with 1–5% of its links dead reroutes
//! around the holes (deadlock-free up*/down* next-hop tables) while the
//! ACK/NACK retry layer re-sends anything a fault eats; we quantify the
//! retry-induced tail (p50/p99/max) against the fault-free baseline.

use gnoc_bench::header;
use gnoc_core::microbench::bandwidth::{aggregate_fabric_gbps, aggregate_memory_gbps};
use gnoc_core::noc::{mesh_soak, ArbiterKind, MeshConfig, PacketClass, ReliableMesh, RetryConfig};
use gnoc_core::{
    device_for_preset, CheckpointedCampaign, FaultGenConfig, FaultPlan, LatencyProbe, WorkerPool,
};

pub fn run(telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Extension — fault injection and graceful degradation",
        "floor-swept dies keep the calibrated latency band, and a mesh with \
         dead links still delivers everything via reroute + retry, paying \
         only a bounded tail-latency cost",
    );

    // ---- Part 1: pristine full die vs floor-swept product die ----------
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 4,
    };
    println!("floorsweeping (A100, Table I: 128-SM die ships with 108 SMs):");
    println!(
        "{:>10} {:>6} {:>8} {:>12} {:>12} {:>12}",
        "device", "SMs", "slices", "lat mean", "fabric GB/s", "mem GB/s"
    );
    for preset in ["a100full", "a100fs"] {
        let mut campaign =
            CheckpointedCampaign::new(preset, 1, probe, None).expect("preset is valid");
        campaign.set_telemetry(telemetry.clone());
        let pool = WorkerPool::serial();
        campaign
            .run(&pool, None, |_| Ok(()))
            .expect("campaign on a preset device cannot fail");
        let result = campaign
            .finish_full(&pool)
            .expect("a campaign with no quarantine measures every row");
        let mut dev = device_for_preset(preset, 1, None).expect("preset is valid");
        println!(
            "{:>10} {:>6} {:>8} {:>12.1} {:>12.0} {:>12.0}",
            preset,
            result.matrix.len(),
            result.matrix[0].len(),
            result.grand_mean(),
            aggregate_fabric_gbps(&mut dev),
            aggregate_memory_gbps(&mut dev),
        );
    }

    // ---- Part 2: dead-link sweep on the 6x6 mesh -----------------------
    const TRANSFERS: usize = 3000;
    println!("\ndead links on the 6x6 mesh ({TRANSFERS} reliable transfers each):");
    println!(
        "{:>10} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dead frac", "links", "delivered", "lost", "retries", "mean", "p50", "p99", "max"
    );
    for dead_frac in [0.0, 0.01, 0.02, 0.05] {
        let plan = FaultPlan::generate(&FaultGenConfig {
            dead_link_fraction: dead_frac,
            ..FaultGenConfig::benign(7, 6, 6)
        });
        let mut rm = ReliableMesh::with_faults(
            MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            &plan,
            RetryConfig::default(),
        )
        .expect("generated plans validate");
        rm.mesh_mut().set_telemetry(telemetry.clone());
        for (src, dst) in mesh_soak(0xfeed_beef, 36).take(TRANSFERS) {
            rm.submit(src, dst, 1, PacketClass::Request);
        }
        assert!(
            rm.run_until_quiescent(5_000_000),
            "degraded mesh must quiesce (watchdog writes off stuck traffic)"
        );
        let s = rm.stats();
        println!(
            "{:>9.0}% {:>6} {:>10} {:>8} {:>8} {:>8.1} {:>8.0} {:>8.0} {:>8}",
            100.0 * dead_frac,
            rm.mesh().dead_links_active(),
            s.delivered,
            s.lost_total(),
            s.retries,
            s.mean_latency(),
            s.latency_quantile(0.50),
            s.latency_quantile(0.99),
            s.latency_max,
        );
        telemetry.with(|t| rm.export_metrics(&mut t.registry));
    }
    println!(
        "\nDead links bend the tail, not the median: rerouted paths add a few \
         hops (p99 grows with the dead fraction) and the occasional transfer \
         caught in-flight by a link's onset is re-sent after an ACK timeout, \
         but everything still arrives exactly once — the fabric degrades, it \
         does not fail."
    );
}
