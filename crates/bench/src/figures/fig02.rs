//! Fig. 2: L2 latency histograms of GPC0 vs GPC2 on V100 — similar means,
//! very different spreads.

use gnoc_bench::{compare, header};
use gnoc_core::{GpcId, GpuDevice, Histogram, LatencyProbe, Summary};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 2 — GPC latency histograms (V100)",
        "GPC0: μ≈213 σ≈13.9; GPC2: μ≈209 σ≈7.5 — similar mean, different spread",
    );
    let mut dev = GpuDevice::v100(0);
    let probe = LatencyProbe {
        working_set_lines: 4,
        samples: 8,
    };
    let h = dev.hierarchy().clone();
    for (g, paper) in [(0u32, ("≈213", "≈13.9")), (2, ("≈209", "≈7.5"))] {
        let mut all = Vec::new();
        for &sm in h.sms_in_gpc(GpcId::new(g)) {
            all.extend(probe.sm_profile(&mut dev, sm));
        }
        let s = Summary::of(&all);
        println!("\nGPC{g}:");
        compare("  mean (cycles)", paper.0, format!("{:.0}", s.mean));
        compare("  stddev (cycles)", paper.1, format!("{:.1}", s.stddev));
        let hist = Histogram::new(&all, 170.0, 270.0, 25);
        print!("{}", hist.render_ascii(40));
    }
}
