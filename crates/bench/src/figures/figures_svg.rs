//! Renders the key reproduced figures as SVG files under `out/` so they can
//! be compared with the paper's plots visually.
//!
//! Produces: fig01 (latency profile), fig06 (Pearson heatmaps), fig14
//! (near/far bandwidth curves), fig21 (utilisation timelines) and fig23
//! (per-node throughput bars).

use gnoc_bench::header;
use gnoc_core::analysis::svg::{self, Series};
use gnoc_core::microbench::bandwidth::sms_to_slice_gbps;
use gnoc_core::noc::{
    run_fairness, run_memsim, ArbiterKind, FairnessConfig, MemSimConfig, MemSimNets,
};
use gnoc_core::{GpuDevice, LatencyCampaign, LatencyProbe, PartitionId, SmId, TelemetryHandle};
use std::fs;
use std::path::Path;

pub fn run() {
    render().expect("cannot write the SVG artifacts");
}

fn render() -> std::io::Result<()> {
    header(
        "SVG artifacts",
        "renders figs 1, 6, 14, 21, 23 as SVG files under out/",
    );
    let out = Path::new("out");
    fs::create_dir_all(out)?;
    // Each SVG, listed in the order written: the report names only this
    // figure's files, whatever else `out/` holds.
    let mut wrote = Vec::new();
    let mut write = |name: String, svg: String| -> std::io::Result<()> {
        let path = out.join(name);
        fs::write(&path, &svg)?;
        wrote.push((path, svg.len()));
        Ok(())
    };

    // ---- Fig. 1a: SM24 latency profile. -----------------------------------
    let mut dev = GpuDevice::v100(0);
    let probe = LatencyProbe::default();
    let profile = probe.sm_profile(&mut dev, SmId::new(24));
    let fig1 = svg::line_chart(
        "Fig. 1a — V100 SM24 L2 hit latency per slice",
        "L2 slice id",
        "cycles",
        &[Series {
            name: "SM24".into(),
            points: profile
                .iter()
                .enumerate()
                .map(|(i, &l)| (i as f64, l))
                .collect(),
        }],
        720,
        420,
    );
    write("fig01_latency_profile.svg".into(), fig1)?;

    // ---- Fig. 6: Pearson heatmaps. -----------------------------------------
    for mut dev in [GpuDevice::v100(6), GpuDevice::a100(6), GpuDevice::h100(6)] {
        let name = dev.spec().name.to_lowercase();
        let campaign = LatencyCampaign::run(
            &mut dev,
            &LatencyProbe {
                working_set_lines: 2,
                samples: 5,
            },
        );
        let h = dev.hierarchy().clone();
        let mut order: Vec<usize> = (0..h.num_sms()).collect();
        order.sort_by_key(|&i| (h.sm(SmId::new(i as u32)).gpc, i));
        let matrix: Vec<Vec<f64>> = order
            .iter()
            .map(|&a| order.iter().map(|&b| campaign.correlation[a][b]).collect())
            .collect();
        let fig = svg::heatmap(
            &format!(
                "Fig. 6 — {} SM latency-profile Pearson correlation",
                dev.spec().name
            ),
            &matrix,
            -1.0,
            1.0,
            640,
            640,
        );
        write(format!("fig06_heatmap_{name}.svg"), fig)?;
    }

    // ---- Fig. 14: near/far slice bandwidth curves. --------------------------
    let mut dev = GpuDevice::a100(0);
    let h = dev.hierarchy().clone();
    let near_sms = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let far_sms = h.sms_in_partition(PartitionId::new(1)).to_vec();
    let slice = h.slices_in_partition(PartitionId::new(0))[0];
    let counts = [1usize, 2, 3, 4, 6, 8, 12, 16];
    let curve = |dev: &mut GpuDevice, sms: &[SmId]| -> Vec<(f64, f64)> {
        counts
            .iter()
            .map(|&n| (n as f64, sms_to_slice_gbps(dev, &sms[..n], slice)))
            .collect()
    };
    let fig14 = svg::line_chart(
        "Fig. 14 — A100 slice bandwidth vs #SMs (near vs far partition)",
        "SMs driving the slice",
        "GB/s",
        &[
            Series {
                name: "near partition".into(),
                points: curve(&mut dev, &near_sms),
            },
            Series {
                name: "far partition".into(),
                points: curve(&mut dev, &far_sms),
            },
        ],
        720,
        420,
    );
    write("fig14_littles_law.svg".into(), fig14)?;

    // ---- Fig. 21: utilisation timelines. ------------------------------------
    let mut series = Vec::new();
    for (name, cfg) in [
        ("under-provisioned", MemSimConfig::underprovisioned()),
        ("provisioned", MemSimConfig::provisioned()),
    ] {
        let r = run_memsim(cfg, 21, MemSimNets::Split, &TelemetryHandle::disabled());
        series.push(Series {
            name: name.into(),
            points: r
                .utilization_timeline
                .iter()
                .enumerate()
                .map(|(i, &u)| (i as f64, 100.0 * u))
                .collect(),
        });
    }
    let fig21 = svg::line_chart(
        "Fig. 21 — memory channel utilisation over time",
        "window",
        "utilisation %",
        &series,
        720,
        420,
    );
    write("fig21_utilization.svg".into(), fig21)?;

    // ---- Fig. 23: per-node throughput bars. ---------------------------------
    for arbiter in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
        let (r, _) = run_fairness(
            FairnessConfig::paper(arbiter),
            23,
            TelemetryHandle::disabled(),
            false,
        );
        let bars: Vec<(String, f64)> = r
            .throughput
            .iter()
            .enumerate()
            .map(|(i, &t)| (format!("{}", i + 6), t))
            .collect();
        let fig = svg::bar_chart(
            &format!("Fig. 23 — per-node throughput, {arbiter:?} arbitration"),
            "packets/cycle",
            &bars,
            900,
            420,
        );
        let name = format!("fig23_fairness_{arbiter:?}.svg").to_lowercase();
        write(name, fig)?;
    }

    for (path, bytes) in wrote {
        println!("wrote {} ({bytes} bytes)", path.display());
    }
    Ok(())
}
