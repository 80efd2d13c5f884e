//! High-level measurement campaigns combining the microbenchmarks with the
//! analysis toolkit — the workflows a user of the artifact actually runs.

use gnoc_analysis::{correlation_clusters, correlation_matrix, pearson, rand_index, Summary};
use gnoc_engine::GpuDevice;
use gnoc_microbench::LatencyProbe;
use gnoc_telemetry::{SpanTimer, TraceEvent, SUBSYSTEM_CAMPAIGN};
use gnoc_topo::{GpcId, SmId};
use serde::{Deserialize, Serialize};

/// A full latency characterisation of one device: the per-(SM, slice) latency
/// matrix plus derived statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCampaign {
    /// Mean hit latency `[sm][visible slice]`, cycles.
    pub matrix: Vec<Vec<f64>>,
    /// Per-SM summary over that SM's latency profile.
    pub sm_summaries: Vec<Summary>,
    /// Pearson correlation between every pair of SM latency profiles
    /// (the Fig. 6 heatmap).
    pub correlation: Vec<Vec<f64>>,
}

impl LatencyCampaign {
    /// Runs Algorithm 1 over every (SM, visible slice) pair and computes the
    /// derived statistics.
    ///
    /// When the device's telemetry is enabled, the probe layer records
    /// per-SM progress events and the run finishes a `span.campaign.latency`
    /// wall-clock timer plus `campaign.virtual_cycles` (the device's
    /// accumulated model time) into the registry — the dual clocks of the
    /// paper's methodology: host-side wall time around the launch,
    /// device-side `clock()` cycles inside it.
    pub fn run(dev: &mut GpuDevice, probe: &LatencyProbe) -> Self {
        let telemetry = dev.telemetry().clone();
        let timer = SpanTimer::start("campaign.latency");
        let start_cycle = dev.virtual_cycle();
        let matrix = probe.matrix(dev);
        let sm_summaries = matrix.iter().map(|row| Summary::of(row)).collect();
        let correlation = correlation_matrix(&matrix);
        let result = Self {
            matrix,
            sm_summaries,
            correlation,
        };
        let virtual_cycles = dev.virtual_cycle() - start_cycle;
        telemetry.with(|t| {
            t.registry
                .counter_add("campaign.virtual_cycles", virtual_cycles);
            t.registry
                .gauge_set("campaign.grand_mean_cycles", result.grand_mean());
            timer.finish(&mut t.registry);
        });
        telemetry.emit_with(|| {
            TraceEvent::new(dev.virtual_cycle(), SUBSYSTEM_CAMPAIGN, "latency_campaign")
                .with("sms", result.matrix.len())
                .with("virtual_cycles", virtual_cycles)
        });
        result
    }

    /// Grand mean latency over all pairs; 0.0 for an empty matrix (the 0/0
    /// division used to yield NaN, which poisoned downstream gauges and JSON).
    pub fn grand_mean(&self) -> f64 {
        let total: f64 = self.sm_summaries.iter().map(|s| s.mean * s.n as f64).sum();
        let n: usize = self.sm_summaries.iter().map(|s| s.n).sum();
        if n == 0 {
            return 0.0;
        }
        total / n as f64
    }

    /// The one-line result `gnoc campaign` prints and the daemon's
    /// `campaign` payload carries as its `summary`: the grand mean over the
    /// full matrix, or over what a `degraded` run measured, and whether a
    /// fault plan was applied.
    #[must_use]
    pub fn summary_line(&self, device: &str, degraded: bool, plan_applied: bool) -> String {
        let head = format!(
            "{device}: grand mean latency {:.0} cycles",
            self.grand_mean()
        );
        match (degraded, plan_applied) {
            (true, false) => format!("{head} (degraded campaign)"),
            (true, true) => format!("{head} (degraded campaign, fault plan applied)"),
            (false, plan) => format!(
                "{head} over {}x{} pairs{}",
                self.matrix.len(),
                self.matrix.first().map_or(0, Vec::len),
                if plan { " (fault plan applied)" } else { "" }
            ),
        }
    }

    /// Mean latency profile of each GPC (rows averaged over the GPC's SMs).
    /// Only meaningful when all SMs see the same slice set (every preset
    /// does within a partition).
    pub fn gpc_mean_profiles(&self, dev: &GpuDevice) -> Vec<Vec<f64>> {
        let h = dev.hierarchy();
        GpcId::range(h.num_gpcs())
            .map(|g| {
                let sms = h.sms_in_gpc(g);
                let width = self.matrix[sms[0].index()].len();
                let mut mean = vec![0.0; width];
                for &sm in sms {
                    for (m, v) in mean.iter_mut().zip(&self.matrix[sm.index()]) {
                        *m += v / sms.len() as f64;
                    }
                }
                mean
            })
            .collect()
    }
}

/// Result of placement reverse engineering (paper Implication #1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// How well pairwise profile correlation tracks physical proximity:
    /// Pearson correlation between `corr(sm_a, sm_b)` and the *negated*
    /// horizontal die distance of the two SMs. Near 1 means latency profiles
    /// reveal where each SM sits on the die.
    pub position_recovery_r: f64,
    /// Inferred column-group label per GPC, from clustering GPC mean
    /// profiles.
    pub gpc_labels: Vec<usize>,
    /// Ground-truth (partition, column) group per GPC from the floorplan.
    pub gpc_truth: Vec<usize>,
    /// Rand index between the two (1.0 = exact column recovery).
    pub gpc_rand_index: f64,
}

/// Ground-truth physical column group of each GPC, from the floorplan: GPCs
/// sharing a partition and a horizontal die position form one group (the
/// paper likewise finds vertically stacked neighbours, e.g. GPC0 & GPC1,
/// share a latency signature).
fn column_truth(dev: &GpuDevice) -> Vec<usize> {
    use std::collections::HashMap;
    let h = dev.hierarchy();
    let fp = dev.floorplan();
    let mut group_of: HashMap<(usize, i64), usize> = HashMap::new();
    GpcId::range(h.num_gpcs())
        .map(|g| {
            let key = (
                h.partition_of_gpc(g).index(),
                (fp.gpc_rect(g).center().x * 16.0).round() as i64,
            );
            let next = group_of.len();
            *group_of.entry(key).or_insert(next)
        })
        .collect()
}

/// Reverse engineers SM placement from a latency campaign (Implication #1).
///
/// Two complementary results:
///
/// 1. **Continuous position recovery** — pairwise profile correlation is
///    compared against physical proximity. Nearby SMs (even across a GPC
///    boundary) have near-identical profiles, so correlation is a proxy for
///    die position.
/// 2. **Column clustering** — averaging profiles per GPC and merging GPCs
///    whose local sub-profiles agree to within `gpc_merge_cycles` (mean
///    absolute per-slice difference) recovers the (partition, column) groups
///    exactly, reproducing the block structure of Fig. 6.
pub fn infer_placement(
    campaign: &LatencyCampaign,
    dev: &GpuDevice,
    gpc_merge_cycles: f64,
) -> PlacementReport {
    let h = dev.hierarchy();
    let fp = dev.floorplan();

    // (1) correlation-vs-proximity over same-partition SM pairs.
    let mut rs = Vec::new();
    let mut neg_dist = Vec::new();
    let n = h.num_sms();
    for a in 0..n {
        for b in (a + 1)..n {
            let (sa, sb) = (SmId::new(a as u32), SmId::new(b as u32));
            if h.sm(sa).partition != h.sm(sb).partition {
                continue;
            }
            rs.push(campaign.correlation[a][b]);
            neg_dist.push(-(fp.sm_pos(sa).x - fp.sm_pos(sb).x).abs());
        }
    }
    let position_recovery_r = pearson(&rs, &neg_dist);

    // (2) GPC-level column clustering over *local-partition* sub-profiles.
    // On partitioned GPUs the ±crossing offset dominates whole-profile
    // correlation and only resolves the partition (the paper's Fig. 6b
    // finding); restricting each GPC's profile to its own partition's slices
    // removes that offset and restores column resolution.
    let profiles = campaign.gpc_mean_profiles(dev);
    let local_profiles: Vec<Vec<f64>> = GpcId::range(h.num_gpcs())
        .map(|g| {
            let p = h.partition_of_gpc(g);
            match dev.spec().cache_policy {
                // Rows already cover only local slices.
                gnoc_topo::CachePolicy::PartitionLocal => profiles[g.index()].clone(),
                gnoc_topo::CachePolicy::GloballyShared => h
                    .slices_in_partition(p)
                    .iter()
                    .map(|s| profiles[g.index()][s.index()])
                    .collect(),
            }
        })
        .collect();
    // Two GPCs are co-located when their local sub-profiles agree slice by
    // slice to within measurement noise. A *distance* criterion (mean
    // absolute per-slice difference, in cycles) is robust where correlation
    // is not: slice-intrinsic structure shared by every SM (e.g. the
    // MP-internal service chain) inflates correlations but cancels out of
    // differences. Cross-partition sub-profiles cover different physical
    // slices and are never merged.
    let n_gpcs = h.num_gpcs();
    let mut similarity = vec![vec![0.0f64; n_gpcs]; n_gpcs];
    for i in 0..n_gpcs {
        for j in 0..n_gpcs {
            let pi = h.partition_of_gpc(GpcId::new(i as u32));
            let pj = h.partition_of_gpc(GpcId::new(j as u32));
            if pi != pj {
                similarity[i][j] = f64::NEG_INFINITY;
                continue;
            }
            let dist = local_profiles[i]
                .iter()
                .zip(&local_profiles[j])
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / local_profiles[i].len() as f64;
            // Negated distance so the shared threshold clustering applies.
            similarity[i][j] = -dist;
        }
    }
    let gpc_labels = correlation_clusters(&similarity, -gpc_merge_cycles);
    let gpc_truth = column_truth(dev);
    let gpc_rand_index = rand_index(&gpc_labels, &gpc_truth);

    PlacementReport {
        position_recovery_r,
        gpc_labels,
        gpc_truth,
        gpc_rand_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_probe() -> LatencyProbe {
        LatencyProbe {
            working_set_lines: 2,
            samples: 4,
        }
    }

    #[test]
    fn campaign_dimensions_match_device() {
        let mut dev = GpuDevice::v100(0);
        let c = LatencyCampaign::run(&mut dev, &quick_probe());
        assert_eq!(c.matrix.len(), 80);
        assert_eq!(c.correlation.len(), 80);
        assert!(
            (190.0..230.0).contains(&c.grand_mean()),
            "{}",
            c.grand_mean()
        );
    }

    #[test]
    fn grand_mean_of_empty_matrix_is_zero_not_nan() {
        let empty = LatencyCampaign {
            matrix: Vec::new(),
            sm_summaries: Vec::new(),
            correlation: Vec::new(),
        };
        let gm = empty.grand_mean();
        assert_eq!(gm, 0.0, "empty campaign grand mean must be 0.0, got {gm}");
        assert!(!gm.is_nan());
    }

    #[test]
    fn same_gpc_sms_correlate_strongly() {
        // Observation #4: SMs of the same GPC have near-identical profiles.
        let mut dev = GpuDevice::v100(1);
        let c = LatencyCampaign::run(&mut dev, &quick_probe());
        let h = dev.hierarchy();
        let gpc0 = h.sms_in_gpc(GpcId::new(0));
        let r = c.correlation[gpc0[0].index()][gpc0[1].index()];
        assert!(r > 0.9, "intra-GPC correlation {r}");
    }

    #[test]
    fn placement_inference_recovers_structure() {
        let mut dev = GpuDevice::v100(2);
        let c = LatencyCampaign::run(&mut dev, &quick_probe());
        let report = infer_placement(&c, &dev, 2.5);
        assert!(
            report.position_recovery_r > 0.75,
            "position recovery r {}",
            report.position_recovery_r
        );
        assert_eq!(
            report.gpc_rand_index, 1.0,
            "labels {:?} truth {:?}",
            report.gpc_labels, report.gpc_truth
        );
    }

    #[test]
    fn traced_campaign_reports_all_three_clocks() {
        use gnoc_telemetry::{MemorySink, Telemetry, TelemetryHandle};

        let sink = MemorySink::new();
        let telemetry = TelemetryHandle::attach(Telemetry::with_sink(Box::new(sink.clone())));
        let mut dev = GpuDevice::v100(0);
        dev.set_telemetry(telemetry.clone());
        let c = LatencyCampaign::run(&mut dev, &quick_probe());

        let reg = telemetry.snapshot_registry().unwrap();
        assert!(reg.counter("campaign.virtual_cycles") > 0);
        assert_eq!(reg.counter("campaign.sm_profiles"), 80);
        assert_eq!(reg.counter("span.campaign.latency.calls"), 1);
        assert!((reg.gauge("campaign.grand_mean_cycles").unwrap() - c.grand_mean()).abs() < 1e-9);
        // The device-layer instrumentation fed the same registry.
        assert!(reg.counter("engine.reads") > 0);

        let events = sink.snapshot();
        assert_eq!(
            events.iter().filter(|e| e.event == "sm_profile").count(),
            80
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.event == "latency_campaign")
                .count(),
            1
        );
    }

    #[test]
    fn gpc_mean_profiles_have_one_row_per_gpc() {
        let mut dev = GpuDevice::v100(0);
        let c = LatencyCampaign::run(&mut dev, &quick_probe());
        let p = c.gpc_mean_profiles(&dev);
        assert_eq!(p.len(), 6);
        assert!(p.iter().all(|row| row.len() == 32));
    }
}
