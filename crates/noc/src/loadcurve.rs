//! Load–latency characterisation of the simulated networks.
//!
//! The classic interconnect evaluation: sweep the offered load and record
//! accepted throughput and mean packet latency. Used to compare the paper's
//! mesh baseline against the hierarchical crossbar GPUs actually use, and to
//! locate each network's saturation point.

use crate::hier::{HierConfig, HierCrossbar};
use crate::mesh::{Mesh, MeshConfig};
use crate::packet::{NodeId, PacketClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered load, packets/cycle/terminal.
    pub offered: f64,
    /// Accepted throughput, packets/cycle across all terminals.
    pub accepted: f64,
    /// Mean packet latency in cycles (generation to ejection).
    pub mean_latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: f64,
}

/// Sweep parameters shared by both network kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Warm-up cycles per point.
    pub warmup: u64,
    /// Measured cycles per point.
    pub measure: u64,
    /// Packet length in flits.
    pub flits: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            warmup: 1_000,
            measure: 6_000,
            flits: 1,
        }
    }
}

/// Sweeps offered load on the Fig. 23 mesh (bottom row = MCs, all other
/// nodes inject uniform-random traffic towards the MCs).
pub fn mesh_load_curve(
    mesh_cfg: MeshConfig,
    sweep: SweepConfig,
    rates: &[f64],
    seed: u64,
) -> Vec<LoadPoint> {
    rates
        .iter()
        .map(|&rate| {
            let mut mesh = Mesh::new(mesh_cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let width = mesh_cfg.width;
            let n = mesh_cfg.num_nodes();
            let compute: Vec<NodeId> = (width as u32..n as u32).map(NodeId::new).collect();
            let mut backlog: Vec<std::collections::VecDeque<(u64, NodeId)>> =
                vec![std::collections::VecDeque::new(); n];
            let total = sweep.warmup + sweep.measure;
            for cycle in 0..total {
                if cycle == sweep.warmup {
                    mesh.reset_stats();
                }
                for &src in &compute {
                    if rng.gen::<f64>() < rate {
                        let dst = NodeId::new(rng.gen_range(0..width) as u32);
                        backlog[src.index()].push_back((cycle, dst));
                    }
                    if let Some(&(birth, dst)) = backlog[src.index()].front() {
                        if mesh.try_inject_with_birth(
                            src,
                            dst,
                            sweep.flits,
                            PacketClass::Request,
                            birth,
                        ) {
                            backlog[src.index()].pop_front();
                        }
                    }
                }
                mesh.step();
                // Only the stats count deliveries; the drain discards the
                // ejected packets.
                mesh.drain_ejected();
            }
            LoadPoint {
                offered: rate,
                accepted: mesh.stats().delivered_total as f64 / sweep.measure as f64,
                mean_latency: mesh.stats().mean_latency(),
                p99_latency: mesh.stats().latency_quantile(0.99),
            }
        })
        .collect()
}

/// Sweeps offered load on a hierarchical crossbar with uniform-random
/// output destinations.
pub fn hier_load_curve(
    cfg: HierConfig,
    sweep: SweepConfig,
    rates: &[f64],
    seed: u64,
) -> Vec<LoadPoint> {
    rates
        .iter()
        .map(|&rate| {
            let mut net = HierCrossbar::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = cfg.num_terminals();
            let mut backlog: Vec<std::collections::VecDeque<(u64, NodeId)>> =
                vec![std::collections::VecDeque::new(); n];
            let total = sweep.warmup + sweep.measure;
            for cycle in 0..total {
                if cycle == sweep.warmup {
                    net.reset_stats();
                }
                for (t, queue) in backlog.iter_mut().enumerate() {
                    if rng.gen::<f64>() < rate {
                        let dst = NodeId::new(rng.gen_range(0..cfg.outputs) as u32);
                        queue.push_back((cycle, dst));
                    }
                    if let Some(&(birth, dst)) = queue.front() {
                        if net.try_inject_with_birth(
                            NodeId::new(t as u32),
                            dst,
                            sweep.flits,
                            PacketClass::Request,
                            birth,
                        ) {
                            queue.pop_front();
                        }
                    }
                }
                net.step();
                net.drain_ejected();
            }
            LoadPoint {
                offered: rate,
                accepted: net.stats().delivered_total as f64 / sweep.measure as f64,
                mean_latency: net.stats().mean_latency(),
                // The crossbar stats do not histogram latencies; reuse mean.
                p99_latency: net.stats().mean_latency(),
            }
        })
        .collect()
}

/// The saturation throughput of a curve: the highest accepted rate seen.
pub fn saturation_throughput(curve: &[LoadPoint]) -> f64 {
    curve.iter().map(|p| p.accepted).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;

    fn rates() -> Vec<f64> {
        vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3]
    }

    #[test]
    fn mesh_latency_rises_with_load() {
        let curve = mesh_load_curve(
            MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            SweepConfig::default(),
            &rates(),
            1,
        );
        assert!(curve[0].mean_latency < curve.last().unwrap().mean_latency);
        // Accepted tracks offered in the linear region.
        assert!((curve[0].accepted - 30.0 * 0.02).abs() < 0.1);
        // Tail latency dominates the mean and grows with load too.
        for p in &curve {
            assert!(p.p99_latency >= p.mean_latency * 0.9, "{p:?}");
        }
        assert!(curve[0].p99_latency < curve.last().unwrap().p99_latency);
    }

    #[test]
    fn hier_crossbar_has_lower_unloaded_latency_than_mesh() {
        let sweep = SweepConfig::default();
        let light = [0.02];
        let mesh = mesh_load_curve(
            MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            sweep,
            &light,
            2,
        );
        let hier = hier_load_curve(HierConfig::gpu_like(), sweep, &light, 2);
        assert!(
            hier[0].mean_latency < mesh[0].mean_latency,
            "hier {} vs mesh {}",
            hier[0].mean_latency,
            mesh[0].mean_latency
        );
    }

    #[test]
    fn both_networks_saturate_near_output_capacity() {
        let sweep = SweepConfig::default();
        let heavy = [0.1, 0.2, 0.4];
        let mesh = mesh_load_curve(
            MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            sweep,
            &heavy,
            3,
        );
        let hier = hier_load_curve(HierConfig::gpu_like(), sweep, &heavy, 3);
        // 6 single-flit outputs → ≤ 6 packets/cycle.
        assert!(saturation_throughput(&mesh) <= 6.0 + 1e-9);
        assert!(saturation_throughput(&hier) <= 6.0 + 1e-9);
        assert!(saturation_throughput(&hier) > 5.4);
        assert!(saturation_throughput(&mesh) > 4.5);
    }

    #[test]
    fn accepted_never_exceeds_offered() {
        let sweep = SweepConfig::default();
        let curve = hier_load_curve(HierConfig::gpu_like(), sweep, &rates(), 4);
        for p in curve {
            assert!(p.accepted <= 30.0 * p.offered + 0.2, "{p:?}");
        }
    }
}
