//! Traffic generation and the Fig. 23 fairness experiment.
//!
//! The paper's network-only setup: a 6×6 mesh whose bottom-row nodes are
//! memory controllers; the remaining 30 compute nodes inject uniform-random
//! traffic towards the MCs at saturation. Under round-robin arbitration the
//! per-node accepted throughput differs by up to ≈ 2.4×; age-based
//! arbitration equalises it.
//!
//! It also owns the seeded soak traffic the CLI, the serve daemon and the
//! fabric tests submit: [`mesh_soak`] for one die and [`fabric_soak`] for a
//! multi-device fabric, both drawn from a [`SplitMix64`] stream keyed by
//! the run's seed, so a seed names the same transfers on every surface.

use crate::arbiter::ArbiterKind;
use crate::mesh::{Mesh, MeshConfig};
use crate::packet::{NodeId, PacketClass};
use gnoc_telemetry::hash::SplitMix64;
use gnoc_telemetry::TelemetryHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of the mesh fairness experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessResult {
    /// Accepted throughput (packets/cycle) per compute node, in node order.
    pub throughput: Vec<f64>,
    /// The compute-node ids, aligned with `throughput`.
    pub compute_nodes: Vec<NodeId>,
    /// The memory-controller node ids.
    pub mc_nodes: Vec<NodeId>,
    /// max/min throughput over the compute nodes.
    pub unfairness: f64,
}

/// Configuration of the fairness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessConfig {
    /// Mesh geometry and arbitration.
    pub mesh: MeshConfig,
    /// Offered load per compute node, packets/cycle (1.0 = saturation).
    pub inject_rate: f64,
    /// Warm-up cycles excluded from statistics.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Packet length in flits.
    pub flits: u32,
}

impl FairnessConfig {
    /// The paper's Fig. 23 configuration on the given arbiter: offered load
    /// above the 6-packets/cycle MC ejection capacity (30 × 0.25 = 7.5), so
    /// the network runs saturated but not starving.
    pub fn paper(arbiter: ArbiterKind) -> Self {
        Self {
            mesh: MeshConfig::paper_6x6(arbiter),
            inject_rate: 0.25,
            warmup: 3_000,
            measure: 15_000,
            flits: 1,
        }
    }
}

/// Runs the Fig. 23 experiment: bottom-row nodes are MCs, every other node
/// injects uniform-random traffic to a random MC.
///
/// `telemetry` is attached to the mesh (queue-depth sampling during the
/// run, link/arbiter metrics and per-node throughput spread exported
/// afterwards). With `record` set, a flight recorder rides on the mesh and
/// is returned; it observes phase decisions without participating in them,
/// so the [`FairnessResult`] is bit-identical either way.
pub fn run_fairness(
    cfg: FairnessConfig,
    seed: u64,
    telemetry: TelemetryHandle,
    record: bool,
) -> (FairnessResult, Option<Box<gnoc_telemetry::FlightRecorder>>) {
    let mut mesh = Mesh::new(cfg.mesh);
    mesh.set_telemetry(telemetry.clone());
    if record {
        mesh.attach_flight_recorder();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let width = cfg.mesh.width;
    let n = cfg.mesh.num_nodes();
    let mc_nodes: Vec<NodeId> = (0..width as u32).map(NodeId::new).collect();
    let compute_nodes: Vec<NodeId> = (width as u32..n as u32).map(NodeId::new).collect();

    // Per-node source queues of generated-but-not-yet-injected packets,
    // stamped with their generation cycle: age-based arbitration must see
    // source-queue waiting time, or global fairness degenerates.
    let mut backlog: Vec<std::collections::VecDeque<(u64, NodeId)>> =
        vec![std::collections::VecDeque::new(); n];

    let total = cfg.warmup + cfg.measure;
    for cycle in 0..total {
        if cycle == cfg.warmup {
            mesh.reset_stats();
        }
        for &src in &compute_nodes {
            if rng.gen::<f64>() < cfg.inject_rate {
                let dst = mc_nodes[rng.gen_range(0..mc_nodes.len())];
                backlog[src.index()].push_back((cycle, dst));
            }
            if let Some(&(birth, dst)) = backlog[src.index()].front() {
                if mesh.try_inject_with_birth(src, dst, cfg.flits, PacketClass::Request, birth) {
                    backlog[src.index()].pop_front();
                }
            }
        }
        mesh.step();
        // Delivered packets are only counted in the stats; the drain
        // discards them.
        mesh.drain_ejected();
    }

    let throughput: Vec<f64> = compute_nodes
        .iter()
        .map(|&c| mesh.stats().delivered_by_src[c.index()] as f64 / cfg.measure as f64)
        .collect();
    let max = throughput.iter().cloned().fold(0.0f64, f64::max);
    let min = throughput.iter().cloned().fold(f64::INFINITY, f64::min);
    let unfairness = if min > 0.0 { max / min } else { f64::INFINITY };
    telemetry.with(|t| {
        mesh.export_metrics(&mut t.registry);
        t.registry.gauge_set("noc.fairness.throughput_max", max);
        t.registry.gauge_set("noc.fairness.throughput_min", min);
        if unfairness.is_finite() {
            t.registry.gauge_set("noc.fairness.unfairness", unfairness);
        }
    });
    (
        FairnessResult {
            throughput,
            compute_nodes,
            mc_nodes,
            unfairness,
        },
        mesh.take_flight_recorder(),
    )
}

/// The single-die soak: endless `(src, dst)` pairs over `nodes` terminals.
/// Each pair draws `src` then `dst`; a pair with `src == dst` is skipped.
/// Every transfer is a one-flit [`PacketClass::Request`].
pub fn mesh_soak(seed: u64, nodes: u64) -> impl Iterator<Item = (NodeId, NodeId)> {
    let mut rng = SplitMix64::new(seed);
    std::iter::from_fn(move || loop {
        let src = (rng.next() % nodes) as u32;
        let dst = (rng.next() % nodes) as u32;
        if src != dst {
            return Some((NodeId(src), NodeId(dst)));
        }
    })
}

/// One transfer of the [`fabric_soak`]: device and on-die endpoints and a
/// length of 1–4 flits. Every transfer is a [`PacketClass::Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakTransfer {
    /// Source device.
    pub src_dev: u32,
    /// Source node on the source device.
    pub src: NodeId,
    /// Destination device.
    pub dst_dev: u32,
    /// Destination node on the destination device.
    pub dst: NodeId,
    /// Packet length in flits.
    pub flits: u32,
}

/// The multi-device soak: endless transfers over `devices` dies of `nodes`
/// terminals each. Each draws `src_dev`, `dst_dev`, `src`, `dst`, skips a
/// transfer from a node to itself, then draws its flits. Same-device pairs
/// are kept, so die-local and cross-device traffic mix.
pub fn fabric_soak(seed: u64, devices: u32, nodes: u64) -> impl Iterator<Item = SoakTransfer> {
    let devs = u64::from(devices);
    let mut rng = SplitMix64::new(seed);
    std::iter::from_fn(move || loop {
        let src_dev = (rng.next() % devs) as u32;
        let dst_dev = (rng.next() % devs) as u32;
        let src = (rng.next() % nodes) as u32;
        let dst = (rng.next() % nodes) as u32;
        if src_dev == dst_dev && src == dst {
            continue;
        }
        let flits = 1 + (rng.next() % 4) as u32;
        return Some(SoakTransfer {
            src_dev,
            src: NodeId(src),
            dst_dev,
            dst: NodeId(dst),
            flits,
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fairness(cfg: FairnessConfig, seed: u64) -> FairnessResult {
        run_fairness(cfg, seed, TelemetryHandle::disabled(), false).0
    }

    #[test]
    fn round_robin_mesh_is_unfair() {
        // Fig. 23a: locally fair arbitration starves distant nodes.
        let r = fairness(FairnessConfig::paper(ArbiterKind::RoundRobin), 1);
        assert!(
            r.unfairness > 1.6,
            "expected significant unfairness, got {:.2}",
            r.unfairness
        );
        assert_eq!(r.throughput.len(), 30);
    }

    #[test]
    fn age_based_mesh_is_fair() {
        // Fig. 23b: age-based arbitration provides global fairness.
        let r = fairness(FairnessConfig::paper(ArbiterKind::AgeBased), 1);
        assert!(
            r.unfairness < 1.25,
            "expected near-uniform throughput, got {:.2}",
            r.unfairness
        );
    }

    #[test]
    fn age_based_beats_round_robin_on_fairness() {
        let rr = fairness(FairnessConfig::paper(ArbiterKind::RoundRobin), 7);
        let age = fairness(FairnessConfig::paper(ArbiterKind::AgeBased), 7);
        assert!(age.unfairness < rr.unfairness);
    }

    #[test]
    fn total_throughput_is_mc_bound() {
        // 6 MCs with 1-flit packets accept at most 6 packets/cycle; the
        // saturated mesh should come close.
        let r = fairness(FairnessConfig::paper(ArbiterKind::RoundRobin), 3);
        let total: f64 = r.throughput.iter().sum();
        assert!(total <= 6.0 + 1e-9);
        assert!(total > 3.0, "mesh should sustain load: {total:.2}");
    }

    #[test]
    fn traced_fairness_exports_spread() {
        let telemetry = TelemetryHandle::enabled();
        let cfg = FairnessConfig {
            warmup: 500,
            measure: 2_000,
            ..FairnessConfig::paper(ArbiterKind::RoundRobin)
        };
        let (r, _) = run_fairness(cfg, 1, telemetry.clone(), false);
        assert_eq!(r, fairness(cfg, 1), "tracing must not perturb the run");
        let reg = telemetry.snapshot_registry().unwrap();
        let max = reg.gauge("noc.fairness.throughput_max").unwrap();
        let min = reg.gauge("noc.fairness.throughput_min").unwrap();
        assert!(max >= min && min > 0.0);
        assert!((reg.gauge("noc.fairness.unfairness").unwrap() - max / min).abs() < 1e-12);
        assert!(reg.counter("noc.flits") > 0);
    }

    #[test]
    fn recorded_fairness_is_bit_identical_and_captures_messages() {
        let cfg = FairnessConfig {
            warmup: 200,
            measure: 1_000,
            ..FairnessConfig::paper(ArbiterKind::RoundRobin)
        };
        let bare = fairness(cfg, 3);
        let (recorded, rec) = run_fairness(cfg, 3, TelemetryHandle::disabled(), true);
        assert_eq!(bare, recorded, "recording must not perturb the run");
        let rec = rec.unwrap();
        assert!(!rec.finished().is_empty());
        for m in rec.finished().iter().filter(|m| m.delivered) {
            assert_eq!(m.components_sum(), m.latency(), "message {}", m.id);
        }
    }

    #[test]
    fn results_are_seed_deterministic() {
        let a = fairness(FairnessConfig::paper(ArbiterKind::RoundRobin), 5);
        let b = fairness(FairnessConfig::paper(ArbiterKind::RoundRobin), 5);
        assert_eq!(a.throughput, b.throughput);
    }
}
