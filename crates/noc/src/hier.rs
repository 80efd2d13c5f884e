//! Cycle-level two-level hierarchical crossbar.
//!
//! Recent work (and, per the paper, real GPUs) organise the NoC as a
//! hierarchy of crossbars rather than a multi-hop mesh: terminals share a
//! cluster-level switch whose *uplinks* (one or more per cluster — the
//! "input speedup") feed a single global crossbar in front of the memory
//! partitions. Two radix-limited stages replace hop-by-hop routing, so
//! bandwidth is uniform by construction and unloaded latency is two switch
//! traversals (Implication #6).

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::crossbar::CrossbarStats;
use crate::packet::{NodeId, Packet, PacketClass};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of a [`HierCrossbar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierConfig {
    /// Number of terminal clusters (GPC-like groups).
    pub clusters: usize,
    /// Terminals per cluster.
    pub terminals_per_cluster: usize,
    /// Number of outputs (memory controllers).
    pub outputs: usize,
    /// Uplink ports per cluster into the global crossbar — the cluster's
    /// input speedup. 1 serialises the whole cluster; more ports expose more
    /// of its demand concurrently.
    pub uplink_speedup: usize,
    /// Packets per queue (terminal and uplink queues alike).
    pub buffer_packets: usize,
    /// Arbitration policy at both stages.
    pub arbiter: ArbiterKind,
}

impl HierConfig {
    /// A GPU-flavoured default comparable to the Fig. 23 mesh: 30 terminals
    /// in 5 clusters, 6 outputs, two uplinks per cluster.
    pub fn gpu_like() -> Self {
        Self {
            clusters: 5,
            terminals_per_cluster: 6,
            outputs: 6,
            uplink_speedup: 2,
            buffer_packets: 4,
            arbiter: ArbiterKind::RoundRobin,
        }
    }

    /// Total number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.clusters * self.terminals_per_cluster
    }
}

/// A two-stage (cluster → global) crossbar network.
#[derive(Debug, Clone)]
pub struct HierCrossbar {
    cfg: HierConfig,
    term_queues: Vec<VecDeque<Packet>>,
    /// `[cluster][port]` queues feeding the global stage.
    uplink_queues: Vec<Vec<VecDeque<Packet>>>,
    uplink_arbiters: Vec<Vec<Arbiter>>,
    uplink_busy_until: Vec<Vec<u64>>,
    output_arbiters: Vec<Arbiter>,
    output_busy_until: Vec<u64>,
    cycle: u64,
    next_id: u64,
    ejected: Vec<Packet>,
    stats: CrossbarStats,
}

impl HierCrossbar {
    /// Builds an idle network.
    ///
    /// # Panics
    ///
    /// Panics if any dimension, the speedup or the buffer size is zero, or
    /// if a cluster's terminals or the global switch's uplinks outnumber
    /// the inputs an arbiter serves (64).
    pub fn new(cfg: HierConfig) -> Self {
        assert!(
            cfg.clusters > 0 && cfg.terminals_per_cluster > 0 && cfg.outputs > 0,
            "network must be non-empty"
        );
        assert!(cfg.uplink_speedup > 0, "need at least one uplink port");
        assert!(
            cfg.terminals_per_cluster <= Arbiter::MAX_INPUTS
                && cfg.clusters.saturating_mul(cfg.uplink_speedup) <= Arbiter::MAX_INPUTS,
            "a stage has more inputs than an arbiter serves"
        );
        assert!(
            cfg.buffer_packets > 0,
            "buffers must hold at least 1 packet"
        );
        let n = cfg.num_terminals();
        Self {
            cfg,
            term_queues: vec![VecDeque::new(); n],
            uplink_queues: vec![vec![VecDeque::new(); cfg.uplink_speedup]; cfg.clusters],
            uplink_arbiters: vec![
                (0..cfg.uplink_speedup)
                    .map(|_| Arbiter::new(cfg.arbiter))
                    .collect();
                cfg.clusters
            ],
            uplink_busy_until: vec![vec![0; cfg.uplink_speedup]; cfg.clusters],
            output_arbiters: (0..cfg.outputs)
                .map(|_| Arbiter::new(cfg.arbiter))
                .collect(),
            output_busy_until: vec![0; cfg.outputs],
            cycle: 0,
            next_id: 0,
            ejected: Vec::new(),
            stats: CrossbarStats {
                delivered_by_src: vec![0; n],
                injected_by_src: vec![0; n],
                ..CrossbarStats::default()
            },
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// Resets statistics without touching in-flight packets.
    pub fn reset_stats(&mut self) {
        let n = self.cfg.num_terminals();
        self.stats = CrossbarStats {
            delivered_by_src: vec![0; n],
            injected_by_src: vec![0; n],
            ..CrossbarStats::default()
        };
    }

    /// Attempts to inject a packet from terminal `src` to output `dst`.
    pub fn try_inject(&mut self, src: NodeId, dst: NodeId, flits: u32, class: PacketClass) -> bool {
        self.try_inject_with_birth(src, dst, flits, class, self.cycle)
    }

    /// Injection with an explicit generation stamp (see the mesh's method of
    /// the same name).
    pub fn try_inject_with_birth(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
        birth: u64,
    ) -> bool {
        assert!(src.index() < self.cfg.num_terminals(), "src out of range");
        assert!(dst.index() < self.cfg.outputs, "dst out of range");
        if self.term_queues[src.index()].len() >= self.cfg.buffer_packets {
            return false;
        }
        self.term_queues[src.index()].push_back(Packet {
            id: self.next_id,
            src,
            dst,
            flits,
            birth,
            class,
        });
        self.next_id += 1;
        self.stats.injected_by_src[src.index()] += 1;
        true
    }

    /// Packets delivered since the last drain. Every packet leaves the
    /// buffer, even if the iterator is dropped early, and the buffer keeps
    /// its capacity, so draining allocates nothing; `.collect()` to keep
    /// them.
    pub fn drain_ejected(&mut self) -> std::vec::Drain<'_, Packet> {
        self.ejected.drain(..)
    }

    /// Advances one cycle: global stage first (on queued uplink packets),
    /// then cluster uplinks pull from terminal queues.
    pub fn step(&mut self) {
        // ---- Global stage: outputs grant among uplink-queued packets. -----
        // The global switch is virtual-output-queued: an output may pull the
        // *first packet destined to it* from any uplink queue, so one busy
        // output never head-of-line-blocks traffic for the others. Uplink
        // port `c * uplink_speedup + p` is queue `[c][p]`.
        let speedup = self.cfg.uplink_speedup;
        for out in 0..self.cfg.outputs {
            if self.output_busy_until[out] > self.cycle {
                continue;
            }
            let first_to_out = |port: usize| {
                let q = &self.uplink_queues[port / speedup][port % speedup];
                q.iter()
                    .position(|pkt| pkt.dst.index() == out)
                    .map(|pos| (pos, q[pos].birth))
            };
            let mut requests = 0u64;
            for port in 0..self.cfg.clusters * speedup {
                if first_to_out(port).is_some() {
                    requests |= 1 << port;
                }
            }
            let birth_of = |port: usize| first_to_out(port).map_or(u64::MAX, |(_, birth)| birth);
            if let Some(winner) = self.output_arbiters[out].grant(requests, birth_of) {
                // Invariant: every requesting port queues a packet to `out`.
                // Skip the grant (losing one cycle, not the run) if that
                // ever breaks.
                let pos = first_to_out(winner).map(|(pos, _)| pos);
                let queue = &mut self.uplink_queues[winner / speedup][winner % speedup];
                let Some(packet) = pos.and_then(|pos| queue.remove(pos)) else {
                    debug_assert!(false, "granted uplink lost its candidate packet");
                    continue;
                };
                self.output_busy_until[out] = self.cycle + u64::from(packet.flits);
                self.stats.delivered_by_src[packet.src.index()] += 1;
                self.stats.delivered_total += 1;
                self.stats.latency_sum += self.cycle - packet.birth;
                self.ejected.push(packet);
            }
        }

        // ---- Cluster stage: each uplink port pulls one terminal head. -----
        for c in 0..self.cfg.clusters {
            let base = c * self.cfg.terminals_per_cluster;
            // Terminals with a head, less those already granted this cycle,
            // so two ports of the same cluster never pull from one queue
            // simultaneously.
            let mut requests = 0u64;
            for t in 0..self.cfg.terminals_per_cluster {
                if !self.term_queues[base + t].is_empty() {
                    requests |= 1 << t;
                }
            }
            for p in 0..speedup {
                if self.uplink_busy_until[c][p] > self.cycle {
                    continue;
                }
                if self.uplink_queues[c][p].len() >= self.cfg.buffer_packets {
                    continue;
                }
                let birth_of = |t: usize| self.term_queues[base + t][0].birth;
                if let Some(winner) = self.uplink_arbiters[c][p].grant(requests, birth_of) {
                    requests &= !(1 << winner);
                    // Invariant: every requesting terminal has a queue head.
                    let Some(packet) = self.term_queues[base + winner].pop_front() else {
                        debug_assert!(false, "granted terminal queue is empty");
                        continue;
                    };
                    self.uplink_busy_until[c][p] = self.cycle + u64::from(packet.flits);
                    self.uplink_queues[c][p].push_back(packet);
                }
            }
        }

        self.cycle += 1;
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(speedup: usize) -> HierCrossbar {
        HierCrossbar::new(HierConfig {
            uplink_speedup: speedup,
            ..HierConfig::gpu_like()
        })
    }

    #[test]
    #[should_panic(expected = "more inputs than an arbiter serves")]
    fn oversized_global_stage_rejected() {
        let _ = net(13);
    }

    #[test]
    fn unloaded_latency_is_two_stages() {
        let mut x = net(2);
        x.try_inject(NodeId::new(0), NodeId::new(3), 1, PacketClass::Request);
        x.run(4);
        assert_eq!(x.stats().delivered_total, 1);
        // Injected at cycle 0; pulled into the uplink at cycle 0; delivered
        // at cycle 1 or 2 depending on stage interleaving.
        assert!(
            x.stats().mean_latency() <= 2.0,
            "{}",
            x.stats().mean_latency()
        );
    }

    #[test]
    fn saturated_throughput_matches_output_capacity() {
        let mut x = net(2);
        let mut rng_state = 7u64;
        for _ in 0..5000 {
            for t in 0..30u32 {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dst = ((rng_state >> 33) % 6) as u32;
                let _ = x.try_inject(NodeId::new(t), NodeId::new(dst), 1, PacketClass::Request);
            }
            x.step();
            x.drain_ejected();
        }
        let rate = x.stats().delivered_total as f64 / x.cycle() as f64;
        assert!(
            rate > 5.4,
            "6 outputs should run near 6 pkt/cycle: {rate:.2}"
        );
    }

    #[test]
    fn throughput_is_uniform_across_terminals_and_clusters() {
        // Implication #6: the hierarchical crossbar gives every terminal the
        // same share regardless of its cluster — no parking-lot effect.
        let mut x = net(2);
        let mut rng_state = 11u64;
        for _ in 0..20_000 {
            for t in 0..30u32 {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dst = ((rng_state >> 33) % 6) as u32;
                let _ = x.try_inject(NodeId::new(t), NodeId::new(dst), 1, PacketClass::Request);
            }
            x.step();
            x.drain_ejected();
        }
        let d = &x.stats().delivered_by_src;
        let max = *d.iter().max().unwrap() as f64;
        let min = *d.iter().min().unwrap() as f64;
        assert!(max / min < 1.1, "unfairness {:.3}", max / min);
    }

    #[test]
    fn uplink_speedup_gates_cluster_bandwidth() {
        // One cluster sending to all 6 outputs: speedup 1 caps it at 1
        // pkt/cycle, speedup 3 at 3 pkt/cycle.
        let rate_with = |speedup: usize| -> f64 {
            let mut x = net(speedup);
            for cycle in 0..4000u64 {
                for t in 0..6u32 {
                    let _ = x.try_inject(
                        NodeId::new(t), // all in cluster 0
                        NodeId::new(((cycle + u64::from(t)) % 6) as u32),
                        1,
                        PacketClass::Request,
                    );
                }
                x.step();
                x.drain_ejected();
            }
            x.stats().delivered_total as f64 / x.cycle() as f64
        };
        let s1 = rate_with(1);
        let s3 = rate_with(3);
        assert!(s1 < 1.05, "speedup-1 cluster capped at 1/cycle: {s1:.2}");
        assert!(s3 > 2.5, "speedup-3 cluster near 3/cycle: {s3:.2}");
    }

    #[test]
    fn wormhole_serialisation_applies_to_both_stages() {
        let mut x = net(1);
        x.try_inject(NodeId::new(0), NodeId::new(0), 4, PacketClass::Reply);
        x.try_inject(NodeId::new(1), NodeId::new(0), 4, PacketClass::Reply);
        // The shared 4-flit uplink admits the second packet only at cycle 4,
        // so it cannot be delivered before then.
        x.run(4);
        assert!(
            x.stats().delivered_total <= 1,
            "{}",
            x.stats().delivered_total
        );
        x.run(20);
        assert_eq!(x.stats().delivered_total, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_destination_rejected() {
        let mut x = net(1);
        let _ = x.try_inject(NodeId::new(0), NodeId::new(99), 1, PacketClass::Request);
    }
}
