//! Cycle-level single-hop crossbar, the contrast to the 2D mesh.
//!
//! The paper argues (Implication #6, Section VI-C) that real GPU NoCs are
//! organised as hierarchical crossbars, which provide *uniform* bandwidth to
//! every node regardless of placement — something a multi-hop mesh cannot do
//! under locally fair arbitration. This model demonstrates that uniformity
//! with the same traffic used in the mesh experiment.

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::packet::{NodeId, Packet, PacketClass};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of a [`Crossbar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Number of input terminals (e.g. compute nodes).
    pub inputs: usize,
    /// Number of output terminals (e.g. memory controllers).
    pub outputs: usize,
    /// Packets each input queue can hold.
    pub buffer_packets: usize,
    /// Per-output arbitration policy.
    pub arbiter: ArbiterKind,
}

/// Per-simulation statistics, indexed by input terminal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossbarStats {
    /// Packets delivered per source input.
    pub delivered_by_src: Vec<u64>,
    /// Packets injected per source input.
    pub injected_by_src: Vec<u64>,
    /// Total delivered.
    pub delivered_total: u64,
    /// Latency sum over delivered packets.
    pub latency_sum: u64,
}

impl CrossbarStats {
    /// Mean packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_total == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_total as f64
        }
    }
}

/// A single-stage input-queued crossbar.
#[derive(Debug, Clone)]
pub struct Crossbar {
    cfg: CrossbarConfig,
    queues: Vec<VecDeque<Packet>>,
    arbiters: Vec<Arbiter>,
    output_busy_until: Vec<u64>,
    cycle: u64,
    next_id: u64,
    ejected: Vec<Packet>,
    stats: CrossbarStats,
}

impl Crossbar {
    /// Builds an idle crossbar.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or buffer size is zero, or with more inputs
    /// than an arbiter serves (64).
    pub fn new(cfg: CrossbarConfig) -> Self {
        assert!(
            cfg.inputs > 0 && cfg.outputs > 0,
            "crossbar must be non-empty"
        );
        assert!(
            cfg.inputs <= Arbiter::MAX_INPUTS,
            "crossbar has more inputs than an arbiter serves"
        );
        assert!(
            cfg.buffer_packets > 0,
            "buffers must hold at least 1 packet"
        );
        Self {
            cfg,
            queues: vec![VecDeque::new(); cfg.inputs],
            arbiters: (0..cfg.outputs)
                .map(|_| Arbiter::new(cfg.arbiter))
                .collect(),
            output_busy_until: vec![0; cfg.outputs],
            cycle: 0,
            next_id: 0,
            ejected: Vec::new(),
            stats: CrossbarStats {
                delivered_by_src: vec![0; cfg.inputs],
                injected_by_src: vec![0; cfg.inputs],
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

    /// Resets statistics without touching queued packets.
    pub fn reset_stats(&mut self) {
        self.stats = CrossbarStats {
            delivered_by_src: vec![0; self.cfg.inputs],
            injected_by_src: vec![0; self.cfg.inputs],
            ..CrossbarStats::default()
        };
    }

    /// Attempts to inject a packet from input `src` to output `dst`.
    pub fn try_inject(&mut self, src: NodeId, dst: NodeId, flits: u32, class: PacketClass) -> bool {
        assert!(src.index() < self.cfg.inputs, "src out of range");
        assert!(dst.index() < self.cfg.outputs, "dst out of range");
        if self.queues[src.index()].len() >= self.cfg.buffer_packets {
            return false;
        }
        self.queues[src.index()].push_back(Packet {
            id: self.next_id,
            src,
            dst,
            flits,
            birth: self.cycle,
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

    /// Advances one cycle: each free output grants one of the input-queue
    /// heads that target it.
    pub fn step(&mut self) {
        for out in 0..self.cfg.outputs {
            if self.output_busy_until[out] > self.cycle {
                continue;
            }
            let mut requests = 0u64;
            for (input, q) in self.queues.iter().enumerate() {
                if q.front().is_some_and(|head| head.dst.index() == out) {
                    requests |= 1 << input;
                }
            }
            let birth_of = |input: usize| self.queues[input][0].birth;
            if let Some(winner) = self.arbiters[out].grant(requests, birth_of) {
                // Invariant: every requesting input has a queue head.
                let Some(packet) = self.queues[winner].pop_front() else {
                    debug_assert!(false, "granted input queue is empty");
                    continue;
                };
                self.output_busy_until[out] = self.cycle + u64::from(packet.flits);
                self.stats.delivered_by_src[packet.src.index()] += 1;
                self.stats.delivered_total += 1;
                self.stats.latency_sum += self.cycle - packet.birth;
                self.ejected.push(packet);
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

    fn xbar() -> Crossbar {
        Crossbar::new(CrossbarConfig {
            inputs: 4,
            outputs: 2,
            buffer_packets: 4,
            arbiter: ArbiterKind::RoundRobin,
        })
    }

    #[test]
    fn single_packet_delivers_in_one_cycle() {
        let mut x = xbar();
        x.try_inject(NodeId::new(1), NodeId::new(0), 1, PacketClass::Request);
        x.step();
        assert_eq!(x.stats().delivered_total, 1);
        assert_eq!(x.stats().mean_latency(), 0.0);
    }

    #[test]
    fn output_contention_serialises() {
        let mut x = xbar();
        for i in 0..4 {
            x.try_inject(NodeId::new(i), NodeId::new(0), 1, PacketClass::Request);
        }
        x.run(2);
        assert_eq!(x.stats().delivered_total, 2);
        x.run(2);
        assert_eq!(x.stats().delivered_total, 4);
    }

    #[test]
    fn round_robin_is_fair_on_a_single_hop() {
        // The crossbar's key property: equal throughput per input under
        // sustained contention (no multi-hop merge tree to starve anyone).
        let mut x = xbar();
        for _ in 0..4000 {
            for i in 0..4 {
                let _ = x.try_inject(NodeId::new(i), NodeId::new(0), 1, PacketClass::Request);
            }
            x.step();
        }
        let d = &x.stats().delivered_by_src;
        let max = *d.iter().max().unwrap() as f64;
        let min = *d.iter().min().unwrap() as f64;
        assert!(max / min < 1.05, "crossbar unfairness {max}/{min}");
    }

    #[test]
    fn distinct_outputs_work_in_parallel() {
        let mut x = xbar();
        x.try_inject(NodeId::new(0), NodeId::new(0), 1, PacketClass::Request);
        x.try_inject(NodeId::new(1), NodeId::new(1), 1, PacketClass::Request);
        x.step();
        assert_eq!(x.stats().delivered_total, 2);
    }

    #[test]
    #[should_panic(expected = "more inputs than an arbiter serves")]
    fn oversized_crossbar_rejected() {
        let _ = Crossbar::new(CrossbarConfig {
            inputs: 65,
            ..xbar().cfg
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_output_rejected() {
        let mut x = xbar();
        let _ = x.try_inject(NodeId::new(0), NodeId::new(5), 1, PacketClass::Request);
    }
}
