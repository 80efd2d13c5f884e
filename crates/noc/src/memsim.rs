//! Request/reply memory-system simulation — the Fig. 21 experiment.
//!
//! GPU NoCs are many-to-few-to-many: many compute nodes send small read
//! requests to few memory controllers, which return large replies. Prior work
//! identified the *reply* NoC↔MEM interface as the bottleneck; when that
//! interface is under-provisioned, reply congestion back-pressures the memory
//! controller, DRAM sits idle, and per-channel utilisation fluctuates around
//! a low average (≈ 20 % in the paper's Fig. 21) even though the offered load
//! could saturate it. Provisioning the reply interface (Implication #4/#5)
//! restores high utilisation.
//!
//! This driver deliberately stays on the cycle-exact path rather than the
//! event core's next-event skip (DESIGN.md §8.2): every cycle draws a
//! Bernoulli injection sample per compute node, so no span is ever
//! provably quiet — skipping would desynchronize the RNG stream and change
//! results. The workload is also saturating by design (the whole point is
//! measuring congestion), so there is no idle tail to win back; the event
//! core's gains live in the retry/backoff and drain phases of the reliable
//! and fabric layers above.

use crate::arbiter::ArbiterKind;
use crate::mesh::{Mesh, MeshConfig, RouteOrder};
use crate::packet::{NodeId, PacketClass};
use gnoc_telemetry::{TelemetryHandle, TraceEvent, SUBSYSTEM_NOC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the request/reply memory simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemSimConfig {
    /// Geometry shared by the request and reply networks.
    pub mesh: MeshConfig,
    /// Flits per read-request packet.
    pub request_flits: u32,
    /// Flits per read-reply packet (data). The reply interface bandwidth is
    /// `1/reply_flits` packets per cycle per MC — the knob that creates or
    /// removes the "network wall".
    pub reply_flits: u32,
    /// DRAM service cycles per request.
    pub dram_service_cycles: u64,
    /// Replies the MC can hold waiting for reply-network injection before it
    /// stops accepting requests (back-pressure threshold).
    pub mc_reply_queue: usize,
    /// Offered load per compute node (requests/cycle).
    pub inject_rate: f64,
    /// Warm-up cycles excluded from the timeline.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Utilisation-timeline window, cycles.
    pub window: u64,
}

impl MemSimConfig {
    /// A configuration mirroring prior-work simulators: 4-flit replies over
    /// the same channel width as 1-flit requests — reply-interface-bound.
    pub fn underprovisioned() -> Self {
        Self {
            mesh: MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
            request_flits: 1,
            reply_flits: 4,
            dram_service_cycles: 1,
            mc_reply_queue: 4,
            inject_rate: 0.9,
            warmup: 2_000,
            measure: 12_000,
            window: 200,
        }
    }

    /// The same system with a reply interface wide enough that replies take a
    /// single flit — the properly provisioned baseline the paper argues for.
    pub fn provisioned() -> Self {
        Self {
            reply_flits: 1,
            ..Self::underprovisioned()
        }
    }
}

/// Result of a memory-system simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemSimResult {
    /// Per-window DRAM utilisation of channel 0 (the paper plots one
    /// channel over time).
    pub utilization_timeline: Vec<f64>,
    /// Mean DRAM utilisation across all channels and the whole measurement.
    pub mean_utilization: f64,
    /// Replies delivered back to compute nodes.
    pub replies_delivered: u64,
    /// Requests injected by compute nodes.
    pub requests_injected: u64,
}

struct MemoryController {
    node: NodeId,
    pending: VecDeque<(NodeId, u64)>, // (requester, request id)
    dram_busy_until: u64,
    reply_queue: VecDeque<NodeId>,
    busy_cycles_window: u64,
    busy_cycles_total: u64,
}

/// The network organisation a memory-system simulation runs on. Bottom-row
/// mesh nodes host the MCs in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSimNets {
    /// Two physical networks (the conventional GPU organisation): requests
    /// on one, replies on a second that routes Y-first so that replies
    /// leaving the MC row fan out over the columns instead of all
    /// funnelling along row 0.
    Split,
    /// One physical network with two virtual channels (requests on VC 0,
    /// replies on VC 1) — a cheaper organisation where both classes share
    /// every link's bandwidth. The VC split prevents protocol deadlock; the
    /// shared links mean reply data steals request bandwidth, so
    /// utilisation is generally at or below [`MemSimNets::Split`].
    Shared,
}

/// Runs the request/reply simulation on `nets`. `telemetry` is attached to
/// every network: mesh queue-depth samples, MC reply-queue back-pressure
/// stall counters (`noc.memsim.mc_backpressure_stalls`), reply-interface
/// injection stalls, per-window utilisation trace events, and the meshes'
/// exported metrics all land on it. A disabled handle costs nothing and
/// leaves the result bit-identical.
pub fn run_memsim(
    cfg: MemSimConfig,
    seed: u64,
    nets: MemSimNets,
    telemetry: &TelemetryHandle,
) -> MemSimResult {
    let (mut req_net, mut reply_net) = match nets {
        MemSimNets::Split => (
            Mesh::new(cfg.mesh),
            Some(Mesh::new(MeshConfig {
                route_order: RouteOrder::Yx,
                ..cfg.mesh
            })),
        ),
        MemSimNets::Shared => (Mesh::new(MeshConfig { vcs: 2, ..cfg.mesh }), None),
    };
    req_net.set_telemetry(telemetry.clone());
    if let Some(net) = &mut reply_net {
        net.set_telemetry(telemetry.clone());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let width = cfg.mesh.width;
    let n = cfg.mesh.num_nodes();
    let compute: Vec<NodeId> = (width as u32..n as u32).map(NodeId::new).collect();
    let mut mcs: Vec<MemoryController> = (0..width as u32)
        .map(|i| MemoryController {
            node: NodeId::new(i),
            pending: VecDeque::new(),
            dram_busy_until: 0,
            reply_queue: VecDeque::new(),
            busy_cycles_window: 0,
            busy_cycles_total: 0,
        })
        .collect();

    let mut timeline = Vec::new();
    let mut requests_injected = 0u64;
    let mut replies_delivered = 0u64;
    let mut mc_backpressure_stalls = 0u64;
    let mut reply_inject_stalls = 0u64;
    let total = cfg.warmup + cfg.measure;

    for cycle in 0..total {
        let measuring = cycle >= cfg.warmup;

        // Compute nodes issue requests.
        for &src in &compute {
            if rng.gen::<f64>() < cfg.inject_rate {
                let dst = NodeId::new(rng.gen_range(0..width) as u32);
                if req_net.try_inject(src, dst, cfg.request_flits, PacketClass::Request)
                    && measuring
                {
                    requests_injected += 1;
                }
            }
        }

        // MC back-pressure: stop accepting requests when the reply queue is
        // full (this is the reply-interface bottleneck feeding backwards).
        for mc in &mcs {
            let accepting = mc.reply_queue.len() < cfg.mc_reply_queue;
            req_net.set_ejection_enabled(mc.node, accepting);
            if !accepting && measuring {
                mc_backpressure_stalls += 1;
            }
        }

        req_net.step();
        replies_delivered += dispatch_ejected(&mut req_net, &mut mcs, measuring);

        // DRAM service + reply generation.
        for mc in &mut mcs {
            if mc.dram_busy_until > cycle {
                if measuring {
                    mc.busy_cycles_window += 1;
                    mc.busy_cycles_total += 1;
                }
                continue;
            }
            if mc.reply_queue.len() < cfg.mc_reply_queue {
                if let Some((requester, _)) = mc.pending.pop_front() {
                    mc.dram_busy_until = cycle + cfg.dram_service_cycles;
                    mc.reply_queue.push_back(requester);
                    if measuring {
                        mc.busy_cycles_window += 1;
                        mc.busy_cycles_total += 1;
                    }
                }
            }
        }

        // Reply injection (the NoC↔MEM interface), then the reply network's
        // cycle when replies travel on their own network.
        let reply_out = reply_net.as_mut().unwrap_or(&mut req_net);
        for mc in &mut mcs {
            if let Some(&requester) = mc.reply_queue.front() {
                if reply_out.try_inject(mc.node, requester, cfg.reply_flits, PacketClass::Reply) {
                    mc.reply_queue.pop_front();
                } else if measuring {
                    reply_inject_stalls += 1;
                }
            }
        }
        if let Some(net) = &mut reply_net {
            net.step();
            replies_delivered += dispatch_ejected(net, &mut mcs, measuring);
        }

        // Utilisation window bookkeeping (channel 0).
        if measuring && (cycle - cfg.warmup + 1).is_multiple_of(cfg.window) {
            let util = mcs[0].busy_cycles_window as f64 / cfg.window as f64;
            timeline.push(util);
            telemetry.emit_with(|| {
                TraceEvent::new(cycle, SUBSYSTEM_NOC, "utilization_window")
                    .with("channel", 0u64)
                    .with("utilization", util)
            });
            for mc in &mut mcs {
                mc.busy_cycles_window = 0;
            }
        }
    }

    let busy_total: u64 = mcs.iter().map(|m| m.busy_cycles_total).sum();
    let mean_utilization = busy_total as f64 / (cfg.measure * width as u64) as f64;
    // Mesh counters aggregate across the networks; gauges reflect the last
    // network exported.
    telemetry.with(|t| {
        t.registry
            .counter_add("noc.memsim.mc_backpressure_stalls", mc_backpressure_stalls);
        t.registry
            .counter_add("noc.memsim.reply_inject_stalls", reply_inject_stalls);
        t.registry
            .counter_add("noc.memsim.requests", requests_injected);
        t.registry
            .counter_add("noc.memsim.replies", replies_delivered);
        t.registry
            .gauge_set("noc.memsim.mean_utilization", mean_utilization);
        for net in std::iter::once(&req_net).chain(&reply_net) {
            net.export_metrics(&mut t.registry);
        }
    });
    MemSimResult {
        utilization_timeline: timeline,
        mean_utilization,
        replies_delivered,
        requests_injected,
    }
}

/// Drains `net`'s ejected packets: requests join their MC's DRAM queue,
/// replies are counted. Returns the replies to count, which are none
/// outside the measurement window.
fn dispatch_ejected(net: &mut Mesh, mcs: &mut [MemoryController], measuring: bool) -> u64 {
    let mut replies = 0;
    for pkt in net.drain_ejected() {
        match pkt.class {
            PacketClass::Request => mcs[pkt.dst.index()].pending.push_back((pkt.src, pkt.id)),
            PacketClass::Reply if measuring => replies += 1,
            PacketClass::Reply => {}
        }
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(cfg: MemSimConfig, seed: u64) -> MemSimResult {
        run_memsim(cfg, seed, MemSimNets::Split, &TelemetryHandle::disabled())
    }

    fn shared(cfg: MemSimConfig, seed: u64) -> MemSimResult {
        run_memsim(cfg, seed, MemSimNets::Shared, &TelemetryHandle::disabled())
    }

    #[test]
    fn underprovisioned_reply_interface_starves_dram() {
        // Fig. 21: reply bottleneck keeps average utilisation low …
        let r = split(MemSimConfig::underprovisioned(), 1);
        assert!(
            r.mean_utilization < 0.45,
            "expected starved DRAM, got {:.2}",
            r.mean_utilization
        );
        // … and fluctuating over time.
        let max = r
            .utilization_timeline
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = r
            .utilization_timeline
            .iter()
            .cloned()
            .fold(1.0f64, f64::min);
        assert!(
            max - min > 0.1,
            "expected fluctuation, got {min:.2}..{max:.2}"
        );
    }

    #[test]
    fn provisioned_reply_interface_sustains_dram() {
        // Implication #4: real GPUs provision the interface; utilisation is
        // high (the paper's real-GPU measurements exceed 85 %).
        let r = split(MemSimConfig::provisioned(), 1);
        assert!(
            r.mean_utilization > 0.8,
            "expected sustained DRAM, got {:.2}",
            r.mean_utilization
        );
    }

    #[test]
    fn provisioning_strictly_helps() {
        let under = split(MemSimConfig::underprovisioned(), 2);
        let prov = split(MemSimConfig::provisioned(), 2);
        assert!(prov.mean_utilization > under.mean_utilization + 0.2);
        assert!(prov.replies_delivered > under.replies_delivered);
    }

    #[test]
    fn replies_do_not_exceed_requests() {
        let r = split(MemSimConfig::underprovisioned(), 3);
        assert!(r.replies_delivered <= r.requests_injected + 2_000);
    }

    #[test]
    fn shared_network_runs_without_deadlock() {
        // One physical mesh with 2 VCs carries both classes; it must keep
        // delivering replies for the whole run.
        let r = shared(MemSimConfig::provisioned(), 6);
        assert!(r.replies_delivered > 10_000, "{}", r.replies_delivered);
        assert!(r.mean_utilization > 0.4, "{}", r.mean_utilization);
    }

    #[test]
    fn shared_network_is_at_most_as_fast_as_two_networks() {
        // Replies steal request bandwidth on shared links.
        let two = split(MemSimConfig::provisioned(), 7);
        let one = shared(MemSimConfig::provisioned(), 7);
        assert!(
            one.mean_utilization <= two.mean_utilization + 0.03,
            "shared {:.2} vs dual {:.2}",
            one.mean_utilization,
            two.mean_utilization
        );
    }

    #[test]
    fn traced_run_reports_backpressure_and_windows() {
        use gnoc_telemetry::{MemorySink, Telemetry};

        let sink = MemorySink::new();
        let telemetry = TelemetryHandle::attach(Telemetry::with_sink(Box::new(sink.clone())));
        let cfg = MemSimConfig {
            warmup: 500,
            measure: 2_000,
            ..MemSimConfig::underprovisioned()
        };
        let r = run_memsim(cfg, 1, MemSimNets::Split, &telemetry);
        // Untraced run with the same seed must be bit-identical.
        assert_eq!(r, split(cfg, 1));

        let reg = telemetry.snapshot_registry().unwrap();
        assert!(
            reg.counter("noc.memsim.mc_backpressure_stalls") > 0,
            "an underprovisioned reply interface must back-pressure the MCs"
        );
        assert!(reg.counter("noc.memsim.reply_inject_stalls") > 0);
        assert_eq!(reg.counter("noc.memsim.requests"), r.requests_injected);
        assert_eq!(reg.counter("noc.memsim.replies"), r.replies_delivered);
        assert!(reg.counter("noc.flits") > 0, "mesh metrics exported");
        assert!(reg.gauge("noc.memsim.mean_utilization").is_some());

        let events = sink.snapshot();
        let windows = events
            .iter()
            .filter(|e| e.event == "utilization_window")
            .count();
        assert_eq!(windows as u64, cfg.measure / cfg.window);
        assert!(events.iter().any(|e| e.event == "queue_depth"));
    }

    #[test]
    fn timeline_has_expected_length() {
        let cfg = MemSimConfig::underprovisioned();
        let r = split(cfg, 4);
        assert_eq!(
            r.utilization_timeline.len() as u64,
            cfg.measure / cfg.window
        );
    }
}
