//! # gnoc-fabric
//!
//! Multi-GPU fabric simulation: several per-die meshes (`gnoc-noc`'s
//! [`ReliableMesh`](gnoc_noc::ReliableMesh)) joined by a runtime-selectable
//! inter-device topology ([`FabricTopology`]: point-to-point, line, ring,
//! fully-connected, or a central switch) with per-link bandwidth and
//! serialization modelling.
//!
//! A cross-device transfer composes deterministically with the die-level
//! simulation: source die mesh → egress port → fabric hops → ingress port →
//! destination die mesh. The flight recorder charges fabric residency to its
//! own stall class ([`gnoc_telemetry::StallKind::FabricHop`]), preserving the
//! exact latency-decomposition identity end to end.
//!
//! Fault tolerance mirrors the die layer's discipline one level up:
//!
//! - [`gnoc_faults::FabricFaults`] injects dead/flaky fabric links, a dead
//!   switch, and whole-device losses, all with onsets;
//! - routing is per-destination BFS trees recomputed at onsets (fault-aware
//!   mode) or at quarantine changes (self-healing mode) — loop-free by
//!   construction, the inter-device analogue of up*/down*;
//! - [`FabricHealthMonitor`] watches per-link drop windows with
//!   [`gnoc_health::CircuitBreaker`]s, quarantines faulty links with
//!   incremental reroute, refuses disconnecting quarantines, and reports
//!   unreachable devices as explicit degraded coverage;
//! - severed traffic resolves as
//!   [`LossReason::Partitioned`](gnoc_noc::LossReason::Partitioned) —
//!   distinct from the within-die `Unroutable`.
//!
//! Everything is deterministic: same config, plan, and submission sequence →
//! bit-identical outcomes, stats, and recordings.
//!
//! ```
//! use gnoc_fabric::{FabricConfig, FabricSim};
//! use gnoc_noc::{NodeId, PacketClass, TransferOutcome};
//! use gnoc_topo::FabricTopology;
//!
//! let cfg = FabricConfig::new(4, FabricTopology::Ring);
//! let mut fab = FabricSim::new(cfg).unwrap();
//! let id = fab
//!     .submit(0, NodeId::new(7), 2, NodeId::new(13), 2, PacketClass::Request)
//!     .unwrap();
//! assert!(fab.run_until_quiescent(100_000));
//! assert!(matches!(fab.outcome(id), TransferOutcome::Delivered { .. }));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod health;
mod sim;

pub use config::{FabricConfig, FabricError};
pub use health::{FabricHealthMonitor, FabricHealthReport};
pub use sim::{FabricSim, FabricStats, FabricTransferId};

// Re-export the pieces callers almost always need alongside the simulator.
pub use gnoc_health::FabricHealthConfig;
pub use gnoc_topo::FabricTopology;

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_faults::{DeviceFault, FabricLinkFault, FaultPlan, LinkFaultKind};
    use gnoc_noc::{LossReason, NodeId, PacketClass, TransferOutcome};

    fn ring4() -> FabricConfig {
        FabricConfig::new(4, FabricTopology::Ring)
    }

    fn dead_link(a: u32, b: u32, onset: u64) -> FabricLinkFault {
        FabricLinkFault {
            a,
            b,
            kind: LinkFaultKind::Dead,
            onset,
        }
    }

    /// Soak helper: all-pairs cross-device traffic, returns outcomes+stats.
    fn soak(cfg: FabricConfig, plan: &FaultPlan) -> (Vec<TransferOutcome>, FabricStats) {
        let mut fab = FabricSim::with_faults(cfg, plan).unwrap();
        let devices = fab.config().devices;
        for a in 0..devices {
            for b in 0..devices {
                if a != b {
                    fab.submit(
                        a,
                        NodeId::new(a + 1),
                        b,
                        NodeId::new(b * 3 + 2),
                        2,
                        PacketClass::Request,
                    )
                    .unwrap();
                }
            }
        }
        assert!(fab.run_until_quiescent(300_000), "must quiesce");
        (fab.outcomes(), fab.stats().clone())
    }

    #[test]
    fn healthy_fabric_delivers_all_topologies() {
        for topo in FabricTopology::ALL {
            let devices = if topo == FabricTopology::PointToPoint {
                2
            } else {
                4
            };
            let (outcomes, stats) = soak(FabricConfig::new(devices, topo), &FaultPlan::none());
            assert!(
                outcomes
                    .iter()
                    .all(|o| matches!(o, TransferOutcome::Delivered { .. })),
                "{topo}: all transfers deliver"
            );
            assert_eq!(stats.delivered, stats.submitted);
            assert_eq!(stats.lost_total(), 0);
            assert!(stats.fabric_hops >= stats.cross_device);
        }
    }

    #[test]
    fn accounting_always_balances() {
        let mut plan = FaultPlan::none();
        plan.seed = 11;
        plan.fabric.links.push(FabricLinkFault {
            a: 1,
            b: 2,
            kind: LinkFaultKind::Flaky { drop_prob: 0.4 },
            onset: 0,
        });
        let (_, stats) = soak(ring4(), &plan);
        assert_eq!(stats.delivered + stats.lost_total(), stats.submitted);
    }

    #[test]
    fn same_plan_and_seed_is_bit_identical() {
        let mut plan = FaultPlan::none();
        plan.seed = 3;
        plan.fabric.links.push(FabricLinkFault {
            a: 0,
            b: 1,
            kind: LinkFaultKind::Flaky { drop_prob: 0.3 },
            onset: 40,
        });
        plan.fabric.links.push(dead_link(2, 3, 500));
        assert_eq!(soak(ring4(), &plan), soak(ring4(), &plan));
    }

    #[test]
    fn ring_dead_link_fails_over_the_long_way() {
        // Kill ring link 0<->1; 0→1 traffic must take 0→3→2→1. The long way
        // is exactly 3 hops: latency grows but stays bounded by the
        // serialization + propagation of those hops plus the die legs.
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(dead_link(0, 1, 0));
        let cfg = ring4();
        let mut fab = FabricSim::with_faults(cfg.clone(), &plan).unwrap();
        let id = fab
            .submit(
                0,
                NodeId::new(0),
                1,
                NodeId::new(0),
                1,
                PacketClass::Request,
            )
            .unwrap();
        assert!(fab.run_until_quiescent(50_000));
        let TransferOutcome::Delivered { latency } = fab.outcome(id) else {
            panic!("long-way failover must deliver, got {:?}", fab.outcome(id));
        };
        assert_eq!(fab.stats().fabric_hops, 3, "long way = 3 ring hops");
        let per_hop = cfg.flit_cycles + cfg.link_latency_cycles;
        assert!(
            latency >= 3 * per_hop && latency <= 3 * per_hop + 16,
            "pure-fabric 3-hop latency bounded, got {latency}"
        );
    }

    #[test]
    fn two_dead_ring_links_partition() {
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(dead_link(0, 1, 0));
        plan.fabric.links.push(dead_link(2, 3, 0));
        let (outcomes, stats) = soak(ring4(), &plan);
        // {0,3} and {1,2} are separate islands: cross-island traffic is
        // Partitioned, intra-island traffic still delivers.
        assert!(stats.lost_partitioned > 0);
        assert!(stats.delivered > 0);
        assert_eq!(stats.lost_total(), stats.lost_partitioned);
        assert!(outcomes.iter().any(|o| matches!(
            o,
            TransferOutcome::Lost {
                reason: LossReason::Partitioned
            }
        )));
    }

    #[test]
    fn device_loss_strands_its_traffic_as_partitioned() {
        let mut plan = FaultPlan::none();
        plan.fabric.devices.push(DeviceFault {
            device: 2,
            onset: 5,
        });
        let mut fab = FabricSim::with_faults(ring4(), &plan).unwrap();
        let to_dead = fab
            .submit(
                0,
                NodeId::new(1),
                2,
                NodeId::new(5),
                2,
                PacketClass::Request,
            )
            .unwrap();
        let bystander = fab
            .submit(
                0,
                NodeId::new(1),
                1,
                NodeId::new(5),
                2,
                PacketClass::Request,
            )
            .unwrap();
        assert!(fab.run_until_quiescent(100_000));
        // The 0→2 transfer cannot finish within 5 cycles, so the onset
        // catches it mid-flight.
        assert_eq!(
            fab.outcome(to_dead),
            TransferOutcome::Lost {
                reason: LossReason::Partitioned
            }
        );
        assert!(matches!(
            fab.outcome(bystander),
            TransferOutcome::Delivered { .. }
        ));
        assert_eq!(fab.dead_devices(), vec![2]);
    }

    #[test]
    fn dead_switch_severs_every_device() {
        let mut plan = FaultPlan::none();
        plan.fabric.dead_switch = Some(0);
        let (outcomes, stats) = soak(FabricConfig::new(3, FabricTopology::Switch), &plan);
        assert_eq!(stats.lost_partitioned, stats.cross_device);
        assert!(outcomes.iter().all(|o| matches!(
            o,
            TransferOutcome::Lost {
                reason: LossReason::Partitioned
            }
        )));
    }

    #[test]
    fn recorder_preserves_latency_identity_and_does_not_perturb() {
        let mut plan = FaultPlan::none();
        plan.seed = 9;
        plan.fabric.links.push(FabricLinkFault {
            a: 1,
            b: 2,
            kind: LinkFaultKind::Flaky { drop_prob: 0.2 },
            onset: 0,
        });
        let run = |record: bool| {
            let mut fab = FabricSim::with_faults(ring4(), &plan).unwrap();
            if record {
                fab.attach_flight_recorder();
            }
            for a in 0..4u32 {
                for b in 0..4u32 {
                    if a != b {
                        fab.submit(
                            a,
                            NodeId::new(a),
                            b,
                            NodeId::new(b + 4),
                            2,
                            PacketClass::Request,
                        )
                        .unwrap();
                    }
                }
            }
            assert!(fab.run_until_quiescent(300_000));
            let rec = fab.take_flight_recorder();
            (fab.outcomes(), fab.stats().clone(), rec)
        };
        let (bare_out, bare_stats, _) = run(false);
        let (rec_out, rec_stats, rec) = run(true);
        assert_eq!(bare_out, rec_out, "recording must not perturb outcomes");
        assert_eq!(bare_stats, rec_stats, "recording must not perturb stats");
        let rec = rec.expect("recorder attached");
        assert_eq!(rec.open_count(), 0, "all recorded messages finished");
        assert!(!rec.finished().is_empty());
        for m in rec.finished() {
            if m.delivered {
                assert_eq!(
                    m.components_sum(),
                    m.latency(),
                    "identity must hold for msg {}",
                    m.id
                );
                assert!(m.stalls().fabric_hop > 0, "fabric time must be charged");
            }
        }
    }

    #[test]
    fn self_healing_monitor_detects_quarantines_and_fails_over() {
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(dead_link(1, 2, 0));
        let mut cfg = ring4();
        cfg.self_healing = true;
        let mut fab = FabricSim::with_faults(cfg, &plan).unwrap();
        let mut mon = FabricHealthMonitor::new(&fab, FabricHealthConfig::default());
        mon.run_detection(&mut fab, 20_000);
        let report = mon.report(&fab);
        assert!(
            report
                .detections
                .iter()
                .any(|d| d.resource == "fabric link 1<->2"),
            "dead fabric link must be detected: {:?}",
            report.detections
        );
        assert!(
            report.quarantined.contains(&(1, 2)),
            "detected link must be quarantined: {:?}",
            report.quarantined
        );
        assert!(report.partitioned_devices.is_empty());
        // Failover proof: post-quarantine traffic over the severed pair
        // delivers the long way round.
        let id = fab
            .submit(
                1,
                NodeId::new(0),
                2,
                NodeId::new(0),
                1,
                PacketClass::Request,
            )
            .unwrap();
        assert!(fab.run_until_quiescent(50_000));
        assert!(matches!(fab.outcome(id), TransferOutcome::Delivered { .. }));
    }

    #[test]
    fn disconnecting_quarantine_is_refused_and_reported() {
        // Point-to-point: the single link can never be quarantined.
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(dead_link(0, 1, 0));
        let mut cfg = FabricConfig::new(2, FabricTopology::PointToPoint);
        cfg.self_healing = true;
        let mut fab = FabricSim::with_faults(cfg, &plan).unwrap();
        assert_eq!(
            fab.quarantine_fabric_link(0),
            Err(FabricError::QuarantineWouldPartition { a: 0, b: 1 })
        );
        let mut mon = FabricHealthMonitor::new(&fab, FabricHealthConfig::default());
        mon.run_detection(&mut fab, 4_000);
        let report = mon.report(&fab);
        assert!(report.refusals > 0, "refusals must be reported");
        assert!(report.quarantined.is_empty());
        assert_eq!(
            report.partitioned_devices,
            vec![0, 1],
            "both devices lose reliable coverage and must be reported"
        );
    }

    #[test]
    fn bad_endpoints_are_typed_errors() {
        let mut fab = FabricSim::new(ring4()).unwrap();
        assert!(matches!(
            fab.submit(
                9,
                NodeId::new(0),
                1,
                NodeId::new(0),
                1,
                PacketClass::Request
            ),
            Err(FabricError::DeviceOutOfRange { device: 9, .. })
        ));
        assert!(matches!(
            fab.submit(
                0,
                NodeId::new(99),
                1,
                NodeId::new(0),
                1,
                PacketClass::Request
            ),
            Err(FabricError::Noc(_))
        ));
    }

    #[test]
    fn same_device_traffic_bypasses_the_fabric() {
        let mut fab = FabricSim::new(ring4()).unwrap();
        let id = fab
            .submit(
                1,
                NodeId::new(3),
                1,
                NodeId::new(20),
                2,
                PacketClass::Request,
            )
            .unwrap();
        assert!(fab.run_until_quiescent(50_000));
        assert!(matches!(fab.outcome(id), TransferOutcome::Delivered { .. }));
        assert_eq!(fab.stats().fabric_hops, 0);
        assert_eq!(fab.stats().cross_device, 0);
    }

    #[test]
    fn huge_watchdog_window_never_writes_off_healthy_traffic() {
        // The fabric watchdog waits two die windows; a window near the top
        // of `u64` must saturate, not overflow into a zero-cycle watchdog.
        let mut cfg = FabricConfig::new(2, FabricTopology::PointToPoint);
        cfg.retry.watchdog_cycles = 1 << 63;
        for event in [true, false] {
            let mut fab = FabricSim::new(cfg.clone()).unwrap();
            let id = fab
                .submit(
                    0,
                    NodeId::new(7),
                    1,
                    NodeId::new(12),
                    3,
                    PacketClass::Request,
                )
                .unwrap();
            // The engine toggle is process-wide: restore the default before
            // asserting, so a failure cannot leave other tests on it.
            gnoc_noc::set_event_skip_enabled(event);
            let quiesced = fab.run_until_quiescent(50_000);
            gnoc_noc::set_event_skip_enabled(true);
            assert!(quiesced);
            assert!(matches!(fab.outcome(id), TransferOutcome::Delivered { .. }));
            assert_eq!(fab.stats().lost_watchdog, 0);
        }
    }
}
