//! Integration tests for the multi-GPU fabric (`gnoc-fabric`) through the
//! `gnoc_core` facade.
//!
//! Four contracts are pinned here, complementing the fabric crate's unit
//! tests by running against *generated* fault plans over the full device
//! range:
//!
//! 1. **Exactly-once-or-reported-lost.** Over 2–8 devices, every topology,
//!    and generated inter-device fault plans (dead/flaky fabric links, dead
//!    devices, onsets), every submitted transfer resolves to exactly one of
//!    `Delivered` or `Lost {reason}` — and the stats counters agree with
//!    the per-transfer outcomes exactly.
//! 2. **Failover replay is bit-identical.** The same config, plan, and
//!    traffic seed produce byte-for-byte equal outcome vectors, stats, and
//!    quiescence cycles on re-execution, faults and reroutes included.
//! 3. **Ring failover takes the long way within a latency bound.** With
//!    the direct link dead, a ring delivers 100% of the severed pair's
//!    traffic over the 3-hop detour, and the latency uplift stays within
//!    the serialization bound of two extra link crossings. Under a
//!    congesting soak no topology loses a transfer fault-free, and the
//!    ring loses none with the link dying mid-traffic; hidden from routing,
//!    the link's breaker finds it within the chaos detection oracle's
//!    6,000-cycle bound.
//! 4. **Recording is read-only and the stall identity spans the fabric.**
//!    A profiled multi-device run returns bit-identical outcomes/stats to
//!    an unprofiled one, and for every delivered message `source_wait +
//!    stalls + transit == latency` holds exactly, with cross-device time
//!    charged to the `fabric_hop` stall class.

use gnoc_core::faults::{FabricLinkFault, LinkFaultKind};
use gnoc_core::noc::{fabric_soak, LossReason, NodeId, PacketClass, TransferOutcome};
use gnoc_core::{
    FabricConfig, FabricHealthConfig, FabricHealthMonitor, FabricSim, FabricTopology,
    FaultGenConfig, FaultPlan, ProfileReport,
};
use proptest::prelude::*;

/// The CLI's fabric soak traffic: uniform-random over every device pair.
fn submit_traffic(sim: &mut FabricSim, devices: u32, seed: u64, transfers: usize) {
    let nodes = (sim.config().mesh.width * sim.config().mesh.height) as u64;
    for t in fabric_soak(seed, devices, nodes).take(transfers) {
        sim.submit(
            t.src_dev,
            t.src,
            t.dst_dev,
            t.dst,
            t.flits,
            PacketClass::Request,
        )
        .expect("generated endpoints are in range");
    }
}

/// A generated plan whose fabric atoms fit `devices` on `topology`: the
/// generator's own connectivity guarantee keeps surviving devices routable.
#[allow(clippy::too_many_arguments)] // mirrors the FaultGenConfig knobs
fn fabric_plan(
    seed: u64,
    devices: u32,
    topology: FabricTopology,
    dead: u32,
    flaky: u32,
    drop_prob: f64,
    dead_devices: u32,
    onset: u64,
) -> FaultPlan {
    let mut cfg = FaultGenConfig::benign(seed, 5, 5);
    cfg.devices = devices;
    cfg.fabric_topology = topology;
    cfg.dead_fabric_links = dead;
    cfg.flaky_fabric_links = flaky;
    cfg.fabric_flaky_drop_prob = drop_prob;
    cfg.dead_devices = dead_devices;
    cfg.onset = onset;
    FaultPlan::generate(&cfg)
}

fn topology_for(idx: usize, devices: u32) -> FabricTopology {
    if idx == 4 && devices == 2 {
        return FabricTopology::PointToPoint;
    }
    [
        FabricTopology::Line,
        FabricTopology::Ring,
        FabricTopology::FullyConnected,
        FabricTopology::Switch,
    ][idx % 4]
}

fn run_soak(
    devices: u32,
    topology: FabricTopology,
    plan: &FaultPlan,
    seed: u64,
    transfers: usize,
) -> FabricSim {
    let mut sim = FabricSim::with_faults(FabricConfig::new(devices, topology), plan)
        .expect("generated plans validate for their own fabric");
    submit_traffic(&mut sim, devices, seed, transfers);
    assert!(
        sim.run_until_quiescent(400_000),
        "retry budgets and the watchdog bound every transfer's lifetime"
    );
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_transfer_delivers_exactly_once_or_reports_loss(
        devices in 2u32..=8,
        topo_idx in 0usize..5,
        seed in 0u64..1_000,
        dead in 0u32..=2,
        flaky in 0u32..=2,
        drop_prob in 0.05f64..0.9,
        dead_devices in 0u32..=1,
        onset in 0u64..400,
    ) {
        let topology = topology_for(topo_idx, devices);
        let plan = fabric_plan(
            seed, devices, topology, dead, flaky, drop_prob, dead_devices, onset,
        );
        let sim = run_soak(devices, topology, &plan, seed ^ 0xfab, 32);
        let outcomes = sim.outcomes();
        prop_assert_eq!(outcomes.len(), 32);
        let mut delivered = 0u64;
        let mut lost = 0u64;
        for o in &outcomes {
            match o {
                TransferOutcome::Delivered { .. } => delivered += 1,
                TransferOutcome::Lost { .. } => lost += 1,
                other => prop_assert!(
                    false,
                    "unresolved transfer after quiescence: {other:?}"
                ),
            }
        }
        let stats = sim.stats();
        prop_assert_eq!(stats.submitted, 32);
        prop_assert_eq!(stats.delivered, delivered);
        prop_assert_eq!(stats.lost_total(), lost);
        prop_assert_eq!(delivered + lost, 32);
        // Without dead devices or a dead switch, the generator's
        // connectivity guarantee means nothing may be reported partitioned.
        if dead_devices == 0 {
            prop_assert_eq!(stats.lost_partitioned, 0);
        }
    }

    #[test]
    fn failover_replay_is_bit_identical(
        devices in 2u32..=6,
        topo_idx in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let topology = topology_for(topo_idx, devices);
        // Always at least one dead and one flaky link: the replayed run
        // must reproduce the reroutes and retry draws, not just the happy
        // path.
        let plan = fabric_plan(seed, devices, topology, 1, 1, 0.35, 0, 100);
        let a = run_soak(devices, topology, &plan, seed, 24);
        let b = run_soak(devices, topology, &plan, seed, 24);
        prop_assert_eq!(a.outcomes(), b.outcomes());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.cycle(), b.cycle());
    }
}

#[test]
fn ring_dead_link_takes_the_long_way_within_a_latency_bound() {
    let run = |plan: &FaultPlan| {
        let mut sim = FabricSim::with_faults(FabricConfig::new(4, FabricTopology::Ring), plan)
            .expect("plan fits the ring");
        // Traffic exclusively over the 0<->1 pair, so every transfer is
        // forced onto the detour once the direct link dies.
        for i in 0..12u32 {
            sim.submit(
                0,
                NodeId::new(i),
                1,
                NodeId::new(24 - i),
                2,
                PacketClass::Request,
            )
            .expect("in-range endpoints");
        }
        assert!(sim.run_until_quiescent(200_000));
        sim
    };

    let benign = run(&FaultPlan::none());
    let mut plan = FaultPlan::none();
    plan.fabric.links.push(FabricLinkFault {
        a: 0,
        b: 1,
        kind: LinkFaultKind::Dead,
        onset: 0,
    });
    let faulted = run(&plan);

    assert_eq!(benign.stats().delivered, 12);
    assert_eq!(benign.stats().fabric_hops, 12, "direct route is one hop");
    assert_eq!(
        faulted.stats().delivered,
        12,
        "a ring survives one dead link"
    );
    assert_eq!(faulted.stats().lost_total(), 0);
    assert_eq!(
        faulted.stats().fabric_hops,
        36,
        "the 0->3->2->1 detour is three hops per transfer"
    );
    // Latency bound: the detour adds two link crossings per transfer. With
    // link_latency 8 and 2-flit serialization at flit_cycles 4, that is at
    // most 2 * (8 + 8) = 32 extra transit cycles plus detour queueing, for
    // which 12 serialized transfers give 12 * 16 cycles of headroom.
    let bound = benign.stats().latency_max + 32 + 12 * 16;
    assert!(
        faulted.stats().latency_max <= bound,
        "detour latency {} exceeds bound {bound}",
        faulted.stats().latency_max
    );

    // A congesting soak: 256 random transfers on the 5x5 dies, whose
    // fault-free drain takes ~500 cycles. Fault-free, no topology loses one.
    let soak = |topology, plan: &FaultPlan| {
        let mut sim =
            FabricSim::with_faults(FabricConfig::new(4, topology), plan).expect("plan fits");
        submit_traffic(&mut sim, 4, 11, 256);
        assert!(sim.run_until_quiescent(200_000));
        sim
    };
    for topology in [
        FabricTopology::Line,
        FabricTopology::Ring,
        FabricTopology::FullyConnected,
        FabricTopology::Switch,
    ] {
        let lost = soak(topology, &FaultPlan::none()).stats().lost_total();
        assert_eq!(lost, 0, "benign {topology} soak loses nothing");
    }

    // The same soak with the ring's 0<->1 link dying mid-traffic: all still
    // deliver, and the ones in flight at the onset are rerouted.
    const ONSET: u64 = 200;
    plan.fabric.links[0].onset = ONSET;
    let sim = soak(FabricTopology::Ring, &plan);
    assert_eq!(
        sim.stats().lost_total(),
        0,
        "mid-traffic failover loses nothing"
    );
    assert!(
        sim.stats().reroutes > 0,
        "the dead link must force a reroute"
    );

    // Hidden from routing, the dead link must be found by its breaker
    // within the chaos detection oracle's 6,000-cycle bound.
    const DETECT_BOUND: u64 = 6_000;
    let mut cfg = FabricConfig::new(4, FabricTopology::Ring);
    cfg.self_healing = true;
    let mut sim = FabricSim::with_faults(cfg, &plan).expect("plan fits the ring");
    let mut monitor = FabricHealthMonitor::new(&sim, FabricHealthConfig::default());
    monitor.run_detection(&mut sim, ONSET + DETECT_BOUND);
    let detected = monitor.detected_links(&sim);
    assert!(
        detected
            .iter()
            .any(|&(a, b, at)| (a, b) == (0, 1) && (ONSET..=ONSET + DETECT_BOUND).contains(&at)),
        "the dead 0<->1 link must be detected within {DETECT_BOUND} cycles: {detected:?}"
    );
}

#[test]
fn profiled_multi_device_run_is_bit_identical_and_charges_fabric_hops() {
    let plan = fabric_plan(7, 4, FabricTopology::Ring, 1, 1, 0.3, 0, 50);
    let run = |record: bool| {
        let mut sim = FabricSim::with_faults(FabricConfig::new(4, FabricTopology::Ring), &plan)
            .expect("plan fits the ring");
        if record {
            sim.attach_flight_recorder();
        }
        submit_traffic(&mut sim, 4, 99, 48);
        assert!(sim.run_until_quiescent(400_000));
        let rec = sim.take_flight_recorder();
        (sim.outcomes(), sim.stats().clone(), rec)
    };

    let (bare_out, bare_stats, _) = run(false);
    let (rec_out, rec_stats, rec) = run(true);
    assert_eq!(bare_out, rec_out, "recording must not perturb outcomes");
    assert_eq!(bare_stats, rec_stats, "recording must not perturb stats");

    let rec = rec.expect("recorder attached");
    assert_eq!(rec.open_count(), 0, "every recorded message finished");
    let mut fabric_time = 0u64;
    for m in rec.finished() {
        if m.delivered {
            assert_eq!(
                m.components_sum(),
                m.latency(),
                "stall identity must hold across fabric hops for msg {}",
                m.id
            );
        }
        fabric_time += m.stalls().fabric_hop;
    }
    assert!(
        fabric_time > 0,
        "cross-device time must be charged to the fabric_hop stall class"
    );
    // The recorder reduces into the profile layer over the fabric node
    // graph (4 devices on a ring = 4 fabric nodes).
    let report = ProfileReport::from_recorder(&rec, 4, 1, rec_stats.latency_max.max(1), 5);
    assert!(report.messages > 0);
}

#[test]
fn partition_loss_is_reported_as_partitioned_not_unroutable() {
    // One device dies at cycle 0 on a 3-device line (the generator keeps
    // device 0 alive): traffic touching the dead device — or cut off
    // behind it — must be lost as `Partitioned`, never `Unroutable`.
    let plan = fabric_plan(3, 3, FabricTopology::Line, 0, 0, 0.0, 1, 0);
    assert!(!plan.fabric.dead_devices().is_empty());
    let sim = run_soak(3, FabricTopology::Line, &plan, 17, 32);
    let stats = sim.stats();
    assert!(
        stats.lost_partitioned > 0,
        "dead-device traffic must be lost"
    );
    for o in sim.outcomes() {
        if let TransferOutcome::Lost { reason } = o {
            assert_eq!(
                reason,
                LossReason::Partitioned,
                "device loss severs, it does not misroute"
            );
        }
    }
}
