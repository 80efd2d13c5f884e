//! Golden pins for `Mesh::step`.
//!
//! Saturated 6×6 meshes under MC-bound many-to-few traffic (the Fig. 21/23
//! regime) for every arbiter × VC count × route order, plus two faulted,
//! recorded 2-VC meshes: one told about its faults (flaky link, mid-run
//! dead link, router stall) and one self-healing mesh whose links are
//! quarantined and released mid-run. Each case pins the final `MeshStats`
//! (as a digest plus headline counters), the total arbiter grants and the
//! recorder's stall charges. The values were captured from a step that
//! re-routed every waiting head on every cycle, before heads were routed
//! once when they reach the front of their queue, so any drift in
//! arbitration order, candidate order, credit checks, route refreshes,
//! fault draws or stall attribution fails here.

use gnoc_faults::{Direction, FaultPlan, LinkFault, LinkFaultKind, RouterStall};
use gnoc_noc::{ArbiterKind, Mesh, MeshConfig, NodeId, PacketClass, RouteOrder};
use gnoc_telemetry::hash::{fnv1a64, SplitMix64};
use gnoc_telemetry::{MetricRegistry, StallBreakdown};

const MCS: u32 = 6;
const NODES: u32 = 36;
const TRAFFIC_CYCLES: u64 = 1_500;

/// Everything a case pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// FNV-1a of the final `MeshStats` in `Debug` form.
    stats: u64,
    delivered: u64,
    latency_sum: u64,
    grants: u64,
    lost: usize,
    /// Summed stall charges of the finished messages, zero when unrecorded.
    stalls: StallBreakdown,
}

/// Drives `TRAFFIC_CYCLES` of saturated many-to-few traffic, cycle by
/// cycle: every node offers a 1-flit request to a random MC a quarter of
/// the time, MCs offer 4-flit replies to random nodes half the time and
/// compute nodes a sixteenth of the time (so requests and replies share
/// links and the VC split matters), and the MCs take turns to stop
/// ejecting. `hook` runs before every traffic cycle's step. Then it drains.
fn drive(m: &mut Mesh, seed: u64, mut hook: impl FnMut(&mut Mesh, u64)) {
    let mut rng = SplitMix64::new(seed);
    for cycle in 0..TRAFFIC_CYCLES {
        hook(m, cycle);
        for mc in 0..MCS {
            let ejecting = (cycle / 50 + u64::from(mc)) % 5 != 0;
            m.set_ejection_enabled(NodeId::new(mc), ejecting);
        }
        for node in 0..NODES {
            let r = rng.next();
            let src = NodeId::new(node);
            let mc = NodeId::new(((r >> 8) % u64::from(MCS)) as u32);
            let any = NodeId::new(((r >> 8) % u64::from(NODES)) as u32);
            let _ = match r % 16 {
                0..=3 => m.try_inject(src, mc, 1, PacketClass::Request),
                4..=11 if node < MCS => m.try_inject(src, any, 4, PacketClass::Reply),
                4 => m.try_inject(src, any, 4, PacketClass::Reply),
                _ => false,
            };
        }
        m.step();
    }
    for mc in 0..MCS {
        m.set_ejection_enabled(NodeId::new(mc), true);
    }
    assert!(m.drain(20_000), "the mesh must drain once traffic stops");
}

fn pin(m: Mesh) -> Pin {
    pin_with(m, |_, _| {})
}

fn pin_with(mut m: Mesh, hook: impl FnMut(&mut Mesh, u64)) -> Pin {
    drive(&mut m, 0x5EED, hook);
    let mut registry = MetricRegistry::new();
    m.export_metrics(&mut registry);
    let mut stalls = StallBreakdown::default();
    if let Some(rec) = m.flight_recorder() {
        assert_eq!(rec.open_count(), 0, "a drained run leaves nothing open");
        for msg in rec.finished() {
            stalls.add(&msg.stalls());
        }
    }
    let s = m.stats();
    Pin {
        stats: fnv1a64(format!("{s:?}").as_bytes()),
        delivered: s.delivered_total,
        latency_sum: s.latency_sum,
        grants: registry.counter("noc.arbiter.grants"),
        lost: m.drain_lost().len(),
        stalls,
    }
}

fn config(arbiter: ArbiterKind, vcs: usize, route_order: RouteOrder) -> MeshConfig {
    MeshConfig {
        route_order,
        ..MeshConfig::paper_6x6(arbiter).with_vcs(vcs)
    }
}

fn expected(
    stats: u64,
    delivered: u64,
    latency_sum: u64,
    grants: u64,
    lost: usize,
    [serialization, contention, backpressure, router_stall, queued]: [u64; 5],
) -> Pin {
    Pin {
        stats,
        delivered,
        latency_sum,
        grants,
        lost,
        stalls: StallBreakdown {
            serialization,
            contention,
            backpressure,
            router_stall,
            fabric_hop: 0,
            queued,
        },
    }
}

/// Fault-free saturated meshes: each configuration is pinned bare, and the
/// same run with the recorder attached must reproduce the bare stats while
/// pinning its stall charges.
#[test]
fn saturated_meshes_match_the_golden_pins() {
    use ArbiterKind::{AgeBased, RoundRobin};
    use RouteOrder::{Xy, Yx};
    #[rustfmt::skip]
    let cases = [
        (RoundRobin, 1, Xy, expected(12940924798755296596, 7085, 469857, 38322, 0, [17408, 9736, 84542, 0, 326934])),
        (RoundRobin, 1, Yx, expected(11938579398866830820, 2340, 439282, 11237, 0, [4181, 3250, 99255, 0, 323699])),
        (RoundRobin, 2, Xy, expected(14286870350260285276, 8184, 614961, 41717, 0, [57292, 15492, 88558, 0, 420086])),
        (RoundRobin, 2, Yx, expected(15967891121086480084, 5981, 586302, 29200, 0, [53136, 6771, 95085, 0, 408091])),
        (AgeBased, 1, Xy, expected(21834055066873285, 7498, 454077, 43559, 0, [21365, 21986, 65115, 0, 309550])),
        (AgeBased, 1, Yx, expected(15699056407888780939, 2038, 432175, 11287, 0, [3839, 5466, 94975, 0, 318646])),
        (AgeBased, 2, Xy, expected(6480362894360423957, 8654, 631962, 47616, 0, [56043, 38945, 78658, 0, 419354])),
        (AgeBased, 2, Yx, expected(4958327953202918817, 6079, 547623, 31597, 0, [51552, 11948, 81944, 0, 376661])),
    ];
    for (arbiter, vcs, order, want) in cases {
        let cfg = config(arbiter, vcs, order);
        let bare = pin(Mesh::new(cfg));
        let mut recorded = Mesh::new(cfg);
        recorded.attach_flight_recorder();
        let recorded = pin(recorded);
        let label = format!("{arbiter:?} × {vcs} VC × {order:?}");
        assert_eq!(
            Pin {
                stalls: StallBreakdown::default(),
                ..recorded
            },
            bare,
            "{label}: the recorder must not perturb the run"
        );
        assert_eq!(
            Pin {
                stalls: recorded.stalls,
                ..bare
            },
            want,
            "{label}"
        );
    }
}

/// A 2-VC mesh with a flaky link, a dead link pair that dies mid-run and a
/// bounded router stall, recorded.
#[test]
fn faulted_recorded_mesh_matches_the_golden_pin() {
    let mut plan = FaultPlan::none();
    plan.seed = 7;
    plan.links = vec![
        LinkFault {
            router: 14,
            dir: Direction::East,
            kind: LinkFaultKind::Flaky { drop_prob: 0.05 },
            onset: 100,
        },
        LinkFault {
            router: 20,
            dir: Direction::North,
            kind: LinkFaultKind::Dead,
            onset: 400,
        },
        LinkFault {
            router: 26,
            dir: Direction::South,
            kind: LinkFaultKind::Dead,
            onset: 400,
        },
    ];
    plan.routers = vec![RouterStall {
        router: 9,
        onset: 200,
        duration: 150,
    }];
    let mut m = Mesh::new(config(ArbiterKind::RoundRobin, 2, RouteOrder::Xy));
    m.apply_fault_plan(&plan).unwrap();
    m.attach_flight_recorder();
    assert_eq!(
        pin(m),
        expected(
            16243967875900971151,
            5429,
            645672,
            26724,
            76,
            [47502, 9024, 117019, 1326, 457042]
        )
    );
}

/// A recorded 2-VC self-healing mesh. The router is not told that the
/// 20 ↔ 26 link pair dies at cycle 300, so heads routed into it die at the
/// transmit side until the pair is quarantined at 500. A healthy link is
/// quarantined at 700 and released at 1,000, and 20 North, still dead, is
/// released at 1,200, so its transmit-side drops resume.
#[test]
fn self_healing_recorded_mesh_matches_the_golden_pin() {
    let mut plan = FaultPlan::none();
    plan.seed = 9;
    plan.links = vec![
        LinkFault {
            router: 20,
            dir: Direction::North,
            kind: LinkFaultKind::Dead,
            onset: 300,
        },
        LinkFault {
            router: 26,
            dir: Direction::South,
            kind: LinkFaultKind::Dead,
            onset: 300,
        },
    ];
    let mut m = Mesh::new(config(ArbiterKind::RoundRobin, 2, RouteOrder::Xy));
    m.set_self_healing(true);
    m.apply_fault_plan(&plan).unwrap();
    m.attach_flight_recorder();
    let got = pin_with(m, |m, cycle| match cycle {
        500 => {
            m.quarantine_link(20, Direction::North).unwrap();
            m.quarantine_link(26, Direction::South).unwrap();
        }
        700 => m.quarantine_link(14, Direction::East).unwrap(),
        1_000 => m.release_link(14, Direction::East).unwrap(),
        1_200 => m.release_link(20, Direction::North).unwrap(),
        _ => {}
    });
    assert_eq!(
        got,
        expected(
            9449944368041773564,
            5947,
            658829,
            29754,
            176,
            [53549, 10750, 113507, 43, 465140]
        )
    );
}
