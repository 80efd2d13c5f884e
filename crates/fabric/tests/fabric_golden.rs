//! Golden pins for `FabricSim` stepping.
//!
//! Seeded faulted fabrics — ring and fully-connected, two and four devices
//! of 5×5 dies with flaky die links, a stalled router, transient drops and
//! corruption, and flaky plus (where the topology survives it) dead fabric
//! links — are driven with waves of cross-device traffic that overlap the
//! previous wave's tail, so some dies idle while others work. A flight
//! recorder is attached to the fabric and to every die, and a trace tap
//! records the submissions. Each case pins FNV digests of the final
//! `FabricStats` and outcomes, every die's `ReliabilityStats` and
//! `MeshStats`, both recorders' `ProfileReport` totals and the trace bytes.
//! The values were captured before dies whose own quiet bound proves a
//! cycle inert stopped running the full reliable step, and before routers
//! kept a queued-packet count, so any drift in which die or router acts on
//! which cycle fails here. The cycle-exact engine must match the same pins.
//!
//! `charge_closures_match_the_golden_pins` covers each place a fabric
//! transfer's `FabricHop` waiting charges close (a crossing grant, an
//! ingress delivery, a destination-die delivery, each kind of loss, a
//! quarantine under the self-heal monitor and a recorder taken mid-run)
//! with the recorder's full per-hop records in the pin. Those values were
//! captured while every transfer was still polled and charged on every
//! cycle.

use gnoc_analysis::profile::ProfileReport;
use gnoc_fabric::{
    health_report, poll_window, FabricConfig, FabricLinks, FabricMonitor, FabricSim,
};
use gnoc_faults::{DeviceFault, FabricLinkFault, FaultGenConfig, FaultPlan, LinkFaultKind};
use gnoc_noc::{Engine, NodeId, PacketClass};
use gnoc_telemetry::hash::{fnv1a64, SplitMix64};
use gnoc_telemetry::FlightRecorder;
use gnoc_topo::FabricTopology;
use gnoc_trace::{TraceHeader, TraceTap};

const SIDE: u32 = 5;
const WAVES: u64 = 8;
const WAVE_TRANSFERS: u64 = 12;
/// Cycles each wave may run before the next is submitted, by wave index
/// modulo 3: short enough that most waves overlap the previous one's
/// retries and fabric crossings.
const WAVE_CYCLES: [u64; 3] = [40, 250, 90];
const MAX_CYCLES: u64 = 2_000_000;

/// Everything a case pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Final fabric cycle.
    cycle: u64,
    /// FNV-1a of the `FabricStats` and the outcome vector in `Debug` form.
    fabric: u64,
    /// FNV-1a of every die's `ReliabilityStats`, `MeshStats` and cycle.
    dies: u64,
    /// FNV-1a of the fabric recorder's `ProfileReport` totals and counts.
    profile: u64,
    /// FNV-1a of the die recorders' `ProfileReport` totals and counts.
    die_profiles: u64,
    /// FNV-1a of the finished trace bytes.
    trace: u64,
}

fn plan(seed: u64, devices: u32, topology: FabricTopology) -> FaultPlan {
    FaultPlan::generate(&FaultGenConfig {
        dead_link_fraction: 0.06,
        onset_storm_span: 400,
        flaky_links: 3,
        flaky_drop_prob: 0.2,
        stalled_routers: 1,
        stall_duration: 300,
        transient_drop_prob: 0.002,
        transient_corrupt_prob: 0.002,
        onset: 50,
        devices,
        fabric_topology: topology,
        dead_fabric_links: u32::from(devices > 2),
        flaky_fabric_links: 1,
        fabric_flaky_drop_prob: 0.2,
        ..FaultGenConfig::benign(seed, SIDE, SIDE)
    })
}

/// One golden case.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    devices: u32,
    topology: FabricTopology,
    /// Dies hide their dead links from routing, so heads routed into one
    /// are dropped at the transmit side instead of rerouted.
    self_healing_dies: bool,
}

/// Builds the case's fabric with its recorders and tap attached, drives
/// the waves on the event engine or the cycle-exact one, and reduces the
/// finished run to a [`Pin`].
fn run(c: Case, engine: Engine) -> Pin {
    let Case {
        seed,
        devices,
        topology,
        self_healing_dies,
    } = c;
    let plan = plan(seed, devices, topology);
    let mut sim =
        FabricSim::with_faults(FabricConfig::new(devices, topology), &plan).expect("plan fits");
    sim.attach_flight_recorder();
    for d in 0..devices {
        let die = sim.die_mut(d);
        die.attach_flight_recorder();
        die.set_self_healing(self_healing_dies);
    }
    let header = TraceHeader::fabric(
        devices,
        "golden",
        SIDE,
        SIDE,
        seed,
        WAVES * WAVE_TRANSFERS,
        0,
    );
    sim.attach_trace_tap(TraceTap::in_memory(&header));

    let nodes = u64::from(SIDE * SIDE);
    let mut rng = SplitMix64::new(seed);
    sim.set_engine(engine);
    for wave in 0..WAVES {
        for _ in 0..WAVE_TRANSFERS {
            let r = rng.next();
            // Each wave leans on one source device so the others idle.
            let src_dev = if r.is_multiple_of(3) {
                (wave % u64::from(devices)) as u32
            } else {
                ((r >> 4) % u64::from(devices)) as u32
            };
            let hop = 1 + ((r >> 12) % u64::from(devices - 1)) as u32;
            let dst_dev = (src_dev + hop) % devices;
            // About one transfer in eight stays on its device.
            let dst_dev = if (r >> 20).is_multiple_of(8) {
                src_dev
            } else {
                dst_dev
            };
            let src = ((r >> 24) % nodes) as u32;
            let dst = ((r >> 32) % nodes) as u32;
            let dst = if src_dev == dst_dev && src == dst {
                (dst + 1) % nodes as u32
            } else {
                dst
            };
            let flits = 1 + ((r >> 40) % 4) as u32;
            sim.submit(
                src_dev,
                NodeId::new(src),
                dst_dev,
                NodeId::new(dst),
                flits,
                PacketClass::Request,
            )
            .expect("endpoints in range");
        }
        let budget = if wave + 1 == WAVES {
            MAX_CYCLES
        } else {
            WAVE_CYCLES[(wave % 3) as usize]
        };
        sim.run_until_quiescent(budget);
    }
    assert_eq!(sim.outstanding(), 0, "the last wave must quiesce");

    let cycles = sim.cycle();
    let mut dies = Vec::new();
    let mut die_profiles = Vec::new();
    for d in 0..devices {
        let die = sim.die(d);
        assert_eq!(die.mesh().cycle(), cycles, "dies stay in lockstep");
        assert_eq!(die.mesh().in_flight(), 0, "a quiesced die holds nothing");
        dies.extend_from_slice(
            format!(
                "{:?}{:?}{}",
                die.stats(),
                die.mesh().stats(),
                die.mesh().cycle()
            )
            .as_bytes(),
        );
        let rec = sim
            .die_mut(d)
            .take_flight_recorder()
            .expect("die recorder attached");
        let side = SIDE as usize;
        die_profiles.extend_from_slice(profile_bytes(&rec, side, side, cycles).as_bytes());
    }
    let rec = sim
        .take_flight_recorder()
        .expect("fabric recorder attached");
    let fabric_nodes = topology.node_count(devices) as usize;
    let profile = profile_bytes(&rec, fabric_nodes, 1, cycles);
    let fabric = format!("{:?}{:?}", sim.stats(), sim.outcomes());
    let bytes = sim
        .take_trace_tap()
        .expect("tap attached")
        .finish_bytes(fnv1a64(fabric.as_bytes()))
        .expect("in-memory tap cannot fail");
    Pin {
        cycle: cycles,
        fabric: fnv1a64(fabric.as_bytes()),
        dies: fnv1a64(&dies),
        profile: fnv1a64(profile.as_bytes()),
        die_profiles: fnv1a64(&die_profiles),
        trace: fnv1a64(&bytes),
    }
}

/// A recorder's `ProfileReport` reduced to its totals and counts.
fn profile_bytes(rec: &FlightRecorder, width: usize, height: usize, cycles: u64) -> String {
    let r = ProfileReport::from_recorder(rec, width, height, cycles, 5);
    format!(
        "{:?}|{}|{}|{}|{}|{}",
        r.totals,
        r.messages,
        r.delivered,
        r.lost,
        r.delivered_latency,
        rec.open_count()
    )
}

fn expected(cycle: u64, [fabric, dies, profile, die_profiles, trace]: [u64; 5]) -> Pin {
    Pin {
        cycle,
        fabric,
        dies,
        profile,
        die_profiles,
        trace,
    }
}

#[test]
fn faulted_fabrics_match_the_golden_pins() {
    use FabricTopology::{FullyConnected, Ring};
    let case = |seed, devices, topology, self_healing_dies| Case {
        seed,
        devices,
        topology,
        self_healing_dies,
    };
    #[rustfmt::skip]
    let cases = [
        (case(11, 2, Ring, false), expected(1117, [3484858301858657256, 12148553815430366061, 13250242986961983902, 13646862349691912032, 11296691691907018982])),
        (case(12, 4, Ring, false), expected(1089, [8063529042649034574, 1385098282120446727, 13829404544389029762, 11523766952238024190, 171854526601187726])),
        (case(13, 2, FullyConnected, false), expected(1522, [6945335312311064296, 10470694468158120331, 12342550520583086766, 14119063320193837522, 3355183883971055966])),
        (case(14, 4, FullyConnected, false), expected(449, [4770925958994929640, 2622001073688995996, 5915205225836712418, 4585179902015020130, 3181395687884697493])),
        (case(15, 4, Ring, true), expected(4596, [9452983018660992149, 4221200976224946375, 2972700810130681874, 15813131325183981122, 12294749006686988620])),
    ];
    for (c, want) in cases {
        assert_eq!(run(c, Engine::Event), want, "{c:?}");
        assert_eq!(run(c, Engine::Cycle), want, "cycle-exact {c:?}");
    }
}

/// Where a case's fabric transfers stop accruing `FabricHop` charges.
#[derive(Debug, Clone, Copy)]
enum Closure {
    /// Crossing grants, ingress deliveries at node 0 and destination-die
    /// deliveries on a healthy ring with busy links.
    Deliveries,
    /// Flaky links with a two-attempt hop budget: `RetriesExhausted`.
    RetriesExhausted,
    /// Two dead links isolate a device mid-run: no route at the next hop.
    NoRoute,
    /// A device dies mid-run and strands what it sources or sinks.
    DeviceOnset,
    /// A hidden dead link with an unbounded hop budget: the fabric
    /// watchdog writes the stuck crossings off.
    Watchdog,
    /// A hidden dead link found, quarantined and routed around by the
    /// self-heal monitor.
    Quarantine,
    /// The recorder taken mid-run with transfers still open, then a
    /// second one attached and taken at the end.
    MidRunTake,
    /// Hung endpoints on two dies: cross-device transfers lost on their
    /// destination die.
    DieLoss,
}

/// What a charge-closure case pins.
#[derive(Debug, PartialEq, Eq)]
struct ClosurePin {
    /// Final fabric cycle.
    cycle: u64,
    /// FNV-1a of the `FabricStats` and the outcome vector in `Debug` form.
    fabric: u64,
    /// FNV-1a of every taken recorder's `ProfileReport` totals and counts.
    profile: u64,
    /// FNV-1a of every taken recorder in `Debug` form: each message's hops
    /// with their `fabric_hop` charges, open messages included.
    hops: u64,
}

/// Submits `n` cross-device transfers drawn from `seed`; about a third
/// start at the egress port and a third end at the ingress port.
fn cross_traffic(sim: &mut FabricSim, seed: u64, n: u32) {
    let devices = u64::from(sim.config().devices);
    let nodes = u64::from(SIDE * SIDE);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let r = rng.next();
        let src_dev = r % devices;
        let dst_dev = (src_dev + 1 + (r >> 8) % (devices - 1)) % devices;
        let node = |shift: u32| {
            if (r >> shift).is_multiple_of(3) {
                0
            } else {
                ((r >> (shift + 4)) % nodes) as u32
            }
        };
        sim.submit(
            src_dev as u32,
            NodeId::new(node(16)),
            dst_dev as u32,
            NodeId::new(node(32)),
            1 + ((r >> 56) % 4) as u32,
            PacketClass::Request,
        )
        .expect("endpoints in range");
    }
}

fn link(a: u32, b: u32, kind: LinkFaultKind, onset: u64) -> FabricLinkFault {
    FabricLinkFault { a, b, kind, onset }
}

/// Runs one charge-closure case on the event engine or the cycle-exact one.
fn closure_run(c: Closure, engine: Engine) -> ClosurePin {
    use FabricTopology::{PointToPoint, Ring};
    let mut plan = FaultPlan::none();
    let mut cfg = FabricConfig::new(4, Ring);
    match c {
        Closure::Deliveries | Closure::DieLoss | Closure::MidRunTake => {}
        Closure::RetriesExhausted => {
            cfg.max_hop_retries = 2;
            let flaky = LinkFaultKind::Flaky { drop_prob: 0.6 };
            plan.fabric.links = vec![link(0, 1, flaky, 0), link(2, 3, flaky, 0)];
        }
        Closure::NoRoute => {
            let dead = LinkFaultKind::Dead;
            plan.fabric.links = vec![link(1, 2, dead, 30), link(2, 3, dead, 30)];
        }
        Closure::DeviceOnset => {
            plan.fabric.devices = vec![DeviceFault {
                device: 3,
                onset: 45,
            }]
        }
        Closure::Watchdog => {
            cfg = FabricConfig::new(2, PointToPoint);
            cfg.self_healing = true;
            cfg.max_hop_retries = u32::MAX;
            cfg.retry.watchdog_cycles = 200;
            plan.fabric.links = vec![link(0, 1, LinkFaultKind::Dead, 20)];
        }
        Closure::Quarantine => {
            cfg.self_healing = true;
            plan.fabric.links = vec![link(1, 2, LinkFaultKind::Dead, 0)];
        }
    }
    let topology = cfg.topology;
    let devices = cfg.devices;
    let mut sim = FabricSim::with_faults(cfg, &plan).expect("plan fits");
    sim.attach_flight_recorder();
    cross_traffic(&mut sim, 40 + c as u64, 40);
    if let Closure::DieLoss = c {
        for (dev, node) in [(1, 7), (2, 12)] {
            sim.die_mut(dev)
                .set_ejection_enabled(NodeId::new(node), false);
            for src_dev in (0..devices).filter(|&d| d != dev) {
                for src in [0, 6] {
                    sim.submit(
                        src_dev,
                        NodeId::new(src),
                        dev,
                        NodeId::new(node),
                        2,
                        PacketClass::Request,
                    )
                    .expect("endpoints in range");
                }
            }
        }
    }

    sim.set_engine(engine);
    let mut recorders = Vec::new();
    let mut health = String::new();
    match c {
        Closure::Quarantine => {
            let mut monitor = FabricMonitor::new(FabricLinks::new(&sim));
            let end = 20_000;
            while sim.outstanding() > 0 && sim.cycle() < end {
                sim.step();
                poll_window(&mut monitor, &mut sim);
                if sim.outstanding() > 0 {
                    sim.skip_quiet(end.min(monitor.next_window().saturating_sub(1)));
                }
            }
            health = format!("{:?}", health_report(&monitor, &sim));
        }
        Closure::MidRunTake => {
            sim.run_until_quiescent(60);
            recorders.push(sim.take_flight_recorder().expect("recorder attached"));
            sim.attach_flight_recorder();
            cross_traffic(&mut sim, 99, 12);
            sim.run_until_quiescent(MAX_CYCLES);
        }
        _ => {
            sim.run_until_quiescent(MAX_CYCLES);
        }
    }
    assert_eq!(sim.outstanding(), 0, "{c:?} must quiesce");
    recorders.push(sim.take_flight_recorder().expect("recorder attached"));
    let s = sim.stats();
    let covered = match c {
        Closure::Deliveries => s.delivered == s.submitted && s.fabric_hops > s.submitted,
        Closure::RetriesExhausted => s.lost_fabric_retries > 0 && s.delivered > 0,
        Closure::NoRoute | Closure::DeviceOnset => s.lost_partitioned > 0 && s.delivered > 0,
        Closure::DieLoss => s.lost_die > 0 && s.delivered > 0,
        Closure::Watchdog => s.lost_watchdog > 0 && s.delivered > 0,
        Closure::Quarantine => !sim.quarantined_fabric_links().is_empty() && s.delivered > 0,
        Closure::MidRunTake => recorders[0].open_count() > 0,
    };
    assert!(covered, "{c:?} misses its closure: {s:?}");

    let cycles = sim.cycle();
    let fabric_nodes = topology.node_count(devices) as usize;
    let mut profile = String::new();
    let mut hops = String::new();
    for rec in &recorders {
        profile += &profile_bytes(rec, fabric_nodes, 1, cycles);
        hops += &format!("{rec:?}");
    }
    let fabric = format!("{:?}{:?}{health}", sim.stats(), sim.outcomes());
    ClosurePin {
        cycle: cycles,
        fabric: fnv1a64(fabric.as_bytes()),
        profile: fnv1a64(profile.as_bytes()),
        hops: fnv1a64(hops.as_bytes()),
    }
}

#[test]
fn charge_closures_match_the_golden_pins() {
    let pin = |cycle, [fabric, profile, hops]: [u64; 3]| ClosurePin {
        cycle,
        fabric,
        profile,
        hops,
    };
    #[rustfmt::skip]
    let cases = [
        (Closure::Deliveries, pin(157, [17128819620417753821, 16827127845736617159, 13852712353955353547])),
        (Closure::RetriesExhausted, pin(142, [5018933246740745268, 13104763855197597587, 10320770040008257896])),
        (Closure::NoRoute, pin(153, [4474763398302227278, 17761860158111902454, 16953200970531731898])),
        (Closure::DeviceOnset, pin(114, [4904115664305181562, 10654383187861044469, 12440047726059773894])),
        (Closure::Watchdog, pin(439, [12977174204880003955, 11882890242243094465, 17943065145314656923])),
        (Closure::Quarantine, pin(625, [4933385338666259615, 13711495393679491614, 16391877794811589451])),
        (Closure::MidRunTake, pin(147, [11359671837750686041, 15668825741908756083, 2208161691783709285])),
        (Closure::DieLoss, pin(20105, [2474259138296158189, 11626142806197785353, 10072590886543470126])),
    ];
    for (c, want) in cases {
        assert_eq!(closure_run(c, Engine::Event), want, "{c:?}");
        assert_eq!(closure_run(c, Engine::Cycle), want, "cycle-exact {c:?}");
    }
}
