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
//! which cycle fails here. The cycle-exact engine (the event skip disabled)
//! must match the same pins.

use gnoc_analysis::profile::ProfileReport;
use gnoc_fabric::{FabricConfig, FabricSim};
use gnoc_faults::{FaultGenConfig, FaultPlan};
use gnoc_noc::{set_event_skip_enabled, NodeId, PacketClass};
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
fn run(c: Case, event: bool) -> Pin {
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
    set_event_skip_enabled(event);
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
    set_event_skip_enabled(true);
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
        assert_eq!(run(c, true), want, "{c:?}");
        assert_eq!(run(c, false), want, "cycle-exact {c:?}");
    }
}
