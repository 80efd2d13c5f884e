//! Differential golden suite: the event-driven NoC core against the
//! cycle-exact reference, at every layer of the stack.
//!
//! The event core skips provably-quiet spans instead of stepping them; the
//! contract is that *nothing observable changes* — not the final cycle, not
//! a stats counter, not a flight-recorder byte, not a chaos report. Each
//! test here runs the same workload both ways and compares:
//!
//! 1. the bare mesh over generated fault plans (25 seeds);
//! 2. the retrying [`ReliableMesh`] soak, outcomes and drained ejections
//!    included (25 seeds);
//! 3. the flight recorder's streamed JSONL, byte for byte, including a
//!    faulted mesh at the largest legal VC count;
//! 4. 2–4-device fabrics over generated inter-device plans, bare and with
//!    a flight recorder on the fabric and on every die;
//! 5. trace replays whose submissions sit thousands of cycles apart, for
//!    the reliable mesh and the fabric;
//! 6. full chaos reports, across the `--jobs {1, 2, 7}` sweep;
//! 7. the exact number of cycles the event engine still steps in full on
//!    an idle-heavy mesh soak and a faulted 4-die fabric soak.
//!
//! The cycle-exact reference is the same run loop on a simulator set to
//! `Engine::Cycle`; a bare mesh's reference arm steps every cycle itself.
//! The engine is per simulator, so the tests run in parallel.

use gnoc_chaos::{run_chaos, ChaosConfig, ChaosOptions};
use gnoc_core::faults::{Direction, LinkFault, LinkFaultKind, RouterStall};
use gnoc_core::noc::{
    fabric_soak, ArbiterKind, Engine, MeshConfig, MeshStats, NodeId, PacketClass, ReliabilityStats,
    ReliableMesh, RetryConfig, RouteOrder, TransferOutcome,
};
use gnoc_core::telemetry::hash::SplitMix64;
use gnoc_core::telemetry::{TelemetryHandle, TraceEvent, TraceSink};
use gnoc_core::trace::{TraceHeader, TraceReader, TraceTap};
use gnoc_core::{
    trace_digest, FabricConfig, FabricSim, FabricStats, FabricTopology, FaultGenConfig, FaultPlan,
    Mesh,
};

/// A generated plan with everything the event core must preserve across
/// skipped spans: dead links, flaky links, router stalls, transients, and
/// an onset storm so faults keep manifesting mid-run.
fn gen_cfg(seed: u64, width: u32, height: u32, devices: u32) -> FaultGenConfig {
    FaultGenConfig {
        seed,
        width,
        height,
        dead_link_fraction: 0.06,
        flaky_links: 4,
        flaky_drop_prob: 0.25,
        stalled_routers: 2,
        stall_duration: 300,
        transient_drop_prob: 0.002,
        transient_corrupt_prob: 0.001,
        onset: 100,
        onset_storm_span: 2_000,
        region: None,
        burst: None,
        num_slices: 0,
        disabled_slice_count: 0,
        sweep: None,
        devices,
        fabric_topology: FabricTopology::Ring,
        dead_fabric_links: u32::from(devices >= 3),
        flaky_fabric_links: u32::from(devices >= 2),
        fabric_flaky_drop_prob: 0.2,
        dead_devices: 0,
        dead_switch: false,
    }
}

fn mesh_cfg() -> MeshConfig {
    MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(2)
}

/// Runs `soak` on the event engine and on the cycle-exact one at the same
/// time, on two threads, and returns `(event, cycle)`.
fn on_both_engines<T: Send>(soak: impl Fn(Engine) -> T + Sync) -> (T, T) {
    std::thread::scope(|s| {
        let event = s.spawn(|| soak(Engine::Event));
        let cycle = s.spawn(|| soak(Engine::Cycle));
        (event.join().unwrap(), cycle.join().unwrap())
    })
}

#[test]
fn mesh_runs_bit_identical_across_generated_plans() {
    for seed in 0..25u64 {
        let plan = FaultPlan::generate(&gen_cfg(seed, 6, 6, 1));
        let build = || {
            let mut m = Mesh::try_new(mesh_cfg()).expect("valid config");
            m.apply_fault_plan(&plan).expect("plan fits the mesh");
            let mut rng = SplitMix64::new(seed);
            for _ in 0..80 {
                let src = (rng.next() % 36) as u32;
                let dst = (rng.next() % 36) as u32;
                if src != dst {
                    let flits = 1 + (rng.next() % 4) as u32;
                    m.try_inject(
                        NodeId::new(src),
                        NodeId::new(dst),
                        flits,
                        PacketClass::Request,
                    );
                }
            }
            m
        };
        let mut event = build();
        let mut cycle = build();
        event.run(8_000);
        for _ in 0..8_000 {
            cycle.step();
        }
        assert_eq!(event.cycle(), cycle.cycle(), "seed {seed}: clock diverged");
        assert_eq!(event.stats(), cycle.stats(), "seed {seed}: stats diverged");
        assert_eq!(
            event.drain_ejected().collect::<Vec<_>>(),
            cycle.drain_ejected().collect::<Vec<_>>(),
            "seed {seed}: ejections diverged"
        );
        assert_eq!(
            event.drain_lost(),
            cycle.drain_lost(),
            "seed {seed}: losses diverged"
        );
    }
}

#[test]
fn reliable_mesh_soaks_bit_identical_across_seeds() {
    for seed in 0..25u64 {
        let plan = FaultPlan::generate(&gen_cfg(seed, 6, 6, 1));
        let soak = |engine| {
            let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default())
                .expect("plan fits the mesh");
            rm.set_engine(engine);
            let mut rng = SplitMix64::new(seed ^ 0xabcd);
            for _ in 0..48 {
                let src = (rng.next() % 36) as u32;
                let dst = (rng.next() % 36) as u32;
                if src != dst {
                    let flits = 1 + (rng.next() % 4) as u32;
                    rm.submit(
                        NodeId::new(src),
                        NodeId::new(dst),
                        flits,
                        PacketClass::Request,
                    );
                }
            }
            (
                rm.run_until_quiescent(60_000),
                rm.mesh().cycle(),
                rm.stats().clone(),
                rm.outcomes(),
                rm.mesh_mut().drain_ejected().collect::<Vec<_>>(),
            )
        };
        let (event, cycle) = on_both_engines(soak);
        assert_eq!(event, cycle, "seed {seed}: soak diverged");
    }
}

/// Collects the JSONL lines a sink would write.
#[derive(Debug, Default)]
struct LineSink {
    lines: Vec<String>,
}

impl TraceSink for LineSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.lines
            .push(serde_json::to_string(event).expect("trace event serializes"));
    }
}

#[test]
fn flight_recorder_jsonl_is_byte_identical() {
    let profile = |engine| {
        let plan = FaultPlan::generate(&gen_cfg(3, 6, 6, 1));
        let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default())
            .expect("plan fits the mesh");
        rm.set_engine(engine);
        rm.mesh_mut().attach_flight_recorder();
        let mut rng = SplitMix64::new(17u64);
        for _ in 0..48 {
            let src = (rng.next() % 36) as u32;
            let dst = (rng.next() % 36) as u32;
            if src != dst {
                rm.submit(NodeId::new(src), NodeId::new(dst), 2, PacketClass::Request);
            }
        }
        assert!(rm.run_until_quiescent(60_000), "soak must quiesce");
        let rec = rm
            .mesh_mut()
            .take_flight_recorder()
            .expect("recorder attached");
        let mut sink = LineSink::default();
        rec.stream_to(&mut sink);
        sink.lines
    };
    let (event_lines, cycle_lines) = on_both_engines(profile);
    assert!(!event_lines.is_empty());
    assert_eq!(
        event_lines, cycle_lines,
        "recorder JSONL must be byte-identical across engines"
    );
}

/// The largest legal VC count: 5 ports × 12 VCs = 60 of the arbiter's 64
/// inputs, so reply heads sit in the highest slot of every port. A faulted,
/// recorded mesh carrying both classes must match across engines, and
/// `in_flight` checks the occupancy and per-router queued counts against
/// the queues after every step (in debug builds).
#[test]
fn max_vc_mesh_bit_identical_across_engines() {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(12);
    for seed in 0..6u64 {
        let plan = FaultPlan::generate(&gen_cfg(seed, 6, 6, 1));
        let run = |engine| {
            let mut m = Mesh::try_new(cfg).expect("12 VCs is legal");
            m.set_engine(engine);
            m.apply_fault_plan(&plan).expect("plan fits the mesh");
            m.attach_flight_recorder();
            let mut rng = SplitMix64::new(seed);
            for wave in 1..=6u64 {
                for _ in 0..24 {
                    let src = (rng.next() % 36) as u32;
                    let dst = (rng.next() % 36) as u32;
                    let class = if rng.next().is_multiple_of(2) {
                        PacketClass::Request
                    } else {
                        PacketClass::Reply
                    };
                    let flits = 1 + (rng.next() % 4) as u32;
                    m.try_inject(NodeId::new(src), NodeId::new(dst), flits, class);
                }
                let target = m.cycle() + 400 * wave;
                while m.cycle() < target {
                    m.skip_idle_to(target);
                    if m.cycle() < target {
                        m.step();
                        let _ = m.in_flight();
                    }
                }
            }
            let rec = m.take_flight_recorder().expect("recorder attached");
            let mut sink = LineSink::default();
            rec.stream_to(&mut sink);
            let stats = m.stats().clone();
            (
                m.cycle(),
                stats,
                m.drain_ejected().collect::<Vec<_>>(),
                m.drain_lost(),
                sink.lines,
            )
        };
        let (event, cycle) = on_both_engines(run);
        assert!(
            event.2.iter().any(|p| p.class == PacketClass::Reply),
            "seed {seed}: no reply reached the highest VC"
        );
        assert_eq!(event.0, cycle.0, "seed {seed}: clock diverged");
        assert_eq!(event.1, cycle.1, "seed {seed}: stats diverged");
        assert_eq!(event.2, cycle.2, "seed {seed}: ejections diverged");
        assert_eq!(event.3, cycle.3, "seed {seed}: losses diverged");
        assert_eq!(event.4, cycle.4, "seed {seed}: recorder JSONL diverged");
    }
}

#[test]
fn fabric_soaks_bit_identical_across_devices() {
    for devices in 2..=4u32 {
        for seed in 0..8u64 {
            let plan = FaultPlan::generate(&gen_cfg(seed, 5, 5, devices));
            let soak = |engine| {
                let mut sim =
                    FabricSim::with_faults(FabricConfig::new(devices, FabricTopology::Ring), &plan)
                        .expect("plan fits the fabric");
                sim.set_engine(engine);
                for t in fabric_soak(seed ^ u64::from(devices) << 32, devices, 25).take(24) {
                    sim.submit(
                        t.src_dev,
                        t.src,
                        t.dst_dev,
                        t.dst,
                        t.flits,
                        PacketClass::Request,
                    )
                    .expect("all devices are alive in this plan");
                }
                let quiesced = sim.run_until_quiescent(200_000);
                let die_cycles: Vec<u64> = sim.dies().iter().map(|d| d.mesh().cycle()).collect();
                (
                    quiesced,
                    sim.cycle(),
                    die_cycles,
                    sim.stats().clone(),
                    sim.outcomes(),
                )
            };
            let (event, cycle) = on_both_engines(soak);
            assert_eq!(
                event, cycle,
                "devices {devices} seed {seed}: fabric soak diverged"
            );
        }
    }
}

/// Dies that sit quiet while others work are advanced by the event
/// engine's per-die skip instead of a full step; the stall charges their
/// recorders would have taken each cycle must be replicated exactly. Every
/// die carries a recorder (attached through `die_mut`), traffic arrives in
/// overlapping waves, and the reference runs every die every cycle on the
/// cycle-exact engine.
#[test]
fn recorded_fabric_dies_bit_identical_across_engines() {
    for devices in 2..=4u32 {
        for seed in 0..5u64 {
            let plan = FaultPlan::generate(&gen_cfg(seed, 5, 5, devices));
            let soak = |engine| {
                let mut sim =
                    FabricSim::with_faults(FabricConfig::new(devices, FabricTopology::Ring), &plan)
                        .expect("plan fits the fabric");
                sim.set_engine(engine);
                sim.attach_flight_recorder();
                for d in 0..devices {
                    let die = sim.die_mut(d);
                    die.attach_flight_recorder();
                    // Odd seeds hide dead die links from routing, so heads
                    // routed into one are dropped instead of rerouted.
                    die.set_self_healing(seed % 2 == 1);
                }
                let mut rng = SplitMix64::new(seed ^ 0x5eed ^ u64::from(devices) << 40);
                for wave in 0..8u64 {
                    for _ in 0..14 {
                        // Each wave leans on one device, so the rest idle.
                        let sd = if rng.next().is_multiple_of(2) {
                            (wave % u64::from(devices)) as u32
                        } else {
                            (rng.next() % u64::from(devices)) as u32
                        };
                        let dd = (sd + 1 + (rng.next() % u64::from(devices - 1)) as u32) % devices;
                        let src = (rng.next() % 25) as u32;
                        let dst = (rng.next() % 25) as u32;
                        let flits = 1 + (rng.next() % 4) as u32;
                        sim.submit(
                            sd,
                            NodeId::new(src),
                            dd,
                            NodeId::new(dst),
                            flits,
                            PacketClass::Request,
                        )
                        .expect("all devices are alive in this plan");
                    }
                    let budget = if wave == 7 {
                        200_000
                    } else {
                        80 + 420 * (wave % 2)
                    };
                    sim.run_until_quiescent(budget);
                }
                let mut lines = Vec::new();
                for d in 0..devices {
                    let rec = sim
                        .die_mut(d)
                        .take_flight_recorder()
                        .expect("die recorder attached");
                    let mut sink = LineSink::default();
                    rec.stream_to(&mut sink);
                    lines.push(sink.lines);
                }
                let rec = sim.take_flight_recorder().expect("recorder attached");
                let mut sink = LineSink::default();
                rec.stream_to(&mut sink);
                lines.push(sink.lines);
                let dies: Vec<_> = sim
                    .dies()
                    .iter()
                    .map(|d| (d.mesh().cycle(), d.mesh().in_flight(), d.stats().clone()))
                    .collect();
                (
                    sim.cycle(),
                    sim.stats().clone(),
                    sim.outcomes(),
                    dies,
                    lines,
                )
            };
            let (event, cycle) = on_both_engines(soak);
            assert!(
                event.4.iter().all(|l| !l.is_empty()),
                "every recorder saw traffic"
            );
            assert_eq!(
                event, cycle,
                "devices {devices} seed {seed}: recorded fabric soak diverged"
            );
        }
    }
}

/// Submission cycles of the sparse replay traces: ten events, 2,000 to
/// 4,000 cycles apart, so replay catch-up is mostly idle time.
fn sparse_cycles(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut at = 0;
    (0..10)
        .map(|_| {
            at += 2_000 + rng.next() % 2_000;
            at
        })
        .collect()
}

/// Replays `bytes` through `replay` under the event engine and under the
/// cycle-exact one; both must reproduce `recorded`, the recording's stats
/// line.
fn assert_replays_match(
    what: &str,
    bytes: &[u8],
    recorded: &str,
    replay: impl Fn(&mut TraceReader<std::io::Cursor<Vec<u8>>>, Engine) -> String + Sync,
) {
    let (event, cycle) = on_both_engines(|engine| {
        let mut reader = TraceReader::from_bytes(bytes.to_vec()).expect("trace opens");
        replay(&mut reader, engine)
    });
    assert_eq!(event, recorded, "{what}: event-engine replay diverged");
    assert_eq!(cycle, recorded, "{what}: cycle-exact replay diverged");
}

/// Record → replay with submissions thousands of cycles apart: the replay
/// catch-up between events rides the event engine (step, then skip capped
/// at the event's cycle), and must reproduce the recording under both
/// engines — for the reliable mesh and a 4-device fabric.
#[test]
fn sparse_trace_replays_bit_identical_across_engines() {
    let seed = 7;
    let plan = FaultPlan::generate(&gen_cfg(seed, 6, 6, 1));
    let cycles = sparse_cycles(seed);

    // Each recording reaches the next submission on the event engine; the
    // cycle-exact replay then checks it against every cycle stepped.
    let mut rng = SplitMix64::new(seed);
    let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default())
        .expect("plan fits the mesh");
    rm.attach_trace_tap(TraceTap::in_memory(&TraceHeader::mesh(6, 6, seed, 10, 0)));
    for &at in &cycles {
        while rm.mesh().cycle() < at {
            rm.step();
            rm.skip_quiet(at);
        }
        let src = (rng.next() % 36) as u32;
        let dst = (src + 1 + (rng.next() % 35) as u32) % 36;
        rm.submit(NodeId::new(src), NodeId::new(dst), 3, PacketClass::Request);
    }
    assert!(rm.run_until_quiescent(200_000));
    let recorded = trace_digest::mesh_stats_line(&rm).expect("stats serialize");
    let bytes = rm
        .take_trace_tap()
        .expect("tap attached")
        .finish_bytes(0)
        .expect("in-memory finalize");
    assert_replays_match("reliable mesh", &bytes, &recorded, |reader, engine| {
        let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default())
            .expect("plan fits the mesh");
        rm.set_engine(engine);
        let outcome = rm.replay_from(reader).expect("trace replays");
        assert_eq!(outcome.replayed, 10);
        assert!(rm.run_until_quiescent(200_000));
        trace_digest::mesh_stats_line(&rm).expect("stats serialize")
    });

    // 4-device fabric.
    let plan = FaultPlan::generate(&gen_cfg(seed, 5, 5, 4));
    let build = || {
        FabricSim::with_faults(FabricConfig::new(4, FabricTopology::Ring), &plan)
            .expect("plan fits the fabric")
    };
    let mut sim = build();
    sim.attach_trace_tap(TraceTap::in_memory(&TraceHeader::fabric(
        4, "ring", 5, 5, seed, 10, 0,
    )));
    for &at in &cycles {
        while sim.cycle() < at {
            sim.step();
            sim.skip_quiet(at);
        }
        let sd = (rng.next() % 4) as u32;
        let dd = (sd + 1 + (rng.next() % 3) as u32) % 4;
        let src = (rng.next() % 25) as u32;
        let dst = (rng.next() % 25) as u32;
        sim.submit(
            sd,
            NodeId::new(src),
            dd,
            NodeId::new(dst),
            2,
            PacketClass::Request,
        )
        .expect("all devices are alive in this plan");
    }
    assert!(sim.run_until_quiescent(200_000));
    let recorded = trace_digest::fabric_stats_line(&sim).expect("stats serialize");
    let bytes = sim
        .take_trace_tap()
        .expect("tap attached")
        .finish_bytes(0)
        .expect("in-memory finalize");
    assert_replays_match("fabric", &bytes, &recorded, |reader, engine| {
        let mut sim = build();
        sim.set_engine(engine);
        let outcome = sim.replay_from(reader).expect("trace replays");
        assert_eq!(outcome.replayed, 10);
        assert!(sim.run_until_quiescent(200_000));
        trace_digest::fabric_stats_line(&sim).expect("stats serialize")
    });
}

#[test]
fn chaos_reports_identical_under_both_engines_and_jobs() {
    let run = |engine, jobs| {
        let cfg = ChaosConfig {
            device: None, // NoC-only: device oracles never touch the engine
            ..ChaosConfig::default()
        };
        let opts = ChaosOptions {
            seeds: (0..10).collect(),
            jobs,
            engine,
            ..ChaosOptions::default()
        };
        let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).expect("chaos soak runs");
        assert!(run.finished);
        run.report
    };
    let reference = run(Engine::Cycle, 1);
    for jobs in [1, 2, 7] {
        assert_eq!(
            run(Engine::Event, jobs),
            reference,
            "event-engine chaos report diverged at jobs={jobs}"
        );
    }
}

/// Everything an idle-heavy soak observes, compared across engines.
#[derive(Debug, PartialEq)]
struct SoakFingerprint<S> {
    cycle: u64,
    stats: S,
    mesh_stats: Vec<MeshStats>,
    outcomes: Vec<TransferOutcome>,
}

/// An idle-heavy reliable-mesh soak on an 8x8, 2-VC mesh: six flaky links
/// whose drops buy long ACK-timeout waits, a router stall at 10k cycles, a
/// dead link pair at 40k, 120 transfers run to quiescence, then a 100k-cycle
/// quiet drain. Returns the fingerprint and the cycles stepped in full.
fn idle_heavy_mesh_soak(engine: Engine) -> (SoakFingerprint<ReliabilityStats>, u64) {
    let cfg = MeshConfig {
        width: 8,
        height: 8,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 2,
    };
    let retry = RetryConfig {
        max_retries: 6,
        base_timeout_cycles: 512,
        max_timeout_cycles: 8192,
        watchdog_cycles: 60_000,
    };
    let link = |router: u32, dir: Direction, kind: LinkFaultKind, onset: u64| LinkFault {
        router,
        dir,
        kind,
        onset,
    };
    let flaky = LinkFaultKind::Flaky { drop_prob: 0.35 };
    let plan = FaultPlan {
        seed: 9,
        links: vec![
            link(9, Direction::East, flaky, 0),
            link(18, Direction::North, flaky, 0),
            link(27, Direction::West, flaky, 0),
            link(36, Direction::South, flaky, 0),
            link(45, Direction::East, flaky, 0),
            link(54, Direction::North, flaky, 0),
            link(20, Direction::East, LinkFaultKind::Dead, 40_000),
            link(21, Direction::West, LinkFaultKind::Dead, 40_000),
        ],
        routers: vec![RouterStall {
            router: 35,
            onset: 10_000,
            duration: 2_000,
        }],
        ..FaultPlan::none()
    };
    let mut rm = ReliableMesh::with_faults(cfg, &plan, retry).expect("plan fits the 8x8 mesh");
    rm.set_engine(engine);
    for i in 0..120u32 {
        let (src, dst) = ((i * 7) % 64, (i * 13 + 31) % 64);
        if src != dst {
            rm.submit(
                NodeId::new(src),
                NodeId::new(dst),
                1 + i % 4,
                PacketClass::Request,
            );
        }
    }
    assert!(rm.run_until_quiescent(150_000), "soak must quiesce");
    rm.mesh_mut().run(100_000);
    let fp = SoakFingerprint {
        cycle: rm.mesh().cycle(),
        stats: rm.stats().clone(),
        mesh_stats: vec![rm.mesh().stats().clone()],
        outcomes: rm.outcomes(),
    };
    (fp, rm.mesh().steps())
}

/// A faulted 4-die ring fabric soak: generated die and fabric faults from
/// cycle 0 (flaky links at 35 % drop), with all 24 transfers between
/// devices 0 and 1, so devices 2 and 3 sit quiet throughout. Returns the
/// fingerprint, each die's full steps and the fabric's transfer polls.
fn faulted_fabric_soak(engine: Engine) -> (SoakFingerprint<FabricStats>, Vec<u64>, u64) {
    let plan = FaultPlan::generate(&FaultGenConfig {
        onset: 0,
        onset_storm_span: 0,
        flaky_drop_prob: 0.35,
        fabric_flaky_drop_prob: 0.35,
        ..gen_cfg(9, 5, 5, 4)
    });
    let mut sim = FabricSim::with_faults(FabricConfig::new(4, FabricTopology::Ring), &plan)
        .expect("plan fits the fabric");
    sim.set_engine(engine);
    let mut rng = SplitMix64::new(9u64);
    for _ in 0..24 {
        let sd = (rng.next() % 2) as u32;
        let src = (rng.next() % 25) as u32;
        let dst = (rng.next() % 25) as u32;
        sim.submit(
            sd,
            NodeId::new(src),
            1 - sd,
            NodeId::new(dst),
            2,
            PacketClass::Request,
        )
        .expect("all devices are alive in this plan");
    }
    assert!(sim.run_until_quiescent(200_000), "fabric soak must quiesce");
    let dies = sim.dies();
    let fp = SoakFingerprint {
        cycle: sim.cycle(),
        stats: sim.stats().clone(),
        mesh_stats: dies.iter().map(|d| d.mesh().stats().clone()).collect(),
        outcomes: sim.outcomes(),
    };
    let steps = dies.iter().map(|d| d.mesh().steps()).collect();
    (fp, steps, sim.polls())
}

/// The event engine's saving as an exact, noise-free count: how many
/// cycles still run through a full step. The cycle-exact reference steps
/// every cycle; the event engine must reach the same fingerprint while
/// stepping at most a third of them. The pinned counts catch any change in
/// what the skips cover, including the O(1) cost of a quiet fabric die.
/// The fabric's transfer polls are pinned the same way: a step polls only
/// the transfers with an event due. Each soak's two arms run at the same
/// time.
#[test]
fn event_engine_step_counts_are_pinned() {
    let ((fp, steps), (reference, reference_steps)) = on_both_engines(idle_heavy_mesh_soak);
    assert_eq!(fp, reference, "mesh soak diverged across engines");
    assert_eq!(reference_steps, reference.cycle);
    assert_eq!(
        (steps, fp.cycle),
        (61, 103_593),
        "mesh soak step count moved"
    );
    assert!(steps * 3 <= fp.cycle);

    let ((fp, steps, polls), (reference, reference_steps, reference_polls)) =
        on_both_engines(faulted_fabric_soak);
    assert_eq!(fp, reference, "fabric soak diverged across engines");
    assert_eq!(reference_steps, vec![reference.cycle; 4]);
    assert_eq!(
        (steps.as_slice(), fp.cycle),
        (&[149, 117, 2, 2][..], 2_327),
        "fabric soak step counts moved"
    );
    let total: u64 = steps.iter().sum();
    assert!(total * 3 <= 4 * fp.cycle);
    // Polling every transfer on every stepped cycle made 6,647 polls here
    // on the event engine (55,871 on the cycle-exact one). Both engines
    // now poll the same due events.
    const FULL_SCAN_POLLS: u64 = 6_647;
    assert_eq!(reference_polls, polls, "the engines polled differently");
    assert_eq!(polls, 780, "fabric soak poll count moved");
    assert!(polls * 2 <= FULL_SCAN_POLLS);
}
