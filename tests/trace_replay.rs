//! Round-trip and corruption-tolerance suite for the trace subsystem.
//!
//! Three contracts from DESIGN.md §8.3 get pinned:
//!
//! 1. **Record → replay is bit-identical**: a soak recorded through a
//!    `TraceTap` and re-driven through `replay_from` lands on the same
//!    canonical stats line — over generated fault plans on the 6x6 mesh
//!    and over 2–4-device ring fabrics, seeds 0..25.
//! 2. **Damage is salvage-or-error, never a panic**: every truncation
//!    point and every flipped byte yields either a trustworthy prefix
//!    (the `TruncatedTail` salvage path) or a typed error naming the
//!    chunk — the full matrix is walked, no position may panic, and no
//!    single-byte flip may pass off as a complete, valid trace.
//! 3. **Schema drift is rejected loudly**: a bumped version number fails
//!    with an error naming both the found and the supported schema.

use gnoc_core::noc::{
    fabric_soak, mesh_soak, ArbiterKind, MeshConfig, PacketClass, ReliableMesh, RetryConfig,
};
use gnoc_core::trace::{
    validate_stream, TraceError, TraceHeader, TraceReader, TraceTap, TRACE_SCHEMA,
};
use gnoc_core::trace_digest;
use gnoc_core::{FabricConfig, FabricSim, FabricTopology, FaultGenConfig, FaultPlan};

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
    MeshConfig::paper_6x6(ArbiterKind::RoundRobin)
}

/// Records a faulted 6x6 mesh soak in memory; returns the trace bytes and
/// the canonical stats line of the recorded run.
fn record_mesh(plan: &FaultPlan, seed: u64, transfers: usize) -> (Vec<u8>, String) {
    let cfg = mesh_cfg();
    let mut rm = ReliableMesh::with_faults(cfg, plan, RetryConfig::default()).expect("plan fits");
    let header = TraceHeader::mesh(
        cfg.width as u32,
        cfg.height as u32,
        seed,
        transfers as u64,
        0,
    );
    rm.attach_trace_tap(TraceTap::in_memory(&header));
    for (src, dst) in mesh_soak(seed, (cfg.width * cfg.height) as u64).take(transfers) {
        rm.submit(src, dst, 1, PacketClass::Request);
    }
    assert!(rm.run_until_quiescent(2_000_000), "seed {seed}: no quiesce");
    let line = trace_digest::mesh_stats_line(&rm).expect("stats serialize");
    let tap = rm.take_trace_tap().expect("tap attached");
    let bytes = tap
        .finish_bytes(trace_digest::line_digest(&line))
        .expect("in-memory finalize");
    (bytes, line)
}

/// Replays mesh trace bytes into a fresh simulator; returns the stats line.
fn replay_mesh(bytes: &[u8], plan: &FaultPlan) -> String {
    let mut reader = TraceReader::from_bytes(bytes.to_vec()).expect("trace opens");
    let mut rm =
        ReliableMesh::with_faults(mesh_cfg(), plan, RetryConfig::default()).expect("plan fits");
    let outcome = rm.replay_from(&mut reader).expect("trace replays");
    assert!(outcome.truncated.is_none(), "complete trace read clean");
    assert!(rm.run_until_quiescent(2_000_000), "replay quiesces");
    trace_digest::mesh_stats_line(&rm).expect("stats serialize")
}

#[test]
fn mesh_record_replay_bit_identical_across_generated_plans() {
    for seed in 0..25u64 {
        let plan = FaultPlan::generate(&gen_cfg(seed, 6, 6, 1));
        let (bytes, recorded_line) = record_mesh(&plan, seed, 120);
        let replayed_line = replay_mesh(&bytes, &plan);
        assert_eq!(
            recorded_line, replayed_line,
            "seed {seed}: replay diverged from the recording"
        );
        // The sealed footer digest is the same identity the tools compare.
        let mut reader = TraceReader::from_bytes(bytes).expect("trace opens");
        let summary = validate_stream(&mut reader).expect("recorded trace validates");
        assert!(summary.complete);
        assert_eq!(summary.events, 120);
        assert_eq!(summary.stats_fnv, trace_digest::line_digest(&recorded_line));
    }
}

#[test]
fn fabric_record_replay_bit_identical_2_to_4_devices() {
    for devices in 2..=4u32 {
        for seed in 0..8u64 {
            let plan = FaultPlan::generate(&gen_cfg(seed, 5, 5, devices));
            let build = || {
                FabricSim::with_faults(FabricConfig::new(devices, FabricTopology::Ring), &plan)
                    .expect("plan fits the fabric")
            };
            let mut sim = build();
            let (w, h) = (
                sim.config().mesh.width as u32,
                sim.config().mesh.height as u32,
            );
            let header = TraceHeader::fabric(devices, "ring", w, h, seed, 24, 0);
            sim.attach_trace_tap(TraceTap::in_memory(&header));
            let nodes = u64::from(w) * u64::from(h);
            for t in fabric_soak(seed ^ u64::from(devices) << 32, devices, nodes).take(24) {
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
            assert!(sim.run_until_quiescent(2_000_000));
            let recorded_line = trace_digest::fabric_stats_line(&sim).expect("stats serialize");
            let tap = sim.take_trace_tap().expect("tap attached");
            let bytes = tap
                .finish_bytes(trace_digest::line_digest(&recorded_line))
                .expect("in-memory finalize");

            let mut reader = TraceReader::from_bytes(bytes).expect("trace opens");
            let mut replayed = build();
            let outcome = replayed.replay_from(&mut reader).expect("trace replays");
            assert!(outcome.truncated.is_none());
            assert!(replayed.run_until_quiescent(2_000_000));
            let replayed_line =
                trace_digest::fabric_stats_line(&replayed).expect("stats serialize");
            assert_eq!(
                recorded_line, replayed_line,
                "devices {devices} seed {seed}: fabric replay diverged"
            );
        }
    }
}

#[test]
fn every_truncation_point_salvages_a_prefix_or_errors_never_panics() {
    let plan = FaultPlan::generate(&gen_cfg(3, 6, 6, 1));
    let (bytes, _) = record_mesh(&plan, 3, 140);
    let mut salvaged = 0usize;
    for cut in 0..bytes.len() {
        let prefix = bytes[..cut].to_vec();
        match TraceReader::from_bytes(prefix) {
            // A cut inside magic/schema/header: a typed error, nothing to
            // salvage — any variant is acceptable except a panic.
            Err(_) => {}
            Ok(mut reader) => {
                let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default())
                    .expect("plan fits");
                match rm.replay_from(&mut reader) {
                    Ok(outcome) => {
                        assert!(
                            outcome.replayed <= 140,
                            "cut {cut}: replayed more events than were recorded"
                        );
                        if outcome.truncated.is_none() {
                            // Only the footer was lost or the cut hit a
                            // chunk boundary: full event prefix replayed.
                            assert!(outcome.replayed <= 140);
                        }
                        salvaged += 1;
                    }
                    Err(e) => {
                        // Corrupt mid-chunk cuts may surface as typed
                        // errors; the message must carry a location.
                        let msg = e.to_string();
                        assert!(!msg.is_empty(), "cut {cut}: silent error");
                    }
                }
            }
        }
    }
    assert!(
        salvaged > bytes.len() / 2,
        "most truncation points should salvage a prefix (got {salvaged}/{})",
        bytes.len()
    );
}

#[test]
fn every_bit_flip_is_detected_or_salvaged_never_valid() {
    let plan = FaultPlan::generate(&gen_cfg(5, 6, 6, 1));
    let (bytes, line) = record_mesh(&plan, 5, 130);
    let good_digest = trace_digest::line_digest(&line);
    for pos in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x40;
        match TraceReader::from_bytes(damaged) {
            Err(TraceError::BadMagic { .. }) => assert!(pos < 8, "magic error at byte {pos}"),
            Err(TraceError::SchemaVersion { .. }) => {
                assert!((8..12).contains(&pos), "schema error at byte {pos}")
            }
            Err(_) => {} // header chunk damage: typed, located, no panic
            Ok(mut reader) => match validate_stream(&mut reader) {
                // Detected as corruption: the exit-1 path.
                Err(TraceError::CorruptChunk { .. }) => {}
                Err(_) => {}
                // Reclassified as truncation (e.g. a length field flipped
                // past EOF): the salvage path — but the footer digest can
                // no longer vouch for the whole stream.
                Ok(summary) => {
                    assert!(
                        !(summary.complete && summary.stats_fnv == good_digest),
                        "byte {pos}: a flipped byte passed off as the valid trace"
                    );
                }
            },
        }
    }
}

#[test]
fn schema_version_bump_is_rejected_with_a_clear_error() {
    let plan = FaultPlan::none();
    let (mut bytes, _) = record_mesh(&plan, 1, 40);
    // The schema version is the little-endian u32 right after the magic.
    let bumped = TRACE_SCHEMA + 1;
    bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
    match TraceReader::from_bytes(bytes) {
        Err(TraceError::SchemaVersion { found, supported }) => {
            assert_eq!(found, bumped);
            assert_eq!(supported, TRACE_SCHEMA);
            let msg = TraceError::SchemaVersion { found, supported }.to_string();
            assert!(
                msg.contains(&bumped.to_string()) && msg.contains(&TRACE_SCHEMA.to_string()),
                "error must name both versions: {msg}"
            );
        }
        Err(other) => panic!("expected a schema-version rejection, got {other}"),
        Ok(_) => panic!("a bumped schema version must not open"),
    }
}
