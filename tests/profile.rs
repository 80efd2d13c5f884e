//! Integration tests for the NoC flight recorder and the `gnoc profile`
//! layer built on it.
//!
//! Three contracts are pinned here:
//!
//! 1. **Golden JSONL schema.** The recorder streams `msg_inject` /
//!    `msg_hop` / `msg_deliver` / `msg_lost` events whose required fields
//!    are part of the artifact's public interface; `parse_jsonl_line` must
//!    round-trip every one of them.
//! 2. **Stall attribution is an identity, not an estimate.** For every
//!    delivered message, `source_wait + per-hop stalls + transit` equals
//!    the measured end-to-end latency *exactly* — under clean uniform
//!    traffic and under generated fault plans with retries.
//! 3. **Recording is read-only.** A profiled run returns bit-identical
//!    results to an unprofiled one; the recorder observes phase decisions
//!    without participating in them.

use gnoc_core::noc::{
    run_fairness, run_fairness_recorded, ArbiterKind, FairnessConfig, MeshConfig, NodeId,
    PacketClass, ReliableMesh, RetryConfig, RouteOrder,
};
use gnoc_core::telemetry::hash::SplitMix64;
use gnoc_core::telemetry::{parse_jsonl_line, TelemetryHandle, TraceEvent, TraceSink};
use gnoc_core::{FaultGenConfig, FaultPlan, FlightRecorder, ProfileReport, StallKind};
use proptest::prelude::*;

/// Collects the JSONL lines a sink would write, so tests can parse them
/// back through the public [`parse_jsonl_line`] entry point.
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

fn require(ev: &TraceEvent, keys: &[&str]) {
    for k in keys {
        assert!(
            ev.field(k).is_some(),
            "{} event is missing required field `{k}`: {ev:?}",
            ev.event
        );
    }
}

#[test]
fn streamed_jsonl_matches_the_golden_schema() {
    let cfg = FairnessConfig {
        warmup: 100,
        measure: 600,
        ..FairnessConfig::paper(ArbiterKind::RoundRobin)
    };
    let (_, rec) = run_fairness_recorded(cfg, 11, TelemetryHandle::disabled(), true);
    let rec = rec.expect("recorder was attached");
    let mut sink = LineSink::default();
    rec.stream_to(&mut sink);
    assert!(!sink.lines.is_empty());

    let mut seen_inject = 0usize;
    let mut seen_hop = 0usize;
    let mut seen_deliver = 0usize;
    for line in &sink.lines {
        let ev = parse_jsonl_line(line).expect("recorder lines parse back");
        match ev.event.as_str() {
            "msg_inject" => {
                require(&ev, &["id", "src", "dst", "flits", "birth"]);
                seen_inject += 1;
            }
            "msg_hop" => {
                require(
                    &ev,
                    &[
                        "id",
                        "router",
                        "in_port",
                        "arrive",
                        "serialization",
                        "contention",
                        "backpressure",
                        "router_stall",
                        "queued",
                    ],
                );
                seen_hop += 1;
            }
            "msg_deliver" => {
                require(&ev, &["id", "latency"]);
                seen_deliver += 1;
            }
            "msg_lost" => require(&ev, &["id", "reason"]),
            _ => {} // annotations (notes) ride along and are schema-free
        }
    }
    assert!(seen_inject > 0 && seen_hop > 0 && seen_deliver > 0);
    assert_eq!(
        seen_inject, seen_deliver,
        "clean uniform traffic loses nothing"
    );
}

#[test]
fn lost_messages_stream_with_a_reason() {
    // The fairness soak never loses packets, so drive the recorder's loss
    // path directly: its schema is part of the public artifact too.
    // `on_inject` opens the source hop itself; `on_enqueue` is for the
    // downstream routers a forwarded head flit arrives at.
    let mut rec = FlightRecorder::new();
    rec.on_inject(0, 3, 9, 2, 5, 10);
    rec.charge(0, StallKind::Contention);
    rec.on_grant(0, 1, 12);
    rec.on_enqueue(0, 9, 3, 13);
    rec.on_grant(0, 0, 14);
    rec.on_deliver(0, 20);
    rec.on_inject(1, 4, 8, 1, 30, 30);
    rec.charge(1, StallKind::Backpressure);
    rec.on_lost(1, 45, "link_dead");
    let mut sink = LineSink::default();
    rec.stream_to(&mut sink);

    let events: Vec<TraceEvent> = sink
        .lines
        .iter()
        .map(|l| parse_jsonl_line(l).unwrap())
        .collect();
    let kinds: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
    assert_eq!(
        kinds,
        [
            "msg_inject",
            "msg_hop",
            "msg_hop",
            "msg_deliver",
            "msg_inject",
            "msg_hop",
            "msg_lost"
        ]
    );
    let lost = events.last().unwrap();
    require(lost, &["id", "reason"]);
    assert_eq!(lost.cycle, 45);
}

/// Runs the CLI's faulted-mesh soak with a recorder attached and returns
/// the recording plus whether the mesh quiesced.
fn record_faulted_soak(
    plan: &FaultPlan,
    width: u32,
    height: u32,
    transfers: usize,
    seed: u64,
) -> (Box<FlightRecorder>, bool, u64) {
    let cfg = MeshConfig {
        width: width as usize,
        height: height as usize,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 1,
    };
    let mut rm = ReliableMesh::with_faults(cfg, plan, RetryConfig::default()).expect("plan fits");
    rm.mesh_mut().attach_flight_recorder();
    let nodes = u64::from(width) * u64::from(height);
    // The `gnoc profile` recipe: the length is drawn before the skip.
    let mut rng = SplitMix64::new(seed);
    let mut submitted = 0usize;
    while submitted < transfers {
        let src = (rng.next() % nodes) as u32;
        let dst = (rng.next() % nodes) as u32;
        let flits = 1 + (rng.next() % 4) as u32;
        if src == dst {
            continue;
        }
        rm.submit(NodeId(src), NodeId(dst), flits, PacketClass::Request);
        submitted += 1;
    }
    let quiesced = rm.run_until_quiescent(2_000_000);
    let cycles = rm.mesh().cycle();
    let rec = rm
        .mesh_mut()
        .take_flight_recorder()
        .expect("recorder attached above");
    (rec, quiesced, cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 2, clean traffic: the stall components of every delivered
    /// message sum to its end-to-end latency exactly, across random loads,
    /// seeds, and both arbiters. Contract 3 rides along: the recorded run
    /// must match the bare one bit for bit.
    #[test]
    fn stall_components_sum_to_latency_under_uniform_traffic(
        seed in 0u64..1_000,
        rate in 0.05f64..0.35,
        age in any::<bool>(),
    ) {
        let arbiter = if age { ArbiterKind::AgeBased } else { ArbiterKind::RoundRobin };
        let cfg = FairnessConfig {
            inject_rate: rate,
            warmup: 100,
            measure: 500,
            ..FairnessConfig::paper(arbiter)
        };
        let bare = run_fairness(cfg, seed);
        let (recorded, rec) = run_fairness_recorded(cfg, seed, TelemetryHandle::disabled(), true);
        prop_assert!(bare == recorded, "recording must not perturb the run");
        let rec = rec.expect("recorder was attached");
        prop_assert!(!rec.finished().is_empty());
        for m in rec.finished().iter().filter(|m| m.delivered) {
            prop_assert!(
                m.components_sum() == m.latency(),
                "msg {}: source_wait {} + stalls {} + transit {} != latency {}",
                m.id, m.source_wait(), m.stalls().total(), m.transit(), m.latency()
            );
        }
    }

    /// Contract 2 under faults: dead links, flaky links, and transient
    /// drops force retries and reroutes, and the attribution identity must
    /// survive all of them. The profile report built from the recording
    /// must agree with the recording's own totals.
    #[test]
    fn stall_components_sum_to_latency_under_faults(
        seed in 1u64..500,
        dead in 0.0f64..0.06,
        drop_p in 0.0f64..0.02,
    ) {
        let plan = FaultPlan::generate(&FaultGenConfig {
            dead_link_fraction: dead,
            transient_drop_prob: drop_p,
            ..FaultGenConfig::benign(seed, 5, 5)
        });
        let (rec, quiesced, cycles) = record_faulted_soak(&plan, 5, 5, 150, seed);
        prop_assert!(quiesced, "watchdog must force quiescence");
        let mut delivered = 0usize;
        for m in rec.finished().iter().filter(|m| m.delivered) {
            prop_assert!(m.components_sum() == m.latency(), "msg {}", m.id);
            delivered += 1;
        }
        prop_assert!(delivered > 0);
        let report = ProfileReport::from_recorder(&rec, 5, 5, cycles, 3);
        let json = report.to_json_pretty();
        prop_assert!(json.starts_with("{\n  \"schema\": 1"), "schema tag must lead");
    }
}
