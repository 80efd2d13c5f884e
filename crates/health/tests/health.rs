//! End-to-end detection tests: the device under test never reads the fault
//! plan; everything is inferred from drop counters and probe latencies.

use gnoc_faults::{Direction, FaultGenConfig, FaultPlan, LinkFault, LinkFaultKind};
use gnoc_health::{BreakerState, SelfHealingMesh};
use gnoc_noc::{ArbiterKind, MeshConfig, RetryConfig};
use gnoc_topo::GpuSpec;

fn mesh_cfg() -> MeshConfig {
    MeshConfig::paper_6x6(ArbiterKind::RoundRobin)
}

fn healer(plan: &FaultPlan) -> SelfHealingMesh {
    SelfHealingMesh::new(mesh_cfg(), plan, RetryConfig::default()).unwrap()
}

#[test]
fn benign_mesh_has_no_detections() {
    let mut h = healer(&FaultPlan::none());
    h.run_detection(8_000).unwrap();
    let report = h.report();
    assert!(
        report.detections.is_empty(),
        "false positives on a benign mesh: {:?}",
        report.detections
    );
    assert!(report.quarantined_now.is_empty());
    assert_eq!(report.lost, 0);
    assert!(report.delivered > 0, "patrol traffic must flow");
}

#[test]
fn dead_link_is_detected_and_quarantined() {
    let mut plan = FaultPlan::none();
    plan.links.push(LinkFault {
        router: 14,
        dir: Direction::North,
        kind: LinkFaultKind::Dead,
        onset: 0,
    });
    let mut h = healer(&plan);
    h.run_detection(8_000).unwrap();
    let detected = h.detected_links();
    assert_eq!(
        detected.len(),
        1,
        "exactly the dead link must open: {detected:?}"
    );
    assert_eq!(detected[0].0, 14);
    assert_eq!(detected[0].1, Direction::North);
    // Once quarantined, routing avoids the link, so it stays out of service
    // (probes against a dead link fail, re-opening the breaker).
    let report = h.report();
    assert!(report
        .quarantined_now
        .contains(&"link 14:North".to_string()));
    assert!(report.reroutes >= 1);
}

/// Every dead link that manifests mid-run is found (recall 1.0) within the
/// chaos detection oracle's 6,000-cycle bound: one hand-placed link at
/// onset 3,000, and generated plans killing 5, 10 and 20 % of the links
/// at onset 1,000. Each run goes on to 8,000 cycles past the onset, so no
/// healthy link's breaker may open in the 2,000 cycles after the bound
/// either.
#[test]
fn onset_fault_detection_latency_is_bounded() {
    const BOUND: u64 = 6_000;
    const RUN: u64 = 8_000;
    let mut single = FaultPlan::none();
    single.links.push(LinkFault {
        router: 8,
        dir: Direction::East,
        kind: LinkFaultKind::Dead,
        onset: 3_000,
    });
    let generated = [0.05, 0.10, 0.20].map(|dead_link_fraction| {
        FaultPlan::try_generate(&FaultGenConfig {
            dead_link_fraction,
            onset: 1_000,
            ..FaultGenConfig::benign(7, 6, 6)
        })
        .unwrap()
    });
    for (onset, plan) in std::iter::once((3_000, single)).chain(generated.map(|p| (1_000, p))) {
        assert!(!plan.links.is_empty());
        let mut h = healer(&plan);
        h.run_detection(onset + RUN).unwrap();
        let detected = h.detected_links();
        assert_eq!(detected.len(), plan.links.len(), "recall: {detected:?}");
        for &(_, _, cycle) in &detected {
            assert!(cycle >= onset, "cannot detect before the fault exists");
            assert!(
                cycle - onset <= BOUND,
                "detection latency {} exceeds bound",
                cycle - onset
            );
        }
    }
}

#[test]
fn very_flaky_link_trips_its_breaker() {
    let mut plan = FaultPlan::none();
    plan.seed = 9;
    plan.links.push(LinkFault {
        router: 20,
        dir: Direction::West,
        kind: LinkFaultKind::Flaky { drop_prob: 0.9 },
        onset: 0,
    });
    let mut h = healer(&plan);
    h.run_detection(10_000).unwrap();
    let detected = h.detected_links();
    assert!(
        detected
            .iter()
            .any(|&(r, d, _)| r == 20 && d == Direction::West),
        "flaky link not detected: {detected:?}"
    );
    // No healthy link may be blamed.
    assert!(
        detected
            .iter()
            .all(|&(r, d, _)| r == 20 && d == Direction::West),
        "healthy links blamed: {detected:?}"
    );
}

#[test]
fn detection_is_deterministic() {
    let mut plan = FaultPlan::none();
    plan.seed = 5;
    plan.links.push(LinkFault {
        router: 9,
        dir: Direction::South,
        kind: LinkFaultKind::Dead,
        onset: 1_000,
    });
    plan.links.push(LinkFault {
        router: 27,
        dir: Direction::East,
        kind: LinkFaultKind::Flaky { drop_prob: 0.5 },
        onset: 0,
    });
    let run = |_: u32| {
        let mut h = healer(&plan);
        h.run_detection(12_000).unwrap();
        serde_json::to_string(&h.report()).unwrap()
    };
    assert_eq!(run(0), run(1), "breaker history must be bit-identical");
}

#[test]
fn health_report_round_trips_through_json() {
    let mut plan = FaultPlan::none();
    plan.links.push(LinkFault {
        router: 14,
        dir: Direction::North,
        kind: LinkFaultKind::Dead,
        onset: 0,
    });
    let mut h = healer(&plan);
    h.run_detection(6_000).unwrap();
    let report = h.report();
    let json = serde_json::to_string(&report).unwrap();
    let back: gnoc_health::HealthReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn latent_faulty_slices_are_detected_and_quarantined() {
    let mut plan = FaultPlan::none();
    plan.disabled_slices = vec![3, 17];
    let (dev, monitor) =
        gnoc_health::run_slice_detection_for_spec(GpuSpec::v100(), &plan, 42, 20).unwrap();
    let detected: Vec<usize> = monitor.detected().iter().map(|&(s, _)| s).collect();
    assert_eq!(detected, vec![3, 17], "exactly the faulty slices must open");
    assert_eq!(dev.quarantined_slices(), &[3, 17]);
    // Probes against a still-faulty slice keep failing, so no breaker may
    // have closed again.
    for d in monitor.detections() {
        assert_ne!(d.state, BreakerState::Closed, "{d:?}");
    }
    // Detection latency: the penalty dwarfs the margin, so the leaky bucket
    // fills in the first two windows.
    for &(_, window) in &monitor.detected() {
        assert!(window <= 2, "slice detection too slow: window {window}");
    }
}

#[test]
fn healthy_device_has_no_slice_detections() {
    let (dev, monitor) =
        gnoc_health::run_slice_detection_for_spec(GpuSpec::v100(), &FaultPlan::none(), 7, 25)
            .unwrap();
    assert!(monitor.detected().is_empty());
    assert!(dev.quarantined_slices().is_empty());
}

#[test]
fn quarantine_restores_patrol_delivery() {
    // After the dead link is fenced off, later patrol rounds route around it
    // and stop losing transfers: losses must plateau.
    let mut plan = FaultPlan::none();
    plan.links.push(LinkFault {
        router: 14,
        dir: Direction::North,
        kind: LinkFaultKind::Dead,
        onset: 0,
    });
    let mut h = healer(&plan);
    h.run_detection(8_000).unwrap();
    let lost_at_detect = h.report().lost;
    h.run_detection(30_000).unwrap();
    let report = h.report();
    assert_eq!(
        report.lost, lost_at_detect,
        "losses must stop once the link is quarantined"
    );
    assert!(report.delivered > 0);
}

/// A long faulted detection run reports the same on both engines, and the
/// same as before the retry layer's timeout and watchdog scans started at
/// the oldest unresolved transfer instead of the first ever submitted: the
/// scans visit transfers in the same ascending order, so retries queue in
/// the same order. The values were captured before that change.
#[test]
fn long_faulted_detection_report_is_pinned() {
    let plan = FaultPlan::generate(&FaultGenConfig {
        dead_link_fraction: 0.05,
        flaky_links: 2,
        flaky_drop_prob: 0.3,
        ..FaultGenConfig::benign(3, 6, 6)
    });
    for engine in [gnoc_noc::Engine::Cycle, gnoc_noc::Engine::Event] {
        let mut h = healer(&plan);
        h.set_engine(engine);
        h.run_detection(30_000).unwrap();
        let r = h.report();
        let json = serde_json::to_string(&r).unwrap();
        let summary = (
            r.patrol_rounds,
            r.delivered,
            r.lost,
            r.retries,
            r.reroutes,
            r.transitions.len(),
            gnoc_telemetry::hash::fnv1a64(json.as_bytes()),
        );
        assert_eq!(
            summary,
            (3904, 468_478, 0, 34, 12, 64, 14_669_696_760_266_048_355),
            "{engine:?}"
        );
        assert_eq!(
            r.quarantined_now,
            [
                "link 4:North",
                "link 16:East",
                "link 17:West",
                "link 25:North",
                "link 27:North",
                "link 31:South",
                "link 32:East",
                "link 33:South",
            ],
            "{engine:?}"
        );
    }
}
