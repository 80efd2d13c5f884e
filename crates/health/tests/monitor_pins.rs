//! Bit-exact pins of the three breaker-window monitors: mesh links (through
//! `SelfHealingMesh`), L2 slices and fabric links. Each case pins the full
//! transition log, the detections, the refusals, the end-of-run quarantine
//! state and the window count, as FNV-1a digests plus lengths, and asserts
//! that the run reaches the path it exists for (a refusal, a failed probe,
//! a release), so no pin can pass on a run where nothing happens.
//!
//! The expected values were captured from the three separate per-resource
//! monitors that `WindowMonitor` replaced, so they hold the one monitor to
//! their behaviour, including what differs per resource kind.

use gnoc_fabric::{FabricConfig, FabricLinks, FabricMonitor, FabricSim, FabricTopology};
use gnoc_faults::{
    Direction, FabricLinkFault, FaultGenConfig, FaultPlan, LinkFault, LinkFaultKind,
};
use gnoc_health::{Detection, SelfHealingMesh, TransitionRecord};
use gnoc_noc::{ArbiterKind, MeshConfig, RetryConfig};
use gnoc_telemetry::hash::fnv1a64;
use gnoc_topo::{GpuSpec, SliceId, SmId};

/// What one monitor run left behind, rendered as text lines.
struct Observed {
    transitions: Vec<String>,
    detections: Vec<String>,
    refusals: Vec<String>,
    end_state: Vec<String>,
    windows: u64,
}

impl Observed {
    fn new(
        transitions: &[TransitionRecord],
        detections: &[Detection],
        refusals: Vec<String>,
        end_state: Vec<String>,
        windows: u64,
    ) -> Self {
        Self {
            transitions: transitions
                .iter()
                .map(|t| format!("{} {} {} -> {}", t.at, t.resource, t.from, t.to))
                .collect(),
            detections: detections
                .iter()
                .map(|d| format!("{} {} {}", d.resource, d.first_open_at, d.state))
                .collect(),
            refusals,
            end_state,
            windows,
        }
    }

    fn has(&self, transition: &str) -> bool {
        self.transitions.iter().any(|t| t.ends_with(transition))
    }

    /// Whether some resource entered probation and failed its probe in the
    /// same window: the two records are adjacent and share their stamp.
    fn probes_on_entry(&self) -> bool {
        self.transitions.windows(2).any(|w| {
            let (at0, rest0) = w[0].split_once(' ').unwrap();
            let (at1, rest1) = w[1].split_once(' ').unwrap();
            let resource = |rest: &str| rest.rsplitn(4, ' ').last().unwrap().to_owned();
            at0 == at1
                && resource(rest0) == resource(rest1)
                && rest0.ends_with(" open -> half-open")
                && rest1.ends_with(FAILED_PROBE)
        })
    }

    fn pin(&self) -> Pin {
        let digest = |lines: &[String]| (lines.len(), fnv1a64(lines.join("\n").as_bytes()));
        Pin {
            transitions: digest(&self.transitions),
            detections: digest(&self.detections),
            refusals: digest(&self.refusals),
            end_state: digest(&self.end_state),
            windows: self.windows,
        }
    }
}

/// `(line count, FNV-1a of the newline-joined lines)` per record kind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    transitions: (usize, u64),
    detections: (usize, u64),
    refusals: (usize, u64),
    end_state: (usize, u64),
    windows: u64,
}

fn mesh_run(plan: &FaultPlan, cycles: u64) -> Observed {
    let mut healer = SelfHealingMesh::new(
        MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
        plan,
        RetryConfig::default(),
    )
    .unwrap();
    healer.run_detection(cycles).unwrap();
    let r = healer.report();
    Observed::new(
        &r.transitions,
        &r.detections,
        r.refused,
        r.quarantined_now,
        r.windows,
    )
}

fn slice_run(plan: &FaultPlan, seed: u64, windows: u64) -> Observed {
    let (mut dev, monitor) =
        gnoc_health::run_slice_detection_for_spec(GpuSpec::v100(), plan, seed, windows).unwrap();
    let mut end_state: Vec<String> = dev
        .quarantined_slices()
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Probe reads advance the device RNG, so the next reads show which
    // windows the monitor probed in (a slice verdict is read only while
    // its breaker is closed).
    let next: Vec<u64> = (0..4)
        .map(|_| dev.probe_slice_latency(SmId::new(0), SliceId::new(0)))
        .collect();
    end_state.push(format!("next reads {next:?}"));
    Observed::new(
        monitor.transitions(),
        &monitor.detections(),
        monitor.refused().iter().map(|s| s.to_string()).collect(),
        end_state,
        monitor.windows(),
    )
}

fn fabric_run(cfg: FabricConfig, plan: &FaultPlan, cycles: u64) -> Observed {
    let mut sim = FabricSim::with_faults(cfg, plan).unwrap();
    let mut monitor = FabricMonitor::new(FabricLinks::new(&sim));
    gnoc_fabric::run_detection(&mut monitor, &mut sim, cycles);
    let r = gnoc_fabric::health_report(&monitor, &sim);
    Observed::new(
        &r.transitions,
        &r.detections,
        vec![format!("{} refusals", r.refusals)],
        vec![
            format!("quarantined {:?}", r.quarantined),
            format!("partitioned {:?}", r.partitioned_devices),
        ],
        r.windows,
    )
}

fn fabric_link(a: u32, b: u32, kind: LinkFaultKind) -> FabricLinkFault {
    FabricLinkFault {
        a,
        b,
        kind,
        onset: 0,
    }
}

const FAILED_PROBE: &str = "half-open -> open";
const RELEASE: &str = "half-open -> closed";

#[test]
fn generated_dead_and_flaky_mesh_plan_is_pinned() {
    let plan = FaultPlan::try_generate(&FaultGenConfig {
        dead_link_fraction: 0.05,
        flaky_links: 3,
        flaky_drop_prob: 0.3,
        onset: 500,
        ..FaultGenConfig::benign(11, 6, 6)
    })
    .unwrap();
    let seen = mesh_run(&plan, 30_000);
    assert!(seen.has(FAILED_PROBE), "{:#?}", seen.transitions);
    assert!(seen.has(RELEASE), "{:#?}", seen.transitions);
    // A mesh link waits one window between entering probation and probing.
    assert!(!seen.probes_on_entry(), "{:#?}", seen.transitions);
    assert_eq!(
        seen.pin(),
        Pin {
            transitions: (85, 852646052343596605),
            detections: (9, 17955083924224730009),
            refusals: (0, 14695981039346656037),
            end_state: (9, 16342265583135128946),
            windows: 117,
        }
    );
}

#[test]
fn corner_cut_mesh_plan_refuses_a_quarantine() {
    // Both outbound links of corner router 0 die: fencing off the first is
    // fine, fencing off the second would strand the router, so it is
    // refused and the link stays in service.
    let mut plan = FaultPlan::none();
    for dir in [Direction::East, Direction::North] {
        plan.links.push(LinkFault {
            router: 0,
            dir,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
    }
    let seen = mesh_run(&plan, 12_000);
    assert!(!seen.refusals.is_empty(), "{:#?}", seen.transitions);
    assert!(seen.has(FAILED_PROBE), "{:#?}", seen.transitions);
    assert_eq!(
        seen.pin(),
        Pin {
            transitions: (10, 11011413680670227901),
            detections: (2, 6534945780829399631),
            refusals: (1, 17539565627716212808),
            end_state: (1, 3546199821002239104),
            windows: 46,
        }
    );
}

#[test]
fn latent_v100_slices_are_pinned() {
    let mut plan = FaultPlan::none();
    plan.disabled_slices = vec![5, 21];
    let seen = slice_run(&plan, 3, 40);
    assert_eq!(seen.detections.len(), 2, "{:#?}", seen.detections);
    assert!(seen.has(FAILED_PROBE), "{:#?}", seen.transitions);
    assert_eq!(
        seen.pin(),
        Pin {
            transitions: (10, 16929877428269065063),
            detections: (2, 4064158791598655477),
            refusals: (0, 14695981039346656037),
            end_state: (3, 3660202150502465690),
            windows: 40,
        }
    );
}

#[test]
fn ring_fabric_with_a_dead_and_a_flaky_link_is_pinned() {
    let mut plan = FaultPlan::none();
    plan.seed = 4;
    plan.fabric
        .links
        .push(fabric_link(0, 1, LinkFaultKind::Dead));
    plan.fabric
        .links
        .push(fabric_link(2, 3, LinkFaultKind::Flaky { drop_prob: 0.3 }));
    let mut cfg = FabricConfig::new(4, FabricTopology::Ring);
    cfg.self_healing = true;
    let seen = fabric_run(cfg, &plan, 30_000);
    assert!(seen.has(FAILED_PROBE), "{:#?}", seen.transitions);
    assert!(seen.has(RELEASE), "{:#?}", seen.transitions);
    // A fabric link probes in the window it enters probation, so its
    // `open -> half-open` and a failed probe share one cycle.
    assert!(seen.probes_on_entry(), "{:#?}", seen.transitions);
    assert_eq!(
        seen.pin(),
        Pin {
            transitions: (23, 16067071777818341229),
            detections: (2, 13192844501427216767),
            refusals: (1, 1079634184093374143),
            end_state: (2, 163463109306512562),
            windows: 117,
        }
    );
}

#[test]
fn point_to_point_fabric_refuses_the_only_link() {
    let mut plan = FaultPlan::none();
    plan.fabric
        .links
        .push(fabric_link(0, 1, LinkFaultKind::Dead));
    let mut cfg = FabricConfig::new(2, FabricTopology::PointToPoint);
    cfg.self_healing = true;
    let seen = fabric_run(cfg, &plan, 4_000);
    assert_ne!(seen.refusals, vec!["0 refusals".to_owned()]);
    assert_eq!(
        seen.pin(),
        Pin {
            transitions: (3, 2178264424206956855),
            detections: (1, 14316776948094685294),
            refusals: (1, 14272737480058802014),
            end_state: (2, 13882235931747995613),
            windows: 15,
        }
    );
}
