//! Breaker-driven health monitoring for inter-device fabric links.
//!
//! The same detect-without-the-plan contract as `gnoc-health`'s die-level
//! monitors, on the same [`WindowMonitor`]: the monitor sees only the
//! fabric's per-link drop counters and probe results, never the fault plan.
//! A persistent faulty link trips its breaker and is quarantined out of
//! routing (failover); a quarantine that would partition the fabric is
//! **refused** and reported, and devices whose every incident link is
//! breaker-quarantining are surfaced as explicit degraded coverage rather
//! than silently dropped.

use crate::config::FabricError;
use crate::sim::FabricSim;
use gnoc_health::{
    BreakerState, Detection, Quarantine, TransitionRecord, WindowMonitor, DROP_THRESHOLD,
    WINDOW_CYCLES,
};
use gnoc_noc::{NodeId, PacketClass};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// What a fabric detection run observed, serializable for the CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricHealthReport {
    /// Health windows elapsed.
    pub windows: u64,
    /// Links whose breaker opened at least once.
    pub detections: Vec<Detection>,
    /// Every breaker transition, in occurrence order.
    pub transitions: Vec<TransitionRecord>,
    /// Currently-quarantined links as `(a, b)` endpoint pairs.
    pub quarantined: Vec<(u32, u32)>,
    /// Quarantine requests refused because they would partition the fabric.
    pub refusals: u64,
    /// Devices outside reliable fabric coverage: every incident link's
    /// breaker is quarantining (or trying to). Explicitly reported degraded
    /// coverage, never silent.
    pub partitioned_devices: Vec<u32>,
}

/// Every fabric link of one [`FabricSim`], watched through its crossing-drop
/// counter and stamped with the fabric cycle.
///
/// Fabric links differ from mesh links in three ways. A link entering
/// `HalfOpen` is probed in the same window. A failed probe asks for
/// quarantine again, since a refused link may have become removable. Probe
/// and release errors are not fatal: the fabric's only such error is an
/// out-of-range index.
#[derive(Debug)]
pub struct FabricLinks {
    links: Vec<(u32, u32)>,
    last_drops: Vec<u64>,
}

impl FabricLinks {
    /// The links of `sim`, in link index order.
    pub fn new(sim: &FabricSim) -> Self {
        let links = sim.fabric_links();
        Self {
            last_drops: vec![0; links.len()],
            links,
        }
    }
}

impl Quarantine for FabricLinks {
    type Host = FabricSim;
    type Error = Infallible;
    const PROBE_ON_ENTRY: bool = true;
    const REQUARANTINE_ON_FAILED_PROBE: bool = true;

    fn count(&self) -> usize {
        self.links.len()
    }

    fn name(&self, idx: usize) -> String {
        let (a, b) = self.links[idx];
        format!("fabric link {a}<->{b}")
    }

    fn stamp(&self, sim: &FabricSim, _window: u64) -> u64 {
        sim.cycle()
    }

    fn verdict(&mut self, sim: &mut FabricSim, idx: usize, _state: BreakerState) -> bool {
        let drops = sim.link_drops()[idx];
        let last = std::mem::replace(&mut self.last_drops[idx], drops);
        drops.saturating_sub(last) >= DROP_THRESHOLD
    }

    fn quarantine(&mut self, sim: &mut FabricSim, idx: usize) -> Result<bool, Infallible> {
        Ok(!matches!(
            sim.quarantine_fabric_link(idx),
            Err(FabricError::QuarantineWouldPartition { .. })
        ))
    }

    fn probe(&mut self, sim: &mut FabricSim, idx: usize) -> Result<bool, Infallible> {
        Ok(sim.probe_fabric_link(idx).unwrap_or(false))
    }

    fn release(&mut self, sim: &mut FabricSim, idx: usize) -> Result<(), Infallible> {
        let _ = sim.release_fabric_link(idx);
        Ok(())
    }
}

/// The fabric-link monitor.
pub type FabricMonitor = WindowMonitor<FabricLinks>;

/// Call once per cycle after [`FabricSim::step`]; runs a breaker window at
/// each window boundary.
pub fn poll_window(monitor: &mut FabricMonitor, sim: &mut FabricSim) {
    let now = sim.cycle();
    let Ok(()) = monitor.poll_due(sim, now);
}

/// Drives `cycles` cycles of patrol traffic and monitoring: each window
/// submits one 1-flit transfer between every ordered pair of devices
/// (egress port to ingress port, so the die legs are skipped and every
/// fabric path is exercised), steps the fabric, and polls the breakers.
pub fn run_detection(monitor: &mut FabricMonitor, sim: &mut FabricSim, cycles: u64) {
    let end = sim.cycle() + cycles;
    let mut next_patrol = sim.cycle();
    while sim.cycle() < end {
        if sim.cycle() >= next_patrol {
            next_patrol = sim.cycle() + WINDOW_CYCLES;
            let devices = sim.config().devices;
            for a in 0..devices {
                for b in 0..devices {
                    if a != b {
                        let _ = sim.submit(
                            a,
                            NodeId::new(0),
                            b,
                            NodeId::new(0),
                            1,
                            PacketClass::Request,
                        );
                    }
                }
            }
        }
        sim.step();
        poll_window(monitor, sim);
        // Event-engine skip between patrol rounds. Capped at the next
        // patrol submission and one cycle short of the breaker window, so
        // the iteration that submits (and the step whose post-cycle reaches
        // the window) still run live — identical scheduling to cycle-exact
        // stepping.
        sim.skip_quiet(
            end.min(next_patrol)
                .min(monitor.next_window().saturating_sub(1)),
        );
    }
}

/// Links whose breaker has opened at least once, as
/// `(a, b, first_open_cycle)` triples — for scoring against a ground-truth
/// plan.
pub fn detected_links(monitor: &FabricMonitor) -> Vec<(u32, u32, u64)> {
    let links = &monitor.resources().links;
    monitor
        .detected()
        .into_iter()
        .map(|(li, at)| (links[li].0, links[li].1, at))
        .collect()
}

/// Devices with no closed-breaker fabric link left: reliable coverage
/// cannot reach them and any quarantine completing the isolation was
/// refused. Reported, never silently dropped.
fn partitioned_devices(monitor: &FabricMonitor, devices: u32) -> Vec<u32> {
    let links = &monitor.resources().links;
    (0..devices)
        .filter(|&d| {
            let incident: Vec<usize> = (0..links.len())
                .filter(|&li| links[li].0 == d || links[li].1 == d)
                .collect();
            !incident.is_empty()
                && incident
                    .iter()
                    .all(|&li| monitor.state(li) != BreakerState::Closed)
        })
        .collect()
}

/// The full report of a fabric detection run.
pub fn health_report(monitor: &FabricMonitor, sim: &FabricSim) -> FabricHealthReport {
    FabricHealthReport {
        windows: monitor.windows(),
        detections: monitor.detections(),
        transitions: monitor.transitions().to_vec(),
        quarantined: sim
            .quarantined_fabric_links()
            .into_iter()
            .map(|li| monitor.resources().links[li])
            .collect(),
        refusals: monitor.refused().len() as u64,
        partitioned_devices: partitioned_devices(monitor, sim.config().devices),
    }
}
