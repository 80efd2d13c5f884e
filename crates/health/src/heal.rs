//! Self-healing drivers: patrol traffic, window-paced monitoring, and the
//! serializable health report.
//!
//! [`SelfHealingMesh`] owns a [`ReliableMesh`] in self-healing mode (the
//! fault plan is physically applied but routing is *not* told about it) plus
//! a [`WindowMonitor`] over its [`MeshLinks`]. It keeps a round of patrol
//! transfers in flight — one transfer per adjacent router pair, so every
//! directed link carries traffic — and polls the monitor every
//! [`WINDOW_CYCLES`](crate::WINDOW_CYCLES) cycles. Detection therefore
//! emerges purely from observed drop counters.

use crate::monitor::{Detection, L2Slices, MeshLinks, Quarantine, TransitionRecord, WindowMonitor};
use gnoc_engine::{DeviceError, GpuDevice};
use gnoc_faults::{Direction, FaultPlan};
use gnoc_noc::{Mesh, MeshConfig, NocError, NodeId, PacketClass, ReliableMesh, RetryConfig};
use gnoc_topo::{GpuSpec, SmId};
use serde::{Deserialize, Serialize};

/// Deterministic patrol pairs: one `(src, dst)` per directed adjacent link,
/// in router-major, port order. Under dimension-ordered routing each pair's
/// packet crosses exactly the link connecting it, so a full round exercises
/// every directed link in the mesh.
pub fn patrol_pairs(width: usize, height: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for r in 0..(width * height) as u32 {
        for dir in Direction::ALL {
            if let Some(n) = dir.neighbour(r, width as u32, height as u32) {
                pairs.push((NodeId::new(r), NodeId::new(n)));
            }
        }
    }
    pairs
}

/// Everything a detection run learned, serializable for reports and the
/// chaos oracle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Mesh cycles simulated.
    pub cycles: u64,
    /// Health windows completed.
    pub windows: u64,
    /// Patrol rounds submitted.
    pub patrol_rounds: u64,
    /// Resources whose breaker opened at least once.
    pub detections: Vec<Detection>,
    /// Every breaker transition, in order.
    pub transitions: Vec<TransitionRecord>,
    /// Resources quarantined at the end of the run.
    pub quarantined_now: Vec<String>,
    /// Quarantines refused because they would disconnect or empty the
    /// resource pool.
    pub refused: Vec<String>,
    /// Patrol transfers delivered.
    pub delivered: u64,
    /// Patrol transfers lost (all causes).
    pub lost: u64,
    /// Retransmissions spent — part of the recovery cost.
    pub retries: u64,
    /// Route-table rebuilds — the other part of the recovery cost.
    pub reroutes: u64,
}

/// A [`ReliableMesh`] under online health monitoring, with the fault plan
/// hidden from the routing layer.
#[derive(Debug)]
pub struct SelfHealingMesh {
    rm: ReliableMesh,
    monitor: WindowMonitor<MeshLinks>,
    patrol: Vec<(NodeId, NodeId)>,
    patrol_rounds: u64,
}

impl SelfHealingMesh {
    /// Builds a mesh in self-healing mode and applies `plan` to it. Faults
    /// physically happen (packets die on dead links) but the route tables
    /// are never recomputed from the plan — only from quarantine decisions
    /// the monitor makes.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] if the mesh config or plan is invalid.
    pub fn new(
        mesh_cfg: MeshConfig,
        plan: &FaultPlan,
        retry: RetryConfig,
    ) -> Result<Self, NocError> {
        let mut mesh = Mesh::try_new(mesh_cfg)?;
        mesh.set_self_healing(true);
        mesh.apply_fault_plan(plan)?;
        let num_routers = mesh_cfg.width * mesh_cfg.height;
        Ok(Self {
            rm: ReliableMesh::new(mesh, retry),
            monitor: WindowMonitor::new(MeshLinks::new(num_routers)),
            patrol: patrol_pairs(mesh_cfg.width, mesh_cfg.height),
            patrol_rounds: 0,
        })
    }

    /// The monitored reliable mesh.
    pub fn rm(&self) -> &ReliableMesh {
        &self.rm
    }

    /// Mutable access (telemetry attachment etc.).
    pub fn rm_mut(&mut self) -> &mut ReliableMesh {
        &mut self.rm
    }

    /// Selects the engine of the monitored mesh ([`ReliableMesh::set_engine`]).
    pub fn set_engine(&mut self, engine: gnoc_noc::Engine) {
        self.rm.set_engine(engine);
    }

    /// Consumes the healer, returning the underlying reliable mesh with its
    /// quarantines (and self-healing mode) still in force — for handing
    /// detected-and-healed fabric to ordinary traffic.
    pub fn into_mesh(self) -> ReliableMesh {
        self.rm
    }

    /// One simulation step; polls the monitor at window boundaries.
    ///
    /// # Errors
    ///
    /// Propagates monitor reconfiguration errors.
    pub fn step(&mut self) -> Result<(), NocError> {
        self.rm.step();
        let seen = self.monitor.transitions().len();
        let now = self.rm.mesh().cycle();
        self.monitor.poll_due(&mut self.rm, now)?;
        // Breaker transitions land on the flight-recorder timeline, so a
        // profiled healing episode shows quarantine decisions alongside the
        // per-message stalls they cause and cure.
        if let Some(rec) = self.rm.mesh_mut().flight_recorder_mut() {
            for t in &self.monitor.transitions()[seen..] {
                rec.note(
                    gnoc_telemetry::TraceEvent::new(t.at, "health", "breaker_transition")
                        .with("resource", t.resource.clone())
                        .with("from", format!("{:?}", t.from))
                        .with("to", format!("{:?}", t.to)),
                );
            }
        }
        Ok(())
    }

    /// Runs until `run_cycles` mesh cycles have elapsed, keeping patrol
    /// traffic in flight: whenever the previous round fully resolves, the
    /// next round (one transfer per directed adjacent pair) is submitted.
    ///
    /// # Errors
    ///
    /// Propagates monitor reconfiguration errors.
    pub fn run_detection(&mut self, run_cycles: u64) -> Result<(), NocError> {
        while self.rm.mesh().cycle() < run_cycles {
            if self.rm.outstanding() == 0 {
                for &(src, dst) in &self.patrol {
                    self.rm.submit(src, dst, 1, PacketClass::Request);
                }
                self.patrol_rounds += 1;
            }
            self.step()?;
            if self.rm.outstanding() > 0 {
                // Event-engine skip across protocol-quiet spans. Capped one
                // cycle short of the monitor window so the step whose
                // post-cycle hits `next_window` still runs (and polls) live,
                // exactly as under cycle-exact stepping.
                self.rm
                    .skip_quiet(run_cycles.min(self.monitor.next_window().saturating_sub(1)));
            }
        }
        Ok(())
    }

    /// The run's health report.
    pub fn report(&self) -> HealthReport {
        let stats = self.rm.stats();
        HealthReport {
            cycles: self.rm.mesh().cycle(),
            windows: self.monitor.windows(),
            patrol_rounds: self.patrol_rounds,
            detections: self.monitor.detections(),
            transitions: self.monitor.transitions().to_vec(),
            quarantined_now: self
                .rm
                .mesh()
                .quarantined_links()
                .into_iter()
                .map(|(r, d)| format!("link {r}:{d:?}"))
                .collect(),
            refused: self
                .monitor
                .refused()
                .iter()
                .map(|&idx| self.monitor.resources().name(idx))
                .collect(),
            delivered: stats.delivered,
            lost: stats.lost_total(),
            retries: stats.retries,
            reroutes: self.rm.mesh().stats().reroutes,
        }
    }

    /// Links whose breaker first opened, as `(router, dir, cycle)` triples.
    pub fn detected_links(&self) -> Vec<(u32, Direction, u64)> {
        self.monitor
            .detected()
            .into_iter()
            .map(|(idx, at)| {
                let (router, dir) = MeshLinks::link(idx);
                (router, dir, at)
            })
            .collect()
    }
}

/// Runs `windows` health windows of slice probing against a device built
/// with latent faults ([`GpuDevice::with_latent_faults`]) and returns the
/// monitor plus per-window report data.
///
/// # Errors
///
/// Propagates [`DeviceError`] from release remaps.
pub fn run_slice_detection(
    dev: &mut GpuDevice,
    windows: u64,
) -> Result<WindowMonitor<L2Slices>, DeviceError> {
    let sm = SmId::new(0);
    let mut monitor = WindowMonitor::new(L2Slices::new(dev.hierarchy().num_slices(), sm));
    for _ in 0..windows {
        monitor.poll(dev)?;
    }
    Ok(monitor)
}

/// Convenience wrapper: build a latent-fault device for `spec`, run slice
/// detection, and return `(device, monitor)`.
///
/// # Errors
///
/// Propagates device construction and monitor errors.
pub fn run_slice_detection_for_spec(
    spec: GpuSpec,
    plan: &FaultPlan,
    seed: u64,
    windows: u64,
) -> Result<(GpuDevice, WindowMonitor<L2Slices>), DeviceError> {
    let mut dev = GpuDevice::with_latent_faults(spec, plan, seed)?;
    let monitor = run_slice_detection(&mut dev, windows)?;
    Ok((dev, monitor))
}
