//! The soaks every front end drives: the paper's 6×6 reliable mesh and the
//! multi-die fabric, each with its seeded traffic and cycle budget. The
//! CLI, the daemon and [`crate::trace_digest::replay`] build them here, so
//! a seed names the same transfers on every path.

use gnoc_fabric::{FabricConfig, FabricSim};
use gnoc_faults::FaultPlan;
use gnoc_noc::{
    fabric_soak, mesh_soak, ArbiterKind, Engine, MeshConfig, PacketClass, ReliableMesh, RetryConfig,
};
use gnoc_topo::FabricTopology;

/// The cycle budget a soak quiesces under, and so does the replay of its
/// recording.
pub const SOAK_CYCLE_BUDGET: u64 = 2_000_000;

/// A reliable-mesh soak: `transfers` one-flit requests of the seeded
/// [`mesh_soak`] under the default retry policy.
#[derive(Debug, Clone, Copy)]
pub struct MeshSoak {
    /// The mesh the soak runs on.
    pub cfg: MeshConfig,
    /// Traffic seed.
    pub seed: u64,
    /// Transfers submitted.
    pub transfers: usize,
    /// The engine the mesh steps on.
    pub engine: Engine,
}

impl MeshSoak {
    /// The soak on the paper's 6×6 mesh (Fig. 23).
    #[must_use]
    pub fn paper(arbiter: ArbiterKind, seed: u64, transfers: usize, engine: Engine) -> Self {
        Self {
            cfg: MeshConfig::paper_6x6(arbiter),
            seed,
            transfers,
            engine,
        }
    }

    /// Builds the mesh with `plan` applied (no plan: a fault-free mesh),
    /// on the soak's engine.
    ///
    /// # Errors
    ///
    /// Says why the mesh size or the plan does not fit.
    pub fn build(&self, plan: Option<&FaultPlan>) -> Result<ReliableMesh, String> {
        let mut rm = ReliableMesh::with_faults(
            self.cfg,
            plan.unwrap_or(&FaultPlan::none()),
            RetryConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        rm.set_engine(self.engine);
        Ok(rm)
    }

    /// Submits the soak's transfers into `rm` and runs it until quiescent
    /// under [`SOAK_CYCLE_BUDGET`]. Returns `true` when it quiesced.
    pub fn run(&self, rm: &mut ReliableMesh) -> bool {
        let nodes = self.cfg.num_nodes() as u64;
        for (src, dst) in mesh_soak(self.seed, nodes).take(self.transfers) {
            rm.submit(src, dst, 1, PacketClass::Request);
        }
        rm.run_until_quiescent(SOAK_CYCLE_BUDGET)
    }
}

/// A multi-die fabric soak: `transfers` requests of the seeded
/// [`fabric_soak`], quiescing under `cycles`.
#[derive(Debug, Clone)]
pub struct FabricSoak {
    /// The fabric the soak runs on.
    pub cfg: FabricConfig,
    /// Traffic seed.
    pub seed: u64,
    /// Transfers submitted.
    pub transfers: usize,
    /// Cycle budget of [`FabricSoak::run`].
    pub cycles: u64,
    /// The engine every die steps on.
    pub engine: Engine,
}

impl FabricSoak {
    /// `devices` dies configured as `die`, joined by `topology`, quiescing
    /// under [`SOAK_CYCLE_BUDGET`].
    #[must_use]
    pub fn new(
        devices: u32,
        topology: FabricTopology,
        die: MeshConfig,
        seed: u64,
        transfers: usize,
        engine: Engine,
    ) -> Self {
        let mut cfg = FabricConfig::new(devices, topology);
        cfg.mesh = die;
        Self {
            cfg,
            seed,
            transfers,
            cycles: SOAK_CYCLE_BUDGET,
            engine,
        }
    }

    /// Builds the fabric with `plan` applied (no plan: a fault-free fabric),
    /// on the soak's engine.
    ///
    /// # Errors
    ///
    /// Says why the configuration or the plan does not fit.
    pub fn build(&self, plan: Option<&FaultPlan>) -> Result<FabricSim, String> {
        let mut sim = FabricSim::with_faults(self.cfg.clone(), plan.unwrap_or(&FaultPlan::none()))
            .map_err(|e| {
                format!(
                    "cannot build the {}-device {} fabric: {e}",
                    self.cfg.devices, self.cfg.topology
                )
            })?;
        sim.set_engine(self.engine);
        Ok(sim)
    }

    /// Submits the soak's transfers into `sim` without running it.
    ///
    /// # Errors
    ///
    /// Says why the fabric refused a transfer (an endpoint out of range).
    pub fn submit(&self, sim: &mut FabricSim) -> Result<(), String> {
        let nodes = self.cfg.mesh.num_nodes() as u64;
        for t in fabric_soak(self.seed, self.cfg.devices, nodes).take(self.transfers) {
            sim.submit(
                t.src_dev,
                t.src,
                t.dst_dev,
                t.dst,
                t.flits,
                PacketClass::Request,
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Submits the soak's transfers and runs `sim` until quiescent under
    /// `cycles`. Returns `true` when it quiesced.
    ///
    /// # Errors
    ///
    /// As [`FabricSoak::submit`].
    pub fn run(&self, sim: &mut FabricSim) -> Result<bool, String> {
        self.submit(sim)?;
        Ok(sim.run_until_quiescent(self.cycles))
    }
}
