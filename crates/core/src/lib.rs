//! # gnoc
//!
//! A full Rust reproduction of *Uncovering Real GPU NoC Characteristics:
//! Implications on Interconnect Architecture* (MICRO 2024), built against a
//! mechanistic virtual-GPU substrate (no GPU hardware required).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Area | Crate | Entry points |
//! |---|---|---|
//! | Device structure | [`topo`] | [`GpuSpec`], [`Hierarchy`], [`Floorplan`] |
//! | Virtual device | [`engine`] | [`GpuDevice`], [`FabricModel`], [`CtaScheduler`] |
//! | Paper methodology | [`microbench`] | [`LatencyProbe`], [`input_speedups`] |
//! | Statistics | [`analysis`] | [`pearson`], [`Histogram`], [`LinearFit`] |
//! | Side channels | [`sidechannel`] | [`run_aes_attack`], [`run_rsa_attack`] |
//! | Cycle-level NoC | [`noc`] | [`Mesh`], [`run_fairness`], [`run_memsim`] |
//! | Workloads | [`workloads`] | BFS / Gaussian / streaming traces |
//! | Observability | [`telemetry`] | [`TelemetryHandle`], [`MetricRegistry`], [`JsonlWriter`] |
//! | Parallel execution | [`par`] | [`WorkerPool`], [`resolve_jobs`], [`CheckpointedCampaign::run`] |
//! | Self-healing | [`health`] | [`SelfHealingMesh`], [`CircuitBreaker`], [`WindowMonitor`] |
//! | Multi-GPU fabric | [`fabric`] | [`FabricSim`], [`FabricTopology`], [`FabricMonitor`] |
//!
//! Quick start (the paper's Observation #1 in five lines):
//!
//! ```
//! use gnoc_core::{GpuDevice, LatencyProbe, SliceId, SmId};
//!
//! let mut gpu = GpuDevice::v100(0);
//! let probe = LatencyProbe::default();
//! let near = probe.measure_pair(&mut gpu, SmId::new(24), SliceId::new(0));
//! let profile = probe.sm_profile(&mut gpu, SmId::new(24));
//! let spread = profile.iter().cloned().fold(0.0, f64::max)
//!     - profile.iter().cloned().fold(f64::INFINITY, f64::min);
//! assert!(spread > 30.0); // non-uniform latency
//! assert!(near > 170.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod checkpoint;
pub mod soak;
pub mod trace_digest;

/// Crash-safe file primitives, re-exported from `gnoc-faults` (the lowest
/// crate that persists artifacts) so every layer shares one implementation.
pub mod fsio {
    pub use gnoc_faults::fsio::{atomic_write, remove_orphan_tmp, tmp_sibling};
}

pub use campaign::{infer_placement, LatencyCampaign, PlacementReport};
pub use checkpoint::{
    device_for_preset, row_seed, spec_for_preset, CheckpointError, CheckpointedCampaign,
    CoverageReport, CHECKPOINT_VERSION,
};
pub use gnoc_faults::fsio::{atomic_write, remove_orphan_tmp, tmp_sibling};

pub use gnoc_analysis as analysis;
pub use gnoc_engine as engine;
pub use gnoc_fabric as fabric;
pub use gnoc_faults as faults;
pub use gnoc_health as health;
pub use gnoc_microbench as microbench;
pub use gnoc_noc as noc;
pub use gnoc_par as par;
pub use gnoc_sidechannel as sidechannel;
pub use gnoc_telemetry as telemetry;
pub use gnoc_topo as topo;
pub use gnoc_trace as trace;
pub use gnoc_workloads as workloads;

// Flat re-exports of the most-used types.
pub use gnoc_analysis::profile::ProfileReport;
pub use gnoc_analysis::{
    correlation_matrix, pearson, render_heatmap, Histogram, LinearFit, Summary,
};
pub use gnoc_engine::{
    AccessKind, AddressMap, Calibration, CtaScheduler, FabricModel, FlowSpec, GpuDevice,
};
pub use gnoc_fabric::{
    FabricConfig, FabricHealthReport, FabricMonitor, FabricSim, FabricStats, FabricTransferId,
};
pub use gnoc_faults::{
    fabric_connected, mesh_connected, FabricFaults, FaultGenConfig, FaultPlan, FaultPlanError,
    FlakyBurst, FloorSweep, RegionFault, SweepError,
};
pub use gnoc_health::{BreakerState, CircuitBreaker, HealthReport, SelfHealingMesh, WindowMonitor};
pub use gnoc_microbench::{input_speedups, LatencyProbe, SpeedupReport};
pub use gnoc_noc::{
    run_fairness, run_memsim, ArbiterKind, FairnessConfig, LossReason, MemSimConfig, MemSimNets,
    Mesh, MeshConfig, NocError, ReliableMesh, RetryConfig, TransferOutcome,
};
pub use gnoc_par::{resolve_jobs, PoolPanic, WorkerPool};
pub use gnoc_sidechannel::{
    run_aes_attack, run_rsa_attack, Aes128, AesAttackConfig, RsaAttackConfig,
};
pub use gnoc_telemetry::{
    FlightRecorder, JsonlWriter, LogHistogram, MetricRegistry, StallKind, Telemetry,
    TelemetryHandle, TraceEvent,
};
pub use gnoc_topo::{
    CachePolicy, CpcId, FabricTopology, Floorplan, Generation, GpcId, GpuSpec, Hierarchy, MpId,
    PartitionId, SliceId, SmId, TpcId,
};
