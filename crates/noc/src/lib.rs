//! # gnoc-noc
//!
//! Cycle-level network-on-chip simulation for Section VI of *Uncovering Real
//! GPU NoC Characteristics* (MICRO 2024) — the architectural-implication
//! experiments that the paper itself runs in simulation:
//!
//! - [`Mesh`] — input-buffered 2D mesh with XY routing, wormhole link
//!   serialisation, back-pressure, and [`ArbiterKind::RoundRobin`] vs
//!   [`ArbiterKind::AgeBased`] output arbitration;
//! - [`Crossbar`] — the single-hop contrast that provides uniform bandwidth
//!   (Implication #6);
//! - [`run_fairness`] — the Fig. 23 throughput-fairness experiment;
//! - [`HierCrossbar`] — a cycle-level two-stage hierarchical crossbar with
//!   configurable uplink speedup, the organisation real GPUs use;
//! - [`loadcurve`] — offered-load vs latency/throughput sweeps;
//! - [`run_memsim`] — the Fig. 21 request/reply memory-utilisation
//!   experiment with a tunable NoC↔MEM reply interface;
//! - [`priorwork`] — the Fig. 22 "network wall" survey.
//!
//! ```
//! use gnoc_noc::{run_fairness, run_memsim, ArbiterKind, FairnessConfig, MemSimConfig, MemSimNets};
//! use gnoc_telemetry::TelemetryHandle;
//!
//! let off = TelemetryHandle::disabled();
//! let fairness = |arbiter| run_fairness(FairnessConfig::paper(arbiter), 0, off.clone(), false).0;
//! assert!(fairness(ArbiterKind::AgeBased).unfairness < fairness(ArbiterKind::RoundRobin).unfairness);
//!
//! let under = run_memsim(MemSimConfig::underprovisioned(), 0, MemSimNets::Split, &off);
//! let provisioned = run_memsim(MemSimConfig::provisioned(), 0, MemSimNets::Split, &off);
//! assert!(provisioned.mean_utilization > under.mean_utilization);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod crossbar;
mod error;
mod hier;
pub mod loadcurve;
mod memsim;
mod mesh;
mod packet;
pub mod priorwork;
mod reliable;
mod slab;
mod traffic;

pub use arbiter::{Arbiter, ArbiterKind};
pub use crossbar::{Crossbar, CrossbarConfig, CrossbarStats};
pub use error::{LossReason, NocError};
pub use hier::{HierConfig, HierCrossbar};
pub use memsim::{run_memsim, MemSimConfig, MemSimNets, MemSimResult};
pub use mesh::{
    check_mesh_dims, event_skip_enabled, Engine, Mesh, MeshConfig, MeshStats, RouteOrder,
    MAX_NODES, NUM_PORTS,
};
pub use packet::{NodeId, Packet, PacketClass};
pub use reliable::{ReliabilityStats, ReliableMesh, RetryConfig, TransferId, TransferOutcome};
pub use traffic::{
    fabric_soak, mesh_soak, run_fairness, FairnessConfig, FairnessResult, SoakTransfer,
};
