//! Fabric configuration and error types.

use gnoc_faults::FaultPlanError;
use gnoc_noc::{ArbiterKind, MeshConfig, NocError, RetryConfig};
use gnoc_topo::FabricTopology;
use serde::{Deserialize, Serialize};

/// Configuration for a multi-device fabric simulation.
///
/// The per-link timing model follows the paper's observation that
/// inter-device links are an order of magnitude slower than on-die mesh
/// links: a crossing serializes at [`FabricConfig::flit_cycles`] cycles per
/// flit (vs one flit per cycle on the die) and then pays a fixed
/// [`FabricConfig::link_latency_cycles`] propagation delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Number of GPU devices (each a full per-die mesh). Must be ≥ 2 and
    /// supported by `topology` ([`FabricTopology::supports_devices`]).
    pub devices: u32,
    /// How the devices are wired together.
    pub topology: FabricTopology,
    /// Per-die mesh configuration (every device gets an identical die).
    pub mesh: MeshConfig,
    /// Retry/watchdog policy for the intra-die transfer legs.
    pub retry: RetryConfig,
    /// Fixed propagation delay of one fabric-link crossing, cycles.
    pub link_latency_cycles: u64,
    /// Serialization cost per flit on a fabric link, cycles. A link is busy
    /// (per direction) for `flits × flit_cycles` cycles per packet.
    pub flit_cycles: u64,
    /// Crossing attempts allowed per hop before the transfer is written off
    /// as `RetriesExhausted`. Together with
    /// [`FabricConfig::hop_retry_backoff_cycles`] this budget is sized to
    /// outlive breaker-driven failover (see DESIGN.md): 64 × 16 = 1024
    /// cycles, comfortably past the two 256-cycle failing windows the
    /// breaker needs to quarantine a dead link and reroute around it.
    pub max_hop_retries: u32,
    /// Cycles between crossing attempts after a fabric-link drop.
    pub hop_retry_backoff_cycles: u64,
    /// When `true`, fabric routing does **not** see the fault plan: routes
    /// avoid only quarantined links (driven by
    /// [`FabricMonitor`](crate::FabricMonitor)), mirroring
    /// `Mesh::set_self_healing`. When `false` (the default), routes react to
    /// fault onsets the cycle they manifest.
    pub self_healing: bool,
}

impl FabricConfig {
    /// A paper-scale configuration: `devices` dies of the chaos harness's
    /// 5×5 mesh, joined by `topology`.
    pub fn new(devices: u32, topology: FabricTopology) -> Self {
        Self {
            devices,
            topology,
            mesh: MeshConfig {
                width: 5,
                height: 5,
                ..MeshConfig::paper_6x6(ArbiterKind::RoundRobin)
            },
            retry: RetryConfig::default(),
            link_latency_cycles: 8,
            flit_cycles: 4,
            max_hop_retries: 64,
            hop_retry_backoff_cycles: 16,
            self_healing: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Config`] when a field is out of range or the
    /// topology does not support the device count.
    pub fn validate(&self) -> Result<(), FabricError> {
        if !self.topology.supports_devices(self.devices) {
            return Err(FabricError::Config(format!(
                "topology {} does not support {} devices",
                self.topology, self.devices
            )));
        }
        if self.flit_cycles == 0 {
            return Err(FabricError::Config("flit_cycles must be ≥ 1".into()));
        }
        if self.hop_retry_backoff_cycles == 0 {
            return Err(FabricError::Config(
                "hop_retry_backoff_cycles must be ≥ 1".into(),
            ));
        }
        self.mesh.validate().map_err(FabricError::Noc)?;
        Ok(())
    }
}

/// Errors from the fabric layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// An underlying mesh error.
    Noc(NocError),
    /// The fault plan's fabric section is invalid for this topology.
    Plan(FaultPlanError),
    /// A configuration field is out of range.
    Config(String),
    /// A device index was out of range.
    DeviceOutOfRange {
        /// The offending index.
        device: u32,
        /// Configured device count.
        devices: u32,
    },
    /// A fabric-link index was out of range.
    LinkOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of fabric links in the topology.
        links: usize,
    },
    /// Quarantining this link would disconnect the fabric, so the request
    /// was refused (mirrors `NocError::QuarantineWouldDisconnect`).
    QuarantineWouldPartition {
        /// Lower endpoint of the refused link.
        a: u32,
        /// Higher endpoint of the refused link.
        b: u32,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Noc(e) => write!(f, "{e}"),
            Self::Plan(e) => write!(f, "{e}"),
            Self::Config(msg) => write!(f, "fabric config: {msg}"),
            Self::DeviceOutOfRange { device, devices } => {
                write!(f, "device {device} out of range (fabric has {devices})")
            }
            Self::LinkOutOfRange { index, links } => {
                write!(f, "fabric link {index} out of range (fabric has {links})")
            }
            Self::QuarantineWouldPartition { a, b } => write!(
                f,
                "refusing to quarantine fabric link {a}<->{b}: it would partition the fabric"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<NocError> for FabricError {
    fn from(e: NocError) -> Self {
        Self::Noc(e)
    }
}

impl From<FaultPlanError> for FabricError {
    fn from(e: FaultPlanError) -> Self {
        Self::Plan(e)
    }
}
