//! # gnoc-faults
//!
//! Deterministic, seedable fault-injection plans for the `gnoc` workspace.
//!
//! Real GPUs are harvested silicon (the A100 ships with 108 of 128 SMs and 10
//! of 12 memory partitions enabled) and real interconnects degrade: links
//! die, routers stall, flits are dropped or corrupted in flight. A
//! [`FaultPlan`] captures all of that in one serialisable description:
//!
//! - a [`FloorSweep`] fusing off TPCs/GPCs/MPs (consumed by `gnoc-topo`);
//! - disabled L2 slices, which `gnoc-engine` remaps the address hash around;
//! - [`LinkFault`]s (dead or flaky mesh links) and [`RouterStall`]s with an
//!   onset cycle, consumed by the `gnoc-noc` mesh;
//! - [`TransientFaults`] — die-wide flit drop/corruption probabilities.
//!
//! Plans are plain data: same plan + same seed ⇒ bit-identical simulation.
//! [`FaultPlan::generate`] builds a random plan from a [`FaultGenConfig`]
//! while *guaranteeing the surviving mesh stays connected*, so every
//! generated plan is survivable by reroute + retry rather than a guaranteed
//! partition of the network.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fsio;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::Path;

pub use gnoc_topo::{FabricTopology, FloorSweep, SweepError};

/// A mesh link direction, from the perspective of the source router. The
/// convention matches the `gnoc-noc` mesh: north is towards *higher* row
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards row `y + 1`.
    North,
    /// Towards column `x + 1`.
    East,
    /// Towards row `y - 1`.
    South,
    /// Towards column `x - 1`.
    West,
}

impl Direction {
    /// All four directions, in the mesh's port order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The direction a neighbour uses for the same physical link.
    pub fn opposite(self) -> Self {
        match self {
            Self::North => Self::South,
            Self::East => Self::West,
            Self::South => Self::North,
            Self::West => Self::East,
        }
    }

    /// The router reached by leaving `router` this way on a `width`×`height`
    /// mesh, or `None` at the mesh edge.
    pub fn neighbour(self, router: u32, width: u32, height: u32) -> Option<u32> {
        let (x, y) = (router % width, router / width);
        match self {
            Self::North => (y + 1 < height).then(|| (y + 1) * width + x),
            Self::South => y.checked_sub(1).map(|y| y * width + x),
            Self::West => x.checked_sub(1).map(|x| y * width + x),
            Self::East => (x + 1 < width).then(|| y * width + x + 1),
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::North => "north",
            Self::East => "east",
            Self::South => "south",
            Self::West => "west",
        };
        f.write_str(s)
    }
}

/// What is wrong with a faulted link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkFaultKind {
    /// The link never transfers a flit again after the fault's onset.
    Dead,
    /// The link drops each flit independently with this probability.
    Flaky {
        /// Per-flit drop probability in `[0, 1]`.
        drop_prob: f64,
    },
}

/// A fault on one directed mesh link.
///
/// A physically dead link kills both directions; [`FaultPlan::generate`]
/// emits the two directed entries explicitly so a plan can also model
/// asymmetric (one-way) degradation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Source router index (`y * width + x`).
    pub router: u32,
    /// Outgoing direction of the faulted link.
    pub dir: Direction,
    /// Dead or flaky.
    pub kind: LinkFaultKind,
    /// Cycle at which the fault manifests (0 = from the start).
    pub onset: u64,
}

/// A correlated regional failure: a cluster of dead links concentrated
/// around one router, the way a localised manufacturing defect or a hot spot
/// kills silicon — neighbouring links fail together, not independently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionFault {
    /// Centre router of the damaged region (`y * width + x`).
    pub center: u32,
    /// Manhattan radius around the centre; only edges with both endpoints
    /// inside the region are candidates.
    pub radius: u32,
    /// Fraction of the region's undirected edges to kill (connectivity
    /// permitting, like [`FaultGenConfig::dead_link_fraction`]).
    pub dead_fraction: f64,
}

/// A flaky-link burst: a contiguous cluster of links that all turn flaky at
/// the same cycle — the signature of a marginal power rail or a shared
/// repeater bank degrading, as opposed to independent single-link flakiness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlakyBurst {
    /// Number of directed links in the burst cluster.
    pub links: u32,
    /// Per-flit drop probability of every link in the burst.
    pub drop_prob: f64,
    /// Cycle at which the whole burst manifests at once.
    pub onset: u64,
}

/// A router that stops arbitrating (all its outputs freeze) for a window of
/// cycles — the NoC-level analogue of a hung pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStall {
    /// Stalled router index.
    pub router: u32,
    /// First stalled cycle.
    pub onset: u64,
    /// Number of cycles the stall lasts.
    pub duration: u64,
}

/// Die-wide transient fault rates, applied to every link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TransientFaults {
    /// Probability a flit is silently dropped on any hop.
    pub drop_prob: f64,
    /// Probability a flit's payload is corrupted on any hop (detected at the
    /// ejection port's CRC check and NACKed).
    pub corrupt_prob: f64,
    /// Cycle at which transient faults begin.
    pub onset: u64,
}

impl TransientFaults {
    /// Whether any transient fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0
    }
}

/// A fault on one undirected inter-device fabric link, named by its sorted
/// `(a, b)` fabric-node pair (devices `0..D`; the switch node is `D` for the
/// [`FabricTopology::Switch`] topology). Fabric links are full-duplex
/// channels that fail as a unit, so there is no per-direction entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricLinkFault {
    /// Lower fabric-node endpoint.
    pub a: u32,
    /// Higher fabric-node endpoint.
    pub b: u32,
    /// Dead or flaky.
    pub kind: LinkFaultKind,
    /// Cycle at which the fault manifests (0 = from the start).
    pub onset: u64,
}

/// Loss of a whole device: its die, its fabric ports, and every transfer it
/// sources or sinks — the multi-GPU analogue of a node dropping out of the
/// job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceFault {
    /// The lost device index.
    pub device: u32,
    /// First cycle the device is gone.
    pub onset: u64,
}

/// The inter-device portion of a [`FaultPlan`]: dead/flaky fabric links, an
/// optional dead switch, and whole-device losses, all with onsets. Empty for
/// single-die plans (and for every plan written before the fabric layer
/// existed — old plan files deserialize with an empty `fabric`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FabricFaults {
    /// Faulted fabric links.
    pub links: Vec<FabricLinkFault>,
    /// Cycle at which the central switch dies (only meaningful for
    /// [`FabricTopology::Switch`]); severs every device at once.
    pub dead_switch: Option<u64>,
    /// Whole-device losses.
    pub devices: Vec<DeviceFault>,
}

impl FabricFaults {
    /// Whether the fabric part injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.dead_switch.is_none() && self.devices.is_empty()
    }

    /// Whether any fabric fault draws from the fault RNG (flaky links).
    pub fn has_probabilistic_faults(&self) -> bool {
        self.links
            .iter()
            .any(|l| matches!(l.kind, LinkFaultKind::Flaky { .. }))
    }

    /// The undirected fabric links dead once every onset has passed.
    pub fn dead_links(&self) -> Vec<(u32, u32)> {
        let mut dead: Vec<(u32, u32)> = self
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Dead))
            .map(|l| (l.a.min(l.b), l.a.max(l.b)))
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// The devices lost once every onset has passed.
    pub fn dead_devices(&self) -> Vec<u32> {
        let mut dead: Vec<u32> = self.devices.iter().map(|d| d.device).collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }
}

/// A complete, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic fault draw (flaky links, transients).
    /// The same plan with the same seed produces bit-identical runs.
    pub seed: u64,
    /// Manufacturing floorsweep applied to the device hierarchy.
    pub sweep: Option<FloorSweep>,
    /// L2 slices fused off; the address hash is remapped around them.
    pub disabled_slices: Vec<u32>,
    /// Faulted mesh links.
    pub links: Vec<LinkFault>,
    /// Stalled routers.
    pub routers: Vec<RouterStall>,
    /// Die-wide transient flit faults.
    pub transient: TransientFaults,
    /// Inter-device fabric faults (empty for single-die plans).
    pub fabric: FabricFaults,
}

// Hand-rolled so plan files written before the fabric layer existed (no
// `fabric` key) still load: every pre-fabric field stays required, `fabric`
// alone defaults to empty.
impl Deserialize for FaultPlan {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            seed: Deserialize::deserialize_value(value.field("seed")?)?,
            sweep: Deserialize::deserialize_value(value.field("sweep")?)?,
            disabled_slices: Deserialize::deserialize_value(value.field("disabled_slices")?)?,
            links: Deserialize::deserialize_value(value.field("links")?)?,
            routers: Deserialize::deserialize_value(value.field("routers")?)?,
            transient: Deserialize::deserialize_value(value.field("transient")?)?,
            fabric: match value.field("fabric") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => FabricFaults::default(),
            },
        })
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Largest mesh [`check_mesh_dims`] accepts, in routers (64×64). The
/// fault-aware reroute tables take `n² · 5` bytes, ~84 MB here.
pub const MAX_NODES: usize = 4_096;

/// The one mesh-size rule: a `width × height` mesh has at most
/// [`MAX_NODES`] routers. Returns the router count. The product is checked,
/// not wrapped, and is taken before anything is sized by it: the
/// dimensions may come from a flag, a plan generator config or an untrusted
/// trace header.
///
/// # Errors
///
/// Returns [`FaultPlanError::MeshTooLarge`] when the mesh is larger than
/// [`MAX_NODES`] or its router count overflows.
pub fn check_mesh_dims(width: usize, height: usize) -> Result<usize, FaultPlanError> {
    match width.checked_mul(height) {
        Some(n) if n <= MAX_NODES => Ok(n),
        _ => Err(FaultPlanError::MeshTooLarge { width, height }),
    }
}

/// Errors validating or loading a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// The mesh has more than [`MAX_NODES`] routers.
    MeshTooLarge {
        /// Routers per row.
        width: usize,
        /// Routers per column.
        height: usize,
    },
    /// A link or stall names a router outside the mesh.
    RouterOutOfRange {
        /// The offending router index.
        router: u32,
        /// Routers in the mesh.
        num_routers: u32,
    },
    /// A link fault points off the edge of the mesh.
    LinkOffEdge {
        /// Source router.
        router: u32,
        /// Direction with no neighbour.
        dir: Direction,
    },
    /// The same directed link is faulted twice.
    DuplicateLink {
        /// Source router.
        router: u32,
        /// Direction listed twice.
        dir: Direction,
    },
    /// A probability is outside `[0, 1]`.
    BadProbability(f64),
    /// A disabled slice index is out of range for the device.
    SliceOutOfRange {
        /// The offending slice index.
        slice: u32,
        /// Slices on the device.
        num_slices: u32,
    },
    /// The same slice is disabled twice.
    DuplicateSlice(u32),
    /// A generator config field is out of range; the field is named so a
    /// CLI user can see exactly which knob to fix.
    BadGenField {
        /// Name of the offending [`FaultGenConfig`] field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Every slice is disabled — no L2 remains to home addresses.
    AllSlicesDisabled,
    /// The dead links at full onset disconnect the surviving mesh.
    MeshDisconnected,
    /// A fabric fault names a link that is not part of the topology (bad
    /// endpoints or a pair the topology never wires).
    FabricLinkUnknown {
        /// Lower endpoint of the offending pair.
        a: u32,
        /// Higher endpoint of the offending pair.
        b: u32,
    },
    /// The same undirected fabric link is faulted twice.
    FabricDuplicateLink {
        /// Lower endpoint.
        a: u32,
        /// Higher endpoint.
        b: u32,
    },
    /// A device fault names a device outside the job.
    DeviceOutOfRange {
        /// The offending device index.
        device: u32,
        /// Devices in the job.
        num_devices: u32,
    },
    /// A switch fault was given for a topology that has no switch.
    SwitchNotInTopology,
    /// The plan file could not be read or written.
    Io(String),
    /// The plan file is not valid JSON for a plan.
    Parse(String),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MeshTooLarge { width, height } => write!(
                f,
                "mesh {width}x{height} too large: more than {MAX_NODES} routers"
            ),
            Self::RouterOutOfRange {
                router,
                num_routers,
            } => write!(f, "router {router} out of range ({num_routers} routers)"),
            Self::LinkOffEdge { router, dir } => {
                write!(f, "link {dir} of router {router} points off the mesh edge")
            }
            Self::DuplicateLink { router, dir } => {
                write!(f, "link {dir} of router {router} is faulted twice")
            }
            Self::BadProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            Self::SliceOutOfRange { slice, num_slices } => {
                write!(f, "slice {slice} out of range ({num_slices} slices)")
            }
            Self::DuplicateSlice(s) => write!(f, "slice {s} disabled twice"),
            Self::BadGenField { field, value } => {
                write!(f, "generator field `{field}` = {value} is out of range")
            }
            Self::AllSlicesDisabled => write!(f, "plan disables every L2 slice"),
            Self::MeshDisconnected => {
                write!(f, "dead links disconnect the surviving mesh")
            }
            Self::FabricLinkUnknown { a, b } => {
                write!(f, "fabric link {a}\u{2194}{b} is not part of the topology")
            }
            Self::FabricDuplicateLink { a, b } => {
                write!(f, "fabric link {a}\u{2194}{b} is faulted twice")
            }
            Self::DeviceOutOfRange {
                device,
                num_devices,
            } => write!(f, "device {device} out of range ({num_devices} devices)"),
            Self::SwitchNotInTopology => {
                write!(f, "switch fault given for a topology with no switch")
            }
            Self::Io(e) => write!(f, "plan file i/o error: {e}"),
            Self::Parse(e) => write!(f, "plan file parse error: {e}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            sweep: None,
            disabled_slices: Vec::new(),
            links: Vec::new(),
            routers: Vec::new(),
            transient: TransientFaults::default(),
            fabric: FabricFaults::default(),
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_benign(&self) -> bool {
        self.sweep.as_ref().is_none_or(FloorSweep::is_empty)
            && self.disabled_slices.is_empty()
            && self.links.is_empty()
            && self.routers.is_empty()
            && !self.transient.is_active()
            && self.fabric.is_empty()
    }

    /// Whether the plan contains any probabilistic fault (and therefore draws
    /// from the fault RNG during simulation).
    pub fn has_probabilistic_faults(&self) -> bool {
        self.transient.is_active()
            || self
                .links
                .iter()
                .any(|l| matches!(l.kind, LinkFaultKind::Flaky { .. }))
            || self.fabric.has_probabilistic_faults()
    }

    /// Validates the NoC part of the plan against a `width`×`height` mesh:
    /// the mesh within [`MAX_NODES`], indices in range, links on the die,
    /// probabilities sane, no duplicate directed link, and the surviving
    /// mesh (with every dead link at full onset removed) still connected.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate_for_mesh(&self, width: u32, height: u32) -> Result<(), FaultPlanError> {
        let num_routers = check_mesh_dims(width as usize, height as usize)? as u32;
        let mut seen = std::collections::HashSet::new();
        for l in &self.links {
            if l.router >= num_routers {
                return Err(FaultPlanError::RouterOutOfRange {
                    router: l.router,
                    num_routers,
                });
            }
            if l.dir.neighbour(l.router, width, height).is_none() {
                return Err(FaultPlanError::LinkOffEdge {
                    router: l.router,
                    dir: l.dir,
                });
            }
            if !seen.insert((l.router, l.dir)) {
                return Err(FaultPlanError::DuplicateLink {
                    router: l.router,
                    dir: l.dir,
                });
            }
            if let LinkFaultKind::Flaky { drop_prob } = l.kind {
                check_prob(drop_prob)?;
            }
        }
        for r in &self.routers {
            if r.router >= num_routers {
                return Err(FaultPlanError::RouterOutOfRange {
                    router: r.router,
                    num_routers,
                });
            }
        }
        check_prob(self.transient.drop_prob)?;
        check_prob(self.transient.corrupt_prob)?;
        if !mesh_connected(width, height, &self.dead_undirected_edges(width, height)) {
            return Err(FaultPlanError::MeshDisconnected);
        }
        Ok(())
    }

    /// Validates the L2-slice part of the plan against a device with
    /// `num_slices` slices (counted after any floorsweep).
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate_for_slices(&self, num_slices: u32) -> Result<(), FaultPlanError> {
        let mut seen = std::collections::HashSet::new();
        for &s in &self.disabled_slices {
            if s >= num_slices {
                return Err(FaultPlanError::SliceOutOfRange {
                    slice: s,
                    num_slices,
                });
            }
            if !seen.insert(s) {
                return Err(FaultPlanError::DuplicateSlice(s));
            }
        }
        if num_slices > 0 && seen.len() == num_slices as usize {
            return Err(FaultPlanError::AllSlicesDisabled);
        }
        Ok(())
    }

    /// Validates the inter-device part of the plan against a fabric of
    /// `devices` GPUs in `topology`: every faulted link exists in the
    /// topology, no duplicate links, probabilities sane, device indices in
    /// range, and a switch fault only where a switch exists.
    ///
    /// Deliberately does *not* require the surviving fabric to stay
    /// connected: severed devices are a first-class scenario (reported as
    /// [`crate::FaultPlanError`]-free plans whose transfers resolve as
    /// `partitioned`), unlike a disconnected die mesh, which no transfer
    /// accounting survives. Use [`fabric_connected`] to report connectivity.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate_for_fabric(
        &self,
        devices: u32,
        topology: FabricTopology,
    ) -> Result<(), FaultPlanError> {
        let valid: std::collections::HashSet<(u32, u32)> =
            topology.links(devices).into_iter().collect();
        let mut seen = std::collections::HashSet::new();
        for l in &self.fabric.links {
            let pair = (l.a.min(l.b), l.a.max(l.b));
            if !valid.contains(&pair) {
                return Err(FaultPlanError::FabricLinkUnknown {
                    a: pair.0,
                    b: pair.1,
                });
            }
            if !seen.insert(pair) {
                return Err(FaultPlanError::FabricDuplicateLink {
                    a: pair.0,
                    b: pair.1,
                });
            }
            if let LinkFaultKind::Flaky { drop_prob } = l.kind {
                check_prob(drop_prob)?;
            }
        }
        let mut dead_devs = std::collections::HashSet::new();
        for d in &self.fabric.devices {
            if d.device >= devices {
                return Err(FaultPlanError::DeviceOutOfRange {
                    device: d.device,
                    num_devices: devices,
                });
            }
            if !dead_devs.insert(d.device) {
                return Err(FaultPlanError::DeviceOutOfRange {
                    device: d.device,
                    num_devices: devices,
                });
            }
        }
        if self.fabric.dead_switch.is_some() && topology.switch_node(devices).is_none() {
            return Err(FaultPlanError::SwitchNotInTopology);
        }
        Ok(())
    }

    /// The undirected edges `(low_router, high_router)` of a `width`×`height`
    /// mesh that are dead in *both* directions once every onset has passed —
    /// the edges connectivity must survive without. A one-way dead link leaves
    /// its edge usable (the reverse direction still moves flits).
    pub fn dead_undirected_edges(&self, width: u32, height: u32) -> Vec<(u32, u32)> {
        let dead: std::collections::HashSet<(u32, Direction)> = self
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Dead))
            .map(|l| (l.router, l.dir))
            .collect();
        let mut edges = Vec::new();
        for &(router, dir) in &dead {
            let Some(nb) = dir.neighbour(router, width, height) else {
                continue;
            };
            if dead.contains(&(nb, dir.opposite())) {
                edges.push((router.min(nb), router.max(nb)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Generates a random plan from `cfg`, deterministically in `cfg.seed`.
    /// `cfg` is trusted; [`FaultPlan::try_generate`] validates it first.
    ///
    /// Dead links are chosen so the surviving mesh remains connected: edges
    /// are visited in a seeded random order and an edge whose removal would
    /// disconnect the graph is skipped. The requested `dead_link_fraction` is
    /// therefore an upper bound near the spanning-tree limit.
    pub fn generate(cfg: &FaultGenConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6e6f_635f_6661_756c);
        let (w, h) = (cfg.width, cfg.height);

        // Undirected edges of the mesh, in a fixed base order.
        let mut edges: Vec<(u32, Direction)> = Vec::new();
        for r in 0..w * h {
            for dir in [Direction::East, Direction::North] {
                if dir.neighbour(r, w, h).is_some() {
                    edges.push((r, dir));
                }
            }
        }
        shuffle(&mut edges, &mut rng);

        let target_dead = ((edges.len() as f64) * cfg.dead_link_fraction).round() as usize;
        let mut dead_edges: Vec<(u32, u32)> = Vec::new();
        let mut links: Vec<LinkFault> = Vec::new();
        let mut killed = 0usize;
        for &(r, dir) in &edges {
            if killed >= target_dead {
                break;
            }
            let n = dir.neighbour(r, w, h).expect("edge list is on-die");
            let mut candidate = dead_edges.clone();
            candidate.push((r.min(n), r.max(n)));
            if !mesh_connected(w, h, &candidate) {
                continue; // would partition the mesh; keep this edge alive
            }
            dead_edges = candidate;
            let onset = draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng);
            links.push(LinkFault {
                router: r,
                dir,
                kind: LinkFaultKind::Dead,
                onset,
            });
            links.push(LinkFault {
                router: n,
                dir: dir.opposite(),
                kind: LinkFaultKind::Dead,
                onset,
            });
            killed += 1;
        }

        // Correlated regional failure: concentrate extra dead links inside a
        // Manhattan disc around the region centre, with the same
        // connectivity guarantee as the die-wide pass.
        if let Some(region) = cfg.region {
            let in_region = |r: u32| manhattan(r, region.center.min(w * h - 1), w) <= region.radius;
            let region_edges: Vec<(u32, Direction)> = edges
                .iter()
                .copied()
                .filter(|&(r, dir)| in_region(r) && dir.neighbour(r, w, h).is_some_and(in_region))
                .collect();
            let target = ((region_edges.len() as f64) * region.dead_fraction).round() as usize;
            let mut region_killed = 0usize;
            for &(r, dir) in &region_edges {
                if region_killed >= target {
                    break;
                }
                let n = dir.neighbour(r, w, h).expect("edge list is on-die");
                let edge = (r.min(n), r.max(n));
                if dead_edges.contains(&edge) {
                    continue; // already dead from the die-wide pass
                }
                let mut candidate = dead_edges.clone();
                candidate.push(edge);
                if !mesh_connected(w, h, &candidate) {
                    continue;
                }
                dead_edges = candidate;
                let onset = draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng);
                links.push(LinkFault {
                    router: r,
                    dir,
                    kind: LinkFaultKind::Dead,
                    onset,
                });
                links.push(LinkFault {
                    router: n,
                    dir: dir.opposite(),
                    kind: LinkFaultKind::Dead,
                    onset,
                });
                region_killed += 1;
            }
        }

        // Flaky links on surviving edges.
        let mut flaky_dirs: std::collections::HashSet<(u32, Direction)> =
            std::collections::HashSet::new();
        let mut flaky = 0u32;
        for &(r, dir) in &edges {
            if flaky >= cfg.flaky_links {
                break;
            }
            let n = dir.neighbour(r, w, h).expect("edge list is on-die");
            if dead_edges.contains(&(r.min(n), r.max(n))) {
                continue;
            }
            links.push(LinkFault {
                router: r,
                dir,
                kind: LinkFaultKind::Flaky {
                    drop_prob: cfg.flaky_drop_prob,
                },
                onset: draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng),
            });
            flaky_dirs.insert((r, dir));
            flaky += 1;
        }

        // Flaky-link burst: grow a contiguous cluster of surviving directed
        // links outward from a random router; every link in the cluster
        // shares the burst's drop probability and onset.
        if let Some(burst) = cfg.burst {
            let start = rng.gen_range(0..w * h);
            let mut seen = vec![false; (w * h) as usize];
            let mut frontier = VecDeque::from([start]);
            seen[start as usize] = true;
            let mut emitted = 0u32;
            'grow: while let Some(r) = frontier.pop_front() {
                for dir in Direction::ALL {
                    if emitted >= burst.links {
                        break 'grow;
                    }
                    let Some(n) = dir.neighbour(r, w, h) else {
                        continue;
                    };
                    if !seen[n as usize] {
                        seen[n as usize] = true;
                        frontier.push_back(n);
                    }
                    if dead_edges.contains(&(r.min(n), r.max(n))) || !flaky_dirs.insert((r, dir)) {
                        continue; // dead edge or already flaky: not a new burst member
                    }
                    links.push(LinkFault {
                        router: r,
                        dir,
                        kind: LinkFaultKind::Flaky {
                            drop_prob: burst.drop_prob,
                        },
                        onset: burst.onset,
                    });
                    emitted += 1;
                }
            }
        }

        // Stalled routers (distinct, anywhere on the die).
        let mut routers = Vec::new();
        let mut stalled = std::collections::HashSet::new();
        while (routers.len() as u32) < cfg.stalled_routers.min(w * h) {
            let r = rng.gen_range(0..w * h);
            if stalled.insert(r) {
                routers.push(RouterStall {
                    router: r,
                    onset: draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng),
                    duration: cfg.stall_duration,
                });
            }
        }
        routers.sort_unstable_by_key(|s| s.router);

        // Disabled slices (distinct, never all of them).
        let mut disabled_slices = Vec::new();
        if cfg.num_slices > 1 {
            let max_off = cfg.disabled_slice_count.min(cfg.num_slices - 1);
            let mut off = std::collections::HashSet::new();
            while (disabled_slices.len() as u32) < max_off {
                let s = rng.gen_range(0..cfg.num_slices);
                if off.insert(s) {
                    disabled_slices.push(s);
                }
            }
            disabled_slices.sort_unstable();
        }

        // Inter-device fabric faults. The whole block is skipped (zero RNG
        // draws) for single-die configs, keeping pre-fabric plans
        // bit-identical for old seeds.
        let mut fabric = FabricFaults::default();
        if cfg.devices >= 2 {
            // Dead devices first (device 0 always survives): their fabric
            // ports are gone anyway, so link faults concentrate on the
            // surviving fabric.
            let mut dead_devs: Vec<u32> = Vec::new();
            while (dead_devs.len() as u32) < cfg.dead_devices.min(cfg.devices.saturating_sub(2)) {
                let d = 1 + rng.gen_range(0..cfg.devices - 1);
                if !dead_devs.contains(&d) {
                    dead_devs.push(d);
                }
            }
            dead_devs.sort_unstable();
            for &d in &dead_devs {
                fabric.devices.push(DeviceFault {
                    device: d,
                    onset: draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng),
                });
            }

            // Dead fabric links, keeping the surviving devices connected so
            // generated plans are survivable by failover (explicit
            // partitions are built by hand, not drawn).
            let mut fabric_edges = cfg.fabric_topology.links(cfg.devices);
            shuffle(&mut fabric_edges, &mut rng);
            let mut dead_links: Vec<(u32, u32)> = Vec::new();
            for &(a, b) in &fabric_edges {
                if (dead_links.len() as u32) >= cfg.dead_fabric_links {
                    break;
                }
                let mut candidate = dead_links.clone();
                candidate.push((a, b));
                if !fabric_connected_with(
                    cfg.devices,
                    cfg.fabric_topology,
                    &candidate,
                    cfg.dead_switch,
                    &dead_devs,
                ) {
                    continue; // would sever a surviving device
                }
                dead_links = candidate;
                fabric.links.push(FabricLinkFault {
                    a,
                    b,
                    kind: LinkFaultKind::Dead,
                    onset: draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng),
                });
            }

            // Flaky fabric links on the surviving edges.
            let mut flaky = 0u32;
            for &(a, b) in &fabric_edges {
                if flaky >= cfg.flaky_fabric_links {
                    break;
                }
                if dead_links.contains(&(a, b)) {
                    continue;
                }
                fabric.links.push(FabricLinkFault {
                    a,
                    b,
                    kind: LinkFaultKind::Flaky {
                        drop_prob: cfg.fabric_flaky_drop_prob,
                    },
                    onset: draw_onset(cfg.onset, cfg.onset_storm_span, &mut rng),
                });
                flaky += 1;
            }

            if cfg.dead_switch && cfg.fabric_topology == FabricTopology::Switch {
                fabric.dead_switch = Some(cfg.onset);
            }
        }

        Self {
            seed: cfg.seed,
            sweep: cfg.sweep.clone(),
            disabled_slices,
            links,
            routers,
            transient: TransientFaults {
                drop_prob: cfg.transient_drop_prob,
                corrupt_prob: cfg.transient_corrupt_prob,
                onset: cfg.onset,
            },
            fabric,
        }
    }

    /// Validates `cfg` and then generates, so a bad knob surfaces as a typed
    /// error instead of an invalid (or silently clamped) plan.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] from [`FaultGenConfig::validate`].
    pub fn try_generate(cfg: &FaultGenConfig) -> Result<Self, FaultPlanError> {
        cfg.validate()?;
        Ok(Self::generate(cfg))
    }

    /// Serialises the plan as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, FaultPlanError> {
        serde_json::to_string_pretty(self).map_err(|e| FaultPlanError::Parse(e.to_string()))
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] on malformed input. An empty (or
    /// whitespace-only) document gets its own diagnostic naming the fields a
    /// plan must carry, so `faults check` on a truncated file says what is
    /// missing instead of a bare parser error.
    pub fn from_json(s: &str) -> Result<Self, FaultPlanError> {
        if s.trim().is_empty() {
            return Err(FaultPlanError::Parse(
                "plan file is empty — expected a JSON object with fields `seed`, `sweep`, \
                 `disabled_slices`, `links`, `routers`, `transient`"
                    .to_string(),
            ));
        }
        serde_json::from_str(s).map_err(|e| FaultPlanError::Parse(e.to_string()))
    }

    /// Writes the plan to `path` as JSON, atomically: a crash mid-save
    /// leaves either the old plan or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Io`] on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FaultPlanError> {
        let json = self.to_json()?;
        fsio::atomic_write(path.as_ref(), (json + "\n").as_bytes())
            .map_err(|e| FaultPlanError::Io(e.to_string()))
    }

    /// Reads a plan from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Io`] / [`FaultPlanError::Parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FaultPlanError> {
        let text = std::fs::read_to_string(path).map_err(|e| FaultPlanError::Io(e.to_string()))?;
        Self::from_json(&text)
    }

    /// One-line human summary of what the plan injects.
    pub fn summary(&self) -> String {
        let dead = self
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Dead))
            .count();
        let flaky = self.links.len() - dead;
        let mut s = format!(
            "seed={} sweep={} slices_off={} dead_dirs={} flaky_dirs={} stalls={} drop={:.4} corrupt={:.4}",
            self.seed,
            self.sweep.as_ref().map_or(0, FloorSweep::num_disabled),
            self.disabled_slices.len(),
            dead,
            flaky,
            self.routers.len(),
            self.transient.drop_prob,
            self.transient.corrupt_prob,
        );
        if !self.fabric.is_empty() {
            let fdead = self.fabric.dead_links().len();
            s.push_str(&format!(
                " fabric_dead={} fabric_flaky={} dead_devices={} dead_switch={}",
                fdead,
                self.fabric.links.len() - fdead,
                self.fabric.devices.len(),
                if self.fabric.dead_switch.is_some() {
                    "yes"
                } else {
                    "no"
                },
            ));
        }
        s
    }
}

/// Configuration for [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultGenConfig {
    /// Plan seed (drives both generation and later simulation draws).
    pub seed: u64,
    /// Mesh width in routers.
    pub width: u32,
    /// Mesh height in routers.
    pub height: u32,
    /// Fraction of undirected mesh links to kill (connectivity permitting).
    pub dead_link_fraction: f64,
    /// Number of directed links made flaky.
    pub flaky_links: u32,
    /// Drop probability of each flaky link.
    pub flaky_drop_prob: f64,
    /// Number of routers stalled.
    pub stalled_routers: u32,
    /// Stall duration in cycles.
    pub stall_duration: u64,
    /// Die-wide transient drop probability.
    pub transient_drop_prob: f64,
    /// Die-wide transient corruption probability.
    pub transient_corrupt_prob: f64,
    /// Onset cycle for every injected fault.
    pub onset: u64,
    /// Onset storm: when non-zero, each fault's onset is drawn independently
    /// from `onset ..= onset + onset_storm_span` instead of all faults
    /// manifesting at the same cycle — a rolling wave of failures that
    /// forces repeated route-table recomputation mid-traffic. Zero keeps the
    /// legacy shared onset (and bit-identical plans for old configs).
    pub onset_storm_span: u64,
    /// Optional correlated regional failure (a cluster of dead links around
    /// one router) layered on top of the die-wide dead-link fraction.
    pub region: Option<RegionFault>,
    /// Optional flaky-link burst (a contiguous cluster of links that all
    /// turn flaky at one cycle) layered on top of the independent flaky
    /// links.
    pub burst: Option<FlakyBurst>,
    /// L2 slices on the target device (0 = don't disable slices).
    pub num_slices: u32,
    /// Number of slices to disable.
    pub disabled_slice_count: u32,
    /// Optional floorsweep to embed in the plan.
    pub sweep: Option<FloorSweep>,
    /// Devices coupled over the inter-device fabric (0 or 1 = single-die
    /// plan, no fabric faults generated).
    pub devices: u32,
    /// Shape of the inter-device fabric (ignored when `devices < 2`).
    pub fabric_topology: FabricTopology,
    /// Number of fabric links to kill (connectivity among surviving devices
    /// permitting, like [`FaultGenConfig::dead_link_fraction`]).
    pub dead_fabric_links: u32,
    /// Number of fabric links made flaky.
    pub flaky_fabric_links: u32,
    /// Per-crossing drop probability of each flaky fabric link.
    pub fabric_flaky_drop_prob: f64,
    /// Whole devices to lose (device 0 always survives as the traffic
    /// anchor; at least two devices stay alive).
    pub dead_devices: u32,
    /// Kill the central switch (only valid for
    /// [`FabricTopology::Switch`]); severs every device at once.
    pub dead_switch: bool,
}

impl FaultGenConfig {
    /// A benign config for a `width`×`height` mesh: everything off.
    pub fn benign(seed: u64, width: u32, height: u32) -> Self {
        Self {
            seed,
            width,
            height,
            dead_link_fraction: 0.0,
            flaky_links: 0,
            flaky_drop_prob: 0.0,
            stalled_routers: 0,
            stall_duration: 0,
            transient_drop_prob: 0.0,
            transient_corrupt_prob: 0.0,
            onset: 0,
            onset_storm_span: 0,
            region: None,
            burst: None,
            num_slices: 0,
            disabled_slice_count: 0,
            sweep: None,
            devices: 0,
            fabric_topology: FabricTopology::Ring,
            dead_fabric_links: 0,
            flaky_fabric_links: 0,
            fabric_flaky_drop_prob: 0.0,
            dead_devices: 0,
            dead_switch: false,
        }
    }

    /// Validates every generator knob before a plan is built, naming the
    /// offending field: mesh dimensions non-zero and within [`MAX_NODES`],
    /// all fractions and probabilities in `[0, 1]`, region centre on the
    /// die, and the slice request leaving at least one slice alive.
    /// `faults gen` runs this so a typo like `--flaky-prob 1.5` is a hard
    /// error instead of a silently saved invalid plan.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let field = |field: &'static str, value: f64| FaultPlanError::BadGenField { field, value };
        if self.width == 0 || self.height == 0 {
            return Err(field(if self.width == 0 { "width" } else { "height" }, 0.0));
        }
        check_mesh_dims(self.width as usize, self.height as usize)?;
        if !(0.0..=1.0).contains(&self.dead_link_fraction) {
            return Err(field("dead_link_fraction", self.dead_link_fraction));
        }
        if !(0.0..=1.0).contains(&self.flaky_drop_prob) {
            return Err(field("flaky_drop_prob", self.flaky_drop_prob));
        }
        if !(0.0..=1.0).contains(&self.transient_drop_prob) {
            return Err(field("transient_drop_prob", self.transient_drop_prob));
        }
        if !(0.0..=1.0).contains(&self.transient_corrupt_prob) {
            return Err(field("transient_corrupt_prob", self.transient_corrupt_prob));
        }
        if let Some(region) = &self.region {
            if !(0.0..=1.0).contains(&region.dead_fraction) {
                return Err(field("region.dead_fraction", region.dead_fraction));
            }
            if region.center >= self.width * self.height {
                return Err(FaultPlanError::RouterOutOfRange {
                    router: region.center,
                    num_routers: self.width * self.height,
                });
            }
        }
        if let Some(burst) = &self.burst {
            if !(0.0..=1.0).contains(&burst.drop_prob) {
                return Err(field("burst.drop_prob", burst.drop_prob));
            }
        }
        if self.num_slices > 0 && self.disabled_slice_count >= self.num_slices {
            return Err(FaultPlanError::AllSlicesDisabled);
        }
        if !(0.0..=1.0).contains(&self.fabric_flaky_drop_prob) {
            return Err(field("fabric_flaky_drop_prob", self.fabric_flaky_drop_prob));
        }
        if self.devices >= 2 {
            if !self.fabric_topology.supports_devices(self.devices) {
                return Err(field("devices", f64::from(self.devices)));
            }
            // Device 0 anchors traffic and at least two devices must
            // survive, or every cross-device transfer is partitioned by
            // construction.
            if self.dead_devices > self.devices.saturating_sub(2) {
                return Err(field("dead_devices", f64::from(self.dead_devices)));
            }
            if self.dead_switch && self.fabric_topology != FabricTopology::Switch {
                return Err(field("dead_switch", 1.0));
            }
        } else if self.dead_fabric_links > 0
            || self.flaky_fabric_links > 0
            || self.dead_devices > 0
            || self.dead_switch
        {
            return Err(field("devices", f64::from(self.devices)));
        }
        Ok(())
    }
}

/// Per-fault onset draw: the shared onset when no storm is configured,
/// otherwise uniform over the storm window. The `span == 0` fast path makes
/// no RNG draw, keeping legacy configs bit-identical.
fn draw_onset(base: u64, span: u64, rng: &mut StdRng) -> u64 {
    if span == 0 {
        base
    } else {
        base + rng.gen_range(0..=span)
    }
}

/// Manhattan distance between two routers on a `width`-wide mesh.
fn manhattan(a: u32, b: u32, width: u32) -> u32 {
    let (ax, ay) = (a % width, a / width);
    let (bx, by) = (b % width, b / width);
    ax.abs_diff(bx) + ay.abs_diff(by)
}

fn check_prob(p: f64) -> Result<(), FaultPlanError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultPlanError::BadProbability(p));
    }
    Ok(())
}

/// BFS connectivity of the mesh with `dead_edges` (undirected, as
/// `(low, high)` pairs) removed.
pub fn mesh_connected(width: u32, height: u32, dead_edges: &[(u32, u32)]) -> bool {
    let n = (width * height) as usize;
    if n == 0 {
        return true;
    }
    let dead: std::collections::HashSet<(u32, u32)> = dead_edges.iter().copied().collect();
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([0u32]);
    seen[0] = true;
    let mut reached = 1usize;
    while let Some(r) = queue.pop_front() {
        for dir in Direction::ALL {
            let Some(nb) = dir.neighbour(r, width, height) else {
                continue;
            };
            if dead.contains(&(r.min(nb), r.max(nb))) || seen[nb as usize] {
                continue;
            }
            seen[nb as usize] = true;
            reached += 1;
            queue.push_back(nb);
        }
    }
    reached == n
}

/// BFS connectivity of the surviving inter-device fabric: with `plan`'s dead
/// fabric links, dead switch, and dead devices all at full onset removed,
/// can every *surviving* device still reach every other? A job with zero or
/// one surviving device is vacuously connected. The `faults check` CLI
/// reports this alongside [`mesh_connected`].
pub fn fabric_connected(devices: u32, topology: FabricTopology, plan: &FaultPlan) -> bool {
    fabric_connected_with(
        devices,
        topology,
        &plan.fabric.dead_links(),
        plan.fabric.dead_switch.is_some(),
        &plan.fabric.dead_devices(),
    )
}

/// [`fabric_connected`] over explicit dead-link / dead-switch / dead-device
/// sets (the generator's incremental form).
pub fn fabric_connected_with(
    devices: u32,
    topology: FabricTopology,
    dead_links: &[(u32, u32)],
    dead_switch: bool,
    dead_devices: &[u32],
) -> bool {
    let alive: Vec<u32> = (0..devices).filter(|d| !dead_devices.contains(d)).collect();
    if alive.len() <= 1 {
        return true;
    }
    let dead: std::collections::HashSet<(u32, u32)> = dead_links.iter().copied().collect();
    let node_alive = |n: u32| {
        if Some(n) == topology.switch_node(devices) {
            !dead_switch
        } else {
            !dead_devices.contains(&n)
        }
    };
    let mut adj: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for (a, b) in topology.links(devices) {
        if dead.contains(&(a, b)) || !node_alive(a) || !node_alive(b) {
            continue;
        }
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let start = alive[0];
    let mut seen = std::collections::HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        for &nb in adj.get(&n).into_iter().flatten() {
            if seen.insert(nb) {
                queue.push_back(nb);
            }
        }
    }
    alive.iter().all(|d| seen.contains(d))
}

/// Fisher–Yates shuffle with the shim RNG (the shim has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded_cfg(seed: u64) -> FaultGenConfig {
        FaultGenConfig {
            dead_link_fraction: 0.05,
            flaky_links: 2,
            flaky_drop_prob: 0.01,
            stalled_routers: 1,
            stall_duration: 64,
            transient_drop_prob: 0.001,
            transient_corrupt_prob: 0.0005,
            num_slices: 80,
            disabled_slice_count: 3,
            ..FaultGenConfig::benign(seed, 6, 6)
        }
    }

    #[test]
    fn benign_plan_is_benign() {
        let plan = FaultPlan::none();
        assert!(plan.is_benign());
        assert!(!plan.has_probabilistic_faults());
        plan.validate_for_mesh(6, 6).unwrap();
        plan.validate_for_slices(80).unwrap();
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = FaultPlan::generate(&degraded_cfg(7));
        let b = FaultPlan::generate(&degraded_cfg(7));
        let c = FaultPlan::generate(&degraded_cfg(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_plans_keep_the_mesh_connected() {
        for seed in 0..20 {
            let mut cfg = degraded_cfg(seed);
            cfg.dead_link_fraction = 0.3; // aggressive: forces skips
            let plan = FaultPlan::generate(&cfg);
            plan.validate_for_mesh(6, 6).unwrap();
            assert!(mesh_connected(6, 6, &plan.dead_undirected_edges(6, 6)));
        }
    }

    #[test]
    fn dead_links_are_emitted_in_both_directions() {
        let mut cfg = degraded_cfg(3);
        cfg.flaky_links = 0;
        let plan = FaultPlan::generate(&cfg);
        let dead: Vec<_> = plan
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Dead))
            .collect();
        assert!(!dead.is_empty());
        assert_eq!(dead.len() % 2, 0);
        assert_eq!(plan.dead_undirected_edges(6, 6).len(), dead.len() / 2);
    }

    #[test]
    fn json_round_trip_preserves_the_plan() {
        let plan = FaultPlan::generate(&degraded_cfg(11));
        let json = plan.to_json().unwrap();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            router: 99,
            dir: Direction::East,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        assert!(matches!(
            plan.validate_for_mesh(6, 6),
            Err(FaultPlanError::RouterOutOfRange { .. })
        ));

        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            router: 5, // east edge of row 0 on a 6-wide mesh
            dir: Direction::East,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        assert!(matches!(
            plan.validate_for_mesh(6, 6),
            Err(FaultPlanError::LinkOffEdge { .. })
        ));

        let mut plan = FaultPlan::none();
        plan.transient.drop_prob = 1.5;
        assert!(matches!(
            plan.validate_for_mesh(6, 6),
            Err(FaultPlanError::BadProbability(_))
        ));

        let mut plan = FaultPlan::none();
        plan.disabled_slices = vec![1, 1];
        assert!(matches!(
            plan.validate_for_slices(4),
            Err(FaultPlanError::DuplicateSlice(1))
        ));
        plan.disabled_slices = vec![0, 1, 2, 3];
        assert!(matches!(
            plan.validate_for_slices(4),
            Err(FaultPlanError::AllSlicesDisabled)
        ));
    }

    #[test]
    fn disconnecting_plan_is_rejected() {
        // Cut router 0 (corner) off entirely: kill both its links.
        let mut plan = FaultPlan::none();
        for (r, dir) in [(0, Direction::East), (0, Direction::North)] {
            let n = dir.neighbour(r, 6, 6).unwrap();
            plan.links.push(LinkFault {
                router: r,
                dir,
                kind: LinkFaultKind::Dead,
                onset: 0,
            });
            plan.links.push(LinkFault {
                router: n,
                dir: dir.opposite(),
                kind: LinkFaultKind::Dead,
                onset: 0,
            });
        }
        assert_eq!(
            plan.validate_for_mesh(6, 6),
            Err(FaultPlanError::MeshDisconnected)
        );
    }

    #[test]
    fn one_way_dead_link_does_not_count_as_a_dead_edge() {
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            router: 0,
            dir: Direction::East,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        assert!(plan.dead_undirected_edges(6, 6).is_empty());
        plan.validate_for_mesh(6, 6).unwrap();
    }

    #[test]
    fn neighbour_arithmetic_matches_the_grid() {
        assert_eq!(Direction::East.neighbour(0, 6, 6), Some(1));
        assert_eq!(Direction::North.neighbour(0, 6, 6), Some(6));
        assert_eq!(Direction::South.neighbour(0, 6, 6), None);
        assert_eq!(Direction::West.neighbour(0, 6, 6), None);
        assert_eq!(Direction::South.neighbour(6, 6, 6), Some(0));
        for dir in Direction::ALL {
            assert_eq!(dir.opposite().opposite(), dir);
        }
    }

    #[test]
    fn onset_storm_scatters_onsets_within_the_window() {
        let mut cfg = degraded_cfg(5);
        cfg.dead_link_fraction = 0.15;
        cfg.onset = 100;
        cfg.onset_storm_span = 500;
        let plan = FaultPlan::generate(&cfg);
        plan.validate_for_mesh(6, 6).unwrap();
        let onsets: Vec<u64> = plan.links.iter().map(|l| l.onset).collect();
        assert!(onsets.iter().all(|&o| (100..=600).contains(&o)));
        let distinct: std::collections::HashSet<u64> = onsets.iter().copied().collect();
        assert!(distinct.len() > 1, "storm must scatter onsets: {onsets:?}");
        // Both directions of a physically dead edge die at the same cycle.
        for l in plan
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Dead))
        {
            let n = l.dir.neighbour(l.router, 6, 6).unwrap();
            let twin = plan
                .links
                .iter()
                .find(|t| t.router == n && t.dir == l.dir.opposite())
                .expect("dead links come in pairs");
            assert_eq!(l.onset, twin.onset);
        }
    }

    #[test]
    fn regional_failure_concentrates_dead_links_and_stays_connected() {
        let region = RegionFault {
            center: 14, // (2, 2) on a 6-wide mesh
            radius: 2,
            dead_fraction: 0.5,
        };
        let plan = FaultPlan::generate(&FaultGenConfig {
            region: Some(region),
            ..FaultGenConfig::benign(21, 6, 6)
        });
        plan.validate_for_mesh(6, 6).unwrap();
        let dead = plan.dead_undirected_edges(6, 6);
        assert!(!dead.is_empty(), "a half-dead region must kill something");
        for &(a, b) in &dead {
            assert!(manhattan(a, 14, 6) <= 2 && manhattan(b, 14, 6) <= 2);
        }
        assert!(mesh_connected(6, 6, &dead));
    }

    #[test]
    fn flaky_burst_is_contiguous_and_shares_the_onset() {
        let burst = FlakyBurst {
            links: 5,
            drop_prob: 0.4,
            onset: 77,
        };
        let plan = FaultPlan::generate(&FaultGenConfig {
            burst: Some(burst),
            ..FaultGenConfig::benign(9, 6, 6)
        });
        plan.validate_for_mesh(6, 6).unwrap();
        let flaky: Vec<_> = plan
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkFaultKind::Flaky { .. }))
            .collect();
        assert_eq!(flaky.len(), 5);
        assert!(flaky.iter().all(|l| l.onset == 77));
        // Contiguity: the routers touched by the burst form one connected
        // patch of the mesh.
        let mut touched: Vec<u32> = flaky.iter().map(|l| l.router).collect();
        touched.sort_unstable();
        touched.dedup();
        for window in touched.windows(2) {
            assert!(
                touched
                    .iter()
                    .any(|&o| o != window[1] && manhattan(o, window[1], 6) <= 1),
                "burst routers must be adjacent: {touched:?}"
            );
        }
    }

    #[test]
    fn widened_fields_default_benign_and_keep_old_plans_identical() {
        // A config that never touches the new knobs must produce the same
        // plan it did before they existed (no extra RNG draws).
        let plan = FaultPlan::generate(&degraded_cfg(7));
        let again = FaultPlan::generate(&degraded_cfg(7));
        assert_eq!(plan, again);
        assert_eq!(FaultGenConfig::benign(1, 4, 4).onset_storm_span, 0);
        assert!(FaultGenConfig::benign(1, 4, 4).region.is_none());
        assert!(FaultGenConfig::benign(1, 4, 4).burst.is_none());
    }

    #[test]
    fn generator_validation_names_the_offending_field() {
        let mut cfg = FaultGenConfig::benign(1, 6, 6);
        cfg.flaky_drop_prob = 1.5;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(
            err,
            FaultPlanError::BadGenField {
                field: "flaky_drop_prob",
                ..
            }
        ));
        assert!(err.to_string().contains("flaky_drop_prob"));
        assert!(FaultPlan::try_generate(&cfg).is_err());

        let mut cfg = FaultGenConfig::benign(1, 6, 6);
        cfg.region = Some(RegionFault {
            center: 99,
            radius: 1,
            dead_fraction: 0.1,
        });
        assert!(matches!(
            cfg.validate(),
            Err(FaultPlanError::RouterOutOfRange { router: 99, .. })
        ));

        let mut cfg = FaultGenConfig::benign(1, 6, 6);
        cfg.num_slices = 4;
        cfg.disabled_slice_count = 4;
        assert_eq!(cfg.validate(), Err(FaultPlanError::AllSlicesDisabled));

        assert!(FaultGenConfig::benign(1, 6, 6).validate().is_ok());
        assert!(FaultPlan::try_generate(&degraded_cfg(3)).is_ok());
    }

    #[test]
    fn empty_plan_file_gets_a_named_field_diagnostic() {
        let err = FaultPlan::from_json("").unwrap_err();
        assert!(err.to_string().contains("plan file is empty"));
        assert!(err.to_string().contains("`seed`"));
        let err = FaultPlan::from_json("   \n\t ").unwrap_err();
        assert!(err.to_string().contains("plan file is empty"));
        // Non-empty but wrong JSON still names the first missing field.
        let err = FaultPlan::from_json("{}").unwrap_err();
        assert!(err.to_string().contains("seed"), "got: {err}");
    }

    #[test]
    fn gen_config_round_trips_through_json() {
        let cfg = FaultGenConfig {
            onset_storm_span: 64,
            region: Some(RegionFault {
                center: 7,
                radius: 2,
                dead_fraction: 0.3,
            }),
            burst: Some(FlakyBurst {
                links: 4,
                drop_prob: 0.2,
                onset: 10,
            }),
            ..degraded_cfg(13)
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultGenConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn plan_with_sweep_summarises_it() {
        let mut plan = FaultPlan::none();
        plan.sweep = Some(FloorSweep::a100_sku());
        assert!(!plan.is_benign());
        assert!(plan.summary().contains("sweep=12"));
    }

    fn fabric_cfg(seed: u64) -> FaultGenConfig {
        FaultGenConfig {
            devices: 4,
            fabric_topology: FabricTopology::Ring,
            dead_fabric_links: 1,
            flaky_fabric_links: 1,
            fabric_flaky_drop_prob: 0.05,
            ..FaultGenConfig::benign(seed, 4, 4)
        }
    }

    #[test]
    fn pre_fabric_plan_json_still_loads() {
        // A plan file written before the fabric layer existed has no
        // `fabric` key; it must load with an empty fabric section.
        let plan = FaultPlan::generate(&degraded_cfg(3));
        let value: serde::Value = serde_json::from_str(&plan.to_json().unwrap()).unwrap();
        let serde::Value::Object(fields) = value else {
            panic!("plan JSON is an object");
        };
        let legacy = serde_json::to_string(&serde::Value::Object(
            fields.into_iter().filter(|(k, _)| k != "fabric").collect(),
        ))
        .unwrap();
        let reloaded = FaultPlan::from_json(&legacy)
            .unwrap_or_else(|e| panic!("legacy plan rejected: {e}\n{legacy}"));
        assert!(reloaded.fabric.is_empty());
        assert_eq!(reloaded.links, plan.links);
    }

    #[test]
    fn fabric_plan_round_trips_through_json() {
        let plan = FaultPlan::generate(&fabric_cfg(11));
        assert!(!plan.fabric.is_empty());
        let back = FaultPlan::from_json(&plan.to_json().unwrap()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn fabric_generation_is_deterministic_and_connected() {
        for seed in 0..16 {
            let a = FaultPlan::generate(&fabric_cfg(seed));
            let b = FaultPlan::generate(&fabric_cfg(seed));
            assert_eq!(a, b);
            a.validate_for_fabric(4, FabricTopology::Ring).unwrap();
            assert!(
                fabric_connected(4, FabricTopology::Ring, &a),
                "generated fabric plan severs a surviving device (seed {seed})"
            );
        }
    }

    #[test]
    fn fabric_generation_leaves_single_die_plans_unchanged() {
        // Same seed, fabric knobs off: the single-die part of the plan must
        // be bit-identical to a pre-fabric generation (no extra RNG draws).
        let single = FaultPlan::generate(&degraded_cfg(9));
        let multi = FaultPlan::generate(&FaultGenConfig {
            devices: 4,
            ..degraded_cfg(9)
        });
        assert_eq!(single.links, multi.links);
        assert_eq!(single.routers, multi.routers);
        assert_eq!(single.disabled_slices, multi.disabled_slices);
    }

    #[test]
    fn fabric_validation_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(FabricLinkFault {
            a: 0,
            b: 2,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        // 0↔2 is not a ring edge on 4 devices.
        assert_eq!(
            plan.validate_for_fabric(4, FabricTopology::Ring),
            Err(FaultPlanError::FabricLinkUnknown { a: 0, b: 2 })
        );
        // ... but it is a fully-connected edge.
        plan.validate_for_fabric(4, FabricTopology::FullyConnected)
            .unwrap();

        let mut dup = FaultPlan::none();
        for _ in 0..2 {
            dup.fabric.links.push(FabricLinkFault {
                a: 0,
                b: 1,
                kind: LinkFaultKind::Dead,
                onset: 0,
            });
        }
        assert_eq!(
            dup.validate_for_fabric(4, FabricTopology::Ring),
            Err(FaultPlanError::FabricDuplicateLink { a: 0, b: 1 })
        );

        let mut dev = FaultPlan::none();
        dev.fabric.devices.push(DeviceFault {
            device: 9,
            onset: 0,
        });
        assert_eq!(
            dev.validate_for_fabric(4, FabricTopology::Ring),
            Err(FaultPlanError::DeviceOutOfRange {
                device: 9,
                num_devices: 4
            })
        );

        let mut sw = FaultPlan::none();
        sw.fabric.dead_switch = Some(0);
        assert_eq!(
            sw.validate_for_fabric(4, FabricTopology::Ring),
            Err(FaultPlanError::SwitchNotInTopology)
        );
        sw.validate_for_fabric(4, FabricTopology::Switch).unwrap();
    }

    #[test]
    fn fabric_connectivity_reporting() {
        // Ring with one dead link: still connected the long way.
        let mut plan = FaultPlan::none();
        plan.fabric.links.push(FabricLinkFault {
            a: 0,
            b: 1,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        assert!(fabric_connected(4, FabricTopology::Ring, &plan));
        // Two dead ring links partition it.
        plan.fabric.links.push(FabricLinkFault {
            a: 2,
            b: 3,
            kind: LinkFaultKind::Dead,
            onset: 0,
        });
        assert!(!fabric_connected(4, FabricTopology::Ring, &plan));
        // A dead switch severs everything.
        let mut sw = FaultPlan::none();
        sw.fabric.dead_switch = Some(100);
        assert!(!fabric_connected(4, FabricTopology::Switch, &sw));
        // A dead device is excluded, not counted as a partition.
        let mut dev = FaultPlan::none();
        dev.fabric.devices.push(DeviceFault {
            device: 2,
            onset: 0,
        });
        assert!(fabric_connected(4, FabricTopology::FullyConnected, &dev));
    }

    /// Mesh sizes are checked, not wrapped, before anything is sized by
    /// them: a `u32` router count overflowing (65,536²) or one that fits
    /// but would allocate without bound (60,000²) is a typed error from
    /// both fault-plan entry points, never a panic or a huge allocation.
    #[test]
    fn oversized_meshes_are_typed_errors() {
        let too_large = |width, height| Some(FaultPlanError::MeshTooLarge { width, height });
        for (w, h) in [
            (65_536u32, 65_536u32),
            (65_536, 65_537),
            (60_000, 60_000),
            (65, 64),
        ] {
            let (wu, hu) = (w as usize, h as usize);
            let cfg = FaultGenConfig::benign(1, w, h);
            assert_eq!(
                FaultPlan::none().validate_for_mesh(w, h).err(),
                too_large(wu, hu)
            );
            assert_eq!(cfg.validate().err(), too_large(wu, hu));
            assert_eq!(FaultPlan::try_generate(&cfg).err(), too_large(wu, hu));
        }
        assert_eq!(
            check_mesh_dims(usize::MAX, 2).err(),
            too_large(usize::MAX, 2)
        );
        assert_eq!(check_mesh_dims(64, 64), Ok(MAX_NODES));
        FaultPlan::none().validate_for_mesh(64, 64).unwrap();
        FaultPlan::try_generate(&FaultGenConfig::benign(1, 64, 64)).unwrap();
    }

    #[test]
    fn fabric_gen_knobs_are_validated() {
        let mut bad = fabric_cfg(1);
        bad.fabric_flaky_drop_prob = 1.5;
        assert!(bad.validate().is_err());
        let mut p2p = fabric_cfg(1);
        p2p.devices = 4;
        p2p.fabric_topology = FabricTopology::PointToPoint;
        assert!(p2p.validate().is_err());
        let mut too_dead = fabric_cfg(1);
        too_dead.dead_devices = 3;
        assert!(too_dead.validate().is_err());
        let mut sw = fabric_cfg(1);
        sw.dead_switch = true;
        assert!(sw.validate().is_err(), "dead switch without a switch");
        sw.fabric_topology = FabricTopology::Switch;
        sw.validate().unwrap();
        let mut orphan = FaultGenConfig::benign(1, 4, 4);
        orphan.dead_fabric_links = 1;
        assert!(orphan.validate().is_err(), "fabric knobs without devices");
    }
}
