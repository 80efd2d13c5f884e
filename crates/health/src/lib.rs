//! # gnoc-health
//!
//! Online fault detection and self-healing for the gnoc stack.
//!
//! The fault-injection layer (`gnoc-faults`) tells the simulator where the
//! faults *are*; this crate is the other side of that contract — a device
//! under test that must *infer* them from behavior alone:
//!
//! - **[`CircuitBreaker`]** — a deterministic three-state breaker
//!   (Closed → Open → HalfOpen) with leaky-bucket trip logic and doubling
//!   cooldowns so a dead resource cannot cause flapping;
//! - **[`WindowMonitor`]** — one breaker per resource, driven one window at
//!   a time: verdict, quarantine or refusal, probation probe, release. What
//!   a resource is comes from its [`Quarantine`] implementation:
//!   [`MeshLinks`] watch per-link drop counters
//!   ([`gnoc_noc::MeshStats::link_drops`]) and quarantine via the
//!   incremental up*/down* reroute in `gnoc-noc`; [`L2Slices`] watch timed
//!   probe reads against the calibrated per-slice hit latency and
//!   quarantine via the address-hash remap in `gnoc-engine`; `gnoc-fabric`
//!   adds its inter-device links;
//! - **[`SelfHealingMesh`]** — drives patrol traffic (every directed link
//!   exercised each round) and window-paced monitoring, producing a
//!   serializable [`HealthReport`].
//!
//! The thresholds are constants, not settings: [`WINDOW_CYCLES`],
//! [`DROP_THRESHOLD`], [`FAILURE_WINDOWS`], [`COOLDOWN_WINDOWS`],
//! [`MAX_COOLDOWN_WINDOWS`], [`PROBE_SUCCESSES`], [`SLICE_MARGIN_CYCLES`],
//! [`SLICE_EWMA_ALPHA`] and [`SLICE_PROBE_READS`], each derived from the
//! paper's calibration bands in DESIGN.md §5.
//!
//! Everything is deterministic: same seed and plan → bit-identical breaker
//! transition logs, which the chaos harness's `detection` oracle and the
//! replay machinery rely on.
//!
//! ```
//! use gnoc_faults::{Direction, FaultPlan, LinkFault, LinkFaultKind};
//! use gnoc_health::SelfHealingMesh;
//! use gnoc_noc::{ArbiterKind, MeshConfig, RetryConfig};
//!
//! let mut plan = FaultPlan::none();
//! plan.links.push(LinkFault {
//!     router: 7,
//!     dir: Direction::East,
//!     kind: LinkFaultKind::Dead,
//!     onset: 0,
//! });
//! let mut healer = SelfHealingMesh::new(
//!     MeshConfig::paper_6x6(ArbiterKind::RoundRobin),
//!     &plan,
//!     RetryConfig::default(),
//! )
//! .unwrap();
//! healer.run_detection(6_000).unwrap();
//! // The dead link was found without ever reading the plan.
//! assert!(healer
//!     .detected_links()
//!     .iter()
//!     .any(|&(r, d, _)| r == 7 && d == Direction::East));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod breaker;
mod heal;
mod monitor;

pub use breaker::{
    BreakerState, CircuitBreaker, Transition, COOLDOWN_WINDOWS, FAILURE_WINDOWS,
    MAX_COOLDOWN_WINDOWS, PROBE_SUCCESSES,
};
pub use heal::{
    patrol_pairs, run_slice_detection, run_slice_detection_for_spec, HealthReport, SelfHealingMesh,
};
pub use monitor::{
    Detection, L2Slices, MeshLinks, Quarantine, TransitionRecord, WindowMonitor, DROP_THRESHOLD,
    SLICE_EWMA_ALPHA, SLICE_MARGIN_CYCLES, SLICE_PROBE_READS, WINDOW_CYCLES,
};
