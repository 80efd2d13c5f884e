//! One breaker-window monitor for every kind of monitored resource.
//!
//! A [`WindowMonitor`] consumes only *behavioral* telemetry — per-link drop
//! counters ([`MeshStats::link_drops`]) and timed probe reads — never the
//! ground-truth [`gnoc_faults::FaultPlan`]. Each monitored resource gets its
//! own [`CircuitBreaker`]; an Open breaker quarantines the resource
//! (incremental reroute for links, address-hash remap for slices) and
//! HalfOpen probation tests recovery. What a resource is, how its window
//! verdict is formed and how it is quarantined is the [`Quarantine`]
//! implementation: [`MeshLinks`], [`L2Slices`] and `gnoc-fabric`'s fabric
//! links.
//!
//! [`MeshStats::link_drops`]: gnoc_noc::MeshStats

use crate::breaker::{BreakerState, CircuitBreaker, Transition};
use gnoc_engine::{DeviceError, GpuDevice};
use gnoc_faults::Direction;
use gnoc_noc::{NocError, ReliableMesh, NUM_PORTS};
use gnoc_topo::{SliceId, SmId};
use serde::{Deserialize, Serialize};

/// Cycles between monitor polls of mesh and fabric links: one breaker
/// window.
pub const WINDOW_CYCLES: u64 = 256;
/// Drops within one window that mark a mesh or fabric link's window as
/// failing. A healthy link under the retry layers never drops, so one drop
/// is already a high-confidence signal (DESIGN.md §5).
pub const DROP_THRESHOLD: u64 = 1;
/// Cycles above the calibrated per-slice hit latency that mark a slice
/// probe as failing: well above measurement jitter, well below the
/// latent-fault penalty (DESIGN.md §5).
pub const SLICE_MARGIN_CYCLES: f64 = 300.0;
/// EWMA weight of the newest slice probe observation.
pub const SLICE_EWMA_ALPHA: f64 = 0.5;
/// Timed probe reads per slice per window.
pub const SLICE_PROBE_READS: u32 = 2;

/// One breaker transition, stamped with when and for which resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionRecord {
    /// Mesh or fabric cycle (links) or window index (slices) of the
    /// transition.
    pub at: u64,
    /// Human-readable resource name, e.g. `link 7:East` or `slice 12`.
    pub resource: String,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A resource whose breaker has opened at least once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Resource name, matching [`TransitionRecord::resource`].
    pub resource: String,
    /// When the breaker first opened, stamped like
    /// [`TransitionRecord::at`].
    pub first_open_at: u64,
    /// Breaker state at the end of the run.
    pub state: BreakerState,
}

/// A set of resources one [`WindowMonitor`] watches, indexed `0..count()`,
/// together with the per-resource baseline its window verdict needs.
///
/// The two associated consts and the method bodies carry every difference
/// between resource kinds; none of them is a setting.
pub trait Quarantine {
    /// What the resources live in: the mesh, the device or the fabric.
    type Host;
    /// A host error that aborts the window.
    type Error;
    /// Whether a resource entering `HalfOpen` is probed in that same window.
    const PROBE_ON_ENTRY: bool = false;
    /// Whether a failed probe asks for quarantine again, counting another
    /// refusal if the host still refuses.
    const REQUARANTINE_ON_FAILED_PROBE: bool = false;

    /// Number of resources.
    fn count(&self) -> usize;
    /// Display name of resource `idx`, used in every record and report.
    fn name(&self, idx: usize) -> String;
    /// Stamp for the transitions of window number `window`.
    fn stamp(&self, host: &Self::Host, window: u64) -> u64;
    /// Whether resource `idx`, whose breaker is in `state`, failed this
    /// window. Asked every window in every state; only a `Closed` verdict
    /// moves the breaker.
    fn verdict(&mut self, host: &mut Self::Host, idx: usize, state: BreakerState) -> bool;
    /// Takes resource `idx` out of service; `Ok(false)` when the host
    /// refuses because that would disconnect or empty its pool.
    fn quarantine(&mut self, host: &mut Self::Host, idx: usize) -> Result<bool, Self::Error>;
    /// One `HalfOpen` probe of resource `idx`: `true` when it passed.
    fn probe(&mut self, host: &mut Self::Host, idx: usize) -> Result<bool, Self::Error>;
    /// Returns resource `idx` to service after a passed probation.
    fn release(&mut self, host: &mut Self::Host, idx: usize) -> Result<(), Self::Error>;
}

/// One [`CircuitBreaker`] per resource of `R`, driven one window at a time:
/// verdict → `on_window` → quarantine or refusal, or `HalfOpen` → probe →
/// release. Keeps the transition log, first-open stamps and refusals.
#[derive(Debug)]
pub struct WindowMonitor<R> {
    resources: R,
    breakers: Vec<CircuitBreaker>,
    transitions: Vec<TransitionRecord>,
    first_open: Vec<Option<u64>>,
    /// Resources whose quarantine was refused, once per refusal.
    refused: Vec<usize>,
    windows: u64,
    next_window: u64,
}

impl<R: Quarantine> WindowMonitor<R> {
    /// A monitor with every breaker closed; its first cycle-paced window
    /// ends at cycle [`WINDOW_CYCLES`].
    pub fn new(resources: R) -> Self {
        let n = resources.count();
        Self {
            resources,
            breakers: vec![CircuitBreaker::new(); n],
            transitions: Vec::new(),
            first_open: vec![None; n],
            refused: Vec::new(),
            windows: 0,
            next_window: WINDOW_CYCLES,
        }
    }

    /// Runs one window over every resource in index order.
    ///
    /// # Errors
    ///
    /// Propagates the host errors of [`Quarantine`]; refusals are recorded,
    /// not returned.
    pub fn poll(&mut self, host: &mut R::Host) -> Result<(), R::Error> {
        let at = self.resources.stamp(host, self.windows);
        for idx in 0..self.breakers.len() {
            let entry = self.breakers[idx].state();
            let failing = self.resources.verdict(host, idx, entry);
            if entry != BreakerState::HalfOpen {
                if let Some(t) = self.breakers[idx].on_window(failing) {
                    self.record(idx, at, t);
                    if t.to == BreakerState::Open {
                        self.quarantine(host, idx)?;
                    }
                }
            }
            let probing = entry == BreakerState::HalfOpen || R::PROBE_ON_ENTRY;
            if probing && self.breakers[idx].state() == BreakerState::HalfOpen {
                let ok = self.resources.probe(host, idx)?;
                if let Some(t) = self.breakers[idx].on_probe(ok) {
                    self.record(idx, at, t);
                    if t.to == BreakerState::Closed {
                        self.resources.release(host, idx)?;
                    } else if R::REQUARANTINE_ON_FAILED_PROBE {
                        self.quarantine(host, idx)?;
                    }
                }
            }
        }
        self.windows += 1;
        Ok(())
    }

    /// Runs a window if cycle `now` has reached the next window boundary,
    /// then schedules the following one [`WINDOW_CYCLES`] later: the pacing
    /// of the cycle-driven mesh and fabric links.
    ///
    /// # Errors
    ///
    /// As [`Self::poll`].
    pub fn poll_due(&mut self, host: &mut R::Host, now: u64) -> Result<(), R::Error> {
        if now >= self.next_window {
            self.poll(host)?;
            self.next_window = now + WINDOW_CYCLES;
        }
        Ok(())
    }

    fn record(&mut self, idx: usize, at: u64, t: Transition) {
        if t.to == BreakerState::Open {
            self.first_open[idx].get_or_insert(at);
        }
        self.transitions.push(TransitionRecord {
            at,
            resource: self.resources.name(idx),
            from: t.from,
            to: t.to,
        });
    }

    fn quarantine(&mut self, host: &mut R::Host, idx: usize) -> Result<(), R::Error> {
        if !self.resources.quarantine(host, idx)? {
            self.refused.push(idx);
        }
        Ok(())
    }

    /// The monitored resource set.
    pub fn resources(&self) -> &R {
        &self.resources
    }

    /// Every breaker transition so far, in poll order.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// Resources whose breaker has ever opened, with first-open stamp and
    /// current state.
    pub fn detections(&self) -> Vec<Detection> {
        self.detected()
            .into_iter()
            .map(|(idx, first_open_at)| Detection {
                resource: self.resources.name(idx),
                first_open_at,
                state: self.breakers[idx].state(),
            })
            .collect()
    }

    /// Resources whose breaker has ever opened, as `(index, first-open
    /// stamp)` pairs in index order.
    pub fn detected(&self) -> Vec<(usize, u64)> {
        self.first_open
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| Some((idx, (*at)?)))
            .collect()
    }

    /// Indices of refused quarantines, one entry per refusal.
    pub fn refused(&self) -> &[usize] {
        &self.refused
    }

    /// Breaker state of resource `idx`.
    pub fn state(&self, idx: usize) -> BreakerState {
        self.breakers[idx].state()
    }

    /// Completed health windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The cycle at which [`Self::poll_due`] next runs a window.
    pub fn next_window(&self) -> u64 {
        self.next_window
    }
}

/// Every directed mesh link, watched through its drop counter: resource
/// `idx` is router `idx / 4`'s link in direction `Direction::ALL[idx % 4]`.
/// Links off the mesh edge are included and never drop. Transitions are
/// stamped with the mesh cycle.
#[derive(Debug)]
pub struct MeshLinks {
    last_drops: Vec<u64>,
}

impl MeshLinks {
    /// The links of a mesh with `num_routers` routers.
    pub fn new(num_routers: usize) -> Self {
        Self {
            last_drops: vec![0; num_routers * Direction::ALL.len()],
        }
    }

    /// The `(router, direction)` of resource `idx`.
    pub(crate) fn link(idx: usize) -> (u32, Direction) {
        ((idx / 4) as u32, Direction::ALL[idx % 4])
    }
}

impl Quarantine for MeshLinks {
    type Host = ReliableMesh;
    type Error = NocError;

    fn count(&self) -> usize {
        self.last_drops.len()
    }

    fn name(&self, idx: usize) -> String {
        let (router, dir) = Self::link(idx);
        format!("link {router}:{dir:?}")
    }

    fn stamp(&self, rm: &ReliableMesh, _window: u64) -> u64 {
        rm.mesh().cycle()
    }

    fn verdict(&mut self, rm: &mut ReliableMesh, idx: usize, _state: BreakerState) -> bool {
        // Drop counters are per `router * NUM_PORTS + port`, with the four
        // link ports after LOCAL in `Direction::ALL` order.
        let drops = rm.mesh().stats().link_drops[(idx / 4) * NUM_PORTS + 1 + idx % 4];
        let last = std::mem::replace(&mut self.last_drops[idx], drops);
        drops.saturating_sub(last) >= DROP_THRESHOLD
    }

    fn quarantine(&mut self, rm: &mut ReliableMesh, idx: usize) -> Result<bool, NocError> {
        let (router, dir) = Self::link(idx);
        match rm.mesh_mut().quarantine_link(router, dir) {
            Ok(()) => Ok(true),
            Err(NocError::QuarantineWouldDisconnect { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn probe(&mut self, rm: &mut ReliableMesh, idx: usize) -> Result<bool, NocError> {
        let (router, dir) = Self::link(idx);
        rm.mesh_mut().probe_link(router, dir)
    }

    fn release(&mut self, rm: &mut ReliableMesh, idx: usize) -> Result<(), NocError> {
        let (router, dir) = Self::link(idx);
        rm.mesh_mut().release_link(router, dir)
    }
}

/// Every L2 slice, watched through timed probe reads from one SM: a window
/// fails when the latency EWMA sits more than [`SLICE_MARGIN_CYCLES`] above
/// the device's calibrated hit latency for that (SM, slice) pair. Probe
/// reads advance the device RNG, so the verdict is read only while the
/// breaker is `Closed`. Transitions are stamped with the window index.
#[derive(Debug)]
pub struct L2Slices {
    /// The SM issuing probe reads.
    sm: SmId,
    ewma: Vec<Option<f64>>,
}

impl L2Slices {
    /// `num_slices` slices probed from `sm`.
    pub fn new(num_slices: usize, sm: SmId) -> Self {
        Self {
            sm,
            ewma: vec![None; num_slices],
        }
    }

    fn limit(&self, dev: &GpuDevice, idx: usize) -> f64 {
        dev.hit_cycles_mean(self.sm, SliceId::new(idx as u32)) + SLICE_MARGIN_CYCLES
    }
}

impl Quarantine for L2Slices {
    type Host = GpuDevice;
    type Error = DeviceError;

    fn count(&self) -> usize {
        self.ewma.len()
    }

    fn name(&self, idx: usize) -> String {
        format!("slice {idx}")
    }

    fn stamp(&self, _dev: &GpuDevice, window: u64) -> u64 {
        window
    }

    fn verdict(&mut self, dev: &mut GpuDevice, idx: usize, state: BreakerState) -> bool {
        if state != BreakerState::Closed {
            return false;
        }
        let slice = SliceId::new(idx as u32);
        let sum: u64 = (0..SLICE_PROBE_READS)
            .map(|_| dev.probe_slice_latency(self.sm, slice))
            .sum();
        let obs = sum as f64 / f64::from(SLICE_PROBE_READS);
        let ewma = match self.ewma[idx] {
            Some(prev) => SLICE_EWMA_ALPHA * obs + (1.0 - SLICE_EWMA_ALPHA) * prev,
            None => obs,
        };
        self.ewma[idx] = Some(ewma);
        ewma > self.limit(dev, idx)
    }

    fn quarantine(&mut self, dev: &mut GpuDevice, idx: usize) -> Result<bool, DeviceError> {
        match dev.quarantine_slice(SliceId::new(idx as u32)) {
            Ok(()) => Ok(true),
            Err(DeviceError::Slices(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn probe(&mut self, dev: &mut GpuDevice, idx: usize) -> Result<bool, DeviceError> {
        let obs = dev.probe_slice_latency(self.sm, SliceId::new(idx as u32)) as f64;
        Ok(obs <= self.limit(dev, idx))
    }

    fn release(&mut self, dev: &mut GpuDevice, idx: usize) -> Result<(), DeviceError> {
        dev.release_slice(SliceId::new(idx as u32))?;
        self.ewma[idx] = None;
        Ok(())
    }
}
