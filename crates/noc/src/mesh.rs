//! Cycle-level 2D-mesh network with dimension-ordered routing and wormhole
//! link serialisation.
//!
//! This is the "network-only simulation" substrate of the paper's Fig. 21 and
//! Fig. 23 experiments (the paper uses Booksim; we rebuild the needed subset):
//! input-buffered routers, XY routing, per-output arbitration (round-robin or
//! age-based), credit-style buffer back-pressure, and per-node throughput and
//! latency statistics.

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::error::{LossReason, NocError};
use crate::packet::{NodeId, Packet, PacketClass};
use gnoc_faults::{Direction, FaultPlan, FaultPlanError, LinkFaultKind};
use gnoc_telemetry::{
    FlightRecorder, IdSet, MetricRegistry, StallKind, TelemetryHandle, TraceEvent, SUBSYSTEM_NOC,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Router port indices.
const LOCAL: usize = 0;
const NORTH: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;
const WEST: usize = 4;
/// Ports per router: local + the four [`Direction`]s. Per-link statistics
/// vectors such as [`MeshStats::link_drops`] are indexed
/// `router * NUM_PORTS + port`.
pub const NUM_PORTS: usize = 5;
pub use gnoc_faults::MAX_NODES;

/// Dimension order used by deterministic routing.
///
/// Request and reply networks conventionally use opposite orders so that
/// reply traffic leaving the few memory controllers does not all funnel
/// through the MC row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteOrder {
    /// Route X (columns) first, then Y.
    Xy,
    /// Route Y (rows) first, then X.
    Yx,
}

/// Configuration of a [`Mesh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Packets each input buffer (per virtual channel) can hold.
    pub buffer_packets: usize,
    /// Output arbitration policy.
    pub arbiter: ArbiterKind,
    /// Dimension order for routing.
    pub route_order: RouteOrder,
    /// Number of virtual channels per input port. With 2+, request packets
    /// ride VC 0 and replies the last VC, so both classes can share one
    /// physical network without protocol deadlock.
    pub vcs: usize,
}

impl MeshConfig {
    /// The paper's Fig. 23 setup: a 6×6 mesh with modest buffering.
    pub fn paper_6x6(arbiter: ArbiterKind) -> Self {
        Self {
            width: 6,
            height: 6,
            buffer_packets: 4,
            arbiter,
            route_order: RouteOrder::Xy,
            vcs: 1,
        }
    }

    /// The same geometry with `vcs` virtual channels per port.
    pub fn with_vcs(self, vcs: usize) -> Self {
        Self { vcs, ..self }
    }

    /// Number of terminals.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// Validates the configuration, naming the offending field — the typed
    /// twin of the construction-time panics, for callers (like the chaos
    /// harness) that build meshes from fuzzed input.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] on the first unusable field.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.width == 0 || self.height == 0 {
            return Err(NocError::Config("mesh must be non-empty"));
        }
        if self.buffer_packets == 0 {
            return Err(NocError::Config("buffers must hold at least 1 packet"));
        }
        if self.vcs == 0 {
            return Err(NocError::Config("need at least one virtual channel"));
        }
        // Arbiter inputs are `in_port * vcs + vc`; past the round-robin
        // rotation's range they would alias and silently break fairness.
        if self.vcs > Arbiter::MAX_INPUTS / NUM_PORTS {
            return Err(NocError::Config(
                "too many virtual channels: ports × VCs exceeds the arbiter's 64 inputs",
            ));
        }
        check_mesh_dims(self.width, self.height).map(|_| ())
    }
}

/// [`gnoc_faults::check_mesh_dims`], the one mesh-size rule, as a
/// configuration error. Returns the router count.
///
/// # Errors
///
/// Returns [`NocError::Config`] when the mesh is larger than
/// [`MAX_NODES`] or its router count overflows.
pub fn check_mesh_dims(width: usize, height: usize) -> Result<usize, NocError> {
    gnoc_faults::check_mesh_dims(width, height)
        .map_err(|_| NocError::Config("mesh too large: more than 4096 routers"))
}

/// The mesh output port a fault-plan [`Direction`] maps to.
fn port_of(dir: Direction) -> usize {
    match dir {
        Direction::North => NORTH,
        Direction::East => EAST,
        Direction::South => SOUTH,
        Direction::West => WEST,
    }
}

/// The fault-plan [`Direction`] a non-local output port maps to.
fn dir_of(port: usize) -> Direction {
    match port {
        NORTH => Direction::North,
        EAST => Direction::East,
        SOUTH => Direction::South,
        WEST => Direction::West,
        _ => unreachable!("the local port has no direction"),
    }
}

/// Sentinel in the reroute tables for "no surviving path".
const UNREACHABLE: u8 = u8::MAX;

/// Process-wide engine selector. When enabled (the default),
/// [`Mesh::skip_idle_to`] may fast-forward across spans it has proven inert;
/// when disabled every skip call is a no-op and `run`/`run_until_quiescent`
/// tick cycle by cycle — the reference engine the differential suite and the
/// ci.sh parity gates compare against. Initialised once from the
/// `GNOC_ENGINE` environment variable (`cycle` disables, anything else
/// enables) so whole-process runs can flip engines without threading a flag.
fn event_skip_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| {
        AtomicBool::new(!matches!(
            std::env::var("GNOC_ENGINE").as_deref(),
            Ok("cycle")
        ))
    })
}

/// Whether the event-driven engine (next-event skip) is enabled.
pub fn event_skip_enabled() -> bool {
    event_skip_cell().load(Ordering::Relaxed)
}

/// Enables or disables the event-driven engine process-wide. Both engines
/// are bit-identical on every observable (stats, ejections, traces, recorder
/// output); this knob exists for differential testing and benchmarking.
pub fn set_event_skip_enabled(on: bool) {
    event_skip_cell().store(on, Ordering::Relaxed)
}

/// Key of one interned up*/down* table set: the mesh geometry, the routing
/// discipline, and the exact dead-link bitset the tables were computed for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RouteKey {
    width: u32,
    height: u32,
    greedy: bool,
    dead: Vec<u64>,
}

/// One interned table set: `tables[node][dest] = output port`.
type SharedRouteTables = Arc<Vec<Vec<u8>>>;

/// Interned route tables, shared by every mesh in the process. Parallel
/// campaign rows and per-die fabric meshes hit identical dead sets, so the
/// tables are computed once and shared behind `Arc`s instead of being
/// recomputed (O(n² · ports) BFS) per row per onset.
fn route_cache() -> &'static Mutex<HashMap<RouteKey, SharedRouteTables>> {
    static CACHE: OnceLock<Mutex<HashMap<RouteKey, SharedRouteTables>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cap on distinct interned table sets; the cache is cleared (not LRU'd)
/// beyond this, which only costs recomputation.
const ROUTE_CACHE_CAP: usize = 1024;

/// Runtime state of an applied [`FaultPlan`].
#[derive(Debug, Clone)]
struct FaultState {
    /// The applied plan, shared (not cloned) across parallel campaign rows.
    plan: Arc<FaultPlan>,
    /// `(onset, link index)` of dead links not yet activated, onset-sorted.
    pending_dead: Vec<(u64, usize)>,
    /// Cursor into `pending_dead`.
    next_dead: usize,
    /// Directed link liveness, indexed `router * NUM_PORTS + port`.
    link_dead: Vec<bool>,
    /// Links taken out of service by the health layer (same indexing). The
    /// routing function always avoids quarantined links; in self-healing
    /// mode they are the *only* links it avoids, because the plan's dead
    /// set is hidden from the router until a breaker opens.
    quarantined: Vec<bool>,
    /// Flaky links as `(onset, drop probability)`, same indexing.
    link_flaky: Vec<Option<(u64, f64)>>,
    /// Fault-aware up*/down* next-hop tables,
    /// `[dst][router * NUM_PORTS + entry port] -> port` ([`UNREACHABLE`] when
    /// no legal surviving path from that state). `None` until the first dead
    /// link activates: a healthy (or merely flaky/stalled) mesh keeps using
    /// dimension-ordered routing bit-identically to the fault-free build.
    /// Interned: meshes with the same geometry and dead set share one table.
    routes: Option<Arc<Vec<Vec<u8>>>>,
    /// Seeded RNG, present only when the plan has probabilistic faults so
    /// benign plans make zero draws.
    rng: Option<StdRng>,
}

/// Bucket width of the latency histogram, cycles.
const LAT_BUCKET: u64 = 4;
/// Number of latency histogram buckets (last bucket absorbs the tail).
const LAT_BUCKETS: usize = 512;
/// Cycles per link-demand window and between telemetry queue-depth samples.
const WINDOW_CYCLES: u64 = 64;

/// Per-simulation statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MeshStats {
    /// Packets delivered, indexed by *source* node.
    pub delivered_by_src: Vec<u64>,
    /// Packets injected, indexed by source node.
    pub injected_by_src: Vec<u64>,
    /// Sum of packet latencies (delivery cycle − birth), for mean latency.
    pub latency_sum: u64,
    /// Delivered packet count (all sources).
    pub delivered_total: u64,
    /// Latency histogram in [`LAT_BUCKET`]-cycle buckets (tail clamps into
    /// the final bucket), for percentile queries.
    pub latency_histogram: Vec<u64>,
    /// Flits forwarded per directed link, indexed `router * NUM_PORTS + port`
    /// (the `LOCAL` port counts ejections). Divide by elapsed cycles for link
    /// utilisation.
    pub link_flits: Vec<u64>,
    /// Peak flits forwarded by any single link within one
    /// [`WINDOW_CYCLES`]-cycle window — the burst-demand figure that sizes
    /// link bandwidth, as opposed to the long-run average.
    pub peak_window_flits: u64,
    /// Packets dropped by flaky links (fault injection only).
    pub dropped_flaky: u64,
    /// Packets dropped by the transient fault process.
    pub dropped_transient: u64,
    /// Packets corrupted in flight (detected at ejection by the reliable
    /// layer's CRC model).
    pub corrupted: u64,
    /// Packets dropped because no surviving route reaches their destination.
    pub dropped_unroutable: u64,
    /// Times the next-hop tables were recomputed after links died.
    pub reroutes: u64,
    /// Packets lost per directed link, indexed `router * NUM_PORTS + port`
    /// (dead-link, flaky, and transient drops are attributed to the link the
    /// packet was crossing). This is the per-link error counter a real
    /// router exports — the behavioral signal the health layer's breakers
    /// consume without ever reading the fault plan.
    pub link_drops: Vec<u64>,
}

impl MeshStats {
    /// Mean packet latency in cycles, or 0 with no deliveries.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_total == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_total as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of packet latency, in cycles, resolved to
    /// histogram-bucket granularity. Returns 0 with no deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.delivered_total == 0 {
            return 0.0;
        }
        let target = (q * self.delivered_total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.latency_histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as u64 * LAT_BUCKET) as f64 + LAT_BUCKET as f64 / 2.0;
            }
        }
        (LAT_BUCKETS as u64 * LAT_BUCKET) as f64
    }

    /// The directed link that forwarded the most flits, as
    /// `(router, port, flits)`. `None` before any traffic.
    pub fn busiest_link(&self) -> Option<(usize, usize, u64)> {
        let (idx, &flits) = self
            .link_flits
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        (flits > 0).then_some((idx / NUM_PORTS, idx % NUM_PORTS, flits))
    }

    fn record_latency(&mut self, latency: u64) {
        if self.latency_histogram.is_empty() {
            self.latency_histogram = vec![0; LAT_BUCKETS];
        }
        let bucket = ((latency / LAT_BUCKET) as usize).min(LAT_BUCKETS - 1);
        self.latency_histogram[bucket] += 1;
    }
}

/// One arbitration grant: phase 1 of [`Mesh::step_inner`] decides it,
/// phase 2 applies it.
#[derive(Debug, Clone, Copy)]
struct Move {
    router: usize,
    slot: usize,
    vc: usize,
    out_port: usize,
}

/// Route-slot mark of a queue head that won arbitration this cycle.
const GRANTED: u8 = UNREACHABLE - 1;

/// Working buffers of [`Mesh::step_inner`], kept across cycles so a warm
/// step allocates nothing. Every buffer is rewritten before it is read each
/// cycle, so a cloned mesh starts with an empty scratch.
#[derive(Debug, Default)]
struct StepScratch {
    /// Route-once slot array, indexed like the queues ([`Mesh::slot`]):
    /// the output port the queue's head routes to, [`GRANTED`]
    /// once it wins arbitration, [`UNREACHABLE`] for an empty queue, a head
    /// with no surviving route, or any queue of a stalled router.
    routes: Vec<u8>,
    /// One output's arbitration candidates, `(slot, birth)`.
    candidates: Vec<(usize, u64)>,
    /// This cycle's grants, router then output ascending.
    moves: Vec<Move>,
}

impl Clone for StepScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A cycle-level 2D mesh.
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: MeshConfig,
    /// Input buffers, one per slot ([`Mesh::slot`]).
    queues: Vec<VecDeque<Packet>>,
    /// Packets queued per router across its slots. Every push and pop of a
    /// queue updates it, so a router with a zero count has no queue head to
    /// route, arbitrate, drop or charge, and the per-router passes of
    /// [`Mesh::step`] and [`Mesh::skip_idle_to`] skip it.
    queued: Vec<usize>,
    /// Output arbiters, one per link `router * NUM_PORTS + port`.
    arbiters: Vec<Arbiter>,
    /// Cycle each output's wormhole serialisation ends, one per link.
    output_busy_until: Vec<u64>,
    cycle: u64,
    /// Cycles advanced by a full [`Mesh::step`]; cycles the event engine
    /// skips are not counted. Kept out of [`MeshStats`] so no serialized
    /// artifact or digest sees it.
    steps: u64,
    next_id: u64,
    ejection_enabled: Vec<bool>,
    ejected: Vec<Packet>,
    stats: MeshStats,
    /// Flits per link in the current [`WINDOW_CYCLES`] window (folded into
    /// `stats.peak_window_flits` at each window boundary).
    window_flits: Vec<u64>,
    telemetry: TelemetryHandle,
    /// Applied fault plan, boxed to keep the fault-free mesh lean.
    faults: Option<Box<FaultState>>,
    /// Packets lost to faults since the last [`Mesh::drain_lost`].
    lost: Vec<(Packet, LossReason)>,
    /// Ids of in-flight packets whose payload was corrupted.
    corrupted: IdSet,
    /// Last cycle on which any packet moved — drives the external watchdog.
    last_progress: u64,
    /// Packets currently buffered anywhere, kept incrementally so
    /// [`Mesh::in_flight`] — and the quiescence checks that poll it every
    /// cycle — are O(1) instead of walking every queue.
    occupancy: usize,
    /// Exclusive upper bound of the span the last [`Mesh::step`] proved
    /// inert: no packet can move, no loss can occur, and every waiting
    /// head's stall classification is constant until this cycle. `<= cycle`
    /// means "unknown / not quiet". Any external mutation (injection,
    /// quarantine, ejection toggling, …) resets it to `cycle`.
    quiet_until: u64,
    /// Causal per-message flight recorder (`gnoc profile`), boxed and absent
    /// by default so unprofiled runs pay one pointer of state and a handful
    /// of `is_some` branches per cycle.
    recorder: Option<Box<FlightRecorder>>,
    /// Per-cycle working buffers of [`Mesh::step_inner`].
    scratch: StepScratch,
    /// Self-healing mode: fault onsets do *not* recompute the next-hop
    /// tables (the mesh is not told about its faults); packets routed into a
    /// dead link are dropped at the transmit side and counted per-link, so
    /// an external health layer can detect the link and quarantine it.
    self_heal: bool,
    /// Test hook: route greedily (no up*/down* discipline), re-introducing
    /// the historical deadlock bug for the chaos harness to catch.
    #[cfg(feature = "bug-hooks")]
    greedy_routing: bool,
}

impl Mesh {
    /// Builds an idle mesh.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the buffer size is zero; use
    /// [`Mesh::try_new`] for a typed error instead.
    pub fn new(cfg: MeshConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an idle mesh, rejecting an unusable configuration with a typed
    /// error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when a dimension, the buffer size, or
    /// the VC count is zero, or the VC count exceeds what the arbiters can
    /// index.
    pub fn try_new(cfg: MeshConfig) -> Result<Self, NocError> {
        cfg.validate()?;
        let n = cfg.num_nodes();
        Ok(Self {
            cfg,
            // Not `vec!`: cloning hundreds of empty deques one by one costs
            // more than the rest of the build.
            queues: std::iter::repeat_with(VecDeque::new)
                .take(n * NUM_PORTS * cfg.vcs)
                .collect(),
            queued: vec![0; n],
            arbiters: vec![Arbiter::new(cfg.arbiter); n * NUM_PORTS],
            output_busy_until: vec![0; n * NUM_PORTS],
            cycle: 0,
            steps: 0,
            next_id: 0,
            ejection_enabled: vec![true; n],
            ejected: Vec::new(),
            stats: MeshStats {
                delivered_by_src: vec![0; n],
                injected_by_src: vec![0; n],
                link_flits: vec![0; n * NUM_PORTS],
                link_drops: vec![0; n * NUM_PORTS],
                ..MeshStats::default()
            },
            window_flits: vec![0; n * NUM_PORTS],
            telemetry: TelemetryHandle::disabled(),
            faults: None,
            lost: Vec::new(),
            corrupted: IdSet::default(),
            last_progress: 0,
            occupancy: 0,
            quiet_until: 0,
            recorder: None,
            scratch: StepScratch::default(),
            self_heal: false,
            #[cfg(feature = "bug-hooks")]
            greedy_routing: false,
        })
    }

    /// **Test hook (feature `bug-hooks`).** Re-introduces the pre-up*/down*
    /// greedy reroute policy: fault-aware next-hop tables take arbitrary
    /// minimal detours with no turn discipline, which is exactly the routing
    /// that wormhole-deadlocked single-VC buffers before the discipline was
    /// added. Exists solely so the chaos harness can prove its deadlock
    /// oracle catches the bug. Call before the first cycle runs; tables
    /// computed afterwards (at fault onsets) use the buggy policy.
    #[cfg(feature = "bug-hooks")]
    pub fn enable_greedy_reroute_bug(&mut self) {
        self.greedy_routing = true;
        self.quiet_until = self.cycle;
    }

    /// Applies a fault plan to this mesh. Dead and flaky links, router
    /// stalls, and transient drop/corruption take effect at their configured
    /// onset cycles; dead links trigger fault-aware next-hop recomputation.
    ///
    /// Fails if the plan does not fit the mesh geometry, would disconnect
    /// it, or a plan was already applied.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), NocError> {
        self.apply_fault_plan_shared(Arc::new(plan.clone()))
    }

    /// Like [`Mesh::apply_fault_plan`], but shares the plan behind an `Arc`
    /// instead of deep-cloning it — parallel campaign rows apply one shared
    /// plan to every mesh they build.
    pub fn apply_fault_plan_shared(&mut self, plan: Arc<FaultPlan>) -> Result<(), NocError> {
        if self.faults.is_some() {
            return Err(NocError::PlanAlreadyApplied);
        }
        plan.validate_for_mesh(self.cfg.width as u32, self.cfg.height as u32)?;
        let links = self.cfg.num_nodes() * NUM_PORTS;
        let mut state = FaultState {
            rng: plan
                .has_probabilistic_faults()
                .then(|| StdRng::seed_from_u64(plan.seed)),
            plan,
            pending_dead: Vec::new(),
            next_dead: 0,
            link_dead: vec![false; links],
            quarantined: vec![false; links],
            link_flaky: vec![None; links],
            routes: None,
        };
        let plan = state.plan.clone();
        for lf in &plan.links {
            let link = lf.router as usize * NUM_PORTS + port_of(lf.dir);
            match lf.kind {
                LinkFaultKind::Dead => state.pending_dead.push((lf.onset, link)),
                LinkFaultKind::Flaky { drop_prob } => {
                    state.link_flaky[link] = Some((lf.onset, drop_prob));
                }
            }
        }
        state.pending_dead.sort_unstable();
        self.faults = Some(Box::new(state));
        self.quiet_until = self.cycle;
        // Activate any onset-0 faults before the first step.
        let mut faults = self.faults.take();
        if let Some(f) = faults.as_deref_mut() {
            self.process_fault_onsets(f);
        }
        self.faults = faults;
        Ok(())
    }

    /// The mesh's configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// The applied fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref().map(|f| f.plan.as_ref())
    }

    /// Whether a packet freshly injected at `src` can currently reach `dst`
    /// under the active routing function. Distinguishes a transfer whose
    /// destination is genuinely cut off (retrying cannot help) from one
    /// whose in-flight copy was merely caught in an illegal up*/down* state
    /// by a link's onset (a retransmission from the source still has a
    /// legal path).
    pub fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        self.route_current(self.faults.as_deref(), src.index(), LOCAL, dst.index())
            .is_some()
    }

    /// Number of directed links currently dead.
    pub fn dead_links_active(&self) -> usize {
        self.faults
            .as_deref()
            .map_or(0, |f| f.link_dead.iter().filter(|d| **d).count())
    }

    /// Switches the mesh into self-healing mode: fault onsets stop
    /// recomputing the next-hop tables (the router is no longer told about
    /// its faults), and packets routed into a dead link die at the transmit
    /// side, charged to that link's [`MeshStats::link_drops`] counter. An
    /// external health layer is expected to watch those counters and call
    /// [`Mesh::quarantine_link`]. Set this *before* applying a fault plan so
    /// onset-0 faults are hidden too.
    pub fn set_self_healing(&mut self, on: bool) {
        self.self_heal = on;
        self.quiet_until = self.cycle;
    }

    /// Whether self-healing mode is on.
    pub fn self_healing(&self) -> bool {
        self.self_heal
    }

    /// The directed-link index of `(router, dir)`, validated against the
    /// mesh geometry.
    fn link_index(&self, router: u32, dir: Direction) -> Result<usize, NocError> {
        let (w, h) = (self.cfg.width as u32, self.cfg.height as u32);
        if router >= w * h {
            return Err(NocError::FaultPlan(FaultPlanError::RouterOutOfRange {
                router,
                num_routers: w * h,
            }));
        }
        if dir.neighbour(router, w, h).is_none() {
            return Err(NocError::FaultPlan(FaultPlanError::LinkOffEdge {
                router,
                dir,
            }));
        }
        Ok(router as usize * NUM_PORTS + port_of(dir))
    }

    /// Lazily creates an empty fault state so quarantine works on a mesh
    /// that never had a plan applied (a false-positive breaker must still be
    /// honoured — and then released — gracefully).
    fn ensure_fault_state(&mut self) {
        if self.faults.is_none() {
            let links = self.cfg.num_nodes() * NUM_PORTS;
            self.faults = Some(Box::new(FaultState {
                plan: Arc::new(FaultPlan::none()),
                pending_dead: Vec::new(),
                next_dead: 0,
                link_dead: vec![false; links],
                quarantined: vec![false; links],
                link_flaky: vec![None; links],
                routes: None,
                rng: None,
            }));
        }
    }

    /// Every `(src, dst)` pair reachable from a fresh injection?
    fn fully_routable(&self, tables: &[Vec<u8>]) -> bool {
        let n = self.cfg.num_nodes();
        (0..n).all(|dst| (0..n).all(|src| tables[dst][src * NUM_PORTS + LOCAL] != UNREACHABLE))
    }

    /// The up*/down* tables for `link_dead`, served from the process-wide
    /// intern cache when another mesh (a parallel campaign row, an earlier
    /// onset, a sibling die) already computed them for the same geometry and
    /// dead set. The tables are pure functions of the key, so sharing cannot
    /// change routing decisions.
    fn interned_route_tables(&self, link_dead: &[bool]) -> Arc<Vec<Vec<u8>>> {
        let mut dead = vec![0u64; link_dead.len().div_ceil(64)];
        for (i, d) in link_dead.iter().enumerate() {
            if *d {
                dead[i / 64] |= 1 << (i % 64);
            }
        }
        #[cfg(feature = "bug-hooks")]
        let greedy = self.greedy_routing;
        #[cfg(not(feature = "bug-hooks"))]
        let greedy = false;
        let key = RouteKey {
            width: self.cfg.width as u32,
            height: self.cfg.height as u32,
            greedy,
            dead,
        };
        if let Ok(cache) = route_cache().lock() {
            if let Some(hit) = cache.get(&key) {
                return hit.clone();
            }
        }
        // Compute outside the lock: the BFS is the expensive part, and two
        // threads racing to insert the same key converge on one entry below.
        let tables = Arc::new(self.compute_route_tables(link_dead));
        match route_cache().lock() {
            Ok(mut cache) => {
                if cache.len() >= ROUTE_CACHE_CAP {
                    cache.clear();
                }
                cache.entry(key).or_insert(tables).clone()
            }
            Err(_) => tables,
        }
    }

    /// Takes the directed link `(router, dir)` out of service and rebuilds
    /// the up*/down* next-hop tables around it — the health layer's Open
    /// breaker action. Idempotent on an already-quarantined link.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::QuarantineWouldDisconnect`] (leaving the routing
    /// unchanged) when removing the link would strand some node pair, and
    /// [`NocError::FaultPlan`] when the link does not exist.
    pub fn quarantine_link(&mut self, router: u32, dir: Direction) -> Result<(), NocError> {
        let idx = self.link_index(router, dir)?;
        self.ensure_fault_state();
        let mut faults = self.faults.take();
        let result = {
            let f = faults.as_deref_mut().expect("fault state just ensured");
            if f.quarantined[idx] {
                Ok(())
            } else {
                f.quarantined[idx] = true;
                let tables = self.interned_route_tables(&self.routing_dead_set(f));
                if self.fully_routable(&tables) {
                    f.routes = Some(tables);
                    self.stats.reroutes += 1;
                    self.quiet_until = self.cycle;
                    self.telemetry.emit_with(|| {
                        TraceEvent::new(self.cycle, SUBSYSTEM_NOC, "quarantine")
                            .with("router", router)
                            .with("port", port_of(dir))
                    });
                    Ok(())
                } else {
                    f.quarantined[idx] = false;
                    Err(NocError::QuarantineWouldDisconnect { router, dir })
                }
            }
        };
        self.faults = faults;
        result
    }

    /// Returns the directed link `(router, dir)` to service — the health
    /// layer's HalfOpen-probe-passed action. With nothing left to avoid, the
    /// mesh falls back to plain dimension-ordered routing. Idempotent on a
    /// link that is not quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::FaultPlan`] when the link does not exist.
    pub fn release_link(&mut self, router: u32, dir: Direction) -> Result<(), NocError> {
        let idx = self.link_index(router, dir)?;
        let mut faults = self.faults.take();
        if let Some(f) = faults.as_deref_mut() {
            if f.quarantined[idx] {
                f.quarantined[idx] = false;
                let dead = self.routing_dead_set(f);
                f.routes = if dead.iter().any(|d| *d) {
                    Some(self.interned_route_tables(&dead))
                } else {
                    None
                };
                self.stats.reroutes += 1;
                self.quiet_until = self.cycle;
                self.telemetry.emit_with(|| {
                    TraceEvent::new(self.cycle, SUBSYSTEM_NOC, "release")
                        .with("router", router)
                        .with("port", port_of(dir))
                });
            }
        }
        self.faults = faults;
        Ok(())
    }

    /// Sends one probe flit across the directed link `(router, dir)` and
    /// reports whether it survived — the HalfOpen breaker's recovery test.
    /// The probe experiences the link's physical state: a dead link always
    /// eats it, a flaky link rolls its usual drop coin (consuming the plan's
    /// RNG stream), a healthy link always passes it.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::FaultPlan`] when the link does not exist.
    pub fn probe_link(&mut self, router: u32, dir: Direction) -> Result<bool, NocError> {
        let idx = self.link_index(router, dir)?;
        let cycle = self.cycle;
        let ok = match self.faults.as_deref_mut() {
            None => true,
            Some(f) => {
                if f.link_dead[idx] {
                    false
                } else if let Some((onset, prob)) = f.link_flaky[idx] {
                    cycle < onset
                        || !f
                            .rng
                            .as_mut()
                            .is_some_and(|rng| rng.gen_bool(prob.clamp(0.0, 1.0)))
                } else {
                    true
                }
            }
        };
        Ok(ok)
    }

    /// The links currently quarantined by the health layer, in deterministic
    /// `(router, direction)` order.
    pub fn quarantined_links(&self) -> Vec<(u32, Direction)> {
        let Some(f) = self.faults.as_deref() else {
            return Vec::new();
        };
        f.quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| **q)
            .map(|(idx, _)| ((idx / NUM_PORTS) as u32, dir_of(idx % NUM_PORTS)))
            .collect()
    }

    /// Attaches a telemetry handle. An enabled mesh samples router input
    /// queue depths every [`WINDOW_CYCLES`] cycles into the
    /// `noc.router_queue_depth` histogram (plus `queue_depth` trace events
    /// for the deepest router); the disabled default adds one branch per
    /// window boundary and nothing else.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The mesh's telemetry handle.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// How many cycles ran through a full [`Mesh::step`] since the mesh was
    /// built. The rest of [`Mesh::cycle`] was skipped by the event engine,
    /// so `cycle() - steps()` is the exact work the skips saved.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warm-up) without touching in-flight
    /// packets.
    pub fn reset_stats(&mut self) {
        let n = self.cfg.num_nodes();
        self.stats = MeshStats {
            delivered_by_src: vec![0; n],
            injected_by_src: vec![0; n],
            link_flits: vec![0; n * NUM_PORTS],
            link_drops: vec![0; n * NUM_PORTS],
            ..MeshStats::default()
        };
        self.window_flits.iter_mut().for_each(|w| *w = 0);
    }

    /// Enables or disables ejection at `node` — the back-pressure hook used
    /// by the memory-system simulation (a stalled memory controller stops
    /// accepting packets, congesting the network behind it).
    pub fn set_ejection_enabled(&mut self, node: NodeId, enabled: bool) {
        let slot = &mut self.ejection_enabled[node.index()];
        // Only an actual change can wake the mesh; the memory-system
        // simulation re-asserts the current value every cycle.
        if *slot != enabled {
            *slot = enabled;
            self.quiet_until = self.cycle;
        }
    }

    /// Attaches a fresh [`FlightRecorder`]: from now on every injected
    /// message gets a causal lifecycle record with exact stall attribution.
    /// The recorder observes the simulation but cannot influence it, so a
    /// recorded run is bit-identical to an unrecorded one.
    pub fn attach_flight_recorder(&mut self) {
        self.recorder = Some(Box::new(FlightRecorder::new()));
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Mutable access to the attached flight recorder — protocol and health
    /// layers use this to annotate the timeline (retries, breaker
    /// transitions, oracle violations).
    pub fn flight_recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_deref_mut()
    }

    /// Detaches and returns the flight recorder for analysis/export.
    pub fn take_flight_recorder(&mut self) -> Option<Box<FlightRecorder>> {
        self.recorder.take()
    }

    /// Attempts to inject a packet at `src`; returns `false` when the local
    /// input buffer is full (the terminal must retry later).
    pub fn try_inject(&mut self, src: NodeId, dst: NodeId, flits: u32, class: PacketClass) -> bool {
        let birth = self.cycle;
        self.try_inject_with_birth(src, dst, flits, class, birth)
    }

    /// Like [`Mesh::try_inject`], but with an explicit birth stamp. Traffic
    /// generators stamp packets with their *generation* time so that waiting
    /// in the source queue counts towards age — required for age-based
    /// arbitration to provide global fairness.
    pub fn try_inject_with_birth(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
        birth: u64,
    ) -> bool {
        self.try_inject_tracked(src, dst, flits, class, birth)
            .is_some()
    }

    /// Like [`Mesh::try_inject_with_birth`], but returns the assigned packet
    /// id on success so callers (the reliable-delivery layer) can match
    /// ejections and losses back to their transfers.
    pub fn try_inject_tracked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
        birth: u64,
    ) -> Option<u64> {
        assert!(src.index() < self.cfg.num_nodes(), "src out of range");
        assert!(dst.index() < self.cfg.num_nodes(), "dst out of range");
        let slot = self.slot(src.index(), LOCAL, self.vc_of(class));
        if self.queues[slot].len() >= self.cfg.buffer_packets {
            return None;
        }
        let id = self.next_id;
        self.queues[slot].push_back(Packet {
            id,
            src,
            dst,
            flits,
            birth,
            class,
        });
        self.queued[src.index()] += 1;
        self.next_id += 1;
        self.occupancy += 1;
        self.quiet_until = self.cycle;
        self.stats.injected_by_src[src.index()] += 1;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.on_inject(
                id,
                src.index() as u32,
                dst.index() as u32,
                flits,
                birth,
                self.cycle,
            );
        }
        Some(id)
    }

    /// Packets ejected since the last drain.
    pub fn drain_ejected(&mut self) -> Vec<Packet> {
        // Copied out rather than taken, so the buffer keeps its capacity
        // and `step` does not reallocate it on the next ejection.
        self.ejected.drain(..).collect()
    }

    /// Packets lost to faults since the last drain, with the reason each was
    /// lost. Empty on a fault-free mesh.
    pub fn drain_lost(&mut self) -> Vec<(Packet, LossReason)> {
        std::mem::take(&mut self.lost)
    }

    /// Checks and clears the corruption mark for packet `id`. The reliable
    /// layer calls this at ejection — a `true` return means the payload
    /// failed its CRC and must be NACKed.
    pub fn take_corrupted(&mut self, id: u64) -> bool {
        self.corrupted.remove(&id)
    }

    /// Packets currently buffered anywhere in the mesh. O(1): the count is
    /// maintained incrementally at injection, ejection, and every loss.
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.queues.iter().map(VecDeque::len).sum::<usize>(),
            "incremental occupancy diverged from the queues"
        );
        debug_assert!(
            self.queued.iter().enumerate().all(|(r, &queued)| queued
                == self.queues[self.slot(r, 0, 0)..self.slot(r + 1, 0, 0)]
                    .iter()
                    .map(VecDeque::len)
                    .sum::<usize>()),
            "a router's queued count diverged from its queues"
        );
        self.occupancy
    }

    /// Cycles since any packet last moved — the external deadlock watchdog's
    /// input signal.
    pub fn cycles_since_progress(&self) -> u64 {
        self.cycle.saturating_sub(self.last_progress)
    }

    /// The queue of `(router, port, vc)`, slot
    /// `(router * NUM_PORTS + port) * vcs + vc`. A router's slots are
    /// contiguous, and `slot / vcs` is the link index that `arbiters`,
    /// `output_busy_until` and the per-link statistics share.
    fn slot(&self, router: usize, port: usize, vc: usize) -> usize {
        (router * NUM_PORTS + port) * self.cfg.vcs + vc
    }

    /// The virtual channel a packet class rides: requests on VC 0, replies on
    /// the highest VC (identical when only one VC is configured).
    fn vc_of(&self, class: PacketClass) -> usize {
        match class {
            PacketClass::Request => 0,
            PacketClass::Reply => self.cfg.vcs - 1,
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.cfg.width, node / self.cfg.width)
    }

    /// Dimension-ordered routing: returns the output port at `node` for a
    /// packet heading to `dst`.
    fn route(&self, node: usize, dst: usize) -> usize {
        let (x, y) = self.coords(node);
        let (dx, dy) = self.coords(dst);
        let x_port = if dx > x {
            Some(EAST)
        } else if dx < x {
            Some(WEST)
        } else {
            None
        };
        let y_port = if dy > y {
            Some(NORTH)
        } else if dy < y {
            Some(SOUTH)
        } else {
            None
        };
        let (first, second) = match self.cfg.route_order {
            RouteOrder::Xy => (x_port, y_port),
            RouteOrder::Yx => (y_port, x_port),
        };
        first.or(second).unwrap_or(LOCAL)
    }

    fn neighbour(&self, node: usize, port: usize) -> usize {
        let (x, y) = self.coords(node);
        match port {
            NORTH => x + (y + 1) * self.cfg.width,
            SOUTH => x + (y - 1) * self.cfg.width,
            EAST => (x + 1) + y * self.cfg.width,
            WEST => (x - 1) + y * self.cfg.width,
            _ => unreachable!("no neighbour through the local port"),
        }
    }

    /// The input port at the downstream router that `port` feeds.
    fn entry_port(port: usize) -> usize {
        match port {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            _ => unreachable!(),
        }
    }

    /// Like [`Mesh::neighbour`] but `None` at the mesh edge (and for the
    /// local port) instead of undefined arithmetic.
    fn neighbour_checked(&self, node: usize, port: usize) -> Option<usize> {
        let (x, y) = self.coords(node);
        match port {
            NORTH => (y + 1 < self.cfg.height).then(|| x + (y + 1) * self.cfg.width),
            SOUTH => y.checked_sub(1).map(|y| x + y * self.cfg.width),
            EAST => (x + 1 < self.cfg.width).then(|| (x + 1) + y * self.cfg.width),
            WEST => x.checked_sub(1).map(|x| x + y * self.cfg.width),
            _ => None,
        }
    }

    /// Fault-aware next-hop tables over the surviving directed links,
    /// indexed `[dst][router * NUM_PORTS + entry port]` (entry [`LOCAL`] =
    /// freshly injected), [`UNREACHABLE`] when no legal path survives.
    ///
    /// Routing follows the up*/down* discipline: BFS levels are computed
    /// from a root over the surviving topology, every directed link is
    /// oriented "up" (towards lower level, then lower id) or "down", and a
    /// packet that has taken a down link may never take an up link again.
    /// The (level, id) order makes the channel-dependency graph acyclic, so
    /// rerouted traffic cannot wormhole-deadlock the single-VC buffers —
    /// arbitrary minimal detours can (and, before this discipline, did: the
    /// watchdog wrote whole runs off). Every router in a connected
    /// component can climb to its root on up links and descend on down
    /// links, so any connected (src, dst) pair stays routable from
    /// injection. The fixed expansion order keeps the tables deterministic.
    fn compute_route_tables(&self, link_dead: &[bool]) -> Vec<Vec<u8>> {
        let n = self.cfg.num_nodes();
        let states = n * NUM_PORTS;
        // An edge counts for levelling only when both directions survive, so
        // a climb (and the reverse descent) is always physically possible.
        let both_alive = |v: usize, port: usize, u: usize| -> bool {
            !link_dead[v * NUM_PORTS + port] && !link_dead[u * NUM_PORTS + Self::entry_port(port)]
        };
        let mut level = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for root in 0..n {
            if level[root] != u32::MAX {
                continue;
            }
            level[root] = 0;
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                for port in [NORTH, EAST, SOUTH, WEST] {
                    let Some(u) = self.neighbour_checked(v, port) else {
                        continue;
                    };
                    if level[u] == u32::MAX && both_alive(v, port, u) {
                        level[u] = level[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
        }
        // The traversal v → u is "down" when it moves away from the root.
        let is_down = |v: usize, u: usize| (level[u], u) > (level[v], v);
        // A hop from state (v, entry p) to u is legal unless the packet
        // already descended (it arrived over a down link) and the hop would
        // climb again. Fresh injections (entry LOCAL) may go anywhere.
        #[cfg(feature = "bug-hooks")]
        let greedy = self.greedy_routing;
        #[cfg(not(feature = "bug-hooks"))]
        let greedy = false;
        let hop_ok = |v: usize, p: usize, u: usize| -> bool {
            if greedy {
                // Bug hook: no turn discipline at all — arbitrary minimal
                // detours, which can wormhole-deadlock single-VC buffers.
                return true;
            }
            match self.neighbour_checked(v, p) {
                None => true,
                Some(prev) => !is_down(prev, v) || is_down(v, u),
            }
        };

        // Reverse adjacency of the legal state graph, for the per-dst BFS.
        let mut radj: Vec<Vec<u32>> = vec![Vec::new(); states];
        for v in 0..n {
            for p in 0..NUM_PORTS {
                if p != LOCAL && self.neighbour_checked(v, p).is_none() {
                    continue; // edge-of-mesh port: no such entry state
                }
                for out in [NORTH, EAST, SOUTH, WEST] {
                    if link_dead[v * NUM_PORTS + out] {
                        continue;
                    }
                    let Some(u) = self.neighbour_checked(v, out) else {
                        continue;
                    };
                    if !hop_ok(v, p, u) {
                        continue;
                    }
                    radj[u * NUM_PORTS + Self::entry_port(out)].push((v * NUM_PORTS + p) as u32);
                }
            }
        }

        let mut tables = vec![vec![UNREACHABLE; states]; n];
        let mut dist = vec![u32::MAX; states];
        for dst in 0..n {
            let table = &mut tables[dst];
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            queue.clear();
            for p in 0..NUM_PORTS {
                table[dst * NUM_PORTS + p] = LOCAL as u8;
                dist[dst * NUM_PORTS + p] = 0;
                queue.push_back(dst * NUM_PORTS + p);
            }
            while let Some(s) = queue.pop_front() {
                for &pred in &radj[s] {
                    let pred = pred as usize;
                    if dist[pred] == u32::MAX {
                        dist[pred] = dist[s] + 1;
                        queue.push_back(pred);
                    }
                }
            }
            // Next hop per state: first port (fixed order) on a minimal
            // legal path.
            for v in 0..n {
                if v == dst {
                    continue;
                }
                for p in 0..NUM_PORTS {
                    let mut best = u32::MAX;
                    let mut best_port = UNREACHABLE;
                    for out in [NORTH, EAST, SOUTH, WEST] {
                        if link_dead[v * NUM_PORTS + out] {
                            continue;
                        }
                        let Some(u) = self.neighbour_checked(v, out) else {
                            continue;
                        };
                        if !hop_ok(v, p, u) {
                            continue;
                        }
                        let d = dist[u * NUM_PORTS + Self::entry_port(out)];
                        if d < best {
                            best = d;
                            best_port = out as u8;
                        }
                    }
                    if best != u32::MAX {
                        table[v * NUM_PORTS + p] = best_port;
                    }
                }
            }
        }
        tables
    }

    /// The links the routing function must avoid: the health layer's
    /// quarantine set, plus — outside self-healing mode — the plan's dead
    /// set. In self-healing mode the plan is hidden from the router, so only
    /// quarantined links are excluded.
    fn routing_dead_set(&self, f: &FaultState) -> Vec<bool> {
        if self.self_heal {
            f.quarantined.clone()
        } else {
            f.link_dead
                .iter()
                .zip(&f.quarantined)
                .map(|(d, q)| *d || *q)
                .collect()
        }
    }

    /// Activates dead links whose onset has arrived and recomputes the
    /// next-hop tables when the dead set changed. In self-healing mode the
    /// tables are left alone: the fault is physical reality, but the router
    /// has not been told — detection and quarantine are the health layer's
    /// job.
    fn process_fault_onsets(&mut self, f: &mut FaultState) {
        let mut changed = false;
        while f.next_dead < f.pending_dead.len() && f.pending_dead[f.next_dead].0 <= self.cycle {
            f.link_dead[f.pending_dead[f.next_dead].1] = true;
            f.next_dead += 1;
            changed = true;
        }
        if changed && !self.self_heal {
            f.routes = Some(self.interned_route_tables(&self.routing_dead_set(f)));
            self.stats.reroutes += 1;
            let dead = f.link_dead.iter().filter(|d| **d).count();
            self.telemetry.emit_with(|| {
                TraceEvent::new(self.cycle, SUBSYSTEM_NOC, "reroute").with("dead_links", dead)
            });
        }
    }

    /// Self-healing mode: drops queue heads whose next hop is a dead link
    /// the routing function still points at, charging the loss to that
    /// link's error counter. One head per queue per cycle, mirroring
    /// [`Mesh::drop_unroutable_heads`]. This is the transmit-side timeout a
    /// real link layer raises when the far end stops returning credits — the
    /// observable that lets a health monitor find the dead link.
    fn drop_dead_port_heads(&mut self, f: &FaultState) {
        for r in 0..self.queued.len() {
            if self.queued[r] == 0 {
                continue;
            }
            for in_port in 0..NUM_PORTS {
                for vc in 0..self.cfg.vcs {
                    let slot = self.slot(r, in_port, vc);
                    let Some(head) = self.queues[slot].front() else {
                        continue;
                    };
                    let Some(out) = self.route_current(Some(f), r, in_port, head.dst.index())
                    else {
                        continue;
                    };
                    if out == LOCAL || !f.link_dead[r * NUM_PORTS + out] {
                        continue;
                    }
                    let Some(packet) = self.queues[slot].pop_front() else {
                        continue;
                    };
                    self.queued[r] -= 1;
                    self.occupancy -= 1;
                    self.stats.link_drops[r * NUM_PORTS + out] += 1;
                    self.lost.push((packet, LossReason::DeadLink));
                }
            }
        }
    }

    /// Drops queue heads that no surviving route can deliver, reporting each
    /// as [`LossReason::Unroutable`]. One head per queue per cycle — the
    /// queue drains over the following cycles, exactly as a real ejection
    /// path would time out stuck wormholes one at a time.
    fn drop_unroutable_heads(&mut self, f: &FaultState) {
        let Some(routes) = f.routes.as_ref() else {
            return;
        };
        for r in 0..self.queued.len() {
            if self.queued[r] == 0 {
                continue;
            }
            for in_port in 0..NUM_PORTS {
                for vc in 0..self.cfg.vcs {
                    let slot = self.slot(r, in_port, vc);
                    let Some(head) = self.queues[slot].front() else {
                        continue;
                    };
                    if routes[head.dst.index()][r * NUM_PORTS + in_port] != UNREACHABLE {
                        continue;
                    }
                    let Some(packet) = self.queues[slot].pop_front() else {
                        continue;
                    };
                    self.queued[r] -= 1;
                    self.occupancy -= 1;
                    self.stats.dropped_unroutable += 1;
                    self.lost.push((packet, LossReason::Unroutable));
                }
            }
        }
    }

    /// Whether router `r` is inside a stall window this cycle.
    fn is_stalled(&self, f: &FaultState, r: usize) -> bool {
        f.plan.routers.iter().any(|s| {
            s.router as usize == r
                && s.onset <= self.cycle
                && self.cycle < s.onset.saturating_add(s.duration)
        })
    }

    /// The output port at `node` for a packet to `dst` that entered via
    /// `in_port` ([`LOCAL`] for fresh injections), under the current routing
    /// function: the fault-aware up*/down* tables once any link has died,
    /// dimension-ordered routing otherwise. `None` when `dst` is unreachable
    /// from this state.
    fn route_current(
        &self,
        f: Option<&FaultState>,
        node: usize,
        in_port: usize,
        dst: usize,
    ) -> Option<usize> {
        if let Some(routes) = f.and_then(|f| f.routes.as_ref()) {
            let port = routes[dst][node * NUM_PORTS + in_port];
            return (port != UNREACHABLE).then_some(port as usize);
        }
        Some(self.route(node, dst))
    }

    /// Rolls the probabilistic faults for one packet crossing `link`.
    /// Returns `true` when the packet was dropped (it is already recorded in
    /// the loss list); a corrupted packet keeps flying but is marked so the
    /// ejection-side CRC check can catch it. Draws happen only for faults
    /// that are active this cycle, so a benign plan consumes no randomness.
    fn hop_faults(&mut self, f: &mut FaultState, packet: &Packet, link: usize) -> bool {
        if let Some((onset, prob)) = f.link_flaky[link] {
            if self.cycle >= onset {
                let dropped = f
                    .rng
                    .as_mut()
                    .is_some_and(|rng| rng.gen_bool(prob.clamp(0.0, 1.0)));
                if dropped {
                    self.stats.dropped_flaky += 1;
                    self.stats.link_drops[link] += 1;
                    self.lost.push((*packet, LossReason::FlakyLink));
                    return true;
                }
            }
        }
        let t = f.plan.transient;
        if t.is_active() && self.cycle >= t.onset {
            if let Some(rng) = f.rng.as_mut() {
                if t.drop_prob > 0.0 && rng.gen_bool(t.drop_prob.clamp(0.0, 1.0)) {
                    self.stats.dropped_transient += 1;
                    self.stats.link_drops[link] += 1;
                    self.lost.push((*packet, LossReason::TransientDrop));
                    return true;
                }
                if t.corrupt_prob > 0.0
                    && rng.gen_bool(t.corrupt_prob.clamp(0.0, 1.0))
                    && self.corrupted.insert(packet.id)
                {
                    self.stats.corrupted += 1;
                }
            }
        }
        false
    }

    /// The stall cause a waiting queue head would be charged this cycle —
    /// the flight recorder's classification, shared verbatim between the
    /// per-cycle attribution pass and the event engine's span-batched
    /// charging (the span bound guarantees every input to this function is
    /// constant across the skipped cycles).
    fn classify_stall(
        &self,
        faults: Option<&FaultState>,
        r: usize,
        in_port: usize,
        vc: usize,
        head: &Packet,
    ) -> StallKind {
        if faults.is_some_and(|f| self.is_stalled(f, r)) {
            return StallKind::RouterStall;
        }
        match self.route_current(faults, r, in_port, head.dst.index()) {
            None => StallKind::RouterStall,
            Some(out)
                if out != LOCAL && faults.is_some_and(|f| f.link_dead[r * NUM_PORTS + out]) =>
            {
                StallKind::RouterStall
            }
            Some(out) if self.output_busy_until[r * NUM_PORTS + out] > self.cycle => {
                StallKind::Serialization
            }
            Some(out) if out == LOCAL && !self.ejection_enabled[r] => StallKind::Backpressure,
            Some(out)
                if out != LOCAL && {
                    let down = self.slot(self.neighbour(r, out), Self::entry_port(out), vc);
                    self.queues[down].len() >= self.cfg.buffer_packets
                } =>
            {
                StallKind::Backpressure
            }
            Some(_) => StallKind::Contention,
        }
    }

    /// Charges `n` cycles of its [`Mesh::classify_stall`] cause to every
    /// waiting queue head: every head, or with `routes` every head whose
    /// slot is not [`GRANTED`].
    fn charge_waiting_heads(
        &self,
        faults: Option<&FaultState>,
        rec: &mut FlightRecorder,
        routes: Option<&[u8]>,
        n: u64,
    ) {
        for r in 0..self.queued.len() {
            if self.queued[r] == 0 {
                continue;
            }
            for in_port in 0..NUM_PORTS {
                for vc in 0..self.cfg.vcs {
                    let slot = self.slot(r, in_port, vc);
                    let Some(head) = self.queues[slot].front() else {
                        continue;
                    };
                    if routes.is_some_and(|routes| routes[slot] == GRANTED) {
                        continue;
                    }
                    let kind = self.classify_stall(faults, r, in_port, vc, head);
                    rec.charge_n(head.id, kind, n);
                }
            }
        }
    }

    /// Advances the simulation by one cycle (the cycle-exact reference
    /// step), then records how far the mesh is provably inert so
    /// [`Mesh::skip_idle_to`] can fast-forward.
    pub fn step(&mut self) {
        let quiet = self.step_inner();
        self.steps += 1;
        // The bound is only computed when a skip could use it, so the
        // reference engine's per-cycle cost is unchanged. Re-enabling the
        // event engine mid-run starts from the conservative "unknown".
        self.quiet_until = if quiet && event_skip_enabled() {
            self.activity_bound()
        } else {
            self.cycle
        };
    }

    /// One cycle of the reference engine. Returns `true` when the cycle was
    /// *quiet*: nothing moved and nothing was lost. A quiet cycle proves no
    /// queue head anywhere was a grantable candidate, and — since nothing in
    /// the arbitration inputs changes while the mesh is untouched except the
    /// cycle counter itself — every following cycle is identical until the
    /// first cycle-dependent threshold ([`Mesh::activity_bound`]) passes.
    /// The arbiters' round-robin state is preserved exactly: `pick` is only
    /// ever called with a non-empty candidate list and always grants, so a
    /// quiet cycle makes zero `pick` calls under both engines.
    fn step_inner(&mut self) -> bool {
        let vcs = self.cfg.vcs;
        // The recorder, like the fault state, is taken out of `self` so the
        // instrumentation below can borrow the routers freely.
        let mut rec = self.recorder.take();
        let lost_mark = self.lost.len();
        // Phase 0: fault bookkeeping (absent on a fault-free mesh). The state
        // is taken out of `self` so helpers can borrow the routers freely.
        let mut faults = self.faults.take();
        if let Some(f) = faults.as_deref_mut() {
            self.process_fault_onsets(f);
            if self.self_heal {
                self.drop_dead_port_heads(f);
            }
            self.drop_unroutable_heads(f);
        }
        if let Some(rec) = rec.as_deref_mut() {
            // Queue heads dropped by phase 0 (dead port / unroutable).
            for (packet, reason) in &self.lost[lost_mark..] {
                rec.on_lost(packet.id, self.cycle, &format!("{reason:?}"));
            }
        }

        // Phase 1: arbitration decisions on a consistent snapshot. Each
        // queue head is routed once into the slot array; each output then
        // arbitrates among the slots routed to it that have downstream credit
        // on their own VC. The credit read needs no same-cycle reservation:
        // exactly one (router, output) pair feeds each downstream (router,
        // entry port), and it grants at most once per cycle.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.routes.resize(self.queues.len(), UNREACHABLE);
        scratch.moves.clear();
        for r in 0..self.queued.len() {
            let (first, end) = (self.slot(r, 0, 0), self.slot(r + 1, 0, 0));
            if self.queued[r] == 0 || faults.as_deref().is_some_and(|f| self.is_stalled(f, r)) {
                scratch.routes[first..end].fill(UNREACHABLE);
                continue;
            }
            // Bit `out` set: some head routes to output `out`.
            let mut wanted = 0u8;
            for in_port in 0..NUM_PORTS {
                for vc in 0..vcs {
                    let slot = self.slot(r, in_port, vc);
                    let route = self.queues[slot]
                        .front()
                        .and_then(|head| {
                            self.route_current(faults.as_deref(), r, in_port, head.dst.index())
                        })
                        .map_or(UNREACHABLE, |out| out as u8);
                    scratch.routes[slot] = route;
                    if route != UNREACHABLE {
                        wanted |= 1 << route;
                    }
                }
            }
            if wanted == 0 {
                continue;
            }
            for out in 0..NUM_PORTS {
                let link = r * NUM_PORTS + out;
                if wanted & (1 << out) == 0 || self.output_busy_until[link] > self.cycle {
                    continue;
                }
                if out == LOCAL && !self.ejection_enabled[r] {
                    continue;
                }
                // Downstream input queue `out` feeds, per VC.
                let down = (out != LOCAL).then(|| (self.neighbour(r, out), Self::entry_port(out)));
                if down.is_some() && faults.as_deref().is_some_and(|f| f.link_dead[link]) {
                    continue;
                }
                // Candidates in slot order: heads routed to `out` with
                // downstream credit on the packet's own VC. Arbiter inputs
                // are the router-local slot `in_port * vcs + vc`.
                scratch.candidates.clear();
                for slot in first..end {
                    if usize::from(scratch.routes[slot]) != out {
                        continue;
                    }
                    if let Some((down, entry)) = down {
                        let credit = self.slot(down, entry, slot % vcs);
                        if self.queues[credit].len() >= self.cfg.buffer_packets {
                            continue;
                        }
                    }
                    let Some(head) = self.queues[slot].front() else {
                        continue;
                    };
                    scratch.candidates.push((slot - first, head.birth));
                }
                if scratch.candidates.is_empty() {
                    continue;
                }
                if let Some(winner) = self.arbiters[link].pick(&scratch.candidates) {
                    scratch.routes[first + winner] = GRANTED;
                    scratch.moves.push(Move {
                        router: r,
                        slot: first + winner,
                        vc: winner % vcs,
                        out_port: out,
                    });
                }
            }
        }

        // Stall attribution: a read-only classification pass over the same
        // snapshot phase 1 arbitrated on (nothing has been popped or pushed
        // yet), so each waiting queue head — every head not marked
        // [`GRANTED`] in the slot array — is charged exactly one cause per
        // cycle. The decision loop above is untouched — the recorder can
        // observe but never perturb.
        if let Some(rec) = rec.as_deref_mut() {
            self.charge_waiting_heads(faults.as_deref(), rec, Some(&scratch.routes), 1);
        }

        // Phase 2: apply moves. The move list order is deterministic, so the
        // per-move fault draws below consume the plan RNG reproducibly.
        let moved = !scratch.moves.is_empty();
        if moved {
            self.last_progress = self.cycle;
        }
        for &m in &scratch.moves {
            // Invariant: arbitration granted a queue head it just observed.
            let Some(packet) = self.queues[m.slot].pop_front() else {
                debug_assert!(false, "arbitration winner vanished before apply");
                continue;
            };
            // The packet left its buffer; it re-enters one downstream unless
            // it ejects or dies on the hop.
            self.queued[m.router] -= 1;
            self.occupancy -= 1;
            // The flits occupy the wire whether or not they survive the hop.
            let link = m.router * NUM_PORTS + m.out_port;
            self.output_busy_until[link] = self.cycle + u64::from(packet.flits);
            self.stats.link_flits[link] += u64::from(packet.flits);
            self.window_flits[link] += u64::from(packet.flits);
            if let Some(rec) = rec.as_deref_mut() {
                rec.on_grant(packet.id, m.out_port as u8, self.cycle);
            }
            if m.out_port != LOCAL {
                if let Some(f) = faults.as_deref_mut() {
                    let corrupted_before = self.stats.corrupted;
                    if self.hop_faults(f, &packet, link) {
                        if let Some(rec) = rec.as_deref_mut() {
                            let reason = self
                                .lost
                                .last()
                                .map_or_else(String::new, |(_, r)| format!("{r:?}"));
                            rec.on_lost(packet.id, self.cycle, &reason);
                        }
                        continue; // packet died on this hop
                    }
                    if self.stats.corrupted > corrupted_before {
                        if let Some(rec) = rec.as_deref_mut() {
                            rec.note(
                                TraceEvent::new(self.cycle, SUBSYSTEM_NOC, "corrupted")
                                    .with("id", packet.id),
                            );
                        }
                    }
                }
            }
            if m.out_port == LOCAL {
                self.stats.delivered_by_src[packet.src.index()] += 1;
                self.stats.delivered_total += 1;
                self.stats.latency_sum += self.cycle - packet.birth;
                self.stats.record_latency(self.cycle - packet.birth);
                if let Some(rec) = rec.as_deref_mut() {
                    rec.on_deliver(packet.id, self.cycle);
                }
                self.ejected.push(packet);
            } else {
                let (down, entry) = (
                    self.neighbour(m.router, m.out_port),
                    Self::entry_port(m.out_port),
                );
                if let Some(rec) = rec.as_deref_mut() {
                    // The packet becomes visible to the downstream router's
                    // arbitration on the next cycle.
                    rec.on_enqueue(packet.id, down as u32, entry as u8, self.cycle + 1);
                }
                let slot = self.slot(down, entry, m.vc);
                self.queues[slot].push_back(packet);
                self.queued[down] += 1;
                self.occupancy += 1;
            }
        }

        self.scratch = scratch;
        self.faults = faults;
        self.recorder = rec;
        self.cycle += 1;
        if self.cycle.is_multiple_of(WINDOW_CYCLES) {
            self.close_window();
        }
        !moved && self.lost.len() == lost_mark
    }

    /// Window boundary: fold the per-link window demand into the peak and
    /// sample router queue depths into telemetry when enabled.
    fn close_window(&mut self) {
        let window_peak = self.window_flits.iter().copied().max().unwrap_or(0);
        if window_peak > self.stats.peak_window_flits {
            self.stats.peak_window_flits = window_peak;
        }
        self.window_flits.iter_mut().for_each(|w| *w = 0);

        if !self.telemetry.is_enabled() {
            return;
        }
        let mut deepest = (0usize, 0usize); // (router, depth)
        self.telemetry.with(|t| {
            for (r, &depth) in self.queued.iter().enumerate() {
                t.registry
                    .hist_record("noc.router_queue_depth", depth as u64);
                if depth > deepest.1 {
                    deepest = (r, depth);
                }
            }
            t.registry
                .counter_add("noc.queue_samples", self.queued.len() as u64);
        });
        if deepest.1 > 0 {
            self.telemetry.emit_with(|| {
                TraceEvent::new(self.cycle, SUBSYSTEM_NOC, "queue_depth")
                    .with("router", deepest.0)
                    .with("depth", deepest.1)
            });
        }
    }

    /// Exports the mesh's statistics into `registry`: delivery/injection
    /// counters, latency gauges, the per-link flit distribution, peak window
    /// demand, and total arbiter grants.
    pub fn export_metrics(&self, registry: &mut MetricRegistry) {
        registry.counter_add("noc.delivered", self.stats.delivered_total);
        registry.counter_add(
            "noc.injected",
            self.stats.injected_by_src.iter().sum::<u64>(),
        );
        registry.counter_add("noc.flits", self.stats.link_flits.iter().sum::<u64>());
        registry.counter_add(
            "noc.arbiter.grants",
            self.arbiters.iter().map(Arbiter::grants).sum::<u64>(),
        );
        registry.gauge_set("noc.latency.mean", self.stats.mean_latency());
        registry.gauge_set("noc.latency.p99", self.stats.latency_quantile(0.99));
        registry.gauge_max(
            "noc.link.peak_window_flits",
            self.stats.peak_window_flits as f64,
        );
        if let Some((router, port, flits)) = self.stats.busiest_link() {
            registry.gauge_set("noc.link.busiest.router", router as f64);
            registry.gauge_set("noc.link.busiest.port", port as f64);
            registry.gauge_max(
                "noc.link.busiest.utilisation",
                flits as f64 / self.cycle.max(1) as f64,
            );
        }
        for &flits in &self.stats.link_flits {
            if flits > 0 {
                registry.hist_record("noc.link_flits", flits);
            }
        }
        if self.faults.is_some() {
            registry.counter_add("noc.faults.dropped_flaky", self.stats.dropped_flaky);
            registry.counter_add("noc.faults.dropped_transient", self.stats.dropped_transient);
            registry.counter_add("noc.faults.corrupted", self.stats.corrupted);
            registry.counter_add("noc.faults.unroutable", self.stats.dropped_unroutable);
            registry.counter_add("noc.faults.reroutes", self.stats.reroutes);
            registry.gauge_set("noc.faults.dead_links", self.dead_links_active() as f64);
        }
    }

    /// Exclusive upper bound of the span the last step proved inert — the
    /// mesh cannot move a packet, lose a packet, or change any waiting
    /// head's stall cause before this cycle. `<= cycle()` means the mesh is
    /// (or may be) active right now. Composite simulations (reliable layer,
    /// fabric) fold this into their own wake bounds.
    pub fn quiet_until(&self) -> u64 {
        self.quiet_until
    }

    /// The earliest future cycle at which a currently-quiet mesh could
    /// behave differently: an output's wormhole serialisation ending, a
    /// router stall window starting or ending, or a dead-link onset firing.
    /// Everything else in the arbitration inputs is cycle-independent, so a
    /// quiet mesh stays quiet — with constant stall classifications —
    /// strictly before this bound.
    fn activity_bound(&self) -> u64 {
        // Thresholds are compared against the *pre*-cycle of each step: an
        // output with `busy_until == cycle` was busy during the step that
        // just ran and frees on the very next one, so every comparison below
        // is `>= cycle` — a threshold equal to the current cycle clamps the
        // bound to "now" and forbids any skip.
        let mut bound = u64::MAX;
        for &busy in &self.output_busy_until {
            if busy >= self.cycle && busy < bound {
                bound = busy;
            }
        }
        if let Some(f) = self.faults.as_deref() {
            for s in &f.plan.routers {
                if s.onset >= self.cycle {
                    bound = bound.min(s.onset);
                }
                let end = s.onset.saturating_add(s.duration);
                if end >= self.cycle {
                    bound = bound.min(end);
                }
            }
            if let Some(&(onset, _)) = f.pending_dead.get(f.next_dead) {
                bound = bound.min(onset);
            }
        }
        bound
    }

    /// Event-driven fast-forward: advances the clock to
    /// `min(limit, quiet_until)` in one jump. Only spans the last step
    /// proved inert are skippable, so this is bit-identical to stepping
    /// cycle by cycle: no arbitration would run (the arbiters' round-robin
    /// cursors are untouched, exactly as under the reference engine), no
    /// packet moves or dies, no RNG is drawn (fault draws happen only on
    /// moves), stall charges are batch-replicated per waiting head, and
    /// every crossed window boundary is closed at its exact cycle. A no-op
    /// when the event engine is disabled ([`set_event_skip_enabled`]).
    pub fn skip_idle_to(&mut self, limit: u64) {
        if !event_skip_enabled() {
            return;
        }
        let target = limit.min(self.quiet_until);
        if target <= self.cycle {
            return;
        }
        let n = target - self.cycle;
        // Replicate the per-cycle stall attribution for the skipped span.
        // The classification inputs are constant across it (that is what
        // `activity_bound` guarantees), so one classification per head,
        // charged n times, matches n per-cycle passes byte for byte.
        if let Some(mut rec) = self.recorder.take() {
            self.charge_waiting_heads(self.faults.as_deref(), &mut rec, None, n);
            self.recorder = Some(rec);
        }
        self.close_windows_to(target);
    }

    /// Moves the clock to `target`, closing every window boundary on the
    /// way at its own cycle stamp with the (frozen) queue depths the
    /// reference engine would have sampled.
    fn close_windows_to(&mut self, target: u64) {
        let mut w = (self.cycle / WINDOW_CYCLES + 1) * WINDOW_CYCLES;
        while w <= target {
            self.cycle = w;
            self.close_window();
            w += WINDOW_CYCLES;
        }
        self.cycle = target;
    }

    /// Whether the mesh is fully drained with respect to a run ending at
    /// `target`: nothing buffered and no dead-link onset left to fire before
    /// then. Remaining cycles can only close empty windows.
    fn is_drained(&self, target: u64) -> bool {
        self.occupancy == 0
            && self.faults.as_deref().is_none_or(|f| {
                f.pending_dead
                    .get(f.next_dead)
                    .is_none_or(|&(onset, _)| onset >= target)
            })
    }

    /// Runs `cycles` cycles: a full step whenever the mesh can act and, on
    /// the event engine, a next-event skip across each span proven inert.
    /// With the event engine disabled ([`set_event_skip_enabled`]) every
    /// cycle is stepped: that is the cycle-exact reference, and the two are
    /// bit-identical on every observable.
    pub fn run(&mut self, cycles: u64) {
        let target = self.cycle.saturating_add(cycles);
        while self.cycle < target {
            self.skip_idle_to(target);
            if self.cycle < target {
                self.step();
            }
        }
    }

    /// Runs up to `max_cycles` cycles, stopping the moment the mesh is
    /// quiescent (nothing buffered, no fault onset pending before the
    /// bound). The clock and statistics end bit-identical to
    /// `run(max_cycles)` — once drained, the remaining cycles can only close
    /// empty telemetry windows, which are fast-forwarded here — so fixed
    /// drain loops get quiescence detection for free. Returns whether the
    /// mesh drained within the bound.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        let target = self.cycle.saturating_add(max_cycles);
        while self.cycle < target {
            if self.is_drained(target) {
                self.close_windows_to(target);
                return true;
            }
            self.skip_idle_to(target);
            if self.cycle < target {
                self.step();
            }
        }
        self.is_drained(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mesh {
        Mesh::new(MeshConfig {
            width: 3,
            height: 3,
            buffer_packets: 4,
            arbiter: ArbiterKind::RoundRobin,
            route_order: RouteOrder::Xy,
            vcs: 1,
        })
    }

    #[test]
    fn packet_reaches_destination() {
        let mut m = small();
        assert!(m.try_inject(NodeId::new(0), NodeId::new(8), 1, PacketClass::Request));
        m.run(20);
        let ejected = m.drain_ejected();
        assert_eq!(ejected.len(), 1);
        assert_eq!(ejected[0].dst, NodeId::new(8));
        assert_eq!(m.stats().delivered_total, 1);
        // 0 -> 8 is 4 hops; latency at least that.
        assert!(m.stats().mean_latency() >= 4.0);
    }

    #[test]
    fn self_traffic_ejects_locally() {
        let mut m = small();
        m.try_inject(NodeId::new(4), NodeId::new(4), 1, PacketClass::Request);
        m.run(3);
        assert_eq!(m.stats().delivered_total, 1);
    }

    #[test]
    fn full_buffer_rejects_injection() {
        let mut m = small();
        for _ in 0..4 {
            assert!(m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request));
        }
        assert!(!m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request));
    }

    #[test]
    fn wormhole_serialisation_slows_long_packets() {
        // Two 4-flit packets over the same link take ≥ 8 cycles of link time.
        let mut m = small();
        m.try_inject(NodeId::new(0), NodeId::new(2), 4, PacketClass::Reply);
        m.try_inject(NodeId::new(0), NodeId::new(2), 4, PacketClass::Reply);
        m.run(6);
        assert!(m.stats().delivered_total <= 1);
        m.run(20);
        assert_eq!(m.stats().delivered_total, 2);
    }

    #[test]
    fn disabled_ejection_backpressures() {
        let mut m = small();
        m.set_ejection_enabled(NodeId::new(2), false);
        for _ in 0..3 {
            m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        }
        m.run(50);
        assert_eq!(m.stats().delivered_total, 0);
        m.set_ejection_enabled(NodeId::new(2), true);
        m.run(10);
        assert_eq!(m.stats().delivered_total, 3);
    }

    #[test]
    fn dor_routing_is_deadlock_free_under_load() {
        let mut m = Mesh::new(MeshConfig::paper_6x6(ArbiterKind::RoundRobin));
        // Saturating all-to-one traffic; everything must still drain.
        for src in 0..36u32 {
            for _ in 0..2 {
                let _ = m.try_inject(NodeId::new(src), NodeId::new(0), 2, PacketClass::Request);
            }
        }
        assert!(m.drain(2000), "all-to-one load must drain within the bound");
        let injected: u64 = m.stats().injected_by_src.iter().sum();
        assert_eq!(m.stats().delivered_total, injected);
    }

    #[test]
    fn latency_quantiles_bracket_the_mean() {
        let mut m = Mesh::new(MeshConfig::paper_6x6(ArbiterKind::RoundRobin));
        for cycle in 0..2000u64 {
            for src in 6..36u32 {
                let _ = m.try_inject(
                    NodeId::new(src),
                    NodeId::new((cycle % 6) as u32),
                    1,
                    PacketClass::Request,
                );
            }
            m.step();
            m.drain_ejected();
        }
        let s = m.stats();
        let p50 = s.latency_quantile(0.5);
        let p99 = s.latency_quantile(0.99);
        assert!(p50 > 0.0);
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(
            s.latency_quantile(0.0) <= s.mean_latency()
                && s.mean_latency() <= s.latency_quantile(1.0),
            "mean {} outside [{}, {}]",
            s.mean_latency(),
            s.latency_quantile(0.0),
            s.latency_quantile(1.0)
        );
    }

    #[test]
    fn empty_stats_quantile_is_zero() {
        let m = small();
        assert_eq!(m.stats().latency_quantile(0.99), 0.0);
    }

    #[test]
    fn stats_reset_keeps_packets_flowing() {
        let mut m = small();
        m.try_inject(NodeId::new(0), NodeId::new(8), 1, PacketClass::Request);
        m.run(2);
        m.reset_stats();
        m.run(20);
        assert_eq!(m.stats().delivered_total, 1);
        assert_eq!(m.stats().injected_by_src[0], 0);
    }

    /// Jams the request path 0 → 2 (ejection disabled at 2) until injection
    /// back-pressures at the source, then returns the mesh.
    fn jammed_request_path(vcs: usize) -> Mesh {
        let mut m = Mesh::new(MeshConfig {
            width: 3,
            height: 3,
            buffer_packets: 2,
            arbiter: ArbiterKind::RoundRobin,
            route_order: RouteOrder::Xy,
            vcs,
        });
        m.set_ejection_enabled(NodeId::new(2), false);
        let mut rejected = false;
        for _ in 0..64 {
            if !m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request) {
                rejected = true;
                break;
            }
            m.step();
        }
        m.run(10);
        assert!(rejected, "request path should back-pressure to the source");
        assert!(
            !m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request),
            "request VC must stay full"
        );
        m
    }

    #[test]
    fn virtual_channels_isolate_classes() {
        // With a jammed request VC, replies (their own VC) still inject and
        // flow — the isolation that lets one physical network carry both
        // classes without protocol deadlock.
        let mut m = jammed_request_path(2);
        let delivered_before = m.stats().delivered_total;
        assert!(m.try_inject(NodeId::new(0), NodeId::new(8), 1, PacketClass::Reply));
        m.run(30);
        assert_eq!(m.stats().delivered_total, delivered_before + 1);
    }

    #[test]
    fn single_vc_blocks_both_classes() {
        // Same jam with one VC: the reply cannot even enter the network.
        let mut m = jammed_request_path(1);
        assert!(!m.try_inject(NodeId::new(0), NodeId::new(8), 1, PacketClass::Reply));
    }

    #[test]
    fn link_flits_track_forwarded_traffic() {
        let mut m = small();
        m.try_inject(NodeId::new(0), NodeId::new(2), 2, PacketClass::Request);
        m.run(20);
        let s = m.stats();
        // 0 → 2 goes east twice then ejects: three links each carried 2 flits.
        assert_eq!(s.link_flits.iter().sum::<u64>(), 6);
        assert_eq!(s.link_flits[EAST], 2, "east out of router 0");
        assert_eq!(s.link_flits[NUM_PORTS + EAST], 2, "east out of router 1");
        assert_eq!(s.link_flits[2 * NUM_PORTS + LOCAL], 2, "ejection at 2");
        let (router, port, flits) = s.busiest_link().unwrap();
        assert_eq!(flits, 2);
        assert!(port == EAST || port == LOCAL, "router {router} port {port}");
    }

    #[test]
    fn peak_window_demand_sees_bursts() {
        let mut m = small();
        for _ in 0..4 {
            m.try_inject(NodeId::new(0), NodeId::new(2), 4, PacketClass::Request);
        }
        m.run(WINDOW_CYCLES * 2);
        assert!(
            m.stats().peak_window_flits >= 4,
            "{}",
            m.stats().peak_window_flits
        );
        m.reset_stats();
        assert_eq!(m.stats().peak_window_flits, 0);
    }

    #[test]
    fn telemetry_samples_queue_depths_and_exports_metrics() {
        use gnoc_telemetry::{MemorySink, Telemetry, TelemetryHandle};

        let sink = MemorySink::new();
        let mut m = Mesh::new(MeshConfig::paper_6x6(ArbiterKind::RoundRobin));
        m.set_telemetry(TelemetryHandle::attach(Telemetry::with_sink(Box::new(
            sink.clone(),
        ))));
        // Keep a hotspot congested across several sample windows.
        for cycle in 0..(WINDOW_CYCLES * 4) {
            let _ = m.try_inject(
                NodeId::new((cycle % 36) as u32),
                NodeId::new(0),
                2,
                PacketClass::Request,
            );
            m.step();
        }
        let reg = m.telemetry().snapshot_registry().unwrap();
        assert!(reg.counter("noc.queue_samples") > 0);
        assert!(reg.hist("noc.router_queue_depth").unwrap().count() > 0);
        let events = sink.snapshot();
        assert!(!events.is_empty(), "congestion should produce depth events");
        assert!(events.iter().all(|e| e.subsystem == "noc"));

        let mut out = gnoc_telemetry::MetricRegistry::new();
        m.export_metrics(&mut out);
        assert!(out.counter("noc.delivered") > 0);
        assert!(out.counter("noc.flits") > 0);
        assert!(out.counter("noc.arbiter.grants") >= out.counter("noc.delivered"));
        assert!(out.gauge("noc.latency.mean").unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_injection_rejected() {
        let mut m = small();
        let _ = m.try_inject(NodeId::new(0), NodeId::new(99), 1, PacketClass::Request);
    }

    /// Uniform random-ish deterministic traffic for fault tests.
    fn drive(m: &mut Mesh, cycles: u64) {
        for cycle in 0..cycles {
            let src = (cycle * 7 + 1) % 9;
            let dst = (cycle * 5 + 3) % 9;
            let _ = m.try_inject(
                NodeId::new(src as u32),
                NodeId::new(dst as u32),
                1,
                PacketClass::Request,
            );
            m.step();
        }
        m.drain(200);
    }

    #[test]
    fn benign_fault_plan_is_bit_identical_to_no_plan() {
        let mut base = small();
        drive(&mut base, 500);

        let mut faulted = small();
        faulted
            .apply_fault_plan(&gnoc_faults::FaultPlan::none())
            .unwrap();
        drive(&mut faulted, 500);

        assert_eq!(base.stats(), faulted.stats());
        assert_eq!(base.drain_ejected().len(), faulted.drain_ejected().len());
        assert!(faulted.drain_lost().is_empty());
        assert_eq!(faulted.dead_links_active(), 0);
    }

    #[test]
    fn oversized_vc_count_is_rejected() {
        let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
        assert!(cfg
            .with_vcs(Arbiter::MAX_INPUTS / NUM_PORTS)
            .validate()
            .is_ok());
        for vcs in [Arbiter::MAX_INPUTS / NUM_PORTS + 1, usize::MAX] {
            assert!(matches!(
                cfg.with_vcs(vcs).validate(),
                Err(NocError::Config(_))
            ));
            assert!(Mesh::try_new(cfg.with_vcs(vcs)).is_err());
        }
        // Oversized or overflowing dimensions fail before any allocation.
        let mut sized = cfg;
        for (w, h) in [(64, 64), (65, 64), (70_000, 70_000), (usize::MAX, 2)] {
            (sized.width, sized.height) = (w, h);
            assert_eq!(Mesh::try_new(sized).is_ok(), w == 64, "{w}x{h}");
        }
    }

    /// A "permanent" stall (`duration = u64::MAX`) must hold its router
    /// forever rather than overflow `onset + duration`.
    #[test]
    fn permanent_router_stall_holds_past_onset() {
        let mut plan = gnoc_faults::FaultPlan::none();
        plan.routers = vec![gnoc_faults::RouterStall {
            router: 1,
            onset: 10,
            duration: u64::MAX,
        }];
        for event in [true, false] {
            let mut m = small();
            m.apply_fault_plan(&plan).unwrap();
            // Step across the onset; 0 → 2 routes through router 1.
            for _ in 0..20 {
                m.step();
            }
            m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
            if event {
                m.run(500);
            } else {
                for _ in 0..500 {
                    m.step();
                }
            }
            assert_eq!(m.stats().delivered_total, 0, "the stall never ends");
            assert_eq!(m.in_flight(), 1);
        }
    }

    #[test]
    fn double_plan_application_is_rejected() {
        let mut m = small();
        m.apply_fault_plan(&gnoc_faults::FaultPlan::none()).unwrap();
        assert_eq!(
            m.apply_fault_plan(&gnoc_faults::FaultPlan::none()),
            Err(crate::error::NocError::PlanAlreadyApplied)
        );
    }

    #[test]
    fn stalled_router_freezes_then_recovers() {
        let mut plan = gnoc_faults::FaultPlan::none();
        plan.routers = vec![gnoc_faults::RouterStall {
            router: 1,
            onset: 0,
            duration: 100,
        }];
        let mut m = small();
        m.apply_fault_plan(&plan).unwrap();
        // 0 → 2 routes through router 1, which is stalled for 100 cycles.
        m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        m.run(80);
        assert_eq!(m.stats().delivered_total, 0, "stall must hold the packet");
        m.run(100);
        assert_eq!(m.stats().delivered_total, 1, "stall must end on schedule");
    }

    #[test]
    fn mid_run_link_death_reroutes_in_flight_traffic() {
        let mut plan = gnoc_faults::FaultPlan::none();
        // The 1→2 link dies at cycle 40 (and its reverse, for symmetry).
        for (router, dir) in [
            (1, gnoc_faults::Direction::East),
            (2, gnoc_faults::Direction::West),
        ] {
            plan.links.push(gnoc_faults::LinkFault {
                router,
                dir,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 40,
            });
        }
        let mut m = small();
        m.apply_fault_plan(&plan).unwrap();
        assert_eq!(m.stats().reroutes, 0, "future onset must not reroute yet");
        // Keep traffic flowing across the doomed link before and after death.
        for cycle in 0..200u64 {
            let _ = m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
            m.step();
            if cycle == 39 {
                assert_eq!(m.dead_links_active(), 0);
            }
        }
        m.run(300);
        assert_eq!(m.stats().reroutes, 1);
        assert_eq!(m.dead_links_active(), 2);
        // Everything injected still arrives — rerouted around the dead edge.
        let injected: u64 = m.stats().injected_by_src.iter().sum();
        assert_eq!(
            m.stats().delivered_total + m.stats().dropped_unroutable,
            injected
        );
        assert_eq!(m.stats().dropped_unroutable, 0, "2 stays reachable");
    }

    #[test]
    fn unreachable_destination_reports_losses() {
        // Kill every link around router 8 (corner: West and South inbound /
        // outbound) so it is isolated — but that would disconnect the mesh,
        // which validation rejects. Instead kill one direction only:
        // packets can leave 8 but never enter it.
        let mut plan = gnoc_faults::FaultPlan::none();
        for (router, dir) in [
            (7, gnoc_faults::Direction::East),
            (5, gnoc_faults::Direction::North),
        ] {
            plan.links.push(gnoc_faults::LinkFault {
                router,
                dir,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 0,
            });
        }
        let mut m = small();
        m.apply_fault_plan(&plan).unwrap();
        m.try_inject(NodeId::new(0), NodeId::new(8), 1, PacketClass::Request);
        m.run(100);
        assert_eq!(m.stats().delivered_total, 0);
        assert_eq!(m.stats().dropped_unroutable, 1);
        let lost = m.drain_lost();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].1, crate::error::LossReason::Unroutable);
        assert_eq!(lost[0].0.dst, NodeId::new(8));
    }

    /// Funnels contending traffic at one hotspot so serialization,
    /// contention, and queueing all occur, then checks the recorder's hard
    /// identity on every delivered message.
    #[test]
    fn flight_recorder_components_sum_to_latency_under_contention() {
        let mut m = small();
        m.attach_flight_recorder();
        for src in [0u32, 2, 6, 8, 1, 3, 5, 7] {
            for _ in 0..3 {
                m.try_inject(NodeId::new(src), NodeId::new(4), 3, PacketClass::Request);
            }
        }
        assert!(m.drain(2_000));
        assert_eq!(m.stats().delivered_total, 24);
        let rec = m.take_flight_recorder().expect("recorder attached");
        assert_eq!(rec.open_count(), 0, "quiescent run leaves nothing open");
        assert_eq!(rec.finished().len(), 24);
        let mut saw_stall = false;
        for msg in rec.finished() {
            assert!(msg.delivered);
            assert_eq!(
                msg.components_sum(),
                msg.latency(),
                "msg {} decomposition must be exact",
                msg.id
            );
            saw_stall |= msg.stalls().total() > 0;
        }
        assert!(saw_stall, "a 24-packet hotspot must stall someone");
    }

    /// The recorder observes but cannot perturb: identical traffic with and
    /// without it produces bit-identical statistics and ejection order.
    #[test]
    fn recorded_run_is_bit_identical_to_bare_run() {
        let run = |record: bool| {
            let mut m = small();
            if record {
                m.attach_flight_recorder();
            }
            for i in 0..40u32 {
                m.try_inject(
                    NodeId::new(i % 9),
                    NodeId::new((i * 7 + 2) % 9),
                    1 + (i % 3),
                    PacketClass::Request,
                );
            }
            m.run(2_000);
            (m.stats().clone(), m.drain_ejected())
        };
        assert_eq!(run(false), run(true));
    }

    /// Messages dropped by faults get closed lifecycle records with the
    /// loss reason, and the recorder survives phase-0 drops.
    #[test]
    fn flight_recorder_captures_losses() {
        let mut plan = gnoc_faults::FaultPlan::none();
        plan.seed = 5;
        plan.links = vec![gnoc_faults::LinkFault {
            router: 0,
            dir: gnoc_faults::Direction::East,
            kind: gnoc_faults::LinkFaultKind::Flaky { drop_prob: 1.0 },
            onset: 0,
        }];
        let mut m = small();
        m.apply_fault_plan(&plan).unwrap();
        m.attach_flight_recorder();
        m.try_inject(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        m.run(50);
        let rec = m.take_flight_recorder().unwrap();
        assert_eq!(rec.finished().len(), 1);
        let msg = &rec.finished()[0];
        assert!(!msg.delivered);
        assert_eq!(msg.loss.as_deref(), Some("FlakyLink"));
    }

    /// A plan with stalls, a mid-run dead link, and flaky drops, driven by
    /// interleaved injections — the broadest in-crate state space to
    /// differentiate the engines on.
    fn contentious_faulted_mesh() -> Mesh {
        let mut plan = gnoc_faults::FaultPlan::none();
        plan.seed = 11;
        plan.links = vec![
            gnoc_faults::LinkFault {
                router: 1,
                dir: gnoc_faults::Direction::East,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 150,
            },
            gnoc_faults::LinkFault {
                router: 2,
                dir: gnoc_faults::Direction::West,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 150,
            },
            gnoc_faults::LinkFault {
                router: 3,
                dir: gnoc_faults::Direction::North,
                kind: gnoc_faults::LinkFaultKind::Flaky { drop_prob: 0.2 },
                onset: 40,
            },
        ];
        plan.routers = vec![gnoc_faults::RouterStall {
            router: 4,
            onset: 90,
            duration: 300,
        }];
        let mut m = small();
        m.attach_flight_recorder();
        m.apply_fault_plan(&plan).unwrap();
        for i in 0..60u32 {
            m.try_inject(
                NodeId::new(i % 9),
                NodeId::new((i * 7 + 2) % 9),
                1 + (i % 3),
                PacketClass::Request,
            );
        }
        m
    }

    /// The event engine (skips enabled) and the reference engine (plain
    /// stepping) must agree on every observable, including spans dominated
    /// by stall windows and timeout-style idle gaps.
    #[test]
    fn event_engine_is_bit_identical_to_cycle_exact() {
        let run = |event: bool| {
            let mut m = contentious_faulted_mesh();
            if event {
                // `run` skips only spans `step` proved inert, so the
                // comparison is valid regardless of the global toggle.
                m.run(5_000);
            } else {
                for _ in 0..5_000 {
                    m.step();
                }
            }
            let rec = m.take_flight_recorder().unwrap();
            (
                m.cycle(),
                m.stats().clone(),
                m.drain_ejected(),
                m.drain_lost(),
                rec.finished().to_vec(),
            )
        };
        let (ec, es, ee, el, er) = run(true);
        let (cc, cs, ce, cl, cr) = run(false);
        assert_eq!(ec, cc);
        assert_eq!(es, cs);
        assert_eq!(ee, ce);
        assert_eq!(el, cl);
        assert_eq!(er.len(), cr.len());
        for (a, b) in er.iter().zip(&cr) {
            assert_eq!(a.stalls(), b.stalls(), "msg {} stall attribution", a.id);
            assert_eq!(a.latency(), b.latency(), "msg {} latency", a.id);
        }
    }

    /// Regression for the fixed-iteration drain bug: `drain` early-exits at
    /// quiescence yet leaves clock, stats, and ejections bit-identical to
    /// the fixed-bound `run` it replaces.
    #[test]
    fn drain_is_bit_identical_to_fixed_run() {
        let mut by_run = contentious_faulted_mesh();
        let mut by_drain = by_run.clone();
        by_run.run(10_000);
        assert!(
            by_drain.drain(10_000),
            "traffic must drain inside the bound"
        );
        assert_eq!(by_run.cycle(), by_drain.cycle());
        assert_eq!(by_run.stats(), by_drain.stats());
        assert_eq!(by_run.drain_ejected(), by_drain.drain_ejected());
        assert_eq!(by_run.in_flight(), 0);
        assert_eq!(by_drain.in_flight(), 0);
    }

    /// `drain` must not early-exit past a pending fault onset: the reroute
    /// (and its stats/trace side effects) still fires on schedule.
    #[test]
    fn drain_waits_for_pending_onsets() {
        let mut plan = gnoc_faults::FaultPlan::none();
        for (router, dir) in [
            (1, gnoc_faults::Direction::East),
            (2, gnoc_faults::Direction::West),
        ] {
            plan.links.push(gnoc_faults::LinkFault {
                router,
                dir,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 5_000,
            });
        }
        let mut m = small();
        m.apply_fault_plan(&plan).unwrap();
        assert!(m.drain(10_000));
        assert_eq!(m.stats().reroutes, 1, "the onset inside the bound fired");
        assert_eq!(m.cycle(), 10_000);
    }

    /// Two meshes sharing a fault plan via `Arc` intern one route table:
    /// the fix for per-row plan clones and per-onset BFS recomputation.
    #[test]
    fn shared_plans_intern_route_tables() {
        let mut plan = gnoc_faults::FaultPlan::none();
        for (router, dir) in [
            (4, gnoc_faults::Direction::East),
            (5, gnoc_faults::Direction::West),
        ] {
            plan.links.push(gnoc_faults::LinkFault {
                router,
                dir,
                kind: gnoc_faults::LinkFaultKind::Dead,
                onset: 0,
            });
        }
        let plan = std::sync::Arc::new(plan);
        let build = |plan: &std::sync::Arc<gnoc_faults::FaultPlan>| {
            let mut m = small();
            m.apply_fault_plan_shared(plan.clone()).unwrap();
            m
        };
        let a = build(&plan);
        let b = build(&plan);
        let ra = a.faults.as_deref().unwrap().routes.as_ref().unwrap();
        let rb = b.faults.as_deref().unwrap().routes.as_ref().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(ra, rb),
            "same dead set must share one interned table"
        );
        assert!(std::sync::Arc::ptr_eq(
            &a.faults.as_deref().unwrap().plan,
            &b.faults.as_deref().unwrap().plan
        ));
    }

    /// O(1) `in_flight` stays consistent through injection, movement,
    /// ejection, and fault losses (the debug assertion inside `in_flight`
    /// cross-checks against the queues on every call).
    #[test]
    fn occupancy_tracks_queues_under_faults() {
        let mut m = contentious_faulted_mesh();
        let injected: u64 = m.stats().injected_by_src.iter().sum();
        assert_eq!(m.in_flight() as u64, injected);
        for _ in 0..600 {
            m.step();
            let _ = m.in_flight(); // debug_assert cross-check each cycle
        }
        m.drain(10_000);
        assert_eq!(m.in_flight(), 0);
    }
}
