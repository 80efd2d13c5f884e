//! Hierarchical on-chip bandwidth model.
//!
//! Bandwidth in the paper's GPUs is shaped by three mechanisms:
//!
//! 1. **Hierarchical link capacities** — SM port, TPC port, (CPC port), GPC
//!    ports and aggregate, partition crossbars, the central inter-partition
//!    link, MP input ports, L2 slice service and per-MP DRAM. Reads are
//!    limited on the *reply* direction, writes on the *request* direction
//!    (Section IV-A and Fig. 11).
//! 2. **Little's law** — an SM can only keep a bounded number of bytes in
//!    flight, so a longer round-trip latency means less bandwidth; this is
//!    what makes far-partition slice bandwidth drop (Fig. 14).
//! 3. **Queueing** — as a slice or GPC port approaches saturation its service
//!    delay grows, which feeds back into (2). This produces the gradual
//!    saturation curves of Fig. 14 rather than hard kinks.
//!
//! [`FabricModel::solve`] resolves a set of concurrent flows against all three
//! mechanisms: it iterates a damped fixed point between queueing delays and a
//! progressive-filling **max-min fair** allocation over the link capacities.
//! A lone flow, where that allocation is a single `min`, runs the same
//! iteration in closed form, in a lane kernel that steps up to eight such
//! flows together ([`FabricModel::solve_each`]).

use crate::calib::{Calibration, UNLIMITED};
use crate::latency;
use gnoc_telemetry::IdHasher;
use gnoc_topo::{CpcId, Floorplan, GpcId, Hierarchy, MpId, PartitionId, SliceId, SmId, TpcId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// What a flow does at the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Streaming reads that hit in L2 — the paper's "L2 fabric bandwidth".
    ReadHit,
    /// Streaming reads that miss in L2 and stream from DRAM — the paper's
    /// "global memory bandwidth".
    ReadMiss,
    /// Streaming writes.
    Write,
}

impl AccessKind {
    /// Whether this flow's payload moves on the reply network (L2 → SM).
    pub fn is_reply_limited(self) -> bool {
        matches!(self, AccessKind::ReadHit | AccessKind::ReadMiss)
    }

    /// The direction whose capacities limit this flow.
    fn direction(self) -> Direction {
        if self.is_reply_limited() {
            Direction::Reply
        } else {
            Direction::Request
        }
    }
}

/// One steady-state traffic flow from an SM to an L2 slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source SM.
    pub sm: SmId,
    /// Destination (effective) L2 slice.
    pub slice: SliceId,
    /// Access kind.
    pub kind: AccessKind,
}

/// A capacity-bearing element of the fabric, for bottleneck introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// An SM's aggregate in-flight-bytes budget (Little's law).
    SmLittle(SmId),
    /// An SM's reply or request port.
    SmPort(SmId),
    /// A TPC's shared output.
    Tpc(TpcId),
    /// A CPC-level port (H100 only).
    Cpc(CpcId),
    /// One GPC↔MP port (the "speedup in space").
    GpcPort(GpcId, MpId),
    /// A GPC's aggregate output (the "speedup in time").
    GpcTotal(GpcId),
    /// One die partition's crossbar.
    PartitionFabric(PartitionId),
    /// The central link between two partitions, per direction.
    InterPartition(PartitionId, PartitionId),
    /// A memory partition's NoC-side port.
    MpPort(MpId),
    /// One L2 slice's service capacity.
    Slice(SliceId),
    /// One memory partition's DRAM channel.
    Dram(MpId),
}

/// Direction a resource instance serves; reads and writes consume distinct
/// capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// L2 → SM payload (read data).
    Reply,
    /// SM → L2 payload (write data).
    Request,
}

/// Result of solving a flow set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSolution {
    /// Achieved payload rate of each flow, GB/s, in input order.
    pub rates_gbps: Vec<f64>,
    /// Effective round-trip latency of each flow in cycles, including
    /// queueing delay.
    pub latencies_cycles: Vec<f64>,
    /// Sum of all flow rates, GB/s.
    pub total_gbps: f64,
    /// Resources with utilisation ≥ 99 %, most-utilised first.
    pub bottlenecks: Vec<(ResourceKind, Direction, f64)>,
}

impl FlowSolution {
    /// Total rate of the flows selected by `pred`, GB/s.
    pub fn total_where(&self, flows: &[FlowSpec], pred: impl Fn(&FlowSpec) -> bool) -> f64 {
        flows
            .iter()
            .zip(&self.rates_gbps)
            .filter(|(f, _)| pred(f))
            .map(|(_, r)| r)
            .sum()
    }
}

/// Number of damped fixed-point iterations between queueing delays and the
/// max-min allocation.
const FIXED_POINT_ITERS: usize = 36;
/// Damping factor for delay updates (new = λ·target + (1-λ)·old).
const DELAY_DAMPING: f64 = 0.35;
/// Utilisation clamp when evaluating the queueing-delay curve.
const RHO_CLAMP: f64 = 0.95;
/// Iterations whose rates are averaged to produce the reported solution.
const AVERAGE_TAIL: usize = 6;
/// Utilisation from which a resource is listed as a bottleneck.
const BOTTLENECK_UTIL: f64 = 0.99;

/// A queueing resource's next damped delay, cycles, under `load` GB/s.
fn next_delay(delay: f64, load: f64, capacity: f64, queue_cycles: f64) -> f64 {
    let rho = (load / capacity).min(RHO_CLAMP);
    let target = queue_cycles * rho / (1.0 - rho);
    DELAY_DAMPING * target + (1.0 - DELAY_DAMPING) * delay
}

/// Most resources one flow's path visits: Little, SM port, TPC, CPC, GPC
/// total, GPC port, two partition fabrics, the central link, MP port, slice
/// and DRAM.
const MAX_PATH: usize = 12;
/// Lone flows the lane kernel steps together ([`FabricModel::solve_each`]).
const LANES: usize = 8;

/// One lone flow in the lane kernel. Only the first `n_queued` entries of
/// `queued` and `delays` belong to the flow; loading a flow leaves the rest
/// as the lane's previous flow left them.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// Unloaded round-trip latency, cycles.
    base: f64,
    /// Smallest static capacity on the path, GB/s.
    floor: f64,
    /// Queueing resources in path order as (capacity, queue cycles).
    queued: [(f64, f64); MAX_PATH],
    n_queued: usize,
    /// Each queueing resource's current delay, cycles.
    delays: [f64; MAX_PATH],
    /// Last iteration's latency, cycles.
    latency: f64,
    /// Running tail average of the rate, GB/s.
    rate: f64,
}

/// A static resource carrying the same flows as a larger one stands in for
/// it in the max-min fill when its capacity is smaller by at least this
/// fraction (see [`WaterFill::new`]).
const DOMINANCE_MARGIN: f64 = 1e-6;

/// A table keyed by small ids: only probed, never iterated.
type IdKeyed<K> = HashMap<K, usize, BuildHasherDefault<IdHasher>>;

struct Resource {
    kind: ResourceKind,
    direction: Direction,
    capacity: f64,
    queue_cycles: f64,
}

/// Variable-length rows of indices packed into one array: row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
struct Csr {
    offsets: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Closes the row being pushed.
    fn end_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The same rows with every item mapped through `f`, in order, dropping
    /// the items it maps to `None`.
    fn filter_map(&self, f: impl Fn(usize) -> Option<usize>) -> Self {
        let mut out = Self::with_capacity(self.rows(), self.items.len());
        for i in 0..self.rows() {
            out.items.extend(self.row(i).iter().filter_map(|&r| f(r)));
            out.end_row();
        }
        out
    }

    /// The transpose: row `r < n` of the result lists, in ascending order,
    /// the rows of `self` that contain `r`. Every item must be below `n`.
    fn transpose(&self, n: usize) -> Self {
        // `offsets[r]` starts at the end of row `r` and counts down to its
        // start as the rows of `self` are placed, last first.
        let mut offsets = vec![0; n + 1];
        for &r in &self.items {
            offsets[r] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..n] {
            end += *o;
            *o = end;
        }
        offsets[n] = end;
        let mut items = vec![0; end];
        for i in (0..self.rows()).rev() {
            for &r in self.row(i) {
                offsets[r] -= 1;
                items[offsets[r]] = i;
            }
        }
        Self { offsets, items }
    }
}

/// The bandwidth model of one device.
#[derive(Debug, Clone)]
pub struct FabricModel {
    hierarchy: Hierarchy,
    floorplan: Floorplan,
    calib: Calibration,
    clock_ghz: f64,
    dram_gbps_per_mp: f64,
}

impl FabricModel {
    /// Builds the model. `dram_gbps_per_mp` is the streaming DRAM bandwidth of
    /// one memory partition (see [`Calibration::dram_gbps_per_mp`]).
    pub fn new(
        hierarchy: Hierarchy,
        floorplan: Floorplan,
        calib: Calibration,
        clock_ghz: f64,
        dram_gbps_per_mp: f64,
    ) -> Self {
        Self {
            hierarchy,
            floorplan,
            calib,
            clock_ghz,
            dram_gbps_per_mp,
        }
    }

    /// Unloaded round-trip latency of a flow, cycles.
    fn base_latency(&self, flow: &FlowSpec) -> f64 {
        match flow.kind {
            AccessKind::ReadHit | AccessKind::Write => latency::l2_hit_cycles(
                &self.hierarchy,
                &self.floorplan,
                &self.calib,
                flow.sm,
                flow.slice,
            ),
            AccessKind::ReadMiss => {
                let home_mp = self.hierarchy.slice(flow.slice).mp;
                latency::l2_miss_cycles(
                    &self.hierarchy,
                    &self.floorplan,
                    &self.calib,
                    flow.sm,
                    flow.slice,
                    home_mp,
                )
            }
        }
    }

    /// Static capacity of a resource in a given direction, or `None` when it
    /// is effectively unlimited and need not be modelled.
    fn capacity(&self, kind: ResourceKind, direction: Direction) -> Option<f64> {
        let c = &self.calib;
        let cap = match (kind, direction) {
            (ResourceKind::SmLittle(_), _) => f64::INFINITY, // dynamic, set per iteration
            (ResourceKind::SmPort(_), Direction::Reply) => c.sm_read_port_gbps,
            (ResourceKind::SmPort(_), Direction::Request) => c.sm_write_port_gbps,
            (ResourceKind::Tpc(_), Direction::Reply) => c.tpc_read_speedup * c.sm_read_port_gbps,
            (ResourceKind::Tpc(_), Direction::Request) => {
                c.tpc_write_speedup * c.sm_write_port_gbps
            }
            (ResourceKind::Cpc(_), Direction::Reply) => c.cpc_read_speedup * c.sm_read_port_gbps,
            (ResourceKind::Cpc(_), Direction::Request) => {
                c.cpc_write_speedup * c.sm_write_port_gbps
            }
            (ResourceKind::GpcPort(..), _) => c.gpc_port_gbps,
            (ResourceKind::GpcTotal(_), Direction::Reply) => c.gpc_total_gbps,
            (ResourceKind::GpcTotal(_), Direction::Request) => c.gpc_total_write_gbps,
            (ResourceKind::PartitionFabric(_), _) => c.partition_fabric_gbps,
            (ResourceKind::InterPartition(..), _) => c.inter_partition_gbps,
            (ResourceKind::MpPort(_), _) => c.mp_port_gbps,
            (ResourceKind::Slice(_), _) => c.slice_gbps,
            (ResourceKind::Dram(_), _) => self.dram_gbps_per_mp,
        };
        (cap.is_finite() && cap < UNLIMITED).then_some(cap)
    }

    fn queue_cycles(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Slice(_) => self.calib.slice_queue_cycles,
            ResourceKind::GpcPort(..) => self.calib.gpc_port_queue_cycles,
            _ => 0.0,
        }
    }

    /// Visits, in order, the resource kinds a flow traverses (excluding its
    /// dynamic per-SM Little resource, which is added separately).
    fn path(&self, flow: &FlowSpec, mut visit: impl FnMut(ResourceKind)) {
        let sm = self.hierarchy.sm(flow.sm);
        let slice = self.hierarchy.slice(flow.slice);
        visit(ResourceKind::SmPort(flow.sm));
        visit(ResourceKind::Tpc(sm.tpc));
        if self.hierarchy.has_cpc_level() {
            visit(ResourceKind::Cpc(sm.cpc));
        }
        visit(ResourceKind::GpcTotal(sm.gpc));
        visit(ResourceKind::GpcPort(sm.gpc, slice.mp));
        visit(ResourceKind::PartitionFabric(sm.partition));
        if sm.partition != slice.partition {
            visit(ResourceKind::InterPartition(sm.partition, slice.partition));
            visit(ResourceKind::PartitionFabric(slice.partition));
        }
        visit(ResourceKind::MpPort(slice.mp));
        visit(ResourceKind::Slice(flow.slice));
        if flow.kind == AccessKind::ReadMiss {
            visit(ResourceKind::Dram(slice.mp));
        }
    }

    /// The per-flow and per-SM in-flight byte budgets as rates, GB/s per
    /// (1/cycles): dividing one by a latency in cycles gives GB/s.
    fn mlp(&self) -> (f64, f64) {
        let byte_cycles = |bytes: f64| bytes * self.clock_ghz;
        (
            byte_cycles(self.calib.flow_mlp_bytes),
            byte_cycles(self.calib.sm_mlp_bytes),
        )
    }

    /// Solves the steady-state rates of `flows` under max-min fairness with
    /// Little's-law and queueing feedback.
    ///
    /// The result is deterministic. Duplicate `(sm, slice, kind)` entries are
    /// legal and act as independent warps sharing the same path.
    pub fn solve(&self, flows: &[FlowSpec]) -> FlowSolution {
        match flows {
            [flow] => self.solve_lone(flow),
            _ => self.solve_general(flows),
        }
    }

    /// Each flow's rate, GB/s, solved as if it ran alone: element `i` is
    /// `self.solve(&flows[i..=i]).total_gbps`, bit for bit. The flows run
    /// through the lane kernel `LANES` at a time (DESIGN.md §8.5, "Lone
    /// flows").
    pub fn solve_each(&self, flows: &[FlowSpec]) -> Vec<f64> {
        let mut lanes = [Lane::default(); LANES];
        let mut rates = Vec::with_capacity(flows.len());
        for chunk in flows.chunks(LANES) {
            let lanes = &mut lanes[..chunk.len()];
            for (lane, flow) in lanes.iter_mut().zip(chunk) {
                self.load_lane(lane, flow, |_, _| {});
            }
            self.run_lanes(lanes);
            rates.extend(lanes.iter().map(|lane| lane.rate));
        }
        rates
    }

    /// [`Self::solve`] for one flow, bit for bit, without the resource
    /// table or the water fill: the lane kernel on one lane, plus the
    /// bottleneck list.
    fn solve_lone(&self, flow: &FlowSpec) -> FlowSolution {
        let dir = flow.kind.direction();
        // The static resources in path order with their capacities.
        let mut statics = [(ResourceKind::SmPort(flow.sm), 0.0f64); MAX_PATH];
        let mut n_statics = 0;
        let mut lane = Lane::default();
        self.load_lane(&mut lane, flow, |kind, cap| {
            statics[n_statics] = (kind, cap);
            n_statics += 1;
        });
        self.run_lanes(std::slice::from_mut(&mut lane));
        let rate = lane.rate;

        let mut bottlenecks: Vec<(ResourceKind, Direction, f64)> = statics[..n_statics]
            .iter()
            .filter_map(|&(kind, capacity)| {
                let util = rate / capacity;
                (util >= BOTTLENECK_UTIL).then_some((kind, dir, util))
            })
            .collect();
        bottlenecks.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite utilisation"));
        FlowSolution {
            rates_gbps: vec![rate],
            latencies_cycles: vec![lane.latency],
            total_gbps: rate,
            bottlenecks,
        }
    }

    /// Puts `flow` in `lane`: its base latency, the smallest static
    /// capacity on its path and its queueing resources in path order, with
    /// their delays and the tail average reset. `on_static` sees each static
    /// resource in path order with its capacity.
    fn load_lane(
        &self,
        lane: &mut Lane,
        flow: &FlowSpec,
        mut on_static: impl FnMut(ResourceKind, f64),
    ) {
        let dir = flow.kind.direction();
        lane.base = self.base_latency(flow);
        lane.floor = f64::INFINITY;
        lane.n_queued = 0;
        self.path(flow, |kind| {
            let Some(cap) = self.capacity(kind, dir) else {
                return;
            };
            on_static(kind, cap);
            lane.floor = lane.floor.min(cap);
            let queue_cycles = self.queue_cycles(kind);
            if queue_cycles != 0.0 {
                lane.queued[lane.n_queued] = (cap, queue_cycles);
                lane.delays[lane.n_queued] = 0.0;
                lane.n_queued += 1;
            }
        });
        lane.rate = 0.0;
    }

    /// The lone-flow recurrence, one flow per lane: the 36 damped
    /// iterations of [`Self::solve_general`] with the fill reduced to one
    /// `min` (DESIGN.md §8.5, "Lone flows"). Every static resource on a lone
    /// flow's path carries just that flow, so the fill's first step freezes
    /// it at the smallest of its Little budget, `floor` and its own cap, and
    /// each queueing resource's load is that rate. Each iteration steps
    /// every lane before the next, so the lanes' divide chains overlap.
    fn run_lanes(&self, lanes: &mut [Lane]) {
        let (flow_mlp, sm_mlp) = self.mlp();
        for iter in 0..FIXED_POINT_ITERS {
            for lane in lanes.iter_mut() {
                let (queued, delays) = (
                    &lane.queued[..lane.n_queued],
                    &mut lane.delays[..lane.n_queued],
                );
                let lat = lane.base + delays.iter().sum::<f64>();
                let flow_cap = self.calib.flow_port_gbps.min(flow_mlp / lat);
                let budget = sm_mlp * (1.0 / lat);
                // The fill's one step: the same `min`s from infinity, the
                // same `max(0.0)`, added to a rate that starts at `0.0`.
                let inc = f64::INFINITY.min(budget).min(lane.floor).min(flow_cap);
                let iter_rate = 0.0 + inc.max(0.0);
                for (&(capacity, queue_cycles), delay) in queued.iter().zip(delays.iter_mut()) {
                    *delay = next_delay(*delay, iter_rate, capacity, queue_cycles);
                }
                if iter + AVERAGE_TAIL >= FIXED_POINT_ITERS {
                    lane.rate += iter_rate / AVERAGE_TAIL as f64;
                }
                lane.latency = lat;
            }
        }
    }

    /// [`Self::solve`] for any number of flows: the damped fixed point over
    /// the full resource table and the max-min water fill.
    fn solve_general(&self, flows: &[FlowSpec]) -> FlowSolution {
        if flows.is_empty() {
            return FlowSolution {
                rates_gbps: Vec::new(),
                latencies_cycles: Vec::new(),
                total_gbps: 0.0,
                bottlenecks: Vec::new(),
            };
        }

        // ---- Build the resource table. -------------------------------------
        let mut index: IdKeyed<(ResourceKind, Direction)> =
            IdKeyed::with_capacity_and_hasher(MAX_PATH, Default::default());
        let mut resources: Vec<Resource> = Vec::with_capacity(MAX_PATH);
        let mut flow_paths = Csr::with_capacity(flows.len(), flows.len() * MAX_PATH);
        let mut sm_little: IdKeyed<(SmId, Direction)> = IdKeyed::default();
        // The Little budgets, and the resources with a queueing delay.
        let mut littles = Vec::new();
        let mut queued = Vec::new();

        for flow in flows {
            let dir = flow.kind.direction();
            // Dynamic per-SM Little's-law budget.
            let little_id = *sm_little.entry((flow.sm, dir)).or_insert_with(|| {
                littles.push(resources.len());
                resources.push(Resource {
                    kind: ResourceKind::SmLittle(flow.sm),
                    direction: dir,
                    capacity: f64::INFINITY,
                    queue_cycles: 0.0,
                });
                resources.len() - 1
            });
            flow_paths.items.push(little_id);

            self.path(flow, |kind| {
                let Some(cap) = self.capacity(kind, dir) else {
                    return;
                };
                let rid = *index.entry((kind, dir)).or_insert_with(|| {
                    let queue_cycles = self.queue_cycles(kind);
                    if queue_cycles != 0.0 {
                        queued.push(resources.len());
                    }
                    resources.push(Resource {
                        kind,
                        direction: dir,
                        capacity: cap,
                        queue_cycles,
                    });
                    resources.len() - 1
                });
                flow_paths.items.push(rid);
            });
            flow_paths.end_row();
        }
        // Each resource's flows in ascending order: the order every load
        // and Little's-law sum runs in. A path never visits a resource twice.
        let members = flow_paths.transpose(resources.len());
        // Each flow's queueing resources in path order. The other resources
        // add +0.0 to its latency, which is exact.
        let queued_paths =
            flow_paths.filter_map(|r| (resources[r].queue_cycles != 0.0).then_some(r));

        let base_lat: Vec<f64> = flows.iter().map(|f| self.base_latency(f)).collect();
        let (flow_mlp, sm_mlp) = self.mlp();

        // ---- Damped fixed point between delays and max-min rates. ----------
        let mut fill = WaterFill::new(&resources, &littles, &members, &flow_paths);
        let mut delays = vec![0.0f64; resources.len()];
        let mut lat = vec![0.0f64; flows.len()];
        let mut flow_cap = vec![0.0f64; flows.len()];
        // Running sum of the tail iterations' rates, each divided by the
        // tail length first, in iteration order.
        let mut rates = vec![0.0f64; flows.len()];
        let n_tail = AVERAGE_TAIL as f64;

        for iter in 0..FIXED_POINT_ITERS {
            // Effective latency and cap (flat service cap + per-destination
            // Little) per flow.
            for (fi, (l, cap)) in lat.iter_mut().zip(&mut flow_cap).enumerate() {
                *l = base_lat[fi] + queued_paths.row(fi).iter().map(|&r| delays[r]).sum::<f64>();
                *cap = self.calib.flow_port_gbps.min(flow_mlp / *l);
            }
            // Per-SM Little budgets: MLP bytes shared across the SM's flows,
            // so the total rate is MLP × mean(1/latency) — the
            // multi-destination form of Little's law with an even in-flight
            // split.
            for (budget, &ri) in fill.capacity.iter_mut().zip(&littles) {
                let sm_flows = members.row(ri);
                let inv_lat_sum: f64 = sm_flows.iter().map(|&fi| 1.0 / lat[fi]).sum();
                let n = sm_flows.len() as f64;
                *budget = sm_mlp * (inv_lat_sum / n);
            }

            let iter_rates = fill.run(&flow_cap);

            // Update queueing delays from utilisation.
            for &ri in &queued {
                let res = &resources[ri];
                let load: f64 = members.row(ri).iter().map(|&fi| iter_rates[fi]).sum();
                delays[ri] = next_delay(delays[ri], load, res.capacity, res.queue_cycles);
            }

            // Average the tail iterations to smooth any residual oscillation.
            if iter + AVERAGE_TAIL >= FIXED_POINT_ITERS {
                for (avg, r) in rates.iter_mut().zip(iter_rates) {
                    *avg += r / n_tail;
                }
            }
        }

        let mut bottlenecks: Vec<(ResourceKind, Direction, f64)> = resources
            .iter()
            .enumerate()
            .filter(|(_, r)| !matches!(r.kind, ResourceKind::SmLittle(_)))
            .filter_map(|(ri, r)| {
                let load: f64 = members.row(ri).iter().map(|&fi| rates[fi]).sum();
                let util = load / r.capacity;
                (util >= BOTTLENECK_UTIL).then_some((r.kind, r.direction, util))
            })
            .collect();
        bottlenecks.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite utilisation"));

        let total_gbps = rates.iter().sum();
        FlowSolution {
            rates_gbps: rates,
            latencies_cycles: lat,
            total_gbps,
            bottlenecks,
        }
    }
}

/// Progressive-filling max-min fair allocation: all active flows grow at the
/// same rate until a constraint (or per-flow cap) saturates, which freezes
/// the flows it carries; repeat until every flow is frozen.
///
/// The buffers live across the fixed-point iterations of one solve, so an
/// allocation runs without touching the heap.
struct WaterFill {
    rate: Vec<f64>,
    active: Vec<bool>,
    /// Per constraint: the Little budgets first, in the solve's `littles`
    /// order (set before every run), then the static resources that can
    /// bind.
    capacity: Vec<f64>,
    rem: Vec<f64>,
    cnt: Vec<usize>,
    /// Flows per constraint: where `cnt` starts every run.
    cnt_init: Vec<usize>,
    /// Each flow's constraints.
    paths: Csr,
}

impl WaterFill {
    /// Sets the fill up over every Little budget and each static resource
    /// that no other resource with the same flows dominates.
    ///
    /// Resources with identical flow sets always hold equal `cnt`, and each
    /// fill step subtracts the same `inc * cnt` from both. Rounding is
    /// monotone, so one that starts with no more capacity never has more
    /// `rem` left: the larger one can neither set `inc` below it nor pass the
    /// `EPS` exhaustion test without it, provided both tests scale alike.
    /// They do at equal capacity (only one copy is kept), and a smaller
    /// capacity at least [`DOMINANCE_MARGIN`] below keeps `rem` apart by far
    /// more than the `EPS` thresholds differ. Dropping the larger one thus
    /// changes no bit of the allocation.
    fn new(resources: &[Resource], littles: &[usize], members: &Csr, flow_paths: &Csr) -> Self {
        let mut dense: Vec<Option<usize>> = vec![None; resources.len()];
        let mut capacity = vec![f64::INFINITY; littles.len()];
        let mut cnt_init: Vec<usize> = littles.iter().map(|&r| members.row(r).len()).collect();
        for (d, &r) in littles.iter().enumerate() {
            dense[r] = Some(d);
        }
        // Static resources grouped by flow set, smallest capacity first.
        let mut statics: Vec<usize> = (0..resources.len())
            .filter(|&r| dense[r].is_none())
            .collect();
        statics.sort_unstable_by(|&a, &b| {
            members
                .row(a)
                .cmp(members.row(b))
                .then(resources[a].capacity.total_cmp(&resources[b].capacity))
        });
        for group in statics.chunk_by(|&a, &b| members.row(a) == members.row(b)) {
            let floor = resources[group[0]].capacity;
            let mut prev = f64::NAN;
            for &r in group {
                let cap = resources[r].capacity;
                let dominated =
                    cap == prev || (floor < cap && floor <= cap * (1.0 - DOMINANCE_MARGIN));
                prev = cap;
                if !dominated {
                    dense[r] = Some(capacity.len());
                    capacity.push(cap);
                    cnt_init.push(members.row(r).len());
                }
            }
        }
        let num_flows = flow_paths.rows();
        Self {
            rate: vec![0.0; num_flows],
            active: vec![true; num_flows],
            rem: vec![0.0; capacity.len()],
            capacity,
            cnt: cnt_init.clone(),
            cnt_init,
            paths: flow_paths.filter_map(|r| dense[r]),
        }
    }

    /// One allocation against the current capacities and per-flow caps;
    /// returns the rates, valid until the next run.
    fn run(&mut self, flow_cap: &[f64]) -> &[f64] {
        let Self {
            rate,
            active,
            capacity,
            rem,
            cnt,
            cnt_init,
            paths,
        } = self;
        let nf = flow_cap.len();
        rate.fill(0.0);
        active.fill(true);
        let mut n_active = nf;
        rem.copy_from_slice(capacity);
        cnt.copy_from_slice(cnt_init);

        const EPS: f64 = 1e-9;
        while n_active > 0 {
            // Smallest equal increment any constraint allows.
            let mut inc = f64::INFINITY;
            for ri in 0..capacity.len() {
                if cnt[ri] > 0 {
                    inc = inc.min(rem[ri] / cnt[ri] as f64);
                }
            }
            for fi in 0..nf {
                if active[fi] {
                    inc = inc.min(flow_cap[fi] - rate[fi]);
                }
            }
            let inc = inc.max(0.0);

            for fi in 0..nf {
                if active[fi] {
                    rate[fi] += inc;
                }
            }
            for (ri, c) in cnt.iter().enumerate() {
                if *c > 0 {
                    rem[ri] -= inc * *c as f64;
                }
            }

            // Freeze flows that hit their own cap or sit on an exhausted
            // constraint.
            let mut froze_any = false;
            for fi in 0..nf {
                if !active[fi] {
                    continue;
                }
                let path = paths.row(fi);
                let capped = rate[fi] + EPS >= flow_cap[fi];
                let exhausted = path.iter().any(|&r| rem[r] <= EPS * capacity[r].max(1.0));
                if capped || exhausted {
                    active[fi] = false;
                    n_active -= 1;
                    froze_any = true;
                    for &r in path {
                        cnt[r] -= 1;
                    }
                }
            }
            if !froze_any {
                // Numerical safety: freeze everything rather than spin.
                break;
            }
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_topo::GpuSpec;

    fn model(spec: &GpuSpec) -> FabricModel {
        let h = spec.hierarchy();
        let f = spec.floorplan();
        let c = Calibration::for_spec(spec);
        let dram = c.dram_gbps_per_mp(spec);
        FabricModel::new(h, f, c, spec.clock_ghz, dram)
    }

    fn read_hit(sm: u32, slice: u32) -> FlowSpec {
        FlowSpec {
            sm: SmId::new(sm),
            slice: SliceId::new(slice),
            kind: AccessKind::ReadHit,
        }
    }

    #[test]
    fn empty_flow_set_is_trivial() {
        let m = model(&GpuSpec::v100());
        let sol = m.solve(&[]);
        assert_eq!(sol.total_gbps, 0.0);
        assert!(sol.rates_gbps.is_empty());
    }

    #[test]
    fn single_sm_to_single_slice_matches_paper_v100() {
        // Paper Fig. 9b: ≈ 34 GB/s from one SM to one slice.
        let m = model(&GpuSpec::v100());
        let sol = m.solve(&[read_hit(0, 0)]);
        assert!(
            (31.0..36.0).contains(&sol.total_gbps),
            "got {}",
            sol.total_gbps
        );
    }

    #[test]
    fn v100_slice_saturates_near_85_gbps() {
        // Paper Fig. 9c: a GPC driving one slice reaches ≈ 85 GB/s.
        let m = model(&GpuSpec::v100());
        let h = GpuSpec::v100().hierarchy();
        let sms = h.sms_in_gpc(GpcId::new(0));
        let flows: Vec<FlowSpec> = sms
            .iter()
            .map(|&sm| FlowSpec {
                sm,
                slice: SliceId::new(5),
                kind: AccessKind::ReadHit,
            })
            .collect();
        let sol = m.solve(&flows);
        assert!(
            (78.0..87.0).contains(&sol.total_gbps),
            "got {}",
            sol.total_gbps
        );
    }

    #[test]
    fn slice_saturation_needs_about_four_sms_on_v100() {
        // Paper Section IV-A: a minimum of 4 SMs saturates one slice.
        let m = model(&GpuSpec::v100());
        let h = GpuSpec::v100().hierarchy();
        let sms = h.sms_in_gpc(GpcId::new(0));
        let bw = |n: usize| -> f64 {
            let flows: Vec<FlowSpec> = sms[..n]
                .iter()
                .map(|&sm| FlowSpec {
                    sm,
                    slice: SliceId::new(3),
                    kind: AccessKind::ReadHit,
                })
                .collect();
            m.solve(&flows).total_gbps
        };
        let b1 = bw(1);
        let b2 = bw(2);
        let b3 = bw(3);
        let b4 = bw(4);
        assert!(b2 > 1.8 * b1, "2 SMs should nearly double: {b1} -> {b2}");
        assert!(b3 < 85.0, "3 SMs should not fully saturate: {b3}");
        assert!(b4 > 0.92 * 85.0, "4 SMs should approach saturation: {b4}");
    }

    #[test]
    fn aggregate_l2_fabric_exceeds_memory_bandwidth() {
        // Observation #7: aggregate fabric BW ≈ 2.4–3.5 × memory BW.
        for spec in GpuSpec::paper_presets() {
            let m = model(&spec);
            let h = spec.hierarchy();
            let hit_flows: Vec<FlowSpec> = h
                .sms()
                .iter()
                .flat_map(|sm| {
                    // Every SM streams from every local-or-global slice; use
                    // a strided subset to bound the flow count.
                    h.slices()
                        .iter()
                        .filter(move |s| {
                            spec.cache_policy == gnoc_topo::CachePolicy::GloballyShared
                                || s.partition == sm.partition
                        })
                        .map(move |s| FlowSpec {
                            sm: sm.sm,
                            slice: s.slice,
                            kind: AccessKind::ReadHit,
                        })
                })
                .collect();
            let fabric = m.solve(&hit_flows).total_gbps;
            let miss_flows: Vec<FlowSpec> = hit_flows
                .iter()
                .map(|f| FlowSpec {
                    kind: AccessKind::ReadMiss,
                    ..*f
                })
                .collect();
            let mem = m.solve(&miss_flows).total_gbps;
            let ratio = fabric / mem;
            assert!(
                (2.0..4.0).contains(&ratio),
                "{}: fabric {fabric:.0} mem {mem:.0} ratio {ratio:.2}",
                spec.name
            );
            // Memory streaming reaches 85–90 % of peak.
            let mem_frac = mem / spec.mem_peak_gbps;
            assert!(
                (0.80..0.95).contains(&mem_frac),
                "{}: mem fraction {mem_frac:.2}",
                spec.name
            );
        }
    }

    #[test]
    fn a100_far_partition_flow_is_slower_for_few_sms() {
        // Paper Fig. 12/14: one SM gets ≈ 40 GB/s near, ≈ 26–30 far.
        let spec = GpuSpec::a100();
        let m = model(&spec);
        let h = spec.hierarchy();
        let sm = h.sms_in_partition(PartitionId::new(0))[0];
        let near_slice = h.slices_in_partition(PartitionId::new(0))[0];
        let far_slice = h.slices_in_partition(PartitionId::new(1))[0];
        let near = m
            .solve(&[FlowSpec {
                sm,
                slice: near_slice,
                kind: AccessKind::ReadHit,
            }])
            .total_gbps;
        let far = m
            .solve(&[FlowSpec {
                sm,
                slice: far_slice,
                kind: AccessKind::ReadHit,
            }])
            .total_gbps;
        assert!((37.0..42.0).contains(&near), "near {near}");
        assert!((24.0..32.0).contains(&far), "far {far}");
        assert!(far < 0.8 * near);
    }

    #[test]
    fn a100_slice_bandwidth_converges_by_eight_sms() {
        // Paper Fig. 14: near and far converge once ≈ 8 SMs drive the slice.
        let spec = GpuSpec::a100();
        let m = model(&spec);
        let h = spec.hierarchy();
        let near_sms = h.sms_in_partition(PartitionId::new(0));
        let far_sms = h.sms_in_partition(PartitionId::new(1));
        let slice = h.slices_in_partition(PartitionId::new(0))[0];
        let bw = |sms: &[SmId], n: usize| -> f64 {
            let flows: Vec<FlowSpec> = sms[..n]
                .iter()
                .map(|&sm| FlowSpec {
                    sm,
                    slice,
                    kind: AccessKind::ReadHit,
                })
                .collect();
            m.solve(&flows).total_gbps
        };
        let near8 = bw(near_sms, 8);
        let far8 = bw(far_sms, 8);
        assert!(
            (far8 - near8).abs() / near8 < 0.1,
            "8-SM near {near8} vs far {far8} should converge"
        );
        let near1 = bw(near_sms, 1);
        let far1 = bw(far_sms, 1);
        assert!(far1 < 0.8 * near1, "1-SM far {far1} vs near {near1}");
    }

    #[test]
    fn tpc_write_speedup_is_constrained_on_v100() {
        // Paper Fig. 10: V100 TPC write speedup ≈ 1.09.
        let spec = GpuSpec::v100();
        let m = model(&spec);
        let h = spec.hierarchy();
        let tpc_sms = h.sms_in_tpc(TpcId::new(0));
        let slices: Vec<SliceId> = SliceId::range(h.num_slices()).collect();
        let writes = |sms: &[SmId]| -> f64 {
            let flows: Vec<FlowSpec> = sms
                .iter()
                .flat_map(|&sm| {
                    slices.iter().map(move |&slice| FlowSpec {
                        sm,
                        slice,
                        kind: AccessKind::Write,
                    })
                })
                .collect();
            m.solve(&flows).total_gbps
        };
        let one = writes(&tpc_sms[..1]);
        let two = writes(tpc_sms);
        let speedup = two / one;
        assert!(
            (1.0..1.3).contains(&speedup),
            "V100 TPC write speedup {speedup} (one {one}, two {two})"
        );
        // Reads get the full 2× speedup.
        let reads = |sms: &[SmId]| -> f64 {
            let flows: Vec<FlowSpec> = sms
                .iter()
                .flat_map(|&sm| {
                    slices.iter().map(move |&slice| FlowSpec {
                        sm,
                        slice,
                        kind: AccessKind::ReadHit,
                    })
                })
                .collect();
            m.solve(&flows).total_gbps
        };
        let r_speedup = reads(tpc_sms) / reads(&tpc_sms[..1]);
        assert!(r_speedup > 1.9, "TPC read speedup {r_speedup}");
    }

    #[test]
    fn bottleneck_reporting_identifies_slice() {
        let m = model(&GpuSpec::v100());
        let h = GpuSpec::v100().hierarchy();
        let flows: Vec<FlowSpec> = h
            .sms_in_gpc(GpcId::new(0))
            .iter()
            .map(|&sm| FlowSpec {
                sm,
                slice: SliceId::new(0),
                kind: AccessKind::ReadHit,
            })
            .collect();
        let sol = m.solve(&flows);
        // A full GPC into one slice saturates the GPC↔MP port (≈ 85 GB/s on
        // V100 — the Fig. 9c value); the report must identify it.
        assert!(
            sol.bottlenecks.iter().any(|(k, _, _)| matches!(
                k,
                ResourceKind::GpcPort(g, mp) if g.index() == 0 && mp.index() == 0
            )),
            "bottlenecks: {:?}",
            sol.bottlenecks
        );
    }

    #[test]
    fn solution_is_deterministic() {
        let m = model(&GpuSpec::a100());
        let flows = vec![read_hit(0, 0), read_hit(1, 40), read_hit(2, 7)];
        let a = m.solve(&flows);
        let b = m.solve(&flows);
        assert_eq!(a.rates_gbps, b.rates_gbps);
    }

    #[test]
    fn rates_never_exceed_flow_port() {
        let m = model(&GpuSpec::v100());
        let flows = vec![read_hit(0, 0)];
        let sol = m.solve(&flows);
        assert!(sol.rates_gbps[0] <= Calibration::volta().flow_port_gbps + 1e-6);
    }

    type SolutionBits = (Vec<u64>, Vec<u64>, u64, Vec<(ResourceKind, Direction, u64)>);

    /// The bits of everything a solution reports.
    fn bits(sol: &FlowSolution) -> SolutionBits {
        let raw = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            raw(&sol.rates_gbps),
            raw(&sol.latencies_cycles),
            sol.total_gbps.to_bits(),
            sol.bottlenecks
                .iter()
                .map(|&(kind, dir, util)| (kind, dir, util.to_bits()))
                .collect(),
        )
    }

    const KINDS: [AccessKind; 3] = [AccessKind::ReadHit, AccessKind::ReadMiss, AccessKind::Write];

    /// Asserts that the closed form gives the fixed point's bits for `flow`.
    fn assert_lone_flow_exact(m: &FabricModel, flow: FlowSpec) {
        let flows = [flow];
        assert_eq!(
            bits(&m.solve(&flows)),
            bits(&m.solve_general(&flows)),
            "{flow:?}"
        );
    }

    /// Every `(sm, slice, kind)` flow of `spec`, kind fastest, so that one
    /// lane chunk mixes reads and writes, whose smallest capacities differ.
    fn every_lone_flow(spec: &GpuSpec) -> Vec<FlowSpec> {
        let h = spec.hierarchy();
        let mut flows = Vec::new();
        for sm in SmId::range(h.num_sms()) {
            for slice in SliceId::range(h.num_slices()) {
                for kind in KINDS {
                    flows.push(FlowSpec { sm, slice, kind });
                }
            }
        }
        flows
    }

    #[test]
    fn lone_flows_match_the_fixed_point_on_every_preset() {
        let mut solved = 0;
        for spec in GpuSpec::paper_presets() {
            let m = model(&spec);
            for flow in every_lone_flow(&spec) {
                assert_lone_flow_exact(&m, flow);
                solved += 1;
            }
        }
        assert_eq!(solved, 65_280);
    }

    /// Asserts that `solve_each` gives each flow's lone `solve` total.
    fn assert_each_exact(m: &FabricModel, flows: &[FlowSpec]) {
        let each: Vec<u64> = m.solve_each(flows).iter().map(|r| r.to_bits()).collect();
        let alone: Vec<u64> = flows
            .iter()
            .map(|f| m.solve(std::slice::from_ref(f)).total_gbps.to_bits())
            .collect();
        assert_eq!(each, alone, "{} flows", flows.len());
    }

    #[test]
    fn solve_each_matches_solve_on_every_preset() {
        let mut solved = 0;
        for spec in GpuSpec::paper_presets() {
            let flows = every_lone_flow(&spec);
            assert_each_exact(&model(&spec), &flows);
            solved += flows.len();
        }
        assert_eq!(solved, 65_280);
    }

    #[test]
    fn solve_each_covers_partial_and_multiple_chunks() {
        let spec = GpuSpec::a100();
        let m = model(&spec);
        // The read-hit rows of SMs 0 and 2, which sit in opposite
        // partitions: a chunk starting at 36 straddles SM 0's near and far
        // slices.
        let rows: Vec<FlowSpec> = [0, 2]
            .into_iter()
            .flat_map(|sm| (0..80).map(move |slice| read_hit(sm, slice)))
            .collect();
        assert!(m.solve_each(&[]).is_empty());
        for len in [1, LANES - 1, LANES, LANES + 1, 80] {
            assert_each_exact(&m, &rows[..len]);
            assert_each_exact(&m, &rows[36..][..len]);
        }
    }

    /// Draws one calibration value from its mode: the preset's value,
    /// `UNLIMITED`, a value `tie` shared with every other field in that
    /// mode, a value just inside the dominance margin above `tie`, or a
    /// value of its own.
    fn pick(mode: u8, preset: f64, tie: f64, own: f64) -> f64 {
        match mode % 5 {
            0 => preset,
            1 => UNLIMITED,
            2 => tie,
            3 => tie * (1.0 + DOMINANCE_MARGIN / 10.0),
            _ => own,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn lone_flows_match_the_fixed_point_on_random_calibrations(
            preset in 0usize..3,
            modes in proptest::any::<[u8; 19]>(),
            values in proptest::collection::vec(1.0f64..300.0, 20),
            picks in proptest::collection::vec(
                (proptest::any::<u32>(), proptest::any::<u32>(), 0usize..3),
                8,
            ),
        ) {
            let spec = GpuSpec::paper_presets().swap_remove(preset);
            let mut c = Calibration::for_spec(&spec);
            let tie = values[19];
            // Speedups scale the SM ports: a tie is a speedup of 1 (the TPC
            // or CPC capacity equals the port's), an own value 0.01-3.
            let speedup = |mode: u8, preset: f64, own: f64| match mode % 5 {
                2 => 1.0,
                3 => 1.0 + DOMINANCE_MARGIN / 10.0,
                _ => pick(mode, preset, tie, own / 100.0),
            };
            c.sm_read_port_gbps = pick(modes[0], c.sm_read_port_gbps, tie, values[0]);
            c.sm_write_port_gbps = pick(modes[1], c.sm_write_port_gbps, tie, values[1]);
            c.tpc_read_speedup = speedup(modes[2], c.tpc_read_speedup, values[2]);
            c.tpc_write_speedup = speedup(modes[3], c.tpc_write_speedup, values[3]);
            c.cpc_read_speedup = speedup(modes[4], c.cpc_read_speedup, values[4]);
            c.cpc_write_speedup = speedup(modes[5], c.cpc_write_speedup, values[5]);
            c.gpc_port_gbps = pick(modes[6], c.gpc_port_gbps, tie, values[6]);
            c.gpc_total_gbps = pick(modes[7], c.gpc_total_gbps, tie, values[7]);
            c.gpc_total_write_gbps = pick(modes[8], c.gpc_total_write_gbps, tie, values[8]);
            c.partition_fabric_gbps =
                pick(modes[9], c.partition_fabric_gbps, tie, values[9]);
            c.inter_partition_gbps = pick(modes[10], c.inter_partition_gbps, tie, values[10]);
            c.slice_gbps = pick(modes[11], c.slice_gbps, tie, values[11]);
            c.mp_port_gbps = pick(modes[12], c.mp_port_gbps, tie, values[12]);
            c.flow_port_gbps = pick(modes[13], c.flow_port_gbps, tie, values[13]);
            // Queueing constants: modes 1-3 switch the delay off.
            let queue = |mode: u8, preset: f64, own: f64| match mode % 5 {
                0 => preset,
                1..=3 => 0.0,
                _ => own,
            };
            c.slice_queue_cycles = queue(modes[14], c.slice_queue_cycles, values[14]);
            c.gpc_port_queue_cycles = queue(modes[15], c.gpc_port_queue_cycles, values[15]);
            let dram = pick(modes[16], c.dram_gbps_per_mp(&spec), tie, values[16]);
            // In-flight budgets of 50-15,000 bytes, so that the SM's Little
            // budget, the flow's cap or a static capacity can each bind.
            let mlp = |mode: u8, preset: f64, own: f64| match mode % 2 {
                0 => preset,
                _ => own * 50.0,
            };
            c.sm_mlp_bytes = mlp(modes[17], c.sm_mlp_bytes, values[17]);
            c.flow_mlp_bytes = mlp(modes[18], c.flow_mlp_bytes, values[18]);
            let h = spec.hierarchy();
            let m = FabricModel::new(h.clone(), spec.floorplan(), c, spec.clock_ghz, dram);
            for &(sm, slice, kind) in &picks {
                assert_lone_flow_exact(
                    &m,
                    FlowSpec {
                        sm: SmId::new(sm % h.num_sms() as u32),
                        slice: SliceId::new(slice % h.num_slices() as u32),
                        kind: KINDS[kind],
                    },
                );
            }
        }

        /// Lanes loaded from models that differ in capacities and queueing
        /// constants, so that one chunk's lanes carry 0, 1 or 2 queued
        /// resources and a lane's next flow may carry fewer than its last.
        /// The kernel reads only the port cap and the in-flight budgets
        /// from its own model, which every model here shares.
        #[test]
        fn lanes_with_different_queued_counts_stay_exact(
            preset in 0usize..3,
            shared in proptest::collection::vec(1.0f64..300.0, 3),
            shared_modes in proptest::any::<[u8; 3]>(),
            variants in proptest::collection::vec(
                (proptest::any::<[u8; 6]>(), proptest::collection::vec(1.0f64..300.0, 6)),
                4,
            ),
            picks in proptest::collection::vec(
                (0usize..4, proptest::any::<u32>(), proptest::any::<u32>(), 0usize..3),
                2 * LANES + 3,
            ),
        ) {
            let spec = GpuSpec::paper_presets().swap_remove(preset);
            let h = spec.hierarchy();
            let mut base = Calibration::for_spec(&spec);
            let dram = base.dram_gbps_per_mp(&spec);
            base.flow_port_gbps = pick(shared_modes[0], base.flow_port_gbps, shared[0], shared[0]);
            if shared_modes[1] % 2 == 1 {
                base.sm_mlp_bytes = shared[1] * 50.0;
            }
            if shared_modes[2] % 2 == 1 {
                base.flow_mlp_bytes = shared[2] * 50.0;
            }
            // Queueing constants: modes 1-3 switch the delay off.
            let queue = |mode: u8, preset: f64, own: f64| match mode % 5 {
                0 => preset,
                1..=3 => 0.0,
                _ => own,
            };
            let models: Vec<FabricModel> = variants
                .iter()
                .map(|(modes, values)| {
                    let mut c = base.clone();
                    c.slice_gbps = pick(modes[0], c.slice_gbps, values[0], values[0]);
                    c.gpc_port_gbps = pick(modes[1], c.gpc_port_gbps, values[1], values[1]);
                    // SM ports of 0.1-30 GB/s, below the flow's own cap.
                    c.sm_read_port_gbps =
                        pick(modes[2], c.sm_read_port_gbps, values[2], values[2] / 10.0);
                    c.sm_write_port_gbps =
                        pick(modes[3], c.sm_write_port_gbps, values[3], values[3] / 10.0);
                    c.slice_queue_cycles = queue(modes[4], c.slice_queue_cycles, values[4]);
                    c.gpc_port_queue_cycles =
                        queue(modes[5], c.gpc_port_queue_cycles, values[5]);
                    FabricModel::new(h.clone(), spec.floorplan(), c, spec.clock_ghz, dram)
                })
                .collect();
            // One lane array for every chunk, as `solve_each` keeps it.
            let mut lanes = [Lane::default(); LANES];
            for chunk in picks.chunks(LANES) {
                let lanes = &mut lanes[..chunk.len()];
                let flows: Vec<(usize, FlowSpec)> = chunk
                    .iter()
                    .map(|&(mi, sm, slice, kind)| {
                        let flow = FlowSpec {
                            sm: SmId::new(sm % h.num_sms() as u32),
                            slice: SliceId::new(slice % h.num_slices() as u32),
                            kind: KINDS[kind],
                        };
                        (mi, flow)
                    })
                    .collect();
                for (lane, (mi, flow)) in lanes.iter_mut().zip(&flows) {
                    models[*mi].load_lane(lane, flow, |_, _| {});
                }
                models[0].run_lanes(lanes);
                for (lane, (mi, flow)) in lanes.iter().zip(&flows) {
                    let alone = models[*mi].solve_general(std::slice::from_ref(flow));
                    let alone = (
                        alone.rates_gbps[0].to_bits(),
                        alone.latencies_cycles[0].to_bits(),
                    );
                    let got = (lane.rate.to_bits(), lane.latency.to_bits());
                    proptest::prop_assert!(got == alone, "{flow:?} of model {mi}");
                }
            }
        }
    }
}
