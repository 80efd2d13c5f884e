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

use crate::calib::{Calibration, UNLIMITED};
use crate::latency;
use gnoc_topo::{CpcId, Floorplan, GpcId, Hierarchy, MpId, PartitionId, SliceId, SmId, TpcId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

    /// Closes the row being pushed.
    fn end_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The transpose: row `r` of the result lists, in ascending order, the
    /// rows of `self` that contain `r`. `counts[r]` must be the number of
    /// such rows.
    fn transpose(&self, counts: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        for &c in counts {
            offsets.push(offsets[offsets.len() - 1] + c);
        }
        let mut next = offsets[..counts.len()].to_vec();
        let mut items = vec![0; self.items.len()];
        for i in 0..self.offsets.len() - 1 {
            for &r in self.row(i) {
                items[next[r]] = i;
                next[r] += 1;
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

    /// Appends the ordered resource kinds a flow traverses (excluding its
    /// dynamic per-SM Little resource, which is added separately) to `path`.
    fn path(&self, flow: &FlowSpec, path: &mut Vec<ResourceKind>) {
        let sm = self.hierarchy.sm(flow.sm);
        let slice = self.hierarchy.slice(flow.slice);
        path.push(ResourceKind::SmPort(flow.sm));
        path.push(ResourceKind::Tpc(sm.tpc));
        if self.hierarchy.has_cpc_level() {
            path.push(ResourceKind::Cpc(sm.cpc));
        }
        path.push(ResourceKind::GpcTotal(sm.gpc));
        path.push(ResourceKind::GpcPort(sm.gpc, slice.mp));
        path.push(ResourceKind::PartitionFabric(sm.partition));
        if sm.partition != slice.partition {
            path.push(ResourceKind::InterPartition(sm.partition, slice.partition));
            path.push(ResourceKind::PartitionFabric(slice.partition));
        }
        path.push(ResourceKind::MpPort(slice.mp));
        path.push(ResourceKind::Slice(flow.slice));
        if flow.kind == AccessKind::ReadMiss {
            path.push(ResourceKind::Dram(slice.mp));
        }
    }

    /// Solves the steady-state rates of `flows` under max-min fairness with
    /// Little's-law and queueing feedback.
    ///
    /// The result is deterministic. Duplicate `(sm, slice, kind)` entries are
    /// legal and act as independent warps sharing the same path.
    pub fn solve(&self, flows: &[FlowSpec]) -> FlowSolution {
        if flows.is_empty() {
            return FlowSolution {
                rates_gbps: Vec::new(),
                latencies_cycles: Vec::new(),
                total_gbps: 0.0,
                bottlenecks: Vec::new(),
            };
        }

        // ---- Build the resource table. -------------------------------------
        let mut index: HashMap<(ResourceKind, Direction), usize> = HashMap::new();
        let mut resources: Vec<Resource> = Vec::new();
        // Flows per resource; a path never visits a resource twice.
        let mut counts: Vec<usize> = Vec::new();
        // At most 12 resources per flow: Little, SM port, TPC, CPC, GPC
        // total, GPC port, two partition fabrics, the central link, MP port,
        // slice and DRAM.
        let mut flow_paths = Csr::with_capacity(flows.len(), flows.len() * 12);
        let mut sm_little: HashMap<(SmId, Direction), usize> = HashMap::new();
        let mut kinds = Vec::new();

        for flow in flows {
            let dir = if flow.kind.is_reply_limited() {
                Direction::Reply
            } else {
                Direction::Request
            };
            // Dynamic per-SM Little's-law budget.
            let little_id = *sm_little.entry((flow.sm, dir)).or_insert_with(|| {
                resources.push(Resource {
                    kind: ResourceKind::SmLittle(flow.sm),
                    direction: dir,
                    capacity: f64::INFINITY,
                    queue_cycles: 0.0,
                });
                counts.push(0);
                resources.len() - 1
            });
            counts[little_id] += 1;
            flow_paths.items.push(little_id);

            kinds.clear();
            self.path(flow, &mut kinds);
            for &kind in &kinds {
                let Some(cap) = self.capacity(kind, dir) else {
                    continue;
                };
                let rid = *index.entry((kind, dir)).or_insert_with(|| {
                    resources.push(Resource {
                        kind,
                        direction: dir,
                        capacity: cap,
                        queue_cycles: self.queue_cycles(kind),
                    });
                    counts.push(0);
                    resources.len() - 1
                });
                counts[rid] += 1;
                flow_paths.items.push(rid);
            }
            flow_paths.end_row();
        }
        // Each resource's flows in ascending order: the order every load
        // and Little's-law sum runs in.
        let members = flow_paths.transpose(&counts);

        let base_lat: Vec<f64> = flows.iter().map(|f| self.base_latency(f)).collect();
        let byte_cycles = |bytes: f64| bytes * self.clock_ghz; // GB/s per (1/cycles)

        // ---- Damped fixed point between delays and max-min rates. ----------
        let mut fill = WaterFill::new(flows.len(), counts);
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
                *l = base_lat[fi] + flow_paths.row(fi).iter().map(|&r| delays[r]).sum::<f64>();
                *cap = self
                    .calib
                    .flow_port_gbps
                    .min(byte_cycles(self.calib.flow_mlp_bytes) / *l);
            }
            // Per-SM Little budgets: MLP bytes spread across that SM's flows.
            for (ri, res) in resources.iter_mut().enumerate() {
                if let ResourceKind::SmLittle(_) = res.kind {
                    // MLP bytes shared across the SM's flows: total rate is
                    // MLP × mean(1/latency) — the multi-destination form of
                    // Little's law with an even in-flight split.
                    let sm_flows = members.row(ri);
                    let inv_lat_sum: f64 = sm_flows.iter().map(|&fi| 1.0 / lat[fi]).sum();
                    let n = sm_flows.len() as f64;
                    res.capacity = byte_cycles(self.calib.sm_mlp_bytes) * (inv_lat_sum / n);
                }
            }

            let iter_rates = fill.run(&resources, &flow_paths, &flow_cap);

            // Update queueing delays from utilisation.
            for (ri, res) in resources.iter().enumerate() {
                if res.queue_cycles == 0.0 {
                    continue;
                }
                let load: f64 = members.row(ri).iter().map(|&fi| iter_rates[fi]).sum();
                let rho = (load / res.capacity).min(RHO_CLAMP);
                let target = res.queue_cycles * rho / (1.0 - rho);
                delays[ri] = DELAY_DAMPING * target + (1.0 - DELAY_DAMPING) * delays[ri];
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
                (util >= 0.99).then_some((r.kind, r.direction, util))
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
/// same rate until a resource (or per-flow cap) saturates, which freezes the
/// flows it carries; repeat until every flow is frozen.
///
/// The buffers live across the fixed-point iterations of one solve, so an
/// allocation runs without touching the heap.
struct WaterFill {
    rate: Vec<f64>,
    active: Vec<bool>,
    rem: Vec<f64>,
    cnt: Vec<usize>,
    /// Flows per resource: where `cnt` starts every run.
    cnt_init: Vec<usize>,
}

impl WaterFill {
    fn new(num_flows: usize, cnt_init: Vec<usize>) -> Self {
        Self {
            rate: vec![0.0; num_flows],
            active: vec![true; num_flows],
            rem: vec![0.0; cnt_init.len()],
            cnt: cnt_init.clone(),
            cnt_init,
        }
    }

    /// One allocation against the current capacities and per-flow caps;
    /// returns the rates, valid until the next run.
    fn run(&mut self, resources: &[Resource], flow_paths: &Csr, flow_cap: &[f64]) -> &[f64] {
        let Self {
            rate,
            active,
            rem,
            cnt,
            cnt_init,
        } = self;
        let nf = flow_cap.len();
        rate.fill(0.0);
        active.fill(true);
        let mut n_active = nf;
        for (r, res) in rem.iter_mut().zip(resources) {
            *r = res.capacity;
        }
        cnt.copy_from_slice(cnt_init);

        const EPS: f64 = 1e-9;
        while n_active > 0 {
            // Smallest equal increment any constraint allows.
            let mut inc = f64::INFINITY;
            for ri in 0..resources.len() {
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
            // resource.
            let mut froze_any = false;
            for fi in 0..nf {
                if !active[fi] {
                    continue;
                }
                let path = flow_paths.row(fi);
                let capped = rate[fi] + EPS >= flow_cap[fi];
                let exhausted = path
                    .iter()
                    .any(|&r| rem[r] <= EPS * resources[r].capacity.max(1.0));
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
}
