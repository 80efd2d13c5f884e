//! Reliable end-to-end delivery over a (possibly faulty) mesh.
//!
//! The cycle-level [`Mesh`](crate::Mesh) moves packets; under fault injection
//! it may drop, corrupt, or strand them. [`ReliableMesh`] layers the
//! transport protocol a real GPU interconnect implements in hardware on top:
//! ACK-on-ejection, NACK on CRC failure, timeout-driven retransmission with
//! bounded exponential backoff, duplicate suppression, and a
//! deadlock/livelock watchdog that *reports* stuck traffic instead of
//! hanging the simulation.
//!
//! Every submitted transfer reaches exactly one terminal state: delivered
//! once, or lost with a [`LossReason`]. Never duplicated, never silently
//! dropped.

use crate::error::{LossReason, NocError};
use crate::mesh::{Mesh, MeshConfig};
use crate::packet::{NodeId, PacketClass};
use gnoc_faults::FaultPlan;
use gnoc_telemetry::{IdMap, MetricRegistry, TraceEvent, SUBSYSTEM_NOC};
use gnoc_trace::{
    ReplayError, ReplayOutcome, TraceError, TraceEvent as TapEvent, TraceReader, TraceTap,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Bucket width of the transfer-latency histogram, cycles.
const LAT_BUCKET: u64 = 4;
/// Number of histogram buckets (tail clamps into the last).
const LAT_BUCKETS: usize = 512;

/// Retry and watchdog policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Retransmissions allowed after the first attempt before a transfer is
    /// declared [`LossReason::RetriesExhausted`].
    pub max_retries: u32,
    /// ACK timeout for the first attempt. Must comfortably exceed the
    /// healthy-network round trip, or congestion alone will trigger
    /// spurious (harmless but wasteful) retransmissions.
    pub base_timeout_cycles: u64,
    /// Ceiling on the exponentially backed-off timeout.
    pub max_timeout_cycles: u64,
    /// Cycles without any delivery, NACK, or loss resolution (while
    /// transfers are outstanding) before the watchdog declares the network
    /// stuck and reports every outstanding transfer as
    /// [`LossReason::Watchdog`].
    pub watchdog_cycles: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_timeout_cycles: 128,
            max_timeout_cycles: 2048,
            watchdog_cycles: 20_000,
        }
    }
}

/// Handle for one submitted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId(usize);

impl TransferId {
    /// The transfer's dense index (submission order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where a transfer currently stands. Terminal states are final: the first
/// resolution wins and later events (late duplicates) are suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Waiting for buffer space at the source.
    Pending,
    /// A packet for this transfer is in the network.
    InFlight,
    /// Delivered exactly once.
    Delivered {
        /// Cycles from first submission to (first) ejection, retries
        /// included.
        latency: u64,
    },
    /// Definitively lost.
    Lost {
        /// Why the transfer was abandoned.
        reason: LossReason,
    },
}

impl TransferOutcome {
    /// Whether the transfer has reached a terminal state.
    pub fn is_resolved(&self) -> bool {
        matches!(self, Self::Delivered { .. } | Self::Lost { .. })
    }
}

#[derive(Debug, Clone)]
struct Transfer {
    src: NodeId,
    dst: NodeId,
    flits: u32,
    class: PacketClass,
    /// Cycle of the original submission; retransmissions keep this birth so
    /// age-based arbitration and latency accounting see the full wait.
    first_submit: u64,
    /// Injection attempts so far.
    attempts: u32,
    /// Cycle at which the current attempt times out.
    deadline: u64,
    state: TransferOutcome,
}

/// Aggregate reliable-delivery statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityStats {
    /// Transfers submitted.
    pub submitted: u64,
    /// Transfers delivered (each exactly once).
    pub delivered: u64,
    /// Retransmissions performed (timeouts plus NACKs).
    pub retries: u64,
    /// Late or duplicate arrivals discarded after their transfer resolved.
    pub duplicates_suppressed: u64,
    /// Retransmissions caused specifically by ejection-side CRC failures.
    pub corrupt_retries: u64,
    /// Transfers lost because no surviving route existed.
    pub lost_unroutable: u64,
    /// Transfers lost after the retry budget ran out.
    pub lost_retries_exhausted: u64,
    /// Transfers written off by the watchdog.
    pub lost_watchdog: u64,
    /// Times the watchdog tripped.
    pub watchdog_trips: u64,
    /// Sum of delivered-transfer latencies.
    pub latency_sum: u64,
    /// Worst delivered-transfer latency.
    pub latency_max: u64,
    /// Delivered-transfer latency histogram ([`LAT_BUCKET`]-cycle buckets).
    pub latency_histogram: Vec<u64>,
}

impl ReliabilityStats {
    /// Total transfers lost, any reason.
    pub fn lost_total(&self) -> u64 {
        self.lost_unroutable + self.lost_retries_exhausted + self.lost_watchdog
    }

    /// Mean delivered-transfer latency in cycles (0 with no deliveries).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// The `q`-quantile of delivered-transfer latency, bucket-resolved.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.delivered == 0 {
            return 0.0;
        }
        let target = (q * self.delivered as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.latency_histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as u64 * LAT_BUCKET) as f64 + LAT_BUCKET as f64 / 2.0;
            }
        }
        (LAT_BUCKETS as u64 * LAT_BUCKET) as f64
    }

    fn record_latency(&mut self, latency: u64) {
        if self.latency_histogram.is_empty() {
            self.latency_histogram = vec![0; LAT_BUCKETS];
        }
        let bucket = ((latency / LAT_BUCKET) as usize).min(LAT_BUCKETS - 1);
        self.latency_histogram[bucket] += 1;
        self.latency_sum += latency;
        if latency > self.latency_max {
            self.latency_max = latency;
        }
    }
}

/// A mesh with an end-to-end retry protocol on top.
#[derive(Debug)]
pub struct ReliableMesh {
    mesh: Mesh,
    cfg: RetryConfig,
    transfers: Vec<Transfer>,
    /// Packet id → transfer index, for in-flight packets.
    by_packet: IdMap<usize>,
    /// Transfers waiting to (re)inject, in deterministic FIFO order.
    pending: VecDeque<usize>,
    stats: ReliabilityStats,
    /// Unresolved transfer count.
    outstanding: usize,
    /// Earliest deadline among in-flight transfers — lets the timeout scan
    /// skip cycles where nothing can possibly expire.
    next_deadline: u64,
    /// Last cycle with protocol-level activity (delivery, NACK, loss).
    last_activity: u64,
    tripped: bool,
    /// Workload record tap (`gnoc trace record`): observes every submit,
    /// boxed and absent by default so untapped runs pay one pointer.
    trace_tap: Option<Box<TraceTap>>,
}

impl ReliableMesh {
    /// Wraps an existing mesh (fault plan already applied, if any).
    pub fn new(mesh: Mesh, cfg: RetryConfig) -> Self {
        Self {
            mesh,
            cfg,
            transfers: Vec::new(),
            by_packet: IdMap::default(),
            pending: VecDeque::new(),
            stats: ReliabilityStats::default(),
            outstanding: 0,
            next_deadline: u64::MAX,
            last_activity: 0,
            tripped: false,
            trace_tap: None,
        }
    }

    /// Builds a mesh, applies `plan`, and wraps it.
    pub fn with_faults(
        mesh_cfg: MeshConfig,
        plan: &FaultPlan,
        cfg: RetryConfig,
    ) -> Result<Self, NocError> {
        Self::with_faults_shared(mesh_cfg, std::sync::Arc::new(plan.clone()), cfg)
    }

    /// Like [`ReliableMesh::with_faults`] but sharing the plan behind an
    /// `Arc` — parallel campaign rows stop deep-cloning the plan per mesh.
    pub fn with_faults_shared(
        mesh_cfg: MeshConfig,
        plan: std::sync::Arc<FaultPlan>,
        cfg: RetryConfig,
    ) -> Result<Self, NocError> {
        let mut mesh = Mesh::try_new(mesh_cfg)?;
        mesh.apply_fault_plan_shared(plan)?;
        Ok(Self::new(mesh, cfg))
    }

    /// The wrapped mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutable access to the wrapped mesh (telemetry attachment etc.).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ReliabilityStats {
        &self.stats
    }

    /// Whether the watchdog has ever tripped.
    pub fn watchdog_tripped(&self) -> bool {
        self.tripped
    }

    /// Unresolved transfers.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits a transfer for reliable delivery; it will be injected as soon
    /// as the source buffer has space.
    pub fn submit(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
    ) -> TransferId {
        if let Some(tap) = self.trace_tap.as_deref_mut() {
            tap.record(&TapEvent {
                cycle: self.mesh.cycle(),
                src_dev: 0,
                src: src.index() as u32,
                dst_dev: 0,
                dst: dst.index() as u32,
                flits,
                class: class.trace_code(),
            });
        }
        let id = TransferId(self.transfers.len());
        self.transfers.push(Transfer {
            src,
            dst,
            flits,
            class,
            first_submit: self.mesh.cycle(),
            attempts: 0,
            deadline: u64::MAX,
            state: TransferOutcome::Pending,
        });
        self.pending.push_back(id.0);
        self.stats.submitted += 1;
        self.outstanding += 1;
        id
    }

    /// [`ReliableMesh::submit`] with the endpoints range-checked first — the
    /// entry point for fuzzed traffic, where an out-of-range node must be a
    /// typed error rather than a downstream panic.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] when `src` or `dst` is not a
    /// terminal of the wrapped mesh.
    pub fn submit_checked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: PacketClass,
    ) -> Result<TransferId, NocError> {
        let num_nodes = self.mesh.config().num_nodes() as u32;
        for node in [src, dst] {
            if node.index() as u32 >= num_nodes {
                return Err(NocError::NodeOutOfRange {
                    node: node.index() as u32,
                    num_nodes,
                });
            }
        }
        Ok(self.submit(src, dst, flits, class))
    }

    /// Attaches a workload record tap: every subsequent [`ReliableMesh::
    /// submit`] is appended to the trace. The tap observes but cannot
    /// influence the simulation (its I/O errors are stashed sticky), so a
    /// recorded run is byte-identical to an untapped one.
    pub fn attach_trace_tap(&mut self, tap: TraceTap) {
        self.trace_tap = Some(Box::new(tap));
    }

    /// The attached record tap, if any.
    pub fn trace_tap(&self) -> Option<&TraceTap> {
        self.trace_tap.as_deref()
    }

    /// Detaches and returns the record tap for finalization.
    pub fn take_trace_tap(&mut self) -> Option<TraceTap> {
        self.trace_tap.take().map(|b| *b)
    }

    /// Replays a recorded submission stream into this mesh: every event is
    /// re-submitted in order (first advancing the simulation to the event's
    /// recorded cycle on the event engine: step, then skip capped at that
    /// cycle), reproducing the recorded run bit for bit when the mesh was
    /// built from the trace header's configuration and plan.
    ///
    /// A truncated trace replays its complete prefix and reports the
    /// truncation point in [`ReplayOutcome::truncated`]; the caller decides
    /// whether that is a warning or an error.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Trace`] on a corrupt or unreadable stream;
    /// [`ReplayError::Event`] when a CRC-valid event does not fit this mesh
    /// (non-zero device, node out of range) — never a panic.
    pub fn replay_from<R: std::io::Read>(
        &mut self,
        reader: &mut TraceReader<R>,
    ) -> Result<ReplayOutcome, ReplayError> {
        let mut replayed = 0u64;
        loop {
            match reader.next_event() {
                Ok(Some(ev)) => {
                    if ev.src_dev != 0 || ev.dst_dev != 0 {
                        return Err(ReplayError::Event {
                            index: replayed,
                            reason: format!(
                                "mesh replay saw device ({}, {}) — a fabric trace?",
                                ev.src_dev, ev.dst_dev
                            ),
                        });
                    }
                    while self.mesh.cycle() < ev.cycle {
                        self.step();
                        self.skip_quiet(ev.cycle);
                    }
                    let class = PacketClass::from_trace_code(ev.class).ok_or_else(|| {
                        ReplayError::Event {
                            index: replayed,
                            reason: format!("unknown packet class {}", ev.class),
                        }
                    })?;
                    self.submit_checked(NodeId::new(ev.src), NodeId::new(ev.dst), ev.flits, class)
                        .map_err(|e| ReplayError::Event {
                            index: replayed,
                            reason: e.to_string(),
                        })?;
                    replayed += 1;
                }
                Ok(None) => {
                    return Ok(ReplayOutcome {
                        replayed,
                        truncated: None,
                    })
                }
                Err(TraceError::TruncatedTail { chunk, offset }) => {
                    return Ok(ReplayOutcome {
                        replayed,
                        truncated: Some((chunk, offset)),
                    })
                }
                Err(e) => return Err(ReplayError::Trace(e)),
            }
        }
    }

    /// Current state of a transfer.
    pub fn outcome(&self, id: TransferId) -> TransferOutcome {
        self.transfers[id.0].state
    }

    /// All transfer outcomes in submission order.
    pub fn outcomes(&self) -> Vec<TransferOutcome> {
        self.transfers.iter().map(|t| t.state).collect()
    }

    fn timeout_for(&self, attempts: u32) -> u64 {
        let exp = attempts.saturating_sub(1).min(20);
        self.cfg
            .base_timeout_cycles
            .saturating_mul(1u64 << exp)
            .min(self.cfg.max_timeout_cycles)
    }

    /// Offers every queued transfer to the mesh once, in FIFO order. The
    /// queue is rotated in place: each entry is popped from the front and
    /// the ones the source buffer refused are pushed back, so after one
    /// pass they sit in their original relative order.
    fn inject_pending(&mut self) {
        for _ in 0..self.pending.len() {
            let Some(idx) = self.pending.pop_front() else {
                break;
            };
            // A queued transfer may have been resolved (late duplicate
            // delivery) or re-queued twice; only genuinely pending ones go.
            if self.transfers[idx].state != TransferOutcome::Pending {
                continue;
            }
            let t = &self.transfers[idx];
            match self
                .mesh
                .try_inject_tracked(t.src, t.dst, t.flits, t.class, t.first_submit)
            {
                Some(pid) => {
                    self.by_packet.insert(pid, idx);
                    let deadline = self.mesh.cycle() + self.timeout_for(t.attempts + 1);
                    let t = &mut self.transfers[idx];
                    t.attempts += 1;
                    t.deadline = deadline;
                    t.state = TransferOutcome::InFlight;
                    if deadline < self.next_deadline {
                        self.next_deadline = deadline;
                    }
                }
                None => self.pending.push_back(idx),
            }
        }
    }

    /// Requeues transfer `idx` for another attempt, or resolves it lost when
    /// the retry budget is spent.
    fn retry_or_give_up(&mut self, idx: usize, now: u64) {
        let max_retries = self.cfg.max_retries;
        let t = &mut self.transfers[idx];
        if t.attempts <= max_retries {
            t.state = TransferOutcome::Pending;
            self.stats.retries += 1;
            let attempts = t.attempts;
            self.pending.push_back(idx);
            if let Some(rec) = self.mesh.flight_recorder_mut() {
                rec.note(
                    TraceEvent::new(now, SUBSYSTEM_NOC, "retry")
                        .with("transfer", idx)
                        .with("attempts", attempts),
                );
            }
        } else {
            t.state = TransferOutcome::Lost {
                reason: LossReason::RetriesExhausted,
            };
            self.stats.lost_retries_exhausted += 1;
            self.outstanding -= 1;
            self.last_activity = now;
        }
    }

    /// Advances the wrapped mesh one cycle and runs the protocol reactions.
    pub fn step(&mut self) {
        self.inject_pending();
        self.mesh.step();
        // Events drained below happened during the step, i.e. at cycle-1.
        let now = self.mesh.cycle().saturating_sub(1);

        for pkt in self.mesh.drain_ejected() {
            let corrupt = self.mesh.take_corrupted(pkt.id);
            let Some(idx) = self.by_packet.remove(&pkt.id) else {
                continue; // direct mesh traffic, not ours
            };
            if self.transfers[idx].state.is_resolved() {
                self.stats.duplicates_suppressed += 1;
                continue;
            }
            if corrupt {
                // The ejection-side CRC caught it: NACK and retransmit. A
                // transfer already back in the pending queue (timed out
                // while this copy was flying) needs no extra attempt.
                self.last_activity = now;
                if let Some(rec) = self.mesh.flight_recorder_mut() {
                    rec.note(TraceEvent::new(now, SUBSYSTEM_NOC, "nack").with("packet", pkt.id));
                }
                if self.transfers[idx].state == TransferOutcome::InFlight {
                    self.stats.corrupt_retries += 1;
                    self.retry_or_give_up(idx, now);
                }
                continue;
            }
            let t = &mut self.transfers[idx];
            let latency = now.saturating_sub(t.first_submit);
            t.state = TransferOutcome::Delivered { latency };
            self.stats.delivered += 1;
            self.stats.record_latency(latency);
            self.outstanding -= 1;
            self.last_activity = now;
        }

        for (pkt, reason) in self.mesh.drain_lost() {
            let Some(idx) = self.by_packet.remove(&pkt.id) else {
                continue;
            };
            if self.transfers[idx].state.is_resolved() {
                continue;
            }
            if reason == LossReason::Unroutable {
                self.last_activity = now;
                let (src, dst) = (self.transfers[idx].src, self.transfers[idx].dst);
                if self.mesh.routable(src, dst) {
                    // Only the in-flight copy was doomed — a link onset left
                    // it in a state the up*/down* discipline cannot route
                    // from. A fresh injection still has a legal path.
                    self.retry_or_give_up(idx, now);
                } else {
                    // No surviving path from the source — retrying cannot
                    // help.
                    self.transfers[idx].state = TransferOutcome::Lost { reason };
                    self.stats.lost_unroutable += 1;
                    self.outstanding -= 1;
                }
            }
            // Silent drops (flaky / transient): the sender has no way to
            // know yet; the ACK timeout below discovers and retransmits.
        }

        self.check_timeouts(now);
        self.check_watchdog(now);
    }

    fn check_timeouts(&mut self, now: u64) {
        if now < self.next_deadline {
            return;
        }
        let mut next = u64::MAX;
        for idx in 0..self.transfers.len() {
            let t = &self.transfers[idx];
            if t.state != TransferOutcome::InFlight {
                continue;
            }
            if t.deadline <= now {
                self.retry_or_give_up(idx, now);
            } else if t.deadline < next {
                next = t.deadline;
            }
        }
        self.next_deadline = next;
    }

    fn check_watchdog(&mut self, now: u64) {
        if self.outstanding == 0
            || now.saturating_sub(self.last_activity) <= self.cfg.watchdog_cycles
        {
            return;
        }
        // The network has made no protocol progress for a full watchdog
        // window: declare it stuck and report, rather than spinning forever.
        self.stats.watchdog_trips += 1;
        self.tripped = true;
        let mut written_off = 0u64;
        for t in &mut self.transfers {
            if !t.state.is_resolved() {
                t.state = TransferOutcome::Lost {
                    reason: LossReason::Watchdog,
                };
                written_off += 1;
            }
        }
        self.stats.lost_watchdog += written_off;
        self.pending.clear();
        self.outstanding = 0;
        self.last_activity = now;
        self.mesh.telemetry().emit_with(|| {
            TraceEvent::new(now, SUBSYSTEM_NOC, "watchdog_trip").with("written_off", written_off)
        });
        if let Some(rec) = self.mesh.flight_recorder_mut() {
            rec.note(
                TraceEvent::new(now, SUBSYSTEM_NOC, "watchdog_trip")
                    .with("written_off", written_off),
            );
        }
    }

    /// The earliest future cycle at which the protocol — not just the mesh —
    /// could act: the mesh's own quiet bound capped by the next ACK-timeout
    /// deadline and the watchdog boundary. While the mesh is quiet and
    /// nothing is pending injection, every protocol step strictly before
    /// this bound is a no-op (no ejections, no losses, `check_timeouts`
    /// and `check_watchdog` both return early). Composite simulations (the
    /// fabric) fold this into a global wake bound before skipping all their
    /// dies in lockstep.
    pub fn quiet_bound(&self) -> u64 {
        let now = self.mesh.cycle();
        if !self.pending.is_empty() {
            return now; // a retry wants injecting this very cycle
        }
        let mut bound = self.mesh.quiet_until().min(self.next_deadline);
        if self.outstanding > 0 {
            // First cycle where `now - last_activity > watchdog_cycles`.
            bound = bound.min(
                self.last_activity
                    .saturating_add(self.cfg.watchdog_cycles)
                    .saturating_add(1),
            );
        }
        bound
    }

    /// Fast-forwards across a protocol-quiet span, to at most `limit`.
    /// Composite layers (self-healing, fabric) call this with their own
    /// wake bounds folded into `limit`. No-op under the cycle-exact engine
    /// or whenever the last step was not provably quiet.
    pub fn skip_quiet(&mut self, limit: u64) {
        self.mesh.skip_idle_to(self.quiet_bound().min(limit));
    }

    /// Steps until every submitted transfer resolves or `max_cycles` elapse.
    /// Returns `true` when fully quiescent. The watchdog guarantees eventual
    /// resolution even on a deadlocked mesh, so `false` means `max_cycles`
    /// was smaller than the watchdog window.
    ///
    /// On the event engine, idle spans (ACK-timeout waits, watchdog
    /// countdowns) are skipped; with it disabled
    /// ([`crate::set_event_skip_enabled`]) every cycle is stepped. The two
    /// are bit-identical.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        let start = self.mesh.cycle();
        let end = start.saturating_add(max_cycles);
        while self.outstanding > 0 && self.mesh.cycle() < end {
            self.step();
            if self.outstanding > 0 {
                self.skip_quiet(end);
            }
        }
        self.outstanding == 0
    }

    /// Exports mesh metrics plus the retry protocol's own counters.
    pub fn export_metrics(&self, registry: &mut MetricRegistry) {
        self.mesh.export_metrics(registry);
        registry.counter_add("noc.retry.submitted", self.stats.submitted);
        registry.counter_add("noc.retry.delivered", self.stats.delivered);
        registry.counter_add("noc.retry.retries", self.stats.retries);
        registry.counter_add(
            "noc.retry.duplicates_suppressed",
            self.stats.duplicates_suppressed,
        );
        registry.counter_add("noc.retry.corrupt_retries", self.stats.corrupt_retries);
        registry.counter_add("noc.retry.lost.unroutable", self.stats.lost_unroutable);
        registry.counter_add(
            "noc.retry.lost.retries_exhausted",
            self.stats.lost_retries_exhausted,
        );
        registry.counter_add("noc.retry.lost.watchdog", self.stats.lost_watchdog);
        registry.counter_add("noc.retry.watchdog_trips", self.stats.watchdog_trips);
        registry.gauge_set("noc.retry.latency.mean", self.stats.mean_latency());
        registry.gauge_set("noc.retry.latency.p99", self.stats.latency_quantile(0.99));
        registry.gauge_set("noc.retry.latency.max", self.stats.latency_max as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::mesh::RouteOrder;
    use gnoc_faults::{Direction, LinkFault, LinkFaultKind, TransientFaults};

    fn mesh_cfg() -> MeshConfig {
        MeshConfig {
            width: 3,
            height: 3,
            buffer_packets: 4,
            arbiter: ArbiterKind::RoundRobin,
            route_order: RouteOrder::Xy,
            vcs: 1,
        }
    }

    fn dead_both_ways(router: u32, dir: Direction, width: u32, height: u32) -> [LinkFault; 2] {
        let nb = dir.neighbour(router, width, height).expect("in range");
        [
            LinkFault {
                router,
                dir,
                kind: LinkFaultKind::Dead,
                onset: 0,
            },
            LinkFault {
                router: nb,
                dir: dir.opposite(),
                kind: LinkFaultKind::Dead,
                onset: 0,
            },
        ]
    }

    #[test]
    fn healthy_mesh_delivers_everything_without_retries() {
        let mut rm = ReliableMesh::new(Mesh::new(mesh_cfg()), RetryConfig::default());
        let mut ids = Vec::new();
        for src in 0..9u32 {
            ids.push(rm.submit(
                NodeId::new(src),
                NodeId::new(8 - src),
                1,
                PacketClass::Request,
            ));
        }
        assert!(rm.run_until_quiescent(10_000));
        for id in ids {
            assert!(matches!(rm.outcome(id), TransferOutcome::Delivered { .. }));
        }
        assert_eq!(rm.stats().delivered, 9);
        assert_eq!(rm.stats().retries, 0);
        assert_eq!(rm.stats().lost_total(), 0);
        assert!(!rm.watchdog_tripped());
    }

    #[test]
    fn dead_link_traffic_reroutes_and_delivers() {
        // Kill the 0↔1 edge; XY routing for 0→2 would use it, so delivery
        // proves the BFS reroute worked.
        let mut plan = FaultPlan::none();
        plan.links = dead_both_ways(0, Direction::East, 3, 3).to_vec();
        let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, RetryConfig::default()).unwrap();
        let id = rm.submit(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        assert!(rm.run_until_quiescent(10_000));
        assert!(matches!(rm.outcome(id), TransferOutcome::Delivered { .. }));
        assert!(rm.mesh().stats().reroutes >= 1);
        assert_eq!(rm.stats().lost_total(), 0);
    }

    #[test]
    fn always_dropping_link_exhausts_retries() {
        // A fully flaky link on the only XY path: every attempt dies, the
        // retry budget drains, and the transfer resolves as lost — not hung.
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.links = vec![LinkFault {
            router: 0,
            dir: Direction::East,
            kind: LinkFaultKind::Flaky { drop_prob: 1.0 },
            onset: 0,
        }];
        let cfg = RetryConfig {
            base_timeout_cycles: 16,
            max_timeout_cycles: 64,
            ..RetryConfig::default()
        };
        let mut rm = ReliableMesh::with_faults(mesh_cfg(), &plan, cfg).unwrap();
        let id = rm.submit(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        assert!(rm.run_until_quiescent(100_000));
        assert_eq!(
            rm.outcome(id),
            TransferOutcome::Lost {
                reason: LossReason::RetriesExhausted
            }
        );
        assert_eq!(rm.stats().retries, u64::from(cfg.max_retries));
        assert_eq!(
            rm.mesh().stats().dropped_flaky,
            u64::from(cfg.max_retries) + 1
        );
    }

    #[test]
    fn watchdog_reports_stuck_traffic_instead_of_hanging() {
        let mut rm = ReliableMesh::new(
            Mesh::new(mesh_cfg()),
            RetryConfig {
                max_retries: u32::MAX, // never give up via retries
                base_timeout_cycles: 8,
                max_timeout_cycles: 8,
                watchdog_cycles: 400,
            },
        );
        // A destination that never ejects models a hung endpoint.
        rm.mesh_mut().set_ejection_enabled(NodeId::new(2), false);
        let id = rm.submit(NodeId::new(0), NodeId::new(2), 1, PacketClass::Request);
        assert!(
            rm.run_until_quiescent(50_000),
            "watchdog must unstick the run"
        );
        assert_eq!(
            rm.outcome(id),
            TransferOutcome::Lost {
                reason: LossReason::Watchdog
            }
        );
        assert!(rm.watchdog_tripped());
        assert_eq!(rm.stats().watchdog_trips, 1);
        assert_eq!(rm.stats().lost_watchdog, 1);
    }

    #[test]
    fn corruption_is_nacked_and_retried_to_success() {
        let mut plan = FaultPlan::none();
        plan.seed = 21;
        plan.transient = TransientFaults {
            drop_prob: 0.0,
            corrupt_prob: 0.4,
            onset: 0,
        };
        let mut rm = ReliableMesh::with_faults(
            mesh_cfg(),
            &plan,
            RetryConfig {
                max_retries: 32,
                ..RetryConfig::default()
            },
        )
        .unwrap();
        let mut ids = Vec::new();
        for src in 0..9u32 {
            ids.push(rm.submit(NodeId::new(src), NodeId::new(4), 1, PacketClass::Request));
        }
        assert!(rm.run_until_quiescent(200_000));
        for id in ids {
            assert!(matches!(rm.outcome(id), TransferOutcome::Delivered { .. }));
        }
        assert_eq!(rm.stats().delivered, 9);
        assert!(rm.stats().corrupt_retries > 0, "0.4 corruption over 9 hops");
        assert_eq!(rm.stats().corrupt_retries, rm.stats().retries);
    }

    #[test]
    fn aggressive_timeouts_duplicate_but_deliver_exactly_once() {
        // Timeouts far below the congested round trip force retransmissions
        // of packets that are still alive; duplicate suppression must keep
        // the delivered count exact.
        let cfg = RetryConfig {
            max_retries: 8,
            base_timeout_cycles: 2,
            max_timeout_cycles: 4,
            ..RetryConfig::default()
        };
        let mut rm = ReliableMesh::new(Mesh::new(mesh_cfg()), cfg);
        let n = 20u32;
        for i in 0..n {
            rm.submit(
                NodeId::new(i % 9),
                NodeId::new((i * 5 + 3) % 9),
                2,
                PacketClass::Request,
            );
        }
        assert!(rm.run_until_quiescent(100_000));
        let s = rm.stats();
        assert_eq!(s.delivered + s.lost_total(), u64::from(n));
        assert!(s.duplicates_suppressed > 0, "tiny timeouts must duplicate");
        // Exactly-once: every transfer resolved exactly one way, and the
        // mesh delivered at least one packet per delivered transfer.
        assert!(rm.mesh().stats().delivered_total >= s.delivered);
    }

    #[test]
    fn same_plan_and_seed_is_bit_identical() {
        let mut plan = FaultPlan::none();
        plan.seed = 99;
        plan.links = vec![LinkFault {
            router: 3,
            dir: Direction::East,
            kind: LinkFaultKind::Flaky { drop_prob: 0.3 },
            onset: 10,
        }];
        plan.transient = TransientFaults {
            drop_prob: 0.01,
            corrupt_prob: 0.01,
            onset: 0,
        };
        let run = |plan: &FaultPlan| {
            let mut rm =
                ReliableMesh::with_faults(mesh_cfg(), plan, RetryConfig::default()).unwrap();
            for i in 0..30u32 {
                rm.submit(
                    NodeId::new(i % 9),
                    NodeId::new((i * 7 + 1) % 9),
                    1,
                    PacketClass::Request,
                );
            }
            rm.run_until_quiescent(100_000);
            (rm.stats().clone(), rm.outcomes())
        };
        assert_eq!(run(&plan), run(&plan));
    }
}
