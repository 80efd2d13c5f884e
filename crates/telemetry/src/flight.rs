//! Causal per-message flight recorder.
//!
//! Where [`MetricRegistry`](crate::MetricRegistry) aggregates and
//! [`TraceEvent`](crate::TraceEvent) samples, the flight recorder explains:
//! it follows every message through its lifecycle — inject → per-hop
//! {queue wait, arbitration loss, backpressure stall, serialization delay}
//! → deliver/lost — and attributes **every waiting cycle** to exactly one
//! cause. The resulting [`MessageRecord`]s satisfy a hard identity for
//! delivered messages:
//!
//! ```text
//! end − birth = source_wait + Σ_hops (serialization + contention
//!               + backpressure + router_stall + queued) + transit
//! ```
//!
//! where `transit` is one cycle per inter-router link crossed. The identity
//! is what makes the stall-attribution tables in `gnoc-analysis` sum to the
//! measured end-to-end latency instead of being a sampled approximation.
//!
//! All timestamps are **virtual cycles** — never wall clock — so recordings
//! are bit-identical across runs and worker counts. The recorder is driven
//! by the cycle-level simulator via the `on_*`/`charge` hooks; it performs
//! no simulation of its own and (crucially) has no way to influence the
//! simulation, so an instrumented run cannot diverge from a bare one.

use crate::trace::{TraceEvent, TraceSink};
use crate::{IdMap, SUBSYSTEM_NOC};
use std::fmt::Write as _;

/// Port-index → name mapping: `gnoc-noc`'s mesh port layout (local, north,
/// east, south, west) plus the inter-device fabric port (`gnoc-fabric`
/// records fabric-link crossings with port 5 on both ends).
pub const PORT_NAMES: [&str; 6] = ["local", "north", "east", "south", "west", "fabric"];

/// The port index fabric-hop records use for both `in_port` and `out_port`.
pub const FABRIC_PORT: u8 = 5;

fn port_name(port: u8) -> &'static str {
    PORT_NAMES.get(port as usize).copied().unwrap_or("port?")
}

/// Why a queue-head message failed to win its output port this cycle.
/// Exactly one kind is charged per waiting head per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The output port is still transmitting an earlier packet's flits.
    Serialization,
    /// The message was an eligible candidate but lost arbitration.
    Contention,
    /// No downstream buffer credit (or the ejection port is disabled).
    Backpressure,
    /// The router is stall-faulted, the out-link is dead, or no current
    /// route exists — the message cannot make progress regardless of
    /// arbitration.
    RouterStall,
    /// Cycles spent in the inter-device fabric: waiting for a fabric link,
    /// crossing it (serialization plus propagation beyond the one counted
    /// transit cycle), and residency in the egress/ingress die legs of a
    /// cross-device transfer. Never charged by a single-die mesh.
    FabricHop,
}

/// One hop of a message's journey: residency in one input queue, from
/// arrival to the grant that moved it on (or the drop that ended it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Router holding the queue.
    pub router: u32,
    /// Input port the message sat in ([`PORT_NAMES`] indexing; 0 = local
    /// means this hop is the injection queue).
    pub in_port: u8,
    /// Output port the grant used; meaningless until `grant` is set.
    pub out_port: u8,
    /// Cycle the message became visible to this router's arbitration.
    pub arrive: u64,
    /// Cycle the message won its output port; `None` if it was dropped
    /// while still queued here.
    pub grant: Option<u64>,
    /// Waiting cycles where the head-of-queue message found the output
    /// port busy serializing earlier flits.
    pub serialization: u64,
    /// Waiting cycles lost to arbitration against competing queue heads.
    pub contention: u64,
    /// Waiting cycles with no downstream credit / disabled ejection.
    pub backpressure: u64,
    /// Waiting cycles with a stalled router, dead out-link, or no route.
    pub router_stall: u64,
    /// Waiting cycles attributed to the inter-device fabric (see
    /// [`StallKind::FabricHop`]); always zero for single-die hops.
    pub fabric_hop: u64,
    /// Waiting cycles spent behind other messages in the same queue
    /// (derived: total wait minus the head-of-queue charges).
    pub queued: u64,
}

impl HopRecord {
    fn open(router: u32, in_port: u8, arrive: u64) -> Self {
        HopRecord {
            router,
            in_port,
            out_port: u8::MAX,
            arrive,
            grant: None,
            serialization: 0,
            contention: 0,
            backpressure: 0,
            router_stall: 0,
            fabric_hop: 0,
            queued: 0,
        }
    }

    /// Cycles from arrival to grant (0 when granted immediately; falls back
    /// to the head-of-queue charges for a hop that never got a grant).
    pub fn wait(&self) -> u64 {
        match self.grant {
            Some(g) => g - self.arrive,
            None => self.head_charges() + self.queued,
        }
    }

    /// Sum of the explicitly-attributed head-of-queue stall cycles.
    pub fn head_charges(&self) -> u64 {
        self.serialization
            + self.contention
            + self.backpressure
            + self.router_stall
            + self.fabric_hop
    }
}

/// Per-cause stall totals; the unit is waiting cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// See [`HopRecord::serialization`].
    pub serialization: u64,
    /// See [`HopRecord::contention`].
    pub contention: u64,
    /// See [`HopRecord::backpressure`].
    pub backpressure: u64,
    /// See [`HopRecord::router_stall`].
    pub router_stall: u64,
    /// See [`HopRecord::fabric_hop`].
    pub fabric_hop: u64,
    /// See [`HopRecord::queued`].
    pub queued: u64,
}

impl StallBreakdown {
    /// Total attributed waiting cycles.
    pub fn total(&self) -> u64 {
        self.serialization
            + self.contention
            + self.backpressure
            + self.router_stall
            + self.fabric_hop
            + self.queued
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, other: &StallBreakdown) {
        self.serialization += other.serialization;
        self.contention += other.contention;
        self.backpressure += other.backpressure;
        self.router_stall += other.router_stall;
        self.fabric_hop += other.fabric_hop;
        self.queued += other.queued;
    }
}

/// The full recorded lifecycle of one message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRecord {
    /// Mesh packet id.
    pub id: u64,
    /// Source terminal.
    pub src: u32,
    /// Destination terminal.
    pub dst: u32,
    /// Packet size in flits.
    pub flits: u32,
    /// Generation stamp (retransmissions keep the original transfer's
    /// birth, so their source wait absorbs timeout/backoff time).
    pub birth: u64,
    /// Cycle the packet entered the source's injection queue.
    pub inject: u64,
    /// Cycle of delivery (final grant) or loss.
    pub end: u64,
    /// Whether the message reached its destination.
    pub delivered: bool,
    /// Loss reason (`Debug` form of the simulator's `LossReason`) when not
    /// delivered.
    pub loss: Option<String>,
    /// Hop-by-hop residency records, injection queue first.
    pub hops: Vec<HopRecord>,
}

impl MessageRecord {
    /// End-to-end latency in cycles (birth → delivery/loss).
    pub fn latency(&self) -> u64 {
        self.end - self.birth
    }

    /// Cycles between generation and entering the network (source queueing
    /// plus, for retransmissions, timeout and backoff).
    pub fn source_wait(&self) -> u64 {
        self.inject - self.birth
    }

    /// Pure link-crossing cycles: one per inter-router hop.
    pub fn transit(&self) -> u64 {
        (self.hops.len() as u64).saturating_sub(1)
    }

    /// Summed per-cause stall cycles over all hops.
    pub fn stalls(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for h in &self.hops {
            b.add(&StallBreakdown {
                serialization: h.serialization,
                contention: h.contention,
                backpressure: h.backpressure,
                router_stall: h.router_stall,
                fabric_hop: h.fabric_hop,
                queued: h.queued,
            });
        }
        b
    }

    /// The decomposition identity: for delivered messages,
    /// `latency() == source_wait() + stalls().total() + transit()` holds
    /// exactly. Exposed so tests and the analysis layer can assert it.
    pub fn components_sum(&self) -> u64 {
        self.source_wait() + self.stalls().total() + self.transit()
    }
}

/// Records every message's causal lifecycle on a cycle-level mesh.
///
/// Attach one via `Mesh::attach_flight_recorder`, run the simulation, then
/// take it back out and feed it to `gnoc-analysis` (stall attribution,
/// critical paths) or export it directly:
/// [`FlightRecorder::stream_to`] for the repo's JSONL schema,
/// [`FlightRecorder::chrome_trace`] for a Perfetto-loadable trace.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// In-flight messages (never iterated — determinism is unaffected by
    /// hash order).
    active: IdMap<MessageRecord>,
    /// Finished messages in completion order (a deterministic order: the
    /// simulator's move list is deterministic).
    done: Vec<MessageRecord>,
    /// Out-of-band annotations (retries, corruption, breaker transitions,
    /// oracle violations) stamped in virtual cycles.
    notes: Vec<TraceEvent>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A message entered the source injection queue.
    pub fn on_inject(&mut self, id: u64, src: u32, dst: u32, flits: u32, birth: u64, cycle: u64) {
        self.active.insert(
            id,
            MessageRecord {
                id,
                src,
                dst,
                flits,
                birth,
                inject: cycle,
                end: cycle,
                delivered: false,
                loss: None,
                hops: vec![HopRecord::open(src, 0, cycle)],
            },
        );
    }

    /// Charges one waiting cycle of `kind` to the message's current hop.
    /// Called once per cycle for each queue head that failed to move.
    pub fn charge(&mut self, id: u64, kind: StallKind) {
        self.charge_n(id, kind, 1);
    }

    /// Charges `n` waiting cycles of `kind` in one call — the event-driven
    /// engine's batched equivalent of `n` per-cycle [`FlightRecorder::charge`]
    /// calls across a span where the stall cause is provably constant. Hop
    /// charges are plain counters, so the emitted records are byte-identical
    /// to charging cycle by cycle.
    pub fn charge_n(&mut self, id: u64, kind: StallKind, n: u64) {
        let Some(m) = self.active.get_mut(&id) else {
            return; // injected before the recorder was attached
        };
        let Some(h) = m.hops.last_mut() else { return };
        match kind {
            StallKind::Serialization => h.serialization += n,
            StallKind::Contention => h.contention += n,
            StallKind::Backpressure => h.backpressure += n,
            StallKind::RouterStall => h.router_stall += n,
            StallKind::FabricHop => h.fabric_hop += n,
        }
    }

    /// The message won `out_port` at `cycle`, closing its current hop. The
    /// hop's `queued` share is derived here: total wait minus the cycles
    /// explicitly charged while it was the queue head.
    pub fn on_grant(&mut self, id: u64, out_port: u8, cycle: u64) {
        let Some(m) = self.active.get_mut(&id) else {
            return;
        };
        let Some(h) = m.hops.last_mut() else { return };
        h.out_port = out_port;
        h.grant = Some(cycle);
        let wait = cycle - h.arrive;
        let charged = h.head_charges();
        debug_assert!(
            charged <= wait,
            "over-charged hop: {charged} stall cycles in a {wait}-cycle wait"
        );
        h.queued = wait.saturating_sub(charged);
    }

    /// The message was forwarded into `router`'s `in_port` queue and becomes
    /// visible to that router's arbitration at `arrive`.
    pub fn on_enqueue(&mut self, id: u64, router: u32, in_port: u8, arrive: u64) {
        let Some(m) = self.active.get_mut(&id) else {
            return;
        };
        m.hops.push(HopRecord::open(router, in_port, arrive));
    }

    /// The message ejected at its destination at `cycle`.
    pub fn on_deliver(&mut self, id: u64, cycle: u64) {
        let Some(mut m) = self.active.remove(&id) else {
            return;
        };
        m.end = cycle;
        m.delivered = true;
        self.done.push(m);
    }

    /// The message was dropped at `cycle` for `reason`.
    pub fn on_lost(&mut self, id: u64, cycle: u64, reason: &str) {
        let Some(mut m) = self.active.remove(&id) else {
            return;
        };
        m.end = cycle;
        m.delivered = false;
        m.loss = Some(reason.to_string());
        self.done.push(m);
    }

    /// Appends an out-of-band annotation (protocol retry, breaker
    /// transition, oracle violation, …) to the recording's timeline.
    pub fn note(&mut self, event: TraceEvent) {
        self.notes.push(event);
    }

    /// Finished messages in completion order.
    pub fn finished(&self) -> &[MessageRecord] {
        &self.done
    }

    /// Timeline annotations recorded via [`FlightRecorder::note`].
    pub fn notes(&self) -> &[TraceEvent] {
        &self.notes
    }

    /// Messages still in flight (nonzero only when the run was cut short).
    pub fn open_count(&self) -> usize {
        self.active.len()
    }

    /// Streams the recording through `sink` in the repo's JSONL schema:
    /// `msg_inject` / `msg_hop` / `msg_deliver` / `msg_lost` events per
    /// finished message (completion order), then the annotations.
    pub fn stream_to(&self, sink: &mut dyn TraceSink) {
        for m in &self.done {
            sink.emit(
                &TraceEvent::new(m.inject, SUBSYSTEM_NOC, "msg_inject")
                    .with("id", m.id)
                    .with("src", u64::from(m.src))
                    .with("dst", u64::from(m.dst))
                    .with("flits", u64::from(m.flits))
                    .with("birth", m.birth),
            );
            for h in &m.hops {
                let mut e = TraceEvent::new(h.grant.unwrap_or(m.end), SUBSYSTEM_NOC, "msg_hop")
                    .with("id", m.id)
                    .with("router", u64::from(h.router))
                    .with("in_port", port_name(h.in_port))
                    .with("arrive", h.arrive)
                    .with("serialization", h.serialization)
                    .with("contention", h.contention)
                    .with("backpressure", h.backpressure)
                    .with("router_stall", h.router_stall)
                    .with("fabric_hop", h.fabric_hop)
                    .with("queued", h.queued);
                if let Some(g) = h.grant {
                    e = e.with("grant", g).with("out_port", port_name(h.out_port));
                }
                sink.emit(&e);
            }
            if m.delivered {
                sink.emit(
                    &TraceEvent::new(m.end, SUBSYSTEM_NOC, "msg_deliver")
                        .with("id", m.id)
                        .with("latency", m.latency()),
                );
            } else {
                sink.emit(
                    &TraceEvent::new(m.end, SUBSYSTEM_NOC, "msg_lost")
                        .with("id", m.id)
                        .with("reason", m.loss.as_deref().unwrap_or("unknown")),
                );
            }
        }
        for n in &self.notes {
            sink.emit(n);
        }
        sink.flush();
    }

    /// Renders the recording as Chrome trace-event JSON (an array of event
    /// objects), loadable in Perfetto / `chrome://tracing`. One track per
    /// router plus a `protocol` track for annotations; one complete (`X`)
    /// slice per hop carrying the stall breakdown in `args`; instant events
    /// for inject / deliver / loss. Timestamps are virtual cycles, reported
    /// as if one cycle were one microsecond.
    pub fn chrome_trace(&self) -> String {
        let mut tids: Vec<u32> = self
            .done
            .iter()
            .flat_map(|m| m.hops.iter().map(|h| h.router))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        let protocol_tid = tids.last().map_or(0, |t| t + 1);

        let mut events: Vec<String> = Vec::new();
        for &tid in &tids {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"router {tid}\"}}}}"
            ));
        }
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{protocol_tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"protocol\"}}}}"
        ));

        for m in &self.done {
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":\"inject msg{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                 \"tid\":{},\"s\":\"t\",\"args\":{{\"src\":{},\"dst\":{},\"flits\":{},\
                 \"birth\":{}}}}}",
                m.id, m.inject, m.src, m.src, m.dst, m.flits, m.birth
            );
            events.push(e);
            for h in &m.hops {
                let grant = h.grant.unwrap_or(m.end);
                let mut e = String::new();
                let _ = write!(
                    e,
                    "{{\"name\":\"msg{} {}\\u2192{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{},\"args\":{{\"msg\":{},\"in\":\"{}\",\
                     \"serialization\":{},\"contention\":{},\"backpressure\":{},\
                     \"router_stall\":{},\"fabric_hop\":{},\"queued\":{}}}}}",
                    m.id,
                    port_name(h.in_port),
                    if h.grant.is_some() {
                        port_name(h.out_port)
                    } else {
                        "lost"
                    },
                    h.arrive,
                    grant - h.arrive + 1,
                    h.router,
                    m.id,
                    port_name(h.in_port),
                    h.serialization,
                    h.contention,
                    h.backpressure,
                    h.router_stall,
                    h.fabric_hop,
                    h.queued
                );
                events.push(e);
            }
            if m.delivered {
                events.push(format!(
                    "{{\"name\":\"deliver msg{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                     \"tid\":{},\"s\":\"t\",\"args\":{{\"latency\":{}}}}}",
                    m.id,
                    m.end,
                    m.dst,
                    m.latency()
                ));
            } else {
                events.push(format!(
                    "{{\"name\":\"lost msg{} ({})\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                     \"tid\":{},\"s\":\"t\",\"args\":{{}}}}",
                    m.id,
                    m.loss.as_deref().unwrap_or("unknown"),
                    m.end,
                    m.hops.last().map_or(0, |h| h.router)
                ));
            }
        }
        for n in &self.notes {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\
                 \"s\":\"t\",\"args\":{{}}}}",
                n.event, n.cycle, protocol_tid
            ));
        }
        let mut out = String::from("[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;

    fn record_one(rec: &mut FlightRecorder) {
        rec.on_inject(7, 0, 2, 1, 10, 12); // waited 2 cycles in the source
        rec.charge(7, StallKind::Serialization);
        rec.charge(7, StallKind::Contention);
        rec.on_grant(7, 2, 15); // wait 3: ser 1 + cont 1 + queued 1
        rec.on_enqueue(7, 1, 4, 16);
        rec.on_grant(7, 2, 16); // immediate grant, wait 0
        rec.on_enqueue(7, 2, 4, 17);
        rec.charge(7, StallKind::Backpressure);
        rec.on_grant(7, 0, 18); // wait 1: bp 1
        rec.on_deliver(7, 18);
    }

    #[test]
    fn components_sum_to_latency() {
        let mut rec = FlightRecorder::new();
        record_one(&mut rec);
        let m = &rec.finished()[0];
        assert!(m.delivered);
        assert_eq!(m.latency(), 8); // birth 10 → deliver 18
        assert_eq!(m.source_wait(), 2);
        assert_eq!(m.transit(), 2);
        let s = m.stalls();
        assert_eq!(s.serialization, 1);
        assert_eq!(s.contention, 1);
        assert_eq!(s.backpressure, 1);
        assert_eq!(s.queued, 1);
        assert_eq!(m.components_sum(), m.latency());
    }

    #[test]
    fn lost_message_keeps_open_hop_without_grant() {
        let mut rec = FlightRecorder::new();
        rec.on_inject(3, 0, 8, 2, 0, 0);
        rec.charge(3, StallKind::RouterStall);
        rec.on_lost(3, 4, "DeadLink");
        let m = &rec.finished()[0];
        assert!(!m.delivered);
        assert_eq!(m.loss.as_deref(), Some("DeadLink"));
        assert_eq!(m.hops[0].grant, None);
        assert_eq!(m.stalls().router_stall, 1);
    }

    #[test]
    fn jsonl_stream_has_lifecycle_events_in_order() {
        let mut rec = FlightRecorder::new();
        record_one(&mut rec);
        rec.note(TraceEvent::new(20, SUBSYSTEM_NOC, "retry").with("transfer", 0u64));
        let sink = MemorySink::new();
        let mut boxed: Box<dyn TraceSink> = Box::new(sink.clone());
        rec.stream_to(boxed.as_mut());
        let events = sink.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "msg_inject",
                "msg_hop",
                "msg_hop",
                "msg_hop",
                "msg_deliver",
                "retry"
            ]
        );
        assert_eq!(events[4].field("latency"), Some(&crate::FieldValue::U64(8)));
    }

    #[test]
    fn chrome_trace_is_valid_json_array() {
        let mut rec = FlightRecorder::new();
        record_one(&mut rec);
        let json = rec.chrome_trace();
        let v: serde::Value = serde_json::from_str(&json).expect("chrome trace parses");
        let serde::Value::Array(events) = v else {
            panic!("chrome trace must be a JSON array");
        };
        // 2 router metadata + protocol metadata + inject + 3 hops + deliver.
        assert!(events.len() >= 7, "got {} events", events.len());
        assert!(json.contains("\"ph\":\"X\""), "complete slices present");
    }
}
