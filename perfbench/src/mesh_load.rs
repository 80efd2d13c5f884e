//! `mesh_load`: the cycle-level mesh at saturation.
//!
//! The paper's 6×6 mesh with 2 virtual channels. The bottom row (nodes
//! 0–5) are memory controllers; the 30 compute nodes draw 1-flit requests
//! from a seeded open-loop many-to-few generator at 0.25 packets per cycle
//! each — 7.5 per cycle offered against 6 per cycle of MC ejection, the
//! Fig. 23 regime. Every delivered request is answered with a 4-flit reply
//! on the reply VC; an MC stops ejecting while its reply queue is full, so
//! the reply interface back-pressures the request network (Fig. 21).
//!
//! One op is 1,024 cycles of `try_inject` → `step` → `drain_ejected`. Every
//! cycle is busy, so the event core's skip never fires, and no observer is
//! attached: the op is the mesh's arbitrate/route/forward cost alone.

use crate::gen::SplitMix;
use crate::measure::{Fnv, Tracer};
use crate::{Exact, Step, Summary, Workload};
use gnoc_core::noc::{ArbiterKind, Mesh, MeshConfig, NodeId, PacketClass};
use std::collections::VecDeque;
use std::time::Instant;

const CYCLES_PER_OP: u64 = 1024;
/// Cycles run during set-up so the timed ops start saturated.
const WARMUP_CYCLES: u64 = 4096;
const MCS: usize = 6;
const NODES: usize = 36;
/// Offered requests per compute node per cycle.
const OFFERED: f64 = 0.25;
/// Source-queue bound: a full queue refuses new requests, which keeps the
/// open-loop backlog finite over a long run.
const BACKLOG_CAP: usize = 8;
/// Replies an MC holds before it stops ejecting requests.
const REPLY_CAP: usize = 4;
const REPLY_FLITS: u32 = 4;

/// The saturated mesh and its traffic state.
pub struct MeshLoad {
    mesh: Mesh,
    rng: SplitMix,
    backlog: Vec<VecDeque<NodeId>>,
    replies: Vec<VecDeque<NodeId>>,
    attempted: u64,
    accepted: u64,
    flits_delivered: u64,
    cycles: u64,
    /// Packets in the mesh when the stats were last reset.
    carried: u64,
    digest: Fnv,
    exact: Vec<Exact>,
}

impl MeshLoad {
    /// One simulated cycle. With tracing on, each phase is timed as one
    /// interval (the cycle's injections form one batch of calls).
    fn cycle(&mut self, acc: &mut PhaseTimes, traced: bool) {
        for src in MCS..NODES {
            if self.rng.unit() < OFFERED && self.backlog[src].len() < BACKLOG_CAP {
                let mc = NodeId::new(self.rng.below(MCS as u64) as u32);
                self.backlog[src].push_back(mc);
            }
        }
        for mc in 0..MCS {
            self.mesh
                .set_ejection_enabled(NodeId::new(mc as u32), self.replies[mc].len() < REPLY_CAP);
        }

        let t0 = traced.then(Instant::now);
        let mut calls = 0u32;
        for src in MCS..NODES {
            if let Some(&dst) = self.backlog[src].front() {
                calls += 1;
                if self
                    .mesh
                    .try_inject(NodeId::new(src as u32), dst, 1, PacketClass::Request)
                {
                    self.backlog[src].pop_front();
                    self.accepted += 1;
                }
            }
        }
        for mc in 0..MCS {
            if let Some(&requester) = self.replies[mc].front() {
                calls += 1;
                if self.mesh.try_inject(
                    NodeId::new(mc as u32),
                    requester,
                    REPLY_FLITS,
                    PacketClass::Reply,
                ) {
                    self.replies[mc].pop_front();
                    self.accepted += 1;
                }
            }
        }
        self.attempted += u64::from(calls);
        if let Some(t0) = t0 {
            acc.inject_ns += t0.elapsed().as_nanos() as u64;
            acc.inject_calls += calls;
        }

        let t1 = traced.then(Instant::now);
        self.mesh.step();
        if let Some(t1) = t1 {
            acc.step_ns += t1.elapsed().as_nanos() as u64;
        }

        let t2 = traced.then(Instant::now);
        let ejected = self.mesh.drain_ejected();
        if let Some(t2) = t2 {
            acc.eject_ns += t2.elapsed().as_nanos() as u64;
        }
        for p in ejected {
            self.flits_delivered += u64::from(p.flits);
            if p.class == PacketClass::Request {
                self.replies[p.dst.index()].push_back(p.src);
            }
        }
        acc.cycles += 1;
        self.cycles += 1;
    }

    /// Packets conserved: every packet injected (or carried over the last
    /// stats reset) is delivered or still in the mesh; without faults
    /// nothing is lost.
    fn conserved(&self) -> Result<(), String> {
        let s = self.mesh.stats();
        let injected = self.carried + s.injected_by_src.iter().sum::<u64>();
        let in_flight = self.mesh.in_flight() as u64;
        if injected == s.delivered_total + in_flight {
            Ok(())
        } else {
            Err(format!(
                "packets not conserved: injected {injected} != delivered {} + in flight {in_flight}",
                s.delivered_total
            ))
        }
    }
}

#[derive(Default)]
struct PhaseTimes {
    inject_ns: u64,
    inject_calls: u32,
    step_ns: u64,
    eject_ns: u64,
    cycles: u32,
}

impl Workload for MeshLoad {
    const NAME: &'static str = "mesh_load";
    /// Fitted on the test host: see the README's "Host speed".
    const HOST_SENSITIVITY: f64 = 1.4;

    fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin).with_vcs(2);
        let mut w = Self {
            mesh: Mesh::try_new(cfg).map_err(|e| format!("mesh: {e}"))?,
            rng: SplitMix::new(seed, "mesh_load"),
            backlog: vec![VecDeque::new(); NODES],
            replies: vec![VecDeque::new(); MCS],
            attempted: 0,
            accepted: 0,
            flits_delivered: 0,
            cycles: 0,
            carried: 0,
            digest: Fnv::default(),
            exact: Vec::new(),
        };
        let mut scratch = PhaseTimes::default();
        for _ in 0..WARMUP_CYCLES {
            w.cycle(&mut scratch, false);
        }
        w.conserved()?;
        // Counters restart after warm-up; the simulated state carries on.
        w.mesh.reset_stats();
        w.carried = w.mesh.in_flight() as u64;
        (w.attempted, w.accepted, w.flits_delivered, w.cycles) = (0, 0, 0, 0);
        Ok(w)
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<Step, String> {
        let traced = tr.enabled();
        let start = Instant::now();
        let op = tr.enter("op");
        let mut acc = PhaseTimes::default();
        for _ in 0..CYCLES_PER_OP {
            self.cycle(&mut acc, traced);
        }
        tr.batch("noc.inject", acc.inject_ns, acc.cycles, acc.inject_calls);
        tr.batch("noc.step", acc.step_ns, acc.cycles, acc.cycles);
        tr.batch("noc.eject", acc.eject_ns, acc.cycles, acc.cycles);
        tr.exit(op);
        let op_s = start.elapsed().as_secs_f64();

        // Conservation is checked outside the op's time: it reads the stats
        // and the occupancy counter only.
        self.conserved()?;
        if i + 1 == Self::DIGEST_OPS {
            let s = self.mesh.stats();
            self.digest.debug(s);
            for v in [
                self.attempted,
                self.accepted,
                self.flits_delivered,
                self.cycles,
            ] {
                self.digest.u64(v);
            }
            self.exact = vec![
                (
                    "noc.inject_accept_ratio",
                    self.accepted as f64 / self.attempted.max(1) as f64,
                ),
                (
                    "noc.flits_per_cycle",
                    self.flits_delivered as f64 / self.cycles.max(1) as f64,
                ),
                ("noc.latency_p99_cycles", s.latency_quantile(0.99)),
            ];
        }
        Ok(Step {
            op_s,
            sim_cycles: CYCLES_PER_OP,
        })
    }

    fn finish(self, _tr: &mut Tracer) -> Result<Summary, String> {
        Ok(Summary {
            digest: self.digest.0,
            exact: self.exact,
            values: Vec::new(),
        })
    }
}
