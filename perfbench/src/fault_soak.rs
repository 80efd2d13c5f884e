//! `fault_soak`: the idle-heavy faulted path through the whole fabric stack.
//!
//! One instance: `FaultPlan::generate` (die flaky links, a router stall, a
//! flaky and a dead fabric link) → `FabricSim::with_faults` (a 4-device
//! ring of 5×5 reliable meshes) → flight recorder and in-memory trace tap
//! attached → seeded cross-device transfers → `run_until_quiescent` →
//! `ProfileReport::from_recorder` → tap finished and its bytes validated
//! with `TraceReader`. One op is eight instances; the eighth also replays
//! its trace into a fresh fabric and compares the final stats. Eight
//! instances per op even out the instance-to-instance spread, so the op
//! latency tracks the program and the host rather than the draw.
//!
//! Retry backoff leaves long quiet spans, so the event core, reliable retry,
//! fabric crossings, recorder and trace tap carry the op.

use crate::gen::{mix, SplitMix};
use crate::measure::{Fnv, Tracer};
use crate::{Step, Summary, Workload};
use gnoc_core::noc::{NodeId, PacketClass};
use gnoc_core::trace::{validate_stream, TraceHeader, TraceReader, TraceTap};
use gnoc_core::{
    trace_digest, FabricConfig, FabricSim, FabricTopology, FaultGenConfig, FaultPlan, ProfileReport,
};
use std::time::Instant;

const DEVICES: u32 = 4;
const SIDE: u32 = 5;
const TRANSFERS: u64 = 32;
const INSTANCES_PER_OP: u64 = 8;
const MAX_CYCLES: u64 = 2_000_000;
const WARMUP_SEED: u64 = 0x5eed;
/// Critical paths kept per profile (the CLI's default).
const SLOWEST: usize = 5;

/// The seeded fault-plan recipe of one instance.
fn gen_config(seed: u64) -> FaultGenConfig {
    FaultGenConfig {
        flaky_links: 3,
        flaky_drop_prob: 0.2,
        stalled_routers: 1,
        stall_duration: 300,
        onset: 50,
        devices: DEVICES,
        fabric_topology: FabricTopology::Ring,
        dead_fabric_links: 1,
        flaky_fabric_links: 1,
        fabric_flaky_drop_prob: 0.2,
        ..FaultGenConfig::benign(seed, SIDE, SIDE)
    }
}

/// The seeded transfers of one instance: `(src_dev, src, dst_dev, dst,
/// flits)`, always crossing devices.
fn transfers(seed: u64) -> Vec<(u32, u32, u32, u32, u32)> {
    let mut rng = SplitMix::new(seed, "fault_soak.transfers");
    let nodes = u64::from(SIDE * SIDE);
    (0..TRANSFERS)
        .map(|_| {
            let src_dev = rng.below(u64::from(DEVICES)) as u32;
            let hop = 1 + rng.below(u64::from(DEVICES) - 1) as u32;
            (
                src_dev,
                rng.below(nodes) as u32,
                (src_dev + hop) % DEVICES,
                rng.below(nodes) as u32,
                1 + rng.below(4) as u32,
            )
        })
        .collect()
}

fn fabric_config() -> FabricConfig {
    FabricConfig::new(DEVICES, FabricTopology::Ring)
}

/// Per-run state: the seed and the exact counts over the digest prefix.
#[derive(Default)]
pub struct FaultSoak {
    seed: u64,
    digest: Fnv,
    submitted: u64,
    delivered: u64,
    retries: u64,
    trace_bytes: u64,
    trace_events: u64,
}

impl FaultSoak {
    /// Instance `i`; returns its simulated cycles.
    fn instance(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String> {
        let seed = mix(self.seed ^ mix(i));
        let plan = tr.time("faults.generate", || FaultPlan::generate(&gen_config(seed)));
        let mut sim = tr
            .time("fabric.build", || {
                FabricSim::with_faults(fabric_config(), &plan)
            })
            .map_err(|e| format!("fabric build: {e}"))?;
        let header = TraceHeader::fabric(
            DEVICES,
            "ring",
            SIDE,
            SIDE,
            seed,
            TRANSFERS,
            trace_digest::plan_digest(Some(&plan)),
        );
        sim.attach_flight_recorder();
        sim.attach_trace_tap(TraceTap::in_memory(&header));
        for (sd, s, dd, d, flits) in transfers(seed) {
            sim.submit(
                sd,
                NodeId::new(s),
                dd,
                NodeId::new(d),
                flits,
                PacketClass::Request,
            )
            .map_err(|e| format!("submit: {e}"))?;
        }
        if !tr.time("fabric.run", || sim.run_until_quiescent(MAX_CYCLES)) {
            return Err(format!("instance {i} did not quiesce"));
        }
        let cycles = sim.cycle();
        let rec = tr
            .time("telemetry.recorder_take", || sim.take_flight_recorder())
            .ok_or("flight recorder missing")?;
        let nodes = FabricTopology::Ring.node_count(DEVICES) as usize;
        let report = tr.time("analysis.profile_report", || {
            ProfileReport::from_recorder(&rec, nodes, 1, cycles, SLOWEST)
        });
        let line = trace_digest::fabric_stats_line(&sim)?;
        let digest = trace_digest::line_digest(&line);
        let bytes = tr.time("trace.finish", || {
            sim.take_trace_tap()
                .ok_or_else(|| "trace tap missing".to_string())
                .and_then(|tap| tap.finish_bytes(digest))
        })?;
        let summary = tr
            .time("trace.validate", || {
                TraceReader::from_bytes(bytes.clone()).and_then(|mut r| validate_stream(&mut r))
            })
            .map_err(|e| format!("trace does not validate: {e}"))?;

        let stats = sim.stats();
        if stats.delivered + stats.lost_total() != stats.submitted || stats.submitted != TRANSFERS {
            return Err(format!(
                "instance {i}: delivered {} + lost {} != submitted {}",
                stats.delivered,
                stats.lost_total(),
                stats.submitted
            ));
        }
        if !summary.complete || summary.events != TRANSFERS || summary.stats_fnv != digest {
            return Err(format!("instance {i}: trace footer does not match the run"));
        }
        if i % INSTANCES_PER_OP == INSTANCES_PER_OP - 1 {
            let replayed = tr.time("trace.replay", || replay(&bytes, &plan))?;
            if replayed != line {
                return Err(format!("instance {i}: replay diverged from the recording"));
            }
        }

        if i < Self::DIGEST_OPS * INSTANCES_PER_OP {
            let die_retries: u64 = sim.dies().iter().map(|d| d.stats().retries).sum();
            self.digest.bytes(line.as_bytes());
            for die in sim.dies() {
                self.digest.debug(die.stats());
            }
            self.digest.debug(&report.totals);
            self.digest.u64(report.messages as u64);
            self.digest.bytes(&bytes);
            self.submitted += stats.submitted;
            self.delivered += stats.delivered;
            self.retries += stats.fabric_retries + die_retries;
            self.trace_bytes += bytes.len() as u64;
            self.trace_events += summary.events;
        }
        Ok(cycles)
    }
}

/// Replays `bytes` into a fresh fabric built from the same plan and returns
/// its canonical stats line.
fn replay(bytes: &[u8], plan: &FaultPlan) -> Result<String, String> {
    let mut reader = TraceReader::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
    let mut sim = FabricSim::with_faults(fabric_config(), plan).map_err(|e| e.to_string())?;
    let outcome = sim.replay_from(&mut reader).map_err(|e| e.to_string())?;
    if outcome.truncated.is_some() || !sim.run_until_quiescent(MAX_CYCLES) {
        return Err("replay did not complete".into());
    }
    trace_digest::fabric_stats_line(&sim)
}

impl Workload for FaultSoak {
    const NAME: &'static str = "fault_soak";
    /// 64 instances.
    const DIGEST_OPS: u64 = 8;
    /// Fitted on the test host: see the README's "Host speed".
    const HOST_SENSITIVITY: f64 = 1.5;

    fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        // Warm-up: one untraced op's worth of instances (with a replay), so
        // route tables are interned before the first timed op. Its inputs
        // are the same for every seed: an instance's cost varies several-fold
        // between draws, and set-up time must not depend on the seed.
        let mut warm = Self {
            seed: WARMUP_SEED,
            ..Self::default()
        };
        for j in 0..INSTANCES_PER_OP {
            warm.instance(j, &mut Tracer::new(false))?;
        }
        Ok(Self {
            seed,
            ..Self::default()
        })
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<Step, String> {
        let start = Instant::now();
        let op = tr.enter("op");
        let instances = i * INSTANCES_PER_OP..(i + 1) * INSTANCES_PER_OP;
        let cycles = instances
            .map(|j| self.instance(j, tr))
            .sum::<Result<u64, _>>();
        tr.exit(op);
        let op_s = start.elapsed().as_secs_f64();
        Ok(Step {
            op_s,
            sim_cycles: cycles?,
        })
    }

    fn finish(self, _tr: &mut Tracer) -> Result<Summary, String> {
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        Ok(Summary {
            digest: self.digest.0,
            exact: vec![
                (
                    "fabric.retries_per_transfer",
                    per(self.retries, self.submitted),
                ),
                (
                    "fabric.delivered_ratio",
                    per(self.delivered, self.submitted),
                ),
                (
                    "trace.bytes_per_event",
                    per(self.trace_bytes, self.trace_events),
                ),
            ],
            values: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_inputs_repeat_for_a_seed() {
        assert_eq!(transfers(9), transfers(9));
        assert_ne!(transfers(9), transfers(10));
        assert!(transfers(9).iter().all(|&(sd, _, dd, _, _)| sd != dd));
        assert_eq!(
            FaultPlan::generate(&gen_config(9)),
            FaultPlan::generate(&gen_config(9))
        );
    }
}
