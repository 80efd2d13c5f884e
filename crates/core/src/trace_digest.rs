//! Canonical stats lines, digests and the replay of a recorded trace.
//!
//! A trace's footer seals an FNV-1a 64 digest of the recorded run's final
//! state; a replay recomputes the same digest and compares. Both sides —
//! the `gnoc trace` subcommands and the daemon's `replay` job — must build
//! the line byte-identically and reach the same verdict, so the builders
//! and [`replay`] itself live here, in the one crate both depend on. Lines
//! are single-line JSON assembled with fixed `format!` strings (field order
//! and float formatting never depend on a serializer), mirroring the
//! daemon's payload convention.

use crate::soak::{FabricSoak, MeshSoak, SOAK_CYCLE_BUDGET};
use crate::{CheckpointedCampaign, LatencyCampaign};
use gnoc_fabric::FabricSim;
use gnoc_faults::FaultPlan;
use gnoc_microbench::LatencyProbe;
use gnoc_noc::{ArbiterKind, Engine, MeshConfig, ReliableMesh};
use gnoc_par::WorkerPool;
use gnoc_telemetry::hash::fnv1a64;
use gnoc_telemetry::TelemetryHandle;
use gnoc_topo::FabricTopology;
use gnoc_trace::{validate_stream, ReplayError, ReplayOutcome, TraceKind, TraceReader};
use std::io::Read;

/// FNV-1a 64 of a fault plan's canonical JSON: the identity a trace header
/// pins via `plan_fnv`. `None` (no `--faults` flag) digests to 0, so a
/// plan-free recording replays only plan-free.
#[must_use]
pub fn plan_digest(plan: Option<&FaultPlan>) -> u64 {
    plan.map_or(0, |p| p.to_json().map_or(0, |j| fnv1a64(j.as_bytes())))
}

/// Canonical stats line for a finished reliable-mesh soak.
///
/// # Errors
///
/// Propagates stats serialization failure (practically unreachable).
pub fn mesh_stats_line(rm: &ReliableMesh) -> Result<String, String> {
    soak_stats_line("mesh", rm.mesh().cycle(), rm.stats())
}

/// Canonical stats line for a finished multi-device fabric soak.
///
/// # Errors
///
/// Propagates stats serialization failure (practically unreachable).
pub fn fabric_stats_line(sim: &FabricSim) -> Result<String, String> {
    soak_stats_line("fabric", sim.cycle(), sim.stats())
}

fn soak_stats_line<S: serde::Serialize>(
    kind: &str,
    cycle: u64,
    stats: &S,
) -> Result<String, String> {
    let stats = serde_json::to_string(stats).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"kind\":\"{kind}\",\"cycle\":{cycle},\"stats\":{stats}}}\n"
    ))
}

/// FNV-1a 64 over the raw bit patterns of every matrix cell, row-major —
/// the same digest the daemon's campaign payload reports as `matrix_fnv`.
#[must_use]
pub fn campaign_matrix_fnv(matrix: &[Vec<f64>]) -> u64 {
    let bytes: Vec<u8> = matrix
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Canonical stats line for a finished latency campaign.
#[must_use]
pub fn campaign_stats_line(device: &str, result: &LatencyCampaign) -> String {
    let rows = result.matrix.len();
    let cols = result.matrix.first().map_or(0, Vec::len);
    format!(
        "{{\"kind\":\"campaign\",\"device\":\"{device}\",\"rows\":{rows},\"cols\":{cols},\"grand_mean\":{:.6},\"matrix_fnv\":\"{:016x}\"}}\n",
        result.grand_mean(),
        campaign_matrix_fnv(&result.matrix)
    )
}

/// The digest a trace footer seals: FNV-1a 64 of the canonical stats line.
#[must_use]
pub fn line_digest(line: &str) -> u64 {
    fnv1a64(line.as_bytes())
}

/// How a replay's stats digest compares with the one the footer sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The trace is truncated: only its complete prefix was replayed, and
    /// there is no footer to compare with.
    Truncated {
        /// Chunk the stream was cut in.
        chunk: u32,
        /// Byte offset of the cut.
        offset: u64,
    },
    /// The digests are equal.
    Matches,
    /// The footer sealed 0, the "unknown" digest: there is nothing to
    /// compare with.
    Unsealed,
    /// The digests differ: the replay diverged from the recording.
    Divergent {
        /// The digest the footer sealed.
        recorded: u64,
    },
}

/// What replaying a trace produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// What the trace recorded.
    pub kind: TraceKind,
    /// Events replayed (a campaign trace has none).
    pub events: u64,
    /// The replay's canonical stats line.
    pub line: String,
    /// [`line_digest`] of `line`.
    pub digest: u64,
    /// How `digest` compares with the recording's.
    pub verdict: Verdict,
}

/// Why a trace could not be replayed.
#[derive(Debug)]
pub enum ReplayFailure {
    /// The trace pins a different fault plan than the one supplied.
    PlanMismatch {
        /// The header's `plan_fnv`.
        recorded: u64,
        /// [`plan_digest`] of the supplied plan.
        supplied: u64,
    },
    /// The stream is corrupt or unreadable, or an event does not fit.
    Replay(ReplayError),
    /// The simulator or campaign the header describes could not be built
    /// or run.
    Setup {
        /// The step that failed (`"mesh setup"`, `"campaign"`, ...).
        stage: &'static str,
        /// Why.
        reason: String,
    },
}

/// Replays a trace: checks `plan` against the header, rebuilds the mesh,
/// fabric or campaign the header describes, drives the recorded events
/// into it, quiesces it under [`SOAK_CYCLE_BUDGET`] and compares the
/// digest of its stats line with the sealed one. Meshes and fabrics step
/// on `engine`. A footer digest of 0 reads as [`Verdict::Unsealed`], never
/// as a match or a divergence.
///
/// # Errors
///
/// See [`ReplayFailure`].
pub fn replay<R: Read>(
    reader: &mut TraceReader<R>,
    plan: Option<&FaultPlan>,
    telemetry: &TelemetryHandle,
    engine: Engine,
) -> Result<Replayed, ReplayFailure> {
    let setup = |stage| move |reason| ReplayFailure::Setup { stage, reason };
    let header = reader.header().clone();
    let supplied = plan_digest(plan);
    if header.plan_fnv != supplied {
        return Err(ReplayFailure::PlanMismatch {
            recorded: header.plan_fnv,
            supplied,
        });
    }
    let die = MeshConfig {
        width: header.width as usize,
        height: header.height as usize,
        ..MeshConfig::paper_6x6(ArbiterKind::RoundRobin)
    };
    let transfers = header.transfers as usize;
    let (outcome, line) = match header.kind {
        TraceKind::Mesh => {
            let soak = MeshSoak {
                cfg: die,
                seed: header.seed,
                transfers,
                engine,
            };
            let mut rm = soak.build(plan).map_err(setup("mesh setup"))?;
            rm.mesh_mut().set_telemetry(telemetry.clone());
            let outcome = rm.replay_from(reader).map_err(ReplayFailure::Replay)?;
            rm.run_until_quiescent(SOAK_CYCLE_BUDGET);
            (outcome, mesh_stats_line(&rm))
        }
        TraceKind::Fabric => {
            let topology = FabricTopology::parse(&header.topology)
                .ok_or_else(|| format!("unknown fabric topology {:?}", header.topology))
                .map_err(setup("fabric setup"))?;
            let soak = FabricSoak::new(
                header.devices,
                topology,
                die,
                header.seed,
                transfers,
                engine,
            );
            let mut sim = soak.build(plan).map_err(setup("fabric setup"))?;
            let outcome = sim.replay_from(reader).map_err(ReplayFailure::Replay)?;
            sim.run_until_quiescent(SOAK_CYCLE_BUDGET);
            (outcome, fabric_stats_line(&sim))
        }
        TraceKind::Campaign => {
            // No events to drive: CRC-check the (empty) stream, then re-run
            // the campaign from the header.
            let summary = validate_stream(reader).map_err(|e| ReplayFailure::Replay(e.into()))?;
            let device = header.device.clone().unwrap_or_default();
            let probe = LatencyProbe {
                working_set_lines: header.lines as usize,
                samples: header.samples as usize,
            };
            let mut campaign =
                CheckpointedCampaign::new(&device, header.seed, probe, plan.cloned())
                    .map_err(|e| e.to_string())
                    .map_err(setup("campaign setup"))?;
            campaign.set_telemetry(telemetry.clone());
            let pool = WorkerPool::serial();
            let result = campaign
                .run(&pool, None, |_| Ok(()))
                .and_then(|()| campaign.finish_full(&pool))
                .map_err(|e| e.to_string())
                .map_err(setup("campaign"))?;
            let outcome = ReplayOutcome {
                replayed: summary.events,
                truncated: summary.truncated,
            };
            (outcome, Ok(campaign_stats_line(&device, &result)))
        }
    };
    let line = line.map_err(setup("stats"))?;
    let digest = line_digest(&line);
    let sealed = reader.footer().map_or(0, |f| f.stats_fnv);
    let verdict = match outcome.truncated {
        Some((chunk, offset)) => Verdict::Truncated { chunk, offset },
        None if sealed == 0 => Verdict::Unsealed,
        None if sealed == digest => Verdict::Matches,
        None => Verdict::Divergent { recorded: sealed },
    };
    Ok(Replayed {
        kind: header.kind,
        events: outcome.replayed,
        line,
        digest,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_noc::{ArbiterKind, MeshConfig, RetryConfig};

    #[test]
    fn plan_digest_is_stable_and_none_is_zero() {
        assert_eq!(plan_digest(None), 0);
        let plan = FaultPlan::none();
        let a = plan_digest(Some(&plan));
        let b = plan_digest(Some(&plan));
        assert_ne!(a, 0, "a real plan digests to a nonzero identity");
        assert_eq!(a, b);
    }

    #[test]
    fn mesh_stats_line_is_deterministic_and_single_line() {
        let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
        let plan = FaultPlan::none();
        let run = || {
            let mut rm = ReliableMesh::with_faults(cfg, &plan, RetryConfig::default()).unwrap();
            rm.submit(
                gnoc_noc::NodeId(0),
                gnoc_noc::NodeId(7),
                1,
                gnoc_noc::PacketClass::Request,
            );
            rm.run_until_quiescent(10_000);
            mesh_stats_line(&rm).unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.ends_with('\n') && !a.trim_end().contains('\n'));
        assert_eq!(line_digest(&a), fnv1a64(a.as_bytes()));
    }

    #[test]
    fn campaign_line_embeds_matrix_digest() {
        let result = LatencyCampaign {
            matrix: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            sm_summaries: Vec::new(),
            correlation: Vec::new(),
        };
        let line = campaign_stats_line("v100", &result);
        let fnv = campaign_matrix_fnv(&result.matrix);
        assert!(line.contains(&format!("{fnv:016x}")));
        assert!(line.contains("\"rows\":2"));
    }
}
