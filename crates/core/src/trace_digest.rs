//! Canonical stats lines and digests for trace record/replay.
//!
//! A trace's footer seals an FNV-1a 64 digest of the recorded run's final
//! state; a replay recomputes the same digest and compares. Both sides —
//! the `gnoc trace` subcommands and the daemon's `replay` job — must build
//! the line byte-identically, so the builders live here, in the one crate
//! both depend on. Lines are single-line JSON assembled with fixed
//! `format!` strings (field order and float formatting never depend on a
//! serializer), mirroring the daemon's payload convention.

use crate::LatencyCampaign;
use gnoc_fabric::FabricSim;
use gnoc_faults::FaultPlan;
use gnoc_noc::ReliableMesh;
use gnoc_telemetry::hash::fnv1a64;

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
    let stats = serde_json::to_string(rm.stats()).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"kind\":\"mesh\",\"cycle\":{},\"stats\":{stats}}}\n",
        rm.mesh().cycle()
    ))
}

/// Canonical stats line for a finished multi-device fabric soak.
///
/// # Errors
///
/// Propagates stats serialization failure (practically unreachable).
pub fn fabric_stats_line(sim: &FabricSim) -> Result<String, String> {
    let stats = serde_json::to_string(sim.stats()).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"kind\":\"fabric\",\"cycle\":{},\"stats\":{stats}}}\n",
        sim.cycle()
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
