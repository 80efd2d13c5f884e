//! The pure job runners: each result payload is a function of the job spec
//! alone (plus, for campaigns, a checkpoint file that only ever holds a
//! prefix of the same deterministic computation).
//!
//! Payloads are canonical single-line JSON built with fixed `format!`
//! strings — field order and float formatting never depend on library
//! versions or parse/re-serialize round trips — so byte-identity holds
//! across `--jobs` counts, cache round trips, and crash resumes. Every
//! payload carries a `summary` field whose text matches the corresponding
//! one-shot CLI output line exactly, which is what lets ci.sh pin "daemon
//! result == one-shot result" with a plain `cmp`.

use crate::protocol::{json_str, JobSpec};
use gnoc_chaos::{run_chaos, ChaosConfig, ChaosOptions};
use gnoc_core::noc::{fabric_soak, mesh_soak, PacketClass};
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::{
    ArbiterKind, CheckpointedCampaign, FabricConfig, FabricSim, FabricTopology, FaultPlan,
    LatencyProbe, MeshConfig, ReliableMesh, RetryConfig,
};
use std::path::Path;

/// What executing a job produced.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Rows already present in the checkpoint when the job (re)started —
    /// > 0 exactly when a recovered campaign actually resumed.
    pub resumed_rows: usize,
    /// The canonical payload, or a human-readable failure.
    pub result: Result<String, String>,
}

fn ok(resumed_rows: usize, payload: String) -> ExecOutcome {
    ExecOutcome {
        resumed_rows,
        result: Ok(payload),
    }
}

fn fail(msg: String) -> ExecOutcome {
    ExecOutcome {
        resumed_rows: 0,
        result: Err(msg),
    }
}

/// Executes `spec`. `ckpt` is the per-key checkpoint path campaigns persist
/// to; `row_delay_ms` is the testing-only per-row sleep (see
/// [`crate::ServeConfig::row_delay_ms`]).
pub fn execute(spec: &JobSpec, ckpt: &Path, row_delay_ms: u64) -> ExecOutcome {
    match spec {
        JobSpec::Campaign {
            device,
            seed,
            lines,
            samples,
            deadline_rows,
            plan,
        } => run_campaign(
            device,
            *seed,
            *lines,
            *samples,
            *deadline_rows,
            plan.clone(),
            ckpt,
            row_delay_ms,
        ),
        JobSpec::Mesh {
            seed,
            transfers,
            plan,
        } => run_mesh(*seed, *transfers, plan.as_ref()),
        JobSpec::Chaos {
            seed_start,
            seed_count,
            transfers,
        } => run_chaos_job(*seed_start, *seed_count, *transfers),
        JobSpec::Fabric {
            devices,
            topology,
            seed,
            transfers,
        } => run_fabric_job(*devices, topology, *seed, *transfers),
        JobSpec::Replay { trace_hex, plan } => run_replay_job(trace_hex, plan.as_ref()),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_campaign(
    device: &str,
    seed: u64,
    lines: usize,
    samples: usize,
    deadline_rows: Option<usize>,
    plan: Option<FaultPlan>,
    ckpt: &Path,
    row_delay_ms: u64,
) -> ExecOutcome {
    let probe = LatencyProbe {
        working_set_lines: lines,
        samples,
    };
    let has_plan = plan.is_some();
    let mut campaign = match CheckpointedCampaign::resume_or_new(ckpt, device, seed, probe, plan) {
        Ok(c) => c,
        Err(e) => return fail(format!("campaign setup: {e}")),
    };
    let resumed = campaign.completed_rows();

    let (result, degraded, measured, unreached) = if let Some(budget) = deadline_rows {
        // The budget is a *total* row count for the job (not per-run), so a
        // crash-resumed budget job measures exactly the same rows the
        // uninterrupted job would have.
        let already = campaign.completed_rows();
        let remaining = budget.saturating_sub(already);
        let out = if remaining == 0 {
            campaign.finish_partial()
        } else {
            campaign.run_degraded(Some(ckpt), Some(remaining))
        };
        match out {
            Ok((result, coverage)) => (result, true, coverage.measured, coverage.unreached),
            Err(e) => return fail(format!("campaign: {e}")),
        }
    } else {
        loop {
            match campaign.step_row() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return fail(format!("campaign row: {e}")),
            }
            if let Err(e) = campaign.save(ckpt) {
                return fail(format!("campaign checkpoint: {e}"));
            }
            if row_delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(row_delay_ms));
            }
        }
        let total = campaign.num_sms();
        match campaign.finish() {
            Ok(result) => (result, false, total, 0),
            Err(e) => return fail(format!("campaign finish: {e}")),
        }
    };

    // The result is about to be cached under the job's content address;
    // the checkpoint has served its purpose.
    let _ = std::fs::remove_file(ckpt);
    gnoc_core::remove_orphan_tmp(ckpt);

    let rows = result.matrix.len();
    let cols = result.matrix.first().map_or(0, Vec::len);
    let grand = result.grand_mean();
    let h = gnoc_core::trace_digest::campaign_matrix_fnv(&result.matrix);
    // `summary` reproduces the one-shot `gnoc campaign` output line exactly
    // (both the full and the degraded form).
    let summary = if degraded {
        format!(
            "{device}: grand mean latency {grand:.0} cycles (degraded campaign{})",
            if has_plan { ", fault plan applied" } else { "" }
        )
    } else {
        format!(
            "{device}: grand mean latency {grand:.0} cycles over {rows}x{cols} pairs{}",
            if has_plan {
                " (fault plan applied)"
            } else {
                ""
            }
        )
    };
    ok(
        resumed,
        format!(
            "{{\"kind\":\"campaign\",\"device\":{},\"seed\":{seed},\"lines\":{lines},\"samples\":{samples},\"rows\":{rows},\"cols\":{cols},\"grand_mean\":{grand:.6},\"matrix_fnv\":\"{h:016x}\",\"degraded\":{degraded},\"measured\":{measured},\"unreached\":{unreached},\"summary\":{}}}",
            json_str(device),
            json_str(&summary)
        ),
    )
}

fn run_mesh(seed: u64, transfers: usize, plan: Option<&FaultPlan>) -> ExecOutcome {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
    let benign = FaultPlan::none();
    let plan = plan.unwrap_or(&benign);
    let mut rm = match ReliableMesh::with_faults(cfg, plan, RetryConfig::default()) {
        Ok(rm) => rm,
        Err(e) => return fail(format!("mesh setup: {e}")),
    };
    // The one-shot CLI's soak traffic, so a seed means the same transfers
    // through the daemon.
    for (src, dst) in mesh_soak(seed, (cfg.width * cfg.height) as u64).take(transfers) {
        rm.submit(src, dst, 1, PacketClass::Request);
    }
    let quiesced = rm.run_until_quiescent(2_000_000);
    if !quiesced {
        return fail(format!(
            "mesh failed to quiesce (outstanding {})",
            rm.outstanding()
        ));
    }
    let s = rm.stats();
    let summary = format!(
        "mesh seed {seed}: {}/{} delivered, {} lost, mean latency {:.1} cycles",
        s.delivered,
        s.submitted,
        s.lost_total(),
        s.mean_latency()
    );
    ok(
        0,
        format!(
            "{{\"kind\":\"mesh\",\"seed\":{seed},\"transfers\":{transfers},\"delivered\":{},\"lost\":{},\"retries\":{},\"watchdog_trips\":{},\"mean_latency\":{:.6},\"summary\":{}}}",
            s.delivered,
            s.lost_total(),
            s.retries,
            s.watchdog_trips,
            s.mean_latency(),
            json_str(&summary)
        ),
    )
}

fn run_chaos_job(seed_start: u64, seed_count: u64, transfers: u32) -> ExecOutcome {
    let cfg = ChaosConfig {
        device: None, // NoC-only: device oracles are the campaign op's job
        transfers,
        ..ChaosConfig::default()
    };
    let opts = ChaosOptions {
        seeds: (seed_start..seed_start.saturating_add(seed_count)).collect(),
        ..ChaosOptions::default()
    };
    let run = match run_chaos(&cfg, &opts, &TelemetryHandle::disabled()) {
        Ok(run) => run,
        Err(e) => return fail(format!("chaos: {e}")),
    };
    let report = run.report;
    let summary = format!(
        "chaos seeds {seed_start}..{}: {} completed, {} violation(s), {} panic(s)",
        seed_start.saturating_add(seed_count),
        report.completed_seeds.len(),
        report.violations.len(),
        report.panics
    );
    ok(
        0,
        format!(
            "{{\"kind\":\"chaos\",\"seed_start\":{seed_start},\"seed_count\":{seed_count},\"transfers\":{transfers},\"completed\":{},\"violations\":{},\"panics\":{},\"clean\":{},\"summary\":{}}}",
            report.completed_seeds.len(),
            report.violations.len(),
            report.panics,
            report.is_clean(),
            json_str(&summary)
        ),
    )
}

fn run_fabric_job(devices: u32, topology: &str, seed: u64, transfers: usize) -> ExecOutcome {
    let Some(topo) = FabricTopology::parse(topology) else {
        return fail(format!("unknown fabric topology {topology:?}"));
    };
    let cfg = FabricConfig::new(devices, topo);
    let nodes = (cfg.mesh.width * cfg.mesh.height) as u64;
    let mut sim = match FabricSim::with_faults(cfg, &FaultPlan::none()) {
        Ok(sim) => sim,
        Err(e) => return fail(format!("fabric setup: {e}")),
    };
    for t in fabric_soak(seed, devices, nodes).take(transfers) {
        if let Err(e) = sim.submit(
            t.src_dev,
            t.src,
            t.dst_dev,
            t.dst,
            t.flits,
            PacketClass::Request,
        ) {
            return fail(format!("fabric submit: {e}"));
        }
    }
    let quiesced = sim.run_until_quiescent(2_000_000);
    if !quiesced {
        return fail(format!(
            "fabric failed to quiesce (outstanding {})",
            sim.outstanding()
        ));
    }
    let s = sim.stats();
    let summary = format!(
        "fabric {devices}x{topology} seed {seed}: {}/{} delivered ({} cross-device), {} lost, mean latency {:.1} cycles",
        s.delivered,
        s.submitted,
        s.cross_device,
        s.lost_total(),
        s.mean_latency()
    );
    ok(
        0,
        format!(
            "{{\"kind\":\"fabric\",\"devices\":{devices},\"topology\":{},\"seed\":{seed},\"transfers\":{transfers},\"delivered\":{},\"lost\":{},\"cross_device\":{},\"fabric_hops\":{},\"mean_latency\":{:.6},\"summary\":{}}}",
            json_str(topology),
            s.delivered,
            s.lost_total(),
            s.cross_device,
            s.fabric_hops,
            s.mean_latency(),
            json_str(&summary)
        ),
    )
}

/// Replays a hex-encoded trace artifact in-process and verifies the
/// final-state digest against the sealed footer. A divergent digest, a
/// corrupt chunk, or a fault-plan mismatch fails the job; a truncated tail
/// succeeds with `"complete":false` (the salvage contract the CLI's
/// `gnoc trace replay` also honors).
fn run_replay_job(trace_hex: &str, plan: Option<&FaultPlan>) -> ExecOutcome {
    use gnoc_core::trace::{validate_stream, TraceKind, TraceReader};
    use gnoc_core::trace_digest;

    let bytes = match gnoc_core::trace::from_hex(trace_hex) {
        Ok(b) => b,
        Err(e) => return fail(format!("replay: {e}")),
    };
    let mut reader = match TraceReader::from_bytes(bytes) {
        Ok(r) => r,
        Err(e) => return fail(format!("replay: {e}")),
    };
    let header = reader.header().clone();
    let plan_fnv = trace_digest::plan_digest(plan);
    if header.plan_fnv != plan_fnv {
        return fail(format!(
            "replay: trace was recorded against fault plan {:016x} but the job supplies {plan_fnv:016x}",
            header.plan_fnv
        ));
    }
    let benign = FaultPlan::none();
    let mesh_cfg = MeshConfig {
        width: header.width as usize,
        height: header.height as usize,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: gnoc_core::noc::RouteOrder::Xy,
        vcs: 1,
    };
    // (events replayed, truncation point, canonical stats line, sealed digest)
    let (events, truncated, line, recorded) = match header.kind {
        TraceKind::Mesh => {
            let mut rm = match ReliableMesh::with_faults(
                mesh_cfg,
                plan.unwrap_or(&benign),
                RetryConfig::default(),
            ) {
                Ok(rm) => rm,
                Err(e) => return fail(format!("replay mesh setup: {e}")),
            };
            let outcome = match rm.replay_from(&mut reader) {
                Ok(o) => o,
                Err(e) => return fail(format!("replay: {e}")),
            };
            rm.run_until_quiescent(2_000_000);
            let line = match trace_digest::mesh_stats_line(&rm) {
                Ok(l) => l,
                Err(e) => return fail(format!("replay: {e}")),
            };
            let recorded = reader.footer().map(|f| f.stats_fnv);
            (outcome.replayed, outcome.truncated, line, recorded)
        }
        TraceKind::Fabric => {
            let Some(topo) = FabricTopology::parse(&header.topology) else {
                return fail(format!(
                    "replay: unknown fabric topology {:?}",
                    header.topology
                ));
            };
            let mut cfg = FabricConfig::new(header.devices, topo);
            cfg.mesh = mesh_cfg;
            let mut sim = match FabricSim::with_faults(cfg, plan.unwrap_or(&benign)) {
                Ok(sim) => sim,
                Err(e) => return fail(format!("replay fabric setup: {e}")),
            };
            let outcome = match sim.replay_from(&mut reader) {
                Ok(o) => o,
                Err(e) => return fail(format!("replay: {e}")),
            };
            sim.run_until_quiescent(2_000_000);
            let line = match trace_digest::fabric_stats_line(&sim) {
                Ok(l) => l,
                Err(e) => return fail(format!("replay: {e}")),
            };
            let recorded = reader.footer().map(|f| f.stats_fnv);
            (outcome.replayed, outcome.truncated, line, recorded)
        }
        TraceKind::Campaign => {
            let summary = match validate_stream(&mut reader) {
                Ok(s) => s,
                Err(e) => return fail(format!("replay: {e}")),
            };
            let device = header.device.clone().unwrap_or_default();
            let probe = LatencyProbe {
                working_set_lines: header.lines as usize,
                samples: header.samples as usize,
            };
            let mut campaign =
                match CheckpointedCampaign::new(&device, header.seed, probe, plan.cloned()) {
                    Ok(c) => c,
                    Err(e) => return fail(format!("replay campaign setup: {e}")),
                };
            let result = match campaign.run_to_completion(None) {
                Ok(r) => r,
                Err(e) => return fail(format!("replay campaign: {e}")),
            };
            let line = trace_digest::campaign_stats_line(&device, &result);
            let recorded = summary.complete.then_some(summary.stats_fnv);
            (summary.events, summary.truncated, line, recorded)
        }
    };
    let digest = trace_digest::line_digest(&line);
    let kind = header.kind.name();
    if truncated.is_none() {
        if let Some(rec) = recorded {
            if rec != 0 && rec != digest {
                return fail(format!(
                    "replay: divergent {kind} replay: stats digest {digest:016x} does not match the recorded {rec:016x}"
                ));
            }
        }
    }
    let complete = truncated.is_none();
    let summary = if complete {
        format!(
            "replay {kind}: {events} event(s), stats digest {digest:016x} matches the recording"
        )
    } else {
        format!(
            "replay {kind} prefix: {events} event(s), stats digest {digest:016x} (truncated trace)"
        )
    };
    ok(
        0,
        format!(
            "{{\"kind\":\"replay\",\"trace\":{},\"events\":{events},\"complete\":{complete},\"digest\":\"{digest:016x}\",\"summary\":{}}}",
            json_str(kind),
            json_str(&summary)
        ),
    )
}
