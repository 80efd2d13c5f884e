//! The pure job runners: each result payload is a function of the job spec
//! alone (plus, for campaigns, a checkpoint file that only ever holds a
//! prefix of the same deterministic computation).
//!
//! Payloads are canonical single-line JSON built with fixed `format!`
//! strings — field order and float formatting never depend on library
//! versions or parse/re-serialize round trips — so byte-identity holds
//! across `--jobs` counts, cache round trips, and crash resumes. Every
//! payload carries a one-line `summary`. A campaign's is the line
//! `gnoc campaign` prints ([`gnoc_core::LatencyCampaign::summary_line`]),
//! which lets ci.sh pin "daemon result == one-shot result" with a plain
//! `cmp`; the mesh, fabric, chaos and replay summaries have their own
//! wording. The mesh and fabric jobs run the CLI's soaks
//! ([`gnoc_core::soak`]) and a replay job is [`trace_digest::replay`], the
//! path `gnoc trace replay` takes.

use crate::protocol::{json_str, JobSpec};
use gnoc_chaos::{run_chaos, ChaosConfig, ChaosOptions};
use gnoc_core::noc::Engine as NocEngine;
use gnoc_core::soak::{FabricSoak, MeshSoak, SOAK_CYCLE_BUDGET};
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::trace::TraceReader;
use gnoc_core::trace_digest::{self, ReplayFailure, Verdict};
use gnoc_core::{
    ArbiterKind, CheckpointedCampaign, FabricConfig, FabricTopology, FaultPlan, LatencyProbe,
    WorkerPool,
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

/// Executes `spec` on the default NoC engine ([`execute_on`]).
pub fn execute(spec: &JobSpec, ckpt: &Path, row_delay_ms: u64) -> ExecOutcome {
    execute_on(spec, ckpt, row_delay_ms, NocEngine::default())
}

/// Executes `spec`, stepping its meshes and fabrics on `engine`. `ckpt` is
/// the per-key checkpoint path campaigns persist to; `row_delay_ms` is the
/// testing-only per-row sleep (see [`crate::ServeConfig::row_delay_ms`]).
pub fn execute_on(
    spec: &JobSpec,
    ckpt: &Path,
    row_delay_ms: u64,
    engine: NocEngine,
) -> ExecOutcome {
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
        } => run_mesh(*seed, *transfers, plan.as_ref(), engine),
        JobSpec::Chaos {
            seed_start,
            seed_count,
            transfers,
        } => run_chaos_job(*seed_start, *seed_count, *transfers, engine),
        JobSpec::Fabric {
            devices,
            topology,
            seed,
            transfers,
        } => run_fabric_job(*devices, topology, *seed, *transfers, engine),
        JobSpec::Replay { trace_hex, plan } => run_replay_job(trace_hex, plan.as_ref(), engine),
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

    // A budget is a *total* row count for the job (not per-run), so a
    // crash-resumed budget job measures exactly the same rows the
    // uninterrupted job would have.
    let degraded = deadline_rows.is_some();
    let budget = deadline_rows.map(|rows| rows.saturating_sub(resumed));
    let pool = WorkerPool::serial();
    let run = campaign.run(&pool, budget, |c| {
        c.save(ckpt)?;
        if row_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(row_delay_ms));
        }
        Ok(())
    });
    if let Err(e) = run {
        return fail(format!("campaign: {e}"));
    }
    let finished = if degraded {
        campaign.finish(&pool)
    } else {
        campaign
            .finish_full(&pool)
            .map(|result| (result, campaign.coverage()))
    };
    let (result, coverage) = match finished {
        Ok(done) => done,
        Err(e) => return fail(format!("campaign finish: {e}")),
    };

    // The result is about to be cached under the job's content address;
    // the checkpoint has served its purpose.
    let _ = std::fs::remove_file(ckpt);
    gnoc_core::remove_orphan_tmp(ckpt);

    let rows = result.matrix.len();
    let cols = result.matrix.first().map_or(0, Vec::len);
    let (measured, unreached) = (coverage.measured, coverage.unreached);
    let grand = result.grand_mean();
    let h = trace_digest::campaign_matrix_fnv(&result.matrix);
    let summary = result.summary_line(device, degraded, has_plan);
    ok(
        resumed,
        format!(
            "{{\"kind\":\"campaign\",\"device\":{},\"seed\":{seed},\"lines\":{lines},\"samples\":{samples},\"rows\":{rows},\"cols\":{cols},\"grand_mean\":{grand:.6},\"matrix_fnv\":\"{h:016x}\",\"degraded\":{degraded},\"measured\":{measured},\"unreached\":{unreached},\"summary\":{}}}",
            json_str(device),
            json_str(&summary)
        ),
    )
}

fn run_mesh(
    seed: u64,
    transfers: usize,
    plan: Option<&FaultPlan>,
    engine: NocEngine,
) -> ExecOutcome {
    let soak = MeshSoak::paper(ArbiterKind::RoundRobin, seed, transfers, engine);
    let mut rm = match soak.build(plan) {
        Ok(rm) => rm,
        Err(e) => return fail(format!("mesh setup: {e}")),
    };
    if !soak.run(&mut rm) {
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

fn run_chaos_job(
    seed_start: u64,
    seed_count: u64,
    transfers: u32,
    engine: NocEngine,
) -> ExecOutcome {
    let cfg = ChaosConfig {
        device: None, // NoC-only: device oracles are the campaign op's job
        transfers,
        ..ChaosConfig::default()
    };
    let opts = ChaosOptions {
        seeds: (seed_start..seed_start.saturating_add(seed_count)).collect(),
        engine,
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

fn run_fabric_job(
    devices: u32,
    topology: &str,
    seed: u64,
    transfers: usize,
    engine: NocEngine,
) -> ExecOutcome {
    let Some(topo) = FabricTopology::parse(topology) else {
        return fail(format!("unknown fabric topology {topology:?}"));
    };
    let soak = FabricSoak {
        cfg: FabricConfig::new(devices, topo),
        seed,
        transfers,
        cycles: SOAK_CYCLE_BUDGET,
        engine,
    };
    let mut sim = match soak.build(None) {
        Ok(sim) => sim,
        Err(e) => return fail(format!("fabric setup: {e}")),
    };
    let quiesced = match soak.run(&mut sim) {
        Ok(q) => q,
        Err(e) => return fail(format!("fabric submit: {e}")),
    };
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

/// Replays a hex-encoded trace artifact in-process through
/// [`trace_digest::replay`] and reports its verdict. A divergent digest, a
/// corrupt chunk, or a fault-plan mismatch fails the job; a truncated tail
/// succeeds with `"complete":false` (the salvage contract the CLI's
/// `gnoc trace replay` also honors).
fn run_replay_job(trace_hex: &str, plan: Option<&FaultPlan>, engine: NocEngine) -> ExecOutcome {
    let reader = gnoc_core::trace::from_hex(trace_hex)
        .and_then(|bytes| TraceReader::from_bytes(bytes).map_err(|e| e.to_string()));
    let mut reader = match reader {
        Ok(r) => r,
        Err(e) => return fail(format!("replay: {e}")),
    };
    let r = match trace_digest::replay(&mut reader, plan, &TelemetryHandle::disabled(), engine) {
        Ok(r) => r,
        Err(ReplayFailure::PlanMismatch { recorded, supplied }) => {
            return fail(format!(
                "replay: trace was recorded against fault plan {recorded:016x} but the job supplies {supplied:016x}"
            ))
        }
        Err(ReplayFailure::Replay(e)) => return fail(format!("replay: {e}")),
        Err(ReplayFailure::Setup { stage, reason }) => {
            return fail(format!("replay {stage}: {reason}"))
        }
    };
    let (kind, events, digest) = (r.kind.name(), r.events, r.digest);
    let summary = match r.verdict {
        Verdict::Truncated { .. } => format!(
            "replay {kind} prefix: {events} event(s), stats digest {digest:016x} (truncated trace)"
        ),
        Verdict::Matches => format!(
            "replay {kind}: {events} event(s), stats digest {digest:016x} matches the recording"
        ),
        Verdict::Unsealed => format!(
            "replay {kind}: {events} event(s), stats digest {digest:016x} (recording sealed no digest)"
        ),
        Verdict::Divergent { recorded } => {
            return fail(format!(
                "replay: divergent {kind} replay: stats digest {digest:016x} does not match the recorded {recorded:016x}"
            ))
        }
    };
    let complete = !matches!(r.verdict, Verdict::Truncated { .. });
    ok(
        0,
        format!(
            "{{\"kind\":\"replay\",\"trace\":{},\"events\":{events},\"complete\":{complete},\"digest\":\"{digest:016x}\",\"summary\":{}}}",
            json_str(kind),
            json_str(&summary)
        ),
    )
}
