//! Argument parsing and command definitions for the `gnoc` CLI.
//!
//! Hand-rolled (no argument-parsing dependency): subcommand + `--flag value`
//! pairs, with typed validation. The parser lives in the library so it can
//! be unit-tested; `main.rs` only dispatches.

#![warn(missing_docs)]

use gnoc_chaos::ChaosConfig;
use gnoc_core::noc::Engine;
use gnoc_core::{
    CtaScheduler, FabricTopology, FaultGenConfig, FlakyBurst, GpuSpec, LatencyProbe, RegionFault,
};
use std::cell::RefCell;

/// Exit code: the command succeeded (for checks: the property holds).
pub const EXIT_OK: u8 = 0;
/// Exit code: the command ran but its check failed — `faults check` found an
/// invalid plan, `chaos run` saw an oracle fire, `chaos replay` still
/// reproduces the recorded failure.
pub const EXIT_CHECK_FAILED: u8 = 1;
/// Exit code: the input was unusable — unknown flags, malformed JSON, a
/// config that fails validation. Retrying without changing the input will
/// fail again.
pub const EXIT_INVALID_INPUT: u8 = 2;
/// Exit code: a filesystem read or write failed (missing file, permissions).
/// The input may be fine; retrying can succeed.
pub const EXIT_IO: u8 = 3;

/// Which preset GPU a command targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuChoice {
    /// The V100 preset.
    V100,
    /// The A100 preset (floor-swept product configuration, 108 SMs).
    A100,
    /// The full A100 die before floorsweeping (128 SMs).
    A100Full,
    /// The full die with the product floorsweep applied as a fault plan.
    A100Fs,
    /// The H100 preset.
    H100,
}

impl GpuChoice {
    /// Parses a GPU name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "v100" => Ok(Self::V100),
            "a100" => Ok(Self::A100),
            "a100full" => Ok(Self::A100Full),
            "a100fs" => Ok(Self::A100Fs),
            "h100" => Ok(Self::H100),
            other => Err(format!(
                "unknown GPU '{other}' (expected v100|a100|a100full|a100fs|h100)"
            )),
        }
    }

    /// The corresponding spec.
    pub fn spec(self) -> GpuSpec {
        match self {
            Self::V100 => GpuSpec::v100(),
            Self::A100 => GpuSpec::a100(),
            Self::A100Full => GpuSpec::a100_full(),
            Self::A100Fs => GpuSpec::a100_floorswept(),
            Self::H100 => GpuSpec::h100(),
        }
    }

    /// The preset name understood by checkpointed campaigns
    /// ([`gnoc_core::spec_for_preset`]).
    pub fn preset_name(self) -> &'static str {
        match self {
            Self::V100 => "v100",
            Self::A100 => "a100",
            Self::A100Full => "a100full",
            Self::A100Fs => "a100fs",
            Self::H100 => "h100",
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `gnoc info <gpu>` — Table-I style device summary and floorplan.
    Info {
        /// Target device.
        gpu: GpuChoice,
    },
    /// `gnoc latency <gpu> [--sm N] [--seed S]` — Algorithm 1 profile.
    Latency {
        /// Target device.
        gpu: GpuChoice,
        /// Source SM id.
        sm: u32,
        /// Measurement seed.
        seed: u64,
    },
    /// `gnoc bandwidth <gpu> [--seed S]` — aggregates and input speedups.
    Bandwidth {
        /// Target device.
        gpu: GpuChoice,
        /// Measurement seed.
        seed: u64,
    },
    /// `gnoc placement <gpu> [--seed S]` — latency campaign + placement
    /// reverse engineering.
    Placement {
        /// Target device.
        gpu: GpuChoice,
        /// Measurement seed.
        seed: u64,
    },
    /// `gnoc attack <aes|rsa> [--gpu G] [--defend] [--seed S]`.
    Attack {
        /// Which published attack to reproduce.
        kind: AttackKind,
        /// Target device.
        gpu: GpuChoice,
        /// Victim scheduler (the defense toggle).
        scheduler: CtaScheduler,
        /// Experiment seed.
        seed: u64,
    },
    /// `gnoc mesh [--arbiter rr|age] [--seed S] [--transfers N]
    /// [--devices N] [--topology T]` — the Fig. 23 experiment, or (with
    /// `--faults`) retrying delivery over a degraded mesh. With
    /// `--devices ≥ 2` the soak runs cross-device over the inter-device
    /// fabric instead.
    Mesh {
        /// Arbitration policy.
        age_based: bool,
        /// Simulation seed.
        seed: u64,
        /// Transfers submitted in the faulted reliable-delivery run.
        transfers: usize,
        /// Hide the fault plan from routing and let the health layer detect
        /// and quarantine faults online (requires `--faults`).
        self_heal: bool,
        /// Devices coupled over the inter-device fabric (1 = single die,
        /// the classic experiment).
        devices: u32,
        /// Inter-device topology name (ignored when `devices == 1`).
        topology: String,
    },
    /// `gnoc fabric [--devices N] [--topology T] [--width W] [--height H]
    /// [--seed S] [--transfers N] [--cycles C] [--self-heal]` — a
    /// multi-GPU fabric soak: cross-device traffic over per-die meshes
    /// joined by the chosen inter-device topology, with fault-aware
    /// failover when a `--faults` plan is given, or (with `--self-heal`)
    /// the plan hidden from routing and per-link breakers quarantining
    /// what they detect.
    Fabric {
        /// Devices coupled over the fabric (≥ 2).
        devices: u32,
        /// Inter-device topology name.
        topology: String,
        /// Per-die mesh width.
        width: u32,
        /// Per-die mesh height.
        height: u32,
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
        /// Quiescence budget in cycles.
        cycles: u64,
        /// Hide the fault plan from fabric routing and let per-link
        /// breakers detect, quarantine, and fail over online.
        self_heal: bool,
    },
    /// `gnoc memsim [--provisioned] [--seed S]` — the Fig. 21 experiment.
    Memsim {
        /// Provision the reply interface (the real-GPU configuration).
        provisioned: bool,
        /// Simulation seed.
        seed: u64,
    },
    /// `gnoc covert [--gpu G] [--far] [--seed S]` — the slice-contention
    /// covert channel.
    Covert {
        /// Target device.
        gpu: GpuChoice,
        /// Place the transmitter on the far partition (weak-signal baseline).
        far: bool,
        /// Session seed.
        seed: u64,
    },
    /// `gnoc replay <bfs|gaussian> [--gpu G] [--random] [--blocks N]` —
    /// trace replay with execution-time estimation.
    Replay {
        /// Which workload trace to generate and replay.
        workload: WorkloadKind,
        /// Target device.
        gpu: GpuChoice,
        /// Use the random-seed scheduling defense.
        random: bool,
        /// Thread blocks per step.
        blocks: usize,
    },
    /// `gnoc loadcurve [--net mesh|xbar]` — offered-load vs latency sweep.
    LoadCurve {
        /// Sweep the hierarchical crossbar instead of the mesh.
        crossbar: bool,
        /// Simulation seed.
        seed: u64,
    },
    /// `gnoc stats <metrics.json>` — render a saved metrics registry.
    Stats {
        /// Path to a metrics JSON file written via `--metrics`.
        path: String,
    },
    /// `gnoc faults gen|check` — generate or validate fault-plan files.
    Faults {
        /// Generate a new plan or check an existing one.
        action: FaultsAction,
    },
    /// `gnoc campaign <gpu> [--seed S] [--checkpoint F] [--lines N]
    /// [--samples N]` — checkpointed (killable/resumable) latency campaign.
    Campaign {
        /// Target device preset.
        gpu: GpuChoice,
        /// Campaign seed.
        seed: u64,
        /// Checkpoint file rewritten after each completed SM row.
        checkpoint: Option<String>,
        /// Probe working-set lines per (SM, slice) pair.
        lines: usize,
        /// Probe samples per (SM, slice) pair.
        samples: usize,
        /// SMs to skip (quarantined): the campaign runs degraded and reports
        /// explicit partial coverage instead of failing.
        quarantine: Vec<u32>,
        /// Measured-row budget: stop after this many rows and salvage a
        /// partial result (deterministic, unlike a wall-clock deadline).
        deadline_rows: Option<usize>,
    },
    /// `gnoc chaos run|replay|shrink` — randomized fault-plan fuzzing with
    /// invariant oracles, reproducer replay, and ddmin re-shrinking.
    Chaos {
        /// Soak, replay one failure, or re-shrink a reproducer.
        action: ChaosAction,
    },
    /// `gnoc trace record|replay|validate|info` — deterministic run capture:
    /// record a soak or campaign into a versioned streamed trace, replay it
    /// byte-identically, or check a trace file without running anything.
    Trace {
        /// Record, replay, validate, or inspect.
        action: TraceAction,
    },
    /// `gnoc health [--width W] [--height H] [--cycles C] [--device G]
    /// [--windows N] [--seed S]` — online fault detection: run a
    /// self-healing mesh (the `--faults` plan applied but hidden from
    /// routing) and report what the health monitors detected and
    /// quarantined.
    Health {
        /// Mesh width.
        width: u32,
        /// Mesh height.
        height: u32,
        /// Mesh cycles to run detection for.
        cycles: u64,
        /// Also probe this device's L2 slices with the plan's disabled
        /// slices latent (unknown to the address map).
        device: Option<GpuChoice>,
        /// Health windows of slice probing when `--device` is given.
        windows: u64,
        /// Seed for the latent-fault device build.
        seed: u64,
    },
    /// `gnoc profile [--width W] [--height H] [--arbiter rr|age] [--seed S]
    /// [--transfers N] [--slowest K] [--devices N] [--topology T]
    /// [--report F] [--perfetto F] [--jsonl F] [--svg F]` — flight-record a
    /// mesh soak (faulted when `--faults` is given) and reduce it to stall
    /// attribution, per-link utilization heatmaps, and the critical paths
    /// of the slowest transfers. With `--devices ≥ 2` the soak runs
    /// cross-device and fabric-hop stalls get their own attribution class.
    Profile {
        /// Mesh width.
        width: u32,
        /// Mesh height.
        height: u32,
        /// Arbitration policy.
        age_based: bool,
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
        /// Critical paths kept (slowest K transfers).
        slowest: usize,
        /// Write the profile report JSON here.
        report: Option<String>,
        /// Write a Chrome trace-event JSON here (loadable in Perfetto).
        perfetto: Option<String>,
        /// Stream per-message lifecycle events (JSONL) here.
        jsonl: Option<String>,
        /// Write the per-router utilization heatmap as SVG here.
        svg: Option<String>,
        /// Devices coupled over the inter-device fabric (1 = single die).
        devices: u32,
        /// Inter-device topology name (ignored when `devices == 1`).
        topology: String,
    },
    /// `gnoc serve --state DIR [--socket PATH | --stdin] [--queue-cap N]
    /// [--session-cap N] [--max-rows N] [--max-seeds N] [--max-transfers N]
    /// [--row-delay-ms MS]` — the crash-safe measurement daemon: a bounded
    /// job queue over the worker pool, an fsynced journal, and a
    /// content-addressed result cache under `--state`.
    Serve {
        /// State directory (journal, cache, campaign checkpoints).
        state: String,
        /// Unix socket to listen on; `None` means `--stdin` line mode.
        socket: Option<String>,
        /// Pending-job bound before admission rejects new work.
        queue_cap: usize,
        /// In-flight bound per client session.
        session_cap: usize,
        /// Campaign row budget per job (0 = unlimited).
        max_rows: usize,
        /// Chaos seed budget per job (0 = unlimited).
        max_seeds: u64,
        /// Soak transfer budget per job (0 = unlimited).
        max_transfers: usize,
        /// Per-campaign-row sleep in ms (testing aid; widens kill windows).
        row_delay_ms: u64,
    },
    /// `gnoc submit <what> --socket PATH [--payload-out F] [--summary]` —
    /// send one request to a running daemon and print its response.
    Submit {
        /// Daemon socket path.
        socket: String,
        /// The request to send.
        what: SubmitWhat,
        /// Write the result payload bytes (exactly as computed) here.
        payload_out: Option<String>,
        /// Print only the payload's `summary` field (the one-shot CLI line).
        summary: bool,
    },
    /// `gnoc batch <file> --socket PATH` — submit each non-empty line of
    /// `file` as a request, in order; exits nonzero if any job fails.
    Batch {
        /// Daemon socket path.
        socket: String,
        /// File of request lines (the same JSON the line protocol takes).
        file: String,
    },
    /// `gnoc help` — usage.
    Help,
}

/// What `gnoc submit` sends.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitWhat {
    /// A raw protocol line, passed through verbatim (`--json`).
    Raw(String),
    /// A latency campaign job.
    Campaign {
        /// Target device preset.
        gpu: GpuChoice,
        /// Campaign seed.
        seed: u64,
        /// Probe working-set lines.
        lines: usize,
        /// Probe samples.
        samples: usize,
        /// Measured-row budget (degraded salvage), as in the one-shot CLI.
        deadline_rows: Option<usize>,
    },
    /// A reliable-mesh soak job.
    Mesh {
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
    },
    /// A chaos sweep job.
    Chaos {
        /// First seed.
        seed_start: u64,
        /// Seeds swept.
        seed_count: u64,
        /// Transfers per iteration.
        transfers: u32,
    },
    /// A multi-GPU fabric soak job.
    Fabric {
        /// Devices coupled.
        devices: u32,
        /// Inter-device topology name.
        topology: String,
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
    },
    /// A recorded-trace replay job; the trace file is read locally and
    /// shipped hex-encoded (the fault plan rides the global `--faults`).
    Replay {
        /// Path to the trace artifact to ship.
        trace: String,
    },
    /// The daemon's health snapshot.
    Health,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// What `gnoc chaos` does.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Run a seeded soak: one iteration per seed, every oracle, failures
    /// shrunk and recorded.
    Run {
        /// Half-open seed range to fuzz.
        seeds: std::ops::Range<u64>,
        /// Iteration configuration (mesh geometry, load, device oracles).
        cfg: ChaosConfig,
        /// Resumable state file, rewritten after every iteration.
        state: Option<String>,
        /// Write the final report JSON to this path.
        report: Option<String>,
        /// Directory for reproducer JSON files.
        repro_dir: Option<String>,
        /// Wall-clock budget in milliseconds (stops between iterations).
        wall_ms: Option<u64>,
        /// Skip ddmin shrinking of failing plans.
        no_shrink: bool,
    },
    /// Re-run one recorded failure from a reproducer file; exits nonzero
    /// while the failure still reproduces.
    Replay {
        /// Reproducer JSON path.
        repro: String,
    },
    /// Re-shrink a reproducer's plan with ddmin and rewrite the file.
    Shrink {
        /// Reproducer JSON path.
        repro: String,
        /// Output path (defaults to rewriting the input).
        out: Option<String>,
    },
}

/// What `gnoc trace` does.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceAction {
    /// Run a deterministic soak or campaign and capture it into a trace.
    Record {
        /// Which run to capture.
        target: TraceTarget,
        /// Output trace path (chunked, CRC'd, fsynced on finalize).
        out: String,
        /// Also write the run's canonical stats line here (byte-identical
        /// between the recording and any faithful replay).
        stats: Option<String>,
    },
    /// Re-drive the run a trace captured and compare the outcome against
    /// the digest sealed in the trace footer.
    Replay {
        /// Trace file path.
        path: String,
        /// Write the replayed run's canonical stats line here.
        stats: Option<String>,
    },
    /// Stream a trace, CRC-checking every chunk, without running anything.
    Validate {
        /// Trace file path.
        path: String,
    },
    /// Print a trace's header context, event totals, and footer digest.
    Info {
        /// Trace file path.
        path: String,
    },
}

/// Which run `gnoc trace record` captures. Each target replicates the
/// corresponding one-shot subcommand exactly (same config, same traffic
/// stream), so a recording stands in for the run it taps.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceTarget {
    /// The `gnoc mesh --faults` soak: paper 6x6, round-robin arbitration.
    Mesh {
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
    },
    /// The `gnoc fabric` soak (fault-aware routing; self-heal runs are not
    /// recordable — their breaker poll loop is outside the trace).
    Fabric {
        /// Devices coupled (≥ 2).
        devices: u32,
        /// Inter-device topology name.
        topology: String,
        /// Per-die mesh width.
        width: u32,
        /// Per-die mesh height.
        height: u32,
        /// Traffic seed.
        seed: u64,
        /// Transfers submitted.
        transfers: usize,
        /// Quiescence budget in cycles.
        cycles: u64,
    },
    /// A latency campaign: a zero-event trace whose header re-instantiates
    /// the run and whose footer pins the latency-matrix digest.
    Campaign {
        /// Target device preset.
        gpu: GpuChoice,
        /// Campaign seed.
        seed: u64,
        /// Probe working-set lines per (SM, slice) pair.
        lines: usize,
        /// Probe samples per (SM, slice) pair.
        samples: usize,
    },
}

/// What `gnoc faults` does.
// One short-lived parse result per invocation; boxing the generation knobs
// would buy nothing but indirection in every construction site and test.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum FaultsAction {
    /// Generate a plan from knobs and write it to a JSON file.
    Gen {
        /// Output path for the plan JSON.
        out: String,
        /// Generation knobs.
        cfg: FaultGenConfig,
    },
    /// Load a plan file and validate it against a mesh (and optionally a
    /// slice count and a multi-device fabric).
    Check {
        /// Plan JSON path.
        path: String,
        /// Mesh width to validate against.
        width: u32,
        /// Mesh height to validate against.
        height: u32,
        /// L2 slice count to validate disabled slices against.
        slices: Option<u32>,
        /// Devices to validate the plan's fabric faults against
        /// (1 = single-die check; fabric faults then fail the check).
        devices: u32,
        /// Inter-device topology to validate against.
        topology: String,
    },
}

/// A parsed invocation: the subcommand plus the global flags
/// (`--trace <file.jsonl>`, `--metrics <file.json>`,
/// `--faults <plan.json>`, `--jobs N`, `--profile <file.json>`), which are
/// accepted by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand to run.
    pub command: Command,
    /// Stream trace events (JSONL, one object per line) to this path.
    pub trace: Option<String>,
    /// Write the metric registry (JSON) to this path on exit.
    pub metrics: Option<String>,
    /// Apply the fault plan at this path to the run (degraded devices for
    /// device subcommands, a faulted reliable mesh for `mesh`).
    pub faults: Option<String>,
    /// Worker count for parallel subcommands (`campaign`, `chaos run`);
    /// `None` falls back to `GNOC_JOBS`, then the machine
    /// ([`gnoc_core::resolve_jobs`]). Never changes results, only wall time.
    pub jobs: Option<usize>,
    /// Flight-record the run and write a stall-attribution profile (JSON,
    /// with a Chrome trace alongside it at `<file>.trace.json`) to this
    /// path. Supported by `mesh`, `campaign`, and `chaos run`; recording
    /// never changes any printed or written result.
    pub profile: Option<String>,
    /// NoC core engine: `None` falls back to `GNOC_ENGINE`, then event
    /// ([`resolve_engine`]). Never changes results — the event engine is
    /// bit-identical to cycle-exact stepping — only wall time.
    pub engine: Option<Engine>,
}

/// The engine every simulator of a run steps on: `--engine` when given,
/// else cycle when the `GNOC_ENGINE` environment variable is `cycle`, else
/// event. The one place that variable is read.
pub fn resolve_engine(flag: Option<Engine>) -> Engine {
    flag.unwrap_or_else(|| match std::env::var("GNOC_ENGINE").as_deref() {
        Ok("cycle") => Engine::Cycle,
        _ => Engine::Event,
    })
}

/// Which workload `gnoc replay` generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Level-synchronous BFS.
    Bfs,
    /// Gaussian elimination.
    Gaussian,
}

/// Which attack `gnoc attack` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// The AES last-round key recovery.
    Aes,
    /// The RSA exponent-weight attack.
    Rsa,
}

/// Usage text.
pub const USAGE: &str = "\
gnoc — GPU NoC characterisation toolkit (paper reproduction)

USAGE:
    gnoc info       <v100|a100|a100full|a100fs|h100>
    gnoc latency    <gpu> [--sm N] [--seed S]
    gnoc bandwidth  <gpu> [--seed S]
    gnoc placement  <gpu> [--seed S]
    gnoc attack     <aes|rsa> [--gpu G] [--defend] [--seed S]
    gnoc mesh       [--arbiter rr|age] [--seed S] [--transfers N]
                    [--self-heal] [--devices N] [--topology T]
    gnoc fabric     [--devices N] [--topology p2p|line|ring|fully|switch]
                    [--width W] [--height H] [--seed S] [--transfers N]
                    [--cycles C] [--self-heal]
    gnoc memsim     [--provisioned] [--seed S]
    gnoc covert     [--gpu G] [--far] [--seed S]
    gnoc replay     <bfs|gaussian> [--gpu G] [--random] [--blocks N]
    gnoc loadcurve  [--net mesh|xbar] [--seed S]
    gnoc campaign   <gpu> [--seed S] [--checkpoint ckpt.json]
                    [--lines N] [--samples N]
                    [--quarantine-sms 3,17,40] [--deadline-rows N]
    gnoc health     [--width W] [--height H] [--cycles C]
                    [--device G|none] [--windows N] [--seed S]
    gnoc faults     gen --out plan.json [--seed S] [--width W] [--height H]
                    [--dead-frac F] [--flaky N] [--flaky-prob P]
                    [--stalls N] [--stall-cycles C] [--drop-prob P]
                    [--corrupt-prob P] [--onset C] [--storm-span C]
                    [--region-radius K] [--region-center R] [--region-frac F]
                    [--burst N] [--burst-prob P] [--burst-onset C]
                    [--slices N] [--disable-slices N]
                    [--devices N] [--topology T] [--dead-fabric-links N]
                    [--flaky-fabric-links N] [--fabric-flaky-prob P]
                    [--dead-devices N] [--dead-switch]
    gnoc faults     check <plan.json> [--width W] [--height H] [--slices N]
                    [--devices N] [--topology T]
    gnoc chaos      run [--seeds A..B] [--width W] [--height H]
                    [--transfers N] [--cycles C] [--device G|none]
                    [--device-every N] [--lines N] [--samples N]
                    [--state chaos.json] [--report report.json]
                    [--repro-dir DIR] [--wall-ms MS] [--no-shrink]
                    [--greedy-bug] [--detect] [--replay]
                    [--devices N] [--topology T] [--fabric-stuck-bug]
    gnoc chaos      replay --repro repro.json
    gnoc chaos      shrink --repro repro.json [--out min.json]
    gnoc trace      record mesh --out run.trace [--seed S] [--transfers N]
                    [--stats stats.json]
    gnoc trace      record fabric --out run.trace [--devices N]
                    [--topology T] [--width W] [--height H] [--seed S]
                    [--transfers N] [--cycles C]
    gnoc trace      record campaign <gpu> --out run.trace [--seed S]
                    [--lines N] [--samples N]
    gnoc trace      replay <run.trace> [--stats stats.json]
    gnoc trace      validate <run.trace>
    gnoc trace      info <run.trace>
    gnoc profile    [--width W] [--height H] [--arbiter rr|age] [--seed S]
                    [--transfers N] [--slowest K] [--report prof.json]
                    [--perfetto trace.json] [--jsonl events.jsonl]
                    [--svg util.svg] [--devices N] [--topology T]
    gnoc stats      <metrics.json>
    gnoc serve      --state DIR (--socket PATH | --stdin) [--queue-cap N]
                    [--session-cap N] [--max-rows N] [--max-seeds N]
                    [--max-transfers N] [--row-delay-ms MS]
    gnoc submit     <campaign <gpu>|mesh|chaos|fabric|replay <run.trace>
                    |health|shutdown>
                    --socket PATH [op flags] [--payload-out F] [--summary]
    gnoc submit     --socket PATH --json '<request line>'
    gnoc batch      <requests.jsonl> --socket PATH
    gnoc help

GLOBAL FLAGS (every subcommand):
    --trace <file.jsonl>    stream structured trace events (virtual-nvprof)
    --metrics <file.json>   write the metric registry on exit
    --faults <plan.json>    inject the fault plan: device subcommands run on
                            the degraded device; mesh runs retrying delivery
                            over the faulted fabric; campaign checkpoints
                            embed the plan
    --jobs <N>              worker threads for campaign (full and degraded)
                            and chaos run (default: GNOC_JOBS, then all
                            cores). Results are bit-identical for any N; only
                            wall time changes
    --profile <file.json>   flight-record the run and write a
                            stall-attribution profile (mesh, campaign,
                            chaos run); a Chrome trace loadable at
                            ui.perfetto.dev lands at <file>.trace.json.
                            Timestamps are virtual cycles, so recorded runs
                            stay bit-identical to unrecorded ones
    --engine <cycle|event>  NoC core of every simulator in the run: event
                            (default) skips provably-quiet cycles in O(1);
                            cycle steps every cycle. Results are bit-identical
                            either way; only wall time changes. Without the
                            flag, GNOC_ENGINE=cycle selects cycle. Library
                            callers such as the figures runner run on event

PROFILING:
    gnoc profile flight-records a mesh soak: every message gets a causal
    lifecycle record (inject, per-hop arbitration/backpressure/serialization
    stalls, deliver or lost) in virtual cycles. The report attributes every
    stalled cycle to its cause per link and router, and extracts the
    critical path of the slowest transfers. --faults profiles a degraded
    mesh; the same recorder backs the global --profile flag.

SELF-HEALING:
    gnoc health runs online fault detection: the --faults plan is applied
    physically but hidden from routing; per-link circuit breakers infer
    faults from drop counters and quarantine them (with --device, per-slice
    breakers probe L2 latencies the same way). gnoc mesh --self-heal runs
    the retrying-delivery experiment in the same mode. gnoc campaign
    --quarantine-sms runs degraded (skipped SMs, explicit partial coverage);
    --deadline-rows caps measured rows and salvages a partial result.

MULTI-GPU FABRIC:
    --devices N --topology T (mesh, fabric, profile, chaos run) couple N
    per-die meshes over an inter-device fabric: p2p, line, ring, fully
    (all-to-all), or switch (central crossbar). A cross-device transfer
    runs source die -> egress port -> fabric hops -> ingress port ->
    destination die; fabric links serialize flits an order of magnitude
    slower than die links. Routing fails over around dead links, a dead
    switch, or lost devices; severed traffic is reported lost-partitioned,
    never hung. gnoc fabric --self-heal hides the plan from routing and
    per-link breakers quarantine what they detect (quarantines that would
    partition the fabric are refused and reported).

TRACE RECORD/REPLAY:
    gnoc trace record captures a run's injected transfer stream into a
    compact, versioned, delta-encoded trace: chunked writes with a per-chunk
    CRC and an fsynced footer, so a capture killed mid-run loses at most its
    unflushed tail, never its prefix. The header pins the run's context
    (schema, geometry, topology, seed, fault-plan digest); the footer seals
    a digest of the final stats. gnoc trace replay rebuilds the run from the
    header (pass the same --faults plan; a mismatched plan is refused),
    re-injects the stream, and compares the outcome digest — byte-identical
    across --jobs counts and both --engine cores. A truncated trace replays
    its complete prefix with a warning; a corrupt chunk is named (index and
    byte offset) and fails. chaos run --replay turns the same machinery
    into a per-seed oracle, and failing seeds embed a replayable trace in
    their reproducers. The daemon accepts {\"op\":\"replay\"} jobs over the
    same trace bytes (hex-encoded).

SERVING:
    gnoc serve runs the measurement engines as a long-lived daemon: jobs
    are journaled (fsynced) before they run, results land in a
    content-addressed cache keyed by the request's canonical form, and a
    bounded queue rejects overload with an explicit reason instead of
    stalling. Kill -9 the daemon and restart it: the journal replays,
    checkpointed campaigns resume from their last completed row, and the
    finished payload is byte-identical to an uninterrupted run. SIGTERM
    (socket mode) or EOF (--stdin mode) drains gracefully instead.

    The line protocol is JSON, one request per line, e.g.:
      {\"schema\":1,\"op\":\"campaign\",\"device\":\"v100\",\"seed\":7}
      {\"schema\":1,\"op\":\"mesh\",\"seed\":1,\"transfers\":200}
      {\"schema\":1,\"op\":\"chaos\",\"seed_start\":0,\"seed_count\":4}
      {\"schema\":1,\"op\":\"fabric\",\"devices\":2,\"topology\":\"ring\"}
      {\"schema\":1,\"op\":\"replay\",\"trace\":\"<hex trace bytes>\"}
      {\"schema\":1,\"op\":\"health\"}
      {\"schema\":1,\"op\":\"shutdown\"}
    Responses are envelopes: {\"type\":\"accepted\",\"job\":N} then
    {\"type\":\"done\",\"cached\":B,\"resumed_rows\":N,\"payload\":{...}},
    or {\"type\":\"failed\",...} / {\"type\":\"rejected\",\"reason\":...}.
    A given request's payload bytes are identical cold, cached, resumed
    after a crash, and at any --jobs count. gnoc submit is the one-shot
    client (--payload-out captures the exact payload bytes; --summary
    prints the payload's one-line summary, which matches the equivalent
    one-shot subcommand's output); gnoc batch submits a file of request
    lines in order and exits with the worst per-request code.

EXIT CODES:
    0   success (checks: the property holds / no longer reproduces;
        submit: job done)
    1   check failed — invalid plan (faults check), oracle fired (chaos
        run), recorded failure still reproduces (chaos replay), corrupt
        trace chunk or divergent replay (gnoc trace), submitted job failed
        or was rejected by admission control
    2   invalid input — unknown flags, malformed JSON, bad config, a trace
        from an incompatible schema or recorded against a different fault
        plan, or a request the daemon rejected as invalid
    3   I/O error — a file could not be read or written, or the daemon
        socket could not be reached
    A closed stdout (gnoc info v100 | head -1) ends a command by SIGPIPE,
    like any Unix filter; serve, submit and batch ignore SIGPIPE, so a
    hung-up peer is an I/O error there.
";

/// Reads `--flag value` pairs and boolean `--flag`s from `args`, noting
/// every flag looked up so that [`parse`] can reject the rest.
struct Flags<'a> {
    args: &'a [String],
    looked_up: RefCell<Vec<&'a str>>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Self {
            args,
            looked_up: RefCell::new(Vec::new()),
        }
    }

    /// The value after `flag`, or `None` when it is absent. A value flag
    /// given twice is an error rather than a silent choice of one value.
    fn value_of(&self, flag: &'a str) -> Result<Option<&'a str>, String> {
        self.looked_up.borrow_mut().push(flag);
        let mut at = (0..self.args.len()).filter(|&i| self.args[i] == flag);
        let Some(i) = at.next() else {
            return Ok(None);
        };
        if at.next().is_some() {
            return Err(format!("flag {flag} given more than once"));
        }
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("flag {flag} needs a value")),
        }
    }

    fn has(&self, flag: &'a str) -> bool {
        self.looked_up.borrow_mut().push(flag);
        self.args.iter().any(|a| a == flag)
    }

    fn parse_num<T: std::str::FromStr>(&self, flag: &'a str, default: T) -> Result<T, String> {
        match self.value_of(flag)? {
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {flag}: '{v}' is not a valid number")),
            None => Ok(default),
        }
    }

    /// The first `--flag` in `args` that was never looked up. A flag's value
    /// never starts with `--`, so every such token names a flag.
    fn first_unread(&self) -> Option<&'a str> {
        let looked_up = self.looked_up.borrow();
        self.args
            .iter()
            .map(String::as_str)
            .find(|a| a.starts_with("--") && !looked_up.contains(a))
    }
}

/// Parses a comma-separated SM list (e.g. `3,17,40`).
fn parse_sm_list(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("flag --quarantine-sms: '{part}' is not a valid SM index"))
        })
        .collect()
}

/// Parses a half-open `A..B` seed range (e.g. `0..100`).
fn parse_seed_range(s: &str) -> Result<std::ops::Range<u64>, String> {
    let err = || format!("flag --seeds: '{s}' is not a half-open range like 0..100");
    let (lo, hi) = s.split_once("..").ok_or_else(err)?;
    let lo: u64 = lo.parse().map_err(|_| err())?;
    let hi: u64 = hi.parse().map_err(|_| err())?;
    if lo >= hi {
        return Err(format!("flag --seeds: range {lo}..{hi} is empty"));
    }
    Ok(lo..hi)
}

/// Parses the multi-device fabric flags shared by `mesh`, `fabric`,
/// `profile`, `chaos run`, and `faults check`: `--devices N` (defaulting to
/// `default_devices`) and `--topology T` (defaulting to `ring`), validating
/// the combination up front so a bad pairing (e.g. p2p with 3 devices)
/// fails at parse time with exit code 2.
fn parse_fabric_flags(flags: &Flags<'_>, default_devices: u32) -> Result<(u32, String), String> {
    let devices: u32 = flags.parse_num("--devices", default_devices)?;
    let topology = flags.value_of("--topology")?.unwrap_or("ring").to_owned();
    let Some(topo) = FabricTopology::parse(&topology) else {
        return Err(format!(
            "flag --topology: unknown topology '{topology}' (p2p|line|ring|fully|switch)"
        ));
    };
    if devices == 0 {
        return Err("flag --devices: device count must be >= 1".to_owned());
    }
    if devices >= 2 && !topo.supports_devices(devices) {
        return Err(format!(
            "flag --topology: {topology} does not support {devices} devices"
        ));
    }
    Ok((devices, topology))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad GPU names,
/// malformed flags, or a flag the command does not read.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let flags = Flags::new(&args[1..]);
    let command = parse_command(cmd, &flags)?;
    match flags.first_unread() {
        Some(flag) => Err(format!("unknown flag {flag} for `{cmd}`")),
        None => Ok(command),
    }
}

/// Builds `cmd` from its arguments, looking up the flags it reads.
fn parse_command(cmd: &str, flags: &Flags<'_>) -> Result<Command, String> {
    let rest = flags.args;
    if cmd == "stats" {
        let path = rest
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| "stats needs a metrics JSON path".to_owned())?;
        return Ok(Command::Stats { path: path.clone() });
    }
    let gpu_positional = || -> Result<GpuChoice, String> {
        rest.first()
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| "missing GPU argument".to_owned())
            .and_then(|s| GpuChoice::parse(s))
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info {
            gpu: gpu_positional()?,
        }),
        "latency" => Ok(Command::Latency {
            gpu: gpu_positional()?,
            sm: flags.parse_num("--sm", 24u32)?,
            seed: flags.parse_num("--seed", 0u64)?,
        }),
        "bandwidth" => Ok(Command::Bandwidth {
            gpu: gpu_positional()?,
            seed: flags.parse_num("--seed", 0u64)?,
        }),
        "placement" => Ok(Command::Placement {
            gpu: gpu_positional()?,
            seed: flags.parse_num("--seed", 0u64)?,
        }),
        "attack" => {
            let kind = match rest.first().map(String::as_str) {
                Some("aes") => AttackKind::Aes,
                Some("rsa") => AttackKind::Rsa,
                other => return Err(format!("attack needs aes|rsa, got {other:?}")),
            };
            let gpu = match flags.value_of("--gpu")? {
                Some(g) => GpuChoice::parse(g)?,
                None => GpuChoice::A100,
            };
            let scheduler = if flags.has("--defend") {
                CtaScheduler::RandomSeed
            } else {
                CtaScheduler::Static
            };
            Ok(Command::Attack {
                kind,
                gpu,
                scheduler,
                seed: flags.parse_num("--seed", 42u64)?,
            })
        }
        "mesh" => {
            let age_based = match flags.value_of("--arbiter")? {
                None | Some("rr") => false,
                Some("age") => true,
                Some(other) => return Err(format!("unknown arbiter '{other}' (rr|age)")),
            };
            let (devices, topology) = parse_fabric_flags(flags, 1)?;
            Ok(Command::Mesh {
                age_based,
                seed: flags.parse_num("--seed", 1u64)?,
                transfers: flags.parse_num("--transfers", 2000usize)?,
                self_heal: flags.has("--self-heal"),
                devices,
                topology,
            })
        }
        "fabric" => {
            let (devices, topology) = parse_fabric_flags(flags, 2)?;
            if devices < 2 {
                return Err(
                    "fabric needs --devices >= 2 (use `gnoc mesh` for a single die)".to_owned(),
                );
            }
            Ok(Command::Fabric {
                devices,
                topology,
                width: flags.parse_num("--width", 5u32)?,
                height: flags.parse_num("--height", 5u32)?,
                seed: flags.parse_num("--seed", 1u64)?,
                transfers: flags.parse_num("--transfers", 256usize)?,
                cycles: flags.parse_num("--cycles", 60_000u64)?,
                self_heal: flags.has("--self-heal"),
            })
        }
        "memsim" => Ok(Command::Memsim {
            provisioned: flags.has("--provisioned"),
            seed: flags.parse_num("--seed", 1u64)?,
        }),
        "covert" => {
            let gpu = match flags.value_of("--gpu")? {
                Some(g) => GpuChoice::parse(g)?,
                None => GpuChoice::A100,
            };
            Ok(Command::Covert {
                gpu,
                far: flags.has("--far"),
                seed: flags.parse_num("--seed", 0u64)?,
            })
        }
        "replay" => {
            let workload = match rest.first().map(String::as_str) {
                Some("bfs") => WorkloadKind::Bfs,
                Some("gaussian") => WorkloadKind::Gaussian,
                other => return Err(format!("replay needs bfs|gaussian, got {other:?}")),
            };
            let gpu = match flags.value_of("--gpu")? {
                Some(g) => GpuChoice::parse(g)?,
                None => GpuChoice::V100,
            };
            Ok(Command::Replay {
                workload,
                gpu,
                random: flags.has("--random"),
                blocks: flags.parse_num("--blocks", 64usize)?,
            })
        }
        "campaign" => {
            let defaults = LatencyProbe::default();
            Ok(Command::Campaign {
                gpu: gpu_positional()?,
                seed: flags.parse_num("--seed", 0u64)?,
                checkpoint: flags.value_of("--checkpoint")?.map(str::to_owned),
                lines: flags.parse_num("--lines", defaults.working_set_lines)?,
                samples: flags.parse_num("--samples", defaults.samples)?,
                quarantine: match flags.value_of("--quarantine-sms")? {
                    Some(list) => parse_sm_list(list)?,
                    None => Vec::new(),
                },
                deadline_rows: match flags.value_of("--deadline-rows")? {
                    Some(v) => Some(v.parse().map_err(|_| {
                        format!("flag --deadline-rows: '{v}' is not a valid row count")
                    })?),
                    None => None,
                },
            })
        }
        "health" => {
            let device = match flags.value_of("--device")? {
                None | Some("none") => None,
                Some(g) => Some(GpuChoice::parse(g)?),
            };
            Ok(Command::Health {
                width: flags.parse_num("--width", 6u32)?,
                height: flags.parse_num("--height", 6u32)?,
                cycles: flags.parse_num("--cycles", 20_000u64)?,
                device,
                windows: flags.parse_num("--windows", 16u64)?,
                seed: flags.parse_num("--seed", 0u64)?,
            })
        }
        "faults" => {
            let action = match rest.first().map(String::as_str) {
                Some("gen") => {
                    let out = flags
                        .value_of("--out")?
                        .ok_or_else(|| "faults gen needs --out <plan.json>".to_owned())?
                        .to_owned();
                    FaultsAction::Gen {
                        out,
                        cfg: FaultGenConfig {
                            seed: flags.parse_num("--seed", 1u64)?,
                            width: flags.parse_num("--width", 6u32)?,
                            height: flags.parse_num("--height", 6u32)?,
                            dead_link_fraction: flags.parse_num("--dead-frac", 0.0f64)?,
                            flaky_links: flags.parse_num("--flaky", 0u32)?,
                            flaky_drop_prob: flags.parse_num("--flaky-prob", 0.01f64)?,
                            stalled_routers: flags.parse_num("--stalls", 0u32)?,
                            stall_duration: flags.parse_num("--stall-cycles", 256u64)?,
                            transient_drop_prob: flags.parse_num("--drop-prob", 0.0f64)?,
                            transient_corrupt_prob: flags.parse_num("--corrupt-prob", 0.0f64)?,
                            onset: flags.parse_num("--onset", 0u64)?,
                            onset_storm_span: flags.parse_num("--storm-span", 0u64)?,
                            region: match flags.parse_num("--region-radius", 0u32)? {
                                0 => None,
                                radius => Some(RegionFault {
                                    center: flags.parse_num("--region-center", 0u32)?,
                                    radius,
                                    dead_fraction: flags.parse_num("--region-frac", 0.5f64)?,
                                }),
                            },
                            burst: match flags.parse_num("--burst", 0u32)? {
                                0 => None,
                                links => Some(FlakyBurst {
                                    links,
                                    drop_prob: flags.parse_num("--burst-prob", 0.25f64)?,
                                    onset: flags.parse_num("--burst-onset", 0u64)?,
                                }),
                            },
                            num_slices: flags.parse_num("--slices", 0u32)?,
                            disabled_slice_count: flags.parse_num("--disable-slices", 0u32)?,
                            sweep: None,
                            devices: flags.parse_num("--devices", 0u32)?,
                            fabric_topology: match flags.value_of("--topology")? {
                                None => FabricTopology::Ring,
                                Some(s) => FabricTopology::parse(s).ok_or_else(|| {
                                    format!(
                                        "flag --topology: unknown topology '{s}' \
                                         (p2p|line|ring|fully|switch)"
                                    )
                                })?,
                            },
                            dead_fabric_links: flags.parse_num("--dead-fabric-links", 0u32)?,
                            flaky_fabric_links: flags.parse_num("--flaky-fabric-links", 0u32)?,
                            fabric_flaky_drop_prob: flags
                                .parse_num("--fabric-flaky-prob", 0.25f64)?,
                            dead_devices: flags.parse_num("--dead-devices", 0u32)?,
                            dead_switch: flags.has("--dead-switch"),
                        },
                    }
                }
                Some("check") => {
                    let path = rest
                        .get(1)
                        .filter(|a| !a.starts_with("--"))
                        .ok_or_else(|| "faults check needs a plan path".to_owned())?
                        .clone();
                    let (devices, topology) = parse_fabric_flags(flags, 1)?;
                    FaultsAction::Check {
                        path,
                        width: flags.parse_num("--width", 6u32)?,
                        height: flags.parse_num("--height", 6u32)?,
                        slices: flags.parse_num("--slices", 0u32).map(|n| match n {
                            0 => None,
                            n => Some(n),
                        })?,
                        devices,
                        topology,
                    }
                }
                other => return Err(format!("faults needs gen|check, got {other:?}")),
            };
            Ok(Command::Faults { action })
        }
        "chaos" => {
            let action = match rest.first().map(String::as_str) {
                Some("run") => {
                    let defaults = ChaosConfig::default();
                    let device = match flags.value_of("--device")? {
                        None => defaults.device.clone(),
                        Some("none") => None,
                        Some(g) => Some(GpuChoice::parse(g)?.preset_name().to_owned()),
                    };
                    let (devices, topology) = parse_fabric_flags(flags, defaults.devices)?;
                    ChaosAction::Run {
                        seeds: match flags.value_of("--seeds")? {
                            Some(s) => parse_seed_range(s)?,
                            None => 0..25,
                        },
                        cfg: ChaosConfig {
                            width: flags.parse_num("--width", defaults.width)?,
                            height: flags.parse_num("--height", defaults.height)?,
                            transfers: flags.parse_num("--transfers", defaults.transfers)?,
                            soak_cycle_budget: flags
                                .parse_num("--cycles", defaults.soak_cycle_budget)?,
                            device,
                            device_every: flags
                                .parse_num("--device-every", defaults.device_every)?,
                            probe_lines: flags.parse_num("--lines", defaults.probe_lines)?,
                            probe_samples: flags.parse_num("--samples", defaults.probe_samples)?,
                            retry: defaults.retry,
                            greedy_reroute_bug: flags.has("--greedy-bug"),
                            fabric_stuck_crossing_bug: flags.has("--fabric-stuck-bug"),
                            detection: flags.has("--detect"),
                            replay: flags.has("--replay"),
                            devices,
                            topology,
                        },
                        state: flags.value_of("--state")?.map(str::to_owned),
                        report: flags.value_of("--report")?.map(str::to_owned),
                        repro_dir: flags.value_of("--repro-dir")?.map(str::to_owned),
                        wall_ms: match flags.value_of("--wall-ms")? {
                            Some(v) => Some(v.parse().map_err(|_| {
                                format!("flag --wall-ms: '{v}' is not a valid number")
                            })?),
                            None => None,
                        },
                        no_shrink: flags.has("--no-shrink"),
                    }
                }
                Some("replay") => ChaosAction::Replay {
                    repro: flags
                        .value_of("--repro")?
                        .ok_or_else(|| "chaos replay needs --repro <repro.json>".to_owned())?
                        .to_owned(),
                },
                Some("shrink") => ChaosAction::Shrink {
                    repro: flags
                        .value_of("--repro")?
                        .ok_or_else(|| "chaos shrink needs --repro <repro.json>".to_owned())?
                        .to_owned(),
                    out: flags.value_of("--out")?.map(str::to_owned),
                },
                other => return Err(format!("chaos needs run|replay|shrink, got {other:?}")),
            };
            Ok(Command::Chaos { action })
        }
        "trace" => {
            // replay/validate/info take the trace path positionally, after
            // the verb.
            let trace_positional = |verb: &str| -> Result<String, String> {
                rest.get(1)
                    .filter(|a| !a.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("trace {verb} needs a trace file path"))
            };
            let action = match rest.first().map(String::as_str) {
                Some("record") => {
                    let out = flags
                        .value_of("--out")?
                        .ok_or_else(|| "trace record needs --out <run.trace>".to_owned())?
                        .to_owned();
                    let stats = flags.value_of("--stats")?.map(str::to_owned);
                    let target = match rest.get(1).map(String::as_str) {
                        Some("mesh") => TraceTarget::Mesh {
                            seed: flags.parse_num("--seed", 1u64)?,
                            transfers: flags.parse_num("--transfers", 2000usize)?,
                        },
                        Some("fabric") => {
                            let (devices, topology) = parse_fabric_flags(flags, 2)?;
                            if devices < 2 {
                                return Err("trace record fabric needs --devices >= 2 \
                                     (use `trace record mesh` for a single die)"
                                    .to_owned());
                            }
                            TraceTarget::Fabric {
                                devices,
                                topology,
                                width: flags.parse_num("--width", 5u32)?,
                                height: flags.parse_num("--height", 5u32)?,
                                seed: flags.parse_num("--seed", 1u64)?,
                                transfers: flags.parse_num("--transfers", 256usize)?,
                                cycles: flags.parse_num("--cycles", 60_000u64)?,
                            }
                        }
                        Some("campaign") => {
                            let defaults = LatencyProbe::default();
                            TraceTarget::Campaign {
                                gpu: rest
                                    .get(2)
                                    .filter(|a| !a.starts_with("--"))
                                    .ok_or_else(|| {
                                        "trace record campaign needs a GPU argument".to_owned()
                                    })
                                    .and_then(|s| GpuChoice::parse(s))?,
                                seed: flags.parse_num("--seed", 0u64)?,
                                lines: flags.parse_num("--lines", defaults.working_set_lines)?,
                                samples: flags.parse_num("--samples", defaults.samples)?,
                            }
                        }
                        other => {
                            return Err(format!(
                                "trace record needs mesh|fabric|campaign, got {other:?}"
                            ))
                        }
                    };
                    TraceAction::Record { target, out, stats }
                }
                Some("replay") => TraceAction::Replay {
                    path: trace_positional("replay")?,
                    stats: flags.value_of("--stats")?.map(str::to_owned),
                },
                Some("validate") => TraceAction::Validate {
                    path: trace_positional("validate")?,
                },
                Some("info") => TraceAction::Info {
                    path: trace_positional("info")?,
                },
                other => {
                    return Err(format!(
                        "trace needs record|replay|validate|info, got {other:?}"
                    ))
                }
            };
            Ok(Command::Trace { action })
        }
        "profile" => {
            let age_based = match flags.value_of("--arbiter")? {
                None | Some("rr") => false,
                Some("age") => true,
                Some(other) => return Err(format!("unknown arbiter '{other}' (rr|age)")),
            };
            let (devices, topology) = parse_fabric_flags(flags, 1)?;
            let width = flags.parse_num("--width", 6u32)?;
            let height = flags.parse_num("--height", 6u32)?;
            if devices < 2 && u64::from(width) * u64::from(height) < 2 {
                return Err(
                    "flag --width/--height: a single die needs two nodes to exchange traffic"
                        .to_owned(),
                );
            }
            Ok(Command::Profile {
                width,
                height,
                age_based,
                seed: flags.parse_num("--seed", 1u64)?,
                transfers: flags.parse_num("--transfers", 2000usize)?,
                slowest: flags.parse_num("--slowest", 5usize)?,
                report: flags.value_of("--report")?.map(str::to_owned),
                perfetto: flags.value_of("--perfetto")?.map(str::to_owned),
                jsonl: flags.value_of("--jsonl")?.map(str::to_owned),
                svg: flags.value_of("--svg")?.map(str::to_owned),
                devices,
                topology,
            })
        }
        "loadcurve" => {
            let crossbar = match flags.value_of("--net")? {
                None | Some("mesh") => false,
                Some("xbar") => true,
                Some(other) => return Err(format!("unknown network '{other}' (mesh|xbar)")),
            };
            Ok(Command::LoadCurve {
                crossbar,
                seed: flags.parse_num("--seed", 1u64)?,
            })
        }
        "serve" => {
            let state = flags
                .value_of("--state")?
                .ok_or_else(|| "serve needs --state <dir>".to_owned())?
                .to_owned();
            let socket = flags.value_of("--socket")?.map(str::to_owned);
            if socket.is_none() && !flags.has("--stdin") {
                return Err("serve needs --socket <path> or --stdin".to_owned());
            }
            if socket.is_some() && flags.has("--stdin") {
                return Err("serve takes --socket or --stdin, not both".to_owned());
            }
            Ok(Command::Serve {
                state,
                socket,
                queue_cap: flags.parse_num("--queue-cap", 16usize)?,
                session_cap: flags.parse_num("--session-cap", 8usize)?,
                max_rows: flags.parse_num("--max-rows", 0usize)?,
                max_seeds: flags.parse_num("--max-seeds", 0u64)?,
                max_transfers: flags.parse_num("--max-transfers", 0usize)?,
                row_delay_ms: flags.parse_num("--row-delay-ms", 0u64)?,
            })
        }
        "submit" => {
            let socket = flags
                .value_of("--socket")?
                .ok_or_else(|| "submit needs --socket <path>".to_owned())?
                .to_owned();
            let what = if let Some(raw) = flags.value_of("--json")? {
                SubmitWhat::Raw(raw.to_owned())
            } else {
                let op = rest
                    .first()
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| {
                        "submit needs campaign|mesh|chaos|fabric|replay|health|shutdown or --json"
                            .to_owned()
                    })?;
                match op.as_str() {
                    "campaign" => SubmitWhat::Campaign {
                        gpu: rest
                            .get(1)
                            .filter(|a| !a.starts_with("--"))
                            .ok_or_else(|| "submit campaign needs a GPU argument".to_owned())
                            .and_then(|s| GpuChoice::parse(s))?,
                        seed: flags.parse_num("--seed", 0u64)?,
                        lines: flags.parse_num("--lines", 8usize)?,
                        samples: flags.parse_num("--samples", 12usize)?,
                        deadline_rows: flags
                            .value_of("--deadline-rows")?
                            .map(|v| {
                                v.parse().map_err(|_| {
                                    format!("flag --deadline-rows: '{v}' is not a valid number")
                                })
                            })
                            .transpose()?,
                    },
                    "mesh" => SubmitWhat::Mesh {
                        seed: flags.parse_num("--seed", 1u64)?,
                        transfers: flags.parse_num("--transfers", 200usize)?,
                    },
                    "chaos" => SubmitWhat::Chaos {
                        seed_start: flags.parse_num("--seed-start", 0u64)?,
                        seed_count: flags.parse_num("--seed-count", 4u64)?,
                        transfers: flags.parse_num("--transfers", 64u32)?,
                    },
                    "fabric" => SubmitWhat::Fabric {
                        devices: flags.parse_num("--devices", 2u32)?,
                        topology: flags
                            .value_of("--topology")?
                            .unwrap_or("ring")
                            .to_owned(),
                        seed: flags.parse_num("--seed", 0u64)?,
                        transfers: flags.parse_num("--transfers", 64usize)?,
                    },
                    "replay" => SubmitWhat::Replay {
                        trace: rest
                            .get(1)
                            .filter(|a| !a.starts_with("--"))
                            .ok_or_else(|| "submit replay needs a trace file path".to_owned())?
                            .clone(),
                    },
                    "health" => SubmitWhat::Health,
                    "shutdown" => SubmitWhat::Shutdown,
                    other => {
                        return Err(format!(
                            "submit: unknown request '{other}' (campaign|mesh|chaos|fabric|replay|health|shutdown)"
                        ))
                    }
                }
            };
            Ok(Command::Submit {
                socket,
                what,
                payload_out: flags.value_of("--payload-out")?.map(str::to_owned),
                summary: flags.has("--summary"),
            })
        }
        "batch" => {
            let file = rest
                .first()
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "batch needs a request file".to_owned())?
                .clone();
            let socket = flags
                .value_of("--socket")?
                .ok_or_else(|| "batch needs --socket <path>".to_owned())?
                .to_owned();
            Ok(Command::Batch { socket, file })
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// Parses an argument vector, first extracting the global flags
/// (`--trace`, `--metrics`, `--faults`, `--jobs`, `--profile`,
/// `--engine`) — accepted anywhere on the line — then delegating the
/// remainder to [`parse`].
///
/// # Errors
///
/// Returns a human-readable message for a global flag without a value or
/// given more than once, or any [`parse`] error.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, String> {
    let mut trace = None;
    let mut metrics = None;
    let mut faults = None;
    let mut jobs = None;
    let mut profile = None;
    let mut engine = None;
    let mut remaining: Vec<String> = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let given = match a.as_str() {
            "--engine" => engine.is_some(),
            "--jobs" => jobs.is_some(),
            "--trace" => trace.is_some(),
            "--metrics" => metrics.is_some(),
            "--faults" => faults.is_some(),
            "--profile" => profile.is_some(),
            _ => {
                remaining.push(a.clone());
                continue;
            }
        };
        if given {
            return Err(format!("flag {a} given more than once"));
        }
        if a == "--engine" {
            match it.next().map(String::as_str) {
                Some("cycle") => engine = Some(Engine::Cycle),
                Some("event") => engine = Some(Engine::Event),
                Some(v) if !v.starts_with("--") => {
                    return Err(format!("flag --engine: '{v}' is not 'cycle' or 'event'"));
                }
                _ => return Err("flag --engine needs 'cycle' or 'event'".to_owned()),
            }
            continue;
        }
        if a == "--jobs" {
            match it.next() {
                Some(v) if !v.starts_with("--") => {
                    jobs =
                        Some(v.parse::<usize>().map_err(|_| {
                            format!("flag --jobs: '{v}' is not a valid worker count")
                        })?);
                }
                _ => return Err("flag --jobs needs a worker count".to_owned()),
            }
            continue;
        }
        let slot = match a.as_str() {
            "--trace" => &mut trace,
            "--metrics" => &mut metrics,
            "--faults" => &mut faults,
            _ => &mut profile,
        };
        match it.next() {
            Some(v) if !v.starts_with("--") => *slot = Some(v.clone()),
            _ => return Err(format!("flag {a} needs a file path")),
        }
    }
    Ok(Invocation {
        command: parse(&remaining)?,
        trace,
        metrics,
        faults,
        jobs,
        profile,
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn info_parses_gpu_case_insensitively() {
        assert_eq!(
            parse(&argv("info V100")).unwrap(),
            Command::Info {
                gpu: GpuChoice::V100
            }
        );
        assert!(parse(&argv("info rtx5090")).is_err());
        assert!(parse(&argv("info")).is_err());
    }

    #[test]
    fn latency_defaults_and_flags() {
        assert_eq!(
            parse(&argv("latency a100")).unwrap(),
            Command::Latency {
                gpu: GpuChoice::A100,
                sm: 24,
                seed: 0
            }
        );
        assert_eq!(
            parse(&argv("latency h100 --sm 7 --seed 99")).unwrap(),
            Command::Latency {
                gpu: GpuChoice::H100,
                sm: 7,
                seed: 99
            }
        );
        assert!(parse(&argv("latency v100 --sm")).is_err());
        assert!(parse(&argv("latency v100 --sm abc")).is_err());
    }

    #[test]
    fn attack_flags() {
        let c = parse(&argv("attack aes --defend --gpu v100")).unwrap();
        assert_eq!(
            c,
            Command::Attack {
                kind: AttackKind::Aes,
                gpu: GpuChoice::V100,
                scheduler: CtaScheduler::RandomSeed,
                seed: 42,
            }
        );
        let c = parse(&argv("attack rsa")).unwrap();
        assert!(matches!(
            c,
            Command::Attack {
                kind: AttackKind::Rsa,
                scheduler: CtaScheduler::Static,
                ..
            }
        ));
        assert!(parse(&argv("attack des")).is_err());
    }

    #[test]
    fn mesh_arbiter_choices() {
        assert_eq!(
            parse(&argv("mesh --arbiter age")).unwrap(),
            Command::Mesh {
                age_based: true,
                seed: 1,
                transfers: 2000,
                self_heal: false,
                devices: 1,
                topology: "ring".to_owned(),
            }
        );
        assert_eq!(
            parse(&argv("mesh --transfers 500 --self-heal")).unwrap(),
            Command::Mesh {
                age_based: false,
                seed: 1,
                transfers: 500,
                self_heal: true,
                devices: 1,
                topology: "ring".to_owned(),
            }
        );
        assert!(parse(&argv("mesh --arbiter fifo")).is_err());
    }

    #[test]
    fn mesh_multi_device_flags_parse_and_validate() {
        let c = parse(&argv("mesh --devices 4 --topology switch")).unwrap();
        let Command::Mesh {
            devices, topology, ..
        } = c
        else {
            panic!("expected mesh, got {c:?}");
        };
        assert_eq!((devices, topology.as_str()), (4, "switch"));
        assert!(parse(&argv("mesh --devices 0")).is_err());
        assert!(parse(&argv("mesh --topology moebius")).is_err());
        assert!(
            parse(&argv("mesh --devices 3 --topology p2p")).is_err(),
            "p2p supports exactly two devices"
        );
    }

    #[test]
    fn fabric_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("fabric")).unwrap(),
            Command::Fabric {
                devices: 2,
                topology: "ring".to_owned(),
                width: 5,
                height: 5,
                seed: 1,
                transfers: 256,
                cycles: 60_000,
                self_heal: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "fabric --devices 4 --topology fully --width 4 --height 3 \
                 --seed 7 --transfers 64 --cycles 9000 --self-heal"
            ))
            .unwrap(),
            Command::Fabric {
                devices: 4,
                topology: "fully".to_owned(),
                width: 4,
                height: 3,
                seed: 7,
                transfers: 64,
                cycles: 9_000,
                self_heal: true,
            }
        );
        assert!(parse(&argv("fabric --devices 1")).is_err());
        assert!(parse(&argv("fabric --topology star")).is_err());
        assert!(USAGE.contains("gnoc fabric"));
        assert!(USAGE.contains("MULTI-GPU FABRIC"));
    }

    #[test]
    fn memsim_provisioned_toggle() {
        assert_eq!(
            parse(&argv("memsim --provisioned --seed 5")).unwrap(),
            Command::Memsim {
                provisioned: true,
                seed: 5
            }
        );
    }

    #[test]
    fn flags_the_command_does_not_read_are_rejected() {
        let err = parse(&argv("memsim --provisoned")).unwrap_err();
        assert!(err.contains("--provisoned"), "{err}");
        assert!(parse(&argv("stats m.json --seed 1")).is_err());
        assert!(parse(&argv("faults gen --out p.json --region-center 3")).is_err());
        assert!(parse(&argv(
            "faults gen --out p.json --region-radius 1 --region-center 3"
        ))
        .is_ok());
    }

    #[test]
    fn covert_and_replay_and_loadcurve_parse() {
        assert_eq!(
            parse(&argv("covert --far")).unwrap(),
            Command::Covert {
                gpu: GpuChoice::A100,
                far: true,
                seed: 0
            }
        );
        assert_eq!(
            parse(&argv("replay bfs --random --blocks 12")).unwrap(),
            Command::Replay {
                workload: WorkloadKind::Bfs,
                gpu: GpuChoice::V100,
                random: true,
                blocks: 12
            }
        );
        assert!(parse(&argv("replay sort")).is_err());
        assert_eq!(
            parse(&argv("loadcurve --net xbar")).unwrap(),
            Command::LoadCurve {
                crossbar: true,
                seed: 1
            }
        );
        assert!(parse(&argv("loadcurve --net ring")).is_err());
    }

    #[test]
    fn unknown_command_includes_usage() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn stats_needs_a_path() {
        assert_eq!(
            parse(&argv("stats out/metrics.json")).unwrap(),
            Command::Stats {
                path: "out/metrics.json".to_owned()
            }
        );
        assert!(parse(&argv("stats")).is_err());
        assert!(parse(&argv("stats --trace")).is_err());
    }

    #[test]
    fn floorswept_presets_parse() {
        assert_eq!(
            parse(&argv("info a100full")).unwrap(),
            Command::Info {
                gpu: GpuChoice::A100Full
            }
        );
        assert_eq!(
            parse(&argv("info A100FS")).unwrap(),
            Command::Info {
                gpu: GpuChoice::A100Fs
            }
        );
        assert_eq!(GpuChoice::A100Fs.preset_name(), "a100fs");
    }

    #[test]
    fn campaign_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("campaign a100fs")).unwrap(),
            Command::Campaign {
                gpu: GpuChoice::A100Fs,
                seed: 0,
                checkpoint: None,
                lines: 8,
                samples: 12,
                quarantine: vec![],
                deadline_rows: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "campaign v100 --seed 7 --checkpoint ck.json --lines 2 --samples 3"
            ))
            .unwrap(),
            Command::Campaign {
                gpu: GpuChoice::V100,
                seed: 7,
                checkpoint: Some("ck.json".to_owned()),
                lines: 2,
                samples: 3,
                quarantine: vec![],
                deadline_rows: None,
            }
        );
        assert!(parse(&argv("campaign")).is_err());
        assert!(parse(&argv("campaign b200")).is_err());
    }

    #[test]
    fn campaign_degraded_flags_parse() {
        let c = parse(&argv(
            "campaign v100 --quarantine-sms 3,17,40 --deadline-rows 30",
        ))
        .unwrap();
        let Command::Campaign {
            quarantine,
            deadline_rows,
            ..
        } = c
        else {
            panic!("expected campaign, got {c:?}");
        };
        assert_eq!(quarantine, vec![3, 17, 40]);
        assert_eq!(deadline_rows, Some(30));
        assert!(parse(&argv("campaign v100 --quarantine-sms 3,x")).is_err());
        assert!(parse(&argv("campaign v100 --deadline-rows soon")).is_err());
    }

    #[test]
    fn health_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("health")).unwrap(),
            Command::Health {
                width: 6,
                height: 6,
                cycles: 20_000,
                device: None,
                windows: 16,
                seed: 0,
            }
        );
        assert_eq!(
            parse(&argv(
                "health --width 5 --height 4 --cycles 9000 --device v100 --windows 8 --seed 3"
            ))
            .unwrap(),
            Command::Health {
                width: 5,
                height: 4,
                cycles: 9_000,
                device: Some(GpuChoice::V100),
                windows: 8,
                seed: 3,
            }
        );
        assert!(parse(&argv("health --device b200")).is_err());
    }

    #[test]
    fn chaos_detect_flag_parses() {
        let c = parse(&argv("chaos run --detect")).unwrap();
        let Command::Chaos {
            action: ChaosAction::Run { cfg, .. },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert!(cfg.detection);
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let codes = [EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID_INPUT, EXIT_IO];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(USAGE.contains("EXIT CODES"));
        assert!(USAGE.contains("--self-heal"));
        assert!(USAGE.contains("gnoc health"));
    }

    #[test]
    fn faults_gen_and_check_parse() {
        let c = parse(&argv(
            "faults gen --out plan.json --seed 9 --dead-frac 0.02 --flaky 2 --stalls 1",
        ))
        .unwrap();
        let Command::Faults {
            action: FaultsAction::Gen { out, cfg },
        } = c
        else {
            panic!("expected faults gen, got {c:?}");
        };
        assert_eq!(out, "plan.json");
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.width, 6);
        assert_eq!(cfg.dead_link_fraction, 0.02);
        assert_eq!(cfg.flaky_links, 2);
        assert_eq!(cfg.stalled_routers, 1);

        assert_eq!(
            parse(&argv(
                "faults check plan.json --width 8 --height 8 --slices 40"
            ))
            .unwrap(),
            Command::Faults {
                action: FaultsAction::Check {
                    path: "plan.json".to_owned(),
                    width: 8,
                    height: 8,
                    slices: Some(40),
                    devices: 1,
                    topology: "ring".to_owned(),
                }
            }
        );
        assert!(parse(&argv("faults gen")).is_err(), "--out is required");
        assert!(parse(&argv("faults check")).is_err());
        assert!(parse(&argv("faults list")).is_err());
    }

    #[test]
    fn faults_gen_and_check_take_fabric_knobs() {
        let c = parse(&argv(
            "faults gen --out plan.json --devices 4 --topology switch \
             --dead-fabric-links 1 --flaky-fabric-links 2 --fabric-flaky-prob 0.1 \
             --dead-devices 1 --dead-switch",
        ))
        .unwrap();
        let Command::Faults {
            action: FaultsAction::Gen { cfg, .. },
        } = c
        else {
            panic!("expected faults gen, got {c:?}");
        };
        assert_eq!(cfg.devices, 4);
        assert_eq!(cfg.fabric_topology, FabricTopology::Switch);
        assert_eq!(cfg.dead_fabric_links, 1);
        assert_eq!(cfg.flaky_fabric_links, 2);
        assert_eq!(cfg.fabric_flaky_drop_prob, 0.1);
        assert_eq!(cfg.dead_devices, 1);
        assert!(cfg.dead_switch);

        // Single-die default: no fabric faults generated.
        let c = parse(&argv("faults gen --out plan.json")).unwrap();
        let Command::Faults {
            action: FaultsAction::Gen { cfg, .. },
        } = c
        else {
            panic!("expected faults gen, got {c:?}");
        };
        assert_eq!(cfg.devices, 0);
        assert!(parse(&argv("faults gen --out p.json --topology grid")).is_err());

        let c = parse(&argv("faults check plan.json --devices 4 --topology line")).unwrap();
        let Command::Faults {
            action: FaultsAction::Check {
                devices, topology, ..
            },
        } = c
        else {
            panic!("expected faults check, got {c:?}");
        };
        assert_eq!((devices, topology.as_str()), (4, "line"));
        assert!(parse(&argv("faults check plan.json --devices 3 --topology p2p")).is_err());
    }

    #[test]
    fn chaos_run_parses_with_defaults_and_flags() {
        let c = parse(&argv("chaos run")).unwrap();
        let Command::Chaos {
            action:
                ChaosAction::Run {
                    seeds,
                    cfg,
                    state,
                    report,
                    repro_dir,
                    wall_ms,
                    no_shrink,
                },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert_eq!(seeds, 0..25);
        assert_eq!(cfg, ChaosConfig::default());
        assert_eq!(cfg.device.as_deref(), Some("v100"));
        assert_eq!(
            (state, report, repro_dir, wall_ms),
            (None, None, None, None)
        );
        assert!(!no_shrink);

        let c = parse(&argv(
            "chaos run --seeds 5..9 --width 6 --height 6 --transfers 300 \
             --device a100fs --device-every 2 --state s.json --report r.json \
             --repro-dir repros --wall-ms 1500 --no-shrink",
        ))
        .unwrap();
        let Command::Chaos {
            action:
                ChaosAction::Run {
                    seeds,
                    cfg,
                    state,
                    report,
                    repro_dir,
                    wall_ms,
                    no_shrink,
                },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert_eq!(seeds, 5..9);
        assert_eq!((cfg.width, cfg.height, cfg.transfers), (6, 6, 300));
        assert_eq!(cfg.device.as_deref(), Some("a100fs"));
        assert_eq!(cfg.device_every, 2);
        assert_eq!(state.as_deref(), Some("s.json"));
        assert_eq!(report.as_deref(), Some("r.json"));
        assert_eq!(repro_dir.as_deref(), Some("repros"));
        assert_eq!(wall_ms, Some(1500));
        assert!(no_shrink);

        // `--device none` disables the campaign oracles entirely.
        let c = parse(&argv("chaos run --device none")).unwrap();
        let Command::Chaos {
            action: ChaosAction::Run { cfg, .. },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert_eq!(cfg.device, None);

        // Multi-device fuzzing: the fabric flags land in the config and the
        // combination is validated at parse time.
        let c = parse(&argv(
            "chaos run --devices 4 --topology ring --fabric-stuck-bug",
        ))
        .unwrap();
        let Command::Chaos {
            action: ChaosAction::Run { cfg, .. },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert_eq!(cfg.devices, 4);
        assert_eq!(cfg.topology, "ring");
        assert!(cfg.fabric_stuck_crossing_bug);
        assert!(parse(&argv("chaos run --devices 5 --topology p2p")).is_err());

        assert!(parse(&argv("chaos run --seeds 9..5")).is_err());
        assert!(parse(&argv("chaos run --seeds five")).is_err());
        assert!(parse(&argv("chaos run --device b200")).is_err());
        assert!(parse(&argv("chaos fuzz")).is_err());
        assert!(parse(&argv("chaos")).is_err());
    }

    #[test]
    fn chaos_replay_oracle_flag_parses() {
        let c = parse(&argv("chaos run --replay")).unwrap();
        let Command::Chaos {
            action: ChaosAction::Run { cfg, .. },
        } = c
        else {
            panic!("expected chaos run, got {c:?}");
        };
        assert!(cfg.replay);
        assert!(!ChaosConfig::default().replay, "replay is opt-in");
        assert!(USAGE.contains("--replay"));
    }

    #[test]
    fn trace_record_targets_parse_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("trace record mesh --out run.trace")).unwrap(),
            Command::Trace {
                action: TraceAction::Record {
                    target: TraceTarget::Mesh {
                        seed: 1,
                        transfers: 2000
                    },
                    out: "run.trace".to_owned(),
                    stats: None,
                }
            }
        );
        assert_eq!(
            parse(&argv(
                "trace record fabric --out f.trace --devices 4 --topology ring \
                 --width 4 --height 3 --seed 9 --transfers 64 --cycles 9000 \
                 --stats s.json"
            ))
            .unwrap(),
            Command::Trace {
                action: TraceAction::Record {
                    target: TraceTarget::Fabric {
                        devices: 4,
                        topology: "ring".to_owned(),
                        width: 4,
                        height: 3,
                        seed: 9,
                        transfers: 64,
                        cycles: 9_000,
                    },
                    out: "f.trace".to_owned(),
                    stats: Some("s.json".to_owned()),
                }
            }
        );
        assert_eq!(
            parse(&argv("trace record campaign v100 --out c.trace --seed 3")).unwrap(),
            Command::Trace {
                action: TraceAction::Record {
                    target: TraceTarget::Campaign {
                        gpu: GpuChoice::V100,
                        seed: 3,
                        lines: LatencyProbe::default().working_set_lines,
                        samples: LatencyProbe::default().samples,
                    },
                    out: "c.trace".to_owned(),
                    stats: None,
                }
            }
        );
        assert!(parse(&argv("trace record mesh")).is_err(), "--out required");
        assert!(parse(&argv("trace record campaign --out c.trace")).is_err());
        assert!(parse(&argv("trace record fabric --out f.trace --devices 1")).is_err());
        assert!(parse(&argv("trace record blender --out x.trace")).is_err());
    }

    #[test]
    fn trace_replay_validate_info_take_a_positional_path() {
        assert_eq!(
            parse(&argv("trace replay run.trace --stats s.json")).unwrap(),
            Command::Trace {
                action: TraceAction::Replay {
                    path: "run.trace".to_owned(),
                    stats: Some("s.json".to_owned()),
                }
            }
        );
        assert_eq!(
            parse(&argv("trace validate run.trace")).unwrap(),
            Command::Trace {
                action: TraceAction::Validate {
                    path: "run.trace".to_owned()
                }
            }
        );
        assert_eq!(
            parse(&argv("trace info run.trace")).unwrap(),
            Command::Trace {
                action: TraceAction::Info {
                    path: "run.trace".to_owned()
                }
            }
        );
        assert!(parse(&argv("trace replay")).is_err());
        assert!(parse(&argv("trace validate --stats s.json")).is_err());
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace erase run.trace")).is_err());
        assert!(USAGE.contains("gnoc trace"));
        assert!(USAGE.contains("TRACE RECORD/REPLAY"));
    }

    #[test]
    fn chaos_replay_and_shrink_need_a_reproducer() {
        assert_eq!(
            parse(&argv("chaos replay --repro r.json")).unwrap(),
            Command::Chaos {
                action: ChaosAction::Replay {
                    repro: "r.json".to_owned()
                }
            }
        );
        assert!(parse(&argv("chaos replay")).is_err());
        assert_eq!(
            parse(&argv("chaos shrink --repro r.json --out min.json")).unwrap(),
            Command::Chaos {
                action: ChaosAction::Shrink {
                    repro: "r.json".to_owned(),
                    out: Some("min.json".to_owned()),
                }
            }
        );
        assert!(parse(&argv("chaos shrink")).is_err());
    }

    #[test]
    fn faults_global_flag_is_extracted() {
        let inv = parse_invocation(&argv("latency a100fs --faults plan.json --sm 3")).unwrap();
        assert_eq!(inv.faults.as_deref(), Some("plan.json"));
        assert_eq!(
            inv.command,
            Command::Latency {
                gpu: GpuChoice::A100Fs,
                sm: 3,
                seed: 0
            }
        );
        assert!(parse_invocation(&argv("mesh --faults")).is_err());
    }

    #[test]
    fn global_flags_are_extracted_anywhere() {
        let inv = parse_invocation(&argv(
            "latency v100 --trace t.jsonl --sm 7 --metrics m.json",
        ))
        .unwrap();
        assert_eq!(inv.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(inv.metrics.as_deref(), Some("m.json"));
        assert_eq!(
            inv.command,
            Command::Latency {
                gpu: GpuChoice::V100,
                sm: 7,
                seed: 0
            }
        );

        let plain = parse_invocation(&argv("memsim --provisioned")).unwrap();
        assert_eq!(plain.trace, None);
        assert_eq!(plain.metrics, None);

        assert!(parse_invocation(&argv("memsim --trace")).is_err());
        assert!(parse_invocation(&argv("memsim --trace --metrics m.json")).is_err());
    }

    #[test]
    fn profile_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("profile")).unwrap(),
            Command::Profile {
                width: 6,
                height: 6,
                age_based: false,
                seed: 1,
                transfers: 2000,
                slowest: 5,
                report: None,
                perfetto: None,
                jsonl: None,
                svg: None,
                devices: 1,
                topology: "ring".to_owned(),
            }
        );
        assert_eq!(
            parse(&argv(
                "profile --width 4 --height 3 --arbiter age --seed 9 --transfers 64 \
                 --slowest 2 --report p.json --perfetto t.json --jsonl e.jsonl --svg u.svg \
                 --devices 3 --topology line"
            ))
            .unwrap(),
            Command::Profile {
                width: 4,
                height: 3,
                age_based: true,
                seed: 9,
                transfers: 64,
                slowest: 2,
                report: Some("p.json".to_owned()),
                perfetto: Some("t.json".to_owned()),
                jsonl: Some("e.jsonl".to_owned()),
                svg: Some("u.svg".to_owned()),
                devices: 3,
                topology: "line".to_owned(),
            }
        );
        assert!(parse(&argv("profile --arbiter fifo")).is_err());
        assert!(parse(&argv("profile --transfers lots")).is_err());
        assert!(parse(&argv("profile --devices 3 --topology p2p")).is_err());
    }

    #[test]
    fn profile_global_flag_is_extracted_anywhere() {
        let inv = parse_invocation(&argv("mesh --profile p.json --transfers 40")).unwrap();
        assert_eq!(inv.profile.as_deref(), Some("p.json"));
        assert_eq!(
            inv.command,
            Command::Mesh {
                age_based: false,
                seed: 1,
                transfers: 40,
                self_heal: false,
                devices: 1,
                topology: "ring".to_owned(),
            }
        );
        let inv = parse_invocation(&argv("--profile p.json chaos run --seeds 0..2")).unwrap();
        assert_eq!(inv.profile.as_deref(), Some("p.json"));
        assert!(matches!(inv.command, Command::Chaos { .. }));
        assert!(parse_invocation(&argv("mesh --profile")).is_err());
        assert!(USAGE.contains("gnoc profile"));
        assert!(USAGE.contains("--profile <file.json>"));
    }

    #[test]
    fn engine_global_flag_parses_anywhere_and_validates() {
        let inv = parse_invocation(&argv("mesh --engine cycle --transfers 40")).unwrap();
        assert_eq!(inv.engine, Some(Engine::Cycle));
        assert!(matches!(inv.command, Command::Mesh { transfers: 40, .. }));
        let inv = parse_invocation(&argv("--engine event chaos run --seeds 0..2")).unwrap();
        assert_eq!(inv.engine, Some(Engine::Event));
        let inv = parse_invocation(&argv("mesh")).unwrap();
        assert_eq!(inv.engine, None);
        assert!(parse_invocation(&argv("mesh --engine")).is_err());
        assert!(parse_invocation(&argv("mesh --engine turbo")).is_err());
        assert!(USAGE.contains("--engine <cycle|event>"));
    }

    #[test]
    fn jobs_global_flag_parses_anywhere_and_validates() {
        let inv = parse_invocation(&argv("campaign v100 --jobs 4 --seed 2")).unwrap();
        assert_eq!(inv.jobs, Some(4));
        assert_eq!(
            inv.command,
            Command::Campaign {
                gpu: GpuChoice::V100,
                seed: 2,
                checkpoint: None,
                lines: 8,
                samples: 12,
                quarantine: vec![],
                deadline_rows: None,
            }
        );

        let inv = parse_invocation(&argv("--jobs 2 chaos run --seeds 0..4")).unwrap();
        assert_eq!(inv.jobs, Some(2));
        assert!(matches!(inv.command, Command::Chaos { .. }));

        let inv = parse_invocation(&argv("latency v100")).unwrap();
        assert_eq!(inv.jobs, None, "unset --jobs defers to GNOC_JOBS/env");

        assert!(parse_invocation(&argv("campaign v100 --jobs")).is_err());
        assert!(parse_invocation(&argv("campaign v100 --jobs many")).is_err());
        assert!(parse_invocation(&argv("campaign v100 --jobs --trace t.jsonl")).is_err());
    }

    #[test]
    fn serve_parses_modes_and_caps() {
        assert_eq!(
            parse(&argv("serve --state s --socket d.sock")).unwrap(),
            Command::Serve {
                state: "s".into(),
                socket: Some("d.sock".into()),
                queue_cap: 16,
                session_cap: 8,
                max_rows: 0,
                max_seeds: 0,
                max_transfers: 0,
                row_delay_ms: 0,
            }
        );
        let c = parse(&argv(
            "serve --state s --stdin --queue-cap 2 --session-cap 1 --max-rows 4 --row-delay-ms 50",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                state: "s".into(),
                socket: None,
                queue_cap: 2,
                session_cap: 1,
                max_rows: 4,
                max_seeds: 0,
                max_transfers: 0,
                row_delay_ms: 50,
            }
        );
        // --state is required; the serving mode must be exactly one of
        // --socket / --stdin.
        assert!(parse(&argv("serve --socket d.sock")).is_err());
        assert!(parse(&argv("serve --state s")).is_err());
        assert!(parse(&argv("serve --state s --socket d.sock --stdin")).is_err());
    }

    #[test]
    fn submit_parses_ops_raw_and_control() {
        assert_eq!(
            parse(&argv(
                "submit campaign a100 --socket d.sock --seed 3 --deadline-rows 5 --summary"
            ))
            .unwrap(),
            Command::Submit {
                socket: "d.sock".into(),
                what: SubmitWhat::Campaign {
                    gpu: GpuChoice::A100,
                    seed: 3,
                    lines: 8,
                    samples: 12,
                    deadline_rows: Some(5),
                },
                payload_out: None,
                summary: true,
            }
        );
        assert_eq!(
            parse(&argv("submit mesh --socket d.sock --payload-out p.json")).unwrap(),
            Command::Submit {
                socket: "d.sock".into(),
                what: SubmitWhat::Mesh {
                    seed: 1,
                    transfers: 200,
                },
                payload_out: Some("p.json".into()),
                summary: false,
            }
        );
        assert!(matches!(
            parse(&argv("submit chaos --socket d.sock --seed-count 2")).unwrap(),
            Command::Submit {
                what: SubmitWhat::Chaos { seed_count: 2, .. },
                ..
            }
        ));
        assert!(matches!(
            parse(&argv(
                "submit fabric --socket d.sock --devices 3 --topology fully"
            ))
            .unwrap(),
            Command::Submit {
                what: SubmitWhat::Fabric { devices: 3, .. },
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("submit health --socket d.sock")).unwrap(),
            Command::Submit {
                what: SubmitWhat::Health,
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("submit shutdown --socket d.sock")).unwrap(),
            Command::Submit {
                what: SubmitWhat::Shutdown,
                ..
            }
        ));
        // Raw lines pass through verbatim.
        let raw = r#"{"schema":1,"op":"health"}"#;
        let c = parse(&[
            "submit".to_string(),
            "--socket".to_string(),
            "d.sock".to_string(),
            "--json".to_string(),
            raw.to_string(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Submit {
                socket: "d.sock".into(),
                what: SubmitWhat::Raw(raw.into()),
                payload_out: None,
                summary: false,
            }
        );
        // --socket is required; the request must be named or --json.
        assert!(parse(&argv("submit mesh")).is_err());
        assert!(parse(&argv("submit --socket d.sock")).is_err());
        assert!(parse(&argv("submit frobnicate --socket d.sock")).is_err());
    }

    #[test]
    fn batch_parses_file_and_socket() {
        assert_eq!(
            parse(&argv("batch reqs.jsonl --socket d.sock")).unwrap(),
            Command::Batch {
                socket: "d.sock".into(),
                file: "reqs.jsonl".into(),
            }
        );
        assert!(parse(&argv("batch --socket d.sock")).is_err());
        assert!(parse(&argv("batch reqs.jsonl")).is_err());
    }
}
