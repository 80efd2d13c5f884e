//! `gnoc-perfbench`: host-time benchmark of the gnoc stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign|mesh_load|fault_soak|serve_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selfcheck
//! ```
//!
//! One process runs one workload: it sets the workload up several times,
//! then times ops for `--seconds`, checks every op's output, and prints the
//! metrics. Times of CPU-bound workloads are rescaled to a nominal host
//! speed measured with a reference kernel between slices of ops (see
//! [`measure::reference_kernel`]). The last stdout line is one JSON object `{correct, attempted,
//! failed, metrics}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod campaign;
mod fault_soak;
mod gen;
mod measure;
mod mesh_load;
mod serve_mix;

use measure::{median, percentile, span_report, tail_percentile, SpanReport, Tracer};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// A named exact count or value a workload reports.
pub type Exact = (&'static str, f64);

/// What one step of a workload did.
#[derive(Debug)]
pub struct Step {
    /// Host seconds of the op itself (per-pass work that follows excluded).
    pub op_s: f64,
    /// Simulated cycles the step advanced.
    pub sim_cycles: u64,
}

/// What a workload reports once its timed section is over.
#[derive(Debug, Default)]
pub struct Summary {
    /// FNV-1a 64 over the simulated results of the first `DIGEST_OPS` ops.
    pub digest: u64,
    /// Counts over the same prefix; they repeat bit-for-bit for a seed.
    pub exact: Vec<Exact>,
    /// Other per-layer values measured over the whole run.
    pub values: Vec<Exact>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Workload name on the command line.
    const NAME: &'static str;
    /// Set-ups per run; `setup_s` is their median.
    const SETUP_REPS: usize = 9;
    /// Ops the digest and the exact counts cover.
    const DIGEST_OPS: u64 = 64;
    /// How the workload's host time follows the host's slowness `k` (see
    /// [`measure::reference_kernel`]): its ops take `k^HOST_SENSITIVITY`
    /// times as long as at the nominal speed. 0 for a workload whose time
    /// the host's speed does not set; its times are not rescaled.
    const HOST_SENSITIVITY: f64;

    /// Builds and warms the program state from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// Performs and checks op `i`, plus any per-pass work that follows it.
    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<Step, String>;
    /// Whole-run checks and the digest.
    fn finish(self, tr: &mut Tracer) -> Result<Summary, String>;
}

/// Scratch directory of this process, under the benchmark's own ignored
/// `.run` directory in the checkout.
pub fn run_dir() -> PathBuf {
    PathBuf::from("perfbench/.run").join(std::process::id().to_string())
}

const WORKLOADS: [&str; 4] = ["campaign", "mesh_load", "fault_soak", "serve_mix"];
/// Seeds the self-check runs: the default and a hold-out never used while
/// the workloads were sized.
const DEFAULT_SEED: u64 = 1;
const HOLDOUT_SEED: u64 = 20_261_016;

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Where a per-layer metric's value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Median corrected time per call of a span, divided by this many ns.
    Span(&'static str, f64),
    /// An exact count or value reported by the workload.
    Reported,
    /// Measured by the runner itself.
    Runner,
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Every per-layer metric. A workload that never enters a layer reports 0
/// for it: that is the prediction for a workload that bypasses the layer.
const PER_LAYER: [(&str, &str, Source); 35] = [
    (
        "engine.device_new_ms",
        "ms",
        Source::Span("engine.device_new", MS),
    ),
    (
        "microbench.latency_row_us",
        "us",
        Source::Span("microbench.latency_row", US),
    ),
    (
        "microbench.bandwidth_row_us",
        "us",
        Source::Span("microbench.bandwidth_row", US),
    ),
    ("engine.virtual_cycles_per_row", "cycles", Source::Reported),
    (
        "analysis.correlation_ms",
        "ms",
        Source::Span("analysis.correlation", MS),
    ),
    (
        "core.placement_ms",
        "ms",
        Source::Span("core.placement", MS),
    ),
    (
        "sidechannel.aes_ms",
        "ms",
        Source::Span("sidechannel.aes", MS),
    ),
    (
        "sidechannel.rsa_ms",
        "ms",
        Source::Span("sidechannel.rsa", MS),
    ),
    ("noc.step_ns", "ns", Source::Span("noc.step", 1.0)),
    ("noc.inject_ns", "ns", Source::Span("noc.inject", 1.0)),
    ("noc.eject_ns", "ns", Source::Span("noc.eject", 1.0)),
    ("noc.inject_accept_ratio", "ratio", Source::Reported),
    ("noc.flits_per_cycle", "flits/cycle", Source::Reported),
    ("noc.latency_p99_cycles", "cycles", Source::Reported),
    (
        "faults.generate_us",
        "us",
        Source::Span("faults.generate", US),
    ),
    ("fabric.build_us", "us", Source::Span("fabric.build", US)),
    ("fabric.run_ms", "ms", Source::Span("fabric.run", MS)),
    ("fabric.retries_per_transfer", "ratio", Source::Reported),
    ("fabric.delivered_ratio", "ratio", Source::Reported),
    (
        "telemetry.recorder_take_us",
        "us",
        Source::Span("telemetry.recorder_take", US),
    ),
    (
        "analysis.profile_report_us",
        "us",
        Source::Span("analysis.profile_report", US),
    ),
    ("trace.finish_us", "us", Source::Span("trace.finish", US)),
    (
        "trace.validate_us",
        "us",
        Source::Span("trace.validate", US),
    ),
    ("trace.replay_ms", "ms", Source::Span("trace.replay", MS)),
    ("trace.bytes_per_event", "B/event", Source::Reported),
    ("serve.open_ms", "ms", Source::Span("serve.open", MS)),
    ("serve.hit_us", "us", Source::Span("serve.hit", US)),
    ("serve.miss_ms", "ms", Source::Span("serve.miss", MS)),
    ("serve.exec_ms", "ms", Source::Span("serve.exec", MS)),
    ("serve.cache_hit_ratio", "ratio", Source::Reported),
    ("sim_cycles_per_s", "cycles/s", Source::Runner),
    ("op_remainder_share", "ratio", Source::Runner),
    ("trace_overhead_ratio", "ratio", Source::Runner),
    ("trace_clock_read_ns", "ns", Source::Runner),
    ("failed_ratio", "ratio", Source::Runner),
];

/// Host seconds of ops between two runs of the reference kernel.
const SLICE_S: f64 = 0.02;

/// The host's slowness, measured only for a workload it slows.
fn slowness<W: Workload>() -> f64 {
    if W::HOST_SENSITIVITY == 0.0 {
        1.0
    } else {
        measure::host_slowness()
    }
}

/// How much slower than at the nominal speed `W` ran over an interval with
/// host slowness `before` at its start and `after` at its end.
fn slowdown<W: Workload>(before: f64, after: f64) -> f64 {
    ((before + after) / 2.0).powf(W::HOST_SENSITIVITY)
}

/// One timed section. Times are at the nominal host speed: each slice of
/// ops is divided by the workload's slowdown over the slice.
#[derive(Debug, Default)]
struct Phase {
    op_s: Vec<f64>,
    /// Host slowness over each slice.
    slowness: Vec<f64>,
    attempted: u64,
    failed: u64,
    seconds: f64,
    wall_seconds: f64,
    sim_cycles: u64,
    errors: Vec<String>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.op_s.len() as f64 / self.seconds.max(f64::MIN_POSITIVE)
    }

    fn note(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// Steps `w` from op `first` until `seconds` have passed (or a panic), in
/// slices of `SLICE_S` with the reference kernel timed between slices.
fn timed<W: Workload>(w: &mut W, first: u64, seconds: f64, tr: &mut Tracer) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = first;
    let mut before = slowness::<W>();
    let mut panicked = false;
    while !panicked && start.elapsed().as_secs_f64() < seconds {
        let slice = Instant::now();
        let first_op = phase.op_s.len();
        while !panicked
            && slice.elapsed().as_secs_f64() < SLICE_S
            && start.elapsed().as_secs_f64() < seconds
        {
            tr.set_op(i);
            phase.attempted += 1;
            match catch_unwind(AssertUnwindSafe(|| w.step(i, tr))) {
                Ok(Ok(step)) => {
                    phase.op_s.push(step.op_s);
                    phase.sim_cycles += step.sim_cycles;
                }
                Ok(Err(e)) => phase.note(format!("op {i}: {e}")),
                Err(_) => {
                    phase.note(format!("op {i}: panicked"));
                    panicked = true;
                }
            }
            i += 1;
        }
        let slice_s = slice.elapsed().as_secs_f64();
        let after = slowness::<W>();
        let k = slowdown::<W>(before, after);
        for op_s in &mut phase.op_s[first_op..] {
            *op_s /= k;
        }
        phase.seconds += slice_s / k;
        phase.wall_seconds += slice_s;
        phase.slowness.push((before + after) / 2.0);
        before = after;
    }
    phase
}

/// Everything one run measured.
#[derive(Debug, Default)]
struct RunResult {
    workload: &'static str,
    /// The workload's `HOST_SENSITIVITY`.
    sensitivity: f64,
    setup_s: Vec<f64>,
    /// The untraced section: the end-to-end metrics come from here.
    plain: Phase,
    /// The traced section (`--trace 1` only).
    traced: Option<Phase>,
    summary: Summary,
    digest_ops: u64,
    clock_ns: f64,
    spans: SpanReport,
    span_count: usize,
    errors: Vec<String>,
}

impl RunResult {
    /// Ops attempted; a failed set-up or finish counts as one more.
    fn attempted(&self) -> u64 {
        self.plain.attempted
            + self.traced.as_ref().map_or(0, |p| p.attempted)
            + self.errors.len() as u64
    }

    fn failed(&self) -> u64 {
        self.plain.failed + self.traced.as_ref().map_or(0, |p| p.failed) + self.errors.len() as u64
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    /// Op latencies of the untraced section, ms, sorted.
    fn op_ms(&self) -> Vec<f64> {
        let mut op_ms: Vec<f64> = self.plain.op_s.iter().map(|s| s * 1e3).collect();
        op_ms.sort_by(f64::total_cmp);
        op_ms
    }
}

/// Sets `W` up, runs it for `seconds` (half untraced, half traced when
/// `trace`), and finishes it.
fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut result = RunResult {
        workload: W::NAME,
        sensitivity: W::HOST_SENSITIVITY,
        clock_ns: measure::clock_read_ns(),
        ..RunResult::default()
    };
    let mut tr = Tracer::new(trace);
    let mut workload = None;
    for _ in 0..W::SETUP_REPS {
        // The previous set-up is torn down first, outside the timing.
        drop(workload.take());
        let before = slowness::<W>();
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| W::setup(seed, &mut tr))) {
            Ok(Ok(w)) => workload = Some(w),
            Ok(Err(e)) => result.errors.push(format!("set-up: {e}")),
            Err(_) => result.errors.push("set-up panicked".into()),
        }
        let setup_s = start.elapsed().as_secs_f64();
        result
            .setup_s
            .push(setup_s / slowdown::<W>(before, slowness::<W>()));
        if workload.is_none() {
            return result;
        }
    }
    let Some(mut w) = workload else {
        return result;
    };

    if trace {
        tr.set_enabled(false);
        result.plain = timed(&mut w, 0, seconds / 2.0, &mut tr);
        tr.set_enabled(true);
        let traced = timed(&mut w, result.plain.attempted, seconds / 2.0, &mut tr);
        result.traced = Some(traced);
    } else {
        result.plain = timed(&mut w, 0, seconds, &mut tr);
    }
    result.digest_ops = result.attempted().min(W::DIGEST_OPS);
    match catch_unwind(AssertUnwindSafe(|| w.finish(&mut tr))) {
        Ok(Ok(summary)) => result.summary = summary,
        Ok(Err(e)) => result.errors.push(format!("finish: {e}")),
        Err(_) => result.errors.push("finish panicked".into()),
    }
    result.spans = span_report(tr.spans(), result.clock_ns);
    result.span_count = tr.spans().len();
    if trace {
        write_spans(W::NAME, seed, tr.spans());
    }
    result
}

/// Writes the raw spans as JSON lines under `perfbench/.run` (best effort:
/// the report printed to stdout does not depend on it).
fn write_spans(workload: &str, seed: u64, spans: &[measure::Span]) {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"raw_ns\":{},\"intervals\":{},\"calls\":{}}}",
            s.name, s.op, s.start_ns, s.raw_ns, s.intervals, s.calls
        );
    }
    let dir = PathBuf::from("perfbench/.run");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, out))
        .is_ok()
    {
        println!("spans: {} written to {}", spans.len(), path.display());
    }
}

fn run_named(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunResult> {
    let result = match workload {
        "campaign" => run::<campaign::Campaign>(seed, seconds, trace),
        "mesh_load" => run::<mesh_load::MeshLoad>(seed, seconds, trace),
        "fault_soak" => run::<fault_soak::FaultSoak>(seed, seconds, trace),
        "serve_mix" => run::<serve_mix::ServeMix>(seed, seconds, trace),
        _ => return None,
    };
    let _ = std::fs::remove_dir_all(run_dir());
    Some(result)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout came from, read from `.git` without running git;
/// `unknown` in a checkout that is not a repository.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The end-to-end metrics of the untraced section.
fn end_to_end(r: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let op_ms = r.op_ms();
    let values = [
        median(&mut r.setup_s.clone()),
        r.plain.ops_per_s(),
        percentile(&op_ms, 50),
        percentile(&op_ms, 90),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(r: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let reported = |name: &str| {
        r.summary
            .exact
            .iter()
            .chain(&r.summary.values)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let traced_rate = r.traced.as_ref().map_or(0.0, Phase::ops_per_s);
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let v = match source {
                Source::Span(span, scale) => r
                    .spans
                    .layers
                    .get(span)
                    .map_or(0.0, |l| l.per_call_ns / scale),
                Source::Reported => reported(name),
                Source::Runner => match name {
                    "sim_cycles_per_s" => {
                        r.plain.sim_cycles as f64 / r.plain.seconds.max(f64::MIN_POSITIVE)
                    }
                    "op_remainder_share" => {
                        r.spans.remainder_ns / r.spans.op_ns.max(f64::MIN_POSITIVE)
                    }
                    "trace_overhead_ratio" if traced_rate > 0.0 => {
                        r.plain.ops_per_s() / traced_rate - 1.0
                    }
                    "trace_clock_read_ns" => r.clock_ns,
                    "failed_ratio" => r.failed() as f64 / r.attempted().max(1) as f64,
                    _ => 0.0,
                },
            };
            (name, v, unit)
        })
        .collect()
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the human-readable report and returns the result line.
fn report(r: &RunResult, seed: u64, seconds: f64, trace: bool) -> String {
    let e2e = end_to_end(r);
    let op_ms = r.op_ms();
    let samples = op_ms.len();
    let tail = tail_percentile(samples).unwrap_or(50);
    println!(
        "gnoc-perfbench {} seed={seed} seconds={seconds} trace={}",
        r.workload,
        u8::from(trace)
    );
    println!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {seed}, \"engine\": \"{}\", \"available_parallelism\": {}, \"jobs\": 1, \"git_commit\": \"{}\", \"ops\": {samples}, \"attempted\": {}, \"failed\": {}, \"setup_reps\": {}, \"op_samples\": {samples}, \"p90_samples_beyond\": {}, \"tail_percentile\": {tail}, \"tail_samples_beyond\": {}, \"digest\": \"{:016x}\", \"digest_ops\": {}, \"clock_read_ns\": {}, \"host_sensitivity\": {}}}",
        r.workload,
        if gnoc_core::noc::event_skip_enabled() { "event" } else { "cycle" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        r.attempted(),
        r.failed(),
        r.setup_s.len(),
        measure::beyond(samples, 90),
        measure::beyond(samples, tail),
        r.summary.digest,
        r.digest_ops,
        r.clock_ns,
        r.sensitivity,
    );
    for e in &r.errors {
        println!("error: {e}");
    }
    for e in r
        .plain
        .errors
        .iter()
        .chain(r.traced.iter().flat_map(|p| &p.errors))
    {
        println!("failed op: {e}");
    }
    println!(
        "end-to-end (untraced section, {samples} ops in {:.3} s at the nominal host speed):",
        r.plain.seconds
    );
    for (name, v, unit) in &e2e {
        println!("  {name:<14} {v:>16.6} {unit}");
    }
    let spread: Vec<String> = [10, 25, 50, 75, 90, 95, 99]
        .iter()
        .map(|&p| format!("p{p} {:.4}", percentile(&op_ms, p)))
        .collect();
    println!("  op latency ms: {}", spread.join(", "));
    let mut slowness = r.plain.slowness.clone();
    slowness.sort_by(f64::total_cmp);
    println!(
        "  host time {:.3} s ({:.6} ops/s); host slowness over {} slices: min {:.3}, median {:.3}, max {:.3}; sensitivity {}",
        r.plain.wall_seconds,
        r.plain.op_s.len() as f64 / r.plain.wall_seconds.max(f64::MIN_POSITIVE),
        slowness.len(),
        percentile(&slowness, 1),
        percentile(&slowness, 50),
        percentile(&slowness, 100),
        r.sensitivity
    );
    println!(
        "  tail: p{tail} = {:.4} ms is the highest percentile with 10 of {samples} samples beyond ({}); failed_ratio {} of {}",
        percentile(&op_ms, tail),
        measure::beyond(samples, tail),
        r.failed(),
        r.attempted()
    );
    if !trace {
        return json_metrics(&e2e);
    }
    let layers = per_layer(r);
    println!("per-layer (traced section, {} spans):", r.span_count);
    for (name, v, unit) in &layers {
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    println!(
        "self time by span (clock read {:.1} ns subtracted):",
        r.clock_ns
    );
    let total: f64 = r.spans.layers.values().map(|l| l.self_ns).sum();
    for (name, l) in &r.spans.layers {
        let label = if *name == "op" { "op remainder" } else { name };
        println!(
            "  {label:<26} {:>8} spans {:>12.3} ms self {:>6.1}%",
            l.samples,
            l.self_ns / 1e6,
            100.0 * l.self_ns / total.max(f64::MIN_POSITIVE)
        );
    }
    json_metrics(&layers)
}

/// Runs every workload twice at the default and the hold-out seed, and
/// checks that each run is correct and repeats its digest and exact counts.
fn selfcheck(seconds: f64) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HOLDOUT_SEED] {
            let runs: Vec<RunResult> = (0..2)
                .filter_map(|_| run_named(workload, seed, seconds, false))
                .collect();
            let (a, b) = (&runs[0], &runs[1]);
            let repeat = a.summary.digest == b.summary.digest
                && a.summary.exact == b.summary.exact
                && a.digest_ops == b.digest_ops;
            let pass = a.correct() && b.correct() && repeat;
            ok &= pass;
            println!(
                "selfcheck {workload:<10} seed {seed:<9} {} digest {:016x} over {} ops, exact {:?}",
                if pass { "ok  " } else { "FAIL" },
                a.summary.digest,
                a.digest_ops,
                a.summary.exact
            );
            for e in a
                .errors
                .iter()
                .chain(&a.plain.errors)
                .chain(&b.errors)
                .chain(&b.plain.errors)
            {
                println!("  {e}");
            }
        }
    }
    ok
}

const USAGE: &str = "usage: gnoc-perfbench --workload <campaign|mesh_load|fault_soak|serve_mix> \
--seed <n> --seconds <s> --trace <0|1>\n       gnoc-perfbench --selfcheck [--seconds <s>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let usage = |msg: &str| -> ! {
        eprintln!("gnoc-perfbench: {msg}\n{USAGE}");
        std::process::exit(2)
    };
    let seconds: f64 = match flag("--seconds").map(str::parse) {
        Some(Ok(s)) if s > 0.0 => s,
        None if args.iter().any(|a| a == "--selfcheck") => 3.0,
        _ => usage("--seconds must be a positive number"),
    };
    if args.iter().any(|a| a == "--selfcheck") {
        std::process::exit(if selfcheck(seconds) { 0 } else { 1 });
    }
    let workload = flag("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed must be a non-negative integer"));
    let trace = match flag("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let Some(result) = run_named(workload, seed, seconds, trace) else {
        usage(&format!("unknown workload {workload:?}"))
    };
    let metrics = report(&result, seed, seconds, trace);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        result.correct(),
        result.attempted(),
        result.failed()
    );
    if !result.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_follows_the_workload_sensitivity() {
        assert_eq!(slowdown::<serve_mix::ServeMix>(1.7, 2.3), 1.0);
        let k = slowdown::<mesh_load::MeshLoad>(1.5, 2.5);
        assert!((k - 2f64.powf(mesh_load::MeshLoad::HOST_SENSITIVITY)).abs() < 1e-12);
    }
}
