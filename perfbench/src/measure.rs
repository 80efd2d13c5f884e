//! The benchmark's own arithmetic: clock calibration, spans and their
//! self-time accounting, percentiles, and the simulated-result digest.
//!
//! Everything here is host time read with `std::time::Instant`. The cost of
//! one clock read is measured once per process and subtracted from every
//! span, after Arafa et al. (arXiv 1905.08778): a span's raw duration holds
//! its work plus one clock read, and the two reads that bracket a child span
//! land partly in the parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds one `Instant::now()` costs on this host: the median over
/// batches of back-to-back reads.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(start).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut batches)
}

/// One recorded span: a layer call (or a batch of calls) made from the
/// benchmark's own code.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `noc.step`; `op` for the op itself.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op id the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created (for a batch:
    /// when it was recorded).
    pub start_ns: u64,
    /// Summed raw duration of the span's intervals, clock reads included.
    pub raw_ns: u64,
    /// Clock-read pairs that measured `raw_ns` (one for a plain span; one
    /// per interval for a batch accumulated over many intervals).
    pub intervals: u32,
    /// Layer calls the span covers (per-call time = duration / calls).
    pub calls: u32,
}

/// Span recorder. Disabled, every method is a branch and nothing is stored,
/// so the untraced run measures the program alone.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: 0,
            raw_ns: 0,
            intervals: 1,
            calls: 1,
        });
        self.open.push(idx);
        // Read the clock last, so the bookkeeping above stays outside.
        self.spans[idx].start_ns = self.base.elapsed().as_nanos() as u64;
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.base.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.raw_ns = now.saturating_sub(span.start_ns);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a batch accumulated by the caller: `raw_ns` summed over
    /// `intervals` clock-read pairs that covered `calls` layer calls.
    pub fn batch(&mut self, name: &'static str, raw_ns: u64, intervals: u32, calls: u32) {
        if !self.enabled || intervals == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.base.elapsed().as_nanos() as u64,
            raw_ns,
            intervals,
            calls,
        });
    }
}

/// Per-layer summary of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Spans recorded under the name.
    pub samples: usize,
    /// Median over spans of the corrected duration per call, ns.
    pub per_call_ns: f64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: f64,
}

/// Self-time accounting over a whole traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    /// Layers by span name (`op` included: its self time is the remainder).
    pub layers: BTreeMap<&'static str, LayerTimes>,
    /// Summed corrected duration of every `op` span, ns.
    pub op_ns: f64,
    /// Summed op time not covered by any layer span, ns.
    pub remainder_ns: f64,
}

/// A span's duration with its own clock reads removed: one read's cost per
/// measured interval, floored at zero.
pub fn corrected_ns(span: &Span, clock_ns: f64) -> f64 {
    (span.raw_ns as f64 - clock_ns * f64::from(span.intervals)).max(0.0)
}

/// Reduces spans to per-layer times. A span's self time is its corrected
/// duration minus, for each child, the child's corrected duration plus the
/// one clock read per child interval that falls outside the child but inside
/// the parent. The self time of an `op` span is the op's remainder.
pub fn span_report(spans: &[Span], clock_ns: f64) -> SpanReport {
    let mut child_ns = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += corrected_ns(span, clock_ns) + clock_ns * f64::from(span.intervals);
        }
    }
    let mut per_call: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut report = SpanReport::default();
    for (span, children) in spans.iter().zip(&child_ns) {
        let d = corrected_ns(span, clock_ns);
        let own = (d - children).max(0.0);
        let layer = report.layers.entry(span.name).or_default();
        layer.samples += 1;
        layer.self_ns += own;
        per_call
            .entry(span.name)
            .or_default()
            .push(d / f64::from(span.calls.max(1)));
        if span.name == "op" {
            report.op_ns += d;
            report.remainder_ns += own;
        }
    }
    for (name, mut values) in per_call {
        if let Some(layer) = report.layers.get_mut(name) {
            layer.per_call_ns = median(&mut values);
        }
    }
    report
}

/// Median (mean of the middle pair for an even count); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One-based nearest rank of whole percentile `p` among `n` samples, in
/// integer arithmetic so that p99 of 1000 samples is exactly rank 990.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (1–100) of `sorted`; 0 for no values.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The tail percentile a run of `n` samples can support: 99 when at least
/// ten samples lie beyond p99, otherwise the highest whole percentile that
/// still has ten samples beyond it (`None` when even p50 has fewer).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| beyond(n, p) >= 10)
}

/// Host seconds the reference kernel takes at the nominal host speed.
pub const REFERENCE_NOMINAL_S: f64 = 1e-3;
/// Reference-kernel iterations: about 1 ms on an unloaded 2-vCPU Xeon.
const REFERENCE_ITERS: usize = 16_000;

/// Runs the reference kernel once and returns its host seconds.
///
/// A shared host runs the same CPU-bound code at speeds up to ~1.8× apart,
/// switching every few seconds as its co-tenants load it. The kernel is
/// fixed benchmark-owned work of the program's own kind (hash-map updates,
/// vector pushes and sorts over a cache-sized working set) with fixed
/// inputs, so its time follows the host's speed and never the program's.
/// The runner times it between short slices of ops and divides the ops'
/// host times by its time over [`REFERENCE_NOMINAL_S`].
pub fn reference_kernel() -> f64 {
    type Hasher = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let start = Instant::now();
    let mut rng = crate::gen::SplitMix::new(0, "reference");
    let mut counts: std::collections::HashMap<u64, u64, Hasher> =
        std::collections::HashMap::default();
    let mut recent: Vec<u64> = Vec::with_capacity(513);
    for _ in 0..REFERENCE_ITERS {
        let r = rng.next_u64();
        *counts.entry(r % 4096).or_insert(0) += 1;
        recent.push(r);
        if recent.len() > 512 {
            recent.sort_unstable();
            recent.truncate(256);
        }
    }
    std::hint::black_box((counts.len(), recent.len()));
    start.elapsed().as_secs_f64()
}

/// The host's current slowness: the reference kernel's time over its
/// nominal time (1.0 at the nominal speed, 1.8 on a host 1.8× slower).
pub fn host_slowness() -> f64 {
    reference_kernel() / REFERENCE_NOMINAL_S
}

/// FNV-1a 64 accumulator for the simulated-result digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` in by its bit pattern, so equal means bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds the `Debug` rendering of a simulated statistic in.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, raw_ns: u64, intervals: u32) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns: 0,
            raw_ns,
            intervals,
            calls: intervals,
        }
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        // 400 samples: p97 leaves 12 beyond, p98 only 8.
        assert_eq!(beyond(400, 97), 12);
        assert_eq!(beyond(400, 98), 8);
        assert_eq!(tail_percentile(400), Some(97));
        assert_eq!(tail_percentile(19), None);
        for n in [20usize, 57, 250, 999, 1000, 4321] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            assert!(p == 99 || beyond(n, p + 1) < 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 99), 99.0);
        assert_eq!(percentile(&sorted, 100), 100.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn reference_kernel_takes_about_a_millisecond() {
        let mut times: Vec<f64> = (0..5).map(|_| reference_kernel()).collect();
        let t = median(&mut times);
        assert!(t > 1e-5 && t < 0.1, "{t}");
        assert!(host_slowness() > 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_clock_reads() {
        // op (raw 1000) > layer a (raw 300) > leaf (raw 100); op > batch b
        // (raw 200 over 4 intervals). Clock read = 10 ns.
        let spans = vec![
            span("op", None, 1000, 1),
            span("a", Some(0), 300, 1),
            span("leaf", Some(1), 100, 1),
            span("b", Some(0), 200, 4),
        ];
        let r = span_report(&spans, 10.0);
        // leaf: 100 - 10 = 90, no children.
        assert_eq!(r.layers["leaf"].self_ns, 90.0);
        // a: (300 - 10) - (90 + 10) = 190.
        assert_eq!(r.layers["a"].self_ns, 190.0);
        // b: 200 - 4*10 = 160 over 4 calls = 40 per call.
        assert_eq!(r.layers["b"].self_ns, 160.0);
        assert_eq!(r.layers["b"].per_call_ns, 40.0);
        // op: (1000 - 10) - (290 + 10) - (160 + 40) = 490 is the remainder.
        assert_eq!(r.op_ns, 990.0);
        assert_eq!(r.remainder_ns, 490.0);
        assert_eq!(r.layers["op"].self_ns, 490.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span("op", None, 50, 1), span("a", Some(0), 60, 1)];
        let r = span_report(&spans, 5.0);
        assert_eq!(r.remainder_ns, 0.0);
        assert_eq!(corrected_ns(&span("x", None, 3, 1), 5.0), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let o = off.enter("op");
        off.time("a", || ());
        off.batch("b", 10, 1, 1);
        off.exit(o);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_op(7);
        let o = on.enter("op");
        on.time("a", on_inner);
        on.batch("b", 10, 2, 5);
        on.exit(o);
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].calls, 5);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].raw_ns >= spans[1].raw_ns);
    }

    fn on_inner() -> u64 {
        std::hint::black_box((0..1000u64).sum())
    }

    #[test]
    fn digest_distinguishes_bit_patterns() {
        let mut a = Fnv::default();
        a.f64(0.0);
        let mut b = Fnv::default();
        b.f64(-0.0);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.bytes(b"a");
        assert_eq!(c.0, 0xaf63_dc4c_8601_ec8c, "FNV-1a 64 of \"a\"");
    }

    #[test]
    fn clock_read_cost_is_positive_and_small() {
        let c = clock_read_ns();
        assert!(c > 0.0 && c < 10_000.0, "{c}");
    }
}
