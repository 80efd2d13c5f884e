//! Named metrics: counters, gauges, histograms, and span timers.

use crate::hist::LogHistogram;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// A named collection of counters, gauges, and log-scale histograms — the
/// simulation's stand-in for an `nvprof` counter dump. Registries are plain
/// data: serializable to JSON (`gnoc --metrics`), mergeable across shards,
/// and diffable across runs.
///
/// Wall-clock measurements ([`SpanTimer`] durations) live in a separate
/// `wall` section that is **excluded** from the JSON export and from
/// equality: everything in the main sections is a pure function of the
/// simulated work, so metrics files are bit-identical run-to-run.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
    /// Wall-clock histograms, quarantined from the deterministic sections.
    wall: BTreeMap<String, LogHistogram>,
}

// Equality deliberately ignores the wall section: two runs of the same
// simulation are "equal" even though their wall-clock timings differ.
impl PartialEq for MetricRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl Serialize for MetricRegistry {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("counters".to_string(), self.counters.serialize_value()),
            ("gauges".to_string(), self.gauges.serialize_value()),
            ("histograms".to_string(), self.histograms.serialize_value()),
        ])
    }
}

impl Deserialize for MetricRegistry {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        // The `wall` section is optional: exports omit it, files written by
        // older versions may carry it.
        let wall = match value.field("wall") {
            Ok(v) => Deserialize::deserialize_value(v)?,
            Err(_) => BTreeMap::new(),
        };
        Ok(MetricRegistry {
            counters: Deserialize::deserialize_value(value.field("counters")?)?,
            gauges: Deserialize::deserialize_value(value.field("gauges")?)?,
            histograms: Deserialize::deserialize_value(value.field("histograms")?)?,
            wall,
        })
    }
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Sets the named gauge to the max of its current value and `value`.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one sample into the named histogram.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        self.hist_record_n(name, value, 1);
    }

    /// Records `n` samples of `value` into the named histogram.
    pub fn hist_record_n(&mut self, name: &str, value: u64, n: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record_n(value, n);
        } else {
            let mut h = LogHistogram::new();
            h.record_n(value, n);
            self.histograms.insert(name.to_string(), h);
        }
    }

    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Records one wall-clock sample into the named `wall` histogram.
    pub fn wall_record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.wall.get_mut(name) {
            h.record(value);
        } else {
            let mut h = LogHistogram::new();
            h.record(value);
            self.wall.insert(name.to_string(), h);
        }
    }

    pub fn wall_hist(&self, name: &str) -> Option<&LogHistogram> {
        self.wall.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take the latest
    /// (other wins), histograms merge.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (k, &v) in &other.counters {
            self.counter_add(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
        for (k, h) in &other.wall {
            if let Some(mine) = self.wall.get_mut(k) {
                mine.merge(h);
            } else {
                self.wall.insert(k.clone(), h.clone());
            }
        }
    }

    /// Serializes to pretty JSON. The wall-clock section is omitted so the
    /// output is a deterministic function of the simulated work.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("registry serializes")
    }

    /// Parses a registry from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Writes pretty JSON to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_pretty())
    }

    /// Reads a registry from a JSON file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(std::io::Error::other)
    }
}

/// A wall-clock span timer. Start one around a campaign or subcommand and
/// [`SpanTimer::finish`] it into a registry: the duration lands in the
/// `span.<name>.us` **wall** histogram (excluded from exports) and
/// `span.<name>.calls` counts invocations as a normal counter.
#[derive(Debug)]
pub struct SpanTimer {
    name: String,
    started: Instant,
}

impl SpanTimer {
    pub fn start(name: impl Into<String>) -> Self {
        SpanTimer {
            name: name.into(),
            started: Instant::now(),
        }
    }

    /// Elapsed wall-clock seconds so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records the span into `registry` and returns the elapsed seconds.
    pub fn finish(self, registry: &mut MetricRegistry) -> f64 {
        let secs = self.elapsed_seconds();
        let micros = (secs * 1e6).round().max(0.0) as u64;
        registry.wall_record(&format!("span.{}.us", self.name), micros);
        registry.counter_add(&format!("span.{}.calls", self.name), 1);
        secs
    }
}

/// An indexed bank of counters with a shared name — the registry-backed
/// representation of per-slice `nvprof` counters (`lts__t_requests` per L2
/// slice in the paper's methodology). `gnoc-engine`'s `Profiler` is built on
/// this.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterBank {
    name: String,
    counts: Vec<u64>,
    total: u64,
}

impl CounterBank {
    /// A bank of `n` zeroed counters named `name.0 .. name.{n-1}`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        CounterBank {
            name: name.into(),
            counts: vec![0; n],
            total: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn add(&mut self, index: usize, delta: u64) {
        self.counts[index] += delta;
        self.total += delta;
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum over all indexed counters.
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// Index holding the largest count; ties break deterministically to the
    /// **lowest** index. `None` when the bank is empty or all-zero.
    pub fn hottest(&self) -> Option<usize> {
        let (best, &count) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        (count > 0).then_some(best)
    }

    /// Exports the bank into `registry` as `name.<i>` counters plus a
    /// `name.total` sum.
    pub fn export_into(&self, registry: &mut MetricRegistry) {
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                registry.counter_add(&format!("{}.{i}", self.name), c);
            }
        }
        registry.counter_add(&format!("{}.total", self.name), self.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = MetricRegistry::new();
        r.counter_add("noc.flits", 5);
        r.counter_add("noc.flits", 2);
        r.gauge_set("util", 0.75);
        r.hist_record("lat", 200);
        r.hist_record("lat", 210);
        let text = r.to_json_pretty();
        let back = MetricRegistry::from_json(&text).expect("parses");
        assert_eq!(r, back);
        assert_eq!(back.counter("noc.flits"), 7);
        assert_eq!(back.gauge("util"), Some(0.75));
        assert_eq!(back.hist("lat").unwrap().count(), 2);
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let mut a = MetricRegistry::new();
        a.counter_add("x", 1);
        a.hist_record("h", 10);
        let mut b = MetricRegistry::new();
        b.counter_add("x", 2);
        b.counter_add("y", 5);
        b.hist_record("h", 30);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.hist("h").unwrap().count(), 2);
    }

    #[test]
    fn gauge_max_keeps_peak() {
        let mut r = MetricRegistry::new();
        r.gauge_max("peak", 3.0);
        r.gauge_max("peak", 1.0);
        assert_eq!(r.gauge("peak"), Some(3.0));
        r.gauge_max("peak", 9.0);
        assert_eq!(r.gauge("peak"), Some(9.0));
    }

    #[test]
    fn counter_bank_tracks_total_and_hottest() {
        let mut bank = CounterBank::new("engine.l2.slice", 4);
        assert_eq!(bank.hottest(), None);
        bank.add(2, 3);
        bank.add(1, 3);
        bank.add(3, 1);
        // Tie between 1 and 2 at 3 accesses: lowest index wins.
        assert_eq!(bank.hottest(), Some(1));
        assert_eq!(bank.total(), 7);
        let mut r = MetricRegistry::new();
        bank.export_into(&mut r);
        assert_eq!(r.counter("engine.l2.slice.1"), 3);
        assert_eq!(r.counter("engine.l2.slice.total"), 7);
        bank.reset();
        assert_eq!(bank.total(), 0);
        assert_eq!(bank.hottest(), None);
    }

    #[test]
    fn span_timer_records_into_wall_section() {
        let mut r = MetricRegistry::new();
        let t = SpanTimer::start("probe");
        let secs = t.finish(&mut r);
        assert!(secs >= 0.0);
        assert_eq!(r.counter("span.probe.calls"), 1);
        // The duration goes to the quarantined wall section, not the
        // deterministic histograms.
        assert!(r.hist("span.probe.us").is_none());
        assert_eq!(r.wall_hist("span.probe.us").unwrap().count(), 1);
    }

    #[test]
    fn default_export_omits_wall_and_equality_ignores_it() {
        let mut a = MetricRegistry::new();
        a.counter_add("x", 1);
        let mut b = a.clone();
        b.wall_record("span.figure.us", 1234);
        // Wall-clock timings never affect the default export or equality.
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        assert!(!b.to_json_pretty().contains("wall"));
        let plain = MetricRegistry::from_json(&b.to_json_pretty()).expect("plain form parses");
        assert!(plain.wall_hist("span.figure.us").is_none());
    }
}
