//! Integration tests for the gnoc-telemetry layer: histogram edge cases,
//! the JSONL trace schema, and end-to-end coverage of all three instrumented
//! subsystems (engine, noc, campaign) on one shared handle.

use gnoc_core::noc::{run_memsim, MemSimConfig, MemSimNets};
use gnoc_core::telemetry::{
    parse_jsonl_line, JsonlWriter, LogHistogram, MemorySink, Telemetry, TelemetryHandle,
    SUBSYSTEM_CAMPAIGN, SUBSYSTEM_ENGINE, SUBSYSTEM_NOC,
};
use gnoc_core::{GpuDevice, LatencyCampaign, LatencyProbe, MetricRegistry};

fn tiny_memsim() -> MemSimConfig {
    MemSimConfig {
        warmup: 200,
        measure: 1_000,
        ..MemSimConfig::underprovisioned()
    }
}

#[test]
fn empty_histogram_reports_nothing() {
    let h = LogHistogram::new();
    assert!(h.is_empty());
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.mean(), None);
    assert_eq!(h.quantile(0.5), None);
}

#[test]
fn single_sample_histogram_pins_every_statistic() {
    let mut h = LogHistogram::new();
    h.record(42);
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), 42);
    assert_eq!(h.min(), Some(42));
    assert_eq!(h.max(), Some(42));
    assert_eq!(h.mean(), Some(42.0));
    // Every quantile of a one-sample distribution is that sample's bucket;
    // log-scale buckets are approximate but must bracket the value.
    for q in [0.0, 0.5, 0.99, 1.0] {
        let v = h.quantile(q).unwrap();
        assert!((21.0..=84.0).contains(&v), "q{q} = {v}");
    }
}

#[test]
fn merged_histograms_match_recording_into_one() {
    let mut a = LogHistogram::new();
    let mut b = LogHistogram::new();
    let mut whole = LogHistogram::new();
    for v in [1u64, 7, 30, 200, 5_000] {
        a.record(v);
        whole.record(v);
    }
    for v in [2u64, 90, 1_000_000] {
        b.record(v);
        whole.record(v);
    }
    a.merge(&b);
    assert_eq!(a, whole);
    assert_eq!(a.count(), 8);
    assert_eq!(a.min(), Some(1));
    assert_eq!(a.max(), Some(1_000_000));
}

#[test]
fn quantiles_are_monotone_and_bracketed() {
    let mut h = LogHistogram::new();
    for v in 1..=1_000u64 {
        h.record(v);
    }
    let mut prev = 0.0;
    for i in 0..=20 {
        let q = i as f64 / 20.0;
        let v = h.quantile(q).unwrap();
        assert!(v >= prev, "quantiles must be monotone: q{q} = {v} < {prev}");
        prev = v;
    }
    // Log-scale buckets: p50 of uniform 1..=1000 lands near 500 within a
    // bucket's relative error.
    let p50 = h.quantile(0.5).unwrap();
    assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
}

#[test]
fn memsim_trace_round_trips_through_jsonl_schema() {
    // Golden-schema check: a short traced memsim run streamed to a JSONL
    // file parses back line-by-line into TraceEvents with the expected
    // subsystem tags and fields.
    let path = std::env::temp_dir().join(format!(
        "gnoc-telemetry-schema-{}.jsonl",
        std::process::id()
    ));
    {
        let mut t = Telemetry::new();
        t.set_sink(Box::new(JsonlWriter::create(&path).expect("temp jsonl")));
        let telemetry = TelemetryHandle::attach(t);
        run_memsim(tiny_memsim(), 9, MemSimNets::Split, &telemetry);
        telemetry.flush();
    }
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let events: Vec<_> = text
        .lines()
        .map(|l| parse_jsonl_line(l).expect("every line is a valid TraceEvent"))
        .collect();
    assert!(!events.is_empty(), "traced memsim must emit events");
    assert!(events.iter().all(|e| e.subsystem == SUBSYSTEM_NOC));
    assert!(events
        .iter()
        .any(|e| e.event == "utilization_window" && e.field("utilization").is_some()));
    assert!(events
        .iter()
        .any(|e| e.event == "queue_depth" && e.field("router").is_some()));
    // Window events carry the mesh cycle as the virtual timestamp.
    assert!(events.iter().all(|e| e.cycle > 0));
}

#[test]
fn one_handle_collects_all_three_subsystems() {
    // The acceptance check behind `--trace`/`--metrics`: an engine-level
    // campaign and a NoC-level memsim feeding one shared handle produce
    // non-zero counters tagged by all three subsystems.
    let sink = MemorySink::new();
    let telemetry = TelemetryHandle::attach(Telemetry::with_sink(Box::new(sink.clone())));

    let mut dev = GpuDevice::v100(5);
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 2,
    };
    dev.set_telemetry(telemetry.clone());
    LatencyCampaign::run(&mut dev, &probe);
    run_memsim(tiny_memsim(), 5, MemSimNets::Split, &telemetry);

    let reg = telemetry.snapshot_registry().unwrap();
    assert!(reg.counter("engine.reads") > 0, "engine subsystem");
    assert!(reg.counter("noc.memsim.requests") > 0, "noc subsystem");
    assert!(
        reg.counter("campaign.sm_profiles") > 0,
        "campaign subsystem"
    );

    let events = sink.snapshot();
    for subsystem in [SUBSYSTEM_ENGINE, SUBSYSTEM_NOC, SUBSYSTEM_CAMPAIGN] {
        assert!(
            events.iter().any(|e| e.subsystem == subsystem),
            "expected events from {subsystem}"
        );
    }

    // The registry survives a JSON round trip (the `--metrics` file format).
    let back = MetricRegistry::from_json(&reg.to_json_pretty()).unwrap();
    assert_eq!(back, reg);
}
