//! Serde round-trip and stability tests: all result and configuration types
//! serialize to JSON and come back identical, so experiment outputs can be
//! archived and diffed across runs.

use gnoc_core::engine::Calibration;
use gnoc_core::noc::{run_fairness, ArbiterKind, FairnessConfig, MemSimConfig};
use gnoc_core::TelemetryHandle;
use gnoc_core::{
    infer_placement, GpuDevice, GpuSpec, LatencyCampaign, LatencyProbe, SliceId, SmId,
};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn gpu_specs_round_trip() {
    for spec in GpuSpec::paper_presets() {
        let back: GpuSpec = round_trip(&spec);
        assert_eq!(back, spec);
        // The deserialized spec builds an identical hierarchy.
        assert_eq!(back.hierarchy(), spec.hierarchy());
    }
}

#[test]
fn calibrations_round_trip_exactly() {
    // Unlimited capacities use a finite sentinel (engine::UNLIMITED), so all
    // three calibrations are plain JSON numbers end to end.
    for calib in [
        Calibration::volta(),
        Calibration::ampere(),
        Calibration::hopper(),
    ] {
        let back: Calibration = round_trip(&calib);
        assert_eq!(back, calib);
    }
}

#[test]
fn campaign_results_round_trip() {
    let mut dev = GpuDevice::v100(0);
    let probe = LatencyProbe {
        working_set_lines: 2,
        samples: 2,
    };
    let campaign = LatencyCampaign::run(&mut dev, &probe);
    let back: LatencyCampaign = round_trip(&campaign);
    assert_eq!(back, campaign);

    let report = infer_placement(&campaign, &dev, 2.5);
    let back = round_trip(&report);
    assert_eq!(back, report);
}

#[test]
fn noc_results_round_trip() {
    let (fairness, _) = run_fairness(
        FairnessConfig {
            warmup: 200,
            measure: 500,
            ..FairnessConfig::paper(ArbiterKind::RoundRobin)
        },
        1,
        TelemetryHandle::disabled(),
        false,
    );
    let back = round_trip(&fairness);
    assert_eq!(back, fairness);

    let cfg = MemSimConfig::underprovisioned();
    let back = round_trip(&cfg);
    assert_eq!(back, cfg);
}

#[test]
fn ids_serialize_transparently() {
    // Newtype ids are `#[serde(transparent)]`: a bare number on the wire.
    assert_eq!(serde_json::to_string(&SmId::new(24)).unwrap(), "24");
    assert_eq!(serde_json::to_string(&SliceId::new(7)).unwrap(), "7");
    let sm: SmId = serde_json::from_str("24").unwrap();
    assert_eq!(sm, SmId::new(24));
}

#[test]
fn flow_solutions_round_trip() {
    let dev = GpuDevice::v100(0);
    let flows = vec![gnoc_core::FlowSpec {
        sm: SmId::new(0),
        slice: SliceId::new(0),
        kind: gnoc_core::AccessKind::ReadHit,
    }];
    let sol = dev.solve_bandwidth(&flows);
    let back = round_trip(&sol);
    assert_eq!(back, sol);
}
