//! Hidden-plan detection oracle tests: the plan is applied physically but
//! concealed from the health layer, which must infer faults from behavior.

use gnoc_chaos::{run_chaos, run_iteration, ChaosConfig, ChaosOptions, OracleKind};
use gnoc_core::noc::Engine;
use gnoc_core::telemetry::TelemetryHandle;

fn detect_cfg() -> ChaosConfig {
    ChaosConfig {
        detection: true,
        // Campaign oracles are exercised by the main soak; keeping them off
        // here isolates the detection oracle (the device still backs the
        // slice-detection half of the phase).
        device_every: 0,
        ..ChaosConfig::default()
    }
}

/// Seeds 0..10 cover every archetype twice: benign seeds must stay free of
/// false quarantines (precision 1.0), dead-link and dead-slice seeds must
/// all be detected (recall 1.0 on deterministic faults), and every
/// detection must land inside the latency bound — a violation on any of
/// the three surfaces as a `detection` oracle failure.
#[test]
fn detection_soak_10_seeds_is_clean() {
    let cfg = detect_cfg();
    let opts = ChaosOptions {
        seeds: (0..10).collect(),
        ..ChaosOptions::default()
    };
    let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
    assert!(run.finished);
    assert!(
        run.report.is_clean(),
        "hidden-plan detection must be violation-free, got: {:#?}",
        run.report.violations
    );
    // The detection oracle actually ran on every seed.
    assert_eq!(run.report.oracle_passes["detection"], 10);
}

/// The slice half of the phase really runs: the burst+slices archetype
/// (seed 4) disables two v100 L2 slices, and the latent-fault device run
/// must find exactly those and pass the oracle.
#[test]
fn dead_slice_archetype_passes_detection_with_a_device() {
    let cfg = detect_cfg();
    let num_slices = gnoc_core::device_for_preset("v100", 0, None)
        .unwrap()
        .hierarchy()
        .num_slices() as u32;
    let plan = cfg.plan_for_seed(4, num_slices);
    assert_eq!(plan.disabled_slices.len(), 2, "archetype precondition");
    let out = run_iteration(&cfg, 4, &plan, false, Engine::Event);
    assert!(
        out.is_clean(),
        "slice detection violations: {:?}",
        out.violations
    );
    assert!(out.passes.contains(&OracleKind::Detection));
}

/// The detection phase is a pure function of (config, seed): two runs of
/// the same seeds produce bit-identical reports, and the jobs knob never
/// changes the outcome.
#[test]
fn detection_is_deterministic_and_jobs_invariant() {
    let cfg = detect_cfg();
    let base = ChaosOptions {
        seeds: (0..5).collect(),
        ..ChaosOptions::default()
    };
    let reference = run_chaos(&cfg, &base, &TelemetryHandle::disabled())
        .unwrap()
        .report;
    let again = run_chaos(&cfg, &base, &TelemetryHandle::disabled())
        .unwrap()
        .report;
    assert_eq!(again, reference);
    for jobs in [2usize, 7] {
        let opts = ChaosOptions {
            jobs,
            ..base.clone()
        };
        let run = run_chaos(&cfg, &opts, &TelemetryHandle::disabled()).unwrap();
        assert_eq!(run.report, reference, "jobs={jobs}");
    }
}

/// Detection state files pin the `detection` flag: resuming a state file
/// written with detection on under a config with it off is rejected by the
/// config-equality check, while resuming with the original config is a
/// clean no-op on the identical report.
#[test]
fn detection_state_resumes_and_pins_the_flag() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "gnoc-chaos-detect-resume-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cfg = detect_cfg();
    let seeds: Vec<u64> = (0..3).collect();

    let stateful = run_chaos(
        &cfg,
        &ChaosOptions {
            seeds: seeds.clone(),
            state_path: Some(path.clone()),
            ..ChaosOptions::default()
        },
        &TelemetryHandle::disabled(),
    )
    .unwrap();
    assert!(stateful.finished);
    assert!(path.exists());

    // Toggling detection off must be rejected: the state file pins the
    // whole config, oracle set included.
    let toggled = ChaosConfig {
        detection: false,
        ..cfg.clone()
    };
    let err = run_chaos(
        &toggled,
        &ChaosOptions {
            seeds: seeds.clone(),
            state_path: Some(path.clone()),
            ..ChaosOptions::default()
        },
        &TelemetryHandle::disabled(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("config"), "{err}");

    // Resuming with the original config keeps the identical report.
    let resumed = run_chaos(
        &cfg,
        &ChaosOptions {
            seeds,
            state_path: Some(path.clone()),
            ..ChaosOptions::default()
        },
        &TelemetryHandle::disabled(),
    )
    .unwrap();
    assert!(resumed.finished);
    assert_eq!(resumed.report, stateful.report);

    let _ = std::fs::remove_file(&path);
}
