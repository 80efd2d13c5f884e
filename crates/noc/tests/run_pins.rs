//! Bit pins for the Fig. 21 and Fig. 23 run paths.
//!
//! `FIGURES.txt` shows the memory-system simulation only to a whole percent,
//! so a drift in its loop could hide behind the rounding. Each memsim case
//! here pins the `to_bits()` of every utilisation-timeline window and of the
//! mean, plus the request and reply counts, as one FNV-1a digest, for both
//! configurations, both network organisations and two seeds. The fairness
//! case pins the `FairnessResult` bits and the flight recorder's Chrome
//! trace of one recorded run. The values were captured when each network
//! organisation still ran on its own copy of the memsim loop and the
//! fairness run had separate traced and recorded entry points.

use gnoc_noc::MemSimNets::{Shared, Split};
use gnoc_noc::{run_fairness, run_memsim, ArbiterKind, FairnessConfig, MemSimConfig, MemSimResult};
use gnoc_telemetry::hash::fnv1a64;
use gnoc_telemetry::TelemetryHandle;

fn memsim_digest(r: &MemSimResult) -> u64 {
    let mut bytes = Vec::new();
    for u in &r.utilization_timeline {
        bytes.extend_from_slice(&u.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&r.mean_utilization.to_bits().to_le_bytes());
    bytes.extend_from_slice(&r.requests_injected.to_le_bytes());
    bytes.extend_from_slice(&r.replies_delivered.to_le_bytes());
    fnv1a64(&bytes)
}

#[test]
fn memsim_results_are_pinned_bit_for_bit() {
    // (provisioned, networks, seed, digest, requests, replies)
    let cases = [
        (false, Split, 1, 0x92424dfbc7d3cc00, 17181, 17252),
        (false, Split, 2, 0x55130fa42eb22e66, 17608, 17606),
        (false, Shared, 1, 0x64b7c19487385a6f, 10464, 10473),
        (false, Shared, 2, 0xba4447cd7c983d6a, 10717, 10664),
        (true, Split, 1, 0xd0b2e084291749de, 67260, 67249),
        (true, Split, 2, 0x2e10c751b355804c, 67570, 67595),
        (true, Shared, 1, 0xe589bc7c114e2a28, 36564, 36616),
        (true, Shared, 2, 0xc95e8a0fc423b201, 36905, 36907),
    ];
    let mut got = Vec::new();
    for &(provisioned, nets, seed, ..) in &cases {
        let cfg = if provisioned {
            MemSimConfig::provisioned()
        } else {
            MemSimConfig::underprovisioned()
        };
        let r = run_memsim(cfg, seed, nets, &TelemetryHandle::disabled());
        assert_eq!(
            r.utilization_timeline.len() as u64,
            cfg.measure / cfg.window
        );
        got.push((
            provisioned,
            nets,
            seed,
            memsim_digest(&r),
            r.requests_injected,
            r.replies_delivered,
        ));
    }
    assert_eq!(got, cases);
}

#[test]
fn recorded_fairness_run_is_pinned_bit_for_bit() {
    let cfg = FairnessConfig {
        warmup: 200,
        measure: 1_000,
        ..FairnessConfig::paper(ArbiterKind::RoundRobin)
    };
    let (r, rec) = run_fairness(cfg, 3, TelemetryHandle::disabled(), true);
    let mut bytes = Vec::new();
    for t in &r.throughput {
        bytes.extend_from_slice(&t.to_bits().to_le_bytes());
    }
    for n in r.compute_nodes.iter().chain(&r.mc_nodes) {
        bytes.extend_from_slice(&n.0.to_le_bytes());
    }
    bytes.extend_from_slice(&r.unfairness.to_bits().to_le_bytes());
    let mut trace = Vec::new();
    rec.expect("recorder attached")
        .write_chrome_trace(&mut trace)
        .unwrap();
    assert_eq!(
        (fnv1a64(&bytes), fnv1a64(&trace), trace.len()),
        (0xd88c6397d5a84a44, 0xee097fbc3ddde17f, 9_020_762)
    );
}
