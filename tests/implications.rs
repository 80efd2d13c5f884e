//! Integration tests asserting the paper's six Implications (Sections V
//! and VI) across crates.

use gnoc_core::noc::{
    priorwork, run_fairness, run_memsim, ArbiterKind, Crossbar, CrossbarConfig, FairnessConfig,
    FairnessResult, MemSimConfig, MemSimNets, MemSimResult, NodeId, PacketClass,
};
use gnoc_core::sidechannel::timing::{two_sm_op_cycles, warp_read_cycles};
use gnoc_core::{
    infer_placement, run_aes_attack, run_rsa_attack, AesAttackConfig, CtaScheduler, GpuDevice,
    LatencyCampaign, LatencyProbe, PartitionId, RsaAttackConfig, SmId, TelemetryHandle,
};

fn memsim(cfg: MemSimConfig, seed: u64) -> MemSimResult {
    run_memsim(cfg, seed, MemSimNets::Split, &TelemetryHandle::disabled())
}

fn fairness(arbiter: ArbiterKind, seed: u64) -> FairnessResult {
    run_fairness(
        FairnessConfig::paper(arbiter),
        seed,
        TelemetryHandle::disabled(),
        false,
    )
    .0
}

const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

#[test]
fn implication_1_noc_characterisation_reveals_core_placement() {
    // An attacker can recover placement information for co-location purely
    // from L2 latency measurements, on old and new devices alike.
    for mut dev in [GpuDevice::v100(21), GpuDevice::a100(21)] {
        let name = dev.spec().name.clone();
        let campaign = LatencyCampaign::run(
            &mut dev,
            &LatencyProbe {
                working_set_lines: 2,
                samples: 6,
            },
        );
        let report = infer_placement(&campaign, &dev, 2.5);
        assert!(
            report.position_recovery_r > 0.7,
            "{name}: position recovery {}",
            report.position_recovery_r
        );
        assert!(
            report.gpc_rand_index > 0.9,
            "{name}: column recovery {}",
            report.gpc_rand_index
        );
    }
}

#[test]
fn implication_2_core_placement_shifts_attack_timing() {
    // Non-uniform latency does not break the attacks by itself, but it shifts
    // the timing relationships between cores (Fig. 17).
    let mut dev = GpuDevice::a100(22);
    let h = dev.hierarchy().clone();
    let left = h.sms_in_partition(PartitionId::new(0)).to_vec();
    let right = h.sms_in_partition(PartitionId::new(1)).to_vec();

    // (a) AES warp-read timing: same line set, different SM, shifted time.
    let lines = [0u8, 1, 2, 3];
    let avg = |dev: &mut GpuDevice, sm: SmId| -> f64 {
        (0..16)
            .map(|_| warp_read_cycles(dev, sm, &lines))
            .sum::<f64>()
            / 16.0
    };
    let t_near = avg(&mut dev, left[0]);
    let t_far = avg(&mut dev, right[0]);
    assert!(
        (t_near - t_far).abs() > 15.0,
        "expected placement shift: {t_near} vs {t_far}"
    );

    // (b) RSA two-SM kernel: cross-partition placement costs ≈1.7×.
    let same = two_sm_op_cycles(&dev, left[0], left[2]);
    let cross = two_sm_op_cycles(&dev, left[0], right[0]);
    assert!((1.5..1.95).contains(&(cross / same)), "{}", cross / same);

    // (c) The attack itself still succeeds under static scheduling — the
    // shift alone is not a defense.
    let r = run_aes_attack(
        &mut dev,
        &AesAttackConfig {
            samples: 2_500,
            ..AesAttackConfig::new(KEY)
        },
        1,
    );
    assert!(r.succeeded());
}

#[test]
fn implication_3_random_scheduling_mitigates_both_attacks() {
    let mut dev = GpuDevice::a100(23);
    let aes = run_aes_attack(
        &mut dev,
        &AesAttackConfig {
            samples: 2_500,
            scheduler: CtaScheduler::RandomSeed,
            ..AesAttackConfig::new(KEY)
        },
        1,
    );
    let true_corr = aes.correlations[aes.true_byte as usize];
    let noise_floor = aes
        .correlations
        .iter()
        .enumerate()
        .filter(|&(g, _)| g != aes.true_byte as usize)
        .map(|(_, c)| c.abs())
        .fold(0.0f64, f64::max);
    assert!(
        true_corr < 2.0 * noise_floor,
        "AES correlation peak should vanish: {true_corr} vs {noise_floor}"
    );

    let dev = GpuDevice::a100(23);
    let static_run = run_rsa_attack(&dev, &RsaAttackConfig::default(), 9);
    let random_run = run_rsa_attack(
        &dev,
        &RsaAttackConfig {
            scheduler: CtaScheduler::RandomSeed,
            ..RsaAttackConfig::default()
        },
        9,
    );
    assert!(static_run.fit.r_squared > 0.98);
    assert!(random_run.fit.r_squared < 0.8);
    assert!(random_run.weight_uncertainty > 3 * static_run.weight_uncertainty.max(1));
}

#[test]
fn implication_4_noc_must_not_bottleneck_memory_or_l2() {
    // Simulators that under-provision the reply interface see fluctuating,
    // ≈20–30 % memory utilisation (Fig. 21); the real-GPU-style provisioned
    // interface sustains the channel.
    let under = memsim(MemSimConfig::underprovisioned(), 4);
    let provisioned = memsim(MemSimConfig::provisioned(), 4);
    assert!(
        under.mean_utilization < 0.40,
        "under-provisioned utilisation {:.2}",
        under.mean_utilization
    );
    let fluctuation = {
        let max = under
            .utilization_timeline
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = under
            .utilization_timeline
            .iter()
            .cloned()
            .fold(1.0f64, f64::min);
        max - min
    };
    assert!(fluctuation > 0.1, "utilisation should fluctuate");
    assert!(
        provisioned.mean_utilization > 0.8,
        "provisioned utilisation {:.2}",
        provisioned.mean_utilization
    );

    // Meanwhile the real-GPU model (the engine) sustains 85–90 % of peak
    // memory bandwidth — the paper's Fig. 9a contrast.
    let mut dev = GpuDevice::v100(24);
    let mem = gnoc_core::microbench::bandwidth::aggregate_memory_gbps(&mut dev);
    assert!(mem / dev.spec().mem_peak_gbps > 0.82);
}

#[test]
fn implication_5_interface_bandwidth_is_the_first_order_knob() {
    // Sweep the reply-interface width: utilisation rises monotonically until
    // the interface stops being the bottleneck (the "bandwidth hierarchy").
    let mut last = 0.0;
    for reply_flits in [8, 4, 2, 1] {
        let cfg = MemSimConfig {
            reply_flits,
            ..MemSimConfig::underprovisioned()
        };
        let r = memsim(cfg, 5);
        assert!(
            r.mean_utilization >= last - 0.02,
            "wider interface must not hurt: {reply_flits} flits -> {:.2} (prev {last:.2})",
            r.mean_utilization
        );
        last = r.mean_utilization;
    }
    assert!(last > 0.8, "fully provisioned should sustain: {last:.2}");

    // The survey: a substantial share of prior-work baselines sit behind the
    // network wall (BW_NoC-MEM < BW_MEM).
    let points = priorwork::dataset();
    let walled = points.iter().filter(|p| p.network_wall()).count();
    assert!(walled >= 3 && walled < points.len());
}

#[test]
fn implication_6_mesh_unfairness_vs_single_hop_uniformity() {
    // Multi-hop mesh with locally fair arbitration: large throughput spread.
    let rr = fairness(ArbiterKind::RoundRobin, 2);
    assert!(rr.unfairness > 1.6, "mesh unfairness {:.2}", rr.unfairness);

    // Age-based arbitration restores global fairness at added complexity.
    let age = fairness(ArbiterKind::AgeBased, 2);
    assert!(age.unfairness < 1.25, "age-based {:.2}", age.unfairness);

    // A single-hop crossbar (the hierarchical-crossbar building block real
    // GPUs use) is uniform even with plain round-robin.
    let mut xbar = Crossbar::new(CrossbarConfig {
        inputs: 30,
        outputs: 6,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
    });
    let mut state = 99u64;
    for _ in 0..15_000 {
        for i in 0..30u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let dst = ((state >> 33) % 6) as u32;
            let _ = xbar.try_inject(NodeId::new(i), NodeId::new(dst), 1, PacketClass::Request);
        }
        xbar.step();
        xbar.drain_ejected();
    }
    let d = &xbar.stats().delivered_by_src;
    let spread = *d.iter().max().unwrap() as f64 / (*d.iter().min().unwrap()).max(1) as f64;
    assert!(spread < 1.1, "crossbar spread {spread:.3}");
}
