//! Ablation: how much scheduler entropy does the defense need?
//!
//! Sweeps the `RandomWindow` span (number of possible start SMs per launch)
//! from 1 (= static) to the full device (= the paper's random-seed defense)
//! and records the AES attack's success and margin at each point.

use gnoc_bench::header;
use gnoc_core::{run_aes_attack, AesAttackConfig, CtaScheduler, GpuDevice};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Ablation — scheduler entropy vs AES attack success (A100)",
        "span 1 = static (attack succeeds); full span = the paper's defense \
         (attack fails); the crossover shows how much entropy suffices",
    );
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "span", "recovered", "corr(true)", "margin"
    );
    for span in [1u32, 2, 4, 8, 16, 32, 64, 108] {
        let mut dev = GpuDevice::a100(40);
        let cfg = AesAttackConfig {
            key,
            samples: 2_000,
            position: 0,
            scheduler: CtaScheduler::RandomWindow { span },
        };
        let r = run_aes_attack(&mut dev, &cfg, 40);
        println!(
            "{:>6} {:>10} {:>12.3} {:>10.3}",
            span,
            if r.succeeded() { "YES" } else { "no" },
            r.correlations[r.true_byte as usize],
            r.margin
        );
    }
    println!(
        "\nThe correlation decays as soon as the window spans SMs with \
         different slice distances; crossing the partition boundary (span \
         beyond one partition's worth of launch order) is the decisive step."
    );
}
