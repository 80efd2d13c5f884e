//! Fig. 19: RSA decryption time vs exponent Hamming weight under static and
//! random thread-block scheduling.

use gnoc_bench::{compare, header};
use gnoc_core::{run_rsa_attack, CtaScheduler, GpuDevice, RsaAttackConfig};

pub fn run(_telemetry: &gnoc_core::TelemetryHandle) {
    header(
        "Fig. 19 — RSA timing vs number of exponent 1-bits (A100)",
        "(a) static: clean linear relation, weight recoverable; (b) random: \
         noisy, one timing maps to a wide weight range (paper: 416–1920)",
    );
    let dev = GpuDevice::a100(0);
    for (label, scheduler) in [
        ("(a) static scheduling", CtaScheduler::Static),
        (
            "(b) random thread-block scheduling",
            CtaScheduler::RandomSeed,
        ),
    ] {
        let r = run_rsa_attack(
            &dev,
            &RsaAttackConfig {
                samples: 200,
                scheduler,
                ..RsaAttackConfig::default()
            },
            19,
        );
        println!("\n{label}:");
        // A compact scatter: weight deciles vs mean time.
        let mut sorted = r.samples.clone();
        sorted.sort_by_key(|s| s.ones);
        for chunk in sorted.chunks(sorted.len().div_ceil(8)) {
            let w0 = chunk.first().unwrap().ones;
            let w1 = chunk.last().unwrap().ones;
            let mean_t: f64 = chunk.iter().map(|s| s.time).sum::<f64>() / chunk.len() as f64;
            println!("  weight {w0:>3}..{w1:<3}: mean time {mean_t:>9.0} cycles");
        }
        compare(
            "  fit R²",
            "≈1 static / low random",
            format!("{:.3}", r.fit.r_squared),
        );
        compare(
            "  weight range for one timing",
            "narrow static / wide random",
            format!("±{} bits", r.weight_uncertainty),
        );
    }
}
