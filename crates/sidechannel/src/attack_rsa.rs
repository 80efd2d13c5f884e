//! The RSA exponent-weight timing attack (paper Section V-B2, Fig. 19).
//!
//! Square-and-multiply modular exponentiation performs one squaring per
//! exponent bit and one extra multiplication per 1-bit, each a
//! constant-work kernel, so decryption time is linear in the exponent's
//! Hamming weight — which prior work (Luo et al.) used to recover it. The
//! kernel runs on two SMs; this paper shows the per-operation time depends on
//! *which* SMs the scheduler picks (up to 1.7× across A100 partitions), so
//! random-seed scheduling makes the time-vs-weight relationship too noisy to
//! invert.

use crate::bigint::BigUint;
use crate::timing::two_sm_op_cycles;
use gnoc_analysis::LinearFit;
use gnoc_engine::{CtaScheduler, GpuDevice};
use gnoc_topo::SmId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one RSA timing experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsaAttackConfig {
    /// Bit length of the secret exponents sampled.
    pub exponent_bits: usize,
    /// Decryption launches (each with a fresh random exponent weight).
    pub samples: usize,
    /// Victim scheduler.
    pub scheduler: CtaScheduler,
}

impl Default for RsaAttackConfig {
    fn default() -> Self {
        Self {
            exponent_bits: 256,
            samples: 120,
            scheduler: CtaScheduler::Static,
        }
    }
}

/// One observed decryption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RsaSample {
    /// Hamming weight of the secret exponent (ground truth).
    pub ones: u64,
    /// Measured decryption time, cycles.
    pub time: f64,
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RsaAttackResult {
    /// The observed (weight, time) samples.
    pub samples: Vec<RsaSample>,
    /// Least-squares fit of time against weight — the attacker's model.
    pub fit: LinearFit,
    /// Width of the plausible-weight interval when inverting a timing
    /// observation: the largest spread of true weights over any pair of
    /// samples whose times agree within 2 %. Small ⇒ timing pins the weight
    /// (attack works); large ⇒ defeated (the paper quotes 416–1920 possible
    /// 1-bits for one observed time under the randomised scheduler).
    pub weight_uncertainty: u64,
}

/// Generates a random exponent of exactly `bits` bits with a random weight
/// (top bit forced to 1 so the bit length is exact).
fn random_exponent(bits: usize, rng: &mut StdRng) -> BigUint {
    // Bias the per-bit probability to spread Hamming weights widely.
    let p: f64 = rng.gen_range(0.05..0.95);
    let mut limbs = vec![0u64; bits.div_ceil(64)];
    for i in 0..bits {
        if rng.gen::<f64>() < p {
            limbs[i / 64] |= 1 << (i % 64);
        }
    }
    limbs[(bits - 1) / 64] |= 1 << ((bits - 1) % 64);
    BigUint::from_limbs(limbs)
}

/// Runs the experiment: samples secret exponents, executes real
/// square-and-multiply decryptions to obtain operation counts, and times them
/// under the victim's scheduler.
///
/// # Panics
///
/// Panics if `exponent_bits` is zero or `samples < 2`.
pub fn run_rsa_attack(dev: &GpuDevice, cfg: &RsaAttackConfig, seed: u64) -> RsaAttackResult {
    assert!(cfg.exponent_bits > 0, "exponent must be non-empty");
    assert!(cfg.samples >= 2, "need at least two samples");
    let mut rng = StdRng::seed_from_u64(seed);
    let all_sms: Vec<SmId> = SmId::range(dev.hierarchy().num_sms()).collect();
    // A fixed toy modulus (product of two primes) — the arithmetic is real,
    // only the width is scaled down for simulation speed.
    let modulus = BigUint::from_limbs(vec![0x9ba4_f327_cd73_a697, 0xc1f6_1a5b_88f2_9d11]);
    let ciphertext = BigUint::from_limbs(vec![0x0123_4567_89ab_cdef, 0x0fed_cba9]);

    let mut samples = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let exponent = random_exponent(cfg.exponent_bits, &mut rng);
        let (_, squares, multiplies) = ciphertext.modpow_counted(&exponent, &modulus);
        // The square() kernel uses two SMs; the scheduler picks them fresh
        // each launch.
        let pair = cfg.scheduler.assign(2, &all_sms, &mut rng);
        let op_time = two_sm_op_cycles(dev, pair[0], pair[1]);
        let time = (squares + multiplies) as f64 * op_time;
        samples.push(RsaSample {
            ones: exponent.count_ones(),
            time,
        });
    }

    let xs: Vec<f64> = samples.iter().map(|s| s.ones as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let fit = LinearFit::fit(&xs, &ys);

    // Invert timing observations: over every pair of samples whose times
    // agree within 2 %, how far apart can the true weights be?
    let mut weight_uncertainty = 0u64;
    for i in 0..samples.len() {
        for j in (i + 1)..samples.len() {
            let (a, b) = (&samples[i], &samples[j]);
            if (a.time - b.time).abs() <= 0.02 * a.time.max(b.time) {
                weight_uncertainty = weight_uncertainty.max(a.ones.abs_diff(b.ones));
            }
        }
    }

    RsaAttackResult {
        samples,
        fit,
        weight_uncertainty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_scheduling_gives_clean_linear_fit() {
        // Fig. 19a: time vs weight is linear under static scheduling.
        let dev = GpuDevice::a100(0);
        let r = run_rsa_attack(&dev, &RsaAttackConfig::default(), 11);
        assert!(r.fit.r_squared > 0.98, "r² = {}", r.fit.r_squared);
        assert!(r.fit.slope > 0.0);
        // Inversion pins the weight to a narrow interval.
        assert!(
            r.weight_uncertainty < 20,
            "uncertainty {}",
            r.weight_uncertainty
        );
    }

    #[test]
    fn random_scheduling_makes_the_relation_noisy() {
        // Fig. 19b: random thread-block scheduling buries the line in noise.
        let dev = GpuDevice::a100(0);
        let cfg = RsaAttackConfig {
            scheduler: CtaScheduler::RandomSeed,
            ..RsaAttackConfig::default()
        };
        let r = run_rsa_attack(&dev, &cfg, 11);
        assert!(r.fit.r_squared < 0.75, "r² = {}", r.fit.r_squared);
        // Inverting a time now spans a wide weight range (the paper quotes
        // 416–1920 for a 2048-bit key; proportionally wide here).
        assert!(
            r.weight_uncertainty > 40,
            "uncertainty {}",
            r.weight_uncertainty
        );
    }

    #[test]
    fn defense_strictly_increases_uncertainty() {
        let dev = GpuDevice::a100(3);
        let s = run_rsa_attack(&dev, &RsaAttackConfig::default(), 5);
        let d = run_rsa_attack(
            &dev,
            &RsaAttackConfig {
                scheduler: CtaScheduler::RandomSeed,
                ..RsaAttackConfig::default()
            },
            5,
        );
        assert!(d.weight_uncertainty > s.weight_uncertainty);
        assert!(d.fit.r_squared < s.fit.r_squared);
    }

    #[test]
    fn samples_are_pinned() {
        // Every sample, the fit and the inversion width, bit for bit, on a
        // fixed device and seed under both schedulers.
        let dev = GpuDevice::a100(3);
        let got: Vec<_> = [CtaScheduler::Static, CtaScheduler::RandomSeed]
            .into_iter()
            .map(|scheduler| {
                let cfg = RsaAttackConfig {
                    scheduler,
                    ..RsaAttackConfig::default()
                };
                let r = run_rsa_attack(&dev, &cfg, 5);
                let bytes: Vec<u8> = r
                    .samples
                    .iter()
                    .flat_map(|s| [s.ones.to_le_bytes(), s.time.to_bits().to_le_bytes()])
                    .flatten()
                    .collect();
                (
                    gnoc_telemetry::hash::fnv1a64(&bytes),
                    r.fit.slope.to_bits(),
                    r.fit.intercept.to_bits(),
                    r.fit.r_squared.to_bits(),
                    r.weight_uncertainty,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (
                    12927365456981442127,
                    4647156192856551307,
                    4683184989875515270,
                    4607182418800017408,
                    10
                ),
                (
                    6878837573606160840,
                    4648133710376667379,
                    4685155305463537405,
                    4597310548042290607,
                    218
                ),
            ]
        );
    }

    #[test]
    fn exponent_generator_spans_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let weights: Vec<u64> = (0..40)
            .map(|_| random_exponent(256, &mut rng).count_ones())
            .collect();
        let min = weights.iter().min().unwrap();
        let max = weights.iter().max().unwrap();
        assert!(max - min > 60, "weights {min}..{max} too narrow");
        // Bit length is exact.
        let e = random_exponent(256, &mut rng);
        assert_eq!(e.bits(), 256);
    }

    #[test]
    fn time_is_linear_in_operation_count_by_construction() {
        let dev = GpuDevice::v100(0);
        let r = run_rsa_attack(
            &dev,
            &RsaAttackConfig {
                exponent_bits: 128,
                samples: 60,
                scheduler: CtaScheduler::Static,
            },
            2,
        );
        assert!(r.fit.r_squared > 0.99);
    }
}
