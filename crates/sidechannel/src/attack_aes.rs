//! The AES last-round timing key-recovery attack (paper Section V-B1, Fig. 18)
//! and the random thread-block-scheduling defense (Section V-C).
//!
//! Threat model (after Jiang et al., HPCA'16): the attacker triggers AES
//! encryptions of known random plaintexts on the victim GPU, observes the
//! ciphertexts and kernel execution times, and — knowing that timing is
//! linear in the number of unique T-table cache lines touched by the warp's
//! final round — correlates measured time against the line count predicted
//! under each last-round key-byte guess. The correct guess predicts the real
//! access pattern and produces a Pearson-correlation peak.
//!
//! The NoC twist (this paper's contribution): the linear timing relationship
//! *shifts with SM placement*. Static scheduling pins the victim to one SM,
//! so the shift is constant and harmless; random-seed scheduling re-draws the
//! SM each launch, turning placement-dependent NoC latency into noise that
//! buries the correlation peak.

use crate::aes::{inv_sbox, Aes128, SBOX_ENTRIES_PER_LINE};
use crate::timing::warp_read_cycles;
use gnoc_analysis::pearson;
use gnoc_engine::{CtaScheduler, GpuDevice};
use gnoc_topo::SmId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Threads per warp (blocks encrypted concurrently per sample).
pub const WARP_SIZE: usize = 32;

/// Configuration of one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AesAttackConfig {
    /// Victim AES-128 key.
    pub key: [u8; 16],
    /// Timed encryption launches to collect.
    pub samples: usize,
    /// Ciphertext byte position under attack (0–15).
    pub position: usize,
    /// Victim thread-block scheduler (the defense knob).
    pub scheduler: CtaScheduler,
}

impl AesAttackConfig {
    /// A default attack against byte 0 with static scheduling.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            key,
            samples: 3_000,
            position: 0,
            scheduler: CtaScheduler::Static,
        }
    }
}

/// Result of one attack run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AesAttackResult {
    /// Pearson correlation between measured time and predicted unique-line
    /// count, per key-byte guess.
    pub correlations: Vec<f64>,
    /// The guess with the highest correlation.
    pub best_guess: u8,
    /// The true key byte (for scoring).
    pub true_byte: u8,
    /// Correlation of the best guess minus the runner-up — the
    /// distinguishability margin.
    pub margin: f64,
}

impl AesAttackResult {
    /// Whether the attack recovered the key byte.
    pub fn succeeded(&self) -> bool {
        self.best_guess == self.true_byte
    }
}

/// T-table cache line of a lookup at byte `position` with table index `idx`:
/// four interleaved T-tables of 8 lines each, selected by `position % 4`.
fn table_line(position: usize, idx: u8) -> u8 {
    (position % 4) as u8 * 8 + idx / SBOX_ENTRIES_PER_LINE
}

/// The attacker's table for one key-byte guess: for each ciphertext byte,
/// the bit of the table line its last-round lookup touched under that
/// guess. A position's 8 lines share one table, so a `u8` holds them.
fn guess_line_bits(inv: &[u8; 256], guess: u8) -> [u8; 256] {
    core::array::from_fn(|c| 1 << (inv[c ^ guess as usize] / SBOX_ENTRIES_PER_LINE))
}

/// Predicted unique-line count of a warp under the guess behind `bits`.
fn predicted_lines(bits: &[u8; 256], warp: &[u8; WARP_SIZE]) -> u32 {
    warp.iter()
        .fold(0u8, |seen, &c| seen | bits[c as usize])
        .count_ones()
}

/// Runs the attack: collects `cfg.samples` timed launches from the victim and
/// correlates against all 256 key-byte guesses.
///
/// # Panics
///
/// Panics if `cfg.position > 15` or `cfg.samples < 2`.
pub fn run_aes_attack(dev: &mut GpuDevice, cfg: &AesAttackConfig, seed: u64) -> AesAttackResult {
    assert!(cfg.position < 16, "byte position out of range");
    assert!(cfg.samples >= 2, "need at least two samples");
    let aes = Aes128::new(cfg.key);
    let mut rng = StdRng::seed_from_u64(seed);
    let all_sms: Vec<SmId> = SmId::range(dev.hierarchy().num_sms()).collect();

    // ---- Victim: collect (ciphertext bytes, time) samples. -----------------
    let mut times = Vec::with_capacity(cfg.samples);
    let mut ct_bytes: Vec<[u8; WARP_SIZE]> = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let sm = cfg.scheduler.assign_one(&all_sms, &mut rng);
        let mut warp_ct = [0u8; WARP_SIZE];
        // Per byte position, the table line each thread's lookup touches.
        let mut lines = [[0u8; WARP_SIZE]; 16];
        for (t, slot) in warp_ct.iter_mut().enumerate() {
            let mut pt = [0u8; 16];
            rng.fill(&mut pt);
            let (ct, trace) = aes.encrypt_block_traced(pt);
            *slot = ct[cfg.position];
            for (position, (group, &idx)) in
                lines.iter_mut().zip(&trace.last_round_indices).enumerate()
            {
                group[t] = table_line(position, idx);
            }
        }
        // Kernel time: one coalesced transaction group per byte position.
        let mut time = 0.0;
        for group in &lines {
            time += warp_read_cycles(dev, sm, group);
        }
        times.push(time);
        ct_bytes.push(warp_ct);
    }

    // ---- Attacker: correlate per guess. ------------------------------------
    let inv = inv_sbox();
    let mut correlations = Vec::with_capacity(256);
    let mut predicted = vec![0.0; cfg.samples];
    for guess in 0..=255u8 {
        let bits = guess_line_bits(&inv, guess);
        for (p, warp) in predicted.iter_mut().zip(&ct_bytes) {
            *p = f64::from(predicted_lines(&bits, warp));
        }
        correlations.push(pearson(&predicted, &times));
    }

    let mut order: Vec<usize> = (0..256).collect();
    order.sort_by(|&a, &b| {
        correlations[b]
            .partial_cmp(&correlations[a])
            .expect("finite")
    });
    let best_guess = order[0] as u8;
    let margin = correlations[order[0]] - correlations[order[1]];
    AesAttackResult {
        correlations,
        best_guess,
        true_byte: aes.last_round_key()[cfg.position],
        margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique-line count of a warp's lookups at one byte position: the
    /// oracle for the attacker's guess tables. Lines are below 32, so one
    /// bit per line of a `u64` marks the lines seen.
    fn unique_lines(position: usize, indices: impl IntoIterator<Item = u8>) -> usize {
        let seen = indices
            .into_iter()
            .fold(0u64, |seen, idx| seen | 1 << table_line(position, idx));
        seen.count_ones() as usize
    }

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    #[test]
    fn static_scheduling_leaks_the_key_byte() {
        // Fig. 18a: with static scheduling the correct last-round key byte
        // produces a clear Pearson peak.
        let mut dev = GpuDevice::a100(0);
        let cfg = AesAttackConfig {
            samples: 2_500,
            ..AesAttackConfig::new(KEY)
        };
        let r = run_aes_attack(&mut dev, &cfg, 42);
        assert!(r.succeeded(), "best {} true {}", r.best_guess, r.true_byte);
        assert!(r.margin > 0.05, "margin {}", r.margin);
    }

    #[test]
    fn random_scheduling_defeats_the_attack() {
        // Fig. 18b: random-seed scheduling destroys the correlation peak.
        let mut dev = GpuDevice::a100(0);
        let cfg = AesAttackConfig {
            samples: 2_500,
            scheduler: CtaScheduler::RandomSeed,
            ..AesAttackConfig::new(KEY)
        };
        let r = run_aes_attack(&mut dev, &cfg, 42);
        let true_corr = r.correlations[r.true_byte as usize];
        // The correct byte no longer stands out: its correlation is buried in
        // the noise floor of wrong guesses.
        let noise: f64 = r
            .correlations
            .iter()
            .enumerate()
            .filter(|&(g, _)| g != r.true_byte as usize)
            .map(|(_, &c)| c.abs())
            .fold(0.0, f64::max);
        assert!(
            true_corr < noise * 2.0,
            "defense failed: true {true_corr} vs noise {noise}"
        );
    }

    #[test]
    fn other_byte_positions_are_recoverable_too() {
        let mut dev = GpuDevice::a100(1);
        let cfg = AesAttackConfig {
            samples: 2_500,
            position: 5,
            ..AesAttackConfig::new(KEY)
        };
        let r = run_aes_attack(&mut dev, &cfg, 7);
        assert!(r.succeeded());
    }

    #[test]
    fn correlation_bits_are_pinned() {
        // Every guess's correlation, bit for bit, on a fixed device and seed.
        let mut dev = GpuDevice::a100(3);
        let cfg = AesAttackConfig {
            samples: 300,
            position: 2,
            scheduler: CtaScheduler::RandomSeed,
            ..AesAttackConfig::new(KEY)
        };
        let r = run_aes_attack(&mut dev, &cfg, 11);
        let bytes: Vec<u8> = r
            .correlations
            .iter()
            .flat_map(|c| c.to_bits().to_le_bytes())
            .collect();
        let got = (
            gnoc_telemetry::hash::fnv1a64(&bytes),
            r.best_guess,
            r.margin.to_bits(),
        );
        assert_eq!(got, (8714393080935990846, 92, 4571828388183098048));
    }

    #[test]
    fn unique_line_counting_is_correct() {
        assert_eq!(unique_lines(0, [0, 1, 31]), 1);
        assert_eq!(unique_lines(0, [0, 32, 64]), 3);
        // Different positions select different tables.
        assert_ne!(table_line(0, 0), table_line(1, 0));
        assert_eq!(table_line(0, 0), table_line(4, 0));
    }

    #[test]
    fn guess_tables_count_the_unique_lines_of_every_guess() {
        let inv = inv_sbox();
        let mut rng = StdRng::seed_from_u64(0xae5);
        let warps: Vec<[u8; WARP_SIZE]> = (0..24)
            .map(|i| {
                let mut warp = [0u8; WARP_SIZE];
                rng.fill(&mut warp);
                // Warps of 1-4 distinct bytes too, so that low counts occur.
                if i < 8 {
                    let distinct = i % 4 + 1;
                    for t in distinct..WARP_SIZE {
                        warp[t] = warp[t % distinct];
                    }
                }
                warp
            })
            .collect();
        for guess in 0..=255u8 {
            let bits = guess_line_bits(&inv, guess);
            for warp in &warps {
                let got = predicted_lines(&bits, warp) as usize;
                for position in 0..16 {
                    let indices = warp.iter().map(|&c| inv[(c ^ guess) as usize]);
                    assert_eq!(
                        got,
                        unique_lines(position, indices),
                        "guess {guess} position {position}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "position")]
    fn bad_position_rejected() {
        let mut dev = GpuDevice::v100(0);
        let cfg = AesAttackConfig {
            position: 16,
            ..AesAttackConfig::new(KEY)
        };
        let _ = run_aes_attack(&mut dev, &cfg, 0);
    }
}
