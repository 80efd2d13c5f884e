//! Thread-block (CTA) schedulers.
//!
//! The paper (Section V-C) observes that the hardware thread-block scheduler
//! is effectively *static*: every launch of the same kernel lands on the same
//! SMs, so the non-uniform NoC latency is never observed by an attacker as
//! noise. The proposed defense is *random-seed* scheduling: blocks are still
//! assigned round-robin, but starting from a random SM each launch, which
//! randomises each block's NoC latency between runs at zero hardware cost.

use gnoc_topo::SmId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A thread-block scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CtaScheduler {
    /// Deterministic round-robin from SM 0 — models the observed hardware
    /// behaviour.
    Static,
    /// Round-robin starting from a random SM drawn per launch — the paper's
    /// proposed defense (Implication #3).
    RandomSeed,
    /// Round-robin starting from a random SM within the first `span`
    /// positions — a partial-entropy defense used for ablation: `span = 1`
    /// degenerates to [`CtaScheduler::Static`], `span ≥ #SMs` to
    /// [`CtaScheduler::RandomSeed`].
    RandomWindow {
        /// Number of distinct start positions the seed is drawn from.
        span: u32,
    },
}

impl CtaScheduler {
    /// Assigns `num_blocks` thread blocks onto `sms`, returning the SM of
    /// each block in launch order.
    ///
    /// `rng` is consulted only by the randomised policies; a `Static`
    /// schedule never draws from it, so the policies can share a seed
    /// stream in experiments.
    ///
    /// # Panics
    ///
    /// Panics if `sms` is empty.
    pub fn assign<R: Rng + ?Sized>(
        self,
        num_blocks: usize,
        sms: &[SmId],
        rng: &mut R,
    ) -> Vec<SmId> {
        assert!(!sms.is_empty(), "cannot schedule onto zero SMs");
        let start = match self {
            CtaScheduler::Static => 0,
            CtaScheduler::RandomSeed => rng.gen_range(0..sms.len()),
            CtaScheduler::RandomWindow { span } => {
                rng.gen_range(0..(span as usize).clamp(1, sms.len()))
            }
        };
        (0..num_blocks)
            .map(|b| sms[(start + b) % sms.len()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sms(n: u32) -> Vec<SmId> {
        (0..n).map(SmId::new).collect()
    }

    #[test]
    fn static_schedule_is_repeatable() {
        let mut rng = StdRng::seed_from_u64(0);
        let sms = sms(8);
        let a = CtaScheduler::Static.assign(16, &sms, &mut rng);
        let b = CtaScheduler::Static.assign(16, &sms, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a[0], SmId::new(0));
        assert_eq!(a[9], SmId::new(1));
    }

    #[test]
    fn random_seed_varies_across_launches() {
        let mut rng = StdRng::seed_from_u64(1);
        let sms = sms(32);
        let starts: Vec<SmId> = (0..64)
            .map(|_| CtaScheduler::RandomSeed.assign(1, &sms, &mut rng)[0])
            .collect();
        let distinct: std::collections::HashSet<_> = starts.iter().collect();
        assert!(
            distinct.len() > 10,
            "random seeds should spread: {distinct:?}"
        );
    }

    #[test]
    fn random_seed_is_still_round_robin_within_a_launch() {
        let mut rng = StdRng::seed_from_u64(2);
        let sms = sms(8);
        let assignment = CtaScheduler::RandomSeed.assign(8, &sms, &mut rng);
        // All SMs used exactly once: the seed rotates, it does not shuffle.
        let mut sorted = assignment.clone();
        sorted.sort();
        assert_eq!(sorted, sms);
        let start = assignment[0].index();
        for (b, sm) in assignment.iter().enumerate() {
            assert_eq!(sm.index(), (start + b) % 8);
        }
    }

    #[test]
    fn random_window_bounds_the_start() {
        let mut rng = StdRng::seed_from_u64(9);
        let sms = sms(32);
        for _ in 0..100 {
            let start = CtaScheduler::RandomWindow { span: 4 }.assign(1, &sms, &mut rng)[0];
            assert!(start.index() < 4, "start {start}");
        }
        // span 1 is static; huge spans clamp to the SM count.
        assert_eq!(
            CtaScheduler::RandomWindow { span: 1 }.assign(1, &sms, &mut rng)[0],
            SmId::new(0)
        );
        let wide = CtaScheduler::RandomWindow { span: 10_000 }.assign(1, &sms, &mut rng)[0];
        assert!(wide.index() < 32);
    }

    #[test]
    fn more_blocks_than_sms_wrap_around() {
        let mut rng = StdRng::seed_from_u64(3);
        let sms = sms(4);
        let assignment = CtaScheduler::Static.assign(10, &sms, &mut rng);
        assert_eq!(assignment.len(), 10);
        assert_eq!(assignment[4], assignment[0]);
    }

    #[test]
    #[should_panic(expected = "zero SMs")]
    fn empty_sm_list_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = CtaScheduler::Static.assign(1, &[], &mut rng);
    }
}
