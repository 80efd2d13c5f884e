//! Output-port arbitration policies.
//!
//! The paper (Fig. 23) contrasts locally-fair round-robin arbitration — which
//! starves distant nodes in a multi-hop mesh through cascaded 50/50 merges —
//! with globally-fair age-based arbitration, which equalises throughput at
//! the cost of extra flow-control complexity.
//!
//! **Event-core invariant:** the mesh only consults an arbiter on cycles
//! with at least one candidate, so the round-robin rotation (`rr_next`)
//! advances exactly as many times under the event core's next-event skip as
//! under cycle-exact stepping — skipped spans are, by construction, spans
//! in which `grant` would never have been called. This is what keeps
//! arbitration (and therefore every downstream fairness figure)
//! bit-identical across engines; see DESIGN.md §8.2.

use serde::{Deserialize, Serialize};

/// Which arbitration policy router outputs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArbiterKind {
    /// Locally fair rotating priority among the requesting inputs.
    RoundRobin,
    /// Globally fair: the oldest packet (smallest birth cycle) wins.
    AgeBased,
}

/// Per-output arbitration state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arbiter {
    kind: ArbiterKind,
    rr_next: usize,
    grants: u64,
}

impl Arbiter {
    /// Number of inputs an arbiter serves: one bit each of a `u64` request
    /// mask. Networks reject configurations that would need more.
    pub(crate) const MAX_INPUTS: usize = 64;

    /// Creates an arbiter of the given kind.
    pub fn new(kind: ArbiterKind) -> Self {
        Self {
            kind,
            rr_next: 0,
            grants: 0,
        }
    }

    /// Number of grants issued since creation — exported into the telemetry
    /// registry as part of the mesh's metrics.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants one input of `requests`, a mask with bit `i` set while input
    /// `i` requests, or `None` when the mask is empty. Round-robin grants
    /// the first set bit at or after the rotating pointer and moves the
    /// pointer past it; age-based grants the minimum `(birth_of(input),
    /// input)` over the set bits and calls `birth_of` for those only. Every
    /// network grants through this one rule.
    pub fn grant(&mut self, requests: u64, birth_of: impl Fn(usize) -> u64) -> Option<usize> {
        if requests == 0 {
            return None;
        }
        let winner = match self.kind {
            ArbiterKind::RoundRobin => {
                // Rotating the pointer's bit down to bit 0 makes the
                // lowest set bit the first request at or after it.
                let offset = requests.rotate_right(self.rr_next as u32).trailing_zeros() as usize;
                let w = (self.rr_next + offset) % Self::MAX_INPUTS;
                self.rr_next = (w + 1) % Self::MAX_INPUTS;
                w
            }
            ArbiterKind::AgeBased => {
                // Set bits come out in ascending input order, so keeping
                // the first of equal births breaks ties to the lower input.
                let mut rest = requests;
                let mut w = rest.trailing_zeros() as usize;
                let mut oldest = birth_of(w);
                rest &= rest - 1;
                while rest != 0 {
                    let input = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let birth = birth_of(input);
                    if birth < oldest {
                        (w, oldest) = (input, birth);
                    }
                }
                w
            }
        };
        self.grants += 1;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        let births = [10, 5, 1];
        let grants: Vec<_> = (0..4).map(|_| a.grant(0b111, |i| births[i])).collect();
        assert_eq!(grants, [Some(0), Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn round_robin_skips_absent_inputs() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(a.grant(1 << 3, |_| 0), Some(3));
        // Pointer is now 4; only inputs 1 and 2 request.
        assert_eq!(a.grant(0b110, |_| 0), Some(1));
    }

    #[test]
    fn age_based_prefers_oldest() {
        let mut a = Arbiter::new(ArbiterKind::AgeBased);
        let births = [10, 5, 7];
        assert_eq!(a.grant(0b111, |i| births[i]), Some(1));
        // Ties break on input index for determinism.
        assert_eq!(a.grant(0b110, |_| 5), Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(a.grant(0, |_| 0), None);
        assert_eq!(a.grants(), 0);
    }

    /// The candidate-list form of `grant`'s rule: round-robin grants the
    /// candidate with the minimum rotation key, age-based the minimum
    /// `(birth, input)`.
    fn reference(kind: ArbiterKind, rr_next: usize, candidates: &[(usize, u64)]) -> usize {
        let key_of = |input: usize| {
            input
                .wrapping_sub(rr_next)
                .wrapping_add(Arbiter::MAX_INPUTS)
                % Arbiter::MAX_INPUTS
        };
        let (input, _) = match kind {
            ArbiterKind::RoundRobin => candidates.iter().min_by_key(|&&(input, _)| key_of(input)),
            ArbiterKind::AgeBased => candidates
                .iter()
                .min_by_key(|&&(input, birth)| (birth, input)),
        }
        .expect("a non-empty candidate list");
        *input
    }

    #[test]
    fn mask_grant_matches_the_candidate_list_rule() {
        let mut rng = gnoc_telemetry::hash::SplitMix64::new(21);
        for kind in [ArbiterKind::RoundRobin, ArbiterKind::AgeBased] {
            let mut calls = 0;
            let mut a = Arbiter::new(kind);
            for case in 0..20_000 {
                let requests = match case % 4 {
                    // A single requester, anywhere, including bit 63.
                    0 => 1 << (rng.next() % 64),
                    // The top and bottom bits, so round-robin wraps 63 → 0.
                    1 => 1 << 63 | 1 | rng.next() & rng.next(),
                    _ => rng.next() & rng.next(),
                };
                if requests == 0 {
                    assert_eq!(a.grant(requests, |_| 0), None);
                    continue;
                }
                // Few distinct births, so ties are common.
                let births: Vec<u64> = (0..64).map(|_| rng.next() % 4).collect();
                a.rr_next = match case % 8 {
                    1 => 63,
                    5 => 0,
                    _ => (rng.next() % 64) as usize,
                };
                let candidates: Vec<(usize, u64)> = (0..64)
                    .filter(|&i| requests & 1 << i != 0)
                    .map(|i| (i, births[i]))
                    .collect();
                let want = reference(kind, a.rr_next, &candidates);
                let rr_next = a.rr_next;
                let got = a.grant(requests, |i| births[i]);
                calls += 1;
                assert_eq!(got, Some(want), "{kind:?} {requests:#x} from {rr_next}");
                if kind == ArbiterKind::RoundRobin {
                    assert_eq!(a.rr_next, (want + 1) % 64);
                }
                assert_eq!(a.grants(), calls);
            }
        }
    }

    #[test]
    fn round_robin_wraps_from_the_top_input() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        let requests = 1 << 63 | 1 << 2;
        assert_eq!(a.grant(requests, |_| 0), Some(2));
        assert_eq!(a.grant(requests, |_| 0), Some(63));
        assert_eq!(a.grant(requests, |_| 0), Some(2));
    }

    #[test]
    fn age_based_ties_go_to_the_lowest_input() {
        let mut a = Arbiter::new(ArbiterKind::AgeBased);
        let requests = 1 << 40 | 1 << 9 | 1 << 3;
        assert_eq!(a.grant(requests, |i| if i == 3 { 8 } else { 7 }), Some(9));
        assert_eq!(a.grant(requests, |_| 7), Some(3));
    }

    #[test]
    fn grants_count_only_winners() {
        let mut a = Arbiter::new(ArbiterKind::AgeBased);
        assert_eq!(a.grant(0, |_| 0), None);
        a.grant(0b1, |_| 1).unwrap();
        a.grant(0b11, |i| [1, 2][i]).unwrap();
        assert_eq!(a.grants(), 2);
    }
}
