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
//! in which `pick` would never have been called. This is what keeps
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
    /// Number of distinct input indices the round-robin rotation covers;
    /// inputs at or beyond it alias onto lower ones and break fairness.
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

    /// Picks a winner among `candidates` — `(input index, packet birth)`
    /// pairs — or `None` when empty. Updates round-robin state.
    pub fn pick(&mut self, candidates: &[(usize, u64)]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let winner = match self.kind {
            ArbiterKind::RoundRobin => {
                // First candidate at or after the rotating pointer. Seeding
                // the scan with candidates[0] keeps this branch panic-free.
                let key_of = |input: usize| {
                    input
                        .wrapping_sub(self.rr_next)
                        .wrapping_add(Self::MAX_INPUTS)
                        % Self::MAX_INPUTS
                };
                let mut w = candidates[0].0;
                let mut best_key = key_of(w);
                for &(input, _) in &candidates[1..] {
                    let key = key_of(input);
                    if key < best_key {
                        best_key = key;
                        w = input;
                    }
                }
                self.rr_next = (w + 1) % Self::MAX_INPUTS;
                w
            }
            // `min_by_key` is `Some` whenever candidates is non-empty, which
            // the guard above established; `?` degrades to a no-grant rather
            // than aborting if that invariant ever breaks.
            ArbiterKind::AgeBased => {
                candidates
                    .iter()
                    .min_by_key(|&&(input, birth)| (birth, input))?
                    .0
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
        let cands = [(0usize, 10u64), (1, 5), (2, 1)];
        let first = a.pick(&cands).unwrap();
        let second = a.pick(&cands).unwrap();
        let third = a.pick(&cands).unwrap();
        assert_eq!(first, 0);
        assert_eq!(second, 1);
        assert_eq!(third, 2);
        assert_eq!(a.pick(&cands).unwrap(), 0);
    }

    #[test]
    fn round_robin_skips_absent_inputs() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(a.pick(&[(3, 0)]).unwrap(), 3);
        // Pointer is now 4; only inputs 1 and 2 request.
        assert_eq!(a.pick(&[(1, 0), (2, 0)]).unwrap(), 1);
    }

    #[test]
    fn age_based_prefers_oldest() {
        let mut a = Arbiter::new(ArbiterKind::AgeBased);
        assert_eq!(a.pick(&[(0, 10), (1, 5), (2, 7)]).unwrap(), 1);
        // Ties break on input index for determinism.
        assert_eq!(a.pick(&[(2, 5), (1, 5)]).unwrap(), 1);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut a = Arbiter::new(ArbiterKind::RoundRobin);
        assert_eq!(a.pick(&[]), None);
        assert_eq!(a.grants(), 0);
    }

    #[test]
    fn grants_count_only_winners() {
        let mut a = Arbiter::new(ArbiterKind::AgeBased);
        assert_eq!(a.pick(&[]), None);
        a.pick(&[(0, 1)]).unwrap();
        a.pick(&[(0, 1), (1, 2)]).unwrap();
        assert_eq!(a.grants(), 2);
    }
}
