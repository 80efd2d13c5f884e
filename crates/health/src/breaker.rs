//! Three-state circuit breaker with hysteresis.
//!
//! `Closed → Open → HalfOpen → {Closed, Open}` — the classic pattern, tuned
//! for deterministic simulation: every transition is a pure function of the
//! observed window verdicts and probe results, so two runs that feed a
//! breaker the same observations produce bit-identical state histories.

use serde::{Deserialize, Serialize};

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are being counted.
    Closed,
    /// Tripped: the resource is quarantined; a cooldown is ticking.
    Open,
    /// Probation: probe traffic is testing the resource; real traffic still
    /// avoids it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        })
    }
}

/// Failure score (leaky bucket) that trips `Closed → Open`. Failing windows
/// add one and clean windows drain one, so an isolated blip never trips but
/// a persistent fault does within two windows (DESIGN.md §5).
pub const FAILURE_WINDOWS: u32 = 2;
/// Windows spent `Open` before the first `HalfOpen` probation.
pub const COOLDOWN_WINDOWS: u32 = 8;
/// Cap on the doubling cooldown — the flap-prevention hysteresis: each
/// failed probation doubles the next cooldown up to this bound, so a dead
/// resource costs a logarithmic number of probes.
pub const MAX_COOLDOWN_WINDOWS: u32 = 64;
/// Consecutive clean probes that close a `HalfOpen` breaker.
pub const PROBE_SUCCESSES: u32 = 3;

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A deterministic three-state circuit breaker for one resource.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Leaky-bucket failure score while `Closed`.
    failures: u32,
    /// Windows left before `Open` moves to probation.
    cooldown_left: u32,
    /// Current cooldown length (doubles on each failed probation).
    cooldown: u32,
    /// Consecutive clean probes while `HalfOpen`.
    probe_streak: u32,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            failures: 0,
            cooldown_left: 0,
            cooldown: COOLDOWN_WINDOWS,
            probe_streak: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the resource should currently be quarantined (any state but
    /// `Closed`: `HalfOpen` still keeps real traffic away, only probes go).
    pub fn is_quarantining(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Advances one health window. `failing` is the window's verdict for the
    /// resource (ignored outside `Closed`). Returns the transition taken, if
    /// any: `Closed → Open` when the failure bucket fills, `Open → HalfOpen`
    /// when the cooldown expires.
    pub fn on_window(&mut self, failing: bool) -> Option<Transition> {
        match self.state {
            BreakerState::Closed => {
                if failing {
                    self.failures += 1;
                    if self.failures >= FAILURE_WINDOWS {
                        self.state = BreakerState::Open;
                        self.cooldown_left = self.cooldown;
                        return Some(Transition {
                            from: BreakerState::Closed,
                            to: BreakerState::Open,
                        });
                    }
                } else {
                    self.failures = self.failures.saturating_sub(1);
                }
                None
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.probe_streak = 0;
                    return Some(Transition {
                        from: BreakerState::Open,
                        to: BreakerState::HalfOpen,
                    });
                }
                None
            }
            BreakerState::HalfOpen => None,
        }
    }

    /// Feeds one `HalfOpen` probe result. A clean streak closes the breaker
    /// (resetting the cooldown to its base); any failure re-opens it and
    /// doubles the next cooldown, so a flaky resource flaps at most
    /// logarithmically before settling Open. Ignored outside `HalfOpen`.
    pub fn on_probe(&mut self, ok: bool) -> Option<Transition> {
        if self.state != BreakerState::HalfOpen {
            return None;
        }
        if ok {
            self.probe_streak += 1;
            if self.probe_streak >= PROBE_SUCCESSES {
                self.state = BreakerState::Closed;
                self.failures = 0;
                self.cooldown = COOLDOWN_WINDOWS;
                return Some(Transition {
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Closed,
                });
            }
            None
        } else {
            self.state = BreakerState::Open;
            self.cooldown = (self.cooldown * 2).min(MAX_COOLDOWN_WINDOWS);
            self.cooldown_left = self.cooldown;
            Some(Transition {
                from: BreakerState::HalfOpen,
                to: BreakerState::Open,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new()
    }

    #[test]
    fn trips_after_persistent_failures_not_blips() {
        let mut b = breaker();
        // One blip drains away.
        assert!(b.on_window(true).is_none());
        assert!(b.on_window(false).is_none());
        assert!(b.on_window(false).is_none());
        assert_eq!(b.state(), BreakerState::Closed);
        // Persistent failure trips.
        assert!(b.on_window(true).is_none());
        let t = b.on_window(true).unwrap();
        assert_eq!(t.to, BreakerState::Open);
        assert!(b.is_quarantining());
    }

    #[test]
    fn cooldown_leads_to_probation_and_recovery() {
        let mut b = breaker();
        b.on_window(true);
        b.on_window(true);
        // Cooldown: 8 windows.
        for _ in 0..7 {
            assert!(b.on_window(false).is_none());
        }
        assert_eq!(b.on_window(false).unwrap().to, BreakerState::HalfOpen);
        // Probation still quarantines.
        assert!(b.is_quarantining());
        b.on_probe(true);
        b.on_probe(true);
        assert_eq!(b.on_probe(true).unwrap().to, BreakerState::Closed);
        assert!(!b.is_quarantining());
    }

    #[test]
    fn failed_probe_doubles_cooldown() {
        let mut b = breaker();
        b.on_window(true);
        b.on_window(true);
        for _ in 0..8 {
            b.on_window(false);
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.on_probe(false).unwrap().to, BreakerState::Open);
        // Second cooldown is 16 windows, not 8 — hysteresis against flap.
        for _ in 0..15 {
            assert!(b.on_window(false).is_none(), "cooldown must have doubled");
        }
        assert_eq!(b.on_window(false).unwrap().to, BreakerState::HalfOpen);
    }

    #[test]
    fn probe_ignored_when_not_half_open() {
        let mut b = breaker();
        assert!(b.on_probe(false).is_none());
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
