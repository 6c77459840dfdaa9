//! Fault injection for providers: prompt faults, outage windows,
//! brownouts, and hangs.
//!
//! The original model only knew *prompt* faults — a call that errors out
//! after its set-up cost. Real wide-area services fail in richer ways, and
//! each shape stresses a different part of the mediator's resilience
//! layer:
//!
//! * **Prompt faults** (`fail_every` / `fail_probability` / `fail_first`)
//!   return [`crate::NetError::ServiceFault`] quickly — retries absorb
//!   them.
//! * **Outage windows** (`down_between`) fail every call that starts while
//!   the provider's *model clock* (cumulative charged model latency, the
//!   same deterministic clock [`crate::CallTrace`] uses) is inside a
//!   window — circuit breakers stop hammering them.
//! * **Brownouts** (`brownout_between` × `brownout_factor`) multiply the
//!   latency of calls inside a window — deadlines and hedges cut them.
//! * **Hangs** (`hang_every` / `hang_probability` × `hang_model_secs`)
//!   add an effectively-infinite model latency to a call; without a
//!   deadline the caller stalls for `hang_model_secs`, with one it is
//!   charged exactly the deadline and observes
//!   [`crate::NetError::Timeout`].
//!
//! Count-based triggers (`fail_every`, `fail_first`, `hang_every`) key off
//! the provider's 1-based call sequence number. Probabilistic triggers use
//! a uniform roll from a deterministic RNG; with `keyed_by_args` the roll
//! is keyed by the *request content* instead of the call sequence, so a
//! given argument tuple fails identically regardless of how concurrent
//! dispatch interleaved the calls — the knob that makes chaos runs
//! replayable.

/// Convention: count-style knobs clamp rather than panic. `every(0)` and
/// `hang_every(0)` mean "every call" (clamped to 1), as the mediator's
/// `ResiliencePolicy { max_attempts: 0, .. }` makes a single attempt.
fn clamp_every(n: u64) -> u64 {
    n.max(1)
}

/// Describes when and how a provider should misbehave.
///
/// Prompt failures surface as [`crate::NetError::ServiceFault`] from
/// [`crate::Provider::call`]; timed-out calls (hangs or slow calls under a
/// deadline) surface as [`crate::NetError::Timeout`]. The mediator decides
/// whether to retry, skip or abort the query.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Fail every `n`-th call (1-based): `Some(3)` fails calls 3, 6, 9, …
    pub fail_every: Option<u64>,
    /// Fail calls with this probability, decided by the deterministic
    /// per-call RNG. `0.0` never fails.
    pub fail_probability: f64,
    /// Fail the first `n` calls outright (cold-start outage).
    pub fail_first: u64,
    /// Outage windows `(model_t0, model_t1)` on the provider's model
    /// clock: a call starting at model time `t` with `t0 <= t < t1` fails
    /// promptly, like a prompt fault.
    pub down_between: Vec<(f64, f64)>,
    /// Brownout windows on the provider's model clock: a call starting
    /// inside one has its latency multiplied by [`Self::brownout_factor`].
    pub brownout_between: Vec<(f64, f64)>,
    /// Latency multiplier applied inside brownout windows (≥ 1 useful;
    /// the default `1.0` makes brownout windows inert).
    pub brownout_factor: f64,
    /// Hang every `n`-th call (1-based), like `fail_every` but the call
    /// stalls instead of erroring.
    pub hang_every: Option<u64>,
    /// Hang calls with this probability (deterministic roll, separate RNG
    /// stream from `fail_probability`).
    pub hang_probability: f64,
    /// Model seconds a hung call stalls before completing — the finite
    /// stand-in for "infinite". Large enough that any sane per-call
    /// deadline fires first; small enough that a deadline-less run still
    /// terminates (the test suite's anti-hang guard).
    pub hang_model_secs: f64,
    /// Key the probabilistic rolls by a hash of the request content
    /// instead of the call sequence number, so the set of failing
    /// argument tuples is independent of dispatch interleaving.
    pub keyed_by_args: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            fail_every: None,
            fail_probability: 0.0,
            fail_first: 0,
            down_between: Vec::new(),
            brownout_between: Vec::new(),
            brownout_factor: 1.0,
            hang_every: None,
            hang_probability: 0.0,
            hang_model_secs: 600.0,
            keyed_by_args: false,
        }
    }
}

fn in_window(windows: &[(f64, f64)], t: f64) -> bool {
    windows.iter().any(|&(t0, t1)| t >= t0 && t < t1)
}

impl FaultSpec {
    /// A spec that never fails (the default).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Fail every `n`-th call. `0` clamps to `1` (fail every call) —
    /// count-style knobs clamp rather than panic.
    pub fn every(n: u64) -> Self {
        FaultSpec {
            fail_every: Some(clamp_every(n)),
            ..Default::default()
        }
    }

    /// Hang every `n`-th call (`0` clamps to `1`).
    pub fn hang_every(n: u64) -> Self {
        FaultSpec {
            hang_every: Some(clamp_every(n)),
            ..Default::default()
        }
    }

    /// Whether this spec can ever fail, hang, or slow a call — `false`
    /// lets the provider skip the chaos bookkeeping entirely.
    pub fn is_active(&self) -> bool {
        self.fail_every.is_some()
            || self.fail_probability > 0.0
            || self.fail_first > 0
            || !self.down_between.is_empty()
            || (!self.brownout_between.is_empty() && self.brownout_factor != 1.0)
            || self.hang_every.is_some()
            || self.hang_probability > 0.0
    }

    /// Decides whether call number `seq` (1-based) fails promptly. `roll`
    /// is a uniform sample in `[0,1)` from the deterministic per-call RNG.
    pub fn should_fail(&self, seq: u64, roll: f64) -> bool {
        if seq <= self.fail_first {
            return true;
        }
        if let Some(n) = self.fail_every {
            if seq.is_multiple_of(n) {
                return true;
            }
        }
        roll < self.fail_probability
    }

    /// Decides whether call number `seq` hangs. `roll` is a uniform sample
    /// from a *separately keyed* deterministic RNG stream.
    pub fn should_hang(&self, seq: u64, roll: f64) -> bool {
        if let Some(n) = self.hang_every {
            if seq.is_multiple_of(n) {
                return true;
            }
        }
        roll < self.hang_probability
    }

    /// Whether the provider is down at model time `t` (cumulative charged
    /// model latency on the provider's clock).
    pub fn down_at(&self, t: f64) -> bool {
        in_window(&self.down_between, t)
    }

    /// The latency multiplier at model time `t` (1.0 outside brownouts).
    pub fn latency_factor_at(&self, t: f64) -> f64 {
        if in_window(&self.brownout_between, t) {
            self.brownout_factor.max(0.0)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let f = FaultSpec::none();
        assert!(!f.is_active());
        for seq in 1..100 {
            assert!(!f.should_fail(seq, 0.0));
            assert!(!f.should_hang(seq, 0.0));
        }
    }

    #[test]
    fn every_n_fails_multiples() {
        let f = FaultSpec::every(3);
        let failed: Vec<u64> = (1..=9).filter(|&s| f.should_fail(s, 0.99)).collect();
        assert_eq!(failed, vec![3, 6, 9]);
    }

    #[test]
    fn fail_first_covers_prefix() {
        let f = FaultSpec {
            fail_first: 2,
            ..Default::default()
        };
        assert!(f.should_fail(1, 0.9));
        assert!(f.should_fail(2, 0.9));
        assert!(!f.should_fail(3, 0.9));
    }

    #[test]
    fn probability_uses_roll() {
        let f = FaultSpec {
            fail_probability: 0.5,
            ..Default::default()
        };
        assert!(f.should_fail(1, 0.4));
        assert!(!f.should_fail(1, 0.6));
    }

    #[test]
    fn every_zero_clamps_to_every_call() {
        // Count-style knobs clamp, never panic: every(0) means "fail
        // every call".
        let f = FaultSpec::every(0);
        assert_eq!(f.fail_every, Some(1));
        assert!((1..=5).all(|s| f.should_fail(s, 0.99)));
        assert_eq!(FaultSpec::hang_every(0).hang_every, Some(1));
    }

    #[test]
    fn hang_every_n_hangs_multiples() {
        let f = FaultSpec::hang_every(4);
        let hung: Vec<u64> = (1..=8).filter(|&s| f.should_hang(s, 0.99)).collect();
        assert_eq!(hung, vec![4, 8]);
        // Hangs are not prompt failures.
        assert!(!f.should_fail(4, 0.99));
    }

    #[test]
    fn outage_window_half_open() {
        let f = FaultSpec {
            down_between: vec![(10.0, 20.0)],
            ..Default::default()
        };
        assert!(f.is_active());
        assert!(!f.down_at(9.999));
        assert!(f.down_at(10.0));
        assert!(f.down_at(19.999));
        assert!(!f.down_at(20.0));
    }

    #[test]
    fn brownout_factor_applies_inside_window() {
        let f = FaultSpec {
            brownout_between: vec![(0.0, 5.0), (10.0, 15.0)],
            brownout_factor: 10.0,
            ..Default::default()
        };
        assert_eq!(f.latency_factor_at(2.0), 10.0);
        assert_eq!(f.latency_factor_at(7.0), 1.0);
        assert_eq!(f.latency_factor_at(12.0), 10.0);
        // Factor 1.0 windows are inert and don't count as active chaos.
        let inert = FaultSpec {
            brownout_between: vec![(0.0, 5.0)],
            ..Default::default()
        };
        assert!(!inert.is_active());
    }
}
