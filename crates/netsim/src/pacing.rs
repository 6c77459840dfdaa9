//! Paced model time as a per-party debt (DESIGN.md, "Pacing").
//!
//! At `time_scale > 0` a charge of model seconds is owed wall time. A wait
//! cannot take less than the OS sleep floor (~80 µs of wall and ~20 µs of
//! CPU here, whatever was asked), and nine charges in ten of a paced query
//! ask for less: a 4 µs message dispatch waited out on its own costs twenty
//! times its modelled price. So a party accumulates what it owes and waits
//! once per [`QUANTUM`] for the whole debt; the measured overwait is carried
//! forward as credit against the next charges.
//!
//! The debt lives in a thread-local. A thread that runs many simulated
//! parties in turn (a task runtime) keeps each party's debt apart with
//! [`swap_pacing_debt`]. How the due wait is waited out is the caller's
//! business: [`SimConfig::sleep_model`](crate::SimConfig::sleep_model)
//! sleeps the thread, a task runtime sets a timer
//! ([`SimConfig::owe_model`](crate::SimConfig::owe_model), then
//! [`settle_pacing`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Wall seconds a party may owe before it waits, and the most overwait it
/// may carry forward as credit. Just above the measured sleep floor: a
/// smaller debt cannot be waited out accurately, and a larger credit would
/// let one long deschedule make that much of the model time after it free.
const QUANTUM: f64 = 100e-6;

/// Wall seconds as a duration `thread::sleep` accepts: nothing for NaN, zero
/// or a negative value, the longest sleep for what `Duration` cannot hold.
fn sleep_duration(wall_secs: f64) -> Duration {
    Duration::try_from_secs_f64(wall_secs).unwrap_or(if wall_secs > 0.0 {
        Duration::MAX
    } else {
        Duration::ZERO
    })
}

/// What one thread owes the wall clock, in seconds; negative is credit. The
/// arithmetic is kept apart from the clock so it is tested without one.
#[derive(Debug)]
struct PacingDebt(f64);

impl PacingDebt {
    /// Adds `wall_secs` (not negative, not NaN) to the debt and, once a
    /// quantum is owed, returns the whole debt as the sleep to ask for.
    fn charge(&mut self, wall_secs: f64) -> Option<Duration> {
        self.0 += wall_secs;
        (self.0 >= QUANTUM).then(|| sleep_duration(self.0))
    }

    /// Books a sleep of `asked` that took `slept`: the debt is paid and the
    /// oversleep, up to one quantum, becomes credit.
    fn settle(&mut self, asked: Duration, slept: Duration) {
        self.0 = (asked.as_secs_f64() - slept.as_secs_f64()).max(-QUANTUM);
    }
}

thread_local! {
    static DEBT: Cell<f64> = const { Cell::new(0.0) };
}

/// Exchanges the calling thread's pacing debt with `debt` (wall seconds,
/// negative is credit). Swapping twice restores both.
pub fn swap_pacing_debt(debt: &mut f64) {
    DEBT.with(|cell| *debt = cell.replace(*debt));
}

static CHARGES: AtomicU64 = AtomicU64::new(0);
static OS_SLEEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide pacing counters since start; see [`pacing_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacingStats {
    /// Model-time charges that were paced (`time_scale > 0`, positive
    /// amount).
    pub charges: u64,
    /// Paced waits those charges turned into, whether a thread slept or a
    /// task awaited a timer.
    pub os_sleeps: u64,
}

/// Pacing counters of the whole process, all threads and networks. They move
/// only at `time_scale > 0`; take the difference of two readings around a
/// run to count it.
pub fn pacing_stats() -> PacingStats {
    PacingStats {
        charges: CHARGES.load(Relaxed),
        os_sleeps: OS_SLEEPS.load(Relaxed),
    }
}

/// Charges `model_secs` at `time_scale` to the calling thread's debt; once
/// a quantum is owed, returns the whole debt as the wait now due, which the
/// caller waits out and reports with [`settle_pacing`]. Nothing for a scale
/// or charge that is NaN, zero or negative.
pub(crate) fn owe(time_scale: f64, model_secs: f64) -> Option<Duration> {
    let paced = time_scale > 0.0 && model_secs > 0.0;
    if !paced {
        return None;
    }
    CHARGES.fetch_add(1, Relaxed);
    DEBT.with(|cell| {
        let mut debt = PacingDebt(cell.get());
        let due = debt.charge(model_secs * time_scale);
        cell.set(debt.0);
        due
    })
}

/// Books a due wait of `asked` (from
/// [`SimConfig::owe_model`](crate::SimConfig::owe_model)) that took
/// `waited` against the calling thread's debt: the debt is paid and the
/// overwait, up to one quantum, becomes credit.
pub fn settle_pacing(asked: Duration, waited: Duration) {
    OS_SLEEPS.fetch_add(1, Relaxed);
    DEBT.with(|cell| {
        let mut debt = PacingDebt(cell.get());
        debt.settle(asked, waited);
        cell.set(debt.0);
    });
}

/// [`owe`], sleeping the thread for the wait due.
pub(crate) fn pace(time_scale: f64, model_secs: f64) {
    if let Some(asked) = owe(time_scale, model_secs) {
        let start = Instant::now();
        std::thread::sleep(asked);
        settle_pacing(asked, start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sleep_duration_never_panics_and_saturates() {
        assert_eq!(sleep_duration(f64::NAN), Duration::ZERO);
        assert_eq!(sleep_duration(-1.0), Duration::ZERO);
        assert_eq!(sleep_duration(0.0), Duration::ZERO);
        assert_eq!(sleep_duration(f64::INFINITY), Duration::MAX);
        assert_eq!(sleep_duration(1e300), Duration::MAX);
        assert_eq!(sleep_duration(0.25), Duration::from_millis(250));
    }

    #[test]
    fn small_charges_add_up_to_one_sleep() {
        let mut debt = PacingDebt(0.0);
        for _ in 0..24 {
            assert_eq!(debt.charge(4e-6), None);
        }
        let asked = debt.charge(4e-6).expect("25 × 4 µs is a quantum");
        assert!((asked.as_secs_f64() - QUANTUM).abs() < 1e-9, "{asked:?}");
        debt.settle(asked, asked + Duration::from_micros(30));
        assert!(
            (debt.0 + 30e-6).abs() < 1e-9,
            "oversleep is credit: {debt:?}"
        );
        debt.settle(asked, asked + Duration::from_millis(10));
        assert_eq!(debt.0, -QUANTUM, "a long deschedule buys one quantum");
    }

    #[test]
    fn an_infinite_charge_asks_for_the_longest_sleep() {
        let mut debt = PacingDebt(0.0);
        assert_eq!(debt.charge(f64::INFINITY), Some(Duration::MAX));
    }

    // Whatever is charged and however late the OS wakes the thread, the
    // thread stays within one quantum of what the model says, all charged
    // time but the last quantum is slept, and a quantum of charges buys at
    // most one sleep.
    proptest! {
        #[test]
        fn debt_stays_within_one_quantum(
            steps in proptest::collection::vec((0.0f64..5.0 * QUANTUM, 0.0f64..3.0), 1..200),
        ) {
            let mut debt = PacingDebt(0.0);
            let (mut charged, mut slept_total, mut sleeps) = (0.0f64, 0.0f64, 0u32);
            for (wall_secs, oversleep) in steps {
                charged += wall_secs;
                if let Some(asked) = debt.charge(wall_secs) {
                    let slept = asked.mul_f64(1.0 + oversleep);
                    sleeps += 1;
                    slept_total += slept.as_secs_f64();
                    debt.settle(asked, slept);
                }
                prop_assert!((-QUANTUM..QUANTUM).contains(&debt.0), "debt {debt:?}");
                // A nanosecond of slack per sleep for `Duration`'s rounding.
                let slack = f64::from(sleeps) * 1e-9;
                prop_assert!(slept_total >= charged - QUANTUM - slack);
                prop_assert!(f64::from(sleeps) <= charged / QUANTUM + 1.0);
            }
        }
    }
}
