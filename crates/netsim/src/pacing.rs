//! Paced model time as a per-party debt (DESIGN.md, "Pacing").
//!
//! At `time_scale > 0` a charge of model seconds is owed wall time. A wait
//! cannot take less than the OS sleep floor (~80 µs of wall and ~20 µs of
//! CPU here, whatever was asked), and nine charges in ten of a paced query
//! ask for less: a 4 µs message dispatch waited out on its own costs twenty
//! times its modelled price. So a party accumulates what it owes and waits
//! once per quantum (100 µs) for the whole debt; the measured overwait is carried
//! forward as credit against the next charges.
//!
//! There is one pacer, [`pay`]: it owes, awaits a timer of the
//! [`crate::runtime`] and settles. The paying party owns its
//! [`PacingDebt`]. A query process keeps its own and awaits [`pay`] on it; a
//! plain calling thread is the paying party of [`pay_here`] (which
//! [`InFlight::pay_here`](crate::InFlight::pay_here) and the other sync
//! entry points reach), whose debt is the thread's own and which drives
//! [`pay`] to completion on that thread.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::runtime;

/// Wall seconds a party may owe before it waits, and the most overwait it
/// may carry forward as credit. Just above the measured sleep floor: a
/// smaller debt cannot be waited out accurately, and a larger credit would
/// let one long deschedule make that much of the model time after it free.
const QUANTUM: f64 = 100e-6;

/// Wall seconds as a wait a timer accepts: nothing for NaN, zero or a
/// negative value, the longest wait for what `Duration` cannot hold.
fn sleep_duration(wall_secs: f64) -> Duration {
    Duration::try_from_secs_f64(wall_secs).unwrap_or(if wall_secs > 0.0 {
        Duration::MAX
    } else {
        Duration::ZERO
    })
}

/// What one paying party owes the wall clock, in seconds; negative is
/// credit. It starts at zero ([`Default`]).
///
/// The seconds are an `f64` kept as its bits in an atomic, so [`pay`] holds
/// a plain `&PacingDebt` across its wait: there is no guard that could be
/// held over the `.await`, no lock to poison, and a thread's debt is a
/// `const` thread-local. Only the owning task or thread touches it, one
/// charge at a time, so a relaxed load and store suffice — no
/// read-modify-write. The arithmetic is kept apart from the clock so it is
/// tested without one.
#[derive(Default)]
pub struct PacingDebt(AtomicU64);

impl PacingDebt {
    /// A debt of zero, for the thread-local's `const` initialiser.
    const fn new() -> Self {
        // The bits of 0.0.
        PacingDebt(AtomicU64::new(0))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    fn set(&self, wall_secs: f64) {
        self.0.store(wall_secs.to_bits(), Relaxed);
    }

    /// Adds `wall_secs` (not negative, not NaN) to the debt and, once a
    /// quantum is owed, returns the whole debt as the wait to ask for.
    fn charge(&self, wall_secs: f64) -> Option<Duration> {
        let owed = self.get() + wall_secs;
        self.set(owed);
        (owed >= QUANTUM).then(|| sleep_duration(owed))
    }

    /// Books a wait of `asked` that took `waited`: the debt is paid and the
    /// overwait, up to one quantum, becomes credit.
    fn settle(&self, asked: Duration, waited: Duration) {
        self.set((asked.as_secs_f64() - waited.as_secs_f64()).max(-QUANTUM));
    }
}

impl fmt::Debug for PacingDebt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PacingDebt").field(&self.get()).finish()
    }
}

thread_local! {
    /// The debt of a thread that pays on itself ([`pay_here`]).
    static DEBT: PacingDebt = const { PacingDebt::new() };
}

static CHARGES: AtomicU64 = AtomicU64::new(0);
static OS_SLEEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide pacing counters since start; see [`pacing_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacingStats {
    /// Model-time charges that were paced (`time_scale > 0`, positive
    /// amount).
    pub charges: u64,
    /// Paced waits those charges turned into, whether a task or a calling
    /// thread paid them.
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

/// The pacer: charges `model_secs` of simulated time at `time_scale` to
/// `debt`, and once the debt reaches 100 µs of wall time waits it out,
/// whole, on a runtime timer ([`runtime::sleep`]); what the wait took
/// beyond the debt (at most 100 µs of it) is credited to the next charges.
/// So a 4 µs message dispatch costs 4 µs, not one OS sleep floor (~80 µs),
/// and a party is at most 100 µs of wall time — 0.05 model seconds at scale
/// 0.002 — away from where the model puts it, in either direction.
///
/// A scale or charge that is NaN, zero or negative charges nothing, and at
/// `time_scale == 0` the first poll is ready after comparing one number. A
/// charge too long for a `Duration` waits the longest wait there is.
pub async fn pay(debt: &PacingDebt, time_scale: f64, model_secs: f64) {
    if time_scale > 0.0 && model_secs > 0.0 {
        CHARGES.fetch_add(1, Relaxed);
        if let Some(asked) = debt.charge(model_secs * time_scale) {
            let started = Instant::now();
            runtime::sleep(asked).await;
            OS_SLEEPS.fetch_add(1, Relaxed);
            debt.settle(asked, started.elapsed());
        }
    }
}

/// [`pay`] on the calling thread, for a caller outside the runtime's tasks:
/// charges `model_secs` at `time_scale` to the thread's own debt, then waits
/// `wall` at any scale, both on timers of a [`runtime::block_on`] on this
/// thread, which starts no worker. Unpaced and with no `wall`, it returns
/// at once. Not on a worker ([`runtime::on_worker`]).
pub fn pay_here(time_scale: f64, model_secs: f64, wall: Duration) {
    if (time_scale > 0.0 && model_secs > 0.0) || !wall.is_zero() {
        DEBT.with(|debt| {
            runtime::block_on(async {
                pay(debt, time_scale, model_secs).await;
                runtime::sleep(wall).await;
            });
        });
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
        let debt = PacingDebt::new();
        for _ in 0..24 {
            assert_eq!(debt.charge(4e-6), None);
        }
        let asked = debt.charge(4e-6).expect("25 × 4 µs is a quantum");
        assert!((asked.as_secs_f64() - QUANTUM).abs() < 1e-9, "{asked:?}");
        debt.settle(asked, asked + Duration::from_micros(30));
        assert!(
            (debt.get() + 30e-6).abs() < 1e-9,
            "oversleep is credit: {debt:?}"
        );
        debt.settle(asked, asked + Duration::from_millis(10));
        assert_eq!(debt.get(), -QUANTUM, "a long deschedule buys one quantum");
    }

    #[test]
    fn an_infinite_charge_asks_for_the_longest_sleep() {
        let debt = PacingDebt::new();
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
            let debt = PacingDebt::new();
            let (mut charged, mut slept_total, mut sleeps) = (0.0f64, 0.0f64, 0u32);
            for (wall_secs, oversleep) in steps {
                charged += wall_secs;
                if let Some(asked) = debt.charge(wall_secs) {
                    let slept = asked.mul_f64(1.0 + oversleep);
                    sleeps += 1;
                    slept_total += slept.as_secs_f64();
                    debt.settle(asked, slept);
                }
                prop_assert!((-QUANTUM..QUANTUM).contains(&debt.get()), "debt {debt:?}");
                // A nanosecond of slack per sleep for `Duration`'s rounding.
                let slack = f64::from(sleeps) * 1e-9;
                prop_assert!(slept_total >= charged - QUANTUM - slack);
                prop_assert!(f64::from(sleeps) <= charged / QUANTUM + 1.0);
            }
        }
    }
}
