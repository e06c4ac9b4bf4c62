//! Wall-clock time source mapped onto the core [`Time`] axis.
//!
//! All nodes of a runtime [`crate::system::System`] share one `Clock`, so
//! one-way delays between threads are directly measurable — a luxury the
//! paper's distributed testbed lacked ("our experiment environment does not
//! provide sufficiently high resolution time synchronization among
//! processors", §7.3). Our substitution runs all "processors" in one
//! process, which makes the Figure 8 measurements simpler and *more*
//! precise; the trade-off is documented in DESIGN.md.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtcm_core::time::{Duration, Time};

/// A monotonic nanosecond source that can drive a
/// [`crate::reactor::TimerWheel`].
///
/// The threaded runtime implements this with the wall [`Clock`]; tests and
/// the deterministic simulator implement it with [`ManualClock`], whose time
/// only moves when explicitly advanced — the wheel then fires the exact same
/// entries in the exact same order on every run.
pub trait TimerDriver {
    /// Nanoseconds elapsed on this driver's time axis (monotone).
    fn now_ns(&self) -> u64;
}

/// A monotonic clock anchored at its creation instant.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Creates a clock with `now()` starting at [`Time::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Clock { origin: Instant::now() }
    }

    /// Current time on the shared axis.
    #[must_use]
    pub fn now(&self) -> Time {
        Time::ZERO + Duration::from(self.origin.elapsed())
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl TimerDriver for Clock {
    fn now_ns(&self) -> u64 {
        self.now().as_nanos()
    }
}

/// A hand-cranked [`TimerDriver`]: time stands still until someone calls
/// [`ManualClock::advance_by`].
///
/// Clones share the same axis, so a test can hold one handle while the
/// reactor under test holds another. This is the determinism contract the
/// sim relies on: with a `ManualClock`, wheel firing depends only on the
/// sequence of schedule/cancel/advance calls, never on host scheduling.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    ns: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock frozen at t = 0.
    #[must_use]
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `delta` nanoseconds.
    pub fn advance_by(&self, delta_ns: u64) {
        self.ns.fetch_add(delta_ns, Ordering::SeqCst);
    }
}

impl TimerDriver for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let clock = Clock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_tracks_real_time() {
        let clock = Clock::new();
        let before = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let after = clock.now();
        let elapsed = after.elapsed_since(before);
        assert!(elapsed >= Duration::from_millis(9), "elapsed {elapsed}");
        assert!(elapsed < Duration::from_secs(1), "elapsed {elapsed}");
    }

    #[test]
    fn copies_share_the_origin() {
        let clock = Clock::new();
        let copy = clock;
        let a = clock.now();
        let b = copy.now();
        assert!(b.elapsed_since(a) < Duration::from_millis(5));
    }
}
