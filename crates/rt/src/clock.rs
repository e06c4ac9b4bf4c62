//! Wall-clock time source mapped onto the core [`Time`] axis.
//!
//! All nodes of a runtime [`crate::system::System`] share one `Clock`, so
//! one-way delays between threads are directly measurable — a luxury the
//! paper's distributed testbed lacked ("our experiment environment does not
//! provide sufficiently high resolution time synchronization among
//! processors", §7.3). Our substitution runs all "processors" in one
//! process, which makes the Figure 8 measurements simpler and *more*
//! precise; the trade-off is documented in DESIGN.md.

use std::time::Instant;

use rtcm_core::time::Time;

/// A monotonic nanosecond source: the one time source of a runtime
/// handler, read through its [`crate::reactor::Reactor`].
///
/// The threads run on the wall [`Clock`]; a [`crate::host::Host`] runs the
/// same handlers on a virtual clock it advances itself.
pub trait TimerDriver {
    /// Nanoseconds elapsed on this driver's time axis (monotone).
    fn now_ns(&self) -> u64;

    /// [`TimerDriver::now_ns`] on the core time axis.
    fn now(&self) -> Time {
        Time::from_nanos(self.now_ns())
    }
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
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl TimerDriver for Clock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use rtcm_core::time::Duration;

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
