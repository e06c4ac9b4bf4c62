//! Per-host virtual clocks with injectable skew and drift.
//!
//! The federation advances one *global* timeline (perfect, invisible to
//! the hosts); each host reads time through its own [`VirtualClock`]:
//!
//! ```text
//! local(g) = anchor_local + (g - anchor_global) · (1 + ppm/10⁶)
//! ```
//!
//! Skew injection steps `anchor_local` (a one-shot clock jump, like an
//! operator `date -s` or a cold NTP correction); drift injection changes
//! the rate, re-anchoring at the current instant so the local timeline
//! stays continuous. All arithmetic is integer (`i128` intermediates), so
//! two runs of the same campaign read byte-identical timestamps.
//!
//! The protocol state machines ([`rtcm_rt::quorum_sm`]) take time as
//! plain `now_ns` arguments; the federation feeds them `local_ns(now)`
//! readings, which is exactly how clock error reaches fence and ack
//! timers — a host whose clock runs 0.1% fast expires its fences 0.1%
//! early, just as the threaded runtime would on a machine with a bad
//! oscillator.

/// One host's view of time, as a piecewise-linear map from the global
/// timeline to the host's local nanosecond counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualClock {
    /// Global instant of the current anchor.
    anchor_global: u64,
    /// Local reading at the anchor instant.
    anchor_local: u64,
    /// Rate error in parts-per-million: local runs `1 + ppm/10⁶` as fast
    /// as global. Negative is a slow clock.
    ppm: i64,
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::perfect()
    }
}

impl VirtualClock {
    /// A clock that tracks the global timeline exactly.
    #[must_use]
    pub fn perfect() -> Self {
        VirtualClock { anchor_global: 0, anchor_local: 0, ppm: 0 }
    }

    /// The local reading at global instant `global_ns`.
    #[must_use]
    pub fn local_ns(&self, global_ns: u64) -> u64 {
        let delta = i128::from(global_ns.saturating_sub(self.anchor_global));
        let scaled = delta + delta * i128::from(self.ppm) / 1_000_000;
        let local = i128::from(self.anchor_local) + scaled;
        local.clamp(0, i128::from(u64::MAX)) as u64
    }

    /// The global instant at which this clock will read `local_ns`, under
    /// the *current* rate (a later drift change invalidates the answer —
    /// callers that schedule timers off this must re-check on fire).
    /// Returns `None` if the local instant is already in the past at
    /// `from_global_ns`.
    #[must_use]
    pub(crate) fn global_for_local(&self, local_ns: u64, from_global_ns: u64) -> Option<u64> {
        if local_ns <= self.local_ns(from_global_ns) {
            return None;
        }
        let delta_local = i128::from(local_ns) - i128::from(self.anchor_local);
        // Invert local = anchor_local + Δg·(1e6 + ppm)/1e6, rounding up so
        // the returned global instant is never *before* the local deadline.
        let rate = i128::from(1_000_000_i64 + self.ppm).max(1);
        let delta_global = (delta_local * 1_000_000 + rate - 1) / rate;
        let global = i128::from(self.anchor_global) + delta_global;
        Some(global.clamp(0, i128::from(u64::MAX)) as u64)
    }

    /// Steps the local clock by `skew_ns` at global instant `at_global_ns`
    /// (saturating at zero — a local clock never reads negative).
    pub fn step(&mut self, at_global_ns: u64, skew_ns: i64) {
        let local = self.local_ns(at_global_ns);
        self.anchor_global = at_global_ns;
        self.anchor_local = local.saturating_add_signed(skew_ns);
    }

    /// Changes the drift rate to `ppm` at global instant `at_global_ns`,
    /// re-anchoring so the local timeline is continuous at the change.
    pub(crate) fn set_drift(&mut self, at_global_ns: u64, ppm: i64) {
        let local = self.local_ns(at_global_ns);
        self.anchor_global = at_global_ns;
        self.anchor_local = local;
        self.ppm = ppm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = VirtualClock::perfect();
        assert_eq!(c.local_ns(0), 0);
        assert_eq!(c.local_ns(1_000_000_007), 1_000_000_007);
        assert_eq!(c.global_for_local(500, 0), Some(500));
    }

    #[test]
    fn skew_steps_the_local_reading() {
        let mut c = VirtualClock::perfect();
        c.step(1_000, 250);
        assert_eq!(c.local_ns(1_000), 1_250);
        assert_eq!(c.local_ns(2_000), 2_250);
        c.step(2_000, -2_000);
        assert_eq!(c.local_ns(2_000), 250);
        // Negative skew saturates at zero, never a negative reading.
        c.step(2_000, -10_000);
        assert_eq!(c.local_ns(2_000), 0);
    }

    #[test]
    fn drift_scales_elapsed_time_and_stays_continuous() {
        let mut c = VirtualClock::perfect();
        c.set_drift(1_000_000, 100_000); // +10% fast
        assert_eq!(c.local_ns(1_000_000), 1_000_000);
        assert_eq!(c.local_ns(2_000_000), 2_100_000);
        // Rate change re-anchors: no jump at the change instant.
        c.set_drift(2_000_000, -100_000);
        assert_eq!(c.local_ns(2_000_000), 2_100_000);
        assert_eq!(c.local_ns(3_000_000), 3_000_000);
    }

    #[test]
    fn inverse_mapping_lands_at_or_after_the_local_deadline() {
        let mut c = VirtualClock::perfect();
        c.set_drift(0, 333); // odd rate to force rounding
        for local in [1_u64, 999, 1_000_000, 123_456_789] {
            let g = c.global_for_local(local, 0).unwrap();
            assert!(c.local_ns(g) >= local, "local deadline {local} missed at global {g}");
            assert!(c.local_ns(g.saturating_sub(2)) < local);
        }
        // Past deadlines are reported as such rather than inverted.
        assert_eq!(c.global_for_local(5, 1_000_000), None);
    }
}
