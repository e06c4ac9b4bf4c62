//! Serde-backed fault schedules: the campaign input format.
//!
//! A [`FaultSchedule`] is a time-sorted list of primitive fault actions —
//! partitions, crashes, clock skew/drift injections, reconfiguration
//! requests, vote holds. The *same* serialized format drives two
//! executors:
//!
//! * the deterministic federation simulator ([`super::federation`]), which
//!   interprets every action in virtual time, and
//! * the multi-process harness orchestrator (`rtcm-harness`), which maps
//!   the subset that has a physical analogue onto real processes and real
//!   TCP bridges.
//!
//! That shared format is what makes the sim-vs-threaded cross-check
//! meaningful: one schedule, two execution substrates, same invariants.
//!
//! Composite behaviours (flapping bridges, crash-during-prepare) are
//! *builders* that emit primitive actions — the executors never need to
//! know about them.

use serde::{Deserialize, Serialize};

/// One primitive fault action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Take both link directions between hosts `a` and `b` down.
    Partition {
        /// One end of the bridge.
        a: u16,
        /// The other end.
        b: u16,
    },
    /// Bring both link directions between hosts `a` and `b` back up.
    Heal {
        /// One end of the bridge.
        a: u16,
        /// The other end.
        b: u16,
    },
    /// Crash a host: it stops executing, loses its in-flight jobs and its
    /// quorum state (fences, pending swaps).
    Crash {
        /// The host to crash.
        host: u16,
    },
    /// Restart a crashed host with a fresh admission controller under its
    /// last committed configuration.
    Restart {
        /// The host to restart.
        host: u16,
    },
    /// Step the host's local clock by `skew_us` microseconds (positive =
    /// jump forward).
    SkewClock {
        /// The host whose clock to step.
        host: u16,
        /// Signed step in microseconds.
        skew_us: i64,
    },
    /// Change the host's clock rate error to `ppm` parts-per-million.
    DriftClock {
        /// The host whose rate to change.
        host: u16,
        /// New rate error (positive = fast clock).
        ppm: i64,
    },
    /// Ask the host to coordinate a two-phase swap to `target` (a service
    /// configuration label such as `"J_T_T"`).
    Swap {
        /// The coordinating host.
        host: u16,
        /// Target configuration label.
        target: String,
    },
    /// Set or clear the host's vote hold: while held it ignores foreign
    /// prepares entirely (the harness's `hold` verb).
    Hold {
        /// The host whose votes to hold.
        host: u16,
        /// True to hold, false to release.
        value: bool,
    },
}

/// One scheduled action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the action fires, in milliseconds from campaign start (on the
    /// global timeline for the simulator, the orchestrator's wall clock
    /// for the harness).
    pub at_ms: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A campaign's fault script: what goes wrong, and when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultSchedule {
    /// The scheduled actions. Executors process them in `at_ms` order
    /// (ties in listed order).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (a fair-weather campaign).
    #[must_use]
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Appends an action at `at_ms`.
    pub fn push(&mut self, at_ms: u64, action: FaultAction) -> &mut Self {
        self.events.push(FaultEvent { at_ms, action });
        self
    }

    /// Appends a flapping bridge: the `a`↔`b` link goes down/up `cycles`
    /// times starting at `start_ms`, spending `down_ms` down and `up_ms`
    /// up per cycle.
    pub fn flap(
        &mut self,
        a: u16,
        b: u16,
        start_ms: u64,
        cycles: u32,
        down_ms: u64,
        up_ms: u64,
    ) -> &mut Self {
        let mut t = start_ms;
        for _ in 0..cycles {
            self.push(t, FaultAction::Partition { a, b });
            t += down_ms;
            self.push(t, FaultAction::Heal { a, b });
            t += up_ms;
        }
        self
    }

    /// The actions in firing order: stable-sorted by `at_ms`, listed order
    /// preserved within a tie.
    #[must_use]
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at_ms);
        events
    }

    /// The last scheduled instant, in milliseconds.
    #[must_use]
    pub fn horizon_ms(&self) -> u64 {
        self.events.iter().map(|e| e.at_ms).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_emits_alternating_partition_heal_pairs() {
        let mut s = FaultSchedule::new();
        s.flap(0, 1, 100, 3, 50, 25);
        assert_eq!(s.events.len(), 6);
        assert_eq!(
            s.events[0],
            FaultEvent { at_ms: 100, action: FaultAction::Partition { a: 0, b: 1 } }
        );
        assert_eq!(
            s.events[1],
            FaultEvent { at_ms: 150, action: FaultAction::Heal { a: 0, b: 1 } }
        );
        assert_eq!(s.events[5].at_ms, 300);
        assert_eq!(s.horizon_ms(), 300);
    }

    #[test]
    fn sorted_is_stable_within_a_tie() {
        let mut s = FaultSchedule::new();
        s.push(50, FaultAction::Crash { host: 2 });
        s.push(10, FaultAction::Hold { host: 1, value: true });
        s.push(50, FaultAction::Restart { host: 2 });
        let sorted = s.sorted();
        assert_eq!(sorted[0].at_ms, 10);
        assert_eq!(sorted[1], FaultEvent { at_ms: 50, action: FaultAction::Crash { host: 2 } });
        assert_eq!(sorted[2], FaultEvent { at_ms: 50, action: FaultAction::Restart { host: 2 } });
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let mut s = FaultSchedule::new();
        s.push(5, FaultAction::Partition { a: 0, b: 3 });
        s.push(9, FaultAction::SkewClock { host: 2, skew_us: -1500 });
        s.push(12, FaultAction::Swap { host: 0, target: "J_T_T".to_string() });
        s.push(20, FaultAction::Hold { host: 3, value: true });
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
