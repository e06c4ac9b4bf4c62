//! Event-driven reactor core: a hierarchical timer wheel plus a single
//! blocking wait on `min(next timer, mailbox)`.
//!
//! This replaces the runtime's polling loops (the node dispatcher's 500 µs
//! idle poll and 200 µs execution slices, the manager's 50 ms control poll,
//! the quorum member's 20 ms fence sweep). Every time-driven obligation —
//! subjob completions, prepare-fence deadlines, quorum fence expiries —
//! becomes a wheel entry, and each host thread parks on its merged mailbox
//! (the PR 5 shared-log cursor) until either an event arrives or the
//! earliest entry is due. A thread with no pending timers blocks
//! **indefinitely**: an idle host performs zero wakeups, where the polling
//! design paid ~2000/s/node.
//!
//! # Wheel layout
//!
//! Four levels of 64 slots, Varghese–Lauck hashed hierarchy. With the
//! default 100 µs tick the levels cover 6.4 ms / 409.6 ms / 26.2 s / 27.9
//! min of horizon; entries beyond that wait in a `BTreeMap` overflow and
//! enter the wheel at top-level cascade boundaries. Insert and cancel are
//! O(1) (cancellation is lazy — a tombstone set consulted when a slot is
//! drained); advancing is O(occupied slots crossed), with an explicit jump
//! over empty regions so waking up after a long idle gap never replays
//! per-tick work.
//!
//! # Firing discipline
//!
//! Entries map to slots by `deadline_ns / tick_ns` (floor), and a slot
//! drain only releases entries whose exact `deadline_ns` has passed — a
//! timer never fires early, regardless of tick resolution. Within one
//! `advance` the fired batch is ordered by `(deadline_ns, insertion seq)`,
//! so two wheels fed the same schedule/cancel/advance sequence fire
//! identically; driven by a [`crate::clock::ManualClock`] this makes
//! reactor-based components deterministic under the sim (see
//! [`TimerDriver`]).

use std::collections::{BTreeMap, HashSet};
use std::time::Duration as StdDuration;

use rtcm_events::{Event, EventReceiver, RecvTimeoutError};

use crate::clock::TimerDriver;

/// Default wheel resolution: fine enough that a sub-millisecond subjob's
/// completion maps to its own slot, coarse enough that a level spans useful
/// horizons.
pub const DEFAULT_TICK: StdDuration = StdDuration::from_micros(100);

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const MASK: u64 = (SLOTS as u64) - 1;
const LEVELS: usize = 4;

/// Handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

#[derive(Debug)]
struct Entry<T> {
    id: u64,
    deadline_ns: u64,
    tag: T,
}

/// A hierarchical (hashed) timer wheel over an arbitrary tag type.
///
/// The wheel does not read a clock itself: callers pass absolute
/// nanosecond deadlines to [`TimerWheel::schedule_at`] and the current
/// reading to [`TimerWheel::advance`], so any [`TimerDriver`] — wall clock
/// or manual — can drive it.
#[derive(Debug)]
pub struct TimerWheel<T> {
    tick_ns: u64,
    /// Current tick = floor(now_ns / tick_ns) of the last `advance`.
    tick: u64,
    /// `LEVELS × SLOTS` flattened; level `l` slot `s` at `l * SLOTS + s`.
    slots: Vec<Vec<Entry<T>>>,
    /// Physical entry count per level (including tombstoned entries).
    level_counts: [usize; LEVELS],
    /// Entries beyond the wheel horizon, keyed by deadline tick.
    overflow: BTreeMap<u64, Vec<Entry<T>>>,
    /// Ids scheduled and neither fired nor cancelled.
    live: HashSet<u64>,
    /// Lazily-reaped cancellations.
    cancelled: HashSet<u64>,
    next_id: u64,
}

impl<T> TimerWheel<T> {
    /// A wheel with the given tick resolution, positioned at t = 0.
    ///
    /// # Panics
    /// If `tick` is zero.
    #[must_use]
    pub fn new(tick: StdDuration) -> Self {
        let tick_ns = u64::try_from(tick.as_nanos()).expect("tick fits u64");
        assert!(tick_ns > 0, "wheel tick must be positive");
        TimerWheel {
            tick_ns,
            tick: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            level_counts: [0; LEVELS],
            overflow: BTreeMap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_id: 0,
        }
    }

    /// Wheel resolution in nanoseconds.
    #[must_use]
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Number of pending (scheduled, not fired, not cancelled) timers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// True when no timer is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Schedules a timer at an absolute nanosecond deadline. Deadlines in
    /// the past are legal: the entry fires on the next [`advance`].
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule_at(&mut self, deadline_ns: u64, tag: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id);
        self.place(Entry { id, deadline_ns, tag });
        TimerId(id)
    }

    /// Cancels a pending timer. Returns false if it already fired (or was
    /// already cancelled). O(1): the entry is tombstoned and reaped when
    /// its slot is next drained.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Absolute deadline (ns) the owning thread should wake at, or `None`
    /// when the wheel is empty and the thread can block indefinitely.
    ///
    /// For entries within the level-0 horizon this is their exact
    /// `deadline_ns`; for farther entries it is the next cascade boundary
    /// that moves them closer (at most `LEVELS - 1` such intermediate
    /// wakeups per timer).
    #[must_use]
    pub fn next_deadline_ns(&self) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let mut best: Option<u64> = None;
        for offset in 0..SLOTS as u64 {
            let t = self.tick + offset;
            let slot = &self.slots[(t & MASK) as usize];
            let min = slot
                .iter()
                .filter(|e| !self.cancelled.contains(&e.id))
                .map(|e| e.deadline_ns)
                .min();
            if let Some(m) = min {
                best = Some(m);
                break;
            }
        }
        for level in 1..LEVELS {
            if self.level_counts[level] == 0 {
                continue;
            }
            for slot in 0..SLOTS {
                if self.slots[level * SLOTS + slot].is_empty() {
                    continue;
                }
                let ns = self.cascade_tick(level, slot as u64) * self.tick_ns;
                best = Some(best.map_or(ns, |b| b.min(ns)));
            }
        }
        if !self.overflow.is_empty() {
            let ns = self.next_overflow_boundary() * self.tick_ns;
            best = Some(best.map_or(ns, |b| b.min(ns)));
        }
        best
    }

    /// Moves the wheel to `now_ns`, appending every due entry to `fired`
    /// ordered by `(deadline_ns, insertion seq)`. Empty stretches are
    /// jumped over, not iterated tick by tick.
    pub fn advance(&mut self, now_ns: u64, fired: &mut Vec<(TimerId, T)>) {
        let target = now_ns / self.tick_ns;
        let mut batch: Vec<Entry<T>> = Vec::new();
        // The current slot may hold entries that became due sub-tick.
        self.drain_due(self.tick, now_ns, &mut batch);
        while self.tick < target {
            if self.live.is_empty() && self.overflow.is_empty() {
                self.tick = target;
                break;
            }
            match self.next_busy_tick() {
                Some(next) if next <= target => {
                    self.tick = next;
                    self.cascade_at(next);
                    self.drain_due(next, now_ns, &mut batch);
                }
                _ => {
                    self.tick = target;
                    break;
                }
            }
        }
        batch.sort_by_key(|e| (e.deadline_ns, e.id));
        fired.extend(batch.into_iter().map(|e| (TimerId(e.id), e.tag)));
    }

    /// Level a delta-in-ticks maps to, or `None` for overflow.
    fn level_for(delta: u64) -> Option<usize> {
        (0..LEVELS).find(|&level| delta < 1u64 << (SLOT_BITS * (level as u32 + 1)))
    }

    fn place(&mut self, entry: Entry<T>) {
        // Clamp overdue deadlines into the current slot so they fire on the
        // next advance instead of hiding behind the wheel's rotation.
        let deadline_tick = (entry.deadline_ns / self.tick_ns).max(self.tick);
        match Self::level_for(deadline_tick - self.tick) {
            Some(level) => {
                let slot = ((deadline_tick >> (SLOT_BITS * level as u32)) & MASK) as usize;
                self.slots[level * SLOTS + slot].push(entry);
                self.level_counts[level] += 1;
            }
            None => {
                self.overflow.entry(deadline_tick).or_default().push(entry);
            }
        }
    }

    /// Releases due (or tombstoned) entries from the level-0 slot of `tick`.
    fn drain_due(&mut self, tick: u64, now_ns: u64, out: &mut Vec<Entry<T>>) {
        let idx = (tick & MASK) as usize;
        let mut i = 0;
        while i < self.slots[idx].len() {
            let id = self.slots[idx][i].id;
            if self.cancelled.remove(&id) {
                self.slots[idx].swap_remove(i);
                self.level_counts[0] -= 1;
                continue;
            }
            if self.slots[idx][i].deadline_ns <= now_ns {
                let entry = self.slots[idx].swap_remove(i);
                self.level_counts[0] -= 1;
                self.live.remove(&id);
                out.push(entry);
                continue;
            }
            i += 1;
        }
    }

    /// Tick at which level-`level` slot `slot` next cascades down.
    fn cascade_tick(&self, level: usize, slot: u64) -> u64 {
        let span = 1u64 << (SLOT_BITS * level as u32);
        let frame = span << SLOT_BITS;
        let base = (self.tick / frame) * frame;
        let tc = base + slot * span;
        if tc <= self.tick {
            tc + frame
        } else {
            tc
        }
    }

    /// Next top-level boundary where overflow entries enter the wheel.
    fn next_overflow_boundary(&self) -> u64 {
        let top_span = 1u64 << (SLOT_BITS * (LEVELS as u32 - 1));
        (self.tick / top_span + 1) * top_span
    }

    /// Earliest tick strictly after the current one where a slot must be
    /// drained or cascaded, or `None` when nothing is physically pending.
    fn next_busy_tick(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for offset in 1..SLOTS as u64 {
            let t = self.tick + offset;
            if !self.slots[(t & MASK) as usize].is_empty() {
                best = Some(t);
                break;
            }
        }
        for level in 1..LEVELS {
            if self.level_counts[level] == 0 {
                continue;
            }
            for slot in 0..SLOTS {
                if self.slots[level * SLOTS + slot].is_empty() {
                    continue;
                }
                let tc = self.cascade_tick(level, slot as u64);
                best = Some(best.map_or(tc, |b| b.min(tc)));
            }
        }
        if !self.overflow.is_empty() {
            let tc = self.next_overflow_boundary();
            best = Some(best.map_or(tc, |b| b.min(tc)));
        }
        best
    }

    /// Re-places entries whose coarse slot opens at `tick` into finer
    /// levels (higher levels first so entries can cascade all the way
    /// down in one pass), and admits overflow entries at top boundaries.
    fn cascade_at(&mut self, tick: u64) {
        for level in (1..LEVELS).rev() {
            let span = 1u64 << (SLOT_BITS * level as u32);
            if !tick.is_multiple_of(span) {
                continue;
            }
            let idx = level * SLOTS + ((tick >> (SLOT_BITS * level as u32)) & MASK) as usize;
            let entries = std::mem::take(&mut self.slots[idx]);
            self.level_counts[level] -= entries.len();
            for entry in entries {
                if self.cancelled.remove(&entry.id) {
                    continue;
                }
                self.place(entry);
            }
        }
        let top_span = 1u64 << (SLOT_BITS * (LEVELS as u32 - 1));
        if tick.is_multiple_of(top_span) && !self.overflow.is_empty() {
            let horizon = tick + (1u64 << (SLOT_BITS * LEVELS as u32));
            let due: Vec<u64> = self.overflow.range(..horizon).map(|(k, _)| *k).collect();
            for key in due {
                for entry in self.overflow.remove(&key).into_iter().flatten() {
                    if self.cancelled.remove(&entry.id) {
                        continue;
                    }
                    self.place(entry);
                }
            }
        }
    }
}

/// What woke a reactor thread.
#[derive(Debug)]
pub enum Wake {
    /// An event arrived on the merged mailbox.
    Event(Event),
    /// The earliest wheel deadline passed — call [`Reactor::poll`].
    Timer,
    /// The mailbox closed (federation dropped); the thread should exit.
    Closed,
}

/// A timer wheel bound to a [`TimerDriver`], with the runtime's single
/// blocking wait: `min(next wheel deadline, mailbox event)`.
#[derive(Debug)]
pub struct Reactor<D, T> {
    driver: D,
    wheel: TimerWheel<T>,
}

impl<D: TimerDriver, T> Reactor<D, T> {
    /// A reactor over `driver` with the given wheel resolution.
    #[must_use]
    pub fn new(driver: D, tick: StdDuration) -> Self {
        Reactor { driver, wheel: TimerWheel::new(tick) }
    }

    /// Schedules a timer at an absolute nanosecond deadline on the
    /// driver's axis.
    pub fn schedule_at(&mut self, deadline_ns: u64, tag: T) -> TimerId {
        self.wheel.schedule_at(deadline_ns, tag)
    }

    /// Cancels a pending timer (O(1), lazy).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.wheel.cancel(id)
    }

    /// Number of pending timers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.wheel.pending()
    }

    /// Advances the wheel to the driver's current reading, collecting due
    /// timers into `fired`.
    pub fn poll(&mut self, fired: &mut Vec<(TimerId, T)>) {
        let now = self.driver.now_ns();
        self.wheel.advance(now, fired);
    }

    /// Parks the calling thread until an event arrives or the earliest
    /// timer is due. With an empty wheel this blocks **indefinitely** on
    /// the mailbox — zero wakeups while idle.
    pub fn wait(&self, mailbox: &EventReceiver) -> Wake {
        match self.wheel.next_deadline_ns() {
            None => match mailbox.recv() {
                Ok(event) => Wake::Event(event),
                Err(_) => Wake::Closed,
            },
            Some(deadline_ns) => {
                let now = self.driver.now_ns();
                if deadline_ns <= now {
                    return Wake::Timer;
                }
                match mailbox.recv_timeout(StdDuration::from_nanos(deadline_ns - now)) {
                    Ok(event) => Wake::Event(event),
                    Err(RecvTimeoutError::Timeout) => Wake::Timer,
                    Err(RecvTimeoutError::Disconnected) => Wake::Closed,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const TICK: StdDuration = StdDuration::from_micros(100);
    const TICK_NS: u64 = 100_000;

    fn fire_all(wheel: &mut TimerWheel<u32>, now_ns: u64) -> Vec<u32> {
        let mut fired = Vec::new();
        wheel.advance(now_ns, &mut fired);
        fired.into_iter().map(|(_, tag)| tag).collect()
    }

    #[test]
    fn fires_in_deadline_order_within_one_advance() {
        let mut wheel = TimerWheel::new(TICK);
        wheel.schedule_at(5 * TICK_NS, 3);
        wheel.schedule_at(TICK_NS, 1);
        wheel.schedule_at(3 * TICK_NS, 2);
        assert_eq!(fire_all(&mut wheel, 10 * TICK_NS), vec![1, 2, 3]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn insertion_order_breaks_deadline_ties() {
        let mut wheel = TimerWheel::new(TICK);
        for tag in 0..8 {
            wheel.schedule_at(7 * TICK_NS, tag);
        }
        assert_eq!(fire_all(&mut wheel, 7 * TICK_NS), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn timers_never_fire_early() {
        let mut wheel = TimerWheel::new(TICK);
        // Mid-tick deadline: due tick is floor(150µs / 100µs) = 1, but the
        // exact deadline is 150 µs.
        wheel.schedule_at(TICK_NS + TICK_NS / 2, 9);
        assert!(fire_all(&mut wheel, TICK_NS).is_empty());
        assert!(fire_all(&mut wheel, TICK_NS + TICK_NS / 2 - 1).is_empty());
        assert_eq!(wheel.next_deadline_ns(), Some(TICK_NS + TICK_NS / 2));
        assert_eq!(fire_all(&mut wheel, TICK_NS + TICK_NS / 2), vec![9]);
    }

    #[test]
    fn overdue_schedules_fire_on_next_advance() {
        let mut wheel = TimerWheel::new(TICK);
        assert!(fire_all(&mut wheel, 500 * TICK_NS).is_empty());
        wheel.schedule_at(3 * TICK_NS, 7); // long past
        assert_eq!(wheel.next_deadline_ns(), Some(3 * TICK_NS));
        assert_eq!(fire_all(&mut wheel, 500 * TICK_NS), vec![7]);
    }

    #[test]
    fn cascade_preserves_order_across_levels() {
        // Deadlines chosen to land on levels 0, 1 and 2 of a 100 µs wheel:
        // level 0 covers < 6.4 ms, level 1 < 409.6 ms, level 2 < 26.2 s.
        let mut wheel = TimerWheel::new(TICK);
        let ms = 1_000_000u64;
        wheel.schedule_at(20_000 * ms, 4); // 20 s -> level 2
        wheel.schedule_at(300 * ms, 3); // 300 ms -> level 1
        wheel.schedule_at(2 * ms, 1); // 2 ms  -> level 0
        wheel.schedule_at(50 * ms, 2); // 50 ms -> level 1
        assert_eq!(wheel.pending(), 4);

        // Step time forward in uneven chunks; order must come out sorted.
        let mut fired = Vec::new();
        for now in [ms, 3 * ms, 49 * ms, 51 * ms, 299 * ms, 301 * ms, 20_001 * ms] {
            wheel.advance(now, &mut fired);
        }
        let tags: Vec<u32> = fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cascaded_entries_keep_exact_deadlines_at_tick_boundaries() {
        let mut wheel = TimerWheel::new(TICK);
        // Exactly at a level-0/level-1 boundary (64 ticks).
        let boundary = 64 * TICK_NS;
        wheel.schedule_at(boundary, 1);
        wheel.schedule_at(boundary - 1, 0);
        wheel.schedule_at(boundary + 1, 2);
        assert!(fire_all(&mut wheel, boundary - 2).is_empty());
        assert_eq!(fire_all(&mut wheel, boundary), vec![0, 1]);
        assert_eq!(fire_all(&mut wheel, boundary + 1), vec![2]);
    }

    #[test]
    fn cancel_prevents_fire_and_updates_bookkeeping() {
        let mut wheel = TimerWheel::new(TICK);
        let keep = wheel.schedule_at(2 * TICK_NS, 1);
        let drop_near = wheel.schedule_at(2 * TICK_NS, 2);
        let drop_far = wheel.schedule_at(1_000 * TICK_NS, 3);
        assert!(wheel.cancel(drop_near));
        assert!(wheel.cancel(drop_far));
        assert!(!wheel.cancel(drop_far), "double cancel reports false");
        assert_eq!(wheel.pending(), 1);
        assert_eq!(fire_all(&mut wheel, 2_000 * TICK_NS), vec![1]);
        assert!(!wheel.cancel(keep), "cancel after fire reports false");
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_deadline_skips_cancelled_entries() {
        let mut wheel = TimerWheel::new(TICK);
        let early = wheel.schedule_at(TICK_NS, 1);
        wheel.schedule_at(5 * TICK_NS, 2);
        wheel.cancel(early);
        assert_eq!(wheel.next_deadline_ns(), Some(5 * TICK_NS));
    }

    #[test]
    fn empty_wheel_reports_no_deadline() {
        let wheel: TimerWheel<u32> = TimerWheel::new(TICK);
        assert_eq!(wheel.next_deadline_ns(), None);
        assert!(wheel.is_empty());
    }

    #[test]
    fn far_deadlines_wake_only_at_cascade_boundaries() {
        let mut wheel = TimerWheel::new(TICK);
        let far = 10_000 * TICK_NS; // level 2
        wheel.schedule_at(far, 1);
        // The advertised wakeup is a cascade boundary, not per-tick.
        let first = wheel.next_deadline_ns().unwrap();
        assert!(first > 0 && first < far);
        assert_eq!(first % (64 * TICK_NS), 0, "boundary-aligned wake");
        // Walking the advertised wakeups reaches the exact deadline in a
        // handful of hops (≤ one per level), never thousands of ticks.
        let mut hops = 0;
        let mut fired = Vec::new();
        loop {
            let next = wheel.next_deadline_ns().unwrap();
            wheel.advance(next, &mut fired);
            hops += 1;
            if !fired.is_empty() {
                break;
            }
            assert!(hops < LEVELS + 2, "too many intermediate wakeups");
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 1);
    }

    #[test]
    fn overflow_entries_beyond_the_horizon_eventually_fire() {
        // A 1 ns tick shrinks the horizon to 64^4 ns ≈ 16.8 ms, so a 20 ms
        // deadline exercises the overflow path cheaply.
        let mut wheel = TimerWheel::new(StdDuration::from_nanos(1));
        let deadline = 20_000_000u64;
        wheel.schedule_at(deadline, 5);
        assert_eq!(wheel.pending(), 1);
        let mut fired = Vec::new();
        let mut hops = 0;
        while fired.is_empty() {
            let next = wheel.next_deadline_ns().expect("still pending");
            wheel.advance(next, &mut fired);
            hops += 1;
            assert!(hops < 256, "overflow admission must be boundary-paced");
        }
        assert_eq!(fired[0].1, 5);
        assert!(wheel.is_empty());
    }

    #[test]
    fn identical_histories_fire_identically() {
        // The determinism contract with the sim clock: same schedule /
        // cancel / advance sequence -> same (id, tag) firing sequence.
        let run = || {
            let clock = ManualClock::new();
            let mut reactor: Reactor<ManualClock, u32> = Reactor::new(clock.clone(), TICK);
            let mut trace = Vec::new();
            let mut cancel_me = Vec::new();
            for i in 0..200u64 {
                let id = reactor.schedule_at((i % 37) * TICK_NS + i, i as u32);
                if i % 5 == 0 {
                    cancel_me.push(id);
                }
            }
            for id in cancel_me {
                reactor.cancel(id);
            }
            let mut fired = Vec::new();
            for step in [3u64, 7, 11, 40, 80] {
                clock.advance_by(step * TICK_NS);
                reactor.poll(&mut fired);
                trace.push(fired.len());
            }
            let tags: Vec<u32> = fired.into_iter().map(|(_, t)| t).collect();
            (trace, tags)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_jumps_long_idle_gaps() {
        let mut wheel = TimerWheel::new(TICK);
        // Hours of idle time, then a schedule: the wheel position must have
        // caught up without per-tick iteration (this test would time out
        // otherwise).
        let hours = 3_600_000_000_000u64 * 4;
        assert!(fire_all(&mut wheel, hours).is_empty());
        wheel.schedule_at(hours + TICK_NS, 8);
        assert_eq!(fire_all(&mut wheel, hours + 2 * TICK_NS), vec![8]);
    }
}
