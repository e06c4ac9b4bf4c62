//! Event-driven reactor core: a sorted deadline list per handler, the one
//! `step` every handler is driven through, and the one driver that hosts a
//! handler on its federation's executor.
//!
//! Every time-driven obligation of a handler — a node's running subjob
//! completion, the manager's prepare deadline and each attached governor's
//! window boundary, the quorum member's fence — is a timer entry. With no
//! pending timer and an empty mailbox a handler is not stepped at all: an
//! idle host performs zero wakeups.
//!
//! No handler holds more than a few entries, so [`TimerWheel`] has the
//! shape of RTFM's timer queue: a `Vec` sorted by `(deadline_ns, id)`,
//! every operation linear in pending entries. A timer fires once
//! `deadline_ns <= now_ns` — never early — in `(deadline_ns, insertion)`
//! order, and its handler is stepped at the exact deadline: one wakeup per
//! timer, however far away.
//!
//! The node, the manager and the quorum member are the three `Handler`s;
//! each reads time only through its reactor's [`TimerDriver`], and one
//! `step` does everything it does between two waits. `OnLoop`, the one
//! driver, makes a handler an [`rtcm_events::Consumer`] of its
//! federation's executor ([`rtcm_events::Network`]), which steps it on a
//! virtual clock under a [`crate::host::Host`], on a launched
//! [`crate::System`]'s one thread, or on the thread of the federation a
//! [`crate::QuorumMember`] attaches to. No crate code parks in
//! [`Reactor::wait`]; it stays for callers that drive a reactor on a
//! thread of their own.

use std::ops::ControlFlow;
use std::time::Duration as StdDuration;

use rtcm_events::{Consumer, Event, EventReceiver, RecvTimeoutError};

use crate::clock::TimerDriver;

/// The tick every runtime reactor is built with. Deadlines are kept
/// exactly, so it is unused beyond [`TimerWheel::new`]'s non-zero check;
/// ROADMAP item 1(iv) drops the argument.
pub const DEFAULT_TICK: StdDuration = StdDuration::from_micros(100);

/// Handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Pending timers over an arbitrary tag type. It reads no clock: callers
/// pass absolute nanosecond deadlines to [`TimerWheel::schedule_at`] and
/// the current reading to [`TimerWheel::advance`].
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `(deadline_ns, id, tag)`; ids only grow, so equal deadlines stay in
    /// insertion order.
    entries: Vec<(u64, u64, T)>,
    next_id: u64,
}

impl<T> TimerWheel<T> {
    /// An empty list. Panics if `tick` is zero; it is otherwise unused
    /// (see [`DEFAULT_TICK`]).
    #[must_use]
    pub fn new(tick: StdDuration) -> Self {
        assert!(!tick.is_zero(), "wheel tick must be positive");
        TimerWheel { entries: Vec::new(), next_id: 0 }
    }

    /// Number of pending (scheduled, not fired, not cancelled) timers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// True when no timer is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules a timer at an absolute nanosecond deadline. Deadlines in
    /// the past are legal: the entry fires on the next [`advance`].
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule_at(&mut self, deadline_ns: u64, tag: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let at = self.entries.partition_point(|&(d, _, _)| d <= deadline_ns);
        self.entries.insert(at, (deadline_ns, id, tag));
        TimerId(id)
    }

    /// Cancels a pending timer. Returns false if it already fired (or was
    /// already cancelled).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let at = self.entries.iter().position(|&(_, e, _)| e == id.0);
        at.map(|at| self.entries.remove(at)).is_some()
    }

    /// Absolute deadline (ns) the owning thread should wake at — the
    /// earliest pending timer's, exactly — or `None` when the list is
    /// empty and the thread can block indefinitely.
    pub(crate) fn next_deadline_ns(&self) -> Option<u64> {
        self.entries.first().map(|&(d, _, _)| d)
    }

    /// Appends every timer due at `now_ns` to `fired`, ordered by
    /// `(deadline_ns, insertion seq)`.
    pub fn advance(&mut self, now_ns: u64, fired: &mut Vec<(TimerId, T)>) {
        let due = self.entries.partition_point(|&(d, _, _)| d <= now_ns);
        fired.extend(self.entries.drain(..due).map(|(_, id, tag)| (TimerId(id), tag)));
    }

    /// Removes and returns the earliest timer if it is due at `now_ns`.
    fn pop_due(&mut self, now_ns: u64) -> Option<(TimerId, T)> {
        let &(deadline_ns, _, _) = self.entries.first()?;
        (deadline_ns <= now_ns).then(|| {
            let (_, id, tag) = self.entries.remove(0);
            (TimerId(id), tag)
        })
    }
}

/// What a handler is stepped for.
#[derive(Debug)]
pub enum Wake {
    /// An event arrived on the merged mailbox.
    Event(Event),
    /// The earliest timer deadline passed: `step` fires the due timers.
    Timer,
    /// The mailbox closed: its federation is gone. No running handler sees
    /// this, because each holds a `ChannelHandle`, which keeps its
    /// federation, and so its mailbox, alive.
    Closed,
}

/// A timer list bound to a [`TimerDriver`], with the runtime's single
/// blocking wait: `min(next timer deadline, mailbox event)`.
#[derive(Debug)]
pub struct Reactor<D, T> {
    driver: D,
    pub(crate) wheel: TimerWheel<T>,
}

impl<D: TimerDriver, T> Reactor<D, T> {
    /// A reactor over `driver`; `tick` is [`TimerWheel::new`]'s.
    #[must_use]
    pub fn new(driver: D, tick: StdDuration) -> Self {
        Reactor { driver, wheel: TimerWheel::new(tick) }
    }

    /// Schedules a timer at an absolute nanosecond deadline on the
    /// driver's axis.
    pub fn schedule_at(&mut self, deadline_ns: u64, tag: T) -> TimerId {
        self.wheel.schedule_at(deadline_ns, tag)
    }

    /// Cancels a pending timer.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.wheel.cancel(id)
    }

    /// Advances the list to the driver's current reading, collecting due
    /// timers into `fired`.
    pub fn poll(&mut self, fired: &mut Vec<(TimerId, T)>) {
        let now = self.driver.now_ns();
        self.wheel.advance(now, fired);
    }

    /// Parks the calling thread until an event arrives or the earliest
    /// timer is due. With no pending timer this blocks **indefinitely** on
    /// the mailbox — zero wakeups while idle. A timed park is the
    /// mailbox's precise [`EventReceiver::recv_timeout`]: a due timer wakes
    /// the thread within its wake-up latency (`wake_lateness_p50_us`
    /// ≈ 6–9 µs on one shared processor), not the default 50 µs timer
    /// slack later.
    pub fn wait(&self, mailbox: &EventReceiver) -> Wake {
        let timeout = match self.wheel.next_deadline_ns() {
            None => StdDuration::MAX,
            Some(deadline_ns) => {
                let now = self.driver.now_ns();
                if deadline_ns <= now {
                    return Wake::Timer;
                }
                StdDuration::from_nanos(deadline_ns - now)
            }
        };
        match mailbox.recv_timeout(timeout) {
            Ok(event) => Wake::Event(event),
            Err(RecvTimeoutError::Timeout) => Wake::Timer,
            Err(RecvTimeoutError::Disconnected) => Wake::Closed,
        }
    }
}

impl<D: TimerDriver, T> TimerDriver for Reactor<D, T> {
    fn now_ns(&self) -> u64 {
        self.driver.now_ns()
    }
}

/// A runtime handler's reactions (RSM's `Runnable`, SNIPPETS.md #1). The
/// handler owns its reactor and its mailbox; [`step`] calls the hooks.
pub(crate) trait Handler {
    /// The clock this handler's reactor reads.
    type Driver: TimerDriver;
    /// The tag of this handler's timer entries.
    type Timer;
    /// Most mailbox events a step drains after the wake's own; a handler
    /// that polls an out-of-band channel in `settle` caps it.
    const DRAIN: usize = usize::MAX;
    /// The handler's reactor and mailbox.
    fn io(&mut self) -> (&mut Reactor<Self::Driver, Self::Timer>, &EventReceiver);
    /// One mailbox event.
    fn on_event(&mut self, ev: &Event);
    /// One due timer, in `(deadline_ns, insertion)` order.
    fn on_timer(&mut self, id: TimerId, tag: Self::Timer);
    /// The step is about to fire its due timers: where a handler counts
    /// its timer wakeups, one per step that fires any.
    fn on_timer_wake(&mut self) {}
    /// Runs last in every step; `Break` stops the handler.
    fn settle(&mut self) -> ControlFlow<()>;
}

/// Everything a handler does between two waits: handle `wake`, fire every
/// timer due now into `on_timer`, drain up to `H::DRAIN` mailbox events
/// into `on_event`, then `settle`. `Break` means the handler stops.
pub(crate) fn step<H: Handler>(h: &mut H, wake: Wake) -> ControlFlow<()> {
    match wake {
        Wake::Event(ev) => h.on_event(&ev),
        Wake::Timer => {}
        // A guard, not a shutdown path (see `Wake::Closed`): a thread whose
        // mailbox did close would otherwise spin on it.
        Wake::Closed => return ControlFlow::Break(()),
    }
    let now_ns = h.io().0.driver.now_ns();
    if h.io().0.wheel.next_deadline_ns().is_some_and(|at| at <= now_ns) {
        h.on_timer_wake();
        while let Some((id, tag)) = h.io().0.wheel.pop_due(now_ns) {
            h.on_timer(id, tag);
        }
    }
    for _ in 0..H::DRAIN {
        let Ok(ev) = h.io().1.try_recv() else { break };
        h.on_event(&ev);
    }
    h.settle()
}

/// A handler hosted on its federation's executor; its reactor must read
/// the federation's clock.
pub(crate) struct OnLoop<H>(pub(crate) H);

impl<H: Handler + Send> Consumer for OnLoop<H> {
    /// Now if the mailbox holds an event, else the earliest timer's
    /// deadline.
    fn ready_at(&mut self, now_ns: u64) -> Option<u64> {
        let (reactor, mailbox) = self.0.io();
        if mailbox.is_empty() {
            reactor.wheel.next_deadline_ns()
        } else {
            Some(now_ns)
        }
    }

    /// Steps on the due timers if there are any, else on the event at the
    /// head of the mailbox: the order [`Reactor::wait`] returns them in.
    fn step(&mut self, now_ns: u64) -> ControlFlow<()> {
        let (reactor, mailbox) = self.0.io();
        let wake = if reactor.wheel.next_deadline_ns().is_some_and(|at| at <= now_ns) {
            Wake::Timer
        } else {
            Wake::Event(mailbox.try_recv().expect("a ready handler's mailbox holds an event"))
        };
        step(&mut self.0, wake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: StdDuration = StdDuration::from_micros(100);
    const TICK_NS: u64 = 100_000;
    const MS: u64 = 1_000_000;

    fn fire_all(wheel: &mut TimerWheel<u32>, now_ns: u64) -> Vec<u32> {
        let mut fired = Vec::new();
        wheel.advance(now_ns, &mut fired);
        fired.into_iter().map(|(_, tag)| tag).collect()
    }

    #[test]
    fn fires_in_deadline_order_within_one_advance() {
        let mut wheel = TimerWheel::new(TICK);
        for (ticks, tag) in [(5, 3), (1, 1), (3, 2)] {
            wheel.schedule_at(ticks * TICK_NS, tag);
        }
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
        let at = TICK_NS + TICK_NS / 2; // off the tick grid
        wheel.schedule_at(at, 9);
        assert!(fire_all(&mut wheel, TICK_NS).is_empty());
        assert!(fire_all(&mut wheel, at - 1).is_empty());
        assert_eq!(wheel.next_deadline_ns(), Some(at));
        assert_eq!(fire_all(&mut wheel, at), vec![9]);
    }

    #[test]
    fn cascaded_entries_keep_exact_deadlines_at_tick_boundaries() {
        // 64 ticks was the old wheel's level boundary; entries 1 ns apart
        // around it still fire at their own instants.
        let mut wheel = TimerWheel::new(TICK);
        let boundary = 64 * TICK_NS;
        for (at, tag) in [(boundary, 1), (boundary - 1, 0), (boundary + 1, 2)] {
            wheel.schedule_at(at, tag);
        }
        assert!(fire_all(&mut wheel, boundary - 2).is_empty());
        assert_eq!(fire_all(&mut wheel, boundary), vec![0, 1]);
        assert_eq!(fire_all(&mut wheel, boundary + 1), vec![2]);
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
    fn order_holds_across_far_apart_deadlines() {
        let mut wheel = TimerWheel::new(TICK);
        for (at, tag) in [(20_000 * MS, 4), (300 * MS, 3), (2 * MS, 1), (50 * MS, 2)] {
            wheel.schedule_at(at, tag);
        }
        assert_eq!(wheel.pending(), 4);
        // Step time forward in uneven chunks; order must come out sorted.
        let mut tags = Vec::new();
        for now in [1, 3, 49, 51, 299, 301, 20_001] {
            tags.extend(fire_all(&mut wheel, now * MS));
        }
        assert_eq!(tags, vec![1, 2, 3, 4]);
        assert!(wheel.is_empty());
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
        // There are no cascade boundaries left: `next_deadline_ns`
        // advertises each deadline exactly.
        let mut wheel = TimerWheel::new(TICK);
        let deadlines = [2 * MS, 50 * MS, 300 * MS, 20_000 * MS];
        for (tag, &at) in deadlines.iter().enumerate().rev() {
            wheel.schedule_at(at, tag as u32);
        }
        // Waking at each advertised deadline fires one timer per wake: no
        // intermediate wakeups, however far away the deadline.
        let mut wakes = 0;
        while let Some(next) = wheel.next_deadline_ns() {
            assert_eq!(next, deadlines[wakes], "advertised wake {wakes}");
            assert_eq!(fire_all(&mut wheel, next), vec![wakes as u32]);
            wakes += 1;
        }
        assert_eq!(wakes, 4);
    }

    #[test]
    fn overflow_entries_beyond_the_horizon_eventually_fire() {
        // 20 ms lies past a 1 ns-tick wheel's old 64^4 ns horizon; it fires
        // on the first wake, at its exact deadline.
        let mut wheel = TimerWheel::new(StdDuration::from_nanos(1));
        wheel.schedule_at(20 * MS, 5);
        assert_eq!(wheel.next_deadline_ns(), Some(20 * MS));
        assert!(fire_all(&mut wheel, 20 * MS - 1).is_empty());
        assert_eq!(fire_all(&mut wheel, 20 * MS), vec![5]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn identical_histories_fire_identically() {
        // Same schedule / cancel / advance sequence -> same (id, tag)
        // firing sequence.
        let run = || {
            let mut wheel = TimerWheel::new(TICK);
            let ids: Vec<TimerId> =
                (0..200u64).map(|i| wheel.schedule_at((i % 37) * TICK_NS + i, i as u32)).collect();
            for &id in ids.iter().step_by(5) {
                wheel.cancel(id);
            }
            let (mut fired, mut trace, mut now_ns) = (Vec::new(), Vec::new(), 0);
            for step in [3u64, 7, 11, 40, 80] {
                now_ns += step * TICK_NS;
                wheel.advance(now_ns, &mut fired);
                trace.push(fired.len());
            }
            (trace, fired)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_jumps_long_idle_gaps() {
        let mut wheel = TimerWheel::new(TICK);
        let hours = 3_600_000_000_000u64 * 4;
        assert!(fire_all(&mut wheel, hours).is_empty());
        wheel.schedule_at(hours + TICK_NS, 8);
        assert_eq!(fire_all(&mut wheel, hours + 2 * TICK_NS), vec![8]);
    }
}
