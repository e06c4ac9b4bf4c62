//! The runtime half of the adaptation governor: a background task that
//! closes the sensing → policy → actuation loop over a live [`System`].
//!
//! Sensing reads one [`SystemReport`](crate::stats::SystemReport) snapshot
//! per window and turns it into per-window metrics through
//! [`rtcm_core::govern::WindowSensor`] — an O(1) delta of counters the
//! runtime maintains on its normal paths anyway. The AUB slack and
//! imbalance gauges come from a once-per-window manager probe
//! (`ManagerCtl::SenseGauges`), which expires the current set before
//! reading the ledger's maintained totals — so an *idle* system's slack
//! still tracks entry expiry (exactly the simulator's per-tick
//! semantics) and the admission hot path pays nothing for sensing.
//! Policy evaluation is the pure
//! [`rtcm_core::govern::Governor`]; actuation is the same two-phase
//! protocol `System::reconfigure` runs, serialized on the same lock, so a
//! governor and an operator can coexist without racing each other.
//!
//! The sensing tick is a **timer-wheel entry** on the governor's own
//! reactor, not a `recv_timeout` poll: the thread parks on its mailbox
//! (which only ever carries the `topics::GOVERNOR_CTL` stop kick) until
//! the window deadline fires, and every boundary fire is counted in
//! [`SystemReport::timer_wakeups`](crate::stats::SystemReport::timer_wakeups)
//! alongside the dispatcher's and idle-detector's wheel wakeups.
//!
//! Windows close on **absolute deadlines** (`next += window`): slow
//! actuation delays at most its own boundary, never the cadence, and any
//! boundary it overruns entirely is skipped and counted in
//! [`SystemReport::governor_overruns`](crate::stats::SystemReport::governor_overruns).

use std::sync::mpsc::{channel, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use rtcm_core::govern::{
    CumulativeLoad, Governor, GovernorDecision, GovernorPolicy, PolicyError, WindowSensor,
};
use rtcm_events::{topics, ChannelHandle};

use crate::clock::Clock;
use crate::reactor::{Reactor, Wake, DEFAULT_TICK};
use crate::stats::SharedStats;
use crate::system::{ReconfigReport, ReconfigureError, SwapClient};

/// One governor actuation, as logged by [`GovernorHandle`].
#[derive(Debug, Clone)]
pub struct GovernorEvent {
    /// When the decision was taken (shared-clock ns).
    pub at_ns: u64,
    /// The policy decision (rule, streak, target).
    pub decision: GovernorDecision,
    /// What the two-phase protocol did with it — a committed swap's
    /// transition cost, or the abort/closure it ran into.
    pub outcome: Result<ReconfigReport, ReconfigureError>,
}

/// The decision log plus the condvar that announces every append, so
/// launchers block on "the governor has acted" instead of polling
/// [`GovernorHandle::events`] in a sleep loop.
struct GovernorLog {
    events: std::sync::Mutex<Vec<GovernorEvent>>,
    appended: std::sync::Condvar,
}

impl GovernorLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<GovernorEvent>> {
        crate::lock(&self.events)
    }

    fn push(&self, event: GovernorEvent) {
        self.lock().push(event);
        self.appended.notify_all();
    }
}

/// A running governor attached to a [`System`](crate::System). Dropping
/// the handle (or calling [`GovernorHandle::stop`]) detaches the governor;
/// the system itself is unaffected either way.
pub struct GovernorHandle {
    stop: Sender<()>,
    /// Publishes the `topics::GOVERNOR_CTL` kick that wakes the governor's
    /// blocking mailbox wait after a stop request is enqueued.
    wake: ChannelHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    log: Arc<GovernorLog>,
}

impl std::fmt::Debug for GovernorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernorHandle").field("events", &self.log.lock().len()).finish()
    }
}

impl GovernorHandle {
    /// Snapshot of the decisions taken so far (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<GovernorEvent> {
        self.log.lock().clone()
    }

    /// Blocks until the governor has logged at least `count` decisions,
    /// waking *at* the append (no polling). Returns false on timeout.
    #[must_use]
    pub fn wait_for_events(&self, count: usize, timeout: StdDuration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut events = self.log.lock();
        while events.len() < count {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .log
                .appended
                .wait_timeout(events, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            events = guard;
        }
        true
    }

    /// Stops the governor and returns its full decision log.
    #[must_use]
    pub fn stop(mut self) -> Vec<GovernorEvent> {
        self.halt();
        let log = self.log.lock().clone();
        log
    }

    fn halt(&mut self) {
        let _ = self.stop.send(());
        // Kick the mailbox *after* the stop request is visible, so the
        // governor's indefinite block wakes and observes it.
        self.wake.publish(topics::GOVERNOR_CTL, Vec::new());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for GovernorHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawns the governor loop (used by `System::spawn_governor`).
pub(crate) fn spawn_governor_thread(
    policy: GovernorPolicy,
    window: StdDuration,
    stats: Arc<SharedStats>,
    swap: SwapClient,
    clock: Clock,
) -> Result<GovernorHandle, PolicyError> {
    let mut governor = Governor::new(policy)?;
    let (stop_tx, stop_rx) = channel();
    let log = Arc::new(GovernorLog {
        events: std::sync::Mutex::new(Vec::new()),
        appended: std::sync::Condvar::new(),
    });
    let thread_log = Arc::clone(&log);
    let wake = swap.ctl_channel().clone();
    // Subscribe on the caller's thread, before the governor runs, so a
    // stop kick published immediately after spawn cannot be missed.
    let mailbox = wake.subscribe(topics::GOVERNOR_CTL);
    let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX).max(1);
    let thread = std::thread::Builder::new()
        .name("rtcm-governor".into())
        .spawn(move || {
            let mut sensor = WindowSensor::new();
            // An untouched system is fully slack; thereafter the manager's
            // per-window probe keeps the gauges fresh even while the
            // system idles (expiry is applied before every read, matching
            // the simulator's per-tick semantics exactly).
            let mut gauges = (1.0, 0.0);
            // The sensing tick is a wheel entry with an *absolute*
            // deadline (`next_ns += window_ns`): a slow sense/actuate
            // cycle — a reconfigure can block up to a full ack timeout —
            // delays one boundary without stretching every later one, and
            // a cycle that overruns whole boundaries skips them (counted
            // in `governor_overruns`) rather than firing a burst of
            // zero-length windows.
            let mut reactor: Reactor<Clock, ()> = Reactor::new(clock, DEFAULT_TICK);
            let mut next_ns = clock.now().as_nanos().saturating_add(window_ns);
            reactor.schedule_at(next_ns, ());
            let mut fired: Vec<(crate::reactor::TimerId, ())> = Vec::new();
            loop {
                match stop_rx.try_recv() {
                    Ok(()) | Err(TryRecvError::Disconnected) => return,
                    Err(TryRecvError::Empty) => {}
                }
                match reactor.wait(&mailbox) {
                    // A GOVERNOR_CTL kick: loop back to the stop check.
                    Wake::Event(_) => continue,
                    Wake::Closed => return,
                    Wake::Timer => {}
                }
                fired.clear();
                reactor.poll(&mut fired);
                if fired.is_empty() {
                    continue; // the boundary is not due yet
                }
                stats.timer_wakeup();
                next_ns += window_ns;
                let now_ns = clock.now().as_nanos();
                let mut overrun = 0u64;
                while next_ns <= now_ns {
                    next_ns += window_ns;
                    overrun += 1;
                }
                if overrun > 0 {
                    stats.with(|r| r.governor_overruns += overrun);
                }
                reactor.schedule_at(next_ns, ());
                match swap.sense_gauges(window) {
                    Ok(Some(fresh)) => gauges = fresh,
                    Ok(None) => {}    // manager busy (mid-prepare): keep last
                    Err(_) => return, // system shut down
                }
                let report = stats.snapshot();
                let cum = CumulativeLoad {
                    arrived_jobs: report.ratio.arrived_jobs(),
                    arrived_utilization: report.ratio.arrived_utilization(),
                    released_utilization: report.ratio.released_utilization(),
                    ir_reports: report.ir_reports,
                    deferred: report.reconfig_deferred,
                };
                let metrics = sensor.sample(cum, gauges.0, gauges.1);
                stats.with(|r| r.governor_windows += 1);
                let Some(decision) = governor.observe(swap.services(), &metrics) else {
                    continue;
                };
                let at_ns = clock.now().as_nanos();
                let outcome = swap.reconfigure(decision.target);
                let closed = matches!(outcome, Err(ReconfigureError::Closed));
                if outcome.is_ok() {
                    stats.with(|r| r.governor_swaps += 1);
                }
                thread_log.push(GovernorEvent { at_ns, decision, outcome });
                if closed {
                    return;
                }
            }
        })
        .expect("spawn governor thread");
    Ok(GovernorHandle { stop: stop_tx, wake, thread: Some(thread), log })
}
