//! The runtime half of the adaptation governor. It is not a thread:
//! `System::spawn_governor` hands an `Attached` governor to the manager,
//! and each window boundary is an entry on the manager's reactor, beside
//! the prepare deadline. At a boundary the manager makes the simulator's
//! one call, [`RtMetrics::sense`], on the admission thread: it reads the
//! cumulative counters off the registry, prunes the current set at the
//! boundary, reads AUB slack and imbalance off the ledger, differences the
//! counters ([`rtcm_core::govern::Governor::sense`]) and books the window
//! and its gauges. The gauges and the counters describe one instant, an
//! *idle* system's slack still tracks entry expiry, and the admission hot
//! path pays nothing for sensing.
//!
//! Policy evaluation is the pure [`rtcm_core::govern::Governor`], fed the
//! admission controller's own configuration, and is skipped while a swap
//! is pending or queued. A decision starts the same two-phase protocol
//! `System::reconfigure` runs; its outcome goes to the
//! [`GovernorHandle`]'s log.
//!
//! Windows close on **absolute deadlines** (`next += window`): a busy
//! manager delays at most one boundary, never the cadence, and any
//! boundary it overruns entirely is skipped and counted in
//! [`SystemReport::governor_overruns`](crate::stats::SystemReport::governor_overruns).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use rtcm_core::admission::AdmissionController;
use rtcm_core::govern::{Governor, GovernorDecision, GovernorPolicy, PolicyError};
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::time::Time;

use crate::manager::{ManagerCtl, ManagerLink, SwapOutcome};
use crate::stats::RtMetrics;
use crate::system::{ReconfigReport, ReconfigureError};

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
#[derive(Default)]
pub(crate) struct GovernorLog {
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

/// One attached governor, owned by the manager thread. It and each of its
/// [`Actuation`]s hold a clone of `lease`, a sender nothing is sent on:
/// [`GovernorHandle::stop`] returns once the last clone drops.
pub(crate) struct Attached {
    governor: Governor,
    window_ns: u64,
    /// Absolute deadline (manager-clock ns) of the next window boundary.
    pub(crate) next_ns: u64,
    log: Arc<GovernorLog>,
    lease: Sender<()>,
}

impl Attached {
    /// Whether this is the governor `log` belongs to.
    pub(crate) fn logs_to(&self, log: &Arc<GovernorLog>) -> bool {
        Arc::ptr_eq(&self.log, log)
    }

    /// Closes the window ending at `now` through [`RtMetrics::sense`], as
    /// the simulator does, and books the boundaries overrun since the last
    /// one. Then, if `actuate`,
    /// evaluates the policy; a decision comes back with the [`Actuation`]
    /// that settles it.
    pub(crate) fn close_window(
        &mut self,
        ac: &mut AdmissionController,
        stats: &RtMetrics,
        now: Time,
        actuate: bool,
    ) -> Option<(ServiceConfig, Actuation)> {
        let mut overruns = 0;
        self.next_ns = self.next_ns.saturating_add(self.window_ns);
        while self.next_ns <= now.as_nanos() {
            self.next_ns = self.next_ns.saturating_add(self.window_ns);
            overruns += 1;
        }
        let metrics = stats.sense(&mut self.governor, ac, now);
        stats.governor_overruns.add(overruns);
        if !actuate {
            return None;
        }
        let decision = self.governor.observe(ac.config(), &metrics)?;
        let (log, _lease) = (Arc::clone(&self.log), self.lease.clone());
        Some((decision.target, Actuation { at_ns: now.as_nanos(), decision, log, _lease }))
    }
}

/// A governor decision on its way through the swap protocol.
pub(crate) struct Actuation {
    at_ns: u64,
    decision: GovernorDecision,
    log: Arc<GovernorLog>,
    _lease: Sender<()>,
}

impl Actuation {
    /// Books the outcome: `governor_swaps` on commit, then the log entry.
    /// The lease drops after the push, so a waiting
    /// [`GovernorHandle::stop`] sees the entry.
    pub(crate) fn settle(self, outcome: SwapOutcome, stats: &RtMetrics) {
        if outcome.is_ok() {
            stats.governor_swaps.inc();
        }
        self.log.push(GovernorEvent { at_ns: self.at_ns, decision: self.decision, outcome });
    }
}

/// A governor attached to a [`System`](crate::System). Dropping the handle
/// (or calling [`GovernorHandle::stop`]) detaches the governor; the system
/// itself is unaffected either way.
pub struct GovernorHandle {
    manager: ManagerLink,
    log: Arc<GovernorLog>,
    /// Disconnects once the manager holds no lease of this governor.
    settled: Receiver<()>,
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

    /// Stops the governor and returns its full decision log. Returns once
    /// every decision it took has its outcome in the log.
    #[must_use]
    pub fn stop(self) -> Vec<GovernorEvent> {
        let log = Arc::clone(&self.log);
        drop(self);
        let events = log.lock().clone();
        events
    }
}

impl Drop for GovernorHandle {
    fn drop(&mut self) {
        self.manager.send(ManagerCtl::DetachGovernor(Arc::clone(&self.log)));
        // Nothing is ever sent: this returns when the last lease drops (at
        // once if the manager has exited).
        let _ = self.settled.recv();
    }
}

/// Hands a governor to the manager behind `manager` (used by
/// `System::spawn_governor`). Its first boundary is one `window` after
/// `now_ns` on the manager's clock.
pub(crate) fn attach(
    policy: GovernorPolicy,
    window: StdDuration,
    manager: &ManagerLink,
    now_ns: u64,
) -> Result<GovernorHandle, PolicyError> {
    let governor = Governor::new(policy)?;
    let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
    let log = Arc::new(GovernorLog::default());
    let (lease, settled) = channel();
    manager.send(ManagerCtl::AttachGovernor(Attached {
        governor,
        window_ns,
        next_ns: now_ns.saturating_add(window_ns),
        log: Arc::clone(&log),
        lease,
    }));
    Ok(GovernorHandle { manager: manager.clone(), log, settled })
}
