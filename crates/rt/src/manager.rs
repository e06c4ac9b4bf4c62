//! The central task manager node: the Admission Control and Load Balancing
//! components (§3's centralized architecture — "one AC component and one LB
//! component on a central task manager processor").
//!
//! The manager consumes "Task Arrive" and "Idle Resetting" events, runs the
//! core [`AdmissionController`] (which hosts the load balancer), and
//! publishes "Accept"/"Reject" events back to the task effectors, deciding
//! through the simulator's one call. Each operation is timed for the Figure
//! 8 overhead table: op 3 (plan generation), op 4 (admission test, with the
//! expiry at the decision instant in its touch epoch), op 8 (utilization
//! update), and the one-way delay of incoming events (op 2), shared clock.
//!
//! The manager is also the coordinator of the **two-phase live
//! reconfiguration protocol** (see DESIGN.md "Live reconfiguration"):
//! on a `ManagerCtl::Reconfigure` request it publishes a *prepare*
//! event fencing every task effector's local fast path, defers incoming
//! admission decisions while collecting acks, executes the admission
//! controller's ledger handover, and publishes *commit* — or *abort*,
//! restoring the old configuration, if a node never acks. The protocol
//! itself is the pure [`CoordinatorSm`]; this thread only moves its
//! messages and arms its timer.
//!
//! The thread is a reactor handler (`crate::reactor`): `on_event` handles
//! the mailbox, `on_timer` the prepare deadline and every attached
//! governor's window boundary (see [`crate::govern`]; a governor's decision
//! is one more swap request), and `settle` polls the control channel.

use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use rtcm_core::admission::{AdmissionController, Decision};
use rtcm_core::ledger::ContributionKey;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{ProcessorId, TaskSet};
use rtcm_core::time::{Duration, Time};
use rtcm_events::{topics, ChannelHandle, Event, EventReceiver};

use crate::clock::TimerDriver;
use crate::govern::{Actuation, Attached, GovernorLog};
use crate::job_trace;
use crate::lock;
use crate::proto::{
    self, AcceptMsg, ArriveMsg, IdleResetMsg, ReconfigAbortReason, ReconfigAckMsg, ReconfigMsg,
    ReconfigPhase, RejectMsg, Wire,
};
use crate::quorum_sm::{CoordinatorSm, SwapResolution};
use crate::reactor::{Handler, Reactor, TimerId, DEFAULT_TICK};
use crate::stats::RtMetrics;
use crate::system::{ReconfigReport, ReconfigureError};

/// A swap's outcome, as one requester receives it.
pub(crate) type SwapOutcome = Result<ReconfigReport, ReconfigureError>;

/// Where a swap's outcome goes.
enum SwapReply {
    /// A `System::reconfigure` caller, blocked on the reply.
    Caller(Sender<SwapOutcome>),
    /// A governor's decision: the outcome is booked and logged.
    Governor(Actuation),
}

/// Control requests to the manager thread, the one out-of-band channel
/// beside its mailbox.
pub(crate) enum ManagerCtl {
    /// Run the two-phase swap to `target` and reply with the outcome.
    Reconfigure { target: ServiceConfig, reply: Sender<SwapOutcome> },
    /// Close this governor's windows from now on.
    AttachGovernor(Attached),
    /// Stop closing the windows of the governor logging to this log. Its
    /// pending decision, if any, is still settled.
    DetachGovernor(Arc<GovernorLog>),
    /// Exit the loop.
    Shutdown,
}

/// The sending side of [`ManagerCtl`]: every request is followed by a
/// `topics::MANAGER_WAKE` kick, so the manager parks on its mailbox
/// instead of polling the channel.
#[derive(Clone)]
pub(crate) struct ManagerLink {
    pub(crate) ctl: Sender<ManagerCtl>,
    pub(crate) wake: ChannelHandle,
}

impl ManagerLink {
    /// Enqueues `request` and wakes the manager. False once the manager
    /// has exited (the request is dropped).
    pub(crate) fn send(&self, request: ManagerCtl) -> bool {
        let sent = self.ctl.send(request).is_ok();
        if sent {
            let _ = self.wake.publish(topics::MANAGER_WAKE, &b""[..]);
        }
        sent
    }
}

pub(crate) struct ManagerConfig {
    pub ac: AdmissionController,
    pub tasks: Arc<TaskSet>,
    pub channel: ChannelHandle,
    pub stats: Arc<RtMetrics>,
    pub processors: u16,
    /// How long the prepare phase waits for node acks before aborting.
    pub ack_timeout: StdDuration,
    /// Host ids of TCP-bridged federations whose vote is *required* for a
    /// prepare quorum (shared with `System::register_remote_voter`; read
    /// once per swap, so (de)registration never races a running prepare).
    pub remote_voters: Arc<Mutex<HashSet<u64>>>,
    /// The active configuration as `System::services` reads it. Only the
    /// manager writes it, at commit, before the requester hears back.
    pub services: Arc<Mutex<ServiceConfig>>,
    pub ctl_rx: Receiver<ManagerCtl>,
    /// The manager's single inbox — "Task Arrive", "Idle Resetting",
    /// reconfiguration acks and `topics::MANAGER_WAKE` kicks merged in
    /// publish order. Subscribed by the launcher before any thread starts
    /// (no startup race).
    pub mailbox: EventReceiver,
}

/// Most mailbox events drained after a wake's own before the control poll,
/// so a saturating event flood cannot starve reconfigure or shutdown
/// requests.
const DRAIN_BATCH: usize = 256;

/// Source of manager-instance coordinator ids (see
/// [`crate::proto::ReconfigMsg::coordinator`]); process-qualified so two
/// bridged hosts can never mint the same identity.
static NEXT_COORDINATOR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Timer tags for the manager's reactor. With no swap pending and no
/// governor attached its list is empty and the thread blocks on the
/// mailbox indefinitely.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MgrTimer {
    /// The prepare phase's ack deadline passed — abort the swap.
    PrepareDeadline,
    /// An attached governor's window boundary; the governor is the one
    /// holding this entry's `TimerId` in `Manager::governors`.
    GovernorWindow,
}

pub(crate) struct Manager<D> {
    cfg: ManagerConfig,
    /// The swap coordinator — the same machine the federation simulator
    /// drives in virtual time. Its wire identity is unique to this manager,
    /// so a bridged-in foreign reconfiguration can never pre-satisfy a
    /// local prepare quorum.
    swap: CoordinatorSm<ArriveMsg>,
    /// The pending swap's requester and its ack-deadline wheel entry;
    /// `Some` exactly while `swap` has a prepare out.
    parked: Option<(SwapReply, Option<TimerId>)>,
    /// Requests that found a prepare out, oldest first: a coordinator
    /// serializes its swaps, so they wait their turn.
    queued: VecDeque<(ServiceConfig, SwapReply)>,
    /// Attached governors, each with its pending window-boundary entry.
    governors: Vec<(TimerId, Attached)>,
    /// Swap deadlines and governor windows (see [`MgrTimer`]).
    reactor: Reactor<D, MgrTimer>,
}

impl<D: TimerDriver> Manager<D> {
    pub(crate) fn new(cfg: ManagerConfig, driver: D) -> Self {
        let coordinator = (u64::from(std::process::id()) << 32)
            | NEXT_COORDINATOR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Manager {
            swap: CoordinatorSm::new(coordinator, cfg.channel.host_id()),
            parked: None,
            queued: VecDeque::new(),
            governors: Vec::new(),
            reactor: Reactor::new(driver, DEFAULT_TICK),
            cfg,
        }
    }

    /// Delivers a swap's outcome to whoever asked for it.
    fn reply(&self, reply: SwapReply, outcome: SwapOutcome) {
        match reply {
            SwapReply::Caller(caller) => {
                let _ = caller.send(outcome);
            }
            SwapReply::Governor(actuation) => actuation.settle(outcome, &self.cfg.stats),
        }
    }

    /// One governor window boundary (see [`Attached::close_window`]). A
    /// window that finds a swap out is sensed, but never actuates.
    fn close_window(&mut self, fired: TimerId) {
        let Some(at) = self.governors.iter().position(|(timer, _)| *timer == fired) else {
            return; // detached since
        };
        let actuate = self.parked.is_none() && self.queued.is_empty();
        let (timer, governor) = &mut self.governors[at];
        let now = self.reactor.now();
        let decision = governor.close_window(&mut self.cfg.ac, &self.cfg.stats, now, actuate);
        *timer = self.reactor.schedule_at(governor.next_ns, MgrTimer::GovernorWindow);
        if let Some((target, actuation)) = decision {
            self.begin_swap(target, SwapReply::Governor(actuation));
        }
    }

    /// Hands a mailbox payload to `on`; a malformed one is dropped and
    /// counted (see [`proto::DecodeErrors::receive`]).
    fn decoded<T: Wire>(&mut self, ev: &Event, on: fn(&mut Self, T)) {
        let (m, channel) = (&self.cfg.stats, &self.cfg.channel);
        if let Some(msg) = m.decode_errors.receive(ev, channel, &m.trace, &self.reactor) {
            on(self, msg);
        }
    }

    /// Phase 1 (prepare): fence every task effector's local fast path. The
    /// prepare quorum is every local processor *plus* every registered
    /// TCP-bridged federation: bridged hosts are voting members, not
    /// observers, and their silence (partition, crash) aborts the swap at
    /// the same deadline a silent local node would.
    fn begin_swap(&mut self, target: ServiceConfig, reply: SwapReply) {
        let remote: HashSet<u64> = lock(&self.cfg.remote_voters).clone();
        let begun = self.swap.begin(
            target,
            self.cfg.ac.config(),
            self.cfg.processors,
            remote,
            self.reactor.now_ns(),
            self.cfg.ack_timeout.as_nanos() as u64,
        );
        match begun {
            Err(e) => {
                self.cfg.stats.record_abort(ReconfigAbortReason::Validation);
                self.reply(reply, Err(ReconfigureError::InvalidConfig(e)));
            }
            Ok((prepare, resolution)) => {
                self.publish_phase(&prepare);
                // The ack deadline is a wheel entry, not a poll cadence:
                // the loop parks on min(deadline, mailbox).
                let timer = self
                    .swap
                    .deadline_ns()
                    .map(|at| self.reactor.schedule_at(at, MgrTimer::PrepareDeadline));
                self.parked = Some((reply, timer));
                if let Some(resolution) = resolution {
                    self.finish_swap(resolution);
                }
            }
        }
    }

    /// Closes the pending swap as the machine resolved it: publish, book,
    /// decide the deferred arrivals, and answer the requester last.
    fn finish_swap(&mut self, resolution: SwapResolution<ArriveMsg>) {
        let (reply, timer) = self.parked.take().expect("a resolution closes the parked request");
        if let Some(timer) = timer {
            self.reactor.cancel(timer);
        }
        let SwapResolution { message, aborted, acked, expected, started_ns, deferred } = resolution;
        let outcome = if let Some(reason) = aborted {
            // Abort: lift the fences, keep the old configuration. Nothing
            // was applied anywhere, so the rollback is exactly "publish
            // abort".
            self.publish_phase(&message);
            self.cfg.stats.record_abort(reason);
            Err(ReconfigureError::Aborted { reason, acked, expected })
        } else {
            // Phase 2 (commit): every fast path is fenced, so the ledger
            // handover runs race-free while jobs keep executing.
            let now = self.reactor.now();
            let handover = self
                .cfg
                .ac
                .reconfigure(message.services, now, &self.cfg.tasks)
                .expect("begin validated the target");
            *lock(&self.cfg.services) = message.services;
            self.publish_phase(&message);

            let swap_latency =
                Duration::from_nanos(self.reactor.now_ns().saturating_sub(started_ns));
            let jobs_in_flight = self.cfg.stats.in_flight();
            let decisions_deferred = deferred.len() as u64;
            let m = &self.cfg.stats;
            m.reconfig_latency.record(swap_latency.as_nanos());
            m.reconfig_swaps.inc();
            m.reconfig_deferred.add(decisions_deferred);
            m.reconfig_max_inflight.set(m.reconfig_max_inflight.get().max(jobs_in_flight as f64));
            Ok(ReconfigReport {
                epoch: message.epoch,
                handover,
                swap_latency,
                decisions_deferred,
                jobs_in_flight,
                acked_nodes: usize::from(self.cfg.processors),
                acked_remote: expected - usize::from(self.cfg.processors),
            })
        };
        // Deferred arrivals are decided now, under whichever configuration
        // won.
        for msg in &deferred {
            self.on_arrive(msg);
        }
        self.reply(reply, outcome);
    }

    fn publish_phase(&self, msg: &ReconfigMsg) {
        let stage = match msg.phase {
            ReconfigPhase::Prepare => "reconfig_prepare",
            ReconfigPhase::Commit => "reconfig_commit",
            ReconfigPhase::Abort => "reconfig_abort",
        };
        self.cfg.stats.trace.record(
            msg.trace,
            msg.sent_ns,
            msg.host,
            stage,
            format!("epoch {}, target {}", msg.epoch, msg.services.label()),
        );
        self.cfg.channel.publish(topics::RECONFIG, proto::encode(msg));
    }

    fn on_arrive(&mut self, msg: &ArriveMsg) {
        let now = self.reactor.now();
        let metrics = &self.cfg.stats;
        metrics.comm.record(now.elapsed_since(Time::from_nanos(msg.sent_ns)).as_nanos());

        let Some(task) = self.cfg.tasks.get(msg.job.task) else { return };
        // On one shared clock a job cannot arrive after its decision starts.
        // The deadline runs from the clamped stamp, and the accept carries it.
        let arrival = Time::from_nanos(msg.arrival_ns).min(now);

        // The simulator's one call, pruning at `now`. Op 3 is the balancer
        // call it makes (the LB's "Location" call; a pass-through makes
        // none), op 4 the rest of the decision, expiry included.
        let mut lb_plan = None;
        let started = Instant::now();
        let decision = self.cfg.ac.handle_arrival_with(task, msg.job.seq, arrival, now, |locate| {
            let lb_start = Instant::now();
            let plan = locate();
            lb_plan = Some(lb_start.elapsed());
            plan
        });
        let lb = lb_plan.unwrap_or_default();
        metrics.ac_test.record(Duration::from(started.elapsed().saturating_sub(lb)).as_nanos());
        if lb_plan.is_some() && self.cfg.ac.config().lb.is_enabled() {
            metrics.lb_plan.record(Duration::from(lb).as_nanos());
        }
        metrics.admission_live_entries.set(self.cfg.ac.current_entries() as f64);

        let host = self.cfg.channel.host_id();
        let (task_rejected, stage) = match decision {
            Ok(Decision::Accept { assignment, newly_admitted }) => {
                metrics.trace.record_packed(
                    msg.trace,
                    self.reactor.now_ns(),
                    host,
                    &job_trace::ACCEPTED,
                    job_trace::words(msg.job, newly_admitted.into()),
                );
                if assignment.is_reallocation(task) {
                    job_trace::record_reallocation(
                        &metrics.trace,
                        msg.trace,
                        self.reactor.now_ns(),
                        host,
                        msg.job,
                        assignment.as_slice(),
                    );
                }
                let reply = AcceptMsg {
                    job: msg.job,
                    release_proc: assignment.processor(0).0,
                    assignment: assignment.as_slice().iter().map(|p| p.0).collect(),
                    arrival_ns: arrival.as_nanos(),
                    deadline_ns: (arrival + task.deadline()).as_nanos(),
                    newly_admitted,
                    sent_ns: self.reactor.now_ns(),
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::ACCEPT, proto::encode(&reply));
                return;
            }
            Ok(Decision::Reject { .. }) => {
                let task_rejected = self.cfg.ac.config().decides_per_task(task);
                (task_rejected, &job_trace::REJECTED)
            }
            // Duplicate submissions (same task, same sequence) are caller
            // mistakes; reject the extra copy so the arrival TE releases its
            // bookkeeping and the system stays live.
            Err(_duplicate_or_misroute) => (false, &job_trace::DUPLICATE),
        };
        metrics.trace.record_packed(
            msg.trace,
            self.reactor.now_ns(),
            host,
            stage,
            job_trace::words(msg.job, task_rejected.into()),
        );
        let reply = RejectMsg {
            job: msg.job,
            arrival_proc: msg.arrival_proc,
            task_rejected,
            trace: msg.trace,
        };
        self.cfg.channel.publish(topics::REJECT, proto::encode(&reply));
    }

    fn on_reset(&mut self, msg: IdleResetMsg) {
        if msg.processor >= self.cfg.processors {
            return; // decodable, but no processor of this deployment
        }
        let now = self.reactor.now();
        let keys: Vec<ContributionKey> = msg
            .completed
            .iter()
            .map(|(job, subtask)| ContributionKey::new(*job, *subtask as usize))
            .collect();
        // Op 8: remove the contributions from the synthetic utilization.
        let update_start = Instant::now();
        self.cfg.ac.apply_idle_reset(ProcessorId(msg.processor), &keys);
        let update = Duration::from(update_start.elapsed());
        let m = &self.cfg.stats;
        m.ir_update.record(update.as_nanos());
        m.admission_live_entries.set(self.cfg.ac.current_entries() as f64);
        m.ir_path.record(now.elapsed_since(Time::from_nanos(msg.started_ns)).as_nanos());
        m.ir_reports.inc();
    }
}

impl<D: TimerDriver> Handler for Manager<D> {
    type Driver = D;
    type Timer = MgrTimer;

    const DRAIN: usize = DRAIN_BATCH;

    fn io(&mut self) -> (&mut Reactor<D, MgrTimer>, &EventReceiver) {
        (&mut self.reactor, &self.cfg.mailbox)
    }

    /// The one event dispatch, inside a prepare window and out.
    fn on_event(&mut self, ev: &Event) -> ControlFlow<()> {
        match ev.topic {
            topics::TASK_ARRIVE => self.decoded(ev, |m, msg: ArriveMsg| {
                // Quiesce-free: running subjobs continue through a swap;
                // only *new admission decisions* wait for it to resolve.
                if m.swap.pending_epoch().is_some() {
                    m.swap.defer(msg);
                } else {
                    m.on_arrive(&msg);
                }
            }),
            // Idle resets carry no decision: mid-prepare too they apply.
            topics::IDLE_RESET => self.decoded(ev, Self::on_reset),
            // An undecodable vote is no vote, and one arriving outside a
            // prepare window is stale: the machine drops it.
            topics::RECONFIG_ACK => self.decoded(ev, |m, ack: ReconfigAckMsg| {
                let now_ns = m.reactor.now_ns();
                if let Some(resolution) = m.swap.on_ack(&ack, now_ns) {
                    m.finish_swap(resolution);
                }
            }),
            _ => {}
        }
        ControlFlow::Continue(())
    }

    fn on_timer(&mut self, id: TimerId, timer: MgrTimer) {
        match timer {
            MgrTimer::PrepareDeadline => {
                let now_ns = self.reactor.now_ns();
                if let Some(resolution) = self.swap.on_deadline(now_ns) {
                    self.finish_swap(resolution);
                }
            }
            MgrTimer::GovernorWindow => self.close_window(id),
        }
    }

    fn on_timer_wake(&mut self) {
        self.cfg.stats.timer_wakeups.inc();
    }

    /// Polls the control channel without blocking (each request comes with
    /// a wake-up kick, see [`ManagerLink`]), then starts the oldest queued
    /// swap if none is out.
    fn settle(&mut self) -> ControlFlow<()> {
        loop {
            match self.cfg.ctl_rx.try_recv() {
                Ok(ManagerCtl::Reconfigure { target, reply }) => {
                    self.queued.push_back((target, SwapReply::Caller(reply)));
                }
                Ok(ManagerCtl::AttachGovernor(governor)) => {
                    let timer =
                        self.reactor.schedule_at(governor.next_ns, MgrTimer::GovernorWindow);
                    self.governors.push((timer, governor));
                }
                Ok(ManagerCtl::DetachGovernor(log)) => {
                    if let Some(at) = self.governors.iter().position(|(_, g)| g.logs_to(&log)) {
                        let (timer, _) = self.governors.swap_remove(at);
                        self.reactor.cancel(timer);
                    }
                }
                Ok(ManagerCtl::Shutdown) | Err(TryRecvError::Disconnected) => {
                    // Leaving with a prepare out: nothing was applied
                    // anywhere and member fences expire on their own, so
                    // there is no abort to publish — the requester just
                    // learns the system closed.
                    if let Some((reply, _)) = self.parked.take() {
                        self.reply(reply, Err(ReconfigureError::Closed));
                    }
                    return ControlFlow::Break(());
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        while self.parked.is_none() {
            let Some((target, reply)) = self.queued.pop_front() else { break };
            self.begin_swap(target, reply);
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;

    use rtcm_config::{configure_with, WorkloadSpec};
    use rtcm_core::task::{JobId, TaskId};
    use rtcm_events::{Federation, Latency, NodeId};

    use super::*;
    use crate::clock::Clock;
    use crate::reactor::{step, Wake};

    #[test]
    fn a_reconfigure_waits_at_most_one_drain_batch_behind_arrivals() {
        let spec = "workload w\nprocessors 1\n\
                    task t aperiodic deadline=1000ms\n  subtask exec=1ms proc=0\n";
        let spec = WorkloadSpec::parse(spec).unwrap();
        let deployment = configure_with(&spec, "J_N_N".parse().unwrap()).unwrap();
        let federation = Federation::new(1, Latency::None, 7);
        let handle = federation.handle(NodeId(0)).unwrap();
        let decisions = handle.subscribe_many(&[topics::ACCEPT, topics::REJECT, topics::RECONFIG]);
        let (ctl, ctl_rx) = channel();
        let cfg = ManagerConfig {
            ac: AdmissionController::new(deployment.services, 1).unwrap(),
            tasks: Arc::new(deployment.tasks.clone()),
            mailbox: handle.subscribe_many(&[topics::TASK_ARRIVE, topics::MANAGER_WAKE]),
            channel: handle.clone(),
            stats: Arc::new(RtMetrics::new()),
            processors: 1,
            ack_timeout: StdDuration::from_secs(600),
            remote_voters: Arc::default(),
            services: Arc::new(Mutex::new(deployment.services)),
            ctl_rx,
        };
        let mut manager = Manager::new(cfg, Clock::new());
        for seq in 0..(DRAIN_BATCH + 50) as u64 {
            let job = JobId::new(TaskId(0), seq);
            let msg = ArriveMsg { job, arrival_proc: 0, arrival_ns: 0, sent_ns: 0, trace: seq };
            manager.cfg.channel.publish(topics::TASK_ARRIVE, proto::encode(&msg));
        }
        let link = ManagerLink { ctl, wake: handle };
        let (reply, outcome) = channel();
        assert!(link.send(ManagerCtl::Reconfigure { target: "J_J_N".parse().unwrap(), reply }));

        let first = manager.cfg.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut manager, Wake::Event(first)), ControlFlow::Continue(()));
        let seen: Vec<_> =
            std::iter::from_fn(|| decisions.try_recv().ok()).map(|e| e.topic).collect();
        assert_eq!(seen.len(), 1 + DRAIN_BATCH + 1, "a batch of decisions, then the prepare");
        assert_eq!(seen.last(), Some(&topics::RECONFIG));
        assert!(seen[..=DRAIN_BATCH].iter().all(|&t| t != topics::RECONFIG));
        // The rest arrive under the prepare and wait for the swap.
        let next = manager.cfg.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut manager, Wake::Event(next)), ControlFlow::Continue(()));
        assert!(decisions.try_recv().is_err(), "deferred, not decided");
        assert!(manager.cfg.mailbox.is_empty());
        // Shutdown with the prepare out answers the requester.
        assert!(link.send(ManagerCtl::Shutdown));
        let kick = manager.cfg.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut manager, Wake::Event(kick)), ControlFlow::Break(()));
        assert!(matches!(outcome.try_recv(), Ok(Err(ReconfigureError::Closed))));
    }
}
