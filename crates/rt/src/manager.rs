//! The central task manager node: the Admission Control and Load Balancing
//! components (§3's centralized architecture — "one AC component and one LB
//! component on a central task manager processor").
//!
//! The manager consumes "Task Arrive" and "Idle Resetting" events, runs the
//! core [`AdmissionController`] (which hosts the load balancer), and
//! publishes "Accept"/"Reject" events back to the task effectors. Each
//! operation is timed for the Figure 8 overhead table: op 3 (plan
//! generation), op 4 (admission test), op 8 (utilization update), and the
//! one-way communication delay of incoming events (op 2) measured on the
//! shared clock.
//!
//! The manager is also the coordinator of the **two-phase live
//! reconfiguration protocol** (see DESIGN.md "Live reconfiguration"):
//! on a [`ManagerCtl::Reconfigure`] request it publishes a *prepare*
//! event fencing every task effector's local fast path, defers incoming
//! admission decisions while collecting acks, executes the admission
//! controller's ledger handover, and publishes *commit* — or *abort*,
//! restoring the old configuration, if a node never acks.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use rtcm_core::admission::{AdmissionController, Decision};
use rtcm_core::balance::Assignment;
use rtcm_core::govern::slack_and_imbalance;
use rtcm_core::ledger::ContributionKey;
use rtcm_core::strategy::{AcStrategy, ServiceConfig};
use rtcm_core::task::{ProcessorId, TaskSet};
use rtcm_core::time::{Duration, Time};
use rtcm_events::{topics, ChannelHandle, Event, EventReceiver};

use crate::clock::Clock;
use crate::proto::{
    self, AcceptMsg, ArriveMsg, IdleResetMsg, ReconfigAbortReason, ReconfigMsg, ReconfigPhase,
    RejectMsg, Wire,
};
use crate::quorum_sm::{CoordinatorSm, QuorumStatus};
use crate::reactor::{Reactor, TimerId, Wake, DEFAULT_TICK};
use crate::stats::SharedStats;
use crate::system::{ReconfigReport, ReconfigureError};

/// Control requests from the launcher to the manager thread.
pub(crate) enum ManagerCtl {
    /// Run the two-phase swap to `target` and reply with the outcome.
    Reconfigure { target: ServiceConfig, reply: Sender<Result<ReconfigReport, ReconfigureError>> },
    /// Expire the current set up to *now* and reply with fresh
    /// `(aub_slack, imbalance)` gauges from the ledger's maintained
    /// totals. Sent once per governor sensing window, so an idle system's
    /// gauges still track entry expiry — exactly the semantics of the
    /// simulator's per-tick `expire` + ledger read.
    SenseGauges { reply: Sender<(f64, f64)> },
}

pub(crate) struct ManagerConfig {
    pub ac: AdmissionController,
    pub tasks: Arc<TaskSet>,
    pub channel: ChannelHandle,
    pub clock: Clock,
    pub stats: Arc<SharedStats>,
    pub processors: u16,
    /// How long the prepare phase waits for node acks before aborting.
    pub ack_timeout: StdDuration,
    /// Host ids of TCP-bridged federations whose vote is *required* for a
    /// prepare quorum (shared with `System::register_remote_voter`; read
    /// once per swap, so (de)registration never races a running prepare).
    pub remote_voters: Arc<Mutex<HashSet<u64>>>,
    pub shutdown_rx: Receiver<()>,
    pub ctl_rx: Receiver<ManagerCtl>,
    /// The manager's single inbox — "Task Arrive", "Idle Resetting",
    /// reconfiguration acks and `topics::MANAGER_WAKE` kicks merged in
    /// publish order. Subscribed by the launcher before any thread starts
    /// (no startup race).
    pub mailbox: EventReceiver,
}

/// Most mailbox events handled between control polls, so a saturating
/// event flood cannot starve reconfigure or shutdown requests.
const DRAIN_BATCH: usize = 256;

/// Source of manager-instance coordinator ids (see
/// [`crate::proto::ReconfigMsg::coordinator`]); process-qualified so two
/// bridged hosts can never mint the same identity.
static NEXT_COORDINATOR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Runs the manager loop until shutdown. Spawned by `System::launch`.
pub(crate) fn run_manager(cfg: ManagerConfig) {
    let coordinator = (u64::from(std::process::id()) << 32)
        | NEXT_COORDINATOR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let reactor = Reactor::new(cfg.clock, DEFAULT_TICK);
    let mut manager = Manager { cfg, coordinator, epoch: 0, reactor };
    manager.run();
}

/// Wheel tags for the manager's reactor. The prepare-fence deadline is the
/// only entry the manager ever schedules; in steady state its wheel is
/// empty and the thread blocks on the mailbox indefinitely.
#[derive(Debug, Clone, Copy)]
enum MgrTimer {
    /// The prepare phase's ack deadline passed — abort the swap.
    PrepareDeadline,
}

struct Manager {
    cfg: ManagerConfig,
    /// This manager's protocol identity; acks not bearing it are ignored,
    /// so a bridged-in foreign reconfiguration can never pre-satisfy a
    /// local prepare quorum.
    coordinator: u64,
    /// Monotone reconfiguration epoch (acks echo it).
    epoch: u64,
    /// Timer wheel + single-wait loop (see [`MgrTimer`]).
    reactor: Reactor<Clock, MgrTimer>,
}

/// What the manager loop should do after a control-channel poll.
enum CtlFlow {
    Continue,
    Exit,
}

impl Manager {
    fn run(&mut self) {
        loop {
            if matches!(self.poll_ctl(), CtlFlow::Exit) {
                return;
            }
            // Park on the mailbox. Every control sender (reconfigure
            // requests, gauge probes, shutdown) publishes a
            // `topics::MANAGER_WAKE` kick after enqueueing, so this wait
            // needs no poll cadence: with an empty wheel it blocks until
            // something actually happens — zero wakeups while idle.
            match self.reactor.wait(&self.cfg.mailbox) {
                Wake::Event(ev) => {
                    self.on_event(&ev);
                    // Drain a *bounded* backlog batch before the next
                    // control poll: a sustained arrival flood must not
                    // starve reconfigure/shutdown requests (the fairness
                    // the old multi-channel select! provided).
                    for _ in 0..DRAIN_BATCH {
                        match self.cfg.mailbox.try_recv() {
                            Ok(ev) => self.on_event(&ev),
                            Err(_) => break,
                        }
                    }
                }
                Wake::Timer => {
                    // No steady-state wheel entries exist; reap anything
                    // stale (e.g. a prepare deadline that raced its cancel).
                    self.cfg.stats.timer_wakeup();
                    let mut fired = Vec::new();
                    self.reactor.poll(&mut fired);
                }
                Wake::Closed => return,
            }
        }
    }

    /// Steady-state event dispatch. Reconfiguration acks arriving outside
    /// a prepare window are stale (the swap they voted on is decided) and
    /// are dropped, exactly as the ack check inside the prepare loop would.
    fn on_event(&mut self, ev: &Event) {
        if ev.topic == topics::TASK_ARRIVE {
            if let Some(msg) = self.decode(ev) {
                self.on_arrive(&msg);
            }
        } else if ev.topic == topics::IDLE_RESET {
            if let Some(msg) = self.decode(ev) {
                self.on_reset(&msg);
            }
        }
    }

    /// Decodes a mailbox payload; a malformed one is dropped and counted
    /// (see [`proto::DecodeErrors::receive`]).
    fn decode<T: Wire>(&self, ev: &Event) -> Option<T> {
        let m = self.cfg.stats.metrics();
        m.decode_errors.receive(ev, &self.cfg.channel, &m.trace, self.cfg.clock)
    }

    /// Polls the launcher's control channels without blocking.
    fn poll_ctl(&mut self) -> CtlFlow {
        match self.cfg.shutdown_rx.try_recv() {
            Ok(()) | Err(TryRecvError::Disconnected) => return CtlFlow::Exit,
            Err(TryRecvError::Empty) => {}
        }
        loop {
            match self.cfg.ctl_rx.try_recv() {
                Ok(ManagerCtl::Reconfigure { target, reply }) => {
                    if !self.on_reconfigure(target, &reply) {
                        return CtlFlow::Exit;
                    }
                }
                Ok(ManagerCtl::SenseGauges { reply }) => {
                    self.cfg.ac.expire(self.cfg.clock.now());
                    let gauges = self.gauges();
                    self.cfg.stats.with(|r| {
                        r.aub_slack = gauges.0;
                        r.util_imbalance = gauges.1;
                    });
                    let _ = reply.send(gauges);
                }
                Err(TryRecvError::Empty) => return CtlFlow::Continue,
                Err(TryRecvError::Disconnected) => return CtlFlow::Exit,
            }
        }
    }

    /// The two-phase swap. Returns false if shutdown arrived mid-protocol
    /// (the manager loop must exit).
    fn on_reconfigure(
        &mut self,
        target: ServiceConfig,
        reply: &Sender<Result<ReconfigReport, ReconfigureError>>,
    ) -> bool {
        let started_ns = self.cfg.clock.now().as_nanos();
        if let Err(e) = target.validate() {
            self.cfg
                .stats
                .with(|r| r.reconfig_abort_reasons.record(ReconfigAbortReason::Validation));
            let _ = reply.send(Err(ReconfigureError::InvalidConfig(e)));
            return true;
        }
        self.epoch += 1;
        let epoch = self.epoch;

        // Phase 1 (prepare): fence every task effector's local fast path.
        // Quiesce-free — running subjobs continue; only *new admission
        // decisions* are deferred until commit so no decision straddles
        // the handover. The prepare quorum is every local processor *plus*
        // every registered TCP-bridged federation: bridged hosts are
        // voting members, not observers, and their silence (partition,
        // crash) aborts the swap at the same deadline a silent local node
        // would. The vote bookkeeping is the pure [`CoordinatorSm`] —
        // the same machine the federation simulator drives in virtual
        // time — so this loop only moves messages and timers.
        let remote: HashSet<u64> = self.cfg.remote_voters.lock().clone();
        self.publish_phase(epoch, ReconfigPhase::Prepare, target);
        let mut quorum = CoordinatorSm::begin(
            self.coordinator,
            epoch,
            self.cfg.channel.host_id(),
            self.cfg.processors,
            remote,
        );
        // The ack deadline is a wheel entry, not a poll cadence: the loop
        // parks on min(deadline, mailbox) and wakes exactly when an ack
        // arrives, the deadline passes, or a shutdown kick is published.
        let deadline_ns = self.cfg.clock.now().as_nanos() + self.cfg.ack_timeout.as_nanos() as u64;
        let fence_timer = self.reactor.schedule_at(deadline_ns, MgrTimer::PrepareDeadline);
        let mut timed_out = false;
        let mut fired: Vec<(TimerId, MgrTimer)> = Vec::new();
        let mut deferred: Vec<ArriveMsg> = Vec::new();
        while matches!(quorum.status(), QuorumStatus::Pending) && !timed_out {
            match self.cfg.shutdown_rx.try_recv() {
                Ok(()) | Err(TryRecvError::Disconnected) => {
                    self.reactor.cancel(fence_timer);
                    let _ = reply.send(Err(ReconfigureError::Closed));
                    return false;
                }
                Err(TryRecvError::Empty) => {}
            }
            match self.reactor.wait(&self.cfg.mailbox) {
                Wake::Event(ev) => {
                    if ev.topic == topics::RECONFIG_ACK {
                        // An undecodable vote is no vote: the quorum
                        // stays pending until a valid one or the deadline.
                        if let Some(ack) = self.decode(&ev) {
                            quorum.on_ack(&ack);
                        }
                    } else if ev.topic == topics::TASK_ARRIVE {
                        deferred.extend(self.decode::<ArriveMsg>(&ev));
                    } else if ev.topic == topics::IDLE_RESET {
                        // Idle resets carry no decision; apply immediately.
                        if let Some(msg) = self.decode(&ev) {
                            self.on_reset(&msg);
                        }
                    }
                }
                Wake::Timer => {
                    // Either the ack deadline or an intermediate cascade
                    // boundary; only the former ends the wait.
                    self.cfg.stats.timer_wakeup();
                    fired.clear();
                    self.reactor.poll(&mut fired);
                    if fired.iter().any(|(_, t)| matches!(t, MgrTimer::PrepareDeadline)) {
                        timed_out = true;
                    }
                }
                Wake::Closed => break,
            }
        }
        self.reactor.cancel(fence_timer);

        let (acked, expected) = (quorum.acked(), quorum.expected());
        let verdict = quorum.status();
        if !matches!(verdict, QuorumStatus::Satisfied) {
            // Abort: lift the fences, keep the old configuration, decide
            // the deferred arrivals under it. Nothing was applied anywhere,
            // so the rollback is exactly "publish abort".
            let reason = match verdict {
                QuorumStatus::Vetoed(reason) => reason,
                _ => ReconfigAbortReason::AckTimeout,
            };
            let old = self.cfg.ac.config();
            self.publish_phase(epoch, ReconfigPhase::Abort, old);
            self.cfg.stats.with(|r| {
                r.reconfig_aborts += 1;
                r.reconfig_abort_reasons.record(reason);
            });
            for msg in &deferred {
                self.on_arrive(msg);
            }
            let _ = reply.send(Err(ReconfigureError::Aborted { reason, acked, expected }));
            return true;
        }

        // Phase 2 (commit): every fast path is fenced, so the ledger
        // handover runs race-free while jobs keep executing.
        let now = self.cfg.clock.now();
        let handover =
            self.cfg.ac.reconfigure(target, now, &self.cfg.tasks).expect("target validated above");
        self.publish_phase(epoch, ReconfigPhase::Commit, target);

        let swap_latency =
            Duration::from_nanos(self.cfg.clock.now().as_nanos().saturating_sub(started_ns));
        let jobs_in_flight = self.cfg.stats.in_flight();
        let decisions_deferred = deferred.len() as u64;
        self.cfg.stats.metrics().reconfig_latency.record(swap_latency.as_nanos());
        self.cfg.stats.with(|r| {
            r.reconfig_swaps += 1;
            r.reconfig_deferred += decisions_deferred;
            r.reconfig_max_inflight = r.reconfig_max_inflight.max(jobs_in_flight);
        });
        // Deferred arrivals are decided now, under the new configuration.
        for msg in &deferred {
            self.on_arrive(msg);
        }
        let _ = reply.send(Ok(ReconfigReport {
            epoch,
            handover,
            swap_latency,
            decisions_deferred,
            jobs_in_flight,
            acked_nodes: usize::from(self.cfg.processors),
            acked_remote: expected - usize::from(self.cfg.processors),
        }));
        true
    }

    fn publish_phase(&self, epoch: u64, phase: ReconfigPhase, services: ServiceConfig) {
        let trace = proto::swap_trace(self.coordinator, epoch);
        let now = self.cfg.clock.now().as_nanos();
        let msg = ReconfigMsg {
            coordinator: self.coordinator,
            host: self.cfg.channel.host_id(),
            epoch,
            phase,
            services,
            sent_ns: now,
            trace,
        };
        let stage = match phase {
            ReconfigPhase::Prepare => "reconfig_prepare",
            ReconfigPhase::Commit => "reconfig_commit",
            ReconfigPhase::Abort => "reconfig_abort",
        };
        self.cfg.stats.metrics().trace.record(
            trace,
            now,
            self.cfg.channel.host_id(),
            stage,
            format!("epoch {epoch}, target {}", services.label()),
        );
        self.cfg.channel.publish(topics::RECONFIG, proto::encode(&msg));
    }

    /// The governor's boundary gauges, read from the ledger's
    /// incrementally maintained per-processor totals. Computed only on a
    /// [`ManagerCtl::SenseGauges`] probe (once per governor window) — the
    /// admission and idle-reset hot paths pay nothing for sensing.
    fn gauges(&self) -> (f64, f64) {
        slack_and_imbalance(&self.cfg.ac.ledger().utilizations())
    }

    fn on_arrive(&mut self, msg: &ArriveMsg) {
        let now = self.cfg.clock.now();
        self.cfg
            .stats
            .metrics()
            .comm
            .record(now.elapsed_since(Time::from_nanos(msg.sent_ns)).as_nanos());

        let Some(task) = self.cfg.tasks.get(msg.job.task) else { return };
        self.cfg.ac.expire(now);

        // Op 3: generate an acceptable deployment plan (the "Location"
        // call on the LB component).
        let lb_enabled = self.cfg.ac.config().lb.is_enabled();
        let lb_start = Instant::now();
        let assignment = if lb_enabled {
            self.cfg.ac.propose_assignment(task)
        } else {
            Assignment::primaries(task)
        };
        let lb_elapsed = Duration::from(lb_start.elapsed());
        if lb_enabled {
            self.cfg.stats.metrics().lb_plan.record(lb_elapsed.as_nanos());
        }

        // Op 4: the admission test against the job's true arrival-based
        // deadline.
        let ac_start = Instant::now();
        let decision =
            self.cfg.ac.admit_with(task, msg.job.seq, Time::from_nanos(msg.arrival_ns), assignment);
        let ac_elapsed = Duration::from(ac_start.elapsed());
        let metrics = self.cfg.stats.metrics();
        metrics.ac_test.record(ac_elapsed.as_nanos());

        let host = self.cfg.channel.host_id();
        match decision {
            Ok(Decision::Accept { assignment, newly_admitted }) => {
                metrics.trace.record(
                    msg.trace,
                    self.cfg.clock.now().as_nanos(),
                    host,
                    "admission",
                    format!("{} accepted (fresh test: {newly_admitted})", msg.job),
                );
                let reallocated =
                    assignment.as_slice().iter().zip(task.subtasks()).any(|(c, s)| *c != s.primary);
                if reallocated {
                    metrics.trace.record(
                        msg.trace,
                        self.cfg.clock.now().as_nanos(),
                        host,
                        "reallocation",
                        format!(
                            "{} placed {:?}",
                            msg.job,
                            assignment.as_slice().iter().map(|p| p.0).collect::<Vec<_>>()
                        ),
                    );
                }
                let reply = AcceptMsg {
                    job: msg.job,
                    release_proc: assignment.processor(0).0,
                    assignment: assignment.as_slice().iter().map(|p| p.0).collect(),
                    arrival_ns: msg.arrival_ns,
                    deadline_ns: msg.arrival_ns + task.deadline().as_nanos(),
                    newly_admitted,
                    sent_ns: self.cfg.clock.now().as_nanos(),
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::ACCEPT, proto::encode(&reply));
            }
            Ok(Decision::Reject { .. }) => {
                let task_rejected =
                    task.is_periodic() && self.cfg.ac.config().ac == AcStrategy::PerTask;
                metrics.trace.record(
                    msg.trace,
                    self.cfg.clock.now().as_nanos(),
                    host,
                    "admission",
                    format!("{} rejected (task rejected: {task_rejected})", msg.job),
                );
                let reply = RejectMsg {
                    job: msg.job,
                    arrival_proc: msg.arrival_proc,
                    task_rejected,
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::REJECT, proto::encode(&reply));
            }
            Err(_duplicate_or_misroute) => {
                // Duplicate submissions (same task, same sequence) are
                // caller mistakes; reject the extra copy so the arrival TE
                // releases its bookkeeping and the system stays live.
                metrics.trace.record(
                    msg.trace,
                    self.cfg.clock.now().as_nanos(),
                    host,
                    "admission",
                    format!("{} rejected (duplicate)", msg.job),
                );
                let reply = RejectMsg {
                    job: msg.job,
                    arrival_proc: msg.arrival_proc,
                    task_rejected: false,
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::REJECT, proto::encode(&reply));
            }
        }
    }

    fn on_reset(&mut self, msg: &IdleResetMsg) {
        if msg.processor >= self.cfg.processors {
            return; // decodable, but no processor of this deployment
        }
        let now = self.cfg.clock.now();
        let keys: Vec<ContributionKey> = msg
            .completed
            .iter()
            .map(|(job, subtask)| ContributionKey::new(*job, *subtask as usize))
            .collect();
        // Op 8: remove the contributions from the synthetic utilization.
        let update_start = Instant::now();
        self.cfg.ac.apply_idle_reset(ProcessorId(msg.processor), &keys);
        let update = Duration::from(update_start.elapsed());
        let m = self.cfg.stats.metrics();
        m.ir_update.record(update.as_nanos());
        m.ir_path.record(now.elapsed_since(Time::from_nanos(msg.started_ns)).as_nanos());
        m.ir_reports.inc();
    }
}
