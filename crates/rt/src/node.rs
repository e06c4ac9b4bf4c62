//! An application-processor node: one thread driving the processor's
//! [`NodeCore`] — the task effector, the idle resetter, and the prioritized
//! subtask dispatcher (the F/I and Last Subtask components of Figure 3) —
//! as a reactor handler (`crate::reactor`): `on_event` decodes and routes
//! one message, `on_timer` completes the running subjob, and `settle`
//! declares idleness once the step has drained the mailbox.
//!
//! `NodeCore` is the step the simulator runs too; here its dispatcher, the
//! preemptive EDMS state machine the AUB analysis assumes, is driven off
//! the node's clock instead of OS real-time priorities (see DESIGN.md for
//! this substitution). Execution is simulated ([`ExecMode`]): in
//! [`ExecMode::Sleep`] the running subjob *is* a timer-wheel entry at its
//! completion instant and the thread parks on `min(completion, mailbox)`.
//! A more urgent arrival preempts the moment it is received: the
//! dispatcher banks the time the preempted run consumed and the entry is
//! re-aimed at the new run. That entry is the only one a node ever holds,
//! so a subjob costs one timer wake-up however long it runs, and an idle
//! node blocks on its mailbox indefinitely: **zero wakeups while idle**.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use rtcm_core::dispatch::Started;
use rtcm_core::node::{Done, Local, NodeCore, Subjob};
use rtcm_core::priority::Priority;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, ProcessorId, TaskSet};
use rtcm_core::time::{Duration, Time};
use rtcm_events::{topics, ChannelHandle, Event, EventReceiver, Topic};

use crate::clock::TimerDriver;
use crate::job_trace;
use crate::proto::{
    self, AcceptMsg, ArriveMsg, IdleResetMsg, InjectMsg, ReconfigAckMsg, ReconfigMsg,
    ReconfigPhase, RejectMsg, TriggerMsg, Wire,
};
use crate::reactor::{Handler, Reactor, TimerId, DEFAULT_TICK};
use crate::stats::RtMetrics;

/// How subtask execution consumes time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Park until the execution time has passed, preemptibly (default).
    #[default]
    Sleep,
    /// Complete instantly (control-plane tests).
    Noop,
}

/// What a stage carries besides its [`Subjob`] fields: the placement the
/// next trigger names, and the trace id.
type Stage = Subjob<(Vec<u16>, u64)>;

/// Everything a node thread needs at spawn time.
///
/// The **mailbox** is the node's single inbox: one subscription merging
/// accept/reject/trigger/reconfig traffic with this processor's reserved
/// inject and control topics, created by the *launcher* before any thread
/// starts, so no publication can race past an unsubscribed consumer. One
/// queue means one wait point and a global FIFO over everything the node
/// reacts to.
pub(crate) struct NodeConfig {
    pub processor: u16,
    pub services: ServiceConfig,
    pub tasks: Arc<TaskSet>,
    /// EDMS levels by task position in `tasks`, as the task effector's
    /// verdicts are: one `TaskSet::position` per message names all three.
    pub priorities: Arc<Vec<Priority>>,
    pub channel: ChannelHandle,
    pub stats: Arc<RtMetrics>,
    pub exec: ExecMode,
    pub mailbox: EventReceiver,
}

pub(crate) struct Node<D> {
    cfg: NodeConfig,
    inject_topic: Topic,
    ctl_topic: Topic,
    core: NodeCore<Vec<u16>, (Vec<u16>, u64)>,
    /// Set between a reconfiguration *prepare* and its *commit*/*abort*,
    /// keyed by `(coordinator, epoch)`: while fenced, the TE fast path is
    /// disabled so every arrival routes through the AC and no local
    /// decision can straddle the swap. A commit is adopted only under its
    /// matching fence, so an unrelated (e.g. bridged-in foreign) commit
    /// can never half-apply.
    fence: Option<(u64, u64)>,
    /// Entries are tagged with the generation of the run they complete.
    reactor: Reactor<D, u64>,
    /// The node's one wheel entry: the running subjob's completion. `None`
    /// while nothing runs — and always under [`ExecMode::Noop`].
    completion: Option<TimerId>,
}

impl<D: TimerDriver> Node<D> {
    pub(crate) fn new(cfg: NodeConfig, driver: D) -> Self {
        Node {
            inject_topic: topics::inject(cfg.processor),
            ctl_topic: topics::node_ctl(cfg.processor),
            core: NodeCore::new(cfg.services, ProcessorId(cfg.processor), cfg.tasks.len()),
            fence: None,
            reactor: Reactor::new(driver, DEFAULT_TICK),
            completion: None,
            cfg,
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

    /// One phase of a live reconfiguration (published by the AC on the
    /// event channel — and possibly bridged in from a remote host). Phases
    /// whose coordinator lives on a *foreign* federation are ignored
    /// outright: a bridged-in foreign swap concerns that host's nodes (and
    /// this host's `QuorumMember`, if one is attached), never this node's
    /// local configuration — so it can neither poison the fence nor
    /// half-apply.
    fn on_reconfig(&mut self, msg: ReconfigMsg) {
        if msg.host != self.cfg.channel.host_id() {
            return;
        }
        match msg.phase {
            ReconfigPhase::Prepare => {
                self.fence = Some((msg.coordinator, msg.epoch));
                let ack = ReconfigAckMsg {
                    coordinator: msg.coordinator,
                    epoch: msg.epoch,
                    host: self.cfg.channel.host_id(),
                    processor: self.cfg.processor,
                    vote: proto::ReconfigVote::Ack,
                    sent_ns: self.reactor.now_ns(),
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::RECONFIG_ACK, proto::encode(&ack));
            }
            ReconfigPhase::Abort => {
                if self.fence == Some((msg.coordinator, msg.epoch)) {
                    self.fence = None;
                }
            }
            ReconfigPhase::Commit => {
                // Only the swap this node actually fenced for may commit;
                // anything else (a foreign coordinator's commit bridged in
                // without its prepare, a stale epoch) is ignored rather
                // than half-applied.
                if self.fence != Some((msg.coordinator, msg.epoch)) {
                    return;
                }
                // Adopt the committed configuration: cached TE decisions
                // were taken under the old one (a drained reservation must
                // not keep fast-path releasing).
                self.core.commit(msg.services);
                self.fence = None;
            }
        }
    }

    /// The TE component: record the arrival, fast-path per-task decisions,
    /// otherwise hold and push "Task Arrive" to the AC (ops 1–2).
    fn on_inject(&mut self, inj: InjectMsg) {
        // `System::submit` already counted the job in (so quiesce() sees it
        // immediately); this thread only records the arrival weight.
        let Some(at) = self.cfg.tasks.position(inj.task) else {
            self.cfg.stats.job_out();
            return;
        };
        let task = &self.cfg.tasks.tasks()[at];
        let m = &self.cfg.stats;
        m.arrived_utilization.add(task.job_utilization());
        m.arrived_jobs.inc();
        m.trace.record_packed(
            inj.trace,
            self.reactor.now_ns(),
            self.cfg.channel.host_id(),
            &job_trace::ARRIVAL,
            job_trace::words(JobId::new(inj.task, inj.seq), self.cfg.processor.into()),
        );

        // While fenced for a pending reconfiguration, the fast path is
        // disabled: every arrival routes through the AC, which defers it
        // to whichever configuration wins the swap.
        let local = match self.fence {
            Some(_) => Local::AskManager,
            None => self.core.arrive(at, task),
        };
        match local {
            Local::Release(assignment) => {
                let now = self.reactor.now();
                let job = JobId::new(inj.task, inj.seq);
                let release_proc = assignment[0];
                m.released_utilization.add(task.job_utilization());
                m.released_jobs.inc();
                m.trace.record_packed(
                    inj.trace,
                    now.as_nanos(),
                    self.cfg.channel.host_id(),
                    &job_trace::FAST_RELEASE,
                    job_trace::words(job, release_proc.into()),
                );
                let stage = Subjob {
                    job,
                    task: at,
                    subtask: 0,
                    arrival: now,
                    deadline: now + task.deadline(),
                    extra: (assignment.clone(), inj.trace),
                };
                if release_proc == self.cfg.processor {
                    self.enqueue(stage);
                } else {
                    // Release the duplicate on its processor via a
                    // trigger-style handoff.
                    self.trigger(stage, now);
                }
                return;
            }
            Local::Drop => {
                self.cfg.stats.job_out();
                return;
            }
            Local::AskManager => {}
        }

        let hold_start = Instant::now();
        let arrival_ns = self.reactor.now_ns();
        let msg = ArriveMsg {
            job: JobId::new(inj.task, inj.seq),
            arrival_proc: self.cfg.processor,
            arrival_ns,
            sent_ns: self.reactor.now_ns(),
            trace: inj.trace,
        };
        self.cfg.channel.publish(topics::TASK_ARRIVE, proto::encode(&msg));
        let hold = Duration::from(hold_start.elapsed());
        self.cfg.stats.hold.record(hold.as_nanos());
    }

    /// "Accept" from the AC: the arrival TE learns the decision; the
    /// releasing TE performs the release (op 5/6).
    fn on_accept(&mut self, msg: AcceptMsg) {
        let Some(at) = self.cfg.tasks.position(msg.job.task) else { return };
        let task = &self.cfg.tasks.tasks()[at];
        if msg.assignment.len() != task.subtasks().len() {
            return; // decodable but not a placement of this task
        }
        let arrival_proc = task.subtasks()[0].primary.0;

        if arrival_proc == self.cfg.processor {
            self.core.accepted(at, task, &msg.assignment);
        }

        if msg.release_proc != self.cfg.processor {
            return;
        }
        let release_start = Instant::now();
        let now = self.reactor.now();
        let total = now.elapsed_since(Time::from_nanos(msg.arrival_ns));
        let m = &self.cfg.stats;
        m.released_utilization.add(task.job_utilization());
        m.released_jobs.inc();
        if msg.release_proc == arrival_proc {
            m.total_no_realloc.record(total.as_nanos());
        } else {
            m.total_realloc.record(total.as_nanos());
        }
        if msg.assignment.iter().zip(task.subtasks()).any(|(c, s)| *c != s.primary.0) {
            m.reallocations.inc();
        }
        m.trace.record_packed(
            msg.trace,
            now.as_nanos(),
            self.cfg.channel.host_id(),
            &job_trace::RELEASE,
            job_trace::words(msg.job, msg.release_proc.into()),
        );
        // The release (op 5/6) ends where the dispatcher takes over: what
        // `enqueue` does next — under Noop, the whole run — is not the TE's.
        m.release.record(Duration::from(release_start.elapsed()).as_nanos());
        self.enqueue(Subjob {
            job: msg.job,
            task: at,
            subtask: 0,
            arrival: Time::from_nanos(msg.arrival_ns),
            deadline: Time::from_nanos(msg.deadline_ns),
            extra: (msg.assignment, msg.trace),
        });
    }

    fn on_reject(&mut self, msg: RejectMsg) {
        if msg.arrival_proc != self.cfg.processor {
            return;
        }
        if msg.task_rejected {
            if let Some(at) = self.cfg.tasks.position(msg.job.task) {
                self.core.task_rejected(at);
            }
        }
        self.cfg.stats.job_out();
    }

    fn on_trigger(&mut self, msg: TriggerMsg) {
        let Some(at) = self.cfg.tasks.position(msg.job.task) else { return };
        if msg.assignment.len() != self.cfg.tasks.tasks()[at].subtasks().len() {
            return; // decodable but not a placement of this task
        }
        let subtask = msg.next_subtask as usize;
        if msg.assignment.get(subtask).copied() != Some(self.cfg.processor) {
            return;
        }
        self.enqueue(Subjob {
            job: msg.job,
            task: at,
            subtask,
            arrival: Time::from_nanos(msg.arrival_ns),
            deadline: Time::from_nanos(msg.deadline_ns),
            extra: (msg.assignment, msg.trace),
        });
    }

    /// Offers a released stage, whose placement the caller checked against
    /// its task, to the dispatcher; it starts at once if the processor is
    /// idle or it is more urgent than the running one.
    fn enqueue(&mut self, stage: Stage) {
        let exec = match self.cfg.exec {
            ExecMode::Noop => Duration::ZERO,
            ExecMode::Sleep => {
                self.cfg.tasks.tasks()[stage.task].subtasks()[stage.subtask].execution_time
            }
        };
        let priority = self.cfg.priorities[stage.task];
        let started = self.core.release(self.reactor.now(), priority, exec, stage);
        self.follow(started);
    }

    /// Follows the dispatcher to the run it just started: the wheel entry
    /// moves to that run's completion instant (whatever ran before was
    /// preempted or is done, so its entry goes). A run that is already over
    /// — every Noop subjob — completes here instead, with no timer armed,
    /// and whatever that starts is followed in turn.
    fn follow(&mut self, mut started: Option<Started>) {
        while let Some(run) = started {
            if let Some(previous) = self.completion.take() {
                self.reactor.cancel(previous);
            }
            if run.completes_at > self.reactor.now() {
                self.completion =
                    Some(self.reactor.schedule_at(run.completes_at.as_nanos(), run.gen));
                return;
            }
            started = self.complete(run.gen);
        }
    }

    /// Completes run `gen` unless it was preempted meanwhile: the job
    /// either finishes or triggers its next stage. Returns the run the
    /// dispatcher started in its place.
    fn complete(&mut self, gen: u64) -> Option<Started> {
        let now = self.reactor.now();
        let (done, next) = self.core.complete(now, gen, &self.cfg.tasks)?;
        match done {
            Done::Job { stage, response, missed } => {
                let m = &self.cfg.stats;
                m.response.record(response.as_nanos());
                m.jobs_completed.inc();
                if missed {
                    m.deadline_misses.inc();
                }
                m.trace.record_packed(
                    stage.extra.1,
                    now.as_nanos(),
                    self.cfg.channel.host_id(),
                    if missed { &job_trace::COMPLETION_MISSED } else { &job_trace::COMPLETION_MET },
                    job_trace::words(stage.job, self.cfg.processor.into()),
                );
                m.job_out();
            }
            Done::Next(stage) => self.trigger(stage, now),
        }
        next
    }

    /// Publishes `stage` as a trigger, for the node its placement names.
    fn trigger(&self, stage: Stage, now: Time) {
        let (assignment, trace) = stage.extra;
        let msg = TriggerMsg {
            job: stage.job,
            next_subtask: stage.subtask as u32,
            assignment,
            arrival_ns: stage.arrival.as_nanos(),
            deadline_ns: stage.deadline.as_nanos(),
            sent_ns: now.as_nanos(),
            trace,
        };
        self.cfg.channel.publish(topics::TRIGGER, proto::encode(&msg));
    }
}

impl<D: TimerDriver> Handler for Node<D> {
    type Driver = D;
    type Timer = u64;

    fn io(&mut self) -> (&mut Reactor<D, u64>, &EventReceiver) {
        (&mut self.reactor, &self.cfg.mailbox)
    }

    /// Routes one mailbox event to its handler. All node input — protocol
    /// events, injected arrivals, shutdown — arrives through the single
    /// mailbox in publish order.
    fn on_event(&mut self, ev: &Event) -> ControlFlow<()> {
        match ev.topic {
            topics::ACCEPT => self.decoded(ev, Self::on_accept),
            topics::REJECT => self.decoded(ev, Self::on_reject),
            topics::TRIGGER => self.decoded(ev, Self::on_trigger),
            topics::RECONFIG => self.decoded(ev, Self::on_reconfig),
            topic if topic == self.inject_topic => self.decoded(ev, Self::on_inject),
            topic if topic == self.ctl_topic => return ControlFlow::Break(()),
            _ => {}
        }
        ControlFlow::Continue(())
    }

    /// The running subjob's completion instant.
    fn on_timer(&mut self, _: TimerId, gen: u64) {
        self.completion = None;
        let next = self.complete(gen);
        self.follow(next);
    }

    fn on_timer_wake(&mut self) {
        self.cfg.stats.timer_wakeups.inc();
    }

    /// The idle detector (op 7), run here and nowhere else: only now is the
    /// mailbox known to be empty. A completion that empties the dispatcher
    /// says nothing about releases queued behind it, and reporting there
    /// sends an idle reset per completion instead of one per idle period.
    /// `NodeCore::idle` reports every pending completion in one call.
    fn settle(&mut self) -> ControlFlow<()> {
        if let Some(report) = self.core.idle(self.reactor.now()) {
            let started_ns = self.reactor.now_ns();
            let msg = IdleResetMsg {
                processor: self.cfg.processor,
                completed: report.completed.iter().map(|k| (k.job, k.subtask as u32)).collect(),
                started_ns,
            };
            self.cfg.channel.publish(topics::IDLE_RESET, proto::encode(&msg));
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use rtcm_config::{configure_with, WorkloadSpec};
    use rtcm_core::task::TaskId;
    use rtcm_events::{Federation, Latency, NodeId};

    use super::*;
    use crate::clock::Clock;
    use crate::reactor::{step, Wake};

    /// A one-processor node under `ExecMode::Noop`, per-job idle resetting,
    /// with its federation (keep it alive) and a subscriber to its idle
    /// resets. No thread runs it: the tests step it by hand.
    fn noop_node() -> (Federation, Node<Clock>, EventReceiver) {
        let spec = "workload w\nprocessors 1\n\
                    task t aperiodic deadline=1000ms\n  subtask exec=1ms proc=0\n";
        let spec = WorkloadSpec::parse(spec).unwrap();
        let deployment = configure_with(&spec, "J_J_N".parse().unwrap()).unwrap();
        let tasks = Arc::new(deployment.tasks.clone());
        let priorities = Arc::new(tasks.iter().map(|t| deployment.priorities[&t.id()]).collect());
        let federation = Federation::new(1, Latency::None, 7);
        let channel = federation.handle(NodeId(0)).unwrap();
        let idle_resets = channel.subscribe(topics::IDLE_RESET);
        let mailbox = channel.subscribe_many(&[topics::ACCEPT, topics::node_ctl(0)]);
        let cfg = NodeConfig {
            processor: 0,
            services: deployment.services,
            tasks,
            priorities,
            channel,
            stats: Arc::new(RtMetrics::new()),
            exec: ExecMode::Noop,
            mailbox,
        };
        (federation, Node::new(cfg, Clock::new()), idle_resets)
    }

    fn accept(seq: u64) -> Vec<u8> {
        proto::encode(&AcceptMsg {
            job: JobId::new(TaskId(0), seq),
            assignment: vec![0],
            release_proc: 0,
            arrival_ns: 0,
            deadline_ns: 1_000_000_000_000,
            newly_admitted: true,
            sent_ns: 0,
            trace: seq,
        })
    }

    #[test]
    fn idle_is_reported_once_after_the_drain() {
        let (_federation, mut node, idle_resets) = noop_node();
        for seq in 0..2 {
            node.cfg.channel.publish(topics::ACCEPT, accept(seq));
        }
        let first = node.cfg.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut node, Wake::Event(first)), ControlFlow::Continue(()));
        // Each Noop release completes inline and empties the dispatcher, so
        // a report per completion would show up here as two.
        let report = proto::decode::<IdleResetMsg>(&idle_resets.try_recv().unwrap().payload);
        assert_eq!(report.completed.len(), 2, "one report, after both releases");
        assert!(idle_resets.try_recv().is_err(), "exactly one idle reset");
        assert_eq!(node.cfg.stats.jobs_completed.get(), 2);
    }

    #[test]
    fn the_control_topic_stops_the_node() {
        let (_federation, mut node, _) = noop_node();
        node.cfg.channel.publish(topics::node_ctl(0), &b""[..]);
        node.cfg.channel.publish(topics::ACCEPT, accept(0));
        let kick = node.cfg.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut node, Wake::Event(kick)), ControlFlow::Break(()));
        assert_eq!(node.cfg.mailbox.len(), 1, "nothing is handled after the stop");
        assert_eq!(step(&mut node, Wake::Closed), ControlFlow::Break(()));
    }
}
