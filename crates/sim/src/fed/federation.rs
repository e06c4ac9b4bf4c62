//! The federated event loop: M simulated hosts, one global timeline.
//!
//! Every host runs the real middleware control plane — an
//! [`AdmissionController`] for its own workload, and the *identical*
//! quorum state machines the threaded runtime uses
//! ([`MemberSm`]/[`CoordinatorSm`] from `rtcm-rt`) for two-phase
//! reconfiguration — while the federation advances one discrete-event
//! heap. Between hosts sit simulated bridge [`Link`]s; above them a
//! [`FaultSchedule`] injects partitions, crashes, clock skew and swap
//! requests at scripted instants.
//!
//! ## Time
//!
//! The heap orders events on the hidden **global** timeline. Hosts never
//! see it: admission deadlines, fence expiries and ack timeouts all read
//! the host's [`VirtualClock`], so injected skew and drift reach the
//! protocol exactly where they would on real machines — through the
//! timers. Job *execution* is physics, not perception: subjob durations
//! occupy global time regardless of what the executing host's clock
//! claims.
//!
//! ## The swap protocol
//!
//! Every host owns one [`CoordinatorSm`] — the machine the threaded
//! manager runs — and drives it with its local clock readings: `begin`
//! yields the `Prepare` to broadcast (every peer is a required voter — a
//! crashed or partitioned peer's silence aborts the swap at the ack
//! deadline, never half-applies it), votes and the deadline event feed
//! `on_ack` / `on_deadline`, and the resolution they return carries the
//! `Commit` or `Abort` to broadcast plus the arrivals deferred meanwhile.
//! Peers run [`MemberSm`]: fence on prepare, ack or veto, apply the
//! configuration on a witnessed commit, drop stale fences after the
//! fence timeout on their own (possibly skewed) clocks. What stays here is
//! the simulator's own: the oracle's epoch records, the trace, the links
//! and re-aiming timers when a virtual clock is skewed.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtcm_core::admission::{AdmissionController, Decision};
use rtcm_core::strategy::{InvalidConfigError, ServiceConfig};
use rtcm_core::task::TaskSet;
use rtcm_core::time::Time;
use rtcm_rt::proto::{ReconfigAbortReason, ReconfigAckMsg, ReconfigMsg};
use rtcm_rt::quorum_sm::{CoordinatorSm, MemberReaction, MemberSm, SwapResolution};
use rtcm_workload::ArrivalTrace;

use super::clock::VirtualClock;
use super::fault::{FaultAction, FaultEvent, FaultSchedule};
use super::link::{Link, LinkConfig};

/// Federation-wide tunables.
#[derive(Debug, Clone)]
pub struct FedOptions {
    /// Coordinator ack deadline (on the coordinator's clock).
    pub ack_timeout_ms: u64,
    /// Member fence timeout (on each member's clock).
    pub fence_timeout_ms: u64,
    /// Parameters applied to every link direction.
    pub link: LinkConfig,
    /// Seed for all network weather draws.
    pub seed: u64,
    /// When set, the run ends with a *convergence epilogue*: all faults
    /// healed, then a final swap to this configuration is retried until
    /// it commits everywhere — the campaign's terminal-convergence check.
    pub converge_target: Option<ServiceConfig>,
}

impl Default for FedOptions {
    fn default() -> Self {
        FedOptions {
            ack_timeout_ms: 25,
            fence_timeout_ms: 60,
            link: LinkConfig::default(),
            seed: 0,
            converge_target: None,
        }
    }
}

/// One host's static inputs.
#[derive(Debug, Clone)]
pub struct FedHostSpec {
    /// Initial service configuration.
    pub services: ServiceConfig,
    /// The host's task set.
    pub tasks: TaskSet,
    /// The host's job arrivals (global-timeline instants: arrivals are
    /// physical stimuli, not clock readings).
    pub arrivals: ArrivalTrace,
}

/// Federation construction/run errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// A host's initial or restart configuration was invalid.
    Invalid(InvalidConfigError),
    /// A fault event referenced an unknown host index.
    UnknownHost(u16),
    /// A `Swap` action's target label failed to parse.
    BadTarget(String),
    /// An admission call failed structurally (bad task/processor wiring).
    Admission(String),
    /// The event loop exceeded its runaway-safety cap.
    RunawayEvents(u64),
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::Invalid(e) => write!(f, "invalid configuration: {e}"),
            FedError::UnknownHost(h) => write!(f, "fault references unknown host {h}"),
            FedError::BadTarget(t) => write!(f, "unparseable swap target {t:?}"),
            FedError::Admission(e) => write!(f, "admission wiring error: {e}"),
            FedError::RunawayEvents(n) => write!(f, "event loop exceeded {n} events"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<InvalidConfigError> for FedError {
    fn from(e: InvalidConfigError) -> Self {
        FedError::Invalid(e)
    }
}

/// How one initiated swap epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// Quorum satisfied; the coordinator committed.
    Committed,
    /// The coordinator aborted with this reason.
    Aborted(ReconfigAbortReason),
    /// The coordinating host crashed before resolving the epoch; member
    /// fences expire on their own clocks.
    CoordinatorCrashed,
}

/// The oracle record of one initiated swap.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Coordinating host index.
    pub host: u16,
    /// Coordinator identity on the wire.
    pub coordinator: u64,
    /// The epoch number (monotone per host).
    pub epoch: u64,
    /// Target configuration label.
    pub target: String,
    /// Resolution; `None` only while the run is in progress.
    pub outcome: Option<EpochOutcome>,
}

/// One host's end-of-run accounting.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host index.
    pub host: u16,
    /// Jobs admitted (including deferred replays).
    pub admitted: u64,
    /// Admitted jobs that ran to completion.
    pub completed: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
    /// Admitted jobs destroyed by a crash of this host.
    pub lost_on_crash: u64,
    /// Admitted jobs still executing when the run ended.
    pub in_flight_at_end: u64,
    /// Arrivals skipped because the host was down.
    pub skipped_down: u64,
    /// Deferred arrivals replayed after a swap resolved.
    pub deferred_replayed: u64,
    /// Deferred arrivals destroyed by a crash before replay.
    pub deferred_dropped: u64,
    /// Times this host crashed.
    pub crashes: u32,
    /// Foreign prepares acked (member role).
    pub acks: u64,
    /// Foreign prepares vetoed (member role).
    pub nacks: u64,
    /// Every configuration this host applied: `(coordinator, epoch,
    /// label)` in application order, own commits included.
    pub applied: Vec<(u64, u64, String)>,
    /// The configuration the host ended on.
    pub final_config: String,
    /// Accumulated execution time per processor, global ns.
    pub busy_ns: Vec<u64>,
}

/// The campaign's full output.
#[derive(Debug, Clone)]
pub struct FedReport {
    /// Per-host accounting.
    pub hosts: Vec<HostReport>,
    /// Every initiated swap epoch, in initiation order.
    pub epochs: Vec<EpochRecord>,
    /// The deterministic event trace (protocol + fault events).
    pub trace: Vec<String>,
    /// Messages handed to links.
    pub msgs_sent: u64,
    /// Messages dropped by partitions or loss draws.
    pub msgs_dropped: u64,
    /// Events processed.
    pub events: u64,
    /// Global instant the run ended.
    pub end_global_ns: u64,
    /// The label every host converged on (epilogue), if all agree.
    pub converged: Option<String>,
}

const EVENT_CAP: u64 = 10_000_000;
const CONVERGE_ATTEMPTS: u32 = 64;

#[derive(Debug, Clone)]
enum NetMsg {
    Phase(ReconfigMsg),
    Ack(ReconfigAckMsg),
}

#[derive(Debug, Clone)]
enum FedEv {
    /// Index into the host's arrival trace.
    Arrival {
        host: usize,
        idx: usize,
    },
    Deliver {
        to: usize,
        msg: NetMsg,
    },
    JobComplete {
        host: usize,
        inc: u32,
    },
    FenceCheck {
        host: usize,
        coordinator: u64,
        epoch: u64,
    },
    AckDeadline {
        host: usize,
        epoch: u64,
    },
    Fault {
        idx: usize,
    },
}

struct Scheduled {
    time: u64,
    seq: u64,
    ev: FedEv,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap on (time, insertion seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct SimHost {
    wire_id: u64,
    up: bool,
    incarnation: u32,
    clock: VirtualClock,
    services: ServiceConfig,
    ac: AdmissionController,
    tasks: TaskSet,
    arrivals: ArrivalTrace,
    processors: usize,
    member: MemberSm,
    holding: bool,
    /// Coordinator role; deferred arrivals are indices into `arrivals`.
    coord: CoordinatorSm<usize>,
    /// The pending swap's index into [`Federation::epochs`].
    record: usize,
    proc_free: Vec<u64>,
    proc_busy: Vec<u64>,
    admitted: u64,
    completed: u64,
    rejected: u64,
    lost_on_crash: u64,
    in_flight: u64,
    skipped_down: u64,
    deferred_replayed: u64,
    deferred_dropped: u64,
    crashes: u32,
    applied: Vec<(u64, u64, String)>,
}

impl SimHost {
    fn local_ns(&self, global_ns: u64) -> u64 {
        self.clock.local_ns(global_ns)
    }
}

/// The federated simulator. Build with [`Federation::new`], run one
/// campaign with [`Federation::run`].
pub struct Federation {
    hosts: Vec<SimHost>,
    links: Vec<Link>,
    faults: Vec<FaultEvent>,
    opts: FedOptions,
    rng: StdRng,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: u64,
    events: u64,
    trace: Vec<String>,
    epochs: Vec<EpochRecord>,
}

impl Federation {
    /// Builds a federation of `specs.len()` hosts with a full mesh of
    /// links, scripted by `schedule`.
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] for invalid initial configurations, fault
    /// events referencing unknown hosts, or unparseable swap targets.
    pub fn new(
        specs: Vec<FedHostSpec>,
        schedule: &FaultSchedule,
        opts: FedOptions,
    ) -> Result<Self, FedError> {
        let m = specs.len();
        let faults = schedule.sorted();
        for ev in &faults {
            let check = |h: u16| {
                if usize::from(h) >= m {
                    Err(FedError::UnknownHost(h))
                } else {
                    Ok(())
                }
            };
            match &ev.action {
                FaultAction::Partition { a, b } | FaultAction::Heal { a, b } => {
                    check(*a)?;
                    check(*b)?;
                }
                FaultAction::Crash { host }
                | FaultAction::Restart { host }
                | FaultAction::SkewClock { host, .. }
                | FaultAction::DriftClock { host, .. }
                | FaultAction::Hold { host, .. } => check(*host)?,
                FaultAction::Swap { host, target } => {
                    check(*host)?;
                    target
                        .parse::<ServiceConfig>()
                        .map_err(|_| FedError::BadTarget(target.clone()))?;
                }
            }
        }
        let mut hosts = Vec::with_capacity(m);
        for (i, spec) in specs.into_iter().enumerate() {
            let processors = spec.tasks.processor_count();
            let ac = AdmissionController::new(spec.services, processors)?;
            hosts.push(SimHost {
                wire_id: i as u64,
                up: true,
                incarnation: 0,
                clock: VirtualClock::perfect(),
                services: spec.services,
                ac,
                tasks: spec.tasks,
                arrivals: spec.arrivals,
                processors,
                member: MemberSm::new(),
                holding: false,
                coord: CoordinatorSm::new(coordinator_id(i), i as u64),
                record: 0,
                proc_free: vec![0; processors],
                proc_busy: vec![0; processors],
                admitted: 0,
                completed: 0,
                rejected: 0,
                lost_on_crash: 0,
                in_flight: 0,
                skipped_down: 0,
                deferred_replayed: 0,
                deferred_dropped: 0,
                crashes: 0,
                applied: Vec::new(),
            });
        }
        let links = vec![Link::new(opts.link); m * m];
        let rng = StdRng::seed_from_u64(opts.seed);
        Ok(Federation {
            hosts,
            links,
            faults,
            opts,
            rng,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            events: 0,
            trace: Vec::new(),
            epochs: Vec::new(),
        })
    }

    fn ack_timeout_ns(&self) -> u64 {
        self.opts.ack_timeout_ms * 1_000_000
    }

    fn fence_timeout_ns(&self) -> u64 {
        self.opts.fence_timeout_ms * 1_000_000
    }

    fn schedule(&mut self, time: u64, ev: FedEv) {
        self.seq += 1;
        self.heap.push(Scheduled { time: time.max(self.now), seq: self.seq, ev });
    }

    fn note(&mut self, line: String) {
        self.trace.push(line);
    }

    /// Sends `msg` from host `from` to host `to` over the directed link,
    /// drawing delay/loss from the federation RNG.
    fn send(&mut self, from: usize, to: usize, msg: NetMsg) {
        let m = self.hosts.len();
        let link = &mut self.links[from * m + to];
        if let Some(delay_ns) = link.delivery_delay(&mut self.rng) {
            let at = self.now + delay_ns;
            self.schedule(at, FedEv::Deliver { to, msg });
        }
    }

    /// Broadcasts a protocol phase from `from` to every other host, in
    /// index order (determinism).
    fn broadcast(&mut self, from: usize, msg: &ReconfigMsg) {
        for to in 0..self.hosts.len() {
            if to != from {
                self.send(from, to, NetMsg::Phase(*msg));
            }
        }
    }

    /// Runs the campaign to quiescence (plus the convergence epilogue if
    /// configured) and returns the full report.
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] on admission wiring failures or a runaway
    /// event loop.
    pub fn run(mut self) -> Result<FedReport, FedError> {
        // Seed the heap: every host's arrivals, plus the fault script.
        for h in 0..self.hosts.len() {
            for idx in 0..self.hosts[h].arrivals.len() {
                let at = self.hosts[h].arrivals.arrivals()[idx].time.as_nanos();
                self.schedule(at, FedEv::Arrival { host: h, idx });
            }
        }
        for idx in 0..self.faults.len() {
            let at = self.faults[idx].at_ms * 1_000_000;
            self.schedule(at, FedEv::Fault { idx });
        }
        self.drain()?;

        // Convergence epilogue: heal the world, let fences lapse, then
        // drive one final swap until every host applies it.
        let converged = if let Some(target) = self.opts.converge_target {
            self.heal_all();
            let label = target.label();
            let mut committed_everywhere = false;
            for _attempt in 0..CONVERGE_ATTEMPTS {
                self.now += self.fence_timeout_ns() + 1_000_000;
                self.expire_all_fences();
                self.initiate_swap(0, target)?;
                self.drain()?;
                committed_everywhere = self.hosts.iter().all(|h| h.services.label() == label);
                if committed_everywhere {
                    break;
                }
            }
            let line =
                format!("t={} converge target={} ok={}", self.now, label, committed_everywhere);
            self.note(line);
            committed_everywhere.then_some(label)
        } else {
            None
        };

        let (msgs_sent, msgs_dropped) =
            self.links.iter().fold((0, 0), |(s, d), l| (s + l.sent, d + l.dropped));
        let hosts = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostReport {
                host: i as u16,
                admitted: h.admitted,
                completed: h.completed,
                rejected: h.rejected,
                lost_on_crash: h.lost_on_crash,
                in_flight_at_end: h.in_flight,
                skipped_down: h.skipped_down,
                deferred_replayed: h.deferred_replayed,
                deferred_dropped: h.deferred_dropped,
                crashes: h.crashes,
                acks: h.member.acks(),
                nacks: h.member.nacks(),
                applied: h.applied.clone(),
                final_config: h.services.label(),
                busy_ns: h.proc_busy.clone(),
            })
            .collect();
        Ok(FedReport {
            hosts,
            epochs: self.epochs,
            trace: self.trace,
            msgs_sent,
            msgs_dropped,
            events: self.events,
            end_global_ns: self.now,
            converged,
        })
    }

    fn drain(&mut self) -> Result<(), FedError> {
        while let Some(s) = self.heap.pop() {
            self.events += 1;
            if self.events > EVENT_CAP {
                return Err(FedError::RunawayEvents(EVENT_CAP));
            }
            self.now = self.now.max(s.time);
            self.process(s.ev)?;
        }
        Ok(())
    }

    fn process(&mut self, ev: FedEv) -> Result<(), FedError> {
        match ev {
            FedEv::Arrival { host, idx } => self.on_arrival(host, idx),
            FedEv::Deliver { to, msg } => self.on_deliver(to, msg),
            FedEv::JobComplete { host, inc } => {
                let h = &mut self.hosts[host];
                if h.up && h.incarnation == inc {
                    h.completed += 1;
                    h.in_flight -= 1;
                }
                Ok(())
            }
            FedEv::FenceCheck { host, coordinator, epoch } => {
                self.on_fence_check(host, coordinator, epoch);
                Ok(())
            }
            FedEv::AckDeadline { host, epoch } => self.on_ack_deadline(host, epoch),
            FedEv::Fault { idx } => self.on_fault(idx),
        }
    }

    fn on_arrival(&mut self, host: usize, idx: usize) -> Result<(), FedError> {
        if !self.hosts[host].up {
            self.hosts[host].skipped_down += 1;
            return Ok(());
        }
        if self.hosts[host].coord.pending_epoch().is_some() {
            self.hosts[host].coord.defer(idx);
            return Ok(());
        }
        self.admit(host, idx)
    }

    /// Runs one arrival through the host's admission controller and, on
    /// acceptance, schedules its chain execution over the host's
    /// processors in global time.
    fn admit(&mut self, host: usize, idx: usize) -> Result<(), FedError> {
        let now = self.now;
        let h = &mut self.hosts[host];
        let arrival = h.arrivals.arrivals()[idx];
        let Some(task) = h.tasks.get(arrival.task) else {
            return Err(FedError::Admission(format!("unknown task {:?}", arrival.task)));
        };
        let local_now = Time::from_nanos(h.local_ns(now));
        let decision =
            h.ac.handle_arrival(task, arrival.seq, local_now)
                .map_err(|e| FedError::Admission(e.to_string()))?;
        match decision {
            Decision::Accept { assignment, .. } => {
                h.admitted += 1;
                h.in_flight += 1;
                let mut cursor = now;
                for (sub, proc) in assignment.iter() {
                    let exec = task.subtasks()[sub].execution_time.as_nanos();
                    let start = cursor.max(h.proc_free[proc.index()]);
                    let end = start + exec;
                    h.proc_free[proc.index()] = end;
                    h.proc_busy[proc.index()] += exec;
                    cursor = end;
                }
                let inc = h.incarnation;
                self.schedule(cursor, FedEv::JobComplete { host, inc });
            }
            Decision::Reject { .. } => {
                h.rejected += 1;
            }
        }
        Ok(())
    }

    fn on_deliver(&mut self, to: usize, msg: NetMsg) -> Result<(), FedError> {
        if !self.hosts[to].up {
            return Ok(());
        }
        match msg {
            NetMsg::Phase(msg) => self.on_phase(to, &msg),
            NetMsg::Ack(ack) => self.on_ack(to, &ack),
        }
    }

    /// A protocol phase reaches member `to`: drive the shared [`MemberSm`]
    /// with the member's *local* clock reading and carry out its reaction.
    fn on_phase(&mut self, to: usize, msg: &ReconfigMsg) -> Result<(), FedError> {
        let now = self.now;
        let fence_timeout_ns = self.fence_timeout_ns();
        let h = &mut self.hosts[to];
        let local = h.local_ns(now);
        let wire_id = h.wire_id;
        let holding = h.holding;
        let reaction = h.member.on_phase(msg, wire_id, local, fence_timeout_ns, holding);
        match reaction {
            MemberReaction::Ignored => Ok(()),
            MemberReaction::Vote(ack) => {
                let voted = match ack.vote {
                    rtcm_rt::proto::ReconfigVote::Ack => "ack",
                    rtcm_rt::proto::ReconfigVote::Nack(_) => "nack",
                };
                let fence = h.member.fence();
                self.note(format!(
                    "t={now} local={local} h{to} prepare c={} e={} target={} vote={voted}",
                    msg.coordinator,
                    msg.epoch,
                    msg.services.label(),
                ));
                // Mirror the standing fence with an expiry check on the
                // member's own clock.
                if let Some(f) = fence {
                    let deadline_local = f.raised_ns + fence_timeout_ns;
                    let at = self.hosts[to]
                        .clock
                        .global_for_local(deadline_local, now)
                        .unwrap_or(now + 1);
                    self.schedule(
                        at,
                        FedEv::FenceCheck { host: to, coordinator: f.coordinator, epoch: f.epoch },
                    );
                }
                self.send(to, msg.host as usize, NetMsg::Ack(ack));
                Ok(())
            }
            MemberReaction::Committed(services) => {
                self.note(format!(
                    "t={now} local={local} h{to} commit c={} e={} applied={}",
                    msg.coordinator,
                    msg.epoch,
                    services.label(),
                ));
                self.apply_config(to, msg.coordinator, msg.epoch, services)
            }
            MemberReaction::Aborted => {
                self.note(format!(
                    "t={now} local={local} h{to} abort c={} e={} witnessed",
                    msg.coordinator, msg.epoch,
                ));
                Ok(())
            }
        }
    }

    /// Applies a committed configuration on host `idx` at its local time.
    fn apply_config(
        &mut self,
        idx: usize,
        coordinator: u64,
        epoch: u64,
        services: ServiceConfig,
    ) -> Result<(), FedError> {
        let now = self.now;
        let h = &mut self.hosts[idx];
        let local_now = Time::from_nanos(h.local_ns(now));
        h.ac.reconfigure(services, local_now, &h.tasks).map_err(FedError::Invalid)?;
        h.services = services;
        h.applied.push((coordinator, epoch, services.label()));
        Ok(())
    }

    /// A vote reaches coordinator `to`, at its local clock reading.
    fn on_ack(&mut self, to: usize, ack: &ReconfigAckMsg) -> Result<(), FedError> {
        let h = &mut self.hosts[to];
        let local = h.local_ns(self.now);
        match h.coord.on_ack(ack, local) {
            Some(resolution) => self.finish_swap(to, resolution),
            None => Ok(()),
        }
    }

    /// The coordinator's ack deadline fires (on its clock).
    fn on_ack_deadline(&mut self, host: usize, epoch: u64) -> Result<(), FedError> {
        let h = &mut self.hosts[host];
        if h.coord.pending_epoch() != Some(epoch) {
            return Ok(());
        }
        let local = h.local_ns(self.now);
        match h.coord.on_deadline(local) {
            Some(resolution) => self.finish_swap(host, resolution),
            None => {
                // A drift change moved the local deadline; re-aim.
                self.aim_ack_deadline(host);
                Ok(())
            }
        }
    }

    /// Schedules the pending swap's deadline event where the coordinator's
    /// clock will read its local deadline.
    fn aim_ack_deadline(&mut self, host: usize) {
        let now = self.now;
        let h = &self.hosts[host];
        if let (Some(epoch), Some(deadline)) = (h.coord.pending_epoch(), h.coord.deadline_ns()) {
            let at = h.clock.global_for_local(deadline, now).unwrap_or(now + 1);
            self.schedule(at, FedEv::AckDeadline { host, epoch });
        }
    }

    /// Closes the swap on `host` as its coordinator machine resolved it:
    /// oracle record, closing broadcast, local application on commit, and
    /// the deferred arrivals.
    fn finish_swap(
        &mut self,
        host: usize,
        resolution: SwapResolution<usize>,
    ) -> Result<(), FedError> {
        let now = self.now;
        let SwapResolution { message, aborted, deferred, .. } = resolution;
        let h = &self.hosts[host];
        let local = h.local_ns(now);
        let epoch = message.epoch;
        let (outcome, how) = match aborted {
            None => (EpochOutcome::Committed, format!("committed {}", message.services.label())),
            Some(reason) => (EpochOutcome::Aborted(reason), format!("aborted {reason}")),
        };
        self.epochs[h.record].outcome = Some(outcome);
        self.note(format!("t={now} local={local} h{host} swap e={epoch} {how}"));
        self.broadcast(host, &message);
        if aborted.is_none() {
            self.apply_config(host, message.coordinator, epoch, message.services)?;
        }
        self.hosts[host].deferred_replayed += deferred.len() as u64;
        for idx in deferred {
            self.admit(host, idx)?;
        }
        Ok(())
    }

    /// A member's fence-expiry check fires (on its clock).
    fn on_fence_check(&mut self, host: usize, coordinator: u64, epoch: u64) {
        let now = self.now;
        let fence_timeout_ns = self.fence_timeout_ns();
        let h = &mut self.hosts[host];
        let Some(f) = h.member.fence() else { return };
        if (f.coordinator, f.epoch) != (coordinator, epoch) {
            return;
        }
        let local = h.local_ns(now);
        if h.member.expire_fence(local, fence_timeout_ns) {
            self.note(format!(
                "t={now} local={local} h{host} fence expired c={coordinator} e={epoch}"
            ));
        } else {
            // Not yet due on the (possibly re-skewed) local clock; re-aim.
            let deadline_local = f.raised_ns + fence_timeout_ns;
            let at =
                self.hosts[host].clock.global_for_local(deadline_local, now).unwrap_or(now + 1);
            self.schedule(at, FedEv::FenceCheck { host, coordinator, epoch });
        }
    }

    fn on_fault(&mut self, idx: usize) -> Result<(), FedError> {
        let now = self.now;
        let action = self.faults[idx].action.clone();
        match action {
            FaultAction::Partition { a, b } => {
                self.set_link(a.into(), b.into(), false);
                self.note(format!("t={now} fault partition h{a}<->h{b}"));
            }
            FaultAction::Heal { a, b } => {
                self.set_link(a.into(), b.into(), true);
                self.note(format!("t={now} fault heal h{a}<->h{b}"));
            }
            FaultAction::Crash { host } => self.crash(host.into()),
            FaultAction::Restart { host } => self.restart(host.into())?,
            FaultAction::SkewClock { host, skew_us } => {
                let h = &mut self.hosts[usize::from(host)];
                h.clock.step(now, skew_us.saturating_mul(1_000));
                let local = h.local_ns(now);
                self.note(format!("t={now} fault skew h{host} {skew_us}us local={local}"));
                self.reaim_timers(host.into());
            }
            FaultAction::DriftClock { host, ppm } => {
                let h = &mut self.hosts[usize::from(host)];
                h.clock.set_drift(now, ppm);
                self.note(format!("t={now} fault drift h{host} {ppm}ppm"));
                self.reaim_timers(host.into());
            }
            FaultAction::Swap { host, target } => {
                let target: ServiceConfig =
                    target.parse().expect("targets validated at construction");
                let h = usize::from(host);
                if !self.hosts[h].up {
                    self.note(format!("t={now} fault swap h{host} ignored: down"));
                } else if self.hosts[h].coord.pending_epoch().is_some() {
                    self.note(format!("t={now} fault swap h{host} ignored: in flight"));
                } else {
                    self.initiate_swap(h, target)?;
                }
            }
            FaultAction::Hold { host, value } => {
                self.hosts[usize::from(host)].holding = value;
                self.note(format!("t={now} fault hold h{host} {value}"));
            }
        }
        Ok(())
    }

    /// Starts a two-phase swap with `host` as coordinator.
    fn initiate_swap(&mut self, host: usize, target: ServiceConfig) -> Result<(), FedError> {
        let now = self.now;
        let ack_timeout_ns = self.ack_timeout_ns();
        let m = self.hosts.len() as u64;
        let h = &mut self.hosts[host];
        let local = h.local_ns(now);
        // Every peer is a required voter — crashed or partitioned peers
        // abort the swap by silence, exactly like the threaded runtime's
        // registered remote voters.
        let remote: HashSet<u64> = (0..m).filter(|id| *id != h.wire_id).collect();
        let (prepare, resolution) =
            h.coord.begin(target, h.services, 0, remote, local, ack_timeout_ns)?;
        h.record = self.epochs.len();
        self.epochs.push(EpochRecord {
            host: host as u16,
            coordinator: prepare.coordinator,
            epoch: prepare.epoch,
            target: target.label(),
            outcome: None,
        });
        self.note(format!(
            "t={now} local={local} h{host} swap e={} prepare target={}",
            prepare.epoch,
            target.label()
        ));
        self.broadcast(host, &prepare);
        match resolution {
            // A one-host federation has an empty quorum: commit immediately.
            Some(resolution) => self.finish_swap(host, resolution),
            None => {
                self.aim_ack_deadline(host);
                Ok(())
            }
        }
    }

    fn crash(&mut self, host: usize) {
        let now = self.now;
        let h = &mut self.hosts[host];
        if !h.up {
            return;
        }
        h.up = false;
        h.crashes += 1;
        h.lost_on_crash += h.in_flight;
        h.in_flight = 0;
        h.member = MemberSm::new();
        h.holding = false;
        for free in &mut h.proc_free {
            *free = now;
        }
        match h.coord.abandon() {
            Some((epoch, deferred)) => {
                h.deferred_dropped += deferred.len() as u64;
                self.epochs[h.record].outcome = Some(EpochOutcome::CoordinatorCrashed);
                self.note(format!("t={now} fault crash h{host} (coordinating e={epoch})"));
            }
            None => self.note(format!("t={now} fault crash h{host}")),
        }
    }

    fn restart(&mut self, host: usize) -> Result<(), FedError> {
        let now = self.now;
        let h = &mut self.hosts[host];
        if h.up {
            return Ok(());
        }
        h.up = true;
        h.incarnation += 1;
        // Rejoin under the last committed configuration with an empty
        // ledger — the crashed process's admissions are gone.
        h.ac = AdmissionController::new(h.services, h.processors)?;
        self.note(format!("t={now} fault restart h{host}"));
        Ok(())
    }

    fn set_link(&mut self, a: usize, b: usize, up: bool) {
        let m = self.hosts.len();
        self.links[a * m + b].up = up;
        self.links[b * m + a].up = up;
    }

    /// After a skew/drift injection, wake the host's clock-driven timers
    /// so they re-aim at the new local→global mapping.
    fn reaim_timers(&mut self, host: usize) {
        let now = self.now;
        if let Some(f) = self.hosts[host].member.fence() {
            self.schedule(
                now + 1,
                FedEv::FenceCheck { host, coordinator: f.coordinator, epoch: f.epoch },
            );
        }
        if let Some(epoch) = self.hosts[host].coord.pending_epoch() {
            self.schedule(now + 1, FedEv::AckDeadline { host, epoch });
        }
    }

    /// Heals every link, restarts every crashed host, releases holds.
    fn heal_all(&mut self) {
        for link in &mut self.links {
            link.up = true;
            link.config.loss_permille = 0;
            link.config.reorder_permille = 0;
        }
        for i in 0..self.hosts.len() {
            self.hosts[i].holding = false;
            let _ = self.restart(i);
        }
    }

    fn expire_all_fences(&mut self) {
        let now = self.now;
        let fence_timeout_ns = self.fence_timeout_ns();
        for h in &mut self.hosts {
            let local = h.local_ns(now);
            h.member.expire_fence(local, fence_timeout_ns);
        }
    }
}

/// The deterministic coordinator identity of a host's manager.
#[must_use]
pub fn coordinator_id(host: usize) -> u64 {
    ((host as u64) + 1) << 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_core::time::Duration;
    use rtcm_workload::{ArrivalConfig, RandomWorkload};

    fn small_spec(seed: u64) -> FedHostSpec {
        let tasks =
            RandomWorkload { periodic_tasks: 2, aperiodic_tasks: 2, ..RandomWorkload::default() }
                .generate(seed)
                .unwrap();
        let config = ArrivalConfig { horizon: Duration::from_secs(2), ..ArrivalConfig::default() };
        let arrivals = ArrivalTrace::generate(&tasks, &config, seed);
        FedHostSpec { services: "J_J_J".parse().unwrap(), tasks, arrivals }
    }

    fn quad(schedule: &FaultSchedule, opts: FedOptions) -> FedReport {
        let specs: Vec<_> = (0..4).map(|i| small_spec(100 + i)).collect();
        Federation::new(specs, schedule, opts).unwrap().run().unwrap()
    }

    #[test]
    fn fair_weather_swap_commits_on_every_host() {
        let mut schedule = FaultSchedule::new();
        schedule.push(50, FaultAction::Swap { host: 1, target: "J_T_T".into() });
        let report = quad(&schedule, FedOptions::default());
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].outcome, Some(EpochOutcome::Committed));
        for h in &report.hosts {
            assert_eq!(h.final_config, "J_T_T", "host {} missed the commit", h.host);
            assert_eq!(h.applied.len(), 1);
        }
        // Loss-freedom on a fair-weather run: everything admitted ran.
        for h in &report.hosts {
            assert_eq!(h.admitted, h.completed + h.in_flight_at_end);
            assert_eq!(h.lost_on_crash, 0);
        }
    }

    #[test]
    fn partitioned_voter_aborts_the_swap_by_silence() {
        let mut schedule = FaultSchedule::new();
        schedule.push(10, FaultAction::Partition { a: 0, b: 3 });
        schedule.push(50, FaultAction::Swap { host: 0, target: "J_T_T".into() });
        let report = quad(&schedule, FedOptions::default());
        assert_eq!(
            report.epochs[0].outcome,
            Some(EpochOutcome::Aborted(ReconfigAbortReason::AckTimeout))
        );
        // Nobody applied the aborted target.
        for h in &report.hosts {
            assert_eq!(h.final_config, "J_J_J");
            assert!(h.applied.is_empty());
        }
    }

    #[test]
    fn crashed_coordinator_leaves_members_to_expire_their_fences() {
        let mut schedule = FaultSchedule::new();
        // Crash at the prepare instant itself, before the ~200 µs ack
        // round-trip can satisfy the quorum.
        schedule.crash_during_prepare(2, 2, "T_T_T", 50, 0, 40);
        let report = quad(&schedule, FedOptions::default());
        assert_eq!(report.epochs[0].outcome, Some(EpochOutcome::CoordinatorCrashed));
        for h in &report.hosts {
            assert_eq!(h.final_config, "J_J_J");
        }
        assert!(
            report.trace.iter().any(|l| l.contains("fence expired")),
            "members must self-release: {:#?}",
            report.trace
        );
    }

    #[test]
    fn converge_epilogue_reunifies_a_partitioned_federation() {
        let mut schedule = FaultSchedule::new();
        schedule.push(10, FaultAction::Partition { a: 0, b: 1 });
        schedule.push(20, FaultAction::Crash { host: 3 });
        schedule.push(50, FaultAction::Swap { host: 0, target: "J_T_T".into() });
        let opts =
            FedOptions { converge_target: Some("T_T_T".parse().unwrap()), ..FedOptions::default() };
        let report = quad(&schedule, opts);
        assert_eq!(report.converged.as_deref(), Some("T_T_T"));
        for h in &report.hosts {
            assert_eq!(h.final_config, "T_T_T");
        }
    }

    #[test]
    fn same_seed_reproduces_the_trace_byte_for_byte() {
        let mut schedule = FaultSchedule::new();
        schedule.push(10, FaultAction::Partition { a: 1, b: 2 });
        schedule.push(30, FaultAction::Swap { host: 2, target: "J_T_T".into() });
        schedule.push(40, FaultAction::SkewClock { host: 1, skew_us: 7_000 });
        schedule.push(60, FaultAction::Heal { a: 1, b: 2 });
        schedule.push(90, FaultAction::Swap { host: 0, target: "T_T_T".into() });
        let opts = FedOptions { seed: 42, ..FedOptions::default() };
        let a = quad(&schedule, opts.clone());
        let b = quad(&schedule, opts);
        assert_eq!(a.trace.join("\n"), b.trace.join("\n"));
        assert_eq!(a.events, b.events);
        assert_eq!(a.msgs_sent, b.msgs_sent);
    }

    #[test]
    fn skewed_member_expires_fences_on_its_own_clock() {
        // Host 1's clock jumps far forward right after it fences: its
        // fence (raised pre-skew) is instantly past its local deadline.
        let mut schedule = FaultSchedule::new();
        schedule.push(10, FaultAction::Partition { a: 0, b: 2 });
        schedule.push(10, FaultAction::Partition { a: 0, b: 3 });
        schedule.push(20, FaultAction::Swap { host: 0, target: "J_T_T".into() });
        schedule.push(25, FaultAction::SkewClock { host: 1, skew_us: 500_000 });
        let report = quad(&schedule, FedOptions::default());
        let expired_at = report
            .trace
            .iter()
            .find(|l| l.contains("h1 fence expired"))
            .unwrap_or_else(|| panic!("no early fence expiry in {:#?}", report.trace));
        // The expiry happened just after the skew instant (25 ms), far
        // before the nominal 60 ms fence timeout past the prepare.
        let t: u64 = expired_at
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("t=").and_then(|v| v.parse().ok()))
            .unwrap();
        assert!(t < 40_000_000, "fence expired at {t}ns, not driven by the skewed clock");
    }
}
