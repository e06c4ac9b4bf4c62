//! The end-to-end middleware simulation: task effectors, the central task
//! manager (admission control + load balancing), idle resetters and
//! prioritized subtask execution, all in virtual time.
//!
//! The event flow mirrors the paper's Figure 7:
//!
//! 1. a job arrives at the task effector (TE) of its first subtask's
//!    primary processor; the TE holds it and pushes a "Task Arrive" event
//!    to the task manager (op 1 + comm delay, op 2);
//! 2. the manager — a single FIFO server — runs the load balancer (op 3)
//!    and the admission test (op 4), then pushes "Accept" to the releasing
//!    TE (comm delay), which releases the first subjob (op 5/6);
//! 3. subjobs execute under preemptive EDMS priorities; completions trigger
//!    the next stage (comm delay when crossing processors);
//! 4. when a processor idles, its idle resetter reports completed subjobs
//!    (op 7 + comm delay) and the manager removes their contributions
//!    (op 8).
//!
//! Task effectors honor the per-task strategy: once a periodic task is
//! admitted under AC-per-task (and load balancing is not per-job), later
//! jobs release locally without any manager round-trip — and once rejected,
//! later jobs are dropped locally.
//!
//! Each processor is one `rtcm_core::node::NodeCore`, as in the runtime;
//! it idles at the completion that empties its dispatcher, where a runtime
//! node idles after draining its mailbox (DESIGN.md "One node step").

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rtcm_core::admission::{
    AcStats, AdmissionController, AdmissionError, Decision, SENTINEL_SEQ_FLOOR,
};
use rtcm_core::balance::Assignment;
use rtcm_core::govern::{Governor, GovernorPolicy, PolicyError, WindowMetrics};
use rtcm_core::metrics::{DelayStats, SkipTracker, UtilizationRatio};
use rtcm_core::node::{Done, Local, NodeCore, Subjob};
use rtcm_core::priority::{edms_levels, Priority};
use rtcm_core::reconfig::{HandoverReport, ModeChange, ModeSchedule};
use rtcm_core::reset::IdleResetReport;
use rtcm_core::strategy::{InvalidConfigError, ServiceConfig};
use rtcm_core::task::{JobId, ProcessorId, TaskId, TaskSet, TaskSpec};
use rtcm_core::time::{Duration, Time};
use rtcm_rt::stats::RtMetrics;
use rtcm_workload::{Arrival, ArrivalTrace};

use crate::overhead::OverheadModel;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The middleware strategy combination under test.
    pub services: ServiceConfig,
    /// Where virtual time goes besides subtask execution.
    pub overheads: OverheadModel,
    /// Seed for overhead jitter (workload randomness lives in the trace).
    pub seed: u64,
}

impl SimConfig {
    /// A configuration with paper-calibrated overheads.
    #[must_use]
    pub fn new(services: ServiceConfig) -> Self {
        SimConfig { services, overheads: OverheadModel::paper_calibrated(), seed: 0 }
    }

    /// A configuration with all overheads at zero (AUB's idealized world).
    #[must_use]
    pub fn ideal(services: ServiceConfig) -> Self {
        SimConfig { services, overheads: OverheadModel::zero(), seed: 0 }
    }
}

/// Everything measured by one simulation run. The first six rows are read
/// off the run's [`SimRun::telemetry`]; only the simulator measures the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The paper's accepted utilization ratio.
    pub ratio: UtilizationRatio,
    /// Jobs that finished their last subtask.
    pub jobs_completed: u64,
    /// Completed jobs that finished after their end-to-end deadline.
    pub deadline_misses: u64,
    /// End-to-end response times of completed jobs.
    pub response: DelayStats,
    /// Accepted jobs whose placement differed from the primary placement.
    pub reallocations: u64,
    /// Idle-reset reports received by the manager.
    pub ir_reports: u64,
    /// Admission-controller counters.
    pub ac: AcStats,
    /// Largest backlog observed in the manager's FIFO queue.
    pub max_manager_queue: usize,
    /// Per-processor busy time.
    pub cpu_busy: Vec<Duration>,
    /// Longest run of consecutively skipped jobs per task (tasks that never
    /// skipped are omitted) — how much C1 tolerance the configuration
    /// actually demanded.
    pub skip_runs: Vec<(TaskId, u32)>,
    /// Longest skip run across all tasks.
    pub max_consecutive_skips: u32,
    /// One ledger-handover report per executed mode switch — scheduled
    /// ([`SimOptions::schedule`]) or governor-decided — in execution order
    /// (empty for static runs). The governor's own counts live in its
    /// [`GovernorTrace`].
    pub mode_changes: Vec<HandoverReport>,
    /// Virtual time when the last event fired.
    pub end: Time,
}

/// Errors preventing a simulation from starting or finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The strategy combination, or a [`SimOptions::schedule`] target, is
    /// one of the 3 invalid ones.
    InvalidConfig(InvalidConfigError),
    /// The trace references a task missing from the set.
    UnknownTask {
        /// The offending task id.
        task: TaskId,
    },
    /// The [`SimOptions::governor`] policy is unusable (invalid rule
    /// target, zero hysteresis, non-finite threshold).
    InvalidPolicy(PolicyError),
    /// The trace offers a job the admission controller refuses to test: a
    /// sequence number in the controller-owned sentinel range (checked
    /// before the run starts), or a `(task, seq)` offered again while its
    /// first copy is still current (ends the run at that decision).
    InvalidArrival(AdmissionError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => write!(f, "{e}"),
            SimError::UnknownTask { task } => {
                write!(f, "arrival trace references unknown task {task}")
            }
            SimError::InvalidPolicy(e) => write!(f, "invalid governor policy: {e}"),
            SimError::InvalidArrival(e) => write!(f, "invalid arrival trace: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<InvalidConfigError> for SimError {
    fn from(e: InvalidConfigError) -> Self {
        SimError::InvalidConfig(e)
    }
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    ManagerRecv(ManagerReq),
    ManagerDone,
    /// A governor sensing window closes: difference the cumulative
    /// counters, evaluate the policy, possibly reconfigure. Ticks chain
    /// themselves while the trace horizon lasts.
    GovernorTick,
    /// A stage lands on the processor its placement names; stage 0 is the
    /// job's release.
    Release(Stage),
    CpuComplete {
        proc: usize,
        gen: u64,
    },
    /// A scheduled mode change fires: reconfigure the manager's admission
    /// controller (ledger handover included) and every node's local
    /// strategy state. Ties with same-instant arrivals resolve switch
    /// first, so the new mode governs the arrival.
    ModeSwitch(usize),
}

#[derive(Debug)]
enum ManagerReq {
    /// The trace's `arrival`-th job, of the task at position `task`.
    TaskArrive {
        arrival: usize,
        task: usize,
    },
    IdleReset(IdleResetReport),
}

/// The pending events, fired in `(time, seq)` order, `seq` counting
/// scheduling calls: same-instant events fire in the order they were
/// scheduled. A run holds a handful at a time, so they sit in a vector
/// sorted by `(time, seq)` descending and the next one pops off the back.
/// `seq` only grows, so a new event belongs right after the last event due
/// later than it — ahead of every same-instant one. Most events are due
/// soon, so that position is found scanning from the back.
struct EventQueue<E> {
    events: Vec<(Time, u64, E)>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue { events: Vec::new(), next_seq: 0 }
    }

    fn push(&mut self, time: Time, ev: E) {
        let at = self.events.iter().rposition(|&(t, ..)| t > time).map_or(0, |i| i + 1);
        self.events.insert(at, (time, self.next_seq, ev));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.events.pop().map(|(time, _, ev)| (time, ev))
    }

    fn clear(&mut self) {
        self.events.clear();
    }
}

/// What a stage carries besides its [`Subjob`] fields: the job's placement,
/// and the index of its arrival in the trace — and of its [`JobRecord`].
type Stage = Subjob<(Assignment, usize)>;

/// Per-job outcome, for experiments that need finer grain than the
/// aggregate report (e.g. in-burst acceptance ratios).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Arrival at its task effector.
    pub arrival: Time,
    /// True if the job was released (admitted).
    pub released: bool,
    /// Completion instant of the last subtask, if it completed.
    pub completed: Option<Time>,
    /// True if it completed after its end-to-end deadline.
    pub missed: bool,
    /// Utilization weight `Σ C/D` (the accepted-ratio metric's unit).
    pub utilization: f64,
}

/// Runs one simulation of `trace` over `tasks` under `config`: the plain
/// run, [`simulate_with`] under [`SimOptions::default`].
///
/// # Errors
///
/// As [`simulate_with`].
pub fn simulate(
    tasks: &TaskSet,
    trace: &ArrivalTrace,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_with(tasks, trace, config, &SimOptions::default()).map(|run| run.report)
}

/// What a [`simulate_with`] run does besides the plain run, and what it
/// returns besides the [`SimReport`]. The default is [`simulate`]'s plain
/// run: static configuration, no governor, nothing recorded.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Timed `ServiceConfig` changes applied mid-run (empty: a static run).
    /// At each change the manager's admission controller executes the full
    /// ledger handover (`AdmissionController::reconfigure` — reservations
    /// drained/reseeded, admitted jobs carried) and every node clears its
    /// task-effector cache and swaps its idle-resetter strategy, mirroring
    /// the runtime's two-phase commit point, so Figure-5/6-style
    /// experiments can compare static configurations against mid-run
    /// switches on identical traces. A change and an arrival at the same
    /// instant resolve switch first.
    pub schedule: ModeSchedule,
    /// A closed-loop governor: the policy senses the load every window of
    /// virtual time and reconfigures the system itself when a rule's
    /// hysteresis is satisfied, exactly as `System::spawn_governor` does on
    /// the threaded runtime: the same `rtcm_core::govern` state machine,
    /// fed by the same call (`RtMetrics::sense`: the registry's counters,
    /// prune, ledger gauges, counter deltas, the window booked) on the
    /// thread that admits jobs, so a policy tuned here transfers verbatim.
    /// A window costs O(1): counter deltas plus the ledger's maintained
    /// per-processor totals, never a rescan of jobs or contributions.
    pub governor: Option<(GovernorPolicy, Duration)>,
    /// Return one [`JobRecord`] per trace arrival, in arrival order.
    pub record_jobs: bool,
    /// Return the execution trace: every start/preempt/finish segment on
    /// every processor, for Gantt rendering and schedule inspection.
    pub trace_execution: bool,
}

/// Everything one [`simulate_with`] run produced. Each `Option` is `Some`
/// exactly when its [`SimOptions`] switch asked for it.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The aggregate measurements, as [`simulate`] returns them.
    pub report: SimReport,
    /// The registry the run booked, as a runtime `System` books its
    /// `System::telemetry` (one `reconfig_swaps` per executed mode switch);
    /// `render_exposition` renders it as the runtime's `/metrics` page. The
    /// op 1–8 rows and `reconfig_deferred` stay 0: switches are instantaneous.
    pub telemetry: Arc<RtMetrics>,
    /// One record per trace arrival ([`SimOptions::record_jobs`]).
    pub records: Option<Vec<JobRecord>>,
    /// The governor's windows and switches ([`SimOptions::governor`]).
    pub governor: Option<GovernorTrace>,
    /// Execution segments ordered by start ([`SimOptions::trace_execution`]).
    pub spans: Option<Vec<ExecSpan>>,
}

/// Runs one simulation of `trace` over `tasks` under `config`, shaped by
/// `options`: a mode schedule, a governor, per-job records, an execution
/// trace, in any combination. Only a switch that fires changes a
/// decision: an empty schedule, an inert governor and every recorder leave
/// the report [`simulate`] returns untouched (a governor's tail sensing
/// tick may extend [`SimReport::end`]). The [crate-level example](crate#examples)
/// runs a mode schedule with per-job records.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an invalid strategy combination in
/// `config` or the schedule, [`SimError::UnknownTask`] for a trace naming
/// a task outside `tasks`, [`SimError::InvalidPolicy`] for an unusable
/// governor policy — all checked before the run starts — and
/// [`SimError::InvalidArrival`] for a trace offering a job the admission
/// controller refuses to test.
///
/// # Panics
///
/// Panics if the governor window is zero.
pub fn simulate_with(
    tasks: &TaskSet,
    trace: &ArrivalTrace,
    config: &SimConfig,
    options: &SimOptions,
) -> Result<SimRun, SimError> {
    Simulation::new(tasks, trace, config, options)?.run()
}

/// One governor-decided mode switch of a governed simulation, with full
/// provenance: when, which rule, and what the ledger handover did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GovernedSwitch {
    /// Virtual instant of the switch.
    pub at: Time,
    /// Sensing window ordinal (1-based) in which the rule fired.
    pub window: u64,
    /// Name of the rule that fired.
    pub rule: String,
    /// Configuration left behind.
    pub from: ServiceConfig,
    /// Configuration entered.
    pub to: ServiceConfig,
    /// The admission-state handover executed at the switch.
    pub handover: HandoverReport,
}

/// Everything a governed run's sensing loop observed: one metrics row per
/// window plus every switch decision — the raw material for tuning
/// policies offline before they govern a live system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GovernorTrace {
    /// `(window end, metrics)` per closed sensing window.
    pub windows: Vec<(Time, WindowMetrics)>,
    /// Governor-decided switches, in execution order.
    pub switches: Vec<GovernedSwitch>,
}

/// One contiguous stretch of a subjob executing on a processor —
/// Gantt-chart material from [`SimOptions::trace_execution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecSpan {
    /// The processor.
    pub processor: u16,
    /// The executing job.
    pub job: JobId,
    /// The stage index.
    pub subtask: usize,
    /// Segment start.
    pub start: Time,
    /// Segment end (preemption or completion).
    pub end: Time,
    /// True if this segment finished the subjob; false if it was preempted.
    pub completed: bool,
}

struct Simulation<'a> {
    tasks: &'a TaskSet,
    trace: &'a ArrivalTrace,
    overheads: OverheadModel,
    /// EDMS levels, by task position — as verdicts and `skips` are.
    priorities: Vec<Priority>,
    /// `TaskSpec::job_utilization`, by task position: the weight every
    /// arrival and release records, summed once per task, not per job.
    job_utilizations: Vec<f64>,
    ac: AdmissionController,
    /// One per processor. A task's verdicts live on its arrival
    /// processor's node.
    nodes: Vec<NodeCore<Assignment, (Assignment, usize)>>,
    manager_current: Option<ManagerReq>,
    manager_queue: VecDeque<ManagerReq>,
    events: EventQueue<Ev>,
    now: Time,
    rng: StdRng,
    /// The shared rows, booked as the runtime books them.
    telemetry: Arc<RtMetrics>,
    max_manager_queue: usize,
    mode_changes: Vec<HandoverReport>,
    /// One record per arrival so far, in trace order.
    records: Option<Vec<JobRecord>>,
    skips: SkipTracker,
    /// Timed mode changes to apply (empty for static runs).
    schedule: &'a [ModeChange],
    /// Closed-loop governor state (None for ungoverned runs).
    gov: Option<GovState>,
    /// True if the nodes log spans for [`SimRun::spans`].
    tracing: bool,
    /// The admission error that ended the run early, if one did.
    failed: Option<AdmissionError>,
}

/// Everything a governed run threads through its sensing ticks.
struct GovState {
    governor: Governor,
    window: Duration,
    /// Last instant a tick may fire (one window past the final arrival, so
    /// the tail window is still sensed).
    horizon: Time,
    trace: GovernorTrace,
}

impl<'a> Simulation<'a> {
    /// Validates everything a run can be refused for up front and arms the
    /// options' observers. Panics on a zero governor window (a zero-width
    /// sensing window would tick forever at one instant).
    fn new(
        tasks: &'a TaskSet,
        trace: &'a ArrivalTrace,
        config: &SimConfig,
        options: &'a SimOptions,
    ) -> Result<Self, SimError> {
        options.schedule.validate()?;
        for arrival in trace.iter() {
            if tasks.get(arrival.task).is_none() {
                return Err(SimError::UnknownTask { task: arrival.task });
            }
            if arrival.seq >= SENTINEL_SEQ_FLOOR {
                let job = JobId::new(arrival.task, arrival.seq);
                return Err(SimError::InvalidArrival(AdmissionError::SentinelSequence { job }));
            }
        }
        let procs = tasks.processor_count();
        let ac = AdmissionController::new(config.services, procs)?;
        let gov = match &options.governor {
            Some((policy, window)) => {
                assert!(!window.is_zero(), "governor window must be positive");
                let governor = Governor::new(policy.clone()).map_err(SimError::InvalidPolicy)?;
                // Sense one window past the final arrival, so the tail
                // window is still observed.
                let horizon = trace.arrivals().last().map_or(Time::ZERO, |a| a.time) + *window;
                Some(GovState {
                    governor,
                    window: *window,
                    horizon,
                    trace: GovernorTrace::default(),
                })
            }
            None => None,
        };
        let mut nodes: Vec<NodeCore<_, _>> = (0..procs)
            .map(|p| NodeCore::new(config.services, ProcessorId(p as u16), tasks.len()))
            .collect();
        for node in &mut nodes {
            node.set_tracing(options.trace_execution);
        }
        Ok(Simulation {
            tasks,
            trace,
            overheads: config.overheads,
            priorities: edms_levels(tasks),
            job_utilizations: tasks.iter().map(TaskSpec::job_utilization).collect(),
            ac,
            nodes,
            manager_current: None,
            manager_queue: VecDeque::new(),
            events: EventQueue::new(),
            now: Time::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            telemetry: Arc::new(RtMetrics::new()),
            max_manager_queue: 0,
            mode_changes: Vec::new(),
            records: options.record_jobs.then(Vec::new),
            skips: SkipTracker::new(tasks.len()),
            schedule: options.schedule.changes(),
            gov,
            tracing: options.trace_execution,
            failed: None,
        })
    }

    /// Enqueues every scheduled mode switch. Called before the first
    /// arrival is chained, so a switch coinciding with an arrival holds
    /// the lower sequence number and fires first (switch-before-arrival
    /// tie rule).
    fn schedule_mode_switches(&mut self) {
        for i in 0..self.schedule.len() {
            let at = self.schedule[i].at;
            self.events.push(at, Ev::ModeSwitch(i));
        }
    }

    /// The event loop, then the report and whatever the options recorded.
    fn run(mut self) -> Result<SimRun, SimError> {
        self.schedule_mode_switches();
        if let Some(gov) = &self.gov {
            // First sensing tick one window in; ticks chain themselves.
            let first = Time::ZERO + gov.window;
            if first <= gov.horizon {
                self.events.push(first, Ev::GovernorTick);
            }
        }
        if !self.trace.is_empty() {
            let t = self.trace.arrivals()[0].time;
            self.events.push(t, Ev::Arrival(0));
        }
        while let Some((time, ev)) = self.events.pop() {
            debug_assert!(time >= self.now, "virtual time must be monotone");
            self.now = time;
            self.dispatch(ev);
        }
        if let Some(e) = self.failed {
            return Err(SimError::InvalidArrival(e));
        }
        let spans = self.tracing.then(|| self.drain_spans());
        let shared = self.telemetry.snapshot();
        let report = SimReport {
            ratio: shared.ratio,
            jobs_completed: shared.jobs_completed,
            deadline_misses: shared.deadline_misses,
            response: shared.response,
            reallocations: shared.reallocations,
            ir_reports: shared.ir_reports,
            ac: self.ac.stats(),
            max_manager_queue: self.max_manager_queue,
            cpu_busy: self.nodes.iter().map(NodeCore::busy_time).collect(),
            skip_runs: self.skips.per_task(self.tasks),
            max_consecutive_skips: self.skips.worst_case(),
            mode_changes: self.mode_changes,
            end: self.now,
        };
        Ok(SimRun {
            report,
            telemetry: self.telemetry,
            records: self.records,
            governor: self.gov.map(|g| g.trace),
            spans,
        })
    }

    /// The nodes' span logs (recorded only while tracing) as execution
    /// spans, ordered by start time.
    fn drain_spans(&mut self) -> Vec<ExecSpan> {
        let mut spans = Vec::new();
        for (p, node) in self.nodes.iter_mut().enumerate() {
            spans.extend(node.drain_spans().into_iter().map(|s| ExecSpan {
                processor: p as u16,
                job: s.payload.job,
                subtask: s.payload.subtask,
                start: s.start,
                end: s.end,
                completed: s.completed,
            }));
        }
        spans.sort_by_key(|s| (s.start, s.processor));
        spans
    }

    fn record_arrival(&mut self, job: JobId, arrival: Time, utilization: f64) {
        if let Some(records) = &mut self.records {
            records.push(JobRecord {
                job,
                arrival,
                released: false,
                completed: None,
                missed: false,
                utilization,
            });
        }
    }

    /// The record of the trace's `arrival`-th job, when recording.
    fn record_of(&mut self, arrival: usize) -> Option<&mut JobRecord> {
        self.records.as_mut().map(|records| &mut records[arrival])
    }

    /// Schedules the first stage of the trace's `arrival`-th job, of the
    /// task at position `at`, placed on `assignment`, at `t`.
    fn release_job(&mut self, t: Time, arrival: usize, at: usize, assignment: Assignment) {
        let Arrival { task, seq, time } = self.trace.arrivals()[arrival];
        let stage = Subjob {
            job: JobId::new(task, seq),
            task: at,
            subtask: 0,
            arrival: time,
            deadline: time + self.tasks.tasks()[at].deadline(),
            extra: (assignment, arrival),
        };
        self.events.push(t, Ev::Release(stage));
    }

    fn comm(&mut self) -> Duration {
        Duration::from(self.overheads.comm.sample(&mut self.rng))
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(idx) => self.on_arrival(idx),
            Ev::ManagerRecv(req) => self.on_manager_recv(req),
            Ev::ManagerDone => self.on_manager_done(),
            Ev::Release(stage) => self.on_release(stage),
            Ev::CpuComplete { proc, gen } => self.on_cpu_complete(proc, gen),
            Ev::ModeSwitch(idx) => self.on_mode_switch(idx),
            Ev::GovernorTick => self.on_governor_tick(),
        }
    }

    /// Executes one scheduled mode change, mirroring the runtime's commit
    /// point: ledger handover at the manager, commit at every node.
    fn on_mode_switch(&mut self, idx: usize) {
        let target = self.schedule[idx].services;
        self.apply_switch(target);
    }

    /// The commit point shared by scheduled and governed switches.
    fn apply_switch(&mut self, target: ServiceConfig) -> HandoverReport {
        let handover = self
            .ac
            .reconfigure(target, self.now, self.tasks)
            .expect("switch targets are validated before the run starts");
        for node in &mut self.nodes {
            node.commit(target);
        }
        self.telemetry.reconfig_swaps.inc();
        self.mode_changes.push(handover);
        handover
    }

    /// Closes one governor sensing window through `RtMetrics::sense` (the
    /// boundary prune, the ledger gauges, O(1) counter deltas, the window's
    /// rows booked), a pure policy evaluation, and — if a rule fired — the
    /// same commit point a scheduled switch takes.
    fn on_governor_tick(&mut self) {
        let Some(mut gov) = self.gov.take() else { return };
        let metrics = self.telemetry.sense(&mut gov.governor, &mut self.ac, self.now);
        gov.trace.windows.push((self.now, metrics));
        let from = self.ac.config();
        if let Some(decision) = gov.governor.observe(from, &metrics) {
            let handover = self.apply_switch(decision.target);
            self.telemetry.governor_swaps.inc();
            gov.trace.switches.push(GovernedSwitch {
                at: self.now,
                window: decision.window,
                rule: decision.rule_name,
                from,
                to: decision.target,
                handover,
            });
        }
        let next = self.now + gov.window;
        if next <= gov.horizon {
            self.events.push(next, Ev::GovernorTick);
        }
        self.gov = Some(gov);
    }

    fn on_arrival(&mut self, idx: usize) {
        // Chain the next trace arrival to keep the event queue small.
        if idx + 1 < self.trace.len() {
            let next = self.trace.arrivals()[idx + 1];
            self.events.push(next.time, Ev::Arrival(idx + 1));
        }
        let arrival = self.trace.arrivals()[idx];
        // The one lookup by id a job pays: everything downstream names the
        // task by its position in the set.
        let at = self.tasks.position(arrival.task).expect("validated in new()");
        let task = &self.tasks.tasks()[at];
        let utilization = self.job_utilizations[at];
        self.telemetry.arrived_utilization.add(utilization);
        self.telemetry.arrived_jobs.inc();
        self.record_arrival(JobId::new(arrival.task, arrival.seq), arrival.time, utilization);

        // The TE's per-task fast path: release or drop locally when the
        // periodic task's fate is already known and no per-job relocation is
        // configured.
        let arrival_proc = task.subtasks()[0].primary;
        match self.nodes[arrival_proc.index()].arrive(at, task) {
            Local::Release(assignment) => {
                let assignment = assignment.clone();
                self.skips.record(at, true);
                let mut t = self.now + self.overheads.te_release;
                if assignment.processor(0) != arrival_proc {
                    t += self.comm();
                }
                self.release_job(t, idx, at, assignment);
                return;
            }
            Local::Drop => {
                self.skips.record(at, false);
                return;
            }
            Local::AskManager => {}
        }

        let t = self.now + self.overheads.te_hold + self.comm();
        self.events.push(t, Ev::ManagerRecv(ManagerReq::TaskArrive { arrival: idx, task: at }));
    }

    fn manager_service_time(&self, req: &ManagerReq) -> Duration {
        match req {
            ManagerReq::TaskArrive { .. } => {
                let lb = if self.ac.config().lb.is_enabled() {
                    self.overheads.lb_plan
                } else {
                    Duration::ZERO
                };
                self.overheads.ac_test + lb
            }
            ManagerReq::IdleReset(_) => self.overheads.ir_update,
        }
    }

    fn on_manager_recv(&mut self, req: ManagerReq) {
        if self.manager_current.is_none() {
            let svc = self.manager_service_time(&req);
            self.manager_current = Some(req);
            self.events.push(self.now + svc, Ev::ManagerDone);
        } else {
            self.manager_queue.push_back(req);
            self.max_manager_queue = self.max_manager_queue.max(self.manager_queue.len());
        }
    }

    fn on_manager_done(&mut self) {
        let req = self.manager_current.take().expect("ManagerDone with no request in service");
        match req {
            ManagerReq::TaskArrive { arrival, task } => {
                if let Err(e) = self.decide(arrival, task) {
                    // A duplicate job: stop here, and let `run` report it.
                    self.failed = Some(e);
                    self.events.clear();
                    return;
                }
            }
            ManagerReq::IdleReset(report) => {
                self.ac.apply_idle_reset(report.processor, &report.completed);
                self.telemetry.ir_reports.inc();
            }
        }
        if let Some(next) = self.manager_queue.pop_front() {
            let svc = self.manager_service_time(&next);
            self.manager_current = Some(next);
            self.events.push(self.now + svc, Ev::ManagerDone);
        }
    }

    /// Runs the admission test for the trace's `arrival`-th job; the
    /// arrival node learns the verdict now, not when the release lands.
    /// The only error left after `new`'s validation is a duplicate job.
    fn decide(&mut self, arrival: usize, at: usize) -> Result<(), AdmissionError> {
        let task = &self.tasks.tasks()[at];
        let node = task.subtasks()[0].primary.index();
        let Arrival { seq, time: te_arrival, .. } = self.trace.arrivals()[arrival];
        // Decided at manager time, against the job's true (arrival-based)
        // deadline.
        match self.ac.handle_arrival_with(task, seq, te_arrival, self.now, |locate| locate())? {
            Decision::Accept { assignment, .. } => {
                self.skips.record(at, true);
                if assignment.is_reallocation(task) {
                    self.telemetry.reallocations.inc();
                }
                self.nodes[node].accepted(at, task, &assignment);
                let t = self.now + self.comm() + self.overheads.te_release;
                self.release_job(t, arrival, at, assignment);
            }
            Decision::Reject { .. } => {
                self.skips.record(at, false);
                if self.ac.config().decides_per_task(task) {
                    self.nodes[node].task_rejected(at);
                }
            }
        }
        Ok(())
    }

    fn on_release(&mut self, stage: Stage) {
        let at = stage.task;
        if stage.subtask == 0 {
            self.telemetry.released_utilization.add(self.job_utilizations[at]);
            self.telemetry.released_jobs.inc();
            if let Some(record) = self.record_of(stage.extra.1) {
                record.released = true;
            }
        }
        let proc = stage.extra.0.processor(stage.subtask).index();
        let exec = self.tasks.tasks()[at].subtasks()[stage.subtask].execution_time;
        let started = self.nodes[proc].release(self.now, self.priorities[at], exec, stage);
        if let Some(started) = started {
            self.events.push(started.completes_at, Ev::CpuComplete { proc, gen: started.gen });
        }
    }

    fn on_cpu_complete(&mut self, proc: usize, gen: u64) {
        let Some((done, next)) = self.nodes[proc].complete(self.now, gen, self.tasks) else {
            return;
        };
        if let Some(started) = next {
            self.events.push(started.completes_at, Ev::CpuComplete { proc, gen: started.gen });
        }
        match done {
            Done::Job { stage, response, missed } => {
                self.telemetry.response.record(response.as_nanos());
                self.telemetry.jobs_completed.inc();
                if missed {
                    self.telemetry.deadline_misses.inc();
                }
                let completed = self.now;
                if let Some(record) = self.record_of(stage.extra.1) {
                    record.completed = Some(completed);
                    record.missed = missed;
                }
            }
            Done::Next(stage) => {
                let next_proc = stage.extra.0.processor(stage.subtask).index();
                let delay = if next_proc == proc { Duration::ZERO } else { self.comm() };
                self.events.push(self.now + delay, Ev::Release(stage));
            }
        }
        // The simulator declares idleness at the completion that emptied
        // the dispatcher.
        if let Some(report) = self.nodes[proc].idle(self.now) {
            let t = self.now + self.overheads.ir_report + self.comm();
            self.events.push(t, Ev::ManagerRecv(ManagerReq::IdleReset(report)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rtcm_core::task::{ProcessorId, TaskBuilder};
    use rtcm_workload::{ArrivalConfig, Phasing};

    fn one_task_set() -> TaskSet {
        let t = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
            .build()
            .unwrap();
        TaskSet::from_tasks([t]).unwrap()
    }

    fn trace_for(tasks: &TaskSet, horizon_ms: u64) -> ArrivalTrace {
        ArrivalTrace::generate(
            tasks,
            &ArrivalConfig {
                horizon: Duration::from_millis(horizon_ms),
                poisson_factor: 2.0,
                phasing: Phasing::Simultaneous,
            },
            1,
        )
    }

    fn recorded() -> SimOptions {
        SimOptions { record_jobs: true, ..SimOptions::default() }
    }

    fn scheduled(schedule: ModeSchedule) -> SimOptions {
        SimOptions { schedule, ..SimOptions::default() }
    }

    fn governed(policy: GovernorPolicy, window: Duration) -> SimOptions {
        SimOptions { governor: Some((policy, window)), ..SimOptions::default() }
    }

    #[test]
    fn single_periodic_task_all_jobs_released() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        let cfg = SimConfig::ideal("T_N_N".parse().unwrap());
        let report = simulate(&tasks, &trace, &cfg).unwrap();
        assert_eq!(report.ratio.ratio(), 1.0);
        assert_eq!(report.jobs_completed, 10);
        assert_eq!(report.deadline_misses, 0);
        // 10 jobs × 10 ms on P0.
        assert_eq!(report.cpu_busy[0], Duration::from_millis(100));
    }

    #[test]
    fn per_task_uses_one_admission_test() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        let cfg = SimConfig::ideal("T_N_N".parse().unwrap());
        let report = simulate(&tasks, &trace, &cfg).unwrap();
        assert_eq!(report.ac.tested, 1, "only the first job is tested");
        assert_eq!(report.ac.admitted, 1);
    }

    #[test]
    fn per_job_tests_every_job() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let report = simulate(&tasks, &trace, &cfg).unwrap();
        assert_eq!(report.ac.tested, 10);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 100);
        let cfg = SimConfig::ideal("T_J_N".parse().unwrap());
        assert!(matches!(simulate(&tasks, &trace, &cfg), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn unknown_task_in_trace_is_rejected() {
        let tasks = one_task_set();
        let other = {
            let t = TaskBuilder::periodic(TaskId(9), Duration::from_millis(100))
                .subtask(Duration::from_millis(1), ProcessorId(0), [])
                .build()
                .unwrap();
            TaskSet::from_tasks([t]).unwrap()
        };
        let trace = trace_for(&other, 200);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        assert_eq!(
            simulate(&tasks, &trace, &cfg).unwrap_err(),
            SimError::UnknownTask { task: TaskId(9) }
        );
    }

    #[test]
    fn sentinel_sequence_in_trace_is_rejected() {
        let tasks = one_task_set();
        let seq = SENTINEL_SEQ_FLOOR;
        let trace =
            ArrivalTrace::from_arrivals(vec![Arrival { time: Time::ZERO, task: TaskId(0), seq }]);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let job = JobId::new(TaskId(0), seq);
        assert_eq!(
            simulate(&tasks, &trace, &cfg).unwrap_err(),
            SimError::InvalidArrival(AdmissionError::SentinelSequence { job })
        );
    }

    #[test]
    fn duplicate_arrival_in_trace_is_rejected() {
        // The same job offered again 10 ms later, while its first copy is
        // still current (100 ms deadline, no idle resetting).
        let tasks = one_task_set();
        let at =
            |ms| Arrival { time: Time::ZERO + Duration::from_millis(ms), task: TaskId(0), seq: 0 };
        let trace = ArrivalTrace::from_arrivals(vec![at(0), at(10)]);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let job = JobId::new(TaskId(0), 0);
        assert_eq!(
            simulate(&tasks, &trace, &cfg).unwrap_err(),
            SimError::InvalidArrival(AdmissionError::DuplicateArrival { job })
        );
    }

    #[test]
    fn overloaded_processor_skips_jobs_per_job_ac() {
        // Two identical heavy tasks on one processor: each alone passes
        // (f(0.45) < 1) but together f(0.9) > 1, so one is locked out.
        let t0 = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let t1 = TaskBuilder::periodic(TaskId(1), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let tasks = TaskSet::from_tasks([t0, t1]).unwrap();
        let trace = trace_for(&tasks, 1_000);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let report = simulate(&tasks, &trace, &cfg).unwrap();
        assert!(report.ratio.ratio() < 1.0);
        assert!(report.ac.rejected > 0);
        assert_eq!(report.deadline_misses, 0, "admitted jobs still meet deadlines");
    }

    #[test]
    fn idle_resetting_admits_more() {
        // With period = deadline and *simultaneous* phases, deadline expiry
        // alone frees utilization exactly at each arrival and IR is a
        // no-op. Staggered phases create mid-period arrivals that only the
        // resetting rule can admit — the very effect of §4.3.
        let mk = |id: u32, proc: u16| {
            TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
                .subtask(Duration::from_millis(30), ProcessorId(proc), [])
                .build()
                .unwrap()
        };
        let tasks = TaskSet::from_tasks([mk(0, 0), mk(1, 0), mk(2, 0)]).unwrap();
        // Whether the drawn phases stagger depends on the RNG stream, so
        // no single seed is load-bearing: over several seeds IR must never
        // lose and must strictly win on some (seeds whose phases happen to
        // align make IR a no-op, which is fine).
        let mut strict_wins = 0;
        for seed in 0..8 {
            let trace = ArrivalTrace::generate(
                &tasks,
                &ArrivalConfig {
                    horizon: Duration::from_millis(2_000),
                    poisson_factor: 2.0,
                    phasing: Phasing::RandomPhase,
                },
                seed,
            );
            let no_ir =
                simulate(&tasks, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
            let with_ir =
                simulate(&tasks, &trace, &SimConfig::ideal("J_J_N".parse().unwrap())).unwrap();
            assert!(
                with_ir.ratio.ratio() >= no_ir.ratio.ratio(),
                "seed {seed}: IR per job ({}) must never admit less than no IR ({})",
                with_ir.ratio.ratio(),
                no_ir.ratio.ratio()
            );
            if with_ir.ratio.ratio() > no_ir.ratio.ratio() {
                strict_wins += 1;
            }
            assert!(with_ir.ir_reports > 0, "seed {seed}: resetters must report");
            assert_eq!(with_ir.deadline_misses, 0, "seed {seed}");
        }
        assert!(strict_wins >= 2, "IR must strictly win on staggered phases: {strict_wins}/8");
    }

    #[test]
    fn load_balancing_uses_replicas() {
        // Two heavy replicated tasks: without LB they fight over P0;
        // with LB one moves to P1.
        let mk = |id: u32| {
            TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
                .subtask(Duration::from_millis(45), ProcessorId(0), [ProcessorId(1)])
                .build()
                .unwrap()
        };
        let tasks = TaskSet::from_tasks([mk(0), mk(1)]).unwrap();
        let trace = trace_for(&tasks, 1_000);
        let no_lb = simulate(&tasks, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
        let lb = simulate(&tasks, &trace, &SimConfig::ideal("J_N_T".parse().unwrap())).unwrap();
        assert!(lb.ratio.ratio() > no_lb.ratio.ratio());
        assert!(lb.reallocations > 0);
        assert!(lb.cpu_busy[1] > Duration::ZERO, "P1 actually executed work");
    }

    #[test]
    fn job_records_match_aggregates() {
        let t0 = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let t1 = TaskBuilder::periodic(TaskId(1), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let tasks = TaskSet::from_tasks([t0, t1]).unwrap();
        let trace = trace_for(&tasks, 1_000);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let SimRun { report, records, .. } =
            simulate_with(&tasks, &trace, &cfg, &recorded()).unwrap();
        let records = records.unwrap();
        assert_eq!(records.len(), trace.len());
        let released = records.iter().filter(|r| r.released).count() as u64;
        assert_eq!(released, report.ratio.released_jobs());
        let completed = records.iter().filter(|r| r.completed.is_some()).count() as u64;
        assert_eq!(completed, report.jobs_completed);
        let missed = records.iter().filter(|r| r.missed).count() as u64;
        assert_eq!(missed, report.deadline_misses);
        // Rejected jobs never complete.
        for r in &records {
            if !r.released {
                assert!(r.completed.is_none());
            }
        }
    }

    #[test]
    fn mode_switch_changes_admission_semantics_mid_run() {
        // 10 arrivals over 1 s; switch J -> T at 450 ms: jobs before the
        // switch are tested per job, the first job after it seeds a
        // reservation (reseed covers the live entry), later jobs pass
        // through untested.
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        let schedule = ModeSchedule::new()
            .then_at(Time::ZERO + Duration::from_millis(450), "T_N_N".parse().unwrap());
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let report = simulate_with(&tasks, &trace, &cfg, &scheduled(schedule)).unwrap().report;
        assert_eq!(report.mode_changes.len(), 1);
        let handover = &report.mode_changes[0];
        assert_eq!(handover.to.label(), "T_N_N");
        assert_eq!(handover.reservations_reseeded, 1, "live periodic entry reseeded");
        // 5 per-job tests before the switch; the reseed spares all later
        // jobs a test — the first post-switch job passes through at the
        // AC (caching the TE decision), the rest release TE-locally.
        assert_eq!(report.ac.tested, 5, "tests stop at the switch");
        assert_eq!(report.ac.pass_throughs, 1);
        assert_eq!(report.jobs_completed, 10, "no job lost across the switch");
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn switch_at_an_arrival_instant_decides_that_arrival() {
        // Arrivals every 100 ms from 0; switch T -> J at exactly 500 ms. The
        // switch fires first: the reservation drains, the TE forgets the
        // task, and the 500 ms job is tested per job with the four after
        // it. Were the arrival first, the TE would release it locally under
        // the reservation and only four jobs would be tested per job.
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        assert!(trace.iter().any(|a| a.time == Time::ZERO + Duration::from_millis(500)));
        let schedule = ModeSchedule::new()
            .then_at(Time::ZERO + Duration::from_millis(500), "J_N_N".parse().unwrap());
        let cfg = SimConfig::ideal("T_N_N".parse().unwrap());
        let report = simulate_with(&tasks, &trace, &cfg, &scheduled(schedule)).unwrap().report;
        assert_eq!(report.mode_changes.len(), 1);
        assert_eq!(report.mode_changes[0].reservations_drained, 1);
        assert_eq!(report.ac.tested, 1 + 5, "the first job, then jobs 5..=9 per job");
        assert_eq!(report.jobs_completed, 10);
    }

    #[test]
    fn event_queue_pops_in_time_then_scheduling_order() {
        // Few distinct instants, so most pushes tie; pops interleave.
        let mut rng = StdRng::seed_from_u64(28);
        let mut queue = EventQueue::new();
        let mut pending: Vec<(Time, u64)> = Vec::new();
        let mut now = Time::ZERO;
        for seq in 0..5_000u64 {
            let time = now + Duration::from_nanos(rng.gen_range(0..4u64));
            queue.push(time, seq);
            pending.push((time, seq));
            while rng.gen_range(0..3u32) == 0 {
                let (i, &(time, seq)) =
                    pending.iter().enumerate().min_by_key(|&(_, key)| *key).expect("pushed");
                pending.swap_remove(i);
                assert_eq!(queue.pop(), Some((time, seq)));
                now = time;
                if pending.is_empty() {
                    break;
                }
            }
        }
        pending.sort_unstable();
        for (time, seq) in pending {
            assert_eq!(queue.pop(), Some((time, seq)));
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn empty_schedule_matches_static_run_exactly() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 2_000);
        let cfg = SimConfig::new("J_J_T".parse().unwrap());
        let static_run = simulate(&tasks, &trace, &cfg).unwrap();
        let run = simulate_with(&tasks, &trace, &cfg, &scheduled(ModeSchedule::new())).unwrap();
        assert_eq!(static_run, run.report);
        assert!(run.report.mode_changes.is_empty());
    }

    #[test]
    fn invalid_schedule_is_rejected_before_the_run() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 200);
        let schedule = ModeSchedule::new()
            .then_at(Time::ZERO + Duration::from_millis(50), "T_J_N".parse().unwrap());
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        assert!(matches!(
            simulate_with(&tasks, &trace, &cfg, &scheduled(schedule)),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn scheduled_runs_are_deterministic_and_recordable() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 2_000);
        let cfg = SimConfig::new("J_N_N".parse().unwrap());
        let schedule = ModeSchedule::new()
            .then_at(Time::ZERO + Duration::from_millis(700), "T_T_T".parse().unwrap())
            .then_at(Time::ZERO + Duration::from_millis(1_400), "J_J_J".parse().unwrap());
        let options = SimOptions { record_jobs: true, ..scheduled(schedule) };
        let SimRun { report: a, records, .. } =
            simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let b = simulate_with(&tasks, &trace, &cfg, &scheduled(options.schedule.clone()))
            .unwrap()
            .report;
        assert_eq!(a, b, "schedule runs are replayable");
        assert_eq!(a.mode_changes.len(), 2);
        let records = records.unwrap();
        assert_eq!(records.len(), trace.len());
        let released = records.iter().filter(|r| r.released).count() as u64;
        assert_eq!(released, a.ratio.released_jobs());
    }

    /// Every option that only observes — records, execution spans, an
    /// empty schedule, a governor whose rule never fires — leaves the
    /// outcome exactly as the plain run has it, and returns its extra
    /// output exactly when asked.
    #[test]
    fn observers_leave_the_outcome_alone() {
        let heavy = |id: u32| {
            TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
                .subtask(Duration::from_millis(45), ProcessorId(0), [])
                .build()
                .unwrap()
        };
        // One light task under paper overheads (jitter draws on the RNG),
        // and two heavy tasks that contend for P0 (rejections, no jitter).
        let fixtures = [
            (one_task_set(), SimConfig::new("J_J_T".parse().unwrap())),
            (
                TaskSet::from_tasks([heavy(0), heavy(1)]).unwrap(),
                SimConfig::ideal("J_N_N".parse().unwrap()),
            ),
        ];
        let rows = [
            ("records", recorded()),
            ("spans", SimOptions { trace_execution: true, ..SimOptions::default() }),
            ("empty schedule", scheduled(ModeSchedule::new())),
            ("inert governor", governed(inert_policy(), Duration::from_millis(100))),
        ];
        for (tasks, cfg) in &fixtures {
            let trace = trace_for(tasks, 2_000);
            let plain = simulate(tasks, &trace, cfg).unwrap();
            for (row, options) in &rows {
                let run = simulate_with(tasks, &trace, cfg, options).unwrap();
                assert_eq!(run.records.is_some(), options.record_jobs, "{row}");
                assert_eq!(run.spans.is_some(), options.trace_execution, "{row}");
                assert_eq!(run.governor.is_some(), options.governor.is_some(), "{row}");
                let mut report = run.report;
                if let Some(gov_trace) = &run.governor {
                    assert!(gov_trace.windows.len() > 10, "the sensing loop ran");
                    assert!(gov_trace.switches.is_empty());
                    // The tail sensing tick may extend the end instant.
                    report.end = plain.end;
                }
                assert_eq!(report, plain, "{row} changed the outcome");
            }
        }
    }

    fn inert_policy() -> GovernorPolicy {
        use rtcm_core::govern::{GovernorRule, Metric, Trigger};
        GovernorPolicy::new().rule(GovernorRule::new(
            "impossible",
            Metric::AcceptedRatio,
            Trigger::Below(-1.0),
            1,
            "T_T_T".parse().unwrap(),
        ))
    }

    #[test]
    fn governed_run_with_inert_policy_matches_plain_run() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 2_000);
        let cfg = SimConfig::new("J_J_T".parse().unwrap());
        let plain = simulate(&tasks, &trace, &cfg).unwrap();
        let run = simulate_with(
            &tasks,
            &trace,
            &cfg,
            &governed(inert_policy(), Duration::from_millis(100)),
        )
        .unwrap();
        let gov_trace = run.governor.expect("a governed run returns its trace");
        assert!(gov_trace.windows.len() > 10, "the sensing loop ran");
        assert!(gov_trace.switches.is_empty());
        assert!(run.report.mode_changes.is_empty());
        // Sensing must be a pure observer: everything except the end
        // instant, which the tail sensing tick can extend, matches the
        // ungoverned run exactly.
        let mut normalized = run.report;
        normalized.end = plain.end;
        assert_eq!(normalized, plain);
    }

    #[test]
    fn telemetry_page_reads_the_report() {
        use rtcm_events::FederationStats;
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 2_000);
        let cfg = SimConfig::new("J_J_J".parse().unwrap());
        let switch_at = Time::ZERO + Duration::from_secs(1);
        let options = SimOptions {
            schedule: ModeSchedule::new().then_at(switch_at, "J_J_T".parse().unwrap()),
            ..governed(inert_policy(), Duration::from_millis(100))
        };
        let run = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let report = &run.report;
        let windows = run.governor.as_ref().expect("governed").windows.len() as u64;
        assert_eq!(report.mode_changes.len(), 1, "the scheduled switch alone");
        assert!(windows > 10 && report.jobs_completed > 0);
        let page = run.telemetry.render_exposition(&FederationStats::default());
        for (row, value) in [
            ("rtcm_jobs_arrived_total", report.ratio.arrived_jobs()),
            ("rtcm_jobs_released_total", report.ratio.released_jobs()),
            ("rtcm_jobs_completed_total", report.jobs_completed),
            ("rtcm_deadline_misses_total", report.deadline_misses),
            ("rtcm_reallocations_total", report.reallocations),
            ("rtcm_ir_reports_total", report.ir_reports),
            ("rtcm_response_ns_count", report.response.count()),
            ("rtcm_reconfig_swaps_total", report.mode_changes.len() as u64),
            ("rtcm_governor_windows_total", windows),
        ] {
            let line = format!("\n{row} {value}\n");
            assert!(page.contains(&line), "{line:?} is not on the page:\n{page}");
        }
    }

    #[test]
    fn invalid_governor_policy_is_rejected_before_the_run() {
        use rtcm_core::govern::{GovernorRule, Metric, Trigger};
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 200);
        let bad_target = ServiceConfig::new(
            rtcm_core::strategy::AcStrategy::PerTask,
            rtcm_core::strategy::IrStrategy::PerJob,
            rtcm_core::strategy::LbStrategy::None,
        );
        let policy = GovernorPolicy::new().rule(GovernorRule::new(
            "bad",
            Metric::AcceptedRatio,
            Trigger::Below(0.5),
            1,
            bad_target,
        ));
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        assert!(matches!(
            simulate_with(&tasks, &trace, &cfg, &governed(policy, Duration::from_millis(100))),
            Err(SimError::InvalidPolicy(_))
        ));
    }

    /// The incremental window step against the brute-force oracle: every
    /// window's arrived/released figures recomputed by a full rescan of
    /// the per-job records must match the O(1) counter deltas exactly —
    /// the same differential discipline the incremental admission path is
    /// held to.
    #[test]
    fn governed_window_sensing_matches_brute_rescan_oracle() {
        let mk = |id: u32, proc: u16| {
            TaskBuilder::aperiodic(TaskId(id))
                .deadline(Duration::from_millis(100))
                .subtask(Duration::from_millis(40), ProcessorId(proc), [])
                .build()
                .unwrap()
        };
        let tasks = TaskSet::from_tasks([mk(0, 0), mk(1, 0), mk(2, 1)]).unwrap();
        // Heavy aperiodic pressure: plenty of accepts *and* rejects.
        let trace = ArrivalTrace::generate(
            &tasks,
            &ArrivalConfig {
                horizon: Duration::from_secs(5),
                poisson_factor: 0.5,
                phasing: Phasing::Simultaneous,
            },
            3,
        );
        // Ideal overheads: decisions land at the arrival instant, so
        // bucketing records by arrival time is an exact oracle. The odd
        // window length keeps tick boundaries off any arrival instant.
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let window = Duration::from_millis(333);
        let options = SimOptions { record_jobs: true, ..governed(inert_policy(), window) };
        let run = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let (report, gov_trace, records) =
            (run.report, run.governor.unwrap(), run.records.unwrap());
        assert!(gov_trace.windows.len() > 10);
        assert!(report.ac.rejected > 0, "the fixture must exercise rejections");

        let mut prev = Time::ZERO;
        for (end, metrics) in &gov_trace.windows {
            let mut arrived_jobs = 0u64;
            let mut arrived_u = 0.0;
            let mut released_u = 0.0;
            for r in &records {
                if r.arrival > prev && r.arrival <= *end {
                    arrived_jobs += 1;
                    arrived_u += r.utilization;
                    if r.released {
                        released_u += r.utilization;
                    }
                }
            }
            assert_eq!(metrics.arrived_jobs, arrived_jobs, "window ending {end}");
            assert!(
                (metrics.arrived_utilization - arrived_u).abs() < 1e-9,
                "window ending {end}: incremental {} vs rescan {arrived_u}",
                metrics.arrived_utilization
            );
            assert!(
                (metrics.released_utilization - released_u).abs() < 1e-9,
                "window ending {end}: incremental {} vs rescan {released_u}",
                metrics.released_utilization
            );
            prev = *end;
        }
        // Window deltas telescope back to the run totals.
        let total: f64 = gov_trace.windows.iter().map(|(_, m)| m.arrived_utilization).sum();
        assert!((total - report.ratio.arrived_utilization()).abs() < 1e-9);
    }

    #[test]
    fn governor_recovers_a_burst_without_a_schedule() {
        use rtcm_workload::BurstScenario;
        // A healthy (0.3-target) baseline: pre-burst windows accept well
        // above the collapse threshold, so the defense provably reacts to
        // the burst itself.
        let scenario = BurstScenario {
            horizon: Duration::from_secs(60),
            burst_start: Duration::from_secs(20),
            burst_duration: Duration::from_secs(20),
            intensity: 10.0,
            workload: rtcm_workload::RandomWorkload {
                target_utilization: 0.3,
                ..Default::default()
            },
            ..BurstScenario::default()
        };
        let (tasks, trace) = scenario.generate(7).unwrap();
        let baseline: ServiceConfig = "J_N_N".parse().unwrap();
        let defensive: ServiceConfig = "T_T_T".parse().unwrap();
        let cfg = SimConfig::new(baseline);
        let policy = GovernorPolicy::defensive_recovery(baseline, defensive);

        let static_records = simulate_with(&tasks, &trace, &cfg, &recorded()).unwrap().records;
        let options = SimOptions { record_jobs: true, ..governed(policy, Duration::from_secs(2)) };
        let run = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let gov_trace = run.governor.unwrap();

        assert!(!gov_trace.switches.is_empty(), "the collapse must trip the defense");
        let switch = &gov_trace.switches[0];
        assert_eq!(switch.rule, "collapse-defense");
        assert_eq!(switch.to, defensive);
        assert!(
            switch.at >= Time::ZERO + scenario.burst_start,
            "the defense reacts to the burst, not the baseline load"
        );

        // Recovery: from the switch to the burst end, the governed run
        // must accept more utilization than the static baseline.
        let lo = switch.at;
        let hi = Time::ZERO + scenario.burst_end();
        let ratio = |records: &[JobRecord]| {
            let mut arrived = 0.0;
            let mut released = 0.0;
            for r in records.iter().filter(|r| r.arrival >= lo && r.arrival < hi) {
                arrived += r.utilization;
                if r.released {
                    released += r.utilization;
                }
            }
            if arrived > 0.0 {
                released / arrived
            } else {
                1.0
            }
        };
        let static_ratio = ratio(&static_records.unwrap());
        let governed_ratio = ratio(&run.records.unwrap());
        assert!(
            governed_ratio > static_ratio,
            "governed {governed_ratio:.3} must beat static {static_ratio:.3} after the switch"
        );
        assert_eq!(run.report.deadline_misses, 0, "recovery never sacrifices guarantees");
    }

    /// Satellite: bounded swaps under an oscillating load trace — the
    /// hysteresis + cooldown must keep the governed system from flapping.
    #[test]
    fn governor_hysteresis_bounds_swaps_under_oscillating_load() {
        use rtcm_core::govern::{GovernorRule, Metric, Trigger};
        use rtcm_workload::Arrival;

        // Utilization 0.5 per job: schedulable alone (f(0.5) = 0.75), but
        // any two concurrent jobs break the bound — a flood collapses the
        // ratio, a calm trickle accepts everything.
        let heavy = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(50), ProcessorId(0), [])
            .build()
            .unwrap();
        let tasks = TaskSet::from_tasks([heavy]).unwrap();

        // Alternating seconds of flood (collapse) and calm (recovery),
        // phase-shifted off the window grid.
        let mut arrivals = Vec::new();
        let mut seq = 0;
        for second in 0..12u64 {
            let flood = second % 2 == 0;
            let step_ms = if flood { 10 } else { 450 };
            let mut t = second * 1_000 + 5;
            while t < (second + 1) * 1_000 {
                arrivals.push(Arrival {
                    time: Time::ZERO + Duration::from_millis(t),
                    task: TaskId(0),
                    seq,
                });
                seq += 1;
                t += step_ms;
            }
        }
        let trace = ArrivalTrace::from_arrivals(arrivals);

        let policy = GovernorPolicy::new()
            .rule(GovernorRule::new(
                "defend",
                Metric::AcceptedRatio,
                Trigger::Below(0.5),
                2,
                "J_J_N".parse().unwrap(),
            ))
            .rule(GovernorRule::new(
                "relax",
                Metric::AcceptedRatio,
                Trigger::Above(0.9),
                2,
                "J_N_N".parse().unwrap(),
            ))
            .cooldown(3);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let window = Duration::from_millis(250);
        let options = governed(policy, window);
        let run = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let gov_trace = run.governor.as_ref().unwrap();

        let windows = gov_trace.windows.len();
        let swaps = gov_trace.switches.len();
        // Streaks keep accumulating during cooldown, so the minimum gap
        // between swaps is cooldown + 1 windows.
        let bound = windows / (3 + 1) + 1;
        assert!(
            swaps <= bound,
            "{swaps} swaps in {windows} windows exceeds the anti-flapping bound {bound}"
        );
        assert!(swaps >= 2, "sustained blocks must still adapt");
        assert_eq!(swaps, run.report.mode_changes.len(), "every switch was the governor's");
        // Deterministic replay.
        let again = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        assert_eq!((run.report, run.governor), (again.report, again.governor));
    }

    #[test]
    fn deterministic_given_seed() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 2_000);
        let cfg = SimConfig::new("J_J_J".parse().unwrap());
        let a = simulate(&tasks, &trace, &cfg).unwrap();
        let b = simulate(&tasks, &trace, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn execution_spans_account_for_every_cycle() {
        // Two tasks with different priorities on one CPU: the trace must
        // show preemption, spans must not overlap, and per-subjob span time
        // must equal the declared execution time.
        let urgent = TaskBuilder::periodic(TaskId(0), Duration::from_millis(50))
            .subtask(Duration::from_millis(5), ProcessorId(0), [])
            .build()
            .unwrap();
        let slow = TaskBuilder::periodic(TaskId(1), Duration::from_millis(200))
            .subtask(Duration::from_millis(60), ProcessorId(0), [])
            .build()
            .unwrap();
        let tasks = TaskSet::from_tasks([urgent, slow]).unwrap();
        let trace = trace_for(&tasks, 400);
        let cfg = SimConfig::ideal("J_N_N".parse().unwrap());
        let options = SimOptions { trace_execution: true, ..SimOptions::default() };
        let SimRun { report, spans, .. } = simulate_with(&tasks, &trace, &cfg, &options).unwrap();
        let spans = spans.unwrap();
        assert!(!spans.is_empty());
        // Non-overlap on the single CPU.
        let mut sorted = spans.clone();
        sorted.sort_by_key(|s| s.start);
        for pair in sorted.windows(2) {
            assert!(pair[0].end <= pair[1].start, "{:?} overlaps {:?}", pair[0], pair[1]);
        }
        // The slow task must have been preempted at least once.
        assert!(
            spans.iter().any(|s| s.job.task == TaskId(1) && !s.completed),
            "expected a preempted segment of the slow task"
        );
        // Per-subjob execution adds up exactly.
        use std::collections::HashMap;
        let mut per_job: HashMap<(rtcm_core::task::JobId, usize), Duration> = HashMap::new();
        for s in &spans {
            *per_job.entry((s.job, s.subtask)).or_insert(Duration::ZERO) +=
                s.end.elapsed_since(s.start);
        }
        for ((job, subtask), total) in per_job {
            let expected = tasks.get(job.task).unwrap().subtasks()[subtask].execution_time;
            assert_eq!(total, expected, "job {job} stage {subtask}");
        }
        // Total span time equals reported busy time.
        let span_total: Duration = spans.iter().map(|s| s.end.elapsed_since(s.start)).sum();
        assert_eq!(span_total, report.cpu_busy[0]);
    }

    #[test]
    fn skip_runs_are_tracked() {
        // Two heavy tasks on one CPU: the loser skips in runs.
        let t0 = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let t1 = TaskBuilder::periodic(TaskId(1), Duration::from_millis(100))
            .subtask(Duration::from_millis(45), ProcessorId(0), [])
            .build()
            .unwrap();
        let tasks = TaskSet::from_tasks([t0, t1]).unwrap();
        let trace = trace_for(&tasks, 1_000);
        let report = simulate(&tasks, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
        assert!(report.max_consecutive_skips > 0);
        assert!(!report.skip_runs.is_empty());
        // A drained single-task system skips nothing.
        let solo =
            TaskSet::from_tasks([TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
                .subtask(Duration::from_millis(10), ProcessorId(0), [])
                .build()
                .unwrap()])
            .unwrap();
        let trace = trace_for(&solo, 1_000);
        let report = simulate(&solo, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
        assert_eq!(report.max_consecutive_skips, 0);
        assert!(report.skip_runs.is_empty());
    }

    #[test]
    fn endurance_hour_long_horizon_stays_bounded() {
        // A full virtual hour: the current set and ledger must stay
        // bounded (expiry works), determinism must hold, and nothing
        // leaks into pathological slowdowns.
        let mk = |id: u32, proc: u16| {
            TaskBuilder::periodic(TaskId(id), Duration::from_millis(250))
                .subtask(Duration::from_millis(40), ProcessorId(proc), [])
                .build()
                .unwrap()
        };
        let tasks = TaskSet::from_tasks([mk(0, 0), mk(1, 1), mk(2, 0)]).unwrap();
        let trace = ArrivalTrace::generate(
            &tasks,
            &ArrivalConfig {
                horizon: Duration::from_secs(3_600),
                poisson_factor: 2.0,
                phasing: Phasing::RandomPhase,
            },
            1,
        );
        let cfg = SimConfig::new("J_J_T".parse().unwrap());
        let report = simulate(&tasks, &trace, &cfg).unwrap();
        // 3 tasks × 14400 periods each ≈ 43200 arrivals.
        assert!(report.ratio.arrived_jobs() > 40_000);
        assert_eq!(report.deadline_misses, 0);
        assert!(report.ratio.ratio() > 0.5);
        let again = simulate(&tasks, &trace, &cfg).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn scale_many_processors_and_tasks() {
        // 40 processors, 80 tasks: a deployment an order of magnitude
        // beyond the paper's testbed still simulates correctly.
        let mut tasks = Vec::new();
        for i in 0..80u32 {
            let p = (i % 40) as u16;
            tasks.push(
                TaskBuilder::periodic(TaskId(i), Duration::from_millis(200 + 10 * u64::from(i)))
                    .subtask(Duration::from_millis(10), ProcessorId(p), [ProcessorId((p + 1) % 40)])
                    .subtask(Duration::from_millis(5), ProcessorId((p + 7) % 40), [])
                    .build()
                    .unwrap(),
            );
        }
        let tasks = TaskSet::from_tasks(tasks).unwrap();
        let trace = trace_for(&tasks, 10_000);
        let report = simulate(&tasks, &trace, &SimConfig::new("J_J_J".parse().unwrap())).unwrap();
        assert!(report.ratio.ratio() > 0.5, "ratio {}", report.ratio.ratio());
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.cpu_busy.len(), 40);
    }

    #[test]
    fn overheads_delay_but_do_not_starve() {
        let tasks = one_task_set();
        let trace = trace_for(&tasks, 1_000);
        let ideal = simulate(&tasks, &trace, &SimConfig::ideal("J_N_N".parse().unwrap())).unwrap();
        let real = simulate(&tasks, &trace, &SimConfig::new("J_N_N".parse().unwrap())).unwrap();
        assert_eq!(real.jobs_completed, ideal.jobs_completed);
        assert!(real.response.mean() > ideal.response.mean());
        // The AC round-trip adds ≈ 1 ms to every response.
        let delta = real.response.mean() - ideal.response.mean();
        assert!(
            delta > Duration::from_micros(700) && delta < Duration::from_micros(2_000),
            "AC path delta {delta}"
        );
    }
}
