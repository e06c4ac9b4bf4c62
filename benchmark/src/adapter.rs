//! The one place that calls into the `rtcm-*` crates.
//!
//! Workloads, statistics and output see only the plain types defined here,
//! so a change to a public signature of the program is answered by a change
//! to this file alone. The README lists every public item used.
//!
//! Three sections: inputs (task sets and arrival traces), the plant (a
//! launched `System`, optionally with a loopback-bridged voter, watched
//! through an observer mailbox), and the layer loops (each layer's public
//! entry point timed in isolation).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::admission::AdmissionMode;
use rtcm_core::balance::Assignment;
use rtcm_core::ledger::ContributionKey;
use rtcm_core::shard::ShardedAdmissionController;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, ProcessorId, TaskBuilder, TaskId, TaskSet};
use rtcm_core::time::{Duration as RtDuration, Time};
use rtcm_events::wire::{self, FrameDecoder};
use rtcm_events::{
    remote, topics, BridgeHandle, ChannelHandle, Event, EventReceiver, Federation, Latency, NodeId,
    Topic,
};
use rtcm_rt::proto::{
    self, AcceptMsg, ArriveMsg, IdleResetMsg, InjectMsg, ReconfigAckMsg, ReconfigMsg,
    ReconfigPhase, RejectMsg, TriggerMsg,
};
use rtcm_rt::{
    Clock, QuorumMember, QuorumOptions, Reactor, RtOptions, System, TimerDriver, TimerWheel, Wake,
    DEFAULT_TICK,
};
use rtcm_sim::{simulate as sim_simulate, SimConfig, SimReport};
use rtcm_telemetry::{Histogram, TraceBuffer, DEFAULT_TRACE_CAPACITY};
use rtcm_workload::{ArrivalConfig, ArrivalTrace, Phasing, RandomWorkload};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Application processors of every runtime workload.
pub const PROCESSORS: u16 = 3;

/// `T9` in the `WorkloadSpec` text DSL: 9 aperiodic tasks on 3 processors,
/// task *t* has 1 + *t* mod 3 stages of 1 µs with one replica each, deadline
/// 1 s. A job's utilisation is ~1e-6, so every job is admitted whatever the
/// timing and the accept/reject mix cannot add noise.
pub fn t9_spec_text() -> String {
    let mut text = format!("workload T9\nprocessors {PROCESSORS}\n");
    for t in 0..9u16 {
        text.push_str(&format!("task t{t} aperiodic deadline=1000ms\n"));
        for s in 0..=(t % 3) {
            let proc = (t + s) % PROCESSORS;
            let replica = (proc + 1) % PROCESSORS;
            text.push_str(&format!("  subtask exec=1us proc={proc} replicas={replica}\n"));
        }
    }
    text
}

/// Shape of a `RandomWorkload` task set (the paper's §7 generator).
#[derive(Debug, Clone, Copy)]
pub struct RandomShape {
    pub periodic: usize,
    pub aperiodic: usize,
    pub processors: u16,
    pub subtasks: (usize, usize),
    pub deadline_ms: (u64, u64),
}

/// When periodic tasks release their first job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phases {
    /// Each at an independent random phase within its period.
    Random,
    /// All at time zero.
    Together,
}

/// A task set plus the specification the configuration engine takes.
pub struct Workload {
    spec: WorkloadSpec,
    tasks: TaskSet,
}

/// One job arrival of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at_ns: u64,
    pub task: u32,
    pub seq: u64,
}

/// A generated arrival trace (periodic releases + Poisson aperiodic ones).
pub struct Trace {
    trace: ArrivalTrace,
}

impl Trace {
    pub fn arrivals(&self) -> Vec<Arrival> {
        self.trace
            .iter()
            .map(|a| Arrival { at_ns: a.time.as_nanos(), task: a.task.0, seq: a.seq })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.trace.len()
    }
}

impl Workload {
    /// Parses `T9` from its DSL text.
    pub fn t9() -> Result<Workload, String> {
        let spec = WorkloadSpec::parse(&t9_spec_text()).map_err(|e| e.to_string())?;
        let tasks = spec.to_task_set().map_err(|e| e.to_string())?;
        Ok(Workload { spec, tasks })
    }

    /// Generates a random task set of `shape`.
    pub fn random(shape: RandomShape, seed: u64) -> Result<Workload, String> {
        let generator = RandomWorkload {
            periodic_tasks: shape.periodic,
            aperiodic_tasks: shape.aperiodic,
            subtasks: shape.subtasks,
            deadline: (
                RtDuration::from_millis(shape.deadline_ms.0),
                RtDuration::from_millis(shape.deadline_ms.1),
            ),
            processors: shape.processors,
            ..RandomWorkload::default()
        };
        let tasks = generator.generate(seed).map_err(|e| e.to_string())?;
        let spec = WorkloadSpec::from_task_set("random", shape.processors, &tasks);
        Ok(Workload { spec, tasks })
    }

    pub fn task_count(&self) -> u32 {
        self.tasks.len() as u32
    }

    /// Stages of each task, indexed by task id.
    pub fn stages(&self) -> Vec<u32> {
        (0..self.task_count())
            .map(|t| self.tasks.get(TaskId(t)).map_or(0, |task| task.subtasks().len() as u32))
            .collect()
    }

    /// Arrivals over `seconds`: periodic tasks at their period, aperiodic
    /// ones Poisson with mean gap `poisson_factor` × deadline.
    pub fn trace(&self, seconds: f64, poisson_factor: f64, phases: Phases, seed: u64) -> Trace {
        let config = ArrivalConfig {
            horizon: RtDuration::from_secs_f64(seconds),
            poisson_factor,
            phasing: match phases {
                Phases::Random => Phasing::RandomPhase,
                Phases::Together => Phasing::Simultaneous,
            },
        };
        Trace { trace: ArrivalTrace::generate(&self.tasks, &config, seed) }
    }
}

fn services(label: &str) -> Result<ServiceConfig, String> {
    label.parse::<ServiceConfig>().map_err(|e| format!("{label}: {e}"))
}

/// The 15 valid strategy combinations, by label.
pub fn valid_configs() -> Vec<String> {
    ServiceConfig::all_valid().into_iter().map(ServiceConfig::label).collect()
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// One `rtcm_sim::simulate` run. Two runs compare equal only if their whole
/// `SimReport`s do.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    report: SimReport,
}

impl SimRun {
    pub fn accept_ratio(&self) -> f64 {
        self.report.ratio.ratio()
    }

    pub fn deadline_misses(&self) -> u64 {
        self.report.deadline_misses
    }
}

pub fn simulate(workload: &Workload, trace: &Trace, label: &str) -> Result<SimRun, String> {
    let config = SimConfig::new(services(label)?);
    sim_simulate(&workload.tasks, &trace.trace, &config)
        .map(|report| SimRun { report })
        .map_err(|e| format!("simulate {label}: {e:?}"))
}

// ---------------------------------------------------------------------------
// The plant: a launched System seen from outside
// ---------------------------------------------------------------------------

/// How subjobs execute and what the in-process network costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RtOptions::fast()`: no injected latency, instant execution.
    Fast,
    /// `RtOptions::default()`: sleep execution in 200 µs slices, 283–361 µs
    /// injected one-way latency (the paper's measured band).
    Paper,
}

/// `(task, seq)` of a job, as decoded from a message's `job` field.
pub type Job = (u32, u64);

/// A remote federation bridged over loopback TCP whose `QuorumMember` is a
/// required voter of every swap.
struct Bridge {
    member: QuorumMember,
    _server: BridgeHandle,
    _client: BridgeHandle,
    _remote: Federation,
}

pub struct Plant {
    system: System,
    bridge: Option<Bridge>,
}

/// A `DelayStats` row of a `SystemReport`: how many samples and their sum,
/// so the warm-up's share can be taken out of the mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delay {
    pub count: u64,
    pub total_ns: f64,
}

impl Delay {
    pub fn mean_ns(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }

    /// The samples recorded since `base` was read.
    pub fn since(self, base: Delay) -> Delay {
        Delay {
            count: self.count.saturating_sub(base.count),
            total_ns: (self.total_ns - base.total_ns).max(0.0),
        }
    }
}

/// The numbers of a `SystemReport` the benchmark reads; delays are the
/// program's own (`DelayStats`), labelled program-side wherever printed.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub accept_ratio: f64,
    pub arrived_utilization: f64,
    pub released_utilization: f64,
    pub arrived_jobs: u64,
    pub released_jobs: u64,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    pub reallocations: u64,
    pub hold: Delay,
    pub comm: Delay,
    pub lb_plan: Delay,
    pub ac_test: Delay,
    pub release: Delay,
    pub ir_path: Delay,
    pub ir_update: Delay,
    pub response: Delay,
    pub total_no_realloc: Delay,
    pub timer_wakeups: u64,
    pub reconfig_swaps: u64,
    pub reconfig_deferred: u64,
    pub events_published: u64,
    pub events_delivered: u64,
    pub events_dropped: u64,
    pub bridge_errors: u64,
}

impl Plant {
    /// Configures and launches `workload` under `label`; with `bridged`, adds
    /// a second federation over loopback TCP (`RECONFIG` out, `RECONFIG_ACK`
    /// back) and registers its `QuorumMember` as a remote voter. Also returns
    /// the microseconds `System::launch` took.
    pub fn launch(
        workload: &Workload,
        label: &str,
        mode: Mode,
        seed: u64,
        bridged: bool,
    ) -> Result<(Plant, f64), String> {
        let deployment =
            configure_with(&workload.spec, services(label)?).map_err(|e| e.to_string())?;
        let configured = Instant::now();
        let base = match mode {
            Mode::Fast => RtOptions::fast(),
            Mode::Paper => RtOptions::default(),
        };
        let system =
            System::launch(&deployment, RtOptions { seed, ..base }).map_err(|e| e.to_string())?;
        let launch_us = micros(configured.elapsed());
        let bridge = if bridged { Some(Bridge::attach(&system, seed)?) } else { None };
        Ok((Plant { system, bridge }, launch_us))
    }

    pub fn submit(&self, task: u32, seq: u64) -> bool {
        self.system.submit(TaskId(task), seq).is_ok()
    }

    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.system.quiesce(timeout)
    }

    pub fn in_flight(&self) -> i64 {
        self.system.in_flight()
    }

    /// An outside observer: one mailbox at node 0 (the manager's node, so a
    /// decision is delivered by the publish itself).
    pub fn observe(&self, watch: Watch) -> Result<Observer, String> {
        let handle = self.system.federation().handle(NodeId(0)).map_err(|e| e.to_string())?;
        let mut subscribed = vec![topics::ACCEPT, topics::REJECT];
        match watch {
            Watch::Decisions => {}
            Watch::JobPath => subscribed.push(topics::IDLE_RESET),
            Watch::Path | Watch::PathAndQuorum => {
                subscribed.extend([topics::TASK_ARRIVE, topics::TRIGGER, topics::IDLE_RESET]);
            }
        }
        if watch == Watch::PathAndQuorum {
            subscribed.extend([topics::RECONFIG, topics::RECONFIG_ACK]);
        }
        Ok(Observer { rx: handle.subscribe_many(&subscribed), local_host: self.system.host_id() })
    }

    /// One `System::reconfigure`; returns `ReconfigReport.swap_latency` in µs
    /// (request at the manager → commit published, as the manager timed it).
    pub fn reconfigure(&self, label: &str) -> Result<f64, String> {
        let report = self.system.reconfigure(services(label)?).map_err(|e| e.to_string())?;
        Ok(report.swap_latency.as_nanos() as f64 / 1e3)
    }

    /// Commits the bridged voter has witnessed (0 without a bridge).
    pub fn remote_commits(&self) -> usize {
        self.bridge.as_ref().map_or(0, |b| b.member.observed_commits().len())
    }

    /// True while the bridged voter still waits for a commit or abort.
    pub fn remote_fenced(&self) -> bool {
        self.bridge.as_ref().is_some_and(|b| b.member.is_fenced())
    }

    /// `System::stats`, and the microseconds the snapshot took.
    pub fn report(&self) -> (Report, f64) {
        let started = Instant::now();
        let report = self.system.stats();
        let took_us = micros(started.elapsed());
        (flatten(&report), took_us)
    }

    /// Stops every thread of the plant; returns the final report and the
    /// microseconds `System::shutdown` took.
    pub fn shutdown(self) -> (Report, f64) {
        let started = Instant::now();
        let report = self.system.shutdown();
        let took_us = micros(started.elapsed());
        if let Some(bridge) = self.bridge {
            bridge.member.shutdown();
        }
        (flatten(&report), took_us)
    }
}

impl Bridge {
    fn attach(system: &System, seed: u64) -> Result<Bridge, String> {
        let bridged = vec![topics::RECONFIG, topics::RECONFIG_ACK];
        // The gateway must not be the node that publishes what is to be
        // forwarded (node 0, the manager), so an application node serves.
        let (addr, server) =
            remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", bridged.clone())
                .map_err(|e| format!("bridge listen: {e}"))?;
        let remote_host = Federation::new(2, Latency::None, seed);
        let client = remote::connect(&remote_host, NodeId(0), addr, bridged)
            .map_err(|e| format!("bridge connect: {e}"))?;
        let member = QuorumMember::attach(&remote_host, NodeId(1), QuorumOptions::default())
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.is_connected() {
            if Instant::now() > deadline {
                return Err("bridge never connected".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        system.register_remote_voter(member.host_id());
        Ok(Bridge { member, _server: server, _client: client, _remote: remote_host })
    }
}

fn flatten(r: &rtcm_rt::SystemReport) -> Report {
    let delay = |d: &rtcm_core::metrics::DelayStats| Delay {
        count: d.count(),
        total_ns: d.mean().as_nanos() as f64 * d.count() as f64,
    };
    Report {
        accept_ratio: r.ratio.ratio(),
        arrived_utilization: r.ratio.arrived_utilization(),
        released_utilization: r.ratio.released_utilization(),
        arrived_jobs: r.ratio.arrived_jobs(),
        released_jobs: r.ratio.released_jobs(),
        jobs_completed: r.jobs_completed,
        deadline_misses: r.deadline_misses,
        reallocations: r.reallocations,
        hold: delay(&r.hold),
        comm: delay(&r.comm),
        lb_plan: delay(&r.lb_plan),
        ac_test: delay(&r.ac_test),
        release: delay(&r.release),
        ir_path: delay(&r.ir_path),
        ir_update: delay(&r.ir_update),
        response: delay(&r.response),
        total_no_realloc: delay(&r.total_no_realloc),
        timer_wakeups: r.timer_wakeups,
        reconfig_swaps: r.reconfig_swaps,
        reconfig_deferred: r.reconfig_deferred,
        events_published: r.events_published,
        events_delivered: r.events_delivered,
        events_dropped: r.events_dropped,
        bridge_errors: r.bridge_rx_errors + r.bridge_disconnects + r.bridge_tx_dropped,
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Which topics an observer subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// `ACCEPT`, `REJECT`: what an untraced open-loop run needs to time a
    /// decision.
    Decisions,
    /// Plus `IDLE_RESET`: an untraced run that times a job to the end of its
    /// path, the idle-reset report of its last stage.
    JobPath,
    /// Plus `TASK_ARRIVE`, `TRIGGER`, `IDLE_RESET`: the traced run.
    Path,
    /// Plus `RECONFIG`, `RECONFIG_ACK`: the traced `bridged_swap` run.
    PathAndQuorum,
}

/// One observed event, decoded as far as the benchmark needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seen {
    Arrive(Job),
    Accept(Job),
    Reject(Job),
    Trigger(Job),
    /// An idle-reset report and the jobs whose subjobs it names.
    /// Completed subjobs an idle processor reported, as `(job, stage)`.
    IdleReset(Vec<(Job, u32)>),
    /// The prepare phase of swap `epoch` was published.
    Prepare(u64),
    /// A bridged host's vote on swap `epoch` came back over the bridge.
    RemoteAck(u64),
    /// A phase or vote the spans do not use.
    Other,
}

pub struct Observer {
    rx: EventReceiver,
    local_host: u64,
}

impl Observer {
    /// Waits up to `timeout` for the next event.
    pub fn recv(&self, timeout: Duration) -> Option<Seen> {
        self.rx.recv_timeout(timeout).ok().map(|ev| self.decode(&ev))
    }

    pub fn try_recv(&self) -> Option<Seen> {
        self.rx.try_recv().ok().map(|ev| self.decode(&ev))
    }

    fn decode(&self, ev: &Event) -> Seen {
        let job = |j: JobId| (j.task.0, j.seq);
        let topic = ev.topic;
        if topic == topics::ACCEPT {
            Seen::Accept(job(proto::decode::<AcceptMsg>(&ev.payload).job))
        } else if topic == topics::REJECT {
            Seen::Reject(job(proto::decode::<RejectMsg>(&ev.payload).job))
        } else if topic == topics::TASK_ARRIVE {
            Seen::Arrive(job(proto::decode::<ArriveMsg>(&ev.payload).job))
        } else if topic == topics::TRIGGER {
            Seen::Trigger(job(proto::decode::<TriggerMsg>(&ev.payload).job))
        } else if topic == topics::IDLE_RESET {
            let msg: IdleResetMsg = proto::decode(&ev.payload);
            Seen::IdleReset(msg.completed.iter().map(|&(j, stage)| (job(j), stage)).collect())
        } else if topic == topics::RECONFIG {
            let msg: ReconfigMsg = proto::decode(&ev.payload);
            match msg.phase {
                ReconfigPhase::Prepare => Seen::Prepare(msg.epoch),
                _ => Seen::Other,
            }
        } else if topic == topics::RECONFIG_ACK {
            let msg: ReconfigAckMsg = proto::decode(&ev.payload);
            if msg.host == self.local_host {
                Seen::Other
            } else {
                Seen::RemoteAck(msg.epoch)
            }
        } else {
            Seen::Other
        }
    }
}

// ---------------------------------------------------------------------------
// Layer loops
// ---------------------------------------------------------------------------

/// How a layer loop's samples become one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Median,
    P99,
    /// The final sample (counts and sizes).
    Last,
}

pub struct Output {
    pub name: &'static str,
    pub unit: &'static str,
    pub reduce: Reduce,
}

/// One layer's public entry points driven in isolation. Each call of
/// `sample` returns one value per output, in that output's unit.
pub struct Layer {
    pub outputs: Vec<Output>,
    /// Sampled once however much time there is (a count, a size, a check).
    pub once: bool,
    pub sample: Box<dyn FnMut() -> Vec<f64>>,
}

fn out(name: &'static str, unit: &'static str, reduce: Reduce) -> Output {
    Output { name, unit, reduce }
}

/// Mean nanoseconds per call of `op` over `batch` calls.
fn per_op_ns(batch: u32, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..batch {
        op();
    }
    started.elapsed().as_nanos() as f64 / f64::from(batch)
}

/// The paper-shaped task set of `paper_replay` (§7.3: 3 processors, 1–3
/// subtasks). Deadlines are 10–100 ms, not the paper's 250 ms–10 s: a 10 s
/// run then replays ≈4 400 arrivals, not ≈90, and its accepted ratio repeats
/// within 1 % over seeds (sample density, not semantics).
pub const PAPER_SHAPE: RandomShape = RandomShape {
    periodic: 5,
    aperiodic: 4,
    processors: PROCESSORS,
    subtasks: (1, 3),
    deadline_ms: (10, 100),
};

/// The simulator scenario of `sim_sweep`.
pub const SWEEP_SHAPE: RandomShape = RandomShape {
    periodic: 20,
    aperiodic: 44,
    processors: 8,
    subtasks: (1, 5),
    deadline_ms: (250, 10_000),
};

/// Seed of the fixed task sets. `--seed` drives arrivals and jitter, not the
/// task set: accepted ratio and simulated jobs per second depend on the task
/// set far more than on anything a change to the program could do, so a task
/// set drawn per seed would bury every metric of `paper_replay` and
/// `sim_sweep` in input noise.
pub const TASK_SET_SEED: u64 = 0;

/// Every layer loop, each built only when the one before it is done (some
/// hold federations, bridges or deep ledgers). `seed` varies what may vary:
/// arrival traces.
pub fn layers(seed: u64) -> impl ExactSizeIterator<Item = Layer> {
    const BUILDERS: [fn(u64) -> Layer; 15] = [
        inputs_layer,
        |_| proto_layer(),
        |_| wheel_layer(),
        |_| wake_layer(),
        |_| events_layer(),
        |_| hop_layer(),
        |_| wire_layer(),
        |_| bridge_layer(),
        |_| core_empty_layer(),
        |_| core_deep_layer(),
        |_| core_misc_layer(),
        |_| core_reconfigure_layer(),
        core_oracle_layer,
        |_| telemetry_layer(),
        sim_layer,
    ];
    BUILDERS.iter().map(move |build| build(seed))
}

fn inputs_layer(seed: u64) -> Layer {
    let text = t9_spec_text();
    let j_j_j = services("J_J_J").expect("static label");
    Layer {
        outputs: vec![
            out("workload.generate_ms", "ms", Reduce::Median),
            out("config.configure_us", "us", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            let started = Instant::now();
            let workload = Workload::random(PAPER_SHAPE, TASK_SET_SEED).expect("paper shape");
            black_box(workload.trace(10.0, 0.5, Phases::Random, seed).len());
            let generated = started.elapsed();
            let started = Instant::now();
            let spec = WorkloadSpec::parse(&text).expect("T9 parses");
            black_box(configure_with(&spec, j_j_j).expect("T9 configures"));
            vec![generated.as_nanos() as f64 / 1e6, micros(started.elapsed())]
        }),
    }
}

/// The messages of one accepted 2-stage job.
fn two_stage_messages() -> (InjectMsg, ArriveMsg, AcceptMsg, TriggerMsg, [IdleResetMsg; 2]) {
    let job = proto::job(4, 123_456);
    let trace = proto::mint_trace(0x1234_5678_9abc_def0, job.task, job.seq);
    let (arrival_ns, deadline_ns) = (1_234_567_890, 2_234_567_890);
    (
        InjectMsg { task: job.task, seq: job.seq, trace },
        ArriveMsg { job, arrival_proc: 1, arrival_ns, sent_ns: arrival_ns + 900, trace },
        AcceptMsg {
            job,
            assignment: vec![1, 2],
            release_proc: 1,
            arrival_ns,
            deadline_ns,
            newly_admitted: true,
            sent_ns: arrival_ns + 90_000,
            trace,
        },
        TriggerMsg {
            job,
            next_subtask: 1,
            assignment: vec![1, 2],
            arrival_ns,
            deadline_ns,
            sent_ns: arrival_ns + 150_000,
            trace,
        },
        [1u16, 2].map(|p| IdleResetMsg {
            processor: p,
            completed: vec![(job, u32::from(p) - 1)],
            started_ns: arrival_ns + 200_000,
        }),
    )
}

fn proto_layer() -> Layer {
    let (inject, arrive, accept, trigger, resets) = two_stage_messages();
    let accept_bytes = proto::encode(&accept);
    Layer {
        outputs: vec![
            out("rt.proto.encode_accept_ns", "ns", Reduce::Median),
            out("rt.proto.decode_accept_ns", "ns", Reduce::Median),
            out("rt.proto.job_codec_ns", "ns", Reduce::Median),
            out("rt.proto.accept_bytes", "bytes", Reduce::Last),
        ],
        once: false,
        sample: Box::new(move || {
            let encode = per_op_ns(256, || {
                black_box(proto::encode(black_box(&accept)));
            });
            let decode = per_op_ns(256, || {
                black_box(proto::decode::<AcceptMsg>(black_box(&accept_bytes)));
            });
            // Every encode and every receiver's decode of one accepted
            // 2-stage job: all three nodes subscribe to ACCEPT and TRIGGER
            // and decode each, the manager decodes ARRIVE and both
            // IDLE_RESET reports.
            let codec = per_op_ns(64, || {
                black_box(proto::decode::<InjectMsg>(&proto::encode(&inject)));
                black_box(proto::decode::<ArriveMsg>(&proto::encode(&arrive)));
                let bytes = proto::encode(&accept);
                for _ in 0..PROCESSORS {
                    black_box(proto::decode::<AcceptMsg>(&bytes));
                }
                let bytes = proto::encode(&trigger);
                for _ in 0..PROCESSORS {
                    black_box(proto::decode::<TriggerMsg>(&bytes));
                }
                for reset in &resets {
                    black_box(proto::decode::<IdleResetMsg>(&proto::encode(reset)));
                }
            });
            vec![encode, decode, codec, accept_bytes.len() as f64]
        }),
    }
}

fn wheel_layer() -> Layer {
    let mut wheel: TimerWheel<()> = TimerWheel::new(DEFAULT_TICK);
    let mut fired = Vec::new();
    let mut now_ns = 0u64;
    Layer {
        outputs: vec![out("rt.reactor.wheel_schedule_cancel_ns", "ns", Reduce::Median)],
        once: false,
        sample: Box::new(move || {
            // A slice timer armed 200 µs ahead and cancelled, as a preempted
            // slice does; the wheel advances 1 ms per batch so lazily
            // cancelled entries are reaped as in steady state.
            let ns = per_op_ns(1024, || {
                let id = wheel.schedule_at(now_ns + 200_000, ());
                black_box(wheel.cancel(id));
            });
            now_ns += 1_000_000;
            fired.clear();
            wheel.advance(now_ns, &mut fired);
            vec![ns]
        }),
    }
}

fn wake_layer() -> Layer {
    let federation = Federation::new(1, Latency::None, 0);
    let mailbox = federation.handle(NodeId(0)).expect("node 0").subscribe(Topic(900));
    let clock = Clock::new();
    let mut reactor: Reactor<Clock, ()> = Reactor::new(clock, DEFAULT_TICK);
    let mut fired = Vec::new();
    Layer {
        outputs: vec![
            out("rt.reactor.wake_lateness_p50_us", "us", Reduce::Median),
            out("rt.reactor.wake_lateness_p99_us", "us", Reduce::P99),
        ],
        once: false,
        sample: Box::new(move || {
            // `Reactor::wait` with one 200 µs timer and an empty mailbox: how
            // late a slice boundary wakes its node.
            let _keep = &federation;
            let deadline_ns = clock.now_ns() + 200_000;
            reactor.schedule_at(deadline_ns, ());
            while !matches!(reactor.wait(&mailbox), Wake::Timer) {}
            let late_us = clock.now_ns().saturating_sub(deadline_ns) as f64 / 1e3;
            fired.clear();
            reactor.poll(&mut fired);
            vec![late_us, late_us]
        }),
    }
}

/// A payload the size of an encoded `AcceptMsg`.
fn accept_payload() -> Vec<u8> {
    proto::encode(&two_stage_messages().2)
}

fn recv(rx: &EventReceiver) -> Event {
    rx.recv_timeout(Duration::from_secs(10)).expect("event delivered")
}

fn events_layer() -> Layer {
    let payload = accept_payload();
    let local = Federation::new(1, Latency::None, 0);
    let local_handle = local.handle(NodeId(0)).expect("node 0");
    let local_rx = local_handle.subscribe(Topic(901));
    let fan = Federation::new(PROCESSORS + 1, Latency::None, 0);
    let fan_handle = fan.handle(NodeId(0)).expect("node 0");
    let fan_rx: Vec<EventReceiver> = (1..=PROCESSORS)
        .map(|n| fan.handle(NodeId(n)).expect("app node").subscribe(Topic(902)))
        .collect();
    Layer {
        outputs: vec![
            out("events.publish_local_ns", "ns", Reduce::Median),
            out("events.publish_fanout_ns", "ns", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            let _keep = (&local, &fan);
            let local_ns = per_op_ns(256, || {
                local_handle.publish(Topic(901), payload.as_slice());
                black_box(local_rx.try_recv().expect("delivered by the publish"));
            });
            // One publish to three remote-node mailboxes, as ACCEPT does;
            // only the publish calls are timed, the drain is not.
            let fan_ns = per_op_ns(64, || {
                black_box(fan_handle.publish(Topic(902), payload.as_slice()));
            });
            for rx in &fan_rx {
                for _ in 0..64 {
                    black_box(recv(rx));
                }
            }
            vec![local_ns, fan_ns]
        }),
    }
}

fn hop_layer() -> Layer {
    let payload = accept_payload();
    let federation = Federation::new(2, Latency::None, 0);
    let from = federation.handle(NodeId(0)).expect("node 0");
    let rx = federation.handle(NodeId(1)).expect("node 1").subscribe(Topic(903));
    Layer {
        outputs: vec![out("events.hop_cross_p50_us", "us", Reduce::Median)],
        once: false,
        sample: Box::new(move || {
            let _keep = &federation;
            let started = Instant::now();
            from.publish(Topic(903), payload.as_slice());
            black_box(recv(&rx));
            vec![micros(started.elapsed())]
        }),
    }
}

fn wire_layer() -> Layer {
    let payload = accept_payload();
    let mut buf = Vec::with_capacity(4096);
    let mut stream = Vec::new();
    for _ in 0..64 {
        wire::append_frame(&mut stream, topics::ACCEPT, &payload).expect("small frame");
    }
    Layer {
        outputs: vec![
            out("events.wire.encode_ns", "ns", Reduce::Median),
            out("events.wire.decode_ns", "ns", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            let encode = per_op_ns(256, || {
                buf.clear();
                wire::append_frame(&mut buf, topics::ACCEPT, black_box(&payload))
                    .expect("small frame");
            });
            let decode = per_op_ns(4, || {
                let mut decoder = FrameDecoder::new();
                decoder.extend(black_box(&stream));
                let drained = decoder.drain();
                assert!(drained.fatal.is_none() && drained.frames.len() == 64);
                black_box(drained);
            }) / 64.0;
            vec![encode, decode]
        }),
    }
}

/// Two federations bridged over loopback TCP: `PING` flows a→b, `PONG` b→a.
struct BridgeRig {
    a: Federation,
    b: Federation,
    a_app: ChannelHandle,
    b_app: ChannelHandle,
    ping_rx: EventReceiver,
    pong_rx: EventReceiver,
    _server: BridgeHandle,
    _client: BridgeHandle,
}

const PING: Topic = Topic(904);
const PONG: Topic = Topic(905);

impl BridgeRig {
    fn new() -> BridgeRig {
        let a = Federation::new(2, Latency::None, 0);
        let b = Federation::new(2, Latency::None, 0);
        let (addr, server) = remote::listen(&a, NodeId(0), "127.0.0.1:0", vec![PING, PONG])
            .expect("loopback listen");
        let client =
            remote::connect(&b, NodeId(0), addr, vec![PING, PONG]).expect("loopback connect");
        let a_app = a.handle(NodeId(1)).expect("node 1");
        let b_app = b.handle(NodeId(1)).expect("node 1");
        let ping_rx = b_app.subscribe(PING);
        let pong_rx = a_app.subscribe(PONG);
        BridgeRig { a, b, a_app, b_app, ping_rx, pong_rx, _server: server, _client: client }
    }

    fn errors(&self) -> u64 {
        [self.a.stats(), self.b.stats()]
            .iter()
            .map(|s| s.bridge_rx_errors + s.bridge_disconnects + s.bridge_tx_dropped)
            .sum()
    }
}

fn bridge_layer() -> Layer {
    let payload = accept_payload();
    let rig = BridgeRig::new();
    Layer {
        outputs: vec![
            out("events.remote.bridge_rtt_p50_us", "us", Reduce::Median),
            out("events.remote.bridge_events_per_s", "1/s", Reduce::Median),
            out("events.remote.bridge_errors", "count", Reduce::Last),
        ],
        once: false,
        sample: Box::new(move || {
            // A burst one way. The bridge does not set TCP_NODELAY, so a
            // write waits for the ACK of the one before, and a peer with
            // nothing to say delays that ACK: the order below is fixed so
            // that every sample meets the same TCP state.
            let burst = 64;
            let started = Instant::now();
            for _ in 0..burst {
                rig.a_app.publish(PING, payload.as_slice());
            }
            for _ in 0..burst {
                black_box(recv(&rig.ping_rx));
            }
            let per_s = f64::from(burst) / started.elapsed().as_secs_f64();
            // One event there and one back, by one thread; the third round
            // trip of a conversation, whose ACKs ride on the replies.
            let mut rtt_us = 0.0;
            for _ in 0..3 {
                let started = Instant::now();
                rig.a_app.publish(PING, payload.as_slice());
                black_box(recv(&rig.ping_rx));
                rig.b_app.publish(PONG, payload.as_slice());
                black_box(recv(&rig.pong_rx));
                rtt_us = micros(started.elapsed());
            }
            vec![rtt_us, per_s, rig.errors() as f64]
        }),
    }
}

/// The controller type `rtcm-rt` constructs, at its default shard count.
fn controller(label: &str, mode: AdmissionMode) -> ShardedAdmissionController {
    let config = services(label).expect("static label");
    ShardedAdmissionController::with_mode(config, usize::from(PROCESSORS), 1, mode)
        .expect("valid combination")
}

fn timed<R>(op: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = op();
    (result, started.elapsed().as_nanos() as f64)
}

fn core_empty_layer() -> Layer {
    let t9 = Workload::t9().expect("T9 parses").tasks;
    let ac = controller("J_J_J", AdmissionMode::Incremental);
    let mut seq = 0u64;
    Layer {
        outputs: vec![
            out("core.decide_empty_ns", "ns", Reduce::Median),
            out("core.idle_reset_ns", "ns", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            // `probe_rtt`'s admission load: the ledger holds no utilisation
            // at any decision (each stage's idle reset takes its share out
            // again; the job's registry entry stays until its deadline). Only
            // the decide and the resets are timed (each call on its own, so
            // ~2 clock reads ride in every sample).
            let (mut decide_ns, mut reset_ns, mut resets) = (0.0, 0.0, 0u32);
            for _ in 0..256 {
                let task = &t9.tasks()[(seq % 9) as usize];
                let now = Time::from_nanos(seq * 200_000);
                ac.expire(now);
                let plan = ac.propose_assignment(task);
                let (decision, ns) = timed(|| ac.admit_with(task, seq, now, plan));
                decide_ns += ns;
                let decision = decision.expect("fresh sequence number");
                let placed = decision.assignment().expect("T9 is always admitted").clone();
                for (stage, processor) in placed.iter() {
                    let key = ContributionKey::new(JobId::new(task.id(), seq), stage);
                    let (_, ns) = timed(|| ac.apply_idle_reset(processor, &[key]));
                    reset_ns += ns;
                    resets += 1;
                }
                seq += 1;
            }
            let held: f64 = ac.utilizations().iter().sum();
            assert!(held.abs() < 1e-9, "per-job idle reset empties the ledger, not {held}");
            vec![decide_ns / 256.0, reset_ns / f64::from(resets)]
        }),
    }
}

/// A controller in `open_storm`'s steady state: `T9` arrivals every 200 µs
/// of virtual time under `J_N_N`, so ≈5 000 jobs (≈10 000 contributions)
/// are live and one expires per arrival.
struct DeepLedger {
    tasks: TaskSet,
    ac: ShardedAdmissionController,
    seq: u64,
}

impl DeepLedger {
    const GAP_NS: u64 = 200_000;

    fn new() -> DeepLedger {
        let tasks = Workload::t9().expect("T9 parses").tasks;
        let ac = controller("J_N_N", AdmissionMode::Incremental);
        let mut deep = DeepLedger { tasks, ac, seq: 0 };
        for _ in 0..6_000 {
            deep.arrive();
        }
        deep
    }

    fn now(&self) -> Time {
        Time::from_nanos(self.seq * Self::GAP_NS)
    }

    /// One arrival as the manager handles it: expire, then decide. Returns
    /// `(expire_ns, decide_ns)`.
    fn arrive(&mut self) -> (f64, f64) {
        let task = &self.tasks.tasks()[(self.seq % 9) as usize];
        let now = self.now();
        let ((), expire_ns) = timed(|| self.ac.expire(now));
        let plan = Assignment::primaries(task);
        let (decision, decide_ns) = timed(|| self.ac.admit_with(task, self.seq, now, plan));
        assert!(decision.expect("fresh sequence number").is_accept(), "T9 is always admitted");
        self.seq += 1;
        (expire_ns, decide_ns)
    }
}

fn core_deep_layer() -> Layer {
    let mut deep = DeepLedger::new();
    Layer {
        outputs: vec![
            out("core.expire_ns", "ns", Reduce::Median),
            out("core.decide_deep_ns", "ns", Reduce::Median),
            out("core.live_entries", "count", Reduce::Last),
        ],
        once: false,
        sample: Box::new(move || {
            let (mut expire_ns, mut decide_ns) = (0.0, 0.0);
            for _ in 0..256 {
                let (e, d) = deep.arrive();
                expire_ns += e;
                decide_ns += d;
            }
            vec![expire_ns / 256.0, decide_ns / 256.0, deep.ac.current_entries() as f64]
        }),
    }
}

fn core_misc_layer() -> Layer {
    let t9 = Workload::t9().expect("T9 parses").tasks;
    // 0.9 of a processor in one job: over the AUB bound on its own.
    let heavy = TaskBuilder::aperiodic(TaskId(100))
        .deadline(RtDuration::from_secs(1))
        .subtask(RtDuration::from_millis(900), ProcessorId(0), [])
        .build()
        .expect("valid task");
    let fill = |ac: &ShardedAdmissionController| {
        for seq in 0..90u64 {
            let task = &t9.tasks()[(seq % 9) as usize];
            assert!(ac.handle_arrival(task, seq, Time::ZERO).expect("fresh").is_accept());
        }
    };
    let rejecting = controller("J_N_N", AdmissionMode::Incremental);
    fill(&rejecting);
    let balancing = controller("J_N_J", AdmissionMode::Incremental);
    fill(&balancing);
    let mut seq = 0u64;
    Layer {
        outputs: vec![
            out("core.reject_ns", "ns", Reduce::Median),
            out("core.lb_propose_ns", "ns", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            let reject = per_op_ns(256, || {
                seq += 1;
                let decision = rejecting.handle_arrival(&heavy, seq, Time::ZERO).expect("fresh");
                assert!(!decision.is_accept(), "0.9 of a processor is over the bound");
            });
            let propose = per_op_ns(256, || {
                seq += 1;
                black_box(balancing.propose_assignment(&t9.tasks()[(seq % 9) as usize]));
            });
            vec![reject, propose]
        }),
    }
}

fn core_reconfigure_layer() -> Layer {
    let deep = DeepLedger::new();
    let mut flip = false;
    Layer {
        outputs: vec![out("core.reconfigure_deep_us", "us", Reduce::Median)],
        once: false,
        sample: Box::new(move || {
            flip = !flip;
            let target = services(if flip { "J_J_J" } else { "J_N_N" }).expect("static label");
            let (report, ns) = timed(|| deep.ac.reconfigure(target, deep.now(), &deep.tasks));
            black_box(report.expect("valid target"));
            vec![ns / 1e3]
        }),
    }
}

fn core_oracle_layer(seed: u64) -> Layer {
    Layer {
        outputs: vec![out("core.oracle_mismatches", "count", Reduce::Last)],
        once: true,
        sample: Box::new(move || {
            // The overloaded paper-shaped stream (rejections included)
            // through the incremental engine and the brute-force oracle.
            let workload = Workload::random(PAPER_SHAPE, TASK_SET_SEED).expect("paper shape");
            let trace = workload.trace(5.0, 0.5, Phases::Random, seed);
            let fast = controller("J_N_N", AdmissionMode::Incremental);
            let oracle = controller("J_N_N", AdmissionMode::BruteForce);
            let mut mismatches = 0u64;
            for arrival in trace.trace.iter() {
                let task = workload.tasks.get(arrival.task).expect("task of the set");
                fast.expire(arrival.time);
                oracle.expire(arrival.time);
                let a = fast.handle_arrival(task, arrival.seq, arrival.time).expect("fresh");
                let b = oracle.handle_arrival(task, arrival.seq, arrival.time).expect("fresh");
                mismatches += u64::from(a.is_accept() != b.is_accept());
            }
            vec![mismatches as f64]
        }),
    }
}

fn telemetry_layer() -> Layer {
    let histogram = Histogram::new();
    let trace = TraceBuffer::new(DEFAULT_TRACE_CAPACITY);
    let job = proto::job(4, 123_456);
    let mut n = 0u64;
    Layer {
        outputs: vec![
            out("telemetry.hist_record_ns", "ns", Reduce::Median),
            out("telemetry.trace_record_ns", "ns", Reduce::Median),
        ],
        once: false,
        sample: Box::new(move || {
            let hist = per_op_ns(1024, || {
                n += 1;
                histogram.record(black_box(200_000 + (n & 0xfff)));
            });
            // With a formatted detail string, as node and manager record it.
            let record = per_op_ns(256, || {
                n += 1;
                trace.record(n, n, 7, "release", format!("{job} on proc {}", n % 3));
            });
            vec![hist, record]
        }),
    }
}

fn sim_layer(seed: u64) -> Layer {
    let workload = Workload::random(SWEEP_SHAPE, TASK_SET_SEED).expect("sweep shape");
    let trace = workload.trace(120.0, 0.5, Phases::Together, seed);
    Layer {
        outputs: vec![
            out("sim.J_J_J.jobs_per_s", "1/s", Reduce::Median),
            out("sim.J_N_N.jobs_per_s", "1/s", Reduce::Median),
            out("sim.T_T_T.jobs_per_s", "1/s", Reduce::Median),
            out("sim.deadline_misses", "count", Reduce::Last),
        ],
        once: false,
        sample: Box::new(move || {
            let mut values = Vec::with_capacity(4);
            let mut misses = 0;
            for label in ["J_J_J", "J_N_N", "T_T_T"] {
                let (run, ns) = timed(|| simulate(&workload, &trace, label).expect("valid config"));
                values.push(trace.len() as f64 / (ns / 1e9));
                misses += run.deadline_misses();
            }
            values.push(misses as f64);
            values
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t9_has_nine_tasks_of_one_to_three_stages() {
        let t9 = Workload::t9().unwrap();
        assert_eq!(t9.task_count(), 9);
        for (t, task) in t9.tasks.tasks().iter().enumerate() {
            assert_eq!(task.subtasks().len(), 1 + t % 3);
            assert!(!task.is_periodic());
            assert!(task.subtasks().iter().all(|s| s.is_replicated()));
        }
    }

    #[test]
    fn fixed_task_set_with_seeded_arrivals() {
        let w = Workload::random(PAPER_SHAPE, TASK_SET_SEED).unwrap();
        assert_eq!(w.task_count(), 9);
        let a = w.trace(5.0, 0.5, Phases::Random, 1).arrivals();
        let b = w.trace(5.0, 0.5, Phases::Random, 1).arrivals();
        let c = w.trace(5.0, 0.5, Phases::Random, 2).arrivals();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.at_ns, x.task, x.seq) == (y.at_ns, y.task, y.seq)));
        assert!(a.iter().zip(&c).any(|(x, y)| x.at_ns != y.at_ns), "the seed moves arrivals");
    }

    #[test]
    fn every_layer_loop_yields_one_value_per_output() {
        for mut layer in layers(3) {
            let values = (layer.sample)();
            assert_eq!(values.len(), layer.outputs.len());
            for (value, output) in values.iter().zip(&layer.outputs) {
                assert!(value.is_finite() && *value >= 0.0, "{}: {value}", output.name);
                if output.name == "core.oracle_mismatches" {
                    assert_eq!(*value, 0.0);
                }
            }
        }
    }
}
