//! The runtime system: the DAnCE-style launcher that turns a
//! [`Deployment`] into running threads — one task-manager node plus one
//! node per application processor, wired by the federated event channel.

use std::collections::HashSet;
use std::fmt;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use serde::{Deserialize, Serialize};

use rtcm_config::Deployment;
use rtcm_core::admission::AdmissionController;
use rtcm_core::govern::GovernorPolicy;
use rtcm_core::priority::Priority;
use rtcm_core::reconfig::HandoverReport;
use rtcm_core::strategy::{InvalidConfigError, ServiceConfig};
use rtcm_core::task::{TaskId, TaskSet};
use rtcm_core::time::Duration;
use rtcm_events::{topics, ChannelHandle, Federation, Latency, NodeId};
use rtcm_telemetry::{OamRoutes, OamServer};

use crate::clock::{Clock, TimerDriver};
use crate::govern::{self, GovernorHandle};
use crate::lock;
use crate::manager::{Manager, ManagerConfig, ManagerCtl, ManagerLink};
use crate::node::{ExecMode, Node, NodeConfig};
use crate::proto::{self, ReconfigAbortReason};
use crate::reactor;
use crate::stats::{RtMetrics, SystemReport};

/// Runtime options.
#[derive(Debug, Clone, Copy)]
pub struct RtOptions {
    /// One-way network latency between nodes. Defaults to the paper's
    /// measured 283–361 µs band, [`Latency::FIGURE_8`], which the
    /// simulator's `OverheadModel::paper_calibrated` uses too, so one value
    /// configures both substrates. A `Latency::Uniform` with `hi <= lo`
    /// reads as `lo`.
    pub latency: Latency,
    /// How subtask execution consumes time.
    pub exec: ExecMode,
    /// Seed for latency jitter.
    pub seed: u64,
    /// How long a reconfiguration's prepare phase waits for node acks
    /// before aborting the swap (see [`System::reconfigure`]).
    pub reconfig_ack_timeout: StdDuration,
}

impl Default for RtOptions {
    fn default() -> Self {
        RtOptions {
            latency: Latency::FIGURE_8,
            exec: ExecMode::Sleep,
            seed: 0,
            reconfig_ack_timeout: StdDuration::from_secs(2),
        }
    }
}

impl RtOptions {
    /// Options for control-plane tests: no network latency, instant
    /// execution.
    #[must_use]
    pub fn fast() -> Self {
        RtOptions { latency: Latency::None, exec: ExecMode::Noop, ..RtOptions::default() }
    }
}

/// Errors from [`System::launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The deployment carries an invalid strategy combination (cannot occur
    /// for engine-built deployments).
    InvalidConfig(InvalidConfigError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Errors from [`System::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The task is not part of the deployment.
    UnknownTask {
        /// The offending id.
        task: TaskId,
    },
    /// The system is shutting down.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownTask { task } => write!(f, "unknown task {task}"),
            SubmitError::Closed => f.write_str("system is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Errors from [`System::reconfigure`]. A failed reconfiguration never
/// partially applies: either every node committed the new configuration,
/// or the system still runs the old one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigureError {
    /// The target combination violates the §4.5 validity rule.
    InvalidConfig(InvalidConfigError),
    /// The two-phase protocol aborted: the prepare quorum (every local
    /// node plus every registered bridged host) was not satisfied — a
    /// member stayed silent past the ack timeout, or vetoed the prepare.
    /// The old configuration stays in force everywhere.
    Aborted {
        /// Why the swap was abandoned.
        reason: ReconfigAbortReason,
        /// Quorum members (local nodes + remote hosts) that acked in time.
        acked: usize,
        /// Quorum members expected to ack.
        expected: usize,
    },
    /// The system is shutting down.
    Closed,
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::InvalidConfig(e) => write!(f, "{e}"),
            ReconfigureError::Aborted { reason, acked, expected } => write!(
                f,
                "reconfiguration aborted ({reason}): {acked} of {expected} quorum members \
                 acknowledged the prepare phase"
            ),
            ReconfigureError::Closed => f.write_str("system is shut down"),
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// Outcome of one completed [`System::reconfigure`] call — the transition
/// cost of the swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// The protocol epoch of this swap.
    pub epoch: u64,
    /// What the admission-state handover did (entries carried,
    /// reservations drained/reseeded, ...).
    pub handover: HandoverReport,
    /// Reconfigure request at the AC → commit published.
    pub swap_latency: Duration,
    /// Admission decisions deferred during the prepare window and decided
    /// under the new configuration after commit.
    pub decisions_deferred: u64,
    /// Jobs somewhere between arrival and completion at the commit point —
    /// all carried across the swap with their guarantees intact.
    pub jobs_in_flight: i64,
    /// Local nodes that acknowledged the prepare phase (always all of them
    /// for a committed swap).
    pub acked_nodes: usize,
    /// Registered bridged hosts that acknowledged the prepare phase
    /// (always all of them for a committed swap).
    pub acked_remote: usize,
}

impl fmt::Display for ReconfigReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "swap #{} ({}) in {}: {} decisions deferred, {} jobs in flight",
            self.epoch,
            self.handover,
            self.swap_latency,
            self.decisions_deferred,
            self.jobs_in_flight
        )
    }
}

/// A running middleware system. A [`crate::host::Host`] holds one whose
/// handlers it steps itself, on no thread of their own.
///
/// # Examples
///
/// ```
/// use rtcm_config::{configure, CpsCharacteristics, WorkloadSpec};
/// use rtcm_rt::{RtOptions, System};
/// use rtcm_core::task::TaskId;
///
/// let spec = WorkloadSpec::parse(
///     "workload demo\nprocessors 2\n\
///      task scan periodic period=50ms\n  subtask exec=1ms proc=0 replicas=1\n",
/// )?;
/// let deployment = configure(&spec, &CpsCharacteristics::default())?;
/// let system = System::launch(&deployment, RtOptions::fast())?;
///
/// system.submit(TaskId(0), 0)?;
/// assert!(system.quiesce(std::time::Duration::from_secs(5)));
/// let report = system.shutdown();
/// assert_eq!(report.jobs_completed, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct System {
    tasks: Arc<TaskSet>,
    /// The manager's control channel: swap requests, governor attach /
    /// detach, shutdown.
    pub(crate) manager: ManagerLink,
    driver: Arc<dyn TimerDriver + Send + Sync>,
    /// The active configuration; written by the manager at each commit.
    services: Arc<Mutex<ServiceConfig>>,
    stats: Arc<RtMetrics>,
    federation: Federation,
    remote_voters: Arc<Mutex<HashSet<u64>>>,
    /// One channel handle per application processor: `submit` publishes
    /// injected arrivals on the processor's reserved inject topic, and
    /// shutdown publishes its control topic — launcher↔node traffic rides
    /// the same event fast path as everything else.
    node_handles: Vec<ChannelHandle>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("services", &self.services().label())
            .field("processors", &self.node_handles.len())
            .finish()
    }
}

impl System {
    /// Launches all nodes of `deployment` (the runtime half of DAnCE's
    /// plan-launcher → node-application pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::InvalidConfig`] if the deployment's strategy
    /// combination is invalid — impossible for deployments built by
    /// `rtcm-config`, which validates first.
    pub fn launch(deployment: &Deployment, options: RtOptions) -> Result<Self, LaunchError> {
        let federation = Federation::new(deployment.processors + 1, options.latency, options.seed);
        let (mut system, manager, nodes) = wire(deployment, options, federation, &Clock::new())?;
        system.handles.push(reactor::spawn("rtcm-manager".into(), manager));
        for (p, node) in nodes.into_iter().enumerate() {
            system.handles.push(reactor::spawn(format!("rtcm-app-{p}"), node));
        }
        Ok(system)
    }

    /// The active strategy combination (reflects runtime reconfiguration:
    /// exact as soon as [`System::reconfigure`] returns).
    #[must_use]
    pub fn services(&self) -> ServiceConfig {
        *lock(&self.services)
    }

    /// Hot-swaps the **full service configuration** of the running system
    /// — the paper's §5 run-time attribute modification generalized from
    /// the IR axis to all three — via a quiesce-free two-phase protocol
    /// over the federated event channel (see DESIGN.md "Live
    /// reconfiguration"):
    ///
    /// 1. **Prepare**: the AC publishes a fence on `topics::RECONFIG`;
    ///    every node disables its task-effector fast path and acks.
    ///    Arrivals keep flowing (they are deferred at the AC), running
    ///    subjobs keep executing — nothing quiesces.
    /// 2. **Commit**: once all nodes acked, the admission controller
    ///    executes the ledger handover (reservations drained/reseeded,
    ///    every admitted job's contributions — and guarantee — carried),
    ///    the commit is published, nodes adopt the new configuration, and
    ///    deferred decisions are made under it.
    ///
    /// If a quorum member fails to ack within
    /// `RtOptions::reconfig_ack_timeout` (or vetoes the prepare), the swap
    /// **aborts**: an abort event lifts the fences, the old configuration
    /// stays in force everywhere, and [`ReconfigureError::Aborted`] is
    /// returned with the reason — there is no partially applied state.
    ///
    /// Bridging `topics::RECONFIG` through a TCP gateway
    /// (`rtcm_events::remote`) makes the swap observable on remote
    /// federations, the paper's multi-host testbed topology. Bridging
    /// `topics::RECONFIG_ACK` *back* and registering the remote host via
    /// [`System::register_remote_voter`] upgrades that host from observer
    /// to **voting prepare-quorum member** (see `rtcm_rt::quorum`): its
    /// ack becomes required for commit, and withholding it aborts the
    /// swap with [`ReconfigAbortReason::AckTimeout`].
    ///
    /// # Errors
    ///
    /// [`ReconfigureError::InvalidConfig`] for §4.5-invalid targets
    /// (checked before anything is touched),
    /// [`ReconfigureError::Aborted`] for aborted swaps,
    /// [`ReconfigureError::Closed`] after shutdown began.
    pub fn reconfigure(&self, target: ServiceConfig) -> Result<ReconfigReport, ReconfigureError> {
        // Concurrent requests (other callers, a governor) wait their turn
        // in the manager's queue; validation lives there too.
        let (reply, outcome) = channel();
        if !self.manager.send(ManagerCtl::Reconfigure { target, reply }) {
            return Err(ReconfigureError::Closed);
        }
        outcome.recv().map_err(|_| ReconfigureError::Closed)?
    }

    /// Attaches an **adaptation governor** that closes the sensing →
    /// policy → actuation loop every `window`, on the manager thread (see
    /// [`crate::govern`]): it senses the window as the simulator does
    /// (`rtcm_sim::SimOptions::governor`), evaluates `policy` unless a
    /// swap is already pending, and actuates through the same two-phase
    /// protocol and queue as [`System::reconfigure`].
    ///
    /// The returned [`GovernorHandle`] logs every decision with its
    /// outcome; dropping it (or calling [`GovernorHandle::stop`]) detaches
    /// the governor. A decision still pending when the system shuts down
    /// is logged as [`ReconfigureError::Closed`].
    ///
    /// # Errors
    ///
    /// Returns [`rtcm_core::govern::PolicyError`] for unusable policies
    /// (invalid targets, zero hysteresis, non-finite thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero ("governor window must be positive"),
    /// as `rtcm_sim::simulate_with` does: a zero-width window would close
    /// forever at one instant.
    pub fn spawn_governor(
        &self,
        policy: GovernorPolicy,
        window: StdDuration,
    ) -> Result<GovernorHandle, rtcm_core::govern::PolicyError> {
        assert!(!window.is_zero(), "governor window must be positive");
        govern::attach(policy, window, &self.manager, self.driver.now_ns())
    }

    /// Registers a TCP-bridged federation (by its `Federation::host_id`)
    /// as a **required voting member** of every subsequent
    /// reconfiguration's prepare quorum. The bridge must forward
    /// `topics::RECONFIG` out and `topics::RECONFIG_ACK` back, and the
    /// remote side must run a `rtcm_rt::quorum::QuorumMember` (or a full
    /// system's equivalent) to cast the vote. A swap already in its
    /// prepare window keeps the voter set it started with.
    ///
    /// # Panics
    ///
    /// Panics if `host` is this system's own host id: local nodes already
    /// vote under it (and a same-federation `QuorumMember` ignores
    /// own-host prepares), so registering it could never be satisfied and
    /// would wedge every subsequent swap into an ack-timeout abort.
    pub fn register_remote_voter(&self, host: u64) {
        assert_ne!(
            host,
            self.host_id(),
            "register_remote_voter takes a *remote* federation's host id; this system's own \
             nodes already vote under {host}"
        );
        lock(&self.remote_voters).insert(host);
    }

    /// Removes a bridged federation from the prepare quorum (e.g. after a
    /// planned partition). Unknown ids are ignored.
    pub fn deregister_remote_voter(&self, host: u64) {
        lock(&self.remote_voters).remove(&host);
    }

    /// Registered remote voting hosts.
    #[must_use]
    pub fn remote_voter_count(&self) -> usize {
        lock(&self.remote_voters).len()
    }

    /// This system's federation host identity (convenience for wiring
    /// cross-host quorums).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.federation.host_id()
    }

    /// The federated event channel this system runs on. Exposed so callers
    /// can bridge topics (e.g. `topics::RECONFIG`) to other hosts over TCP
    /// via `rtcm_events::remote`.
    #[must_use]
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The deployed task set.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Injects job `seq` of `task` at the task effector of its arrival
    /// processor (its first subtask's primary).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTask`] if the task is not deployed;
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, task: TaskId, seq: u64) -> Result<(), SubmitError> {
        let spec = self.tasks.get(task).ok_or(SubmitError::UnknownTask { task })?;
        let proc = spec.subtasks()[0].primary.index();
        let handle = self.node_handles.get(proc).ok_or(SubmitError::Closed)?;
        // Count the job in *before* handing it to the node thread so that
        // quiesce() cannot observe a spuriously empty system.
        self.stats.job_in();
        // One deterministic trace id follows the job through every stage
        // (arrival, admission, release, completion) on every host.
        let msg = proto::InjectMsg {
            task,
            seq,
            trace: proto::mint_trace(self.federation.host_id(), task, seq),
        };
        // Delivered count 0 means the node's mailbox is gone (thread
        // exited): the system is shutting down.
        if handle.publish(topics::inject(proc as u16), proto::encode(&msg)) > 0 {
            Ok(())
        } else {
            self.stats.job_out();
            Err(SubmitError::Closed)
        }
    }

    /// Replays an arrival trace against wall-clock time, sped up by
    /// `speed` (1.0 = real time, 10.0 = ten times faster). Blocks until the
    /// last arrival has been submitted; call [`System::quiesce`] afterwards
    /// to wait for completions.
    ///
    /// Note that speeding up a trace compresses interarrival gaps but not
    /// execution times or deadlines, so high speed factors overload the
    /// system — useful deliberately, e.g. for stress tests.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SubmitError`]; already-submitted arrivals
    /// keep running.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn replay(
        &self,
        trace: &rtcm_workload::ArrivalTrace,
        speed: f64,
    ) -> Result<(), SubmitError> {
        assert!(speed.is_finite() && speed > 0.0, "replay speed must be positive");
        let start = Instant::now();
        for arrival in trace.iter() {
            let due = StdDuration::from_nanos(replay_due_ns(arrival.time.as_nanos(), speed));
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            self.submit(arrival.task, arrival.seq)?;
        }
        Ok(())
    }

    /// Jobs currently between arrival and completion/rejection.
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.stats.in_flight()
    }

    /// Waits until no jobs are in flight. Returns false on timeout.
    ///
    /// This blocks on the drained-notification from the last completing
    /// job (no polling): the caller wakes *at* the completion, not up to a
    /// poll period later.
    #[must_use]
    pub fn quiesce(&self, timeout: StdDuration) -> bool {
        self.stats.wait_quiet(timeout)
    }

    /// Snapshot of the statistics so far, with the federation's
    /// event-path counters (publishes, fan-out deliveries, backpressure
    /// drops, remote parcels, bridge errors/disconnects) merged in.
    #[must_use]
    pub fn stats(&self) -> SystemReport {
        let (mut report, events) = (self.stats.snapshot(), self.federation.stats());
        report.events_published = events.events_published;
        report.events_delivered = events.local_deliveries;
        report.remote_parcels = events.remote_parcels;
        report.bridge_rx_errors = events.bridge_rx_errors;
        report.bridge_disconnects = events.bridge_disconnects;
        report.bridge_tx_dropped = events.bridge_tx_dropped;
        report
    }

    /// The live telemetry plane: every counter, gauge and histogram the
    /// runtime records into, plus the job trace buffer. Reading a metric
    /// is an atomic load; no report lock exists to contend on.
    #[must_use]
    pub fn telemetry(&self) -> &RtMetrics {
        &self.stats
    }

    /// Mounts the OAM scrape endpoint on `addr` (port 0 for an
    /// OS-assigned port): `GET /metrics` serves the Prometheus-style text
    /// exposition of every registry row plus the federation's event-path
    /// counters, and `GET /trace` serves the job tracer's JSON-lines dump.
    /// The endpoint outlives this system gracefully: scrapes after
    /// shutdown serve the final counters.
    ///
    /// # Errors
    ///
    /// I/O errors from binding `addr`.
    pub fn serve_oam(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<OamServer> {
        self.stats.registry().set_build_info(vec![
            ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
            ("config".to_string(), self.services().label()),
            ("host".to_string(), self.host_id().to_string()),
        ]);
        let stats = Arc::clone(&self.stats);
        let channel = self.federation.handle(NodeId(0)).expect("node 0 exists");
        let trace = Arc::clone(&self.stats.trace);
        OamServer::start(
            addr,
            OamRoutes {
                metrics: Arc::new(move || stats.render_exposition(&channel.federation_stats())),
                trace: Arc::new(move || trace.dump_json_lines()),
            },
        )
    }

    /// Stops all node threads and returns the final report.
    #[must_use]
    pub fn shutdown(mut self) -> SystemReport {
        self.stop_threads();
        self.stats()
    }

    fn stop_threads(&mut self) {
        self.manager.send(ManagerCtl::Shutdown);
        for (p, handle) in self.node_handles.iter().enumerate() {
            let _ = handle.publish(topics::node_ctl(p as u16), &b""[..]);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// The handlers of `deployment` on `federation`, each on a copy of `driver`, and the
/// [`System`] fronting them, with no thread yet: the manager on `NodeId(0)`, application
/// processor `p` on `NodeId(p + 1)`. `System::launch` spawns them; the host steps them.
pub(crate) fn wire<D: TimerDriver + Clone + Send + Sync + 'static>(
    deployment: &Deployment,
    options: RtOptions,
    federation: Federation,
    driver: &D,
) -> Result<Wired<D>, LaunchError> {
    let procs = deployment.processors;
    let tasks = Arc::new(deployment.tasks.clone());
    // By task position, the form the nodes index.
    let priorities: Arc<Vec<Priority>> =
        Arc::new(tasks.iter().map(|t| deployment.priorities[&t.id()]).collect());
    let services = deployment.services;
    let stats = Arc::new(RtMetrics::new());
    let (mgr_ctl_tx, mgr_ctl_rx) = channel();
    let remote_voters: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let active = Arc::new(Mutex::new(services));
    // Subscribe every consumer here, before any handler runs, so no early
    // publication can be dropped for lack of subscribers.
    let mgr_channel = federation.handle(NodeId(0)).expect("node 0 exists");
    let mgr_mailbox = mgr_channel.subscribe_many(&[
        topics::TASK_ARRIVE,
        topics::IDLE_RESET,
        topics::RECONFIG_ACK,
        topics::MANAGER_WAKE,
    ]);
    let manager = ManagerLink { ctl: mgr_ctl_tx, wake: mgr_channel.clone() };
    let mgr_cfg = ManagerConfig {
        ac: AdmissionController::new(services, procs as usize)
            .map_err(LaunchError::InvalidConfig)?,
        tasks: Arc::clone(&tasks),
        channel: mgr_channel,
        stats: Arc::clone(&stats),
        processors: procs,
        ack_timeout: options.reconfig_ack_timeout,
        remote_voters: Arc::clone(&remote_voters),
        services: Arc::clone(&active),
        ctl_rx: mgr_ctl_rx,
        mailbox: mgr_mailbox,
    };
    let (mut node_handles, mut nodes) = (Vec::new(), Vec::new());
    for p in 0..procs {
        let channel = federation.handle(NodeId(p + 1)).expect("app nodes exist");
        let mailbox = channel.subscribe_many(&[
            topics::ACCEPT,
            topics::REJECT,
            topics::TRIGGER,
            topics::RECONFIG,
            topics::inject(p),
            topics::node_ctl(p),
        ]);
        node_handles.push(channel.clone());
        let cfg = NodeConfig {
            processor: p,
            services,
            tasks: Arc::clone(&tasks),
            priorities: Arc::clone(&priorities),
            channel,
            stats: Arc::clone(&stats),
            exec: options.exec,
            mailbox,
        };
        nodes.push(Node::new(cfg, driver.clone()));
    }
    let system = System {
        tasks,
        manager,
        driver: Arc::new(driver.clone()),
        services: active,
        stats,
        federation,
        remote_voters,
        node_handles,
        handles: Vec::new(),
    };
    Ok((system, Manager::new(mgr_cfg, driver.clone()), nodes))
}

type Wired<D> = (System, Manager<D>, Vec<Node<D>>);

/// Scaled due time for a replayed arrival: `nanos / speed` in u128 integer
/// math. The speed factor is held as the rational `num / 1e9`, so every
/// nanosecond timestamp divides exactly — the old `as f64 / speed` path
/// lost nanosecond precision above 2^53 ns (~104 days of trace time) and
/// let long-trace arrival schedules drift.
fn replay_due_ns(nanos: u64, speed: f64) -> u64 {
    const SCALE: u128 = 1_000_000_000;
    // speed > 0 is asserted by the caller; max(1) guards sub-1e-9 factors.
    let num = ((speed * SCALE as f64).round() as u128).max(1);
    let due = (u128::from(nanos) * SCALE + num / 2) / num;
    u64::try_from(due).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::replay_due_ns;

    #[test]
    fn replay_due_matches_plain_division_at_small_scales() {
        assert_eq!(replay_due_ns(1_000, 10.0), 100);
        assert_eq!(replay_due_ns(1_000, 0.5), 2_000);
        assert_eq!(replay_due_ns(999, 1.0), 999);
        assert_eq!(replay_due_ns(0, 3.0), 0);
    }

    #[test]
    fn replay_due_is_exact_beyond_f64_precision() {
        // 2^60 + 12345 ns ≈ 36 years of trace time. f64 has a 53-bit
        // mantissa, so the old float path quantized this to a multiple of
        // 128 ns; integer math must not.
        let t = (1u64 << 60) + 12_345;
        assert_eq!(replay_due_ns(t, 1.0), t);
        let drifted = (t as f64 / 1.0).round() as u64;
        assert_ne!(drifted, t, "float path demonstrably drifts at this scale");
    }

    #[test]
    fn replay_due_keeps_large_interarrival_gaps_distinct() {
        // Two arrivals 10 ns apart at a large offset must stay distinct
        // and ordered after scaling — the float path collapsed them.
        let base = (1u64 << 59) + 7;
        let a = replay_due_ns(base, 2.0);
        let b = replay_due_ns(base + 10, 2.0);
        assert_eq!(b - a, 5);
    }

    #[test]
    fn replay_due_saturates_rather_than_wrapping() {
        assert_eq!(replay_due_ns(u64::MAX, 1e-9), u64::MAX);
    }
}
