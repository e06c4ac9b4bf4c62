//! The report plane of both substrates, including the per-operation delay
//! accounting behind the paper's Figure 8.
//!
//! Every row lives in one place, the lock-free [`RtMetrics`] registry
//! (`rtcm-telemetry`): per-job counters, the utilization ratio parts and
//! every per-operation delay series, recorded by nodes, the manager and
//! reactor threads with a couple of relaxed atomic adds, and the
//! once-per-swap and once-per-window rows (reconfiguration outcomes,
//! governor windows and gauges), which only the manager thread writes.
//! The simulator books the same registry (`SimRun::telemetry`), all but
//! the per-operation rows, and on both substrates a governor window
//! closes through [`RtMetrics::sense`].
//! The histograms keep exact counts, sums and extremes, so
//! [`RtMetrics::snapshot`] reads the familiar [`DelayStats`] mean/min/max
//! rows losslessly into a [`SystemReport`], and additionally serves
//! p50/p90/p99/p999 within log2-bucket resolution.
//!
//! [`RtMetrics::render_exposition`] renders the registry plus the
//! federation's event-path rows ([`render_federation`]) as one
//! Prometheus-style text page for the OAM endpoint.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration as StdDuration, Instant};

use serde::{Deserialize, Serialize};

use rtcm_core::admission::AdmissionController;
use rtcm_core::govern::{CumulativeLoad, Governor, WindowMetrics};
use rtcm_core::metrics::{DelayStats, UtilizationRatio};
use rtcm_core::time::{Duration, Time};
use rtcm_events::FederationStats;
use rtcm_telemetry::{
    Counter, Exposition, Gauge, Histogram, HistogramSnapshot, Registry, TraceBuffer,
};

use crate::lock;
use crate::proto::{DecodeErrors, MsgKind, ReconfigAbortReason};

/// Per-reason counts of abandoned reconfigurations, so a governor's
/// failed actuations are diagnosable from the report alone: `ack_timeout`
/// and `foreign_coordinator` count protocol aborts (a prepare was
/// published and rolled back — these also increment
/// [`SystemReport::reconfig_aborts`]); `validation` counts targets
/// refused before any phase was published.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigAbortBreakdown {
    /// Prepare quorum incomplete at the ack deadline (a node or a
    /// registered bridged host never voted).
    pub ack_timeout: u64,
    /// Target failed the §4.5 validity rule.
    pub validation: u64,
    /// A quorum member refused the prepare because it was fenced for a
    /// different coordinator's in-flight swap.
    pub foreign_coordinator: u64,
}

impl ReconfigAbortBreakdown {
    /// Total failed reconfiguration attempts across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ack_timeout + self.validation + self.foreign_coordinator
    }
}

/// Snapshot of everything the runtime measured.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Accepted utilization ratio (arrivals weighted by `Σ C/D`).
    pub ratio: UtilizationRatio,
    /// End-to-end response times of completed jobs.
    pub response: DelayStats,
    /// Jobs that completed their last subtask.
    pub jobs_completed: u64,
    /// Completed jobs that missed their end-to-end deadline.
    pub deadline_misses: u64,
    /// Accepted jobs released on a non-primary placement.
    pub reallocations: u64,
    /// Idle-reset reports applied by the manager.
    pub ir_reports: u64,

    /// Op 1: TE hold + "Task Arrive" publish cost.
    pub hold: DelayStats,
    /// Op 2: one-way event-channel delay (TE → AC), measured directly on
    /// the shared clock.
    pub comm: DelayStats,
    /// Op 3: LB plan generation, per fresh test under load balancing.
    pub lb_plan: DelayStats,
    /// Op 4: admission test, expiry included, per decision.
    pub ac_test: DelayStats,
    /// Op 5/6: release of the first subjob at the TE.
    pub release: DelayStats,
    /// Op 7 + comm: idle-report assembly and delivery (app side; runs in
    /// idle time).
    pub ir_path: DelayStats,
    /// Op 8: synthetic-utilization update at the AC.
    pub ir_update: DelayStats,
    /// Total arrival→release delay when the job ran on its arrival
    /// processor (AC path without re-allocation).
    pub total_no_realloc: DelayStats,
    /// Total arrival→release delay when the first stage was re-allocated to
    /// a duplicate on another processor.
    pub total_realloc: DelayStats,

    /// Completed live `ServiceConfig` swaps (two-phase protocol runs that
    /// reached commit).
    pub reconfig_swaps: u64,
    /// Swaps abandoned because a node never acknowledged the prepare
    /// phase.
    pub reconfig_aborts: u64,
    /// End-to-end swap latency: reconfigure request at the AC → commit
    /// published (one sample per completed swap).
    pub reconfig_latency: DelayStats,
    /// Admission decisions deferred during prepare windows (arrivals held
    /// at the AC and decided under the new configuration after commit).
    pub reconfig_deferred: u64,
    /// Largest number of jobs in flight observed at the commit point of
    /// any swap — how much live work each handover carried.
    pub reconfig_max_inflight: i64,
    /// Per-reason breakdown of failed reconfiguration attempts (ack
    /// timeout vs. validation vs. foreign coordinator).
    pub reconfig_abort_reasons: ReconfigAbortBreakdown,

    /// Gauge: AUB headroom `1 − max_p U_p` over the admission ledger's
    /// per-processor synthetic utilizations. Refreshed by the manager at
    /// each governor window boundary (after expiring the current set), so
    /// the decision hot paths pay nothing for sensing; 0 until an attached
    /// governor closes its first window.
    pub aub_slack: f64,
    /// Gauge: synthetic-utilization spread `max_p U_p − min_p U_p`,
    /// refreshed alongside [`SystemReport::aub_slack`].
    pub util_imbalance: f64,
    /// Sensing windows closed by an attached adaptation governor.
    pub governor_windows: u64,
    /// Committed swaps initiated by the governor (a subset of
    /// [`SystemReport::reconfig_swaps`]).
    pub governor_swaps: u64,
    /// Governor window boundaries the manager overran entirely (each
    /// skipped boundary counts once). Windows are scheduled on absolute
    /// deadlines, so an overrun shifts no subsequent boundary.
    pub governor_overruns: u64,

    /// Events published through the federation (every protocol message —
    /// arrivals, decisions, triggers, IR reports, reconfig phases,
    /// injected submissions — crosses the event fast path once).
    pub events_published: u64,
    /// Per-subscriber fan-out deliveries (local pushes plus delivered
    /// remote parcels).
    pub events_delivered: u64,
    /// Always 0: every subscription is an unbounded queue, so the event
    /// path drops nothing. Kept only because the benchmark adapter reads
    /// it (ROADMAP item 1(ix) retires it).
    pub events_dropped: u64,
    /// Parcels handed to the in-process network for cross-node delivery.
    pub remote_parcels: u64,
    /// Corrupt or undecodable frames received on this host's TCP bridges
    /// (each one closes its link).
    pub bridge_rx_errors: u64,
    /// TCP bridge links torn down for any reason (peer loss, write
    /// failure, corrupt frame, or local shutdown).
    pub bridge_disconnects: u64,
    /// Outbound events a bridge dropped for exceeding the wire frame
    /// limit.
    pub bridge_tx_dropped: u64,

    /// Timer-deadline wakeups performed by reactor threads (subjob
    /// completions, prepare-fence deadlines, governor window boundaries),
    /// one per deadline. An **idle** system records none: every thread
    /// parks on its mailbox with no pending timer, where the polling
    /// design paid ~2000 wakeups/s/node. Pinned by the zero-wakeup runtime
    /// test.
    pub timer_wakeups: u64,
}

/// The one report plane of the runtime and the simulator: every row they
/// measure lives here as an atomic counter, gauge or log2 latency histogram from
/// `rtcm-telemetry`, registered under a stable `rtcm_*` exposition name,
/// beside the in-flight gate that [`System::quiesce`](crate::System::quiesce)
/// blocks on. [`RtMetrics::snapshot`] reads the registry into a
/// [`SystemReport`]; the OAM endpoint renders it with full bucket
/// distributions ([`RtMetrics::render_exposition`]).
#[derive(Debug)]
pub struct RtMetrics {
    registry: Arc<Registry>,
    /// The bounded job/reconfig tracer shared by every thread of one
    /// system (arrival → admission → (re)allocation → release →
    /// completion, plus reconfiguration phases).
    pub trace: Arc<TraceBuffer>,

    /// Σ C/D of arrived jobs ([`UtilizationRatio`] numerator part).
    pub arrived_utilization: Arc<Gauge>,
    /// Σ C/D of released (admitted) jobs.
    pub released_utilization: Arc<Gauge>,
    /// Current registry entries of the admission controller (jobs whose
    /// deadlines have not passed, idle-reset or not, plus reservations) —
    /// what one admission decision's bookkeeping walks. Set by the manager
    /// after each arrival and idle-reset report.
    pub admission_live_entries: Arc<Gauge>,
    /// Jobs arrived (count behind the ratio).
    pub arrived_jobs: Arc<Counter>,
    /// Jobs released (count behind the ratio).
    pub released_jobs: Arc<Counter>,
    /// Jobs that completed their last subtask.
    pub jobs_completed: Arc<Counter>,
    /// Completed jobs that missed their end-to-end deadline.
    pub deadline_misses: Arc<Counter>,
    /// Accepted jobs released on a non-primary placement.
    pub reallocations: Arc<Counter>,
    /// Idle-reset reports applied by the manager.
    pub ir_reports: Arc<Counter>,
    /// Timer-deadline wakeups performed by reactor threads.
    pub timer_wakeups: Arc<Counter>,
    /// Mailbox payloads the manager or a node dropped because they did
    /// not decode, per message kind.
    pub decode_errors: DecodeErrors,

    /// End-to-end response times (ns).
    pub response: Arc<Histogram>,
    /// Op 1: TE hold + publish cost (ns).
    pub hold: Arc<Histogram>,
    /// Op 2: one-way TE → AC event delay (ns).
    pub comm: Arc<Histogram>,
    /// Op 3: LB plan generation (ns), per fresh test under LB.
    pub lb_plan: Arc<Histogram>,
    /// Op 4: admission test, expiry included (ns), per decision.
    pub ac_test: Arc<Histogram>,
    /// Op 5/6: first-subjob release at the TE (ns).
    pub release: Arc<Histogram>,
    /// Op 7 + comm: idle-report assembly and delivery (ns).
    pub ir_path: Arc<Histogram>,
    /// Op 8: synthetic-utilization update (ns).
    pub ir_update: Arc<Histogram>,
    /// Arrival→release total, no re-allocation (ns).
    pub total_no_realloc: Arc<Histogram>,
    /// Arrival→release total with re-allocation (ns).
    pub total_realloc: Arc<Histogram>,
    /// End-to-end two-phase swap latency (ns).
    pub reconfig_latency: Arc<Histogram>,

    // Once-per-swap and once-per-window rows. The manager thread is their
    // only writer, so the governor reads them as consistently as it
    // writes them; a concurrent scrape may see a swap or window
    // half-booked, as it may see a job's hot rows mid-job.
    /// [`SystemReport::reconfig_swaps`].
    pub reconfig_swaps: Arc<Counter>,
    /// [`SystemReport::reconfig_aborts`].
    pub reconfig_aborts: Arc<Counter>,
    /// [`ReconfigAbortBreakdown::ack_timeout`].
    pub reconfig_aborts_ack_timeout: Arc<Counter>,
    /// [`ReconfigAbortBreakdown::validation`].
    pub reconfig_aborts_validation: Arc<Counter>,
    /// [`ReconfigAbortBreakdown::foreign_coordinator`].
    pub reconfig_aborts_foreign_coordinator: Arc<Counter>,
    /// [`SystemReport::reconfig_deferred`].
    pub reconfig_deferred: Arc<Counter>,
    /// [`SystemReport::reconfig_max_inflight`].
    pub reconfig_max_inflight: Arc<Gauge>,
    /// [`SystemReport::aub_slack`].
    pub aub_slack: Arc<Gauge>,
    /// [`SystemReport::util_imbalance`].
    pub util_imbalance: Arc<Gauge>,
    /// [`SystemReport::governor_windows`].
    pub governor_windows: Arc<Counter>,
    /// [`SystemReport::governor_swaps`].
    pub governor_swaps: Arc<Counter>,
    /// [`SystemReport::governor_overruns`].
    pub governor_overruns: Arc<Counter>,

    in_flight: AtomicI64,
    /// Completion notification: `job_out` reaching zero in-flight jobs
    /// notifies here, so `wait_quiet` blocks instead of polling.
    quiet: Mutex<()>,
    quiet_cv: Condvar,
}

impl Default for RtMetrics {
    fn default() -> Self {
        RtMetrics::new()
    }
}

impl RtMetrics {
    /// Builds the registry with every runtime metric registered under its
    /// exposition name. Registration order is the order of the page's
    /// registry section.
    #[must_use]
    pub fn new() -> Self {
        let r = Registry::new();
        RtMetrics {
            arrived_jobs: r.counter("rtcm_jobs_arrived_total", "Jobs injected at task effectors."),
            released_jobs: r
                .counter("rtcm_jobs_released_total", "Admitted jobs released for execution."),
            jobs_completed: r
                .counter("rtcm_jobs_completed_total", "Jobs that completed their last subtask."),
            deadline_misses: r.counter(
                "rtcm_deadline_misses_total",
                "Completed jobs that missed their end-to-end deadline.",
            ),
            reallocations: r.counter(
                "rtcm_reallocations_total",
                "Accepted jobs released on a non-primary placement.",
            ),
            ir_reports: r
                .counter("rtcm_ir_reports_total", "Idle-reset reports applied by the manager."),
            timer_wakeups: r.counter(
                "rtcm_timer_wakeups_total",
                "Timer-deadline wakeups performed by reactor threads.",
            ),
            arrived_utilization: r.gauge(
                "rtcm_arrived_utilization",
                "Cumulative utilization weight (sum C/D) of arrived jobs.",
            ),
            released_utilization: r.gauge(
                "rtcm_released_utilization",
                "Cumulative utilization weight (sum C/D) of released jobs.",
            ),
            admission_live_entries: r.gauge(
                "rtcm_admission_live_entries",
                "Current admission registry entries (unexpired jobs plus reservations).",
            ),
            response: r
                .histogram("rtcm_response_ns", "End-to-end response time of completed jobs."),
            hold: r.histogram("rtcm_op_hold_ns", "Op 1: TE hold plus Task-Arrive publish cost."),
            comm: r.histogram("rtcm_op_comm_ns", "Op 2: one-way TE to AC event-channel delay."),
            lb_plan: r.histogram("rtcm_op_lb_plan_ns", "Op 3: LB plan generation."),
            ac_test: r.histogram("rtcm_op_ac_test_ns", "Op 4: admission test, expiry included."),
            release: r.histogram("rtcm_op_release_ns", "Op 5/6: first-subjob release at the TE."),
            ir_path: r
                .histogram("rtcm_op_ir_path_ns", "Op 7 plus comm: idle-report assembly/delivery."),
            ir_update: r.histogram("rtcm_op_ir_update_ns", "Op 8: synthetic-utilization update."),
            total_no_realloc: r.histogram(
                "rtcm_total_no_realloc_ns",
                "Arrival-to-release total without re-allocation.",
            ),
            total_realloc: r
                .histogram("rtcm_total_realloc_ns", "Arrival-to-release total with re-allocation."),
            reconfig_latency: r
                .histogram("rtcm_reconfig_latency_ns", "End-to-end two-phase swap latency."),
            reconfig_swaps: r
                .counter("rtcm_reconfig_swaps_total", "Committed two-phase configuration swaps."),
            reconfig_aborts: r
                .counter("rtcm_reconfig_aborts_total", "Two-phase swaps abandoned mid-protocol."),
            reconfig_aborts_ack_timeout: r.counter(
                "rtcm_reconfig_aborts_ack_timeout_total",
                "Aborts: prepare quorum incomplete at the ack deadline.",
            ),
            reconfig_aborts_validation: r.counter(
                "rtcm_reconfig_aborts_validation_total",
                "Aborts: target refused by the validity rule.",
            ),
            reconfig_aborts_foreign_coordinator: r.counter(
                "rtcm_reconfig_aborts_foreign_coordinator_total",
                "Aborts: a quorum member was fenced for another coordinator.",
            ),
            reconfig_deferred: r.counter(
                "rtcm_reconfig_deferred_total",
                "Admission decisions deferred during prepare windows.",
            ),
            reconfig_max_inflight: r.gauge(
                "rtcm_reconfig_max_inflight",
                "Largest in-flight job count observed at any commit point.",
            ),
            aub_slack: r.gauge("rtcm_aub_slack", "AUB headroom (1 - max synthetic utilization)."),
            util_imbalance: r
                .gauge("rtcm_util_imbalance", "Synthetic-utilization spread across processors."),
            governor_windows: r.counter(
                "rtcm_governor_windows_total",
                "Sensing windows closed by the adaptation governor.",
            ),
            governor_swaps: r
                .counter("rtcm_governor_swaps_total", "Committed swaps initiated by the governor."),
            governor_overruns: r.counter(
                "rtcm_governor_overruns_total",
                "Governor window boundaries overrun by sense+actuate work.",
            ),
            trace: Arc::new(TraceBuffer::new(rtcm_telemetry::DEFAULT_TRACE_CAPACITY)),
            decode_errors: DecodeErrors::default(),
            registry: Arc::new(r),
            in_flight: AtomicI64::new(0),
            quiet: Mutex::new(()),
            quiet_cv: Condvar::new(),
        }
    }

    /// The underlying registry (for build-info labels and rendering).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Books one failed reconfiguration under `reason`. A protocol abort
    /// (a prepare was published and rolled back) also counts in
    /// [`SystemReport::reconfig_aborts`]; a validation refusal, decided
    /// before any phase went out, counts under its reason alone.
    pub(crate) fn record_abort(&self, reason: ReconfigAbortReason) {
        let by_reason = match reason {
            ReconfigAbortReason::AckTimeout => &self.reconfig_aborts_ack_timeout,
            ReconfigAbortReason::Validation => &self.reconfig_aborts_validation,
            ReconfigAbortReason::ForeignCoordinator => &self.reconfig_aborts_foreign_coordinator,
        };
        by_reason.inc();
        if reason != ReconfigAbortReason::Validation {
            self.reconfig_aborts.inc();
        }
    }

    /// Closes one governor window at `now`: reads the cumulative counters,
    /// makes the window step ([`Governor::sense`]: the boundary prune, the
    /// ledger gauges, the counter deltas) and books the window and its
    /// `aub_slack` / `util_imbalance` gauges. The metrics come back for
    /// the policy.
    pub fn sense(
        &self,
        governor: &mut Governor,
        ac: &mut AdmissionController,
        now: Time,
    ) -> WindowMetrics {
        let cum = CumulativeLoad {
            arrived_jobs: self.arrived_jobs.get(),
            arrived_utilization: self.arrived_utilization.get(),
            released_utilization: self.released_utilization.get(),
            ir_reports: self.ir_reports.get(),
            deferred: self.reconfig_deferred.get(),
        };
        let metrics = governor.sense(ac, now, cum);
        self.aub_slack.set(metrics.aub_slack);
        self.util_imbalance.set(metrics.imbalance);
        self.governor_windows.inc();
        metrics
    }

    /// The accepted utilization ratio, from its four parts.
    fn ratio(&self) -> UtilizationRatio {
        UtilizationRatio::from_parts(
            self.arrived_utilization.get(),
            self.released_utilization.get(),
            self.arrived_jobs.get(),
            self.released_jobs.get(),
        )
    }

    /// Reads the registry into a report (delay series reconstructed from
    /// exact histogram parts). The federation rows are left at 0; the
    /// system folds its event path's counters in.
    #[must_use]
    pub fn snapshot(&self) -> SystemReport {
        let mut scratch = HistogramSnapshot::default();
        let mut delay = |hist: &Histogram| delay_from(hist, &mut scratch);
        SystemReport {
            ratio: self.ratio(),
            response: delay(&self.response),
            jobs_completed: self.jobs_completed.get(),
            deadline_misses: self.deadline_misses.get(),
            reallocations: self.reallocations.get(),
            ir_reports: self.ir_reports.get(),
            hold: delay(&self.hold),
            comm: delay(&self.comm),
            lb_plan: delay(&self.lb_plan),
            ac_test: delay(&self.ac_test),
            release: delay(&self.release),
            ir_path: delay(&self.ir_path),
            ir_update: delay(&self.ir_update),
            total_no_realloc: delay(&self.total_no_realloc),
            total_realloc: delay(&self.total_realloc),
            reconfig_swaps: self.reconfig_swaps.get(),
            reconfig_aborts: self.reconfig_aborts.get(),
            reconfig_latency: delay(&self.reconfig_latency),
            reconfig_deferred: self.reconfig_deferred.get(),
            reconfig_max_inflight: self.reconfig_max_inflight.get() as i64,
            reconfig_abort_reasons: ReconfigAbortBreakdown {
                ack_timeout: self.reconfig_aborts_ack_timeout.get(),
                validation: self.reconfig_aborts_validation.get(),
                foreign_coordinator: self.reconfig_aborts_foreign_coordinator.get(),
            },
            aub_slack: self.aub_slack.get(),
            util_imbalance: self.util_imbalance.get(),
            governor_windows: self.governor_windows.get(),
            governor_swaps: self.governor_swaps.get(),
            governor_overruns: self.governor_overruns.get(),
            timer_wakeups: self.timer_wakeups.get(),
            ..SystemReport::default()
        }
    }

    /// A job entered the system (arrived at a TE).
    pub(crate) fn job_in(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// A job left the system (completed, rejected or dropped). Reaching
    /// zero in-flight jobs notifies [`RtMetrics::wait_quiet`] blockers.
    pub(crate) fn job_out(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) <= 1 {
            // Take the lock so the notification cannot slip between a
            // waiter's counter check and its wait.
            drop(lock(&self.quiet));
            self.quiet_cv.notify_all();
        }
    }

    /// Jobs currently somewhere between arrival and completion.
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Blocks until no jobs are in flight (completion notification from
    /// [`RtMetrics::job_out`] — no polling). Returns false on timeout.
    #[must_use]
    pub(crate) fn wait_quiet(&self, timeout: StdDuration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&self.quiet);
        while self.in_flight() > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (g, _) =
                self.quiet_cv.wait_timeout(guard, left).unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        true
    }

    /// Renders the registry plus `events` as one Prometheus-style text
    /// page (exposition format v0.0.4): every registered row with its full
    /// bucket distribution, the accepted ratio and jobs in flight, the
    /// federation's event-path rows, decode errors and trace drops.
    #[must_use]
    pub fn render_exposition(&self, events: &FederationStats) -> String {
        let mut e = Exposition::new();
        self.registry.render(&mut e);
        e.gauge(
            "rtcm_accepted_ratio",
            "Accepted utilization ratio (released / arrived weight).",
            self.ratio().ratio(),
        );
        e.gauge(
            "rtcm_jobs_in_flight",
            "Jobs currently between arrival and completion.",
            self.in_flight() as f64,
        );
        render_federation(&mut e, events);
        e.counter_by(
            "rtcm_proto_decode_errors_total",
            "Mailbox payloads dropped because they did not decode.",
            "topic",
            &MsgKind::ALL.map(|k| (k.label(), self.decode_errors.get(k))),
        );
        e.counter(
            "rtcm_trace_records_dropped_total",
            "Trace records evicted from the bounded ring.",
            self.trace.dropped(),
        );
        e.finish()
    }
}

/// Reconstructs a [`DelayStats`] row from a histogram's exact parts,
/// refilling the caller's pooled snapshot instead of allocating one.
fn delay_from(hist: &Histogram, scratch: &mut HistogramSnapshot) -> DelayStats {
    hist.snapshot_into(scratch);
    DelayStats::from_parts(
        scratch.count,
        u128::from(scratch.sum),
        Duration::from_nanos(scratch.min),
        Duration::from_nanos(scratch.max),
    )
}

/// Appends a federation's event-path counters: the one place their
/// exposition names and help text are written, for the system page and
/// the quorum member's page alike.
pub fn render_federation(e: &mut Exposition, events: &FederationStats) {
    e.counter(
        "rtcm_events_published_total",
        "Events published through the federation.",
        events.events_published,
    );
    e.counter(
        "rtcm_events_delivered_total",
        "Per-subscriber fan-out deliveries.",
        events.local_deliveries,
    );
    e.counter(
        "rtcm_remote_parcels_total",
        "Parcels handed to the in-process network for cross-node delivery.",
        events.remote_parcels,
    );
    e.counter(
        "rtcm_bridge_rx_errors_total",
        "Corrupt or undecodable frames received on TCP bridges.",
        events.bridge_rx_errors,
    );
    e.counter(
        "rtcm_bridge_disconnects_total",
        "TCP bridge links torn down for any reason.",
        events.bridge_disconnects,
    );
    e.counter(
        "rtcm_bridge_tx_dropped_total",
        "Outbound events dropped for exceeding the wire frame limit.",
        events.bridge_tx_dropped,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_core::time::Duration;

    #[test]
    fn metrics_fold_into_snapshot() {
        let m = RtMetrics::new();
        m.jobs_completed.add(3);
        m.comm.record(Duration::from_micros(100).as_nanos());
        let snap = m.snapshot();
        assert_eq!(snap.jobs_completed, 3);
        assert_eq!(snap.comm.count(), 1);
        assert_eq!(snap.comm.min(), Duration::from_micros(100));
        assert_eq!(snap.comm.max(), Duration::from_micros(100));
    }

    #[test]
    fn swap_and_window_rows_fold_into_snapshot() {
        let m = RtMetrics::new();
        m.record_abort(ReconfigAbortReason::AckTimeout);
        m.record_abort(ReconfigAbortReason::ForeignCoordinator);
        m.record_abort(ReconfigAbortReason::Validation);
        m.governor_windows.add(7);
        let snap = m.snapshot();
        assert_eq!(snap.reconfig_aborts, 2, "a validation refusal publishes no phase");
        assert_eq!(
            snap.reconfig_abort_reasons,
            ReconfigAbortBreakdown { ack_timeout: 1, validation: 1, foreign_coordinator: 1 }
        );
        assert_eq!(snap.governor_windows, 7);
    }

    #[test]
    fn an_empty_registry_reads_the_empty_report() {
        let snap = RtMetrics::new().snapshot();
        assert_eq!(snap, SystemReport::default());
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains(&u64::MAX.to_string()), "an empty row reads zero: {json}");
    }

    #[test]
    fn sense_books_the_window_and_its_gauges() {
        use rtcm_core::admission::Decision;
        use rtcm_core::govern::GovernorPolicy;
        use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};

        // One admitted 0.2-utilization job on processor 0 of two.
        let task = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(20), ProcessorId(0), [])
            .build()
            .unwrap();
        let mut ac = AdmissionController::new("J_N_N".parse().unwrap(), 2).unwrap();
        assert!(matches!(ac.handle_arrival(&task, 0, Time::ZERO), Ok(Decision::Accept { .. })));
        let mut governor = Governor::new(GovernorPolicy::new()).unwrap();
        let m = RtMetrics::new();
        m.arrived_jobs.inc();
        m.arrived_utilization.add(0.2);
        m.released_utilization.add(0.2);
        m.reconfig_deferred.add(3);

        let ms = |n| Time::ZERO + Duration::from_millis(n);
        let first = m.sense(&mut governor, &mut ac, ms(10));
        assert_eq!((first.arrived_jobs, first.deferred), (1, 3));
        assert!((first.aub_slack - 0.8).abs() < 1e-12, "{first:?}");
        assert!((first.imbalance - 0.2).abs() < 1e-12, "{first:?}");
        let snap = m.snapshot();
        assert_eq!(snap.governor_windows, 1);
        assert_eq!(snap.aub_slack, first.aub_slack);
        assert_eq!(snap.util_imbalance, first.imbalance);
        assert_eq!(snap.reconfig_deferred, first.deferred);

        // The second window reads what changed since the first; past the
        // job's deadline the boundary prune frees its share.
        m.arrived_jobs.inc();
        m.reconfig_deferred.inc();
        let second = m.sense(&mut governor, &mut ac, ms(200));
        assert_eq!((second.arrived_jobs, second.deferred), (1, 1));
        assert_eq!((second.aub_slack, second.imbalance), (1.0, 0.0));
        let snap = m.snapshot();
        assert_eq!(snap.governor_windows, 2);
        assert_eq!((snap.aub_slack, snap.util_imbalance), (1.0, 0.0));
    }

    #[test]
    fn ratio_reconstructs_from_parts() {
        let m = RtMetrics::new();
        m.arrived_utilization.add(0.5);
        m.arrived_jobs.inc();
        m.arrived_utilization.add(0.25);
        m.arrived_jobs.inc();
        m.released_utilization.add(0.5);
        m.released_jobs.inc();
        let ratio = m.snapshot().ratio;
        assert_eq!(ratio.arrived_jobs(), 2);
        assert!((ratio.ratio() - (0.5 / 0.75)).abs() < 1e-12);
    }

    #[test]
    fn in_flight_counts() {
        let m = RtMetrics::new();
        m.job_in();
        m.job_in();
        m.job_out();
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn wait_quiet_blocks_until_drained() {
        let m = Arc::new(RtMetrics::new());
        assert!(m.wait_quiet(StdDuration::from_millis(1)), "empty system is quiet");
        m.job_in();
        assert!(!m.wait_quiet(StdDuration::from_millis(5)), "in-flight job times out");
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            std::thread::sleep(StdDuration::from_millis(10));
            m2.job_out();
        });
        assert!(m.wait_quiet(StdDuration::from_secs(5)), "notified on drain");
        t.join().unwrap();
    }

    #[test]
    fn report_serializes() {
        let json = serde_json::to_string(&RtMetrics::new().snapshot()).unwrap();
        assert!(json.contains("jobs_completed"));
    }

    #[test]
    fn exposition_covers_registry_and_report() {
        let m = RtMetrics::new();
        m.jobs_completed.inc();
        m.response.record(250_000);
        m.governor_swaps.inc();
        let events = FederationStats { events_published: 42, ..FederationStats::default() };
        let page = m.render_exposition(&events);
        assert!(page.contains("rtcm_jobs_completed_total 1"));
        assert!(page.contains("# TYPE rtcm_response_ns histogram"));
        assert!(page.contains("rtcm_response_ns_count 1"));
        assert!(page.contains("rtcm_governor_swaps_total 1"));
        assert!(page.contains("rtcm_events_published_total 42"));
        assert!(page.contains("rtcm_proto_decode_errors_total{topic=\"reconfig\"} 0"));
    }
}
