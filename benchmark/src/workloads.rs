//! The six workloads. Each is set up (inputs generated, plant launched and
//! warmed), run for a fixed time against the adapter, and checked.
//!
//! Threads: the load generator is one thread that is both clock and
//! observer. `bridged_swap` adds one swapper thread; a *traced* closed-loop
//! run adds one observer thread instead (its generator is blocked in
//! `quiesce` and cannot stamp events). Never more than two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Job, Mode, Observer, Phases, Plant, Report, Seen, SimRun, Trace, Watch, Workload,
    PAPER_SHAPE, SWEEP_SHAPE, TASK_SET_SEED,
};
use crate::spans::Span;
use crate::stats::{mean, poisson_schedule, Latencies, OpenLoop, Rng, Step};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ProbeRtt,
    Saturate,
    OpenStorm,
    PaperReplay,
    BridgedSwap,
    SimSweep,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ProbeRtt,
        Kind::Saturate,
        Kind::OpenStorm,
        Kind::PaperReplay,
        Kind::BridgedSwap,
        Kind::SimSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ProbeRtt => "probe_rtt",
            Kind::Saturate => "saturate",
            Kind::OpenStorm => "open_storm",
            Kind::PaperReplay => "paper_replay",
            Kind::BridgedSwap => "bridged_swap",
            Kind::SimSweep => "sim_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one "operation" of the workload is — the thing `latency_*_us`
    /// times and `attempted` counts (besides jobs).
    pub fn operation(self) -> &'static str {
        match self {
            Kind::ProbeRtt => "submit..quiesce of one job",
            Kind::Saturate => "submit..quiesce of one batch",
            Kind::OpenStorm => "due time..decision seen",
            Kind::PaperReplay => "due time..idle reset of the job's last stage seen",
            Kind::BridgedSwap => "System::reconfigure call",
            Kind::SimSweep => "one sweep: rtcm_sim::simulate under each of the 15 configurations",
        }
    }
}

/// Jobs per `saturate` batch: small enough that a 10 s run drains over a
/// hundred batches (so its p90 has ten samples beyond it), large enough that
/// the manager and the nodes always have a backlog.
const SATURATE_BATCH: usize = 1024;
/// Offered rates of the open loops, jobs/s. `open_storm` sits near a third
/// of what `saturate` drains on the 2-core runner.
const STORM_RATE: f64 = 5_000.0;
const SWAP_LOAD_RATE: f64 = 2_000.0;
/// Least time between the starts of two `System::reconfigure` calls in
/// `bridged_swap`; a swap that takes longer is followed by the next at once.
/// Shorter than the 40 ms delayed-ACK timer of loopback TCP on purpose: a
/// swap requested while the last commit's ACK is still withheld is the case
/// that repeats (≈44 ms every time at the base commit), whereas swaps spaced
/// further apart fall either side of that timer from run to run.
const SWAP_PERIOD: Duration = Duration::from_millis(20);
/// Warm-up jobs on a freshly launched plant: one batch where jobs execute
/// at once (processor-bound, so `setup_s` repeats; 1 000 probes one by one
/// were 1 000 chains of idle wake-ups and took 0.06 s or 0.24 s by the
/// guest's mood), a few probes where they sleep.
const WARMUP_BATCH: u64 = 4_000;
const WARMUP_PROBES: u64 = 18;
/// Warm-up swaps over the bridge, alternating away from and back to the
/// configured label. All but the first wait for loopback TCP's delayed ACK
/// like the timed ones, so the set-up's swap time repeats too.
const WARMUP_SWAPS: u64 = 4;
/// Warm-up jobs get sequence numbers no generated arrival uses.
const WARMUP_SEQ_BASE: u64 = 1 << 40;
/// A job with no decision this long after the last arrival has failed.
const DECISION_GRACE: Duration = Duration::from_secs(5);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Virtual seconds of the `sim_sweep` trace: ≈16 000 arrivals, so one sweep
/// of the 15 configurations takes about 0.55 s and a 15 s run times ≈27
/// sweeps. Shorter, and the accepted ratio follows the seed (spread over 40
/// seeds 2.5 % at 200 s, 1.4 % at 400 s); longer, and the quietest twentieth
/// of the sweeps is a single one.
const SWEEP_HORIZON_S: f64 = 400.0;
/// Traces a `sim_sweep` run cycles through, each swept twice in a row.
const SWEEP_TRACES: usize = 8;

/// Nanoseconds since the timed window started.
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Jobs still in flight after `quiesce` gave up (0 if it did not).
fn undrained(plant: &Plant) -> u64 {
    if plant.quiesce(DRAIN_TIMEOUT) {
        0
    } else {
        plant.in_flight().max(0) as u64
    }
}

/// One job the generator will send.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_ns: u64,
    task: u32,
    seq: u64,
}

/// A workload ready to run: inputs generated, plant launched and warm.
pub struct Stage {
    kind: Kind,
    seed: u64,
    plant: Option<Plant>,
    plan: Vec<Planned>,
    /// Stages of each task (`paper_replay`, which times a job to the idle
    /// reset of its last stage).
    stages: Vec<u32>,
    /// Decisions of arrivals due before this are not timed (`open_storm`,
    /// whose ledger takes one deadline to fill).
    ramp_ns: u64,
    /// `paper_replay` and `sim_sweep` keep their inputs for the simulator.
    sim_inputs: Option<(Workload, Vec<Trace>)>,
    launch_us: f64,
    base: Report,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Jobs completed (simulated arrivals for `sim_sweep`).
    pub jobs_done: u64,
    /// True where arrivals keep a schedule: throughput is then the offered
    /// rate unless the system falls behind, and is taken over the whole
    /// window; a closed loop's is taken per segment (`Latencies::rate`).
    pub open_loop: bool,
    pub accept_ratio: f64,
    /// Admitted jobs that finished after their deadline (in the simulator
    /// for `sim_sweep`). Measured, never counted as failed: a stall of the
    /// shared runner produces a burst of them on inputs that produce none
    /// the next time.
    pub deadline_misses: u64,
    /// The workload's operation latency, ns.
    pub latency: Latencies,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,

    pub launch_us: f64,
    pub shutdown_us: f64,
    pub stats_snapshot_us: f64,
    pub submit_ns: Latencies,
    pub report: Report,
    /// due → decision, ns (open loops; also under swaps).
    pub decisions: Latencies,
    pub swap_manager_us: Vec<f64>,
    /// Swaps committed.
    pub swaps: u64,
    pub jobs_submitted: u64,
    /// Jobs whose `ACCEPT` or `REJECT` the observer saw, and the `ACCEPT`s.
    pub decisions_seen: u64,
    pub accepts_seen: u64,
    pub lag: Latencies,
    pub backlog_end: u64,
    pub achieved_rate: f64,
    /// The simulator's accepted ratio on `paper_replay`'s own inputs.
    pub sim_ratio_same_inputs: Option<f64>,
    pub path: PathSpans,
    pub spans: Vec<Span>,
}

/// Means over jobs of the traced run's spans, ns.
#[derive(Default)]
pub struct PathSpans {
    /// Jobs with an arrival and a decision seen.
    pub jobs: u64,
    /// Of those, jobs of a closed loop (whose completion the generator saw).
    pub closed_jobs: u64,
    /// Of those, jobs whose idle-reset report was seen after completion.
    pub reset_jobs: u64,
    pub submit_to_arrive: f64,
    pub arrive_to_decision: f64,
    pub decision_to_done: f64,
    pub done_to_reset: f64,
    pub trigger_gap: Latencies,
    pub prepare_to_ack: Latencies,
    /// Σ of the path spans ÷ the root span, over the jobs that have both.
    pub coverage: f64,
}

pub fn setup(kind: Kind, seed: u64, seconds: f64) -> Result<Stage, String> {
    let mut stage = Stage {
        kind,
        seed,
        plant: None,
        plan: Vec::new(),
        stages: Vec::new(),
        ramp_ns: 0,
        sim_inputs: None,
        launch_us: 0.0,
        base: Report::default(),
    };
    let mut rng = Rng::new(seed ^ 0x5eed_0f7a);
    match kind {
        Kind::ProbeRtt | Kind::Saturate => {
            let t9 = Workload::t9()?;
            stage.launch(&t9, "J_J_J", Mode::Fast, false)?;
        }
        Kind::OpenStorm | Kind::BridgedSwap => {
            let t9 = Workload::t9()?;
            let (label, rate) = match kind {
                // No idle reset: every admitted job's contributions stay in
                // the ledger until its 1 s deadline, so ≈5 000 jobs are live.
                Kind::OpenStorm => ("J_N_N", STORM_RATE),
                _ => ("J_J_J", SWAP_LOAD_RATE),
            };
            if kind == Kind::OpenStorm {
                // The ledger is at its steady depth one deadline (1 s) in;
                // a run shorter than 4 s gives up a quarter of itself.
                stage.ramp_ns = (seconds.min(4.0) / 4.0 * 1e9) as u64;
            }
            stage.plan = poisson_schedule(seed, rate, seconds)
                .into_iter()
                .enumerate()
                .map(|(i, due_ns)| Planned { due_ns, task: rng.below(9), seq: i as u64 })
                .collect();
            stage.launch(&t9, label, Mode::Fast, kind == Kind::BridgedSwap)?;
        }
        Kind::PaperReplay => {
            let workload = Workload::random(PAPER_SHAPE, TASK_SET_SEED)?;
            let trace = workload.trace(seconds, 0.5, Phases::Random, seed);
            stage.plan = trace
                .arrivals()
                .iter()
                .map(|a| Planned { due_ns: a.at_ns, task: a.task, seq: a.seq })
                .collect();
            stage.stages = workload.stages();
            stage.launch(&workload, "J_J_J", Mode::Paper, false)?;
            stage.sim_inputs = Some((workload, vec![trace]));
        }
        Kind::SimSweep => {
            let workload = Workload::random(SWEEP_SHAPE, TASK_SET_SEED)?;
            // Periodic tasks start together: under per-task admission the
            // order of first releases decides which tasks hold reservations
            // for the whole run, and with random phases that order — not the
            // engine — would set the accepted ratio.
            let traces: Vec<Trace> = (0..SWEEP_TRACES)
                .map(|_| workload.trace(SWEEP_HORIZON_S, 0.5, Phases::Together, rng.next_u64()))
                .collect();
            // The warm-up: one simulation, so the allocator's pools and the
            // caches are filled before the first timed sweep.
            adapter::simulate(&workload, &traces[0], "J_J_J")?;
            stage.sim_inputs = Some((workload, traces));
        }
    }
    Ok(stage)
}

impl Stage {
    fn launch(
        &mut self,
        workload: &Workload,
        label: &str,
        mode: Mode,
        bridged: bool,
    ) -> Result<(), String> {
        let (plant, launch_us) = Plant::launch(workload, label, mode, self.seed, bridged)?;
        // The fixed warm-up: threads started, route caches and allocator
        // pools filled, and for the bridge two swaps each way.
        let (jobs, one_by_one) = match mode {
            Mode::Fast => (WARMUP_BATCH, false),
            Mode::Paper => (WARMUP_PROBES, true),
        };
        for i in 0..jobs {
            let task = (i % u64::from(workload.task_count())) as u32;
            let drained = !one_by_one || plant.quiesce(DRAIN_TIMEOUT);
            if !plant.submit(task, WARMUP_SEQ_BASE + i) || !drained {
                return Err("warm-up job was not taken".into());
            }
        }
        if !plant.quiesce(DRAIN_TIMEOUT) {
            return Err("warm-up jobs were not drained".into());
        }
        if bridged {
            for swap in 0..WARMUP_SWAPS {
                plant.reconfigure(if swap % 2 == 0 { "J_N_N" } else { label })?;
            }
        }
        self.base = plant.report().0;
        self.launch_us = launch_us;
        self.plant = Some(plant);
        Ok(())
    }

    /// Stops the plant without running (the discarded set-ups of a run).
    pub fn teardown(self) {
        if let Some(plant) = self.plant {
            let _ = plant.shutdown();
        }
    }

    pub fn run(mut self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut outcome = Outcome { launch_us: self.launch_us, ..Outcome::default() };
        match self.kind {
            Kind::SimSweep => self.sim_sweep(seconds, &mut outcome)?,
            Kind::ProbeRtt => self.closed_loop(1, seconds, traced, &mut outcome)?,
            Kind::Saturate => self.closed_loop(SATURATE_BATCH, seconds, traced, &mut outcome)?,
            Kind::OpenStorm | Kind::PaperReplay | Kind::BridgedSwap => {
                self.open_loop(traced, &mut outcome)?;
            }
        }
        if let Some(plant) = self.plant.take() {
            let (snapshot, snapshot_us) = plant.report();
            outcome.stats_snapshot_us = snapshot_us;
            let (last, shutdown_us) = plant.shutdown();
            outcome.shutdown_us = shutdown_us;
            outcome.report = since(&last, &self.base);
            outcome.accept_ratio = outcome.report.accept_ratio;
            self.check_report(&snapshot, &mut outcome);
        }
        Ok(outcome)
    }

    fn plant(&self) -> &Plant {
        self.plant.as_ref().expect("runtime workloads launch a plant")
    }

    // -- closed loops ------------------------------------------------------

    fn closed_loop(
        &self,
        batch: usize,
        seconds: f64,
        traced: bool,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let plant = self.plant();
        let mut rng = Rng::new(self.seed);
        let observer = if traced { Some(plant.observe(Watch::Path)?) } else { None };
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let since_start = || ns_since(start);
        // (task, submit_ns, done_ns) per job; the job's seq is its index.
        // Room for twice what the 2-core runner drains, so nothing regrows.
        let room = (seconds * 40_000.0) as usize;
        let mut jobs: Vec<(u32, u64, u64)> = Vec::with_capacity(room);
        outcome.submit_ns.reserve(room);
        outcome.latency.reserve(room / batch);
        let mut left_behind = 0u64;

        let seen = std::thread::scope(|scope| {
            let watcher = observer.as_ref().map(|observer| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut seen: Vec<(u64, Seen)> = Vec::new();
                    // Keeps draining for a moment after the stop so trailing
                    // idle-reset reports are stamped too.
                    let mut quiet_since: Option<Instant> = None;
                    loop {
                        match observer.recv(Duration::from_millis(5)) {
                            Some(event) => {
                                seen.push((ns_since(start), event));
                                quiet_since = None;
                            }
                            None if stop.load(Ordering::SeqCst) => {
                                let since = *quiet_since.get_or_insert_with(Instant::now);
                                if since.elapsed() > Duration::from_millis(50) {
                                    return seen;
                                }
                            }
                            None => {}
                        }
                    }
                })
            });
            while start.elapsed().as_secs_f64() < seconds {
                let first = jobs.len();
                let t0 = since_start();
                for _ in 0..batch {
                    let task = rng.below(9);
                    let before = since_start();
                    let ok = plant.submit(task, jobs.len() as u64);
                    let after = since_start();
                    outcome.submit_ns.push(after, after - before);
                    outcome.failed += u64::from(!ok);
                    jobs.push((task, before, 0));
                }
                left_behind += undrained(plant);
                let t1 = since_start();
                outcome.latency.push(t1, t1 - t0);
                for job in &mut jobs[first..] {
                    job.2 = t1;
                }
            }
            stop.store(true, Ordering::SeqCst);
            watcher.map(|w| w.join().expect("observer thread"))
        });

        outcome.window_s = start.elapsed().as_secs_f64();
        outcome.attempted = jobs.len() as u64;
        outcome.jobs_submitted = jobs.len() as u64;
        outcome.failed += left_behind;
        if let Some(seen) = seen {
            let mut tracker = Tracker::new(jobs.len(), None);
            for (i, &(_, submit, done)) in jobs.iter().enumerate() {
                let s = &mut tracker.stamps[i];
                (s.due, s.submit, s.done) = (submit, submit, done);
            }
            for (at, event) in seen {
                tracker.on_seen(at, event);
            }
            tracker.exactly_one_decision(&mut outcome.violations);
            tracker.finish(outcome);
        }
        Ok(())
    }

    // -- open loops --------------------------------------------------------

    fn open_loop(&self, traced: bool, outcome: &mut Outcome) -> Result<(), String> {
        let plant = self.plant();
        let watch = match (traced, self.kind) {
            (false, Kind::PaperReplay) => Watch::JobPath,
            (false, _) => Watch::Decisions,
            (true, Kind::BridgedSwap) => Watch::PathAndQuorum,
            (true, _) => Watch::Path,
        };
        let observer = plant.observe(watch)?;
        let by_key: Option<HashMap<Job, u32>> = (self.kind == Kind::PaperReplay).then(|| {
            self.plan.iter().enumerate().map(|(i, p)| ((p.task, p.seq), i as u32)).collect()
        });
        let mut tracker = Tracker::new(self.plan.len(), by_key);
        tracker.timed_from_ns = self.ramp_ns;
        for (stamps, planned) in tracker.stamps.iter_mut().zip(&self.plan) {
            stamps.due = planned.due_ns;
            stamps.stages = self.stages.get(planned.task as usize).copied().unwrap_or(0);
        }
        let stop = AtomicBool::new(false);
        let start = Instant::now();

        let swaps = std::thread::scope(|scope| {
            let swapper = (self.kind == Kind::BridgedSwap).then(|| {
                let stop = &stop;
                scope.spawn(move || swap_loop(plant, start, stop))
            });
            self.generate(plant, &observer, start, &mut tracker, outcome);
            stop.store(true, Ordering::SeqCst);
            swapper.map(|s| s.join().expect("swapper thread"))
        });

        let left_behind = undrained(plant);
        outcome.window_s = start.elapsed().as_secs_f64();
        if watch != Watch::Decisions {
            // Trailing idle-reset reports of the last jobs.
            while let Some(event) = observer.recv(Duration::from_millis(50)) {
                tracker.on_seen(ns_since(start), event);
            }
        }

        let undecided = tracker.stamps.iter().filter(|s| s.decisions == 0).count() as u64;
        outcome.open_loop = true;
        outcome.attempted = self.plan.len() as u64;
        outcome.jobs_submitted = self.plan.len() as u64;
        outcome.decisions_seen = tracker.decided as u64;
        outcome.accepts_seen = tracker.accepts;
        outcome.failed += undecided + left_behind;
        outcome.achieved_rate = self.plan.len() as f64 / outcome.window_s;
        tracker.exactly_one_decision(&mut outcome.violations);
        outcome.decisions = std::mem::take(&mut tracker.decision_latency);
        let mut job_path = std::mem::take(&mut tracker.job_path);
        if traced {
            tracker.finish(outcome);
        }

        if let Some(swaps) = swaps {
            outcome.attempted += swaps.attempted;
            outcome.failed += swaps.errors.len() as u64;
            outcome.swaps = swaps.attempted - swaps.errors.len() as u64;
            for error in swaps.errors.iter().take(3) {
                outcome.violations.push(format!("swap failed: {error}"));
            }
            outcome.swap_manager_us = swaps.manager_us;
            outcome.latency = swaps.latency;
            // The last commit still has to cross the bridge to the voter.
            let deadline = Instant::now() + DECISION_GRACE;
            while plant.remote_fenced() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The warm-up's swaps were committed too.
            let witnessed = plant.remote_commits() as u64;
            if witnessed != outcome.swaps + WARMUP_SWAPS {
                outcome.violations.push(format!(
                    "bridged voter witnessed {witnessed} commits, {} swaps committed",
                    outcome.swaps + WARMUP_SWAPS
                ));
            }
        } else if self.kind == Kind::PaperReplay {
            outcome.latency = std::mem::take(&mut job_path);
        } else {
            outcome.latency = outcome.decisions.clone();
        }

        if let (Kind::PaperReplay, true, Some((workload, traces))) =
            (self.kind, traced, &self.sim_inputs)
        {
            outcome.sim_ratio_same_inputs =
                Some(adapter::simulate(workload, &traces[0], "J_J_J")?.accept_ratio());
        }
        Ok(())
    }

    /// The single generator thread: sends each arrival when it is due and
    /// otherwise waits on the observer mailbox, so it wakes on whichever
    /// comes first — the next due time or the next event to stamp.
    fn generate(
        &self,
        plant: &Plant,
        observer: &Observer,
        start: Instant,
        tracker: &mut Tracker,
        outcome: &mut Outcome,
    ) {
        let now_ns = || ns_since(start);
        let mut open = OpenLoop::new(self.plan.iter().map(|p| p.due_ns).collect());
        outcome.submit_ns.reserve(open.len());
        outcome.lag.reserve(open.len());
        tracker.decision_latency.reserve(open.len());
        loop {
            let now = now_ns();
            match open.step(now) {
                Step::Submit(i) => {
                    let planned = self.plan[i];
                    let ok = plant.submit(planned.task, planned.seq);
                    let after = now_ns();
                    outcome.submit_ns.push(after, after - now);
                    outcome.lag.push(now, now - planned.due_ns);
                    outcome.failed += u64::from(!ok);
                    tracker.stamps[i].submit = now;
                    // Behind schedule the mailbox is never waited on, so
                    // stamp what has already arrived.
                    while let Some(event) = observer.try_recv() {
                        tracker.on_seen(now_ns(), event);
                    }
                }
                Step::Wait(ns) => {
                    if let Some(event) = observer.recv(Duration::from_nanos(ns)) {
                        tracker.on_seen(now_ns(), event);
                    }
                }
                Step::Drained => break,
            }
        }
        outcome.backlog_end = (open.len() - tracker.decided) as u64;
        let last_sent = Instant::now();
        while tracker.decided < open.len() {
            let Some(left) = DECISION_GRACE.checked_sub(last_sent.elapsed()) else { break };
            if let Some(event) = observer.recv(left) {
                tracker.on_seen(now_ns(), event);
            }
        }
    }

    // -- simulator ---------------------------------------------------------

    fn sim_sweep(&self, seconds: f64, outcome: &mut Outcome) -> Result<(), String> {
        let (workload, traces) = self.sim_inputs.as_ref().expect("set up with inputs");
        let configs = adapter::valid_configs();
        // The first sweep of each trace, which every later one must equal.
        let mut reference: Vec<Vec<SimRun>> = Vec::new();
        let start = Instant::now();
        let mut sweeps = 0;
        // Whole sweeps only, so the mix of configurations is the same in
        // every run; at least two, so determinism is checked. Each trace is
        // swept twice in a row, then the next one.
        while sweeps < 2 || start.elapsed().as_secs_f64() < seconds {
            let t = (sweeps / 2) % traces.len();
            let t0 = ns_since(start);
            let mut runs = Vec::with_capacity(configs.len());
            for label in &configs {
                runs.push(adapter::simulate(workload, &traces[t], label)?);
            }
            let t1 = ns_since(start);
            outcome.latency.push(t1, t1 - t0);
            sweeps += 1;
            outcome.attempted += configs.len() as u64;
            outcome.jobs_done += (configs.len() * traces[t].len()) as u64;
            outcome.deadline_misses += runs.iter().map(SimRun::deadline_misses).sum::<u64>();
            match reference.get(t) {
                None => reference.push(runs),
                Some(first) => {
                    for ((label, run), first) in configs.iter().zip(&runs).zip(first) {
                        if run != first {
                            outcome.failed += 1;
                            outcome.violations.push(format!("{label}: sweep {sweeps} differs"));
                        }
                    }
                }
            }
        }
        outcome.window_s = start.elapsed().as_secs_f64();
        // Over every trace swept and every configuration: under some
        // configurations the ratio follows the arrival order (0.08–0.17 over
        // ten seeds), and one trace's mean moved 4 % with the seed.
        let ratios: Vec<f64> = reference.iter().flatten().map(SimRun::accept_ratio).collect();
        outcome.accept_ratio = mean(&ratios);
        Ok(())
    }

    // -- output checks -----------------------------------------------------

    fn check_report(&self, snapshot: &Report, outcome: &mut Outcome) {
        let report = &outcome.report;
        let submitted = outcome.jobs_submitted;
        if self.kind != Kind::PaperReplay {
            // T9: every job is admitted, released and completed.
            for (what, n) in [
                ("arrived", report.arrived_jobs),
                ("released", report.released_jobs),
                ("completed", report.jobs_completed),
            ] {
                if n != submitted {
                    outcome.violations.push(format!("{what} {n} of {submitted} submitted jobs"));
                }
            }
        } else {
            // Every arrival is accounted for by an observed decision or a
            // task-effector fast-path release.
            let decided = outcome.decisions_seen;
            let accepts = outcome.accepts_seen;
            let fast_path = report.released_jobs.saturating_sub(accepts);
            if decided + fast_path != submitted || report.arrived_jobs != submitted {
                outcome.violations.push(format!(
                    "{submitted} arrivals, {decided} decisions + {fast_path} fast-path releases"
                ));
            }
            if report.jobs_completed != report.released_jobs {
                outcome.violations.push(format!(
                    "{} released, {} completed",
                    report.released_jobs, report.jobs_completed
                ));
            }
        }
        if snapshot.events_dropped + snapshot.bridge_errors > 0 {
            outcome.violations.push(format!(
                "{} events dropped, {} bridge errors",
                snapshot.events_dropped, snapshot.bridge_errors
            ));
        }
        outcome.jobs_done = report.jobs_completed;
        outcome.deadline_misses = report.deadline_misses;
    }
}

/// Counters and delay rows of `last` minus those of `base` (taken after the
/// warm-up), and the accepted ratio over that difference.
fn since(last: &Report, base: &Report) -> Report {
    let arrived = last.arrived_utilization - base.arrived_utilization;
    let released = last.released_utilization - base.released_utilization;
    Report {
        accept_ratio: if arrived > 0.0 { released / arrived } else { 1.0 },
        arrived_utilization: arrived,
        released_utilization: released,
        arrived_jobs: last.arrived_jobs - base.arrived_jobs,
        released_jobs: last.released_jobs - base.released_jobs,
        jobs_completed: last.jobs_completed - base.jobs_completed,
        deadline_misses: last.deadline_misses - base.deadline_misses,
        reallocations: last.reallocations - base.reallocations,
        timer_wakeups: last.timer_wakeups - base.timer_wakeups,
        reconfig_swaps: last.reconfig_swaps - base.reconfig_swaps,
        reconfig_deferred: last.reconfig_deferred - base.reconfig_deferred,
        events_published: last.events_published - base.events_published,
        events_delivered: last.events_delivered - base.events_delivered,
        hold: last.hold.since(base.hold),
        comm: last.comm.since(base.comm),
        lb_plan: last.lb_plan.since(base.lb_plan),
        ac_test: last.ac_test.since(base.ac_test),
        release: last.release.since(base.release),
        ir_path: last.ir_path.since(base.ir_path),
        ir_update: last.ir_update.since(base.ir_update),
        response: last.response.since(base.response),
        total_no_realloc: last.total_no_realloc.since(base.total_no_realloc),
        ..last.clone()
    }
}

struct SwapLog {
    attempted: u64,
    errors: Vec<String>,
    latency: Latencies,
    manager_us: Vec<f64>,
}

/// The swapper thread: one `System::reconfigure` per period, alternating
/// `J_J_J` ↔ `J_N_N`, until told to stop.
fn swap_loop(plant: &Plant, start: Instant, stop: &AtomicBool) -> SwapLog {
    let mut log = SwapLog {
        attempted: 0,
        errors: Vec::new(),
        latency: Latencies::default(),
        manager_us: Vec::new(),
    };
    let mut next = start + SWAP_PERIOD;
    while !stop.load(Ordering::SeqCst) {
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(5)));
            continue;
        }
        next += SWAP_PERIOD;
        let target = if log.attempted.is_multiple_of(2) { "J_N_N" } else { "J_J_J" };
        log.attempted += 1;
        let t0 = Instant::now();
        let result = plant.reconfigure(target);
        let took = t0.elapsed();
        match result {
            Ok(manager_us) => {
                let at = ns_since(start);
                log.latency.push(at, took.as_nanos() as u64);
                log.manager_us.push(manager_us);
            }
            Err(error) => log.errors.push(error),
        }
    }
    log
}

/// When the observer saw what, per job (ns since the window started; 0 =
/// not seen).
#[derive(Debug, Default, Clone)]
struct Stamps {
    due: u64,
    submit: u64,
    arrive: u64,
    decision: u64,
    decisions: u32,
    last_hop: u64,
    reset: u64,
    done: u64,
    /// Stages of the job's task, where the job path is timed; else 0.
    stages: u32,
}

/// Turns observed events into per-job stamps, decision latencies and spans.
struct Tracker {
    stamps: Vec<Stamps>,
    by_key: Option<HashMap<Job, u32>>,
    decided: usize,
    accepts: u64,
    /// Decisions of jobs due earlier are counted, not timed.
    timed_from_ns: u64,
    decision_latency: Latencies,
    /// due → the idle-reset report of the job's last stage, ns.
    job_path: Latencies,
    trigger_gap: Latencies,
    prepare_at: HashMap<u64, u64>,
    prepare_to_ack: Latencies,
}

impl Tracker {
    fn new(jobs: usize, by_key: Option<HashMap<Job, u32>>) -> Tracker {
        Tracker {
            stamps: vec![Stamps::default(); jobs],
            by_key,
            decided: 0,
            accepts: 0,
            timed_from_ns: 0,
            decision_latency: Latencies::default(),
            job_path: Latencies::default(),
            trigger_gap: Latencies::default(),
            prepare_at: HashMap::new(),
            prepare_to_ack: Latencies::default(),
        }
    }

    /// Index of a decoded job id; `None` for warm-up jobs.
    fn index(&self, job: Job) -> Option<usize> {
        match &self.by_key {
            Some(map) => map.get(&job).map(|&i| i as usize),
            None => (job.1 < self.stamps.len() as u64).then_some(job.1 as usize),
        }
    }

    fn on_seen(&mut self, at: u64, seen: Seen) {
        match seen {
            Seen::Arrive(job) => {
                if let Some(i) = self.index(job) {
                    self.stamps[i].arrive = at;
                }
            }
            Seen::Accept(job) | Seen::Reject(job) => {
                let Some(i) = self.index(job) else { return };
                let s = &mut self.stamps[i];
                s.decisions += 1;
                if s.decisions == 1 {
                    s.decision = at;
                    s.last_hop = at;
                    self.decided += 1;
                    self.accepts += u64::from(matches!(seen, Seen::Accept(_)));
                    if s.due >= self.timed_from_ns {
                        self.decision_latency.push(at, at.saturating_sub(s.due));
                    }
                }
            }
            Seen::Trigger(job) => {
                let Some(i) = self.index(job) else { return };
                let s = &mut self.stamps[i];
                if s.last_hop > 0 {
                    self.trigger_gap.push(at, at.saturating_sub(s.last_hop));
                }
                s.last_hop = at;
            }
            Seen::IdleReset(subjobs) => {
                for (job, stage) in subjobs {
                    let Some(i) = self.index(job) else { continue };
                    let s = &mut self.stamps[i];
                    s.reset = at;
                    if stage + 1 == s.stages {
                        self.job_path.push(at, at.saturating_sub(s.due));
                    }
                }
            }
            Seen::Prepare(epoch) => {
                self.prepare_at.insert(epoch, at);
            }
            Seen::RemoteAck(epoch) => {
                if let Some(prepared) = self.prepare_at.remove(&epoch) {
                    self.prepare_to_ack.push(at, at.saturating_sub(prepared));
                }
            }
            Seen::Other => {}
        }
    }

    fn exactly_one_decision(&self, violations: &mut Vec<String>) {
        let none = self.stamps.iter().filter(|s| s.decisions == 0).count();
        let many = self.stamps.iter().filter(|s| s.decisions > 1).count();
        if none + many > 0 {
            violations.push(format!(
                "{none} jobs without a decision, {many} with more than one, of {}",
                self.stamps.len()
            ));
        }
    }

    /// Builds the spans of every job and their means.
    ///
    /// Per job: a root span (`job`: submit → done for a closed loop, due →
    /// decision for an open one) whose children partition it —
    /// `submit_to_arrive`, `arrive_to_decision`, then `decision_to_done`
    /// (closed) or a leading `lag` (open) — plus `done_to_reset`, which
    /// starts where the root ends and is off the critical path.
    fn finish(self, outcome: &mut Outcome) {
        let mut path = PathSpans::default();
        let (mut s2a, mut a2d, mut d2d, mut d2r) = (0.0, 0.0, 0.0, 0.0);
        let (mut parts, mut roots) = (0.0, 0.0);
        for (i, s) in self.stamps.iter().enumerate() {
            if s.arrive == 0 || s.decision == 0 {
                continue; // undecided (already counted as failed) or fast path
            }
            let closed = s.done > 0;
            let (root_start, root_end) =
                if closed { (s.submit, s.done) } else { (s.due, s.decision) };
            let root = outcome.spans.len();
            let trace = i as u64;
            let mut push = |name, start_ns: u64, end_ns: u64, parent| {
                // An observer that runs late can stamp an event after the
                // generator saw its effect; such a span is empty, not negative.
                let end_ns = end_ns.max(start_ns);
                outcome.spans.push(Span { trace, name, start_ns, end_ns, parent });
                (end_ns - start_ns) as f64
            };
            roots += push("job", root_start, root_end, None);
            if !closed {
                parts += push("lag", s.due, s.submit, Some(root));
            }
            let a = push("submit_to_arrive", s.submit, s.arrive, Some(root));
            let b = push("arrive_to_decision", s.arrive, s.decision, Some(root));
            s2a += a;
            a2d += b;
            parts += a + b;
            if closed {
                let c = push("decision_to_done", s.decision, s.done, Some(root));
                d2d += c;
                parts += c;
                path.closed_jobs += 1;
                if s.reset > 0 {
                    d2r += push("done_to_reset", s.done, s.reset, Some(root));
                    path.reset_jobs += 1;
                }
            }
            path.jobs += 1;
        }
        let jobs = path.jobs.max(1) as f64;
        path.submit_to_arrive = s2a / jobs;
        path.arrive_to_decision = a2d / jobs;
        path.decision_to_done = d2d / path.closed_jobs.max(1) as f64;
        path.done_to_reset = d2r / path.reset_jobs.max(1) as f64;
        path.coverage = if roots > 0.0 { parts / roots } else { 0.0 };
        path.trigger_gap = self.trigger_gap;
        path.prepare_to_ack = self.prepare_to_ack;
        outcome.path = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, for a moment, untraced and traced: the output checks
    /// hold and the numbers the metrics are built from are there.
    #[test]
    fn every_workload_runs_and_checks_out() {
        for kind in Kind::ALL {
            for traced in [false, true] {
                let outcome = setup(kind, 11, 0.3).and_then(|s| s.run(0.3, traced)).unwrap();
                let what = format!("{} traced={traced}", kind.name());
                assert_eq!(outcome.violations, Vec::<String>::new(), "{what}");
                assert_eq!(outcome.failed, 0, "{what}");
                assert!(outcome.attempted > 0 && outcome.jobs_done > 0, "{what}");
                assert!(outcome.latency.len() > 0 && outcome.window_s > 0.0, "{what}");
                assert!(outcome.accept_ratio > 0.0 && outcome.accept_ratio <= 1.0 + 1e-9, "{what}");
                if traced && kind != Kind::SimSweep {
                    assert!(outcome.path.jobs > 0 && !outcome.spans.is_empty(), "{what}");
                    assert!(outcome.path.coverage > 0.0, "{what}");
                }
                if kind == Kind::BridgedSwap {
                    assert!(outcome.swaps > 0, "{what}");
                    if traced {
                        assert_eq!(outcome.path.prepare_to_ack.len() as u64, outcome.swaps);
                    }
                }
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
