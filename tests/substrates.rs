//! The cross-substrate net: the runtime's own handlers, stepped by a
//! [`Host`] on a virtual clock, and the simulator drive the same Figure 3
//! components, so they must decide alike — job by job, in all 15
//! configurations.
//!
//! Two arms:
//!
//! * **Decisions** (`substrates_decide_alike_*`): spaced arrivals, deadlines
//!   past the trace and `ExecMode::Noop`, with and without one live
//!   reconfiguration mid-trace. Compared per job: accept or reject, the
//!   processor each stage ran on, and the idle-reset reports the manager
//!   has applied once the job is done. Compared per case, at its end:
//!   seven rows of the one registry both substrates book (`RtMetrics`).
//! * **Timing** (`substrates_time_alike_*`): dense arrivals at nanosecond
//!   instants, overlapping chains, deadlines that bind and
//!   `ExecMode::Sleep`. Compared per job: accept or reject, placement and
//!   the completion instant, to the nanosecond. No admitted job may miss
//!   its deadline on the host.
//!
//! Chains that visit a processor twice are a generator of their own, on
//! which the substrates are known to differ (ROADMAP item 3): the
//! simulator declares a processor idle at the completion that empties it,
//! while a node declares idleness after draining its mailbox, so a stage
//! whose next stage lands on the same processor at the same instant is one
//! idle period there and two in the simulator. The earlier idle reset can
//! move later decisions. That arm counts the diverging jobs per
//! configuration and asserts only the guarantee.
//!
//! The host's placements are the ones its ACCEPT and TRIGGER messages
//! carry, read by a subscriber of its own federation; whether and when a
//! job was released and completed is read off the release and completion
//! records of the job's deterministic trace id.
//!
//! A third arm, `substrates_count_misses_of_periodic_jobs_inside_their_period`,
//! keeps a known defect visible: nothing enforces a periodic task's minimum
//! inter-arrival time, so jobs that arrive inside their period are admitted
//! and can miss. The substrates agree on them job by job; the misses are
//! counted and their total pinned.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtcm::config::{configure_with, Deployment, WorkloadSpec};
use rtcm::core::reconfig::ModeSchedule;
use rtcm::core::strategy::ServiceConfig;
use rtcm::core::task::{JobId, TaskId};
use rtcm::core::time::{Duration, Time};
use rtcm::events::{topics, EventReceiver, NodeId};
use rtcm::rt::host::Host;
use rtcm::rt::proto::{self, AcceptMsg, TriggerMsg};
use rtcm::rt::{ExecMode, RtOptions, SystemReport};
use rtcm::sim::{simulate_with, SimConfig, SimOptions, SimRun};
use rtcm::workload::{Arrival, ArrivalTrace};

const PROCESSORS: u16 = 3;
/// Cases per configuration in each of the two decision tests.
const CASES: u64 = 4;
/// Cases per configuration in each timing arm.
const TIMED_CASES: u64 = 6;

/// Per job, in arrival order: the processor each stage ran on (`None` if
/// the job was rejected), and the idle-reset reports applied once it was
/// done.
type Outcome = Vec<(JobId, Option<Vec<u16>>, u64)>;

/// Per job, in arrival order: its placement (`None` if rejected) and the
/// instant its last stage completed.
type Timed = Vec<(JobId, Option<Vec<u16>>, Option<Time>)>;

/// Per job, the placement its ACCEPT and TRIGGER messages carried.
type Placed = HashMap<JobId, Vec<u16>>;

/// The registry rows both substrates must agree on at a case's end:
/// arrived, released and completed jobs, deadline misses, reallocations,
/// idle-reset reports and committed swaps.
fn rows(r: &SystemReport) -> [u64; 7] {
    [
        r.ratio.arrived_jobs(),
        r.ratio.released_jobs(),
        r.jobs_completed,
        r.deadline_misses,
        r.reallocations,
        r.ir_reports,
        r.reconfig_swaps,
    ]
}

/// One generated case: a deployment, an arrival order and, maybe, a swap
/// to a target configuration just before the `k`-th arrival.
struct Case {
    spec: String,
    deployment: Deployment,
    trace: ArrivalTrace,
    swap: Option<(usize, ServiceConfig)>,
}

/// Per task: periodic or not, and per stage (exec ns, primary, replicas).
type Chains = Vec<(bool, Vec<(u64, u16, Vec<u16>)>)>;

/// The spec text of `chains` with per-task deadlines (ns).
fn spec_text(chains: &Chains, deadline_ns: impl Fn(usize) -> u64) -> String {
    let mut spec = format!("workload net\nprocessors {PROCESSORS}\n");
    for (i, (periodic, stages)) in chains.iter().enumerate() {
        let kind = if *periodic { "periodic period" } else { "aperiodic deadline" };
        spec += &format!("task t{i} {kind}={}ns\n", deadline_ns(i));
        for (exec, primary, replicas) in stages {
            spec += &format!("  subtask exec={exec}ns proc={primary}");
            if !replicas.is_empty() {
                let list: Vec<String> = replicas.iter().map(u16::to_string).collect();
                spec += &format!(" replicas={}", list.join(","));
            }
            spec += "\n";
        }
    }
    spec
}

/// 3–5 periodic or aperiodic tasks with chains of 1–3 stages and
/// replicas. A stage's execution time is drawn from `exec` in units of
/// `unit` ns, or from three times its upper end on processor 0, the hot
/// one: loads skew, so the balancer's choice matters and the bound binds.
/// With `revisit`, a stage may run where an earlier one did, and at least
/// one chain does.
fn chains(rng: &mut StdRng, exec: (u64, u64), unit: u64, revisit: bool) -> Chains {
    loop {
        let chains: Chains = (0..rng.gen_range(3..=5))
            .map(|_| {
                let mut stages: Vec<(u64, u16, Vec<u16>)> = Vec::new();
                for _ in 0..rng.gen_range(1..=3) {
                    let free: Vec<u16> = (0..PROCESSORS)
                        .filter(|p| {
                            revisit || stages.iter().all(|(_, q, r)| q != p && !r.contains(p))
                        })
                        .collect();
                    if free.is_empty() {
                        break; // the earlier stages may run anywhere
                    }
                    let primary = if free.contains(&0) && rng.gen_bool(0.8) {
                        0
                    } else {
                        free[rng.gen_range(0..free.len())]
                    };
                    let replicas =
                        free.into_iter().filter(|&p| p != primary && rng.gen_bool(0.3)).collect();
                    let (lo, hi) = if primary == 0 { (exec.1, 3 * exec.1) } else { exec };
                    stages.push((rng.gen_range(lo..=hi) * unit, primary, replicas));
                }
                (rng.gen_bool(0.5), stages)
            })
            .collect();
        let revisits = chains.iter().any(|(_, stages)| {
            stages.iter().enumerate().any(|(i, s)| stages[..i].iter().any(|e| e.1 == s.1))
        });
        if revisits == revisit {
            return chains;
        }
    }
}

impl Case {
    /// Decision arm: 8–14 arrivals in a random task order, each after the
    /// previous chain is done plus 100 ms, and deadlines past the trace.
    fn generate(services: ServiceConfig, seed: u64, swap: bool) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let chains = chains(&mut rng, (1_000, 10_000), 1_000_000, false);
        let chain_ns = |task: usize| chains[task].1.iter().map(|s| s.0).sum::<u64>();
        let mut seqs = vec![0u64; chains.len()];
        let (mut arrivals, mut at_ns) = (Vec::new(), 0);
        for _ in 0..rng.gen_range(8..=14) {
            let task = rng.gen_range(0..chains.len());
            arrivals.push(Arrival {
                time: Time::from_nanos(at_ns),
                task: TaskId(task as u32),
                seq: seqs[task],
            });
            seqs[task] += 1;
            at_ns += chain_ns(task) + 100_000_000;
        }
        // Whole seconds past the last completion, so nothing expires.
        let deadlines: Vec<u64> = (0..chains.len())
            .map(|_| (at_ns / 1_000_000_000 + rng.gen_range(1..=20u64)) * 1_000_000_000)
            .collect();
        let spec = spec_text(&chains, |i| deadlines[i]);
        let swap = swap.then(|| {
            let others: Vec<ServiceConfig> =
                ServiceConfig::all_valid().into_iter().filter(|c| *c != services).collect();
            (rng.gen_range(1..arrivals.len()), others[rng.gen_range(0..others.len())])
        });
        Case::new(spec, services, arrivals, swap)
    }

    /// Timing arm: 12–24 arrivals at nanosecond instants 0–12 ms apart, so
    /// chains overlap and preempt, and deadlines of 1.2–4 chain lengths.
    /// With `spaced`, a periodic task's jobs stay a period apart (a draw
    /// that would come sooner arrives nothing), as the bound assumes.
    fn generate_timed(services: ServiceConfig, seed: u64, revisit: bool, spaced: bool) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let chains = chains(&mut rng, (1_000_000, 8_000_000), 1, revisit);
        let deadlines: Vec<u64> = chains
            .iter()
            .map(|(_, stages)| {
                let chain_ns = stages.iter().map(|s| s.0).sum::<u64>();
                chain_ns + rng.gen_range(chain_ns / 5..=3 * chain_ns)
            })
            .collect();
        let spec = spec_text(&chains, |i| deadlines[i]);
        let (mut seqs, mut free_at) = (vec![0u64; chains.len()], vec![0u64; chains.len()]);
        let (mut arrivals, mut at_ns) = (Vec::new(), 0);
        for _ in 0..rng.gen_range(12..=24) {
            let task = rng.gen_range(0..chains.len());
            if !spaced || at_ns >= free_at[task] {
                arrivals.push(Arrival {
                    time: Time::from_nanos(at_ns),
                    task: TaskId(task as u32),
                    seq: seqs[task],
                });
                seqs[task] += 1;
                free_at[task] = if chains[task].0 { at_ns + deadlines[task] } else { 0 };
            }
            at_ns += rng.gen_range(1..=12_000_000u64);
        }
        Case::new(spec, services, arrivals, None)
    }

    fn new(
        spec: String,
        services: ServiceConfig,
        arrivals: Vec<Arrival>,
        swap: Option<(usize, ServiceConfig)>,
    ) -> Case {
        let deployment = configure_with(&WorkloadSpec::parse(&spec).unwrap(), services).unwrap();
        Case { spec, deployment, trace: ArrivalTrace::from_arrivals(arrivals), swap }
    }

    /// When the swap fires: 50 ms before its arrival, after the previous
    /// chain is done.
    fn swap_at(&self) -> Option<(usize, Time, ServiceConfig)> {
        let arrivals = self.trace.arrivals();
        self.swap.map(|(k, target)| (k, arrivals[k].time - Duration::from_millis(50), target))
    }

    /// The simulator over the first `len` arrivals.
    fn simulate(&self, len: usize, recorded: bool) -> SimRun {
        let arrivals = &self.trace.arrivals()[..len];
        let mut schedule = ModeSchedule::new();
        if let Some((_, at, target)) = self.swap_at().filter(|&(k, _, _)| k < len) {
            schedule.push(at, target);
        }
        let options = SimOptions {
            schedule,
            record_jobs: recorded,
            trace_execution: recorded,
            ..SimOptions::default()
        };
        let prefix = ArrivalTrace::from_arrivals(arrivals.to_vec());
        let config = SimConfig::ideal(self.deployment.services);
        simulate_with(&self.deployment.tasks, &prefix, &config, &options).unwrap()
    }

    /// The simulator's placement and completion instant per job, and its
    /// registry at the end of the trace.
    fn simulated_timed(&self) -> (Timed, SystemReport) {
        let arrivals = self.trace.arrivals();
        let run = self.simulate(arrivals.len(), true);
        let (records, spans) = (run.records.unwrap(), run.spans.unwrap());
        let outcome = arrivals
            .iter()
            .zip(&records)
            .map(|(arrival, record)| {
                let job = JobId::new(arrival.task, arrival.seq);
                let placement = record.released.then(|| {
                    let stages = self.deployment.tasks.get(arrival.task).unwrap().subtasks().len();
                    (0..stages)
                        .map(|stage| {
                            spans
                                .iter()
                                .find(|s| s.job == job && s.subtask == stage && s.completed)
                                .expect("a released job runs every stage")
                                .processor
                        })
                        .collect()
                });
                (job, placement, record.completed)
            })
            .collect();
        (outcome, run.telemetry.snapshot())
    }

    /// The simulator's decision-arm outcome: per job, its placement and
    /// the idle-reset count once it is done (the prefix run up to it).
    fn simulated(&self) -> (Outcome, SystemReport) {
        let (timed, report) = self.simulated_timed();
        let outcome = timed
            .into_iter()
            .enumerate()
            .map(|(k, (job, placement, _))| {
                (job, placement, self.simulate(k + 1, false).report.ir_reports)
            })
            .collect();
        (outcome, report)
    }

    /// The host over the whole trace, and every job's placement: each
    /// arrival submitted at its instant, and the swap run at its instant.
    /// Under `ExecMode::Noop`, after each submission the host runs until
    /// nothing is pending and `observe` sees it.
    fn hosted(&self, options: RtOptions, mut observe: impl FnMut(&Host)) -> (Host, Placed) {
        let mut host = Host::launch(&self.deployment, options).unwrap();
        let observer = host
            .federation()
            .handle(NodeId(0))
            .unwrap()
            .subscribe_many(&[topics::ACCEPT, topics::TRIGGER]);
        let mut placed = Placed::new();
        for (k, arrival) in self.trace.arrivals().iter().enumerate() {
            if let Some((_, at, target)) = self.swap_at().filter(|&(swap_k, _, _)| swap_k == k) {
                host.run_until(at);
                host.reconfigure(target).unwrap();
            }
            host.run_until(arrival.time);
            host.submit(arrival.task, arrival.seq).unwrap();
            if options.exec == ExecMode::Noop {
                host.run();
                observe(&host);
            }
        }
        host.run();
        place(&observer, &mut placed);
        (host, placed)
    }

    /// The host's decision-arm outcome and final report.
    fn decided(&self) -> (Outcome, SystemReport) {
        let mut reports = Vec::new();
        let (host, placed) =
            self.hosted(RtOptions::fast(), |h| reports.push(h.telemetry().ir_reports.get()));
        let outcome = self
            .outcome(&host, placed)
            .into_iter()
            .zip(reports)
            .map(|((job, placement, _), reports)| (job, placement, reports))
            .collect();
        (outcome, host.report())
    }

    /// The host's timing-arm outcome and final report.
    fn timed(&self, seed: u64) -> (Timed, SystemReport) {
        let options = RtOptions { exec: ExecMode::Sleep, seed, ..RtOptions::fast() };
        let (host, placed) = self.hosted(options, |_| {});
        (self.outcome(&host, placed), host.report())
    }

    /// Each job's placement and completion instant. A job the host
    /// released ran where its ACCEPT and TRIGGER messages placed it; one
    /// that sent neither is a one-stage job its arrival processor released
    /// on its fast path, so it ran there, on its primary.
    fn outcome(&self, host: &Host, mut placed: Placed) -> Timed {
        let records = host.telemetry().trace.snapshot();
        let outcome = self
            .trace
            .arrivals()
            .iter()
            .map(|arrival| {
                let job = JobId::new(arrival.task, arrival.seq);
                let id = proto::mint_trace(host.host_id(), arrival.task, arrival.seq);
                let at = |stage: &str| {
                    records.iter().find(|r| r.trace == id && r.stage == stage).map(|r| r.at_ns)
                };
                let placement = at("release").map(|_| {
                    placed.remove(&job).unwrap_or_else(|| {
                        let task = self.deployment.tasks.get(arrival.task).unwrap();
                        task.subtasks().iter().map(|s| s.primary.0).collect()
                    })
                });
                (job, placement, at("completion").map(Time::from_nanos))
            })
            .collect();
        assert!(placed.is_empty(), "a rejected job was placed: {placed:?}");
        outcome
    }
}

/// Drains `observer` (ACCEPT and TRIGGER on the manager's node) into
/// `placed`: every message of one job carries one placement.
fn place(observer: &EventReceiver, placed: &mut Placed) {
    while let Ok(ev) = observer.try_recv() {
        let (job, assignment) = if ev.topic == topics::ACCEPT {
            let msg: AcceptMsg = proto::decode(&ev.payload);
            (msg.job, msg.assignment)
        } else {
            let msg: TriggerMsg = proto::decode(&ev.payload);
            (msg.job, msg.assignment)
        };
        let first = placed.entry(job).or_insert_with(|| assignment.clone());
        assert_eq!(*first, assignment, "one placement per job ({job:?})");
    }
}

/// Per job: how many there were, and how many were rejected and
/// reallocated.
#[derive(Debug, Default)]
struct Exercised {
    jobs: usize,
    rejected: usize,
    reallocated: usize,
}

impl Exercised {
    fn count<X>(&mut self, case: &Case, outcome: &[(JobId, Option<Vec<u16>>, X)]) {
        for (job, placement, _) in outcome {
            self.jobs += 1;
            let Some(placement) = placement else {
                self.rejected += 1;
                continue;
            };
            let task = case.deployment.tasks.get(job.task).unwrap();
            if placement.iter().zip(task.subtasks()).any(|(p, s)| *p != s.primary.0) {
                self.reallocated += 1;
            }
        }
    }

    /// The net only holds something if its traces reach the bound and
    /// give the balancer real choices (the cases are seeded, so the counts
    /// are fixed).
    fn assert_at_least(&self, rejected: usize, reallocated: usize) {
        let Exercised { jobs, .. } = *self;
        assert!(self.rejected >= rejected, "{} of {jobs} rejected", self.rejected);
        assert!(self.reallocated >= reallocated, "{} of {jobs} reallocated", self.reallocated);
    }
}

/// Runs `CASES` decision cases per configuration.
fn net(swap: bool) -> Exercised {
    let mut exercised = Exercised::default();
    for (c, services) in ServiceConfig::all_valid().into_iter().enumerate() {
        for i in 0..CASES {
            let seed = ((c as u64) << 16) | (u64::from(swap) << 8) | i;
            let case = Case::generate(services, seed, swap);
            let (simulated, sim_report) = case.simulated();
            let (hosted, host_report) = case.decided();
            let context = format!("{services}, seed {seed}, swap {:?}\n{}", case.swap, case.spec);
            assert_eq!(hosted, simulated, "host (left) vs simulator (right): {context}");
            assert_eq!(
                rows(&host_report),
                rows(&sim_report),
                "registry rows, host (left) vs simulator (right): {context}"
            );
            exercised.count(&case, &simulated);
        }
    }
    exercised
}

#[test]
fn substrates_decide_alike_on_static_traces() {
    net(false).assert_at_least(10, 50);
}

#[test]
fn substrates_decide_alike_across_a_mid_trace_swap() {
    net(true).assert_at_least(10, 50);
}

/// One timing case on both substrates: the host's outcome, the
/// simulator's, and the host's deadline misses.
fn timed_case(services: ServiceConfig, seed: u64, revisit: bool) -> (Case, Timed, Timed) {
    let case = Case::generate_timed(services, seed, revisit, true);
    let (simulated, sim_report) = case.simulated_timed();
    let (hosted, report) = case.timed(seed);
    let context = format!(
        "{services}, seed {seed}, simulator misses {}\n{}",
        sim_report.deadline_misses, case.spec
    );
    assert_eq!(report.deadline_misses, 0, "an admitted job missed on the host: {context}");
    assert_eq!(sim_report.deadline_misses, 0, "an admitted job missed in the simulator: {context}");
    assert_eq!(report.jobs_completed, report.ratio.released_jobs(), "{context}");
    (case, hosted, simulated)
}

#[test]
fn substrates_time_alike_to_the_nanosecond() {
    let mut exercised = Exercised::default();
    for (c, services) in ServiceConfig::all_valid().into_iter().enumerate() {
        for i in 0..TIMED_CASES {
            let seed = (1 << 24) | ((c as u64) << 16) | i;
            let (case, hosted, simulated) = timed_case(services, seed, false);
            let context = format!("{services}, seed {seed}\n{}", case.spec);
            assert_eq!(hosted, simulated, "host (left) vs simulator (right): {context}");
            exercised.count(&case, &simulated);
        }
    }
    println!("timing arm: {exercised:?}");
    exercised.assert_at_least(100, 50);
}

/// ROADMAP item 3's measurement: on chains that revisit a processor, how
/// many jobs per configuration the two idle instants decide or time
/// differently. Printed, not asserted: the guarantee is.
#[test]
fn substrates_on_revisiting_chains_keep_the_guarantee() {
    let mut diverged = Vec::new();
    let mut exercised = Exercised::default();
    for (c, services) in ServiceConfig::all_valid().into_iter().enumerate() {
        let mut jobs = (0, 0);
        for i in 0..TIMED_CASES {
            let seed = (2 << 24) | ((c as u64) << 16) | i;
            let (case, hosted, simulated) = timed_case(services, seed, true);
            jobs.0 += hosted.iter().zip(&simulated).filter(|(h, s)| h != s).count();
            jobs.1 += hosted.len();
            exercised.count(&case, &hosted);
        }
        diverged.push(format!("{services} {}/{}", jobs.0, jobs.1));
    }
    println!("revisiting chains, jobs diverging per configuration: {}", diverged.join(", "));
    println!("revisit arm: {exercised:?}");
    exercised.assert_at_least(100, 50);
}

/// The known defect behind the spaced generator: nothing enforces a
/// periodic task's minimum inter-arrival time. Under per-task admission
/// (`T_*_*`) the task effector's fast path releases every later job of an
/// admitted periodic task without a test, so jobs that arrive inside their
/// period are admitted and can miss. The timing cases without the spacing
/// still agree job by job, completion instants included; their misses are
/// printed per configuration and their total is pinned, so a fix of the
/// defect, or a regression in it, shows here (update the total then).
#[test]
fn substrates_count_misses_of_periodic_jobs_inside_their_period() {
    let (mut early, mut total, mut counts) = (0, 0, Vec::new());
    for (c, services) in ServiceConfig::all_valid().into_iter().enumerate() {
        let mut misses = (0, 0, 0);
        for i in 0..TIMED_CASES {
            let seed = (3 << 24) | ((c as u64) << 16) | i;
            let case = Case::generate_timed(services, seed, false, false);
            let mut last: HashMap<TaskId, Time> = HashMap::new();
            for arrival in case.trace.arrivals() {
                let task = case.deployment.tasks.get(arrival.task).unwrap();
                let before = last.insert(arrival.task, arrival.time);
                if task
                    .kind()
                    .period()
                    .is_some_and(|p| before.is_some_and(|t| arrival.time < t + p))
                {
                    early += 1;
                }
            }
            let (simulated, sim_report) = case.simulated_timed();
            let (hosted, report) = case.timed(seed);
            let context = format!("{services}, seed {seed}\n{}", case.spec);
            assert_eq!(hosted, simulated, "host (left) vs simulator (right): {context}");
            misses.0 += report.deadline_misses;
            misses.1 += sim_report.deadline_misses;
            misses.2 += report.ratio.released_jobs();
        }
        total += misses.0;
        counts.push(format!("{services} {}/{}/{}", misses.0, misses.1, misses.2));
    }
    println!("periodic jobs inside their period: {early} arrivals");
    println!("misses per configuration (host/simulator/host released): {}", counts.join(", "));
    assert!(early >= 10, "the generator puts periodic jobs inside their period ({early})");
    assert_eq!(total, 25, "admitted jobs that missed, all in T_*_* (the known defect)");
}
