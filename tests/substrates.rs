//! The cross-substrate net: the threaded runtime and the simulator drive the
//! same Figure 3 components, so on a trace where timing cannot change a
//! decision they must decide alike — job by job, in all 15 configurations,
//! with and without one live reconfiguration mid-trace.
//!
//! The trace shape takes timing out of the comparison:
//!
//! * arrivals are spaced beyond one chain's execution time, so the
//!   simulator runs one job at a time, as the runtime does when the test
//!   quiesces after every submit;
//! * every deadline outlasts the whole trace, so neither side expires
//!   anything;
//! * no chain can visit a processor twice. The runtime declares a processor
//!   idle only after draining its mailbox (DESIGN.md "Reactor core", the
//!   idle rule), and under `ExecMode::Noop` a chain that comes back to a
//!   processor may find it still draining: one idle period there, two in
//!   the simulator, whose stages take virtual time.
//!
//! Compared per job: accept or reject, the processor each stage ran on,
//! and the idle-reset reports the manager has applied so far. Compared per
//! case, at its end: seven rows of the one registry both substrates book
//! (`RtMetrics`), read off the runtime's final report and the simulated
//! run's `telemetry`.

use std::time::{Duration as StdDuration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtcm::config::{configure_with, Deployment, WorkloadSpec};
use rtcm::core::reconfig::ModeSchedule;
use rtcm::core::strategy::ServiceConfig;
use rtcm::core::task::{JobId, TaskId};
use rtcm::core::time::{Duration, Time};
use rtcm::events::{topics, NodeId};
use rtcm::rt::proto::{self, AcceptMsg, TriggerMsg};
use rtcm::rt::{RtOptions, System, SystemReport};
use rtcm::sim::{simulate_with, SimConfig, SimOptions, SimRun};
use rtcm::workload::{Arrival, ArrivalTrace};

const PROCESSORS: u16 = 3;
/// Cases per configuration in each of the two tests.
const CASES: u64 = 4;
const QUIESCE: StdDuration = StdDuration::from_secs(20);
/// How long an idle reset still in flight when `quiesce` returns may take
/// to reach the manager.
const REPORT_WAIT: StdDuration = StdDuration::from_secs(5);

/// Per job, in arrival order: the processor each stage ran on (`None` if
/// the job was rejected), and the idle-reset reports applied once it was
/// done.
type Outcome = Vec<(JobId, Option<Vec<u16>>, u64)>;

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

impl Case {
    /// 3 processors, 3–5 periodic or aperiodic tasks, chains of 1–3 stages
    /// with replicas, 8–14 arrivals in a random task order.
    fn generate(services: ServiceConfig, seed: u64, swap: bool) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        // Per task: periodic or not, and per stage (exec ms, primary,
        // replicas).
        type Stage = (u64, u16, Vec<u16>);
        let chains: Vec<(bool, Vec<Stage>)> = (0..rng.gen_range(3..=5))
            .map(|_| {
                let mut stages: Vec<Stage> = Vec::new();
                for _ in 0..rng.gen_range(1..=3) {
                    let free: Vec<u16> = (0..PROCESSORS)
                        .filter(|p| stages.iter().all(|(_, q, r)| q != p && !r.contains(p)))
                        .collect();
                    if free.is_empty() {
                        break; // the earlier stages may run anywhere
                    }
                    // Processor 0 is the hot one: loads skew, so the
                    // balancer's choice matters and the bound binds.
                    let primary = if free.contains(&0) && rng.gen_bool(0.8) {
                        0
                    } else {
                        free[rng.gen_range(0..free.len())]
                    };
                    let replicas =
                        free.into_iter().filter(|&p| p != primary && rng.gen_bool(0.3)).collect();
                    let exec = if primary == 0 { 10_000..=30_000 } else { 1_000..=10_000 };
                    stages.push((rng.gen_range(exec), primary, replicas));
                }
                (rng.gen_bool(0.5), stages)
            })
            .collect();
        let chain_ms = |task: usize| chains[task].1.iter().map(|s| s.0).sum::<u64>();

        // Each arrival waits for the previous chain, plus 100 ms.
        let mut seqs = vec![0u64; chains.len()];
        let (mut arrivals, mut at_ms) = (Vec::new(), 0);
        for _ in 0..rng.gen_range(8..=14) {
            let task = rng.gen_range(0..chains.len());
            arrivals.push(Arrival {
                time: Time::ZERO + Duration::from_millis(at_ms),
                task: TaskId(task as u32),
                seq: seqs[task],
            });
            seqs[task] += 1;
            at_ms += chain_ms(task) + 100;
        }

        let mut spec = format!("workload net\nprocessors {PROCESSORS}\n");
        for (i, (periodic, stages)) in chains.iter().enumerate() {
            // Past the last completion, so nothing expires.
            let deadline = at_ms / 1_000 + rng.gen_range(1..=20u64);
            let kind = if *periodic { "periodic period" } else { "aperiodic deadline" };
            spec += &format!("task t{i} {kind}={deadline}s\n");
            for (exec, primary, replicas) in stages {
                spec += &format!("  subtask exec={exec}ms proc={primary}");
                if !replicas.is_empty() {
                    let list: Vec<String> = replicas.iter().map(u16::to_string).collect();
                    spec += &format!(" replicas={}", list.join(","));
                }
                spec += "\n";
            }
        }
        let swap = swap.then(|| {
            let others: Vec<ServiceConfig> =
                ServiceConfig::all_valid().into_iter().filter(|c| *c != services).collect();
            (rng.gen_range(1..arrivals.len()), others[rng.gen_range(0..others.len())])
        });
        let deployment = configure_with(&WorkloadSpec::parse(&spec).unwrap(), services).unwrap();
        Case { spec, deployment, trace: ArrivalTrace::from_arrivals(arrivals), swap }
    }

    /// The simulator over the first `len` arrivals. The swap fires 50 ms
    /// before its arrival, after the previous chain is done.
    fn simulate(&self, len: usize, recorded: bool) -> SimRun {
        let arrivals = &self.trace.arrivals()[..len];
        let mut schedule = ModeSchedule::new();
        if let Some((k, target)) = self.swap.filter(|&(k, _)| k < len) {
            schedule.push(arrivals[k].time - Duration::from_millis(50), target);
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

    /// The simulator's outcome, and its registry at the end of the trace.
    fn simulated(&self) -> (Outcome, SystemReport) {
        let arrivals = self.trace.arrivals();
        let run = self.simulate(arrivals.len(), true);
        let (records, spans) = (run.records.unwrap(), run.spans.unwrap());
        let outcome = arrivals
            .iter()
            .zip(&records)
            .enumerate()
            .map(|(k, (arrival, record))| {
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
                (job, placement, self.simulate(k + 1, false).report.ir_reports)
            })
            .collect();
        (outcome, run.telemetry.snapshot())
    }

    /// The runtime over the whole trace. `reports[k]` is the simulator's
    /// idle-reset count after arrival `k`: a report may still be in flight
    /// when `quiesce` returns, so the runtime gets a bounded wait for it.
    /// The final report comes back beside the outcome.
    fn threaded(&self, reports: &[u64]) -> (Outcome, SystemReport) {
        let system = System::launch(&self.deployment, RtOptions::fast()).unwrap();
        let observer = system
            .federation()
            .handle(NodeId(0))
            .unwrap()
            .subscribe_many(&[topics::ACCEPT, topics::TRIGGER]);
        let metrics = system.telemetry();
        let mut outcome = Vec::new();
        for (k, arrival) in self.trace.arrivals().iter().enumerate() {
            if let Some((_, target)) = self.swap.filter(|&(at, _)| at == k) {
                system.reconfigure(target).unwrap();
            }
            let released = metrics.released_jobs.get();
            system.submit(arrival.task, arrival.seq).unwrap();
            assert!(system.quiesce(QUIESCE));

            let job = JobId::new(arrival.task, arrival.seq);
            let mut placed: Option<Vec<u16>> = None;
            while let Ok(ev) = observer.try_recv() {
                let (of, assignment) = if ev.topic == topics::ACCEPT {
                    let msg: AcceptMsg = proto::decode(&ev.payload);
                    (msg.job, msg.assignment)
                } else {
                    let msg: TriggerMsg = proto::decode(&ev.payload);
                    (msg.job, msg.assignment)
                };
                assert_eq!(of, job);
                assert!(placed.as_ref().is_none_or(|p| *p == assignment), "one placement per job");
                placed = Some(assignment);
            }
            let placement = (metrics.released_jobs.get() > released).then(|| {
                // A one-stage job released on the fast path at its arrival
                // processor sends nothing: it ran on its primary.
                placed.take().unwrap_or_else(|| {
                    let task = system.tasks().get(arrival.task).unwrap();
                    task.subtasks().iter().map(|s| s.primary.0).collect()
                })
            });
            assert!(placed.is_none(), "a rejected job was placed");

            let waited = Instant::now();
            while metrics.ir_reports.get() != reports[k] && waited.elapsed() < REPORT_WAIT {
                std::thread::sleep(StdDuration::from_millis(1));
            }
            outcome.push((job, placement, metrics.ir_reports.get()));
        }
        (outcome, system.shutdown())
    }
}

/// Runs `CASES` cases per configuration; returns how many jobs there were,
/// and how many of them were rejected and reallocated.
fn net(swap: bool) -> (usize, usize, usize) {
    let (mut jobs, mut rejected, mut reallocated) = (0, 0, 0);
    for (c, services) in ServiceConfig::all_valid().into_iter().enumerate() {
        for i in 0..CASES {
            let seed = ((c as u64) << 16) | (u64::from(swap) << 8) | i;
            let case = Case::generate(services, seed, swap);
            let (simulated, sim_report) = case.simulated();
            let reports: Vec<u64> = simulated.iter().map(|(_, _, r)| *r).collect();
            let (threaded, rt_report) = case.threaded(&reports);
            let context = format!("{services}, seed {seed}, swap {:?}\n{}", case.swap, case.spec);
            assert_eq!(threaded, simulated, "runtime (left) vs simulator (right): {context}");
            assert_eq!(
                rows(&rt_report),
                rows(&sim_report),
                "registry rows, runtime (left) vs simulator (right): {context}"
            );
            for (job, placement, _) in &simulated {
                jobs += 1;
                let Some(placement) = placement else {
                    rejected += 1;
                    continue;
                };
                let task = case.deployment.tasks.get(job.task).unwrap();
                if placement.iter().zip(task.subtasks()).any(|(p, s)| *p != s.primary.0) {
                    reallocated += 1;
                }
            }
        }
    }
    (jobs, rejected, reallocated)
}

/// The net only holds something if its traces reach the bound and give the
/// balancer real choices (the cases are seeded, so the counts are fixed).
fn assert_exercised((jobs, rejected, reallocated): (usize, usize, usize)) {
    assert!(rejected >= 10, "{rejected} of {jobs} rejected");
    assert!(reallocated >= 50, "{reallocated} of {jobs} reallocated");
}

#[test]
fn substrates_decide_alike_on_static_traces() {
    assert_exercised(net(false));
}

#[test]
fn substrates_decide_alike_across_a_mid_trace_swap() {
    assert_exercised(net(true));
}
