//! **Micro-benchmark: the cost of one admission decision (ablation A5).**
//!
//! Supports §4.2's claim that "the AUB test is highly efficient when used
//! for AC": measures the AUB term, a full admission test at a realistic
//! current-set size, the greedy load-balancing proposal, and ledger
//! add/expire churn — plus the incremental-vs-brute-force scaling arms
//! (`admission_scaling/*`) at 1k/10k-task current sets, the ablation
//! behind the indexed-ledger admission path (see `rtcm_bench::scaling`).
//! The scaling arms are appended to `BENCH_admission.json` as one
//! trajectory point per run.
//!
//! `RTCM_QUICK=1` drops the 10240-entry arms so smoke runs stay fast.

use criterion::{black_box, criterion_group, Criterion};
use serde_json::json;

use rtcm_bench::scaling::{probe_once, scaling_controller, scaling_probes};
use rtcm_core::admission::{AdmissionController, AdmissionMode};
use rtcm_core::aub::{aub_term, bound_lhs};
use rtcm_core::balance::LoadBalancer;
use rtcm_core::ledger::{ContributionKey, Lifetime, UtilizationLedger};
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, ProcessorId, TaskBuilder, TaskId, TaskSpec};
use rtcm_core::time::{Duration, Time};

fn task(id: u32, stages: u16, procs: u16) -> TaskSpec {
    let mut b = TaskBuilder::aperiodic(TaskId(id)).deadline(Duration::from_secs(1));
    for j in 0..stages {
        let primary = ProcessorId(j % procs);
        let replica = ProcessorId((j + 1) % procs);
        b = b.subtask(Duration::from_millis(2), primary, [replica]);
    }
    b.build().expect("bench tasks are valid")
}

/// Controller pre-loaded with `n` current jobs across `procs` processors.
fn loaded_controller(n: u32, procs: u16) -> AdmissionController {
    let cfg: ServiceConfig = "J_N_T".parse().unwrap();
    let mut ac = AdmissionController::new(cfg, procs as usize).unwrap();
    for i in 0..n {
        let t = task(i, 3, procs);
        let _ = ac.handle_arrival(&t, 0, Time::ZERO).unwrap();
    }
    ac
}

fn bench_aub_math(c: &mut Criterion) {
    c.bench_function("aub_term", |b| b.iter(|| aub_term(black_box(0.42))));
    let utils = [0.3, 0.5, 0.2, 0.45, 0.1];
    c.bench_function("aub_bound_lhs_5_stages", |b| b.iter(|| bound_lhs(black_box(utils))));
}

fn bench_admission_test(c: &mut Criterion) {
    // Paper scale: 9 tasks over 5 processors — plus larger current sets.
    // Each measured decision runs on a *clone* of the pre-loaded controller
    // so admitted probes cannot accumulate and silently grow the current
    // set across iterations.
    let mut group = c.benchmark_group("admission_decision");
    for current in [8u32, 32, 128] {
        group.bench_function(format!("current_set_{current}"), |b| {
            let ac = loaded_controller(current, 5);
            let probe = task(10_000, 3, 5);
            b.iter_batched(
                || ac.clone(),
                |mut ac| {
                    let d = ac.handle_arrival(black_box(&probe), 0, Time::ZERO).unwrap();
                    black_box(d)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The scaling ablation: one steady-state admission decision (arrival +
/// expiry churn) against current sets far beyond the paper's 9-task scale,
/// incremental vs. brute-force. Each round advances virtual time so the
/// previous probe expires and the next is admitted — state stays bounded
/// without cloning the controller into the measured region.
fn admission_scaling() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let sizes: &[(u32, u16)] =
        if quick { &[(128, 8), (1024, 64)] } else { &[(128, 8), (1024, 64), (10240, 64)] };
    let rounds: u64 = if quick { 2_000 } else { 20_000 };
    println!("group: admission_scaling");
    let mut results = Vec::new();
    for &(n, procs) in sizes {
        for (label, mode) in
            [("incremental", AdmissionMode::Incremental), ("brute", AdmissionMode::BruteForce)]
        {
            let mut ac = scaling_controller(n, procs, mode);
            // Alternate two probe sizes so consecutive expire+admit
            // rounds never net a processor back to exactly its prior
            // utilization (which would skip the delta work).
            let probes = scaling_probes(procs);
            let mut now = Time::ZERO;
            let mut decide = |seq: u64| {
                now = now.saturating_add(Duration::from_millis(2));
                let probe = &probes[(seq % 2) as usize];
                black_box(probe_once(&mut ac, black_box(probe), seq, now));
            };
            let warm_up = rounds / 10;
            (0..warm_up).for_each(&mut decide);
            let started = std::time::Instant::now();
            (warm_up..warm_up + rounds).for_each(&mut decide);
            let ns = started.elapsed().as_nanos() as f64 / rounds as f64;
            let arm = format!("{label}_{n}_p{procs}");
            println!("admission_scaling/{arm:<31} time: {ns:>9.0} ns/decision  ({rounds} rounds)");
            results.push(json!({
                "arm": arm,
                "current_set": n,
                "processors": procs,
                "ns_per_decision": ns,
            }));
        }
    }
    match rtcm_bench::append_bench_point("BENCH_admission.json", "micro_admission", quick, results)
    {
        Ok(path) => println!("appended a point to {}", path.display()),
        Err(e) => eprintln!("could not append to BENCH_admission.json: {e}"),
    }
}

fn bench_lb_proposal(c: &mut Criterion) {
    let ac = loaded_controller(32, 5);
    let probe = task(10_001, 3, 5);
    c.bench_function("lb_greedy_proposal", |b| {
        b.iter(|| black_box(LoadBalancer::propose(&probe, ac.ledger())))
    });
}

fn bench_ledger_churn(c: &mut Criterion) {
    c.bench_function("ledger_add_remove", |b| {
        let mut ledger = UtilizationLedger::new(5);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let key = ContributionKey::new(JobId::new(TaskId(0), seq), 0);
            ledger
                .add(ProcessorId(0), key, 0.01, Lifetime::UntilDeadline(Time::from_nanos(seq)))
                .unwrap();
            ledger.remove(ProcessorId(0), key);
        });
    });
    c.bench_function("ledger_expire_1000", |b| {
        b.iter_batched(
            || {
                let mut ledger = UtilizationLedger::new(5);
                for i in 0..1000u64 {
                    let key = ContributionKey::new(JobId::new(TaskId(0), i), 0);
                    ledger
                        .add(
                            ProcessorId((i % 5) as u16),
                            key,
                            0.0001,
                            Lifetime::UntilDeadline(Time::from_nanos(i)),
                        )
                        .unwrap();
                }
                ledger
            },
            |mut ledger| {
                ledger.expire_until(Time::from_nanos(1_000));
                black_box(ledger)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_aub_math,
    bench_admission_test,
    bench_lb_proposal,
    bench_ledger_churn
);

fn main() {
    benches();
    admission_scaling();
}
