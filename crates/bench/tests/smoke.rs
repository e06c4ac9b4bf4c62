//! Fast smoke test for the bench harness: drives [`run_combo_experiment`]
//! through the same `RTCM_QUICK=1` environment path the bench binaries
//! use, so `cargo test` exercises the §7 experiment plumbing without a
//! full `cargo bench` run — plus a smoke pass over the `micro_admission`
//! scaling arms' shared fixture (`rtcm_bench::scaling`).
//!
//! The combo experiment lives in one `#[test]`: its knobs are
//! process-global environment variables, and a single test keeps their
//! mutation sequential under the parallel test runner. The scaling smoke
//! test reads no environment variables, so it may run in parallel.

use rtcm_bench::dispatch::{
    deadline_schedule, poll_dispatch, reactor_idle_wakeups, wheel_dispatch,
};
use rtcm_bench::events::{fanout_fixture, gateway_fixture, remote_fixture, FANOUT_TOPIC, PAYLOAD};
use rtcm_bench::govern::{governor_policy, metrics_stream};
use rtcm_bench::reconfig::{loaded_reconfig_controller, reconfig_fixture};
use rtcm_bench::scaling::{
    probe_once, scaling_controller, scaling_probes, TARGET_PROC_UTILIZATION,
};
use rtcm_bench::{format_ratio_table, instances, run_combo_experiment, to_json, BenchParams};
use rtcm_core::admission::AdmissionMode;
use rtcm_core::analysis::audit_controller;
use rtcm_core::time::{Duration, Time};
use rtcm_sim::OverheadModel;
use rtcm_workload::RandomWorkload;

#[test]
fn quick_env_drives_combo_experiment_end_to_end() {
    // With only RTCM_QUICK set, seeds and horizon fall to smoke defaults.
    std::env::set_var("RTCM_QUICK", "1");
    std::env::remove_var("RTCM_SEEDS");
    std::env::remove_var("RTCM_HORIZON_SECS");
    let params = BenchParams::from_env();
    assert_eq!(params.seeds, 3, "RTCM_QUICK shrinks the seed count");
    assert_eq!(params.horizon, Duration::from_secs(30), "RTCM_QUICK shrinks the horizon");

    // The explicit knobs override the quick defaults; pin them lower still
    // so the smoke experiment stays under a second.
    std::env::set_var("RTCM_SEEDS", "2");
    std::env::set_var("RTCM_HORIZON_SECS", "10");
    let params = BenchParams::from_env();
    assert_eq!(params.seeds, 2, "RTCM_SEEDS must override the quick default");
    assert_eq!(params.seed_list(), vec![0, 1]);

    let insts = instances(&params.seed_list(), &params.arrival_config(), |seed| {
        RandomWorkload::default().generate(seed).expect("paper parameters are satisfiable")
    });
    assert_eq!(insts.len(), 2);
    for inst in &insts {
        assert!(!inst.trace.is_empty(), "every instance carries arrivals");
    }

    // Paper-calibrated overheads: the exact path fig5/fig6 take.
    let results = run_combo_experiment(&insts, OverheadModel::paper_calibrated());
    assert_eq!(results.len(), 15, "all valid strategy combinations run");
    for r in &results {
        assert_eq!(r.ratios.len(), 2, "one ratio per seed for {}", r.config.label());
        let ratio = r.mean_ratio();
        assert!((0.0..=1.0 + 1e-9).contains(&ratio), "{}: ratio {ratio}", r.config.label());
    }

    // Both output formats render every combination.
    let table = format_ratio_table("smoke", &results);
    let json = to_json(&results);
    for r in &results {
        assert!(table.contains(&r.config.label()), "table row for {}", r.config.label());
        assert!(json.contains(&r.config.label()), "json row for {}", r.config.label());
    }
    assert!(json.contains("mean_ratio"));
}

/// Smoke coverage of `micro_admission`'s `admission_scaling/*` arms at the
/// `RTCM_QUICK` sizes: the incremental and brute-force controllers built
/// from the shared fixture must agree on every steady-state probe
/// decision, keep their cached AUB sums consistent with fresh
/// recomputation, and stay inside the fixture's load envelope.
#[test]
fn scaling_fixture_arms_agree_at_quick_sizes() {
    for (n, procs) in [(128u32, 8u16), (1024, 64)] {
        let mut inc = scaling_controller(n, procs, AdmissionMode::Incremental);
        let mut brute = scaling_controller(n, procs, AdmissionMode::BruteForce);
        let probes = scaling_probes(procs);
        let mut now = Time::ZERO;
        for seq in 0..64u64 {
            now = now.saturating_add(Duration::from_millis(2));
            let probe = &probes[(seq % 2) as usize];
            let a = probe_once(&mut inc, probe, seq, now);
            let b = probe_once(&mut brute, probe, seq, now);
            assert_eq!(a, b, "n={n}: probe {seq} diverged across admission modes");
            assert!(a.is_accept(), "n={n}: steady-state probe {seq} rejected");
        }
        for (label, ac) in [("incremental", &inc), ("brute", &brute)] {
            let audit = audit_controller(ac);
            assert!(
                audit.is_consistent(1e-9),
                "n={n} {label}: cached sums drifted {}",
                audit.max_cached_drift
            );
            assert_eq!(audit.violating_entries, 0, "n={n} {label}");
            assert!(
                audit.processor_utilization.iter().all(|&u| u < 2.0 * TARGET_PROC_UTILIZATION),
                "n={n} {label}: load out of envelope"
            );
        }
        assert_eq!(inc.current_entries(), brute.current_entries());
    }
}

/// Smoke coverage of the `micro_govern` bench arms at the `RTCM_QUICK`
/// widths: policy evaluation over the shared alternating-load stream must
/// be deterministic, and the cooldown must hold the anti-flapping rate
/// bound (swaps at least `cooldown + 1` windows apart) at every policy
/// width.
#[test]
fn govern_fixture_evaluation_is_deterministic_and_rate_bounded() {
    use rtcm_core::govern::Governor;
    let stream = metrics_stream(64, 4);
    for rules in [2usize, 16] {
        let policy = governor_policy(rules);
        let cooldown = policy.cooldown_windows as u64;
        let run = |mut g: Governor| {
            let mut current = "J_N_N".parse().unwrap();
            let mut fired = Vec::new();
            for (i, m) in stream.iter().enumerate() {
                if let Some(d) = g.observe(current, m) {
                    current = d.target;
                    fired.push((i, d.rule_name.clone(), d.target));
                }
            }
            fired
        };
        let a = run(Governor::new(policy.clone()).unwrap());
        let b = run(Governor::new(policy).unwrap());
        assert_eq!(a, b, "rules={rules}: evaluation must be deterministic");
        assert!(!a.is_empty(), "rules={rules}: the alternating stream must trip a rule");
        for pair in a.windows(2) {
            assert!(
                pair[1].0 - pair[0].0 >= (cooldown + 1) as usize,
                "rules={rules}: swaps at windows {} and {} violate the cooldown",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// Smoke coverage of the `micro_events` bench arms at the `RTCM_QUICK`
/// sizes: every fixture topology round-trips a burst — each publish fans
/// out to every subscriber exactly once, quiet gateways stay quiet, remote
/// subscribers receive across the in-process network — and the federation
/// counters reconcile with the observed deliveries.
#[test]
fn events_fixture_round_trips_at_quick_sizes() {
    const BURST: usize = 64;

    // Local fan-out: n subscribers ⇒ n deliveries per publish.
    for subs in [1usize, 8] {
        let fx = fanout_fixture(subs);
        for _ in 0..BURST {
            assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), subs);
        }
        assert_eq!(fx.drain(), BURST * subs, "subs={subs}");
        let stats = fx.federation.stats();
        assert_eq!(stats.events_published, BURST as u64);
        assert_eq!(stats.local_deliveries, (BURST * subs) as u64);
        assert_eq!(stats.events_dropped, 0);
        assert_eq!(stats.remote_parcels, 0, "pure-local topology");
    }

    // Quiet gateways: registered nodes on unrelated topics cost nothing.
    let fx = gateway_fixture(8);
    for _ in 0..BURST {
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 1);
    }
    assert_eq!(fx.drain(), BURST, "only the local subscriber is reached");
    assert_eq!(fx.federation.stats().remote_parcels, 0);

    // Remote fan-out: every publish emits one parcel per remote node, and
    // each arrives (Latency::None) once the network thread runs.
    let fx = remote_fixture(4);
    for _ in 0..BURST {
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 4);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut drained = 0;
    while drained < BURST * 4 && std::time::Instant::now() < deadline {
        drained += fx.drain();
    }
    assert_eq!(drained, BURST * 4, "every parcel delivered");
    assert_eq!(fx.federation.stats().remote_parcels, (BURST * 4) as u64);
}

/// Smoke coverage of the `micro_reconfig` bench arms at the `RTCM_QUICK`
/// sizes: a full drain/reseed round trip over the shared fixture must be
/// utilization-neutral, preserve the current set, and leave the cached
/// AUB bookkeeping exactly fresh.
#[test]
fn reconfig_fixture_round_trip_is_lossless_at_quick_sizes() {
    for (n, procs) in [(64u32, 8u16), (256, 16)] {
        let (task_set, tasks) = reconfig_fixture(n, procs);
        let mut ac = loaded_reconfig_controller("T_N_T", &tasks, procs);
        let before = ac.ledger().utilizations();
        assert_eq!(ac.reserved_tasks() as u32, n);

        let now = Time::ZERO + Duration::from_millis(1);
        let drain = ac.reconfigure("J_N_T".parse().unwrap(), now, &task_set).unwrap();
        assert_eq!(drain.reservations_drained as u32, n, "n={n}");
        assert_eq!(ac.reserved_tasks(), 0);

        let reseed = ac.reconfigure("T_N_T".parse().unwrap(), now, &task_set).unwrap();
        assert_eq!(reseed.reservations_reseeded as u32, n, "n={n}");
        assert_eq!(reseed.reseeds_skipped, 0, "n={n}");
        assert_eq!(ac.reserved_tasks() as u32, n);
        assert_eq!(ac.current_entries() as u32, n, "round trip preserves the current set");

        let after = ac.ledger().utilizations();
        for (p, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!((b - a).abs() < 1e-9, "n={n} P{p}: {b} vs {a} after round trip");
        }
        let audit = audit_controller(&ac);
        assert!(
            audit.is_consistent(1e-9),
            "n={n}: cached sums drifted {} across the round trip",
            audit.max_cached_drift
        );
    }
}

/// Smoke coverage of the `micro_dispatch` bench arms at tiny sizes: both
/// dispatch styles fire every scheduled timer, the wheel's lateness stays
/// sane (sleep overshoot, not seconds), and an idle reactor performs zero
/// timer wakeups over a measured window — the counter the full-size bench
/// reports in `BENCH_dispatch.json`.
#[test]
fn dispatch_fixture_fires_everything_and_idles_for_free() {
    let offsets = deadline_schedule(8, 2, std::time::Duration::from_millis(40), 3);

    let wheel = wheel_dispatch(&offsets);
    assert_eq!(wheel.fired, offsets.len(), "wheel dispatch must fire every timer");
    assert!(wheel.p50_us <= wheel.p99_us && wheel.p99_us <= wheel.max_us);
    assert!(wheel.max_us < 40_000.0, "wheel lateness blew past the whole horizon");

    let poll = poll_dispatch(&offsets, std::time::Duration::from_millis(2));
    assert_eq!(poll.fired, offsets.len(), "poll dispatch must fire every timer");

    let wakeups = reactor_idle_wakeups(std::time::Duration::from_millis(100));
    assert_eq!(wakeups, 0, "an idle reactor must not wake on timers");
}
