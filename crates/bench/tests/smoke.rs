//! Fast smoke test for the bench harness: drives [`run_combo_experiment`]
//! through the same `RTCM_QUICK=1` environment path the bench binaries
//! use, so `cargo test` exercises the §7 experiment plumbing without a
//! full `cargo bench` run — plus a smoke pass over the `micro_govern` and
//! `micro_reconfig` fixtures (`rtcm_bench::{govern, reconfig}`).
//!
//! The combo experiment lives in one `#[test]`: its knobs are
//! process-global environment variables, and a single test keeps their
//! mutation sequential under the parallel test runner. The fixture smoke
//! tests read no environment variables, so they may run in parallel.

use rtcm_bench::govern::{governor_policy, metrics_stream};
use rtcm_bench::reconfig::{loaded_reconfig_controller, reconfig_fixture};
use rtcm_bench::{format_ratio_table, instances, run_combo_experiment, to_json, BenchParams};
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
