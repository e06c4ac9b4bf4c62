//! Pins what a governed simulation senses and decides, bit for bit: the
//! correlated burst of `examples/governed_recovery.rs` under `J_N_N` with
//! the canonical defensive-recovery policy. A change to the window step
//! (`Governor::sense`), the policy or the burst generator must leave the
//! trace as it is, and a change that means to move it says so by editing
//! the constants.

use rtcm_core::govern::GovernorPolicy;
use rtcm_core::time::{Duration, Time};
use rtcm_sim::{simulate_with, SimConfig, SimOptions};
use rtcm_workload::{BurstScenario, RandomWorkload};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn governed_burst_recovery_is_pinned() {
    let scenario = BurstScenario {
        horizon: Duration::from_secs(60),
        burst_start: Duration::from_secs(20),
        burst_duration: Duration::from_secs(20),
        intensity: 10.0,
        workload: RandomWorkload { target_utilization: 0.3, ..Default::default() },
        ..Default::default()
    };
    let (tasks, trace) = scenario.generate(7).expect("the scenario generates");
    let (baseline, defensive) = ("J_N_N".parse().unwrap(), "T_T_T".parse().unwrap());
    let policy = GovernorPolicy::defensive_recovery(baseline, defensive);
    let options =
        SimOptions { governor: Some((policy, Duration::from_secs(2))), ..SimOptions::default() };
    let run = simulate_with(&tasks, &trace, &SimConfig::new(baseline), &options).unwrap();
    let governed = run.governor.expect("a governed run returns its trace");

    assert_eq!(governed.windows.len(), 30);
    assert_eq!(governed.switches.len(), 1);
    let switch = &governed.switches[0];
    assert_eq!(switch.at, Time::ZERO + Duration::from_nanos(24_000_000_000));
    assert_eq!((switch.window, switch.rule.as_str()), (12, "collapse-defense"));
    assert_eq!((switch.from, switch.to), (baseline, defensive));

    let json = serde_json::to_string(&governed).unwrap();
    assert_eq!((json.len(), fnv1a(json.as_bytes())), (7702, 7_784_969_226_191_243_737));
    assert_eq!(run.report.ratio.ratio().to_bits(), 4_601_150_335_808_982_946);
    assert_eq!(run.report.end, Time::ZERO + Duration::from_nanos(60_025_326_548));
}
