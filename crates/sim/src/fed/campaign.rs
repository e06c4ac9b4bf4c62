//! Seeded failure campaigns over the federated simulator.
//!
//! A [`Campaign`] packages host specs, a [`FaultSchedule`] and
//! [`FedOptions`] into one runnable unit; [`Campaign::run`] executes it
//! and checks the protocol's safety invariants on the resulting
//! [`FedReport`]:
//!
//! 1. **Resolution** — every initiated swap epoch resolves (committed,
//!    aborted with a reason, or coordinator-crashed); nothing hangs.
//! 2. **No partial swap** — a configuration applied on *any* host belongs
//!    to an epoch the coordinator committed, with the exact target label;
//!    aborted and crashed epochs are applied nowhere.
//! 3. **Abort accounting** — every committed epoch is applied at least on
//!    its coordinator; abort reasons are the oracle's, not invented.
//! 4. **Loss-freedom** — per host, `admitted = completed + lost-on-crash
//!    + in-flight-at-end`, and hosts that never crashed lost nothing.
//! 5. **Terminal convergence** — when the campaign has a converge target,
//!    every host ends on it once the faults heal.
//!
//! The scenario builders produce the two standard campaign families:
//! [`Campaign::randomized`] (seeded partitions, crash-during-prepare,
//! clock skew/drift, flapping bridges, competing swaps — the hundreds-of-
//! seeds sweep) and [`Campaign::replica_failover`] (the §7.2 imbalanced
//! workload promoted from `examples/imbalanced_failover.rs`: standby
//! processors idle under `J_T_N`, carrying real load after a mid-run swap
//! to `J_T_T`).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::time::Duration;
use rtcm_workload::{ArrivalConfig, ArrivalTrace, ImbalancedWorkload, RandomWorkload};

use super::fault::{FaultAction, FaultSchedule};
use super::federation::{EpochOutcome, FedError, FedHostSpec, FedOptions, FedReport, Federation};

/// One runnable failure campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The simulated hosts.
    pub specs: Vec<FedHostSpec>,
    /// The fault script.
    pub schedule: FaultSchedule,
    /// Federation tunables (including the RNG seed).
    pub opts: FedOptions,
}

/// A campaign's result: the raw report plus any invariant violations.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The federation's full report.
    pub report: FedReport,
    /// Human-readable invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl CampaignOutcome {
    /// True when every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the violation list (and a trace excerpt) if any
    /// invariant failed — the campaign tests' one-line assertion.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "campaign invariants violated:\n  {}\ntrace tail:\n  {}",
            self.violations.join("\n  "),
            self.report.trace.iter().rev().take(20).rev().cloned().collect::<Vec<_>>().join("\n  "),
        );
    }
}

/// Aggregated accounting across a seed sweep, for the experiments table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Campaigns aggregated.
    pub runs: u64,
    /// Swap epochs initiated across all runs.
    pub epochs: u64,
    /// ... of which committed.
    pub committed: u64,
    /// ... aborted by ack timeout (partition/crash/hold silence).
    pub aborted_timeout: u64,
    /// ... aborted by foreign-coordinator veto (swap collisions).
    pub aborted_foreign: u64,
    /// ... aborted by validation.
    pub aborted_validation: u64,
    /// ... dropped by a coordinator crash.
    pub coordinator_crashed: u64,
    /// Runs whose epilogue converged every host.
    pub converged: u64,
    /// Jobs admitted across all hosts and runs.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs destroyed by host crashes.
    pub lost_on_crash: u64,
    /// Messages dropped by links.
    pub msgs_dropped: u64,
    /// Invariant violations (must stay zero).
    pub violations: u64,
}

impl CampaignSummary {
    /// Folds one outcome into the summary.
    pub fn absorb(&mut self, outcome: &CampaignOutcome) {
        use rtcm_rt::proto::ReconfigAbortReason as R;
        self.runs += 1;
        self.violations += outcome.violations.len() as u64;
        let report = &outcome.report;
        self.epochs += report.epochs.len() as u64;
        for e in &report.epochs {
            match e.outcome {
                Some(EpochOutcome::Committed) => self.committed += 1,
                Some(EpochOutcome::Aborted(R::AckTimeout)) => self.aborted_timeout += 1,
                Some(EpochOutcome::Aborted(R::ForeignCoordinator)) => self.aborted_foreign += 1,
                Some(EpochOutcome::Aborted(R::Validation)) => self.aborted_validation += 1,
                Some(EpochOutcome::CoordinatorCrashed) => self.coordinator_crashed += 1,
                None => {}
            }
        }
        if report.converged.is_some() {
            self.converged += 1;
        }
        for h in &report.hosts {
            self.admitted += h.admitted;
            self.completed += h.completed;
            self.lost_on_crash += h.lost_on_crash;
        }
        self.msgs_dropped += report.msgs_dropped;
    }
}

impl Campaign {
    /// Runs the campaign once and checks every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] for structural failures (bad configs, runaway
    /// event loops); *protocol* violations land in
    /// [`CampaignOutcome::violations`] instead.
    pub fn run(&self) -> Result<CampaignOutcome, FedError> {
        let fed = Federation::new(self.specs.clone(), &self.schedule, self.opts.clone())?;
        let report = fed.run()?;
        let violations = check_invariants(&report, self.opts.converge_target);
        Ok(CampaignOutcome { report, violations })
    }

    /// The randomized campaign family: `hosts` simulated hosts, a
    /// `horizon_ms`-long seeded storm of partitions, flapping bridges,
    /// crash-during-prepare, clock skew/drift and competing swaps, ending
    /// in a convergence epilogue. The same `seed` reproduces the same
    /// campaign byte-for-byte.
    #[must_use]
    pub fn randomized(seed: u64, hosts: u16, horizon_ms: u64) -> Campaign {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA3D_0CA3_D0CA_3D0C);
        let specs: Vec<FedHostSpec> = (0..hosts)
            .map(|i| {
                let workload = RandomWorkload {
                    periodic_tasks: 2,
                    aperiodic_tasks: 2,
                    subtasks: (1, 3),
                    processors: 3,
                    ..RandomWorkload::default()
                };
                let host_seed = seed.wrapping_mul(1000).wrapping_add(u64::from(i));
                let tasks = workload.generate(host_seed).expect("workload generates");
                let config = ArrivalConfig {
                    horizon: Duration::from_millis(horizon_ms),
                    ..ArrivalConfig::default()
                };
                let arrivals = ArrivalTrace::generate(&tasks, &config, host_seed);
                FedHostSpec { services: "J_J_J".parse().expect("valid"), tasks, arrivals }
            })
            .collect();

        let targets = ["J_T_T", "J_J_T", "T_T_T", "J_T_J", "J_N_N"];
        let mut schedule = FaultSchedule::new();
        let host = |rng: &mut StdRng| rng.gen_range(0..hosts);
        // A storm of 4 incident groups spread over the horizon.
        let span = horizon_ms.saturating_sub(100).max(1);
        for _ in 0..4 {
            let t = 10 + rng.gen_range(0..span);
            match rng.gen_range(0..5_u32) {
                0 => {
                    // Partition a pair for a while.
                    let a = host(&mut rng);
                    let b = (a + 1 + rng.gen_range(0..hosts - 1)) % hosts;
                    let down: u64 = 20 + rng.gen_range(0..80_u64);
                    schedule.push(t, FaultAction::Partition { a, b });
                    schedule.push(t + down, FaultAction::Heal { a, b });
                }
                1 => {
                    // Crash-during-prepare: the crash lands at the prepare
                    // instant itself (acks round-trip in ~400 µs, far under
                    // the millisecond fault granularity), hitting either a
                    // required voter (silence → ack-timeout abort) or the
                    // coordinator (members left to expire their fences).
                    let coordinator = host(&mut rng);
                    let victim = if rng.gen_bool(0.4) {
                        coordinator
                    } else {
                        (coordinator + 1 + rng.gen_range(0..hosts - 1)) % hosts
                    };
                    let target = targets[rng.gen_range(0..targets.len())];
                    let down: u64 = 30 + rng.gen_range(0..60_u64);
                    schedule
                        .push(t, FaultAction::Swap { host: coordinator, target: target.into() });
                    schedule.push(t, FaultAction::Crash { host: victim });
                    schedule.push(t + down, FaultAction::Restart { host: victim });
                }
                2 => {
                    // Clock trouble: a skew step plus a drift change.
                    let victim = host(&mut rng);
                    let skew_us = rng.gen_range(-50_000_i64..=50_000);
                    let ppm = rng.gen_range(-2_000_i64..=2_000);
                    schedule.push(t, FaultAction::SkewClock { host: victim, skew_us });
                    schedule.push(t, FaultAction::DriftClock { host: victim, ppm });
                }
                3 => {
                    // Flapping bridge.
                    let a = host(&mut rng);
                    let b = (a + 1 + rng.gen_range(0..hosts - 1)) % hosts;
                    schedule.flap(
                        a,
                        b,
                        t,
                        3,
                        10 + rng.gen_range(0..20_u64),
                        10 + rng.gen_range(0..20_u64),
                    );
                }
                _ => {
                    // Competing swaps from two coordinators at once.
                    let c1 = host(&mut rng);
                    let c2 = (c1 + 1 + rng.gen_range(0..hosts - 1)) % hosts;
                    let t1 = targets[rng.gen_range(0..targets.len())];
                    let t2 = targets[rng.gen_range(0..targets.len())];
                    schedule.push(t, FaultAction::Swap { host: c1, target: t1.into() });
                    schedule.push(
                        t + rng.gen_range(0..5_u64),
                        FaultAction::Swap { host: c2, target: t2.into() },
                    );
                }
            }
        }

        let opts = FedOptions {
            seed,
            converge_target: Some("J_T_T".parse().expect("valid")),
            ..FedOptions::default()
        };
        Campaign { specs, schedule, opts }
    }

    /// The §7.2 replica-failover scenario, promoted from
    /// `examples/imbalanced_failover.rs`: host 0 carries the imbalanced
    /// workload (three hot processors at 0.7 utilization, two standby
    /// processors holding duplicates) under `J_T_N` — no load balancing,
    /// standbys idle. At `swap_at_ms` host 0 coordinates a swap to
    /// `J_T_T`; per-task load balancing then moves work onto the
    /// duplicates. Peers host small control workloads and serve as
    /// quorum voters.
    #[must_use]
    pub fn replica_failover(seed: u64, hosts: u16, horizon_ms: u64, swap_at_ms: u64) -> Campaign {
        let imbalanced = ImbalancedWorkload::default();
        let tasks = imbalanced.generate(seed).expect("workload generates");
        let config = ArrivalConfig {
            horizon: Duration::from_millis(horizon_ms),
            ..ArrivalConfig::default()
        };
        let arrivals = ArrivalTrace::generate(&tasks, &config, seed);
        let mut specs =
            vec![FedHostSpec { services: "J_T_N".parse().expect("valid"), tasks, arrivals }];
        for i in 1..hosts {
            let workload = RandomWorkload {
                periodic_tasks: 1,
                aperiodic_tasks: 1,
                subtasks: (1, 2),
                processors: 2,
                ..RandomWorkload::default()
            };
            let host_seed = seed.wrapping_mul(7919).wrapping_add(u64::from(i));
            let tasks = workload.generate(host_seed).expect("workload generates");
            let arrivals = ArrivalTrace::generate(&tasks, &config, host_seed);
            specs.push(FedHostSpec { services: "J_T_N".parse().expect("valid"), tasks, arrivals });
        }
        let mut schedule = FaultSchedule::new();
        schedule.push(swap_at_ms, FaultAction::Swap { host: 0, target: "J_T_T".into() });
        let opts = FedOptions { seed, ..FedOptions::default() };
        Campaign { specs, schedule, opts }
    }
}

/// Checks the campaign invariants on one report; returns the violations.
fn check_invariants(report: &FedReport, converge_target: Option<ServiceConfig>) -> Vec<String> {
    let mut violations = Vec::new();

    // 1. Every initiated epoch resolves.
    let mut oracle: HashMap<(u64, u64), (&str, EpochOutcome)> = HashMap::new();
    for e in &report.epochs {
        match e.outcome {
            Some(outcome) => {
                oracle.insert((e.coordinator, e.epoch), (e.target.as_str(), outcome));
            }
            None => violations.push(format!(
                "epoch h{} c={} e={} never resolved",
                e.host, e.coordinator, e.epoch
            )),
        }
    }

    // 2. No partial swap: applied ⇒ oracle-committed with the same label.
    for h in &report.hosts {
        for (coordinator, epoch, label) in &h.applied {
            match oracle.get(&(*coordinator, *epoch)) {
                Some((target, EpochOutcome::Committed)) if target == label => {}
                Some((target, EpochOutcome::Committed)) => violations.push(format!(
                    "h{} applied {label} for c={coordinator} e={epoch} but the target was {target}",
                    h.host
                )),
                Some((_, outcome)) => violations.push(format!(
                    "h{} applied c={coordinator} e={epoch} which resolved {outcome:?}",
                    h.host
                )),
                None => violations
                    .push(format!("h{} applied unknown epoch c={coordinator} e={epoch}", h.host)),
            }
        }
    }

    // 3. Every committed epoch is applied at least by its coordinator.
    for e in &report.epochs {
        if e.outcome == Some(EpochOutcome::Committed) {
            let coordinator_applied = report.hosts[usize::from(e.host)]
                .applied
                .iter()
                .any(|(c, ep, _)| (*c, *ep) == (e.coordinator, e.epoch));
            if !coordinator_applied {
                violations.push(format!(
                    "committed epoch c={} e={} missing from its coordinator h{}",
                    e.coordinator, e.epoch, e.host
                ));
            }
        }
    }

    // 4. Loss-freedom.
    for h in &report.hosts {
        let accounted = h.completed + h.lost_on_crash + h.in_flight_at_end;
        if h.admitted != accounted {
            violations.push(format!(
                "h{} admitted {} but accounted {} (completed {} + lost {} + in-flight {})",
                h.host, h.admitted, accounted, h.completed, h.lost_on_crash, h.in_flight_at_end
            ));
        }
        if h.crashes == 0 && h.lost_on_crash != 0 {
            violations.push(format!("h{} never crashed yet lost {} jobs", h.host, h.lost_on_crash));
        }
    }

    // 5. Terminal convergence.
    if let Some(target) = converge_target {
        let label = target.label();
        if report.converged.as_deref() != Some(label.as_str()) {
            violations.push(format!(
                "federation failed to converge on {label}: finals = [{}]",
                report.hosts.iter().map(|h| h.final_config.clone()).collect::<Vec<_>>().join(", ")
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomized_campaign_is_clean_and_deterministic() {
        let campaign = Campaign::randomized(11, 8, 600);
        let a = campaign.run().unwrap();
        a.assert_clean();
        let b = campaign.run().unwrap();
        assert_eq!(a.report.trace.join("\n"), b.report.trace.join("\n"));
    }

    #[test]
    fn different_seeds_give_different_weather() {
        let a = Campaign::randomized(1, 8, 600).run().unwrap();
        let b = Campaign::randomized(2, 8, 600).run().unwrap();
        assert_ne!(a.report.trace.join("\n"), b.report.trace.join("\n"));
    }

    #[test]
    fn replica_failover_moves_load_onto_the_standbys() {
        // Control: no swap — the standby processors never run anything.
        let mut control = Campaign::replica_failover(17, 4, 2_000, 1_000);
        control.schedule = FaultSchedule::new();
        let control_report = control.run().unwrap();
        control_report.assert_clean();
        let standby_busy: u64 = control_report.report.hosts[0].busy_ns[3..].iter().sum();
        assert_eq!(standby_busy, 0, "standbys must idle under J_T_N");

        // Failover: mid-run swap to per-task LB wakes the duplicates.
        let outcome = Campaign::replica_failover(17, 4, 2_000, 1_000).run().unwrap();
        outcome.assert_clean();
        let report = &outcome.report;
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].outcome, Some(EpochOutcome::Committed));
        assert_eq!(report.hosts[0].final_config, "J_T_T");
        let standby_busy: u64 = report.hosts[0].busy_ns[3..].iter().sum();
        assert!(standby_busy > 0, "standbys must carry load after the swap");
    }

    #[test]
    fn summary_accumulates_the_oracle_accounting() {
        let mut summary = CampaignSummary::default();
        for seed in 0..5 {
            let outcome = Campaign::randomized(seed, 8, 500).run().unwrap();
            summary.absorb(&outcome);
        }
        assert_eq!(summary.runs, 5);
        assert_eq!(summary.violations, 0);
        assert_eq!(summary.converged, 5);
        assert_eq!(
            summary.epochs,
            summary.committed
                + summary.aborted_timeout
                + summary.aborted_foreign
                + summary.aborted_validation
                + summary.coordinator_crashed
        );
        assert!(summary.admitted >= summary.completed);
    }
}
