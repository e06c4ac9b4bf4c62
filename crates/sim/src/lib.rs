//! # rtcm-sim
//!
//! Deterministic discrete-event simulation substrate for **rtcm**: the
//! substitute for the paper's six-machine KURT-Linux testbed.
//!
//! The simulator executes the full middleware control loop — task
//! effectors, the centralized task manager (admission control + load
//! balancing as a FIFO server), idle resetters and preemptive EDMS subtask
//! execution — in virtual time, with a configurable [`overhead`] model for
//! communication delays and service costs (calibrated by default to the
//! paper's Figure 8 measurements). Its communication delay is the
//! runtime's `rtcm_events::Latency`, so one delay model, and one Figure 8
//! band, serves the simulator and the threaded runtime alike.
//!
//! Because time is virtual and every random draw is seeded, the §7.1/§7.2
//! experiments are exactly replayable: the same task sets and arrival
//! traces are run across all 15 strategy combinations, exactly like the
//! paper's methodology.
//!
//! The event loop has two entry points: [`simulate`] runs it plainly and
//! returns the [`SimReport`]; [`simulate_with`] takes [`SimOptions`] — a
//! mode schedule, a governor, per-job records, an execution trace — and
//! returns a [`SimRun`] carrying whatever was asked for beside the report.
//!
//! The simulator counts in the runtime's report plane: every run books
//! the `rtcm_rt::stats::RtMetrics` registry a runtime `System` books, and
//! [`SimRun::telemetry`] returns it, so a simulated run renders the
//! runtime's `/metrics` page. Its per-operation rows (ops 1–8) read 0
//! samples: the simulator prices those operations, it does not time them.
//!
//! # Examples
//!
//! A static run, then the same trace switching to per-task admission ten
//! seconds in, with per-job records:
//!
//! ```
//! use rtcm_core::reconfig::ModeSchedule;
//! use rtcm_core::time::{Duration, Time};
//! use rtcm_sim::{simulate, simulate_with, SimConfig, SimOptions};
//! use rtcm_workload::{ArrivalConfig, ArrivalTrace, RandomWorkload};
//!
//! let tasks = RandomWorkload::default().generate(7)?;
//! let trace = ArrivalTrace::generate(&tasks, &ArrivalConfig::default(), 7);
//! let config = SimConfig::new("J_J_J".parse()?);
//!
//! let report = simulate(&tasks, &trace, &config)?;
//! assert!(report.ratio.ratio() > 0.0);
//!
//! let switch_at = Time::ZERO + Duration::from_secs(10);
//! let options = SimOptions {
//!     schedule: ModeSchedule::new().then_at(switch_at, "T_T_T".parse()?),
//!     record_jobs: true,
//!     ..SimOptions::default()
//! };
//! let run = simulate_with(&tasks, &trace, &config, &options)?;
//! let records = run.records.expect("recording was on");
//! let after = records.iter().filter(|r| r.arrival >= switch_at && r.released).count();
//! assert!(after > 0, "jobs keep being released after the switch");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod fed;
pub mod overhead;
pub mod simulation;

pub use fed::campaign::{Campaign, CampaignOutcome, CampaignSummary};
pub use fed::fault::{FaultAction, FaultEvent, FaultSchedule};
pub use fed::federation::{
    EpochOutcome, EpochRecord, FedError, FedHostSpec, FedOptions, FedReport, Federation, HostReport,
};
pub use overhead::OverheadModel;
pub use simulation::{
    simulate, simulate_with, ExecSpan, GovernedSwitch, GovernorTrace, JobRecord, SimConfig,
    SimError, SimOptions, SimReport, SimRun,
};
