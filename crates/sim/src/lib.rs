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
//! paper's Figure 8 measurements).
//!
//! Because time is virtual and every random draw is seeded, the §7.1/§7.2
//! experiments are exactly replayable: the same task sets and arrival
//! traces are run across all 15 strategy combinations, exactly like the
//! paper's methodology.
//!
//! # Examples
//!
//! ```
//! use rtcm_sim::{simulate, SimConfig};
//! use rtcm_workload::{ArrivalConfig, ArrivalTrace, RandomWorkload};
//!
//! let tasks = RandomWorkload::default().generate(7)?;
//! let trace = ArrivalTrace::generate(&tasks, &ArrivalConfig::default(), 7);
//!
//! let report = simulate(&tasks, &trace, &SimConfig::new("J_J_J".parse()?))?;
//! assert!(report.ratio.ratio() > 0.0);
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
pub use overhead::{DelayModel, OverheadModel};
pub use simulation::{
    simulate, simulate_governed, simulate_governed_recorded, simulate_recorded,
    simulate_recorded_with_schedule, simulate_traced, simulate_with_schedule, ExecSpan,
    GovernedSwitch, GovernorTrace, JobRecord, SimConfig, SimError, SimReport,
};
