//! # rtcm-core
//!
//! Core library of **rtcm**, a reproduction of *"Reconfigurable Real-Time
//! Middleware for Distributed Cyber-Physical Systems with Aperiodic
//! Events"* (Zhang, Gill & Lu, ICDCS 2008 / WUCSE-2008-5).
//!
//! This crate holds everything that is independent of a time source:
//!
//! * the end-to-end **task model** ([`task`]) — chains of subtasks over
//!   processors, periodic and aperiodic release patterns, end-to-end
//!   deadlines;
//! * **EDMS** priority assignment ([`priority`]);
//! * the **AUB** schedulability condition ([`aub`]) and the
//!   synthetic-utilization **ledger** ([`ledger`]);
//! * the three configurable services — **admission control**
//!   ([`admission`]), **idle resetting** ([`reset`]) and **load balancing**
//!   ([`balance`]) — with their per-task / per-job / disabled strategies
//!   ([`strategy`]) and the §4.5 validity rule (15 of 18 combinations);
//! * the preemptive EDMS subtask **dispatcher** ([`dispatch`]) and the
//!   per-processor **node step** both substrates drive ([`node`]): task
//!   effector verdict cache, idle resetter and dispatcher, composed once;
//! * run-time **reconfiguration** ([`reconfig`]): transition plans, timed
//!   mode schedules, and the admission-state handover behind
//!   `AdmissionController::reconfigure`;
//! * the **adaptation governor** ([`govern`]): windowed load sensing and
//!   declarative threshold/hysteresis/cooldown policies that drive
//!   reconfiguration automatically from observed load;
//! * the evaluation **metrics** ([`metrics`]): accepted utilization ratio
//!   and delay statistics;
//! * the keyed **hasher** of every id-keyed table ([`hash`]);
//! * design-time **feasibility analysis** ([`analysis`]): which tasks can
//!   never be admitted, which only contend under worst-case phasing.
//!
//! The discrete-event simulator (`rtcm-sim`) and the threaded runtime
//! (`rtcm-rt`) both drive these same types, so admission behavior is
//! identical in virtual and wall-clock time.
//!
//! ## Quick example
//!
//! ```
//! use rtcm_core::admission::AdmissionController;
//! use rtcm_core::strategy::ServiceConfig;
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::{Duration, Time};
//!
//! // Per-job admission control with idle resetting and load balancing.
//! let cfg: ServiceConfig = "J_J_J".parse()?;
//! let mut ac = AdmissionController::new(cfg, 3)?;
//!
//! let alert = TaskBuilder::aperiodic(TaskId(0))
//!     .name("hazard-alert")
//!     .deadline(Duration::from_millis(300))
//!     .subtask(Duration::from_millis(20), ProcessorId(0), [ProcessorId(1)])
//!     .subtask(Duration::from_millis(10), ProcessorId(2), [])
//!     .build()?;
//!
//! let decision = ac.handle_arrival(&alert, 0, Time::ZERO)?;
//! assert!(decision.is_accept());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod analysis;
pub mod aub;
pub mod balance;
pub mod dispatch;
pub mod govern;
pub mod hash;
pub mod ledger;
pub mod metrics;
pub mod node;
pub mod priority;
pub mod reconfig;
pub mod reset;
pub mod response;
pub mod shard;
pub mod strategy;
pub mod task;
pub mod time;
