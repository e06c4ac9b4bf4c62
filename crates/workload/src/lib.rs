//! # rtcm-workload
//!
//! Seeded workload generators reproducing the experimental setup of
//! *"Reconfigurable Real-Time Middleware for Distributed Cyber-Physical
//! Systems with Aperiodic Events"* (§7):
//!
//! * [`generate::RandomWorkload`] — the §7.1 random workloads (balanced
//!   across 5 processors at synthetic utilization 0.5);
//! * [`generate::ImbalancedWorkload`] — the §7.2 imbalanced workloads
//!   (3 loaded processors at 0.7, 2 replica-only processors);
//! * [`arrivals::ArrivalTrace`] — deterministic periodic + Poisson arrival
//!   sequences, replayed identically across all strategy combinations.
//!
//! # Examples
//!
//! ```
//! use rtcm_workload::{ArrivalConfig, ArrivalTrace, RandomWorkload};
//!
//! let tasks = RandomWorkload::default().generate(42)?;
//! assert_eq!(tasks.len(), 9);
//!
//! let trace = ArrivalTrace::generate(&tasks, &ArrivalConfig::default(), 42);
//! assert!(!trace.is_empty());
//! # Ok::<(), rtcm_workload::WorkloadError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod generate;
pub mod scenario;

pub use arrivals::{Arrival, ArrivalConfig, ArrivalTrace, Phasing};
pub use generate::{ImbalancedWorkload, RandomWorkload, WorkloadError};
pub use scenario::{BurstScenario, ModeChangeScenario};
