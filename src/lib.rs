//! # rtcm — Reconfigurable Real-Time Component Middleware
//!
//! Facade crate re-exporting the full **rtcm** workspace: a from-scratch
//! Rust reproduction of *"Reconfigurable Real-Time Middleware for
//! Distributed Cyber-Physical Systems with Aperiodic Events"* (Zhang, Gill
//! & Lu, ICDCS 2008 / WUCSE-2008-5).
//!
//! * [`core`] — task model, AUB/EDMS analysis, AC/IR/LB service logic.
//! * [`workload`] — the paper's §7.1/§7.2 workload generators.
//! * [`sim`] — deterministic discrete-event simulator substrate.
//! * [`events`] — federated event channel substrate.
//! * [`rt`] — threaded runtime with wall-clock overhead instrumentation.
//! * [`config`] — front-end configuration engine and deployment plans.
//! * [`telemetry`] — lock-free metrics, OAM scrape endpoint, job tracer.
//!
//! See `examples/quickstart.rs` for a guided tour, and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use rtcm_config as config;
pub use rtcm_core as core;
pub use rtcm_events as events;
pub use rtcm_rt as rt;
pub use rtcm_sim as sim;
pub use rtcm_telemetry as telemetry;
pub use rtcm_workload as workload;
