//! # rtcm-telemetry
//!
//! The live telemetry plane of **rtcm** — the observability counterpart
//! to the runtime's report snapshot, built for the "millions of users"
//! north star where you have to *watch* the system, not stop it:
//!
//! * [`metrics`] — lock-free primitives: [`Counter`], [`Gauge`] and the
//!   log2-bucketed latency [`Histogram`] (record ≈ two relaxed atomic
//!   adds; exact sum/min/max; p50/p90/p99/p999 within bucket resolution),
//!   plus the [`Registry`] that names them;
//! * [`expo`] — Prometheus-style text exposition (v0.0.4): the
//!   [`Exposition`] builder renders registry metrics and report counters
//!   into one scrapeable page;
//! * [`oam`] — the dependency-free OAM endpoint: a std `TcpListener`
//!   serving `GET /metrics` and `GET /trace`, blocking in `accept` (zero
//!   idle wakeups), woken for shutdown by a loopback connect;
//! * [`trace`] — the bounded ring-buffer job tracer: arrival → admission
//!   → (re)allocation → release → completion and reconfiguration phases,
//!   correlated across bridged hosts by a minted `trace` id, dumped as
//!   JSON lines.
//!
//! The crate depends only on the (vendored) `serde`/`serde_json` pair for
//! trace dumps — no HTTP stack, no metrics framework — so every binary in
//! the workspace (runtime, harness nodes, examples) can mount an endpoint
//! for free.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod oam;
pub mod trace;

pub use expo::Exposition;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, Registry, HISTOGRAM_BUCKETS,
};
pub use oam::{scrape, OamRoutes, OamServer, RouteFn};
pub use trace::{splitmix64, PackedStage, TraceBuffer, TraceRecord, DEFAULT_TRACE_CAPACITY};
