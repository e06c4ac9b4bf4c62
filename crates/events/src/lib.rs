//! # rtcm-events
//!
//! Federated real-time event channel substrate for **rtcm** — the
//! replacement for TAO's federated event service that connects the paper's
//! processors (§3, Figure 1): "all processors are connected by TAO's
//! federated event channel which pushes events through local event
//! channels, gateways and remote event channels to the events' consumers
//! sitting on different processors."
//!
//! * [`event`] — events, topics (including the middleware's well-known
//!   topics) and node ids;
//! * [`federation`] — local channels + gateway forwarding over an
//!   in-process network with injectable one-way [`Latency`], so
//!   communication delay is measurable exactly where Figure 8 measures it,
//!   and each federation's one executor, its [`Network`], which lands the
//!   parcels and steps the [`Consumer`]s hosted on it;
//! * [`fanout`] — local delivery: every subscription owns one unbounded
//!   single-consumer queue, its [`EventReceiver`];
//! * [`remote`] / [`wire`] — TCP gateways between federations and their
//!   binary frame codec.
//!
//! # Examples
//!
//! ```
//! use rtcm_events::{topics, Federation, Latency, NodeId};
//!
//! // A task manager (node 0) and two application processors.
//! let fed = Federation::new(3, Latency::None, 0);
//! let manager = fed.handle(NodeId(0))?;
//! let arrivals = manager.subscribe(topics::TASK_ARRIVE);
//!
//! fed.handle(NodeId(2))?.publish(topics::TASK_ARRIVE, &b"T3 arrived"[..]);
//! let event = arrivals.recv_timeout(std::time::Duration::from_secs(1))?;
//! assert_eq!(event.source, NodeId(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod event;
pub mod fanout;
pub mod federation;
pub mod remote;
mod slack;
pub mod wire;

pub use event::{topics, Event, NodeId, Topic};
pub use fanout::{EventReceiver, FederationStats, RecvError, RecvTimeoutError, TryRecvError};
pub use federation::{ChannelHandle, Consumer, Federation, Latency, Network, UnknownNodeError};
pub use remote::{BridgeCloseReason, BridgeHandle, BridgeState};

/// Locks `mutex`, recovering it if a panicking thread poisoned it. Every
/// critical section in this crate is an assignment, a push or one
/// state-machine step, which leaves the data valid at every step, so one
/// thread's panic is not re-raised in every thread sharing the lock.
pub(crate) fn lock<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
