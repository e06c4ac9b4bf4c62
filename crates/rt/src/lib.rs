//! # rtcm-rt
//!
//! The threaded middleware runtime of **rtcm**: real threads, real wall
//! clocks, the federated event channel in between — the substitute for the
//! paper's CIAO/TAO deployment on a six-machine testbed, and the substrate
//! on which the Figure 8 overhead table is measured.
//!
//! * [`system::System`] — the DAnCE-style launcher: takes the configuration
//!   engine's [`rtcm_config::Deployment`] and spins up one task-manager
//!   node (admission control + load balancing) plus one node per
//!   application processor (task effector, idle resetter, prioritized
//!   subtask dispatcher); [`host::Host`] steps them on one thread and a virtual clock;
//! * [`node`] / [`manager`] — the node threads (a node drives the
//!   simulator's per-processor step, `rtcm_core::node::NodeCore`), each a
//!   handler of the one reactor loop;
//! * [`proto`] — the event payloads ("Task Arrive", "Accept", "Trigger",
//!   "Idle Resetting");
//! * [`stats`] — shared measurement, including per-operation delays
//!   (Figure 7's ops 1–8);
//! * [`clock`] — the shared time axis that makes one-way delays measurable,
//!   plus the [`clock::TimerDriver`] trait a reactor reads it through;
//! * [`reactor`] — the event-driven core: a sorted list of exact timer
//!   deadlines, the single blocking wait on `min(next timer, mailbox)`
//!   every runtime thread parks on (zero wakeups when idle), and the one
//!   `step` that drives the node, manager and quorum-member handlers;
//! * [`govern`] — the adaptation governor (`System::spawn_governor`):
//!   windowed load sensing driving automatic reconfiguration, closed by
//!   the manager thread at window-boundary timer entries (no thread of
//!   its own);
//! * [`quorum`] — the voting delegate that makes a TCP-bridged federation
//!   a full reconfiguration prepare-quorum member;
//! * [`quorum_sm`] — the pure coordinator/member state machines of the
//!   two-phase swap protocol, shared verbatim with `rtcm-sim`'s
//!   deterministic federation (time is injected, never read).
//!
//! Scheduling substitution (see DESIGN.md): instead of OS real-time
//! priorities, each node thread drives its `NodeCore`'s preemptive
//! fixed-priority dispatcher, as the simulator does (see [`node`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod govern;
pub mod host;
pub mod job_trace;
pub mod manager;
pub mod node;
pub mod proto;
pub mod quorum;
pub mod quorum_sm;
pub mod reactor;
pub mod stats;
pub mod system;

pub use clock::{Clock, TimerDriver};
pub use govern::{GovernorEvent, GovernorHandle};
pub use node::ExecMode;
pub use proto::ReconfigAbortReason;
pub use quorum::{QuorumMember, QuorumOptions};
pub use quorum_sm::{CoordinatorSm, Fence, MemberReaction, MemberSm, SwapResolution};
pub use reactor::{Reactor, TimerId, TimerWheel, Wake, DEFAULT_TICK};
pub use stats::{ReconfigAbortBreakdown, RtMetrics, SystemReport};
pub use system::{LaunchError, ReconfigReport, ReconfigureError, RtOptions, SubmitError, System};

/// Locks `mutex`, recovering it if a panicking thread poisoned it. Every
/// critical section in this crate is an assignment, a push or one
/// state-machine step, which leaves the data valid at every step, so one
/// thread's panic is not re-raised in every thread sharing the lock.
pub(crate) fn lock<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
