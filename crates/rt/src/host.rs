//! The deterministic host: a deployment's manager and nodes — the
//! runtime's own handlers, built by the one wiring — stepped on the
//! caller's thread and a virtual clock.
//!
//! A [`Host`] is not a second runtime and not the simulator. It owns no
//! component logic and no loop: every reaction is the handler's
//! `reactor::step`, and every move is its federation's executor's
//! ([`rtcm_events::Network::advance`]), on a stepped federation that
//! spawns no thread:
//!
//! 1. deliver every parcel due now;
//! 2. among the consumers with a queued event or a due timer, pick one
//!    with the seeded RNG (the tie rule), in the order they were hosted:
//!    the manager, then processors 0..n;
//! 3. step it, with `Wake::Timer` if a timer is due, else with the event
//!    it pops — the order a thread's `Reactor::wait` returns them in;
//! 4. when nothing is ready, wait for the earliest pending parcel or
//!    timer.
//!
//! The host and a launched [`System`] differ only in step 4. The host runs
//! on a virtual clock and jumps it, so a step takes no virtual time: an
//! admission round trip under `Latency::None` completes at its arrival
//! instant, and `ExecMode::Sleep` subjobs complete at their exact
//! completion instants. One seed gives one run: `RtOptions::seed` draws
//! the latency jitter and breaks the ties. A launched system's one thread
//! runs the same executor on the wall clock
//! ([`rtcm_events::Federation::spawn`]) and parks instead, until that
//! instant or until another thread rings the federation's bell: a
//! `submit`, a control request to the manager, a bridge reader.
//!
//! # Examples
//!
//! ```
//! use rtcm_config::{configure_with, WorkloadSpec};
//! use rtcm_core::task::TaskId;
//! use rtcm_rt::{host::Host, ExecMode, RtOptions};
//!
//! let spec = WorkloadSpec::parse(
//!     "workload demo\nprocessors 2\n\
//!      task chain aperiodic deadline=50ms\n  subtask exec=3ms proc=0\n  subtask exec=4ms proc=1\n",
//! )?;
//! let deployment = configure_with(&spec, "J_J_N".parse()?)?;
//! let options = RtOptions { exec: ExecMode::Sleep, ..RtOptions::fast() };
//! let mut host = Host::launch(&deployment, options)?;
//!
//! host.submit(TaskId(0), 0)?;
//! host.run();
//! // Two stages, no latency: done 7 ms after the arrival, to the nanosecond.
//! assert_eq!(host.now().as_nanos(), 7_000_000);
//! assert_eq!(host.report().jobs_completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::Arc;

use rtcm_config::Deployment;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::TaskId;
use rtcm_core::time::Time;
use rtcm_events::{Federation, Network};

use crate::clock::TimerDriver;
use crate::manager::ManagerCtl;
use crate::stats::{RtMetrics, SystemReport};
use crate::system::{
    wire, LaunchError, ReconfigReport, ReconfigureError, RtOptions, SubmitError, System,
};

/// The host's virtual clock: one nanosecond counter that every hosted
/// handler's reactor and the stepped network read, and only the host
/// moves.
#[derive(Clone)]
struct HostClock(Arc<AtomicU64>);

impl TimerDriver for HostClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A deployment's manager and nodes on one thread and a virtual clock (see
/// the [module docs](self)).
pub struct Host {
    /// The front end the threads' callers hold too; its handlers are
    /// hosted on the executor below, and no thread runs them.
    system: System,
    network: Network,
    clock: HostClock,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host").field("now", &self.now()).field("system", &self.system).finish()
    }
}

impl Host {
    /// Wires `deployment` as [`crate::System::launch`] does, on a stepped
    /// federation, with the clock at [`Time::ZERO`]. Nothing runs until
    /// the host is stepped.
    ///
    /// # Errors
    ///
    /// As [`crate::System::launch`].
    pub fn launch(deployment: &Deployment, options: RtOptions) -> Result<Self, LaunchError> {
        let clock = HostClock(Arc::default());
        let (system, network) = wire(deployment, options, clock.clone())?;
        Ok(Host { system, network, clock })
    }

    /// The current virtual instant.
    #[must_use]
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Injects job `seq` of `task` at the current instant, as
    /// [`crate::System::submit`] does. It is handled when the host next
    /// steps.
    ///
    /// # Errors
    ///
    /// As [`crate::System::submit`].
    pub fn submit(&self, task: TaskId, seq: u64) -> Result<(), SubmitError> {
        self.system.submit(task, seq)
    }

    /// Steps until nothing is pending at or before `until`, then sets the
    /// clock to `until` (it never goes back).
    pub fn run_until(&mut self, until: Time) {
        while self.advance(until.as_nanos()) {}
        self.clock.0.fetch_max(until.as_nanos(), Ordering::Relaxed);
    }

    /// Steps until nothing is pending: no event, no parcel, no timer.
    pub fn run(&mut self) {
        while self.advance(u64::MAX) {}
    }

    /// Runs a live reconfiguration, as [`crate::System::reconfigure`]
    /// does: the request goes to the manager, and the host steps until the
    /// manager answers.
    ///
    /// # Errors
    ///
    /// As [`crate::System::reconfigure`].
    pub fn reconfigure(
        &mut self,
        target: ServiceConfig,
    ) -> Result<ReconfigReport, ReconfigureError> {
        let (reply, outcome) = channel();
        if !self.system.manager.send(ManagerCtl::Reconfigure { target, reply }) {
            return Err(ReconfigureError::Closed);
        }
        loop {
            match outcome.try_recv() {
                Ok(report) => return report,
                Err(TryRecvError::Empty) if self.advance(u64::MAX) => {}
                Err(_) => return Err(ReconfigureError::Closed),
            }
        }
    }

    /// The active strategy combination.
    #[must_use]
    pub fn services(&self) -> ServiceConfig {
        self.system.services()
    }

    /// The host's federation identity (job trace ids are minted from it).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.system.host_id()
    }

    /// The federation the handlers exchange events on, as
    /// [`crate::System::federation`]: a subscriber on any node sees what
    /// the handlers publish, once the host has delivered it. A
    /// [`crate::QuorumMember`] attached to it is stepped by the host's
    /// moves; stopping it returns at once, and the member leaves at the
    /// host's next move.
    #[must_use]
    pub fn federation(&self) -> &Federation {
        self.system.federation()
    }

    /// The registry the handlers record into, as
    /// [`crate::System::telemetry`].
    #[must_use]
    pub fn telemetry(&self) -> &RtMetrics {
        self.system.telemetry()
    }

    /// The report so far, as [`crate::System::stats`].
    #[must_use]
    pub fn report(&self) -> SystemReport {
        self.system.stats()
    }

    /// One move of the executor; with nothing ready, jumps the clock to
    /// the earliest pending parcel or timer if that is not past `horizon`.
    /// False when nothing is pending up to `horizon`.
    fn advance(&mut self, horizon: u64) -> bool {
        let now = self.clock.now_ns();
        match self.network.advance(now) {
            // `now`: a handler stepped; later: nothing was ready.
            Some(at) if at == now || at <= horizon => {
                self.clock.0.store(at, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}
