//! The deterministic host: the runtime's own handlers — the manager and
//! one node per application processor, built by the one wiring
//! `System::launch` uses — stepped on one thread over a virtual clock.
//!
//! A [`Host`] is not a second runtime and not the simulator. It owns no
//! component logic: every reaction is the handler's `reactor::step`, and
//! every cross-node hop is the federation's own delivery step
//! ([`rtcm_events::Network::deliver_due`]) on a network that spawns no
//! thread. What the host adds is the schedule:
//!
//! 1. deliver every parcel due now;
//! 2. among the handlers with a queued event or a due timer, pick one with
//!    the seeded RNG (the tie rule);
//! 3. step it, with `Wake::Timer` if a timer is due, else with the event
//!    it pops — the order a thread's `Reactor::wait` returns them in;
//! 4. when nothing is ready, jump the clock to the earliest pending
//!    parcel or timer.
//!
//! Time advances only in step 4, so a step takes no virtual time: an
//! admission round trip under `Latency::None` completes at its arrival
//! instant, and `ExecMode::Sleep` subjobs complete at their exact
//! completion instants. One seed gives one run: `RtOptions::seed` draws
//! the latency jitter and breaks the ties.
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
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::Arc;

use rtcm_config::Deployment;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::TaskId;
use rtcm_core::time::Time;
use rtcm_events::{Federation, Network};
use rtcm_telemetry::splitmix64;

use crate::clock::TimerDriver;
use crate::manager::{Manager, ManagerCtl};
use crate::node::Node;
use crate::reactor::{self, Handler, Wake};
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
    /// The front end the threads' callers hold too; its handlers are the
    /// ones below, and none of them has a thread.
    system: System,
    clock: HostClock,
    network: Network,
    manager: Manager<HostClock>,
    nodes: Vec<Node<HostClock>>,
    /// The tie rule's state: a splitmix64 counter seeded from
    /// `RtOptions::seed`.
    ties: u64,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("now", &self.now())
            .field("processors", &self.nodes.len())
            .finish()
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
        let clock = HostClock(Arc::new(AtomicU64::new(0)));
        let network_clock = clock.clone();
        let (federation, network) = Federation::stepped(
            deployment.processors + 1,
            options.latency,
            options.seed,
            move || network_clock.now_ns(),
        );
        let (system, manager, nodes) = wire(deployment, options, federation, &clock)?;
        Ok(Host { system, clock, network, manager, nodes, ties: options.seed })
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
    /// the handlers publish, once the host has delivered it.
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

    /// One move: delivers the parcels due now, then steps one ready
    /// handler, picked by the tie rule; with none ready, jumps the clock
    /// to the earliest pending parcel or timer if that is not past
    /// `horizon`. False when nothing is pending up to `horizon`.
    fn advance(&mut self, horizon: u64) -> bool {
        let now = self.clock.now_ns();
        let mut next = self.network.deliver_due(now);
        let mut ready = Vec::new();
        let pending = std::iter::once(ready_at(&mut self.manager, now))
            .chain(self.nodes.iter_mut().map(|node| ready_at(node, now)));
        for (at, handler) in pending.zip(0..) {
            match at {
                Some(at) if at <= now => ready.push(handler),
                Some(at) => next = Some(next.map_or(at, |n| n.min(at))),
                None => {}
            }
        }
        if ready.is_empty() {
            return match next.filter(|&at| at <= horizon) {
                Some(at) => {
                    self.clock.0.store(at, Ordering::Relaxed);
                    true
                }
                None => false,
            };
        }
        self.ties = self.ties.wrapping_add(1);
        let pick = ready[(splitmix64(self.ties) % ready.len() as u64) as usize];
        let flow = match pick {
            0 => wake(&mut self.manager, now),
            p => wake(&mut self.nodes[p - 1], now),
        };
        assert!(flow.is_continue(), "a hosted handler stopped; the host never stops one");
        true
    }
}

/// When `h` is next ready: now if its mailbox holds an event, else its
/// earliest timer's deadline.
fn ready_at<H: Handler>(h: &mut H, now_ns: u64) -> Option<u64> {
    let (reactor, mailbox) = h.io();
    if mailbox.is_empty() {
        reactor.wheel.next_deadline_ns()
    } else {
        Some(now_ns)
    }
}

/// Steps a ready handler: on its due timers if it has any, else on the
/// event at the head of its mailbox.
fn wake<H: Handler>(h: &mut H, now_ns: u64) -> ControlFlow<()> {
    let (reactor, mailbox) = h.io();
    let wake = if reactor.wheel.next_deadline_ns().is_some_and(|at| at <= now_ns) {
        Wake::Timer
    } else {
        Wake::Event(mailbox.try_recv().expect("a ready handler's mailbox holds an event"))
    };
    reactor::step(h, wake)
}
