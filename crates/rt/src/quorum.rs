//! Bridged-host quorum membership: the voting delegate that makes a
//! TCP-bridged federation a **full member** of the reconfiguration
//! prepare quorum instead of a passive observer.
//!
//! Topology (the paper's multi-host testbed, upgraded from §5's
//! observation to participation):
//!
//! 1. the coordinator host bridges `topics::RECONFIG` *out* and
//!    `topics::RECONFIG_ACK` *back* over a `rtcm_events::remote` gateway;
//! 2. the remote host attaches a [`QuorumMember`] to its federation and
//!    the coordinator registers the member's host id via
//!    `System::register_remote_voter`;
//! 3. every subsequent swap's prepare now *requires* the member's vote:
//!    it acks foreign prepares (fencing itself for exactly one coordinator
//!    at a time), vetoes prepares that collide with a different
//!    coordinator's in-flight swap (`ReconfigVote::Nack` with
//!    [`ForeignCoordinator`](crate::proto::ReconfigAbortReason::ForeignCoordinator)),
//!    and releases its fence on the matching commit/abort.
//!
//! Partition safety is timeout-symmetric: a member that cannot reach the
//! coordinator simply never acks, and the coordinator aborts at its ack
//! deadline with [`AckTimeout`](crate::proto::ReconfigAbortReason::AckTimeout); a member whose
//! commit/abort was lost drops its stale fence after
//! [`QuorumOptions::fence_timeout`] so one lost packet can never wedge the
//! host out of all future quorums.
//!
//! The voting/fencing logic itself lives in the pure
//! [`MemberSm`] state machine (shared with the
//! deterministic federation simulator); this module is only the event
//! shell around it. All fence timestamps are read off the member's
//! [`TimerDriver`] clock — never `Instant` — so the identical machine runs
//! under a skewed virtual clock in `rtcm-sim`.
//!
//! The delegate is a reactor handler (`crate::reactor`) hosted on its
//! federation's executor, so attaching it starts no thread. It reads the
//! federation's own clock, the one the executor compares its deadline
//! with: a standing fence's expiry is its one timer entry, so recovery
//! happens *at* the deadline, and an unfenced idle member is not stepped at
//! all. A stop sets a flag under the member's state lock, which the
//! delegate holds while it decides and votes, publishes a
//! `topics::QUORUM_CTL` kick and returns at once: from then on the member
//! neither votes nor records anything, and the executor drops it at its
//! next move.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use rtcm_core::strategy::ServiceConfig;
use rtcm_events::{
    topics, ChannelHandle, Event, EventReceiver, Federation, NodeId, UnknownNodeError,
};
use rtcm_telemetry::TraceBuffer;

use crate::clock::TimerDriver;
use crate::lock;
use crate::proto::{self, DecodeErrors, ReconfigMsg, ReconfigVote};
use crate::quorum_sm::{MemberReaction, MemberSm};
use crate::reactor::{Handler, OnLoop, Reactor, TimerId, DEFAULT_TICK};

/// Tunables for a [`QuorumMember`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumOptions {
    /// How long a fence may stand without its commit/abort arriving before
    /// the member forgets it (lost-packet / partition recovery).
    pub fence_timeout: StdDuration,
}

impl Default for QuorumOptions {
    fn default() -> Self {
        QuorumOptions { fence_timeout: StdDuration::from_secs(5) }
    }
}

/// A federation's voting delegate in foreign reconfiguration quorums.
/// Dropping it stops voting (the coordinator will then abort on timeout —
/// deregister the host first for a clean departure).
pub struct QuorumMember {
    host: u64,
    shared: Arc<Shared>,
    /// Publishes the `topics::QUORUM_CTL` kick that makes the executor
    /// step the delegate after `stop` is set.
    wake: ChannelHandle,
}

impl std::fmt::Debug for QuorumMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumMember").field("host", &self.host).finish()
    }
}

// Shared across threads, as a cluster node's control and report threads do.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<QuorumMember>();
};

impl QuorumMember {
    /// Attaches a voting member to `federation`, publishing and consuming
    /// through `node` (use a dedicated gateway-side node), and hosts it on
    /// the federation's executor. Register the returned
    /// [`QuorumMember::host_id`] at the coordinator to make this host's
    /// vote required.
    ///
    /// Stopping the member ([`QuorumMember::shutdown`] or dropping it)
    /// never waits for the executor: the member leaves at its next move,
    /// whether a thread runs it or a caller steps it, such as
    /// [`crate::host::Host`].
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNodeError`] if `node` is outside the federation.
    pub fn attach(
        federation: &Federation,
        node: NodeId,
        options: QuorumOptions,
    ) -> Result<Self, UnknownNodeError> {
        let handle = federation.handle(node)?;
        let member = Member::new(handle.clone(), federation.host_id(), options, handle.clone());
        let shared = Arc::clone(&member.shared);
        federation.host(OnLoop(member));
        Ok(QuorumMember { host: federation.host_id(), shared, wake: handle })
    }

    /// The host identity this member votes as (its federation's id).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.host
    }

    /// While holding, the member ignores prepares entirely — it neither
    /// fences nor votes, simulating a partitioned or crashed host. The
    /// coordinator's swap then aborts at the ack deadline.
    pub fn set_holding(&self, hold: bool) {
        self.shared.hold.store(hold, Ordering::SeqCst);
    }

    /// Configurations whose commits this member witnessed, in order.
    #[must_use]
    pub fn observed_commits(&self) -> Vec<ServiceConfig> {
        lock(&self.shared.state).commits().to_vec()
    }

    /// Prepares acked so far.
    #[must_use]
    pub fn ack_count(&self) -> u64 {
        lock(&self.shared.state).acks()
    }

    /// Prepares vetoed so far (foreign-coordinator collisions).
    #[must_use]
    pub fn nack_count(&self) -> u64 {
        lock(&self.shared.state).nacks()
    }

    /// True while the member is fenced for a pending foreign swap.
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        lock(&self.shared.state).fence().is_some()
    }

    /// The member's trace buffer: every foreign reconfiguration phase it
    /// witnessed, keyed by the coordinator's deterministic swap trace id so
    /// dumps from both hosts correlate without extra wire traffic.
    #[must_use]
    pub fn trace(&self) -> &Arc<TraceBuffer> {
        &self.shared.trace
    }

    /// Reconfiguration payloads this member dropped because they did not
    /// decode (each one also fail-stopped the bridge it arrived over).
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.total()
    }

    /// Detaches the member and returns at once: from now on it neither
    /// votes nor records anything, and its federation's executor drops it
    /// at its next move.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for QuorumMember {
    fn drop(&mut self) {
        // Under the state lock, which the delegate holds while it decides
        // and votes: a vote under way ends first, and none starts after.
        let state = lock(&self.shared.state);
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(state);
        // Kick the mailbox *after* the stop request is visible, so the
        // executor steps the delegate and it observes it. Other members
        // sharing the federation just re-check their own stop flag.
        self.wake.publish(topics::QUORUM_CTL, Vec::new());
    }
}

/// What a [`QuorumMember`] shares with its delegate.
#[derive(Default)]
struct Shared {
    hold: AtomicBool,
    /// Set, under the `state` lock, to stop the delegate, which ignores
    /// events from then on and ends at the end of its next step.
    stop: AtomicBool,
    state: Mutex<MemberSm>,
    trace: Arc<TraceBuffer>,
    decode_errors: DecodeErrors,
}

/// The delegate: the member's state machine behind one mailbox
/// (reconfiguration phases plus the stop kick) and one timer, the
/// standing fence's expiry.
struct Member<D> {
    host: u64,
    handle: ChannelHandle,
    mailbox: EventReceiver,
    fence_timeout_ns: u64,
    shared: Arc<Shared>,
    reactor: Reactor<D, ()>,
    /// The wheel entry mirroring the standing fence, keyed by
    /// `(coordinator, epoch)` so a superseding prepare reslots the
    /// deadline.
    fence_timer: Option<(TimerId, (u64, u64))>,
}

impl<D: TimerDriver> Member<D> {
    fn new(handle: ChannelHandle, host: u64, options: QuorumOptions, driver: D) -> Self {
        Member {
            host,
            mailbox: handle.subscribe_many(&[topics::RECONFIG, topics::QUORUM_CTL]),
            handle,
            fence_timeout_ns: options.fence_timeout.as_nanos() as u64,
            shared: Arc::default(),
            reactor: Reactor::new(driver, DEFAULT_TICK),
            fence_timer: None,
        }
    }

    /// Carries a [`MemberReaction`] out into the world: records the
    /// witnessed phase in the member's trace ring and publishes the vote.
    fn react(&self, msg: &ReconfigMsg, reaction: MemberReaction) {
        let epoch = msg.epoch;
        let (stage, detail, vote) = match reaction {
            MemberReaction::Ignored => return,
            MemberReaction::Vote(ack) => {
                let voted = if matches!(ack.vote, ReconfigVote::Ack) { "ack" } else { "nack" };
                let from = msg.coordinator;
                let detail =
                    format!("foreign epoch {epoch} from coordinator {from}, voted {voted}");
                ("reconfig_prepare", detail, Some(ack))
            }
            MemberReaction::Committed(services) => {
                let detail = format!("foreign epoch {epoch} committed {}", services.label());
                ("reconfig_commit", detail, None)
            }
            MemberReaction::Aborted => {
                ("reconfig_abort", format!("foreign epoch {epoch} aborted"), None)
            }
        };
        self.shared.trace.record(msg.trace, self.reactor.now_ns(), self.host, stage, detail);
        if let Some(ack) = vote {
            self.handle.publish(topics::RECONFIG_ACK, proto::encode(&ack));
        }
    }
}

impl<D: TimerDriver> Handler for Member<D> {
    type Driver = D;
    type Timer = ();

    fn io(&mut self) -> (&mut Reactor<D, ()>, &EventReceiver) {
        (&mut self.reactor, &self.mailbox)
    }

    /// A reconfiguration phase, unless the member is stopped; a
    /// `topics::QUORUM_CTL` kick carries nothing, because `settle` reads
    /// the stop flag. The state lock is held from the stop check to the
    /// vote, so a stop waits for a vote under way and none follows it.
    fn on_event(&mut self, ev: &Event) {
        if ev.topic != topics::RECONFIG {
            return;
        }
        let Shared { hold, stop, trace, decode_errors, state } = &*self.shared;
        let mut sm = lock(state);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Prepares arrive from a foreign host over the bridge: a malformed
        // one is dropped, counted, and costs that bridge its link — never
        // this thread.
        if let Some(msg) = decode_errors.receive(ev, &self.handle, trace, &self.reactor) {
            let (now_ns, holding) = (self.reactor.now_ns(), hold.load(Ordering::SeqCst));
            let reaction = sm.on_phase(&msg, self.host, now_ns, self.fence_timeout_ns, holding);
            self.react(&msg, reaction);
        }
    }

    /// The fence deadline (the only entry this reactor ever holds): drop
    /// the stale fence *at* the deadline.
    fn on_timer(&mut self, _: TimerId, (): ()) {
        self.fence_timer = None;
        lock(&self.shared.state).expire_fence(self.reactor.now_ns(), self.fence_timeout_ns);
    }

    /// Stops once the stop flag is set; otherwise re-syncs the wheel with
    /// the current fence.
    fn settle(&mut self) -> ControlFlow<()> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return ControlFlow::Break(());
        }
        let fence =
            lock(&self.shared.state).fence().map(|f| ((f.coordinator, f.epoch), f.raised_ns));
        if fence.map(|(key, _)| key) != self.fence_timer.map(|(_, key)| key) {
            if let Some((id, _)) = self.fence_timer.take() {
                self.reactor.cancel(id);
            }
            if let Some((key, raised_ns)) = fence {
                let id = self.reactor.schedule_at(raised_ns + self.fence_timeout_ns, ());
                self.fence_timer = Some((id, key));
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use rtcm_events::Latency;

    use super::*;
    use crate::clock::Clock;
    use crate::proto::ReconfigPhase;
    use crate::reactor::{step, Wake};

    #[test]
    fn a_stale_fence_drops_at_its_timer_and_the_kick_stops_a_stopped_member() {
        let federation = Federation::new(1, Latency::None, 7);
        let handle = federation.handle(NodeId(0)).unwrap();
        // A zero timeout makes the fence stale the moment it is raised, so
        // its timer is due at once and nothing sleeps.
        let options = QuorumOptions { fence_timeout: StdDuration::ZERO };
        let mut member = Member::new(handle.clone(), federation.host_id(), options, Clock::new());
        let prepare = ReconfigMsg {
            coordinator: 1,
            host: federation.host_id() + 1,
            epoch: 1,
            phase: ReconfigPhase::Prepare,
            services: "J_J_N".parse().unwrap(),
            sent_ns: 0,
            trace: 1,
        };
        handle.publish(topics::RECONFIG, proto::encode(&prepare));
        let ev = member.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut member, Wake::Event(ev)), ControlFlow::Continue(()));
        assert!(lock(&member.shared.state).fence().is_some(), "the prepare fenced");
        assert!(member.fence_timer.is_some(), "settle armed the fence timer");

        assert_eq!(step(&mut member, Wake::Timer), ControlFlow::Continue(()));
        assert!(lock(&member.shared.state).fence().is_none(), "on_timer dropped it");
        assert!(member.fence_timer.is_none());

        handle.publish(topics::QUORUM_CTL, Vec::new());
        let kick = member.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut member, Wake::Event(kick)), ControlFlow::Continue(()));
        member.shared.stop.store(true, Ordering::SeqCst);
        handle.publish(topics::QUORUM_CTL, Vec::new());
        let kick = member.mailbox.try_recv().unwrap();
        assert_eq!(step(&mut member, Wake::Event(kick)), ControlFlow::Break(()));
    }
}
