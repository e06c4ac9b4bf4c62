//! Pure state machines of the two-phase reconfiguration quorum protocol.
//!
//! The protocol has two roles: the **coordinator** (the manager running a
//! swap: publish prepare, collect votes while deferring admission
//! decisions, commit or abort at the ack deadline) and the
//! **member** (any voter: fence on a prepare, ack or veto, release the
//! fence on commit/abort or after a timeout). Both roles used to live
//! inline in their host threads (`manager.rs`, `quorum.rs`), entangled
//! with mailboxes, reactors and wall clocks — which made them untestable
//! without threads and unusable from the deterministic federation
//! simulator.
//!
//! This module is the disentangled core: no I/O, no clocks, no threads.
//! Time enters exclusively as `now_ns: u64` arguments, so the same
//! machines run against the wall clock (threaded runtime), a manual
//! clock (tests) or a per-host *virtual* clock with injected skew
//! (`rtcm-sim`'s federation). The threaded [`crate::quorum::QuorumMember`]
//! and the manager handler are shells around them; the simulator drives the
//! identical transition functions — one protocol, two schedulers.

use std::collections::HashSet;

use rtcm_core::strategy::{InvalidConfigError, ServiceConfig};

use crate::proto::{
    swap_trace, ReconfigAbortReason, ReconfigAckMsg, ReconfigMsg, ReconfigPhase, ReconfigVote,
    QUORUM_MEMBER_PROC,
};

/// A member's standing fence: the one swap it is currently committed to
/// voting for, plus the instant (on the member's own clock) it was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    /// The coordinator identity the fence was raised for.
    pub coordinator: u64,
    /// That coordinator's epoch.
    pub epoch: u64,
    /// When the fence was raised, on the member's clock.
    pub raised_ns: u64,
}

/// What a member does in reaction to one protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberReaction {
    /// Nothing to send and nothing witnessed (own-host message, held
    /// message, or a commit/abort for a swap this member is not fenced
    /// for).
    Ignored,
    /// Send this vote back toward the coordinator.
    Vote(ReconfigAckMsg),
    /// The fenced swap committed this configuration; the fence is down.
    Committed(ServiceConfig),
    /// The fenced swap aborted; the fence is down.
    Aborted,
}

/// The member role: fences, votes and commit witnessing.
///
/// All methods take the member's *current clock reading*; the machine
/// never reads time itself (that is the whole point — see the module
/// docs).
#[derive(Debug, Default)]
pub struct MemberSm {
    fence: Option<Fence>,
    commits: Vec<ServiceConfig>,
    acks: u64,
    nacks: u64,
}

impl MemberSm {
    /// A fresh, unfenced member.
    #[must_use]
    pub fn new() -> Self {
        MemberSm::default()
    }

    /// Drops a fence whose commit/abort never arrived once it has stood
    /// for `fence_timeout_ns` (lost-packet / partition recovery). Returns
    /// true if a fence was dropped.
    pub fn expire_fence(&mut self, now_ns: u64, fence_timeout_ns: u64) -> bool {
        if let Some(f) = self.fence {
            if now_ns.saturating_sub(f.raised_ns) >= fence_timeout_ns {
                self.fence = None;
                return true;
            }
        }
        false
    }

    /// One protocol message, observed at `now_ns` on this member's clock.
    ///
    /// `host` is the identity this member votes as; messages originating
    /// from that host are ignored (its own swaps are quorum'd by its local
    /// processors). While `holding` is true the member simulates a
    /// partitioned host: prepares are ignored entirely — no fence, no
    /// vote — so the coordinator aborts at its ack deadline.
    pub fn on_phase(
        &mut self,
        msg: &ReconfigMsg,
        host: u64,
        now_ns: u64,
        fence_timeout_ns: u64,
        holding: bool,
    ) -> MemberReaction {
        if msg.host == host {
            return MemberReaction::Ignored;
        }
        self.expire_fence(now_ns, fence_timeout_ns);
        match msg.phase {
            ReconfigPhase::Prepare => {
                if holding {
                    return MemberReaction::Ignored;
                }
                let vote = match self.fence {
                    // Fenced for a different coordinator's live swap: veto.
                    Some(f) if f.coordinator != msg.coordinator => {
                        self.nacks += 1;
                        ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator)
                    }
                    // Free, or the same coordinator superseding its own
                    // epoch (a coordinator serializes its swaps, so the
                    // older one is dead): fence and ack.
                    _ => {
                        self.fence = Some(Fence {
                            coordinator: msg.coordinator,
                            epoch: msg.epoch,
                            raised_ns: now_ns,
                        });
                        self.acks += 1;
                        ReconfigVote::Ack
                    }
                };
                MemberReaction::Vote(ReconfigAckMsg {
                    coordinator: msg.coordinator,
                    epoch: msg.epoch,
                    host,
                    processor: QUORUM_MEMBER_PROC,
                    vote,
                    sent_ns: now_ns,
                    trace: msg.trace,
                })
            }
            ReconfigPhase::Commit => {
                if self.matches_fence(msg) {
                    self.fence = None;
                    self.commits.push(msg.services);
                    MemberReaction::Committed(msg.services)
                } else {
                    MemberReaction::Ignored
                }
            }
            ReconfigPhase::Abort => {
                if self.matches_fence(msg) {
                    self.fence = None;
                    MemberReaction::Aborted
                } else {
                    MemberReaction::Ignored
                }
            }
        }
    }

    fn matches_fence(&self, msg: &ReconfigMsg) -> bool {
        self.fence.is_some_and(|f| (f.coordinator, f.epoch) == (msg.coordinator, msg.epoch))
    }

    /// The standing fence, if any.
    #[must_use]
    pub fn fence(&self) -> Option<Fence> {
        self.fence
    }

    /// Configurations whose commits this member witnessed, in order.
    #[must_use]
    pub fn commits(&self) -> &[ServiceConfig] {
        &self.commits
    }

    /// Prepares acked so far.
    #[must_use]
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Prepares vetoed so far (foreign-coordinator collisions).
    #[must_use]
    pub fn nacks(&self) -> u64 {
        self.nacks
    }
}

/// How one swap ended at its coordinator: everything the host shell needs
/// to close it, built here and nowhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapResolution<A> {
    /// The closing phase to publish: `Commit(target)`, or `Abort` carrying
    /// the configuration that stays in force.
    pub message: ReconfigMsg,
    /// `None` for a committed swap; otherwise why it aborted — the vetoing
    /// member's reason, or [`ReconfigAbortReason::AckTimeout`] for silence.
    pub aborted: Option<ReconfigAbortReason>,
    /// Votes collected when the swap closed (local + remote).
    pub acked: usize,
    /// Votes the quorum required (local + remote).
    pub expected: usize,
    /// The `now_ns` the swap began at.
    pub started_ns: u64,
    /// Arrivals deferred while the prepare was out, in arrival order; the
    /// caller decides them under whichever configuration won.
    pub deferred: Vec<A>,
}

/// One prepare in flight.
#[derive(Debug)]
struct Pending<A> {
    target: ServiceConfig,
    current: ServiceConfig,
    expected_local: u16,
    remote: HashSet<u64>,
    local_acked: HashSet<u16>,
    remote_acked: HashSet<u64>,
    started_ns: u64,
    deadline_ns: u64,
    deferred: Vec<A>,
}

/// The coordinator role, one instance per coordinator: the epoch counter
/// and the whole lifecycle of its swaps — prepare, vote tally, ack
/// deadline, the arrivals deferred meanwhile (`A`: the runtime's
/// `ArriveMsg`, the simulator's trace index), and the closing commit or
/// abort. No decision straddles a handover because the only way out of a
/// prepare window is a [`SwapResolution`] handing the deferred arrivals
/// back.
#[derive(Debug)]
pub struct CoordinatorSm<A> {
    coordinator: u64,
    own_host: u64,
    epoch: u64,
    pending: Option<Pending<A>>,
}

impl<A> CoordinatorSm<A> {
    /// An idle coordinator with wire identity `coordinator` on host
    /// `own_host`; its first swap is epoch 1.
    #[must_use]
    pub fn new(coordinator: u64, own_host: u64) -> Self {
        CoordinatorSm { coordinator, own_host, epoch: 0, pending: None }
    }

    /// Starts a swap from `current` to `target` at `now_ns`: returns the
    /// `Prepare` to publish and, when the quorum — every local processor
    /// `0..expected_local` plus every host in `remote` — is empty, the
    /// immediate commit. An invalid target (§4.5) consumes no epoch.
    ///
    /// # Errors
    ///
    /// [`InvalidConfigError`] if `target` is not a valid combination.
    ///
    /// # Panics
    ///
    /// If a swap is already pending: a coordinator serializes its swaps.
    pub fn begin(
        &mut self,
        target: ServiceConfig,
        current: ServiceConfig,
        expected_local: u16,
        remote: HashSet<u64>,
        now_ns: u64,
        ack_timeout_ns: u64,
    ) -> Result<(ReconfigMsg, Option<SwapResolution<A>>), InvalidConfigError> {
        assert!(self.pending.is_none(), "a coordinator serializes its swaps");
        target.validate()?;
        self.epoch += 1;
        self.pending = Some(Pending {
            target,
            current,
            expected_local,
            remote,
            local_acked: HashSet::new(),
            remote_acked: HashSet::new(),
            started_ns: now_ns,
            deadline_ns: now_ns.saturating_add(ack_timeout_ns),
            deferred: Vec::new(),
        });
        Ok((self.phase(ReconfigPhase::Prepare, target, now_ns), self.settle(now_ns)))
    }

    /// Queues an arrival until the pending swap resolves.
    ///
    /// # Panics
    ///
    /// If no swap is pending (check [`CoordinatorSm::pending_epoch`]).
    pub fn defer(&mut self, arrival: A) {
        self.pending.as_mut().expect("defer needs a pending swap").deferred.push(arrival);
    }

    /// Feeds one ack/nack, observed at `now_ns`. Votes outside a prepare
    /// window, for other coordinators or epochs, from unknown hosts, or
    /// from out-of-range processors are ignored — a bridged-in foreign
    /// reconfiguration can never pre-satisfy a local prepare quorum. A veto
    /// from a quorum member (it is fenced for someone else's swap) aborts
    /// at once — no point waiting out the timeout.
    pub fn on_ack(&mut self, ack: &ReconfigAckMsg, now_ns: u64) -> Option<SwapResolution<A>> {
        let p = self.pending.as_mut()?;
        if ack.coordinator != self.coordinator || ack.epoch != self.epoch {
            return None;
        }
        match ack.vote {
            ReconfigVote::Ack => {
                if ack.host == self.own_host && ack.processor < p.expected_local {
                    p.local_acked.insert(ack.processor);
                } else if p.remote.contains(&ack.host) {
                    p.remote_acked.insert(ack.host);
                }
                self.settle(now_ns)
            }
            ReconfigVote::Nack(reason) => (ack.host == self.own_host
                || p.remote.contains(&ack.host))
            .then(|| self.resolve(Some(reason), now_ns)),
        }
    }

    /// The ack deadline check: aborts the pending swap with
    /// [`ReconfigAbortReason::AckTimeout`] once `now_ns` has reached
    /// [`CoordinatorSm::deadline_ns`]; earlier (a re-aimed or stale timer)
    /// it does nothing.
    pub fn on_deadline(&mut self, now_ns: u64) -> Option<SwapResolution<A>> {
        (now_ns >= self.pending.as_ref()?.deadline_ns)
            .then(|| self.resolve(Some(ReconfigAbortReason::AckTimeout), now_ns))
    }

    /// Drops the pending swap unresolved (coordinator crash): its epoch and
    /// the arrivals deferred under it. Members' fences expire on their own.
    pub fn abandon(&mut self) -> Option<(u64, Vec<A>)> {
        self.pending.take().map(|p| (self.epoch, p.deferred))
    }

    /// The pending swap's epoch; `None` while idle.
    #[must_use]
    pub fn pending_epoch(&self) -> Option<u64> {
        self.pending.as_ref().map(|_| self.epoch)
    }

    /// The pending swap's ack deadline, for the caller to aim its timer at.
    #[must_use]
    pub fn deadline_ns(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.deadline_ns)
    }

    /// Commits once every local processor and every remote voter acked.
    fn settle(&mut self, now_ns: u64) -> Option<SwapResolution<A>> {
        let p = self.pending.as_ref()?;
        (p.local_acked.len() >= usize::from(p.expected_local)
            && p.remote_acked.len() >= p.remote.len())
        .then(|| self.resolve(None, now_ns))
    }

    fn resolve(&mut self, aborted: Option<ReconfigAbortReason>, now_ns: u64) -> SwapResolution<A> {
        let p = self.pending.take().expect("callers checked a swap is pending");
        let (phase, services) = match aborted {
            None => (ReconfigPhase::Commit, p.target),
            Some(_) => (ReconfigPhase::Abort, p.current),
        };
        SwapResolution {
            message: self.phase(phase, services, now_ns),
            aborted,
            acked: p.local_acked.len() + p.remote_acked.len(),
            expected: usize::from(p.expected_local) + p.remote.len(),
            started_ns: p.started_ns,
            deferred: p.deferred,
        }
    }

    fn phase(&self, phase: ReconfigPhase, services: ServiceConfig, now_ns: u64) -> ReconfigMsg {
        ReconfigMsg {
            coordinator: self.coordinator,
            host: self.own_host,
            epoch: self.epoch,
            phase,
            services,
            sent_ns: now_ns,
            trace: swap_trace(self.coordinator, self.epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::swap_trace;

    fn prepare(coordinator: u64, host: u64, epoch: u64) -> ReconfigMsg {
        phase_msg(coordinator, host, epoch, ReconfigPhase::Prepare)
    }

    fn phase_msg(coordinator: u64, host: u64, epoch: u64, phase: ReconfigPhase) -> ReconfigMsg {
        ReconfigMsg {
            coordinator,
            host,
            epoch,
            phase,
            services: "J_J_J".parse().unwrap(),
            sent_ns: 0,
            trace: swap_trace(coordinator, epoch),
        }
    }

    const TIMEOUT: u64 = 5_000;

    #[test]
    fn member_fences_acks_and_witnesses_commit() {
        let mut m = MemberSm::new();
        let react = m.on_phase(&prepare(9, 1, 1), 2, 100, TIMEOUT, false);
        let MemberReaction::Vote(ack) = react else { panic!("expected a vote") };
        assert_eq!(ack.vote, ReconfigVote::Ack);
        assert_eq!(ack.processor, QUORUM_MEMBER_PROC);
        assert_eq!(ack.host, 2);
        assert!(m.fence().is_some());
        let commit = phase_msg(9, 1, 1, ReconfigPhase::Commit);
        let react = m.on_phase(&commit, 2, 200, TIMEOUT, false);
        assert_eq!(react, MemberReaction::Committed(commit.services));
        assert!(m.fence().is_none());
        assert_eq!(m.commits().len(), 1);
        assert_eq!(m.acks(), 1);
    }

    #[test]
    fn member_ignores_its_own_hosts_swaps() {
        let mut m = MemberSm::new();
        assert_eq!(m.on_phase(&prepare(9, 2, 1), 2, 0, TIMEOUT, false), MemberReaction::Ignored);
        assert!(m.fence().is_none());
    }

    #[test]
    fn member_vetoes_a_foreign_coordinator_collision() {
        let mut m = MemberSm::new();
        m.on_phase(&prepare(9, 1, 1), 2, 0, TIMEOUT, false);
        let react = m.on_phase(&prepare(8, 3, 1), 2, 10, TIMEOUT, false);
        let MemberReaction::Vote(ack) = react else { panic!("expected a vote") };
        assert_eq!(ack.vote, ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator));
        assert_eq!(m.nacks(), 1);
        // The original fence still stands for coordinator 9.
        assert_eq!(m.fence().unwrap().coordinator, 9);
    }

    #[test]
    fn same_coordinator_supersedes_its_own_epoch() {
        let mut m = MemberSm::new();
        m.on_phase(&prepare(9, 1, 1), 2, 0, TIMEOUT, false);
        let react = m.on_phase(&prepare(9, 1, 2), 2, 10, TIMEOUT, false);
        let MemberReaction::Vote(ack) = react else { panic!("expected a vote") };
        assert_eq!(ack.vote, ReconfigVote::Ack);
        assert_eq!(m.fence().unwrap().epoch, 2);
        // The dead epoch's commit no longer matches the fence.
        let stale = phase_msg(9, 1, 1, ReconfigPhase::Commit);
        assert_eq!(m.on_phase(&stale, 2, 20, TIMEOUT, false), MemberReaction::Ignored);
        assert!(m.fence().is_some());
    }

    #[test]
    fn held_member_neither_fences_nor_votes() {
        let mut m = MemberSm::new();
        assert_eq!(m.on_phase(&prepare(9, 1, 1), 2, 0, TIMEOUT, true), MemberReaction::Ignored);
        assert!(m.fence().is_none());
        assert_eq!(m.acks(), 0);
    }

    #[test]
    fn fence_expires_on_the_injected_clock() {
        let mut m = MemberSm::new();
        m.on_phase(&prepare(9, 1, 1), 2, 1_000, TIMEOUT, false);
        assert!(!m.expire_fence(1_000 + TIMEOUT - 1, TIMEOUT));
        assert!(m.fence().is_some());
        assert!(m.expire_fence(1_000 + TIMEOUT, TIMEOUT));
        assert!(m.fence().is_none());
        // An expired fence means a late abort is a no-op...
        let abort = phase_msg(9, 1, 1, ReconfigPhase::Abort);
        assert_eq!(m.on_phase(&abort, 2, 9_000, TIMEOUT, false), MemberReaction::Ignored);
        // ...and the member is free to ack the next prepare.
        let react = m.on_phase(&prepare(8, 3, 1), 2, 9_100, TIMEOUT, false);
        assert!(matches!(react, MemberReaction::Vote(a) if a.vote == ReconfigVote::Ack));
    }

    #[test]
    fn aborted_member_releases_without_witnessing() {
        let mut m = MemberSm::new();
        m.on_phase(&prepare(9, 1, 1), 2, 0, TIMEOUT, false);
        let abort = phase_msg(9, 1, 1, ReconfigPhase::Abort);
        assert_eq!(m.on_phase(&abort, 2, 10, TIMEOUT, false), MemberReaction::Aborted);
        assert!(m.fence().is_none());
        assert!(m.commits().is_empty());
    }

    fn ack(coordinator: u64, epoch: u64, host: u64, processor: u16) -> ReconfigAckMsg {
        ReconfigAckMsg {
            coordinator,
            epoch,
            host,
            processor,
            vote: ReconfigVote::Ack,
            sent_ns: 0,
            trace: swap_trace(coordinator, epoch),
        }
    }

    const ACK_TIMEOUT: u64 = 2_000;

    fn config(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    /// Coordinator 9 on host 5 with a J_N_N → J_J_J swap begun at t = 100.
    fn begun(expected_local: u16, remote: &[u64]) -> CoordinatorSm<u32> {
        let mut c = CoordinatorSm::new(9, 5);
        let remote = remote.iter().copied().collect();
        let begun = c
            .begin(config("J_J_J"), config("J_N_N"), expected_local, remote, 100, ACK_TIMEOUT)
            .unwrap();
        assert_eq!(begun, (ReconfigMsg { sent_ns: 100, ..prepare(9, 5, 1) }, None));
        c
    }

    #[test]
    fn coordinator_waits_for_locals_and_remotes() {
        let mut c = begun(2, &[77, 88]);
        assert_eq!(c.on_ack(&ack(9, 1, 5, 0), 110), None);
        assert_eq!(c.on_ack(&ack(9, 1, 5, 1), 120), None);
        assert_eq!(c.on_ack(&ack(9, 1, 77, QUORUM_MEMBER_PROC), 130), None);
        assert_eq!(c.pending_epoch(), Some(1));
        let res = c.on_ack(&ack(9, 1, 88, QUORUM_MEMBER_PROC), 140).expect("quorum satisfied");
        assert_eq!(res.aborted, None);
        assert_eq!((res.acked, res.expected, res.started_ns), (4, 4, 100));
        let commit = ReconfigMsg { sent_ns: 140, ..phase_msg(9, 5, 1, ReconfigPhase::Commit) };
        assert_eq!(res.message, commit);
        assert_eq!((c.pending_epoch(), c.deadline_ns()), (None, None));
    }

    #[test]
    fn coordinator_ignores_stale_foreign_and_unknown_votes() {
        let mut c = begun(1, &[]);
        c.on_deadline(100 + ACK_TIMEOUT).expect("epoch 1 times out");
        c.begin(config("J_J_J"), config("J_N_N"), 1, HashSet::new(), 5_000, ACK_TIMEOUT).unwrap();
        assert_eq!(c.on_ack(&ack(9, 1, 5, 0), 5_010), None); // stale epoch
        assert_eq!(c.on_ack(&ack(8, 2, 5, 0), 5_010), None); // foreign coordinator
        assert_eq!(c.on_ack(&ack(9, 2, 6, QUORUM_MEMBER_PROC), 5_010), None); // unregistered host
        assert_eq!(c.on_ack(&ack(9, 2, 5, 7), 5_010), None); // out-of-range processor
        let res = c.on_ack(&ack(9, 2, 5, 0), 5_020).expect("the one valid vote settles it");
        assert_eq!((res.aborted, res.acked, res.expected), (None, 1, 1));
        // Outside a prepare window every vote is stale.
        assert_eq!(c.on_ack(&ack(9, 2, 5, 0), 5_030), None);
    }

    #[test]
    fn coordinator_veto_fails_fast() {
        let mut c = begun(1, &[77]);
        assert_eq!(c.on_ack(&ack(9, 1, 5, 0), 110), None);
        // A nack from a host outside the quorum is ignored.
        let mut stray = ack(9, 1, 66, QUORUM_MEMBER_PROC);
        stray.vote = ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator);
        assert_eq!(c.on_ack(&stray, 115), None);
        let mut veto = ack(9, 1, 77, QUORUM_MEMBER_PROC);
        veto.vote = ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator);
        let res = c.on_ack(&veto, 120).expect("a veto resolves at once");
        assert_eq!(res.aborted, Some(ReconfigAbortReason::ForeignCoordinator));
        assert_eq!((res.acked, res.expected), (1, 2));
        assert_eq!(res.message.phase, ReconfigPhase::Abort);
        assert_eq!(res.message.services, config("J_N_N"), "abort carries the current config");
    }

    #[test]
    fn empty_quorum_commits_at_begin() {
        let mut c: CoordinatorSm<u32> = CoordinatorSm::new(9, 5);
        let (prepare, resolved) =
            c.begin(config("J_J_J"), config("J_N_N"), 0, HashSet::new(), 100, ACK_TIMEOUT).unwrap();
        assert_eq!(prepare.phase, ReconfigPhase::Prepare);
        let res = resolved.expect("nobody to wait for");
        assert_eq!((res.aborted, res.acked, res.expected), (None, 0, 0));
        assert_eq!((res.message.phase, res.message.epoch), (ReconfigPhase::Commit, 1));
        assert_eq!(c.pending_epoch(), None);
    }

    #[test]
    fn deadline_aborts_with_the_current_configuration() {
        let mut c = begun(1, &[77]);
        assert_eq!(c.deadline_ns(), Some(100 + ACK_TIMEOUT));
        assert_eq!(c.on_ack(&ack(9, 1, 5, 0), 110), None);
        // Early (a drift re-aim in the simulator): nothing happens and the
        // deadline stands.
        assert_eq!(c.on_deadline(100 + ACK_TIMEOUT - 1), None);
        assert_eq!(c.deadline_ns(), Some(100 + ACK_TIMEOUT));
        let res = c.on_deadline(100 + ACK_TIMEOUT).expect("silence aborts at the deadline");
        assert_eq!(res.aborted, Some(ReconfigAbortReason::AckTimeout));
        assert_eq!((res.acked, res.expected), (1, 2));
        let abort = ReconfigMsg {
            services: config("J_N_N"),
            sent_ns: 100 + ACK_TIMEOUT,
            ..phase_msg(9, 5, 1, ReconfigPhase::Abort)
        };
        assert_eq!(res.message, abort);
        assert_eq!(c.on_deadline(u64::MAX), None, "idle coordinators have no deadline");
    }

    #[test]
    fn deferred_arrivals_come_back_once_in_order() {
        // On commit...
        let mut c = begun(1, &[]);
        c.defer(3);
        c.defer(1);
        c.defer(2);
        assert_eq!(c.on_ack(&ack(9, 1, 5, 0), 110).unwrap().deferred, vec![3, 1, 2]);
        // ...on abort (the queue starts empty again)...
        c.begin(config("J_N_N"), config("J_J_J"), 1, HashSet::new(), 200, ACK_TIMEOUT).unwrap();
        c.defer(7);
        assert_eq!(c.on_deadline(200 + ACK_TIMEOUT).unwrap().deferred, vec![7]);
        // ...and on abandon, which also names the epoch it drops.
        c.begin(config("J_N_N"), config("J_J_J"), 1, HashSet::new(), 9_000, ACK_TIMEOUT).unwrap();
        c.defer(8);
        c.defer(9);
        assert_eq!(c.abandon(), Some((3, vec![8, 9])));
        assert_eq!(c.abandon(), None);
        assert_eq!(c.on_ack(&ack(9, 3, 5, 0), 9_010), None, "an abandoned epoch takes no votes");
    }

    #[test]
    fn invalid_target_consumes_no_epoch() {
        let mut c: CoordinatorSm<u32> = CoordinatorSm::new(9, 5);
        let invalid = config("T_J_N");
        assert!(c.begin(invalid, config("J_N_N"), 1, HashSet::new(), 100, ACK_TIMEOUT).is_err());
        assert_eq!(c.pending_epoch(), None);
        let (prepare, _) =
            c.begin(config("J_J_J"), config("J_N_N"), 1, HashSet::new(), 200, ACK_TIMEOUT).unwrap();
        assert_eq!(prepare.epoch, 1);
    }
}
