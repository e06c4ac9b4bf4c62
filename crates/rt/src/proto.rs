//! Wire messages exchanged over the federated event channel, mirroring the
//! event payloads of Figure 3 ("Task Arrive", "Accept", "Trigger", "Idle
//! Resetting").
//!
//! Timestamps ride along as nanoseconds on the shared
//! [`crate::clock::Clock`] axis so receivers can measure one-way delays.
//!
//! # Payload layout
//!
//! Payloads are a versioned fixed-layout binary format in the style of the
//! frame codec in `rtcm_events::wire` (big-endian integers, no text, one
//! exact-size allocation per encode):
//!
//! ```text
//! [u8 version = 0x01] [u8 kind] [fixed fields at fixed offsets] [tail]
//! ```
//!
//! `kind` tags the message type (see [`MsgKind`]), enums travel as one tag
//! byte each, and the variable-length field of a message — `assignment`
//! (`u16` count, then `u16` processors) or `completed` (`u32` count, then
//! 16-byte `(task, seq, subtask)` triples) — is a length-prefixed tail. A
//! payload must be consumed exactly: the count is checked against the
//! bytes that remain *before* anything is allocated for it. DESIGN.md
//! ("Wire protocol") tabulates the per-message layouts; the golden-bytes
//! tests in `tests/proto_codec.rs` pin them.
//!
//! # `decode` vs `try_decode`
//!
//! Every receiver inside the program decodes with [`try_decode`] (through
//! [`DecodeErrors::receive`]): a payload that arrives from a mailbox may
//! have crossed a TCP bridge from a foreign host, so a malformed one is
//! dropped and counted, never a panic. The infallible [`decode`] stays
//! for payloads the caller produced itself — tests, benches, observers.

use rtcm_core::strategy::{AcStrategy, IrStrategy, LbStrategy, ServiceConfig};
use rtcm_core::task::{JobId, TaskId};
use rtcm_events::{ChannelHandle, Event};
use rtcm_telemetry::{Counter, TraceBuffer};

use crate::clock::Clock;

/// Launcher → TE: an arrival injected by `System::submit`. Rides the
/// federated event channel on the arrival processor's reserved
/// `topics::inject` topic, so submissions take the same fast path (and
/// the same mailbox wakeup) as every other middleware event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectMsg {
    /// The arriving task.
    pub task: TaskId,
    /// Job sequence number.
    pub seq: u64,
    /// Trace correlation id, minted at submission (`splitmix64` over host,
    /// task and sequence) and carried through every downstream protocol
    /// message — including bridged wire frames — so one job's lifecycle
    /// correlates across hosts in the OAM trace dump.
    pub trace: u64,
}

/// TE → AC: a held task awaiting an admission decision (op 1 → op 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArriveMsg {
    /// The arriving job.
    pub job: JobId,
    /// Processor the job arrived on (where its TE holds it).
    pub arrival_proc: u16,
    /// Arrival instant (clock ns).
    pub arrival_ns: u64,
    /// When the TE finished holding and published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// AC → TE: release the job under the given placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptMsg {
    /// The admitted job.
    pub job: JobId,
    /// Placement: processor per subtask.
    pub assignment: Vec<u16>,
    /// Processor whose TE must perform the release (first stage).
    pub release_proc: u16,
    /// Original arrival instant (clock ns), for end-to-end accounting.
    pub arrival_ns: u64,
    /// Absolute deadline (clock ns).
    pub deadline_ns: u64,
    /// True if this decision came from a fresh admission test (as opposed
    /// to a per-task reservation pass-through).
    pub newly_admitted: bool,
    /// When the AC published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// AC → TE: drop the held job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectMsg {
    /// The rejected job.
    pub job: JobId,
    /// Processor whose TE holds the job.
    pub arrival_proc: u16,
    /// True if the whole (periodic, per-task) task is now rejected.
    pub task_rejected: bool,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// F/I subtask → next subtask component: start the next stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerMsg {
    /// The in-flight job.
    pub job: JobId,
    /// Index of the stage to start.
    pub next_subtask: u32,
    /// Full placement, so downstream stages can route further triggers.
    pub assignment: Vec<u16>,
    /// Original arrival instant (clock ns).
    pub arrival_ns: u64,
    /// Absolute deadline (clock ns).
    pub deadline_ns: u64,
    /// When the previous stage published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// IR → AC: completed subjobs whose contributions may be removed (op 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleResetMsg {
    /// The idle processor.
    pub processor: u16,
    /// Completed subjobs as `(job, subtask index)` pairs.
    pub completed: Vec<(JobId, u32)>,
    /// When the idle detector started assembling the report (clock ns).
    pub started_ns: u64,
}

/// Why a two-phase reconfiguration was abandoned. Carried on the wire in
/// [`ReconfigVote::Nack`], surfaced in `ReconfigureError::Aborted`, and
/// accumulated per reason in `SystemReport::reconfig_abort_reasons` so
/// governor-triggered aborts are diagnosable after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigAbortReason {
    /// Not every prepare-quorum member (local node or registered bridged
    /// host) acknowledged before the ack timeout — the partition-safe
    /// default outcome when a remote federation withholds its vote.
    AckTimeout,
    /// The target combination failed the §4.5 validity rule before any
    /// phase was published.
    Validation,
    /// A quorum member refused the prepare because it was already fenced
    /// for a *different* coordinator's in-flight swap.
    ForeignCoordinator,
}

impl std::fmt::Display for ReconfigAbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReconfigAbortReason::AckTimeout => "ack-timeout",
            ReconfigAbortReason::Validation => "validation",
            ReconfigAbortReason::ForeignCoordinator => "foreign-coordinator",
        })
    }
}

/// A prepare-quorum member's vote on a pending reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigVote {
    /// The member fenced its fast paths and accepts the swap.
    Ack,
    /// The member refuses the swap (e.g. it is fenced for a different
    /// coordinator); the coordinator must abort with the given reason.
    Nack(ReconfigAbortReason),
}

/// Phase of the two-phase live-reconfiguration protocol (§5's run-time
/// attribute modification, generalized to the whole `ServiceConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigPhase {
    /// AC → nodes: fence local fast paths (task-effector decision caches)
    /// and acknowledge; execution continues — the protocol is quiesce-free.
    Prepare,
    /// AC → nodes: the ledger handover is done; adopt `services`, clear
    /// decision caches, lift the fence.
    Commit,
    /// AC → nodes: the swap was abandoned (a node never acked); lift the
    /// fence and keep the old configuration.
    Abort,
}

/// AC → all nodes (and, when the topic is bridged, remote hosts): one
/// phase of a live `ServiceConfig` swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigMsg {
    /// Identity of the coordinating manager (unique per manager instance,
    /// process-qualified). Acks echo it so a bridged-in reconfiguration
    /// stream from *another* host's coordinator can never satisfy a local
    /// prepare quorum, and nodes commit only the swap they fenced for.
    pub coordinator: u64,
    /// Host identity of the coordinator's federation
    /// (`Federation::host_id`). Local nodes ignore phases from foreign
    /// hosts entirely — a bridged-in foreign commit can never half-apply —
    /// while bridged quorum members use it to recognize foreign prepares
    /// they must vote on.
    pub host: u64,
    /// Monotone swap epoch within the coordinator; acks echo it so a slow
    /// ack for an abandoned swap can never satisfy a later one.
    pub epoch: u64,
    /// The protocol phase.
    pub phase: ReconfigPhase,
    /// The configuration being entered (the *old* configuration for
    /// [`ReconfigPhase::Abort`]).
    pub services: ServiceConfig,
    /// When the AC published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id for this swap, minted deterministically from
    /// `(coordinator, epoch)` so every phase of one reconfiguration —
    /// including phases bridged to remote hosts — correlates in trace
    /// dumps without any extra wire round-trip.
    pub trace: u64,
}

/// Sentinel processor id used by bridged quorum members (which represent a
/// whole host, not one of the coordinator's application processors), so a
/// remote vote can never alias a local node's ack.
pub const QUORUM_MEMBER_PROC: u16 = u16::MAX;

/// Quorum member → AC: this member's vote on a prepare. Local nodes vote
/// [`ReconfigVote::Ack`] with their own processor id and host; bridged
/// federations vote through a `QuorumMember` carrying *their* host id and
/// [`QUORUM_MEMBER_PROC`]. The coordinator commits only once every local
/// processor **and** every registered remote host has acked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigAckMsg {
    /// The coordinator whose prepare is voted on.
    pub coordinator: u64,
    /// The epoch being voted on.
    pub epoch: u64,
    /// Host identity of the voting federation.
    pub host: u64,
    /// The acknowledging processor ([`QUORUM_MEMBER_PROC`] for bridged
    /// hosts).
    pub processor: u16,
    /// The vote.
    pub vote: ReconfigVote,
    /// When the voter published this message (clock ns on the voter's
    /// clock).
    pub sent_ns: u64,
    /// The swap's trace correlation id, echoed from
    /// [`ReconfigMsg::trace`].
    pub trace: u64,
}

/// Current payload format version (first payload byte).
pub const PAYLOAD_VERSION: u8 = 0x01;

/// The message type tag carried in the second payload byte. Also the
/// label `rtcm_proto_decode_errors_total` is broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// [`InjectMsg`].
    Inject = 1,
    /// [`ArriveMsg`].
    Arrive = 2,
    /// [`AcceptMsg`].
    Accept = 3,
    /// [`RejectMsg`].
    Reject = 4,
    /// [`TriggerMsg`].
    Trigger = 5,
    /// [`IdleResetMsg`].
    IdleReset = 6,
    /// [`ReconfigMsg`].
    Reconfig = 7,
    /// [`ReconfigAckMsg`].
    ReconfigAck = 8,
}

impl MsgKind {
    /// Every kind, in tag order.
    pub const ALL: [MsgKind; 8] = [
        MsgKind::Inject,
        MsgKind::Arrive,
        MsgKind::Accept,
        MsgKind::Reject,
        MsgKind::Trigger,
        MsgKind::IdleReset,
        MsgKind::Reconfig,
        MsgKind::ReconfigAck,
    ];

    /// The topic this kind travels on, as a metric label value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Inject => "inject",
            MsgKind::Arrive => "task_arrive",
            MsgKind::Accept => "accept",
            MsgKind::Reject => "reject",
            MsgKind::Trigger => "trigger",
            MsgKind::IdleReset => "idle_reset",
            MsgKind::Reconfig => "reconfig",
            MsgKind::ReconfigAck => "reconfig_ack",
        }
    }
}

/// Why a payload is not a valid message of the expected type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ends before the fixed fields do.
    Truncated,
    /// The version byte is not [`PAYLOAD_VERSION`].
    Version(u8),
    /// The kind byte is not the expected message type's.
    Kind {
        /// The tag of the type being decoded.
        expected: u8,
        /// The tag the payload carries.
        found: u8,
    },
    /// An enum or boolean tag byte holds no defined value.
    Tag(u8),
    /// The tail's element count disagrees with the bytes that follow it
    /// (too few, or trailing garbage).
    Length,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("payload shorter than its fixed fields"),
            DecodeError::Version(v) => write!(f, "unknown payload version {v:#04x}"),
            DecodeError::Kind { expected, found } => {
                write!(f, "message kind {found} where kind {expected} was expected")
            }
            DecodeError::Tag(t) => write!(f, "undefined tag byte {t:#04x}"),
            DecodeError::Length => f.write_str("tail length disagrees with the payload size"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The codec proper, sealed inside the crate: only the eight message
/// types of this module are [`Wire`].
mod codec {
    use super::{DecodeError, MsgKind};

    /// Bounds-checked big-endian cursor over a payload.
    pub struct Reader<'a>(pub &'a [u8]);

    impl Reader<'_> {
        fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
            let (head, rest) = self.0.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
            self.0 = rest;
            Ok(*head)
        }
        pub fn u8(&mut self) -> Result<u8, DecodeError> {
            self.take::<1>().map(|b| b[0])
        }
        pub fn u16(&mut self) -> Result<u16, DecodeError> {
            self.take().map(u16::from_be_bytes)
        }
        pub fn u32(&mut self) -> Result<u32, DecodeError> {
            self.take().map(u32::from_be_bytes)
        }
        pub fn u64(&mut self) -> Result<u64, DecodeError> {
            self.take().map(u64::from_be_bytes)
        }
        pub fn bool(&mut self) -> Result<bool, DecodeError> {
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                t => Err(DecodeError::Tag(t)),
            }
        }
        /// Checks that exactly `count` elements of `size` bytes remain —
        /// the bound that must hold before a tail is allocated.
        pub fn expect_tail(&self, count: usize, size: usize) -> Result<(), DecodeError> {
            if count.checked_mul(size) == Some(self.0.len()) {
                Ok(())
            } else {
                Err(DecodeError::Length)
            }
        }
    }

    pub trait Codec: Sized {
        const KIND: MsgKind;
        /// Encoded size of everything after the two header bytes.
        fn body_len(&self) -> usize;
        /// Appends the body (fixed fields, then the tail).
        fn put(&self, out: &mut Vec<u8>);
        /// Reads the body; the caller checks that nothing is left over.
        fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
    }
}

use codec::{Codec, Reader};

/// A message this module can [`encode`] and [`decode`]: exactly the eight
/// control messages above.
pub trait Wire: Codec {}
impl<T: Codec> Wire for T {}

fn put_job(out: &mut Vec<u8>, job: JobId) {
    out.extend_from_slice(&job.task.0.to_be_bytes());
    out.extend_from_slice(&job.seq.to_be_bytes());
}

/// Appends a run of consecutive `u64` fields, in order.
fn put_u64s<const N: usize>(out: &mut Vec<u8>, values: [u64; N]) {
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

fn get_job(r: &mut Reader<'_>) -> Result<JobId, DecodeError> {
    Ok(JobId::new(TaskId(r.u32()?), r.u64()?))
}

/// Appends a `u16`-counted processor list (the `assignment` tail).
fn put_assignment(out: &mut Vec<u8>, assignment: &[u16]) {
    let n = u16::try_from(assignment.len()).expect("a task has fewer than 65536 subtasks");
    out.extend_from_slice(&n.to_be_bytes());
    for p in assignment {
        out.extend_from_slice(&p.to_be_bytes());
    }
}

fn get_assignment(r: &mut Reader<'_>) -> Result<Vec<u16>, DecodeError> {
    let n = usize::from(r.u16()?);
    r.expect_tail(n, 2)?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        assignment.push(r.u16()?);
    }
    Ok(assignment)
}

/// Tag-byte tables: a value's wire tag is its index. One table per enum is
/// the single source both directions read, so encode and decode cannot
/// disagree; the golden tests pin the numbering.
const PHASES: [ReconfigPhase; 3] =
    [ReconfigPhase::Prepare, ReconfigPhase::Commit, ReconfigPhase::Abort];
const AC_STRATEGIES: [AcStrategy; 2] = [AcStrategy::PerTask, AcStrategy::PerJob];
const IR_STRATEGIES: [IrStrategy; 3] = [IrStrategy::None, IrStrategy::PerTask, IrStrategy::PerJob];
const LB_STRATEGIES: [LbStrategy; 3] = [LbStrategy::None, LbStrategy::PerTask, LbStrategy::PerJob];
/// The whole vote in one byte: 0 acks, otherwise the nack's abort reason.
const VOTES: [ReconfigVote; 4] = [
    ReconfigVote::Ack,
    ReconfigVote::Nack(ReconfigAbortReason::AckTimeout),
    ReconfigVote::Nack(ReconfigAbortReason::Validation),
    ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator),
];

fn put_tag<T: PartialEq>(out: &mut Vec<u8>, table: &[T], value: &T) {
    let tag = table.iter().position(|v| v == value).expect("tag tables list every variant");
    out.push(u8::try_from(tag).expect("tag tables hold a handful of variants"));
}

fn get_tag<T: Copy>(r: &mut Reader<'_>, table: &[T]) -> Result<T, DecodeError> {
    let tag = r.u8()?;
    table.get(usize::from(tag)).copied().ok_or(DecodeError::Tag(tag))
}

impl Codec for InjectMsg {
    const KIND: MsgKind = MsgKind::Inject;
    fn body_len(&self) -> usize {
        4 + 8 + 8
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.task.0.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.trace.to_be_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InjectMsg { task: TaskId(r.u32()?), seq: r.u64()?, trace: r.u64()? })
    }
}

impl Codec for ArriveMsg {
    const KIND: MsgKind = MsgKind::Arrive;
    fn body_len(&self) -> usize {
        12 + 2 + 8 + 8 + 8
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_job(out, self.job);
        out.extend_from_slice(&self.arrival_proc.to_be_bytes());
        put_u64s(out, [self.arrival_ns, self.sent_ns, self.trace]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ArriveMsg {
            job: get_job(r)?,
            arrival_proc: r.u16()?,
            arrival_ns: r.u64()?,
            sent_ns: r.u64()?,
            trace: r.u64()?,
        })
    }
}

impl Codec for AcceptMsg {
    const KIND: MsgKind = MsgKind::Accept;
    fn body_len(&self) -> usize {
        12 + 2 + 1 + 8 + 8 + 8 + 8 + 2 + 2 * self.assignment.len()
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_job(out, self.job);
        out.extend_from_slice(&self.release_proc.to_be_bytes());
        out.push(u8::from(self.newly_admitted));
        put_u64s(out, [self.arrival_ns, self.deadline_ns, self.sent_ns, self.trace]);
        put_assignment(out, &self.assignment);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AcceptMsg {
            job: get_job(r)?,
            release_proc: r.u16()?,
            newly_admitted: r.bool()?,
            arrival_ns: r.u64()?,
            deadline_ns: r.u64()?,
            sent_ns: r.u64()?,
            trace: r.u64()?,
            assignment: get_assignment(r)?,
        })
    }
}

impl Codec for RejectMsg {
    const KIND: MsgKind = MsgKind::Reject;
    fn body_len(&self) -> usize {
        12 + 2 + 1 + 8
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_job(out, self.job);
        out.extend_from_slice(&self.arrival_proc.to_be_bytes());
        out.push(u8::from(self.task_rejected));
        out.extend_from_slice(&self.trace.to_be_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RejectMsg {
            job: get_job(r)?,
            arrival_proc: r.u16()?,
            task_rejected: r.bool()?,
            trace: r.u64()?,
        })
    }
}

impl Codec for TriggerMsg {
    const KIND: MsgKind = MsgKind::Trigger;
    fn body_len(&self) -> usize {
        12 + 4 + 8 + 8 + 8 + 8 + 2 + 2 * self.assignment.len()
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_job(out, self.job);
        out.extend_from_slice(&self.next_subtask.to_be_bytes());
        put_u64s(out, [self.arrival_ns, self.deadline_ns, self.sent_ns, self.trace]);
        put_assignment(out, &self.assignment);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TriggerMsg {
            job: get_job(r)?,
            next_subtask: r.u32()?,
            arrival_ns: r.u64()?,
            deadline_ns: r.u64()?,
            sent_ns: r.u64()?,
            trace: r.u64()?,
            assignment: get_assignment(r)?,
        })
    }
}

impl Codec for IdleResetMsg {
    const KIND: MsgKind = MsgKind::IdleReset;
    fn body_len(&self) -> usize {
        2 + 8 + 4 + 16 * self.completed.len()
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.processor.to_be_bytes());
        out.extend_from_slice(&self.started_ns.to_be_bytes());
        let n = u32::try_from(self.completed.len()).expect("fewer than 2^32 completions");
        out.extend_from_slice(&n.to_be_bytes());
        for (job, subtask) in &self.completed {
            put_job(out, *job);
            out.extend_from_slice(&subtask.to_be_bytes());
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (processor, started_ns) = (r.u16()?, r.u64()?);
        let n = usize::try_from(r.u32()?).map_err(|_| DecodeError::Length)?;
        r.expect_tail(n, 16)?;
        let mut completed = Vec::with_capacity(n);
        for _ in 0..n {
            completed.push((get_job(r)?, r.u32()?));
        }
        Ok(IdleResetMsg { processor, completed, started_ns })
    }
}

impl Codec for ReconfigMsg {
    const KIND: MsgKind = MsgKind::Reconfig;
    fn body_len(&self) -> usize {
        4 + 5 * 8
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_tag(out, &PHASES, &self.phase);
        put_tag(out, &AC_STRATEGIES, &self.services.ac);
        put_tag(out, &IR_STRATEGIES, &self.services.ir);
        put_tag(out, &LB_STRATEGIES, &self.services.lb);
        put_u64s(out, [self.coordinator, self.host, self.epoch, self.sent_ns, self.trace]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let phase = get_tag(r, &PHASES)?;
        let (ac, ir, lb) =
            (get_tag(r, &AC_STRATEGIES)?, get_tag(r, &IR_STRATEGIES)?, get_tag(r, &LB_STRATEGIES)?);
        Ok(ReconfigMsg {
            phase,
            services: ServiceConfig::new(ac, ir, lb),
            coordinator: r.u64()?,
            host: r.u64()?,
            epoch: r.u64()?,
            sent_ns: r.u64()?,
            trace: r.u64()?,
        })
    }
}

impl Codec for ReconfigAckMsg {
    const KIND: MsgKind = MsgKind::ReconfigAck;
    fn body_len(&self) -> usize {
        1 + 2 + 5 * 8
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_tag(out, &VOTES, &self.vote);
        out.extend_from_slice(&self.processor.to_be_bytes());
        put_u64s(out, [self.coordinator, self.epoch, self.host, self.sent_ns, self.trace]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let vote = get_tag(r, &VOTES)?;
        Ok(ReconfigAckMsg {
            vote,
            processor: r.u16()?,
            coordinator: r.u64()?,
            epoch: r.u64()?,
            host: r.u64()?,
            sent_ns: r.u64()?,
            trace: r.u64()?,
        })
    }
}

/// Serializes a message for the event channel into one exact-size buffer.
///
/// # Panics
///
/// Only if a tail outgrows its count field (65 536 subtasks in one task,
/// 2^32 completions in one report) — not reachable from a deployed task
/// set.
#[must_use]
pub fn encode<T: Wire>(msg: &T) -> Vec<u8> {
    let len = 2 + msg.body_len();
    let mut out = Vec::with_capacity(len);
    out.push(PAYLOAD_VERSION);
    out.push(T::KIND as u8);
    msg.put(&mut out);
    debug_assert_eq!(out.len(), len, "body_len matches put for {:?}", T::KIND);
    out
}

/// Deserializes a message from an event payload, checking version, kind,
/// every tag byte and that the payload is consumed exactly.
///
/// # Errors
///
/// A [`DecodeError`] naming the first check that failed. Never panics and
/// never allocates more than the payload's own length implies.
pub fn try_decode<T: Wire>(payload: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader(payload);
    match r.u8()? {
        PAYLOAD_VERSION => {}
        v => return Err(DecodeError::Version(v)),
    }
    let found = r.u8()?;
    if found != T::KIND as u8 {
        return Err(DecodeError::Kind { expected: T::KIND as u8, found });
    }
    let msg = T::get(&mut r)?;
    if r.0.is_empty() {
        Ok(msg)
    } else {
        Err(DecodeError::Length)
    }
}

/// Deserializes a payload **the caller produced itself** (tests, benches,
/// observers of a system's own traffic). Receivers inside the program use
/// [`try_decode`]: what a mailbox delivers may have crossed a bridge.
///
/// # Panics
///
/// Panics on a malformed payload.
#[must_use]
pub fn decode<T: Wire>(payload: &[u8]) -> T {
    try_decode(payload).expect("event payloads are produced by this crate")
}

/// Per-message-kind counts of payloads dropped at a receiver because they
/// did not decode (`rtcm_proto_decode_errors_total{topic=...}`).
#[derive(Debug, Default)]
pub struct DecodeErrors {
    by_kind: [Counter; MsgKind::ALL.len()],
}

impl DecodeErrors {
    /// Payloads of `kind` dropped so far.
    #[must_use]
    pub fn get(&self, kind: MsgKind) -> u64 {
        self.by_kind[kind as usize - 1].get()
    }

    /// Payloads dropped so far, all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_kind.iter().map(Counter::get).sum()
    }

    /// The trust-boundary decode every mailbox consumer goes through. A
    /// payload that does not decode is dropped: counted here, recorded as
    /// one `decode_error` trace line, and — since nothing this process
    /// encodes can fail to decode — any TCP bridge whose gateway is the
    /// event's source node is fail-stopped, exactly as a corrupt *frame*
    /// closes its link.
    pub(crate) fn receive<T: Wire>(
        &self,
        ev: &Event,
        channel: &ChannelHandle,
        trace: &TraceBuffer,
        clock: Clock,
    ) -> Option<T> {
        match try_decode(&ev.payload) {
            Ok(msg) => Some(msg),
            Err(e) => {
                self.by_kind[T::KIND as usize - 1].inc();
                let closed = channel.fail_bridges_from(ev.source);
                trace.record(
                    0,
                    clock.now().as_nanos(),
                    channel.host_id(),
                    "decode_error",
                    format!(
                        "{} payload of {} bytes from {} dropped ({e}); {closed} bridge(s) closed",
                        T::KIND.label(),
                        ev.payload.len(),
                        ev.source
                    ),
                );
                None
            }
        }
    }
}

/// Convenience: `JobId` for a `(task, seq)` pair.
#[must_use]
pub fn job(task: u32, seq: u64) -> JobId {
    JobId::new(TaskId(task), seq)
}

/// Mints a job's trace correlation id: a splitmix64 mix of the host
/// identity and the `(task, seq)` pair, so ids are deterministic per job
/// yet never collide across bridged hosts in practice.
#[must_use]
pub fn mint_trace(host: u64, task: TaskId, seq: u64) -> u64 {
    let key = (u64::from(task.0) << 40) ^ seq;
    rtcm_telemetry::splitmix64(rtcm_telemetry::splitmix64(host) ^ key)
}

/// Mints a reconfiguration's trace correlation id from the protocol
/// identity `(coordinator, epoch)`. Deterministic, so a bridged quorum
/// member derives the same id from the prepare it receives.
#[must_use]
pub fn swap_trace(coordinator: u64, epoch: u64) -> u64 {
    rtcm_telemetry::splitmix64(coordinator ^ rtcm_telemetry::splitmix64(epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrive_round_trip() {
        let msg =
            ArriveMsg { job: job(3, 7), arrival_proc: 2, arrival_ns: 10, sent_ns: 12, trace: 9 };
        let back: ArriveMsg = decode(&encode(&msg));
        assert_eq!(back, msg);
    }

    #[test]
    fn accept_round_trip() {
        let msg = AcceptMsg {
            job: job(1, 0),
            assignment: vec![0, 2, 1],
            release_proc: 0,
            arrival_ns: 5,
            deadline_ns: 500,
            newly_admitted: true,
            sent_ns: 9,
            trace: 11,
        };
        let back: AcceptMsg = decode(&encode(&msg));
        assert_eq!(back, msg);
    }

    #[test]
    fn trigger_and_reset_round_trip() {
        let t = TriggerMsg {
            job: job(0, 1),
            next_subtask: 2,
            assignment: vec![0, 1, 2],
            arrival_ns: 1,
            deadline_ns: 2,
            sent_ns: 3,
            trace: 4,
        };
        let back: TriggerMsg = decode(&encode(&t));
        assert_eq!(back, t);

        let r = IdleResetMsg {
            processor: 1,
            completed: vec![(job(0, 1), 0), (job(2, 0), 1)],
            started_ns: 42,
        };
        let back: IdleResetMsg = decode(&encode(&r));
        assert_eq!(back, r);
    }

    #[test]
    fn reconfig_round_trip() {
        let msg = ReconfigMsg {
            coordinator: 42,
            host: 7,
            epoch: 3,
            phase: ReconfigPhase::Prepare,
            services: "T_T_J".parse().unwrap(),
            sent_ns: 99,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigMsg = decode(&encode(&msg));
        assert_eq!(back, msg);

        let ack = ReconfigAckMsg {
            coordinator: 42,
            epoch: 3,
            host: 7,
            processor: 1,
            vote: ReconfigVote::Ack,
            sent_ns: 120,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigAckMsg = decode(&encode(&ack));
        assert_eq!(back, ack);

        let nack = ReconfigAckMsg {
            coordinator: 42,
            epoch: 3,
            host: 9,
            processor: QUORUM_MEMBER_PROC,
            vote: ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator),
            sent_ns: 130,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigAckMsg = decode(&encode(&nack));
        assert_eq!(back, nack);
        assert_eq!(ReconfigAbortReason::AckTimeout.to_string(), "ack-timeout");
    }

    #[test]
    #[should_panic(expected = "produced by this crate")]
    fn decode_rejects_garbage() {
        let _: ArriveMsg = decode(b"not json");
    }
}
