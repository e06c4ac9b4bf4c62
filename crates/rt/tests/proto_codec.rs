//! The payload codec's contract, through the public API only: pinned
//! layouts (golden bytes per message type), lossless round trips, and
//! total, bounded decoding of hostile input.

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_core::strategy::ServiceConfig;
use rtcm_rt::proto::{
    self, AcceptMsg, ArriveMsg, DecodeError, IdleResetMsg, InjectMsg, ReconfigAbortReason,
    ReconfigAckMsg, ReconfigMsg, ReconfigPhase, ReconfigVote, RejectMsg, TriggerMsg, Wire,
    PAYLOAD_VERSION, QUORUM_MEMBER_PROC,
};

/// Parses a spaced hex dump (the spaces mark field boundaries).
fn unhex(dump: &str) -> Vec<u8> {
    let digits: Vec<u8> = dump.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// `msg` encodes to exactly `dump`, and `dump` decodes back to `msg`.
fn pin<T: Wire + PartialEq + Debug>(msg: &T, dump: &str) {
    let golden = unhex(dump);
    assert_eq!(proto::encode(msg), golden, "encoding of {msg:?}");
    assert_eq!(proto::try_decode::<T>(&golden).as_ref(), Ok(msg));
}

#[test]
fn golden_inject() {
    pin(
        &InjectMsg { task: rtcm_core::task::TaskId(3), seq: 7, trace: 9 },
        "01 01  00000003 0000000000000007  0000000000000009",
    );
}

#[test]
fn golden_arrive() {
    pin(
        &ArriveMsg {
            job: proto::job(3, 7),
            arrival_proc: 2,
            arrival_ns: 0x10,
            sent_ns: 0x12,
            trace: 9,
        },
        "01 02  00000003 0000000000000007  0002
         0000000000000010 0000000000000012 0000000000000009",
    );
}

#[test]
fn golden_accept() {
    pin(
        &AcceptMsg {
            job: proto::job(1, 0),
            assignment: vec![0, 2, 1],
            release_proc: 4,
            arrival_ns: 5,
            deadline_ns: 500,
            newly_admitted: true,
            sent_ns: 9,
            trace: 11,
        },
        "01 03  00000001 0000000000000000  0004 01
         0000000000000005 00000000000001f4 0000000000000009 000000000000000b
         0003 0000 0002 0001",
    );
}

#[test]
fn golden_reject() {
    pin(
        &RejectMsg { job: proto::job(3, 7), arrival_proc: 2, task_rejected: true, trace: 9 },
        "01 04  00000003 0000000000000007  0002 01  0000000000000009",
    );
}

#[test]
fn golden_trigger() {
    pin(
        &TriggerMsg {
            job: proto::job(0, 1),
            next_subtask: 2,
            assignment: vec![0, 1, 2],
            arrival_ns: 1,
            deadline_ns: 2,
            sent_ns: 3,
            trace: 4,
        },
        "01 05  00000000 0000000000000001  00000002
         0000000000000001 0000000000000002 0000000000000003 0000000000000004
         0003 0000 0001 0002",
    );
}

#[test]
fn golden_idle_reset() {
    pin(
        &IdleResetMsg {
            processor: 1,
            completed: vec![(proto::job(0, 1), 0), (proto::job(2, 0), 1)],
            started_ns: 42,
        },
        "01 06  0001 000000000000002a  00000002
         00000000 0000000000000001 00000000
         00000002 0000000000000000 00000001",
    );
}

#[test]
fn golden_reconfig() {
    // phase, then the ac / ir / lb strategy tags: commit of T_T_J.
    pin(
        &ReconfigMsg {
            coordinator: 42,
            host: 7,
            epoch: 3,
            phase: ReconfigPhase::Commit,
            services: "T_T_J".parse().unwrap(),
            sent_ns: 99,
            trace: 17,
        },
        "01 07  01 00 01 02
         000000000000002a 0000000000000007 0000000000000003
         0000000000000063 0000000000000011",
    );
}

#[test]
fn golden_reconfig_ack() {
    let mut ack = ReconfigAckMsg {
        coordinator: 42,
        epoch: 3,
        host: 9,
        processor: QUORUM_MEMBER_PROC,
        vote: ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator),
        sent_ns: 130,
        trace: 17,
    };
    // One vote byte: 0 acks, otherwise the nack's abort-reason tag.
    pin(
        &ack,
        "01 08  03 ffff
         000000000000002a 0000000000000003 0000000000000009
         0000000000000082 0000000000000011",
    );
    ack.vote = ReconfigVote::Ack;
    assert_eq!(proto::encode(&ack)[2], 0);
}

/// Round trip, plus the three ways a valid payload stops being one: cut
/// short anywhere, a different version byte, one trailing byte.
fn round_trip<T: Wire + PartialEq + Debug>(msg: &T) {
    let bytes = proto::encode(msg);
    prop_assert_eq!(proto::try_decode::<T>(&bytes).as_ref(), Ok(msg));
    // Every proper prefix is an error, never a panic or a shorter message.
    for cut in 0..bytes.len() {
        prop_assert!(proto::try_decode::<T>(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
    }
    let mut wrong = bytes.clone();
    wrong[0] = PAYLOAD_VERSION + 1;
    prop_assert_eq!(proto::try_decode::<T>(&wrong), Err(DecodeError::Version(PAYLOAD_VERSION + 1)));
    let mut longer = bytes;
    longer.push(0);
    prop_assert!(proto::try_decode::<T>(&longer).is_err(), "trailing byte accepted");
}

/// `try_decode` as every type: hostile input must come back as `Err` or
/// as a message whose tail reserved no more elements than the input had
/// bytes for.
fn decode_as_everything(bytes: &[u8]) {
    let _ = proto::try_decode::<InjectMsg>(bytes);
    let _ = proto::try_decode::<ArriveMsg>(bytes);
    let _ = proto::try_decode::<RejectMsg>(bytes);
    let _ = proto::try_decode::<ReconfigMsg>(bytes);
    let _ = proto::try_decode::<ReconfigAckMsg>(bytes);
    if let Ok(m) = proto::try_decode::<AcceptMsg>(bytes) {
        prop_assert!(m.assignment.capacity() * 2 <= bytes.len());
    }
    if let Ok(m) = proto::try_decode::<TriggerMsg>(bytes) {
        prop_assert!(m.assignment.capacity() * 2 <= bytes.len());
    }
    if let Ok(m) = proto::try_decode::<IdleResetMsg>(bytes) {
        prop_assert!(m.completed.capacity() * 16 <= bytes.len());
    }
}

fn any_job() -> impl Strategy<Value = rtcm_core::task::JobId> {
    (any::<u32>(), any::<u64>()).prop_map(|(t, s)| proto::job(t, s))
}

fn any_vote() -> impl Strategy<Value = ReconfigVote> {
    (0u8..4).prop_map(|tag| match tag {
        0 => ReconfigVote::Ack,
        1 => ReconfigVote::Nack(ReconfigAbortReason::AckTimeout),
        2 => ReconfigVote::Nack(ReconfigAbortReason::Validation),
        _ => ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator),
    })
}

proptest! {
    #[test]
    fn fixed_size_messages_round_trip(
        job in any_job(),
        proc in any::<u16>(),
        flag in any::<bool>(),
        ns in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (a, b, trace) = ns;
        round_trip(&InjectMsg { task: job.task, seq: job.seq, trace });
        round_trip(&ArriveMsg { job, arrival_proc: proc, arrival_ns: a, sent_ns: b, trace });
        round_trip(&RejectMsg { job, arrival_proc: proc, task_rejected: flag, trace });
    }

    #[test]
    fn accept_and_trigger_round_trip(
        job in any_job(),
        assignment in vec(any::<u16>(), 0..=64),
        small in (any::<u16>(), any::<u32>(), any::<bool>()),
        ns in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (release_proc, next_subtask, newly_admitted) = small;
        let (arrival_ns, deadline_ns, sent_ns, trace) = ns;
        round_trip(&AcceptMsg {
            job,
            assignment: assignment.clone(),
            release_proc,
            arrival_ns,
            deadline_ns,
            newly_admitted,
            sent_ns,
            trace,
        });
        round_trip(&TriggerMsg {
            job, next_subtask, assignment, arrival_ns, deadline_ns, sent_ns, trace,
        });
    }

    #[test]
    fn idle_reset_round_trips(
        processor in any::<u16>(),
        completed in vec((any_job(), any::<u32>()), 0..=64),
        started_ns in any::<u64>(),
    ) {
        round_trip(&IdleResetMsg { processor, completed, started_ns });
    }

    #[test]
    fn reconfig_messages_round_trip(
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        phase in 0usize..3,
        services in 0usize..18,
        processor in any::<u16>(),
        vote in any_vote(),
    ) {
        let (coordinator, host, epoch, sent_ns, trace) = ids;
        let phase =
            [ReconfigPhase::Prepare, ReconfigPhase::Commit, ReconfigPhase::Abort][phase];
        // All 18 combinations, valid or not: the codec carries what it is
        // given, validity is the protocol's business.
        let services = ServiceConfig::all()[services];
        round_trip(&ReconfigMsg { coordinator, host, epoch, phase, services, sent_ns, trace });
        round_trip(&ReconfigAckMsg { coordinator, epoch, host, processor, vote, sent_ns, trace });
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..200)) {
        decode_as_everything(&bytes);
    }

    /// Random bodies behind a *valid* header, so the fuzz reaches the
    /// field readers instead of dying at the version check.
    #[test]
    fn arbitrary_bodies_never_panic(kind in 1u8..=8, body in vec(any::<u8>(), 0..200)) {
        let mut bytes = vec![PAYLOAD_VERSION, kind];
        bytes.extend_from_slice(&body);
        decode_as_everything(&bytes);
    }
}

#[test]
fn tail_sizes_at_both_ends_round_trip() {
    for n in [0usize, 64] {
        let accept = AcceptMsg {
            job: proto::job(1, 2),
            assignment: (0..n as u16).collect(),
            release_proc: 0,
            arrival_ns: 1,
            deadline_ns: 2,
            newly_admitted: false,
            sent_ns: 3,
            trace: 4,
        };
        round_trip(&accept);
        let reset = IdleResetMsg {
            processor: 0,
            completed: (0..n as u64).map(|s| (proto::job(9, s), s as u32)).collect(),
            started_ns: 5,
        };
        round_trip(&reset);
    }
}

#[test]
fn a_huge_count_is_refused_before_anything_is_allocated() {
    // An accept whose tail claims 65 535 processors and carries none, and
    // an idle reset that claims 2^32 - 1 completions (64 GiB of triples).
    let mut accept = proto::encode(&AcceptMsg {
        job: proto::job(1, 2),
        assignment: Vec::new(),
        release_proc: 0,
        arrival_ns: 1,
        deadline_ns: 2,
        newly_admitted: false,
        sent_ns: 3,
        trace: 4,
    });
    let n = accept.len();
    accept[n - 2..].copy_from_slice(&[0xff, 0xff]);
    assert_eq!(proto::try_decode::<AcceptMsg>(&accept), Err(DecodeError::Length));

    let mut reset =
        proto::encode(&IdleResetMsg { processor: 0, completed: Vec::new(), started_ns: 5 });
    let n = reset.len();
    reset[n - 4..].copy_from_slice(&[0xff; 4]);
    assert_eq!(proto::try_decode::<IdleResetMsg>(&reset), Err(DecodeError::Length));
}

#[test]
fn wrong_kind_and_undefined_tags_are_errors() {
    let reject = proto::encode(&RejectMsg {
        job: proto::job(1, 2),
        arrival_proc: 0,
        task_rejected: false,
        trace: 0,
    });
    assert_eq!(
        proto::try_decode::<AcceptMsg>(&reject),
        Err(DecodeError::Kind { expected: 3, found: 4 })
    );
    let mut bad_bool = reject;
    bad_bool[2 + 12 + 2] = 2;
    assert_eq!(proto::try_decode::<RejectMsg>(&bad_bool), Err(DecodeError::Tag(2)));
}
