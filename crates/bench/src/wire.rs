//! Shared fixture for the `micro_wire` bench and its smoke tests: the two
//! codecs a bridged event passes through — the frame codec of
//! `rtcm_events::wire` around the payload codec of `rtcm_rt::proto` — plus
//! two live loopback rigs, so the bench times the exact path the TCP bridge
//! runs: a raw sender into one bridge's receive side, and a whole bridged
//! pair (forwarder → socket → reader) carrying a one-way burst.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rtcm_events::wire::{self, FrameDecoder};
use rtcm_events::{remote, ChannelHandle, EventReceiver, Federation, Latency, NodeId, Topic};
use rtcm_rt::proto::{self, AcceptMsg, ArriveMsg, IdleResetMsg, InjectMsg, TriggerMsg};

use crate::events::PAYLOAD;

/// The topic wire benchmarks publish on.
pub const WIRE_TOPIC: Topic = Topic(100);

/// Encodes `count` copies of the canonical payload as v1 frames.
#[must_use]
pub fn encode_frames(count: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(count * (PAYLOAD.len() + wire::FRAME_OVERHEAD));
    for _ in 0..count {
        wire::append_frame(&mut buf, WIRE_TOPIC, PAYLOAD).expect("payload under MAX_FRAME");
    }
    buf
}

/// Decodes a full frame stream and returns the number of frames (panics
/// on any fatal framing error — bench inputs are well-formed).
#[must_use]
pub fn decode_all(stream: &[u8]) -> usize {
    let mut decoder = FrameDecoder::new();
    decoder.extend(stream);
    let drained = decoder.drain();
    assert!(drained.fatal.is_none(), "bench streams are well-formed");
    assert_eq!(decoder.pending(), 0, "bench streams hold whole frames");
    drained.frames.len()
}

/// Every control message one accepted 2-stage job puts on the event
/// channel of a `processors`-node system (the same job the end-to-end
/// benchmark's `rt.proto.job_codec_ns` row is made of).
#[derive(Debug, Clone)]
pub struct JobMessages {
    processors: usize,
    inject: InjectMsg,
    arrive: ArriveMsg,
    /// The job's accept decision (the representative single message).
    pub accept: AcceptMsg,
    trigger: TriggerMsg,
    resets: [IdleResetMsg; 2],
}

impl JobMessages {
    /// The messages of one 2-stage job placed on processors 1 and 2.
    #[must_use]
    pub fn two_stage(processors: usize) -> Self {
        let job = proto::job(4, 123_456);
        let trace = proto::mint_trace(0x1234_5678_9abc_def0, job.task, job.seq);
        let (arrival_ns, deadline_ns) = (1_234_567_890, 2_234_567_890);
        JobMessages {
            processors,
            inject: InjectMsg { task: job.task, seq: job.seq, trace },
            arrive: ArriveMsg {
                job,
                arrival_proc: 1,
                arrival_ns,
                sent_ns: arrival_ns + 900,
                trace,
            },
            accept: AcceptMsg {
                job,
                assignment: vec![1, 2],
                release_proc: 1,
                arrival_ns,
                deadline_ns,
                newly_admitted: true,
                sent_ns: arrival_ns + 90_000,
                trace,
            },
            trigger: TriggerMsg {
                job,
                next_subtask: 1,
                assignment: vec![1, 2],
                arrival_ns,
                deadline_ns,
                sent_ns: arrival_ns + 150_000,
                trace,
            },
            resets: [1u16, 2].map(|p| IdleResetMsg {
                processor: p,
                completed: vec![(job, u32::from(p) - 1)],
                started_ns: arrival_ns + 200_000,
            }),
        }
    }

    /// Every encode and every receiver's decode of the job: each node
    /// decodes ACCEPT and TRIGGER, the manager decodes ARRIVE and both
    /// IDLE_RESET reports, the arrival node decodes the inject. Returns
    /// the number of messages decoded.
    pub fn codec_pass(&self) -> usize {
        use std::hint::black_box;
        black_box(proto::decode::<InjectMsg>(&proto::encode(&self.inject)));
        black_box(proto::decode::<ArriveMsg>(&proto::encode(&self.arrive)));
        let bytes = proto::encode(&self.accept);
        for _ in 0..self.processors {
            black_box(proto::decode::<AcceptMsg>(&bytes));
        }
        let bytes = proto::encode(&self.trigger);
        for _ in 0..self.processors {
            black_box(proto::decode::<TriggerMsg>(&bytes));
        }
        for reset in &self.resets {
            black_box(proto::decode::<IdleResetMsg>(&proto::encode(reset)));
        }
        2 + 2 * self.processors + self.resets.len()
    }
}

/// A live bridge endpoint fed by a raw TCP sender: a single-node
/// federation listening on localhost with one subscriber on
/// [`WIRE_TOPIC`], plus the connected raw socket. Writing pre-encoded
/// frames to [`BridgeRig::sender`] exercises the bridge's real read →
/// decode → republish path.
pub struct BridgeRig {
    federation: Federation,
    rx: EventReceiver,
    /// The raw client socket; frames written here arrive at the bridge.
    pub sender: TcpStream,
    _server: rtcm_events::BridgeHandle,
}

impl BridgeRig {
    /// Binds a fresh bridge and connects the raw sender.
    #[must_use]
    pub fn new() -> Self {
        let federation = Federation::new(1, Latency::None, 0);
        let (addr, server) =
            remote::listen(&federation, NodeId(0), "127.0.0.1:0", vec![WIRE_TOPIC])
                .expect("loopback listen");
        let rx = federation.handle(NodeId(0)).expect("node 0 exists").subscribe(WIRE_TOPIC);
        let sender = TcpStream::connect(addr).expect("loopback connect");
        sender.set_nodelay(true).expect("loopback nodelay");
        BridgeRig { federation, rx, sender, _server: server }
    }

    /// Writes `stream` (a pre-encoded frame batch carrying `count`
    /// frames) to the bridge and blocks until all `count` events came out
    /// of the subscriber. Returns the receive-side wall time.
    pub fn pump(&mut self, stream: &[u8], count: usize) -> Duration {
        let start = Instant::now();
        self.sender.write_all(stream).expect("bridge accepts the stream");
        for _ in 0..count {
            self.rx.recv_timeout(Duration::from_secs(30)).expect("bridge republishes");
        }
        start.elapsed()
    }

    /// Receive-side counters (rx errors must stay zero during a bench).
    #[must_use]
    pub fn stats(&self) -> rtcm_events::FederationStats {
        self.federation.stats()
    }
}

impl Default for BridgeRig {
    fn default() -> Self {
        Self::new()
    }
}

/// Two federations joined by a real bridge on loopback: events published
/// on one side cross forwarder → socket → reader and come out of a
/// subscriber on the other. Nothing flows back, so this is the traffic
/// shape Nagle's algorithm and delayed ACKs punish.
pub struct BridgedPair {
    publisher: ChannelHandle,
    rx: EventReceiver,
    _hosts: (Federation, Federation),
    _links: (rtcm_events::BridgeHandle, rtcm_events::BridgeHandle),
}

impl BridgedPair {
    /// Bridges [`WIRE_TOPIC`] between two fresh two-node federations
    /// (node 0 is each side's gateway).
    #[must_use]
    pub fn new() -> Self {
        let near = Federation::new(2, Latency::None, 0);
        let far = Federation::new(2, Latency::None, 0);
        let (addr, server) = remote::listen(&far, NodeId(0), "127.0.0.1:0", vec![WIRE_TOPIC])
            .expect("loopback listen");
        let client =
            remote::connect(&near, NodeId(0), addr, vec![WIRE_TOPIC]).expect("loopback connect");
        let rx = far.handle(NodeId(1)).expect("node 1 exists").subscribe(WIRE_TOPIC);
        let publisher = near.handle(NodeId(1)).expect("node 1 exists");
        BridgedPair { publisher, rx, _hosts: (near, far), _links: (server, client) }
    }

    /// Publishes `count` events one way and blocks until the last one
    /// came out on the far side. Returns the wall time of the burst.
    pub fn burst(&self, payload: &[u8], count: usize) -> Duration {
        let start = Instant::now();
        for _ in 0..count {
            self.publisher.publish(WIRE_TOPIC, payload);
        }
        for _ in 0..count {
            self.rx.recv_timeout(Duration::from_secs(30)).expect("event crosses the bridge");
        }
        start.elapsed()
    }
}

impl Default for BridgedPair {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_rig_round_trips_both_codecs() {
        // A frame around an encoded accept: what comes out of the bridge
        // decodes with both codecs back to the message that went in.
        let job = JobMessages::two_stage(3);
        let mut stream = Vec::new();
        for _ in 0..32 {
            wire::append_frame(&mut stream, WIRE_TOPIC, &proto::encode(&job.accept)).unwrap();
        }
        assert_eq!(decode_all(&stream), 32);
        let mut rig = BridgeRig::new();
        rig.sender.write_all(&stream).unwrap();
        for _ in 0..32 {
            let event = rig.rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(proto::try_decode::<AcceptMsg>(&event.payload).as_ref(), Ok(&job.accept));
        }
        let stats = rig.stats();
        assert_eq!(stats.bridge_rx_errors, 0);
        assert_eq!(stats.bridge_disconnects, 0);
    }

    #[test]
    fn job_codec_pass_counts_every_receiver() {
        // 1 inject + 1 arrive + 3 accepts + 3 triggers + 2 resets.
        assert_eq!(JobMessages::two_stage(3).codec_pass(), 10);
    }

    #[test]
    fn bridged_pair_carries_a_one_way_burst() {
        let pair = BridgedPair::new();
        pair.burst(PAYLOAD, 200);
        assert_eq!(pair._hosts.1.stats().bridge_rx_errors, 0);
    }
}
