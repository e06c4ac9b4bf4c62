//! Shared fixture for the `micro_events` bench and its smoke tests: canned
//! federation topologies that isolate the three cost axes of the event
//! fast path — local fan-out width (subscribers per topic), registered but
//! non-subscribed gateway nodes (must be free for pure-local publishes),
//! and remote fan-out width (subscribed gateway nodes, paid per parcel).

use rtcm_events::{ChannelHandle, EventReceiver, Federation, Latency, NodeId, Topic};

/// The topic every fixture publishes on.
pub const FANOUT_TOPIC: Topic = Topic(100);

/// Base of the per-gateway "quiet" topics (subscribed by gateway nodes,
/// never published on) — they register the gateway in the routing state
/// without subscribing it to [`FANOUT_TOPIC`].
pub const QUIET_TOPIC_BASE: u32 = 200;

/// Payload published by the fixture drivers: 53 opaque bytes, about the
/// size of an encoded `AcceptMsg` (kept byte-for-byte so the
/// `BENCH_events.json` / `BENCH_wire.json` trajectories stay comparable).
pub const PAYLOAD: &[u8] = b"{\"job\":{\"task\":7,\"seq\":4242},\"arrival_ns\":1234567890}";

/// A canned publish topology: one publisher handle plus every subscriber
/// the topology created (drain them with [`EventsFixture::drain`]).
pub struct EventsFixture {
    /// The federation keeping all channels alive.
    pub federation: Federation,
    /// The handle the bench publishes from.
    pub publisher: ChannelHandle,
    /// All subscriptions created by the topology, in creation order.
    pub receivers: Vec<EventReceiver>,
}

impl EventsFixture {
    /// Drains every receiver to empty and returns the number of events
    /// consumed (keeps queue memory flat between measured bursts).
    pub fn drain(&self) -> usize {
        let mut consumed = 0;
        for rx in &self.receivers {
            while rx.try_recv().is_ok() {
                consumed += 1;
            }
        }
        consumed
    }
}

/// Local fan-out: a single-node federation with `subscribers` consumers on
/// [`FANOUT_TOPIC`]. Publishes are pure-local (no gateway work at all).
#[must_use]
pub fn fanout_fixture(subscribers: usize) -> EventsFixture {
    let federation = Federation::new(1, Latency::None, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let receivers = (0..subscribers).map(|_| publisher.subscribe(FANOUT_TOPIC)).collect();
    EventsFixture { federation, publisher, receivers }
}

/// Gateway flatness: node 0 publishes [`FANOUT_TOPIC`] to one local
/// subscriber while `gateways` other nodes each subscribe to their own
/// quiet topic — they are registered in the routing state but not
/// subscribed to the published topic, so the publish must not pay for
/// them.
#[must_use]
pub fn gateway_fixture(gateways: u16) -> EventsFixture {
    let federation = Federation::new(gateways + 1, Latency::None, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let mut receivers = vec![publisher.subscribe(FANOUT_TOPIC)];
    for g in 0..gateways {
        let handle = federation.handle(NodeId(g + 1)).expect("gateway nodes exist");
        receivers.push(handle.subscribe(Topic(QUIET_TOPIC_BASE + u32::from(g))));
    }
    EventsFixture { federation, publisher, receivers }
}

/// Remote fan-out: `remotes` other nodes subscribe to [`FANOUT_TOPIC`], so
/// every publish from node 0 emits one latency-sampled parcel per remote
/// node (delivered by the in-process network thread).
#[must_use]
pub fn remote_fixture(remotes: u16) -> EventsFixture {
    let federation = Federation::new(remotes + 1, Latency::None, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let receivers = (0..remotes)
        .map(|r| {
            federation.handle(NodeId(r + 1)).expect("remote nodes exist").subscribe(FANOUT_TOPIC)
        })
        .collect();
    EventsFixture { federation, publisher, receivers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_fixture_delivers_to_every_subscriber() {
        let fx = fanout_fixture(8);
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 8);
        assert_eq!(fx.drain(), 8);
    }

    #[test]
    fn gateway_fixture_keeps_quiet_topics_quiet() {
        let fx = gateway_fixture(4);
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 1, "only the local subscriber");
        assert_eq!(fx.drain(), 1);
    }
}
