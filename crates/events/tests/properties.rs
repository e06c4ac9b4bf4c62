//! Property-based tests of the federated event channel: delivery
//! completeness, topic isolation and FIFO ordering under constant latency.

use std::time::{Duration as StdDuration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;

use rtcm_events::{Federation, Latency, NodeId, Topic};

const RECV: StdDuration = StdDuration::from_secs(2);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every published message reaches every subscriber of its topic on
    /// every node, and only those, in publish order: 1–2 plain
    /// subscribers per `(node, topic)` plus one `subscribe_many` mailbox
    /// per node over all three topics, each its own queue. Each publish is
    /// awaited through `local_deliveries` (one per live receiver per
    /// event, remote parcels once landed), which pins the counting rule
    /// too and makes publish order the only order a receiver may see.
    #[test]
    fn delivery_completeness(
        messages in vec((0u16..3, 0u32..3), 1..40),
        nodes in 2u16..5,
        doubled in vec(any::<bool>(), 12)
    ) {
        let fed = Federation::new(nodes, Latency::None, 0);
        // (topic filter, receiver): `None` is a node's mailbox.
        let mut receivers = Vec::new();
        for n in 0..nodes {
            let h = fed.handle(NodeId(n)).unwrap();
            for t in 0..3u32 {
                let copies = if doubled[(n as usize) * 3 + t as usize] { 2 } else { 1 };
                for _ in 0..copies {
                    receivers.push((n, Some(Topic(t)), h.subscribe(Topic(t))));
                }
            }
            receivers.push((n, None, h.subscribe_many(&[Topic(0), Topic(1), Topic(2)])));
        }
        // Every node subscribes to every topic: a publish of topic t counts
        // one delivery per plain subscriber of t plus one per node mailbox.
        let per_topic = |t: u32| -> u64 {
            (0..nodes).map(|n| 2 + u64::from(doubled[(n as usize) * 3 + t as usize])).sum()
        };
        let mut delivered = 0u64;
        for (i, (source, topic)) in messages.iter().enumerate() {
            let source = source % nodes;
            fed.handle(NodeId(source)).unwrap().publish(Topic(*topic), vec![i as u8]);
            delivered += per_topic(*topic);
            let deadline = Instant::now() + RECV;
            while fed.stats().local_deliveries < delivered {
                prop_assert!(Instant::now() < deadline, "message {} never fully delivered", i);
                std::thread::yield_now();
            }
            prop_assert_eq!(fed.stats().local_deliveries, delivered);
        }
        for (n, filter, rx) in &receivers {
            let want: Vec<u8> = messages
                .iter()
                .enumerate()
                .filter(|(_, (_, t))| filter.is_none_or(|f| f == Topic(*t)))
                .map(|(i, _)| i as u8)
                .collect();
            let got: Vec<u8> =
                std::iter::from_fn(|| rx.try_recv().ok()).map(|ev| ev.payload[0]).collect();
            prop_assert_eq!(got, want, "node {} filter {:?}", n, filter);
        }
    }

    /// Constant latency preserves per-publisher FIFO order across nodes.
    #[test]
    fn fifo_under_constant_latency(count in 1usize..60, latency_us in 0u64..500) {
        let fed = Federation::new(2, Latency::Constant(StdDuration::from_micros(latency_us)), 1);
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(0));
        let h = fed.handle(NodeId(0)).unwrap();
        for i in 0..count {
            h.publish(Topic(0), vec![(i % 256) as u8]);
        }
        for i in 0..count {
            let ev = rx.recv_timeout(RECV).unwrap();
            prop_assert_eq!(ev.payload.as_ref(), &[(i % 256) as u8]);
        }
    }
}
