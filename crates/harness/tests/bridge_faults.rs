//! The TCP bridge at its trust boundary: a frame cut off mid-way by a
//! [`FaultProxy`] must end the link without becoming an event.

use std::time::{Duration, Instant};

use rtcm_events::{remote, Federation, Latency, NodeId, Topic};
use rtcm_harness::proxy::{Direction, FaultProxy};

const RECV: Duration = Duration::from_secs(5);

#[test]
fn truncation_cuts_the_link_mid_frame() {
    let a = Federation::new(2, Latency::None, 0);
    let b = Federation::new(2, Latency::None, 0);
    let (addr, _server) = remote::listen(&a, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
    let proxy = FaultProxy::spawn(addr).unwrap();
    let _client = remote::connect(&b, NodeId(0), proxy.addr(), vec![Topic(1)]).unwrap();
    let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));

    proxy.truncate_next(Direction::Up);
    b.handle(NodeId(1)).unwrap().publish(Topic(1), &b"cut mid-frame"[..]);
    let deadline = Instant::now() + RECV;
    while a.stats().bridge_disconnects == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = a.stats();
    assert_eq!(stats.bridge_disconnects, 1, "link died");
    assert_eq!(stats.bridge_rx_errors, 0, "a truncated frame is a disconnect, not rx junk");
    assert!(rx.try_recv().is_err(), "the half frame never became an event");
}
