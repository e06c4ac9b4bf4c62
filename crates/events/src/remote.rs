//! TCP gateways between federations — the real-network analogue of TAO's
//! event-channel gateways.
//!
//! Within one process, [`crate::Federation`] moves events between nodes
//! through the in-process network. To span *processes* (or hosts), each
//! side dedicates one node as its **gateway** — exactly the role gateways
//! play in TAO's federated event service — and connects it to the peer
//! with [`listen`] / [`connect`]:
//!
//! * events published by any *other* local node on a forwarded topic are
//!   sent to the peer;
//! * events arriving from the peer are published locally from the gateway
//!   node (so local consumers see them like any other event).
//!
//! Loop prevention relies on the gateway node being dedicated: events
//! whose source is the gateway itself are not forwarded back out, so a
//! bridged event never echoes.
//!
//! The wire format is the versioned binary codec of [`crate::wire`]
//! (4-byte length prefix, version byte, topic, raw payload bytes).
//!
//! The forwarding side batches; the receiving side does not. All bridged
//! topics feed **one** gateway mailbox (`subscribe_many`), drained by a
//! single forwarder thread that coalesces every queued event into one
//! framed buffer and issues one `write_all` per batch — a burst of *n*
//! parcels costs one syscall, not *n*. The reader feeds each socket read
//! to a [`wire::FrameDecoder`], drains every complete buffered frame at
//! once (payloads as zero-copy views of the drained buffer) and
//! republishes the frames one by one with [`ChannelHandle::publish`]:
//! bridged reconfiguration traffic drains one to three frames per read,
//! so a batched republish would have nothing to batch (DESIGN.md
//! "Event fast path").
//!
//! Both ends set `TCP_NODELAY`. The forwarder already hands the kernel one
//! buffer per drained batch, so Nagle's algorithm has nothing left to
//! coalesce; what it did do was hold a lone small event (a prepare, a
//! vote) back until the peer's delayed ACK fired — 40 ms on Linux — which
//! put one delayed-ACK timer inside every bridged reconfiguration round.
//! With it off an idle link sends each batch at once, and a burst is still
//! one segment per drained batch, not one per event.
//!
//! A listening side's acceptor blocks in `accept`, so an idle listener
//! costs no wake-ups; closing a link that is still connecting connects to
//! the listener's own address to wake it.
//!
//! Lifecycle: a [`BridgeHandle`] exposes its real [`BridgeState`]
//! (`Connecting` → `Connected` → `Closed { reason }`). Any failure — a
//! forwarder write error, a peer disconnect, a corrupt frame, a consumer
//! reporting an undecodable payload
//! ([`ChannelHandle::fail_bridges_from`]) — tears the whole link down in both directions (stop flag, `Shutdown::Both`,
//! shared stream cleared) so no thread is ever left blocked on a half-open
//! socket, and is accounted in [`crate::FederationStats`]
//! (`bridge_rx_errors`, `bridge_disconnects`, `bridge_tx_dropped`).
//!
//! # Examples
//!
//! ```
//! use rtcm_events::{remote, Federation, Latency, NodeId, Topic};
//!
//! // Two "hosts", each a federation; node 0 is each side's gateway.
//! let a = Federation::new(2, Latency::None, 0);
//! let b = Federation::new(2, Latency::None, 0);
//! let topics = vec![Topic(7)];
//!
//! let (addr, _server) = remote::listen(&a, NodeId(0), "127.0.0.1:0", topics.clone())?;
//! let _client = remote::connect(&b, NodeId(0), addr, topics)?;
//!
//! let rx = a.handle(NodeId(1))?.subscribe(Topic(7));
//! b.handle(NodeId(1))?.publish(Topic(7), &b"across hosts"[..]);
//! let event = rx.recv_timeout(std::time::Duration::from_secs(5))?;
//! assert_eq!(event.payload.as_ref(), b"across hosts");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, NodeId, Topic};
use crate::fanout::{EventReceiver, Mailbox};
use crate::federation::{ChannelHandle, Federation};
use crate::lock;
use crate::wire::{self, FrameDecoder};

/// Most events coalesced into one framed write (bounds batch latency and
/// buffer growth under sustained floods).
const MAX_BATCH: usize = 128;

/// Socket read chunk size for the reader.
const READ_CHUNK: usize = 64 * 1024;

/// Why a bridge link closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeCloseReason {
    /// The local side shut the bridge down.
    Shutdown,
    /// The peer disconnected (EOF, reset, or a read error).
    PeerDisconnected,
    /// Writing to the peer failed; the link was torn down in both
    /// directions so the reader cannot block on a half-open socket.
    WriteFailed,
    /// A corrupt, oversized or undecodable frame arrived; framing is lost,
    /// so the link closed (counted in `bridge_rx_errors`).
    CorruptFrame,
    /// A consumer could not decode a payload this link's gateway
    /// published (see [`ChannelHandle::fail_bridges_from`]); the peer is
    /// no longer trusted, so the link closed (counted in
    /// `bridge_rx_errors`).
    CorruptPayload,
}

/// Observable lifecycle of a bridge link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeState {
    /// Listening / waiting for the peer to connect.
    Connecting,
    /// The peer connection is established and both pumps are running.
    Connected,
    /// The link is gone; `reason` records the *first* cause.
    Closed {
        /// Why the link closed.
        reason: BridgeCloseReason,
    },
}

/// Shared link state: the stream (for shutdown from any thread), the
/// forwarder's mailbox (closed with the link, which ends the forwarder's
/// blocking `recv`) and the lifecycle state machine.
struct LinkState {
    stream: Option<TcpStream>,
    forward: Arc<Mailbox>,
    state: BridgeState,
}

type SharedLink = Arc<Mutex<LinkState>>;

/// A running link as its federation sees it: enough to close it from a
/// consumer thread that was handed a payload it could not decode.
pub(crate) struct LiveBridge {
    gateway: NodeId,
    link: SharedLink,
    stop: Arc<AtomicBool>,
}

/// Tears the link down from either direction: raises the stop flag, shuts
/// the socket both ways (unblocking a reader parked in `read`), closes the
/// forwarder's mailbox (unblocking a forwarder parked in `recv`), clears
/// the shared stream so `is_connected()` turns false, and records the
/// first close reason. Returns true if this call is the one that closed it.
fn close_link(link: &SharedLink, stop: &AtomicBool, reason: BridgeCloseReason) -> bool {
    stop.store(true, Ordering::SeqCst);
    let mut l = lock(link);
    if let Some(stream) = l.stream.take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    l.forward.close();
    let first = !matches!(l.state, BridgeState::Closed { .. });
    if first {
        l.state = BridgeState::Closed { reason };
    }
    first
}

impl ChannelHandle {
    /// Fail-stops every live TCP bridge of this federation whose gateway
    /// node is `source`, and returns how many it closed. For consumers
    /// that were delivered an undecodable *payload* from that node: local
    /// publishers never produce one, so it came over the bridge, and a
    /// peer that sends garbage inside valid frames is trusted no more than
    /// one that breaks framing. Each closed link counts one
    /// `bridge_rx_errors` and reports [`BridgeCloseReason::CorruptPayload`].
    pub fn fail_bridges_from(&self, source: NodeId) -> usize {
        let mut state = self.state();
        let closed = state
            .bridges
            .iter()
            .filter(|b| b.gateway == source)
            .filter(|b| close_link(&b.link, &b.stop, BridgeCloseReason::CorruptPayload))
            .count();
        state.stats.bridge_rx_errors += closed as u64;
        closed
    }
}

/// A running gateway link; dropping it closes the connection and joins the
/// forwarding threads.
pub struct BridgeHandle {
    link: SharedLink,
    stop: Arc<AtomicBool>,
    /// Where a listening side's acceptor waits in `accept`: closing the
    /// link while it still waits connects here to wake it.
    acceptor: Option<SocketAddr>,
    /// The link's reader thread (the acceptor, on a listening side), which
    /// joins the forwarder it started before it ends.
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for BridgeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let l = lock(&self.link);
        let peer = l.stream.as_ref().and_then(|s| s.peer_addr().ok());
        f.debug_struct("BridgeHandle").field("state", &l.state).field("peer", &peer).finish()
    }
}

impl BridgeHandle {
    /// True while the link is live: a peer is connected **and** neither
    /// side has failed. Turns false as soon as the link tears down, even
    /// if this handle has not been dropped.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        matches!(lock(&self.link).state, BridgeState::Connected)
    }

    /// The link's current lifecycle state.
    #[must_use]
    pub fn state(&self) -> BridgeState {
        lock(&self.link).state
    }

    /// Closes the link and waits for the forwarding threads.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let accepting = matches!(lock(&self.link).state, BridgeState::Connecting);
        close_link(&self.link, &self.stop, BridgeCloseReason::Shutdown);
        if let Some(addr) = self.acceptor.filter(|_| accepting) {
            // The acceptor finds the stop flag raised and drops this peer.
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for BridgeHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// Accepts one peer connection on `addr` and bridges `topics` through the
/// gateway node. With port 0 the OS picks a free port; the bound address is
/// returned immediately and the accept happens on a background thread, so
/// listen-then-connect works within one process.
///
/// # Errors
///
/// I/O errors from binding. A peer never connecting just leaves the bridge
/// in [`BridgeState::Connecting`] until the handle is dropped.
pub fn listen(
    federation: &Federation,
    gateway: NodeId,
    addr: impl ToSocketAddrs,
    topics: Vec<Topic>,
) -> std::io::Result<(SocketAddr, BridgeHandle)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // A listener bound to every interface is reached on loopback.
    let mut wake = local;
    if wake.ip().is_unspecified() {
        wake.set_ip(if wake.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let handle = federation
        .handle(gateway)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;

    let stop = Arc::new(AtomicBool::new(false));
    // Subscribe *now*, on the caller's thread: events published before the
    // peer connects queue up and are forwarded once the link is live.
    let mailbox = handle.subscribe_many(&topics);
    let link: SharedLink = Arc::new(Mutex::new(LinkState {
        stream: None,
        forward: Arc::clone(mailbox.mailbox()),
        state: BridgeState::Connecting,
    }));
    let accept_stop = Arc::clone(&stop);
    let accept_link = Arc::clone(&link);
    let acceptor_thread = std::thread::Builder::new()
        .name("rtcm-events-accept".into())
        .spawn(move || {
            // Blocks until a peer connects, or until `close` connects to
            // wake it.
            let Ok((peer, _)) = listener.accept() else { return };
            drop(listener);
            if peer.set_nodelay(true).is_err() {
                return;
            }
            if let Ok(clone) = peer.try_clone() {
                let mut l = lock(&accept_link);
                // Checked under the link's lock, which `close_link` takes
                // after raising the flag: a link closed while the acceptor
                // waited never reads `Connected`.
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                l.stream = Some(clone);
                l.state = BridgeState::Connected;
            }
            run_bridge(&handle, gateway, peer, mailbox, &accept_stop, &accept_link);
        })
        .expect("spawn acceptor");

    Ok((local, BridgeHandle { link, stop, acceptor: Some(wake), thread: Some(acceptor_thread) }))
}

/// Connects to a listening gateway and bridges `topics` through the local
/// gateway node.
///
/// # Errors
///
/// I/O errors from connecting.
pub fn connect(
    federation: &Federation,
    gateway: NodeId,
    addr: impl ToSocketAddrs,
    topics: Vec<Topic>,
) -> std::io::Result<BridgeHandle> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let handle = federation
        .handle(gateway)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let stop = Arc::new(AtomicBool::new(false));
    // Subscribe on the caller's thread so no publish can race past an
    // unsubscribed forwarder.
    let mailbox = handle.subscribe_many(&topics);
    let bridge_stream = stream.try_clone()?;
    let link: SharedLink = Arc::new(Mutex::new(LinkState {
        stream: Some(stream),
        forward: Arc::clone(mailbox.mailbox()),
        state: BridgeState::Connected,
    }));
    let bridge_stop = Arc::clone(&stop);
    let bridge_link = Arc::clone(&link);
    let thread = std::thread::Builder::new()
        .name("rtcm-events-bridge".into())
        .spawn(move || {
            run_bridge(&handle, gateway, bridge_stream, mailbox, &bridge_stop, &bridge_link);
        })
        .expect("spawn bridge");
    Ok(BridgeHandle { link, stop, acceptor: None, thread: Some(thread) })
}

/// Appends one binary frame for `event` to `buf` (skipping gateway-sourced
/// events, which came from the peer and would loop). Returns the number of
/// events dropped for being oversized (0 or 1) — never panics.
fn append_event(buf: &mut Vec<u8>, gateway: NodeId, event: &Event) -> u64 {
    if event.source == gateway {
        return 0;
    }
    match wire::append_frame(buf, event.topic, &event.payload) {
        Ok(()) => 0,
        // Oversized payload: drop this event and count it; the link (and
        // the forwarder thread) stays up.
        Err(_) => 1,
    }
}

/// Runs both directions of one bridge: the batching forwarder (local
/// mailbox → peer, one coalesced write per drained batch) and the reader
/// (peer → one `publish` per decoded frame). Any failure on either side
/// tears the whole link down.
fn run_bridge(
    handle: &ChannelHandle,
    gateway: NodeId,
    stream: TcpStream,
    mailbox: EventReceiver,
    stop: &Arc<AtomicBool>,
    link: &SharedLink,
) {
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            close_link(link, stop, BridgeCloseReason::PeerDisconnected);
            return;
        }
    };
    handle.state().bridges.push(LiveBridge {
        gateway,
        link: Arc::clone(link),
        stop: Arc::clone(stop),
    });
    let fwd_stop = Arc::clone(stop);
    let fwd_link = Arc::clone(link);
    let fwd_handle = handle.clone();
    let forwarder = std::thread::Builder::new()
        .name("rtcm-events-fwd".into())
        .spawn(move || {
            let mut buf: Vec<u8> = Vec::with_capacity(4096);
            // Blocks until an event arrives; `close_link` closes the
            // mailbox, which ends the loop.
            while let Ok(event) = mailbox.recv() {
                buf.clear();
                let mut tx_dropped = append_event(&mut buf, gateway, &event);
                // Coalesce everything already queued into the same write.
                let mut batched = 1;
                while batched < MAX_BATCH {
                    match mailbox.try_recv() {
                        Ok(event) => {
                            tx_dropped += append_event(&mut buf, gateway, &event);
                            batched += 1;
                        }
                        Err(_) => break,
                    }
                }
                if tx_dropped > 0 {
                    fwd_handle.state().stats.bridge_tx_dropped += tx_dropped;
                }
                if buf.is_empty() {
                    continue; // all gateway-sourced (no echo) or dropped
                }
                if writer.write_all(&buf).is_err() {
                    // Propagate the failure to the reader too: without
                    // this, the reader would stay blocked in `read` on a
                    // half-open link forever.
                    close_link(&fwd_link, &fwd_stop, BridgeCloseReason::WriteFailed);
                    return;
                }
            }
        })
        .expect("spawn forwarder");

    // Reader loop: peer → drained frames → one local publish each.
    let mut reader = stream;
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let reason = loop {
        match reader.read(&mut chunk) {
            Ok(0) => {
                break if stop.load(Ordering::SeqCst) {
                    BridgeCloseReason::Shutdown
                } else {
                    BridgeCloseReason::PeerDisconnected
                };
            }
            Ok(n) => {
                decoder.extend(&chunk[..n]);
                let drained = decoder.drain();
                for frame in drained.frames {
                    handle.publish(frame.topic, frame.payload);
                }
                if drained.fatal.is_some() {
                    break BridgeCloseReason::CorruptFrame;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                break if stop.load(Ordering::SeqCst) {
                    BridgeCloseReason::Shutdown
                } else {
                    BridgeCloseReason::PeerDisconnected
                };
            }
        }
    };
    // The link closes first and its lock is released before the
    // federation's is taken (the lock order), so whoever reads a corrupt
    // frame's rx error in the stats finds the link closed, forgotten and
    // counted as one disconnect.
    close_link(link, stop, reason);
    let mut state = handle.state();
    state.bridges.retain(|b| !Arc::ptr_eq(&b.link, link));
    // One disconnect per established link, counted where the link's pumps
    // end (covers peer loss, write failure, corrupt frames and shutdown).
    state.stats.bridge_disconnects += 1;
    if reason == BridgeCloseReason::CorruptFrame {
        state.stats.bridge_rx_errors += 1;
    }
    drop(state);
    let _ = forwarder.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Latency;
    use std::time::{Duration as StdDuration, Instant};

    const RECV: StdDuration = StdDuration::from_secs(5);

    fn pair(topics: Vec<Topic>) -> (Federation, Federation, BridgeHandle, BridgeHandle) {
        let a = Federation::new(3, Latency::None, 0);
        let b = Federation::new(3, Latency::None, 0);
        let (addr, server) = listen(&a, NodeId(0), "127.0.0.1:0", topics.clone()).expect("listen");
        let client = connect(&b, NodeId(0), addr, topics).expect("connect");
        (a, b, server, client)
    }

    /// Polls `cond` for up to 5 s (the bridge teardown paths are
    /// asynchronous: reader wakeup + close).
    fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + RECV;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(5));
        }
        false
    }

    #[test]
    fn events_cross_the_bridge_both_ways() {
        let (a, b, _s, _c) = pair(vec![Topic(1)]);
        let on_a = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let on_b = b.handle(NodeId(1)).unwrap().subscribe(Topic(1));

        b.handle(NodeId(2)).unwrap().publish(Topic(1), &b"from-b"[..]);
        let got = on_a.recv_timeout(RECV).unwrap();
        assert_eq!(got.payload.as_ref(), b"from-b");
        assert_eq!(got.source, NodeId(0), "arrives via the gateway");
        // B's own subscriber first sees its local copy...
        assert_eq!(on_b.recv_timeout(RECV).unwrap().payload.as_ref(), b"from-b");

        a.handle(NodeId(2)).unwrap().publish(Topic(1), &b"from-a"[..]);
        // ...then the bridged event from A.
        let got = on_b.recv_timeout(RECV).unwrap();
        assert_eq!(got.payload.as_ref(), b"from-a");
        assert_eq!(got.source, NodeId(0), "arrives via the gateway");
    }

    #[test]
    fn unforwarded_topics_stay_local() {
        let (a, b, _s, _c) = pair(vec![Topic(1)]);
        let on_a = a.handle(NodeId(1)).unwrap().subscribe(Topic(9));
        b.handle(NodeId(1)).unwrap().publish(Topic(9), &b"local-only"[..]);
        assert!(on_a.recv_timeout(StdDuration::from_millis(100)).is_err());
    }

    #[test]
    fn bridged_events_do_not_echo() {
        let (_a, b, _s, _c) = pair(vec![Topic(1)]);
        let on_b = b.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        b.handle(NodeId(2)).unwrap().publish(Topic(1), &b"once"[..]);
        // The publisher's own federation delivers exactly one copy...
        assert!(on_b.recv_timeout(RECV).is_ok());
        // ...and no echoed duplicate arrives from the bridge.
        assert!(on_b.recv_timeout(StdDuration::from_millis(200)).is_err());
    }

    #[test]
    fn many_messages_in_order() {
        let (a, b, _s, _c) = pair(vec![Topic(1)]);
        let on_a = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let h = b.handle(NodeId(2)).unwrap();
        for i in 0u8..100 {
            h.publish(Topic(1), vec![i]);
        }
        for i in 0u8..100 {
            let got = on_a.recv_timeout(RECV).unwrap();
            assert_eq!(got.payload.as_ref(), &[i]);
        }
    }

    #[test]
    fn a_lone_small_event_is_not_held_for_the_peers_delayed_ack() {
        // Two one-way events 1 ms apart on an otherwise idle link, with
        // nothing coming back to piggyback an ACK on. With Nagle on, the
        // second waits for the ACK of the first — the peer's delayed-ACK
        // timer, 40 ms on Linux (measured here: median 42.9 ms); with
        // TCP_NODELAY both leave as they are published.
        let (a, b, server, client) = pair(vec![Topic(1), Topic(2)]);
        assert!(wait_for(|| client.is_connected() && server.is_connected()));
        let on_a = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let on_b = b.handle(NodeId(1)).unwrap().subscribe(Topic(2));
        let h = b.handle(NodeId(2)).unwrap();
        let mut both_arrived: Vec<StdDuration> = (0..5)
            .map(|_| {
                // One event the other way first: Linux delays ACKs only
                // on a connection it has seen answer data with data, the
                // request/response pattern prepare → vote → commit has.
                a.handle(NodeId(2)).unwrap().publish(Topic(2), vec![0]);
                assert_eq!(on_b.recv_timeout(RECV).unwrap().payload.as_ref(), &[0]);
                let start = Instant::now();
                h.publish(Topic(1), vec![1]);
                std::thread::sleep(StdDuration::from_millis(1));
                h.publish(Topic(1), vec![2]);
                assert_eq!(on_a.recv_timeout(RECV).unwrap().payload.as_ref(), &[1]);
                assert_eq!(on_a.recv_timeout(RECV).unwrap().payload.as_ref(), &[2]);
                start.elapsed()
            })
            .collect();
        both_arrived.sort();
        let median = both_arrived[2];
        assert!(
            median < StdDuration::from_millis(20),
            "median of 5: {median:?} ({both_arrived:?})"
        );
    }

    #[test]
    fn multi_topic_bridges_preserve_cross_topic_order() {
        // One mailbox forwards both topics, so a burst interleaving them
        // arrives in the exact publish order (the old per-topic forwarder
        // threads could not promise this).
        let (a, b, _s, _c) = pair(vec![Topic(1), Topic(2)]);
        let on_a = a.handle(NodeId(1)).unwrap().subscribe_many(&[Topic(1), Topic(2)]);
        let h = b.handle(NodeId(2)).unwrap();
        for i in 0u8..40 {
            let topic = if i % 2 == 0 { Topic(1) } else { Topic(2) };
            h.publish(topic, vec![i]);
        }
        for i in 0u8..40 {
            let got = on_a.recv_timeout(RECV).unwrap();
            assert_eq!(got.payload.as_ref(), &[i]);
            assert_eq!(got.topic, if i % 2 == 0 { Topic(1) } else { Topic(2) });
        }
    }

    #[test]
    fn shutdown_is_clean() {
        let (a, b, server, client) = pair(vec![Topic(1)]);
        client.shutdown();
        server.shutdown();
        // Federations still work locally after the bridge is gone.
        let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(2));
        a.handle(NodeId(1)).unwrap().publish(Topic(2), &b"alive"[..]);
        assert!(rx.try_recv().is_ok());
        drop(b);
    }

    #[test]
    fn shutdown_unblocks_an_idle_reader_promptly() {
        // The reader sits blocked in `read` on an idle link; shutdown must
        // unblock it (Shutdown::Both) and join within a bounded time, not
        // hang on the blocked thread.
        let (_a, _b, server, client) = pair(vec![Topic(1)]);
        assert!(wait_for(|| client.is_connected() && server.is_connected()));
        let start = Instant::now();
        client.shutdown();
        assert!(start.elapsed() < StdDuration::from_secs(2), "shutdown joined promptly");
    }

    #[test]
    fn is_connected_turns_false_after_peer_disconnect() {
        let (a, _b, server, client) = pair(vec![Topic(1)]);
        assert!(wait_for(|| server.is_connected()), "link established");
        assert_eq!(client.state(), BridgeState::Connected);

        // The peer goes away; the old bridge kept reporting `true` here
        // forever because the shared stream was never cleared.
        client.shutdown();
        assert!(wait_for(|| !server.is_connected()), "server notices the disconnect");
        assert_eq!(
            server.state(),
            BridgeState::Closed { reason: BridgeCloseReason::PeerDisconnected }
        );
        assert!(wait_for(|| a.stats().bridge_disconnects == 1));
        assert_eq!(a.stats().bridge_rx_errors, 0, "a clean EOF is not an rx error");
    }

    #[test]
    fn listener_without_peer_reports_connecting() {
        let fed = Federation::new(2, Latency::None, 0);
        let (_addr, server) = listen(&fed, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
        assert_eq!(server.state(), BridgeState::Connecting);
        assert!(!server.is_connected(), "no peer yet");
    }

    #[test]
    fn corrupt_frame_closes_the_link_and_is_counted() {
        let fed = Federation::new(2, Latency::None, 0);
        let (addr, server) = listen(&fed, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        assert!(wait_for(|| server.is_connected()));

        // A well-framed body that does not open with the version byte.
        let body = [0xEEu8, 1, 2, 3];
        raw.write_all(&4u32.to_be_bytes()).unwrap();
        raw.write_all(&body).unwrap();

        assert!(wait_for(|| fed.stats().bridge_rx_errors == 1), "rx error counted");
        assert!(wait_for(|| !server.is_connected()));
        assert_eq!(server.state(), BridgeState::Closed { reason: BridgeCloseReason::CorruptFrame });
        assert_eq!(fed.stats().bridge_disconnects, 1);
    }

    #[test]
    fn corrupt_length_prefix_closes_the_link_and_is_counted() {
        let fed = Federation::new(2, Latency::None, 0);
        let (addr, server) = listen(&fed, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        assert!(wait_for(|| server.is_connected()));

        // A hostile length prefix far beyond MAX_FRAME.
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();

        assert!(wait_for(|| fed.stats().bridge_rx_errors == 1), "rx error counted");
        assert!(wait_for(|| !server.is_connected()));
        assert_eq!(server.state(), BridgeState::Closed { reason: BridgeCloseReason::CorruptFrame });
    }

    #[test]
    fn mid_frame_disconnect_is_a_disconnect_not_an_rx_error() {
        let fed = Federation::new(2, Latency::None, 0);
        let (addr, server) = listen(&fed, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
        let rx = fed.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let mut raw = TcpStream::connect(addr).unwrap();
        assert!(wait_for(|| server.is_connected()));

        // Half a frame: the length prefix promises 9 body bytes, only 3
        // arrive before the socket dies mid-frame.
        raw.write_all(&9u32.to_be_bytes()).unwrap();
        raw.write_all(&[wire::WIRE_VERSION, 0, 0]).unwrap();
        drop(raw);

        assert!(wait_for(|| !server.is_connected()));
        assert_eq!(
            server.state(),
            BridgeState::Closed { reason: BridgeCloseReason::PeerDisconnected }
        );
        let stats = fed.stats();
        assert_eq!(stats.bridge_rx_errors, 0, "a truncated link is not a decode error");
        assert_eq!(stats.bridge_disconnects, 1);
        assert!(rx.try_recv().is_err(), "the partial frame never becomes an event");
    }

    #[test]
    fn oversized_outbound_payload_is_dropped_not_a_panic() {
        let (a, b, _s, _c) = pair(vec![Topic(1)]);
        let on_a = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));

        // Larger than the wire frame limit: the old forwarder died on
        // `expect("sane frame size")`; now the event is dropped + counted
        // and the link stays up.
        let huge = vec![0u8; wire::MAX_FRAME - 4];
        b.handle(NodeId(2)).unwrap().publish(Topic(1), huge);
        assert!(wait_for(|| b.stats().bridge_tx_dropped == 1), "oversized drop counted");

        // The forwarder thread survived: a normal event still crosses.
        b.handle(NodeId(2)).unwrap().publish(Topic(1), &b"still alive"[..]);
        assert_eq!(on_a.recv_timeout(RECV).unwrap().payload.as_ref(), b"still alive");
    }

    #[test]
    fn write_failure_tears_down_the_whole_link() {
        // The peer accepts, receives data it never reads, then slams the
        // socket (on Linux: RST). Subsequent writes on our side fail; the
        // old forwarder returned silently and left the reader blocked in
        // `read_exact` forever — the bridge must now close completely:
        // state Closed, is_connected false, and shutdown joins promptly.
        let fed = Federation::new(2, Latency::None, 0);
        let raw_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = raw_listener.local_addr().unwrap();
        let client = connect(&fed, NodeId(0), addr, vec![Topic(1)]).unwrap();
        let (peer, _) = raw_listener.accept().unwrap();

        let h = fed.handle(NodeId(1)).unwrap();
        h.publish(Topic(1), &b"lands in the peer's buffer"[..]);
        std::thread::sleep(StdDuration::from_millis(50));
        drop(peer); // unread data → RST

        // Keep publishing until a write trips over the dead socket.
        assert!(
            wait_for(|| {
                h.publish(Topic(1), &b"poke"[..]);
                !client.is_connected()
            }),
            "link fully closed after the write failure"
        );
        assert!(matches!(client.state(), BridgeState::Closed { .. }));
        assert!(wait_for(|| fed.stats().bridge_disconnects == 1));

        let start = Instant::now();
        client.shutdown();
        assert!(start.elapsed() < StdDuration::from_secs(2), "no thread left blocked");
    }

    #[test]
    fn raw_peer_reads_binary_frames() {
        // The forwarder's outbound bytes are the documented binary format:
        // a raw socket can decode them with the public wire decoder.
        let fed = Federation::new(2, Latency::None, 0);
        let (addr, server) = listen(&fed, NodeId(0), "127.0.0.1:0", vec![Topic(3)]).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        assert!(wait_for(|| server.is_connected()));

        fed.handle(NodeId(1)).unwrap().publish(Topic(3), &b"binary out"[..]);

        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 1024];
        let frame = loop {
            let n = raw.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed before the frame arrived");
            decoder.extend(&chunk[..n]);
            let mut out = decoder.drain();
            assert!(out.fatal.is_none());
            if let Some(f) = out.frames.pop() {
                break f;
            }
        };
        assert_eq!(frame.topic, Topic(3));
        assert_eq!(frame.payload.as_ref(), b"binary out");
    }
}
