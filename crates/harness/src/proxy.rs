//! A frame-aware TCP fault proxy: sits between a bridge client and a
//! bridge listener, decodes the wire protocol, and injects link faults on
//! command — partitions (silent frame drops), per-frame delay, pairwise
//! reordering, frame corruption, and mid-frame truncation.
//!
//! The proxy is *frame-aware*: it reassembles frames with the same
//! [`wire::FrameDecoder`] the real bridges use and re-emits them through
//! [`wire::append_frame`], so every fault is injected at a frame boundary
//! (or deliberately inside one, for truncation) rather than at arbitrary
//! byte offsets. Faults are toggled live from the orchestrating test via
//! the shared [`FaultProxy`] handle while the campaign runs.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtcm_events::wire::{self, FrameDecoder, WireFrame};

/// Which pump direction a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bridge client → listener (e.g. member acks toward the coordinator).
    Up,
    /// Listener → bridge client (e.g. coordinator phases toward a member).
    Down,
}

/// Read timeout of the pump loops; also the hold window after which a
/// reordering pump flushes a held frame that never got a swap partner.
const TICK: Duration = Duration::from_millis(25);

#[derive(Default)]
struct Faults {
    drop_up: AtomicBool,
    drop_down: AtomicBool,
    delay_ms: AtomicU64,
    reorder: AtomicBool,
    corrupt_next_up: AtomicBool,
    corrupt_next_down: AtomicBool,
    truncate_next_up: AtomicBool,
    truncate_next_down: AtomicBool,
}

impl Faults {
    fn dropping(&self, dir: Direction) -> bool {
        match dir {
            Direction::Up => self.drop_up.load(Ordering::SeqCst),
            Direction::Down => self.drop_down.load(Ordering::SeqCst),
        }
    }

    fn take_corrupt(&self, dir: Direction) -> bool {
        match dir {
            Direction::Up => self.corrupt_next_up.swap(false, Ordering::SeqCst),
            Direction::Down => self.corrupt_next_down.swap(false, Ordering::SeqCst),
        }
    }

    fn take_truncate(&self, dir: Direction) -> bool {
        match dir {
            Direction::Up => self.truncate_next_up.swap(false, Ordering::SeqCst),
            Direction::Down => self.truncate_next_down.swap(false, Ordering::SeqCst),
        }
    }
}

/// A running fault proxy forwarding one bridge connection to `upstream`.
/// Dropping the handle kills the link and joins the pump threads.
pub struct FaultProxy {
    addr: SocketAddr,
    faults: Arc<Faults>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy").field("addr", &self.addr).finish()
    }
}

impl FaultProxy {
    /// Binds a fresh local port and forwards the first accepted connection
    /// to `upstream`. Returns immediately; the accept happens in the
    /// background, so callers can hand [`FaultProxy::addr`] to the bridge
    /// client right away.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the proxy's listener.
    pub fn spawn(upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let faults = Arc::new(Faults::default());
        let stop = Arc::new(AtomicBool::new(false));

        let accept_faults = Arc::clone(&faults);
        let accept_stop = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("rtcm-proxy-accept".into())
            .spawn(move || {
                let client = loop {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((s, _)) => break s,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => return,
                    }
                };
                if client.set_nonblocking(false).is_err() {
                    return;
                }
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                };
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    return;
                };
                let up_faults = Arc::clone(&accept_faults);
                let up_stop = Arc::clone(&accept_stop);
                let up = std::thread::Builder::new()
                    .name("rtcm-proxy-up".into())
                    .spawn(move || pump(client, server, Direction::Up, &up_faults, &up_stop))
                    .expect("spawn proxy pump");
                pump(s2, c2, Direction::Down, &accept_faults, &accept_stop);
                let _ = up.join();
            })
            .expect("spawn proxy acceptor");

        Ok(FaultProxy { addr, faults, stop, threads: vec![acceptor] })
    }

    /// The address bridge clients should dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Partition the link: while set, frames in **both** directions are
    /// silently dropped (the TCP connection itself stays up — the nastiest
    /// kind of partition, indistinguishable from an unbounded delay).
    pub fn set_partitioned(&self, on: bool) {
        self.faults.drop_up.store(on, Ordering::SeqCst);
        self.faults.drop_down.store(on, Ordering::SeqCst);
    }

    /// Delay every forwarded frame by `ms` milliseconds (0 disables).
    pub fn set_delay_ms(&self, ms: u64) {
        self.faults.delay_ms.store(ms, Ordering::SeqCst);
    }

    /// While set, each pump holds one frame back and emits it *after* the
    /// next frame of the same direction — pairwise reordering. A held
    /// frame with no successor is flushed after one `TICK` (25 ms).
    pub fn set_reorder(&self, on: bool) {
        self.faults.reorder.store(on, Ordering::SeqCst);
    }

    /// Corrupt the next frame forwarded in `dir` (its version byte is
    /// replaced with garbage; length prefix stays valid, so the receiver
    /// sees a well-framed but undecodable body).
    pub fn corrupt_next(&self, dir: Direction) {
        match dir {
            Direction::Up => self.faults.corrupt_next_up.store(true, Ordering::SeqCst),
            Direction::Down => self.faults.corrupt_next_down.store(true, Ordering::SeqCst),
        }
    }

    /// Cut the link in the middle of the next frame forwarded in `dir`:
    /// half the frame's bytes are sent, then both sockets are slammed.
    pub fn truncate_next(&self, dir: Direction) {
        match dir {
            Direction::Up => self.faults.truncate_next_up.store(true, Ordering::SeqCst),
            Direction::Down => self.faults.truncate_next_down.store(true, Ordering::SeqCst),
        }
    }

    /// Kills the link and joins the pump threads.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.close();
    }
}

/// Encodes `frame` and writes it to `dst`, applying the per-frame faults.
/// Returns `false` when the pump must stop (write failure or injected
/// truncation).
fn emit(dst: &mut TcpStream, frame: &WireFrame, dir: Direction, faults: &Faults) -> bool {
    let delay = faults.delay_ms.load(Ordering::SeqCst);
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    let mut buf = Vec::with_capacity(frame.payload.len() + wire::FRAME_OVERHEAD);
    if wire::append_frame(&mut buf, frame.topic, &frame.payload).is_err() {
        return true; // oversized: drop, like the real forwarder
    }
    if faults.take_corrupt(dir) {
        buf[4] = 0xEE; // stomp the version byte: framing intact, body not
    }
    if faults.take_truncate(dir) {
        let half = buf.len() / 2;
        let _ = dst.write_all(&buf[..half.max(1)]);
        return false; // pump ends; sockets are slammed by the caller
    }
    dst.write_all(&buf).is_ok()
}

/// One direction's pump: reassemble frames from `src`, apply faults,
/// re-emit to `dst`. Ends on EOF, error, injected truncation, or stop.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    faults: &Faults,
    stop: &AtomicBool,
) {
    let _ = src.set_read_timeout(Some(TICK));
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut held: Option<WireFrame> = None;
    'outer: loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                decoder.extend(&chunk[..n]);
                let drained = decoder.drain();
                for frame in drained.frames {
                    if faults.dropping(dir) {
                        held = None; // partition swallows held frames too
                        continue;
                    }
                    if faults.reorder.load(Ordering::SeqCst) {
                        match held.take() {
                            // Swap: the newer frame overtakes the held one.
                            Some(prev) => {
                                if !emit(&mut dst, &frame, dir, faults)
                                    || !emit(&mut dst, &prev, dir, faults)
                                {
                                    break 'outer;
                                }
                            }
                            None => held = Some(frame),
                        }
                    } else if !emit(&mut dst, &frame, dir, faults) {
                        break 'outer;
                    }
                }
                if drained.fatal.is_some() {
                    break; // the proxy only speaks the real wire format
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick: a held frame never got a swap partner.
                if let Some(prev) = held.take() {
                    if !faults.dropping(dir) && !emit(&mut dst, &prev, dir, faults) {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    if let Some(prev) = held.take() {
        if !faults.dropping(dir) {
            let _ = emit(&mut dst, &prev, dir, faults);
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_events::{remote, Federation, Latency, NodeId, Topic};
    use std::time::{Duration as StdDuration, Instant};

    const RECV: StdDuration = StdDuration::from_secs(5);

    fn bridged_pair() -> (Federation, Federation, FaultProxy) {
        let a = Federation::new(2, Latency::None, 0);
        let b = Federation::new(2, Latency::None, 0);
        let (addr, server) = remote::listen(&a, NodeId(0), "127.0.0.1:0", vec![Topic(1)]).unwrap();
        let proxy = FaultProxy::spawn(addr).unwrap();
        let client = remote::connect(&b, NodeId(0), proxy.addr(), vec![Topic(1)]).unwrap();
        // Keep the bridge handles alive for the test duration by leaking
        // them into the federations' lifetimes via Box (the test owns the
        // federations, which outlive the bridges' threads).
        std::mem::forget(server);
        std::mem::forget(client);
        (a, b, proxy)
    }

    #[test]
    fn transparent_when_no_faults_are_set() {
        let (a, b, _proxy) = bridged_pair();
        let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        b.handle(NodeId(1)).unwrap().publish(Topic(1), &b"through"[..]);
        assert_eq!(rx.recv_timeout(RECV).unwrap().payload.as_ref(), b"through");
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (a, b, proxy) = bridged_pair();
        let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        let tx = b.handle(NodeId(1)).unwrap();

        proxy.set_partitioned(true);
        tx.publish(Topic(1), &b"lost"[..]);
        assert!(rx.recv_timeout(StdDuration::from_millis(200)).is_err(), "partitioned");

        proxy.set_partitioned(false);
        tx.publish(Topic(1), &b"healed"[..]);
        assert_eq!(rx.recv_timeout(RECV).unwrap().payload.as_ref(), b"healed");
    }

    #[test]
    fn delay_slows_frames_down() {
        let (a, b, proxy) = bridged_pair();
        let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        proxy.set_delay_ms(80);
        let start = Instant::now();
        b.handle(NodeId(1)).unwrap().publish(Topic(1), &b"late"[..]);
        rx.recv_timeout(RECV).unwrap();
        assert!(start.elapsed() >= StdDuration::from_millis(75), "frame was delayed");
    }

    #[test]
    fn reorder_swaps_back_to_back_frames() {
        let (a, b, proxy) = bridged_pair();
        let rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        proxy.set_reorder(true);
        let tx = b.handle(NodeId(1)).unwrap();
        // A tight burst of 2: the bridge coalesces them into one write, so
        // the proxy drains both in one pass and swaps them.
        tx.publish(Topic(1), &b"first"[..]);
        tx.publish(Topic(1), &b"second"[..]);
        let one = rx.recv_timeout(RECV).unwrap();
        let two = rx.recv_timeout(RECV).unwrap();
        let got = [one.payload.to_vec(), two.payload.to_vec()];
        assert!(
            got.iter().any(|p| p == b"first") && got.iter().any(|p| p == b"second"),
            "both frames arrive exactly once: {got:?}"
        );
    }

    #[test]
    fn corrupted_frame_closes_the_receiving_bridge() {
        let (a, b, proxy) = bridged_pair();
        let _rx = a.handle(NodeId(1)).unwrap().subscribe(Topic(1));
        proxy.corrupt_next(Direction::Up);
        b.handle(NodeId(1)).unwrap().publish(Topic(1), &b"mangled"[..]);
        // The receiver counts the frame, then tears the link down: wait for
        // the second counter, or the first can be seen alone.
        let deadline = Instant::now() + RECV;
        while a.stats().bridge_disconnects == 0 && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(5));
        }
        assert_eq!(a.stats().bridge_rx_errors, 1, "receiver counted the corrupt frame");
        assert_eq!(a.stats().bridge_disconnects, 1, "and closed its link");
    }
}
