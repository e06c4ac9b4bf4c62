//! Local delivery: one queue per receiver.
//!
//! Every subscription — [`crate::ChannelHandle::subscribe`] is
//! [`crate::ChannelHandle::subscribe_many`] with one topic — owns one
//! `Mailbox`: a `VecDeque` behind a mutex plus a condvar, with exactly one
//! consumer. A publish pushes one [`Event`] into each mailbox on its route
//! (a [`bytes::Bytes`] reference-count bump: every receiver observes the
//! same payload allocation) and notifies only a parked receiver; a receive
//! pops the event out. Queues are unbounded, so publishers never block and
//! nothing is dropped. Dropping the receiver frees its backlog, later
//! pushes count no delivery, and the next subscription change forgets the
//! mailbox.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::event::Event;

/// Error returned by [`EventReceiver::recv`] when the federation is gone
/// and the queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and closed event channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`EventReceiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No event is pending right now.
    Empty,
    /// The queue is drained and the federation has been dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty event channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and closed event channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`EventReceiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No event arrived within the timeout.
    Timeout,
    /// The queue is drained and the federation has been dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting for an event"),
            RecvTimeoutError::Disconnected => f.write_str("event channel is empty and closed"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// A federation's event-path counters (see [`crate::Federation::stats`]):
/// kept under the federation's lock, copied out by a read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// `publish` calls made through any handle.
    pub events_published: u64,
    /// Per-subscriber deliveries (one publish to a topic with *n* live
    /// subscribers counts *n*; remote parcels count once delivered).
    pub local_deliveries: u64,
    /// Parcels handed to the in-process network for cross-node delivery.
    pub remote_parcels: u64,
    /// Corrupt, oversized or otherwise undecodable frames received on TCP
    /// bridges attached to this federation (each one closes its link).
    pub bridge_rx_errors: u64,
    /// TCP bridge links that closed for any reason — peer disconnect,
    /// socket error, corrupt frame, or local shutdown.
    pub bridge_disconnects: u64,
    /// Outbound events a bridge dropped instead of sending (payload larger
    /// than the wire format's frame limit).
    pub bridge_tx_dropped: u64,
}

#[derive(Debug, Default)]
struct MailboxState {
    queue: VecDeque<Event>,
    /// Receivers currently parked on the condvar.
    waiters: usize,
    /// Set when the owning federation is dropped (or a bridge link that
    /// forwards from this mailbox closes).
    closed: bool,
    /// Set when the receiver is dropped.
    detached: bool,
}

/// One receiver's queue: the publish side holds it in the federation's
/// subscribers, the [`EventReceiver`] is its single consumer.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
    ready: Condvar,
}

impl Mailbox {
    /// Opens a fresh, empty mailbox: the handle publishers push into and
    /// its receiver.
    pub(crate) fn open() -> (Arc<Mailbox>, EventReceiver) {
        let mailbox = Arc::new(Mailbox::default());
        (Arc::clone(&mailbox), EventReceiver { mailbox })
    }

    fn lock(&self) -> MutexGuard<'_, MailboxState> {
        crate::lock(&self.state)
    }

    /// Whether the receiver is still alive (the federation forgets
    /// detached mailboxes on subscription changes).
    pub(crate) fn is_attached(&self) -> bool {
        !self.lock().detached
    }

    /// Queues one event; returns the deliveries it counts (1, or 0 once
    /// the receiver is gone or the mailbox closed).
    pub(crate) fn push(&self, event: &Event) -> usize {
        let mut s = self.lock();
        if s.closed || s.detached {
            return 0;
        }
        s.queue.push_back(event.clone());
        if s.waiters > 0 {
            self.ready.notify_all();
        }
        1
    }

    /// Marks the mailbox closed: pending events remain receivable, then
    /// the receiver observes `Disconnected`.
    pub(crate) fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        if s.waiters > 0 {
            self.ready.notify_all();
        }
    }

    fn recv_deadline(&self, deadline: Option<Instant>) -> Result<Event, RecvTimeoutError> {
        let mut s = self.lock();
        loop {
            if let Some(event) = s.queue.pop_front() {
                return Ok(event);
            }
            if s.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining == Some(Duration::ZERO) {
                return Err(RecvTimeoutError::Timeout);
            }
            s.waiters += 1;
            s = match remaining {
                Some(r) => {
                    crate::slack::precisely(|| self.ready.wait_timeout(s, r))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.ready.wait(s).unwrap_or_else(PoisonError::into_inner),
            };
            s.waiters -= 1;
        }
    }
}

/// A subscription to a federated event channel: the single consumer of
/// its own mailbox.
///
/// Receivers are single-owner (not `Clone`): every subscription observes
/// every event of its topics exactly once, in publish order. Dropping the
/// receiver frees its backlog.
pub struct EventReceiver {
    mailbox: Arc<Mailbox>,
}

impl fmt::Debug for EventReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventReceiver").field("pending", &self.len()).finish()
    }
}

impl EventReceiver {
    /// Receives the next event without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is pending;
    /// [`TryRecvError::Disconnected`] once the federation is dropped and
    /// the backlog is drained.
    pub fn try_recv(&self) -> Result<Event, TryRecvError> {
        let mut s = self.mailbox.lock();
        match s.queue.pop_front() {
            Some(event) => Ok(event),
            None if s.closed => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks until an event arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the federation is dropped and the backlog is
    /// drained.
    pub fn recv(&self) -> Result<Event, RecvError> {
        self.mailbox.recv_deadline(None).map_err(|_| RecvError)
    }

    /// Blocks up to `timeout` for an event. A timeout too large to add to
    /// the current instant (e.g. [`Duration::MAX`]) blocks like
    /// [`EventReceiver::recv`].
    ///
    /// The wait is precise: on Linux the calling thread's timer slack is
    /// 1 ns while it waits, so a timeout wakes it within microseconds of
    /// the deadline rather than up to the default 50 µs slack late, and
    /// never early. The caller's own slack is restored before this returns.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time;
    /// [`RecvTimeoutError::Disconnected`] once the federation is dropped
    /// and the backlog is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Event, RecvTimeoutError> {
        self.mailbox.recv_deadline(Instant::now().checked_add(timeout))
    }

    /// Events currently pending for this subscriber.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mailbox.lock().queue.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mailbox this receiver consumes, for closing it from elsewhere
    /// (a bridge link's teardown wakes its blocked forwarder this way).
    pub(crate) fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }
}

impl Drop for EventReceiver {
    fn drop(&mut self) {
        let mut s = self.mailbox.lock();
        s.detached = true;
        s.queue = VecDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NodeId, Topic};

    fn ev(tag: u8) -> Event {
        Event::new(Topic(1), NodeId(0), vec![tag])
    }

    #[test]
    fn every_cursor_sees_every_event_in_order() {
        let (a_box, a) = Mailbox::open();
        let (b_box, b) = Mailbox::open();
        for i in 0..5u8 {
            assert_eq!(a_box.push(&ev(i)) + b_box.push(&ev(i)), 2);
        }
        for rx in [&a, &b] {
            for i in 0..5u8 {
                assert_eq!(rx.try_recv().unwrap().payload.as_ref(), &[i]);
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }
    }

    #[test]
    fn late_cursor_sees_only_future_events() {
        let fed = crate::Federation::new(1, crate::Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let _early = h.subscribe(Topic(1));
        h.publish(Topic(1), vec![0]);
        let late = h.subscribe(Topic(1));
        h.publish(Topic(1), vec![1]);
        assert_eq!(late.try_recv().unwrap().payload.as_ref(), &[1]);
        assert!(late.try_recv().is_err());
    }

    #[test]
    fn gc_reclaims_consumed_prefix() {
        let (mailbox, rx) = Mailbox::open();
        for i in 0..10 {
            mailbox.push(&ev(i));
        }
        for _ in 0..10 {
            rx.recv().unwrap();
        }
        assert_eq!(mailbox.lock().queue.len(), 0, "fully consumed mailbox holds nothing");
    }

    #[test]
    fn dropping_a_stalled_receiver_releases_its_backlog() {
        let (stalled_box, stalled) = Mailbox::open();
        for i in 0..8 {
            stalled_box.push(&ev(i));
        }
        assert_eq!(stalled.len(), 8);
        drop(stalled);
        assert_eq!(stalled_box.lock().queue.len(), 0, "backlog freed with the receiver");
        assert!(!stalled_box.is_attached());
        assert_eq!(stalled_box.push(&ev(9)), 0, "a dropped receiver counts no delivery");
    }

    #[test]
    fn push_without_active_cursors_delivers_nothing() {
        let fed = crate::Federation::new(1, crate::Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        assert_eq!(h.publish(Topic(1), vec![0]), 0);
        drop(h.subscribe(Topic(1)));
        assert_eq!(h.publish(Topic(1), vec![1]), 0);
        assert_eq!(fed.stats().local_deliveries, 0);
    }

    #[test]
    fn close_drains_then_disconnects() {
        let (mailbox, rx) = Mailbox::open();
        mailbox.push(&ev(0));
        mailbox.close();
        assert_eq!(mailbox.push(&ev(1)), 0, "a closed mailbox takes nothing new");
        assert!(rx.try_recv().is_ok(), "pending events survive the close");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_waits_and_wakes() {
        let (mailbox, rx) = Mailbox::open();
        let asked = Duration::from_millis(10);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(asked), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= asked, "a precise timeout is still never early");
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            mailbox.push(&ev(7));
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().payload.as_ref(), &[7]);
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_without_a_representable_deadline_blocks_like_recv() {
        // `Instant::now() + Duration::MAX` overflows; std mpsc's rule is to
        // block without a deadline instead of panicking.
        let fed = crate::Federation::new(1, crate::Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let rx = h.subscribe(Topic(1));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            h.publish(Topic(1), vec![7]);
        });
        assert_eq!(rx.recv_timeout(Duration::MAX).unwrap().payload.as_ref(), &[7]);
        t.join().unwrap();
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(fed);
        });
        assert_eq!(rx.recv_timeout(Duration::MAX), Err(RecvTimeoutError::Disconnected));
        closer.join().unwrap();
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let fed = crate::Federation::new(1, crate::Latency::None, 0);
        let h = fed.handle(NodeId(0)).unwrap();
        let a = h.subscribe(Topic(1));
        let b = h.subscribe(Topic(1));
        let payload = bytes::Bytes::from(vec![1, 2, 3]);
        assert_eq!(h.publish(Topic(1), payload.clone()), 2);
        let ea = a.recv().unwrap();
        let eb = b.recv().unwrap();
        // Same allocation: the Bytes payload is reference-counted, so both
        // receivers observe the same backing slice address.
        assert_eq!(ea.payload.as_ref().as_ptr(), eb.payload.as_ref().as_ptr());
        assert_eq!(ea.payload.as_ref().as_ptr(), payload.as_ref().as_ptr());
    }
}
