//! Precise timed waits: the crate's one exception to `forbid(unsafe_code)`.
//!
//! Linux lets every timed wait of an ordinary thread expire up to the
//! thread's *timer slack* late (50 µs by default), so the kernel can batch
//! wake-ups. A real-time middleware waits on timers to complete subjobs,
//! deliver delayed parcels and pace arrivals, so [`precisely`] sets the
//! calling thread's slack to 1 ns for the length of one wait and restores
//! the value it read before. The caller's thread is never left changed.
//! Elsewhere, or if the slack cannot be read, the wait runs as it is.

#![allow(unsafe_code)]

/// Runs `wait` with the calling thread's timer slack at 1 ns, then
/// restores the slack it had.
pub(crate) fn precisely<R>(wait: impl FnOnce() -> R) -> R {
    #[cfg(target_os = "linux")]
    {
        let old = linux::read();
        if old > 0 {
            linux::set(1);
            let waited = wait();
            linux::set(old);
            return waited;
        }
    }
    wait()
}

#[cfg(target_os = "linux")]
mod linux {
    use std::os::raw::{c_int, c_ulong};

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// The calling thread's timer slack in nanoseconds; ≤ 0 if it cannot
    /// be read. `prctl` returns an `int`, which holds any slack up to
    /// ≈ 2.1 s.
    pub(super) fn read() -> c_int {
        // SAFETY: `prctl` takes integer arguments only (the unused ones are
        // passed as zero `unsigned long`s, the width it reads them at), and
        // PR_GET_TIMERSLACK reads the calling thread's `timer_slack_ns` and
        // nothing else.
        unsafe { prctl(PR_GET_TIMERSLACK, 0 as c_ulong, 0 as c_ulong, 0 as c_ulong, 0 as c_ulong) }
    }

    /// Sets the calling thread's timer slack to `ns`, which is positive: a
    /// zero would select the thread's default slack instead. A failed set
    /// leaves the slack as it was.
    pub(super) fn set(ns: c_int) {
        let ns = c_ulong::from(ns.unsigned_abs());
        // SAFETY: as in `read`: integer arguments only, and
        // PR_SET_TIMERSLACK writes the calling thread's `timer_slack_ns`
        // and nothing else.
        unsafe { prctl(PR_SET_TIMERSLACK, ns, 0 as c_ulong, 0 as c_ulong, 0 as c_ulong) };
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::linux::{read, set};
    use super::precisely;
    use crate::event::{Event, NodeId, Topic};
    use crate::fanout::{Mailbox, RecvTimeoutError};
    use std::sync::{Barrier, Condvar, Mutex};
    use std::time::Duration;

    /// A slack no thread starts with, so reading it back shows a restore.
    const KNOWN: i32 = 77_000;

    #[test]
    fn the_wait_runs_at_one_nanosecond_and_the_slack_comes_back() {
        set(KNOWN);
        assert_eq!(read(), KNOWN);

        // A wait that times out.
        let (lock, ready) = (Mutex::new(()), Condvar::new());
        let (inside, timed_out) = precisely(|| {
            let guard = lock.lock().unwrap();
            let (_guard, result) =
                ready.wait_timeout_while(guard, Duration::from_millis(1), |()| true).unwrap();
            (read(), result.timed_out())
        });
        assert!(timed_out);
        assert_eq!(inside, 1);
        assert_eq!(read(), KNOWN);

        // A wait that returns an event, pushed by another thread.
        let (mailbox, rx) = Mailbox::open();
        let start = Barrier::new(2);
        let (inside, got) = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                mailbox.push(&Event::new(Topic(1), NodeId(0), vec![7]));
            });
            precisely(|| {
                start.wait();
                let got = rx.recv_timeout(Duration::from_secs(60));
                (read(), got)
            })
        });
        assert_eq!(got.unwrap().payload.as_ref(), &[7]);
        assert_eq!(inside, 1);
        assert_eq!(read(), KNOWN);
    }

    #[test]
    fn recv_timeout_leaves_the_callers_slack_as_it_found_it() {
        set(KNOWN);
        let (mailbox, rx) = Mailbox::open();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Timeout));
        assert_eq!(read(), KNOWN);
        mailbox.push(&Event::new(Topic(1), NodeId(0), vec![7]));
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)).unwrap().payload.as_ref(), &[7]);
        assert_eq!(read(), KNOWN);
    }
}
