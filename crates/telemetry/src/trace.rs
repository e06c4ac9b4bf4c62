//! Bounded ring-buffer job tracer.
//!
//! Every job carries a `trace` id minted at its arrival edge; every
//! lifecycle stage (arrival → admission → (re)allocation → release →
//! completion) and every reconfiguration phase (prepare/commit/abort)
//! appends one record. The buffer is a fixed-capacity ring —
//! when full, the oldest record is dropped and counted, so tracing can
//! stay on permanently without unbounded growth. Dumps are JSON lines,
//! one record per line, so traces from two bridged hosts concatenate
//! into one stream and correlate on the `trace` field.
//!
//! A record is stored as data, not text: a job stage appends its
//! [`PackedStage`] and three numbers ([`TraceBuffer::record_packed`]), and
//! the detail is rendered only when the ring is scraped
//! ([`TraceBuffer::snapshot`], outside the lock). Rare stages with
//! free-form detail ([`TraceBuffer::record`]) keep their text.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Default ring capacity (records), sized for minutes of tracing at
/// realistic job rates without noticeable memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// One trace point, as a scrape renders it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Correlation id — identical across every stage of one job (or one
    /// reconfiguration), including stages recorded on bridged peer hosts.
    pub trace: u64,
    /// Nanoseconds on the recording host's shared clock.
    pub at_ns: u64,
    /// Host id of the recording federation (0 for single-host runs).
    pub host: u64,
    /// Lifecycle stage, e.g. `"arrival"`, `"admission"`, `"release"`,
    /// `"completion"`, `"reconfig_prepare"`.
    pub stage: String,
    /// Free-form detail (task name, placement, verdict, epoch, ...).
    pub detail: String,
}

/// A stage whose detail is packed as three numbers: its name and the
/// function that renders the numbers into the detail text at scrape
/// time. Declared as a `static`, so a packed record holds one pointer.
#[derive(Debug)]
pub struct PackedStage {
    /// Lifecycle stage the record renders with, e.g. `"completion"`.
    pub name: &'static str,
    /// Appends the detail for the record's numbers.
    pub render: fn(&[u64; 3], &mut String),
}

/// What a slot keeps besides its id, instant and host.
#[derive(Debug, Clone)]
enum Body {
    Packed(&'static PackedStage, [u64; 3]),
    // The detail keeps the caller's `String` as it is: shrinking it to a
    // `Box<str>` costs a reallocation per record and saves no slot bytes.
    Text { stage: Box<str>, detail: String },
}

/// One stored record: copied out under the lock, rendered outside it.
#[derive(Debug, Clone)]
struct Slot {
    trace: u64,
    at_ns: u64,
    host: u64,
    body: Body,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

impl Slot {
    fn render(self) -> TraceRecord {
        let (stage, detail) = match self.body {
            Body::Packed(stage, words) => {
                let mut detail = String::new();
                (stage.render)(&words, &mut detail);
                (stage.name.to_owned(), detail)
            }
            Body::Text { stage, detail } => (stage.into(), detail),
        };
        TraceRecord { trace: self.trace, at_ns: self.at_ns, host: self.host, stage, detail }
    }
}

/// Fixed-capacity ring of trace records.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    ring: Mutex<VecDeque<Slot>>,
    dropped: AtomicU64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// A ring holding at most `cap` records (minimum 1). Storage grows
    /// as records arrive, up to `cap` slots and never beyond.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceBuffer {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a slot, evicting the oldest when full. The evicted slot is
    /// freed after the lock is released.
    fn append(&self, slot: Slot) {
        let _evicted = {
            let mut ring = self.ring.lock().expect("trace ring poisoned");
            let evicted = if ring.len() == self.cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                ring.pop_front()
            } else {
                if ring.len() == ring.capacity() {
                    let grow = ring.len().max(4).min(self.cap - ring.len());
                    ring.reserve_exact(grow);
                }
                None
            };
            ring.push_back(slot);
            evicted
        };
    }

    /// Records a stage with free-form detail (the rare stages: phases of
    /// a reconfiguration, decode errors).
    pub fn record(&self, trace: u64, at_ns: u64, host: u64, stage: &str, detail: String) {
        let body = Body::Text { stage: stage.into(), detail };
        self.append(Slot { trace, at_ns, host, body });
    }

    /// Records a packed stage: `stage.render` turns `words` into the
    /// detail when the ring is scraped, so the caller builds no text.
    pub fn record_packed(
        &self,
        trace: u64,
        at_ns: u64,
        host: u64,
        stage: &'static PackedStage,
        words: [u64; 3],
    ) {
        self.append(Slot { trace, at_ns, host, body: Body::Packed(stage, words) });
    }

    /// Records currently buffered (oldest first). The lock is held only
    /// to copy the slots out; their detail is rendered after.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let slots: Vec<Slot> =
            self.ring.lock().expect("trace ring poisoned").iter().cloned().collect();
        slots.into_iter().map(Slot::render).collect()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of buffered records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON-lines dump: one record per line, oldest first.
    #[must_use]
    pub fn dump_json_lines(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&serde_json::to_string(&r).expect("plain data"));
            out.push('\n');
        }
        out
    }
}

/// The splitmix64 finalizer — the id minter for traces (and elsewhere,
/// host ids): deterministic, cheap, and well-mixed, so ids minted from
/// `(host, task-hash, seq)` never collide in practice.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let buf = TraceBuffer::new(2);
        for i in 0..3u64 {
            buf.record(i, i, 0, "arrival", String::new());
        }
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].trace, 1);
        assert_eq!(snap[1].trace, 2);
        assert_eq!(buf.dropped(), 1);
    }

    /// Renders `[n, _, _]` as `"n{n}"`: a stand-in for a runtime stage.
    static NUMBERED: PackedStage = PackedStage {
        name: "completion",
        render: |words, out| out.push_str(&format!("n{}", words[0])),
    };

    #[test]
    fn eviction_keeps_order_and_counts_across_packed_and_text() {
        let buf = TraceBuffer::new(5);
        for i in 0..12u64 {
            if i % 3 == 0 {
                buf.record(i, i, 0, "reconfig_commit", format!("t{i}"));
            } else {
                buf.record_packed(i, i, 0, &NUMBERED, [i, 0, 0]);
            }
        }
        let snap = buf.snapshot();
        assert_eq!(snap.iter().map(|r| r.trace).collect::<Vec<_>>(), [7, 8, 9, 10, 11]);
        let details: Vec<_> = snap.iter().map(|r| (r.stage.as_str(), r.detail.as_str())).collect();
        assert_eq!(
            details,
            [
                ("completion", "n7"),
                ("completion", "n8"),
                ("reconfig_commit", "t9"),
                ("completion", "n10"),
                ("completion", "n11"),
            ]
        );
        assert_eq!(buf.dropped(), 7);
        assert_eq!(buf.len(), 5);
        assert!(buf.ring.lock().unwrap().capacity() <= 5, "storage grew past the capacity");
    }

    #[test]
    fn full_ring_snapshots_every_slot_oldest_first() {
        let buf = TraceBuffer::default();
        let n = DEFAULT_TRACE_CAPACITY as u64;
        for i in 0..n + 3 {
            buf.record_packed(i, i * 10, 1, &NUMBERED, [i, 0, 0]);
        }
        let snap = buf.snapshot();
        assert_eq!(snap.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(snap[0].trace, 3);
        assert_eq!(snap[0].detail, "n3");
        assert!(snap.windows(2).all(|w| w[1].at_ns == w[0].at_ns + 10));
        assert_eq!(buf.dropped(), 3);
    }

    #[test]
    fn unbounded_capacity_allocates_on_demand() {
        let buf = TraceBuffer::new(usize::MAX);
        buf.record(1, 2, 3, "decode_error", "truncated".into());
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.snapshot()[0].detail, "truncated");
    }

    #[test]
    fn json_lines_round_trip() {
        let buf = TraceBuffer::new(8);
        buf.record(42, 1000, 7, "admission", "accepted".into());
        let dump = buf.dump_json_lines();
        let line = dump.lines().next().unwrap();
        let back: TraceRecord = serde_json::from_str(line).unwrap();
        assert_eq!(back.trace, 42);
        assert_eq!(back.stage, "admission");
        assert_eq!(back.detail, "accepted");
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }
}
