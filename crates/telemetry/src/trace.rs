//! Bounded ring-buffer job tracer.
//!
//! Every job carries a `trace` id minted at its arrival edge; every
//! lifecycle stage (arrival → admission → (re)allocation → release →
//! completion) and every reconfiguration phase (prepare/commit/abort)
//! appends one [`TraceRecord`]. The buffer is a fixed-capacity ring —
//! when full, the oldest record is dropped and counted, so tracing can
//! stay on permanently without unbounded growth. Dumps are JSON lines,
//! one record per line, so traces from two bridged hosts concatenate
//! into one stream and correlate on the `trace` field.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Default ring capacity (records), sized for minutes of tracing at
/// realistic job rates without noticeable memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// One trace point.
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

/// Fixed-capacity ring of trace records.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// A ring holding at most `cap` records (minimum 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceBuffer {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, record: TraceRecord) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Convenience push from parts.
    pub fn record(&self, trace: u64, at_ns: u64, host: u64, stage: &str, detail: String) {
        self.push(TraceRecord { trace, at_ns, host, stage: stage.to_string(), detail });
    }

    /// Records currently buffered (oldest first).
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring.lock().expect("trace ring poisoned").iter().cloned().collect()
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
