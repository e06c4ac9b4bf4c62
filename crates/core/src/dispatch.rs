//! The prioritized subtask dispatcher of one processor (the F/I and Last
//! Subtask components of Figure 3): preemptive fixed-priority dispatching
//! of subjobs, as a pure state machine.
//!
//! This is the execution model the AUB analysis assumes: one CPU per
//! processor, the highest-priority ready subjob always running, preemption
//! on arrival of more-urgent work. Time enters only as the `now` argument,
//! so the simulator drives it in virtual time and the threaded runtime's
//! node drives it off its wall clock, where a completion is delivered at or
//! after its nominal instant, never before. Completion events are validated
//! through generation tokens, the standard discrete-event pattern for
//! cancellable timers: every (re)start of a subjob bumps the generation, so
//! completion events scheduled for preempted runs are recognized as stale
//! and ignored.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::dispatch::{Completion, Cpu};
//! use rtcm_core::priority::Priority;
//! use rtcm_core::time::{Duration, Time};
//!
//! let mut cpu: Cpu<&str> = Cpu::new();
//! let start = cpu
//!     .enqueue(Time::ZERO, Priority(5), Duration::from_millis(10), "low")
//!     .expect("idle CPU starts immediately");
//!
//! // A more urgent subjob preempts; the old completion becomes stale.
//! let preempt = cpu
//!     .enqueue(Time::ZERO + Duration::from_millis(2), Priority(1), Duration::from_millis(1), "high")
//!     .expect("higher priority preempts");
//! assert!(matches!(cpu.complete(start.completes_at, start.gen), Completion::Stale));
//! # let _ = preempt;
//! ```

use std::collections::BinaryHeap;

use crate::priority::Priority;
use crate::time::{Duration, Time};

/// Directive returned when a subjob starts running: the caller must
/// schedule a [`Cpu::complete`] call at `completes_at` carrying `gen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// Generation token validating the completion event.
    pub gen: u64,
    /// Instant at which the run finishes if not preempted.
    pub completes_at: Time,
}

/// Result of delivering a completion event.
#[derive(Debug)]
pub enum Completion<T> {
    /// The event belonged to a preempted run; ignore it.
    Stale,
    /// The running subjob finished.
    Done {
        /// The finished subjob's payload.
        payload: T,
        /// The next subjob started from the ready queue, if any; `None`
        /// means the processor is now idle.
        next: Option<Started>,
    },
}

#[derive(Debug)]
struct Ready<T> {
    priority: Priority,
    seq: u64,
    remaining: Duration,
    payload: T,
}

impl<T> PartialEq for Ready<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Ready<T> {}

impl<T> PartialOrd for Ready<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Ready<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: more urgent first, then FIFO by enqueue sequence.
        self.priority.cmp_urgency(other.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct Running<T> {
    priority: Priority,
    seq: u64,
    started_at: Time,
    remaining_at_start: Duration,
    gen: u64,
    payload: T,
}

/// One uninterrupted run of a subjob, logged when it is preempted or
/// finishes (only recorded when tracing is enabled via
/// [`Cpu::set_tracing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<T> {
    /// When the run began (or resumed).
    pub start: Time,
    /// When it was preempted or finished.
    pub end: Time,
    /// True if the run finished the subjob; false if it was preempted.
    pub completed: bool,
    /// Whose payload.
    pub payload: T,
}

/// A preemptive fixed-priority single-CPU model.
#[derive(Debug)]
pub struct Cpu<T> {
    ready: BinaryHeap<Ready<T>>,
    running: Option<Running<T>>,
    next_seq: u64,
    next_gen: u64,
    busy_since: Option<Time>,
    busy_accum: Duration,
    trace: Option<Vec<Span<T>>>,
}

impl<T> Default for Cpu<T> {
    fn default() -> Self {
        Cpu::new()
    }
}

impl<T> Cpu<T> {
    /// Creates an idle CPU.
    #[must_use]
    pub fn new() -> Self {
        Cpu {
            ready: BinaryHeap::new(),
            running: None,
            next_seq: 0,
            next_gen: 0,
            busy_since: None,
            busy_accum: Duration::ZERO,
            trace: None,
        }
    }

    /// Enables or disables span tracing.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drains recorded spans, in the order they ended (empty when tracing
    /// is off).
    pub fn drain_spans(&mut self) -> Vec<Span<T>> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Returns true if nothing is running or ready.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.ready.is_empty()
    }

    /// Total time spent busy up to the last state change.
    #[must_use]
    pub fn busy_time(&self) -> Duration {
        self.busy_accum
    }
}

impl<T: Clone> Cpu<T> {
    /// Offers a subjob with `exec` remaining execution at `now`.
    ///
    /// Returns `Some(Started)` when this call changed which subjob is
    /// running (idle start or preemption); the caller must schedule the
    /// returned completion. Returns `None` when the subjob was queued
    /// behind the current run.
    pub fn enqueue(
        &mut self,
        now: Time,
        priority: Priority,
        exec: Duration,
        payload: T,
    ) -> Option<Started> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let incoming = Ready { priority, seq, remaining: exec, payload };

        match self.running.take() {
            None => {
                self.ready.push(incoming);
                self.busy_since.get_or_insert(now);
                Some(self.start_next(now))
            }
            Some(run) => {
                if incoming.priority.is_higher_than(run.priority) {
                    // Preempt: bank the consumed time and requeue the rest.
                    self.log(&run, now, false);
                    let consumed = now.elapsed_since(run.started_at);
                    let remaining = run.remaining_at_start.saturating_sub(consumed);
                    self.ready.push(Ready {
                        priority: run.priority,
                        seq: run.seq,
                        remaining,
                        payload: run.payload,
                    });
                    self.ready.push(incoming);
                    Some(self.start_next(now))
                } else {
                    self.ready.push(incoming);
                    self.running = Some(run);
                    None
                }
            }
        }
    }

    /// Delivers a completion event carrying generation `gen` at `now`.
    pub fn complete(&mut self, now: Time, gen: u64) -> Completion<T> {
        match &self.running {
            Some(run) if run.gen == gen => {}
            _ => return Completion::Stale,
        }
        let run = self.running.take().expect("checked above");
        // A wall-clock driver delivers late, never early.
        debug_assert!(now >= run.started_at + run.remaining_at_start, "early completion");
        self.log(&run, now, true);
        let next = if self.ready.is_empty() {
            if let Some(since) = self.busy_since.take() {
                self.busy_accum += now.elapsed_since(since);
            }
            None
        } else {
            Some(self.start_next(now))
        };
        Completion::Done { payload: run.payload, next }
    }

    fn start_next(&mut self, now: Time) -> Started {
        debug_assert!(self.running.is_none());
        let head = self.ready.pop().expect("start_next requires ready work");
        let gen = self.next_gen;
        self.next_gen += 1;
        let completes_at = now + head.remaining;
        self.running = Some(Running {
            priority: head.priority,
            seq: head.seq,
            started_at: now,
            remaining_at_start: head.remaining,
            gen,
            payload: head.payload,
        });
        Started { gen, completes_at }
    }

    /// Logs `run` as a span ending at `end`, when tracing.
    fn log(&mut self, run: &Running<T>, end: Time, completed: bool) {
        if let Some(trace) = &mut self.trace {
            let payload = run.payload.clone();
            trace.push(Span { start: run.started_at, end, completed, payload });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn idle_start_and_complete() {
        let mut cpu: Cpu<u32> = Cpu::new();
        assert!(cpu.is_idle());
        let s = cpu.enqueue(at(0), Priority(1), Duration::from_micros(10), 7).unwrap();
        assert_eq!(s.completes_at, at(10));
        match cpu.complete(at(10), s.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, 7);
                assert!(next.is_none());
            }
            Completion::Stale => panic!("live completion"),
        }
        assert!(cpu.is_idle());
        assert_eq!(cpu.busy_time(), Duration::from_micros(10));
    }

    #[test]
    fn lower_priority_queues_behind() {
        let mut cpu: Cpu<&str> = Cpu::new();
        let s = cpu.enqueue(at(0), Priority(1), Duration::from_micros(10), "urgent").unwrap();
        assert!(cpu.enqueue(at(2), Priority(5), Duration::from_micros(4), "later").is_none());
        let n = match cpu.complete(s.completes_at, s.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, "urgent");
                next.unwrap()
            }
            Completion::Stale => panic!(),
        };
        assert_eq!(n.completes_at, at(14));
        // "later" was the one subjob waiting.
        match cpu.complete(n.completes_at, n.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, "later");
                assert!(next.is_none());
            }
            Completion::Stale => panic!(),
        }
    }

    #[test]
    fn preemption_banks_progress() {
        let mut cpu: Cpu<&str> = Cpu::new();
        let low = cpu.enqueue(at(0), Priority(5), Duration::from_micros(10), "low").unwrap();
        // Preempt at 4µs: low has 6µs left.
        let high = cpu.enqueue(at(4), Priority(1), Duration::from_micros(3), "high").unwrap();
        assert_eq!(high.completes_at, at(7));
        // The old completion is stale.
        assert!(matches!(cpu.complete(low.completes_at, low.gen), Completion::Stale));
        // High finishes; low resumes with its remaining 6µs.
        let resumed = match cpu.complete(at(7), high.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, "high");
                next.unwrap()
            }
            Completion::Stale => panic!(),
        };
        assert_eq!(resumed.completes_at, at(13));
        match cpu.complete(at(13), resumed.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, "low");
                assert!(next.is_none());
            }
            Completion::Stale => panic!(),
        }
    }

    #[test]
    fn equal_priority_is_fifo_and_non_preemptive() {
        let mut cpu: Cpu<u32> = Cpu::new();
        let first = cpu.enqueue(at(0), Priority(3), Duration::from_micros(5), 1).unwrap();
        assert!(cpu.enqueue(at(1), Priority(3), Duration::from_micros(5), 2).is_none());
        assert!(cpu.enqueue(at(2), Priority(3), Duration::from_micros(5), 3).is_none());
        let mut order = Vec::new();
        let mut next = Some(first);
        let mut now = at(5);
        while let Some(s) = next {
            match cpu.complete(now, s.gen) {
                Completion::Done { payload, next: n } => {
                    order.push(payload);
                    next = n.inspect(|n| now = n.completes_at);
                }
                Completion::Stale => panic!(),
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn preempted_job_resumes_before_same_priority_later_arrivals() {
        let mut cpu: Cpu<&str> = Cpu::new();
        let low = cpu.enqueue(at(0), Priority(5), Duration::from_micros(10), "old").unwrap();
        let high = cpu.enqueue(at(4), Priority(1), Duration::from_micros(2), "hi").unwrap();
        assert!(matches!(cpu.complete(low.completes_at, low.gen), Completion::Stale));
        // Another priority-5 subjob arrives while high runs.
        assert!(cpu.enqueue(at(5), Priority(5), Duration::from_micros(1), "new").is_none());
        let resumed = match cpu.complete(at(6), high.gen) {
            Completion::Done { next, .. } => next.unwrap(),
            Completion::Stale => panic!(),
        };
        // "old" (seq 0) beats "new" (seq 2) at equal priority.
        match cpu.complete(resumed.completes_at, resumed.gen) {
            Completion::Done { payload, .. } => assert_eq!(payload, "old"),
            Completion::Stale => panic!(),
        }
    }

    #[test]
    fn tracing_records_start_preempt_finish() {
        let mut cpu: Cpu<&str> = Cpu::new();
        cpu.set_tracing(true);
        let low = cpu.enqueue(at(0), Priority(5), Duration::from_micros(10), "low").unwrap();
        let high = cpu.enqueue(at(4), Priority(1), Duration::from_micros(2), "hi").unwrap();
        assert!(matches!(cpu.complete(low.completes_at, low.gen), Completion::Stale));
        let resumed = match cpu.complete(at(6), high.gen) {
            Completion::Done { next, .. } => next.unwrap(),
            Completion::Stale => panic!(),
        };
        let _ = cpu.complete(resumed.completes_at, resumed.gen);
        let t = cpu.drain_spans();
        assert_eq!(
            t,
            vec![
                Span { start: at(0), end: at(4), completed: false, payload: "low" },
                Span { start: at(4), end: at(6), completed: true, payload: "hi" },
                Span { start: at(6), end: at(12), completed: true, payload: "low" },
            ]
        );
        // Draining empties the buffer.
        assert!(cpu.drain_spans().is_empty());
        // Tracing off records nothing.
        cpu.set_tracing(false);
        let s = cpu.enqueue(at(20), Priority(1), Duration::from_micros(1), "x").unwrap();
        let _ = cpu.complete(s.completes_at, s.gen);
        assert!(cpu.drain_spans().is_empty());
    }

    #[test]
    fn busy_time_accumulates_over_busy_periods() {
        let mut cpu: Cpu<u32> = Cpu::new();
        let a = cpu.enqueue(at(0), Priority(1), Duration::from_micros(5), 0).unwrap();
        match cpu.complete(at(5), a.gen) {
            Completion::Done { .. } => {}
            Completion::Stale => panic!(),
        }
        let b = cpu.enqueue(at(100), Priority(1), Duration::from_micros(7), 1).unwrap();
        match cpu.complete(at(107), b.gen) {
            Completion::Done { .. } => {}
            Completion::Stale => panic!(),
        }
        assert_eq!(cpu.busy_time(), Duration::from_micros(12));
    }

    // The three below are what a wall-clock driver relies on: its `now` is
    // whatever the clock reads when the timer thread wakes.

    #[test]
    fn late_completion_starts_the_next_run_at_the_late_instant() {
        let mut cpu: Cpu<&str> = Cpu::new();
        let first = cpu.enqueue(at(0), Priority(1), Duration::from_micros(10), "first").unwrap();
        assert!(cpu.enqueue(at(1), Priority(5), Duration::from_micros(4), "second").is_none());
        // Nominally due at 10 µs; the wake-up arrives at 13 µs.
        match cpu.complete(at(13), first.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, "first");
                assert_eq!(next.unwrap().completes_at, at(17), "13 + 4, not 10 + 4");
            }
            Completion::Stale => panic!("live completion"),
        }
    }

    #[test]
    fn zero_length_run_is_due_at_once() {
        let mut cpu: Cpu<u32> = Cpu::new();
        let s = cpu.enqueue(at(42), Priority(3), Duration::ZERO, 9).unwrap();
        assert_eq!(s.completes_at, at(42));
        match cpu.complete(at(42), s.gen) {
            Completion::Done { payload, next } => {
                assert_eq!(payload, 9);
                assert!(next.is_none());
            }
            Completion::Stale => panic!("live completion"),
        }
        assert!(cpu.is_idle());
    }

    #[test]
    fn preemption_banks_exactly_the_elapsed_time() {
        let mut cpu: Cpu<&str> = Cpu::new();
        let started = Time::from_nanos(1_000_003);
        let preempted = Time::from_nanos(1_417_920);
        let low = cpu.enqueue(started, Priority(5), Duration::from_millis(1), "low").unwrap();
        let high = cpu.enqueue(preempted, Priority(1), Duration::ZERO, "high").unwrap();
        assert!(matches!(cpu.complete(low.completes_at, low.gen), Completion::Stale));
        let resumed = match cpu.complete(preempted, high.gen) {
            Completion::Done { next, .. } => next.unwrap(),
            Completion::Stale => panic!("live completion"),
        };
        // 1 ms − (1 417 920 − 1 000 003) ns left, counted from the resume.
        let left = Duration::from_millis(1).saturating_sub(preempted.elapsed_since(started));
        assert_eq!(left, Duration::from_nanos(582_083));
        assert_eq!(resumed.completes_at, preempted + left);
    }
}
