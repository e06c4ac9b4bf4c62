//! Shared evaluation metrics: the paper's *accepted utilization ratio* and
//! mean/max latency accounting for the overhead table (Figure 8).
//!
//! [`UtilizationRatio`] and [`DelayStats`] are read-only snapshots: both
//! substrates count into the runtime's telemetry registry
//! (`rtcm_rt::stats::RtMetrics`) and read these back with `from_parts`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// The paper's §7.1 performance metric: "the total utilization of jobs
/// actually released divided by the total utilization of all jobs
/// arriving". A job's utilization weight is `Σ_j C_{i,j} / D_i`
/// ([`crate::task::TaskSpec::job_utilization`]).
///
/// # Examples
///
/// ```
/// use rtcm_core::metrics::UtilizationRatio;
///
/// // 1.0 of utilization arrived over two jobs; the 0.4 job was released.
/// let r = UtilizationRatio::from_parts(1.0, 0.4, 2, 1);
/// assert!((r.ratio() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationRatio {
    arrived: f64,
    released: f64,
    arrived_jobs: u64,
    released_jobs: u64,
}

impl UtilizationRatio {
    /// The ratio of the given parts: arrived and released utilization
    /// weight, arrived and released job counts — the registry's atomics,
    /// read at snapshot time.
    #[must_use]
    pub fn from_parts(arrived: f64, released: f64, arrived_jobs: u64, released_jobs: u64) -> Self {
        UtilizationRatio { arrived, released, arrived_jobs, released_jobs }
    }

    /// Released / arrived utilization; defined as 1 when nothing arrived.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.arrived <= 0.0 {
            1.0
        } else {
            self.released / self.arrived
        }
    }

    /// Total utilization weight of arrived jobs.
    #[must_use]
    pub fn arrived_utilization(&self) -> f64 {
        self.arrived
    }

    /// Total utilization weight of released jobs.
    #[must_use]
    pub fn released_utilization(&self) -> f64 {
        self.released
    }

    /// Number of arrived jobs.
    #[must_use]
    pub fn arrived_jobs(&self) -> u64 {
        self.arrived_jobs
    }

    /// Number of released jobs.
    #[must_use]
    pub fn released_jobs(&self) -> u64 {
        self.released_jobs
    }
}

impl fmt::Display for UtilizationRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ({}/{} jobs, {:.3}/{:.3} utilization)",
            self.ratio(),
            self.released_jobs,
            self.arrived_jobs,
            self.released,
            self.arrived
        )
    }
}

/// Mean / max / min of an operation's delays, as reported in the paper's
/// Figure 8 (µs rows).
///
/// # Examples
///
/// ```
/// use rtcm_core::metrics::DelayStats;
/// use rtcm_core::time::Duration;
///
/// // Two samples, 100 µs and 300 µs.
/// let us = Duration::from_micros;
/// let s = DelayStats::from_parts(2, 400_000, us(100), us(300));
/// assert_eq!(s.mean(), us(200));
/// assert_eq!(s.max(), us(300));
/// assert_eq!(DelayStats::from_parts(0, 0, us(0), us(0)), DelayStats::default());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayStats {
    count: u64,
    total_ns: u128,
    max: Duration,
    min: Duration,
}

impl DelayStats {
    /// The row of the given parts (sample count, exact nanosecond sum,
    /// exact extremes) — the bridge from the telemetry registry's atomic
    /// histograms to the report's mean/max/min rows. An empty part set
    /// (`count == 0`) is the one empty row, [`DelayStats::default`].
    #[must_use]
    pub fn from_parts(count: u64, total_ns: u128, min: Duration, max: Duration) -> Self {
        if count == 0 {
            DelayStats::default()
        } else {
            DelayStats { count, total_ns, max, min }
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample; zero when empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            let ns = self.total_ns / u128::from(self.count);
            Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
        }
    }

    /// Largest sample; zero when empty.
    #[must_use]
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Smallest sample; zero when empty.
    #[must_use]
    pub fn min(&self) -> Duration {
        self.min
    }
}

impl fmt::Display for DelayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {}us max {}us over {} samples",
            self.mean().as_micros(),
            self.max().as_micros(),
            self.count
        )
    }
}

/// Tracks consecutive job skips per task — quantifying *how much* job
/// skipping (criterion C1) a configuration actually demands from the
/// application.
///
/// The paper's C1 is a yes/no question, but it cites Koren & Shasha's
/// skip-over work for applications tolerating "varying degrees" of
/// skipping. The longest run of consecutive skipped jobs is the quantity
/// such an application must be specified against.
///
/// Tasks are named by their position in the deployed
/// [`TaskSet`](crate::task::TaskSet) (`TaskSet::position`), which the caller
/// has from looking the job's task up.
///
/// # Examples
///
/// ```
/// use rtcm_core::metrics::SkipTracker;
///
/// let mut s = SkipTracker::new(1);
/// s.record(0, false); // skipped
/// s.record(0, false); // skipped again
/// s.record(0, true);  // released
/// assert_eq!(s.worst_case(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipTracker {
    /// `(current run, longest run)` per task position.
    runs: Vec<(u32, u32)>,
}

impl SkipTracker {
    /// Creates a tracker for a deployment of `tasks` tasks.
    #[must_use]
    pub fn new(tasks: usize) -> Self {
        SkipTracker { runs: vec![(0, 0); tasks] }
    }

    /// Records one job outcome for the `task`-th task: `released = false`
    /// means the job was skipped (rejected or dropped).
    ///
    /// # Panics
    ///
    /// Panics if `task` is not below the task count the tracker was built
    /// for.
    pub fn record(&mut self, task: usize, released: bool) {
        let (run, longest) = &mut self.runs[task];
        if released {
            *run = 0;
        } else {
            *run += 1;
            *longest = (*longest).max(*run);
        }
    }

    /// Longest skip run observed across all tasks.
    #[must_use]
    pub fn worst_case(&self) -> u32 {
        self.runs.iter().map(|&(_, longest)| longest).max().unwrap_or(0)
    }

    /// `(task, longest run)` pairs for every task of `tasks` — the set the
    /// positions refer to — that skipped at least once, sorted by task id.
    #[must_use]
    pub fn per_task(&self, tasks: &crate::task::TaskSet) -> Vec<(crate::task::TaskId, u32)> {
        let mut v: Vec<_> = tasks
            .iter()
            .zip(&self.runs)
            .filter(|(_, &(_, longest))| longest > 0)
            .map(|(task, &(_, longest))| (task.id(), longest))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SkipTracker {
        /// Longest skip run observed for the `task`-th task.
        fn max_consecutive(&self, task: usize) -> u32 {
            self.runs.get(task).map_or(0, |&(_, longest)| longest)
        }
    }

    #[test]
    fn ratio_of_empty_is_one() {
        assert_eq!(UtilizationRatio::default().ratio(), 1.0);
    }

    #[test]
    fn ratio_tracks_weights_not_counts() {
        // 1 of 2 jobs but 90% of the utilization.
        let r = UtilizationRatio::from_parts(0.9 + 0.1, 0.9, 2, 1);
        assert!((r.ratio() - 0.9).abs() < 1e-12);
        assert_eq!(r.arrived_jobs(), 2);
        assert_eq!(r.released_jobs(), 1);
    }

    #[test]
    fn delay_stats_mean_max_min() {
        let us = Duration::from_micros;
        let s = DelayStats::from_parts(3, 90_000, us(10), us(60));
        assert_eq!(s.mean(), Duration::from_micros(30));
        assert_eq!(s.max(), Duration::from_micros(60));
        assert_eq!(s.min(), Duration::from_micros(10));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn delay_stats_empty_reads_zero() {
        let s = DelayStats::from_parts(0, 0, Duration::MAX, Duration::ZERO);
        assert_eq!(s, DelayStats::default());
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.min(), Duration::ZERO);
    }

    #[test]
    fn skip_tracker_runs_and_resets() {
        use crate::task::{ProcessorId, TaskBuilder, TaskId, TaskSet};
        // Positions 0 and 1 hold ids 8 and 3: `per_task` answers in ids.
        let tasks = TaskSet::from_tasks([8, 3].map(|id| {
            TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
                .subtask(Duration::from_millis(1), ProcessorId(0), [])
                .build()
                .unwrap()
        }))
        .unwrap();
        let mut s = SkipTracker::new(tasks.len());
        // Run of 3, then release, then run of 1.
        for _ in 0..3 {
            s.record(0, false);
        }
        s.record(0, true);
        s.record(0, false);
        assert_eq!(s.max_consecutive(0), 3);
        // Independent task.
        s.record(1, true);
        assert_eq!(s.max_consecutive(1), 0);
        assert_eq!(s.worst_case(), 3);
        assert_eq!(s.per_task(&tasks), vec![(TaskId(8), 3)]);
    }

    #[test]
    fn skip_tracker_empty_is_zero() {
        let s = SkipTracker::new(0);
        assert_eq!(s.worst_case(), 0);
        assert!(s.per_task(&crate::task::TaskSet::new()).is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let five = Duration::from_micros(5);
        let s = DelayStats::from_parts(1, 5_000, five, five);
        assert!(!s.to_string().is_empty());
        let r = UtilizationRatio::from_parts(0.5, 0.0, 1, 0);
        assert!(!r.to_string().is_empty());
    }
}
