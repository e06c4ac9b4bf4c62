//! Domain scenarios beyond the paper's two workloads — most importantly
//! the **aperiodic burst**, the situation the paper's introduction and
//! §7.2 motivate: "a blockage in a fluid flow valve may cause a sharp
//! increase in the load on the processors immediately connected to it, as
//! aperiodic alert and diagnostic tasks are launched."
//!
//! [`BurstScenario`] generates a §7.1-style task set plus an arrival trace
//! whose aperiodic arrival rate is multiplied by `intensity` inside a
//! burst window — a piecewise-constant non-homogeneous Poisson process
//! (sampled exactly: exponential memorylessness lets the sampler restart
//! at each rate boundary). The window hits every processor at once, or
//! only the listed ones ([`BurstScenario::processors`]). Periodic tasks
//! release through the same sampler as [`ArrivalTrace::generate`].
//!
//! # Examples
//!
//! ```
//! use rtcm_core::time::Duration;
//! use rtcm_workload::scenario::BurstScenario;
//!
//! let scenario = BurstScenario::default();
//! let (tasks, trace) = scenario.generate(1)?;
//! assert_eq!(tasks.len(), 9);
//! assert!(!trace.is_empty());
//! # let _ = Duration::ZERO;
//! # Ok::<(), rtcm_workload::WorkloadError>(())
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rtcm_core::reconfig::ModeSchedule;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{TaskId, TaskSet};
use rtcm_core::time::{Duration, Time};

use crate::arrivals::{exponential, push_periodic, Arrival, ArrivalTrace, Phasing};
use crate::generate::{RandomWorkload, WorkloadError};

/// A transient aperiodic overload on top of a random workload.
///
/// Aperiodic tasks whose *arrival processor* (first subtask's primary) is
/// in [`BurstScenario::processors`] burst together during the window;
/// others keep their nominal rate. The default, an empty list, bursts
/// **every** processor at once: the paper's motivating cascade scaled up
/// to a plant-wide event, which load balancing alone cannot absorb (every
/// replica group is busy too). `examples/governed_recovery.rs` uses it to
/// stress the governor's closed loop.
///
/// # Examples
///
/// ```
/// use rtcm_workload::BurstScenario;
///
/// let scenario = BurstScenario { processors: vec![0, 2], ..BurstScenario::default() };
/// let (tasks, trace) = scenario.generate(3)?;
/// assert!(!trace.is_empty());
/// assert!(scenario.hits_processor(2) && !scenario.hits_processor(1));
/// # let _ = tasks;
/// # Ok::<(), rtcm_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstScenario {
    /// The underlying task-set shape.
    pub workload: RandomWorkload,
    /// Total trace horizon.
    pub horizon: Duration,
    /// Nominal mean aperiodic interarrival = `poisson_factor × deadline`.
    pub poisson_factor: f64,
    /// Periodic phasing.
    pub phasing: Phasing,
    /// Burst window start (shared by every affected processor — the
    /// correlation).
    pub burst_start: Duration,
    /// Burst window length.
    pub burst_duration: Duration,
    /// Arrival-rate multiplier inside the window (≥ 1).
    pub intensity: f64,
    /// Arrival processors hit simultaneously; empty = all of them.
    pub processors: Vec<u16>,
}

impl Default for BurstScenario {
    fn default() -> Self {
        BurstScenario {
            workload: RandomWorkload::default(),
            horizon: Duration::from_secs(120),
            poisson_factor: 2.0,
            phasing: Phasing::RandomPhase,
            burst_start: Duration::from_secs(40),
            burst_duration: Duration::from_secs(20),
            intensity: 8.0,
            processors: Vec::new(),
        }
    }
}

impl BurstScenario {
    /// End of the burst window.
    #[must_use]
    pub fn burst_end(&self) -> Duration {
        self.burst_start + self.burst_duration
    }

    /// Returns true if `t` lies inside the burst window.
    #[must_use]
    pub fn in_burst(&self, t: Time) -> bool {
        let offset = t.elapsed_since(Time::ZERO);
        offset >= self.burst_start && offset < self.burst_end()
    }

    /// True if an aperiodic task arriving on `processor` bursts.
    #[must_use]
    pub fn hits_processor(&self, processor: u16) -> bool {
        self.processors.is_empty() || self.processors.contains(&processor)
    }

    /// Generates the task set and its burst-shaped arrival trace.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Parameters`] for inconsistent parameters
    /// (intensity below 1 or factor not positive, burst outside the
    /// horizon, a listed processor outside the workload's range, an
    /// aperiodic task whose base or burst mean interarrival rounds to
    /// 0 ns), or the workload's error for unsatisfiable shapes.
    pub fn generate(&self, seed: u64) -> Result<(TaskSet, ArrivalTrace), WorkloadError> {
        self.validate()?;
        let tasks = self.workload.generate(seed)?;
        let mut arrivals = Vec::new();
        for task in tasks.iter() {
            let mut rng = task_stream(seed, task.id());
            match task.kind().period() {
                Some(period) => push_periodic(
                    &mut rng,
                    task.id(),
                    period,
                    self.phasing,
                    self.horizon,
                    &mut arrivals,
                ),
                None => {
                    let base_mean = task.deadline().mul_f64(self.poisson_factor);
                    let burst_mean = if self.hits_processor(task.subtasks()[0].primary.0) {
                        base_mean.mul_f64(1.0 / self.intensity)
                    } else {
                        base_mean // unaffected: homogeneous throughout
                    };
                    // The burst mean is the smaller: 0 ns here would never advance.
                    if burst_mean.is_zero() {
                        let msg = format!("{} would arrive every 0 ns", task.id());
                        return Err(WorkloadError::Parameters(msg));
                    }
                    self.sample_piecewise_poisson(
                        &mut rng,
                        base_mean,
                        burst_mean,
                        task.id(),
                        &mut arrivals,
                    );
                }
            }
        }
        Ok((tasks, ArrivalTrace::from_arrivals(arrivals)))
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let Self { intensity, poisson_factor: factor, burst_start: start, horizon, .. } = self;
        let (end, procs) = (self.burst_end(), self.workload.processors);
        let msg = if !(intensity.is_finite() && *intensity >= 1.0) {
            format!("burst intensity {intensity} must be finite and >= 1")
        } else if !(factor.is_finite() && *factor > 0.0) {
            format!("poisson factor {factor} must be positive and finite")
        } else if end > *horizon {
            format!("burst window [{start}, {end}) extends beyond the horizon {horizon}")
        } else if let Some(bad) = self.processors.iter().find(|p| **p >= procs) {
            format!("burst processor {bad} outside the workload's 0..{procs} range")
        } else {
            return Ok(());
        };
        Err(WorkloadError::Parameters(msg))
    }

    /// Piecewise-constant non-homogeneous Poisson sampling: advance with
    /// the current window's mean interarrival (`burst_mean` inside the
    /// burst window, `base_mean` outside); a jump crossing a window
    /// boundary is clamped to the boundary and resampled (exact, by
    /// memorylessness).
    fn sample_piecewise_poisson(
        &self,
        rng: &mut StdRng,
        base_mean: Duration,
        burst_mean: Duration,
        task: TaskId,
        out: &mut Vec<Arrival>,
    ) {
        let (burst_start, burst_end, horizon) = (self.burst_start, self.burst_end(), self.horizon);
        let mut t = Duration::ZERO;
        let mut seq = 0;
        loop {
            let (mean, window_end) = if t < burst_start {
                (base_mean, burst_start)
            } else if t < burst_end {
                (burst_mean, burst_end)
            } else {
                (base_mean, horizon)
            };
            let next = t + exponential(rng, mean);
            if next >= horizon {
                if window_end >= horizon {
                    break;
                }
                // The jump crossed into the next window before the
                // horizon: clamp and resample from the boundary.
                t = window_end;
                continue;
            }
            if next >= window_end && window_end < horizon {
                t = window_end;
                continue;
            }
            t = next;
            out.push(Arrival { time: Time::ZERO + t, task, seq });
            seq += 1;
        }
    }
}

/// Per-task deterministic RNG stream, independent of iteration order.
fn task_stream(seed: u64, task: TaskId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(u64::from(task.0) + 1)))
}

/// A [`BurstScenario`] paired with a **defensive mode change**: the system
/// starts in a vulnerable baseline configuration, and a timed
/// [`ModeSchedule`] switches it to a defensive configuration mid-burst
/// (and optionally back once the storm has passed) — the mode-change
/// experiment behind `examples/live_reconfig.rs`.
///
/// The canonical instance is an overloaded per-job system recovering by
/// switching to per-task admission: the swap reseeds the currently live
/// periodic tasks into reservations, so the periodic baseline stops
/// competing with (and losing to) the aperiodic alert flood.
///
/// # Examples
///
/// ```
/// use rtcm_workload::ModeChangeScenario;
///
/// let scenario = ModeChangeScenario::default();
/// let (tasks, trace, schedule) = scenario.generate(7)?;
/// assert!(!trace.is_empty());
/// assert_eq!(schedule.len(), 2, "switch in, relax out");
/// # let _ = tasks;
/// # Ok::<(), rtcm_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeChangeScenario {
    /// The overload being defended against.
    pub burst: BurstScenario,
    /// Configuration the system starts in.
    pub baseline: ServiceConfig,
    /// Configuration switched to mid-burst.
    pub defensive: ServiceConfig,
    /// Delay from burst onset to the defensive switch (detection lag).
    pub trigger_delay: Duration,
    /// Delay after burst end before switching back to the baseline;
    /// `None` stays defensive for the rest of the run.
    pub relax_delay: Option<Duration>,
}

impl Default for ModeChangeScenario {
    fn default() -> Self {
        ModeChangeScenario {
            burst: BurstScenario::default(),
            baseline: "J_N_N".parse().expect("static label"),
            defensive: "T_T_T".parse().expect("static label"),
            trigger_delay: Duration::from_secs(5),
            relax_delay: Some(Duration::from_secs(10)),
        }
    }
}

impl ModeChangeScenario {
    /// The instant of the defensive switch.
    #[must_use]
    pub fn switch_at(&self) -> Time {
        Time::ZERO + self.burst.burst_start + self.trigger_delay
    }

    /// The timed schedule: defensive switch mid-burst, optional relax
    /// back to the baseline after the burst.
    #[must_use]
    pub fn schedule(&self) -> ModeSchedule {
        let mut schedule = ModeSchedule::new().then_at(self.switch_at(), self.defensive);
        if let Some(relax) = self.relax_delay {
            schedule.push(Time::ZERO + self.burst.burst_end() + relax, self.baseline);
        }
        schedule
    }

    /// Generates the task set, the burst-shaped arrival trace, and the
    /// defensive mode schedule.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for invalid configurations (§4.5), a
    /// switch instant outside the burst window, or any underlying
    /// [`BurstScenario`] parameter error.
    pub fn generate(
        &self,
        seed: u64,
    ) -> Result<(TaskSet, ArrivalTrace, ModeSchedule), WorkloadError> {
        for cfg in [self.baseline, self.defensive] {
            if !cfg.is_valid() {
                return Err(WorkloadError::Parameters(format!(
                    "mode-change scenario uses invalid combination {cfg}"
                )));
            }
        }
        if self.burst.burst_start + self.trigger_delay >= self.burst.burst_end() {
            return Err(WorkloadError::Parameters(format!(
                "defensive switch at {} misses the burst window [{}, {})",
                self.burst.burst_start + self.trigger_delay,
                self.burst.burst_start,
                self.burst.burst_end()
            )));
        }
        let (tasks, trace) = self.burst.generate(seed)?;
        Ok((tasks, trace, self.schedule()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_core::task::TaskId;

    fn scenario() -> BurstScenario {
        BurstScenario {
            horizon: Duration::from_secs(90),
            burst_start: Duration::from_secs(30),
            burst_duration: Duration::from_secs(30),
            intensity: 10.0,
            ..BurstScenario::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = scenario();
        let (t1, a1) = s.generate(5).unwrap();
        let (t2, a2) = s.generate(5).unwrap();
        assert_eq!(t1.tasks(), t2.tasks());
        assert_eq!(a1, a2);
    }

    #[test]
    fn burst_window_is_denser() {
        let s = scenario();
        let (tasks, trace) = s.generate(3).unwrap();
        let aperiodic: Vec<TaskId> =
            tasks.iter().filter(|t| !t.is_periodic()).map(|t| t.id()).collect();
        let thirds = |lo: u64, hi: u64| {
            trace
                .iter()
                .filter(|a| {
                    aperiodic.contains(&a.task)
                        && a.time >= Time::ZERO + Duration::from_secs(lo)
                        && a.time < Time::ZERO + Duration::from_secs(hi)
                })
                .count()
        };
        let before = thirds(0, 30);
        let during = thirds(30, 60);
        let after = thirds(60, 90);
        assert!(
            during > 3 * before.max(1),
            "burst ({during}) must be much denser than before ({before})"
        );
        assert!(
            during > 3 * after.max(1),
            "burst ({during}) must be much denser than after ({after})"
        );
    }

    #[test]
    fn periodic_tasks_are_unaffected_by_the_burst() {
        let s = scenario();
        let (tasks, trace) = s.generate(4).unwrap();
        for task in tasks.iter().filter(|t| t.is_periodic()) {
            let times: Vec<Time> =
                trace.iter().filter(|a| a.task == task.id()).map(|a| a.time).collect();
            let period = task.kind().period().unwrap();
            for pair in times.windows(2) {
                assert_eq!(pair[1] - pair[0], period);
            }
        }
    }

    #[test]
    fn in_burst_predicate() {
        let s = scenario();
        assert!(!s.in_burst(Time::ZERO + Duration::from_secs(29)));
        assert!(s.in_burst(Time::ZERO + Duration::from_secs(30)));
        assert!(s.in_burst(Time::ZERO + Duration::from_secs(59)));
        assert!(!s.in_burst(Time::ZERO + Duration::from_secs(60)));
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut s = scenario();
        s.intensity = 0.5;
        assert!(s.generate(0).is_err());

        let mut s = scenario();
        s.burst_start = Duration::from_secs(80);
        s.burst_duration = Duration::from_secs(30);
        assert!(s.generate(0).is_err());

        let mut s = scenario();
        s.poisson_factor = 0.0;
        assert!(s.generate(0).is_err());
    }

    #[test]
    fn zero_mean_interarrival_is_an_error_naming_the_task() {
        // A burst mean of 0 ns would push arrivals at one instant forever.
        let s = BurstScenario { intensity: 1e12, ..scenario() };
        let Err(WorkloadError::Parameters(msg)) = s.generate(1) else {
            panic!("a 0 ns burst mean must be refused");
        };
        let tasks = s.workload.generate(1).unwrap();
        let first = tasks.iter().find(|t| !t.is_periodic()).unwrap().id();
        assert!(msg.starts_with(&format!("{first} would arrive every 0 ns")), "{msg}");

        // A factor that rounds the base mean to 0 ns hits the same loop
        // outside the window, on spared processors too.
        let s = BurstScenario { poisson_factor: 1e-12, processors: vec![0], ..scenario() };
        assert!(matches!(s.generate(1), Err(WorkloadError::Parameters(_))));
    }

    #[test]
    fn mode_change_scenario_builds_schedule_inside_burst() {
        let s = ModeChangeScenario {
            burst: scenario(),
            trigger_delay: Duration::from_secs(5),
            relax_delay: Some(Duration::from_secs(10)),
            ..ModeChangeScenario::default()
        };
        let (_, trace, schedule) = s.generate(1).unwrap();
        assert!(!trace.is_empty());
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule.changes()[0].at, Time::ZERO + Duration::from_secs(35));
        assert_eq!(schedule.changes()[0].services, s.defensive);
        assert_eq!(schedule.changes()[1].at, Time::ZERO + Duration::from_secs(70));
        assert_eq!(schedule.changes()[1].services, s.baseline);
        assert!(s.burst.in_burst(s.switch_at()), "the switch lands mid-burst");
        schedule.validate().unwrap();
    }

    #[test]
    fn mode_change_scenario_rejects_bad_parameters() {
        let mut s = ModeChangeScenario { burst: scenario(), ..ModeChangeScenario::default() };
        s.defensive = ServiceConfig::new(
            rtcm_core::strategy::AcStrategy::PerTask,
            rtcm_core::strategy::IrStrategy::PerJob,
            rtcm_core::strategy::LbStrategy::None,
        );
        assert!(s.generate(0).is_err(), "invalid defensive combination");

        let mut s = ModeChangeScenario { burst: scenario(), ..ModeChangeScenario::default() };
        s.trigger_delay = Duration::from_secs(40);
        assert!(s.generate(0).is_err(), "switch after the burst window");
    }

    fn correlated(processors: Vec<u16>) -> BurstScenario {
        BurstScenario { processors, ..scenario() }
    }

    /// In-window vs out-of-window arrival counts for the given tasks.
    fn window_counts(
        trace: &ArrivalTrace,
        tasks: &[rtcm_core::task::TaskId],
        lo: u64,
        hi: u64,
    ) -> usize {
        trace
            .iter()
            .filter(|a| {
                tasks.contains(&a.task)
                    && a.time >= Time::ZERO + Duration::from_secs(lo)
                    && a.time < Time::ZERO + Duration::from_secs(hi)
            })
            .count()
    }

    #[test]
    fn correlated_burst_hits_only_the_listed_processors() {
        let s = correlated(vec![0, 1]);
        let (tasks, trace) = s.generate(5).unwrap();
        let hit: Vec<_> = tasks
            .iter()
            .filter(|t| !t.is_periodic() && s.hits_processor(t.subtasks()[0].primary.0))
            .map(|t| t.id())
            .collect();
        let spared: Vec<_> = tasks
            .iter()
            .filter(|t| !t.is_periodic() && !s.hits_processor(t.subtasks()[0].primary.0))
            .map(|t| t.id())
            .collect();
        if !hit.is_empty() {
            let before = window_counts(&trace, &hit, 0, 30);
            let during = window_counts(&trace, &hit, 30, 60);
            assert!(
                during > 3 * before.max(1),
                "hit processors burst: {during} during vs {before} before"
            );
        }
        if !spared.is_empty() {
            let before = window_counts(&trace, &spared, 0, 30);
            let during = window_counts(&trace, &spared, 30, 60);
            assert!(
                during < 3 * (before + 3),
                "spared processors stay nominal: {during} during vs {before} before"
            );
        }
    }

    #[test]
    fn empty_processor_list_bursts_everything_simultaneously() {
        let s = correlated(Vec::new());
        let (tasks, trace) = s.generate(3).unwrap();
        // Every aperiodic task individually bursts inside the same window —
        // the correlation a per-task burst cannot produce.
        for task in tasks.iter().filter(|t| !t.is_periodic()) {
            let ids = [task.id()];
            let before = window_counts(&trace, &ids, 0, 30);
            let during = window_counts(&trace, &ids, 30, 60);
            assert!(during > before.max(1), "{}: {during} during vs {before} before", task.id());
        }
        assert!(s.hits_processor(4));
    }

    #[test]
    fn correlated_burst_is_deterministic_and_validated() {
        let s = correlated(vec![2]);
        let (t1, a1) = s.generate(9).unwrap();
        let (t2, a2) = s.generate(9).unwrap();
        assert_eq!(t1.tasks(), t2.tasks());
        assert_eq!(a1, a2);
        for pair in a1.arrivals().windows(2) {
            assert!(pair[0].time <= pair[1].time, "sorted trace");
        }

        let mut bad = correlated(vec![0]);
        bad.intensity = 0.0;
        assert!(bad.generate(0).is_err());

        let bad = correlated(vec![9]);
        assert!(matches!(bad.generate(0), Err(WorkloadError::Parameters(_))), "unknown processor");

        let mut bad = correlated(Vec::new());
        bad.burst_start = Duration::from_secs(80);
        bad.burst_duration = Duration::from_secs(30);
        assert!(bad.generate(0).is_err());
    }

    #[test]
    fn arrivals_stay_inside_horizon_and_sorted() {
        let s = scenario();
        let (_, trace) = s.generate(9).unwrap();
        for pair in trace.arrivals().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for a in trace.iter() {
            assert!(a.time.elapsed_since(Time::ZERO) < s.horizon);
        }
    }
}
