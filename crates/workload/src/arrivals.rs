//! Arrival traces: deterministic, replayable job arrival sequences.
//!
//! The paper compares 15 strategy combinations on *the same* ten task sets;
//! for that comparison to be meaningful the arrival pattern must also be
//! identical across combinations. We therefore pre-generate an
//! [`ArrivalTrace`] per (task set, seed) and replay it into the simulator
//! for every combination.
//!
//! * **Periodic tasks** release every period, starting at a random phase in
//!   `[0, period)` (the paper does not stagger explicitly, but its
//!   "synthetic utilization 0.5 *if* all tasks arrive simultaneously"
//!   phrasing implies non-simultaneous arrivals; phase randomization is the
//!   standard way to realize that and is seedable here).
//! * **Aperiodic tasks** arrive as a Poisson process: exponential
//!   interarrival times with mean `poisson_factor × deadline`. The paper
//!   does not state its rate; 2× the deadline is our documented default
//!   (EXPERIMENTS.md, "Retired: `ablation_poisson`", has the sweep).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rtcm_core::task::{TaskId, TaskSet};
use rtcm_core::time::{Duration, Time};

/// How periodic tasks are phased at the start of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Phasing {
    /// Every periodic task releases its first job at time zero.
    Simultaneous,
    /// Each periodic task starts at an independent uniform phase in
    /// `[0, period)`.
    #[default]
    RandomPhase,
}

/// Parameters for trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Arrivals are generated in `[0, horizon)`.
    pub horizon: Duration,
    /// Mean aperiodic interarrival = `poisson_factor × deadline`.
    pub poisson_factor: f64,
    /// Periodic phasing policy.
    pub phasing: Phasing,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            horizon: Duration::from_secs(300), // the paper's 5-minute runs
            poisson_factor: 2.0,
            phasing: Phasing::RandomPhase,
        }
    }
}

/// One job arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival instant.
    pub time: Time,
    /// The owning task.
    pub task: TaskId,
    /// Job sequence number within the task (0-based).
    pub seq: u64,
}

/// A time-sorted sequence of job arrivals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Generates the trace for `tasks` under `config`, deterministically in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.poisson_factor` is not positive and finite, or if
    /// it makes an aperiodic task's mean interarrival round to 0 ns (every
    /// draw would then be 0 ns, and the trace would never reach the
    /// horizon).
    #[must_use]
    pub fn generate(tasks: &TaskSet, config: &ArrivalConfig, seed: u64) -> Self {
        assert!(
            config.poisson_factor.is_finite() && config.poisson_factor > 0.0,
            "poisson_factor must be positive and finite"
        );
        let mut arrivals = Vec::new();
        // One independent deterministic stream per task, so adding a task
        // does not reshuffle the others.
        for task in tasks.iter() {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(u64::from(task.id().0) + 1)),
            );
            match task.kind().period() {
                Some(period) => push_periodic(
                    &mut rng,
                    task.id(),
                    period,
                    config.phasing,
                    config.horizon,
                    &mut arrivals,
                ),
                None => {
                    let mean = task.deadline().mul_f64(config.poisson_factor);
                    assert!(
                        !mean.is_zero(),
                        "poisson_factor {} gives {} a mean interarrival of 0 ns",
                        config.poisson_factor,
                        task.id()
                    );
                    let mut t = Time::ZERO + exponential(&mut rng, mean);
                    let mut seq = 0u64;
                    while t.elapsed_since(Time::ZERO) < config.horizon {
                        arrivals.push(Arrival { time: t, task: task.id(), seq });
                        seq += 1;
                        t += exponential(&mut rng, mean);
                    }
                }
            }
        }
        arrivals.sort_by_key(|a| (a.time, a.task, a.seq));
        ArrivalTrace { arrivals }
    }

    /// Builds a trace from raw arrivals (sorted internally). Used by
    /// scenario generators that need non-homogeneous arrival processes.
    #[must_use]
    pub fn from_arrivals(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| (a.time, a.task, a.seq));
        ArrivalTrace { arrivals }
    }

    /// The arrivals, sorted by time.
    #[must_use]
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Iterates over the arrivals in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.arrivals.iter()
    }

    /// Number of arrivals in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns true if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Total utilization weight offered by the trace (the denominator of
    /// the accepted utilization ratio): `Σ_jobs Σ_j C/D`.
    #[must_use]
    pub fn offered_utilization(&self, tasks: &TaskSet) -> f64 {
        self.arrivals
            .iter()
            .filter_map(|a| tasks.get(a.task))
            .map(rtcm_core::task::TaskSpec::job_utilization)
            .sum()
    }
}

impl<'a> IntoIterator for &'a ArrivalTrace {
    type Item = &'a Arrival;
    type IntoIter = std::slice::Iter<'a, Arrival>;

    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.iter()
    }
}

/// Appends `task`'s strict periodic releases in `[0, horizon)`, the first
/// at a phase drawn from `rng` under [`Phasing::RandomPhase`] (no draw under
/// [`Phasing::Simultaneous`]).
pub(crate) fn push_periodic(
    rng: &mut StdRng,
    task: TaskId,
    period: Duration,
    phasing: Phasing,
    horizon: Duration,
    out: &mut Vec<Arrival>,
) {
    let phase = match phasing {
        Phasing::Simultaneous => Duration::ZERO,
        Phasing::RandomPhase => Duration::from_nanos(rng.gen_range(0..period.as_nanos().max(1))),
    };
    let mut t = Time::ZERO + phase;
    let mut seq = 0;
    while t.elapsed_since(Time::ZERO) < horizon {
        out.push(Arrival { time: t, task, seq });
        seq += 1;
        t += period;
    }
}

/// Samples an exponential with the given mean via inverse transform.
pub(crate) fn exponential(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    mean.mul_f64(-u.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::RandomWorkload;
    use rtcm_core::task::{ProcessorId, TaskBuilder};

    fn small_set() -> TaskSet {
        let periodic = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(5), ProcessorId(0), [])
            .build()
            .unwrap();
        let aperiodic = TaskBuilder::aperiodic(TaskId(1))
            .deadline(Duration::from_millis(200))
            .subtask(Duration::from_millis(5), ProcessorId(0), [])
            .build()
            .unwrap();
        TaskSet::from_tasks([periodic, aperiodic]).unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let set = small_set();
        let cfg = ArrivalConfig::default();
        let a = ArrivalTrace::generate(&set, &cfg, 1);
        let b = ArrivalTrace::generate(&set, &cfg, 1);
        assert_eq!(a, b);
        let c = ArrivalTrace::generate(&set, &cfg, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_by_time() {
        let set = RandomWorkload::default().generate(3).unwrap();
        let trace = ArrivalTrace::generate(&set, &ArrivalConfig::default(), 3);
        for pair in trace.arrivals().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn periodic_arrivals_are_spaced_by_period() {
        let set = small_set();
        let cfg = ArrivalConfig { horizon: Duration::from_secs(1), ..ArrivalConfig::default() };
        let trace = ArrivalTrace::generate(&set, &cfg, 5);
        let times: Vec<Time> =
            trace.iter().filter(|a| a.task == TaskId(0)).map(|a| a.time).collect();
        assert!(!times.is_empty());
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], Duration::from_millis(100));
        }
        // Sequence numbers are dense.
        let seqs: Vec<u64> = trace.iter().filter(|a| a.task == TaskId(0)).map(|a| a.seq).collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn simultaneous_phasing_starts_at_zero() {
        let set = small_set();
        let cfg = ArrivalConfig {
            phasing: Phasing::Simultaneous,
            horizon: Duration::from_millis(500),
            ..ArrivalConfig::default()
        };
        let trace = ArrivalTrace::generate(&set, &cfg, 5);
        let first_periodic = trace.iter().find(|a| a.task == TaskId(0)).unwrap();
        assert_eq!(first_periodic.time, Time::ZERO);
    }

    #[test]
    fn random_phase_is_within_one_period() {
        let set = small_set();
        let cfg = ArrivalConfig { horizon: Duration::from_secs(1), ..ArrivalConfig::default() };
        for seed in 0..20 {
            let trace = ArrivalTrace::generate(&set, &cfg, seed);
            let first = trace.iter().find(|a| a.task == TaskId(0)).unwrap();
            assert!(first.time.elapsed_since(Time::ZERO) < Duration::from_millis(100));
        }
    }

    #[test]
    fn poisson_mean_is_roughly_factor_times_deadline() {
        // Aperiodic task with 200 ms deadline, factor 2 -> mean 400 ms.
        let set = small_set();
        let cfg = ArrivalConfig {
            horizon: Duration::from_secs(400),
            poisson_factor: 2.0,
            ..ArrivalConfig::default()
        };
        let trace = ArrivalTrace::generate(&set, &cfg, 11);
        let n = trace.iter().filter(|a| a.task == TaskId(1)).count();
        let expected = 400.0 / 0.4;
        let deviation = (n as f64 - expected).abs() / expected;
        assert!(deviation < 0.15, "got {n} arrivals, expected ≈ {expected}");
    }

    #[test]
    fn offered_utilization_weights_jobs() {
        let set = small_set();
        let cfg = ArrivalConfig {
            horizon: Duration::from_millis(300),
            phasing: Phasing::Simultaneous,
            ..ArrivalConfig::default()
        };
        let trace = ArrivalTrace::generate(&set, &cfg, 1);
        let periodic_jobs = trace.iter().filter(|a| a.task == TaskId(0)).count() as f64;
        let aperiodic_jobs = trace.iter().filter(|a| a.task == TaskId(1)).count() as f64;
        let expected = periodic_jobs * 0.05 + aperiodic_jobs * 0.025;
        assert!((trace.offered_utilization(&set) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "poisson_factor")]
    fn zero_poisson_factor_panics() {
        let set = small_set();
        let cfg = ArrivalConfig { poisson_factor: 0.0, ..ArrivalConfig::default() };
        let _ = ArrivalTrace::generate(&set, &cfg, 0);
    }

    #[test]
    #[should_panic(expected = "gives T1 a mean interarrival of 0 ns")]
    fn sub_nanosecond_mean_interarrival_panics_naming_the_task() {
        // 200 ms × 1e-12 rounds to 0 ns: the draws would never advance.
        let set = small_set();
        let cfg = ArrivalConfig { poisson_factor: 1e-12, ..ArrivalConfig::default() };
        let _ = ArrivalTrace::generate(&set, &cfg, 0);
    }
}
