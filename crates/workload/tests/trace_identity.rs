//! Pins the arrival generators bit for bit: random-phase Poisson traces
//! from `ArrivalTrace::generate`, and burst traces from `BurstScenario`
//! hitting every processor or only listed ones. Every simulated result
//! downstream replays these draws, so a generator change must leave each
//! digest as it is, or say so by editing it.

use rtcm_core::time::Duration;
use rtcm_workload::{ArrivalConfig, ArrivalTrace, BurstScenario, RandomWorkload};

/// `(len, FNV-1a-64 of the little-endian [time_ns, task, seq] per arrival)`.
fn digest(trace: &ArrivalTrace) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in trace {
        for word in [a.time.as_nanos(), u64::from(a.task.0), a.seq] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    (trace.len(), h)
}

#[test]
fn random_phase_poisson_trace_is_pinned() {
    let tasks = RandomWorkload::default().generate(3).unwrap();
    let config = ArrivalConfig { horizon: Duration::from_secs(60), ..Default::default() };
    let trace = ArrivalTrace::generate(&tasks, &config, 11);
    assert_eq!(digest(&trace), (195, 3_238_743_731_419_931_811));
}

#[test]
fn burst_on_every_processor_is_pinned() {
    let (_, trace) = BurstScenario::default().generate(5).unwrap();
    assert_eq!(digest(&trace), (567, 14_631_085_238_831_077_173));
}

#[test]
fn burst_on_listed_processors_is_pinned() {
    let scenario = BurstScenario { processors: vec![0, 2], ..BurstScenario::default() };
    let (_, trace) = scenario.generate(5).unwrap();
    assert_eq!(digest(&trace), (538, 3_267_556_585_478_287_093));
}
