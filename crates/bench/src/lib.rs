//! Shared experiment harness for the evaluation benches: runs the §7
//! experiments and formats the paper's tables/figures as text.
//!
//! Every figure/table bench (`cargo bench -p rtcm-bench`) funnels through
//! [`run_combo_experiment`], which replays identical task sets and arrival
//! traces across strategy combinations — the paper's methodology of running
//! the same ten task sets under each of the 15 valid configurations.
//!
//! Environment knobs (read by the bench binaries, not this library):
//!
//! * `RTCM_QUICK=1` — shrink horizons/seed counts for smoke runs.
//! * `RTCM_SEEDS=n` — override the number of task sets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod govern;
pub mod reconfig;

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::TaskSet;
use rtcm_core::time::Duration;
use rtcm_sim::{simulate, OverheadModel, SimConfig, SimReport};
use rtcm_workload::{ArrivalConfig, ArrivalTrace};

/// Result of one strategy combination averaged over all seeds.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// The combination, e.g. `J_J_T`.
    pub config: ServiceConfig,
    /// Per-seed accepted utilization ratios.
    pub ratios: Vec<f64>,
    /// Per-seed deadline misses (sanity: should be zero or tiny).
    pub misses: Vec<u64>,
    /// Per-seed re-allocation counts.
    pub reallocations: Vec<u64>,
    /// Per-seed worst consecutive-skip runs (C1 demand).
    pub skip_depths: Vec<u32>,
}

impl ComboResult {
    /// Mean accepted utilization ratio over seeds.
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        mean(&self.ratios)
    }

    /// Total deadline misses over seeds.
    fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Mean re-allocations per run.
    fn mean_reallocations(&self) -> f64 {
        if self.reallocations.is_empty() {
            0.0
        } else {
            self.reallocations.iter().sum::<u64>() as f64 / self.reallocations.len() as f64
        }
    }

    /// Worst consecutive-skip run over all seeds.
    fn max_skip_depth(&self) -> u32 {
        self.skip_depths.iter().copied().max().unwrap_or(0)
    }
}

/// Arithmetic mean; 0 for empty input.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A generated experiment instance: one task set plus its arrival trace.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The task set.
    pub tasks: TaskSet,
    /// Its replayable arrival trace.
    pub trace: ArrivalTrace,
}

/// Generates `seeds.len()` instances via `gen`, pairing each task set with
/// a trace derived from the same seed.
pub fn instances(
    seeds: &[u64],
    arrival: &ArrivalConfig,
    gen: impl Fn(u64) -> TaskSet,
) -> Vec<Instance> {
    seeds
        .iter()
        .map(|&seed| {
            let tasks = gen(seed);
            let trace = ArrivalTrace::generate(&tasks, arrival, seed);
            Instance { tasks, trace }
        })
        .collect()
}

/// Runs every valid strategy combination over all instances.
pub fn run_combo_experiment(instances: &[Instance], overheads: OverheadModel) -> Vec<ComboResult> {
    ServiceConfig::all_valid()
        .into_iter()
        .map(|config| {
            let mut ratios = Vec::with_capacity(instances.len());
            let mut misses = Vec::with_capacity(instances.len());
            let mut reallocations = Vec::with_capacity(instances.len());
            let mut skip_depths = Vec::with_capacity(instances.len());
            for (i, inst) in instances.iter().enumerate() {
                let sim_cfg = SimConfig { services: config, overheads, seed: i as u64 };
                let report: SimReport = simulate(&inst.tasks, &inst.trace, &sim_cfg)
                    .expect("valid combos over generated workloads");
                ratios.push(report.ratio.ratio());
                misses.push(report.deadline_misses);
                reallocations.push(report.reallocations);
                skip_depths.push(report.max_consecutive_skips);
            }
            ComboResult { config, ratios, misses, reallocations, skip_depths }
        })
        .collect()
}

/// Renders a figure-5/6 style table plus an ASCII bar per combination.
#[must_use]
pub fn format_ratio_table(title: &str, results: &[ComboResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(
        "combo   mean-ratio  bar (0..1)                                misses  reallocs  maxskip\n",
    );
    for r in results {
        let ratio = r.mean_ratio();
        let bar_len = (ratio * 40.0).round().clamp(0.0, 40.0) as usize;
        out.push_str(&format!(
            "{:6}  {:>10.3}  {:<40}  {:>6}  {:>8.1}  {:>7}\n",
            r.config.label(),
            ratio,
            "#".repeat(bar_len),
            r.total_misses(),
            r.mean_reallocations(),
            r.max_skip_depth(),
        ));
    }
    out
}

/// Serializes results as JSON lines for downstream analysis.
#[must_use]
pub fn to_json(results: &[ComboResult]) -> String {
    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "combo": r.config.label(),
                "mean_ratio": r.mean_ratio(),
                "ratios": r.ratios,
                "misses": r.misses,
            })
        })
        .collect();
    serde_json::to_string_pretty(&rows).expect("json of plain data")
}

/// What one timed arm of a micro-benchmark cost per op.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Ops timed (warm-up excluded).
    pub ops: usize,
    /// Mean over every timed op, in nanoseconds.
    pub mean_ns: f64,
    /// Median per-op cost over the timed windows, in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-op cost over the timed windows, in nanoseconds.
    pub p99_ns: f64,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:>10.1} ns  p50 {:>10.1} ns  p99 {:>10.1} ns",
            self.mean_ns, self.p50_ns, self.p99_ns
        )
    }
}

/// The micro-benchmarks' one timing loop: `samples` timed windows of
/// `window` calls of `op` each, after `samples / 10` untimed warm-up
/// windows. Every window first builds its input with `setup`, and drops
/// it after the clock stops, so neither is timed — a bench that must
/// start each op from a fresh copy of some state clones it in `setup`
/// with a window of 1. `op`'s result goes through [`std::hint::black_box`].
///
/// # Panics
///
/// Panics if `samples` or `window` is zero.
pub fn measure<I, O>(
    samples: usize,
    window: usize,
    mut setup: impl FnMut() -> I,
    mut op: impl FnMut(&mut I) -> O,
) -> Timing {
    assert!(samples > 0 && window > 0, "nothing to time");
    let mut run_window = || {
        let mut input = setup();
        let start = std::time::Instant::now();
        for _ in 0..window {
            std::hint::black_box(op(&mut input));
        }
        let elapsed = start.elapsed();
        drop(input);
        elapsed
    };
    for _ in 0..samples / 10 {
        run_window();
    }
    let mut spent = std::time::Duration::ZERO;
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let elapsed = run_window();
            spent += elapsed;
            elapsed.as_secs_f64() * 1e9 / window as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    let pct = |p: f64| per_op[((samples - 1) as f64 * p) as usize];
    let ops = samples * window;
    Timing {
        ops,
        mean_ns: spent.as_secs_f64() * 1e9 / ops as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

/// Schema tag of one `BENCH_*.json` trajectory point.
pub const BENCH_SCHEMA: &str = "rtcm-bench/1";

/// Appends one trajectory point — `{schema, bench, git_rev, cores, quick,
/// results[]}` — to the JSON array in `BENCH_<bench>.json` at the
/// workspace root, so the file accumulates one point per recorded run
/// instead of holding only the last. A file still in a bench's earlier
/// single-object layout becomes the array's first element.
///
/// # Errors
///
/// I/O errors from reading or writing the file; an existing file that is
/// not JSON is reported as `InvalidData` and left untouched.
pub fn append_bench_point(
    file_name: &str,
    bench: &str,
    quick: bool,
    results: Vec<serde_json::Value>,
) -> std::io::Result<std::path::PathBuf> {
    // CARGO_MANIFEST_DIR = crates/bench → the workspace root is two up.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name);
    append_point_at(&path, bench, quick, results)?;
    Ok(path)
}

fn append_point_at(
    path: &std::path::Path,
    bench: &str,
    quick: bool,
    results: Vec<serde_json::Value>,
) -> std::io::Result<()> {
    use serde_json::Value;
    let mut points = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Seq(points)) => points,
            Ok(single) => vec![single],
            Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let git_rev = std::process::Command::new("git")
        // `-dirty` marks a point measured on uncommitted changes.
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    points.push(serde_json::json!({
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "git_rev": git_rev,
        "cores": cores,
        "quick": quick,
        "results": Value::Seq(results),
    }));
    let text = serde_json::to_string_pretty(&Value::Seq(points)).expect("plain data");
    std::fs::write(path, text + "\n")
}

/// Shared CLI/env parameters for the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Number of task-set seeds (paper: 10).
    pub seeds: usize,
    /// Virtual horizon per run (paper: 5 minutes).
    pub horizon: Duration,
}

impl BenchParams {
    /// Reads `RTCM_QUICK` / `RTCM_SEEDS` / `RTCM_HORIZON_SECS` from the
    /// environment; defaults to the paper's 10 seeds × 300 s.
    #[must_use]
    pub fn from_env() -> Self {
        let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
        let seeds = std::env::var("RTCM_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 3 } else { 10 });
        let horizon_secs = std::env::var("RTCM_HORIZON_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 30 } else { 300 });
        BenchParams { seeds, horizon: Duration::from_secs(horizon_secs) }
    }

    /// The seed list `0..seeds`.
    #[must_use]
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds as u64).collect()
    }

    /// Arrival configuration at this horizon (defaults elsewhere).
    #[must_use]
    pub fn arrival_config(&self) -> ArrivalConfig {
        ArrivalConfig { horizon: self.horizon, ..ArrivalConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_workload::RandomWorkload;

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[0.2, 0.4]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn combo_experiment_covers_all_fifteen() {
        let params = BenchParams { seeds: 1, horizon: Duration::from_secs(5) };
        let inst = instances(&params.seed_list(), &params.arrival_config(), |s| {
            RandomWorkload::default().generate(s).unwrap()
        });
        let results = run_combo_experiment(&inst, OverheadModel::zero());
        assert_eq!(results.len(), 15);
        for r in &results {
            assert_eq!(r.ratios.len(), 1);
            let ratio = r.mean_ratio();
            assert!((0.0..=1.0 + 1e-9).contains(&ratio), "{}: {ratio}", r.config.label());
        }
        let table = format_ratio_table("smoke", &results);
        assert!(table.contains("J_J_J"));
        let json = to_json(&results);
        assert!(json.contains("mean_ratio"));
    }

    #[test]
    fn measure_keeps_setup_out_of_the_timed_windows() {
        let (mut setups, mut ops) = (0, 0);
        let timing = measure(
            20,
            4,
            || {
                setups += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            },
            |()| ops += 1,
        );
        // 2 warm-up windows plus 20 timed ones, 4 ops each.
        assert_eq!((setups, ops), (22, 88));
        assert_eq!(timing.ops, 80);
        assert!(timing.p50_ns <= timing.p99_ns);
        // A sleeping setup inside the clock would put every window at
        // ≥ 5 ms, i.e. ≥ 1.25 ms per op.
        assert!(timing.p50_ns < 1e6, "setup leaked into the timed region: {timing}");
    }

    #[test]
    fn append_point_starts_wraps_and_refuses() {
        use serde_json::{json, Value};
        let dir = std::env::temp_dir().join(format!("rtcm-bench-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let read = |path: &std::path::Path| -> Vec<Value> {
            match serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap() {
                Value::Seq(points) => points,
                other => panic!("not an array: {other:?}"),
            }
        };

        // Missing file: a one-element array carrying the whole schema.
        let fresh = dir.join("fresh.json");
        append_point_at(&fresh, "micro_x", true, vec![json!({ "arm": "a" })]).unwrap();
        let points = read(&fresh);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("schema"), Some(&Value::Str(BENCH_SCHEMA.to_string())));
        assert_eq!(points[0].get("bench"), Some(&Value::Str("micro_x".to_string())));
        assert_eq!(points[0].get("quick"), Some(&Value::Bool(true)));
        assert!(matches!(points[0].get("git_rev"), Some(Value::Str(rev)) if !rev.is_empty()));
        assert!(matches!(points[0].get("cores"), Some(Value::U64(n)) if *n >= 1));
        assert_eq!(points[0].get("results"), Some(&Value::Seq(vec![json!({ "arm": "a" })])));

        // A bench's earlier single-object layout becomes element 0.
        let legacy = dir.join("legacy.json");
        let old = json!({ "bench": "micro_x", "quick": false });
        std::fs::write(&legacy, serde_json::to_string_pretty(&old).unwrap()).unwrap();
        append_point_at(&legacy, "micro_x", false, Vec::new()).unwrap();
        let points = read(&legacy);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], old);
        assert_eq!(points[1].get("schema"), Some(&Value::Str(BENCH_SCHEMA.to_string())));

        // Not JSON: refused, and the file is left byte-identical.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, b"not json {").unwrap();
        let err = append_point_at(&garbage, "micro_x", false, Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&garbage).unwrap(), b"not json {");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
