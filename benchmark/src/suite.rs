//! The suite: every workload untraced then traced, each in a process of its
//! own (so `peak_rss_mb` is that workload's), and the repeatability harness
//! that judges the end-to-end metrics the way the driver does.

use std::process::{Command, Stdio};

use serde_json::Value;

use crate::stats::quartiles;
use crate::workloads::Kind;

/// Seconds per run when none are given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// An end-to-end metric of `BENCHMARK.json`.
struct Gate {
    name: String,
    /// Share of the median by which the metric may worsen — and the most
    /// its interquartile spread over repeated runs may be.
    bound: f64,
}

struct Contract {
    end_to_end: Vec<Gate>,
    per_layer: Vec<String>,
}

fn load_contract() -> Result<Contract, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|path| std::fs::read_to_string(path).ok())
        .ok_or("BENCHMARK.json not found here or one directory up")?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match root.get(key) {
        Some(Value::Seq(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json: no list {key}")),
    };
    let name = |item: &Value| match item.get("name") {
        Some(Value::Str(name)) => Ok(name.clone()),
        _ => Err("BENCHMARK.json: a metric without a name".to_string()),
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|item| {
            let bound = item.get("bound").and_then(number).ok_or("a metric without a bound")?;
            Ok(Gate { name: name(item)?, bound })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?.iter().map(name).collect::<Result<_, String>>()?;
    Ok(Contract { end_to_end, per_layer })
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// One child run: its printed table and its parsed result object.
struct Child {
    table: String,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{} printed no result ({}): {e}", kind.name(), output.status))?;
    let Some(Value::Map(entries)) = result.get("metrics") else {
        return Err(format!("{}: result without metrics", kind.name()));
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").and_then(number).unwrap_or(f64::NAN)))
        .collect();
    Ok(Child {
        table: table.to_string(),
        correct: output.status.success() && result.get("correct") == Some(&Value::Bool(true)),
        failed: result.get("failed").and_then(number).unwrap_or(0.0) as u64,
        metrics,
    })
}

pub fn run(seed: u64, seconds: f64, repeat: usize) -> Result<bool, String> {
    let contract = load_contract()?;
    let mut ok = true;
    // values[workload][metric] over the repetitions
    let mut values = vec![vec![Vec::new(); contract.end_to_end.len()]; Kind::ALL.len()];
    for repetition in 0..repeat.max(1) {
        let seed = seed + repetition as u64;
        for (w, kind) in Kind::ALL.into_iter().enumerate() {
            let plain = child(kind, seed, seconds, false)?;
            let names: Vec<&str> = plain.metrics.iter().map(|(n, _)| n.as_str()).collect();
            if names != contract.end_to_end.iter().map(|g| g.name.as_str()).collect::<Vec<_>>() {
                return Err(format!(
                    "{}: end-to-end metrics differ from BENCHMARK.json",
                    kind.name()
                ));
            }
            for (column, (_, value)) in values[w].iter_mut().zip(&plain.metrics) {
                column.push(*value);
            }
            ok &= plain.correct && plain.failed == 0;
            if repetition > 0 {
                let status = if plain.correct { "ok" } else { "FAILED" };
                println!("# {} seed={seed}: {status}, failed={}", kind.name(), plain.failed);
                continue;
            }
            println!("{}\n", plain.table);
            // The per-layer half is attribution, not a gate: once is enough.
            let traced = child(kind, seed, seconds, true)?;
            if !traced.metrics.iter().map(|(n, _)| n).eq(contract.per_layer.iter()) {
                return Err(format!(
                    "{}: per-layer metrics differ from BENCHMARK.json",
                    kind.name()
                ));
            }
            ok &= traced.correct && traced.failed == 0;
            println!("{}\n", traced.table);
        }
    }
    if repeat > 1 {
        ok &= print_repeatability(&contract, &values);
    }
    println!("# suite: {}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}

/// Median, quartiles, interquartile spread and range of every end-to-end
/// metric on every workload; false if a spread exceeds the metric's bound
/// (the driver's own acceptance rule; `setup_s` is exempt there, and here).
fn print_repeatability(contract: &Contract, values: &[Vec<Vec<f64>>]) -> bool {
    let mut steady = true;
    println!(
        "| workload | metric | median | q1 | q3 | spread (q3-q1)/median | range (max-min)/median | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (kind, per_metric) in Kind::ALL.into_iter().zip(values) {
        for (gate, runs) in contract.end_to_end.iter().zip(per_metric) {
            let [q1, median, q3] = quartiles(runs);
            let (lo, hi) =
                runs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let spread = (q3 - q1) / median;
            let range = (hi - lo) / median;
            let within = spread <= gate.bound || gate.name == "setup_s";
            steady &= within;
            println!(
                "| {} | {} | {median:.4} | {q1:.4} | {q3:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
                kind.name(),
                gate.name,
                spread * 100.0,
                range * 100.0,
                gate.bound * 100.0,
                if within { "ok" } else { "UNSTEADY" }
            );
        }
    }
    steady
}
