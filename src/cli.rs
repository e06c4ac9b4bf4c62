//! The `rtcm` command-line tool: validate workload specifications, run the
//! configuration engine, and simulate strategy combinations — the
//! downstream-user face of the middleware.
//!
//! ```text
//! rtcm combos
//! rtcm validate <spec-file>
//! rtcm analyze  <spec-file>
//! rtcm plan     <spec-file> [--combo L] [--answers C1,C3,C2,OV] [--format xml|json|summary]
//! rtcm simulate <spec-file> --combo L [--horizon-secs N] [--seed N] [--ideal] [--poisson-factor F]
//! ```
//!
//! `--answers` takes the paper's Figure-4 notation, in question order:
//! job skipping (Y/N), replicated components (Y/N), state persistence
//! (Y/N), overhead tolerance (N/PT/PJ) — e.g. `--answers N,Y,Y,PT`.

use std::fmt;

use rtcm_config::{configure, configure_with, CpsCharacteristics, OverheadTolerance, WorkloadSpec};
use rtcm_core::analysis::analyze;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::TaskSet;
use rtcm_core::time::Duration;
use rtcm_sim::{simulate, OverheadModel, SimConfig};
use rtcm_workload::{ArrivalConfig, ArrivalTrace};

/// Errors reported to the CLI user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Wrong invocation; the message includes usage help.
    Usage(String),
    /// The spec file could not be read.
    Io(String),
    /// Parsing, validation or engine failure.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

const USAGE: &str = "\
rtcm <command> [options]

commands:
  combos                      list the 15 valid strategy combinations
  validate <spec-file>        parse and validate a workload specification
  analyze  <spec-file>        design-time AUB feasibility report
  plan     <spec-file>        run the configuration engine
      --combo <L>             explicit combination label, e.g. J_J_T
      --answers <a,b,c,d>     questionnaire answers, e.g. N,Y,Y,PT
      --format xml|json|summary   output format (default summary)
  simulate <spec-file>        simulate the spec under one combination
      --combo <L>             combination label (default T_T_T)
      --horizon-secs <N>      virtual horizon (default 60)
      --seed <N>              arrival/jitter seed (default 0)
      --poisson-factor <F>    aperiodic mean interarrival factor (default 2.0)
      --ideal                 zero middleware overheads";

/// Executes one CLI invocation (without the leading program name) and
/// returns the text to print.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(USAGE.to_owned()),
        Some("combos") => Ok(combos()),
        Some("validate") => {
            let spec = load_spec(&mut it)?;
            no_more(&mut it)?;
            Ok(format!(
                "ok: workload \"{}\": {} tasks on {} processors",
                spec.name,
                spec.tasks.len(),
                spec.processors
            ))
        }
        Some("analyze") => {
            let spec = load_spec(&mut it)?;
            no_more(&mut it)?;
            let tasks = spec.to_task_set().map_err(|e| CliError::Failed(e.to_string()))?;
            Ok(analyze(&tasks).to_string())
        }
        Some("plan") => plan(&mut it),
        Some("simulate") => simulate_cmd(&mut it),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn combos() -> String {
    let mut out = String::from("valid strategy combinations (AC_IR_LB):\n");
    for c in ServiceConfig::all_valid() {
        out.push_str(&format!("  {}\n", c.label()));
    }
    out.push_str("invalid (rejected by the engine):\n");
    for c in ServiceConfig::all().into_iter().filter(|c| !c.is_valid()) {
        out.push_str(&format!("  {}\n", c.label()));
    }
    out
}

fn load_spec<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<WorkloadSpec, CliError> {
    let path = it.next().ok_or_else(|| CliError::Usage("missing <spec-file>".into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    WorkloadSpec::parse(&text).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn no_more<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<(), CliError> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(CliError::Usage(format!("unexpected argument {extra:?}"))),
    }
}

fn parse_answers(s: &str) -> Result<CpsCharacteristics, CliError> {
    let parts: Vec<&str> = s.split(',').collect();
    let [skip, repl, persist, overhead] = parts.as_slice() else {
        return Err(CliError::Usage(format!(
            "--answers needs 4 comma-separated values (got {s:?})"
        )));
    };
    let yn = |v: &str, q: &str| match v {
        "Y" | "y" => Ok(true),
        "N" | "n" => Ok(false),
        _ => Err(CliError::Usage(format!("{q} must be Y or N (got {v:?})"))),
    };
    let overhead = match *overhead {
        "N" | "n" => OverheadTolerance::None,
        "PT" | "pt" => OverheadTolerance::PerTask,
        "PJ" | "pj" => OverheadTolerance::PerJob,
        other => {
            return Err(CliError::Usage(format!(
                "overhead tolerance must be N, PT or PJ (got {other:?})"
            )))
        }
    };
    Ok(CpsCharacteristics {
        job_skipping: yn(skip, "job skipping")?,
        component_replication: yn(repl, "component replication")?,
        state_persistency: yn(persist, "state persistence")?,
        overhead_tolerance: overhead,
    })
}

fn parse_combo(s: &str) -> Result<ServiceConfig, CliError> {
    s.parse().map_err(|e: rtcm_core::strategy::ParseConfigError| CliError::Usage(e.to_string()))
}

fn plan<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<String, CliError> {
    let spec = load_spec(it)?;
    let mut combo: Option<ServiceConfig> = None;
    let mut answers: Option<CpsCharacteristics> = None;
    let mut format = "summary".to_owned();
    while let Some(flag) = it.next() {
        match flag {
            "--combo" => {
                let v = it.next().ok_or_else(|| CliError::Usage("--combo needs a value".into()))?;
                combo = Some(parse_combo(v)?);
            }
            "--answers" => {
                let v =
                    it.next().ok_or_else(|| CliError::Usage("--answers needs a value".into()))?;
                answers = Some(parse_answers(v)?);
            }
            "--format" => {
                let v =
                    it.next().ok_or_else(|| CliError::Usage("--format needs a value".into()))?;
                format = v.to_owned();
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    if combo.is_some() && answers.is_some() {
        return Err(CliError::Usage("--combo and --answers are mutually exclusive".into()));
    }
    let deployment = match combo {
        Some(services) => {
            configure_with(&spec, services).map_err(|e| CliError::Failed(e.to_string()))?
        }
        None => {
            let answers = answers.unwrap_or_default();
            configure(&spec, &answers).map_err(|e| CliError::Failed(e.to_string()))?
        }
    };
    match format.as_str() {
        "summary" => Ok(rtcm_config::summarize(&deployment)),
        "xml" => Ok(deployment.plan.to_xml()),
        "json" => serde_json::to_string_pretty(&deployment.plan)
            .map_err(|e| CliError::Failed(e.to_string())),
        other => {
            Err(CliError::Usage(format!("unknown format {other:?} (use xml, json or summary)")))
        }
    }
}

fn simulate_cmd<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<String, CliError> {
    let spec = load_spec(it)?;
    let mut combo = ServiceConfig::default_per_task();
    let mut horizon = 60u64;
    let mut seed = 0u64;
    let mut poisson = 2.0f64;
    let mut ideal = false;
    while let Some(flag) = it.next() {
        match flag {
            "--combo" => {
                let v = it.next().ok_or_else(|| CliError::Usage("--combo needs a value".into()))?;
                combo = parse_combo(v)?;
            }
            "--horizon-secs" => {
                let v: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--horizon-secs needs a number".into()))?;
                if v.checked_mul(1_000_000_000).is_none() {
                    return Err(CliError::Usage(format!("--horizon-secs {v} overflows the clock")));
                }
                horizon = v;
            }
            "--seed" => {
                let v = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--seed needs a number".into()))?;
                seed = v;
            }
            "--poisson-factor" => {
                let v = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--poisson-factor needs a number".into()))?;
                poisson = v;
            }
            "--ideal" => ideal = true,
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let tasks = spec.to_task_set().map_err(|e| CliError::Failed(e.to_string()))?;
    check_poisson_factor(poisson, &tasks)?;
    let trace = ArrivalTrace::generate(
        &tasks,
        &ArrivalConfig {
            horizon: Duration::from_secs(horizon),
            poisson_factor: poisson,
            ..ArrivalConfig::default()
        },
        seed,
    );
    let cfg = SimConfig {
        services: combo,
        overheads: if ideal { OverheadModel::zero() } else { OverheadModel::paper_calibrated() },
        seed,
    };
    let report = simulate(&tasks, &trace, &cfg).map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(format!(
        "workload \"{}\" under {} for {horizon}s (seed {seed}):\n\
         \x20 arrivals:                  {}\n\
         \x20 accepted utilization ratio: {:.3}\n\
         \x20 jobs completed:            {}\n\
         \x20 deadline misses:           {}\n\
         \x20 mean response:             {:.2} ms\n\
         \x20 idle-reset reports:        {}",
        spec.name,
        combo,
        trace.len(),
        report.ratio.ratio(),
        report.jobs_completed,
        report.deadline_misses,
        report.response.mean().as_secs_f64() * 1e3,
        report.ir_reports,
    ))
}

/// `--poisson-factor` must be positive and finite, and leave every aperiodic
/// task a mean interarrival (`deadline × F`) of at least 1 ns — the
/// conditions `ArrivalTrace::generate` panics on.
fn check_poisson_factor(factor: f64, tasks: &TaskSet) -> Result<(), CliError> {
    if !(factor.is_finite() && factor > 0.0) {
        return Err(CliError::Usage(format!(
            "--poisson-factor must be positive and finite (got {factor})"
        )));
    }
    let starved = tasks.iter().find(|t| !t.is_periodic() && t.deadline().mul_f64(factor).is_zero());
    match starved {
        Some(task) => Err(CliError::Usage(format!(
            "--poisson-factor {factor} gives aperiodic task {} a mean interarrival under 1 ns",
            task.id()
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn spec_file() -> std::path::PathBuf {
        // Tests run in parallel: every call gets its own file.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("rtcm-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("spec-{n}.txt"));
        std::fs::write(
            &path,
            "workload cli-test\nprocessors 2\n\
             task scan periodic period=200ms\n  subtask exec=5ms proc=0 replicas=1\n\
             task alert aperiodic deadline=100ms\n  subtask exec=2ms proc=1\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn help_and_empty() {
        assert!(run(&args(&["help"])).unwrap().contains("commands:"));
        assert!(run(&[]).unwrap().contains("commands:"));
    }

    #[test]
    fn combos_lists_fifteen_plus_three() {
        let out = run(&args(&["combos"])).unwrap();
        assert_eq!(out.matches("\n  ").count(), 18);
        assert!(out.contains("J_J_J"));
        assert!(out.contains("invalid"));
    }

    #[test]
    fn validate_and_analyze() {
        let path = spec_file();
        let out = run(&args(&["validate", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("cli-test"));
        let out = run(&args(&["analyze", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("feasibility"));
    }

    #[test]
    fn plan_with_answers_and_formats() {
        let path = spec_file();
        let p = path.to_str().unwrap();
        let summary = run(&args(&["plan", p, "--answers", "N,Y,Y,PT"])).unwrap();
        assert!(summary.contains("T_T_T"));
        let xml = run(&args(&["plan", p, "--combo", "J_J_T", "--format", "xml"])).unwrap();
        assert!(xml.contains("Central-AC"));
        let json = run(&args(&["plan", p, "--format", "json"])).unwrap();
        assert!(json.contains("\"instances\""));
    }

    #[test]
    fn plan_rejects_invalid_combo_and_conflicts() {
        let path = spec_file();
        let p = path.to_str().unwrap();
        let err = run(&args(&["plan", p, "--combo", "T_J_N"])).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
        let err =
            run(&args(&["plan", p, "--combo", "J_N_N", "--answers", "Y,Y,Y,PT"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn simulate_produces_report() {
        let path = spec_file();
        let out = run(&args(&[
            "simulate",
            path.to_str().unwrap(),
            "--combo",
            "J_J_J",
            "--horizon-secs",
            "5",
            "--ideal",
        ]))
        .unwrap();
        assert!(out.contains("accepted utilization ratio"));
        assert!(out.contains("deadline misses:           0"));
    }

    #[test]
    fn usage_errors_are_helpful() {
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["validate"])), Err(CliError::Usage(_))));
        let err = run(&args(&["validate", "/nonexistent/file"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        let path = spec_file();
        let err = run(&args(&["simulate", path.to_str().unwrap(), "--combo", "X"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn horizon_past_the_clock_is_a_usage_error() {
        // The first whole second past u64 nanoseconds: unchecked, the
        // horizon wraps to under a second and the run simulates no arrivals.
        let path = spec_file();
        let p = path.to_str().unwrap();
        match run(&args(&["simulate", p, "--horizon-secs", "18446744074"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    /// `rtcm simulate --poisson-factor <factor>`'s error.
    fn poisson_factor_error(factor: &str) -> String {
        let path = spec_file();
        let p = path.to_str().unwrap();
        match run(&args(&["simulate", p, "--poisson-factor", factor, "--horizon-secs", "1"])) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("--poisson-factor {factor}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn zero_poisson_factor_is_a_usage_error() {
        assert!(poisson_factor_error("0").contains("positive and finite"));
    }

    #[test]
    fn negative_poisson_factor_is_a_usage_error() {
        assert!(poisson_factor_error("-1").contains("positive and finite"));
    }

    #[test]
    fn nan_poisson_factor_is_a_usage_error() {
        assert!(poisson_factor_error("nan").contains("positive and finite"));
    }

    #[test]
    fn sub_nanosecond_interarrival_is_a_usage_error() {
        // 100 ms × 1e-12 = 0.0001 ns: every draw would be 0 ns.
        let msg = poisson_factor_error("1e-12");
        assert!(msg.contains("aperiodic task T1") && msg.contains("under 1 ns"), "{msg}");
    }

    #[test]
    fn answers_parser_accepts_paper_notation() {
        let c = parse_answers("N,Y,Y,PT").unwrap();
        assert!(!c.job_skipping);
        assert!(c.component_replication);
        assert!(c.state_persistency);
        assert_eq!(c.overhead_tolerance, OverheadTolerance::PerTask);
        assert!(parse_answers("Y,N").is_err());
        assert!(parse_answers("Q,Y,Y,PT").is_err());
        assert!(parse_answers("Y,Y,Y,XX").is_err());
    }
}
