//! The workload specification file: the developer-facing description of
//! end-to-end tasks and their placement (§6: "the application developer
//! first provides a workload specification file which describes each
//! end-to-end task and where its subtasks execute").
//!
//! Two encodings are supported:
//!
//! * a line-oriented **text format** (shown below), hand-editable;
//! * **JSON** via serde, for tooling.
//!
//! ```text
//! # industrial plant monitor
//! workload plant-monitor
//! processors 5
//!
//! task pressure-scan periodic period=500ms
//!   subtask exec=10ms proc=0 replicas=1
//!   subtask exec=5ms  proc=2
//!
//! task hazard-alert aperiodic deadline=300ms
//!   subtask exec=5ms proc=0 replicas=1,3
//! ```
//!
//! # Examples
//!
//! ```
//! use rtcm_config::spec::WorkloadSpec;
//!
//! let text = "workload demo\nprocessors 2\n\
//!             task t periodic period=100ms\n  subtask exec=10ms proc=0 replicas=1\n";
//! let spec = WorkloadSpec::parse(text)?;
//! let tasks = spec.to_task_set()?;
//! assert_eq!(tasks.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use rtcm_core::task::{ProcessorId, SubtaskSpec, TaskId, TaskKind, TaskSet, TaskSpec};
use rtcm_core::time::Duration;

/// Release pattern in a spec entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecKind {
    /// Periodic with the given period.
    Periodic {
        /// Release period.
        period: Duration,
    },
    /// Event-driven.
    Aperiodic,
}

/// One subtask line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubtaskEntry {
    /// Worst-case execution time.
    pub execution: Duration,
    /// Primary processor.
    pub processor: u16,
    /// Replica processors (may be empty).
    #[serde(default)]
    pub replicas: Vec<u16>,
}

/// One task block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEntry {
    /// Task name (unique within the spec).
    pub name: String,
    /// Release pattern.
    pub kind: SpecKind,
    /// End-to-end deadline; for periodic tasks this may be omitted in the
    /// text format (defaults to the period).
    pub deadline: Duration,
    /// The subtask chain.
    pub subtasks: Vec<SubtaskEntry>,
}

/// A parsed workload specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Number of application processors.
    pub processors: u16,
    /// Task blocks, in declaration order (this order defines task ids).
    pub tasks: Vec<TaskEntry>,
}

impl WorkloadSpec {
    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with the offending line number on syntax
    /// errors, and semantic errors (unknown processors, duplicate names)
    /// detected after parsing.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut name = None;
        let mut processors = None;
        let mut tasks: Vec<TaskEntry> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next().expect("nonempty line has a first word") {
                "workload" => {
                    let n = words
                        .next()
                        .ok_or_else(|| SpecError::parse(line_no, "expected `workload <name>`"))?;
                    name = Some(n.to_owned());
                }
                "processors" => {
                    let n = words.next().and_then(|w| w.parse::<u16>().ok()).ok_or_else(|| {
                        SpecError::parse(line_no, "expected `processors <count>`")
                    })?;
                    processors = Some(n);
                }
                "task" => {
                    let task_name = words
                        .next()
                        .ok_or_else(|| SpecError::parse(line_no, "expected task name"))?
                        .to_owned();
                    let kind_word = words.next().ok_or_else(|| {
                        SpecError::parse(line_no, "expected `periodic` or `aperiodic`")
                    })?;
                    let mut period = None;
                    let mut deadline = None;
                    for kv in words {
                        let (key, value) = kv.split_once('=').ok_or_else(|| {
                            SpecError::parse(line_no, format!("expected key=value, got {kv:?}"))
                        })?;
                        match key {
                            "period" => period = Some(parse_duration(value, line_no)?),
                            "deadline" => deadline = Some(parse_duration(value, line_no)?),
                            other => {
                                return Err(SpecError::parse(
                                    line_no,
                                    format!("unknown task attribute {other:?}"),
                                ))
                            }
                        }
                    }
                    let kind = match kind_word {
                        "periodic" => {
                            let period = period.ok_or_else(|| {
                                SpecError::parse(line_no, "periodic task needs period=<dur>")
                            })?;
                            SpecKind::Periodic { period }
                        }
                        "aperiodic" => {
                            if period.is_some() {
                                return Err(SpecError::parse(
                                    line_no,
                                    "aperiodic task cannot have a period",
                                ));
                            }
                            SpecKind::Aperiodic
                        }
                        other => {
                            return Err(SpecError::parse(
                                line_no,
                                format!("expected `periodic` or `aperiodic`, got {other:?}"),
                            ))
                        }
                    };
                    let deadline = match (deadline, kind) {
                        (Some(d), _) => d,
                        (None, SpecKind::Periodic { period }) => period,
                        (None, SpecKind::Aperiodic) => {
                            return Err(SpecError::parse(
                                line_no,
                                "aperiodic task needs deadline=<dur>",
                            ))
                        }
                    };
                    tasks.push(TaskEntry { name: task_name, kind, deadline, subtasks: Vec::new() });
                }
                "subtask" => {
                    let task = tasks
                        .last_mut()
                        .ok_or_else(|| SpecError::parse(line_no, "subtask before any task"))?;
                    let mut execution = None;
                    let mut processor = None;
                    let mut replicas = Vec::new();
                    for kv in words {
                        let (key, value) = kv.split_once('=').ok_or_else(|| {
                            SpecError::parse(line_no, format!("expected key=value, got {kv:?}"))
                        })?;
                        match key {
                            "exec" => execution = Some(parse_duration(value, line_no)?),
                            "proc" => {
                                processor = Some(value.parse::<u16>().map_err(|_| {
                                    SpecError::parse(line_no, format!("bad processor {value:?}"))
                                })?);
                            }
                            "replicas" => {
                                for r in value.split(',') {
                                    replicas.push(r.parse::<u16>().map_err(|_| {
                                        SpecError::parse(
                                            line_no,
                                            format!("bad replica processor {r:?}"),
                                        )
                                    })?);
                                }
                            }
                            other => {
                                return Err(SpecError::parse(
                                    line_no,
                                    format!("unknown subtask attribute {other:?}"),
                                ))
                            }
                        }
                    }
                    let execution = execution
                        .ok_or_else(|| SpecError::parse(line_no, "subtask needs exec=<dur>"))?;
                    let processor = processor
                        .ok_or_else(|| SpecError::parse(line_no, "subtask needs proc=<id>"))?;
                    task.subtasks.push(SubtaskEntry { execution, processor, replicas });
                }
                other => {
                    return Err(SpecError::parse(line_no, format!("unknown directive {other:?}")))
                }
            }
        }

        let spec = WorkloadSpec {
            name: name.unwrap_or_else(|| "unnamed".to_owned()),
            processors: processors
                .ok_or_else(|| SpecError::semantic("missing `processors <count>`"))?,
            tasks,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the text format (inverse of [`WorkloadSpec::parse`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("workload {}\n", self.name));
        out.push_str(&format!("processors {}\n", self.processors));
        for task in &self.tasks {
            match task.kind {
                SpecKind::Periodic { period } => {
                    if task.deadline == period {
                        out.push_str(&format!("task {} periodic period={}\n", task.name, period));
                    } else {
                        out.push_str(&format!(
                            "task {} periodic period={} deadline={}\n",
                            task.name, period, task.deadline
                        ));
                    }
                }
                SpecKind::Aperiodic => {
                    out.push_str(&format!(
                        "task {} aperiodic deadline={}\n",
                        task.name, task.deadline
                    ));
                }
            }
            for sub in &task.subtasks {
                out.push_str(&format!("  subtask exec={} proc={}", sub.execution, sub.processor));
                if !sub.replicas.is_empty() {
                    let list: Vec<String> = sub.replicas.iter().map(u16::to_string).collect();
                    out.push_str(&format!(" replicas={}", list.join(",")));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Semantic validation: processor references in range, unique task
    /// names, nonempty chains.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] describing the first violation.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.processors == 0 {
            return Err(SpecError::semantic("at least one processor is required"));
        }
        let mut seen = std::collections::HashSet::new();
        for task in &self.tasks {
            if !seen.insert(&task.name) {
                return Err(SpecError::semantic(format!("duplicate task name {:?}", task.name)));
            }
            if task.subtasks.is_empty() {
                return Err(SpecError::semantic(format!("task {:?} has no subtasks", task.name)));
            }
            for sub in &task.subtasks {
                if sub.processor >= self.processors {
                    return Err(SpecError::semantic(format!(
                        "task {:?} places a subtask on processor {} but only {} exist",
                        task.name, sub.processor, self.processors
                    )));
                }
                for r in &sub.replicas {
                    if *r >= self.processors {
                        return Err(SpecError::semantic(format!(
                            "task {:?} declares replica on processor {r} but only {} exist",
                            task.name, self.processors
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Converts to the core task model; ids follow declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] wrapping core validation failures (zero
    /// execution times, demand exceeding deadline, …).
    pub fn to_task_set(&self) -> Result<TaskSet, SpecError> {
        self.validate()?;
        let mut specs = Vec::with_capacity(self.tasks.len());
        for (i, task) in self.tasks.iter().enumerate() {
            let kind = match task.kind {
                SpecKind::Periodic { period } => TaskKind::Periodic { period },
                SpecKind::Aperiodic => TaskKind::Aperiodic,
            };
            let subtasks = task
                .subtasks
                .iter()
                .map(|s| {
                    SubtaskSpec::with_replicas(
                        s.execution,
                        ProcessorId(s.processor),
                        s.replicas.iter().map(|r| ProcessorId(*r)),
                    )
                })
                .collect();
            let spec =
                TaskSpec::new(TaskId(i as u32), task.name.clone(), kind, task.deadline, subtasks)
                    .map_err(|e| SpecError::semantic(e.to_string()))?;
            specs.push(spec);
        }
        TaskSet::from_tasks(specs).map_err(|e| SpecError::semantic(e.to_string()))
    }
}

impl WorkloadSpec {
    /// Builds a specification from an existing task set (e.g. one produced
    /// by the `rtcm-workload` generators), so generated workloads can flow
    /// through the configuration engine like hand-written ones.
    #[must_use]
    pub fn from_task_set(name: impl Into<String>, processors: u16, tasks: &TaskSet) -> Self {
        let entries = tasks
            .iter()
            .map(|t| TaskEntry {
                name: t.name().to_owned(),
                kind: match t.kind() {
                    TaskKind::Periodic { period } => SpecKind::Periodic { period },
                    TaskKind::Aperiodic => SpecKind::Aperiodic,
                },
                deadline: t.deadline(),
                subtasks: t
                    .subtasks()
                    .iter()
                    .map(|s| SubtaskEntry {
                        execution: s.execution_time,
                        processor: s.primary.0,
                        replicas: s.replicas.iter().map(|r| r.0).collect(),
                    })
                    .collect(),
            })
            .collect();
        WorkloadSpec { name: name.into(), processors, tasks: entries }
    }
}

/// Parses `250ms`, `10s`, `5us`, `100ns` style durations.
fn parse_duration(s: &str, line: usize) -> Result<Duration, SpecError> {
    let (digits, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(s.len()));
    let value: u64 =
        digits.parse().map_err(|_| SpecError::parse(line, format!("bad duration {s:?}")))?;
    let nanos_per_unit: u64 = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => {
            return Err(SpecError::parse(
                line,
                format!("bad duration unit in {s:?} (use ns/us/ms/s)"),
            ))
        }
    };
    value
        .checked_mul(nanos_per_unit)
        .map(Duration::from_nanos)
        .ok_or_else(|| SpecError::parse(line, format!("duration {s:?} overflows the clock")))
}

/// Errors from specification parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A syntax error with its line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// A semantic violation.
    Semantic {
        /// Description.
        message: String,
    },
}

impl SpecError {
    fn parse(line: usize, message: impl Into<String>) -> Self {
        SpecError::Parse { line, message: message.into() }
    }

    fn semantic(message: impl Into<String>) -> Self {
        SpecError::Semantic { message: message.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SpecError::Semantic { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# industrial plant monitor
workload plant-monitor
processors 5

task pressure-scan periodic period=500ms
  subtask exec=10ms proc=0 replicas=1
  subtask exec=5ms proc=2

task hazard-alert aperiodic deadline=300ms
  subtask exec=5ms proc=0 replicas=1,3
";

    #[test]
    fn parses_the_sample() {
        let spec = WorkloadSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.name, "plant-monitor");
        assert_eq!(spec.processors, 5);
        assert_eq!(spec.tasks.len(), 2);
        assert_eq!(spec.tasks[0].subtasks.len(), 2);
        assert_eq!(spec.tasks[0].deadline, Duration::from_millis(500));
        assert_eq!(spec.tasks[1].kind, SpecKind::Aperiodic);
        assert_eq!(spec.tasks[1].subtasks[0].replicas, vec![1, 3]);
    }

    #[test]
    fn text_round_trip() {
        let spec = WorkloadSpec::parse(SAMPLE).unwrap();
        let text = spec.to_text();
        let back = WorkloadSpec::parse(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn json_round_trip() {
        let spec = WorkloadSpec::parse(SAMPLE).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn converts_to_task_set() {
        let spec = WorkloadSpec::parse(SAMPLE).unwrap();
        let tasks = spec.to_task_set().unwrap();
        assert_eq!(tasks.len(), 2);
        let scan = tasks.get(TaskId(0)).unwrap();
        assert_eq!(scan.name(), "pressure-scan");
        assert!(scan.is_periodic());
        assert_eq!(scan.subtasks()[0].replicas, vec![ProcessorId(1)]);
        let alert = tasks.get(TaskId(1)).unwrap();
        assert!(!alert.is_periodic());
    }

    #[test]
    fn periodic_deadline_defaults_to_period() {
        let spec = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t periodic period=100ms\n  subtask exec=1ms proc=0\n",
        )
        .unwrap();
        assert_eq!(spec.tasks[0].deadline, Duration::from_millis(100));
    }

    #[test]
    fn explicit_deadline_overrides() {
        let spec = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t periodic period=100ms deadline=80ms\n  subtask exec=1ms proc=0\n",
        )
        .unwrap();
        assert_eq!(spec.tasks[0].deadline, Duration::from_millis(80));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = WorkloadSpec::parse("processors 1\nbogus line\n").unwrap_err();
        assert_eq!(
            err,
            SpecError::Parse { line: 2, message: "unknown directive \"bogus\"".into() }
        );
        assert!(err.to_string().starts_with("line 2"));
    }

    #[test]
    fn rejects_aperiodic_without_deadline() {
        let err = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t aperiodic\n  subtask exec=1ms proc=0\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }));
    }

    #[test]
    fn rejects_subtask_before_task() {
        let err =
            WorkloadSpec::parse("workload w\nprocessors 1\nsubtask exec=1ms proc=0\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }));
    }

    #[test]
    fn rejects_out_of_range_processors() {
        let err = WorkloadSpec::parse(
            "workload w\nprocessors 2\ntask t aperiodic deadline=10ms\n  subtask exec=1ms proc=5\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Semantic { .. }));
        assert!(err.to_string().contains("processor 5"));
    }

    #[test]
    fn rejects_duplicate_task_names() {
        let err = WorkloadSpec::parse(
            "workload w\nprocessors 1\n\
             task t aperiodic deadline=10ms\n  subtask exec=1ms proc=0\n\
             task t aperiodic deadline=10ms\n  subtask exec=1ms proc=0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_missing_processors_directive() {
        let err = WorkloadSpec::parse("workload w\n").unwrap_err();
        assert!(err.to_string().contains("processors"));
    }

    #[test]
    fn duration_units_parse() {
        let spec = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t aperiodic deadline=1s\n  subtask exec=500us proc=0\n",
        )
        .unwrap();
        assert_eq!(spec.tasks[0].subtasks[0].execution, Duration::from_micros(500));
        let err = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t aperiodic deadline=1h\n  subtask exec=1ms proc=0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unit"));
    }

    #[test]
    fn durations_past_the_clock_are_parse_errors() {
        // u64 nanoseconds end inside second 18446744073; unchecked, the
        // next whole second wraps to a deadline of about 290 ms.
        for (deadline, exec, line_no) in
            [("18446744074s", "1ms", 3), ("10ms", "18446744073710ms", 4)]
        {
            let text = format!(
                "workload w\nprocessors 1\ntask t aperiodic deadline={deadline}\n  \
                 subtask exec={exec} proc=0\n"
            );
            match WorkloadSpec::parse(&text).unwrap_err() {
                SpecError::Parse { line, message } => {
                    assert_eq!(line, line_no, "{message}");
                    assert!(message.contains("overflows"), "{message}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let spec = WorkloadSpec::parse(
            "workload w\nprocessors 1\ntask t aperiodic deadline=18446744073s\n  \
             subtask exec=1ms proc=0\n",
        )
        .unwrap();
        assert_eq!(spec.tasks[0].deadline, Duration::from_secs(18_446_744_073));
    }

    #[test]
    fn from_task_set_round_trips_through_engine() {
        let spec = WorkloadSpec::parse(SAMPLE).unwrap();
        let tasks = spec.to_task_set().unwrap();
        let rebuilt = WorkloadSpec::from_task_set("plant-monitor", 5, &tasks);
        assert_eq!(rebuilt.to_task_set().unwrap().tasks(), tasks.tasks());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = WorkloadSpec::parse(
            "# header\n\nworkload w # trailing\nprocessors 1\n# mid\ntask t aperiodic deadline=10ms\n  subtask exec=1ms proc=0 # tail\n",
        )
        .unwrap();
        assert_eq!(spec.tasks.len(), 1);
    }
}
