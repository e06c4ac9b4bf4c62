//! The front-end configuration engine (§6): workload spec + developer
//! answers in, validated deployment plan out.
//!
//! The engine:
//!
//! 1. parses/validates the [`WorkloadSpec`];
//! 2. maps [`CpsCharacteristics`] to service strategies per Table 1 — or
//!    takes an explicit [`ServiceConfig`] and *rejects invalid
//!    combinations* (the paper's feasibility check);
//! 3. assigns EDMS priorities "in order of tasks' end-to-end deadlines";
//! 4. emits the deployment plan: one AC and one LB instance on the
//!    `task-manager` node, one TE and one IR instance per application
//!    processor, and one subtask component instance per (subtask ×
//!    candidate processor) — duplicates included — with execution time,
//!    priority and strategy attributes as configuration properties.

use std::collections::HashMap;
use std::fmt;

use rtcm_core::priority::{assign_edms, Priority};
use rtcm_core::strategy::{AcStrategy, InvalidConfigError, ServiceConfig};
use rtcm_core::task::{TaskId, TaskSet};

use crate::characteristics::CpsCharacteristics;
use crate::plan::{ComponentType, Connection, DeploymentPlan, Instance, PropValue};
use crate::spec::{SpecError, WorkloadSpec};

/// Node name of the central task manager.
pub const TASK_MANAGER_NODE: &str = "task-manager";

/// Node name of application processor `p`.
#[must_use]
pub(crate) fn app_node(p: u16) -> String {
    format!("app-{p}")
}

/// The engine's output: everything the runtime launcher needs.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The selected (valid) strategy combination.
    pub services: ServiceConfig,
    /// Adjustments the engine made to keep the combination valid.
    pub adjustments: Vec<String>,
    /// Design-time feasibility warnings (tasks that cannot be admitted,
    /// saturated processors); deployment proceeds, but the developer is
    /// told.
    pub warnings: Vec<String>,
    /// The task model.
    pub tasks: TaskSet,
    /// EDMS priorities per task.
    pub priorities: HashMap<TaskId, Priority>,
    /// Number of application processors.
    pub processors: u16,
    /// The generated deployment plan.
    pub plan: DeploymentPlan,
}

/// Errors from the configuration engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The workload specification is invalid.
    Spec(SpecError),
    /// An explicitly requested strategy combination is invalid (§4.5).
    InvalidCombination(InvalidConfigError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "workload specification: {e}"),
            EngineError::InvalidCombination(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<InvalidConfigError> for EngineError {
    fn from(e: InvalidConfigError) -> Self {
        EngineError::InvalidCombination(e)
    }
}

fn strategy_value(letter: char) -> PropValue {
    PropValue::Str(
        match letter {
            'N' => "N",
            'T' => "PT",
            'J' => "PJ",
            _ => unreachable!("strategy letters are N/T/J"),
        }
        .to_owned(),
    )
}

/// Maps the developer's characteristics to strategies and builds the plan.
///
/// # Errors
///
/// Returns [`EngineError::Spec`] for invalid workload specifications. The
/// characteristics mapping itself cannot produce invalid combinations.
pub fn configure(
    spec: &WorkloadSpec,
    answers: &CpsCharacteristics,
) -> Result<Deployment, EngineError> {
    let mapped = answers.map();
    build(spec, mapped.services, mapped.adjustments)
}

/// Builds a deployment for an explicitly chosen strategy combination.
///
/// # Errors
///
/// Returns [`EngineError::InvalidCombination`] for the contradictory
/// AC-per-task + IR-per-job combinations — "a developer might specify
/// incompatible service configuration combinations, \[so\] our approach
/// should be able to detect and disallow them" — and
/// [`EngineError::Spec`] for invalid workload specifications.
pub fn configure_with(
    spec: &WorkloadSpec,
    services: ServiceConfig,
) -> Result<Deployment, EngineError> {
    services.validate()?;
    build(spec, services, Vec::new())
}

fn build(
    spec: &WorkloadSpec,
    services: ServiceConfig,
    adjustments: Vec<String>,
) -> Result<Deployment, EngineError> {
    let tasks = spec.to_task_set()?;
    let priorities = assign_edms(&tasks);

    // Design-time feasibility check (core::analysis): warn, don't refuse —
    // per-job admission control may still admit partial load.
    let feasibility = rtcm_core::analysis::analyze(&tasks);
    let mut warnings = Vec::new();
    for id in feasibility.never_admittable() {
        let name = tasks.get(id).map_or("?", |t| t.name());
        warnings.push(format!(
            "task {id} ({name}) exceeds the AUB bound even alone and can never be admitted"
        ));
    }
    for id in feasibility.contended() {
        let name = tasks.get(id).map_or("?", |t| t.name());
        warnings.push(format!(
            "task {id} ({name}) fails the AUB bound when all tasks are simultaneously \
             current; expect rejections under worst-case phasing"
        ));
    }
    for p in feasibility.saturated_processors() {
        warnings.push(format!(
            "processor {p} reaches synthetic utilization ≥ 1 with all tasks current"
        ));
    }

    let mut instances = Vec::new();
    let mut connections = Vec::new();

    // Central services on the task manager.
    instances.push(Instance {
        id: "Central-AC".into(),
        component: ComponentType::AdmissionController,
        node: TASK_MANAGER_NODE.into(),
        properties: vec![
            ("AC_Strategy".into(), strategy_value(services.ac.letter())),
            ("LB_Strategy".into(), strategy_value(services.lb.letter())),
        ],
    });
    instances.push(Instance {
        id: "Central-LB".into(),
        component: ComponentType::LoadBalancer,
        node: TASK_MANAGER_NODE.into(),
        properties: vec![("LB_Strategy".into(), strategy_value(services.lb.letter()))],
    });
    connections.push(Connection {
        from_instance: "Central-AC".into(),
        from_port: "location".into(),
        to_instance: "Central-LB".into(),
        to_port: "location".into(),
    });

    // Per-processor infrastructure.
    for p in 0..spec.processors {
        let te_id = format!("TE-{p}");
        instances.push(Instance {
            id: te_id.clone(),
            component: ComponentType::TaskEffector,
            node: app_node(p),
            properties: vec![
                ("ProcessorId".into(), PropValue::U32(u32::from(p))),
                (
                    "ReleaseGuard".into(),
                    PropValue::Str(
                        match services.ac {
                            AcStrategy::PerTask => "per-task",
                            AcStrategy::PerJob => "per-job",
                        }
                        .into(),
                    ),
                ),
            ],
        });
        let ir_id = format!("IR-{p}");
        instances.push(Instance {
            id: ir_id.clone(),
            component: ComponentType::IdleResetter,
            node: app_node(p),
            properties: vec![
                ("ProcessorId".into(), PropValue::U32(u32::from(p))),
                ("IR_Strategy".into(), strategy_value(services.ir.letter())),
            ],
        });
        connections.push(Connection {
            from_instance: te_id.clone(),
            from_port: "task_arrive".into(),
            to_instance: "Central-AC".into(),
            to_port: "task_arrive".into(),
        });
        connections.push(Connection {
            from_instance: "Central-AC".into(),
            from_port: "accept".into(),
            to_instance: te_id,
            to_port: "accept".into(),
        });
        connections.push(Connection {
            from_instance: ir_id,
            from_port: "idle_reset".into(),
            to_instance: "Central-AC".into(),
            to_port: "idle_reset".into(),
        });
    }

    // Subtask components: one instance per (subtask, candidate processor),
    // replicas ("duplicates") included.
    let ir_letter = services.ir.letter();
    for (i, task) in tasks.iter().enumerate() {
        let task_prio = priorities[&task.id()];
        let n = task.subtasks().len();
        for (j, sub) in task.subtasks().iter().enumerate() {
            let is_last = j + 1 == n;
            let component =
                if is_last { ComponentType::LastSubtask } else { ComponentType::FiSubtask };
            let candidates: Vec<_> = sub.candidates().collect();
            for proc in &candidates {
                let id = subtask_instance_id(i, j, proc.0);
                instances.push(Instance {
                    id: id.clone(),
                    component,
                    node: app_node(proc.0),
                    properties: vec![
                        ("TaskId".into(), PropValue::U32(i as u32)),
                        ("SubtaskIndex".into(), PropValue::U32(j as u32)),
                        ("ExecutionTimeUs".into(), PropValue::U64(sub.execution_time.as_micros())),
                        ("Priority".into(), PropValue::U32(task_prio.0)),
                        ("IR_Mode".into(), strategy_value(ir_letter)),
                        (
                            "Periodic".into(),
                            PropValue::Str(if task.is_periodic() { "yes" } else { "no" }.into()),
                        ),
                    ],
                });
                // Completions go to the local idle resetter.
                connections.push(Connection {
                    from_instance: id.clone(),
                    from_port: "complete".into(),
                    to_instance: format!("IR-{}", proc.0),
                    to_port: "complete".into(),
                });
            }
            // Trigger connections: every candidate of stage j feeds every
            // candidate of stage j+1 (placement is decided at run time).
            if !is_last {
                let next: Vec<_> = task.subtasks()[j + 1].candidates().collect();
                for from in &candidates {
                    for to in &next {
                        connections.push(Connection {
                            from_instance: subtask_instance_id(i, j, from.0),
                            from_port: "trigger".into(),
                            to_instance: subtask_instance_id(i, j + 1, to.0),
                            to_port: "trigger".into(),
                        });
                    }
                }
            }
        }
    }

    let plan = DeploymentPlan { label: spec.name.clone(), instances, connections };
    plan.validate().expect("engine-built plans are structurally sound");

    Ok(Deployment {
        services,
        adjustments,
        warnings,
        tasks,
        priorities,
        processors: spec.processors,
        plan,
    })
}

/// Instance id of the component executing subtask `j` of task `i` on
/// processor `p`.
#[must_use]
pub(crate) fn subtask_instance_id(task: usize, subtask: usize, processor: u16) -> String {
    format!("task{task}-sub{subtask}@app{processor}")
}

/// Summarizes a deployment for terminal display.
#[must_use]
pub fn summarize(deployment: &Deployment) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "deployment \"{}\": services {}, {} tasks on {} processors (+ task manager)\n",
        deployment.plan.label,
        deployment.services,
        deployment.tasks.len(),
        deployment.processors
    ));
    for note in &deployment.adjustments {
        out.push_str(&format!("  note: {note}\n"));
    }
    for warning in &deployment.warnings {
        out.push_str(&format!("  warning: {warning}\n"));
    }
    for task in deployment.tasks.iter() {
        out.push_str(&format!(
            "  {} prio={} deadline={}\n",
            task.name(),
            deployment.priorities[&task.id()].0,
            task.deadline()
        ));
    }
    out.push_str(&format!(
        "  plan: {} instances, {} connections\n",
        deployment.plan.instances.len(),
        deployment.plan.connections.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::OverheadTolerance;
    use rtcm_core::time::Duration;

    fn sample_spec() -> WorkloadSpec {
        WorkloadSpec::parse(
            "workload demo\nprocessors 3\n\
             task scan periodic period=500ms\n  subtask exec=10ms proc=0 replicas=1\n  subtask exec=5ms proc=2\n\
             task alert aperiodic deadline=200ms\n  subtask exec=5ms proc=1\n",
        )
        .unwrap()
    }

    #[test]
    fn configure_maps_and_builds() {
        let d = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        assert_eq!(d.services.label(), "T_T_T");
        assert_eq!(d.processors, 3);
        assert_eq!(d.tasks.len(), 2);
        // Central services.
        assert!(d.plan.instance("Central-AC").is_some());
        assert!(d.plan.instance("Central-LB").is_some());
        // Per-processor TE and IR.
        for p in 0..3 {
            assert!(d.plan.instance(&format!("TE-{p}")).is_some());
            assert!(d.plan.instance(&format!("IR-{p}")).is_some());
        }
        // Subtask components incl. the replica duplicate.
        assert!(d.plan.instance("task0-sub0@app0").is_some());
        assert!(d.plan.instance("task0-sub0@app1").is_some(), "duplicate instance");
        assert!(d.plan.instance("task0-sub1@app2").is_some());
        assert!(d.plan.instance("task1-sub0@app1").is_some());
    }

    #[test]
    fn edms_priorities_follow_deadlines() {
        let d = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        // alert (200 ms) beats scan (500 ms).
        let scan = d.tasks.get(TaskId(0)).unwrap();
        let alert = d.tasks.get(TaskId(1)).unwrap();
        assert_eq!(scan.deadline(), Duration::from_millis(500));
        assert!(d.priorities[&alert.id()].is_higher_than(d.priorities[&scan.id()]));
        // Priority lands in the plan as a property.
        let inst = d.plan.instance("task1-sub0@app1").unwrap();
        assert_eq!(inst.property("Priority"), Some(&PropValue::U32(0)));
    }

    #[test]
    fn configure_with_rejects_invalid_combos() {
        let err = configure_with(&sample_spec(), "T_J_N".parse().unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidCombination(_)));
        assert!(err.to_string().contains("T_J_N"));
    }

    #[test]
    fn configure_with_accepts_all_valid_combos() {
        for services in ServiceConfig::all_valid() {
            let d = configure_with(&sample_spec(), services).unwrap();
            assert_eq!(d.services, services);
            let ac = d.plan.instance("Central-AC").unwrap();
            assert!(ac.property("LB_Strategy").is_some());
        }
    }

    #[test]
    fn strategy_letters_map_to_paper_values() {
        let d = configure_with(&sample_spec(), "J_N_T".parse().unwrap()).unwrap();
        let ac = d.plan.instance("Central-AC").unwrap();
        assert_eq!(ac.property("AC_Strategy"), Some(&PropValue::Str("PJ".into())));
        assert_eq!(ac.property("LB_Strategy"), Some(&PropValue::Str("PT".into())));
        let ir = d.plan.instance("IR-0").unwrap();
        assert_eq!(ir.property("IR_Strategy"), Some(&PropValue::Str("N".into())));
    }

    #[test]
    fn trigger_connections_cover_replica_pairs() {
        let d = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        // scan sub0 candidates {0,1} × sub1 candidates {2} = 2 trigger links.
        let triggers: Vec<_> = d
            .plan
            .connections
            .iter()
            .filter(|c| c.from_port == "trigger" && c.from_instance.starts_with("task0-sub0"))
            .collect();
        assert_eq!(triggers.len(), 2);
        for t in triggers {
            assert_eq!(t.to_instance, "task0-sub1@app2");
        }
    }

    #[test]
    fn last_subtask_components_have_no_trigger_out() {
        let d = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        let last = d.plan.instance("task0-sub1@app2").unwrap();
        assert_eq!(last.component, ComponentType::LastSubtask);
        assert!(!d
            .plan
            .connections
            .iter()
            .any(|c| c.from_instance == "task0-sub1@app2" && c.from_port == "trigger"));
    }

    #[test]
    fn feasibility_warnings_surface_in_deployment() {
        // A task that can never be admitted: four stages at C/D = 0.24.
        let spec = WorkloadSpec::parse(
            "workload bad\nprocessors 4\n\
             task impossible periodic period=100ms\n\
               subtask exec=24ms proc=0\n  subtask exec=24ms proc=1\n\
               subtask exec=24ms proc=2\n  subtask exec=24ms proc=3\n",
        )
        .unwrap();
        let d = configure(&spec, &CpsCharacteristics::default()).unwrap();
        assert!(!d.warnings.is_empty());
        assert!(d.warnings[0].contains("never be admitted"));
        assert!(summarize(&d).contains("warning:"));

        // A healthy spec produces no warnings.
        let ok = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        assert!(ok.warnings.is_empty(), "{:?}", ok.warnings);
    }

    #[test]
    fn mapping_adjustments_surface_in_deployment() {
        let answers = CpsCharacteristics {
            job_skipping: false,
            component_replication: true,
            state_persistency: true,
            overhead_tolerance: OverheadTolerance::PerJob,
        };
        let d = configure(&sample_spec(), &answers).unwrap();
        assert_eq!(d.adjustments.len(), 1);
        assert!(summarize(&d).contains("note:"));
    }

    #[test]
    fn xml_output_includes_strategies() {
        let d = configure(&sample_spec(), &CpsCharacteristics::default()).unwrap();
        let xml = d.plan.to_xml();
        assert!(xml.contains("<name>LB_Strategy</name>"));
        assert!(xml.contains("<string>PT</string>"));
        assert!(xml.contains("task0-sub0@app1"));
    }
}
