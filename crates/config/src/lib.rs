//! # rtcm-config
//!
//! The front-end configuration engine of **rtcm** (§6 of the paper): it
//! turns a developer-provided workload specification plus answers to four
//! application-characteristics questions into a validated, DAnCE-style
//! deployment plan — "allowing application developers to configure
//! middleware services to achieve any valid combination of strategies,
//! while disallowing invalid combinations".
//!
//! * [`spec`] — the workload specification file (text + JSON formats);
//! * [`characteristics`] — the §4.1 criteria questionnaire and its Table-1
//!   mapping onto strategies;
//! * [`plan`] — the deployment-plan model with an OMG-D&C-flavoured XML
//!   emitter (Figure 4's `<configProperty>` shape);
//! * [`engine`] — ties it together: validation, EDMS priority assignment,
//!   instance/connection generation.
//!
//! # Examples
//!
//! ```
//! use rtcm_config::{configure, CpsCharacteristics, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parse(
//!     "workload demo\nprocessors 2\n\
//!      task scan periodic period=500ms\n  subtask exec=10ms proc=0 replicas=1\n",
//! )?;
//! let deployment = configure(&spec, &CpsCharacteristics::default())?;
//! assert_eq!(deployment.services.label(), "T_T_T");
//! assert!(deployment.plan.to_xml().contains("Central-AC"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod characteristics;
pub mod engine;
pub mod plan;
pub mod spec;

pub use characteristics::{CpsCharacteristics, MappedConfig, OverheadTolerance};
pub use engine::{
    configure, configure_with, summarize, Deployment, EngineError, TASK_MANAGER_NODE,
};
pub use plan::{ComponentType, Connection, DeploymentPlan, Instance, PlanError, PropValue};
pub use spec::{SpecError, SpecKind, SubtaskEntry, TaskEntry, WorkloadSpec};
