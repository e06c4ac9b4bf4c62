//! The deployment plan: a DAnCE-style description of which component
//! instances run on which nodes, their configuration properties, and the
//! port connections between them (§6, Figure 4).
//!
//! The plan is the hand-off artifact between the front-end configuration
//! engine and the runtime launcher (`rtcm-rt`), and can be rendered as
//! OMG-D&C-flavoured XML — including the `<configProperty>` shape shown in
//! the paper's Figure 4 — or as JSON via serde.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// The component kinds of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentType {
    /// Central admission controller.
    AdmissionController,
    /// Central load balancer.
    LoadBalancer,
    /// Per-processor task effector.
    TaskEffector,
    /// Per-processor idle resetter.
    IdleResetter,
    /// First or intermediate subtask executor (has a Trigger publisher).
    FiSubtask,
    /// Last subtask executor.
    LastSubtask,
}

impl fmt::Display for ComponentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ComponentType::AdmissionController => "AdmissionController",
            ComponentType::LoadBalancer => "LoadBalancer",
            ComponentType::TaskEffector => "TaskEffector",
            ComponentType::IdleResetter => "IdleResetter",
            ComponentType::FiSubtask => "FiSubtask",
            ComponentType::LastSubtask => "LastSubtask",
        })
    }
}

/// A typed configuration property value (maps to the XML `tk_*` kinds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropValue {
    /// `tk_string`.
    Str(String),
    /// `tk_ulong`.
    U32(u32),
    /// `tk_ulonglong` (used for times in microseconds).
    U64(u64),
}

impl PropValue {
    fn xml_kind(&self) -> &'static str {
        match self {
            PropValue::Str(_) => "tk_string",
            PropValue::U32(_) => "tk_ulong",
            PropValue::U64(_) => "tk_ulonglong",
        }
    }

    fn xml_tag(&self) -> &'static str {
        match self {
            PropValue::Str(_) => "string",
            PropValue::U32(_) => "ulong",
            PropValue::U64(_) => "ulonglong",
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Str(s) => f.write_str(s),
            PropValue::U32(v) => write!(f, "{v}"),
            PropValue::U64(v) => write!(f, "{v}"),
        }
    }
}

/// One component instance placed on a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Unique instance id, e.g. `Central-AC` or `task0-sub1@app2`.
    pub id: String,
    /// Component kind.
    pub component: ComponentType,
    /// Hosting node name, e.g. `task-manager` or `app-3`.
    pub node: String,
    /// Configuration properties (`set_configuration` payload).
    pub properties: Vec<(String, PropValue)>,
}

impl Instance {
    /// Looks a property up by name.
    #[must_use]
    pub fn property(&self, name: &str) -> Option<&PropValue> {
        self.properties.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// One port connection between two instances.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// Publishing/calling instance id.
    pub from_instance: String,
    /// Source port name.
    pub from_port: String,
    /// Consuming/serving instance id.
    pub to_instance: String,
    /// Destination port name.
    pub to_port: String,
}

/// A complete deployment plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentPlan {
    /// Plan label (typically the workload name).
    pub label: String,
    /// All component instances.
    pub instances: Vec<Instance>,
    /// All port connections.
    pub connections: Vec<Connection>,
}

impl DeploymentPlan {
    /// Finds an instance by id.
    #[must_use]
    pub fn instance(&self, id: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.id == id)
    }

    /// The distinct node names, in first-appearance order.
    #[must_use]
    pub fn nodes(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        self.instances.iter().map(|i| i.node.as_str()).filter(|n| seen.insert(*n)).collect()
    }

    /// Structural validation: unique instance ids and connections that
    /// reference existing instances.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] naming the first violation.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut ids = HashSet::new();
        for inst in &self.instances {
            if !ids.insert(inst.id.as_str()) {
                return Err(PlanError::DuplicateInstance { id: inst.id.clone() });
            }
        }
        for conn in &self.connections {
            for end in [&conn.from_instance, &conn.to_instance] {
                if !ids.contains(end.as_str()) {
                    return Err(PlanError::DanglingConnection {
                        instance: end.clone(),
                        from: conn.from_instance.clone(),
                        to: conn.to_instance.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders OMG-D&C-flavoured XML, including the paper's Figure-4
    /// `<configProperty>` shape.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        out.push_str(
            "<Deployment:DeploymentPlan xmlns:Deployment=\"http://www.omg.org/Deployment\">\n",
        );
        out.push_str(&format!("  <label>{}</label>\n", xml_escape(&self.label)));
        for inst in &self.instances {
            out.push_str(&format!("  <instance id=\"{}\">\n", xml_escape(&inst.id)));
            out.push_str(&format!("    <node>{}</node>\n", xml_escape(&inst.node)));
            out.push_str(&format!("    <type>{}</type>\n", inst.component));
            for (name, value) in &inst.properties {
                out.push_str("    <configProperty>\n");
                out.push_str(&format!("      <name>{}</name>\n", xml_escape(name)));
                out.push_str("      <value>\n");
                out.push_str(&format!("        <type><kind>{}</kind></type>\n", value.xml_kind()));
                out.push_str(&format!(
                    "        <value><{tag}>{}</{tag}></value>\n",
                    xml_escape(&value.to_string()),
                    tag = value.xml_tag()
                ));
                out.push_str("      </value>\n");
                out.push_str("    </configProperty>\n");
            }
            out.push_str("  </instance>\n");
        }
        for conn in &self.connections {
            out.push_str("  <connection>\n");
            out.push_str(&format!(
                "    <name>{}.{}-{}.{}</name>\n",
                xml_escape(&conn.from_instance),
                xml_escape(&conn.from_port),
                xml_escape(&conn.to_instance),
                xml_escape(&conn.to_port)
            ));
            out.push_str(&format!(
                "    <source instance=\"{}\" port=\"{}\"/>\n",
                xml_escape(&conn.from_instance),
                xml_escape(&conn.from_port)
            ));
            out.push_str(&format!(
                "    <dest instance=\"{}\" port=\"{}\"/>\n",
                xml_escape(&conn.to_instance),
                xml_escape(&conn.to_port)
            ));
            out.push_str("  </connection>\n");
        }
        out.push_str("</Deployment:DeploymentPlan>\n");
        out
    }
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Structural plan errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Two instances share an id.
    DuplicateInstance {
        /// The duplicated id.
        id: String,
    },
    /// A connection references a missing instance.
    DanglingConnection {
        /// The missing instance.
        instance: String,
        /// Connection source.
        from: String,
        /// Connection destination.
        to: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DuplicateInstance { id } => write!(f, "duplicate instance id {id:?}"),
            PlanError::DanglingConnection { instance, from, to } => {
                write!(f, "connection {from} -> {to} references missing instance {instance:?}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> DeploymentPlan {
        DeploymentPlan {
            label: "demo".into(),
            instances: vec![
                Instance {
                    id: "Central-AC".into(),
                    component: ComponentType::AdmissionController,
                    node: "task-manager".into(),
                    properties: vec![("LB_Strategy".into(), PropValue::Str("PT".into()))],
                },
                Instance {
                    id: "TE-0".into(),
                    component: ComponentType::TaskEffector,
                    node: "app-0".into(),
                    properties: vec![("ProcessorId".into(), PropValue::U32(0))],
                },
            ],
            connections: vec![Connection {
                from_instance: "TE-0".into(),
                from_port: "task_arrive".into(),
                to_instance: "Central-AC".into(),
                to_port: "task_arrive".into(),
            }],
        }
    }

    #[test]
    fn lookup_and_nodes() {
        let plan = sample_plan();
        assert!(plan.instance("Central-AC").is_some());
        assert!(plan.instance("nope").is_none());
        assert_eq!(plan.nodes(), vec!["task-manager", "app-0"]);
        assert_eq!(
            plan.instance("Central-AC").unwrap().property("LB_Strategy"),
            Some(&PropValue::Str("PT".into()))
        );
    }

    #[test]
    fn validates_structure() {
        let mut plan = sample_plan();
        assert!(plan.validate().is_ok());
        plan.connections.push(Connection {
            from_instance: "ghost".into(),
            from_port: "x".into(),
            to_instance: "TE-0".into(),
            to_port: "y".into(),
        });
        assert!(matches!(plan.validate(), Err(PlanError::DanglingConnection { .. })));

        let mut plan = sample_plan();
        plan.instances.push(plan.instances[0].clone());
        assert!(matches!(plan.validate(), Err(PlanError::DuplicateInstance { .. })));
    }

    #[test]
    fn xml_contains_figure4_shape() {
        let xml = sample_plan().to_xml();
        assert!(xml.contains("<instance id=\"Central-AC\">"));
        assert!(xml.contains("<name>LB_Strategy</name>"));
        assert!(xml.contains("<kind>tk_string</kind>"));
        assert!(xml.contains("<string>PT</string>"));
        assert!(xml.contains("<source instance=\"TE-0\" port=\"task_arrive\"/>"));
    }

    #[test]
    fn xml_escapes_special_characters() {
        let mut plan = sample_plan();
        plan.label = "a<b&\"c\"".into();
        let xml = plan.to_xml();
        assert!(xml.contains("<label>a&lt;b&amp;&quot;c&quot;</label>"));
    }

    #[test]
    fn json_round_trip() {
        let plan = sample_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: DeploymentPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn prop_value_kinds() {
        assert_eq!(PropValue::Str("x".into()).xml_kind(), "tk_string");
        assert_eq!(PropValue::U32(1).xml_kind(), "tk_ulong");
        assert_eq!(PropValue::U64(1).xml_kind(), "tk_ulonglong");
        assert_eq!(PropValue::U64(7).to_string(), "7");
    }
}
