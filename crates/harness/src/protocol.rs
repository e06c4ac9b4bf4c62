//! The line protocol between the orchestrator and `cluster_node` child
//! processes.
//!
//! Framing is one JSON document per line on the child's stdin (commands)
//! and stdout (replies). At startup a child prints exactly one line of the
//! form `READY {reply-json}` carrying its federation host id; after that,
//! every command line produces exactly one reply line, in order.
//!
//! Commands and replies are deliberately one flat struct each (optional
//! fields unused by a given command stay `None`): the vendored serde
//! stand-in round-trips plain structs, and a flat shape keeps the child
//! loop a simple match on [`Command::cmd`].

use serde::{Deserialize, Serialize};

use rtcm_rt::SystemReport;

/// Marker prefix of a child's startup line.
pub const READY_PREFIX: &str = "READY ";

/// One command sent to a `cluster_node` child.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Command {
    /// The verb: `listen`, `connect`, `expect-voter`, `drop-voter`,
    /// `swap`, `submit`, `hold`, `services`, `report`, `oam`, `exit`.
    pub cmd: String,
    /// `connect`: the address to dial (`127.0.0.1:port`).
    pub addr: Option<String>,
    /// `expect-voter` / `drop-voter`: the remote host id.
    pub host_id: Option<u64>,
    /// `swap`: the target `ServiceConfig` label (e.g. `J_J_J`).
    pub target: Option<String>,
    /// `submit`: number of jobs to submit (task 0, ascending sequence).
    pub count: Option<u64>,
    /// `hold`: whether the member should simulate a partitioned host.
    pub value: Option<bool>,
}

impl Command {
    /// A command with only the verb set.
    #[must_use]
    pub fn verb(cmd: &str) -> Self {
        Command { cmd: cmd.to_string(), ..Command::default() }
    }
}

/// One reply from a `cluster_node` child (also the payload of `READY`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Reply {
    /// Whether the command succeeded.
    pub ok: bool,
    /// Failure detail when `ok` is false (e.g. a swap abort reason).
    pub error: Option<String>,
    /// `READY`: the child federation's host id.
    pub host_id: Option<u64>,
    /// `listen`: the freshly bound gateway port. `oam`: the freshly bound
    /// scrape-endpoint port.
    pub port: Option<u16>,
    /// `swap` / `services`: the current `ServiceConfig` label.
    pub label: Option<String>,
    /// Member `report`: prepares acked.
    pub acks: Option<u64>,
    /// Member `report`: prepares vetoed.
    pub nacks: Option<u64>,
    /// Member `report`: whether a fence is currently standing.
    pub fenced: Option<bool>,
    /// Member `report`: labels of configs whose commits were witnessed.
    pub commits: Option<Vec<String>>,
    /// Member `report`: corrupt frames seen by this member's bridges.
    pub bridge_rx_errors: Option<u64>,
    /// Member `report`: bridge links torn down at this member.
    pub bridge_disconnects: Option<u64>,
    /// Coordinator `report`: the full runtime report (includes the
    /// federation's bridge counters and the reconfig abort breakdown).
    pub report: Option<SystemReport>,
}

impl Reply {
    /// A bare success reply.
    #[must_use]
    pub fn success() -> Self {
        Reply { ok: true, ..Reply::default() }
    }

    /// A failure reply with detail.
    #[must_use]
    pub fn failure(error: impl Into<String>) -> Self {
        Reply { ok: false, error: Some(error.into()), ..Reply::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips() {
        let mut cmd = Command::verb("swap");
        cmd.target = Some("J_J_J".into());
        let line = serde_json::to_string(&cmd).unwrap();
        let back: Command = serde_json::from_str(&line).unwrap();
        assert_eq!(back.cmd, "swap");
        assert_eq!(back.target.as_deref(), Some("J_J_J"));
        assert_eq!(back.host_id, None);
    }

    #[test]
    fn reply_round_trips_with_report() {
        let mut reply = Reply::success();
        let mut report = SystemReport::default();
        report.reconfig_abort_reasons.ack_timeout = 1;
        report.bridge_rx_errors = 2;
        reply.report = Some(report);
        reply.commits = Some(vec!["J_J_J".into(), "T_T_T".into()]);
        let line = serde_json::to_string(&reply).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert!(back.ok);
        let report = back.report.unwrap();
        assert_eq!(report.reconfig_abort_reasons.ack_timeout, 1);
        assert_eq!(report.bridge_rx_errors, 2);
        assert_eq!(back.commits.unwrap().len(), 2);
    }

    #[test]
    fn failure_carries_detail() {
        let line = serde_json::to_string(&Reply::failure("AckTimeout")).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("AckTimeout"));
    }
}
