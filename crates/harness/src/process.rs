//! Child-process management for the multi-process cluster harness.
//!
//! [`NodeProc`] wraps one `cluster_node` OS process: it spawns the child
//! with piped stdio, waits for the `READY` banner, and then exchanges one
//! JSON line per command over stdin/stdout. A background pump thread owns
//! the child's stdout so [`NodeProc::request`] can time out instead of
//! blocking forever on a wedged or killed child.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command as OsCommand, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

use crate::protocol::{Command, Reply, READY_PREFIX};

/// How long a single command may take before the orchestrator declares the
/// child wedged. Generous: campaigns run aborting swaps whose ack timeouts
/// are a few hundred milliseconds, plus process scheduling noise under CI.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors from driving a `cluster_node` child.
#[derive(Debug)]
pub enum ProcError {
    /// The child could not be spawned or its stdio pipes taken.
    Spawn(String),
    /// The child's stdout closed or produced garbage where a reply was due.
    Protocol(String),
    /// No reply line arrived within `REPLY_TIMEOUT` (30 s).
    Timeout,
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Spawn(e) => write!(f, "spawn failed: {e}"),
            ProcError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ProcError::Timeout => write!(f, "child did not reply in time"),
        }
    }
}

impl std::error::Error for ProcError {}

/// One running `cluster_node` child process.
pub struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    /// The host id the child announced in its `READY` banner.
    pub host_id: u64,
}

impl std::fmt::Debug for NodeProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeProc").field("host_id", &self.host_id).finish()
    }
}

impl NodeProc {
    /// Spawns `binary` with the given arguments (role + options), pipes its
    /// stdio, and blocks until the child prints its `READY` banner.
    ///
    /// # Errors
    ///
    /// [`ProcError`] if the spawn fails, the banner is malformed, or the
    /// child dies before announcing readiness.
    pub fn spawn(binary: &str, args: &[&str]) -> Result<NodeProc, ProcError> {
        let mut child = OsCommand::new(binary)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ProcError::Spawn(e.to_string()))?;
        let stdin = child.stdin.take().ok_or_else(|| ProcError::Spawn("no stdin pipe".into()))?;
        let stdout =
            child.stdout.take().ok_or_else(|| ProcError::Spawn("no stdout pipe".into()))?;

        let (tx, lines) = mpsc::channel();
        std::thread::Builder::new()
            .name("rtcm-node-stdout".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn stdout pump");

        let banner = lines
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| ProcError::Protocol("child exited before READY".into()))?;
        let json = banner
            .strip_prefix(READY_PREFIX)
            .ok_or_else(|| ProcError::Protocol(format!("bad banner: {banner}")))?;
        let ready: Reply =
            serde_json::from_str(json).map_err(|e| ProcError::Protocol(e.to_string()))?;
        let host_id =
            ready.host_id.ok_or_else(|| ProcError::Protocol("READY without host_id".into()))?;

        Ok(NodeProc { child, stdin, lines, host_id })
    }

    /// Sends one command and waits for the matching reply line.
    ///
    /// # Errors
    ///
    /// [`ProcError`] on a dead child, malformed reply, or timeout.
    pub fn request(&mut self, cmd: &Command) -> Result<Reply, ProcError> {
        let line = serde_json::to_string(cmd).map_err(|e| ProcError::Protocol(e.to_string()))?;
        writeln!(self.stdin, "{line}").map_err(|e| ProcError::Protocol(e.to_string()))?;
        self.stdin.flush().map_err(|e| ProcError::Protocol(e.to_string()))?;
        let reply = self.lines.recv_timeout(REPLY_TIMEOUT).map_err(|_| ProcError::Timeout)?;
        serde_json::from_str(&reply).map_err(|e| ProcError::Protocol(e.to_string()))
    }

    /// Convenience: send a command and panic with context unless the child
    /// replies `ok: true`. Campaign tests use this for steps that must
    /// succeed; fault outcomes go through [`NodeProc::request`] instead.
    pub fn expect_ok(&mut self, cmd: &Command) -> Reply {
        let reply = self.request(cmd).unwrap_or_else(|e| panic!("{} failed: {e}", cmd.cmd));
        assert!(reply.ok, "{} refused: {:?}", cmd.cmd, reply.error);
        reply
    }

    /// Asks the child to exit cleanly and reaps it.
    pub fn shutdown(mut self) {
        let _ = self.request(&Command::verb("exit"));
        let _ = self.child.wait();
    }

    /// Kills the child process outright (SIGKILL) — the "process crash"
    /// fault. The OS closes the child's sockets, so peers observe a
    /// disconnect with no goodbye.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
