//! One node of a multi-process rtcm cluster, driven over stdin/stdout by
//! the harness orchestrator (see `rtcm_harness::protocol`).
//!
//! Two roles:
//!
//! - `coordinator <ack_timeout_ms>` — runs a full [`rtcm_rt::System`]
//!   (2 processors, one aperiodic task) and initiates reconfigurations.
//! - `member <fence_timeout_ms>` — runs a bare federation with a
//!   [`rtcm_rt::QuorumMember`] voting on bridged reconfigurations.
//!
//! On startup the process prints `READY {reply-json}` with its federation
//! host id; afterwards each stdin line is one command and produces exactly
//! one stdout line. stdin EOF means exit.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use rtcm_config::{configure_with, WorkloadSpec};
use rtcm_core::task::TaskId;
use rtcm_events::{remote, topics, BridgeHandle, Federation, Latency, NodeId};
use rtcm_harness::protocol::{Command, Reply, READY_PREFIX};
use rtcm_rt::stats::render_federation;
use rtcm_rt::{QuorumMember, QuorumOptions, ReconfigureError, RtOptions, System};
use rtcm_telemetry::{Exposition, OamRoutes, OamServer};

/// The workload every coordinator runs: small, but real — jobs flow
/// through admission control while swaps are in flight.
const SPEC: &str = "workload w\nprocessors 2\n\
                    task t aperiodic deadline=200ms\n  subtask exec=1ms proc=0\n";

const QUIESCE: Duration = Duration::from_secs(20);

/// Reconfig traffic bridged between cluster hosts: phases outward, acks
/// back.
fn bridge_topics() -> Vec<rtcm_events::Topic> {
    vec![topics::RECONFIG, topics::RECONFIG_ACK]
}

fn emit(reply: &Reply) {
    let line = serde_json::to_string(reply).expect("replies serialize");
    let mut out = std::io::stdout();
    writeln!(out, "{line}").expect("stdout open");
    out.flush().expect("stdout flush");
}

fn emit_ready(host_id: u64) {
    let mut reply = Reply::success();
    reply.host_id = Some(host_id);
    let line = serde_json::to_string(&reply).expect("replies serialize");
    let mut out = std::io::stdout();
    writeln!(out, "{READY_PREFIX}{line}").expect("stdout open");
    out.flush().expect("stdout flush");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let role = args.get(1).map(String::as_str).unwrap_or("");
    let timeout_ms: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(500);
    match role {
        "coordinator" => run_coordinator(Duration::from_millis(timeout_ms)),
        "member" => run_member(Duration::from_millis(timeout_ms)),
        other => {
            eprintln!("cluster_node: unknown role {other:?} (want coordinator|member)");
            std::process::exit(2);
        }
    }
}

fn run_coordinator(ack_timeout: Duration) {
    let deployment = configure_with(
        &WorkloadSpec::parse(SPEC).expect("baked-in spec is valid"),
        "J_N_N".parse().expect("baked-in combo is valid"),
    )
    .expect("baked-in deployment configures");
    let mut options = RtOptions::fast();
    options.reconfig_ack_timeout = ack_timeout;
    let system = System::launch(&deployment, options).expect("system launches");
    let mut bridges: Vec<BridgeHandle> = Vec::new();
    let mut oam: Option<OamServer> = None;
    emit_ready(system.host_id());

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let cmd: Command = match serde_json::from_str(&line) {
            Ok(cmd) => cmd,
            Err(e) => {
                emit(&Reply::failure(format!("bad command: {e}")));
                continue;
            }
        };
        let reply = match cmd.cmd.as_str() {
            // Open a TCP gateway on an app node (node 1 = processor 0):
            // the manager node publishes the reconfig phases, so they are
            // forwarded outward; acks flow back in.
            "listen" => {
                match remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", bridge_topics())
                {
                    Ok((addr, handle)) => {
                        bridges.push(handle);
                        let mut reply = Reply::success();
                        reply.port = Some(addr.port());
                        reply
                    }
                    Err(e) => Reply::failure(format!("listen: {e}")),
                }
            }
            "expect-voter" => match cmd.host_id {
                Some(host) => {
                    system.register_remote_voter(host);
                    Reply::success()
                }
                None => Reply::failure("expect-voter needs host_id"),
            },
            "drop-voter" => match cmd.host_id {
                Some(host) => {
                    system.deregister_remote_voter(host);
                    Reply::success()
                }
                None => Reply::failure("drop-voter needs host_id"),
            },
            "swap" => {
                let Some(target) = cmd.target.as_deref() else {
                    emit(&Reply::failure("swap needs target"));
                    continue;
                };
                match target.parse() {
                    Err(e) => Reply::failure(format!("bad target: {e:?}")),
                    Ok(target) => match system.reconfigure(target) {
                        Ok(report) => {
                            let mut reply = Reply::success();
                            reply.label = Some(report.handover.to.label());
                            reply
                        }
                        Err(ReconfigureError::Aborted { reason, acked, expected }) => {
                            let mut reply = Reply::failure(format!("{reason:?}"));
                            reply.acks = Some(acked as u64);
                            reply.nacks = Some(expected as u64);
                            reply.label = Some(system.services().label());
                            reply
                        }
                        Err(e) => Reply::failure(format!("{e:?}")),
                    },
                }
            }
            "submit" => {
                let count = cmd.count.unwrap_or(1);
                let mut reply = Reply::success();
                for seq in 0..count {
                    if let Err(e) = system.submit(TaskId(0), seq) {
                        reply = Reply::failure(format!("submit: {e:?}"));
                        break;
                    }
                }
                if reply.ok && !system.quiesce(QUIESCE) {
                    reply = Reply::failure("quiesce timed out");
                }
                reply
            }
            "services" => {
                let mut reply = Reply::success();
                reply.label = Some(system.services().label());
                reply
            }
            "report" => {
                let mut reply = Reply::success();
                reply.label = Some(system.services().label());
                reply.report = Some(system.stats());
                reply
            }
            // Mount the OAM scrape endpoint (idempotent: repeated commands
            // reply with the already-bound port).
            "oam" => match &oam {
                Some(server) => {
                    let mut reply = Reply::success();
                    reply.port = Some(server.addr().port());
                    reply
                }
                None => match system.serve_oam("127.0.0.1:0") {
                    Ok(server) => {
                        let mut reply = Reply::success();
                        reply.port = Some(server.addr().port());
                        oam = Some(server);
                        reply
                    }
                    Err(e) => Reply::failure(format!("oam: {e}")),
                },
            },
            "exit" => {
                emit(&Reply::success());
                break;
            }
            other => Reply::failure(format!("unknown command {other:?}")),
        };
        emit(&reply);
    }
    drop(oam);
    drop(bridges);
    let _ = system.shutdown();
}

fn run_member(fence_timeout: Duration) {
    // A bare 2-node federation: node 0 is the bridge gateway, node 1
    // hosts the quorum member (mirroring the in-process bridged tests).
    let federation = Federation::new(2, Latency::None, 0);
    let member = Arc::new(
        QuorumMember::attach(&federation, NodeId(1), QuorumOptions { fence_timeout })
            .expect("member attaches"),
    );
    let mut bridges: Vec<BridgeHandle> = Vec::new();
    let mut oam: Option<OamServer> = None;
    emit_ready(member.host_id());

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let cmd: Command = match serde_json::from_str(&line) {
            Ok(cmd) => cmd,
            Err(e) => {
                emit(&Reply::failure(format!("bad command: {e}")));
                continue;
            }
        };
        let reply = match cmd.cmd.as_str() {
            "connect" => match cmd.addr.as_deref() {
                Some(addr) => {
                    match remote::connect(&federation, NodeId(0), addr, bridge_topics()) {
                        Ok(handle) => {
                            bridges.push(handle);
                            Reply::success()
                        }
                        Err(e) => Reply::failure(format!("connect: {e}")),
                    }
                }
                None => Reply::failure("connect needs addr"),
            },
            "hold" => {
                member.set_holding(cmd.value.unwrap_or(true));
                Reply::success()
            }
            "report" => {
                let stats = federation.stats();
                let mut reply = Reply::success();
                reply.acks = Some(member.ack_count());
                reply.nacks = Some(member.nack_count());
                reply.fenced = Some(member.is_fenced());
                reply.commits = Some(member.observed_commits().iter().map(|c| c.label()).collect());
                reply.bridge_rx_errors = Some(stats.bridge_rx_errors);
                reply.bridge_disconnects = Some(stats.bridge_disconnects);
                reply
            }
            // Mount the member's own OAM endpoint: vote counters and
            // bridge health as an exposition, plus the trace buffer of
            // foreign reconfiguration phases it witnessed (same swap
            // trace ids as the coordinator's dump).
            "oam" => match &oam {
                Some(server) => {
                    let mut reply = Reply::success();
                    reply.port = Some(server.addr().port());
                    reply
                }
                None => {
                    let channel = federation.handle(NodeId(0)).expect("node 0 exists");
                    let expo_member = Arc::clone(&member);
                    let trace = Arc::clone(member.trace());
                    let routes = OamRoutes {
                        metrics: Arc::new(move || member_exposition(&expo_member, &channel)),
                        trace: Arc::new(move || trace.dump_json_lines()),
                    };
                    match OamServer::start("127.0.0.1:0", routes) {
                        Ok(server) => {
                            let mut reply = Reply::success();
                            reply.port = Some(server.addr().port());
                            oam = Some(server);
                            reply
                        }
                        Err(e) => Reply::failure(format!("oam: {e}")),
                    }
                }
            },
            "exit" => {
                emit(&Reply::success());
                break;
            }
            other => Reply::failure(format!("unknown command {other:?}")),
        };
        emit(&reply);
    }
    drop(oam);
    drop(bridges);
    drop(member);
}

/// The member role's scrape page: quorum vote counters, fence state, and
/// the bridge-health counters of the federation it represents.
fn member_exposition(member: &QuorumMember, channel: &rtcm_events::ChannelHandle) -> String {
    let mut expo = Exposition::new();
    expo.info(
        "rtcm_build_info",
        "Build and configuration metadata.",
        &[
            ("version".into(), env!("CARGO_PKG_VERSION").into()),
            ("role".into(), "quorum-member".into()),
            ("host".into(), member.host_id().to_string()),
        ],
    );
    expo.counter("rtcm_member_acks_total", "Foreign prepares acked.", member.ack_count());
    expo.counter("rtcm_member_nacks_total", "Foreign prepares vetoed.", member.nack_count());
    expo.counter(
        "rtcm_member_commits_total",
        "Foreign commits witnessed.",
        member.observed_commits().len() as u64,
    );
    expo.gauge(
        "rtcm_member_fenced",
        "1 while fenced for a pending foreign swap.",
        if member.is_fenced() { 1.0 } else { 0.0 },
    );
    render_federation(&mut expo, &channel.federation_stats());
    expo.finish()
}
