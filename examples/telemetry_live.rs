//! The telemetry plane, live: scrape a running system over real TCP while
//! jobs flow and a bridged two-host reconfiguration commits — the
//! "watch it, don't stop it" counterpart to the end-of-run report.
//!
//! Four acts:
//!
//! 1. **Mount**: a `System` under load serves `GET /metrics` (Prometheus
//!    text exposition v0.0.4) and `GET /trace` (JSON lines) from a
//!    dependency-free OAM endpoint; every runtime row is a lock-free
//!    counter, gauge or log2-bucketed histogram, so a scrape reads atomics
//!    while jobs keep recording.
//! 2. **Scrape mid-run**: curl-style fetches show live counters and
//!    percentile-ready histogram buckets while jobs are still in flight.
//! 3. **Bridged swap**: a TCP-bridged remote host votes on a
//!    reconfiguration; both hosts' `/trace` dumps carry the *same*
//!    deterministic swap trace id, so one grep correlates the distributed
//!    protocol without any clock alignment.
//! 4. **Percentiles**: p50/p90/p99 end-to-end response straight from the
//!    histogram — numbers the old mean/min/max report could not show.
//!
//! ```sh
//! cargo run --release --example telemetry_live
//! ```

use std::time::Duration as StdDuration;

use rtcm::config::{configure_with, WorkloadSpec};
use rtcm::core::task::TaskId;
use rtcm::events::{remote, topics, Federation, Latency, NodeId};
use rtcm::rt::{QuorumMember, QuorumOptions, RtOptions, System};
use rtcm::telemetry::{scrape, TraceRecord};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Act 1: a system under load, with the OAM endpoint mounted ------
    let deployment = configure_with(
        &WorkloadSpec::parse(
            "workload telemetry\nprocessors 2\n\
             task scan periodic period=20ms\n  subtask exec=1ms proc=0 replicas=1\n\
             task alert aperiodic deadline=50ms\n  subtask exec=1ms proc=1\n",
        )?,
        "J_N_N".parse()?,
    )?;
    let system = System::launch(&deployment, RtOptions::fast())?;
    let oam = system.serve_oam("127.0.0.1:0")?;
    println!("OAM endpoint listening on http://{}", oam.addr());

    // ---- Act 3 wiring: a bridged remote host joins the prepare quorum ---
    let quorum_topics = vec![topics::RECONFIG, topics::RECONFIG_ACK];
    let (addr, _server) =
        remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", quorum_topics.clone())?;
    let remote_host = Federation::new(2, Latency::None, 0);
    let _client = remote::connect(&remote_host, NodeId(0), addr, quorum_topics)?;
    let member = QuorumMember::attach(&remote_host, NodeId(1), QuorumOptions::default())?;
    system.register_remote_voter(member.host_id());

    // ---- Act 2: scrape while jobs are in flight -------------------------
    for seq in 0..40 {
        system.submit(TaskId(0), seq)?;
        system.submit(TaskId(1), seq)?;
        if seq == 20 {
            let page = scrape(oam.addr(), "/metrics")?;
            println!("\nmid-run scrape (selected lines):");
            for line in page.lines().filter(|l| {
                l.starts_with("rtcm_jobs_arrived_total")
                    || l.starts_with("rtcm_jobs_completed_total")
                    || l.starts_with("rtcm_jobs_in_flight")
                    || l.starts_with("rtcm_build_info")
            }) {
                println!("  {line}");
            }
            // The swap happens mid-burst; its trace shows up in Act 3.
            let report = system.reconfigure("T_T_T".parse()?)?;
            println!("\nswap committed mid-burst: {report}");
        }
    }
    assert!(system.quiesce(StdDuration::from_secs(10)), "all jobs drain");

    // ---- Act 3: one trace id correlates both hosts ----------------------
    // The coordinator minted the id (deterministically, from its identity
    // and the epoch — see `proto::swap_trace`) and every phase message
    // carried it, so grepping the *other* host's dump for the id read off
    // this one is all the correlation machinery there is.
    let swap_trace = system
        .telemetry()
        .trace
        .snapshot()
        .iter()
        .find(|r| r.stage == "reconfig_commit")
        .map(|r| r.trace)
        .expect("the committed swap is in the coordinator's trace");
    println!("\nswap trace id {swap_trace:#018x} as seen from each host:");
    let local: Vec<TraceRecord> =
        system.telemetry().trace.snapshot().into_iter().filter(|r| r.trace == swap_trace).collect();
    for r in &local {
        println!("  coordinator host {:>2}  {:<16} {}", r.host, r.stage, r.detail);
    }
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    let witnessed = loop {
        let seen: Vec<TraceRecord> =
            member.trace().snapshot().into_iter().filter(|r| r.trace == swap_trace).collect();
        if seen.iter().any(|r| r.stage == "reconfig_commit") {
            break seen;
        }
        assert!(std::time::Instant::now() < deadline, "member never saw the commit");
        std::thread::sleep(StdDuration::from_millis(5));
    };
    for r in &witnessed {
        println!("  member host      {:>2}  {:<16} {}", r.host, r.stage, r.detail);
    }
    assert!(!local.is_empty() && !witnessed.is_empty(), "both hosts traced the swap");

    // ---- Act 4: percentiles from the histograms -------------------------
    let response = system.telemetry().response.snapshot();
    println!("\nend-to-end response percentiles ({} jobs):", response.count);
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        println!("  {label}: {:.3} ms", response.quantile(q) as f64 / 1e6);
    }

    let final_page = scrape(oam.addr(), "/metrics")?;
    let trace_lines = scrape(oam.addr(), "/trace")?.lines().count();
    println!(
        "\nfinal scrape: {} exposition lines, {} trace records over HTTP",
        final_page.lines().count(),
        trace_lines
    );

    let report = system.shutdown();
    println!(
        "done: {} jobs completed, {} swaps, 0 locks taken by any scrape while they ran.",
        report.jobs_completed, report.reconfig_swaps
    );
    oam.shutdown();
    Ok(())
}
