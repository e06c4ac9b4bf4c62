//! **Micro-benchmark: what a bridged control message pays per layer.**
//!
//! A job's messages pass through two codecs — `rtcm_rt::proto`'s payload
//! layout inside `rtcm_events::wire`'s frame — and, when bridged, one TCP
//! link. This bench puts a number on each, appended as one trajectory
//! point to `BENCH_wire.json` at the workspace root:
//!
//! * **Sizes** — frame bytes per canonical event, payload bytes per
//!   `AcceptMsg`.
//! * **Frame codec** — encode and decode frames/s in isolation.
//! * **Payload codec** — ns per `AcceptMsg` encode / decode, and per
//!   whole 2-stage job (every encode plus every receiver's decode: the
//!   end-to-end benchmark's `rt.proto.job_codec_ns` row).
//! * **Bridge receive** — pre-encoded frame streams pushed through a
//!   *real* bridge's read → decode → republish path, timed at the
//!   subscriber.
//! * **Bridged one-way burst** — events published on one federation and
//!   received on another across a real bridged pair, nothing flowing back:
//!   the shape that stalled on Nagle + delayed ACK before `TCP_NODELAY`.
//!
//! Criterion arms cover the per-operation codec costs; the JSON point
//! carries the tracked numbers.

use criterion::{black_box, criterion_group, Criterion};
use rtcm_bench::events::PAYLOAD;
use rtcm_bench::wire::{decode_all, encode_frames, BridgeRig, BridgedPair, JobMessages};
use rtcm_rt::proto::{self, AcceptMsg};
use serde_json::json;

/// Nodes decoding each ACCEPT/TRIGGER in the whole-job arm (as in the
/// end-to-end benchmark's three-processor system).
const PROCESSORS: usize = 3;

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_frame", |b| b.iter(|| black_box(encode_frames(1))));
    let frames = encode_frames(64);
    group.bench_function("decode_frames_64", |b| b.iter(|| black_box(decode_all(&frames))));

    let job = JobMessages::two_stage(PROCESSORS);
    let accept_bytes = proto::encode(&job.accept);
    group.bench_function("encode_accept", |b| b.iter(|| black_box(proto::encode(&job.accept))));
    group.bench_function("decode_accept", |b| {
        b.iter(|| black_box(proto::decode::<AcceptMsg>(black_box(&accept_bytes))));
    });
    group.bench_function("job_codec", |b| b.iter(|| black_box(job.codec_pass())));
    group.finish();
}

/// Items/s for `op` (which reports how many items it handled) run
/// `rounds` times.
fn rate(rounds: usize, mut op: impl FnMut() -> usize) -> f64 {
    let start = std::time::Instant::now();
    let mut items = 0usize;
    for _ in 0..rounds {
        items += black_box(op());
    }
    items as f64 / start.elapsed().as_secs_f64()
}

/// Mean ns per call of `op` over `rounds` calls.
fn ns_per_op(rounds: usize, mut op: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        op();
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

fn emit_json() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let (rounds, batch, bridge_batches) = if quick { (200, 256, 20) } else { (2000, 256, 200) };
    let mut results = Vec::new();

    // Sizes.
    let job = JobMessages::two_stage(PROCESSORS);
    let accept_bytes = proto::encode(&job.accept);
    let frame_bytes = encode_frames(1).len();
    println!(
        "wire/size frame {frame_bytes}B for a {}B payload, AcceptMsg payload {}B",
        PAYLOAD.len(),
        accept_bytes.len()
    );
    results.push(json!({
        "arm": "sizes",
        "payload_bytes": PAYLOAD.len(),
        "frame_bytes_per_event": frame_bytes,
        "accept_payload_bytes": accept_bytes.len(),
    }));

    // Frame codec in isolation.
    let stream = encode_frames(batch);
    let encode_rate = rate(rounds, || {
        black_box(encode_frames(batch));
        batch
    });
    let decode_rate = rate(rounds, || decode_all(&stream));
    println!("wire/frame_codec encode {encode_rate:>12.0} decode {decode_rate:>12.0} frames/s");
    results.push(json!({
        "arm": "frame_codec",
        "encode_frames_per_sec": encode_rate,
        "decode_frames_per_sec": decode_rate,
    }));

    // Payload codec in isolation.
    let ops = rounds * batch;
    let encode_ns = ns_per_op(ops, || {
        black_box(proto::encode(black_box(&job.accept)));
    });
    let decode_ns = ns_per_op(ops, || {
        black_box(proto::decode::<AcceptMsg>(black_box(&accept_bytes)));
    });
    let job_ns = ns_per_op(ops / 8, || {
        black_box(job.codec_pass());
    });
    println!(
        "wire/payload_codec AcceptMsg encode {encode_ns:.0} ns, decode {decode_ns:.0} ns; \
         whole 2-stage job {job_ns:.0} ns"
    );
    results.push(json!({
        "arm": "payload_codec",
        "encode_accept_ns": encode_ns,
        "decode_accept_ns": decode_ns,
        "job_codec_ns": job_ns,
    }));

    // A real bridge's receive path.
    let mut rig = BridgeRig::new();
    rig.pump(&stream, batch); // warm-up: connection + first republish
    let mut total = std::time::Duration::ZERO;
    for _ in 0..bridge_batches {
        total += rig.pump(&stream, batch);
    }
    assert_eq!(rig.stats().bridge_rx_errors, 0, "bench streams are clean");
    let rx_rate = (bridge_batches * batch) as f64 / total.as_secs_f64();
    println!("wire/bridge_rx      {rx_rate:>12.0} events/s");
    results.push(json!({ "arm": "bridge_rx", "events_per_sec": rx_rate }));

    // A whole bridged pair, one way.
    let pair = BridgedPair::new();
    pair.burst(&accept_bytes, batch); // warm-up
    let mut total = std::time::Duration::ZERO;
    for _ in 0..bridge_batches {
        total += pair.burst(&accept_bytes, batch);
    }
    let burst_rate = (bridge_batches * batch) as f64 / total.as_secs_f64();
    println!("wire/bridged_burst  {burst_rate:>12.0} events/s one way ({batch} per burst)");
    results.push(json!({
        "arm": "bridged_one_way_burst",
        "burst": batch,
        "events_per_sec": burst_rate,
    }));

    match rtcm_bench::append_bench_point("BENCH_wire.json", "micro_wire", quick, results) {
        Ok(path) => println!("appended a point to {}", path.display()),
        Err(e) => eprintln!("could not append to BENCH_wire.json: {e}"),
    }
}

criterion_group!(benches, bench_wire);

fn main() {
    benches();
    emit_json();
}
