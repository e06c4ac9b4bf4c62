//! The job stages the runtime traces, packed as numbers.
//!
//! A job's path (arrival, release, completion, admission, reallocation)
//! appends one [`TraceBuffer::record_packed`] per stage: a static
//! [`PackedStage`] and three `u64`s, the job's task and sequence number
//! first. The detail text (`"T3#7 on proc 1"`) is rendered from them only
//! when `/trace` is scraped, so a traced stage builds no `String`.

use std::fmt::Write as _;

use rtcm_core::task::{JobId, ProcessorId, TaskId};
use rtcm_telemetry::{PackedStage, TraceBuffer};

/// Processors a packed reallocation record holds, 16 bits each.
const PACKED_PLACEMENT: usize = 4;

/// The words of a job stage: task, sequence number, and one stage value.
#[must_use]
pub fn words(job: JobId, value: u64) -> [u64; 3] {
    [u64::from(job.task.0), job.seq, value]
}

fn job(words: &[u64; 3]) -> JobId {
    // The low 32 bits are the task; a reallocation keeps its processor
    // count above them.
    JobId::new(TaskId(words[0] as u32), words[1])
}

/// Appends formatted text to a detail; writing to a `String` cannot fail.
fn put(out: &mut String, args: std::fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing to a String");
}

/// A job arrived at its arrival processor (`value` = that processor).
pub static ARRIVAL: PackedStage = PackedStage {
    name: "arrival",
    render: |w, out| put(out, format_args!("{} at proc {}", job(w), w[2])),
};

/// The task effector released a job without asking the manager
/// (`value` = release processor).
pub static FAST_RELEASE: PackedStage = PackedStage {
    name: "release",
    render: |w, out| put(out, format_args!("{} fast path, proc {}", job(w), w[2])),
};

/// An accepted job released on its processor (`value` = that processor).
pub static RELEASE: PackedStage = PackedStage {
    name: "release",
    render: |w, out| put(out, format_args!("{} on proc {}", job(w), w[2])),
};

/// A job's last stage finished by its deadline (`value` = processor).
pub static COMPLETION_MET: PackedStage = PackedStage {
    name: "completion",
    render: |w, out| put(out, format_args!("{} on proc {}, deadline met", job(w), w[2])),
};

/// A job's last stage finished after its deadline (`value` = processor).
pub static COMPLETION_MISSED: PackedStage = PackedStage {
    name: "completion",
    render: |w, out| put(out, format_args!("{} on proc {}, deadline missed", job(w), w[2])),
};

/// The manager admitted a job (`value` = 1 when it ran a fresh test).
pub static ACCEPTED: PackedStage = PackedStage {
    name: "admission",
    render: |w, out| put(out, format_args!("{} accepted (fresh test: {})", job(w), w[2] != 0)),
};

/// The manager rejected a job (`value` = 1 when the verdict covers the
/// whole task).
pub static REJECTED: PackedStage = PackedStage {
    name: "admission",
    render: |w, out| {
        put(out, format_args!("{} rejected (task rejected: {})", job(w), w[2] != 0));
    },
};

/// The manager rejected a duplicate submission (`value` unused).
pub static DUPLICATE: PackedStage = PackedStage {
    name: "admission",
    render: |w, out| put(out, format_args!("{} rejected (duplicate)", job(w))),
};

/// A job placed off its primaries; `words[0]` keeps the processor count
/// above the task, `words[2]` the processors, 16 bits each.
static REALLOCATION: PackedStage = PackedStage {
    name: "reallocation",
    render: |w, out| {
        put(out, format_args!("{} placed [", job(w)));
        for i in 0..(w[0] >> 32) {
            let sep = if i == 0 { "" } else { ", " };
            put(out, format_args!("{sep}{}", (w[2] >> (16 * i)) & 0xFFFF));
        }
        out.push(']');
    },
};

/// Records a reallocation: packed when it places up to four processors,
/// as text beyond that.
pub(crate) fn record_reallocation(
    trace: &TraceBuffer,
    id: u64,
    at_ns: u64,
    host: u64,
    job: JobId,
    placed: &[ProcessorId],
) {
    if placed.len() <= PACKED_PLACEMENT {
        let procs =
            placed.iter().enumerate().fold(0, |acc, (i, p)| acc | u64::from(p.0) << (16 * i));
        let [task, seq, _] = words(job, 0);
        trace.record_packed(
            id,
            at_ns,
            host,
            &REALLOCATION,
            [task | (placed.len() as u64) << 32, seq, procs],
        );
    } else {
        let procs: Vec<u16> = placed.iter().map(|p| p.0).collect();
        trace.record(id, at_ns, host, "reallocation", format!("{job} placed {procs:?}"));
    }
}

#[cfg(test)]
mod tests {
    use rtcm_telemetry::TraceRecord;

    use super::*;

    /// The record a packed stage renders to, through the ring.
    fn rendered(stage: &'static PackedStage, words: [u64; 3]) -> TraceRecord {
        let buf = TraceBuffer::new(1);
        buf.record_packed(11, 22, 33, stage, words);
        buf.snapshot().pop().expect("one record")
    }

    /// The record the text path built before stages were packed.
    fn text(stage: &str, detail: String) -> TraceRecord {
        TraceRecord { trace: 11, at_ns: 22, host: 33, stage: stage.into(), detail }
    }

    #[test]
    fn packed_stages_render_the_text_they_replaced() {
        let job = JobId::new(TaskId(4_000_000_000), u64::MAX);
        let p: u16 = 65_535;
        let cases = [
            (&ARRIVAL, words(job, 2), text("arrival", format!("{job} at proc {}", 2u16))),
            (
                &FAST_RELEASE,
                words(job, p.into()),
                text("release", format!("{job} fast path, proc {p}")),
            ),
            (&RELEASE, words(job, 0), text("release", format!("{} on proc {}", job, 0u16))),
            (
                &COMPLETION_MET,
                words(job, 1),
                text("completion", format!("{} on proc {}, deadline {}", job, 1u16, "met")),
            ),
            (
                &COMPLETION_MISSED,
                words(job, 1),
                text("completion", format!("{} on proc {}, deadline {}", job, 1u16, "missed")),
            ),
        ];
        for (stage, w, want) in cases {
            assert_eq!(rendered(stage, w), want);
        }
        for fresh in [true, false] {
            assert_eq!(
                rendered(&ACCEPTED, words(job, fresh.into())),
                text("admission", format!("{} accepted (fresh test: {fresh})", job)),
            );
        }
        let why = |task_rejected: bool| format!("task rejected: {task_rejected}");
        for task_rejected in [true, false] {
            assert_eq!(
                rendered(&REJECTED, words(job, task_rejected.into())),
                text("admission", format!("{} rejected ({})", job, why(task_rejected))),
            );
        }
        assert_eq!(
            rendered(&DUPLICATE, words(job, 0)),
            text("admission", format!("{} rejected ({})", job, "duplicate".to_owned())),
        );
    }

    #[test]
    fn reallocations_render_the_text_they_replaced_packed_or_not() {
        let job = JobId::new(TaskId(7), 3);
        let placements: [&[u16]; 6] =
            [&[], &[2], &[0, 65_535], &[1, 0, 2], &[3, 1, 0, 2], &[4, 3, 1, 0, 2]];
        for placed in placements {
            let procs: Vec<ProcessorId> = placed.iter().copied().map(ProcessorId).collect();
            let buf = TraceBuffer::new(1);
            record_reallocation(&buf, 11, 22, 33, job, &procs);
            let want = format!(
                "{} placed {:?}",
                job,
                procs.as_slice().iter().map(|p| p.0).collect::<Vec<_>>()
            );
            assert_eq!(buf.snapshot(), [text("reallocation", want)], "{placed:?}");
        }
    }
}
