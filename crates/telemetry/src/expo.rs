//! Prometheus-style text exposition (format v0.0.4).
//!
//! [`Exposition`] is a plain text builder: callers append counters, gauges
//! and histograms from wherever the values live — the lock-free
//! [`Registry`](crate::Registry) renders itself through it, and the
//! runtime appends its mutex-held report counters the same way, so one
//! scrape shows the whole system. Output is deterministic in append
//! order; the golden test pins names, labels and HELP/TYPE lines.

use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, Handle, HistogramSnapshot, Registry};

/// Text-exposition builder.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders a `{k="v",...}` label block ("" when empty).
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", body.join(","))
}

/// Formats a float the way the exposition expects (integral values
/// without a trailing `.0` keeps counters grep-friendly).
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Exposition {
    /// An empty exposition.
    #[must_use]
    pub fn new() -> Self {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends one counter broken down by a label: a single HELP/TYPE
    /// header, then one `name{label="value"} n` sample per series.
    pub fn counter_by(&mut self, name: &str, help: &str, label: &str, series: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (value, n) in series {
            let _ = writeln!(self.out, "{name}{{{label}=\"{}\"}} {n}", escape_label(value));
        }
    }

    /// Appends one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {}", fmt_value(value));
    }

    /// Appends a labelled constant-1 info gauge (`name{labels} 1`).
    pub fn info(&mut self, name: &str, help: &str, labels: &[(String, String)]) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name}{} 1", label_block(labels));
    }

    /// Appends a full histogram: cumulative `_bucket{le="..."}` lines over
    /// the occupied log2 range, `+Inf`, `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let mut cum = 0u64;
        let last = snap.buckets.iter().rposition(|&c| c > 0);
        if let Some(last) = last {
            for (i, &c) in snap.buckets.iter().enumerate().take(last + 1) {
                cum += c;
                // One cumulative line per power-of-two boundary up to the
                // occupied range; empty leading buckets are skipped.
                if c == 0 && i != last {
                    continue;
                }
                let _ =
                    writeln!(self.out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper_bound(i));
            }
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
    }

    /// The accumulated exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

impl Registry {
    /// Renders every registered metric (registration order) plus the
    /// build-info gauge into `expo`.
    pub fn render(&self, expo: &mut Exposition) {
        let info = self.build_info.lock().expect("registry poisoned").clone();
        if !info.is_empty() {
            expo.info("rtcm_build_info", "Build and configuration metadata.", &info);
        }
        let entries = self.entries.lock().expect("registry poisoned");
        // One pooled snapshot serves every histogram in the pass: the
        // bucket Vec is allocated once and refilled per entry.
        let mut snap = HistogramSnapshot::default();
        for e in entries.iter() {
            match &e.handle {
                Handle::Counter(c) => expo.counter(&e.name, &e.help, c.get()),
                Handle::Gauge(g) => expo.gauge(&e.name, &e.help, g.get()),
                Handle::Histogram(h) => {
                    h.snapshot_into(&mut snap);
                    expo.histogram(&e.name, &e.help, &snap);
                }
            }
        }
    }

    /// Convenience: the full exposition text for this registry alone.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut expo = Exposition::new();
        self.render(&mut expo);
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn counter_and_gauge_lines() {
        let mut e = Exposition::new();
        e.counter("rtcm_jobs_total", "Jobs.", 7);
        e.gauge("rtcm_slack", "Headroom.", 0.25);
        let text = e.finish();
        assert!(text.contains("# TYPE rtcm_jobs_total counter\nrtcm_jobs_total 7\n"));
        assert!(text.contains("# TYPE rtcm_slack gauge\nrtcm_slack 0.25\n"));
    }

    #[test]
    fn labelled_counter_shares_one_header() {
        let mut e = Exposition::new();
        e.counter_by("rtcm_errs_total", "Errors.", "topic", &[("accept", 2), ("reject", 0)]);
        assert_eq!(
            e.finish(),
            "# HELP rtcm_errs_total Errors.\n# TYPE rtcm_errs_total counter\n\
             rtcm_errs_total{topic=\"accept\"} 2\nrtcm_errs_total{topic=\"reject\"} 0\n"
        );
    }

    #[test]
    fn histogram_lines_are_cumulative() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        h.record(3);
        let mut e = Exposition::new();
        e.histogram("rtcm_delay_ns", "Delay.", &h.snapshot());
        let text = e.finish();
        assert!(text.contains("rtcm_delay_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("rtcm_delay_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("rtcm_delay_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("rtcm_delay_ns_sum 7\n"));
        assert!(text.contains("rtcm_delay_ns_count 3\n"));
    }

    #[test]
    fn info_labels_are_escaped() {
        let mut e = Exposition::new();
        e.info(
            "rtcm_build_info",
            "Build metadata.",
            &[("version".into(), "0.1.0".into()), ("cfg".into(), "a\"b".into())],
        );
        let text = e.finish();
        assert!(text.contains("rtcm_build_info{version=\"0.1.0\",cfg=\"a\\\"b\"} 1\n"));
    }
}
