//! Spans recorded by the benchmark at the layer boundaries it can see from
//! outside: kept in memory during the traced run, written out as JSON lines
//! when it ends.

use std::io::Write;

/// One interval at a layer boundary. Spans of one job share `trace`;
/// `parent` is the index of the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover (overlapping children are counted once; the part of a
/// child outside the parent covers nothing).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in cuts {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Self time of every span of `spans`, by index.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push(span);
        }
    }
    spans.iter().zip(&children).map(|(s, c)| self_time_ns(s, c)).collect()
}

/// Writes one JSON object per span, with its self time.
pub fn write_json_lines(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let self_ns = self_times_ns(spans);
    for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"self_ns\":{own}}}",
            span.trace, span.name, span.start_ns, span.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { trace: 1, name: "s", start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let root = span(0, 100, None);
        let a = span(10, 30, Some(0));
        let b = span(20, 50, Some(0)); // overlaps a by 10
        let c = span(90, 140, Some(0)); // half outside the parent
        let d = span(200, 300, Some(0)); // wholly outside
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&root, &[&a]), 80);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 60);
        assert_eq!(self_time_ns(&root, &[&b, &a, &c, &d]), 50);
    }

    #[test]
    fn a_partition_leaves_no_self_time_and_leaves_keep_theirs() {
        let spans = vec![
            span(0, 90, None),
            span(0, 20, Some(0)),
            span(20, 70, Some(0)),
            span(70, 90, Some(0)),
            span(30, 40, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 20, 40, 20, 10]);
    }

    #[test]
    fn json_lines_carry_parent_and_self_time() {
        let spans = vec![span(0, 50, None), span(10, 20, Some(0))];
        let mut out = Vec::new();
        write_json_lines(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":40"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":10"));
    }
}
