//! In-memory spans recorded by the benchmark around its calls into
//! each layer, written out as JSON lines when the traced phase ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval of one request. Spans of a request share `req`;
/// `parent` names the span of the same request that caused this one
/// (`None` only for the root span, `request`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub req: u32,
    pub span: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the tracer was made: a span's start.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Closes the span that started at `start_ns`; returns its length.
    pub fn end(
        &mut self,
        req: u32,
        span: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
    ) -> u64 {
        let end_ns = self.now();
        self.spans.push(Span {
            req,
            span,
            parent,
            start_ns,
            end_ns,
        });
        end_ns.saturating_sub(start_ns)
    }
}

/// Self time per span name: for every span, its duration minus the
/// part of its interval its child spans cover. Children of one parent
/// never overlap here (the harness is single-threaded in the traced
/// phase), so their clipped lengths add.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut covered: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
    let by_key: BTreeMap<(u32, &'static str), &Span> =
        spans.iter().map(|s| ((s.req, s.span), s)).collect();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| by_key.get(&(s.req, p))) else {
            continue;
        };
        let start = s.start_ns.max(parent.start_ns);
        let end = s.end_ns.min(parent.end_ns);
        *covered.entry((parent.req, parent.span)).or_default() += end.saturating_sub(start);
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let children = covered.get(&(s.req, s.span)).copied().unwrap_or(0);
        out.entry(s.span)
            .or_default()
            .push(s.duration_ns().saturating_sub(children));
    }
    out
}

/// Writes one JSON object per span:
/// `{"req":7,"span":"core.scan","parent":"replay","start_ns":1,"end_ns":2}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"req\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.span, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u32,
        span: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            req,
            span,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span(1, "request", None, 0, 100),
            span(1, "client.rtt", Some("request"), 5, 45),
            span(1, "replay", Some("request"), 50, 95),
            span(1, "core.scan", Some("replay"), 55, 75),
            span(1, "core.map_query", Some("replay"), 75, 90),
            // A second request with the same names must not mix in.
            span(2, "request", None, 200, 260),
            span(2, "client.rtt", Some("request"), 200, 250),
        ];
        let st = self_times(&spans);
        assert_eq!(st["request"], vec![100 - 40 - 45, 60 - 50]);
        assert_eq!(st["replay"], vec![45 - 20 - 15]);
        assert_eq!(st["core.scan"], vec![20]);
        assert_eq!(st["client.rtt"], vec![40, 50]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span(1, "request", None, 10, 20),
            span(1, "late", Some("request"), 15, 30),
        ];
        assert_eq!(self_times(&spans)["request"], vec![5]);
    }

    #[test]
    fn jsonl_lines_carry_request_id_and_parent() {
        let dir = crate::env::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let spans = vec![
            span(3, "request", None, 1, 9),
            span(3, "client.rtt", Some("request"), 2, 8),
        ];
        write_jsonl(&path, &spans).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("clean up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"req":3,"span":"request","parent":null,"start_ns":1,"end_ns":9}"#,
                r#"{"req":3,"span":"client.rtt","parent":"request","start_ns":2,"end_ns":8}"#,
            ]
        );
        for line in lines {
            let j = gdim::server::parse_json(line).expect("each line is JSON");
            assert!(j.get("req").is_some() && j.get("parent").is_some());
        }
    }
}
