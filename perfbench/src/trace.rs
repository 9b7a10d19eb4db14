//! In-memory span recorder for the traced runs.
//!
//! A span is (name, start, end, parent, request id, thread). Spans are kept in
//! a `Vec` per recording thread and written out as JSON once the run ends.
//! Per-layer numbers are *self* times: a span's duration minus the part of it
//! covered by its children, so a layer is never charged for the layers it
//! calls into.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans one thread recorded.
pub struct Trace {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Trace {
    /// A recorder for thread `thread`, timing against the shared `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Trace {
        Trace {
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in seconds, summed over every given trace.
pub fn self_times(traces: &[Trace]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for trace in traces {
        let mut child_ns = vec![0u64; trace.spans.len()];
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        for (span, children) in trace.spans.iter().zip(child_ns) {
            let self_ns = span.duration_ns().saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
    }
    out
}

/// Writes every span of every trace as one JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, traces: &[Trace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    let mut first = true;
    for trace in traces {
        for (index, span) in trace.spans.iter().enumerate() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{}.{p}\"", trace.thread));
            write!(
                out,
                "\n{{\"id\":\"{}.{index}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
                trace.thread, span.name, span.start_ns, span.end_ns, span.request, trace.thread
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
