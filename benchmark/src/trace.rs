//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written out once, when the benchmark
//! ends. A span's self time is its duration minus the time its direct
//! children cover; a layer's figure is the median over requests of the
//! mean self time of its spans in that request.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One span: a named interval caused by `parent`, on behalf of `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span brackets.
    pub name: &'static str,
    /// Start, ns from the recorder's origin.
    pub start_ns: u64,
    /// End, ns from the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<u32>,
    /// The request every span of one walk shares.
    pub request: u32,
}

impl Span {
    /// A finished span.
    pub fn new(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u32,
    ) -> Self {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        }
    }

    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans from one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; spans `f` opens through the
    /// recorder it is handed become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span::new(name, 0, 0, parent, request));
        self.open.push(index);
        let start = self.origin.elapsed().as_nanos() as u64;
        let result = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        result
    }

    /// The spans recorded so far, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, ns: duration minus the direct children's
/// durations (children never overlap: one thread records them).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// For every span name: the median over requests of the mean self time
/// (µs) of that name's spans within the request. A layer called several
/// times per request (frame codec: three hops, two sizes) thus reports
/// its cost per call, averaged over the calls one request makes.
pub fn self_time_medians_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut per_request: BTreeMap<(&'static str, u32), (u64, u64)> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let entry = per_request.entry((span.name, span.request)).or_default();
        entry.0 += own_ns;
        entry.1 += 1;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), (sum_ns, calls)) in per_request {
        by_name
            .entry(name)
            .or_default()
            .push(sum_ns as f64 / calls as f64 / 1000.0);
    }
    by_name
        .into_iter()
        .map(|(name, mut values)| (name, median(&mut values)))
        .collect()
}

/// Writes spans as JSON lines: `{"name","start_ns","end_ns","parent",
/// "request"}`; `parent` is the line index of the causing span or null.
pub fn write_jsonl(path: &std::path::Path, groups: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0u32;
    for spans in groups {
        for span in *spans {
            let parent = match span.parent {
                Some(p) => (base + p).to_string(),
                None => "null".to_owned(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.request
            )?;
        }
        base += spans.len() as u32;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) -> a [10,40) -> a1 [15,25); root -> b [50,90)
        let spans = vec![
            Span::new("root", 0, 100, None, 0),
            Span::new("a", 10, 40, Some(0), 0),
            Span::new("a1", 15, 25, Some(1), 0),
            Span::new("b", 50, 90, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_orders_parents_first() {
        let mut rec = Recorder::new();
        let got = rec.span("outer", 3, |rec| {
            rec.span("inner", 3, |_| 7) + rec.span("inner", 3, |_| 1)
        });
        assert_eq!(got, 8);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn layer_figure_is_median_over_requests_of_per_call_mean() {
        // Request 0 calls "codec" twice (2 µs, 4 µs), requests 1 and 2 once.
        let spans = vec![
            Span::new("codec", 0, 2_000, None, 0),
            Span::new("codec", 0, 4_000, None, 0),
            Span::new("codec", 0, 1_000, None, 1),
            Span::new("codec", 0, 9_000, None, 2),
        ];
        let medians = self_time_medians_us(&spans);
        assert_eq!(medians["codec"], 3.0);
    }
}
