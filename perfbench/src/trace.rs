//! In-memory spans recorded by the benchmark around its calls into each
//! layer; written out as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Time inside this span that is credited to other layers without a
    /// child span (e.g. the program's own stage timings).
    attributed: Vec<(&'static str, f64)>,
}

/// A span recorder. When disabled, `span` only runs the closure.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, charged to `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            attributed: Vec::new(),
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Credit `seconds` of the most recently closed span named `name` to
    /// `layer` (its self time shrinks by the same amount).
    pub fn attribute_last(&mut self, name: &str, layer: &'static str, seconds: f64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.attributed.push((layer, seconds));
        }
    }

    /// Self time per layer over every recorded span: a span's duration
    /// minus the part covered by its children and by attributed time.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64 * 1e-9;
            let credited: f64 = s.attributed.iter().map(|(_, v)| v).sum();
            for (layer, v) in &s.attributed {
                *out.entry(layer).or_default() += v;
            }
            *out.entry(s.layer).or_default() += dur - credited;
        }
        out
    }

    /// Write the spans as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
