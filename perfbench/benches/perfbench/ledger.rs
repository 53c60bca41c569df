//! The layer ledger: spans around calls into the workspace crates'
//! public functions, kept in memory and written once at the end.
//!
//! A span has a name, a start, an end, the span that caused it, and a
//! trace id (the id of its root span), so all spans of one pass share an
//! identifier. A *probe* span re-executes a call that another call makes
//! internally (`CityWorld::build_at` inside `curate_city`, say) so the
//! hidden call can be timed without touching the crate; probes run
//! outside the traced pass and never count toward its wall time.

use std::fmt::Write as _;
use std::time::Instant;

/// Runs `f` inside a span named `name` when there is a ledger, and
/// plainly when there is none.
pub fn span_opt<T>(ledger: Option<&mut Ledger>, name: &str, f: impl FnOnce() -> T) -> T {
    match ledger {
        Some(l) => l.span(name, |_| f()),
        None => f(),
    }
}

#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    trace: usize,
    name: String,
    probe: bool,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the ledger was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        self.enter(name, false, f)
    }

    /// Like [`Ledger::span`], for a re-executed hidden call.
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        self.enter(name, true, f)
    }

    fn enter<T>(&mut self, name: &str, probe: bool, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let trace = parent.map_or(id, |p| self.spans[p].trace);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            probe: probe || parent.is_some_and(|p| self.spans[p].probe),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Seconds of all probe spans at the top of their trace.
    pub fn probe_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.probe && s.parent.is_none_or(|p| !self.spans[p].probe))
            .map(Span::seconds)
            .sum()
    }

    /// Share of the root span called `root` that none of its children
    /// cover: its self time over its duration.
    pub fn unexplained(&self, root: &str) -> f64 {
        let r = self
            .spans
            .iter()
            .find(|s| s.parent.is_none() && s.name == root)
            .unwrap_or_else(|| panic!("no root span {root}"));
        self.self_ns(r) as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    /// Self time of `span`: its duration minus what its children cover.
    fn self_ns(&self, span: &Span) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The ledger as JSON: the run stamp, the derived per-layer metrics,
    /// and every span with its self time.
    pub fn to_json(&self, stamp: &str, metrics: &[crate::Metric]) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"stamp\": {stamp},\n  \"metrics\": {{");
        for (i, m) in metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                if i == 0 { "" } else { "," },
                crate::json_str(&m.name),
                m.value,
                crate::json_str(m.unit),
                m.samples
            );
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": {}, \
                 \"probe\": {}, \"start_us\": {:.1}, \"dur_us\": {:.1}, \"self_us\": {:.1}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.trace,
                crate::json_str(&s.name),
                s.probe,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.self_ns(s) as f64 / 1e3,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// A short table for standard error: total and self seconds per span
    /// name, in first-seen order.
    pub fn summary(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        let mut out = format!(
            "{:<34} {:>6} {:>10} {:>10}\n",
            "span", "calls", "total_s", "self_s"
        );
        for name in names {
            let of: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
            let total: f64 = of.iter().map(|s| s.seconds()).sum();
            let own: f64 = of.iter().map(|s| self.self_ns(s) as f64 / 1e9).sum();
            let _ = writeln!(out, "{name:<34} {:>6} {total:>10.4} {own:>10.4}", of.len());
        }
        out
    }
}
