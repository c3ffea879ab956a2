//! In-memory spans recorded from outside the program, around calls into
//! each layer's public functions. Spans are only appended while a
//! workload runs and are written out once at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::ms;

/// One timed call: name, interval, the span that caused it, and the op
/// it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: the same code path, untraced.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn open(&mut self, name: &str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ms: ms(self.origin.elapsed()),
            end_ms: f64::NAN,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ms = ms(self.origin.elapsed());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose interval was measured elsewhere (a request
    /// timed from its due time rather than from its send).
    pub fn record(&mut self, name: &str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ms: ms(start.saturating_duration_since(self.origin)),
            end_ms: ms(end.saturating_duration_since(self.origin)),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Self times of every span called `name`: its duration minus the
    /// time its direct children cover (children of one span run one
    /// after another, so their durations add up without overlap).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.duration_ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_ms() - child_ms[i])
            .collect()
    }

    /// For each span called `root`, the summed duration of its direct
    /// children.
    pub fn children_total(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::duration_ms)
                    .sum()
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ms, s.end_ms, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("root", 0);
        sleep_ms(1);
        t.span("child", 0, || sleep_ms(2));
        t.span("child", 0, || sleep_ms(1));
        t.close(root);
        t.span("root", 1, || sleep_ms(1));
        let children: f64 = t.durations("child").iter().sum();
        let own = t.self_times("root");
        assert!((own[0] - (t.durations("root")[0] - children)).abs() < 1e-9);
        assert!(own[0] >= 1.0, "self time keeps the parent's own sleep");
        assert_eq!(
            own[1],
            t.durations("root")[1],
            "a leaf's self time is its duration"
        );
        assert_eq!(t.children_total("root"), vec![children, 0.0]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        let mut off = Tracer::disabled();
        let id = off.open("root", 0);
        off.span("child", 0, || ());
        off.close(id);
        assert!(off.spans.is_empty());
    }

    fn sleep_ms(n: u64) {
        std::thread::sleep(std::time::Duration::from_millis(n));
    }
}
