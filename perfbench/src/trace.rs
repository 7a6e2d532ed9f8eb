//! In-memory spans for the traced run: name, start, end, parent, cell or
//! request id, and the allocations made inside. Spans are written out
//! once, when the run ends; nothing is written while timing.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Names of the spans that group one unit of work (a cell or a request)
/// rather than time a layer.
const ROOTS: [&str; 2] = ["cell", "spec"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// A span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for unit `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let (allocs, bytes) = alloc::snapshot();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            bytes,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let (a, b) = alloc::snapshot();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = a - span.allocs;
        span.bytes = b - span.bytes;
        out
    }

    /// Per-name totals with self time and self allocations (a span minus
    /// its direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Time covered by layer spans that are not nested in another layer
    /// span, in nanoseconds: the part of the traced wall time some layer
    /// accounts for.
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !ROOTS.contains(&s.name))
            .filter(|s| s.parent.is_none_or(|p| ROOTS.contains(&self.spans[p].name)))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Allocations and bytes inside every root span (all work units).
    pub fn root_allocs(&self) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.bytes))
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        // Span `k` is data line `k`; a root's parent is `-`.
        writeln!(w, "name\tparent\tid\tstart_ns\tdur_ns\tallocs\tbytes")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns - s.start_ns,
                s.allocs,
                s.bytes
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_are_unattributed() {
        let mut t = Tracer::new();
        t.span("cell", 1, |t| {
            t.span("core.task", 1, |t| {
                t.span("cache.hierarchy", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let totals = t.totals();
        let task = totals["core.task"];
        let hier = totals["cache.hierarchy"];
        assert_eq!(task.calls, 1);
        assert!(task.total_ns >= hier.total_ns);
        assert_eq!(task.self_ns, task.total_ns - hier.total_ns);
        // Only `core.task` is a top-level layer span; its child is not
        // counted twice.
        assert_eq!(t.attributed_ns(), task.total_ns);
        assert_eq!(hier.calls, 1);
    }
}
