//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer: name,
//! start, end, parent and iteration id, plus the allocations made
//! inside it. Calls too frequent for one span each (`Fabric::step`,
//! `Fabric::issue_read`) fold into per-iteration [`Slice`] counters.
//! Nothing is written until [`Tracer::write_jsonl`] at exit.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `rack.attach`.
    pub name: &'static str,
    /// Iteration the call belongs to.
    pub iter: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Allocations made during the call.
    pub allocs: u64,
    /// Bytes allocated during the call.
    pub bytes: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Folded counters for one hot call within one iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Slice {
    /// Layer call.
    pub name: &'static str,
    /// Iteration.
    pub iter: u32,
    /// Calls made.
    pub calls: u64,
    /// Host ns spent inside the calls.
    pub ns: u64,
    /// Simulator events the calls processed.
    pub events: u64,
    /// Allocations made inside the calls.
    pub allocs: u64,
    /// Bytes allocated inside the calls.
    pub bytes: u64,
}

/// A span opened by [`Tracer::open`]; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<(usize, alloc::Snap)>);

/// The recorder. When off, every method is a no-op branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    iter: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    slices: Vec<Slice>,
}

impl Tracer {
    /// A recorder that is off until [`Tracer::set_on`].
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            iter: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            slices: Vec::new(),
        }
    }

    /// Whether calls are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the following calls.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with iteration `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.stack.push(index);
        // Read the clocks last so the push above is not charged to the call.
        let before = alloc::snap();
        self.spans[index].start_ns = self.now_ns();
        Open(Some((index, before)))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        let Some((index, before)) = open.0 else {
            return;
        };
        let end = self.now_ns();
        let after = alloc::snap();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = after.allocs - before.allocs;
        span.bytes = after.bytes - before.bytes;
        self.stack.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Adds one call's counters to the current iteration's slice.
    pub fn fold(&mut self, name: &'static str, ns: u64, events: u64, allocs: u64, bytes: u64) {
        let iter = self.iter;
        let index = match self
            .slices
            .iter()
            .rposition(|s| s.name == name && s.iter == iter)
        {
            Some(i) => i,
            None => {
                self.slices.push(Slice {
                    name,
                    iter,
                    ..Slice::default()
                });
                self.slices.len() - 1
            }
        };
        let s = &mut self.slices[index];
        s.calls += 1;
        s.ns += ns;
        s.events += events;
        s.allocs += allocs;
        s.bytes += bytes;
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every folded slice.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Slices named `name`.
    pub fn sliced<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Slice> + 'a {
        self.slices.iter().filter(move |s| s.name == name)
    }

    /// Spans and slices as JSON lines, after a header line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * (self.spans.len() + self.slices.len()) + 256);
        out.push_str(header);
        out.push('\n');
        let self_ns = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"iter\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"bytes\":{}}}",
                s.name,
                s.iter,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.allocs,
                s.bytes
            );
        }
        for s in &self.slices {
            let _ = writeln!(
                out,
                "{{\"slice\":\"{}\",\"iter\":{},\"calls\":{},\"ns\":{},\"events\":{},\"allocs\":{},\"bytes\":{}}}",
                s.name, s.iter, s.calls, s.ns, s.events, s.allocs, s.bytes
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Every span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children count once; a child is
/// clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(me, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = me.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            me.ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            iter: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100): children [10,30), [20,50) overlap, [60,70);
        // grandchild [12,18) under the first child only.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
            span("a.x", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 10, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recorded_spans_nest_and_fold() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        tr.set_iter(3);
        let outer = tr.open("outer");
        let v = tr.span("inner", || 7);
        tr.close(outer);
        tr.fold("hot", 5, 2, 1, 64);
        tr.fold("hot", 7, 1, 0, 0);
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        assert!(self_times(spans)[0] <= spans[0].ns());
        let hot = &tr.slices()[0];
        assert_eq!(
            (hot.calls, hot.ns, hot.events, hot.allocs, hot.bytes),
            (2, 12, 3, 1, 64)
        );
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new();
        let open = tr.open("x");
        tr.close(open);
        assert!(tr.spans().is_empty());
    }
}
