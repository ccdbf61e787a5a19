//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the library is instrumented: a span covers one
//! public call, and its self time is what the layer did that no nested
//! span accounts for.

use std::time::Instant;

/// One closed span: a name, its parent, and its interval in nanoseconds
/// since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, such as `dse.explore`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `body` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time in ns of every span, in opening order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| self_time_ns((span.start_ns, span.end_ns), kids))
            .collect()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Self time of a span over `(start, end)`: its duration minus the part of
/// it that the union of its children's intervals covers. Children are
/// clipped to the parent and may overlap one another.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50)]), 60);
        // A child spilling past the parent is clipped to it.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        // Fully covered.
        assert_eq!(self_time_ns((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn nested_spans_self_times_sum_to_the_root() {
        let mut tracer = Tracer::new();
        tracer.span("root", |t| {
            t.span("a", |t| {
                t.span("a.inner", |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            t.span("b", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(tracer.self_times_ns().iter().sum::<u64>(), root);
        assert_eq!(tracer.secs_of("b").len(), 1);
    }
}
