//! Host wall-clock spans recorded around the benchmark's calls into the
//! simulator's layers.
//!
//! Spans live in memory and are summarised when the benchmark ends. The
//! traced run keeps every span; the untraced run folds each operation's
//! spans into per-name totals once it has read them, so that its peak
//! memory is the simulator's and not the recorder's. Spans are grouped
//! by the operation they belong to, and each carries the span that was
//! open when it began, so a layer's self time is its duration minus the
//! time covered by its direct children.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals: `(name, spans, total seconds, self seconds)`.
pub type Totals = Vec<(&'static str, usize, f64, f64)>;

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Spans not yet retired; span ids count retired spans too.
    spans: Vec<Span>,
    /// Number of spans retired, the id of `spans[0]`.
    base: usize,
    /// Per-name totals of the retired spans.
    retired: Totals,
    open: Vec<usize>,
    /// Id of each operation's first span; operation `n` is `n + 1`.
    op_starts: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            base: 0,
            retired: Vec::new(),
            open: Vec::new(),
            op_starts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans belong to it.
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "spans left open across operations");
        self.op_starts.push(self.base + self.spans.len());
        self.op_starts.len()
    }

    /// Opens a span and returns its id for [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.base + self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id - self.base].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span of operation `op`.
    pub fn of_op(&self, op: usize) -> impl Iterator<Item = (usize, &Span)> {
        let len = self.base + self.spans.len();
        let start = self
            .op_starts
            .get(op.wrapping_sub(1))
            .copied()
            .unwrap_or(len);
        let end = self.op_starts.get(op).copied().unwrap_or(len);
        assert!(start >= self.base, "operation {op} was retired");
        self.spans[start - self.base..end - self.base]
            .iter()
            .enumerate()
            .map(move |(i, s)| (start + i, s))
    }

    /// Summed duration of the spans named `name` in operation `op`.
    pub fn total_s(&self, op: usize, name: &str) -> f64 {
        self.of_op(op)
            .filter(|(_, s)| s.name == name)
            .fold(0.0, |t, (_, s)| t + s.seconds())
    }

    /// Summed duration of the spans named `name` in operation `op` that
    /// no other span encloses.
    pub fn top_level_s(&self, op: usize, name: &str) -> f64 {
        self.of_op(op)
            .filter(|(_, s)| s.name == name && s.parent.is_none())
            .fold(0.0, |t, (_, s)| t + s.seconds())
    }

    /// Summed duration of the direct children of the spans named
    /// `name` in operation `op`.
    pub fn children_s(&self, op: usize, name: &str) -> f64 {
        self.of_op(op)
            .filter(|(_, s)| {
                s.parent
                    .is_some_and(|p| self.spans[p - self.base].name == name)
            })
            .fold(0.0, |t, (_, s)| t + s.seconds())
    }

    /// Number of spans of operation `op` whose name satisfies `pred`.
    pub fn count(&self, op: usize, pred: impl Fn(&str) -> bool) -> usize {
        self.of_op(op).filter(|(_, s)| pred(s.name)).count()
    }

    /// Folds every span recorded so far into the per-name totals and
    /// frees them, so that a long run's memory does not grow with its
    /// operation count. Their operations can no longer be queried.
    pub fn retire(&mut self) {
        assert!(self.open.is_empty(), "spans left open at retirement");
        self.retired = self.summary();
        self.base += self.spans.len();
        self.spans.clear();
    }

    /// Per-name totals over the whole run, for the closing summary:
    /// `(name, spans, total seconds, self seconds)`, in first-seen order.
    pub fn summary(&self) -> Totals {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p - self.base] += s.seconds();
            }
        }
        let mut rows = self.retired.clone();
        for (s, child) in self.spans.iter().zip(child_s) {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.seconds();
            row.3 += s.seconds() - child;
        }
        rows
    }
}
