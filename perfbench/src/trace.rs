//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! calls it makes into each layer. Every span carries a name, start and
//! end (seconds since the recorder was created), its parent, and the id
//! of the top-level call it belongs to. Nothing is written until the run
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// What a root span stands for, which decides how its time is normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RootKind {
    /// One workload set-up; per-layer figures are reported per set-up.
    Setup,
    /// One replayed top-level call; per-layer figures are reported per call.
    Call,
    /// Work re-run beside a replayed call to split a step the call does
    /// inside one opaque function; reported per probe.
    Probe,
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, such as `tensor.gemm`.
    pub name: &'static str,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Id shared by every span of one top-level call or set-up.
    pub call: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    call: u64,
    roots: Vec<(usize, RootKind)>,
    counters: BTreeMap<(&'static str, RootKind), f64>,
    root_kind: RootKind,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            call: 0,
            roots: Vec::new(),
            counters: BTreeMap::new(),
            root_kind: RootKind::Call,
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a root span: a new call id, and every span opened until the
    /// matching [`Tracer::close`] becomes its descendant.
    pub fn open_root(&mut self, name: &'static str, kind: RootKind) {
        assert!(self.stack.is_empty(), "root {name} opened inside a span");
        self.call += 1;
        self.root_kind = kind;
        self.roots.push((self.spans.len(), kind));
        self.open(name);
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            call: self.call,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let idx = self.stack.pop().expect("close without a matching open");
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a root span named `name`.
    pub fn root<T>(
        &mut self,
        name: &'static str,
        kind: RootKind,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.open_root(name, kind);
        let out = f(self);
        self.close();
        out
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Adds `value` to the counter `name` of the current root's kind.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry((name, self.root_kind)).or_insert(0.0) += value;
    }

    /// Closes every span a panicking call left open.
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently opened root span of `kind`.
    pub fn last_root_duration(&self, kind: RootKind) -> f64 {
        self.roots
            .iter()
            .rev()
            .find(|(_, k)| *k == kind)
            .map_or(0.0, |&(idx, _)| self.spans[idx].duration())
    }

    /// Number of root spans of `kind`.
    pub fn roots(&self, kind: RootKind) -> usize {
        self.roots.iter().filter(|(_, k)| *k == kind).count()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one parent never overlap, since spans nest.
    pub fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration() - c)
            .collect()
    }

    /// Sum of self times of the spans named `name` under roots of `kind`,
    /// divided by the number of such roots.
    pub fn busy_per_root(&self, name: &str, kind: RootKind) -> f64 {
        let n = self.roots(kind);
        if n == 0 {
            return 0.0;
        }
        let kinds = self.root_kinds();
        let selfs = self.self_times();
        let total: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && kinds[*i] == kind)
            .map(|(i, _)| selfs[i])
            .fold(0.0, |a, b| a + b);
        total / n as f64
    }

    /// Counter `name` accumulated under roots of `kind`, divided by the
    /// number of such roots.
    pub fn count_per_root(&self, name: &str, kind: RootKind) -> f64 {
        let n = self.roots(kind);
        if n == 0 {
            return 0.0;
        }
        self.counters
            .iter()
            .filter(|((c, k), _)| *c == name && *k == kind)
            .fold(0.0, |a, (_, v)| a + v)
            / n as f64
    }

    /// The root kind every span belongs to.
    fn root_kinds(&self) -> Vec<RootKind> {
        let mut kinds = vec![RootKind::Call; self.spans.len()];
        let mut roots = self.roots.iter().peekable();
        let mut current = RootKind::Call;
        for (i, kind) in kinds.iter_mut().enumerate() {
            if let Some(&&(idx, k)) = roots.peek() {
                if idx == i {
                    current = k;
                    roots.next();
                }
            }
            *kind = current;
        }
        kinds
    }

    /// The closure rule: every span lies inside its parent, children of
    /// one parent do not overlap, and under every root the self times of
    /// all spans sum to the root's duration. Returns the first violation.
    pub fn check_closure(&self) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        if !self.stack.is_empty() {
            return Err(format!("{} spans left open", self.stack.len()));
        }
        let mut last_child_end: Vec<f64> = self.spans.iter().map(|s| s.start).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if span.end + EPS < span.start {
                return Err(format!("span {} ends before it starts", span.name));
            }
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                if span.start + EPS < parent.start || span.end > parent.end + EPS {
                    return Err(format!(
                        "span {} escapes its parent {}",
                        span.name, parent.name
                    ));
                }
                if span.start + EPS < last_child_end[p] {
                    return Err(format!(
                        "span {} overlaps a sibling under {}",
                        span.name, parent.name
                    ));
                }
                last_child_end[p] = span.end;
            } else if !self.roots.iter().any(|&(idx, _)| idx == i) {
                return Err(format!(
                    "span {} has no parent and is not a root",
                    span.name
                ));
            }
        }
        let selfs = self.self_times();
        let mut sums = vec![0.0f64; self.spans.len()];
        for i in (0..self.spans.len()).rev() {
            sums[i] += selfs[i];
            if let Some(p) = self.spans[i].parent {
                sums[p] += sums[i];
            }
        }
        for &(idx, _) in &self.roots {
            let root = &self.spans[idx];
            if selfs[idx] < -EPS {
                return Err(format!("root {} has negative unattributed time", root.name));
            }
            if (sums[idx] - root.duration()).abs() > 1e-6 * root.duration().max(1e-3) {
                return Err(format!(
                    "self times under {} sum to {} s, the root lasted {} s",
                    root.name,
                    sums[idx],
                    root.duration()
                ));
            }
        }
        Ok(())
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"call\":{}}}\n",
                s.name, s.start, s.end, s.call
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_closure_holds() {
        let mut tr = Tracer::new();
        tr.open_root("root", RootKind::Call);
        tr.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.open("b");
        tr.span("c", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.close();
        tr.close();
        tr.check_closure().expect("nested spans close");
        let selfs = tr.self_times();
        let spans = tr.spans();
        assert_eq!(spans[3].parent, Some(2));
        assert!((selfs[2] - (spans[2].duration() - spans[3].duration())).abs() < 1e-12);
        assert!(tr.busy_per_root("a", RootKind::Call) >= 0.002);
        assert_eq!(tr.busy_per_root("a", RootKind::Setup), 0.0);
    }

    #[test]
    fn counters_are_normalized_per_root() {
        let mut tr = Tracer::new();
        for _ in 0..4 {
            tr.open_root("root", RootKind::Call);
            tr.count("items", 3.0);
            tr.close();
        }
        assert_eq!(tr.count_per_root("items", RootKind::Call), 3.0);
    }
}
