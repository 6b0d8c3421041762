//! In-memory spans recorded from the benchmark's own files.
//!
//! A span has a name, a start, an end, a parent, and a group: every span of
//! one app or cell run shares the group id of that run. Spans stay in
//! memory until the benchmark ends and are then written out as CSV. A
//! span's self time is its duration minus the part of its interval that its
//! children cover; over a tree of properly nested spans the self times add
//! up to the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Parent span index, `None` for a root.
    pub parent: Option<usize>,
    /// The app/cell run the span belongs to (0 for workload-level spans).
    pub group: u32,
    /// Span name (`"decide"`, `"execute"`, `"cell"`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`start` until closed).
    pub end: u64,
}

/// Span recorder: a stack of open spans over a flat list.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    groups: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            groups: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh group id for one app or cell run.
    pub fn new_group(&mut self) -> u32 {
        self.groups += 1;
        self.groups
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, group: u32) {
        let start = self.now();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            group,
            name,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("close without an open span");
        self.spans[idx].end = end;
    }

    /// Records an already finished leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        let parent = self.open.last().copied();
        let group = parent.map_or(0, |p| self.spans[p].group);
        self.spans.push(Span {
            parent,
            group,
            name,
            start,
            end,
        });
    }

    /// Ends recording, handing over the spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name totals: (span count, total self ns, total duration ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
        e.2 += s.end - s.start;
    }
    out
}

/// The spans as CSV: `id,parent,group,name,start_ns,end_ns,self_ns`.
pub fn to_csv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("id,parent,group,name,start_ns,end_ns,self_ns\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{i},{parent},{},{},{},{},{own}",
            s.group, s.name, s.start, s.end
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            parent,
            group: 1,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100) with children [10,30) and [50,60): self 70.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,40) and [30,50) overlap on [30,40); [90,120) overhangs
        // the parent's end. Covered: [10,50) + [90,100) = 50.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = [
            span(None, 0, 1000),
            span(Some(0), 100, 600),
            span(Some(1), 150, 200),
            span(Some(1), 200, 450),
            span(Some(0), 700, 900),
            span(Some(4), 710, 890),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tracer_nests_and_groups_spans() {
        let mut t = Tracer::new();
        t.open("workload", 0);
        let g = t.new_group();
        t.open("cell", g);
        let a = t.now();
        let b = t.now();
        t.leaf("decide", a, b);
        t.close();
        t.close();
        let s = &t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].group), (Some(0), g));
        assert_eq!((s[2].parent, s[2].group), (Some(1), g));
        let sum = summarize(s);
        assert_eq!(sum["decide"].0, 1);
        let total: u64 = self_times(s).iter().sum();
        assert_eq!(total, s[0].end - s[0].start);
        assert!(to_csv(s).lines().count() == 4);
    }
}
