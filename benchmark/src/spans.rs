//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures every layer from outside: a span is opened before
//! a call into a layer's public function and closed after it.  Spans of one
//! op share an `op_id` and point at the span that caused them; they stay in
//! memory and are written out when the run ends.  A layer's self time is its
//! span minus the part of that interval its child spans cover.

use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder.  With recording off, [`Spans::timed`] still times the
/// call (callers use the duration) but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    op_id: u64,
}

impl Spans {
    pub fn new(recording: bool) -> Self {
        Spans {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            op_id: 0,
        }
    }

    /// Start the next op: spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Run `f` inside a span called `name` and return its result and wall
    /// time.  `f` receives the recorder so it can open child spans.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, Duration) {
        if !self.recording {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        let start_ns = (start - self.epoch).as_nanos() as u64;
        self.spans[idx].start_ns = start_ns;
        self.spans[idx].end_ns = start_ns + elapsed.as_nanos() as u64;
        self.last_closed = Some(idx);
        (out, elapsed)
    }

    /// Attach phases that the call of the span closed last reported about
    /// itself (e.g. `JoinStats` phase walls) as its children, laid end to
    /// end from its start in the order given.
    pub fn add_phases(&mut self, phases: &[(&'static str, Duration)]) {
        let Some(parent) = self.last_closed.filter(|_| self.recording) else {
            return;
        };
        let op_id = self.spans[parent].op_id;
        let mut at = self.spans[parent].start_ns;
        for &(name, wall) in phases {
            let end = at + wall.as_nanos() as u64;
            self.spans.push(Span {
                name,
                op_id,
                parent: Some(parent),
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its direct
    /// children's intervals (clipped to the span).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                children[p].push((a, b));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// A position in the span list, for [`Spans::sum_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans called `name` recorded since `mark`.
    pub fn sum_since(&self, mark: usize, name: &str) -> Duration {
        let ns = self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        Duration::from_nanos(ns)
    }

    /// The trace file: every span with its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let self_ns = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("op_id", Json::from(s.op_id)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("spans", Json::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_the_children() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            span("b", Some(0), 20, 120),
            span("leaf", Some(1), 12, 18),
        ];
        // root: 100 − |[10,30) ∪ [20,100)| = 100 − 90.
        assert_eq!(spans.self_ns(), vec![10, 14, 100, 6]);
        assert_eq!(spans.sum_since(0, "a"), Duration::from_nanos(20));
        assert_eq!(spans.sum_since(2, "a"), Duration::ZERO);
    }

    #[test]
    fn timed_nests_and_phases_attach_to_the_last_closed_span() {
        let mut spans = Spans::new(true);
        spans.next_op();
        let ((), outer) = spans.timed("outer", |s| {
            let ((), _) = s.timed("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            s.add_phases(&[
                ("p1", Duration::from_millis(1)),
                ("p2", Duration::from_millis(1)),
            ]);
        });
        assert!(outer >= Duration::from_millis(2));
        let names: Vec<_> = spans.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("p1", Some(1)),
                ("p2", Some(1))
            ]
        );
        let inner = &spans.spans()[1];
        assert_eq!(spans.spans()[2].start_ns, inner.start_ns);
        assert_eq!(spans.spans()[3].start_ns, spans.spans()[2].end_ns);
        assert!(spans.spans().iter().all(|s| s.op_id == 1));
    }

    #[test]
    fn recording_off_times_but_keeps_nothing() {
        let mut spans = Spans::new(false);
        let (v, d) = spans.timed("x", |_| {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(1));
        spans.add_phases(&[("p", Duration::from_millis(1))]);
        assert!(spans.spans().is_empty());
    }
}
