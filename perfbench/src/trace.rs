//! The benchmark's own spans around its calls into each crate, and
//! self time: a span's duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// tracer become its children. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[id].end = end;
        (out, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: its duration minus the union
/// of its direct children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            ((s.end - s.start) - covered).max(0.0)
        })
        .collect()
}

/// Per span name: (total duration, total self time), summed over every
/// span of that name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut out = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0.0, 0.0));
        e.0 += s.end - s.start;
        e.1 += self_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        // root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9].
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a1", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one runs past the parent's end.
        let spans = vec![
            span("p", 0.0, 10.0, None),
            span("c", 1.0, 5.0, Some(0)),
            span("c", 3.0, 6.0, Some(0)),
            span("c", 8.0, 12.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 5.0 - 2.0);
        let named = by_name(&spans);
        assert_eq!(named["p"], (10.0, 3.0));
        assert_eq!(named["c"], (4.0 + 3.0 + 4.0, 11.0));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::default();
        let (v, outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            7
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(outer >= spans[1].end - spans[1].start);
        let st = self_times(spans);
        assert!(st[0] < outer && st[1] >= 0.005);
    }
}
