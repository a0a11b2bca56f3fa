//! Span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files around each call into
//! a layer, kept in memory, and written out once at exit. A disabled
//! tracer costs one branch per call, so the untraced pass runs the same
//! code.

use std::time::Instant;

use crate::json::Json;

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer was built.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the root.
    pub parent: u32,
    /// Spans of one job repetition share an id.
    pub job: u32,
}

/// In-memory span log with a stack of open spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
    /// Counter snapshots taken at span boundaries: `(span index, counters)`.
    counters: Vec<(u32, Json)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            counters: Vec::new(),
        }
    }

    /// Switch recording on or off (the traced pass also times untraced
    /// repetitions, to measure what tracing costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record an already-finished span under the innermost open span, from
    /// times taken against [`Tracer::origin`] (for spans timed on a worker
    /// thread).
    pub fn add_closed(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied().unwrap_or(NO_SPAN),
                job: self.job,
            });
        }
    }

    /// Start the next job: spans opened from here on carry its id.
    pub fn next_job(&mut self) {
        self.job += 1;
    }

    /// Open a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NO_SPAN);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            job: self.job,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (and anything left open inside it).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attach a counter snapshot to span `id` (taken at its boundary).
    pub fn attach(&mut self, id: SpanId, counters: Json) {
        if id.0 != NO_SPAN {
            self.counters.push((id.0, counters));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => out.push((span.name, self_ns, 1)),
            }
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, header: Json) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                let mut pairs = vec![
                    ("id".to_string(), Json::Num(i as f64)),
                    ("name".to_string(), Json::str(s.name)),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        if s.parent == NO_SPAN {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("job".to_string(), Json::Num(f64::from(s.job))),
                    ("self_ns".to_string(), Json::Num(*self_ns as f64)),
                ];
                if let Some((_, c)) = self.counters.iter().find(|(id, _)| *id as usize == i) {
                    pairs.push(("counters".to_string(), c.clone()));
                }
                Json::Obj(pairs)
            })
            .collect();
        let by_name = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, ns, count)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("self_ns", Json::Num(ns as f64)),
                    ("spans", Json::Num(count as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("header", header),
            ("self_time_by_name", Json::Arr(by_name)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("job", 0, 100, NO_SPAN),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("a.inner", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("job", 10, 60, NO_SPAN),
            span("a", 10, 40, 0),
            span("b", 30, 50, 0), // overlaps a by 10
            span("c", 55, 90, 0), // hangs 30 past the parent
            span("d", 20, 20, 0), // empty
        ];
        // covered = [10,40) + [40,50) + [55,60) = 45
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_numbers_jobs() {
        let mut t = Tracer::new(true);
        t.next_job();
        let job = t.begin("job");
        t.span("inner", || ());
        t.end(job);
        t.next_job();
        t.span("job", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (NO_SPAN, 0, NO_SPAN)
        );
        assert_eq!((s[0].job, s[1].job, s[2].job), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let names: Vec<_> = t.self_time_by_name().iter().map(|r| (r.0, r.2)).collect();
        assert_eq!(names, vec![("job", 2), ("inner", 1)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.attach(id, Json::Null);
        t.end(id);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
