//! In-memory spans, written out when the benchmark ends.
//!
//! A span is `(name, start, end, parent, run)`: `parent` is the index
//! of the span that caused it (none for a root), `run` groups the
//! spans of one request — one batch of the producer, one batch of the
//! layer replay. A layer's *self time* is its spans' duration minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

pub struct Tracer {
    /// Recording is toggled per sub-window of the traced cluster run,
    /// so the traced and untraced halves of one run give the overhead.
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sets the request id stamped on spans recorded from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Times `f` as a span named `name`, child of the enclosing
    /// `scope` call (if any).
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            run: self.run,
        });
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id as usize];
        span.start_ns = s;
        span.end_ns = e;
        out
    }

    /// Records a root span whose endpoints were clocked by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, run: u32) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: NO_PARENT,
                run,
            });
        }
    }

    /// Self time per span name over `spans[from..]`, in nanoseconds:
    /// each span's duration minus its direct children's.
    pub fn self_time_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own).skip(from) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Total duration and call count per span name over
    /// `spans[from..]`.
    pub fn totals(&self, from: usize) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name = BTreeMap::new();
        for s in self.spans.iter().skip(from) {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.scope("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.scope("inner", |_| std::thread::sleep(Duration::from_millis(4)));
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        let own = t.self_time_ns(0);
        let total = t.totals(0);
        assert!(own["inner"] >= 4_000_000);
        assert!(own["outer"] >= 2_000_000);
        assert_eq!(own["outer"], total["outer"].0 - total["inner"].0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.scope("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
