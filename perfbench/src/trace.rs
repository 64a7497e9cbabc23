//! In-memory span recorder for the traced run, written out at exit as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto) together with
//! a per-layer self-time table.
//!
//! Spans are recorded by the benchmark's own drivers around the calls
//! they make into each layer; nothing inside the program is
//! instrumented. Every span carries the tick (or epoch) id it belongs
//! to, and its parent span when it nests inside one on the same thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, when any.
    pub parent: Option<usize>,
    /// Tick the span belongs to (the epoch's boundary tick for epoch
    /// work).
    pub tick: u64,
    /// Thread lane: 1 = the driving thread, 2 = the server's writer.
    pub tid: u32,
    /// Whether the interval was placed from program counters rather
    /// than timed directly (its duration is exact, its position within
    /// the parent approximate).
    pub from_counters: bool,
}

/// One sampled counter value.
#[derive(Clone, Debug)]
pub struct Counter {
    /// Counter name, `layer.counter`.
    pub name: &'static str,
    /// Sample time, nanoseconds since the tracer's origin.
    pub at_ns: u64,
    /// Tick the sample belongs to.
    pub tick: u64,
    /// Value.
    pub value: f64,
}

/// A layer's share of the traced wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Total duration.
    pub total_ns: u64,
    /// Total duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span and counter log of one traced replay.
#[derive(Clone, Debug)]
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Tracer {
    /// An empty log whose timestamps count from `origin`, recording on
    /// thread lane `tid`.
    pub fn new(origin: Instant, tid: u32) -> Self {
        Tracer { origin, tid, spans: Vec::new(), counters: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a parent span whose interval is filled in later by
    /// [`Tracer::close`]; children recorded meanwhile may name it.
    pub fn open(&mut self, name: &'static str, tick: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            dur_ns: 0,
            parent: None,
            tick,
            tid: self.tid,
            from_counters: false,
        });
        self.spans.len() - 1
    }

    /// Fills in the interval of a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: usize, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id];
        span.start_ns = s;
        span.dur_ns = e.saturating_sub(s);
    }

    /// Records a timed interval.
    pub fn span(
        &mut self,
        name: &'static str,
        tick: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.open(name, tick);
        self.spans[id].parent = parent;
        self.close(id, start, end);
        id
    }

    /// Records an interval known only by its duration (a program
    /// counter delta), placed at `start` inside `parent`.
    pub fn counted_span(
        &mut self,
        name: &'static str,
        tick: u64,
        parent: usize,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
            parent: Some(parent),
            tick,
            tid: self.tid,
            from_counters: true,
        });
    }

    /// The recorded interval of span `id`: `(start_ns, dur_ns)`.
    pub fn interval(&self, id: usize) -> (u64, u64) {
        (self.spans[id].start_ns, self.spans[id].dur_ns)
    }

    /// Samples a counter.
    pub fn counter(&mut self, name: &'static str, tick: u64, at: Instant, value: f64) {
        let at_ns = self.ns(at);
        self.counters.push(Counter { name, at_ns, tick, value });
    }

    /// Moves another log's spans and counters into this one (a second
    /// thread's lane). Both logs must share the origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counters.extend(other.counters);
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// children (children never overlap on one lane).
    pub fn span_self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.dur_ns.saturating_sub(c)).collect()
    }

    /// Per-name totals of span count, duration and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.span_self_ns()) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns;
            row.self_ns += self_ns;
        }
        table
    }

    /// Total self time of spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |r| r.self_ns as f64 * 1e-9)
    }

    /// Chrome trace-event JSON: complete (`X`) events for spans, counter
    /// (`C`) events for counters, and `meta` (already-encoded JSON
    /// object members) under `otherData`.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::with_capacity(128 * (self.spans.len() + self.counters.len()));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (id, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"tick\":{},\"from_counters\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tick,
                s.from_counters
            );
        }
        for c in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\
                 \"args\":{{\"value\":{},\"tick\":{}}}}}",
                c.name,
                c.at_ns as f64 / 1e3,
                json_num(c.value),
                c.tick
            );
        }
        out.push_str("\n],\"otherData\":{");
        out.push_str(meta);
        out.push_str("}}\n");
        out
    }
}

/// A finite JSON number (`null` for NaN and infinities).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_chrome_json_is_well_formed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0, 1);
        let tick = tr.open("replay.tick", 1);
        tr.span("raytrace.observe", 1, Some(tick), at(1), at(4));
        tr.span("coordinator.submit", 1, Some(tick), at(4), at(5));
        tr.close(tick, at(0), at(10));
        tr.counter("index.size", 1, at(10), 42.0);
        let table = tr.self_times();
        assert_eq!(table["replay.tick"].self_ns, 6_000_000);
        assert_eq!(table["raytrace.observe"].self_ns, 3_000_000);
        assert!((tr.self_s("coordinator.submit") - 1e-3).abs() < 1e-12);
        let json = tr.to_chrome_json("\"k\":1");
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
    }
}
