//! Spans recorded from outside the system: one around each call into a
//! layer's public functions, kept in memory and written out when the
//! run ends. A layer's self time is its span minus the spans beneath it.

use crate::json::Json;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Spans of one request share `op_id`; `parent` is
/// the id of the span that caused this one (0 = none). `units` is how
/// many items the span covers when it times a batch of identical calls
/// (functions too short to time one at a time), else 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub op_id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-local span buffer over a shared clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Span ids are `tag << 40 | sequence`, unique across threads.
    tag: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, tag: u64) -> Self {
        SpanLog {
            origin,
            tag,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        units: u64,
    ) -> u64 {
        let id = (self.tag << 40) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
            units,
        });
        id
    }

    /// Times `f` as one span covering `units` items.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: u64,
        units: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, op_id, parent, start, end, units);
        out
    }
}

/// Self time (ns) per span id: the span's duration minus the durations
/// of the spans naming it as parent. Replayed child spans run after
/// their parent on the same inputs, not inside it, so the arithmetic
/// uses durations, not interval overlap — and a child that measured
/// slower than its parent leaves a negative self time, which is
/// reported as measured rather than hidden at zero.
pub fn self_times(spans: &[Span]) -> HashMap<u64, i64> {
    let mut out: HashMap<u64, i64> = spans
        .iter()
        .map(|s| (s.id, s.duration_ns() as i64))
        .collect();
    for s in spans {
        if s.parent != 0 {
            if let Some(t) = out.get_mut(&s.parent) {
                *t -= s.duration_ns() as i64;
            }
        }
    }
    out
}

/// Per-unit durations (ns) of every span called `name`.
pub fn per_unit_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / s.units.max(1) as f64)
        .collect()
}

/// At most this many spans of a run are written to the trace file (the
/// metrics use all of them): a few seconds of a closed loop make
/// hundreds of thousands.
pub const TRACE_FILE_SPAN_CAP: usize = 200_000;

/// Writes spans as JSON lines `{id, name, op_id, parent, start_ns,
/// end_ns, units}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(TRACE_FILE_SPAN_CAP) {
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("name", Json::str(s.name)),
            ("op_id", Json::Num(s.op_id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("units", Json::Num(s.units as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name,
            op_id: 1,
            parent,
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_spans_beneath() {
        // op [0, 100] -> client call [10, 90] -> two replayed layers of
        // 30 and 20 ns measured elsewhere in time.
        let spans = [
            span(1, "loadgen.op", 0, 0, 100),
            span(2, "service.client.batch", 1, 10, 90),
            span(3, "service.objects.apply_batch", 2, 500, 530),
            span(4, "service.protocol.batch_decode", 2, 600, 620),
            // A child that measured slower than its parent.
            span(5, "concurrent.apply_batch", 3, 700, 760),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], -30);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&5], 60);
    }

    #[test]
    fn per_unit_divides_batched_spans() {
        let mut s = span(1, "sketch.hash_row_batch", 0, 0, 4096);
        s.units = 4096;
        assert_eq!(per_unit_ns(&[s], "sketch.hash_row_batch"), vec![1.0]);
        assert!(per_unit_ns(&[s], "absent").is_empty());
    }

    #[test]
    fn span_ids_are_unique_across_logs() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, 1);
        let mut b = SpanLog::new(origin, 2);
        a.time("x", 1, 0, 1, || ());
        let id_a = a.record("x", 1, 0, 0, 1, 1);
        let id_b = b.record("x", 1, 0, 0, 1, 1);
        assert_ne!(id_a, id_b);
        assert_eq!(a.spans.len(), 2);
    }
}
