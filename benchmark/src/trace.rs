//! In-memory spans recorded by the benchmark's own driver around calls
//! into each layer, reduced to per-layer self time and written out as one
//! JSON object per line when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span, or one aggregate of `count` equal-named spans inside a
/// 1 024-cycle window (per-call spans of a multi-million-cycle run would
/// not fit in memory). `busy_ns` is the time actually spent inside; for a
/// single span it equals `end_ns - start_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
    /// Pool worker that ran the span (sweep points only).
    pub worker: Option<usize>,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a single span covering `[start, end]`.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count: 1,
            worker: None,
        })
    }

    /// Records an aggregate of `count` calls that together took `busy_ns`
    /// inside the interval of `parent`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: usize,
        busy_ns: u64,
        count: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns,
            count,
            worker: None,
        })
    }

    /// Begins a span whose end is not known yet, so that spans recorded
    /// meanwhile can name it as their parent; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> usize {
        self.span(name, parent, start, start)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    pub fn set_worker(&mut self, id: usize, worker: usize) {
        self.spans[id].worker = Some(worker);
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Which spans lie in the subtree of `root` (a parent always precedes
    /// its children, so one forward pass decides).
    fn under(&self, root: usize) -> Vec<bool> {
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        }
        inside
    }

    /// Busy time per span name over the subtree of `root`.
    pub fn busy_by_name(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, _) in self.spans.iter().zip(self.under(root)).filter(|(_, k)| *k) {
            *out.entry(s.name).or_insert(0) += s.busy_ns;
        }
        out
    }

    /// Self time per span name over the subtree of `root`: a span's busy
    /// time minus its children's.
    pub fn self_by_name(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        let mut out = BTreeMap::new();
        for ((s, ns), _) in self
            .spans
            .iter()
            .zip(own)
            .zip(self.under(root))
            .filter(|(_, k)| *k)
        {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// Writes the spans as JSON lines, creating the parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Int(v as u64));
            let line = Json::obj(vec![
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("parent", opt(s.parent)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("busy_ns", Json::Int(s.busy_ns)),
                ("count", Json::Int(s.count)),
                ("worker", opt(s.worker)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, busy_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            count: 1,
            worker: None,
        }
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut t = Trace::new();
        let window = t.push(span("window", None, 1_000));
        let cycle = t.push(span("netsim.cycle", Some(window), 900));
        t.push(span("traffic.poll", Some(cycle), 300));
        t.push(span("core.on_cycle", Some(cycle), 50));
        t.push(span("metrics.drain_record", Some(window), 40));
        let own = t.self_by_name(window);
        assert_eq!(own["netsim.cycle"], 550);
        assert_eq!(own["traffic.poll"], 300);
        assert_eq!(own["window"], 60);
        assert_eq!(t.busy_by_name(window)["netsim.cycle"], 900);
        // Self times partition the root's busy time.
        assert_eq!(own.values().sum::<u64>(), 1_000);
    }

    #[test]
    fn equal_names_accumulate_across_windows_of_one_subtree() {
        let mut t = Trace::new();
        let setup = t.push(span("setup", None, 500));
        let w = t.push(span("window", Some(setup), 100));
        t.aggregate("netsim.cycle", w, 80, 1024);
        let timed = t.push(span("timed_region", None, 300));
        for _ in 0..3 {
            let w = t.push(span("window", Some(timed), 100));
            t.aggregate("netsim.cycle", w, 80, 1024);
        }
        assert_eq!(t.self_by_name(timed)["netsim.cycle"], 240);
        assert_eq!(t.self_by_name(timed)["window"], 60);
        assert_eq!(t.self_by_name(setup)["netsim.cycle"], 80);
        assert!(!t.self_by_name(timed).contains_key("setup"));
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn open_spans_take_their_end_on_close() {
        let mut t = Trace::new();
        let start = Instant::now();
        let id = t.open("timed_region", None, start);
        assert_eq!(t.spans()[id].busy_ns, 0);
        t.close(id, start + std::time::Duration::from_nanos(750));
        assert_eq!(t.spans()[id].busy_ns, 750);
        assert_eq!(t.spans()[id].end_ns - t.spans()[id].start_ns, 750);
    }

    #[test]
    fn children_larger_than_parent_saturate_at_zero() {
        let mut t = Trace::new();
        let p = t.push(span("p", None, 10));
        t.push(span("c", Some(p), 15));
        assert_eq!(t.self_by_name(p)["p"], 0);
    }
}
