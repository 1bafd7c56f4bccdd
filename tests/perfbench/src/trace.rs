//! In-memory host-time spans for the traced run.
//!
//! The benchmark wraps spans around its own calls into each crate
//! (`ukernel.run`, `pmig.migrate_proto.eager`, `apps.step`, ...); spans
//! inside the simulator are out of scope. A span records its name, host
//! start and end in seconds since the tracer started, its parent, and
//! the id of the operation (one migration, one tick) it belongs to.
//! Everything stays in memory until [`Tracer::write_jsonl`] at exit.
//!
//! A disabled tracer records nothing, so the untraced run pays one
//! branch per call site.

use bench::hostclock::HostStopwatch;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<call>`; the text before the first dot names the layer.
    pub name: &'static str,
    /// Host seconds since the tracer started.
    pub start: f64,
    /// Host seconds since the tracer started (NaN while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to, if any.
    pub op: Option<u64>,
}

impl Span {
    /// The layer (crate) the span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder; [`Tracer::off`] makes every call a no-op.
pub struct Tracer {
    on: bool,
    clock: HostStopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            clock: HostStopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// True when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: self.clock.elapsed_secs(),
            end: f64::NAN,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end = self.clock.elapsed_secs();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "parent": {}, "op": {}, "start_us": {:.3}, "end_us": {:.3}}}"#,
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other or stick
/// out of the parent; only the union of their clipped intervals counts.
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
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Sums the self time of `spans[range]` per layer.
pub fn self_by_layer(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans
        .iter()
        .zip(self_times(spans))
        .skip(range.start)
        .take(range.len())
    {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// Sums the self time of the spans in `spans[range]` called `name`.
pub fn self_of(spans: &[Span], range: Range<usize>, name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .skip(range.start)
        .take(range.len())
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// Durations, in seconds, of the spans in `spans[range]` called `name`.
pub fn durations(spans: &[Span], range: Range<usize>, name: &str) -> Vec<f64> {
    spans[range]
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
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
            op: None,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let s = [span("ukernel.run", 1.0, 3.5, None)];
        assert_eq!(self_times(&s), vec![2.5]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // op [0,10] > step [1,7] > run [2,5]
        let s = [
            span("bench.op", 0.0, 10.0, None),
            span("apps.step", 1.0, 7.0, Some(0)),
            span("ukernel.run", 2.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&s), vec![4.0, 3.0, 3.0]);
        let by = self_by_layer(&s, 0..3);
        assert_eq!(by["bench"], 4.0);
        assert_eq!(by["apps"], 3.0);
        assert_eq!(by["ukernel"], 3.0);
        // Self times partition the root's duration.
        assert_eq!(by.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [1,4] and [3,6] overlap on [3,4]; [8,12] sticks out
        // of the parent and is clipped to [8,10].
        let s = [
            span("bench.op", 0.0, 10.0, None),
            span("ukernel.run", 1.0, 4.0, Some(0)),
            span("ukernel.run", 3.0, 6.0, Some(0)),
            span("apps.step", 8.0, 12.0, Some(0)),
        ];
        let t = self_times(&s);
        assert_eq!(t[0], 10.0 - 5.0 - 2.0);
        assert_eq!(self_of(&s, 0..4, "ukernel.run"), 6.0);
        assert_eq!(self_of(&s, 2..4, "ukernel.run"), 3.0);
        assert_eq!(durations(&s, 0..4, "apps.step"), vec![4.0]);
        // A range that excludes the parent still measures its children
        // against it.
        assert_eq!(self_by_layer(&s, 1..4)["apps"], 4.0);
        assert!(!self_by_layer(&s, 1..4).contains_key("bench"));
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut t = Tracer::on();
        t.set_op(Some(7));
        t.enter("bench.op");
        t.span("ukernel.run", || ());
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, Some(7));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(s[1].layer(), "ukernel");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("bench.op");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
