//! In-memory spans recorded from the harness side of each call into the
//! engine, written out as JSON lines when the run ends.
//!
//! The generator thread brackets its own calls (`gen`, `publish`/`submit`,
//! `drain`, `control`, `recover`); harness-owned and [`Timed`](crate::units::Timed)
//! units add `callback` spans from the dispatcher threads. All spans of one
//! batch share the batch sequence as their request id. Nothing inside the
//! engine is instrumented: that is a later change's job.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// One batch in this many is traced; the rest run untouched.
pub const SAMPLE_EVERY: u64 = 16;
/// Spans kept per run; later ones are counted and dropped.
const SPAN_CAP: usize = 400_000;
/// Callback spans kept per sampled batch. A fan-out batch makes thousands of
/// deliveries; the first few hundred show the shape, and the per-delivery
/// cells come from the callback clocks, which see every delivery.
const CALLBACKS_PER_BATCH: u32 = 256;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a batch's root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Batch sequence shared by every span of one batch.
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// `request << 32 | span id` of the generator-side span callbacks should
    /// attach to, or 0 while the current batch is not sampled. Relaxed is
    /// enough: it publishes no other data, and a callback that races a batch
    /// boundary merely lands in (or misses) a neighbouring sample.
    attach_to: AtomicU64,
    callbacks_left: AtomicU32,
    dropped: AtomicU64,
}

impl Tracer {
    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("no span writer panics mid-push");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts tracing batch `request` if it falls on the sampling grid.
    pub fn batch(&self, request: u64, start_ns: u64) -> Option<Batch<'_>> {
        if !request.is_multiple_of(SAMPLE_EVERY) {
            return None;
        }
        let root = self.fresh_id();
        self.callbacks_left
            .store(CALLBACKS_PER_BATCH, Ordering::Relaxed);
        // Batch sequences stay far below 2^32 within one run.
        self.attach_to
            .store((request << 32) | root as u64, Ordering::Relaxed);
        Some(Batch {
            tracer: self,
            root,
            request,
            start_ns,
            drain: None,
        })
    }

    /// Records a unit callback that ran `start_ns..end_ns`, if a sampled
    /// batch is open. Called from dispatcher threads.
    pub fn callback(&self, start_ns: u64, end_ns: u64) {
        let word = self.attach_to.load(Ordering::Relaxed);
        if word == 0 {
            return;
        }
        let spend = |left: u32| left.checked_sub(1);
        if self
            .callbacks_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.record(Span {
            id: self.fresh_id(),
            parent: word as u32,
            name: "callback",
            start_ns,
            end_ns,
            request: word >> 32,
        });
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span writer panics mid-push"))
    }
}

/// The generator's handle on one sampled batch.
pub struct Batch<'a> {
    tracer: &'a Tracer,
    root: u32,
    request: u64,
    start_ns: u64,
    drain: Option<(u32, u64)>,
}

impl Batch<'_> {
    /// Records a finished generator-side step of this batch.
    pub fn child(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.tracer.record(Span {
            id: self.tracer.fresh_id(),
            parent: self.root,
            name,
            start_ns,
            end_ns,
            request: self.request,
        });
    }

    /// The generator starts waiting for the engine: callbacks from here on
    /// are what the wait is for, so they become the drain span's children.
    pub fn open_drain(&mut self, start_ns: u64) {
        let id = self.tracer.fresh_id();
        self.drain = Some((id, start_ns));
        self.tracer
            .attach_to
            .store((self.request << 32) | id as u64, Ordering::Relaxed);
    }

    /// Ends the batch at `end_ns`, closing an open drain span with it.
    pub fn finish(self, end_ns: u64) {
        self.tracer.attach_to.store(0, Ordering::Relaxed);
        if let Some((id, start_ns)) = self.drain {
            self.tracer.record(Span {
                id,
                parent: self.root,
                name: "drain",
                start_ns,
                end_ns,
                request: self.request,
            });
        }
        self.tracer.record(Span {
            id: self.root,
            parent: 0,
            name: "batch",
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
        });
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// children cover (children clipped to the parent, overlaps counted once).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> HashMap<&'static str, SelfTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut by_name: HashMap<&'static str, SelfTime> = HashMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| cover(kids, span.start_ns, span.end_ns));
        let entry = by_name.entry(span.name).or_default();
        entry.spans += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    by_name
}

/// Length of the union of `intervals` inside `lo..hi`.
fn cover(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut frontier = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(frontier);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    covered
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            span.id, span.parent, span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span(1, 0, "batch", 0, 100),
            span(2, 1, "drain", 10, 90),
            // Overlapping callbacks (two workers), one running past the drain.
            span(3, 2, "callback", 20, 40),
            span(4, 2, "callback", 30, 50),
            span(5, 2, "callback", 80, 120),
        ];
        let times = self_times(&spans);
        // drain: 80 long, children cover 20..50 and 80..90 = 40.
        assert_eq!(
            times["drain"],
            SelfTime {
                spans: 1,
                total_ns: 80,
                self_ns: 40
            }
        );
        // batch: 100 long, its one child covers 80.
        assert_eq!(times["batch"].self_ns, 20);
        // Leaves keep their whole duration.
        assert_eq!(
            times["callback"],
            SelfTime {
                spans: 3,
                total_ns: 80,
                self_ns: 80
            }
        );
    }

    #[test]
    fn only_sampled_batches_record_and_callbacks_follow_the_open_span() {
        let tracer = Tracer::default();
        assert!(tracer.batch(1, 0).is_none());
        tracer.callback(1, 2); // no batch open: ignored
        let mut batch = tracer
            .batch(SAMPLE_EVERY, 10)
            .expect("on the sampling grid");
        batch.child("publish", 10, 20);
        tracer.callback(12, 14); // before the drain: child of the root
        batch.open_drain(20);
        tracer.callback(22, 28); // during the drain: child of the drain
        batch.finish(30);
        tracer.callback(31, 32); // after: ignored
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 5);
        let by_name = |name| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let root = by_name("batch")[0];
        let drain = by_name("drain")[0];
        assert_eq!((root.parent, root.start_ns, root.end_ns), (0, 10, 30));
        assert_eq!(drain.parent, root.id);
        let callbacks = by_name("callback");
        assert_eq!(callbacks[0].parent, root.id);
        assert_eq!(callbacks[1].parent, drain.id);
        assert!(spans.iter().all(|s| s.request == SAMPLE_EVERY));
        assert_eq!(self_times(&spans)["drain"].self_ns, 4);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let dir = crate::host::scratch_dir("trace-test").unwrap();
        let path = dir.join("trace.jsonl");
        write_jsonl(&[span(1, 0, "batch", 5, 9), span(2, 1, "gen", 5, 6)], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").unwrap().as_str(), Some("gen"));
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(1.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
