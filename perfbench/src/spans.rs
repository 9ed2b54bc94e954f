//! The benchmark's own spans around each call into the program.
//!
//! Every timed call goes through [`SpanLog::time`], which always returns
//! the call's wall-clock seconds (the benchmark's measurements come from
//! there) and, when tracing is on, also records a span with its parent.
//! Spans stay in memory until the run ends; [`SpanLog::write_json`] then
//! writes them out and [`SpanLog::summary`] gives each span name's total
//! and self time (its duration minus the part covered by child spans).

use ibfs_util::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    /// Recording thread (`main`, `reply`).
    thread: &'static str,
    start_s: f64,
    end_s: f64,
    /// Index of the enclosing span in the same log.
    parent: Option<usize>,
}

/// Per-thread span recorder sharing one epoch with its siblings.
pub struct SpanLog {
    on: bool,
    thread: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(on: bool, thread: &'static str, epoch: Instant) -> Self {
        SpanLog {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on this log's epoch.
    pub fn sibling(&self, thread: &'static str) -> SpanLog {
        SpanLog::new(self.on, thread, self.epoch)
    }

    /// Opens a span named `name` that encloses every span recorded until
    /// the matching [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            self.spans.push(Span {
                name,
                thread: self.thread,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: 0.0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Runs `f`, returning its result and its wall-clock seconds; records
    /// a span named `name` (nested under any open span) when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        self.enter(name);
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Records a span that ended now and began at `start` (for intervals
    /// that do not enclose a single call, such as request-to-reply).
    pub fn record(&mut self, name: &'static str, start: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                thread: self.thread,
                start_s: (start - self.epoch).as_secs_f64(),
                end_s: self.epoch.elapsed().as_secs_f64(),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_s - s.start_s;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - child;
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("thread".into(), Json::Str(s.thread.into())),
                    ("start_s".into(), Json::Float(s.start_s)),
                    ("end_s".into(), Json::Float(s.end_s)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(true, "main", Instant::now());
        log.enter("outer");
        log.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.exit();
        let mut reply = log.sibling("reply");
        reply.time("inner", || ());
        log.merge(reply);
        let s = log.summary();
        assert_eq!(s["inner"].0, 2);
        let (_, outer_total, outer_self) = s["outer"];
        assert!(outer_total >= 0.002);
        assert!(outer_self < outer_total - 0.0019);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, None);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut log = SpanLog::new(false, "main", Instant::now());
        let (v, secs) = log.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(log.spans.is_empty());
    }
}
