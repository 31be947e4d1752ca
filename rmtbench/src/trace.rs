//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public
//! function in a span: name, start, end, the span that caused it, and
//! the request it belongs to. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer records nothing and
//! calls the wrapped function directly, so the untraced run pays only
//! a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span on the same thread, or an explicit parent.
    pub parent: Option<u64>,
    /// Request the span serves (0 when it serves none in particular).
    pub request: u64,
    /// Layer-qualified name, e.g. `thermal::solve/3d`.
    pub name: String,
    /// Work items the span covered (1 for a single call).
    pub count: u64,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a pass-through when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`true`) or only passes calls through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of one work item under the thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_n(name, 1, 0, f)
    }

    /// Runs `f` inside a span covering `count` work items of request
    /// `request`, nested under the thread's innermost open span.
    pub fn span_n<R>(&self, name: &str, count: u64, request: u64, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.span_under(parent, name, count, request, f)
    }

    /// Id of the thread's innermost open span, for handing to spans
    /// opened on other threads.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` inside a span with an explicit parent (for work a span
    /// hands to another thread).
    pub fn span_under<R>(
        &self,
        parent: Option<u64>,
        name: &str,
        count: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                count,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub spans: u64,
    /// Work items they covered.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Self time of each span: its duration minus the part of it that its
/// children's intervals cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.spans += 1;
        t.count += s.count;
        t.self_ns += selfs[&s.id];
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let mut o = rmt3d::telemetry::json::JsonObject::new();
        o.u64("id", s.id)
            .u64("parent", s.parent.unwrap_or(0))
            .u64("request", s.request)
            .str("name", &s.name)
            .u64("count", s.count)
            .u64("start_ns", s.start_ns)
            .u64("end_ns", s.end_ns)
            .u64("self_ns", selfs[&s.id]);
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            count: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps child 2: the shared 20..30 counts once.
            span(3, Some(1), 20, 50),
            // Grandchild: charged to 3, not to 1.
            span(4, Some(3), 25, 45),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 30 - 20);
        assert_eq!(s[&4], 20);
    }

    #[test]
    fn nesting_follows_the_thread_and_explicit_parents() {
        let t = Tracer::new(true);
        t.span("outer", || {
            let outer = t.current();
            t.span("inner", || ());
            std::thread::scope(|sc| {
                sc.spawn(|| t.span_under(outer, "remote", 3, 7, || ()));
            });
        });
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by("inner").parent, Some(outer.id));
        let remote = by("remote");
        assert_eq!(
            (remote.parent, remote.count, remote.request),
            (Some(outer.id), 3, 7)
        );
        let totals = totals_by_name(&spans);
        assert_eq!(totals["remote"].count, 3);
        let outer_self = totals["outer"].self_ns;
        assert!(outer_self <= outer.end_ns - outer.start_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 41 + 1), 42);
        assert!(t.spans().is_empty());
    }
}
