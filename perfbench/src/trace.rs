//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own code around each call into
//! a layer's public API; nothing inside the library is instrumented.
//! A span records its layer name, start and end (ns since the tracer
//! started), the span that caused it, and the request it belongs to.
//! Spans stay in memory and are written out once, when the run ends.
//! When tracing is off, opening a span reads no clock and records
//! nothing.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span; `0` for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// `(span id, request id)` of the open spans on this thread.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    u64::try_from(tracer().origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn top() -> (u64, u64) {
    STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)))
}

struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// An open span; it closes when dropped.
pub struct Span(Option<Open>);

fn open(name: &'static str, new_request: bool) -> Span {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Span(None);
    }
    let (parent, request) = top();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let request = if new_request { id } else { request };
    STACK.with(|s| s.borrow_mut().push((id, request)));
    Span(Some(Open {
        id,
        parent,
        request,
        name,
        start_ns: now_ns(),
    }))
}

/// Opens a span for `name` inside the current span and request.
pub fn span(name: &'static str) -> Span {
    open(name, false)
}

/// Opens a span that starts a new request (its id is the span's id).
pub fn request(name: &'static str) -> Span {
    open(name, true)
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = tracer().spans.lock() {
            spans.push(record);
        }
    }
}

/// The open span of the calling thread, to hand to a worker thread.
#[derive(Clone, Copy, Debug)]
pub struct Context(u64, u64);

pub fn context() -> Context {
    let (id, request) = top();
    Context(id, request)
}

/// Makes `ctx` the enclosing span of this thread until the guard drops.
pub struct Adopted(bool);

pub fn adopt(ctx: Context) -> Adopted {
    if ctx.0 == 0 {
        return Adopted(false);
    }
    STACK.with(|s| s.borrow_mut().push((ctx.0, ctx.1)));
    Adopted(true)
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if self.0 {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Removes and returns every recorded span, ordered by start.
pub fn take() -> Vec<SpanRecord> {
    let mut spans = tracer()
        .spans
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time per span name, in ns: each span's duration minus the part
/// of it that its children cover (children on several threads may
/// overlap, so their union is subtracted).
pub fn self_ns(spans: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// The span list as JSON.
pub fn spans_json(spans: &[SpanRecord]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", Json::Int(s.parent)),
                    ("request", Json::Int(s.request)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            rec(1, 0, "outer", 0, 100),
            rec(2, 1, "inner", 10, 40),
            rec(3, 1, "inner", 30, 60),
            rec(4, 1, "inner", 90, 120),
        ];
        let self_ns = self_ns(&spans);
        // Children cover [10, 60) and [90, 100) of the parent.
        assert_eq!(self_ns["outer"], 40);
        assert_eq!(self_ns["inner"], 30 + 30 + 30);
    }
}
