//! Spans and per-layer metrics of the traced run.
//!
//! A span records a layer call made by the benchmark's own code: its name
//! (`layer.function`), start and end (ns since the run began), parent span,
//! op id and the allocations made inside it.  Spans are kept in memory and
//! written as jsonl when the run ends.  Calls too short to time one by one
//! (a controller decision, an IUT step) are summed and written as one child
//! span with a `calls` count per enclosing span.
//!
//! When tracing is off, [`span`] only runs its closure and [`record`] does
//! nothing, so the untraced runs measure the program alone.

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// Number of calls folded into this span (1 for an ordinary span).
    calls: u64,
    /// Timed outside its parent's interval (a re-run of a call the parent
    /// made internally, used to split the parent's time).
    replay: bool,
}

#[derive(Default)]
struct Stat {
    sum: f64,
    count: u64,
    unit: &'static str,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Parent of the top-level spans inside [`replay_under`].
    replay_parent: Option<usize>,
    metrics: BTreeMap<&'static str, Stat>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
        replay_parent: None,
        metrics: BTreeMap::new(),
    });
}

/// Turns tracing (and allocation counting) on for the rest of the run.
pub fn enable() {
    alloc::enable();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.origin = Instant::now();
    });
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// The innermost open span, if tracing.
pub fn current() -> Option<usize> {
    TRACER.with(|t| t.borrow().stack.last().copied())
}

/// Sets the op id stamped on the spans that follow (0 = set-up or checks).
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

fn ns_since(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Runs `f` with its spans marked as replays and its top-level spans put
/// under `parent`: `f` re-runs, outside the parent's interval, calls the
/// parent made internally, to split the parent's time.
pub fn replay_under<T>(parent: Option<usize>, f: impl FnOnce() -> T) -> T {
    TRACER.with(|t| t.borrow_mut().replay_parent = parent);
    let value = f();
    TRACER.with(|t| t.borrow_mut().replay_parent = None);
    value
}

/// Runs `f` inside a span named `name`; returns its result and duration.
/// With tracing off the duration is still measured (the callers report
/// some of them untraced too), but nothing is recorded.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    if !enabled() {
        let started = Instant::now();
        let value = f();
        return (value, started.elapsed());
    }
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len();
        let parent = t.stack.last().copied().or(t.replay_parent);
        let op = t.op;
        let replay = t.replay_parent.is_some();
        t.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            allocs: 0,
            alloc_bytes: 0,
            calls: 1,
            replay,
        });
        t.stack.push(id);
        id
    });
    let (allocs0, bytes0) = alloc::snapshot();
    let started = Instant::now();
    let value = f();
    let ended = Instant::now();
    let (allocs1, bytes1) = alloc::snapshot();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.pop();
        let origin = t.origin;
        let s = &mut t.spans[id];
        s.start_ns = ns_since(origin, started);
        s.end_ns = ns_since(origin, ended);
        s.allocs = allocs1 - allocs0;
        s.alloc_bytes = bytes1 - bytes0;
    });
    (value, ended - started)
}

/// Records a span whose interval was measured by the caller: `calls`
/// folded calls taking `total` in all and making `allocs` (events, bytes),
/// under `parent` (or the innermost open span).  Returns the new span's id.
pub fn push_span(
    name: &'static str,
    start: Instant,
    total: Duration,
    calls: u64,
    allocs: (u64, u64),
    parent: Option<usize>,
    replay: bool,
) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len();
        let parent = parent.or_else(|| t.stack.last().copied());
        let start_ns = ns_since(t.origin, start);
        let op = t.op;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total.as_nanos() as u64,
            parent,
            op,
            allocs: allocs.0,
            alloc_bytes: allocs.1,
            calls,
            replay,
        });
        Some(id)
    })
}

/// Adds one sample to a per-layer metric (traced runs only); the metric
/// reports the mean of its samples.
pub fn record(name: &'static str, value: f64, unit: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return;
        }
        let stat = t.metrics.entry(name).or_default();
        stat.sum += value;
        stat.count += 1;
        stat.unit = unit;
    });
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every recorded metric as `(name, mean, unit, samples)`.
pub fn metrics() -> Vec<(&'static str, f64, &'static str, u64)> {
    TRACER.with(|t| {
        t.borrow()
            .metrics
            .iter()
            .map(|(name, s)| (*name, s.sum / s.count.max(1) as f64, s.unit, s.count))
            .collect()
    })
}

/// Self time per layer (the span name up to its first `.`), summed over
/// the spans of timed ops, divided by the number of ops: a span's self time
/// is its duration minus its children's.
pub fn self_ms_per_op(ops: u64) -> Vec<(String, f64)> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            if s.op == 0 {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *by_layer.entry(layer).or_default() += own as f64 / 1e6;
        }
        by_layer
            .into_iter()
            .map(|(layer, total)| (layer, total / ops.max(1) as f64))
            .collect()
    })
}

/// Writes the spans as jsonl; returns how many were written.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::with_capacity(t.spans.len() * 128);
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"allocs\":{},\"alloc_bytes\":{},\"calls\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.allocs, s.alloc_bytes, s.calls, s.replay
            );
        }
        std::fs::write(path, out)?;
        Ok(t.spans.len())
    })
}
