//! In-memory span recorder and allocation counter for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent span and
//! operation id, plus the allocation calls its thread made meanwhile.
//! Self time and self allocations are a span's own figures minus those
//! of its children.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Global allocator of the benchmark binary: the system allocator plus a
/// per-thread count of allocation calls (`alloc`, `alloc_zeroed`,
/// `realloc`). The count is a plain thread-local cell, so threads never
/// contend on it and the untraced run pays one increment per call.
pub struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn count_call() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by the current thread so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }
}

/// Starts recording on the current thread, dropping earlier spans.
pub fn enable() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Some(Instant::now());
        r.spans.clear();
        // Reserve up front so span bookkeeping rarely allocates inside a
        // measured span.
        r.spans.reserve(1 << 16);
        r.open.clear();
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the recorded spans.
pub fn disable() -> Trace {
    ENABLED.store(false, Ordering::Relaxed);
    RECORDER.with(|r| Trace {
        spans: std::mem::take(&mut r.borrow_mut().spans),
    })
}

/// An open span; it ends when dropped. Inert while recording is off.
pub struct SpanGuard {
    index: Option<usize>,
}

/// Opens span `name` for operation `op`, a child of the innermost open
/// span of this thread.
pub fn span(name: &'static str, op: u64) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { index: None };
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = r.now_ns();
        r.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        r.open.push(index);
        index
    });
    // Read last, so the bookkeeping above is not charged to this span.
    let allocs_at_start = alloc_calls();
    RECORDER.with(|r| r.borrow_mut().spans[index].allocs = allocs_at_start);
    SpanGuard { index: Some(index) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let allocs_now = alloc_calls();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.now_ns();
            let span = &mut r.spans[index];
            span.end_ns = end_ns;
            span.allocs = allocs_now - span.allocs;
            r.open.pop();
        });
    }
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Default, Clone)]
pub struct NameSummary {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Self time of each span, in microseconds.
    pub self_us: Vec<f64>,
    /// Allocation calls minus those of child spans, summed.
    pub self_allocs: u64,
}

/// The spans of one traced run.
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Self time and allocations per span name.
    pub fn summarize(&self) -> BTreeMap<&'static str, NameSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
                child_allocs[parent] += span.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            entry.self_us.push(self_ns as f64 / 1e3);
            entry.self_allocs += span.allocs.saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Tab-separated span dump: name, op, parent, start and end in ns
    /// since recording began, allocation calls.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\top\tparent\tstart_ns\tend_ns\tallocs\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_allocations_exclude_children() {
        enable();
        {
            let _outer = span("outer", 7);
            let _v: Vec<u8> = Vec::with_capacity(16);
            {
                let _inner = span("inner", 7);
                let _w: Vec<u8> = Vec::with_capacity(16);
                let _x: Vec<u8> = Vec::with_capacity(16);
            }
        }
        let summary = disable().summarize();
        assert_eq!(summary["outer"].calls, 1);
        assert_eq!(summary["inner"].self_allocs, 2);
        assert_eq!(summary["outer"].self_allocs, 1);
    }
}
