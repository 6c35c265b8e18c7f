//! The benchmark's own tracing: spans recorded around calls into the
//! workspace crates' public functions, and an allocation counter armed
//! around the sampler call. Nothing inside the crates is instrumented.
//!
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. With tracing off every call is a pass-through, so the
//! end-to-end runs pay nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `name` is `layer.function`, `parent` indexes the span
/// that caused it, and spans of one operation share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
#[derive(Clone, Copy)]
pub struct Open {
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<Open>, request: u64) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.and_then(|p| p.index),
            request,
        });
        Open {
            index: Some(spans.len() - 1),
        }
    }

    pub fn end(&self, open: Open) {
        if let Some(i) = open.index {
            let end_ns = self.now_ns();
            self.spans
                .lock()
                .expect("span list lock poisoned by a panic")[i]
                .end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panic");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panic");
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::seconds)
                    .sum();
                s.seconds() - children
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panic")
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panic");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// The system allocator, counting allocations while armed.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts `(allocations, bytes)` made by every thread while `f` runs.
/// Only meaningful when nothing else in the process allocates meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    );
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let (a1, b1) = (
        ALLOCS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    );
    (out, a1 - a0, b1 - b0)
}
