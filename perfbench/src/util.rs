//! Clocks, the span recorder, the counting allocator and the JSON report
//! of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

fn clock_ns(id: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU nanoseconds of the whole process (all threads).
pub fn process_cpu_ns() -> u64 {
    clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU nanoseconds of the calling thread: the clock single-threaded
/// kernel timings use, so host steal does not inflate them.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread allocation counters (calls and
/// requested bytes; `realloc` counts as one allocation of the new size).
pub struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the counters may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// (allocations, bytes) made by the calling thread so far.
pub fn thread_allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are const-initialised thread locals without
// destructors, so counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder: one span per call the benchmark makes into a
/// layer, with the span that caused it. Written once, when the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Spans::close`] and as a parent.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now();
        let s = &mut self.spans[id];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Record an already-timed interval (from [`Spans::now`] readings).
    pub fn record(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let v = f();
        (v, self.close(id))
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Chrome trace-event JSON (complete events, µs timestamps). Each
    /// event's `args` carry its id, parent id and self time.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_ns(i) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// A reconciliation row: name, value and its named base values.
pub type ReconcileRow = (String, f64, Vec<(String, f64)>);

/// Everything the traced run prints.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Exact counts as measured in each repetition.
    pub counts: BTreeMap<String, Vec<f64>>,
    pub reconcile: Vec<ReconcileRow>,
}

impl Report {
    pub fn metric(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("perfbench-trace: check {name} FAILED: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Record one repetition's value of an exact count.
    pub fn count(&mut self, name: &str, v: f64) {
        self.counts.entry(name.to_string()).or_default().push(v);
    }

    pub fn reconcile(&mut self, name: &str, v: f64, bases: &[(&str, f64)]) {
        self.reconcile.push((
            name.to_string(),
            v,
            bases.iter().map(|(k, b)| (k.to_string(), *b)).collect(),
        ));
    }

    /// Exact-count self-check: every count must read the same in every
    /// repetition; its value becomes the metric of the same name.
    pub fn settle_counts(&mut self) {
        let counts = std::mem::take(&mut self.counts);
        for (name, vals) in &counts {
            let exact = vals.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
            self.check(
                &format!("exact:{name}"),
                exact && vals.len() >= 2,
                format!("{} repetitions: {vals:?}", vals.len()),
            );
            self.metric(name, vals[0]);
        }
        self.counts = counts;
    }

    pub fn to_json(&self, spans_file: &str) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:e}")
            } else {
                "null".to_string()
            }
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok, d)| {
                format!(
                    "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                    json_str(k),
                    json_str(d)
                )
            })
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| {
                let vals: Vec<String> = v.iter().map(|x| num(*x)).collect();
                format!("{}:[{}]", json_str(k), vals.join(","))
            })
            .collect();
        let reconcile: Vec<String> = self
            .reconcile
            .iter()
            .map(|(k, v, bases)| {
                let b: Vec<String> = bases
                    .iter()
                    .map(|(bk, bv)| format!("{}:{}", json_str(bk), num(*bv)))
                    .collect();
                format!(
                    "{{\"name\":{},\"value\":{},\"bases\":{{{}}}}}",
                    json_str(k),
                    num(*v),
                    b.join(",")
                )
            })
            .collect();
        format!(
            "{{\"metrics\":{{{}}},\"checks\":[{}],\"counts\":{{{}}},\"reconcile\":[{}],\"spans_file\":{spans_file}}}",
            metrics.join(","),
            checks.join(","),
            counts.join(","),
            reconcile.join(",")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Build facts for the run stamp: profile and the target features the
/// code was compiled for.
pub fn stamp_json() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut features = Vec::new();
    macro_rules! feat {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                features.push(json_str($f));
            }
        )*};
    }
    feat!("sse2", "sse3", "ssse3", "sse4.1", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    format!(
        "{{\"profile\":{},\"target_arch\":{},\"target_features\":[{}]}}",
        json_str(profile),
        json_str(std::env::consts::ARCH),
        features.join(",")
    )
}
