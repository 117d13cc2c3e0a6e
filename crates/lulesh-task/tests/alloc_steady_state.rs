//! Steady-state allocation regression test for the task driver.
//!
//! A counting global allocator keeps two counters:
//!
//! * **task bodies** — allocations made while a worker is inside a task's
//!   user closure ([`taskrt::in_task_body`]). The per-worker scratch pools
//!   replace the per-task `vec!` temporaries of the stress / hourglass /
//!   EOS bodies, so once the pools are warm (first cycle) the bodies
//!   allocate nothing.
//! * **whole process** — every allocation on every thread: the control
//!   thread's step loop, graph construction, queue and wake-up
//!   bookkeeping in the runtime, and the bodies. The driver compiles its
//!   iteration graph once and replays it, so after the first cycle a step
//!   allocates nothing at all.
//!
//! For both counters a 12-cycle run must record exactly as many
//! allocations as a 3-cycle run: the per-cycle allocation rate is zero.
//!
//! One worker thread on purpose: with several workers, *which* worker
//! first executes each body type (and therefore when its pool slot warms
//! up), and how deep each deque grows, depend on stealing order, which
//! would make the strict equality flaky. A single worker warms every
//! buffer in cycle one, deterministically, while still running everything
//! through the real runtime. For the same reason this file holds a single
//! test: the test harness runs tests on parallel threads, and the
//! whole-process counter would count a neighbour's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lulesh_core::Domain;
use lulesh_task::{PartitionPlan, TaskLulesh};

/// Counts every allocation, and separately those made inside a task body.
struct CountingAlloc;

static TASK_BODY_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    if taskrt::in_task_body() {
        TASK_BODY_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(task-body, whole-process)` allocation counts of a fresh
/// `cycles`-cycle run. The whole-process window spans the runtime's
/// construction and shutdown, so worker start-up is counted in full on
/// both sides instead of racing the measurement.
fn allocs(cycles: u64) -> (u64, u64) {
    let d = Arc::new(Domain::build(8, 4, 1, 1, 0));
    let plan = PartitionPlan::fixed(64, 64);
    let (body0, all0) = (
        TASK_BODY_ALLOCS.load(Ordering::Relaxed),
        ALL_ALLOCS.load(Ordering::Relaxed),
    );
    let rt = TaskLulesh::new(1);
    let state = rt.run(&d, plan, cycles).expect("stable run");
    drop(rt);
    let (body1, all1) = (
        TASK_BODY_ALLOCS.load(Ordering::Relaxed),
        ALL_ALLOCS.load(Ordering::Relaxed),
    );
    assert_eq!(state.cycle, cycles);
    (body1 - body0, all1 - all0)
}

#[test]
fn task_bodies_stop_allocating_once_pools_are_warm() {
    let (short_body, short_all) = allocs(3);
    let (long_body, long_all) = allocs(12);
    // Warm-up (cycle 1 growing the pooled buffers) is allowed to
    // allocate; every cycle after that must not. Identical counts for 3
    // and 12 cycles means the per-cycle allocation rate is exactly zero.
    assert_eq!(
        long_body,
        short_body,
        "task bodies allocated {} extra times over 9 extra cycles",
        long_body - short_body
    );
    assert_eq!(
        long_all,
        short_all,
        "the process allocated {} extra times over 9 extra cycles",
        long_all as i64 - short_all as i64
    );
    // Self-check that the flag plumbing works at all: warming the pools
    // *does* allocate inside task bodies, so a zero count here would
    // mean the counter (or the flag) is broken, not that the code is
    // allocation-free.
    assert!(
        short_body > 0,
        "counting allocator saw no task-body allocations"
    );
}
