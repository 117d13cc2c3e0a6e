//! Compiled task graphs: describe a DAG of labelled task bodies and
//! `when_all`-style joins once, then replay it on a [`Runtime`] as often
//! as needed.
//!
//! The futures surface builds a fresh set of promises, boxed
//! continuations and shared counters for every execution. A driver that
//! runs the *same* dependency structure every step (the LULESH leapfrog)
//! can instead compile it into a [`TaskGraph`]: each node keeps a
//! dependency counter that is re-armed when the node fires, a ready node
//! is queued as a `(graph, index)` pair without allocating, and a join
//! runs inline on the worker that completes its last predecessor. A
//! replay therefore performs no heap allocation and no reference-count
//! traffic.
//!
//! Node bodies are `Fn`, not `FnOnce`: they run once per replay, so any
//! per-replay input (such as the time step) is read from shared state the
//! caller updates between runs.

use crate::scheduler::{self, Local, Runtime, Task};
use obs::SpanKind;
use parking_lot::{Condvar, Mutex};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// A node of a [`GraphBuilder`], used to name dependencies of later nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

type Body = Box<dyn Fn() + Send + Sync>;

enum Op {
    /// A task body, timed and counted like any spawned task.
    Task { kind: SpanKind, body: Body },
    /// A synchronization point: no body, fires once every dependency has.
    Join,
}

struct Node {
    label: &'static str,
    op: Op,
    /// Number of dependency edges (the re-arm value of `pending`).
    deps: u32,
    /// Dependencies not yet completed in the current run.
    pending: AtomicU32,
    /// Traced joins: tracer time at which the first dependency completed
    /// in the current run (`u64::MAX` while none has).
    first_done: AtomicU64,
    /// This node's successors: `succs[succ.0..succ.1]`.
    succ: (u32, u32),
}

/// Collects the nodes and edges of a [`TaskGraph`]. Dependencies must be
/// nodes already added to the same builder, so every graph is acyclic by
/// construction.
#[derive(Default)]
pub struct GraphBuilder {
    nodes: Vec<(&'static str, Op, std::ops::Range<usize>)>,
    deps: Vec<u32>,
}

impl GraphBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task running `body` once all of `deps` have completed; `label`
    /// and `kind` name its trace span and phase counter. A task without
    /// dependencies starts the graph.
    pub fn task(
        &mut self,
        label: &'static str,
        kind: SpanKind,
        deps: &[NodeId],
        body: impl Fn() + Send + Sync + 'static,
    ) -> NodeId {
        let body: Body = Box::new(body);
        self.push(label, Op::Task { kind, body }, deps)
    }

    /// Add a join (`hpx::when_all` over `deps`): a synchronization point
    /// later nodes can depend on. It runs no body and is not counted as a
    /// task; on a traced runtime it records one [`SpanKind::Barrier`] span
    /// from its first dependency's completion to its last.
    pub fn join(&mut self, label: &'static str, deps: &[NodeId]) -> NodeId {
        self.push(label, Op::Join, deps)
    }

    fn push(&mut self, label: &'static str, op: Op, deps: &[NodeId]) -> NodeId {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id < LAUNCH)
            .expect("task graph exceeds u32::MAX - 1 nodes");
        let start = self.deps.len();
        for d in deps {
            assert!(d.0 < id, "dependency {} is not an earlier node", d.0);
            self.deps.push(d.0);
        }
        self.nodes.push((label, op, start..self.deps.len()));
        NodeId(id)
    }

    /// Freeze the graph: invert the dependency lists into successor lists.
    pub fn build(self) -> TaskGraph {
        let n = self.nodes.len();
        // Counting sort of the edges by source: successors of node `i`
        // occupy `succs[offset[i]..offset[i + 1]]`.
        let mut offset = vec![0u32; n + 1];
        for &d in &self.deps {
            offset[d as usize + 1] += 1;
        }
        for i in 0..n {
            offset[i + 1] += offset[i];
        }
        let mut fill = offset.clone();
        let mut succs = vec![0u32; self.deps.len()];
        for (i, (_, _, deps)) in self.nodes.iter().enumerate() {
            for &d in &self.deps[deps.clone()] {
                succs[fill[d as usize] as usize] = i as u32;
                fill[d as usize] += 1;
            }
        }
        let mut roots = Vec::new();
        let (mut tasks, mut joins, mut sinks) = (0, 0, 0);
        let nodes: Box<[Node]> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, (label, op, deps))| {
                let deps = deps.len() as u32;
                if deps == 0 {
                    roots.push(i as u32);
                }
                let succ = (offset[i], offset[i + 1]);
                if succ.0 == succ.1 {
                    sinks += 1;
                }
                match op {
                    Op::Task { .. } => tasks += 1,
                    Op::Join => joins += 1,
                }
                Node {
                    label,
                    op,
                    deps,
                    pending: AtomicU32::new(deps),
                    first_done: AtomicU64::new(u64::MAX),
                    succ,
                }
            })
            .collect();
        TaskGraph {
            nodes,
            succs: succs.into(),
            roots: roots.into(),
            sinks,
            tasks,
            joins,
            sinks_left: AtomicU32::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// Index of the launch pseudo-node: the one task [`TaskGraph::run`]
/// injects, which releases every root onto the local deque of the worker
/// that picks it up.
const LAUNCH: u32 = u32::MAX;

/// A compiled, replayable task graph (see the [module docs](self)).
pub struct TaskGraph {
    nodes: Box<[Node]>,
    succs: Box<[u32]>,
    roots: Box<[u32]>,
    sinks: u32,
    tasks: usize,
    joins: usize,
    /// Sinks not yet completed in the current run.
    sinks_left: AtomicU32,
    /// A body panicked in the current run: later bodies are skipped.
    poisoned: AtomicBool,
    /// The first panic of the current run: node label and message.
    panic: Mutex<Option<(&'static str, String)>>,
    /// Set by the worker that completes the last sink.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// A queued node: a pointer to its graph plus its index.
pub(crate) struct NodeRef {
    graph: NonNull<TaskGraph>,
    index: u32,
}

// SAFETY: `TaskGraph` is `Sync` (its bodies are `Send + Sync`, the rest is
// atomics and locks), so using it from any worker is sound; and every
// `NodeRef` is consumed before `TaskGraph::run` returns (see `run`), while
// the graph is pinned by the `&mut` borrow `run` holds.
unsafe impl Send for NodeRef {}

impl NodeRef {
    /// Execute this node on the worker described by `local`.
    pub(crate) fn fire(self, local: &Local<'_>) {
        // SAFETY: the graph outlives its queued nodes (see `TaskGraph::run`).
        let g = unsafe { self.graph.as_ref() };
        g.fire(self.index, local);
    }
}

impl TaskGraph {
    /// Task nodes (joins excluded).
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Join nodes (synchronization points).
    pub fn joins(&self) -> usize {
        self.joins
    }

    /// Execute every node once on `rt`, each after all of its
    /// dependencies, and block until the whole graph has completed. The
    /// graph can be run again afterwards, on this or another runtime.
    ///
    /// A panicking body does not hang the run: the panic is caught, the
    /// remaining bodies are skipped, the graph drains, and `run` then
    /// panics naming the node. Call only from a control (non-worker)
    /// thread, like [`crate::Future::get`].
    pub fn run(&mut self, rt: &Runtime) {
        debug_assert!(
            !scheduler::on_worker_thread(),
            "TaskGraph::run called from a worker task"
        );
        if self.nodes.is_empty() {
            return;
        }
        *self.done.lock() = false;
        *self.sinks_left.get_mut() = self.sinks;
        *self.poisoned.get_mut() = false;
        let this: &TaskGraph = self;
        rt.submit(this.node_ref(LAUNCH));
        // Every queued `NodeRef` belongs to a node that some sink depends
        // on, so once the last sink has completed no worker holds or will
        // dereference a pointer into this graph: the completing worker's
        // final access is the `done` handshake below, and `self` stays
        // borrowed until then.
        let mut done = this.done.lock();
        while !*done {
            this.done_cv.wait(&mut done);
        }
        drop(done);
        let failure = self.panic.lock().take();
        if let Some((label, msg)) = failure {
            panic!("task graph node '{label}' panicked: {msg}");
        }
    }

    fn node_ref(&self, index: u32) -> Task {
        Task::Node(NodeRef {
            graph: NonNull::from(self),
            index,
        })
    }

    fn fire(&self, index: u32, local: &Local<'_>) {
        if index == LAUNCH {
            // Read the count first: once the last root is queued, another
            // worker may finish the whole run and free the graph.
            let n = self.roots.len();
            for &r in self.roots.iter() {
                local.push(self.node_ref(r));
            }
            local.wake(n);
            return;
        }
        let node = &self.nodes[index as usize];
        // Every dependency has reported for this run; re-arm for the next.
        node.pending.store(node.deps, Ordering::Relaxed);
        match &node.op {
            Op::Task { kind, body } => {
                if !self.poisoned.load(Ordering::Relaxed) {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        scheduler::exec_timed(node.label, *kind, body)
                    }));
                    if let Err(payload) = r {
                        self.poisoned.store(true, Ordering::Relaxed);
                        let mut slot = self.panic.lock();
                        if slot.is_none() {
                            *slot = Some((node.label, panic_message(payload.as_ref())));
                        }
                    }
                }
            }
            // A join without dependencies: its barrier span is empty.
            Op::Join => {
                if let Some(now) = local.now() {
                    local.record_barrier(node.label, now, now);
                }
            }
        }
        self.release(node, local);
    }

    /// `node` has completed: count it down in each successor, queue the
    /// tasks that became ready on the local deque, run the joins that did
    /// inline, and wake up to that many sleeping workers once.
    fn release(&self, node: &Node, local: &Local<'_>) {
        let succs = &self.succs[node.succ.0 as usize..node.succ.1 as usize];
        if succs.is_empty() {
            if self.sinks_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                // The last access to the graph of this run: `run` may
                // return as soon as the lock is released.
                let mut done = self.done.lock();
                *done = true;
                self.done_cv.notify_one();
            }
            return;
        }
        let mut now = None;
        let mut released = 0;
        for &s in succs {
            let succ = &self.nodes[s as usize];
            let is_join = matches!(succ.op, Op::Join);
            if is_join {
                if let Some(t) = *now.get_or_insert_with(|| local.now()) {
                    succ.first_done.fetch_min(t, Ordering::Relaxed);
                }
            }
            // Acquire/release pairs each completion with the firing of the
            // successor, so the successor sees every dependency's writes.
            if succ.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
            if is_join {
                self.fire_join(succ, local);
            } else {
                local.push(self.node_ref(s));
                released += 1;
            }
        }
        if released > 0 {
            local.wake(released);
        }
    }

    /// A join whose last dependency just completed on this worker.
    fn fire_join(&self, node: &Node, local: &Local<'_>) {
        node.pending.store(node.deps, Ordering::Relaxed);
        let start = node.first_done.swap(u64::MAX, Ordering::Relaxed);
        if let Some(now) = local.now() {
            local.record_barrier(node.label, start.min(now), now);
        }
        self.release(node, local);
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A chain a → (b ∥ c) → join → d, counting executions.
    fn diamond(hits: &Arc<AtomicUsize>) -> TaskGraph {
        let mut g = GraphBuilder::new();
        let task = |g: &mut GraphBuilder, deps: &[NodeId]| {
            let hits = Arc::clone(hits);
            g.task("t", SpanKind::Task, deps, move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
        };
        let a = task(&mut g, &[]);
        let b = task(&mut g, &[a]);
        let c = task(&mut g, &[a]);
        let j = g.join("barrier-test", &[b, c]);
        task(&mut g, &[j]);
        g.build()
    }

    #[test]
    fn replays_run_every_task_once_per_run() {
        let rt = Runtime::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let mut g = diamond(&hits);
        assert_eq!((g.tasks(), g.joins()), (4, 1));
        for run in 1..=5 {
            g.run(&rt);
            assert_eq!(hits.load(Ordering::Relaxed), 4 * run);
        }
        // Joins are synchronization, not tasks.
        assert_eq!(rt.stats().tasks, 20);
    }

    #[test]
    fn empty_graph_runs() {
        let rt = Runtime::new(1);
        GraphBuilder::new().build().run(&rt);
    }

    #[test]
    #[should_panic(expected = "is not an earlier node")]
    fn forward_dependencies_are_rejected() {
        let mut g = GraphBuilder::new();
        g.join("j", &[NodeId(0)]);
    }

    #[test]
    fn panicking_node_fails_the_run_without_hanging() {
        let rt = Runtime::new(2);
        let mut g = GraphBuilder::new();
        let a = g.task("fine", SpanKind::Task, &[], || {});
        let b = g.task("exploding", SpanKind::Task, &[a], || {
            panic!("kernel exploded")
        });
        g.join("end", &[a, b]);
        let mut g = g.build();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.run(&rt)))
            .expect_err("run() must panic, not hang");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("'exploding'") && msg.contains("kernel exploded"),
            "got: {msg}"
        );
    }

    #[test]
    fn worker_survives_a_panicking_node() {
        let rt = Runtime::new(1);
        let mut flaky = GraphBuilder::new();
        let first = AtomicBool::new(true);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        flaky.task("flaky", SpanKind::Task, &[], move || {
            if first.swap(false, Ordering::Relaxed) {
                panic!("boom");
            }
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        let mut flaky = flaky.build();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| flaky.run(&rt)));
        assert!(failed.is_err());
        // The failed graph replays cleanly once its body stops panicking,
        // and the single worker still runs the next graph.
        flaky.run(&rt);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let hits = Arc::new(AtomicUsize::new(0));
        diamond(&hits).run(&rt);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn traced_barrier_records_one_span() {
        let tracer = obs::Tracer::shared(3);
        let rt = Runtime::with_tracer(2, Arc::clone(&tracer), 0);
        let mut g = GraphBuilder::new();
        let fs: Vec<_> = (0..8)
            .map(|i| {
                g.task("t", SpanKind::Task, &[], move || {
                    std::hint::black_box(i);
                })
            })
            .collect();
        g.join("barrier-test", &fs);
        let mut g = g.build();
        for _ in 0..3 {
            g.run(&rt);
        }
        let spans = tracer.drain();
        let barriers: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Barrier)
            .collect();
        assert_eq!(barriers.len(), 3);
        for b in barriers {
            assert_eq!(b.label, "barrier-test");
            assert!(b.end_ns >= b.start_ns);
        }
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::Task).count(),
            24
        );
    }

    #[test]
    fn untraced_runtime_records_nothing_and_still_counts() {
        let rt = Runtime::new(2);
        assert!(rt.tracer().is_none());
        let mut g = GraphBuilder::new();
        let fs: Vec<_> = (0..16)
            .map(|_| g.task("t", SpanKind::Task, &[], || {}))
            .collect();
        g.join("ignored", &fs);
        g.build().run(&rt);
        assert_eq!(rt.stats().tasks, 16);
    }
}
