//! Property tests executing randomly generated DAGs on the runtime: every
//! task runs exactly once, strictly after all of its dependencies, for any
//! graph shape and worker count — built from futures, and compiled once
//! into a `TaskGraph` and replayed.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use taskrt::{when_all_unit, Future, GraphBuilder, NodeId, Runtime, TaskGraph};

/// Execute a DAG given as `deps[i] ⊂ 0..i`; returns the completion stamp of
/// every task (a global monotonically increasing counter).
fn run_dag(rt: &Runtime, deps: &[Vec<usize>]) -> Vec<usize> {
    let n = deps.len();
    let clock = Arc::new(AtomicUsize::new(0));
    let stamps: Arc<Vec<AtomicUsize>> =
        Arc::new((0..n).map(|_| AtomicUsize::new(usize::MAX)).collect());

    // How many dependents consume each task's future.
    let mut consumers = vec![0usize; n];
    for d in deps.iter().flat_map(|v| v.iter()) {
        consumers[*d] += 1;
    }

    // Build bottom-up: forked output futures per task.
    let mut outputs: Vec<Vec<Future<()>>> = Vec::with_capacity(n);
    let mut finals: Vec<Future<()>> = Vec::new();
    for i in 0..n {
        let clock = Arc::clone(&clock);
        let stamps = Arc::clone(&stamps);
        let body = move |_: Vec<()>| {
            let t = clock.fetch_add(1, Ordering::SeqCst);
            let prev = stamps[i].swap(t, Ordering::SeqCst);
            assert_eq!(prev, usize::MAX, "task {i} ran twice");
        };
        let dep_futs: Vec<Future<()>> = deps[i]
            .iter()
            .map(|&d| outputs[d].pop().expect("enough forks"))
            .collect();
        let fut = if dep_futs.is_empty() {
            rt.spawn(move || body(Vec::new()))
        } else {
            taskrt::dataflow(rt, dep_futs, body)
        };
        if consumers[i] == 0 {
            outputs.push(Vec::new());
            finals.push(fut);
        } else {
            outputs.push(fut.fork(consumers[i]));
        }
    }
    when_all_unit(finals).get();
    stamps.iter().map(|s| s.load(Ordering::SeqCst)).collect()
}

/// The same DAG compiled into a [`TaskGraph`], with the completion clock
/// and stamps its bodies write.
struct CompiledDag {
    /// `None` only while a replay is in flight.
    graph: Option<TaskGraph>,
    clock: Arc<AtomicUsize>,
    stamps: Arc<Vec<AtomicUsize>>,
}

impl CompiledDag {
    fn build(deps: &[Vec<usize>]) -> Self {
        let n = deps.len();
        let clock = Arc::new(AtomicUsize::new(0));
        let stamps: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(usize::MAX)).collect());
        let mut g = GraphBuilder::new();
        let mut ids: Vec<NodeId> = Vec::with_capacity(n);
        for (i, ds) in deps.iter().enumerate() {
            let (clock, stamps) = (Arc::clone(&clock), Arc::clone(&stamps));
            let mut dep_ids: Vec<NodeId> = ds.iter().map(|&d| ids[d]).collect();
            // Fan-in goes through a join, so replays re-arm joins too.
            if dep_ids.len() > 1 {
                dep_ids = vec![g.join("dag-join", &dep_ids)];
            }
            ids.push(g.task("dag", obs::SpanKind::Task, &dep_ids, move || {
                let t = clock.fetch_add(1, Ordering::SeqCst);
                let prev = stamps[i].swap(t, Ordering::SeqCst);
                assert_eq!(prev, usize::MAX, "task {i} ran twice in one run");
            }));
        }
        Self {
            graph: Some(g.build()),
            clock,
            stamps,
        }
    }

    /// One replay: the completion stamp of every task in this run. A
    /// replay whose dependency counters were not re-armed never
    /// completes, so it runs on a helper thread and fails after a
    /// deadline instead of hanging the suite.
    fn run(&mut self, rt: &Runtime) -> Vec<usize> {
        self.clock.store(0, Ordering::SeqCst);
        for s in self.stamps.iter() {
            s.store(usize::MAX, Ordering::SeqCst);
        }
        let (mut graph, rt) = (self.graph.take().expect("graph idle"), rt.clone());
        let (tx, rx) = mpsc::channel();
        let replay = std::thread::spawn(move || {
            graph.run(&rt);
            let _ = tx.send(graph);
        });
        // On a deadline miss the helper stays blocked and is leaked.
        let graph = rx.recv_timeout(Duration::from_secs(20)).expect(
            "replay panicked (see above) or never completed (a dependency count not re-armed)",
        );
        replay
            .join()
            .expect("replay thread exits after handing back the graph");
        self.graph = Some(graph);
        self.stamps
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .collect()
    }
}

/// Every task ran exactly once (stamps are a permutation of `0..n`) and
/// after each of its dependencies.
fn check_order(deps: &[Vec<usize>], stamps: &[usize]) -> Result<(), TestCaseError> {
    let mut sorted = stamps.to_vec();
    sorted.sort_unstable();
    prop_assert_eq!(sorted, (0..deps.len()).collect::<Vec<_>>());
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            prop_assert!(
                stamps[d] < stamps[i],
                "task {} (stamp {}) ran before its dependency {} (stamp {})",
                i,
                stamps[i],
                d,
                stamps[d]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_dag_executes_in_dependency_order(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120),
        threads in 1usize..5,
    ) {
        // Normalize the random edges into deps[i] ⊂ 0..i, deduplicated.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            let (lo, hi) = (a.min(b), a.max(b));
            if lo != hi && !deps[hi].contains(&lo) {
                deps[hi].push(lo);
            }
        }
        let rt = Runtime::new(threads);
        check_order(&deps, &run_dag(&rt, &deps))?;
        // Compiled once, replayed three times on the same runtime: every
        // replay re-arms the dependency counters it consumed.
        let mut compiled = CompiledDag::build(&deps);
        for _ in 0..3 {
            check_order(&deps, &compiled.run(&rt))?;
        }
    }

    #[test]
    fn wide_fanout_dags(width in 1usize..80, threads in 1usize..5) {
        // Star: one root, `width` children, one sink.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new()];
        for _ in 0..width {
            deps.push(vec![0]);
        }
        deps.push((1..=width).collect());
        let rt = Runtime::new(threads);
        let stamps = run_dag(&rt, &deps);
        prop_assert_eq!(stamps[0], 0, "root first");
        prop_assert_eq!(stamps[width + 1], width + 1, "sink last");
        let mut compiled = CompiledDag::build(&deps);
        for _ in 0..3 {
            let stamps = compiled.run(&rt);
            prop_assert_eq!(stamps[0], 0, "root first");
            prop_assert_eq!(stamps[width + 1], width + 1, "sink last");
        }
    }
}
