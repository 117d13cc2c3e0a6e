//! Traced, per-layer half of the LULESH benchmark.
//!
//! `perfbench/run.py --trace 1` builds and runs this binary. It links the
//! repository's crates as a library and measures each layer from outside:
//! every call it makes into a layer's public functions is wrapped in one
//! of the benchmark's own spans, and the layers' existing counters
//! (`taskrt` runtime stats, `ompsim` utilization, live telemetry) are read
//! after the calls. Spans are kept in memory and written as one Chrome
//! trace when the run ends.
//!
//! ```text
//! perfbench-trace --workload task-fine --seed 3 --out perfbench/out/trace-task-fine-3
//! perfbench-trace --stamp
//! perfbench-trace --work 4096 3
//! ```
//!
//! Prints one JSON object on stdout: `metrics` (name → value, the names
//! listed under `per_layer` in `BENCHMARK.json`), `checks` (correctness
//! and exact-count self-checks), `counts` and `reconcile` rows.

mod layers;
mod util;

use std::path::PathBuf;
use util::{json_str, Report, Spans};

/// The counting allocator behind `parcelnet.tcp.allocs_per_recv`.
#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Which driver the workload runs end to end (the traced run measures
/// every layer on every workload, sized by the workload's problem).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    Task,
    ForkJoin,
    MultidomTcp,
}

/// One workload as the traced run sees it: the end-to-end problem size
/// and the iteration cap of the in-process driver runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub size: usize,
    pub iters: u64,
}

/// The four workloads of `BENCHMARK.json` (the harness owns their
/// command lines; this table only sizes the in-process measurements).
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "task-coarse",
        driver: Driver::Task,
        size: 64,
        iters: 3,
    },
    Workload {
        name: "task-fine",
        driver: Driver::Task,
        size: 16,
        iters: 120,
    },
    Workload {
        name: "forkjoin-fine",
        driver: Driver::ForkJoin,
        size: 16,
        iters: 120,
    },
    Workload {
        name: "multidom-tcp",
        driver: Driver::MultidomTcp,
        size: 16,
        iters: 120,
    },
];

/// Worker threads (or ranks) of every workload.
pub const THREADS: usize = 2;
/// Material regions (artifact default `--r 11`).
pub const REGIONS: usize = 11;

/// Mean EOS repetition count per element of a domain of `elems`
/// elements under region seed `seed` (artifact defaults `--r 11 --b 1
/// --c 1`): the input property that makes one seed's problem more work
/// than another's.
fn mean_rep(elems: usize, seed: u64) -> f64 {
    let r = lulesh_core::Regions::create(elems, REGIONS, 1, 1, seed);
    let reps: usize = (0..REGIONS)
        .map(|i| r.reg_elem_list[i].len() * r.rep(i))
        .sum();
    reps as f64 / elems as f64
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-trace --workload <{}> --seed <n> --out <dir>\n       perfbench-trace --stamp\n       perfbench-trace --work <elements> <seed>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--stamp") {
        println!("{}", util::stamp_json());
        return;
    }
    if let [flag, elems, seed] = args.as_slice() {
        if flag == "--work" {
            let (Ok(elems), Ok(seed)) = (elems.parse::<usize>(), seed.parse::<u64>()) else {
                usage()
            };
            println!("{{\"mean_rep\":{:e}}}", mean_rep(elems, seed));
            return;
        }
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(workload) =
        flag("--workload").and_then(|n| WORKLOADS.iter().find(|w| w.name == n).copied())
    else {
        usage()
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        usage()
    };
    let Some(out) = flag("--out").map(PathBuf::from) else {
        usage()
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench-trace: refusing to measure a debug build");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench-trace: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }

    let mut spans = Spans::new();
    let mut rep = Report::default();
    let root = spans.open("perfbench.trace", None);
    layers::run_all(workload, seed, &out, &mut spans, &mut rep, root);
    spans.close(root);

    let trace_path = out.join("spans.trace.json");
    if let Err(e) = std::fs::write(&trace_path, spans.chrome_json()) {
        eprintln!("perfbench-trace: cannot write spans: {e}");
        std::process::exit(1);
    }
    println!(
        "{}",
        rep.to_json(&json_str(&trace_path.display().to_string()))
    );
}
