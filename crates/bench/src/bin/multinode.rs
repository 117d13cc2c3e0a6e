//! Multi-node strong-scaling PROJECTION (the paper's future work, §VI):
//! the decomposed solver from `multidom`, projected onto a cluster of
//! 24-core nodes, comparing synchronous (MPI-style) and asynchronous
//! (task-style, overlapped) halo exchange.
//!
//! The projection extrapolates the calibrated single-node model; the
//! interconnect can be overridden (`--latency-ns`, `--bandwidth-gbps`) or
//! **measured** from a real loopback socket pair (`--calibrate`, via
//! `parcelnet::tcp::measure_loopback`). `--measure` additionally runs the
//! decomposed solver for real over TCP loopback, blocking vs overlapped
//! force exchange, and prints the measured comm-vs-compute overlap table —
//! the one cluster-free experiment that exercises actual sockets.

use lulesh_bench::render_table;
use multidom::{Decomposition, Executor, RunSpec, SimArgs, TransportKind};
use simsched::multinode::{strong_scaling, task_compute_1node_ns, weak_scaling, ClusterParams};
use simsched::{CostModel, LuleshConfig, LuleshModel};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cluster = ClusterParams::default();
    let mut source = "default interconnect model";
    let mut measure = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut val = |name: &str| -> f64 {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a number");
                    std::process::exit(2);
                })
        };
        match flag.trim_start_matches('-') {
            "latency-ns" => {
                cluster.latency_ns = val("--latency-ns");
                source = "overridden interconnect";
            }
            "bandwidth-gbps" => {
                cluster.bandwidth_bytes_per_ns = val("--bandwidth-gbps") / 8.0;
                source = "overridden interconnect";
            }
            "calibrate" => {
                let cal = parcelnet::tcp::measure_loopback(200, 200_000, 20)
                    .expect("loopback calibration");
                cluster = ClusterParams::calibrated(cal.latency_ns, cal.bandwidth_bytes_per_ns);
                source = "measured loopback (parcelnet ping-pong + bulk echo)";
            }
            "measure" => measure = true,
            _ => {
                eprintln!(
                    "usage: multinode [--latency-ns NS] [--bandwidth-gbps GBPS] \
                     [--calibrate] [--measure]"
                );
                std::process::exit(2);
            }
        }
    }

    println!("# Multi-node strong-scaling projection (future work; NOT a cluster measurement)");
    println!(
        "interconnect ({source}): {:.1} us latency, {:.1} Gb/s; async overlap {:.0}%",
        cluster.latency_ns / 1000.0,
        cluster.bandwidth_bytes_per_ns * 8.0,
        cluster.async_overlap * 100.0
    );
    println!("size,nodes,sync_iter_ms,async_iter_ms,sync_eff,async_eff");

    for &size in &[90usize, 150] {
        let model = LuleshModel::new(LuleshConfig::with_size(size), CostModel::default());
        let (pn, pe) = lulesh_bench::paper_partition(size);
        let compute = task_compute_1node_ns(&model, pn, pe);
        let rows = strong_scaling(size, compute, &cluster, &[1, 2, 4, 8, 16, 32]);
        for r in &rows {
            println!(
                "{},{},{:.3},{:.3},{:.3},{:.3}",
                size,
                r.nodes,
                r.sync_ns / 1e6,
                r.async_ns / 1e6,
                r.sync_efficiency,
                r.async_efficiency
            );
        }
        println!();
        println!("## size {size} (per-iteration, task port at 24 threads/node)");
        let header = vec!["nodes", "sync (ms)", "async (ms)", "sync eff", "async eff"];
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    format!("{:.2}", r.sync_ns / 1e6),
                    format!("{:.2}", r.async_ns / 1e6),
                    format!("{:.1}%", 100.0 * r.sync_efficiency),
                    format!("{:.1}%", 100.0 * r.async_efficiency),
                ]
            })
            .collect();
        println!("{}", render_table(&header, &body));
    }
    // Weak scaling: one paper-sized problem per node.
    println!("## weak scaling (size 45 per node, per-iteration)");
    let model = LuleshModel::new(LuleshConfig::with_size(45), CostModel::default());
    let compute = task_compute_1node_ns(&model, 2048, 2048);
    let rows = weak_scaling(45, compute, &cluster, &[1, 2, 4, 8, 16, 32]);
    let header = vec!["nodes", "sync (ms)", "async (ms)", "sync eff", "async eff"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.2}", r.sync_ns / 1e6),
                format!("{:.2}", r.async_ns / 1e6),
                format!("{:.1}%", 100.0 * r.sync_efficiency),
                format!("{:.1}%", 100.0 * r.async_efficiency),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &body));

    if measure {
        measured_overlap();
    }

    println!(
        "projection supports the paper's expectation: asynchronous halo exchange \
         retains more\nparallel efficiency at scale than synchronous exchange."
    );
}

/// Run the decomposed solver for real over TCP loopback sockets, blocking
/// vs overlapped force exchange, and print the wall-clock comparison. The
/// two variants are asserted bit-identical first — the overlap changes
/// scheduling, never physics.
fn measured_overlap() {
    println!("## measured comm/compute overlap (TCP loopback, task driver, real sockets)");
    println!("size,ranks,workers,iters,blocking_ms,overlapped_ms,speedup");
    let header = vec![
        "size",
        "ranks",
        "blocking (ms)",
        "overlapped (ms)",
        "speedup",
    ];
    let mut body = Vec::new();
    for &(size, ranks, workers, iters) in &[
        (12usize, 2usize, 2usize, 40u64),
        (24, 2, 2, 40),
        (24, 3, 2, 40),
    ] {
        let run = |overlap: bool| {
            let t0 = Instant::now();
            let results = multidom::run(&RunSpec {
                transport: TransportKind::TcpLoopback,
                deadline: Duration::from_secs(20),
                executor: Executor::Tasks {
                    threads: workers,
                    plan: lulesh_task::PartitionPlan::fixed(2048, 2048),
                    overlap,
                },
                ..RunSpec::new(
                    Decomposition::new(size, ranks),
                    SimArgs::new(11, 1, 1, 0, iters),
                )
            });
            let domains: Vec<_> = results
                .into_iter()
                .map(|r| r.expect("measurement run must succeed").0)
                .collect();
            (t0.elapsed(), domains)
        };
        let (t_block, d_block) = run(false);
        let (t_over, d_over) = run(true);
        for (a, b) in d_block.iter().zip(&d_over) {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "overlap changed the physics"
            );
        }
        let (bms, oms) = (t_block.as_secs_f64() * 1e3, t_over.as_secs_f64() * 1e3);
        println!(
            "{size},{ranks},{workers},{iters},{bms:.1},{oms:.1},{:.2}",
            bms / oms
        );
        body.push(vec![
            size.to_string(),
            ranks.to_string(),
            format!("{bms:.1}"),
            format!("{oms:.1}"),
            format!("{:.2}x", bms / oms),
        ]);
    }
    println!("{}", render_table(&header, &body));
    println!(
        "(blocking = force halo on the critical path; overlapped = receive+combine \
         runs as a\ncontinuation while interior force tasks proceed; results verified \
         bit-identical.)"
    );
}
