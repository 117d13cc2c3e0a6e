//! One measurement function per layer. Each wraps its calls into the
//! layer in the benchmark's spans and writes the metrics named under
//! `per_layer` in `BENCHMARK.json`.

use crate::util::{median, process_cpu_ns, thread_allocs, thread_cpu_ns, Report, Spans};
use crate::{Driver, Workload, REGIONS, THREADS};
use lulesh_core::kernels::{constraints, eos, hourglass, kinematics, monoq, stress};
use lulesh_core::serial::{self, SerialScratch};
use lulesh_core::simd::{self, LaneWidth};
use lulesh_core::timestep::time_increment;
use lulesh_core::validate::final_origin_energy;
use lulesh_core::{Domain, Real, SimState};
use lulesh_omp::OmpLulesh;
use lulesh_task::{IterationHooks, PartitionPlan, TaskLulesh};
use multidom::exchange::{dir_face, HaloPlan};
use multidom::{threaded, Decomposition, FaultPlan, LivePlan, ResilPlan, SimArgs, TransportKind};
use obs::live::{AtomicHist, LiveConfig, LiveSink, LiveStats};
use parcelnet::{dir, Tag, Transport};
use parutil::Chunk;
use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Alternating untraced/traced pairs of the workload's own driver, from
/// which `bench.trace_overhead_frac` is the ratio of medians.
const PAIRS: usize = 5;
/// Repetitions of each micro-measurement (the metric is their median).
const REPS: usize = 3;

/// The serial reference the parallel drivers are checked against.
struct SerialRef {
    energy: Real,
    cycle: u64,
    cpu_ns_per_iter: f64,
}

/// Halo costs of rank 0's sub-brick, per step, µs.
struct HaloCost {
    pack_forces: f64,
    combine_forces: f64,
    pack_gradients: f64,
    store_gradients: f64,
    force_links: usize,
    face_links: usize,
    force_len: usize,
    gradient_len: usize,
}

/// Parcel costs, µs.
struct NetCost {
    pingpong_force: f64,
    pingpong_gradient: f64,
    allreduce: f64,
}

fn build(w: Workload, seed: u64) -> Domain {
    Domain::build(w.size, REGIONS, 1, 1, seed)
}

fn ratio_overhead(rep: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    rep.metric("bench.trace_overhead_frac", t / u - 1.0);
    rep.reconcile(
        "bench.trace_overhead_frac",
        t / u - 1.0,
        &[("traced_cpu_s", t), ("untraced_cpu_s", u)],
    );
}

/// Run every layer's measurements for workload `w`.
pub fn run_all(
    w: Workload,
    seed: u64,
    out: &Path,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) {
    let tmp = out.join("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create the traced run's temp directory");

    let serial = core_layer(w, seed, spans, rep, root);
    kernels_layer(w, seed, spans, rep, root);
    taskrt_micro(spans, rep, root);
    task_driver(w, seed, &serial, spans, rep, root);
    ompsim_micro(w, spans, rep, root);
    omp_driver(w, seed, &serial, spans, rep, root);
    let halo = multidom_halo(w, seed, spans, rep, root);
    let net = parcelnet_layer(&halo, spans, rep, root);
    let ckpt_us = resil_layer(w, seed, &tmp, spans, rep, root);
    obs_layer(spans, rep, root);
    multidom_driver(
        w, seed, &serial, &halo, &net, ckpt_us, &tmp, spans, rep, root,
    );
    rep.settle_counts();

    let _ = std::fs::remove_dir_all(&tmp);
}

// ---------------------------------------------------------------------------
// core: the serial driver, its phases and its kernels
// ---------------------------------------------------------------------------

fn core_layer(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) -> SerialRef {
    let id = spans.open("core", Some(root));
    let ne = (w.size * w.size * w.size) as f64;

    // The plain single-thread baseline.
    let d = build(w, seed);
    let ((state, cpu), _) = spans.time("core.serial::run", id, || {
        let c0 = thread_cpu_ns();
        let st = serial::run(&d, w.iters).expect("serial run");
        (st, thread_cpu_ns() - c0)
    });
    let serial = SerialRef {
        energy: final_origin_energy(&d),
        cycle: state.cycle,
        cpu_ns_per_iter: cpu as f64 / state.cycle as f64,
    };
    rep.check(
        "core.serial_cycles",
        state.cycle == w.iters,
        format!("{} of {} iterations", state.cycle, w.iters),
    );
    rep.metric(
        "core.serial_zps",
        ne * state.cycle as f64 / (cpu as f64 * 1e-9),
    );

    // The same loop phase by phase, one span per public phase call.
    let d = build(w, seed);
    let mut s = SerialScratch::new(d.num_elem());
    let mut st = SimState::new(d.initial_dt());
    let mut cpu_acc = [0u64; 5];
    const PHASES: [&str; 5] = [
        "core.phase.force",
        "core.phase.advance_nodes",
        "core.phase.kinematics",
        "core.phase.q_eos",
        "core.phase.constraints",
    ];
    let loop_id = spans.open("core.phase_loop", Some(id));
    while st.time < d.params.stoptime && st.cycle < w.iters {
        time_increment(&mut st, &d.params);
        let dt = st.deltatime;
        let mut phase = |k: usize, spans: &mut Spans, f: &mut dyn FnMut()| {
            let (t0, c0) = (spans.now(), thread_cpu_ns());
            f();
            cpu_acc[k] += thread_cpu_ns() - c0;
            let t1 = spans.now();
            spans.record(PHASES[k], Some(loop_id), t0, t1);
        };
        phase(0, spans, &mut || {
            serial::calc_force_for_nodes(&d, &mut s).expect("force phase")
        });
        phase(1, spans, &mut || serial::advance_nodes(&d, dt));
        phase(2, spans, &mut || {
            serial::calc_kinematics_and_gradients(&d, dt).expect("kinematics phase")
        });
        phase(3, spans, &mut || {
            serial::apply_q_and_materials(&d, &mut s).expect("q/EOS phase")
        });
        phase(4, spans, &mut || {
            let (c, h) = constraints::calc_time_constraints(&d, d.params.qqc, d.params.dvovmax);
            st.dtcourant = c;
            st.dthydro = h;
        });
    }
    spans.close(loop_id);
    let iters = st.cycle as f64;
    let nn = d.num_node() as f64;
    for (k, name) in PHASES.iter().enumerate() {
        let per = if k == 1 { nn } else { ne };
        let unit = if k == 1 { "ns_per_node" } else { "ns_per_elem" };
        rep.metric(&format!("{name}.{unit}"), cpu_acc[k] as f64 / (iters * per));
    }
    rep.check(
        "core.phase_loop_matches_serial",
        final_origin_energy(&d).to_bits() == serial.energy.to_bits() && st.cycle == serial.cycle,
        format!(
            "phase loop {:e} after {} vs serial::run {:e} after {}",
            final_origin_energy(&d),
            st.cycle,
            serial.energy,
            serial.cycle
        ),
    );
    spans.close(id);
    serial
}

/// Bytes one pass of kernel `name` touches, from the sizes of the arrays
/// it reads and writes (8-byte reals and indices, 4-byte BC flags). Cache
/// misses are not modelled: the derived rate is labelled "computed".
fn kernel_bytes(name: &str, ne: f64, nn: f64) -> f64 {
    match name {
        // nodelist, x/y/z, sig*, determ, 3×8 corner forces.
        "integrate_stress" => ne * (64.0 + 24.0 + 8.0 + 192.0) + nn * 24.0,
        // nodelist, x/y/z, volo, v, dvd*, *8n, determ.
        "hourglass_control" => ne * (64.0 + 16.0 + 192.0 + 192.0 + 8.0) + nn * 24.0,
        // determ, *8n, dvd*, nodelist, xd/yd/zd, ss, mass, 3×8 hg forces.
        "hourglass_fb" => ne * (8.0 + 192.0 + 192.0 + 64.0 + 8.0 + 8.0 + 192.0) + nn * 24.0,
        // nodelist, volo, vnew, delv_*/delx_*, x/y/z + xd/yd/zd.
        "monoq_gradients" => ne * (64.0 + 16.0 + 48.0) + nn * 48.0,
        // region list, 6 neighbour indices, BC, delv_*/delx_*, vdov,
        // volo, vnew, mass, ql/qq.
        "monoq_region" => ne * (8.0 + 48.0 + 4.0 + 48.0 + 8.0 + 16.0 + 8.0 + 16.0),
        // region list, 7 state reads (e, delv, p, q, qq, ql, vnewc),
        // 4 writes (p, e, q, ss).
        "eos" => ne * (8.0 + 56.0 + 32.0),
        // nodelist, x/y/z + xd/yd/zd, volo, v, vnew/delv/arealg/d**.
        "kinematics" => ne * (64.0 + 16.0 + 48.0) + nn * 48.0,
        // corner forces, corner list, node start/count, f*.
        "gather_forces" => ne * (192.0 + 64.0) + nn * (16.0 + 24.0),
        _ => unreachable!("unknown kernel {name}"),
    }
}

const LANE_KERNELS: [&str; 4] = ["integrate_stress", "hourglass_fb", "monoq_gradients", "eos"];

fn kernels_layer(w: Workload, seed: u64, spans: &mut Spans, rep: &mut Report, root: usize) {
    let id = spans.open("core.kernels", Some(root));
    simd::set_active(LaneWidth::W1);
    // A mid-run state (realistic branches) from the serial driver.
    let d = build(w, seed);
    serial::run(&d, w.iters.min(10)).expect("warm-state run");
    let ne = d.num_elem();
    let nn = d.num_node();
    let elems = Chunk { begin: 0, end: ne };
    let nodes = Chunk { begin: 0, end: nn };
    let p = d.params;
    let dt = 1.0e-7;

    let mut sigxx = vec![0.0; ne];
    let mut sigyy = vec![0.0; ne];
    let mut sigzz = vec![0.0; ne];
    stress::init_stress_terms_for_elems(&d, &mut sigxx, &mut sigyy, &mut sigzz, elems);
    let mut determ = vec![0.0; ne];
    let mut fx = vec![0.0; 8 * ne];
    let mut fy = vec![0.0; 8 * ne];
    let mut fz = vec![0.0; 8 * ne];
    stress::integrate_stress_for_elems(
        &d,
        &sigxx,
        &sigyy,
        &sigzz,
        &mut determ,
        &mut fx,
        &mut fy,
        &mut fz,
        elems,
    );
    let mut dvdx = vec![0.0; 8 * ne];
    let mut dvdy = vec![0.0; 8 * ne];
    let mut dvdz = vec![0.0; 8 * ne];
    let mut x8n = vec![0.0; 8 * ne];
    let mut y8n = vec![0.0; 8 * ne];
    let mut z8n = vec![0.0; 8 * ne];
    let mut h_determ = vec![0.0; ne];
    hourglass::calc_hourglass_control_for_elems(
        &d,
        &mut dvdx,
        &mut dvdy,
        &mut dvdz,
        &mut x8n,
        &mut y8n,
        &mut z8n,
        &mut h_determ,
        elems,
    )
    .expect("hourglass control on a healthy domain");
    let mut hfx = vec![0.0; 8 * ne];
    let mut hfy = vec![0.0; 8 * ne];
    let mut hfz = vec![0.0; 8 * ne];
    let mut c_determ = vec![0.0; ne];
    let mut cdvdx = vec![0.0; 8 * ne];
    let mut cdvdy = vec![0.0; 8 * ne];
    let mut cdvdz = vec![0.0; 8 * ne];
    let mut cx8n = vec![0.0; 8 * ne];
    let mut cy8n = vec![0.0; 8 * ne];
    let mut cz8n = vec![0.0; 8 * ne];
    let (gfx, gfy, gfz) = (fx.clone(), fy.clone(), fz.clone());
    let mut vnewc = vec![0.0; ne];
    eos::fill_vnewc_clamped(&d, &mut vnewc, p.eosvmin, p.eosvmax, elems);
    let mut es = eos::EosScratch::new(ne);

    type Body<'a> = Box<dyn FnMut() + 'a>;
    let d = &d;
    let mut kernels: Vec<(&str, Body)> = vec![
        (
            "integrate_stress",
            Box::new(|| {
                stress::integrate_stress_for_elems(
                    d,
                    &sigxx,
                    &sigyy,
                    &sigzz,
                    &mut determ,
                    &mut fx,
                    &mut fy,
                    &mut fz,
                    elems,
                )
            }),
        ),
        (
            "hourglass_control",
            Box::new(|| {
                hourglass::calc_hourglass_control_for_elems(
                    d,
                    &mut cdvdx,
                    &mut cdvdy,
                    &mut cdvdz,
                    &mut cx8n,
                    &mut cy8n,
                    &mut cz8n,
                    &mut c_determ,
                    elems,
                )
                .expect("hourglass control")
            }),
        ),
        (
            "hourglass_fb",
            Box::new(|| {
                hourglass::calc_fb_hourglass_force_for_elems(
                    d, &h_determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, p.hgcoef, &mut hfx,
                    &mut hfy, &mut hfz, elems,
                )
            }),
        ),
        (
            "monoq_gradients",
            Box::new(|| monoq::calc_monotonic_q_gradients_for_elems(d, elems)),
        ),
        (
            "monoq_region",
            Box::new(|| {
                for r in 0..d.num_reg() {
                    monoq::calc_monotonic_q_region_for_elems(d, &d.regions.reg_elem_list[r], &p);
                }
            }),
        ),
        (
            "eos",
            Box::new(|| {
                for r in 0..d.num_reg() {
                    let rep = d.regions.rep(r);
                    eos::eval_eos_for_elems(
                        d,
                        &vnewc,
                        &d.regions.reg_elem_list[r],
                        rep,
                        &p,
                        &mut es,
                    );
                }
            }),
        ),
        (
            "kinematics",
            Box::new(|| kinematics::calc_kinematics_for_elems(d, dt, elems)),
        ),
        (
            "gather_forces",
            Box::new(|| stress::gather_forces_set(d, &gfx, &gfy, &gfz, nodes)),
        ),
    ];

    // About 40 ms of work per timed sample at any problem size.
    let passes = (400_000 / ne).max(1);
    for (name, body) in kernels.iter_mut() {
        let widths: &[LaneWidth] = if LANE_KERNELS.contains(name) {
            &LaneWidth::ALL
        } else {
            &[LaneWidth::W1]
        };
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); widths.len()];
        let kid = spans.open(&format!("core.{name}"), Some(id));
        for r in 0..REPS {
            for (wi, &wd) in widths.iter().enumerate() {
                simd::set_active(wd);
                if r == 0 {
                    body(); // warm the code path and the caches
                }
                let c0 = thread_cpu_ns();
                for _ in 0..passes {
                    body();
                }
                samples[wi].push((thread_cpu_ns() - c0) as f64 / passes as f64);
            }
        }
        spans.close(kid);
        simd::set_active(LaneWidth::W1);
        let scalar_ns = median(&samples[0]);
        rep.metric(&format!("core.{name}.ns_per_elem"), scalar_ns / ne as f64);
        rep.metric(
            &format!("core.{name}.gbps_computed"),
            kernel_bytes(name, ne as f64, nn as f64) / scalar_ns,
        );
        for (wi, wd) in widths.iter().enumerate().skip(1) {
            rep.metric(
                &format!("core.{name}.w{}_speedup", wd.lanes()),
                scalar_ns / median(&samples[wi]),
            );
        }
    }
    spans.close(id);
}

// ---------------------------------------------------------------------------
// taskrt and the many-task driver
// ---------------------------------------------------------------------------

/// Median over [`REPS`] of the mean wall ns per operation of `n` calls.
fn per_op_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n / 10 {
        f(i);
    }
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for i in 0..n {
            f(i);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&samples)
}

fn taskrt_micro(spans: &mut Spans, rep: &mut Report, root: usize) {
    let id = spans.open("taskrt.micro", Some(root));
    let rt = taskrt::Runtime::new(THREADS);
    let (v, _) = spans.time("taskrt.spawn_get", id, || {
        per_op_ns(20_000, |i| {
            black_box(rt.spawn(move || i).get());
        })
    });
    rep.metric("taskrt.spawn_get_ns", v);
    const CHAIN: usize = 1_000;
    let (v, _) = spans.time("taskrt.then", id, || {
        per_op_ns(20, |_| {
            let mut f = rt.spawn(|| 0usize);
            for _ in 0..CHAIN {
                f = f.then(&rt, |x| x + 1);
            }
            assert_eq!(f.get(), CHAIN);
        }) / CHAIN as f64
    });
    rep.metric("taskrt.then_ns", v);
    let (v, _) = spans.time("taskrt.when_all_64", id, || {
        per_op_ns(2_000, |_| {
            let fs: Vec<_> = (0..64usize).map(|i| rt.spawn(move || i)).collect();
            black_box(taskrt::when_all(&rt, fs).get());
        })
    });
    rep.metric("taskrt.when_all_64_ns", v);
    spans.close(id);
}

fn task_driver(
    w: Workload,
    seed: u64,
    serial: &SerialRef,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) {
    let id = spans.open("lulesh-task", Some(root));
    let plan = PartitionPlan::for_size_threads(w.size, THREADS);
    let runner = TaskLulesh::new(THREADS);
    let (mut cpu_plain, mut cpu_traced) = (Vec::new(), Vec::new());
    let (mut steals, mut busy_frac, mut overhead, mut mean_task, mut busy_ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        for k in 0..2 {
            let traced = (pair + k) % 2 == 1;
            let d = Arc::new(build(w, seed));
            runner.reset_counters();
            let rid = spans.open(
                if traced {
                    "lulesh-task.run_with_hooks"
                } else {
                    "lulesh-task.run"
                },
                Some(id),
            );
            let base = spans.now();
            let c0 = process_cpu_ns();
            let state = if traced {
                // One benchmark span per iteration, closed by the dt
                // reduction the driver calls at every iteration's end,
                // plus a runtime counter read at the same boundary.
                let marks: RefCell<Vec<(u64, taskrt::RuntimeStats)>> = RefCell::new(Vec::new());
                let st = runner.run_with_hooks(
                    &d,
                    plan,
                    w.iters,
                    &IterationHooks::default(),
                    |c, h, e| {
                        let stats = runner.runtime_stats();
                        marks.borrow_mut().push((spans.now(), stats));
                        match e {
                            Some(e) => Err(e),
                            None => Ok((c, h)),
                        }
                    },
                );
                let mut prev = base;
                for (t, stats) in marks.into_inner() {
                    spans.record("lulesh-task.iteration", Some(rid), prev, t);
                    black_box(stats);
                    prev = t;
                }
                st
            } else {
                runner.run(&d, plan, w.iters)
            };
            let cpu = process_cpu_ns() - c0;
            spans.close(rid);
            let stats = runner.runtime_stats();
            let state = state.expect("task run");
            rep.check(
                "lulesh-task.matches_serial",
                state.cycle == serial.cycle
                    && final_origin_energy(&d).to_bits() == serial.energy.to_bits(),
                format!(
                    "{:e} after {} vs serial {:e} after {}",
                    final_origin_energy(&d),
                    state.cycle,
                    serial.energy,
                    serial.cycle
                ),
            );
            let iters = state.cycle as f64;
            let tasks = stats.tasks as f64;
            rep.count("taskrt.tasks_per_iter", tasks / iters);
            rep.count(
                "lulesh-task.sync_points_per_iter",
                runner.graph_stats().barriers as f64,
            );
            steals.push(stats.steals as f64 / iters);
            busy_frac.push(stats.utilization());
            overhead.push((cpu as f64 - stats.busy_ns as f64) / tasks);
            mean_task.push(stats.busy_ns as f64 / tasks / 1e3);
            busy_ratio.push(stats.busy_ns as f64 / iters / serial.cpu_ns_per_iter);
            if traced {
                cpu_traced.push(cpu as f64 * 1e-9);
            } else {
                cpu_plain.push(cpu as f64 * 1e-9);
            }
        }
    }
    rep.metric("taskrt.steals_per_iter", median(&steals));
    rep.metric("taskrt.busy_frac", median(&busy_frac));
    rep.metric("taskrt.overhead_ns_per_task", median(&overhead));
    rep.metric("lulesh-task.mean_task_us", median(&mean_task));
    let ratio = median(&busy_ratio);
    rep.metric("lulesh-task.busy_over_serial", ratio);
    rep.reconcile(
        "lulesh-task.busy_over_serial",
        ratio,
        &[
            ("task_busy_ns_per_iter", ratio * serial.cpu_ns_per_iter),
            ("serial_cpu_ns_per_iter", serial.cpu_ns_per_iter),
        ],
    );
    if w.driver == Driver::Task {
        ratio_overhead(rep, &cpu_plain, &cpu_traced);
    }
    spans.close(id);
}

// ---------------------------------------------------------------------------
// ompsim and the fork-join driver
// ---------------------------------------------------------------------------

fn ompsim_micro(w: Workload, spans: &mut Spans, rep: &mut Report, root: usize) {
    let id = spans.open("ompsim.micro", Some(root));
    let mut pool = ompsim::Pool::new(THREADS);
    let (v, _) = spans.time("ompsim.parallel_region", id, || {
        per_op_ns(20_000, |_| {
            pool.parallel_region(|tid, n| {
                black_box((tid, n));
            })
        })
    });
    rep.metric("ompsim.region_ns", v);
    let ne = w.size * w.size * w.size;
    let (v, _) = spans.time("ompsim.parallel_for", id, || {
        per_op_ns(20_000, |_| {
            pool.parallel_for(ne, |c| {
                black_box(c);
            })
        })
    });
    rep.metric("ompsim.parallel_for_ns", v);
    spans.close(id);
}

fn omp_driver(
    w: Workload,
    seed: u64,
    serial: &SerialRef,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) {
    let id = spans.open("lulesh-omp", Some(root));
    let mut runner = OmpLulesh::new(THREADS);
    let (mut cpu_plain, mut cpu_traced, mut busy_frac, mut busy_ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // The fork-join driver exposes no per-iteration boundary, so the
    // traced half of a pair is one span around `run` plus a read of the
    // pool's busy counters.
    let pairs = if w.driver == Driver::ForkJoin {
        PAIRS
    } else {
        1
    };
    for pair in 0..pairs {
        for k in 0..2 {
            let traced = (pair + k) % 2 == 1;
            let d = build(w, seed);
            runner.reset_counters();
            let rid = traced.then(|| spans.open("lulesh-omp.run", Some(id)));
            let (c0, t0) = (process_cpu_ns(), Instant::now());
            let state = runner.run(&d, w.iters).expect("fork-join run");
            let (cpu, wall) = (process_cpu_ns() - c0, t0.elapsed().as_nanos() as f64);
            if let Some(rid) = rid {
                spans.close(rid);
            }
            let util = runner.utilization();
            rep.check(
                "lulesh-omp.matches_serial",
                state.cycle == serial.cycle
                    && final_origin_energy(&d).to_bits() == serial.energy.to_bits(),
                format!("{:e} after {}", final_origin_energy(&d), state.cycle),
            );
            busy_frac.push(util);
            let busy_ns = util * THREADS as f64 * wall;
            busy_ratio.push(busy_ns / state.cycle as f64 / serial.cpu_ns_per_iter);
            if traced {
                cpu_traced.push(cpu as f64 * 1e-9);
            } else {
                cpu_plain.push(cpu as f64 * 1e-9);
            }
        }
    }
    rep.metric("lulesh-omp.busy_frac", median(&busy_frac));
    let ratio = median(&busy_ratio);
    rep.metric("lulesh-omp.busy_over_serial", ratio);
    rep.reconcile(
        "lulesh-omp.busy_over_serial",
        ratio,
        &[
            ("omp_busy_ns_per_iter", ratio * serial.cpu_ns_per_iter),
            ("serial_cpu_ns_per_iter", serial.cpu_ns_per_iter),
        ],
    );
    if w.driver == Driver::ForkJoin {
        ratio_overhead(rep, &cpu_plain, &cpu_traced);
    }
    spans.close(id);
}

// ---------------------------------------------------------------------------
// multidom halo, parcelnet, resil, obs
// ---------------------------------------------------------------------------

/// Median over [`REPS`] of thread-CPU µs per call of `f`, `n` calls each.
fn per_call_us(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let c0 = thread_cpu_ns();
        for _ in 0..n {
            f();
        }
        samples.push((thread_cpu_ns() - c0) as f64 / n as f64 / 1e3);
    }
    median(&samples)
}

fn multidom_halo(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) -> HaloCost {
    let id = spans.open("multidom.halo", Some(root));
    let decomp = Decomposition::new(w.size, THREADS);
    let domains: Vec<Domain> = (0..decomp.ranks())
        .map(|r| Domain::build_subdomain(decomp.shape(r), REGIONS, 1, 1, seed))
        .collect();
    let plans: Vec<HaloPlan> = (0..decomp.ranks())
        .map(|r| HaloPlan::new(decomp.shape(r), r, &decomp.neighbors(r)))
        .collect();

    // Messages and payload bytes one step exchanges, over every rank:
    // one force surface per link, one gradient plane per face link.
    for _ in 0..2 {
        let (mut msgs, mut bytes) = (0usize, 0usize);
        for (d, plan) in domains.iter().zip(&plans) {
            for (l, link) in plan.links().iter().enumerate() {
                msgs += 1;
                bytes += 8 * plan.pack_forces(d, l).len();
                if dir_face(link.dir).is_some() {
                    msgs += 1;
                    bytes += 8 * plan.pack_gradients(d, l).len();
                }
            }
        }
        rep.count("multidom.msgs_per_step", msgs as f64);
        rep.count("multidom.halo_bytes_per_step", bytes as f64);
    }

    let (d, plan) = (&domains[0], &plans[0]);
    let links = plan.links().len();
    let faces: Vec<usize> = (0..links)
        .filter(|&l| dir_face(plan.links()[l].dir).is_some())
        .collect();
    let forces: Vec<Vec<Real>> = (0..links).map(|l| plan.pack_forces(d, l)).collect();
    let grads: Vec<Vec<Real>> = faces.iter().map(|&l| plan.pack_gradients(d, l)).collect();
    let n = (2_000_000 / (forces[0].len() + 1)).clamp(20, 2_000);
    let t = |name: &str, spans: &mut Spans, f: &mut dyn FnMut()| {
        spans.time(name, id, || per_call_us(n, f)).0
    };
    let cost = HaloCost {
        pack_forces: t("multidom.pack_forces", spans, &mut || {
            for l in 0..links {
                black_box(plan.pack_forces(d, l));
            }
        }),
        combine_forces: t("multidom.combine_forces", spans, &mut || {
            plan.combine_forces(d, &forces)
        }),
        pack_gradients: t("multidom.pack_gradients", spans, &mut || {
            for &l in &faces {
                black_box(plan.pack_gradients(d, l));
            }
        }),
        store_gradients: t("multidom.store_gradients", spans, &mut || {
            for (i, &l) in faces.iter().enumerate() {
                plan.store_gradients(d, l, &grads[i]);
            }
        }),
        force_links: links,
        face_links: faces.len(),
        force_len: forces[0].len(),
        gradient_len: grads.first().map_or(0, Vec::len),
    };
    rep.metric("multidom.pack_forces_us", cost.pack_forces);
    rep.metric("multidom.combine_forces_us", cost.combine_forces);
    rep.metric("multidom.pack_gradients_us", cost.pack_gradients);
    rep.metric("multidom.store_gradients_us", cost.store_gradients);
    spans.close(id);
    cost
}

/// Round trips of `payload` from `a` through an echoing `b`: median wall
/// µs per round trip, and (allocations, bytes) per `recv` on this thread.
fn pingpong(
    a: &dyn Transport,
    b: Box<dyn Transport>,
    payload: &[Real],
    rounds: usize,
) -> (f64, f64, f64) {
    let tag = Tag::force(dir::UP);
    let warm = rounds / 10;
    let echo = std::thread::spawn(move || {
        for _ in 0..warm + rounds {
            let p = b.recv(tag).expect("echo recv");
            b.send(tag, &p).expect("echo send");
        }
        b.close().expect("echo close");
    });
    let (mut rtt, mut allocs, mut bytes) = (Vec::with_capacity(rounds), 0u64, 0u64);
    for i in 0..warm + rounds {
        let t0 = Instant::now();
        a.send(tag, payload).expect("ping send");
        let (n0, b0) = thread_allocs();
        let back = a.recv(tag).expect("ping recv");
        let (n1, b1) = thread_allocs();
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        assert_eq!(back.len(), payload.len());
        drop(back);
        if i >= warm {
            rtt.push(us);
            allocs += n1 - n0;
            bytes += b1 - b0;
        }
    }
    a.close().expect("ping close");
    echo.join().expect("echo thread");
    (
        median(&rtt),
        allocs as f64 / rounds as f64,
        bytes as f64 / rounds as f64,
    )
}

fn parcelnet_layer(halo: &HaloCost, spans: &mut Spans, rep: &mut Report, root: usize) -> NetCost {
    use parcelnet::tcp::{self, TcpConfig};
    let id = spans.open("parcelnet", Some(root));
    let cfg = TcpConfig::default();
    let force = vec![0.25; halo.force_len];
    let gradient = vec![0.5; halo.gradient_len.max(1)];
    // About 20 MB each way per ping-pong series.
    let rounds = (2_500_000 / halo.force_len.max(1)).clamp(100, 1_000);

    let tcp_pp = |name: &str, payload: &[Real], spans: &mut Spans| {
        let (a, b) = tcp::loopback_pair(&cfg).expect("loopback pair");
        spans
            .time(name, id, || pingpong(&a, Box::new(b), payload, rounds))
            .0
    };
    let (pp_force, allocs, alloc_bytes) = tcp_pp("parcelnet.tcp.pingpong_force", &force, spans);
    let (_, allocs2, _) = tcp_pp("parcelnet.tcp.pingpong_force_recount", &force, spans);
    let (pp_grad, _, _) = tcp_pp("parcelnet.tcp.pingpong_gradient", &gradient, spans);
    rep.count("parcelnet.tcp.allocs_per_recv", allocs);
    rep.count("parcelnet.tcp.allocs_per_recv", allocs2);
    rep.metric("parcelnet.tcp.alloc_bytes_per_recv", alloc_bytes);
    rep.metric("parcelnet.tcp.pingpong_force_us", pp_force);
    rep.metric("parcelnet.tcp.pingpong_gradient_us", pp_grad);

    let (a, b) = parcelnet::channel::ChannelTransport::pair(0, 1, Duration::from_secs(10));
    let (pp_chan, _, _) = spans
        .time("parcelnet.channel.pingpong_force", id, || {
            pingpong(&a, Box::new(b), &force, rounds)
        })
        .0;
    rep.metric("parcelnet.channel.pingpong_force_us", pp_chan);

    // dt allreduce over a two-rank TCP star, timed on the root.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address").to_string();
    let warm = rounds / 10;
    let leaf = std::thread::spawn(move || {
        let net = tcp::join(&addr, 1, 2, &[], &cfg).expect("join");
        for _ in 0..warm + rounds {
            net.allreduce_dt(2.0, 3.0, None).expect("leaf allreduce");
        }
        net.close().expect("leaf close");
    });
    let net = tcp::root(listener, 2, &[], &cfg).expect("root");
    let (allreduce, _) = spans.time("parcelnet.allreduce_dt", id, || {
        let mut samples = Vec::with_capacity(rounds);
        for i in 0..warm + rounds {
            let t0 = Instant::now();
            let (c, h, e) = net.allreduce_dt(1.0, 4.0, None).expect("root allreduce");
            assert_eq!((c, h, e), (1.0, 3.0, None));
            if i >= warm {
                samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        median(&samples)
    });
    net.close().expect("root close");
    leaf.join().expect("leaf thread");
    rep.metric("parcelnet.allreduce_dt_us", allreduce);
    spans.close(id);
    NetCost {
        pingpong_force: pp_force,
        pingpong_gradient: pp_grad,
        allreduce,
    }
}

fn resil_layer(
    w: Workload,
    seed: u64,
    tmp: &Path,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) -> f64 {
    let id = spans.open("resil", Some(root));
    let decomp = Decomposition::new(w.size, THREADS);
    let d = Domain::build_subdomain(decomp.shape(0), REGIONS, 1, 1, seed);
    let state = SimState::new(d.initial_dt());
    let n = (4_000_000 / d.num_elem()).clamp(3, 50);
    let (capture, _) = spans.time("resil.capture", id, || {
        per_call_us(n, || {
            black_box(resil::DomainSnapshot::capture(0, &d, &state));
        })
    });
    let snap = resil::DomainSnapshot::capture(0, &d, &state);
    let mut buf = Vec::new();
    let (encode, _) = spans.time("resil.encode", id, || {
        per_call_us(n, || snap.write_bytes_into(&mut buf))
    });
    rep.count("resil.snapshot_bytes", buf.len() as f64);
    rep.count("resil.snapshot_bytes", snap.to_bytes().len() as f64);
    let dir = tmp.join("resil");
    std::fs::create_dir_all(&dir).expect("snapshot directory");
    let mut writes = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let ((), ns) = spans.time("resil.write_snapshot", id, || {
            resil::write_snapshot(&dir, &snap, i * 10).expect("write snapshot")
        });
        writes.push(ns as f64 / 1e6);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let write_ms = median(&writes);
    rep.metric("resil.capture_us", capture);
    rep.metric("resil.encode_us", encode);
    rep.metric("resil.write_ms", write_ms);
    spans.close(id);
    // One checkpoint of rank 0's sub-brick, µs.
    capture + encode + write_ms * 1e3
}

fn obs_layer(spans: &mut Spans, rep: &mut Report, root: usize) {
    let id = spans.open("obs.live", Some(root));
    let hist = AtomicHist::new();
    let (v, _) = spans.time("obs.AtomicHist::record", id, || {
        per_op_ns(1_000_000, |i| hist.record(black_box(i as u64 & 0xffff)))
    });
    rep.metric("obs.live_hist_record_ns", v);
    let stats = LiveStats::new();
    let class = Tag::force(dir::UP).class();
    let (v, _) = spans.time("obs.LiveStats::on_send", id, || {
        per_op_ns(1_000_000, |i| {
            stats.on_send(class, black_box(i as u64 & 0xfff))
        })
    });
    rep.metric("obs.live_on_send_ns", v);
    spans.close(id);
}

// ---------------------------------------------------------------------------
// The multi-domain driver over loopback TCP, and the step-time model
// ---------------------------------------------------------------------------

/// Live JSONL sink. With `record` set it keeps each step's emit time (the
/// benchmark's per-step span boundary) and the slowest rank's step time.
struct StepSink {
    t0: Instant,
    record: bool,
    steps: Mutex<Vec<(u64, f64)>>,
}

impl LiveSink for StepSink {
    fn emit(&self, line: &str) {
        if !self.record {
            return;
        }
        let max_step = line
            .split("\"max_step_ns\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(f64::NAN);
        let t = self.t0.elapsed().as_nanos() as u64;
        self.steps.lock().expect("sink lock").push((t, max_step));
    }
}

#[allow(clippy::too_many_arguments)]
fn multidom_driver(
    w: Workload,
    seed: u64,
    serial: &SerialRef,
    halo: &HaloCost,
    net: &NetCost,
    ckpt_us: f64,
    tmp: &Path,
    spans: &mut Spans,
    rep: &mut Report,
    root: usize,
) {
    let id = spans.open("multidom.tcp", Some(root));
    let decomp = Decomposition::new(w.size, THREADS);

    // Serial cost of one rank's sub-brick per step (no exchange).
    let sub = Domain::build_subdomain(decomp.shape(0), REGIONS, 1, 1, seed);
    let ((sub_ns, sub_cycles), _) = spans.time("multidom.serial_sub_brick", id, || {
        let c0 = thread_cpu_ns();
        // Without its neighbour the sub-brick's physics are not the
        // global problem's; only the cost is used.
        let st = serial::run(&sub, w.iters.min(40));
        (thread_cpu_ns() - c0, st.map_or(1, |s| s.cycle.max(1)))
    });
    let sub_us = sub_ns as f64 / sub_cycles as f64 / 1e3;

    let pairs = if w.driver == Driver::MultidomTcp {
        PAIRS
    } else {
        1
    };
    let (mut cpu_plain, mut cpu_traced, mut step_us) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        for k in 0..2 {
            let traced = (pair + k) % 2 == 1;
            let ckdir = tmp.join(format!("ckpt-{pair}-{k}"));
            let sink = Arc::new(StepSink {
                t0: Instant::now(),
                record: traced,
                steps: Mutex::new(Vec::new()),
            });
            let live = LivePlan {
                metrics: Some(LiveConfig {
                    period: 1,
                    sink: sink.clone(),
                    table: false,
                }),
                flight_dir: None,
            };
            let resil_plan = ResilPlan {
                ckpt: Some(resil::CkptConfig::new(&ckdir, 10)),
                resume_cycle: None,
            };
            let rid = spans.open("multidom::threaded::run_transport_resil", Some(id));
            let base = spans.now();
            let c0 = process_cpu_ns();
            let results = threaded::run_transport_resil(
                decomp,
                TransportKind::TcpLoopback,
                Duration::from_secs(30),
                SimArgs::new(REGIONS, 1, 1, seed, w.iters),
                None,
                FaultPlan::NONE,
                Vec::new(),
                live,
                resil_plan,
            );
            let cpu = process_cpu_ns() - c0;
            spans.close(rid);
            let _ = std::fs::remove_dir_all(&ckdir);
            let mut ok = true;
            let mut detail = String::new();
            for (r, res) in results.iter().enumerate() {
                match res {
                    Ok((d, st)) if r == 0 => {
                        let (e, s) = (final_origin_energy(d), st.cycle);
                        ok &= s == serial.cycle
                            && format!("{e:.6e}") == format!("{:.6e}", serial.energy);
                        detail = format!("rank 0: {e:e} after {s}; serial {:e}", serial.energy);
                    }
                    Ok(_) => {}
                    Err(e) => {
                        ok = false;
                        detail = format!("rank {r}: {e}");
                    }
                }
            }
            rep.check("multidom.tcp_matches_serial", ok, detail);
            if traced {
                let steps = std::mem::take(&mut *sink.steps.lock().expect("sink lock"));
                let mut prev = base;
                for &(t, max_ns) in &steps {
                    let t = base + t;
                    spans.record("multidom.step", Some(rid), prev, t);
                    prev = t;
                    step_us.push(max_ns / 1e3);
                }
                cpu_traced.push(cpu as f64 * 1e-9);
            } else {
                cpu_plain.push(cpu as f64 * 1e-9);
            }
        }
    }

    // Predicted step: the rank's serial work, each message's pack, half a
    // ping-pong and combine, the dt allreduce, and a checkpoint every 10
    // steps.
    let measured = median(&step_us);
    let predicted = sub_us
        + halo.pack_forces
        + halo.combine_forces
        + halo.pack_gradients
        + halo.store_gradients
        + halo.force_links as f64 * net.pingpong_force / 2.0
        + halo.face_links as f64 * net.pingpong_gradient / 2.0
        + net.allreduce
        + ckpt_us / 10.0;
    let err = measured / predicted - 1.0;
    rep.metric("multidom.step_model_error", err);
    rep.reconcile(
        "multidom.step_model_error",
        err,
        &[
            ("measured_step_us", measured),
            ("predicted_step_us", predicted),
            ("serial_sub_brick_us", sub_us),
            (
                "pack_combine_us",
                halo.pack_forces + halo.combine_forces + halo.pack_gradients + halo.store_gradients,
            ),
            (
                "half_pingpongs_us",
                halo.force_links as f64 * net.pingpong_force / 2.0
                    + halo.face_links as f64 * net.pingpong_gradient / 2.0,
            ),
            ("allreduce_us", net.allreduce),
            ("ckpt_per_step_us", ckpt_us / 10.0),
        ],
    );
    if w.driver == Driver::MultidomTcp {
        ratio_overhead(rep, &cpu_plain, &cpu_traced);
    }
    spans.close(id);
}
