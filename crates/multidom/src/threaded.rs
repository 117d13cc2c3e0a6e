//! The rank loop: one OS thread per rank (under the TCP launcher, one
//! process per rank) exchanging halos over a [`parcelnet`] transport —
//! in-process channels or real TCP sockets — the MPI-style structure the
//! paper's future-work section anticipates. A [`RunSpec`] describes a run;
//! its [`Executor`] decides how a rank runs the kernels of one step:
//!
//! * [`Executor::Serial`] — the serial phases on the rank thread with
//!   blocking halo exchanges between them (the MPI baseline);
//! * [`Executor::Tasks`] — one [`TaskLulesh`] graph per step on the rank's
//!   own workers, with the halo exchanges injected as communication tasks
//!   at the same points. With `overlap` the force exchange stops being a
//!   barrier: the boundary node planes are posted as soon as their gathers
//!   finish and the receive+combine runs while the interior gathers still
//!   execute — the HPX parcelport trick. The combine arithmetic is
//!   unchanged, so overlapped runs stay bit-identical.
//!
//! Everything that is not kernels — pinning, telemetry, tracing, clock
//! sync, the mass exchange or resume, checkpoints, fault injection, the dt
//! allreduce and shutdown — is one loop (`rank_main`) shared by both
//! executors. Works over any 3-D rank grid (up to 26 neighbours per rank)
//! and produces results **bit-identical** to the lockstep
//! [`World`](crate::World) on every transport and executor: every sharer
//! of a boundary node combines partials in the same ascending-rank order,
//! and the wire carries the same bytes either way.
//!
//! ## Failure model
//!
//! Two failure classes, both typed, neither deadlocks:
//!
//! * **Simulation aborts** (negative volume, q-stop): the erroring rank
//!   keeps satisfying the exchange protocol with garbage data and rides the
//!   error on the dt allreduce, so every rank returns the same
//!   [`LuleshError`] in the same iteration.
//! * **Transport failures** (peer died, deadline passed, corrupt frame):
//!   the observing rank returns [`MdError::Net`] immediately and drops its
//!   links, which cascades — every surviving rank observes `PeerClosed`
//!   or `Timeout` within one receive deadline.

use crate::exchange::{
    halo_exchange_forces, halo_exchange_gradients, halo_exchange_mass, recv_combine_forces,
    send_forces, HaloPlan, ObsCtx,
};
use crate::{
    Decomposition, FaultPlan, LivePlan, MdError, ResilPlan, SimArgs, TransportKind,
    DEFAULT_DEADLINE,
};
use lulesh_core::domain::Domain;
use lulesh_core::kernels::constraints;
use lulesh_core::params::SimState;
use lulesh_core::serial::{
    advance_nodes, apply_q_and_materials, calc_force_for_nodes, calc_kinematics_and_gradients,
    SerialScratch,
};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{LuleshError, Real};
use lulesh_task::{IterationHooks, OverlapForces, PartitionPlan, StepScratch, TaskLulesh};
use obs::dist::Category;
use obs::live::{
    jsonl_step_line, FlightRecorder, LiveStats, StepSummary, StragglerDetector, FLIGHT_DEFAULT_CAP,
};
use obs::{SpanKind, Tracer};
use parcelnet::tcp::TcpConfig;
use parcelnet::{ParcelError, ParcelLive, ParcelObs, RankNet};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskrt::topology::Topology;

/// Ping-pong rounds for the clock-alignment handshake: enough that the
/// min-RTT round tracks the true offset to well under typical frame
/// latencies, cheap enough to be invisible at startup.
pub const CLOCK_SYNC_ROUNDS: usize = 8;

/// How each rank executes the kernels of one leapfrog step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// MPI-style: the serial phases on the rank thread, with blocking halo
    /// exchanges between them.
    Serial,
    /// HPX-style: a [`TaskLulesh`] runtime of `threads` workers per rank
    /// running `plan`'s partitions, with the halo exchanges as
    /// communication tasks in each step's graph. `overlap` posts the
    /// boundary forces as soon as they are gathered and combines the
    /// neighbours' planes while the interior gathers still run.
    Tasks {
        /// Workers per rank.
        threads: usize,
        /// Partition sizes of the step graph.
        plan: PartitionPlan,
        /// Overlap the force exchange with interior compute.
        overlap: bool,
    },
}

/// Everything a multi-domain run needs. [`RunSpec::new`] fills in the
/// defaults — channel transport, [`DEFAULT_DEADLINE`], the serial
/// executor, and no tracing, faults, pinning, telemetry or checkpoints —
/// and struct-update syntax overrides the rest.
#[derive(Clone)]
pub struct RunSpec {
    /// The rank grid and global problem size.
    pub decomp: Decomposition,
    /// The wire [`run`] connects its in-process ranks with ([`run_rank`]
    /// is handed an already-connected net).
    pub transport: TransportKind,
    /// Bound on every receive and on the TCP handshake — how long any
    /// rank can outlive a dead neighbour.
    pub deadline: Duration,
    /// Simulation arguments shared by every rank.
    pub sim: SimArgs,
    /// Span tracing on lane `rank`: the dt allreduce as a
    /// [`SpanKind::Barrier`] span, one `iteration` region span per step on
    /// rank 0's lane, and — under the serial executor — each phase as a
    /// [`SpanKind::Region`] span and each exchange as an outer `halo-*`
    /// [`SpanKind::Halo`] span with inner `send-*`/`recv-*` spans. The
    /// links add parcel spans (writer-thread spans on lane `ranks + rank`
    /// when the tracer has that many lanes).
    pub trace: Option<Arc<Tracer>>,
    /// Fault injection.
    pub faults: FaultPlan,
    /// NUMA nodes the ranks are pinned onto, round-robin
    /// (`pin_nodes[rank % len]`), link writer threads included, before
    /// each rank builds its domain — so its arrays first-touch on that
    /// node. Empty means unpinned; results never depend on placement.
    pub pin_nodes: Vec<usize>,
    /// Live telemetry and flight recording.
    pub live: LivePlan,
    /// Checkpoint/resume.
    pub resil: ResilPlan,
    /// How each rank executes its kernels.
    pub executor: Executor,
}

impl RunSpec {
    /// A plain run of `sim` over `decomp` (see the type docs for the
    /// defaults).
    pub fn new(decomp: Decomposition, sim: SimArgs) -> Self {
        Self {
            decomp,
            transport: TransportKind::Channel,
            deadline: DEFAULT_DEADLINE,
            sim,
            trace: None,
            faults: FaultPlan::NONE,
            pin_nodes: Vec::new(),
            live: LivePlan::OFF,
            resil: ResilPlan::OFF,
            executor: Executor::Serial,
        }
    }
}

/// Run the decomposed problem with one thread per rank over
/// `spec.transport`, returning every rank's outcome in rank order.
pub fn run(spec: &RunSpec) -> Vec<Result<(Domain, SimState), MdError>> {
    let nets = connect(spec);
    std::thread::scope(|s| {
        let handles: Vec<_> = nets
            .into_iter()
            .enumerate()
            .map(|(r, net)| {
                std::thread::Builder::new()
                    .name(format!("multidom-rank-{r}"))
                    .spawn_scoped(s, move || {
                        run_rank(spec, net?).map(|(d, st, _offset)| (d, st))
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread must not panic"))
            .collect()
    })
}

/// Fold per-rank outcomes into one: every domain (rank order) plus the
/// final state, or the simulation error every rank agreed on. Transport
/// and snapshot failures panic, so gather only runs without fault
/// injection or checkpoints.
pub fn gather(
    results: Vec<Result<(Domain, SimState), MdError>>,
) -> Result<(Vec<Domain>, SimState), LuleshError> {
    let mut domains = Vec::with_capacity(results.len());
    let mut state = None;
    for r in results {
        match r {
            Ok((d, st)) => {
                state = Some(st);
                domains.push(d);
            }
            Err(MdError::Sim(e)) => return Err(e),
            Err(MdError::Net(n)) => panic!("transport failure without fault injection: {n}"),
            Err(MdError::Snapshot(s)) => panic!("snapshot failure without checkpointing: {s}"),
        }
    }
    Ok((domains, state.expect("at least one rank")))
}

/// [`run`] with every part of the spec spelled out, serial executor.
/// `perfbench` is its only remaining caller; new code builds a
/// [`RunSpec`].
#[allow(clippy::too_many_arguments)]
pub fn run_transport_resil(
    decomp: Decomposition,
    kind: TransportKind,
    deadline: Duration,
    sim: SimArgs,
    trace: Option<Arc<Tracer>>,
    faults: FaultPlan,
    pin_nodes: Vec<usize>,
    live: LivePlan,
    resil: ResilPlan,
) -> Vec<Result<(Domain, SimState), MdError>> {
    run(&RunSpec {
        decomp,
        transport: kind,
        deadline,
        sim,
        trace,
        faults,
        pin_nodes,
        live,
        resil,
        executor: Executor::Serial,
    })
}

/// Every rank's endpoint of `spec.transport`: the in-process channel
/// mesh, or a TCP-loopback bootstrap with one dialing thread per rank.
fn connect(spec: &RunSpec) -> Vec<Result<RankNet, ParcelError>> {
    let ranks = spec.decomp.ranks();
    let specs = spec.decomp.grid().neighbor_specs();
    match spec.transport {
        TransportKind::Channel => parcelnet::channel::channel_mesh_with(&specs, spec.deadline)
            .into_iter()
            .map(Ok)
            .collect(),
        TransportKind::TcpLoopback => {
            let cfg = TcpConfig {
                deadline: spec.deadline,
                connect_timeout: spec.deadline,
            };
            let listener =
                std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            let addr = listener
                .local_addr()
                .expect("loopback listener address")
                .to_string();
            let mut listener = Some(listener);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..ranks)
                    .map(|r| {
                        let listener = (r == 0).then(|| listener.take().expect("root listener"));
                        let (addr, cfg, my_specs) = (&addr, &cfg, &specs[r]);
                        let killed = spec.faults.die_at_handshake == Some(r);
                        std::thread::Builder::new()
                            .name(format!("multidom-bootstrap-{r}"))
                            .spawn_scoped(s, move || {
                                if killed {
                                    // The process died before dialing: its
                                    // own outcome is a closed endpoint; the
                                    // peers' accepts/dials time out.
                                    return Err(ParcelError::PeerClosed { peer: r });
                                }
                                match listener {
                                    Some(l) => parcelnet::tcp::root(l, ranks, my_specs, cfg),
                                    None => parcelnet::tcp::join(addr, r, ranks, my_specs, cfg),
                                }
                            })
                            .expect("spawn bootstrap thread")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bootstrap must not panic"))
                    .collect()
            })
        }
    }
}

/// Pin the calling rank thread onto NUMA node `pin_nodes[rank % len]`
/// (round-robin over the requested nodes). Best-effort: unknown node ids
/// and `sched_setaffinity` failures leave the thread unpinned — results
/// do not depend on placement, only locality does. Returns the pinned
/// node's CPU list so companion threads (parcelnet writers) can follow.
fn pin_rank_thread(rank: usize, pin_nodes: &[usize]) -> Option<Vec<usize>> {
    if pin_nodes.is_empty() {
        return None;
    }
    let topo = Topology::detect();
    let node = pin_nodes[rank % pin_nodes.len()];
    let n = topo.nodes.iter().find(|n| n.id == node)?;
    let _ = taskrt::topology::pin_current_thread(&n.cpus);
    Some(n.cpus.clone())
}

/// One rank's full run over an already-connected `net` — what [`run`]
/// calls on each rank thread, and what a multi-process TCP worker calls
/// with a net from [`parcelnet::tcp::root`]/[`parcelnet::tcp::join`].
/// Pins the rank and its link writers, attaches telemetry and tracing,
/// aligns clocks (traced multi-rank runs), runs the loop, and dumps the
/// flight recording if the rank dies on a typed transport error. Returns
/// the final domain and state plus this rank's clock offset against rank
/// 0 (ns; 0 untraced or on rank 0) for its trace file.
pub fn run_rank(spec: &RunSpec, net: RankNet) -> Result<(Domain, SimState, i64), MdError> {
    let rank = net.rank;
    // Pin before the domain build: the build writes (first-touches) every
    // array, so pinning first places the rank's pages on its node. The
    // link writer threads follow onto the same CPUs.
    if let Some(cpus) = pin_rank_thread(rank, &spec.pin_nodes) {
        net.pin_writers(&cpus);
    }
    let probe = Probe {
        rank,
        trace: spec.trace.clone(),
        stats: spec
            .live
            .metrics
            .as_ref()
            .map(|_| Arc::new(LiveStats::new())),
        flight: spec
            .live
            .flight_dir
            .as_ref()
            .map(|_| Arc::new(FlightRecorder::new(FLIGHT_DEFAULT_CAP))),
    };
    if probe.stats.is_some() || probe.flight.is_some() {
        net.attach_live(&ParcelLive::new(probe.stats.clone(), probe.flight.clone()));
    }
    let offset = match &spec.trace {
        Some(t) => {
            let aux = if t.lanes() >= 2 * net.ranks {
                net.ranks + rank
            } else {
                rank
            };
            net.attach_obs(&ParcelObs::new(Arc::clone(t), rank, aux));
            if net.ranks > 1 {
                let tc = Arc::clone(t);
                let now = move || tc.now_ns();
                let start = t.now_ns();
                let off = net.clock_sync(&now, CLOCK_SYNC_ROUNDS)?;
                t.record_interval(rank, SpanKind::Region, "clock-sync", start, t.now_ns());
                off
            } else {
                0
            }
        }
        None => 0,
    };
    let result = rank_main(spec, Arc::new(net), &probe);
    if let (Err(MdError::Net(_)), Some(f), Some(dir)) =
        (&result, &probe.flight, &spec.live.flight_dir)
    {
        crate::dump_flight(dir, rank, f);
    }
    result.map(|(d, st)| (d, st, offset))
}

/// A rank's instrumentation: span tracing, and the live-telemetry
/// counters and flight recorder — each optional.
struct Probe {
    rank: usize,
    trace: Option<Arc<Tracer>>,
    stats: Option<Arc<LiveStats>>,
    flight: Option<Arc<FlightRecorder>>,
}

/// The flight-recorder category for a driver span kind.
fn flight_cat(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Barrier => "barrier",
        SpanKind::Halo => "halo",
        _ => "region",
    }
}

impl Probe {
    /// Comm tracing for the exchange functions.
    fn obs(&self) -> ObsCtx<'_> {
        self.trace.as_deref().map(|t| (t, self.rank))
    }

    /// Run `f` as a `kind` span named `label` on this rank's lane. With
    /// live telemetry on, its wall time also lands in the rank's counters
    /// (Schulz category `cat`) and its flight ring.
    fn span<T>(
        &self,
        label: &'static str,
        kind: SpanKind,
        cat: Category,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = (self.stats.is_some() || self.flight.is_some()).then(Instant::now);
        let start = self.trace.as_ref().map(|t| t.now_ns());
        let out = f();
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.record_interval(self.rank, kind, label, start, t.now_ns());
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(s) = &self.stats {
                s.add_phase(cat, ns);
            }
            if let Some(f) = &self.flight {
                let end = f.now_ns();
                f.record_interval(label, flight_cat(kind), end.saturating_sub(ns), end, 0, -1);
            }
        }
        out
    }

    /// A kernel phase: a region span, booked as `Busy`.
    fn busy<T>(&self, label: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(label, SpanKind::Region, Category::Busy, f)
    }

    /// A halo exchange: a halo span, booked as `Send`.
    fn halo<T>(&self, label: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(label, SpanKind::Halo, Category::Send, f)
    }
}

/// The rank loop both executors share.
fn rank_main(
    spec: &RunSpec,
    net: Arc<RankNet>,
    probe: &Probe,
) -> Result<(Domain, SimState), MdError> {
    let rank = net.rank;
    let sim = &spec.sim;
    let faults = &spec.faults;
    let shape = spec.decomp.shape(rank);
    let mut d = Domain::build_subdomain(shape, sim.num_reg, sim.balance, sim.cost, sim.seed);
    d.params = sim.params;
    if faults.poison_volume == Some(rank) {
        let mid = d.num_elem() / 2;
        d.set_v(mid, -0.25);
    }
    let d = Arc::new(d);
    let halo = Arc::new(HaloPlan::for_net(shape, &net));

    // Either a resume (restore the checkpointed arrays — the snapshot was
    // captured *after* the mass exchange, so nodal masses are already
    // combined) or the one-time nodal mass exchange of a fresh start.
    // Coordinated restart: every rank resumes from the same wave, so no
    // rank is left sending mass surfaces at a peer that skipped them.
    let mut state = match (&spec.resil.ckpt, spec.resil.resume_cycle) {
        (Some(cfg), Some(cycle)) => probe.span(
            "resume-restore",
            SpanKind::Region,
            Category::Recovery,
            || resil::load_snapshot(&cfg.dir, rank, cycle).and_then(|snap| snap.restore(&d)),
        )?,
        _ => {
            probe.halo("halo-mass", || {
                halo_exchange_mass(&d, &halo, &net, probe.obs())
            })?;
            SimState::new(d.initial_dt())
        }
    };

    // Async checkpoint writer: capture happens on this thread (cheap SoA
    // copies), serialization + file I/O on the writer thread.
    let writer = match &spec.resil.ckpt {
        Some(cfg) => Some(resil::CkptWriter::spawn(&cfg.dir)?),
        None => None,
    };

    let mut exec = Stepper::new(spec.executor, &d, &net, &halo, &probe.stats);
    // Rank 0 is the telemetry root: it decodes the summaries collected on
    // the dt star, tracks per-rank EWMA step times, and streams JSONL.
    let metrics = spec.live.metrics.as_ref();
    let mut detector = (rank == 0 && metrics.is_some()).then(|| StragglerDetector::new(net.ranks));
    while state.time < sim.params.stoptime && state.cycle < sim.max_cycles {
        // Checkpoint *before* the fault-injection check: a rank dying at
        // cycle C has submitted its wave-C snapshot, and every peer
        // reaches the top of C before observing the death (they all
        // completed C−1's allreduce) — so wave C is globally consistent.
        if let (Some(w), Some(cfg)) = (writer.as_ref(), spec.resil.ckpt.as_ref()) {
            if state.cycle % cfg.period == 0 && spec.resil.resume_cycle != Some(state.cycle) {
                probe.span("ckpt-capture", SpanKind::Region, Category::Recovery, || {
                    w.submit(
                        resil::DomainSnapshot::capture(rank, &d, &state),
                        state.cycle,
                    )
                });
            }
        }
        if faults.dies_at(rank, state.cycle) {
            // Abrupt death: drop every link without a Bye, exactly as a
            // killed process would. Survivors observe PeerClosed/Timeout.
            // (The writer thread flushes pending snapshots on drop.)
            return Err(MdError::Net(ParcelError::PeerClosed { peer: rank }));
        }
        // Wall clock AND cumulative transport wait at step start: the
        // sample point is pre-allreduce, so both windows must open here
        // too — a rolling wait delta would fold the *previous* step's
        // allreduce wait into this step's window and (on an oversubscribed
        // host, where that wait dwarfs compute) saturate self time to 0.
        let step_start = probe.stats.as_ref().map(|s| (Instant::now(), s.wait_ns()));
        if let Some((r, ms)) = faults.slow_rank {
            // Injected straggler: stall before the phases so the lost time
            // shows up in this rank's step sample.
            if r == rank {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        let iter_start = spec.trace.as_ref().map(|t| t.now_ns());
        time_increment(&mut state, &sim.params);

        let (c, h, local_err) = exec.step(&d, state.deltatime, &net, &halo, probe)?;

        // On telemetry steps the encoded step summary rides the dt star —
        // the same parcels every step already sends, no extra sync point.
        // `telemetry_step` is a pure function of the shared cycle counter,
        // so every rank agrees on which steps carry a payload.
        let telemetry: Option<Vec<Real>> = match (metrics, &probe.stats, step_start) {
            (Some(cfg), Some(s), Some((t0, wait0))) if cfg.telemetry_step(state.cycle) => {
                // Self time: wall minus time blocked in transport recvs —
                // a rank stalled behind a slow neighbour must not look
                // slow itself. Both clocks span step start to here.
                let wall = t0.elapsed().as_nanos() as u64;
                let step_wait = s.wait_ns().saturating_sub(wait0);
                let step_ns = wall.saturating_sub(step_wait);
                Some(s.snapshot(rank as u32, state.cycle, step_ns).encode())
            }
            _ => None,
        };
        // dt constraints: allreduce(min) through rank 0, errors riding
        // along so everyone aborts in the same iteration.
        let (gc, gh, gerr, collected) =
            probe.span("barrier-dt", SpanKind::Barrier, Category::Barrier, || {
                net.allreduce_dt_live(c, h, local_err, telemetry.as_deref())
            })?;
        if let Some(e) = gerr {
            // Every rank is returning this same error right now; links are
            // dropped together, so nobody is left reading.
            return Err(MdError::Sim(e));
        }
        state.dtcourant = gc;
        state.dthydro = gh;
        if let (Some(det), Some(cfg), Some(collected)) = (detector.as_mut(), metrics, collected) {
            // Telemetry root: decode (rank order — own summary first, then
            // star members), detect, stream one JSONL line.
            let summaries: Vec<StepSummary> = collected
                .iter()
                .filter_map(|p| StepSummary::decode(p))
                .collect();
            if summaries.len() == net.ranks {
                let step_ns: Vec<u64> = summaries.iter().map(|s| s.step_ns).collect();
                let flagged = det.observe(&step_ns);
                cfg.sink
                    .emit(&jsonl_step_line(state.cycle, &summaries, &flagged));
            }
        }
        if rank == 0 {
            if let (Some(t), Some(start)) = (spec.trace.as_ref(), iter_start) {
                t.record_interval(rank, SpanKind::Region, "iteration", start, t.now_ns());
            }
        }
    }

    // Graceful shutdown: Bye on every link, so no socket is abandoned with
    // a peer still reading from it.
    net.close()?;
    if let (Some(det), Some(cfg)) = (detector.as_ref(), metrics) {
        if cfg.table {
            eprint!("{}", det.summary_table());
        }
    }
    // The task executor's hooks and workers hold the other handles on the
    // domain; once they are gone the rank owns it outright again.
    drop(exec);
    let d = Arc::try_unwrap(d)
        .unwrap_or_else(|_| panic!("rank {rank}: domain still shared after the executor"));
    Ok((d, state))
}

/// A halo exchange as the task executor's hooks call it.
type Exchange = fn(&Domain, &HaloPlan, &RankNet, ObsCtx<'_>) -> Result<(), ParcelError>;

/// A rank's [`Executor`], instantiated over its domain and links.
enum Stepper {
    Serial(Box<SerialScratch>),
    Tasks(Box<TaskStep>),
}

/// The task executor's per-rank state, kept across steps.
struct TaskStep {
    runner: TaskLulesh,
    /// Binds the rank's domain and its halo-exchange hooks.
    scratch: StepScratch,
    plan: PartitionPlan,
    /// A transport failure inside a comm task, which cannot unwind
    /// through the hook's `Fn()` signature: every later hook becomes a
    /// no-op and the step reports the error.
    comm_err: Arc<Mutex<Option<ParcelError>>>,
}

impl Stepper {
    fn new(
        executor: Executor,
        d: &Arc<Domain>,
        net: &Arc<RankNet>,
        halo: &Arc<HaloPlan>,
        stats: &Option<Arc<LiveStats>>,
    ) -> Self {
        let Executor::Tasks {
            threads,
            plan,
            overlap,
        } = executor
        else {
            return Stepper::Serial(Box::new(SerialScratch::new(d.num_elem())));
        };
        let comm_err = Arc::new(Mutex::new(None));
        // Each exchange runs as a task of its own; with live telemetry on,
        // its wall time lands in the rank's `Send` counter.
        let hook = |exchange: Exchange| -> lulesh_task::Hook {
            let (d, net, halo) = (Arc::clone(d), Arc::clone(net), Arc::clone(halo));
            let (comm_err, stats) = (Arc::clone(&comm_err), stats.clone());
            Arc::new(move || {
                if comm_err.lock().is_some() {
                    return;
                }
                let t0 = stats.as_ref().map(|_| Instant::now());
                let res = exchange(&d, &halo, &net, None);
                if let (Some(s), Some(t0)) = (&stats, t0) {
                    s.add_phase(Category::Send, t0.elapsed().as_nanos() as u64);
                }
                if let Err(e) = res {
                    *comm_err.lock() = Some(e);
                }
            })
        };
        let mut hooks = IterationHooks {
            after_gradients: Some(hook(halo_exchange_gradients)),
            ..Default::default()
        };
        if overlap && net.ranks > 1 {
            // The boundary node set as merged contiguous runs — on a 3-D
            // grid the union of every COMM face/edge/corner surface.
            hooks.overlap_forces = Some(OverlapForces {
                boundary: halo.boundary_runs().to_vec(),
                send: hook(send_forces),
                recv_combine: hook(recv_combine_forces),
            });
        } else {
            hooks.after_forces = Some(hook(halo_exchange_forces));
        }
        let runner = TaskLulesh::new(threads);
        let scratch = runner.step_scratch(d, hooks);
        Stepper::Tasks(Box::new(TaskStep {
            runner,
            scratch,
            plan,
            comm_err,
        }))
    }

    /// One step's kernels and halo exchanges at time step `dt`: this
    /// rank's `(dtcourant, dthydro)` minima and the simulation error the
    /// step tripped, if any. A transport error aborts the step.
    fn step(
        &mut self,
        d: &Arc<Domain>,
        dt: Real,
        net: &RankNet,
        halo: &HaloPlan,
        probe: &Probe,
    ) -> Result<(Real, Real, Option<LuleshError>), ParcelError> {
        match self {
            Stepper::Serial(scratch) => serial_step(d, scratch, dt, net, halo, probe),
            Stepper::Tasks(t) => {
                let out = t.runner.step(&t.scratch, t.plan, dt);
                match *t.comm_err.lock() {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
        }
    }
}

/// The serial executor's phase sequence. A mid-step *simulation* error
/// must not abandon the exchange protocol — the neighbours are blocked on
/// our messages — so it is recorded, the exchanges keep running (on
/// garbage data; every rank aborts together at the allreduce) and the
/// remaining local phases are skipped. A *transport* error aborts at once
/// (`?`): the links drop, which the neighbours observe within their
/// deadline.
fn serial_step(
    d: &Domain,
    scratch: &mut SerialScratch,
    dt: Real,
    net: &RankNet,
    halo: &HaloPlan,
    probe: &Probe,
) -> Result<(Real, Real, Option<LuleshError>), ParcelError> {
    let obs = probe.obs();

    // Forces + halo sum.
    let mut local_err = probe.busy("forces", || calc_force_for_nodes(d, scratch).err());
    probe.halo("halo-forces", || halo_exchange_forces(d, halo, net, obs))?;

    // Node advance, then gradients + ghost exchange.
    if local_err.is_none() {
        probe.busy("node", || advance_nodes(d, dt));
        local_err = probe.busy("kinematics", || calc_kinematics_and_gradients(d, dt).err());
    }
    probe.halo("halo-gradients", || {
        halo_exchange_gradients(d, halo, net, obs)
    })?;

    if local_err.is_none() {
        local_err = probe.busy("eos", || apply_q_and_materials(d, scratch).err());
    }
    let (c, h) = if local_err.is_none() {
        probe.busy("constraints", || {
            constraints::calc_time_constraints(d, d.params.qqc, d.params.dvovmax)
        })
    } else {
        (1.0e20, 1.0e20)
    };
    Ok((c, h, local_err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn threaded_matches_lockstep_bitwise() {
        let decomp = Decomposition::new(8, 2);
        let mut world = World::build(decomp, 3, 1, 1, 0);
        let st_lock = world.run(25).unwrap();

        let (domains, st_thr) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(3, 1, 1, 0, 25)))).unwrap();
        assert_eq!(st_lock.cycle, st_thr.cycle);
        assert_eq!(st_lock.time, st_thr.time);
        assert_eq!(st_lock.dtcourant, st_thr.dtcourant);

        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r} must match the lockstep driver bit-for-bit"
            );
        }
    }

    #[test]
    fn threaded_three_ranks() {
        let decomp = Decomposition::new(6, 3);
        let (domains, st) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 15)))).unwrap();
        assert_eq!(domains.len(), 3);
        assert_eq!(st.cycle, 15);
        // Compare against the single-domain solution.
        let single = lulesh_core::Domain::build(6, 2, 1, 1, 0);
        lulesh_core::serial::run(&single, 15).unwrap();
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.domains = domains;
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "threaded vs single: {diff}");
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_rank_spans() {
        let decomp = Decomposition::new(6, 2);
        let (base, st_base) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 8)))).unwrap();

        let tracer = Tracer::shared(2);
        let (traced, st_traced) = gather(run(&RunSpec {
            trace: Some(Arc::clone(&tracer)),
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 8))
        }))
        .unwrap();
        assert_eq!(st_base.cycle, st_traced.cycle);
        for (a, b) in base.iter().zip(&traced) {
            assert_eq!(lulesh_core::validate::max_field_difference(a, b), 0.0);
        }

        let spans = tracer.drain();
        // 8 iterations × 2 ranks of dt-allreduce barriers.
        let barriers = spans.iter().filter(|s| s.kind == SpanKind::Barrier).count();
        assert_eq!(barriers, 16);
        // Two-rank ring: every rank exchanged forces and gradients.
        for rank in 0..2 {
            for label in ["halo-forces", "halo-gradients"] {
                let n = spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Halo && s.label == label && s.worker == rank)
                    .count();
                assert_eq!(n, 8, "rank {rank} {label}");
            }
            // The transport layer's inner comm spans: one send and one recv
            // per exchange on a 2-rank ring.
            for label in ["send-force", "recv-force", "send-gradient", "recv-gradient"] {
                let n = spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Halo && s.label == label && s.worker == rank)
                    .count();
                assert_eq!(n, 8, "rank {rank} {label}");
            }
        }
        // Iteration spans only on rank 0's lane.
        let iters: Vec<_> = spans.iter().filter(|s| s.label == "iteration").collect();
        assert_eq!(iters.len(), 8);
        assert!(iters.iter().all(|s| s.worker == 0));
    }

    #[test]
    fn grid_threaded_matches_lockstep_bitwise() {
        // Full 2×2×2 rank grid: faces, edges and corners all exchange.
        let decomp = crate::Decomposition::with_grid(6, crate::Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let st_lock = world.run(12).unwrap();
        let (domains, st_thr) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 12)))).unwrap();
        assert_eq!(st_lock.cycle, st_thr.cycle);
        assert_eq!(st_lock.dtcourant, st_thr.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r} must match the lockstep grid world bit-for-bit"
            );
        }
    }

    #[test]
    fn grid_tcp_loopback_matches_channel_bitwise() {
        let decomp = crate::Decomposition::with_grid(4, crate::Grid3::new(2, 2, 1));
        let (base, st_base) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 8)))).unwrap();
        let results = run(&RunSpec {
            transport: TransportKind::TcpLoopback,
            deadline: Duration::from_secs(10),
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 8))
        });
        for (r, (base_d, res)) in base.iter().zip(results).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_base.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(base_d, &d),
                0.0,
                "rank {r}: TCP wire must be bit-transparent on a grid"
            );
        }
    }

    #[test]
    fn threaded_single_rank_degenerates_to_serial() {
        let (domains, st) = gather(run(&RunSpec::new(
            Decomposition::new(5, 1),
            SimArgs::new(2, 1, 1, 0, 10),
        )))
        .unwrap();
        let single = lulesh_core::Domain::build(5, 2, 1, 1, 0);
        let st_s = lulesh_core::serial::run(&single, 10).unwrap();
        assert_eq!(st.cycle, st_s.cycle);
        assert_eq!(
            lulesh_core::validate::max_field_difference(&domains[0], &single),
            0.0
        );
    }

    /// The span *census* — how many spans of each (kind, label, lane) a
    /// traced run records — must not depend on the wire. Channel and TCP
    /// place their instrumentation symmetrically (wait + recv + send per
    /// frame), so the only transport-specific spans are the TCP writer
    /// thread's `parcel-serialize-*` intervals, which are excluded here.
    #[test]
    fn traced_cross_transport_equivalence_span_counts() {
        use std::collections::BTreeMap;
        let ranks = 3;
        let census = |kind: TransportKind| {
            let tracer = obs::Tracer::shared(2 * ranks);
            let results = run(&RunSpec {
                transport: kind,
                deadline: Duration::from_secs(10),
                trace: Some(Arc::clone(&tracer)),
                ..RunSpec::new(Decomposition::new(6, ranks), SimArgs::new(2, 1, 1, 0, 6))
            });
            for r in results {
                r.expect("rank failed");
            }
            let mut m: BTreeMap<(obs::SpanKind, &'static str, usize), usize> = BTreeMap::new();
            for s in tracer.drain() {
                if s.label.starts_with("parcel-serialize-") {
                    continue;
                }
                *m.entry((s.kind, s.label, s.worker)).or_insert(0) += 1;
            }
            m
        };
        let chan = census(TransportKind::Channel);
        let tcp = census(TransportKind::TcpLoopback);
        assert!(
            chan.keys().any(|(k, ..)| *k == obs::SpanKind::Parcel),
            "traced run must record parcel spans"
        );
        assert_eq!(chan, tcp, "span census must be identical across transports");
    }

    /// Acceptance gate for the live plane: an injected slow rank must be
    /// flagged by rank 0's online detector within 5 steps.
    #[test]
    fn straggler_detector_flags_injected_slow_rank_within_five_steps() {
        use obs::live::{CollectSink, LiveConfig, LiveSink};
        let sink = Arc::new(CollectSink::new());
        let live = LivePlan {
            metrics: Some(LiveConfig {
                period: 1,
                sink: Arc::clone(&sink) as Arc<dyn LiveSink>,
                table: false,
            }),
            flight_dir: None,
        };
        let faults = FaultPlan {
            slow_rank: Some((1, 25)),
            ..FaultPlan::NONE
        };
        let results = run(&RunSpec {
            transport: TransportKind::Channel,
            deadline: Duration::from_secs(10),
            faults,
            live,
            ..RunSpec::new(Decomposition::new(6, 2), SimArgs::new(2, 1, 1, 0, 8))
        });
        for r in results {
            r.expect("slow rank must not fail the run");
        }

        let lines = sink.lines();
        assert_eq!(lines.len(), 8, "period 1 over 8 cycles");
        let flagged_at = lines.iter().position(|l| {
            let v = obs::jsonlint::parse(l).expect("live line must be valid JSON");
            v.get("stragglers")
                .and_then(|s| s.arr())
                .is_some_and(|a| a.iter().any(|x| x.num() == Some(1.0)))
        });
        assert!(
            matches!(flagged_at, Some(i) if i < 5),
            "rank 1 must be flagged within 5 steps, first flag at {flagged_at:?}"
        );
        // Every line carries full per-rank summaries and a sane imbalance.
        for l in &lines {
            let v = obs::jsonlint::parse(l).unwrap();
            assert_eq!(
                v.get("per_rank").and_then(|p| p.arr()).map(|a| a.len()),
                Some(2)
            );
            assert!(v.get("imbalance").and_then(|x| x.num()).unwrap() >= 1.0);
        }
    }

    /// Fault-plan death must leave a lintable flight recording behind on
    /// every rank — the dying one and the survivor that observed it.
    #[test]
    fn fault_death_dumps_lintable_flight_recordings() {
        let dir = std::env::temp_dir().join(format!("multidom-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = LivePlan {
            metrics: None,
            flight_dir: Some(dir.clone()),
        };
        let faults = FaultPlan {
            die_at: vec![(1, 3)],
            ..FaultPlan::NONE
        };
        let results = run(&RunSpec {
            transport: TransportKind::Channel,
            deadline: Duration::from_secs(2),
            faults,
            live,
            ..RunSpec::new(Decomposition::new(6, 2), SimArgs::new(2, 1, 1, 0, 10))
        });
        assert!(
            results.iter().all(|r| matches!(r, Err(MdError::Net(_)))),
            "both the dying rank and the survivor must report a typed failure"
        );
        for r in 0..2 {
            let path = dir.join(format!("flight.rank{r}.json"));
            let content = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("rank {r} flight dump missing: {e}"));
            let st = obs::live::lint_flight_dump(&content)
                .unwrap_or_else(|e| panic!("rank {r} flight dump invalid: {e}"));
            assert_eq!(st.rank, r);
            assert!(st.events > 0, "rank {r} recorded no events");
        }
        // The survivor saw a typed parcel error; its dump records it.
        let survivor = std::fs::read_to_string(dir.join("flight.rank0.json")).unwrap();
        assert!(
            obs::live::lint_flight_dump(&survivor).unwrap().errors > 0,
            "survivor must record the typed failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn w4_runs_match_scalar_lockstep_across_transports() {
        // `--simd w4` must be invisible to the physics everywhere: a
        // 4-lane multidomain run — over in-process channels AND over real
        // loopback sockets — stays bit-identical to the scalar lockstep
        // reference. Safe to flip the global width mid-suite: every width
        // is bit-identical by construction, so concurrent tests only ever
        // change speed.
        use lulesh_core::simd::{self, LaneWidth};
        let prior = simd::active();
        let decomp = Decomposition::new(6, 2);

        simd::set_active(LaneWidth::W1);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let st_lock = world.run(10).unwrap();

        simd::set_active(LaneWidth::W4);
        let chan = gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 10))));
        let tcp = run(&RunSpec {
            transport: TransportKind::TcpLoopback,
            deadline: Duration::from_secs(10),
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 10))
        });
        simd::set_active(prior);

        let (chan_domains, st_chan) = chan.unwrap();
        assert_eq!(st_lock.cycle, st_chan.cycle);
        assert_eq!(st_lock.dtcourant, st_chan.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&chan_domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: w4 channel run must match the scalar lockstep"
            );
        }
        for (r, (a, res)) in world.domains.iter().zip(tcp).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_lock.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &d),
                0.0,
                "rank {r}: w4 TCP run must match the scalar lockstep"
            );
        }
    }

    #[test]
    fn tcp_loopback_matches_channel_bitwise() {
        let decomp = Decomposition::new(6, 2);
        let (base, st_base) =
            gather(run(&RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 10)))).unwrap();
        let results = run(&RunSpec {
            transport: TransportKind::TcpLoopback,
            deadline: Duration::from_secs(10),
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 10))
        });
        for (r, (base_d, res)) in base.iter().zip(results).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_base.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(base_d, &d),
                0.0,
                "rank {r}: TCP wire must be bit-transparent"
            );
        }
    }

    #[test]
    fn taskpar_matches_lockstep_bitwise() {
        let decomp = Decomposition::new(8, 2);
        let mut world = World::build(decomp, 3, 1, 1, 0);
        let st_lock = world.run(20).unwrap();

        let (domains, st) = gather(run(&RunSpec {
            executor: Executor::Tasks {
                threads: 2,
                plan: PartitionPlan::fixed(32, 32),
                overlap: false,
            },
            ..RunSpec::new(decomp, SimArgs::new(3, 1, 1, 0, 20))
        }))
        .unwrap();
        assert_eq!(st_lock.cycle, st.cycle);
        assert_eq!(st_lock.time, st.time);
        assert_eq!(st_lock.dtcourant, st.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: task-parallel ranks must match the lockstep world bit-for-bit"
            );
        }
    }

    #[test]
    fn taskpar_three_ranks_single_worker_each() {
        let decomp = Decomposition::new(6, 3);
        let (domains, st) = gather(run(&RunSpec {
            executor: Executor::Tasks {
                threads: 1,
                plan: PartitionPlan::fixed(16, 16),
                overlap: false,
            },
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 12))
        }))
        .unwrap();
        assert_eq!(domains.len(), 3);
        assert_eq!(st.cycle, 12);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for (a, b) in world.domains.iter().zip(&domains) {
            assert_eq!(lulesh_core::validate::max_field_difference(a, b), 0.0);
        }
    }

    #[test]
    fn taskpar_single_rank_is_plain_task_port() {
        let (domains, st) = gather(run(&RunSpec {
            executor: Executor::Tasks {
                threads: 2,
                plan: PartitionPlan::fixed(32, 32),
                overlap: false,
            },
            ..RunSpec::new(Decomposition::new(6, 1), SimArgs::new(2, 1, 1, 0, 10))
        }))
        .unwrap();
        let single = Arc::new(lulesh_core::Domain::build(6, 2, 1, 1, 0));
        let plain = TaskLulesh::new(2);
        let st_p = plain
            .run(&single, PartitionPlan::fixed(32, 32), 10)
            .unwrap();
        assert_eq!(st.cycle, st_p.cycle);
        assert_eq!(
            lulesh_core::validate::max_field_difference(&domains[0], &single),
            0.0
        );
    }

    #[test]
    fn grid_taskpar_matches_lockstep_bitwise_with_overlap() {
        // 2×2×1 rank grid with comm/compute overlap: the boundary runs
        // cover two face planes plus the shared edge; scheduling must not
        // change the ascending-rank combine arithmetic. Also a regression
        // test for the fused acceleration BC: ranks off the global x=0/y=0
        // planes must not zero accelerations on their interface planes.
        let decomp = Decomposition::with_grid(4, crate::Grid3::new(2, 2, 1));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(10).unwrap();
        let results = run(&RunSpec {
            transport: TransportKind::Channel,
            deadline: Duration::from_secs(10),
            executor: Executor::Tasks {
                threads: 2,
                plan: PartitionPlan::fixed(16, 16),
                overlap: true,
            },
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 10))
        });
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 10);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: grid overlap must not change physics"
            );
        }
    }

    #[test]
    fn taskpar_live_metrics_do_not_change_physics_and_emit_jsonl() {
        use obs::live::{CollectSink, LiveConfig, LiveSink};
        let decomp = Decomposition::new(6, 2);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(8).unwrap();

        let sink = Arc::new(CollectSink::new());
        let live = LivePlan {
            metrics: Some(LiveConfig {
                period: 2,
                sink: Arc::clone(&sink) as Arc<dyn LiveSink>,
                table: false,
            }),
            flight_dir: None,
        };
        let results = run(&RunSpec {
            transport: TransportKind::Channel,
            deadline: Duration::from_secs(10),
            live,
            executor: Executor::Tasks {
                threads: 2,
                plan: PartitionPlan::fixed(16, 16),
                overlap: false,
            },
            ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 8))
        });
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 8);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: live sampling must not change physics"
            );
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "period 2 over 8 cycles");
        for l in &lines {
            let v = obs::jsonlint::parse(l).expect("live line must be valid JSON");
            assert_eq!(
                v.get("per_rank").and_then(|p| p.arr()).map(|x| x.len()),
                Some(2)
            );
        }
    }

    #[test]
    fn overlapped_forces_stay_bit_identical() {
        // The overlap changes scheduling, not arithmetic: identical results
        // with single- and multi-worker ranks, including on a deliberately
        // deadlock-prone configuration (1 worker per rank: the send task
        // must never wait on the recv).
        let decomp = Decomposition::new(6, 3);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for workers in [1usize, 2] {
            let results = run(&RunSpec {
                transport: TransportKind::Channel,
                deadline: Duration::from_secs(10),
                executor: Executor::Tasks {
                    threads: workers,
                    plan: PartitionPlan::fixed(16, 16),
                    overlap: true,
                },
                ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 12))
            });
            for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
                let (b, st) = res.unwrap_or_else(|e| panic!("workers {workers} rank {r}: {e}"));
                assert_eq!(st.cycle, 12);
                assert_eq!(
                    lulesh_core::validate::max_field_difference(a, &b),
                    0.0,
                    "workers {workers} rank {r}: overlap must not change physics"
                );
            }
        }
    }
}
