//! # multidom — multi-domain LULESH (the paper's future work)
//!
//! The paper closes with: *"In future work, our LULESH implementation
//! could be extended to run on multi-node environments and compared to an
//! MPI-based implementation."* This crate implements that extension: the
//! global Sedov cube is decomposed over a full 3-D rank grid
//! ([`Grid3`] — ζ slabs are the `1×1×N` special case), each rank an
//! independent [`Domain`] sub-brick with COMM boundary flags and ghost
//! regions, advanced in lockstep with halo exchanges at exactly the three
//! points the reference's MPI version communicates: nodal mass (setup),
//! nodal forces (per iteration), and monotonic-q velocity gradients (per
//! iteration) — plus the dt min-allreduce. Each rank exchanges with up to
//! 26 neighbours (6 faces, 12 edges, 8 corners; see [`exchange`]).
//!
//! One lockstep reference and one rank loop, with **bit-identical**
//! results:
//!
//! * [`World::run`] — lockstep: ranks advance phase by phase in one
//!   thread (the deterministic reference for testing).
//! * [`run`] / [`run_rank`] — the rank loop ([`threaded`]): one OS thread
//!   (or, under the TCP launcher, one process) per rank, exchanging halo
//!   parcels over a [`parcelnet`] transport. A [`RunSpec`] describes the
//!   whole run; its [`Executor`] picks how a rank runs its kernels:
//!   [`Executor::Serial`] is the MPI-style baseline (blocking exchanges
//!   between serial phases), [`Executor::Tasks`] a `TaskLulesh` runtime
//!   per rank with the halo exchanges injected as communication tasks —
//!   the paper's anticipated "HPX-native multi-node" configuration.
//!   Checkpoints, fault injection, live telemetry, tracing and pinning
//!   live in the loop, so both executors get all of them.
//!
//! The decomposed solution matches the single-domain solution up to
//! floating-point regrouping on the boundary surfaces (the force sum is
//! associated differently); duplicated boundary nodes stay bit-identical
//! *across ranks* throughout the run.

#![warn(missing_docs)]

pub mod exchange;
pub mod recovery;
pub mod threaded;

pub use threaded::{gather, run, run_rank, Executor, RunSpec};

use exchange::HaloPlan;
use lulesh_core::domain::Domain;
use lulesh_core::kernels::constraints;
use lulesh_core::mesh::MeshShape;
use lulesh_core::params::SimState;
use lulesh_core::serial::{
    advance_nodes, apply_q_and_materials, calc_force_for_nodes, calc_kinematics_and_gradients,
    SerialScratch,
};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{LuleshError, Real};
use parcelnet::{dir, NeighborSpec};

/// A 3-D rank grid: `nx × ny × nz` ranks, numbered ξ-fastest
/// (`rank = ix + nx·(iy + ny·iz)`). The ζ-slab chain is `1×1×N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Ranks along ξ.
    pub nx: usize,
    /// Ranks along η.
    pub ny: usize,
    /// Ranks along ζ.
    pub nz: usize,
}

impl Grid3 {
    /// Create a grid; every extent must be at least 1.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "grid extents must be >= 1");
        Self { nx, ny, nz }
    }

    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Grid coordinates of rank `r`.
    pub fn coords(&self, r: usize) -> (usize, usize, usize) {
        assert!(r < self.ranks());
        (
            r % self.nx,
            (r / self.nx) % self.ny,
            r / (self.nx * self.ny),
        )
    }

    /// Rank at grid coordinates `(ix, iy, iz)`.
    pub fn rank_at(&self, ix: usize, iy: usize, iz: usize) -> usize {
        assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        ix + self.nx * (iy + self.ny * iz)
    }

    /// Rank `r`'s neighbours as `(neighbour rank, direction toward it)`,
    /// sorted by direction — one entry per in-grid direction among the 26.
    pub fn neighbors(&self, r: usize) -> Vec<(usize, usize)> {
        let (ix, iy, iz) = self.coords(r);
        let mut out = Vec::new();
        for d in 0..dir::COUNT {
            if d == dir::SELF_INDEX {
                continue;
            }
            let (dx, dy, dz) = dir::components(d);
            let (jx, jy, jz) = (
                ix as i64 + dx as i64,
                iy as i64 + dy as i64,
                iz as i64 + dz as i64,
            );
            let inside = |j: i64, n: usize| j >= 0 && (j as usize) < n;
            if inside(jx, self.nx) && inside(jy, self.ny) && inside(jz, self.nz) {
                out.push((self.rank_at(jx as usize, jy as usize, jz as usize), d));
            }
        }
        out
    }

    /// Every rank's neighbour list in the [`NeighborSpec`] form the
    /// transports bootstrap from.
    pub fn neighbor_specs(&self) -> Vec<Vec<NeighborSpec>> {
        (0..self.ranks())
            .map(|r| {
                self.neighbors(r)
                    .into_iter()
                    .map(|(rank, d)| NeighborSpec { rank, dir: d as u8 })
                    .collect()
            })
            .collect()
    }
}

/// A 3-D grid decomposition of the global cube into sub-bricks. Fields are
/// private so the divisibility invariant established by the constructors
/// cannot be bypassed (a brick with a dangling COMM face would silently
/// produce wrong physics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    size: usize,
    grid: Grid3,
}

impl Decomposition {
    /// The classic ζ-slab chain: `ranks` slabs along ζ (must divide
    /// `size`). Equivalent to `with_grid(size, Grid3::new(1, 1, ranks))`.
    pub fn new(size: usize, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert_eq!(size % ranks, 0, "ranks must divide the problem size");
        Self::with_grid(size, Grid3::new(1, 1, ranks))
    }

    /// Decompose over an arbitrary rank grid; every grid extent must
    /// divide `size`.
    pub fn with_grid(size: usize, grid: Grid3) -> Self {
        assert_eq!(size % grid.nx, 0, "ranks must divide the problem size");
        assert_eq!(size % grid.ny, 0, "ranks must divide the problem size");
        assert_eq!(size % grid.nz, 0, "ranks must divide the problem size");
        Self { size, grid }
    }

    /// Global cube edge in elements.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank grid.
    pub fn grid(&self) -> Grid3 {
        self.grid
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    /// Per-rank sub-brick extents.
    fn local(&self) -> (usize, usize, usize) {
        (
            self.size / self.grid.nx,
            self.size / self.grid.ny,
            self.size / self.grid.nz,
        )
    }

    /// The mesh shape of rank `r`.
    pub fn shape(&self, r: usize) -> MeshShape {
        let (lx, ly, lz) = self.local();
        let (ix, iy, iz) = self.grid.coords(r);
        MeshShape::brick(
            (lx, ly, lz),
            (self.size, self.size, self.size),
            (ix * lx, iy * ly, iz * lz),
        )
    }

    /// All rank shapes, in rank order.
    pub fn shapes(&self) -> Vec<MeshShape> {
        (0..self.ranks()).map(|r| self.shape(r)).collect()
    }

    /// Rank `r`'s grid neighbours as `(rank, direction)` pairs.
    pub fn neighbors(&self, r: usize) -> Vec<(usize, usize)> {
        self.grid.neighbors(r)
    }

    /// The global element index of rank `r`'s local element `e`.
    pub fn global_elem(&self, r: usize, e: usize) -> usize {
        let s = self.shape(r);
        let (ex, ey, ez) = (e % s.nx, (e / s.nx) % s.ny, e / (s.nx * s.ny));
        (s.x_offset + ex) + self.size * ((s.y_offset + ey) + self.size * (s.z_offset + ez))
    }

    /// The global node index of rank `r`'s local node `n`.
    pub fn global_node(&self, r: usize, n: usize) -> usize {
        let s = self.shape(r);
        let (rn, pn) = (s.nx + 1, (s.nx + 1) * (s.ny + 1));
        let (nx, ny, nz) = (n % rn, (n / rn) % (s.ny + 1), n / pn);
        let gn = self.size + 1;
        (s.x_offset + nx) + gn * ((s.y_offset + ny) + gn * (s.z_offset + nz))
    }
}

/// Transport selection for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (the historical wire; zero copies
    /// leave process memory).
    #[default]
    Channel,
    /// Real TCP sockets over 127.0.0.1 — full parcelnet framing,
    /// checksums and handshakes, still inside one process.
    TcpLoopback,
}

/// Multi-domain run failure: either the simulation aborted (and every
/// rank agreed on it via the dt allreduce), or the transport itself failed
/// (a peer died, a deadline passed, a frame was corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdError {
    /// Simulation abort (volume/qstop) — identical on every rank.
    Sim(LuleshError),
    /// Transport failure — typed, names the peer.
    Net(parcelnet::ParcelError),
    /// Checkpoint/snapshot failure — a missing, truncated, or corrupt
    /// snapshot surfaced while checkpointing or resuming.
    Snapshot(resil::SnapshotError),
}

impl std::fmt::Display for MdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdError::Sim(e) => write!(f, "simulation abort: {e:?}"),
            MdError::Net(e) => write!(f, "transport failure: {e}"),
            MdError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
        }
    }
}

impl std::error::Error for MdError {}

impl From<LuleshError> for MdError {
    fn from(e: LuleshError) -> Self {
        MdError::Sim(e)
    }
}

impl From<parcelnet::ParcelError> for MdError {
    fn from(e: parcelnet::ParcelError) -> Self {
        MdError::Net(e)
    }
}

impl From<resil::SnapshotError> for MdError {
    fn from(e: resil::SnapshotError) -> Self {
        MdError::Snapshot(e)
    }
}

/// Simulation arguments shared by every rank of a transport run.
#[derive(Debug, Clone, Copy)]
pub struct SimArgs {
    /// Number of material regions.
    pub num_reg: usize,
    /// Region cost balance knob.
    pub balance: i32,
    /// Region cost multiplier.
    pub cost: i32,
    /// Region RNG seed.
    pub seed: u64,
    /// Iteration cap.
    pub max_cycles: u64,
    /// Control parameters applied to every rank's domain.
    pub params: lulesh_core::Params,
}

impl SimArgs {
    /// Defaults matching the classic driver signatures.
    pub fn new(num_reg: usize, balance: i32, cost: i32, seed: u64, max_cycles: u64) -> Self {
        Self {
            num_reg,
            balance,
            cost,
            seed,
            max_cycles,
            params: lulesh_core::Params::default(),
        }
    }
}

/// Fault injection for failure testing (all fields default to "no fault").
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Poison this rank's mid-domain element volume after build, forcing a
    /// `VolumeError` in its first iteration.
    pub poison_volume: Option<usize>,
    /// `(rank, cycle)` kill list: each listed rank dies abruptly at the
    /// top of that cycle (an exact match against the completed-cycle
    /// count) — its links drop without a `Bye`, as a killed process
    /// would. The `--respawn` launcher consumes one entry per recovery
    /// attempt; a single run honours every entry it reaches.
    pub die_at: Vec<(usize, u64)>,
    /// The rank is killed *before the TCP handshake*: it never dials the
    /// bootstrap, so the survivors' accepts and dials must time out with a
    /// typed error within the configured deadline (TCP loopback only; the
    /// in-process channel mesh has no handshake to kill).
    pub die_at_handshake: Option<usize>,
    /// `(rank, millis)`: the rank sleeps that long at the top of every
    /// step, before its phases — a controlled straggler for exercising
    /// the live telemetry detector.
    pub slow_rank: Option<(usize, u64)>,
}

impl FaultPlan {
    /// No faults.
    pub const NONE: FaultPlan = FaultPlan {
        poison_volume: None,
        die_at: Vec::new(),
        die_at_handshake: None,
        slow_rank: None,
    };

    /// Does the plan kill `rank` at the top of `cycle`?
    pub fn dies_at(&self, rank: usize, cycle: u64) -> bool {
        self.die_at.iter().any(|&(r, c)| r == rank && c == cycle)
    }
}

/// Checkpoint/resume wiring for the rank loop. Default:
/// fully off — zero cost on the hot path.
#[derive(Debug, Clone, Default)]
pub struct ResilPlan {
    /// Periodic checkpointing: every rank hands an encoded
    /// [`resil::DomainSnapshot`] to an async writer thread every
    /// `period` cycles (top of the loop, before fault injection).
    pub ckpt: Option<resil::CkptConfig>,
    /// Resume from the checkpoint wave at this cycle: every rank loads
    /// its snapshot from `ckpt.dir` instead of starting at cycle 0
    /// (requires `ckpt`).
    pub resume_cycle: Option<u64>,
}

impl ResilPlan {
    /// Checkpointing fully off.
    pub const OFF: ResilPlan = ResilPlan {
        ckpt: None,
        resume_cycle: None,
    };
}

/// Live-telemetry wiring for the rank loop: streaming per-step metrics piggybacked on the dt
/// allreduce, and/or a per-rank flight recorder dumped when a rank dies.
/// The default is fully off — zero cost on the hot path.
#[derive(Clone, Default)]
pub struct LivePlan {
    /// Streaming metrics: every rank samples its [`obs::live::LiveStats`]
    /// on telemetry steps and ships the encoded [`obs::live::StepSummary`]
    /// to rank 0 inside the dt allreduce (no extra sync point); rank 0
    /// runs the online straggler detector and emits JSONL on the sink.
    pub metrics: Option<obs::live::LiveConfig>,
    /// When set, every rank keeps a fixed-size ring of recent spans and
    /// parcel events and dumps `flight.rank{R}.json` into this directory
    /// if it dies on a typed transport error or an injected fault.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl LivePlan {
    /// Telemetry fully off.
    pub const OFF: LivePlan = LivePlan {
        metrics: None,
        flight_dir: None,
    };
}

/// Best-effort flight-recorder dump — a dying rank must never turn a typed
/// transport error into an I/O panic.
pub(crate) fn dump_flight(dir: &std::path::Path, rank: usize, f: &obs::live::FlightRecorder) {
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("flight.rank{rank}.json")),
        f.dump_json(rank),
    );
}

/// The default per-receive deadline of the rank loop's transports.
pub const DEFAULT_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// The lockstep multi-domain world.
pub struct World {
    /// One subdomain per rank, in rank order.
    pub domains: Vec<Domain>,
    /// The decomposition the world was built with.
    pub decomp: Decomposition,
    plans: Vec<HaloPlan>,
    scratches: Vec<SerialScratch>,
}

impl World {
    /// Build all subdomains and perform the one-time nodal-mass exchange.
    pub fn build(
        decomp: Decomposition,
        num_reg: usize,
        balance: i32,
        cost: i32,
        seed: u64,
    ) -> Self {
        let domains: Vec<Domain> = decomp
            .shapes()
            .into_iter()
            .map(|shape| Domain::build_subdomain(shape, num_reg, balance, cost, seed))
            .collect();
        let plans: Vec<HaloPlan> = (0..decomp.ranks())
            .map(|r| HaloPlan::new(decomp.shape(r), r, &decomp.neighbors(r)))
            .collect();
        exchange::lockstep_exchange_mass(&domains, &plans);
        let scratches = domains
            .iter()
            .map(|d| SerialScratch::new(d.num_elem()))
            .collect();
        Self {
            domains,
            decomp,
            plans,
            scratches,
        }
    }

    /// Advance the whole world one `LagrangeLeapFrog` iteration.
    pub fn step(&mut self, state: &mut SimState) -> Result<(), LuleshError> {
        let dt = state.deltatime;

        // Phase 1: element forces on every rank, then halo-sum the
        // boundary-surface forces (CommSBN).
        for (d, s) in self.domains.iter().zip(&mut self.scratches) {
            calc_force_for_nodes(d, s)?;
        }
        exchange::lockstep_exchange_forces(&self.domains, &self.plans);

        // Phase 2: node state advance (boundary nodes compute identical
        // values on every sharing rank — same forces, same masses).
        for d in &self.domains {
            advance_nodes(d, dt);
        }

        // Phase 3: kinematics + gradients, then ghost-region exchange
        // (CommMonoQ).
        for d in &self.domains {
            calc_kinematics_and_gradients(d, dt)?;
        }
        exchange::lockstep_exchange_gradients(&self.domains, &self.plans);

        // Phase 4: q limiter, EOS, volume commit.
        for (d, s) in self.domains.iter().zip(&mut self.scratches) {
            apply_q_and_materials(d, s)?;
        }

        // dt constraints: min-allreduce across ranks.
        let mut dtcourant: Real = 1.0e20;
        let mut dthydro: Real = 1.0e20;
        for d in &self.domains {
            let (c, h) = constraints::calc_time_constraints(d, d.params.qqc, d.params.dvovmax);
            dtcourant = dtcourant.min(c);
            dthydro = dthydro.min(h);
        }
        state.dtcourant = dtcourant;
        state.dthydro = dthydro;
        Ok(())
    }

    /// Run for at most `max_cycles` iterations (or to `stoptime`).
    pub fn run(&mut self, max_cycles: u64) -> Result<SimState, LuleshError> {
        let params = self.domains[0].params;
        let mut state = SimState::new(self.domains[0].initial_dt());
        while state.time < params.stoptime && state.cycle < max_cycles {
            time_increment(&mut state, &params);
            self.step(&mut state)?;
        }
        Ok(state)
    }

    /// Maximum absolute difference of all physics fields against a
    /// single-domain solution of the same global problem. Boundary nodes
    /// are compared on every owning rank.
    pub fn max_difference_vs_single(&self, single: &Domain) -> Real {
        let mut max: Real = 0.0;
        for (r, d) in self.domains.iter().enumerate() {
            for e in 0..d.num_elem() {
                let g = self.decomp.global_elem(r, e);
                max = max.max((d.e(e) - single.e(g)).abs());
                max = max.max((d.p(e) - single.p(g)).abs());
                max = max.max((d.q(e) - single.q(g)).abs());
                max = max.max((d.v(e) - single.v(g)).abs());
                max = max.max((d.ss(e) - single.ss(g)).abs());
            }
            for n in 0..d.num_node() {
                let g = self.decomp.global_node(r, n);
                max = max.max((d.x(n) - single.x(g)).abs());
                max = max.max((d.y(n) - single.y(g)).abs());
                max = max.max((d.z(n) - single.z(g)).abs());
                max = max.max((d.xd(n) - single.xd(g)).abs());
                max = max.max((d.yd(n) - single.yd(g)).abs());
                max = max.max((d.zd(n) - single.zd(g)).abs());
            }
        }
        max
    }

    /// Maximum absolute mismatch of duplicated boundary-node state across
    /// every pair of adjacent ranks — faces, edges and corners alike (must
    /// be exactly zero: every sharer computes identical values).
    pub fn interface_mismatch(&self) -> Real {
        let mut max: Real = 0.0;
        for (r, plan) in self.plans.iter().enumerate() {
            let d = &self.domains[r];
            for link in plan.links() {
                if link.rank < r {
                    continue; // each pair checked once
                }
                let nd = &self.domains[link.rank];
                let theirs = exchange::dir_nodes(&nd.shape(), dir::opposite(link.dir));
                for (&a, &b) in link.nodes.iter().zip(&theirs) {
                    max = max.max((d.x(a) - nd.x(b)).abs());
                    max = max.max((d.xd(a) - nd.xd(b)).abs());
                    max = max.max((d.y(a) - nd.y(b)).abs());
                    max = max.max((d.yd(a) - nd.yd(b)).abs());
                    max = max.max((d.z(a) - nd.z(b)).abs());
                    max = max.max((d.zd(a) - nd.zd(b)).abs());
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::serial;

    #[test]
    fn one_rank_world_is_bitwise_the_single_domain() {
        let mut world = World::build(Decomposition::new(6, 1), 3, 1, 1, 0);
        let single = Domain::build(6, 3, 1, 1, 0);
        let st_w = world.run(15).unwrap();
        let st_s = serial::run(&single, 15).unwrap();
        assert_eq!(st_w.cycle, st_s.cycle);
        assert_eq!(st_w.time, st_s.time);
        assert_eq!(world.max_difference_vs_single(&single), 0.0);
    }

    #[test]
    fn two_ranks_match_single_domain_closely() {
        let mut world = World::build(Decomposition::new(8, 2), 4, 1, 1, 0);
        let single = Domain::build(8, 4, 1, 1, 0);
        // Region decomposition differs per rank (each rank decomposes its
        // own elements), so the material *rep* pattern differs from the
        // single domain — but rep does not change physics, only cost.
        let st_w = world.run(30).unwrap();
        let st_s = serial::run(&single, 30).unwrap();
        assert_eq!(st_w.cycle, st_s.cycle);
        let diff = world.max_difference_vs_single(&single);
        assert!(
            diff < 1e-7,
            "decomposed vs single mismatch {diff} (only boundary-surface \
             force regrouping is allowed)"
        );
    }

    #[test]
    fn four_ranks_match_single_domain() {
        let mut world = World::build(Decomposition::new(8, 4), 2, 1, 1, 0);
        let single = Domain::build(8, 2, 1, 1, 0);
        world.run(20).unwrap();
        serial::run(&single, 20).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "4-rank mismatch {diff}");
    }

    #[test]
    fn full_grid_matches_single_domain() {
        let decomp = Decomposition::with_grid(6, Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let single = Domain::build(6, 2, 1, 1, 0);
        world.run(20).unwrap();
        serial::run(&single, 20).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "2×2×2-grid mismatch {diff}");
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn transverse_grids_match_single_domain() {
        // ξ-only and η-only decompositions exercise the non-ζ face pairs.
        for grid in [Grid3::new(2, 1, 1), Grid3::new(1, 2, 1)] {
            let decomp = Decomposition::with_grid(6, grid);
            let mut world = World::build(decomp, 2, 1, 1, 0);
            let single = Domain::build(6, 2, 1, 1, 0);
            world.run(20).unwrap();
            serial::run(&single, 20).unwrap();
            let diff = world.max_difference_vs_single(&single);
            assert!(diff < 1e-7, "{grid:?} mismatch {diff}");
        }
    }

    #[test]
    fn minimal_subbricks_match_single_domain() {
        // 1×1×1 sub-bricks: the degenerate size where every node sits on
        // a boundary surface (regression for minimal-size arithmetic).
        let decomp = Decomposition::with_grid(2, Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 1, 1, 1, 0);
        let single = Domain::build(2, 1, 1, 1, 0);
        world.run(10).unwrap();
        serial::run(&single, 10).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "1-elem-brick mismatch {diff}");
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn interface_nodes_stay_bit_identical_across_ranks() {
        let mut world = World::build(Decomposition::new(8, 2), 3, 1, 1, 0);
        world.run(40).unwrap();
        assert_eq!(
            world.interface_mismatch(),
            0.0,
            "duplicated nodes must not drift"
        );
    }

    #[test]
    fn grid_interface_nodes_stay_bit_identical() {
        let decomp = Decomposition::with_grid(4, Grid3::new(2, 2, 1));
        let mut world = World::build(decomp, 3, 1, 1, 0);
        world.run(30).unwrap();
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn mass_is_conserved_across_the_decomposition() {
        for grid in [Grid3::new(1, 1, 3), Grid3::new(2, 2, 2)] {
            let size = 6;
            let decomp = Decomposition::with_grid(size, grid);
            let world = World::build(decomp, 2, 1, 1, 0);
            // Sum nodal masses counting every global node once.
            let mut seen = std::collections::BTreeSet::new();
            let mut total: Real = 0.0;
            for (r, d) in world.domains.iter().enumerate() {
                for n in 0..d.num_node() {
                    if seen.insert(decomp.global_node(r, n)) {
                        total += d.nodal_mass(n);
                    }
                }
            }
            let extent = lulesh_core::params::MESH_EXTENT;
            assert!(
                (total - extent * extent * extent).abs() < 1e-9,
                "{grid:?}: total mass {total}"
            );
        }
    }

    #[test]
    fn energy_deposited_once() {
        let decomp = Decomposition::with_grid(6, Grid3::new(2, 2, 2));
        let world = World::build(decomp, 2, 1, 1, 0);
        let with_energy: usize = world
            .domains
            .iter()
            .map(|d| (0..d.num_elem()).filter(|&e| d.e(e) != 0.0).count())
            .sum();
        assert_eq!(
            with_energy, 1,
            "exactly one element carries the blast energy"
        );
        assert!(world.domains[0].e(0) > 0.0);
        assert_eq!(world.domains[1].e(0), 0.0);
    }

    #[test]
    fn decomposition_validations() {
        let d = Decomposition::new(12, 3);
        assert_eq!(d.shape(0).nz, 4);
        assert_eq!(d.shape(2).z_offset, 8);
        assert_eq!(d.global_elem(1, 0), 4 * 12 * 12);
        assert_eq!(d.global_node(2, 5), 8 * 13 * 13 + 5);

        let g = Decomposition::with_grid(12, Grid3::new(2, 3, 2));
        let s = g.shape(g.grid().rank_at(1, 2, 1));
        assert_eq!((s.nx, s.ny, s.nz), (6, 4, 6));
        assert_eq!((s.x_offset, s.y_offset, s.z_offset), (6, 8, 6));
        // Global indices round-trip through brick coordinates.
        assert_eq!(g.global_elem(0, 0), 0);
        let r = g.grid().rank_at(1, 0, 0);
        assert_eq!(g.global_elem(r, 0), 6);
        assert_eq!(g.global_node(r, 0), 6);
    }

    #[test]
    fn grid_neighbors_are_symmetric_and_complete() {
        let grid = Grid3::new(2, 3, 2);
        for r in 0..grid.ranks() {
            let (ix, iy, iz) = grid.coords(r);
            assert_eq!(grid.rank_at(ix, iy, iz), r);
            for (nr, d) in grid.neighbors(r) {
                let back = grid.neighbors(nr);
                assert!(
                    back.contains(&(r, dir::opposite(d))),
                    "rank {nr} must link back to {r}"
                );
            }
        }
        // A corner rank of 2×2×2 sees 7 neighbours; the full 26 only
        // appears for interior ranks (3×3×3 centre).
        assert_eq!(Grid3::new(2, 2, 2).neighbors(0).len(), 7);
        let g3 = Grid3::new(3, 3, 3);
        assert_eq!(g3.neighbors(g3.rank_at(1, 1, 1)).len(), 26);
    }

    #[test]
    #[should_panic(expected = "ranks must divide")]
    fn indivisible_decomposition_rejected() {
        let _ = Decomposition::new(7, 2);
    }

    #[test]
    #[should_panic(expected = "ranks must divide")]
    fn indivisible_grid_axis_rejected() {
        let _ = Decomposition::with_grid(6, Grid3::new(4, 1, 1));
    }
}
