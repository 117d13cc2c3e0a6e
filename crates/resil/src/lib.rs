//! Resilience for the multi-domain rank loop: checkpoint/restart.
//!
//! Typed [`parcelnet::ParcelError`]s and fault plans *detect* a dead rank;
//! this crate lets the job recover from one:
//!
//! * [`DomainSnapshot`] is a versioned, checksummed serialization of one
//!   rank's domain partition (every SoA array live at the top of the
//!   step loop, plus the cycle/dt state) in the same flat-`Real` style
//!   as `obs::live::StepSummary`, written to `--ckpt-dir` files.
//! * [`CkptWriter`] is the asynchronous writer thread: the step loop
//!   hands it an encoded snapshot and keeps simulating; file I/O (atomic
//!   tmp+rename, like the bench harness's baseline writes) happens off
//!   the critical path, mirroring parcelnet's TCP writer-thread split.
//! * [`latest_consistent_cycle`] implements the recovery rule: roll back
//!   to the newest cycle for which **every** rank has a
//!   checksum-valid snapshot (a partial checkpoint wave must never be
//!   resumed from).
//!
//! Determinism is the load-bearing property: restoring a snapshot and
//! re-running yields **bit-identical** trajectories, because the
//! snapshot captures the step loop's complete top-of-loop state and the
//! physics is deterministic. The failure-injection suite asserts final
//! energies equal to an uninterrupted run after kill → respawn → resume.

#![warn(missing_docs)]

use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;
use lulesh_core::types::Real;
use parcelnet::{fnv1a64, Tag};
use std::path::{Path, PathBuf};

/// Version stamped first into every snapshot; bump on layout changes.
/// v2 dropped the 21 scratch arrays (see [`for_each_snapshot_field`]'s
/// liveness note) — a v1 file is rejected as [`SnapshotError::SchemaMismatch`].
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// Magic word stored after the version: the checkpoint parcel tag's wire
/// code, so a stray file is rejected as a type error rather than decoded
/// as garbage.
pub const SNAPSHOT_MAGIC: u64 = Tag::Ckpt.to_u32() as u64;

/// Scalar header slots before the flat arrays (see [`DomainSnapshot::encode`]).
const HEADER_LEN: usize = 13;

/// Node-, element-, and gradient-length arrays captured per snapshot.
/// Only the arrays *live* at the top of the step loop are stored; the
/// gradient arrays are pure intra-cycle scratch, so none are captured
/// (the `grad_len` header slot remains as a shape check).
const NODE_ARRAYS: usize = 7;
const ELEM_ARRAYS: usize = 7;
const GRAD_ARRAYS: usize = 0;

/// Total SoA arrays in a snapshot, in fixed capture order.
pub const ARRAY_COUNT: usize = NODE_ARRAYS + ELEM_ARRAYS + GRAD_ARRAYS;

/// Typed snapshot failures: a truncated or bit-flipped checkpoint must
/// surface as one of these, never as a corrupt resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is shorter than its header claims.
    Truncated {
        /// Values (or bytes, for [`DomainSnapshot::from_bytes`]) required.
        need: usize,
        /// Values (or bytes) present.
        got: usize,
    },
    /// The trailing FNV-1a64 checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// The snapshot was written by a different schema version.
    SchemaMismatch {
        /// Version found in the header.
        got: u64,
    },
    /// The magic word is wrong: not a snapshot at all.
    BadMagic {
        /// Value found where [`SNAPSHOT_MAGIC`] belongs.
        got: u64,
    },
    /// The snapshot's mesh extents do not match the restore target.
    ShapeMismatch,
    /// The snapshot's region fingerprint does not match the rebuilt
    /// domain (different `--numReg`/balance/cost/seed).
    RegionMismatch,
    /// Filesystem failure reading or writing a snapshot.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { need, got } => {
                write!(f, "snapshot truncated: need {need}, got {got}")
            }
            SnapshotError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
                )
            }
            SnapshotError::SchemaMismatch { got } => {
                write!(
                    f,
                    "snapshot schema {got} (this build reads {SNAPSHOT_SCHEMA_VERSION})"
                )
            }
            SnapshotError::BadMagic { got } => {
                write!(
                    f,
                    "not a snapshot: magic {got:#x} (expected {SNAPSHOT_MAGIC:#x})"
                )
            }
            SnapshotError::ShapeMismatch => write!(f, "snapshot mesh extents do not match target"),
            SnapshotError::RegionMismatch => {
                write!(f, "snapshot region assignment does not match target domain")
            }
            SnapshotError::Io(k) => write!(f, "snapshot I/O failure: {k:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

/// Fingerprint of a domain's region assignment (FNV-1a64 over the
/// per-element region numbers). Regions are rebuilt deterministically
/// from the CLI seed on restore, so the snapshot stores this fingerprint
/// instead of the full lists and [`DomainSnapshot::restore`] verifies
/// the rebuilt domain matches.
pub fn region_fingerprint(d: &Domain) -> u64 {
    let mut bytes = Vec::with_capacity(d.regions.reg_num_list.len() * 4);
    for &r in &d.regions.reg_num_list {
        bytes.extend_from_slice(&r.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// A versioned, checksummed serialization of one rank's domain
/// partition: every SoA array that is live at the top of the step loop,
/// plus the loop's [`SimState`]. Connectivity, symmetry lists, and
/// region lists are *not* stored — `Domain::build_subdomain` rebuilds
/// them deterministically from the decomposition, and the region
/// fingerprint in the header verifies the rebuild matches. Intra-cycle
/// scratch arrays are not stored either (see
/// [`for_each_snapshot_field`]): the first post-restore cycle rewrites
/// them before reading, so the trajectory is still bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSnapshot {
    /// The rank that owned this partition at capture time.
    pub rank: usize,
    /// Completed cycles at capture (top of the step loop).
    pub cycle: u64,
    /// Simulation time.
    pub time: Real,
    /// Current time increment.
    pub deltatime: Real,
    /// Courant constraint from the previous step.
    pub dtcourant: Real,
    /// Hydro constraint from the previous step.
    pub dthydro: Real,
    /// Nodes in the partition.
    pub num_node: usize,
    /// Elements in the partition.
    pub num_elem: usize,
    /// Gradient-array length (elements + ghost planes).
    pub grad_len: usize,
    /// [`region_fingerprint`] of the source domain.
    pub region_fp: u64,
    /// The [`ARRAY_COUNT`] SoA arrays, in fixed capture order.
    pub arrays: Vec<Vec<Real>>,
}

/// Apply `$f!(len, getter, setter)` to every captured array in capture
/// order — the one place the field list lives.
///
/// Only arrays **live at the top of the step loop** are captured. Every
/// cycle writes the rest before its first read, so a restored domain
/// regenerates them on its first post-resume cycle and the trajectory
/// stays bit-identical (asserted end-to-end by the failure-injection
/// suite):
///
/// * `fx/fy/fz` — `zero_forces` clears them before stress integration;
/// * `xdd/ydd/zdd` — recomputed from the fresh forces in `advance_nodes`;
/// * `vnew/delv/vdov/arealg/dxx/dyy/dzz` — kinematics scratch;
/// * `delx_*`/`delv_*` — monotonic-q gradients, rebuilt (and re-exchanged)
///   each cycle before the q calculation reads them;
/// * `ql/qq` — written by the q region pass just before the EOS consumes
///   them.
///
/// Skipping the 21 dead arrays shrinks a snapshot by ~60%, which is what keeps the armed
/// checkpointing cost inside the regress harness's CPU budget.
macro_rules! for_each_snapshot_field {
    ($f:ident, $nn:expr, $ne:expr, $ng:expr) => {
        $f!($nn, x, set_x);
        $f!($nn, y, set_y);
        $f!($nn, z, set_z);
        $f!($nn, xd, set_xd);
        $f!($nn, yd, set_yd);
        $f!($nn, zd, set_zd);
        $f!($nn, nodal_mass, set_nodal_mass);
        $f!($ne, e, set_e);
        $f!($ne, p, set_p);
        $f!($ne, q, set_q);
        $f!($ne, v, set_v);
        $f!($ne, volo, set_volo);
        $f!($ne, ss, set_ss);
        $f!($ne, elem_mass, set_elem_mass);
    };
}

impl DomainSnapshot {
    /// Capture `rank`'s partition at the top of the step loop. Restoring
    /// this snapshot into a freshly built domain and re-entering the loop
    /// reproduces the remaining cycles bit-identically.
    pub fn capture(rank: usize, d: &Domain, state: &SimState) -> Self {
        let nn = d.num_node();
        let ne = d.num_elem();
        let ng = d.shape().grad_len();
        let mut arrays = Vec::with_capacity(ARRAY_COUNT);
        macro_rules! grab {
            ($len:expr, $get:ident, $set:ident) => {
                arrays.push((0..$len).map(|i| d.$get(i)).collect());
            };
        }
        for_each_snapshot_field!(grab, nn, ne, ng);
        Self {
            rank,
            cycle: state.cycle,
            time: state.time,
            deltatime: state.deltatime,
            dtcourant: state.dtcourant,
            dthydro: state.dthydro,
            num_node: nn,
            num_elem: ne,
            grad_len: ng,
            region_fp: region_fingerprint(d),
            arrays,
        }
    }

    /// Write every array back into `d` (which must have been rebuilt
    /// with the same shape and region parameters) and return the
    /// [`SimState`] to resume from. Shape or region mismatches are typed
    /// errors; nothing is written before both checks pass.
    pub fn restore(&self, d: &Domain) -> Result<SimState, SnapshotError> {
        if d.num_node() != self.num_node
            || d.num_elem() != self.num_elem
            || d.shape().grad_len() != self.grad_len
        {
            return Err(SnapshotError::ShapeMismatch);
        }
        if region_fingerprint(d) != self.region_fp {
            return Err(SnapshotError::RegionMismatch);
        }
        let mut it = self.arrays.iter();
        macro_rules! put {
            ($len:expr, $get:ident, $set:ident) => {
                let a = it.next().expect("snapshot holds ARRAY_COUNT arrays");
                for (i, &v) in a.iter().enumerate() {
                    d.$set(i, v);
                }
            };
        }
        for_each_snapshot_field!(put, 0, 0, 0);
        Ok(SimState {
            time: self.time,
            deltatime: self.deltatime,
            cycle: self.cycle,
            dtcourant: self.dtcourant,
            dthydro: self.dthydro,
        })
    }

    /// Values in the flat encoding for these extents.
    fn encoded_len(num_node: usize, num_elem: usize, grad_len: usize) -> usize {
        HEADER_LEN + NODE_ARRAYS * num_node + ELEM_ARRAYS * num_elem + GRAD_ARRAYS * grad_len
    }

    /// Flat-`Real` encoding (the `StepSummary` idiom): a fixed scalar
    /// header — version, magic, rank, cycle, the four dt-state fields,
    /// the three extents, the region fingerprint split into two 32-bit
    /// halves (a u64 does not round-trip through one f64) — followed by
    /// every array. All integer fields are far below 2^53, and `Real`
    /// fields are stored as themselves, so the encoding is exact.
    pub fn encode(&self) -> Vec<Real> {
        let mut v = Vec::with_capacity(Self::encoded_len(
            self.num_node,
            self.num_elem,
            self.grad_len,
        ));
        v.push(SNAPSHOT_SCHEMA_VERSION as Real);
        v.push(SNAPSHOT_MAGIC as Real);
        v.push(self.rank as Real);
        v.push(self.cycle as Real);
        v.push(self.time);
        v.push(self.deltatime);
        v.push(self.dtcourant);
        v.push(self.dthydro);
        v.push(self.num_node as Real);
        v.push(self.num_elem as Real);
        v.push(self.grad_len as Real);
        v.push((self.region_fp >> 32) as u32 as Real);
        v.push(self.region_fp as u32 as Real);
        for a in &self.arrays {
            v.extend_from_slice(a);
        }
        v
    }

    /// Decode [`encode`](Self::encode)'s output; every malformation is a
    /// typed [`SnapshotError`].
    pub fn decode(p: &[Real]) -> Result<Self, SnapshotError> {
        if p.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                need: HEADER_LEN,
                got: p.len(),
            });
        }
        if p[0] as u64 != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch { got: p[0] as u64 });
        }
        if p[1] as u64 != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { got: p[1] as u64 });
        }
        let num_node = p[8] as usize;
        let num_elem = p[9] as usize;
        let grad_len = p[10] as usize;
        let need = Self::encoded_len(num_node, num_elem, grad_len);
        if p.len() != need {
            return Err(SnapshotError::Truncated { need, got: p.len() });
        }
        let region_fp = ((p[11] as u32 as u64) << 32) | (p[12] as u32 as u64);
        let mut arrays = Vec::with_capacity(ARRAY_COUNT);
        let mut off = HEADER_LEN;
        let lens = [num_node; NODE_ARRAYS]
            .into_iter()
            .chain([num_elem; ELEM_ARRAYS])
            .chain([grad_len; GRAD_ARRAYS]);
        for len in lens {
            arrays.push(p[off..off + len].to_vec());
            off += len;
        }
        Ok(Self {
            rank: p[2] as usize,
            cycle: p[3] as u64,
            time: p[4],
            deltatime: p[5],
            dtcourant: p[6],
            dthydro: p[7],
            num_node,
            num_elem,
            grad_len,
            region_fp,
            arrays,
        })
    }

    /// Serialize the on-disk form into `out` (cleared first): the flat
    /// encoding as little-endian f64 bytes (bit exact for every value,
    /// NaN payloads included) with a word-folded FNV-1a64 checksum
    /// appended. One pass over the state — the checksum folds each
    /// value's bit pattern as it is written, so there is no intermediate
    /// `Vec<Real>` and no second byte-wise hashing sweep (both showed up
    /// at ~0.5 MB per snapshot wave). Callers that write repeatedly
    /// (the [`CkptWriter`] thread) reuse one buffer to avoid re-faulting
    /// fresh pages on every checkpoint.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(Self::encoded_len(self.num_node, self.num_elem, self.grad_len) * 8 + 8);
        let mut sum = FNV_OFFSET;
        let header: [Real; HEADER_LEN] = [
            SNAPSHOT_SCHEMA_VERSION as Real,
            SNAPSHOT_MAGIC as Real,
            self.rank as Real,
            self.cycle as Real,
            self.time,
            self.deltatime,
            self.dtcourant,
            self.dthydro,
            self.num_node as Real,
            self.num_elem as Real,
            self.grad_len as Real,
            (self.region_fp >> 32) as u32 as Real,
            self.region_fp as u32 as Real,
        ];
        for v in header {
            sum = fold_word(sum, v.to_bits());
            out.extend_from_slice(&v.to_le_bytes());
        }
        for a in &self.arrays {
            for &v in a {
                sum = fold_word(sum, v.to_bits());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// [`write_bytes_into`](Self::write_bytes_into) into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes_into(&mut out);
        out
    }

    /// Parse [`to_bytes`](Self::to_bytes): checksum first (a bit flip
    /// anywhere in the payload is a [`SnapshotError::ChecksumMismatch`]),
    /// then decode.
    pub fn from_bytes(b: &[u8]) -> Result<Self, SnapshotError> {
        if b.len() < 16 || !(b.len() - 8).is_multiple_of(8) {
            return Err(SnapshotError::Truncated {
                need: 16,
                got: b.len(),
            });
        }
        let (payload, sum_bytes) = b.split_at(b.len() - 8);
        let expected = u64::from_le_bytes(sum_bytes.try_into().expect("8 checksum bytes"));
        let got = payload_checksum(payload);
        if expected != got {
            return Err(SnapshotError::ChecksumMismatch { expected, got });
        }
        let vals: Vec<Real> = payload
            .chunks_exact(8)
            .map(|c| Real::from_le_bytes(c.try_into().expect("8-byte chunks")))
            .collect();
        Self::decode(&vals)
    }
}

/// FNV-1a64 basis and prime (the same constants `parcelnet::fnv1a64`
/// uses byte-wise).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round over a whole 64-bit word. xor-then-multiply
/// propagates any flipped bit into the running hash, so single-bit-flip
/// detection is preserved, while folding 8 bytes per multiply makes the
/// checksum pass ~8x cheaper than the byte-wise variant — measurable
/// when every checkpoint wave hashes hundreds of kilobytes.
#[inline]
fn fold_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The snapshot checksum: word-folded FNV-1a64 over the payload, which
/// is always whole little-endian f64 values (so exactly the fold of
/// every value's bit pattern that [`DomainSnapshot::write_bytes_into`]
/// computes while serializing).
fn payload_checksum(payload: &[u8]) -> u64 {
    payload.chunks_exact(8).fold(FNV_OFFSET, |h, c| {
        fold_word(h, u64::from_le_bytes(c.try_into().expect("8-byte chunks")))
    })
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Where and how often to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptConfig {
    /// Directory snapshot files land in (created on first write).
    pub dir: PathBuf,
    /// Checkpoint every `period` cycles (cycle 0 included, so a death
    /// before the first period still has a consistent wave to resume
    /// from).
    pub period: u64,
}

impl CkptConfig {
    /// A config checkpointing to `dir` every `period` cycles.
    pub fn new(dir: impl Into<PathBuf>, period: u64) -> Self {
        Self {
            dir: dir.into(),
            period: period.max(1),
        }
    }
}

/// The snapshot file for `(rank, cycle)` under `dir`.
pub fn snapshot_path(dir: &Path, rank: usize, cycle: u64) -> PathBuf {
    dir.join(format!("ckpt-r{rank:04}-c{cycle:08}.bin"))
}

/// Parse a [`snapshot_path`] file name back into `(rank, cycle)`.
fn parse_snapshot_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("ckpt-r")?.strip_suffix(".bin")?;
    let (rank, cycle) = rest.split_once("-c")?;
    Some((rank.parse().ok()?, cycle.parse().ok()?))
}

/// Write one snapshot atomically (tmp + rename, the same idiom the bench
/// harness uses for its baseline): a crash mid-write leaves no
/// half-written file that [`latest_consistent_cycle`] could trust.
pub fn write_snapshot(dir: &Path, snap: &DomainSnapshot, cycle: u64) -> Result<(), SnapshotError> {
    write_snapshot_buffered(dir, snap, cycle, &mut Vec::new())
}

/// [`write_snapshot`] serializing through a caller-owned buffer, so a
/// long-lived writer ([`CkptWriter`]) touches the same pages every wave
/// instead of faulting in a fresh half-megabyte allocation per file.
pub fn write_snapshot_buffered(
    dir: &Path,
    snap: &DomainSnapshot,
    cycle: u64,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let path = snapshot_path(dir, snap.rank, cycle);
    let tmp = path.with_extension("tmp");
    snap.write_bytes_into(buf);
    std::fs::write(&tmp, &*buf)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Load and fully validate the snapshot for `(rank, cycle)`.
pub fn load_snapshot(dir: &Path, rank: usize, cycle: u64) -> Result<DomainSnapshot, SnapshotError> {
    let bytes = std::fs::read(snapshot_path(dir, rank, cycle))?;
    DomainSnapshot::from_bytes(&bytes)
}

/// The newest cycle for which **every** rank `0..ranks` has a
/// checksum-valid snapshot in `dir` — the only cycles a coordinated
/// restart may resume from. A missing directory or an interrupted
/// checkpoint wave simply doesn't qualify; `None` means restart from
/// scratch.
pub fn latest_consistent_cycle(dir: &Path, ranks: usize) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut per_cycle: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for entry in entries.flatten() {
        let name = entry.file_name();
        if let Some((rank, cycle)) = parse_snapshot_name(&name.to_string_lossy()) {
            per_cycle.entry(cycle).or_default().push(rank);
        }
    }
    per_cycle
        .into_iter()
        .rev()
        .find(|(cycle, present)| {
            (0..ranks).all(|r| present.contains(&r) && load_snapshot(dir, r, *cycle).is_ok())
        })
        .map(|(cycle, _)| cycle)
}

// ---------------------------------------------------------------------------
// Asynchronous checkpoint writer
// ---------------------------------------------------------------------------

/// The checkpoint writer thread: the step loop submits encoded
/// snapshots and keeps simulating; serialization-to-bytes and file I/O
/// happen here, off the critical path — the same split parcelnet's TCP
/// transport uses for frame serialization. Dropping (or
/// [`finish`](Self::finish)ing) the writer flushes every pending write,
/// so a rank that dies with an error still lands its last wave.
pub struct CkptWriter {
    tx: Option<std::sync::mpsc::Sender<(DomainSnapshot, u64)>>,
    handle: Option<std::thread::JoinHandle<usize>>,
}

impl CkptWriter {
    /// Spawn the writer for `dir` (created eagerly so a bad path fails
    /// at startup, not at the first checkpoint).
    pub fn spawn(dir: &Path) -> Result<Self, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let dir = dir.to_path_buf();
        let (tx, rx) = std::sync::mpsc::channel::<(DomainSnapshot, u64)>();
        let handle = std::thread::Builder::new()
            .name("ckpt-writer".into())
            .spawn(move || {
                let mut failures = 0usize;
                let mut buf = Vec::new();
                while let Ok((snap, cycle)) = rx.recv() {
                    if write_snapshot_buffered(&dir, &snap, cycle, &mut buf).is_err() {
                        failures += 1;
                    }
                }
                failures
            })
            .map_err(|e| SnapshotError::Io(e.kind()))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
        })
    }

    /// Queue one snapshot for writing; returns immediately.
    pub fn submit(&self, snap: DomainSnapshot, cycle: u64) {
        if let Some(tx) = &self.tx {
            // A dead writer thread is reported by `finish`, not here.
            let _ = tx.send((snap, cycle));
        }
    }

    /// Flush every pending write and return how many failed.
    pub fn finish(mut self) -> usize {
        self.tx.take();
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(usize::MAX))
            .unwrap_or(0)
    }
}

impl Drop for CkptWriter {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_snapshot(rank: usize, seed: u64) -> DomainSnapshot {
        let d = Domain::build(3, 2, 1, 1, seed);
        let mut state = SimState::new(d.initial_dt());
        state.cycle = 17;
        state.time = 0.125;
        DomainSnapshot::capture(rank, &d, &state)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("resil-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn capture_restore_roundtrip_is_bit_identical() {
        let d = Domain::build(3, 2, 1, 1, 9);
        let mut state = SimState::new(d.initial_dt());
        state.cycle = 5;
        state.dtcourant = 3.5e-4;
        let snap = DomainSnapshot::capture(0, &d, &state);
        assert_eq!(snap.arrays.len(), ARRAY_COUNT);

        let fresh = Domain::build(3, 2, 1, 1, 9);
        let restored = snap.restore(&fresh).expect("restore");
        assert_eq!(restored, state);
        for i in 0..d.num_node() {
            assert_eq!(d.x(i).to_bits(), fresh.x(i).to_bits());
            assert_eq!(d.nodal_mass(i).to_bits(), fresh.nodal_mass(i).to_bits());
        }
        for i in 0..d.num_elem() {
            assert_eq!(d.e(i).to_bits(), fresh.e(i).to_bits());
        }
    }

    #[test]
    fn restore_rejects_wrong_shape_and_regions() {
        let snap = test_snapshot(0, 7);
        let other_shape = Domain::build(4, 2, 1, 1, 7);
        assert_eq!(
            snap.restore(&other_shape),
            Err(SnapshotError::ShapeMismatch)
        );
        let other_seed = Domain::build(3, 11, 1, 1, 123);
        assert_eq!(
            snap.restore(&other_seed),
            Err(SnapshotError::RegionMismatch)
        );
    }

    #[test]
    fn byte_roundtrip_and_corruption_detection() {
        let snap = test_snapshot(2, 3);
        let bytes = snap.to_bytes();
        assert_eq!(DomainSnapshot::from_bytes(&bytes).expect("roundtrip"), snap);

        // One flipped bit anywhere in the payload is a checksum error.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        assert!(matches!(
            DomainSnapshot::from_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation is typed too (cut to a multiple of 8 so the length
        // check alone doesn't catch it — the checksum must).
        let cut = &bytes[..bytes.len() - 64];
        assert!(matches!(
            DomainSnapshot::from_bytes(cut),
            Err(SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_schema_and_magic() {
        let snap = test_snapshot(0, 1);
        let mut vals = snap.encode();
        vals[0] = 99.0;
        assert_eq!(
            DomainSnapshot::decode(&vals),
            Err(SnapshotError::SchemaMismatch { got: 99 })
        );
        let mut vals = snap.encode();
        vals[1] = 4.0;
        assert_eq!(
            DomainSnapshot::decode(&vals),
            Err(SnapshotError::BadMagic { got: 4 })
        );
    }

    #[test]
    fn consistent_cycle_requires_every_rank() {
        let dir = tmpdir("consistency");
        let ranks = 3;
        for cycle in [0u64, 10, 20] {
            for rank in 0..ranks {
                if cycle == 20 && rank == 1 {
                    continue; // interrupted wave: rank 1 never landed 20
                }
                write_snapshot(&dir, &test_snapshot(rank, rank as u64), cycle).expect("write");
            }
        }
        assert_eq!(latest_consistent_cycle(&dir, ranks), Some(10));

        // A corrupt member disqualifies its whole wave.
        let p = snapshot_path(&dir, 2, 10);
        let mut bytes = std::fs::read(&p).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&p, bytes).expect("rewrite");
        assert_eq!(latest_consistent_cycle(&dir, ranks), Some(0));
        assert_eq!(latest_consistent_cycle(&dir.join("missing"), ranks), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_thread_flushes_on_finish() {
        let dir = tmpdir("writer");
        let w = CkptWriter::spawn(&dir).expect("spawn");
        for cycle in [0u64, 4, 8] {
            w.submit(test_snapshot(1, 5), cycle);
        }
        assert_eq!(w.finish(), 0);
        for cycle in [0u64, 4, 8] {
            assert!(
                load_snapshot(&dir, 1, cycle).is_ok(),
                "cycle {cycle} missing"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
