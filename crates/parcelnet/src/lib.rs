//! # parcelnet — a real network transport for multi-domain LULESH
//!
//! The paper's future-work item ("extend to multi-node environments and
//! compare against MPI") needs a message layer before it needs a cluster.
//! This crate is that layer, shaped after an HPX parcelport: a [`Transport`]
//! trait for one point-to-point link carrying tagged planes of `Real`s,
//! with two implementations —
//!
//! * [`channel::ChannelTransport`] — the in-process crossbeam channels the
//!   `multidom` drivers always used, now behind the trait (zero behavior
//!   change, plus a recv deadline);
//! * [`tcp::TcpTransport`] — length-prefixed binary frames over loopback or
//!   real sockets, with a rank/sequence/tag header, an FNV-1a payload
//!   checksum, a rank handshake at connect, and a bootstrap that gathers
//!   every rank's listener address through rank 0 (no port arithmetic).
//!
//! Ranks are wired as an arbitrary neighbour graph (a 1-D ζ chain or a 3-D
//! rank grid with up to 26 neighbours each); every payload-carrying tag
//! names the [`dir`]ection it travels in, so concurrent per-neighbour sends
//! over one link never alias.
//!
//! The failure model is typed and total: every operation returns
//! [`ParcelError`] (peer closed, timeout, checksum mismatch, protocol
//! violation), every receive is bounded by a deadline, and the dt
//! min-allreduce ([`RankNet::allreduce_dt`]) carries simulation errors so a
//! poisoned rank surfaces the *same* [`LuleshError`] on every rank instead
//! of deadlocking its neighbours — while a *dead* rank surfaces a
//! `ParcelError` on every survivor within the deadline.

#![warn(missing_docs)]

pub mod channel;
pub mod tcp;

use lulesh_core::types::{LuleshError, Real};

/// The 27 directions of a 3-D neighbour stencil, encoded as
/// `index = (dx+1) + 3·(dy+1) + 9·(dz+1)` for `dx, dy, dz ∈ {−1, 0, +1}`.
/// Index 13 is "self" and never travels on the wire. Direction names spell
/// the three components with `m`/`0`/`p` (x first): ζ− is `00m`, the
/// (+,+,+) corner is `ppp`.
pub mod dir {
    /// Number of stencil directions, including self.
    pub const COUNT: usize = 27;
    /// The "self" direction (0, 0, 0).
    pub const SELF_INDEX: usize = 13;
    /// The six face directions in ghost-layout order ξ−, ξ+, η−, η+, ζ−, ζ+.
    pub const FACES: [usize; 6] = [12, 14, 10, 16, 4, 22];
    /// ζ− (the 1-D chain's "down" link).
    pub const DOWN: usize = 4;
    /// ζ+ (the 1-D chain's "up" link).
    pub const UP: usize = 22;

    /// Direction components to stencil index.
    #[inline]
    pub fn index(dx: i32, dy: i32, dz: i32) -> usize {
        debug_assert!((-1..=1).contains(&dx) && (-1..=1).contains(&dy) && (-1..=1).contains(&dz));
        ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as usize
    }

    /// Stencil index to direction components.
    #[inline]
    pub fn components(idx: usize) -> (i32, i32, i32) {
        debug_assert!(idx < COUNT);
        (
            (idx % 3) as i32 - 1,
            ((idx / 3) % 3) as i32 - 1,
            (idx / 9) as i32 - 1,
        )
    }

    /// The opposite direction (negate every component).
    #[inline]
    pub fn opposite(idx: usize) -> usize {
        debug_assert!(idx < COUNT);
        26 - idx
    }

    /// Static direction name, e.g. `"00m"` for ζ−.
    pub fn name(idx: usize) -> &'static str {
        const NAMES: [&str; COUNT] = [
            "mmm", "0mm", "pmm", "m0m", "00m", "p0m", "mpm", "0pm", "ppm", "mm0", "0m0", "pm0",
            "m00", "000", "p00", "mp0", "0p0", "pp0", "mmp", "0mp", "pmp", "m0p", "00p", "p0p",
            "mpp", "0pp", "ppp",
        ];
        NAMES[idx]
    }
}

/// A 27-entry static-label table: `concat!` of a prefix with every
/// direction name, indexed by stencil direction.
macro_rules! dir27 {
    ($p:literal) => {
        [
            concat!($p, "mmm"),
            concat!($p, "0mm"),
            concat!($p, "pmm"),
            concat!($p, "m0m"),
            concat!($p, "00m"),
            concat!($p, "p0m"),
            concat!($p, "mpm"),
            concat!($p, "0pm"),
            concat!($p, "ppm"),
            concat!($p, "mm0"),
            concat!($p, "0m0"),
            concat!($p, "pm0"),
            concat!($p, "m00"),
            concat!($p, "000"),
            concat!($p, "p00"),
            concat!($p, "mp0"),
            concat!($p, "0p0"),
            concat!($p, "pp0"),
            concat!($p, "mmp"),
            concat!($p, "0mp"),
            concat!($p, "pmp"),
            concat!($p, "m0p"),
            concat!($p, "00p"),
            concat!($p, "p0p"),
            concat!($p, "mpp"),
            concat!($p, "0pp"),
            concat!($p, "ppp"),
        ]
    };
}

/// Phase tag carried in every frame header, so a mis-sequenced exchange is
/// detected as a protocol error instead of corrupting physics. The
/// payload-carrying phases (mass, force, gradient) additionally name the
/// stencil [`dir`]ection the frame travels in — the sender's outgoing
/// direction — so the up-to-26 concurrent per-neighbour sends of one halo
/// exchange never alias even when several ride the same link in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// One-time nodal-mass halo sum (setup `CommSBN`), with direction.
    Mass(u8),
    /// Per-iteration force halo sum (`CommSBN`), with direction.
    Force(u8),
    /// Per-iteration gradient ghost exchange (`CommMonoQ`), with direction.
    Gradient(u8),
    /// dt min-allreduce contribution or broadcast.
    Dt,
    /// Graceful shutdown: both sides exchange `Bye` before closing.
    Bye,
    /// Clock-alignment ping-pong (offset estimation over the dt star).
    Clock,
    /// Per-step live-telemetry summary, piggybacked on the dt star
    /// ([`RankNet::allreduce_dt_live`]): an encoded
    /// [`obs::live::StepSummary`] travelling leaf → root.
    Telemetry,
    /// Checkpoint framing: also doubles as the magic word of the on-disk
    /// snapshot format (`resil` stores `Tag::Ckpt.to_u32()` in the file
    /// header so a stray file is rejected as a type error, not garbage).
    Ckpt,
}

/// Wire encodings: directional tags occupy a 32-slot block per kind.
/// Scalar codes must stay below `0x100` so the directional-block masking
/// in [`Tag::from_u32`] keeps working.
const TAG_DT: u32 = 4;
const TAG_BYE: u32 = 5;
const TAG_CLOCK: u32 = 6;
const TAG_TELEMETRY: u32 = 7;
const TAG_CKPT: u32 = 11;
const TAG_MASS_BASE: u32 = 0x100;
const TAG_FORCE_BASE: u32 = 0x200;
const TAG_GRADIENT_BASE: u32 = 0x300;

static NAME_MASS: [&str; dir::COUNT] = dir27!("mass-");
static NAME_FORCE: [&str; dir::COUNT] = dir27!("force-");
static NAME_GRADIENT: [&str; dir::COUNT] = dir27!("gradient-");
static SEND_MASS: [&str; dir::COUNT] = dir27!("parcel-send-mass-");
static SEND_FORCE: [&str; dir::COUNT] = dir27!("parcel-send-force-");
static SEND_GRADIENT: [&str; dir::COUNT] = dir27!("parcel-send-gradient-");
static RECV_MASS: [&str; dir::COUNT] = dir27!("parcel-recv-mass-");
static RECV_FORCE: [&str; dir::COUNT] = dir27!("parcel-recv-force-");
static RECV_GRADIENT: [&str; dir::COUNT] = dir27!("parcel-recv-gradient-");
static WAIT_MASS: [&str; dir::COUNT] = dir27!("parcel-wait-mass-");
static WAIT_FORCE: [&str; dir::COUNT] = dir27!("parcel-wait-force-");
static WAIT_GRADIENT: [&str; dir::COUNT] = dir27!("parcel-wait-gradient-");
static SER_MASS: [&str; dir::COUNT] = dir27!("parcel-serialize-mass-");
static SER_FORCE: [&str; dir::COUNT] = dir27!("parcel-serialize-force-");
static SER_GRADIENT: [&str; dir::COUNT] = dir27!("parcel-serialize-gradient-");

impl Tag {
    /// A mass tag travelling in stencil direction `d`.
    pub fn mass(d: usize) -> Self {
        debug_assert!(d < dir::COUNT && d != dir::SELF_INDEX);
        Tag::Mass(d as u8)
    }

    /// A force tag travelling in stencil direction `d`.
    pub fn force(d: usize) -> Self {
        debug_assert!(d < dir::COUNT && d != dir::SELF_INDEX);
        Tag::Force(d as u8)
    }

    /// A gradient tag travelling in stencil direction `d`.
    pub fn gradient(d: usize) -> Self {
        debug_assert!(d < dir::COUNT && d != dir::SELF_INDEX);
        Tag::Gradient(d as u8)
    }

    /// Stable lowercase name (used in span labels and error messages);
    /// directional tags append the direction, e.g. `force-00m`.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Mass(d) => NAME_MASS[d as usize],
            Tag::Force(d) => NAME_FORCE[d as usize],
            Tag::Gradient(d) => NAME_GRADIENT[d as usize],
            Tag::Dt => "dt",
            Tag::Bye => "bye",
            Tag::Clock => "clock",
            Tag::Telemetry => "telemetry",
            Tag::Ckpt => "ckpt",
        }
    }

    /// The [`obs::live::TAG_CLASSES`] index this tag's counters land in.
    /// Slot 7 (`migrate`) has no tag any more; it stays so the telemetry
    /// frame layout does not change.
    pub fn class(self) -> usize {
        match self {
            Tag::Mass(_) => 0,
            Tag::Force(_) => 1,
            Tag::Gradient(_) => 2,
            Tag::Dt => 3,
            Tag::Bye => 4,
            Tag::Clock => 5,
            Tag::Telemetry => 6,
            Tag::Ckpt => 8,
        }
    }

    /// Wire encoding of this tag (`const` so dependents can embed codes
    /// in their own formats — `resil` uses `Tag::Ckpt`'s code as the
    /// snapshot-file magic word).
    pub const fn to_u32(self) -> u32 {
        match self {
            Tag::Mass(d) => TAG_MASS_BASE + d as u32,
            Tag::Force(d) => TAG_FORCE_BASE + d as u32,
            Tag::Gradient(d) => TAG_GRADIENT_BASE + d as u32,
            Tag::Dt => TAG_DT,
            Tag::Bye => TAG_BYE,
            Tag::Clock => TAG_CLOCK,
            Tag::Telemetry => TAG_TELEMETRY,
            Tag::Ckpt => TAG_CKPT,
        }
    }

    /// Decode a wire tag; `None` for unknown values.
    pub fn from_u32(v: u32) -> Option<Self> {
        let d = (v & 0xff) as u8;
        match (v & !0xff, v) {
            (_, TAG_DT) => Some(Tag::Dt),
            (_, TAG_BYE) => Some(Tag::Bye),
            (_, TAG_CLOCK) => Some(Tag::Clock),
            (_, TAG_TELEMETRY) => Some(Tag::Telemetry),
            (_, TAG_CKPT) => Some(Tag::Ckpt),
            (TAG_MASS_BASE, _) if usize::from(d) < dir::COUNT => Some(Tag::Mass(d)),
            (TAG_FORCE_BASE, _) if usize::from(d) < dir::COUNT => Some(Tag::Force(d)),
            (TAG_GRADIENT_BASE, _) if usize::from(d) < dir::COUNT => Some(Tag::Gradient(d)),
            _ => None,
        }
    }

    /// `parcel-send-<tag>` span label (static, so it can live in a
    /// [`obs::Span`]).
    pub fn send_label(self) -> &'static str {
        match self {
            Tag::Mass(d) => SEND_MASS[d as usize],
            Tag::Force(d) => SEND_FORCE[d as usize],
            Tag::Gradient(d) => SEND_GRADIENT[d as usize],
            Tag::Dt => "parcel-send-dt",
            Tag::Bye => "parcel-send-bye",
            Tag::Clock => "parcel-send-clock",
            Tag::Telemetry => "parcel-send-telemetry",
            Tag::Ckpt => "parcel-send-ckpt",
        }
    }

    /// `parcel-recv-<tag>` span label.
    pub fn recv_label(self) -> &'static str {
        match self {
            Tag::Mass(d) => RECV_MASS[d as usize],
            Tag::Force(d) => RECV_FORCE[d as usize],
            Tag::Gradient(d) => RECV_GRADIENT[d as usize],
            Tag::Dt => "parcel-recv-dt",
            Tag::Bye => "parcel-recv-bye",
            Tag::Clock => "parcel-recv-clock",
            Tag::Telemetry => "parcel-recv-telemetry",
            Tag::Ckpt => "parcel-recv-ckpt",
        }
    }

    /// `parcel-wait-<tag>` span label (time blocked before the frame).
    pub fn wait_label(self) -> &'static str {
        match self {
            Tag::Mass(d) => WAIT_MASS[d as usize],
            Tag::Force(d) => WAIT_FORCE[d as usize],
            Tag::Gradient(d) => WAIT_GRADIENT[d as usize],
            Tag::Dt => "parcel-wait-dt",
            Tag::Bye => "parcel-wait-bye",
            Tag::Clock => "parcel-wait-clock",
            Tag::Telemetry => "parcel-wait-telemetry",
            Tag::Ckpt => "parcel-wait-ckpt",
        }
    }

    /// `parcel-serialize-<tag>` span label (TCP writer thread).
    pub fn serialize_label(self) -> &'static str {
        match self {
            Tag::Mass(d) => SER_MASS[d as usize],
            Tag::Force(d) => SER_FORCE[d as usize],
            Tag::Gradient(d) => SER_GRADIENT[d as usize],
            Tag::Dt => "parcel-serialize-dt",
            Tag::Bye => "parcel-serialize-bye",
            Tag::Clock => "parcel-serialize-clock",
            Tag::Telemetry => "parcel-serialize-telemetry",
            Tag::Ckpt => "parcel-serialize-ckpt",
        }
    }
}

/// A tracer sink for parcel-level spans. Attached to a [`Transport`] via
/// [`Transport::attach_obs`], it records every frame's send enqueue,
/// receive wait, payload read, and (TCP) writer-thread serialization as
/// [`obs::SpanKind::Parcel`] spans with byte counts and peer ranks.
#[derive(Clone)]
pub struct ParcelObs {
    tracer: std::sync::Arc<obs::Tracer>,
    /// Lane for protocol-thread spans (send/wait/recv).
    lane: usize,
    /// Lane for background writer-thread spans (serialize).
    aux_lane: usize,
}

impl ParcelObs {
    /// A sink recording protocol spans on `lane` and writer-thread spans
    /// on `aux_lane` of `tracer`.
    pub fn new(tracer: std::sync::Arc<obs::Tracer>, lane: usize, aux_lane: usize) -> Self {
        Self {
            tracer,
            lane,
            aux_lane,
        }
    }

    /// Nanoseconds on the tracer's clock (the clock [`RankNet::clock_sync`]
    /// aligns).
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// A frame was enqueued/written for `peer`.
    pub fn send(&self, tag: Tag, start_ns: u64, end_ns: u64, bytes: u64, peer: usize) {
        self.tracer
            .record_parcel(self.lane, tag.send_label(), start_ns, end_ns, bytes, peer);
    }

    /// The receiver blocked waiting for a frame from `peer`.
    pub fn wait(&self, tag: Tag, start_ns: u64, end_ns: u64, peer: usize) {
        self.tracer
            .record_parcel(self.lane, tag.wait_label(), start_ns, end_ns, 0, peer);
    }

    /// A frame from `peer` was read and verified.
    pub fn recv(&self, tag: Tag, start_ns: u64, end_ns: u64, bytes: u64, peer: usize) {
        self.tracer
            .record_parcel(self.lane, tag.recv_label(), start_ns, end_ns, bytes, peer);
    }

    /// The writer thread serialized and wrote a frame to `peer`.
    pub fn serialize(&self, tag: Tag, start_ns: u64, end_ns: u64, bytes: u64, peer: usize) {
        self.tracer.record_parcel(
            self.aux_lane,
            tag.serialize_label(),
            start_ns,
            end_ns,
            bytes,
            peer,
        );
    }

    /// A frame from `peer` failed its checksum.
    pub fn corrupt(&self, start_ns: u64, end_ns: u64, peer: usize) {
        self.tracer
            .record_parcel(self.lane, "parcel-corrupt", start_ns, end_ns, 0, peer);
    }
}

/// Live-telemetry hooks for a link, attached via
/// [`Transport::attach_live`]: always-on per-rank counters
/// ([`obs::live::LiveStats`]) and/or a bounded fault flight recorder
/// ([`obs::live::FlightRecorder`]). Both are optional and O(1) per
/// frame, so the plane can stay on for the whole job; with neither
/// attached the hot path is a single `None` check, exactly like
/// [`ParcelObs`].
#[derive(Clone, Default)]
pub struct ParcelLive {
    /// Per-rank counters fed bytes/counts and receive-wait latency.
    pub stats: Option<std::sync::Arc<obs::live::LiveStats>>,
    /// Ring of recent parcel events, dumped on a typed failure.
    pub flight: Option<std::sync::Arc<obs::live::FlightRecorder>>,
}

impl ParcelLive {
    /// Hooks feeding `stats` and `flight` (either may be `None`).
    pub fn new(
        stats: Option<std::sync::Arc<obs::live::LiveStats>>,
        flight: Option<std::sync::Arc<obs::live::FlightRecorder>>,
    ) -> Self {
        ParcelLive { stats, flight }
    }

    /// True when at least one sink is attached (transports skip their
    /// clock reads otherwise).
    pub fn active(&self) -> bool {
        self.stats.is_some() || self.flight.is_some()
    }

    /// True when send-side durations are actually consumed. The stats
    /// counters only look at class and bytes on the send side — the
    /// duration feeds nothing but the flight recorder — so transports
    /// skip the two `Instant::now` calls per send (the dominant
    /// always-on cost on small-brick runs) unless a flight ring is
    /// armed.
    pub fn times_sends(&self) -> bool {
        self.flight.is_some()
    }

    /// A frame for `peer` was sent/enqueued, taking `dur_ns`.
    pub fn sent(&self, tag: Tag, dur_ns: u64, bytes: u64, peer: usize) {
        if let Some(s) = &self.stats {
            s.on_send(tag.class(), bytes);
        }
        if let Some(f) = &self.flight {
            let end = f.now_ns();
            f.record_interval(
                tag.send_label(),
                "parcel",
                end.saturating_sub(dur_ns),
                end,
                bytes,
                peer as i32,
            );
        }
    }

    /// A frame from `peer` was received after blocking for `wait_ns`.
    pub fn received(&self, tag: Tag, wait_ns: u64, bytes: u64, peer: usize) {
        if let Some(s) = &self.stats {
            s.on_recv(tag.class(), bytes, wait_ns);
        }
        if let Some(f) = &self.flight {
            let end = f.now_ns();
            f.record_interval(
                tag.recv_label(),
                "parcel",
                end.saturating_sub(wait_ns),
                end,
                bytes,
                peer as i32,
            );
        }
    }

    /// A typed transport failure involving `peer` — recorded in the
    /// flight ring so the post-mortem dump shows what led up to it.
    pub fn failed(&self, label: &'static str, err: &ParcelError, peer: usize) {
        if let Some(f) = &self.flight {
            f.record_error(label, err.to_string(), peer as i32);
        }
    }
}

/// Typed transport failures. Every variant names the peer rank so a
/// multi-rank failure report reads like an MPI error log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParcelError {
    /// The peer's endpoint is gone (socket EOF/reset, or every channel
    /// sender dropped) — the peer died or shut down mid-protocol.
    PeerClosed {
        /// Rank of the vanished peer.
        peer: usize,
    },
    /// No frame arrived within the receive deadline.
    Timeout {
        /// Rank the receive was posted against.
        peer: usize,
    },
    /// A frame arrived but its payload checksum does not match the header.
    ChecksumMismatch {
        /// Rank the corrupted frame came from.
        peer: usize,
    },
    /// A frame arrived with the wrong phase tag (protocol violation).
    TagMismatch {
        /// Rank the mis-tagged frame came from.
        peer: usize,
        /// Tag the receiver expected.
        expected: Tag,
        /// Tag the frame carried.
        got: Tag,
    },
    /// A frame arrived out of sequence (lost or duplicated message).
    SeqMismatch {
        /// Rank the mis-sequenced frame came from.
        peer: usize,
        /// Sequence number the receiver expected.
        expected: u32,
        /// Sequence number the frame carried.
        got: u32,
    },
    /// The connect-time rank handshake failed (wrong magic, version, rank
    /// or world size).
    Handshake {
        /// Rank the handshake was attempted with.
        peer: usize,
    },
    /// Connection to the peer could not be established in time.
    ConnectTimeout {
        /// Rank the connection was attempted to.
        peer: usize,
    },
    /// An I/O error outside the categories above.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ParcelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParcelError::PeerClosed { peer } => write!(f, "rank {peer} closed its endpoint"),
            ParcelError::Timeout { peer } => write!(f, "receive from rank {peer} timed out"),
            ParcelError::ChecksumMismatch { peer } => {
                write!(f, "checksum mismatch on frame from rank {peer}")
            }
            ParcelError::TagMismatch {
                peer,
                expected,
                got,
            } => write!(
                f,
                "rank {peer} sent a '{}' frame where '{}' was expected",
                got.name(),
                expected.name()
            ),
            ParcelError::SeqMismatch {
                peer,
                expected,
                got,
            } => write!(
                f,
                "rank {peer} sent sequence {got} where {expected} was expected"
            ),
            ParcelError::Handshake { peer } => write!(f, "handshake with rank {peer} failed"),
            ParcelError::ConnectTimeout { peer } => {
                write!(f, "connecting to rank {peer} timed out")
            }
            ParcelError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ParcelError {}

/// One point-to-point link to a peer rank. Implementations are internally
/// synchronized (`&self` methods) so a link can be shared between a rank's
/// control thread and its communication tasks.
pub trait Transport: Send + Sync {
    /// The peer rank this link talks to.
    fn peer(&self) -> usize;

    /// Send one tagged frame. Must not block indefinitely on a slow or dead
    /// peer (channel sends use bounded buffers; TCP sends go through a
    /// writer thread).
    fn send(&self, tag: Tag, payload: &[Real]) -> Result<(), ParcelError>;

    /// Receive the next frame, which must carry `tag`, within the link's
    /// receive deadline.
    fn recv(&self, tag: Tag) -> Result<Vec<Real>, ParcelError>;

    /// Graceful shutdown: exchange `Bye` frames so neither side abandons a
    /// link the other still reads from (the "no leaked sockets" guarantee).
    fn close(&self) -> Result<(), ParcelError>;

    /// Attach a tracer sink recording parcel-level spans on this link.
    /// Default: no instrumentation.
    fn attach_obs(&self, _obs: ParcelObs) {}

    /// Attach live-telemetry hooks (counters and/or a flight recorder)
    /// to this link. Default: no instrumentation.
    fn attach_live(&self, _live: ParcelLive) {}

    /// Pin this link's background writer thread (if any) to `cpus`, so
    /// comm threads stop migrating off their rank's NUMA node. Default:
    /// no background threads, nothing to pin.
    fn pin_writer(&self, _cpus: &[usize]) {}
}

/// The dt-allreduce topology: a star through rank 0, expressed as links.
pub enum DtLinks {
    /// Rank 0 holds one link per other rank, ordered by rank (index `i`
    /// talks to rank `i + 1`).
    Root(Vec<Box<dyn Transport>>),
    /// Every other rank holds a single link to rank 0.
    Leaf(Box<dyn Transport>),
}

/// A neighbour of one rank in the halo graph, before links exist: the peer
/// rank plus this rank's outgoing [`dir`]ection toward it. Computed by the
/// decomposition (parcelnet is topology-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborSpec {
    /// Peer rank.
    pub rank: usize,
    /// Outgoing stencil direction from this rank toward `rank`.
    pub dir: u8,
}

/// The chain topology of the 1-D ζ decomposition: rank `r` talks down to
/// `r − 1` (direction ζ−) and up to `r + 1` (direction ζ+).
pub fn chain_specs(ranks: usize) -> Vec<Vec<NeighborSpec>> {
    (0..ranks)
        .map(|r| {
            let mut specs = Vec::new();
            if r > 0 {
                specs.push(NeighborSpec {
                    rank: r - 1,
                    dir: dir::DOWN as u8,
                });
            }
            if r + 1 < ranks {
                specs.push(NeighborSpec {
                    rank: r + 1,
                    dir: dir::UP as u8,
                });
            }
            specs
        })
        .collect()
}

/// One wired neighbour link: the peer, this rank's outgoing direction
/// toward it, and the transport.
pub struct Neighbor {
    /// Peer rank.
    pub rank: usize,
    /// Outgoing stencil direction from this rank toward `rank`.
    pub dir: u8,
    /// The point-to-point link.
    pub link: Box<dyn Transport>,
}

/// One rank's complete communication endpoint: halo neighbours (sorted by
/// direction index) plus the dt star. Built by [`channel::channel_mesh`] /
/// [`channel::channel_mesh_with`] (in-process) or [`tcp::root`]/
/// [`tcp::join`] (sockets).
pub struct RankNet {
    /// This rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Halo neighbour links, sorted by direction index.
    pub neighbors: Vec<Neighbor>,
    /// The dt-allreduce star.
    pub dt: DtLinks,
}

/// Encode an optional simulation error as a wire scalar.
fn err_code(e: Option<LuleshError>) -> Real {
    match e {
        None => 0.0,
        Some(LuleshError::VolumeError) => 1.0,
        Some(LuleshError::QStopError) => 2.0,
    }
}

/// Decode [`err_code`]. Unknown codes conservatively map to `VolumeError`
/// (an abort is an abort; never silently continue).
fn code_err(c: Real) -> Option<LuleshError> {
    match c as i64 {
        0 => None,
        2 => Some(LuleshError::QStopError),
        _ => Some(LuleshError::VolumeError),
    }
}

/// What [`RankNet::allreduce_dt_live`] returns: the global constraint
/// minima, the folded simulation error, and — on rank 0 when telemetry
/// was piggybacked — one raw payload per rank (self at index 0).
pub type AllreduceLiveResult = (Real, Real, Option<LuleshError>, Option<Vec<Vec<Real>>>);

impl RankNet {
    /// The link toward stencil direction `d`, if that neighbour exists.
    pub fn link_to(&self, d: usize) -> Option<&dyn Transport> {
        self.neighbors
            .iter()
            .find(|n| usize::from(n.dir) == d)
            .map(|n| n.link.as_ref())
    }

    /// The ζ− (chain "down") link, if any.
    pub fn down(&self) -> Option<&dyn Transport> {
        self.link_to(dir::DOWN)
    }

    /// The ζ+ (chain "up") link, if any.
    pub fn up(&self) -> Option<&dyn Transport> {
        self.link_to(dir::UP)
    }

    /// The dt min-allreduce through rank 0 with errors riding along: every
    /// rank contributes its constraint minima plus any local simulation
    /// error and receives the global minima plus the first error any rank
    /// reported (folded in rank order, root first — deterministic). A
    /// transport failure anywhere surfaces as `Err(ParcelError)`.
    pub fn allreduce_dt(
        &self,
        c: Real,
        h: Real,
        err: Option<LuleshError>,
    ) -> Result<(Real, Real, Option<LuleshError>), ParcelError> {
        self.allreduce_dt_live(c, h, err, None)
            .map(|(gc, gh, gerr, _)| (gc, gh, gerr))
    }

    /// [`allreduce_dt`](Self::allreduce_dt) with an optional telemetry
    /// sample riding the same star: when `telemetry` is `Some`, each
    /// leaf sends a [`Tag::Telemetry`] frame right after its dt
    /// contribution (buffered, so nobody blocks), and rank 0 collects
    /// one payload per rank — its own at index 0, members at their rank
    /// index — returned alongside the reduction. No extra sync point is
    /// added; the telemetry frames travel inside the barrier the dt
    /// reduction already is. Every rank must agree on which steps pass
    /// `Some` (drivers key it off the shared cycle counter).
    pub fn allreduce_dt_live(
        &self,
        c: Real,
        h: Real,
        err: Option<LuleshError>,
        telemetry: Option<&[Real]>,
    ) -> Result<AllreduceLiveResult, ParcelError> {
        match &self.dt {
            DtLinks::Root(members) => {
                let mut gc = c;
                let mut gh = h;
                let mut gerr = err;
                let mut collected: Vec<Vec<Real>> = Vec::new();
                if let Some(mine) = telemetry {
                    collected.push(mine.to_vec());
                }
                for m in members {
                    let p = m.recv(Tag::Dt)?;
                    if p.len() != 3 {
                        return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                    }
                    gc = gc.min(p[0]);
                    gh = gh.min(p[1]);
                    gerr = gerr.or(code_err(p[2]));
                    if telemetry.is_some() {
                        collected.push(m.recv(Tag::Telemetry)?);
                    }
                }
                let frame = [gc, gh, err_code(gerr)];
                for m in members {
                    m.send(Tag::Dt, &frame)?;
                }
                Ok((gc, gh, gerr, telemetry.map(|_| collected)))
            }
            DtLinks::Leaf(link) => {
                link.send(Tag::Dt, &[c, h, err_code(err)])?;
                if let Some(t) = telemetry {
                    link.send(Tag::Telemetry, t)?;
                }
                let p = link.recv(Tag::Dt)?;
                if p.len() != 3 {
                    return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                }
                Ok((p[0], p[1], code_err(p[2]), None))
            }
        }
    }

    /// Gracefully close every link (neighbours first, then the dt star).
    /// Called only on the success path; error paths drop links hard so
    /// peers observe `PeerClosed` immediately.
    pub fn close(&self) -> Result<(), ParcelError> {
        for n in &self.neighbors {
            n.link.close()?;
        }
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    m.close()?;
                }
            }
            DtLinks::Leaf(l) => l.close()?,
        }
        Ok(())
    }

    /// Visit every link of this endpoint (neighbours, then the dt star).
    fn for_each_link(&self, f: &mut dyn FnMut(&dyn Transport)) {
        for n in &self.neighbors {
            f(n.link.as_ref());
        }
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    f(m.as_ref());
                }
            }
            DtLinks::Leaf(l) => f(l.as_ref()),
        }
    }

    /// Attach a parcel-span sink to every link of this endpoint.
    pub fn attach_obs(&self, obs: &ParcelObs) {
        self.for_each_link(&mut |l| l.attach_obs(obs.clone()));
    }

    /// Attach live-telemetry hooks to every link of this endpoint.
    pub fn attach_live(&self, live: &ParcelLive) {
        self.for_each_link(&mut |l| l.attach_live(live.clone()));
    }

    /// Pin every link's background writer thread (TCP only; a no-op for
    /// in-process channels) next to this rank's workers.
    pub fn pin_writers(&self, cpus: &[usize]) {
        self.for_each_link(&mut |l| l.pin_writer(cpus));
    }

    /// Clock-alignment ping-pong over the dt star: rank 0 measures each
    /// leaf's clock offset (`leaf_clock − root_clock`, ns) by the classic
    /// NTP-style estimate over `rounds` exchanges, keeping the round with
    /// the smallest RTT, then tells each leaf its offset. Every rank
    /// returns its own offset (0 on rank 0) for its trace file; merging
    /// subtracts it. `now_ns` must be the same clock the rank's tracer
    /// stamps spans with. `rounds` must agree across ranks.
    pub fn clock_sync(&self, now_ns: &dyn Fn() -> u64, rounds: usize) -> Result<i64, ParcelError> {
        assert!(rounds >= 1);
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    let mut samples = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let t0 = now_ns();
                        m.send(Tag::Clock, &[t0 as Real])?;
                        let p = m.recv(Tag::Clock)?;
                        let t2 = now_ns();
                        if p.len() != 1 {
                            return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                        }
                        samples.push((t0, p[0] as u64, t2));
                    }
                    let offset = estimate_offset(&samples);
                    m.send(Tag::Clock, &[offset as Real])?;
                }
                Ok(0)
            }
            DtLinks::Leaf(link) => {
                for _ in 0..rounds {
                    let p = link.recv(Tag::Clock)?;
                    if p.len() != 1 {
                        return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                    }
                    link.send(Tag::Clock, &[now_ns() as Real])?;
                }
                let p = link.recv(Tag::Clock)?;
                if p.len() != 1 {
                    return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                }
                Ok(p[0] as i64)
            }
        }
    }
}

/// The NTP-style offset estimate from ping-pong samples `(t0, t_leaf,
/// t2)`: the round with the smallest RTT bounds the error tightest, and
/// within it the leaf's reply is assumed to sit halfway between send and
/// reply arrival: `offset = t_leaf − (t0 + t2) / 2`.
pub fn estimate_offset(samples: &[(u64, u64, u64)]) -> i64 {
    let &(t0, t_leaf, t2) = samples
        .iter()
        .min_by_key(|&&(t0, _, t2)| t2 - t0)
        .expect("at least one sample");
    (t_leaf as i128 - (t0 as i128 + t2 as i128) / 2) as i64
}

/// FNV-1a 64-bit over a byte slice — the frame payload checksum. Cheap,
/// dependency-free, and plenty to catch framing bugs and torn writes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_index_roundtrip() {
        for idx in 0..dir::COUNT {
            let (dx, dy, dz) = dir::components(idx);
            assert_eq!(dir::index(dx, dy, dz), idx);
            let (ox, oy, oz) = dir::components(dir::opposite(idx));
            assert_eq!((ox, oy, oz), (-dx, -dy, -dz));
        }
        assert_eq!(dir::index(0, 0, 0), dir::SELF_INDEX);
        assert_eq!(dir::index(0, 0, -1), dir::DOWN);
        assert_eq!(dir::index(0, 0, 1), dir::UP);
        assert_eq!(dir::name(dir::DOWN), "00m");
        assert_eq!(dir::name(dir::UP), "00p");
        assert_eq!(dir::name(dir::SELF_INDEX), "000");
    }

    #[test]
    fn tag_roundtrip() {
        let mut all = vec![Tag::Dt, Tag::Bye, Tag::Clock, Tag::Telemetry, Tag::Ckpt];
        for d in 0..dir::COUNT {
            all.push(Tag::Mass(d as u8));
            all.push(Tag::Force(d as u8));
            all.push(Tag::Gradient(d as u8));
        }
        for t in &all {
            assert_eq!(Tag::from_u32(t.to_u32()), Some(*t), "tag {t:?}");
        }
        assert_eq!(Tag::from_u32(0), None);
        assert_eq!(Tag::from_u32(99), None);
        assert_eq!(Tag::from_u32(TAG_MASS_BASE + 27), None);
        assert_eq!(Tag::from_u32(TAG_GRADIENT_BASE + 0xff), None);
    }

    #[test]
    fn tag_wire_encodings_and_labels_are_unique() {
        // Satellite: the 27-neighbour tag layout must never alias — across
        // every direction of every kind, wire codes, names, and all four
        // span labels are pairwise distinct.
        let mut all = vec![Tag::Dt, Tag::Bye, Tag::Clock, Tag::Telemetry, Tag::Ckpt];
        for d in 0..dir::COUNT {
            all.push(Tag::Mass(d as u8));
            all.push(Tag::Force(d as u8));
            all.push(Tag::Gradient(d as u8));
        }
        let mut codes: Vec<u32> = all.iter().map(|t| t.to_u32()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "wire codes alias");
        for get in [
            Tag::name as fn(Tag) -> &'static str,
            Tag::send_label,
            Tag::recv_label,
            Tag::wait_label,
            Tag::serialize_label,
        ] {
            let mut labels: Vec<&str> = all.iter().map(|&t| get(t)).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), all.len(), "labels alias");
        }
        // The checkpoint tag is a scalar code: it must stay clear of every
        // directional block (masking in `from_u32` relies on it) and of
        // the telemetry code.
        let v = Tag::Ckpt.to_u32();
        assert!(v < 0x100, "Ckpt collides with a directional block");
        assert_ne!(v, Tag::Telemetry.to_u32());
        assert_eq!(Tag::from_u32(v), Some(Tag::Ckpt));
        // Direction names land in the right table slots.
        assert_eq!(Tag::force(dir::DOWN).send_label(), "parcel-send-force-00m");
        assert_eq!(Tag::mass(dir::UP).name(), "mass-00p");
        assert_eq!(
            Tag::gradient(dir::index(-1, 1, 1)).recv_label(),
            "parcel-recv-gradient-mpp"
        );
    }

    #[test]
    fn chain_specs_wire_neighbours_by_rank() {
        let specs = chain_specs(3);
        assert_eq!(specs[0].len(), 1);
        assert_eq!(
            specs[0][0],
            NeighborSpec {
                rank: 1,
                dir: dir::UP as u8
            }
        );
        assert_eq!(specs[1].len(), 2);
        assert_eq!(
            specs[1][0],
            NeighborSpec {
                rank: 0,
                dir: dir::DOWN as u8
            }
        );
        assert_eq!(specs[2].len(), 1);
        assert_eq!(specs[2][0].rank, 1);
        assert!(chain_specs(1)[0].is_empty());
    }

    #[test]
    fn err_code_roundtrip() {
        for e in [
            None,
            Some(LuleshError::VolumeError),
            Some(LuleshError::QStopError),
        ] {
            assert_eq!(code_err(err_code(e)), e);
        }
        // Unknown codes abort rather than continue.
        assert_eq!(code_err(7.0), Some(LuleshError::VolumeError));
    }

    #[test]
    fn fnv_distinguishes_payloads() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"\0"));
        // Known FNV-1a vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn offset_estimate_picks_the_tightest_round() {
        // Second sample has the smallest RTT (10 ns): offset must come
        // from it alone. t_leaf = 1000 when the root midpoint is 505.
        let samples = [(0, 2000, 400), (500, 1000, 510), (600, 3000, 1000)];
        assert_eq!(estimate_offset(&samples), 1000 - 505);
        // A leaf behind the root yields a negative offset.
        let samples = [(1000, 200, 1010)];
        assert_eq!(estimate_offset(&samples), 200 - 1005);
    }

    #[test]
    fn clock_sync_recovers_injected_skew() {
        use std::time::Instant;
        // Three ranks over in-process channels share one real clock; give
        // each a fake epoch offset and check the protocol measures it.
        let skews: [i64; 3] = [0, 1_000_000_000, -50_000_000];
        let epoch = Instant::now();
        let nets = channel::channel_mesh(3, std::time::Duration::from_secs(2));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                let skew = skews[net.rank];
                std::thread::spawn(move || {
                    // A 10 s base keeps the fake clock positive under a
                    // negative skew.
                    let now =
                        move || (epoch.elapsed().as_nanos() as i64 + 10_000_000_000 + skew) as u64;
                    let off = net.clock_sync(&now, 8).unwrap();
                    (net.rank, off)
                })
            })
            .collect();
        for h in handles {
            let (rank, off) = h.join().unwrap();
            if rank == 0 {
                assert_eq!(off, 0);
            } else {
                // True offset is leaf_skew − root_skew; in-process RTTs
                // are microseconds, so 2 ms of tolerance is generous.
                let want = skews[rank];
                assert!(
                    (off - want).abs() < 2_000_000,
                    "rank {rank}: measured {off}, want {want}"
                );
            }
        }
    }

    #[test]
    fn telemetry_piggybacks_on_the_dt_star() {
        // 3 ranks over channels; every rank contributes a telemetry
        // payload on every allreduce. Rank 0 must collect all three in
        // rank order; leaves get the reduction and no payloads; the
        // reduction itself must match the plain allreduce semantics.
        let nets = channel::channel_mesh(3, std::time::Duration::from_secs(2));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    let rank = net.rank;
                    let mine = [rank as Real, 100.0 + rank as Real];
                    let (gc, gh, gerr, collected) = net
                        .allreduce_dt_live(
                            1.0 + rank as Real,
                            10.0 - rank as Real,
                            None,
                            Some(&mine),
                        )
                        .unwrap();
                    net.close().unwrap();
                    (rank, gc, gh, gerr, collected)
                })
            })
            .collect();
        for h in handles {
            let (rank, gc, gh, gerr, collected) = h.join().unwrap();
            assert_eq!((gc, gh), (1.0, 8.0), "rank {rank}");
            assert_eq!(gerr, None);
            if rank == 0 {
                let c = collected.expect("root collects telemetry");
                assert_eq!(c.len(), 3);
                for (r, p) in c.iter().enumerate() {
                    assert_eq!(p.as_slice(), &[r as Real, 100.0 + r as Real], "rank {r}");
                }
            } else {
                assert!(collected.is_none(), "leaves collect nothing");
            }
        }
    }

    #[test]
    fn clock_sync_skew_stays_bounded_under_load() {
        // Satellite: the straggler detector compares step times measured
        // on different ranks' clocks, so the sync error under CPU load
        // bounds the detector's skew. Saturate the host with busy
        // threads, then check the min-RTT estimator still recovers an
        // injected 100 ms skew to well under the detector's 0.5 ms
        // noise floor times a safety factor (5 ms here: slow CI hosts).
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Instant;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let busy: Vec<_> = (0..std::thread::available_parallelism().map_or(4, |n| n.get()))
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        std::hint::black_box(x);
                    }
                })
            })
            .collect();
        let skews: [i64; 2] = [0, 100_000_000];
        let epoch = Instant::now();
        let nets = channel::channel_mesh(2, std::time::Duration::from_secs(5));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                let skew = skews[net.rank];
                std::thread::spawn(move || {
                    let now =
                        move || (epoch.elapsed().as_nanos() as i64 + 10_000_000_000 + skew) as u64;
                    let off = net.clock_sync(&now, 16).unwrap();
                    (net.rank, off)
                })
            })
            .collect();
        for h in handles {
            let (rank, off) = h.join().unwrap();
            if rank == 1 {
                assert!(
                    (off - skews[1]).abs() < 5_000_000,
                    "skew error {} ns exceeds the 5 ms bound under load",
                    off - skews[1]
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for b in busy {
            b.join().unwrap();
        }
    }

    #[test]
    fn errors_display_the_peer() {
        let e = ParcelError::Timeout { peer: 3 };
        assert!(e.to_string().contains("rank 3"));
        let e = ParcelError::TagMismatch {
            peer: 1,
            expected: Tag::force(dir::UP),
            got: Tag::gradient(dir::UP),
        };
        assert!(e.to_string().contains("force-00p") && e.to_string().contains("gradient-00p"));
    }
}
