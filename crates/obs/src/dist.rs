//! # obs::dist — cross-rank trace aggregation and inefficiency analysis
//!
//! The single-process [`Tracer`](crate::Tracer) sees one clock and one
//! address space; since the parcelnet transport arrived, the interesting
//! behaviour (overlapped halo exchange, dt allreduce, fault cascades)
//! spans several processes with several clocks. This module turns N
//! per-rank trace files into one coherent picture:
//!
//! * [`RankTrace`] — one rank's spans plus its measured clock offset,
//!   written/read as a self-describing JSON file (`rank<R>.spans.json`);
//! * [`merge`] — applies each rank's offset, rebases the union so the
//!   earliest span starts at 0, and yields a [`MergedTrace`] that
//!   [`merged_chrome_trace`] renders with one Perfetto process per rank;
//! * [`analyze`] — classifies every nanosecond of every rank's main lane
//!   into a Schulz-style taxonomy ([`Category`]) and computes the
//!   critical path through the task/parcel graph, matching the k-th
//!   parcel send from rank *i* to rank *j* with the k-th receive on the
//!   other side;
//! * [`lint_chrome_trace`] — the structural validator behind the
//!   `trace_lint` binary (known `cat` values, non-negative timestamps,
//!   rank-lane metadata on multi-process traces).
//!
//! The attribution invariant: for every rank,
//! `startup + Σ categories + idle + shutdown == wall-clock` *exactly* —
//! the sweep partitions the timeline, it never double-counts nested
//! spans (the innermost, latest-started span owns each instant).

use crate::jsonlint::{self, Value};
use crate::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp written into every rank-trace and analysis file, so the
/// regression harness can detect schema drift instead of misreading.
pub const SCHEMA_VERSION: u64 = 1;

/// An owned span, as read back from a rank-trace file (labels are no
/// longer `'static` once they cross a process boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpan {
    /// Span id, unique within its rank's trace.
    pub id: u64,
    /// Phase label.
    pub label: String,
    /// Lane the span was recorded on.
    pub lane: usize,
    /// Start, ns on the recording rank's clock (aligned after merge).
    pub start_ns: u64,
    /// End, ns (`>= start_ns`).
    pub end_ns: u64,
    /// Chrome-trace category (`SpanKind::name()` value).
    pub cat: String,
    /// Payload bytes for parcel spans, 0 otherwise.
    pub bytes: u64,
    /// Peer rank for parcel spans, −1 otherwise.
    pub peer: i64,
}

impl OwnedSpan {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rank's complete trace: spans, lane names, and the clock offset
/// measured by the ping-pong protocol (`local_clock − root_clock`, ns).
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// This rank.
    pub rank: usize,
    /// World size the run used.
    pub ranks: usize,
    /// The lane carrying this rank's protocol-thread spans (the lane the
    /// taxonomy sweep attributes); other lanes are background (e.g. the
    /// parcelnet writer's serialize spans).
    pub main_lane: usize,
    /// `local_clock − rank0_clock` in ns: subtracted at merge time.
    pub offset_ns: i64,
    /// Lane display names, `(lane, name)`.
    pub lane_names: Vec<(usize, String)>,
    /// The spans, in recording order.
    pub spans: Vec<OwnedSpan>,
}

/// Minimal JSON string escaping for labels and lane names.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl RankTrace {
    /// Build a rank trace from live [`Span`]s (typically
    /// `tracer.drain()`).
    pub fn from_spans(
        rank: usize,
        ranks: usize,
        main_lane: usize,
        offset_ns: i64,
        lane_names: Vec<(usize, String)>,
        spans: &[Span],
    ) -> Self {
        Self {
            rank,
            ranks,
            main_lane,
            offset_ns,
            lane_names,
            spans: spans
                .iter()
                .map(|s| OwnedSpan {
                    id: s.task_id,
                    label: s.label.to_string(),
                    lane: s.worker,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    cat: s.kind.name().to_string(),
                    bytes: s.bytes,
                    peer: s.peer as i64,
                })
                .collect(),
        }
    }

    /// Serialize as the rank-trace JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"rank\": {},", self.rank);
        let _ = writeln!(out, "  \"ranks\": {},", self.ranks);
        let _ = writeln!(out, "  \"main_lane\": {},", self.main_lane);
        let _ = writeln!(out, "  \"offset_ns\": {},", self.offset_ns);
        out.push_str("  \"lane_names\": [");
        for (i, (lane, name)) in self.lane_names.iter().enumerate() {
            let sep = if i + 1 == self.lane_names.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(
                out,
                "{{\"lane\": {lane}, \"name\": \"{}\"}}{sep}",
                esc(name)
            );
        }
        out.push_str("],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"label\": \"{}\", \"lane\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"cat\": \"{}\", \"bytes\": {}, \"peer\": {}}}{}",
                s.id,
                esc(&s.label),
                s.lane,
                s.start_ns,
                s.end_ns,
                s.cat,
                s.bytes,
                s.peer,
                sep
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a rank-trace document written by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = jsonlint::parse(text)?;
        let field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::num)
                .ok_or_else(|| format!("rank trace: missing numeric field '{key}'"))
        };
        let schema = field("schema")? as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "rank trace: schema {schema}, this build reads {SCHEMA_VERSION}"
            ));
        }
        let mut lane_names = Vec::new();
        for entry in v
            .get("lane_names")
            .and_then(Value::arr)
            .ok_or("rank trace: missing 'lane_names'")?
        {
            let lane = entry
                .get("lane")
                .and_then(Value::num)
                .ok_or("lane_names: missing 'lane'")? as usize;
            let name = entry
                .get("name")
                .and_then(Value::str)
                .ok_or("lane_names: missing 'name'")?;
            lane_names.push((lane, name.to_string()));
        }
        let mut spans = Vec::new();
        for entry in v
            .get("spans")
            .and_then(Value::arr)
            .ok_or("rank trace: missing 'spans'")?
        {
            let num = |key: &str| -> Result<f64, String> {
                entry
                    .get(key)
                    .and_then(Value::num)
                    .ok_or_else(|| format!("span: missing numeric field '{key}'"))
            };
            let start_ns = num("start_ns")? as u64;
            let end_ns = num("end_ns")? as u64;
            if end_ns < start_ns {
                return Err(format!(
                    "span: end_ns {end_ns} precedes start_ns {start_ns}"
                ));
            }
            spans.push(OwnedSpan {
                id: num("id")? as u64,
                label: entry
                    .get("label")
                    .and_then(Value::str)
                    .ok_or("span: missing 'label'")?
                    .to_string(),
                lane: num("lane")? as usize,
                start_ns,
                end_ns,
                cat: entry
                    .get("cat")
                    .and_then(Value::str)
                    .ok_or("span: missing 'cat'")?
                    .to_string(),
                bytes: num("bytes")? as u64,
                peer: num("peer")? as i64,
            });
        }
        Ok(Self {
            rank: field("rank")? as usize,
            ranks: field("ranks")? as usize,
            main_lane: field("main_lane")? as usize,
            offset_ns: field("offset_ns")? as i64,
            lane_names,
            spans,
        })
    }

    /// The file name this rank's trace is stored under in a trace dir.
    pub fn file_name(rank: usize) -> String {
        format!("rank{rank}.spans.json")
    }
}

/// Write `trace` into `dir` under its canonical file name.
pub fn write_rank_trace(dir: &Path, trace: &RankTrace) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(RankTrace::file_name(trace.rank));
    std::fs::write(&path, trace.to_json())?;
    Ok(path)
}

/// Read every `rank<R>.spans.json` in `dir`, sorted by rank. Fails if
/// any rank of the advertised world is missing or inconsistent.
pub fn read_rank_traces(dir: &Path) -> Result<Vec<RankTrace>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut traces = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_rank_file = name
            .strip_prefix("rank")
            .and_then(|rest| rest.strip_suffix(".spans.json"))
            .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()));
        if !is_rank_file {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        let trace =
            RankTrace::parse(&text).map_err(|e| format!("{}: {e}", entry.path().display()))?;
        traces.push(trace);
    }
    if traces.is_empty() {
        return Err(format!("{}: no rank trace files found", dir.display()));
    }
    traces.sort_by_key(|t| t.rank);
    let ranks = traces[0].ranks;
    if traces.len() != ranks {
        return Err(format!(
            "expected {ranks} rank traces, found {}",
            traces.len()
        ));
    }
    for (i, t) in traces.iter().enumerate() {
        if t.rank != i || t.ranks != ranks {
            return Err(format!(
                "rank trace {i} is inconsistent (rank {}, ranks {})",
                t.rank, t.ranks
            ));
        }
    }
    Ok(traces)
}

/// One span in a merged trace, with its owning rank and clock-aligned,
/// rebased timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSpan {
    /// The rank that recorded the span.
    pub rank: usize,
    /// The span, with `start_ns`/`end_ns` on the common aligned timeline
    /// (global minimum rebased to 0).
    pub span: OwnedSpan,
}

/// N rank traces on one timeline, sorted by aligned start.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedTrace {
    /// World size.
    pub ranks: usize,
    /// Per-rank main lane (index by rank).
    pub main_lanes: Vec<usize>,
    /// Lane display names, `(rank, lane, name)`.
    pub lane_names: Vec<(usize, usize, String)>,
    /// Every span from every rank, clock-aligned and start-sorted.
    pub spans: Vec<MergedSpan>,
}

/// Apply each rank's clock offset, rebase so the earliest aligned span
/// starts at 0, and sort. Rebasing guarantees non-negative timestamps —
/// the invariant `lint_chrome_trace` enforces.
pub fn merge(traces: Vec<RankTrace>) -> Result<MergedTrace, String> {
    if traces.is_empty() {
        return Err("merge: no rank traces".into());
    }
    let ranks = traces[0].ranks;
    if traces.len() != ranks {
        return Err(format!(
            "merge: expected {ranks} rank traces, got {}",
            traces.len()
        ));
    }
    for (i, t) in traces.iter().enumerate() {
        if t.rank != i || t.ranks != ranks {
            return Err(format!(
                "merge: trace {i} is inconsistent (rank {}, ranks {})",
                t.rank, t.ranks
            ));
        }
    }
    // Align on i128 (offset may exceed the earliest local timestamp).
    let aligned: Vec<(usize, i128, i128, usize)> = traces
        .iter()
        .flat_map(|t| {
            let off = t.offset_ns as i128;
            t.spans
                .iter()
                .enumerate()
                .map(move |(i, s)| (t.rank, s.start_ns as i128 - off, s.end_ns as i128 - off, i))
        })
        .collect();
    let base = aligned.iter().map(|&(_, s, _, _)| s).min().unwrap_or(0);
    let mut spans: Vec<MergedSpan> = aligned
        .into_iter()
        .map(|(rank, start, end, i)| {
            let mut span = traces[rank].spans[i].clone();
            span.start_ns = (start - base) as u64;
            span.end_ns = (end - base) as u64;
            MergedSpan { rank, span }
        })
        .collect();
    spans.sort_by(|a, b| {
        (a.span.start_ns, a.rank, a.span.id).cmp(&(b.span.start_ns, b.rank, b.span.id))
    });
    Ok(MergedTrace {
        ranks,
        main_lanes: traces.iter().map(|t| t.main_lane).collect(),
        lane_names: traces
            .iter()
            .flat_map(|t| {
                let rank = t.rank;
                t.lane_names
                    .iter()
                    .map(move |(lane, name)| (rank, *lane, name.clone()))
            })
            .collect(),
        spans,
    })
}

/// Render a merged trace as Chrome-trace JSON: one Perfetto *process*
/// per rank (`pid` = rank, with a `process_name` header), lanes as
/// threads within it.
pub fn merged_chrome_trace(m: &MergedTrace) -> String {
    let mut events: Vec<String> = Vec::with_capacity(m.ranks + m.lane_names.len() + m.spans.len());
    for rank in 0..m.ranks {
        events.push(format!(
            r#"  {{"name": "process_name", "ph": "M", "pid": {rank}, "tid": 0, "args": {{"name": "rank{rank}"}}}}"#
        ));
    }
    for (rank, lane, name) in &m.lane_names {
        events.push(format!(
            r#"  {{"name": "thread_name", "ph": "M", "pid": {rank}, "tid": {lane}, "args": {{"name": "{}"}}}}"#,
            esc(name)
        ));
    }
    for ms in &m.spans {
        let s = &ms.span;
        let args = if s.cat == "parcel" {
            format!(r#", "args": {{"bytes": {}, "peer": {}}}"#, s.bytes, s.peer)
        } else {
            String::new()
        };
        events.push(format!(
            r#"  {{"name": "{}-{}", "cat": "{}", "ph": "X", "ts": {:.3}, "dur": {:.3}, "pid": {}, "tid": {}{}}}"#,
            esc(&s.label),
            s.id,
            s.cat,
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
            ms.rank,
            s.lane,
            args,
        ));
    }
    let mut out = String::from("[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Taxonomy analysis
// ---------------------------------------------------------------------------

/// The Schulz-style task-inefficiency taxonomy every attributed
/// nanosecond falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Useful computation (task bodies, fork-join regions).
    Busy,
    /// Halo pack/unpack and exchange bookkeeping outside the wire ops.
    Pack,
    /// Outbound communication: send enqueue and frame serialization.
    Send,
    /// Inbound communication wait: blocked in a deadline-bounded receive
    /// or reading a payload.
    Wait,
    /// Synchronization skew (the dt allreduce and other barriers).
    Barrier,
    /// Work-stealing latency.
    Steal,
    /// Resilience overhead: checkpoint serialization/writes and snapshot
    /// restore on resume.
    Recovery,
    /// Before this rank's first span (bootstrap, handshake, clock sync).
    Startup,
    /// After this rank's last span, until the slowest rank finished.
    Shutdown,
    /// No span covered the instant: out of work.
    Idle,
}

impl Category {
    /// Stable lowercase name (JSON keys, table headers).
    pub fn name(self) -> &'static str {
        match self {
            Category::Busy => "busy",
            Category::Pack => "pack",
            Category::Send => "send",
            Category::Wait => "wait",
            Category::Barrier => "barrier",
            Category::Steal => "steal",
            Category::Recovery => "recovery",
            Category::Startup => "startup",
            Category::Shutdown => "shutdown",
            Category::Idle => "idle",
        }
    }

    /// Every category, in report order.
    pub const ALL: [Category; 10] = [
        Category::Busy,
        Category::Pack,
        Category::Send,
        Category::Wait,
        Category::Barrier,
        Category::Steal,
        Category::Recovery,
        Category::Startup,
        Category::Shutdown,
        Category::Idle,
    ];
}

/// Map a span's `(cat, label)` to its taxonomy category. `None` means
/// the span is *transparent*: it groups other spans (the per-iteration
/// region) and must not absorb time from them.
pub fn categorize(cat: &str, label: &str) -> Option<Category> {
    if label == "iteration" {
        return None;
    }
    if label == "clock-sync" {
        return Some(Category::Startup);
    }
    // Resilience spans carry a ckpt-/resume- label prefix no
    // matter which kind they were recorded as (region spans in the
    // drivers, parcel spans on the wire).
    if label.starts_with("ckpt-") || label.starts_with("resume-") {
        return Some(Category::Recovery);
    }
    Some(match cat {
        "steal" => Category::Steal,
        "barrier" => Category::Barrier,
        "halo" => {
            if label.starts_with("send") {
                Category::Send
            } else if label.starts_with("recv") {
                Category::Wait
            } else {
                Category::Pack
            }
        }
        "parcel" => {
            if label.contains("clock") {
                Category::Startup
            } else if label.contains("send") || label.contains("serialize") {
                Category::Send
            } else {
                // parcel-wait-*, parcel-recv-*, parcel-corrupt
                Category::Wait
            }
        }
        // task, region, and anything unrecognized count as work.
        _ => Category::Busy,
    })
}

/// One rank's overhead breakdown. All fields in nanoseconds; the ten
/// taxonomy fields sum to [`wall_ns`](Self::wall_ns) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankBreakdown {
    /// The rank.
    pub rank: usize,
    /// Total aligned wall-clock of the merged run (same on every rank).
    pub wall_ns: u64,
    /// Useful computation.
    pub busy_ns: u64,
    /// Halo pack/unpack.
    pub pack_ns: u64,
    /// Outbound communication.
    pub send_ns: u64,
    /// Inbound communication wait.
    pub wait_ns: u64,
    /// Synchronization skew.
    pub barrier_ns: u64,
    /// Work-stealing latency.
    pub steal_ns: u64,
    /// Resilience overhead (checkpoint, restore).
    pub recovery_ns: u64,
    /// Time before this rank's first span.
    pub startup_ns: u64,
    /// Time after this rank's last span.
    pub shutdown_ns: u64,
    /// Uncovered gaps between spans.
    pub idle_ns: u64,
    /// Background lanes' parcel time (writer-thread serialize) — runs
    /// *concurrently* with the main lane, so it is reported separately
    /// and not part of the wall-clock sum.
    pub background_ns: u64,
}

impl RankBreakdown {
    /// Σ of the ten taxonomy fields (must equal `wall_ns`).
    pub fn accounted_ns(&self) -> u64 {
        self.busy_ns
            + self.pack_ns
            + self.send_ns
            + self.wait_ns
            + self.barrier_ns
            + self.steal_ns
            + self.recovery_ns
            + self.startup_ns
            + self.shutdown_ns
            + self.idle_ns
    }

    fn slot(&mut self, cat: Category) -> &mut u64 {
        match cat {
            Category::Busy => &mut self.busy_ns,
            Category::Pack => &mut self.pack_ns,
            Category::Send => &mut self.send_ns,
            Category::Wait => &mut self.wait_ns,
            Category::Barrier => &mut self.barrier_ns,
            Category::Steal => &mut self.steal_ns,
            Category::Recovery => &mut self.recovery_ns,
            Category::Startup => &mut self.startup_ns,
            Category::Shutdown => &mut self.shutdown_ns,
            Category::Idle => &mut self.idle_ns,
        }
    }

    /// Read a taxonomy field by category.
    pub fn get(&self, cat: Category) -> u64 {
        match cat {
            Category::Busy => self.busy_ns,
            Category::Pack => self.pack_ns,
            Category::Send => self.send_ns,
            Category::Wait => self.wait_ns,
            Category::Barrier => self.barrier_ns,
            Category::Steal => self.steal_ns,
            Category::Recovery => self.recovery_ns,
            Category::Startup => self.startup_ns,
            Category::Shutdown => self.shutdown_ns,
            Category::Idle => self.idle_ns,
        }
    }
}

/// The merged-trace analysis: wall clock, critical path, frame-matching
/// health, and one [`RankBreakdown`] per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// World size.
    pub ranks: usize,
    /// Aligned wall-clock: latest span end on the merged timeline.
    pub wall_ns: u64,
    /// Longest dependency chain of attributed time through the
    /// task/parcel graph (cross-rank edges: k-th send → k-th recv).
    pub critical_path_ns: u64,
    /// The critical path's own time, split by category.
    pub critical_path_breakdown: Vec<(Category, u64)>,
    /// Parcel send→recv pairs matched across ranks.
    pub matched_frames: usize,
    /// Matched halo-data pairs (mass/force/gradient) whose recv *ended*
    /// before the send *started* — clock alignment failures.
    pub causality_violations: usize,
    /// Per-rank taxonomy, by rank.
    pub per_rank: Vec<RankBreakdown>,
}

/// One attribution segment: an elementary interval of a rank's main
/// lane, owned by the innermost covering span (or idle).
struct Segment {
    rank: usize,
    start: u64,
    end: u64,
    cat: Category,
    /// Index into `MergedTrace::spans` of the owning span, if any.
    owner: Option<usize>,
}

/// Sweep one rank's categorized spans, attributing every instant of
/// `[window_start, window_end]` to the innermost (latest-started)
/// covering span. `spans` are `(merged index, start, end, category)`.
fn sweep_rank(
    rank: usize,
    spans: &[(usize, u64, u64, Category)],
    window: (u64, u64),
    segments: &mut Vec<Segment>,
) {
    // (time, opens?, local index); closes sort before opens at a tie so
    // back-to-back spans do not overlap in the active set.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, &(_, s, e, _)) in spans.iter().enumerate() {
        if e > s {
            events.push((s, true, i));
            events.push((e, false, i));
        }
    }
    events.sort_by_key(|&(t, opens, i)| (t, opens, i));
    let mut active: Vec<usize> = Vec::new();
    let mut prev = window.0;
    let mut ei = 0;
    while ei < events.len() {
        let t = events[ei].0;
        if t > prev {
            let owner = active
                .iter()
                .copied()
                .max_by_key(|&i| (spans[i].1, spans[i].0));
            segments.push(Segment {
                rank,
                start: prev,
                end: t,
                cat: owner.map(|i| spans[i].3).unwrap_or(Category::Idle),
                owner: owner.map(|i| spans[i].0),
            });
            prev = t;
        }
        while ei < events.len() && events[ei].0 == t {
            let (_, opens, i) = events[ei];
            if opens {
                active.push(i);
            } else {
                active.retain(|&j| j != i);
            }
            ei += 1;
        }
    }
    if window.1 > prev {
        segments.push(Segment {
            rank,
            start: prev,
            end: window.1,
            cat: Category::Idle,
            owner: None,
        });
    }
}

/// The parcel tag a frame-span label names (`parcel-send-force` →
/// `force`), or `None` for non-frame labels.
fn frame_tag(label: &str) -> Option<(&str, bool)> {
    if let Some(tag) = label.strip_prefix("parcel-send-") {
        return Some((tag, true));
    }
    if let Some(tag) = label.strip_prefix("parcel-recv-") {
        return Some((tag, false));
    }
    None
}

/// Analyze a merged trace: per-rank taxonomy attribution over each
/// rank's main lane, plus the critical path with cross-rank edges from
/// the k-th parcel send (rank i → rank j, tag) to the k-th matching
/// receive.
pub fn analyze(m: &MergedTrace) -> Analysis {
    let wall_ns = m.spans.iter().map(|s| s.span.end_ns).max().unwrap_or(0);

    // --- per-rank attribution ------------------------------------------------
    let mut segments: Vec<Segment> = Vec::new();
    let mut per_rank: Vec<RankBreakdown> = Vec::with_capacity(m.ranks);
    for rank in 0..m.ranks {
        let main_lane = m.main_lanes.get(rank).copied().unwrap_or(rank);
        let mut lane_spans: Vec<(usize, u64, u64, Category)> = Vec::new();
        let mut background_ns = 0u64;
        for (idx, ms) in m.spans.iter().enumerate() {
            if ms.rank != rank {
                continue;
            }
            let s = &ms.span;
            if s.lane != main_lane {
                background_ns += s.dur_ns();
                continue;
            }
            if let Some(cat) = categorize(&s.cat, &s.label) {
                lane_spans.push((idx, s.start_ns, s.end_ns, cat));
            }
        }
        let mut b = RankBreakdown {
            rank,
            wall_ns,
            background_ns,
            ..RankBreakdown::default()
        };
        if lane_spans.is_empty() {
            // A rank that recorded nothing on its main lane spent the
            // whole run getting ready, by this report's bookkeeping.
            b.startup_ns = wall_ns;
            per_rank.push(b);
            continue;
        }
        let first = lane_spans.iter().map(|&(_, s, _, _)| s).min().unwrap();
        let last = lane_spans.iter().map(|&(_, _, e, _)| e).max().unwrap();
        b.startup_ns = first;
        b.shutdown_ns = wall_ns - last;
        let seg_lo = segments.len();
        sweep_rank(rank, &lane_spans, (first, last), &mut segments);
        for seg in &segments[seg_lo..] {
            *b.slot(seg.cat) += seg.end - seg.start;
        }
        debug_assert_eq!(b.accounted_ns(), wall_ns, "attribution must partition");
        per_rank.push(b);
    }

    // --- frame matching ------------------------------------------------------
    // k-th send from rank i to rank j with tag t ↔ k-th recv on rank j
    // from rank i with the same tag. Span order within a rank survives
    // merging (constant clock shift), so list order is protocol order.
    type Key = (usize, usize, String);
    let mut sends: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    let mut recvs: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    for (idx, ms) in m.spans.iter().enumerate() {
        let s = &ms.span;
        if s.cat != "parcel" || s.peer < 0 {
            continue;
        }
        if let Some((tag, is_send)) = frame_tag(&s.label) {
            let peer = s.peer as usize;
            if is_send {
                sends
                    .entry((ms.rank, peer, tag.to_string()))
                    .or_default()
                    .push(idx);
            } else {
                recvs
                    .entry((peer, ms.rank, tag.to_string()))
                    .or_default()
                    .push(idx);
            }
        }
    }
    let mut matched: Vec<(usize, usize)> = Vec::new(); // (send idx, recv idx)
    let mut causality_violations = 0usize;
    for (key, send_list) in &sends {
        if let Some(recv_list) = recvs.get(key) {
            for (&si, &ri) in send_list.iter().zip(recv_list) {
                matched.push((si, ri));
                // Halo-data tags are direction-suffixed on 3-D grids
                // ("force-00m", "mass-ppp", …): match by kind prefix.
                let is_halo_data = ["mass", "force", "gradient"]
                    .iter()
                    .any(|k| key.2 == *k || key.2.starts_with(&format!("{k}-")));
                if is_halo_data && m.spans[ri].span.end_ns <= m.spans[si].span.start_ns {
                    causality_violations += 1;
                }
            }
        }
    }

    // --- critical path -------------------------------------------------------
    // DP over attribution segments, processed in end order. Chain edges
    // link a rank's consecutive segments; cross edges link a matched
    // send span's last segment to its recv span's last segment. Idle
    // contributes no length; everything else contributes its duration.
    let mut span_last_seg: BTreeMap<usize, usize> = BTreeMap::new();
    for (seg_id, seg) in segments.iter().enumerate() {
        if let Some(owner) = seg.owner {
            span_last_seg.insert(owner, seg_id); // later segments overwrite
        }
    }
    let mut cross: BTreeMap<usize, Vec<usize>> = BTreeMap::new(); // recv seg → send segs
    for &(si, ri) in &matched {
        if let (Some(&ss), Some(&rs)) = (span_last_seg.get(&si), span_last_seg.get(&ri)) {
            cross.entry(rs).or_default().push(ss);
        }
    }
    let mut order: Vec<usize> = (0..segments.len()).collect();
    order.sort_by_key(|&i| (segments[i].end, segments[i].start, segments[i].rank));
    let mut cp: Vec<Option<u64>> = vec![None; segments.len()];
    let mut parent: Vec<Option<usize>> = vec![None; segments.len()];
    let mut rank_prev: Vec<Option<usize>> = vec![None; m.ranks];
    let mut best: Option<usize> = None;
    for &i in &order {
        let seg = &segments[i];
        let eff = if seg.cat == Category::Idle {
            0
        } else {
            seg.end - seg.start
        };
        let mut deps: Vec<usize> = Vec::new();
        if let Some(p) = rank_prev[seg.rank] {
            deps.push(p);
        }
        if let Some(xs) = cross.get(&i) {
            deps.extend(xs);
        }
        let (base, from) = deps
            .into_iter()
            .filter_map(|d| cp[d].map(|v| (v, d)))
            .max()
            .map(|(v, d)| (v, Some(d)))
            .unwrap_or((0, None));
        cp[i] = Some(base + eff);
        parent[i] = from;
        rank_prev[seg.rank] = Some(i);
        if best.is_none_or(|b| cp[i] > cp[b]) {
            best = Some(i);
        }
    }
    let critical_path_ns = best.and_then(|b| cp[b]).unwrap_or(0);
    let mut cp_by_cat: BTreeMap<Category, u64> = BTreeMap::new();
    let mut cursor = best;
    while let Some(i) = cursor {
        let seg = &segments[i];
        if seg.cat != Category::Idle {
            *cp_by_cat.entry(seg.cat).or_default() += seg.end - seg.start;
        }
        cursor = parent[i];
    }

    Analysis {
        ranks: m.ranks,
        wall_ns,
        critical_path_ns,
        critical_path_breakdown: cp_by_cat.into_iter().collect(),
        matched_frames: matched.len(),
        causality_violations,
        per_rank,
    }
}

impl Analysis {
    /// Machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"ranks\": {},", self.ranks);
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(out, "  \"critical_path_ns\": {},", self.critical_path_ns);
        out.push_str("  \"critical_path_breakdown\": {");
        for (i, (cat, ns)) in self.critical_path_breakdown.iter().enumerate() {
            let sep = if i + 1 == self.critical_path_breakdown.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(out, "\"{}\": {ns}{sep}", cat.name());
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"matched_frames\": {},", self.matched_frames);
        let _ = writeln!(
            out,
            "  \"causality_violations\": {},",
            self.causality_violations
        );
        out.push_str("  \"per_rank\": [\n");
        for (i, b) in self.per_rank.iter().enumerate() {
            let sep = if i + 1 == self.per_rank.len() {
                ""
            } else {
                ","
            };
            let mut fields = String::new();
            for cat in Category::ALL {
                let _ = write!(fields, ", \"{}_ns\": {}", cat.name(), b.get(cat));
            }
            let _ = writeln!(
                out,
                "    {{\"rank\": {}, \"wall_ns\": {}{fields}, \"background_ns\": {}}}{}",
                b.rank, b.wall_ns, b.background_ns, sep
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable overhead table (percent of wall-clock per rank).
    pub fn human_table(&self) -> String {
        let pct = |ns: u64| {
            if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.wall_ns as f64
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== overhead taxonomy: {} ranks, wall {:.3} ms ==",
            self.ranks,
            self.wall_ns as f64 / 1e6
        );
        let cp_parts: Vec<String> = self
            .critical_path_breakdown
            .iter()
            .map(|(cat, ns)| format!("{} {:.1}%", cat.name(), pct(*ns)))
            .collect();
        let _ = writeln!(
            out,
            "critical path {:.3} ms ({:.1}% of wall): {}",
            self.critical_path_ns as f64 / 1e6,
            pct(self.critical_path_ns),
            cp_parts.join(", ")
        );
        let _ = writeln!(
            out,
            "matched frames {}, causality violations {}",
            self.matched_frames, self.causality_violations
        );
        let mut header = String::from("rank ");
        for cat in Category::ALL {
            let _ = write!(header, "{:>9}", cat.name());
        }
        header.push_str("   bg-comm");
        let _ = writeln!(out, "{header}");
        for b in &self.per_rank {
            let mut row = format!("{:<5}", b.rank);
            for cat in Category::ALL {
                let _ = write!(row, "{:>8.1}%", pct(b.get(cat)));
            }
            let _ = write!(row, "{:>9.1}%", pct(b.background_ns));
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// The acceptance gate: every rank's taxonomy must sum to the
    /// wall-clock within 1%, and halo causality must hold.
    pub fn verify(&self) -> Result<(), String> {
        for b in &self.per_rank {
            let acc = b.accounted_ns();
            let tol = self.wall_ns / 100;
            let diff = acc.abs_diff(self.wall_ns);
            if diff > tol {
                return Err(format!(
                    "rank {}: categories sum to {acc} ns but wall is {} ns (diff {diff} > 1%)",
                    b.rank, self.wall_ns
                ));
            }
        }
        if self.causality_violations > 0 {
            return Err(format!(
                "{} halo send→recv pairs violate causality after clock alignment",
                self.causality_violations
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace lint
// ---------------------------------------------------------------------------

/// Counters [`lint_chrome_trace`] reports on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintStats {
    /// `ph: "X"` span events.
    pub events: usize,
    /// Events with `cat: "barrier"`.
    pub barriers: usize,
    /// Distinct `pid` values among span events.
    pub pids: usize,
}

/// The `cat` values this workspace's tracers emit.
const KNOWN_CATS: [&str; 6] = ["task", "steal", "barrier", "region", "halo", "parcel"];

/// Structurally validate a Chrome-trace document: top-level array,
/// non-negative timestamps/durations (a span predating the aligned epoch
/// means clock correction went wrong), known `cat` values, and — for
/// multi-process (merged) traces — `process_name` metadata naming every
/// rank lane group. `min_barriers` guards against silently-empty traces.
pub fn lint_chrome_trace(content: &str, min_barriers: usize) -> Result<LintStats, String> {
    let doc = jsonlint::parse(content).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .arr()
        .ok_or("a Chrome trace must be a top-level JSON array")?;
    let mut stats = LintStats {
        events: 0,
        barriers: 0,
        pids: 0,
    };
    let mut span_pids: Vec<i64> = Vec::new();
    let mut named_pids: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::str)
            .ok_or_else(|| format!("event {i}: missing 'ph'"))?;
        let pid = ev.get("pid").and_then(Value::num).unwrap_or(0.0) as i64;
        match ph {
            "M" => {
                let name = ev.get("name").and_then(Value::str).unwrap_or("");
                if name == "process_name" && !named_pids.contains(&pid) {
                    named_pids.push(pid);
                }
            }
            "X" => {
                stats.events += 1;
                let ts = ev
                    .get("ts")
                    .and_then(Value::num)
                    .ok_or_else(|| format!("event {i}: missing 'ts'"))?;
                if ts < 0.0 {
                    return Err(format!(
                        "event {i}: negative timestamp {ts} (span predates the aligned epoch)"
                    ));
                }
                if let Some(dur) = ev.get("dur").and_then(Value::num) {
                    if dur < 0.0 {
                        return Err(format!("event {i}: negative duration {dur}"));
                    }
                }
                if let Some(cat) = ev.get("cat").and_then(Value::str) {
                    if !KNOWN_CATS.contains(&cat) {
                        return Err(format!("event {i}: unknown cat '{cat}'"));
                    }
                    if cat == "barrier" {
                        stats.barriers += 1;
                    }
                }
                if !span_pids.contains(&pid) {
                    span_pids.push(pid);
                }
            }
            _ => {}
        }
    }
    stats.pids = span_pids.len();
    if span_pids.len() > 1 {
        for pid in &span_pids {
            if !named_pids.contains(pid) {
                return Err(format!(
                    "multi-rank trace: pid {pid} has span events but no process_name metadata"
                ));
            }
        }
    }
    if stats.barriers < min_barriers {
        return Err(format!(
            "expected >= {min_barriers} barrier events, found {}",
            stats.barriers
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanKind, Tracer};

    #[allow(clippy::too_many_arguments)]
    fn own(
        id: u64,
        label: &str,
        lane: usize,
        start: u64,
        end: u64,
        cat: &str,
        bytes: u64,
        peer: i64,
    ) -> OwnedSpan {
        OwnedSpan {
            id,
            label: label.to_string(),
            lane,
            start_ns: start,
            end_ns: end,
            cat: cat.to_string(),
            bytes,
            peer,
        }
    }

    /// The synthetic 3-rank scenario: true (aligned) times are designed
    /// by hand; each rank's local clock is shifted by a known offset.
    fn synthetic_traces(offsets: [i64; 3]) -> Vec<RankTrace> {
        let shift = |spans: Vec<OwnedSpan>, off: i64| -> Vec<OwnedSpan> {
            spans
                .into_iter()
                .map(|mut s| {
                    s.start_ns = (s.start_ns as i64 + off) as u64;
                    s.end_ns = (s.end_ns as i64 + off) as u64;
                    s
                })
                .collect()
        };
        let r0 = vec![
            own(0, "forces", 0, 0, 300, "region", 0, -1),
            own(1, "parcel-send-force", 0, 300, 320, "parcel", 800, 1),
            own(2, "barrier-dt", 0, 320, 400, "barrier", 0, -1),
            own(3, "eos", 0, 400, 900, "region", 0, -1),
        ];
        let r1 = vec![
            own(0, "forces", 1, 50, 280, "region", 0, -1),
            own(1, "parcel-wait-force", 1, 280, 350, "parcel", 0, 0),
            own(2, "parcel-recv-force", 1, 350, 360, "parcel", 800, 0),
            own(3, "eos", 1, 360, 980, "region", 0, -1),
            own(4, "barrier-dt", 1, 980, 1000, "barrier", 0, -1),
        ];
        let r2 = vec![
            own(0, "forces", 2, 100, 200, "region", 0, -1),
            own(1, "eos", 2, 600, 700, "region", 0, -1),
        ];
        vec![
            RankTrace {
                rank: 0,
                ranks: 3,
                main_lane: 0,
                offset_ns: offsets[0],
                lane_names: vec![(0, "rank0".into())],
                spans: shift(r0, offsets[0]),
            },
            RankTrace {
                rank: 1,
                ranks: 3,
                main_lane: 1,
                offset_ns: offsets[1],
                lane_names: vec![(1, "rank1".into())],
                spans: shift(r1, offsets[1]),
            },
            RankTrace {
                rank: 2,
                ranks: 3,
                main_lane: 2,
                offset_ns: offsets[2],
                lane_names: vec![(2, "rank2".into())],
                spans: shift(r2, offsets[2]),
            },
        ]
    }

    #[test]
    fn rank_trace_roundtrips_through_json() {
        let t = Tracer::new(2);
        t.record_interval(0, SpanKind::Region, "forces", 10, 20);
        t.record_parcel(0, "parcel-send-force", 20, 25, 800, 1);
        let spans = t.drain();
        let rt = RankTrace::from_spans(
            0,
            2,
            0,
            -12345,
            vec![(0, "rank0".into()), (1, "rank0-comm".into())],
            &spans,
        );
        let json = rt.to_json();
        jsonlint::validate(&json).expect("rank trace is valid JSON");
        let back = RankTrace::parse(&json).unwrap();
        assert_eq!(back, rt);
        assert_eq!(back.spans[1].bytes, 800);
        assert_eq!(back.spans[1].peer, 1);
        assert_eq!(back.offset_ns, -12345);
    }

    #[test]
    fn parse_rejects_schema_drift_and_garbage() {
        assert!(RankTrace::parse("{}").is_err());
        assert!(RankTrace::parse("not json").is_err());
        let rt = synthetic_traces([0, 0, 0]).remove(0);
        let wrong_schema = rt.to_json().replacen("\"schema\": 1", "\"schema\": 99", 1);
        assert!(RankTrace::parse(&wrong_schema).is_err());
    }

    #[test]
    fn merge_aligns_skewed_clocks_and_orders_halo_pairs() {
        // Injected skews of +2 ms, +5 ms, +3 ms; merge must recover the
        // designed timeline exactly.
        let traces = synthetic_traces([2_000_000, 5_000_000, 3_000_000]);
        let m = merge(traces).unwrap();
        assert_eq!(m.ranks, 3);
        // Monotone: sorted by aligned start.
        assert!(m
            .spans
            .windows(2)
            .all(|w| w[0].span.start_ns <= w[1].span.start_ns));
        // The rebased timeline starts at 0 and recovers the true times.
        assert_eq!(m.spans[0].span.start_ns, 0);
        let send = m
            .spans
            .iter()
            .find(|s| s.span.label == "parcel-send-force")
            .unwrap();
        let recv = m
            .spans
            .iter()
            .find(|s| s.span.label == "parcel-recv-force")
            .unwrap();
        assert_eq!(
            (send.rank, send.span.start_ns, send.span.end_ns),
            (0, 300, 320)
        );
        assert_eq!(
            (recv.rank, recv.span.start_ns, recv.span.end_ns),
            (1, 350, 360)
        );
        // Correct order: the send strictly precedes the matching recv.
        assert!(send.span.start_ns < recv.span.end_ns);

        let a = analyze(&m);
        assert_eq!(a.wall_ns, 1000);
        assert_eq!(a.matched_frames, 1);
        assert_eq!(a.causality_violations, 0);
        a.verify().expect("attribution sums to wall on every rank");
        for b in &a.per_rank {
            assert_eq!(b.accounted_ns(), a.wall_ns, "rank {} partitions", b.rank);
        }
        // Hand-computed taxonomy.
        let r0 = &a.per_rank[0];
        assert_eq!(
            (r0.busy_ns, r0.send_ns, r0.barrier_ns, r0.shutdown_ns),
            (800, 20, 80, 100)
        );
        let r1 = &a.per_rank[1];
        assert_eq!(
            (r1.startup_ns, r1.busy_ns, r1.wait_ns, r1.barrier_ns),
            (50, 850, 80, 20)
        );
        let r2 = &a.per_rank[2];
        assert_eq!(
            (r2.startup_ns, r2.busy_ns, r2.idle_ns, r2.shutdown_ns),
            (100, 200, 400, 300)
        );
        // Critical path: rank0 forces → send → rank1 recv → eos → barrier.
        assert_eq!(a.critical_path_ns, 970);
        let cp: BTreeMap<Category, u64> = a.critical_path_breakdown.iter().copied().collect();
        assert_eq!(cp.get(&Category::Busy), Some(&920));
        assert_eq!(cp.get(&Category::Send), Some(&20));
        assert_eq!(cp.get(&Category::Wait), Some(&10));
        assert_eq!(cp.get(&Category::Barrier), Some(&20));
    }

    #[test]
    fn wrong_offsets_surface_as_causality_violations() {
        // Rank 1's clock claims to be 5 ms *ahead* of rank 0 when the
        // clocks actually agree: "alignment" drags its recv millis
        // before rank 0's send.
        let mut traces = synthetic_traces([0, 0, 0]);
        traces[1].offset_ns = 5_000_000;
        let m = merge(traces).unwrap();
        let a = analyze(&m);
        assert!(a.causality_violations > 0);
        assert!(a.verify().is_err());
    }

    #[test]
    fn merge_rejects_incomplete_worlds() {
        let mut traces = synthetic_traces([0, 0, 0]);
        traces.pop();
        assert!(merge(traces).is_err());
        assert!(merge(Vec::new()).is_err());
    }

    #[test]
    fn trace_files_roundtrip_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("obs-dist-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let traces = synthetic_traces([2_000_000, 5_000_000, 3_000_000]);
        for t in &traces {
            write_rank_trace(&dir, t).unwrap();
        }
        let back = read_rank_traces(&dir).unwrap();
        assert_eq!(back, traces);
        // A missing rank is an error, not a silent partial merge.
        std::fs::remove_file(dir.join(RankTrace::file_name(1))).unwrap();
        assert!(read_rank_traces(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_chrome_trace_passes_lint() {
        let traces = synthetic_traces([2_000_000, 5_000_000, 3_000_000]);
        let m = merge(traces).unwrap();
        let json = merged_chrome_trace(&m);
        let stats = lint_chrome_trace(&json, 2).unwrap();
        assert_eq!(stats.pids, 3);
        assert_eq!(stats.barriers, 2);
        assert_eq!(stats.events, 11);
        // Parcel events carry byte/peer args.
        assert!(json.contains(r#""args": {"bytes": 800, "peer": 1}"#));
        // Rank lanes are named processes.
        assert!(json.contains(r#""name": "process_name""#));
    }

    #[test]
    fn lint_rejects_structural_defects() {
        // Negative timestamp.
        let bad_ts = r#"[ {"name": "x-0", "cat": "task", "ph": "X", "ts": -1.0, "dur": 1.0, "pid": 0, "tid": 0} ]"#;
        assert!(lint_chrome_trace(bad_ts, 0)
            .unwrap_err()
            .contains("negative timestamp"));
        // Unknown cat.
        let bad_cat = r#"[ {"name": "x-0", "cat": "bogus", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0} ]"#;
        assert!(lint_chrome_trace(bad_cat, 0)
            .unwrap_err()
            .contains("unknown cat"));
        // Multi-pid trace without rank metadata.
        let no_meta = r#"[
          {"name": "x-0", "cat": "task", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0},
          {"name": "y-1", "cat": "task", "ph": "X", "ts": 2.0, "dur": 1.0, "pid": 1, "tid": 1}
        ]"#;
        assert!(lint_chrome_trace(no_meta, 0)
            .unwrap_err()
            .contains("process_name"));
        // Barrier floor.
        let ok = r#"[ {"name": "b-0", "cat": "barrier", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0} ]"#;
        assert!(lint_chrome_trace(ok, 2).is_err());
        assert_eq!(lint_chrome_trace(ok, 1).unwrap().barriers, 1);
        // Single-process traces need no process_name metadata.
        assert!(lint_chrome_trace(ok, 0).is_ok());
    }

    #[test]
    fn single_process_merge_with_zero_offsets_is_identity_like() {
        // The in-process channel driver shares one tracer: offsets are 0
        // and merging must not move anything (beyond the rebase).
        let traces = synthetic_traces([0, 0, 0]);
        let m = merge(traces.clone()).unwrap();
        for ms in &m.spans {
            let orig = traces[ms.rank]
                .spans
                .iter()
                .find(|s| s.id == ms.span.id)
                .unwrap();
            assert_eq!(ms.span.start_ns, orig.start_ns);
        }
    }
}
