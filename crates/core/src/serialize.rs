//! Schedule serialization and the warm-start plan cache.
//!
//! Schedules are expensive to compute and cheap to store; the amortization
//! workflow (§7.7) computes a schedule once and reuses it across runs of the
//! same sparsity pattern. This module provides the three layers of that
//! reuse:
//!
//! * **[`PlanFingerprint`]** — a stable 128-bit content hash over the
//!   operand's sparsity structure plus the schedule-relevant build key
//!   (scheduler spec, core count, pipeline toggles). Two builds with the
//!   same fingerprint would schedule identically, so the fingerprint is the
//!   cache key everywhere below.
//! * **[`PlanCache`]** — a capacity-bounded in-process LRU from fingerprint
//!   to [`CachedPlan`] (the schedule, its compiled layout, the §5 reorder
//!   permutation, and opportunistically the final operand/kernel plan/sync
//!   DAG). A planner consulting the cache on a hit skips scheduling,
//!   reordering and validation entirely and shares the same
//!   `Arc<CompiledSchedule>` the executors already consume.
//! * **Versioned on-disk plan files** ([`SavedPlan`], [`write_plan`],
//!   [`read_plan`]) — the v3 format below, carrying a format version, the fingerprint, the final schedule, the
//!   reorder permutation, and optionally the kernel-layer verdict and the
//!   reduced wait DAG's removed-edge set, guarded by a body checksum.
//!   Corrupt, truncated, version-mismatched or wrong-matrix files are
//!   rejected with an error — a stale or damaged cache can cost a
//!   rebuild, never a wrong answer.
//!
//! # v1: schedule files
//!
//! The original line-oriented schedule format is still read and written
//! (the CLI `schedule` subcommand uses it):
//!
//! ```text
//! sptrsv-schedule v1
//! cores 8
//! vertices 4
//! 0 0
//! 0 1
//! 1 1
//! 0 2
//! ```
//!
//! with one `core superstep` pair per vertex, in vertex order.
//!
//! # v3: plan files
//!
//! ```text
//! sptrsv-plan v3
//! fingerprint 9f86d081884c7d65...      (32 hex digits)
//! key growlocal:alpha=8|cores=4|...    (informational build key)
//! cores 4
//! vertices 3
//! reorder 1
//! 0 0 2
//! 1 0 0
//! 0 1 1
//! kernel 2                             (optional section)
//! s 0 1
//! d 1 2
//! syncdag 1                            (optional section)
//! 0 2
//! checksum 1b3dd26fa2f7c348
//! ```
//!
//! Each vertex line is `core superstep` (`reorder 0`) or
//! `core superstep old` (`reorder 1`), where `old` is the §5 reorder
//! permutation's `old_of_new` entry. Two optional sections follow, in this
//! order:
//!
//! * `kernel <n_ops>` — the kernel-layer verdict as a flat cell-order
//!   [`VerdictOp`] stream: `s start len` (scalar run), `u start len lanes`
//!   (unrolled run), `d first rows` (dense block by matrix row range —
//!   the packed panels are rebuilt from the operand on load, so no
//!   values live in the file);
//! * `syncdag <n_removed>` — the edges (`u w` per line, "w waits on u")
//!   the reduced wait DAG removed from the full solve DAG. The loader
//!   revalidates each against the freshly built full DAG (a removed edge
//!   must exist there and have a two-edge witness path) before
//!   reconstructing the reduced DAG as full-minus-removed, which is what
//!   lets `spmp@async` disk loads skip the transitive reduction.
//!
//! The trailing checksum is a digest of every parsed value — sections
//! included — so silent bit rot anywhere in the body is detected even
//! when the damaged line still parses. Missing sections simply mean the
//! load path recomputes those artifacts.

use crate::compiled::CompiledSchedule;
use crate::kernel::{KernelPlan, VerdictOp};
use crate::schedule::Schedule;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a valid schedule/plan file (malformed, truncated,
    /// or internally inconsistent).
    Parse(String),
    /// The file is a plan file of an unsupported format version.
    Version {
        /// The header line actually found.
        found: String,
    },
    /// The plan file was saved for a different (matrix, build key) pair
    /// than the one it is being loaded for.
    FingerprintMismatch {
        /// Fingerprint the loader expected (current matrix + build key).
        expected: PlanFingerprint,
        /// Fingerprint recorded in the file.
        found: PlanFingerprint,
    },
    /// The body checksum does not match the parsed content (bit rot or a
    /// hand-edited file).
    Checksum {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the parsed body.
        computed: u64,
    },
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Parse(msg) => write!(f, "parse error: {msg}"),
            SerializeError::Version { found } => {
                write!(f, "unsupported plan format: `{found}` (expected `{PLAN_HEADER}`)")
            }
            SerializeError::FingerprintMismatch { expected, found } => write!(
                f,
                "plan fingerprint mismatch: file was saved for {found}, \
                 current matrix/spec fingerprint is {expected}"
            ),
            SerializeError::Checksum { stored, computed } => write!(
                f,
                "plan body checksum mismatch (stored {stored:016x}, computed {computed:016x}): \
                 the file is corrupt"
            ),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-lane offset: the FNV offset basis XOR-folded with an arbitrary
/// odd constant, so the two lanes never agree on the empty input.
const FNV_OFFSET_2: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Incremental two-lane FNV-1a hasher behind [`PlanFingerprint`]. Stable
/// across runs, platforms and compiler versions (unlike `std`'s
/// `DefaultHasher`, which is randomly seeded per process).
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    h1: u64,
    h2: u64,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    /// A fresh hasher.
    pub fn new() -> FingerprintHasher {
        FingerprintHasher { h1: FNV_OFFSET, h2: FNV_OFFSET_2 }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h1 = (self.h1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.h2 = (self.h2 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one integer, mixed as a whole 64-bit word (one multiply per
    /// word instead of eight — fingerprints hash multi-million-entry index
    /// arrays on the warm-start path, where the byte loop dominates).
    pub fn write_u64(&mut self, v: u64) {
        self.h1 = (self.h1 ^ v).wrapping_mul(FNV_PRIME);
        self.h2 = (self.h2 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a `usize` slice (each element as a little-endian `u64`, so the
    /// digest is identical on 32- and 64-bit targets).
    pub fn write_usize_slice(&mut self, slice: &[usize]) {
        for &v in slice {
            self.write_u64(v as u64);
        }
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> PlanFingerprint {
        PlanFingerprint { hi: self.h1, lo: self.h2 }
    }

    /// The first-lane 64-bit digest (used for body checksums and value
    /// digests, where 64 bits suffice).
    pub fn finish64(&self) -> u64 {
        self.h1
    }
}

/// A stable 128-bit content hash identifying one schedule-relevant build:
/// the operand's sparsity structure (row pointers + column indices — values
/// are deliberately excluded, so a numeric re-factorization with fixed
/// structure keys the same plan) combined with the build key (scheduler
/// spec, core count and pipeline toggles). Equal fingerprints ⇒ the
/// scheduling pipeline would produce the same artifact, so the fingerprint
/// keys both the in-process [`PlanCache`] and on-disk plan files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanFingerprint {
    hi: u64,
    lo: u64,
}

impl PlanFingerprint {
    /// Fingerprints `matrix`'s sparsity structure under the given build
    /// key. O(nnz) — one hashing pass, no allocation.
    pub fn compute(matrix: &CsrMatrix, schedule_key: &str) -> PlanFingerprint {
        let mut h = FingerprintHasher::new();
        h.write_u64(matrix.n_rows() as u64);
        h.write_u64(matrix.nnz() as u64);
        h.write_usize_slice(matrix.row_ptr());
        h.write_usize_slice(matrix.col_idx());
        h.write_u64(schedule_key.len() as u64);
        h.write_bytes(schedule_key.as_bytes());
        h.finish()
    }

    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<PlanFingerprint> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(PlanFingerprint { hi, lo })
    }
}

impl std::fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Digest of a value array (used to decide whether a cached operand /
/// kernel plan — both value-dependent — may be reused verbatim). Hashes
/// the IEEE-754 bit patterns, so `-0.0 != 0.0` and NaNs with different
/// payloads differ: reuse is bit-exact or not at all.
pub fn value_digest(values: &[f64]) -> u64 {
    // Single-lane word-wise FNV: this runs over every non-zero on the
    // warm-start path, where 64 bits suffice (a digest mismatch only costs
    // a re-permute, never a wrong answer).
    let mut h = FNV_OFFSET;
    h = (h ^ values.len() as u64).wrapping_mul(FNV_PRIME);
    for &v in values {
        h = (h ^ v.to_bits()).wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// In-process plan cache
// ---------------------------------------------------------------------------

/// One cached scheduling artifact: everything a planner needs to go from a
/// validated lower-triangular operand to an executor without running the
/// scheduler, the §5 reordering or schedule validation again.
///
/// The schedule-derived fields (`schedule`, `compiled`, `reorder_perm`)
/// depend only on the fingerprinted inputs and are always safe to reuse
/// under the entry's fingerprint. The value-dependent fields (`matrix`,
/// `kernel`) are tagged with [`CachedPlan::values_digest`] and may only be
/// reused when the candidate operand's [`value_digest`] matches; otherwise
/// the planner re-permutes/re-detects against the new values (still
/// skipping all scheduling work).
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The final (post-reorder) schedule.
    pub schedule: Schedule,
    /// The compiled flat layout of `schedule`, shared with every executor
    /// built from this entry.
    pub compiled: Arc<CompiledSchedule>,
    /// The §5 locality-reorder permutation applied to the scheduled
    /// operand (`None` when the plan was built with reordering disabled).
    pub reorder_perm: Option<Permutation>,
    /// The final internal operand (post-reorder), reusable when
    /// `values_digest` matches the candidate's values.
    pub matrix: Arc<CsrMatrix>,
    /// [`value_digest`] of the pre-reorder operand's values at insert time.
    pub values_digest: u64,
    /// The detected kernel plan for `matrix` (present only when the
    /// inserting build ran under `fastmath=on`); value-dependent, gated by
    /// `values_digest` like `matrix`.
    pub kernel: Option<Arc<KernelPlan>>,
    /// The reduced synchronization DAG of an asynchronous plan (present
    /// only when the inserting build was `@async` with `sync=reduced`);
    /// structure-only, safe to reuse under the fingerprint.
    pub reduced_sync_dag: Option<SolveDag>,
}

/// A capacity-bounded, thread-safe LRU cache from [`PlanFingerprint`] to
/// [`CachedPlan`]. Intended lifetime: one per serving process (or one per
/// test/bench harness), shared across `PlanBuilder` invocations via
/// `Arc<PlanCache>`.
///
/// Hits clone `Arc`s and small index vectors — never the operand or the
/// compiled layout — so a warm plan build costs a fingerprint pass plus
/// executor wiring instead of a full scheduling run.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<PlanFingerprint, CacheSlot>,
    tick: u64,
}

#[derive(Debug)]
struct CacheSlot {
    last_used: u64,
    entry: Arc<CachedPlan>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (least-recently-used
    /// eviction). Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "a plan cache holds at least one plan");
        PlanCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up a fingerprint, refreshing its recency on a hit.
    pub fn get(&self, fingerprint: &PlanFingerprint) -> Option<Arc<CachedPlan>> {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(fingerprint) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// plan when the cache is full.
    pub fn insert(&self, fingerprint: PlanFingerprint, entry: Arc<CachedPlan>) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&fingerprint) && inner.map.len() >= self.capacity {
            // O(capacity) victim scan: plan caches are small (tens of
            // entries), so a scan beats maintaining an ordered side list.
            if let Some(&victim) =
                inner.map.iter().min_by_key(|(_, slot)| slot.last_used).map(|(fp, _)| fp)
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(fingerprint, CacheSlot { last_used: tick, entry });
    }
}

// ---------------------------------------------------------------------------
// v1: schedule files
// ---------------------------------------------------------------------------

/// Writes a schedule in the v1 text format.
pub fn write_schedule<W: Write>(schedule: &Schedule, writer: W) -> Result<(), SerializeError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "sptrsv-schedule v1")?;
    writeln!(w, "cores {}", schedule.n_cores())?;
    writeln!(w, "vertices {}", schedule.n_vertices())?;
    for v in 0..schedule.n_vertices() {
        writeln!(w, "{} {}", schedule.core_of(v), schedule.step_of(v))?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a schedule in the v1 text format.
pub fn read_schedule<R: Read>(reader: R) -> Result<Schedule, SerializeError> {
    let mut lines = BufReader::new(reader).lines();
    let mut next = |what: &str| -> Result<String, SerializeError> {
        lines
            .next()
            .ok_or_else(|| {
                SerializeError::Parse(format!("unexpected end of file, expected {what}"))
            })?
            .map_err(SerializeError::from)
    };
    let header = next("header")?;
    if header.trim() != "sptrsv-schedule v1" {
        return Err(SerializeError::Parse(format!("bad header: {header}")));
    }
    let n_cores = parse_kv(&next("cores")?, "cores")?;
    if n_cores == 0 {
        return Err(SerializeError::Parse("cores must be positive".into()));
    }
    let n = parse_kv(&next("vertices")?, "vertices")?;
    let mut core_of = Vec::with_capacity(n);
    let mut step_of = Vec::with_capacity(n);
    for v in 0..n {
        let line = next("assignment")?;
        let mut it = line.split_whitespace();
        let core: usize = it
            .next()
            .ok_or_else(|| SerializeError::Parse(format!("missing core for vertex {v}")))?
            .parse()
            .map_err(|e| SerializeError::Parse(format!("vertex {v}: {e}")))?;
        let step: usize = it
            .next()
            .ok_or_else(|| SerializeError::Parse(format!("missing superstep for vertex {v}")))?
            .parse()
            .map_err(|e| SerializeError::Parse(format!("vertex {v}: {e}")))?;
        if core >= n_cores {
            return Err(SerializeError::Parse(format!(
                "vertex {v}: core {core} out of range (cores {n_cores})"
            )));
        }
        core_of.push(core);
        step_of.push(step);
    }
    Ok(Schedule::new(n_cores, core_of, step_of))
}

/// Writes a schedule to a file.
pub fn write_schedule_file<P: AsRef<Path>>(
    schedule: &Schedule,
    path: P,
) -> Result<(), SerializeError> {
    write_schedule(schedule, std::fs::File::create(path)?)
}

/// Reads a schedule from a file.
pub fn read_schedule_file<P: AsRef<Path>>(path: P) -> Result<Schedule, SerializeError> {
    read_schedule(std::fs::File::open(path)?)
}

// ---------------------------------------------------------------------------
// v3: plan files
// ---------------------------------------------------------------------------

const PLAN_HEADER: &str = "sptrsv-plan v3";

/// The on-disk scheduling artifact: the final schedule, the §5 reorder
/// permutation that produced its operand, and the fingerprint + build key
/// identifying the (matrix structure, spec, policy) it belongs to. See the
/// module docs for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedPlan {
    /// Fingerprint of the build this artifact belongs to.
    pub fingerprint: PlanFingerprint,
    /// Human-readable build key (informational; the fingerprint is
    /// authoritative).
    pub key: String,
    /// The final (post-reorder) schedule.
    pub schedule: Schedule,
    /// The §5 reorder permutation (`None` when reordering was disabled).
    pub reorder_perm: Option<Permutation>,
    /// The kernel-layer verdict of the saved build (`None` when the build
    /// ran without `fastmath=on`). Replayed through
    /// [`KernelPlan::from_verdict`] on load instead of re-running
    /// detection.
    pub kernel: Option<Vec<VerdictOp>>,
    /// The edges the build's reduced wait DAG removed from the full solve
    /// DAG (`None` when the build did not use `sync=reduced` asynchronous
    /// execution). Lets a disk load reconstruct the reduced DAG without
    /// re-running the transitive reduction.
    pub removed_sync_edges: Option<Vec<(usize, usize)>>,
}

/// Digest of a plan file's parsed body: cores, vertex count, assignments
/// and permutation, plus the optional kernel-verdict and removed-sync-edge
/// sections (presence flags included, so a stripped section cannot
/// masquerade as "never written").
fn plan_body_checksum(
    n_cores: usize,
    core_of: &[usize],
    step_of: &[usize],
    perm: Option<&[usize]>,
    kernel: Option<&[VerdictOp]>,
    removed: Option<&[(usize, usize)]>,
) -> u64 {
    let mut h = FingerprintHasher::new();
    h.write_u64(n_cores as u64);
    h.write_u64(core_of.len() as u64);
    h.write_usize_slice(core_of);
    h.write_usize_slice(step_of);
    match perm {
        Some(p) => {
            h.write_u64(1);
            h.write_usize_slice(p);
        }
        None => h.write_u64(0),
    }
    match kernel {
        Some(ops) => {
            h.write_u64(1);
            h.write_u64(ops.len() as u64);
            for op in ops {
                match *op {
                    VerdictOp::Scalar { start, len } => {
                        h.write_u64(0);
                        h.write_u64(u64::from(start));
                        h.write_u64(u64::from(len));
                    }
                    VerdictOp::Unrolled { start, len, lanes } => {
                        h.write_u64(1);
                        h.write_u64(u64::from(start));
                        h.write_u64(u64::from(len));
                        h.write_u64(u64::from(lanes));
                    }
                    VerdictOp::Dense { first, rows } => {
                        h.write_u64(2);
                        h.write_u64(u64::from(first));
                        h.write_u64(u64::from(rows));
                    }
                }
            }
        }
        None => h.write_u64(0),
    }
    match removed {
        Some(edges) => {
            h.write_u64(1);
            h.write_u64(edges.len() as u64);
            for &(u, w) in edges {
                h.write_u64(u as u64);
                h.write_u64(w as u64);
            }
        }
        None => h.write_u64(0),
    }
    h.finish64()
}

/// Writes a plan artifact in the v3 format.
pub fn write_plan<W: Write>(plan: &SavedPlan, writer: W) -> Result<(), SerializeError> {
    if plan.key.contains('\n') || plan.key.contains('\r') {
        return Err(SerializeError::Parse("plan key must be a single line".into()));
    }
    if let Some(perm) = &plan.reorder_perm {
        if perm.len() != plan.schedule.n_vertices() {
            return Err(SerializeError::Parse(format!(
                "reorder permutation covers {} vertices, schedule has {}",
                perm.len(),
                plan.schedule.n_vertices()
            )));
        }
    }
    let mut w = BufWriter::new(writer);
    writeln!(w, "{PLAN_HEADER}")?;
    writeln!(w, "fingerprint {}", plan.fingerprint)?;
    writeln!(w, "key {}", plan.key)?;
    writeln!(w, "cores {}", plan.schedule.n_cores())?;
    writeln!(w, "vertices {}", plan.schedule.n_vertices())?;
    writeln!(w, "reorder {}", u8::from(plan.reorder_perm.is_some()))?;
    match &plan.reorder_perm {
        Some(perm) => {
            for (v, &old) in perm.old_of_new().iter().enumerate() {
                writeln!(w, "{} {} {}", plan.schedule.core_of(v), plan.schedule.step_of(v), old)?;
            }
        }
        None => {
            for v in 0..plan.schedule.n_vertices() {
                writeln!(w, "{} {}", plan.schedule.core_of(v), plan.schedule.step_of(v))?;
            }
        }
    }
    if let Some(ops) = &plan.kernel {
        writeln!(w, "kernel {}", ops.len())?;
        for op in ops {
            match *op {
                VerdictOp::Scalar { start, len } => writeln!(w, "s {start} {len}")?,
                VerdictOp::Unrolled { start, len, lanes } => {
                    writeln!(w, "u {start} {len} {lanes}")?
                }
                VerdictOp::Dense { first, rows } => writeln!(w, "d {first} {rows}")?,
            }
        }
    }
    if let Some(edges) = &plan.removed_sync_edges {
        writeln!(w, "syncdag {}", edges.len())?;
        for &(u, v) in edges {
            writeln!(w, "{u} {v}")?;
        }
    }
    let checksum = plan_body_checksum(
        plan.schedule.n_cores(),
        plan.schedule.cores(),
        plan.schedule.steps(),
        plan.reorder_perm.as_ref().map(|p| p.old_of_new()),
        plan.kernel.as_deref(),
        plan.removed_sync_edges.as_deref(),
    );
    writeln!(w, "checksum {checksum:016x}")?;
    w.flush()?;
    Ok(())
}

/// Reads a plan artifact in the v3 format, verifying the version header
/// and the body checksum. Fingerprint verification against the *current* matrix
/// and build key is the caller's job (the planner compares
/// [`SavedPlan::fingerprint`] against a freshly computed
/// [`PlanFingerprint`]).
pub fn read_plan<R: Read>(reader: R) -> Result<SavedPlan, SerializeError> {
    let mut lines = BufReader::new(reader).lines();
    let mut next = |what: &str| -> Result<String, SerializeError> {
        lines
            .next()
            .ok_or_else(|| {
                SerializeError::Parse(format!("unexpected end of file, expected {what}"))
            })?
            .map_err(SerializeError::from)
    };
    let header = next("header")?;
    if header.trim() != PLAN_HEADER {
        return Err(SerializeError::Version { found: header.trim().to_string() });
    }
    let fp_line = next("fingerprint")?;
    let fingerprint = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|s| PlanFingerprint::parse(s.trim()))
        .ok_or_else(|| SerializeError::Parse(format!("bad fingerprint line: {fp_line}")))?;
    let key_line = next("key")?;
    let key = key_line
        .strip_prefix("key ")
        .ok_or_else(|| SerializeError::Parse(format!("bad key line: {key_line}")))?
        .to_string();
    let n_cores = parse_kv(&next("cores")?, "cores")?;
    if n_cores == 0 {
        return Err(SerializeError::Parse("cores must be positive".into()));
    }
    let n = parse_kv(&next("vertices")?, "vertices")?;
    let reorder = match parse_kv(&next("reorder")?, "reorder")? {
        0 => false,
        1 => true,
        other => return Err(SerializeError::Parse(format!("reorder must be 0 or 1, got {other}"))),
    };
    let mut core_of = Vec::with_capacity(n);
    let mut step_of = Vec::with_capacity(n);
    let mut old_of_new: Vec<usize> = Vec::with_capacity(if reorder { n } else { 0 });
    for v in 0..n {
        let line = next("assignment")?;
        let mut it = line.split_whitespace();
        let mut field = |what: &str| -> Result<usize, SerializeError> {
            it.next()
                .ok_or_else(|| SerializeError::Parse(format!("vertex {v}: missing {what}")))?
                .parse()
                .map_err(|e| SerializeError::Parse(format!("vertex {v} {what}: {e}")))
        };
        let core = field("core")?;
        if core >= n_cores {
            return Err(SerializeError::Parse(format!(
                "vertex {v}: core {core} out of range (cores {n_cores})"
            )));
        }
        core_of.push(core);
        step_of.push(field("superstep")?);
        if reorder {
            old_of_new.push(field("reorder source")?);
        }
    }
    // v3 optional sections: `kernel <n>` then `syncdag <n>`, each absent when
    // the build didn't produce it. One line of lookahead distinguishes a
    // section header from the checksum line.
    let mut kernel: Option<Vec<VerdictOp>> = None;
    let mut removed: Option<Vec<(usize, usize)>> = None;
    let mut line = next("kernel/syncdag/checksum")?;
    if let Some(count) = line.strip_prefix("kernel ") {
        let n_ops: usize = count
            .trim()
            .parse()
            .map_err(|e| SerializeError::Parse(format!("bad kernel count: {e}")))?;
        let mut ops = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            ops.push(parse_verdict_op(&next("kernel op")?, i)?);
        }
        kernel = Some(ops);
        line = next("syncdag/checksum")?;
    }
    if let Some(count) = line.strip_prefix("syncdag ") {
        let n_edges: usize = count
            .trim()
            .parse()
            .map_err(|e| SerializeError::Parse(format!("bad syncdag count: {e}")))?;
        let mut edges = Vec::with_capacity(n_edges);
        for i in 0..n_edges {
            let line = next("syncdag edge")?;
            let mut it = line.split_whitespace();
            let mut field = |what: &str| -> Result<usize, SerializeError> {
                it.next()
                    .ok_or_else(|| {
                        SerializeError::Parse(format!("syncdag edge {i}: missing {what}"))
                    })?
                    .parse()
                    .map_err(|e| SerializeError::Parse(format!("syncdag edge {i} {what}: {e}")))
            };
            edges.push((field("source")?, field("target")?));
        }
        removed = Some(edges);
        line = next("checksum")?;
    }
    let checksum_line = line;
    let stored = checksum_line
        .strip_prefix("checksum ")
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
        .ok_or_else(|| SerializeError::Parse(format!("bad checksum line: {checksum_line}")))?;
    let perm_slice = reorder.then_some(old_of_new.as_slice());
    let computed = plan_body_checksum(
        n_cores,
        &core_of,
        &step_of,
        perm_slice,
        kernel.as_deref(),
        removed.as_deref(),
    );
    if stored != computed {
        return Err(SerializeError::Checksum { stored, computed });
    }
    let reorder_perm = if reorder {
        Some(Permutation::from_old_of_new(old_of_new).map_err(|e| {
            SerializeError::Parse(format!("reorder column is not a permutation: {e}"))
        })?)
    } else {
        None
    };
    Ok(SavedPlan {
        fingerprint,
        key,
        schedule: Schedule::new(n_cores, core_of, step_of),
        reorder_perm,
        kernel,
        removed_sync_edges: removed,
    })
}

/// Parses one `s`/`u`/`d` kernel-section line.
fn parse_verdict_op(line: &str, i: usize) -> Result<VerdictOp, SerializeError> {
    let mut it = line.split_whitespace();
    let tag =
        it.next().ok_or_else(|| SerializeError::Parse(format!("kernel op {i}: empty line")))?;
    let mut field = |what: &str| -> Result<u32, SerializeError> {
        it.next()
            .ok_or_else(|| SerializeError::Parse(format!("kernel op {i}: missing {what}")))?
            .parse()
            .map_err(|e| SerializeError::Parse(format!("kernel op {i} {what}: {e}")))
    };
    let op = match tag {
        "s" => VerdictOp::Scalar { start: field("start")?, len: field("len")? },
        "u" => {
            let (start, len, lanes) = (field("start")?, field("len")?, field("lanes")?);
            let lanes = u8::try_from(lanes)
                .map_err(|_| SerializeError::Parse(format!("kernel op {i}: lanes {lanes}")))?;
            VerdictOp::Unrolled { start, len, lanes }
        }
        "d" => VerdictOp::Dense { first: field("first")?, rows: field("rows")? },
        other => {
            return Err(SerializeError::Parse(format!("kernel op {i}: unknown tag `{other}`")))
        }
    };
    if it.next().is_some() {
        return Err(SerializeError::Parse(format!("kernel op {i}: trailing fields")));
    }
    Ok(op)
}

/// Writes a plan artifact to a file.
pub fn write_plan_file<P: AsRef<Path>>(plan: &SavedPlan, path: P) -> Result<(), SerializeError> {
    write_plan(plan, std::fs::File::create(path)?)
}

/// Reads a plan artifact from a file.
pub fn read_plan_file<P: AsRef<Path>>(path: P) -> Result<SavedPlan, SerializeError> {
    read_plan(std::fs::File::open(path)?)
}

/// Shared `key <n>` line parser for both formats.
fn parse_kv(line: &str, key: &str) -> Result<usize, SerializeError> {
    let mut it = line.split_whitespace();
    match (it.next(), it.next()) {
        (Some(k), Some(v)) if k == key => {
            v.parse().map_err(|e| SerializeError::Parse(format!("bad {key}: {e}")))
        }
        _ => Err(SerializeError::Parse(format!("expected `{key} <n>`, got `{line}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let s = Schedule::new(3, vec![0, 1, 2, 0], vec![0, 0, 1, 2]);
        let mut buf = Vec::new();
        write_schedule(&s, &mut buf).unwrap();
        let back = read_schedule(&buf[..]).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn empty_schedule_round_trips() {
        let s = Schedule::new(2, vec![], vec![]);
        let mut buf = Vec::new();
        write_schedule(&s, &mut buf).unwrap();
        let back = read_schedule(&buf[..]).unwrap();
        assert_eq!(back.n_vertices(), 0);
        assert_eq!(back.n_cores(), 2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(read_schedule("nonsense\n".as_bytes()).is_err());
        assert!(read_schedule("sptrsv-schedule v1\ncores 0\nvertices 0\n".as_bytes()).is_err());
        assert!(read_schedule("sptrsv-schedule v1\ncores 2\nvertices 1\n".as_bytes()).is_err());
        // Core out of range.
        let text = "sptrsv-schedule v1\ncores 2\nvertices 1\n5 0\n";
        assert!(read_schedule(text.as_bytes()).is_err());
    }

    fn ident(n: usize) -> CsrMatrix {
        CsrMatrix::identity(n)
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = ident(16);
        let fp = PlanFingerprint::compute(&a, "growlocal|cores=4");
        // Deterministic across calls (and, by construction, across runs).
        assert_eq!(fp, PlanFingerprint::compute(&a, "growlocal|cores=4"));
        // Key changes change the fingerprint.
        assert_ne!(fp, PlanFingerprint::compute(&a, "growlocal|cores=8"));
        assert_ne!(fp, PlanFingerprint::compute(&a, "hdagg|cores=4"));
        // Structure changes change the fingerprint.
        assert_ne!(fp, PlanFingerprint::compute(&ident(17), "growlocal|cores=4"));
        // Values do NOT change the fingerprint (structure hash only).
        let scaled = CsrMatrix::from_raw(
            a.n_rows(),
            a.n_rows(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| v * 3.0).collect(),
        )
        .unwrap();
        assert_eq!(fp, PlanFingerprint::compute(&scaled, "growlocal|cores=4"));
        // Display/parse round trip.
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(PlanFingerprint::parse(&text), Some(fp));
        assert_eq!(PlanFingerprint::parse("zz"), None);
    }

    #[test]
    fn value_digest_tracks_bits() {
        assert_eq!(value_digest(&[1.0, 2.0]), value_digest(&[1.0, 2.0]));
        assert_ne!(value_digest(&[1.0, 2.0]), value_digest(&[1.0, 2.5]));
        assert_ne!(value_digest(&[0.0]), value_digest(&[-0.0]));
        assert_ne!(value_digest(&[]), value_digest(&[0.0]));
    }

    fn saved(n: usize, cores: usize, with_perm: bool) -> SavedPlan {
        let core_of: Vec<usize> = (0..n).map(|v| v % cores).collect();
        let step_of: Vec<usize> = (0..n).map(|v| v / cores).collect();
        let reorder_perm =
            with_perm.then(|| Permutation::from_old_of_new((0..n).rev().collect()).unwrap());
        SavedPlan {
            fingerprint: PlanFingerprint::compute(&ident(n), "test-key"),
            key: "test-key".to_string(),
            schedule: Schedule::new(cores, core_of, step_of),
            reorder_perm,
            kernel: None,
            removed_sync_edges: None,
        }
    }

    #[test]
    fn plan_round_trip_with_and_without_perm() {
        for with_perm in [false, true] {
            let plan = saved(12, 3, with_perm);
            let mut buf = Vec::new();
            write_plan(&plan, &mut buf).unwrap();
            let back = read_plan(&buf[..]).unwrap();
            assert_eq!(back, plan, "with_perm={with_perm}");
        }
    }

    #[test]
    fn truncated_plan_rejected() {
        let plan = saved(12, 3, true);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        // Every strict prefix must fail (truncation at any line).
        let text = String::from_utf8(buf.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let prefix = lines[..keep].join("\n");
            assert!(read_plan(prefix.as_bytes()).is_err(), "prefix of {keep} lines accepted");
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let plan = saved(6, 2, false);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // A foreign version, and the retired v2 format, fail by version.
        for version in ["v9", "v2"] {
            let text = text.replacen("v3", version, 1);
            match read_plan(text.as_bytes()) {
                Err(SerializeError::Version { found }) => assert!(found.contains(version)),
                other => panic!("expected Version error for {version}, got {other:?}"),
            }
        }
        // A v1 schedule file is not a plan file either.
        let s = Schedule::new(2, vec![0, 1], vec![0, 0]);
        let mut v1 = Vec::new();
        write_schedule(&s, &mut v1).unwrap();
        assert!(matches!(read_plan(&v1[..]), Err(SerializeError::Version { .. })));
    }

    #[test]
    fn corrupted_body_rejected_by_checksum() {
        let plan = saved(12, 3, true);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Flip one digit of one assignment line (still parses as numbers).
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let victim = 7; // an assignment line
        lines[victim] = lines[victim].replacen('0', "1", 1);
        let corrupted = lines.join("\n");
        assert!(
            matches!(read_plan(corrupted.as_bytes()), Err(SerializeError::Checksum { .. })),
            "corrupted body must fail the checksum"
        );
    }

    fn saved_with_sections(n: usize, cores: usize) -> SavedPlan {
        let mut plan = saved(n, cores, true);
        plan.kernel = Some(vec![
            VerdictOp::Scalar { start: 0, len: 3 },
            VerdictOp::Unrolled { start: 3, len: 8, lanes: 4 },
            VerdictOp::Dense { first: 4, rows: 2 },
        ]);
        plan.removed_sync_edges = Some(vec![(0, 5), (2, 7)]);
        plan
    }

    #[test]
    fn v3_sections_round_trip() {
        for (with_kernel, with_edges) in [(true, true), (true, false), (false, true)] {
            let mut plan = saved_with_sections(12, 3);
            if !with_kernel {
                plan.kernel = None;
            }
            if !with_edges {
                plan.removed_sync_edges = None;
            }
            let mut buf = Vec::new();
            write_plan(&plan, &mut buf).unwrap();
            let back = read_plan(&buf[..]).unwrap();
            assert_eq!(back, plan, "kernel={with_kernel} edges={with_edges}");
        }
    }

    #[test]
    fn v3_truncation_inside_sections_rejected() {
        let plan = saved_with_sections(12, 3);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let prefix = lines[..keep].join("\n");
            assert!(read_plan(prefix.as_bytes()).is_err(), "prefix of {keep} lines accepted");
        }
    }

    #[test]
    fn v3_edited_section_line_fails_checksum() {
        let plan = saved_with_sections(12, 3);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // The first kernel op line follows the `kernel 3` header.
        let header = lines.iter().position(|l| l.starts_with("kernel ")).unwrap();
        lines[header + 1] = "s 1 3".to_string();
        let edited = lines.join("\n");
        assert!(matches!(read_plan(edited.as_bytes()), Err(SerializeError::Checksum { .. })));
        // Same for a syncdag edge line.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let header = lines.iter().position(|l| l.starts_with("syncdag ")).unwrap();
        lines[header + 1] = "1 5".to_string();
        let edited = lines.join("\n");
        assert!(matches!(read_plan(edited.as_bytes()), Err(SerializeError::Checksum { .. })));
    }

    #[test]
    fn non_permutation_reorder_column_rejected() {
        // A duplicated `old` entry parses and can be checksummed, so forge a
        // consistent file and verify the bijection check still rejects it.
        let core_of = vec![0, 1];
        let step_of = vec![0, 0];
        let bad_perm = vec![0usize, 0usize];
        let checksum = plan_body_checksum(2, &core_of, &step_of, Some(&bad_perm), None, None);
        let fp = PlanFingerprint::compute(&ident(2), "k");
        let text = format!(
            "{PLAN_HEADER}\nfingerprint {fp}\nkey k\ncores 2\nvertices 2\nreorder 1\n\
             0 0 0\n1 0 0\nchecksum {checksum:016x}\n"
        );
        assert!(matches!(read_plan(text.as_bytes()), Err(SerializeError::Parse(_))));
    }

    fn dummy_entry(n: usize) -> Arc<CachedPlan> {
        let schedule = Schedule::new(1, vec![0; n], (0..n).collect());
        let compiled = Arc::new(CompiledSchedule::from_schedule(&schedule));
        let matrix = Arc::new(ident(n));
        let digest = value_digest(matrix.values());
        Arc::new(CachedPlan {
            schedule,
            compiled,
            reorder_perm: None,
            matrix,
            values_digest: digest,
            kernel: None,
            reduced_sync_dag: None,
        })
    }

    #[test]
    fn cache_lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let fps: Vec<PlanFingerprint> =
            (0..3).map(|i| PlanFingerprint::compute(&ident(4 + i), "k")).collect();
        cache.insert(fps[0], dummy_entry(4));
        cache.insert(fps[1], dummy_entry(5));
        assert_eq!(cache.len(), 2);
        // Touch fps[0] so fps[1] becomes the LRU victim.
        assert!(cache.get(&fps[0]).is_some());
        cache.insert(fps[2], dummy_entry(6));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&fps[0]).is_some(), "recently used entry evicted");
        assert!(cache.get(&fps[1]).is_none(), "LRU entry survived");
        assert!(cache.get(&fps[2]).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn cache_replaces_existing_entry_without_eviction() {
        let cache = PlanCache::new(1);
        let fp = PlanFingerprint::compute(&ident(4), "k");
        cache.insert(fp, dummy_entry(4));
        cache.insert(fp, dummy_entry(4));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&fp).is_some());
    }
}
