//! High-level solve planning: one call from matrix to reusable executor.
//!
//! [`PlanBuilder`] composes the full pipeline of the paper — orientation
//! handling (§2.2), an optional locality-guided pre-ordering pass
//! (`sptrsv_sparse::ordering`), optional Funnel coarsening of the scheduling
//! DAG (§4), scheduler resolution through the
//! [`sptrsv_core::registry`] spec grammar, the §5 locality
//! reordering, execution-model selection and executor compilation — into a
//! [`SolvePlan`].
//!
//! The execution model is a first-class dimension: pick it with the typed
//! [`PlanBuilder::execution`] knob or the spec's `@model` suffix
//! (`"growlocal:alpha=8@async"`); with neither, the scheduler's registry
//! default applies. The resulting plan dispatches `solve_into`/`solve_multi`
//! through the [`Executor`] trait, so barrier, asynchronous and serial
//! execution are interchangeable behind one API.
//!
//! The **execution policy** is equally first-class: `sync=full|reduced`
//! selects the wait DAG of asynchronous execution (the planner asks the
//! scheduler's [`Scheduler::sync_dag`] hook before reducing itself, so
//! `spmp@async` reduces exactly once per plan), `backoff=spin|yield` the
//! behavior of every threaded wait loop, `cores=N` the core count the
//! schedule targets, `fastmath=on|off` whether the executor runs
//! the blocked/unrolled kernel layer over a detected
//! [`sptrsv_core::kernel::KernelPlan`] (the only key that can change
//! results — to a documented `1e-12` relative tolerance), and
//! `batch=N`/`batch_wait_us=U` how a serving front-end
//! (`sptrsv-serve`) coalesces queued requests on the plan — as spec keys
//! or the typed [`PlanBuilder::sync_policy`]/[`PlanBuilder::backoff`]/
//! [`PlanBuilder::cores`]/[`PlanBuilder::fastmath`]/[`PlanBuilder::batch`]/
//! [`PlanBuilder::batch_wait_us`] knobs (typed knobs win).
//!
//! Parallel plans execute on the **process-wide
//! `SolverRuntime`** ([`crate::runtime::SolverRuntime`]): each solve leases
//! up to `cores` threads from one shared, hardware-sized pool
//! ([`crate::runtime`]), so many concurrent plans coexist without
//! oversubscribing the machine — a contended solve degrades gracefully to
//! fewer cores (down to serial) with bit-identical results. Pass an
//! explicitly constructed runtime with [`PlanBuilder::runtime`] to embed
//! or test against a differently sized pool; steady-state
//! [`SolvePlan::solve_into`] calls dispatch without spawning or
//! allocating either way.
//!
//! Upper-triangular systems (backward substitution) are handled by
//! conjugating with the index-reversal permutation: if `J` reverses `0..n`,
//! then `J·U·J` is lower triangular, so one scheduler and one executor
//! implementation cover both sweeps.
//!
//! Steady-state solves go through [`SolvePlan::solve_into`] with a
//! [`SolveWorkspace`]: after the first call, repeated solves perform no heap
//! allocation — the amortization regime (§7.7) the paper targets.
//!
//! ```
//! use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
//! use sptrsv_exec::plan::PlanBuilder;
//!
//! let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5)
//!     .lower_triangle()
//!     .unwrap();
//! let plan = PlanBuilder::new(&l).scheduler("growlocal:alpha=8@async").cores(4).build().unwrap();
//! let b = vec![1.0; 256];
//! let mut x = vec![0.0; 256];
//! let mut ws = plan.workspace();
//! plan.solve_into(&b, &mut x, &mut ws); // allocation-free once ws is warm
//! assert!(sptrsv_sparse::linalg::relative_residual(&l, &x, &b) < 1e-12);
//! ```

use crate::async_exec::AsyncExecutor;
use crate::barrier::BarrierExecutor;
use crate::engine::{Engine, SharedPtr};
use crate::executor::{Executor, UserOperands};
use crate::runtime::{RuntimeHandle, SolverRuntime};
use crate::serial::{FastSerialExecutor, SerialExecutor};
use crate::sim::{simulate_model, MachineProfile, SimReport};
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{
    self, Backoff, ExecModel, ExecPolicy, RegistryError, SchedulerSpec, SyncPolicy,
};
use sptrsv_core::serialize::{
    read_plan_file, value_digest, write_plan_file, CachedPlan, PlanCache, PlanFingerprint,
    SavedPlan, SerializeError,
};
use sptrsv_core::{
    auto_part_weight_cap, coarsen_and_schedule, reorder_for_locality, CompiledSchedule, Schedule,
    Scheduler,
};
use sptrsv_dag::coarsen::{FunnelDirection, FunnelOptions};
use sptrsv_dag::transitive::approximate_transitive_reduction;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::csr::Triangle;
use sptrsv_sparse::ordering::{min_degree_ordering, nested_dissection_ordering, rcm_ordering};
use sptrsv_sparse::{CsrMatrix, Permutation, SparseError};
use std::collections::{BinaryHeap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which triangle the input matrix stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `L x = b`, forward substitution.
    Lower,
    /// `U x = b`, backward substitution (handled by reversal conjugation).
    Upper,
}

/// Fill/locality pre-ordering applied before scheduling.
///
/// A triangular operand may only be renumbered along a *topological* order
/// of its solve DAG (anything else breaks triangularity), so each variant is
/// applied as a priority: the plan renumbers vertices in the topological
/// order that greedily follows the chosen `sptrsv_sparse::ordering`
/// permutation. `Natural` keeps the input numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreOrder {
    /// Keep the input numbering.
    #[default]
    Natural,
    /// Reverse Cuthill–McKee bandwidth reduction.
    Rcm,
    /// Greedy minimum-degree (AMD stand-in).
    MinDegree,
    /// BFS-separator nested dissection (METIS stand-in).
    NestedDissection,
}

/// Errors from plan construction.
#[derive(Debug)]
pub enum PlanError {
    /// The operand is not a valid triangular matrix of the stated orientation.
    Matrix(SparseError),
    /// The scheduler spec failed to parse or build, or names an unsupported
    /// execution model.
    Registry(RegistryError),
    /// Internal scheduling failure (a scheduler produced an invalid schedule —
    /// a library bug if it ever occurs). Also raised when an on-disk plan
    /// passes its integrity checks but its schedule does not validate
    /// against the operand — a damaged cache is rejected, never solved.
    Schedule(sptrsv_core::ScheduleError),
    /// A plan-cache file could not be read, verified or written: I/O
    /// failure, corruption (checksum), a foreign format version, or a
    /// fingerprint recorded for a different matrix/spec than the one being
    /// planned.
    Cache(SerializeError),
    /// [`SolvePlan::with_new_values`] was given a matrix whose sparsity
    /// structure differs from the plan's — the cached schedule does not
    /// apply, so rebinding refuses rather than mis-solving.
    StructureMismatch {
        /// Rows/nonzeros of the plan's operand.
        expected: (usize, usize),
        /// Rows/nonzeros of the rejected matrix.
        found: (usize, usize),
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Matrix(e) => write!(f, "invalid operand: {e}"),
            PlanError::Registry(e) => write!(f, "{e}"),
            PlanError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            PlanError::Cache(e) => write!(f, "plan cache: {e}"),
            PlanError::StructureMismatch { expected, found } => write!(
                f,
                "matrix structure mismatch: plan was built for {} rows / {} nonzeros, \
                 got {} rows / {} nonzeros (same-structure rebinding only)",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<RegistryError> for PlanError {
    fn from(e: RegistryError) -> PlanError {
        PlanError::Registry(e)
    }
}

impl From<SerializeError> for PlanError {
    fn from(e: SerializeError) -> PlanError {
        PlanError::Cache(e)
    }
}

/// How a plan's schedule was obtained — reported by
/// [`SolvePlan::cache_outcome`] so callers (and the CLI's `plan cache:`
/// line) can observe warm starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No plan cache was configured; the schedule was computed.
    Uncached,
    /// A cache was configured but held no matching plan; the schedule was
    /// computed and stored.
    Miss,
    /// The in-process [`PlanCache`] supplied the plan — no scheduling,
    /// reordering, validation or compilation ran.
    MemoryHit,
    /// An on-disk plan file supplied the schedule — no scheduling or
    /// reordering ran (the loaded schedule is re-validated and re-compiled).
    DiskHit,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Miss => "miss (stored)",
            CacheOutcome::MemoryHit => "memory hit",
            CacheOutcome::DiskHit => "disk hit",
        })
    }
}

/// Builder for a [`SolvePlan`]; see the module docs for the pipeline.
#[derive(Debug, Clone)]
pub struct PlanBuilder<'m> {
    matrix: &'m CsrMatrix,
    orientation: Orientation,
    spec: String,
    n_cores: Option<usize>,
    runtime: Option<Arc<SolverRuntime>>,
    pre_order: PreOrder,
    coarsen: bool,
    reorder: bool,
    execution: Option<ExecModel>,
    sync_policy: Option<SyncPolicy>,
    backoff: Option<Backoff>,
    fastmath: Option<bool>,
    batch: Option<usize>,
    batch_wait_us: Option<u64>,
    plan_cache_dir: Option<PathBuf>,
    memory_cache: Option<Arc<PlanCache>>,
    load_plan: Option<PathBuf>,
}

/// Core count applied when neither [`PlanBuilder::cores`] nor the spec's
/// `cores=` policy key is given.
const DEFAULT_PLAN_CORES: usize = 8;

impl<'m> PlanBuilder<'m> {
    /// A builder with the default pipeline: lower triangle, `growlocal`,
    /// 8 cores, the process-wide solver runtime, no pre-ordering, no
    /// coarsening, §5 reordering on, execution model and policy resolved
    /// from the spec/registry.
    pub fn new(matrix: &'m CsrMatrix) -> PlanBuilder<'m> {
        PlanBuilder {
            matrix,
            orientation: Orientation::Lower,
            spec: "growlocal".to_string(),
            n_cores: None,
            runtime: None,
            pre_order: PreOrder::Natural,
            coarsen: false,
            reorder: true,
            execution: None,
            sync_policy: None,
            backoff: None,
            fastmath: None,
            batch: None,
            batch_wait_us: None,
            plan_cache_dir: None,
            memory_cache: None,
            load_plan: None,
        }
    }

    /// Which triangle the operand stores.
    pub fn orientation(mut self, orientation: Orientation) -> Self {
        self.orientation = orientation;
        self
    }

    /// Scheduler spec in the registry grammar (e.g. `"funnel-gl:cap=auto"`,
    /// `"growlocal:alpha=8@async"`).
    pub fn scheduler(mut self, spec: impl Into<String>) -> Self {
        self.spec = spec.into();
        self
    }

    /// Core count the schedule targets (and the width the executor
    /// requests from the runtime per solve). Overrides the spec's `cores=`
    /// key; with neither, 8 applies.
    pub fn cores(mut self, n_cores: usize) -> Self {
        assert!(n_cores > 0, "a plan needs at least one core");
        self.n_cores = Some(n_cores);
        self
    }

    /// The [`SolverRuntime`] the plan's solves lease their threads from.
    /// Defaults to the process-wide, hardware-sized
    /// [`SolverRuntime::global`] runtime; pass an explicitly constructed
    /// one to embed the solver in a host application's own pool or to pin
    /// tests to a known capacity.
    pub fn runtime(mut self, runtime: Arc<SolverRuntime>) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Pre-ordering pass applied before DAG construction.
    pub fn pre_order(mut self, pre_order: PreOrder) -> Self {
        self.pre_order = pre_order;
        self
    }

    /// Funnel-coarsen the scheduling DAG (§4) before running the scheduler,
    /// pulling the coarse schedule back to the original vertices. Composes
    /// with any scheduler spec; redundant (but harmless) with `funnel-gl`,
    /// which coarsens internally.
    pub fn coarsen(mut self, coarsen: bool) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// Toggle the §5 schedule-order locality reordering.
    pub fn reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Execution model of the plan's executor. Overrides the spec's `@model`
    /// suffix; with neither, the scheduler's registry default applies.
    pub fn execution(mut self, model: ExecModel) -> Self {
        self.execution = Some(model);
        self
    }

    /// Wait DAG of asynchronous execution: the full solve DAG or its
    /// approximate transitive reduction. Overrides the spec's `sync=` key;
    /// with neither, `reduced` applies. Ignored by barrier/serial plans.
    pub fn sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync_policy = Some(sync);
        self
    }

    /// Wait-loop behavior of the plan's threaded waits (done flags, pool
    /// barriers, dispatch). Overrides the spec's `backoff=` key; with
    /// neither, `spin` applies.
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Fast-math kernels: when enabled, the planner runs supernode/dense-
    /// block detection ([`sptrsv_core::kernel::KernelPlan`]) over the final
    /// operand and the executor routes rows through blocked, lane-unrolled
    /// and reciprocal-multiply kernels. **The only knob that can change
    /// results**: solutions agree with the exact path to a `1e-12` relative
    /// tolerance instead of bit-for-bit. Overrides the spec's `fastmath=`
    /// key; with neither, off (the bit-identical scalar kernels).
    pub fn fastmath(mut self, fastmath: bool) -> Self {
        self.fastmath = Some(fastmath);
        self
    }

    /// Serving batch width: the maximum number of queued single-RHS
    /// requests a serving front-end (`sptrsv-serve`) may coalesce into one
    /// multi-RHS solve of this plan. Batching changes grouping, never
    /// per-column arithmetic, so batched results are bit-identical to
    /// per-request solves. Overrides the spec's `batch=` key; with
    /// neither, the serving layer's default applies. Direct solves ignore
    /// the knob.
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "a batch fuses at least one request");
        self.batch = Some(batch);
        self
    }

    /// Serving linger bound in microseconds: how long a serving front-end
    /// may hold the oldest queued request while waiting for the batch to
    /// fill before dispatching a partial batch (`0` = dispatch
    /// immediately). Overrides the spec's `batch_wait_us=` key; with
    /// neither, the serving layer's default applies. Direct solves ignore
    /// the knob.
    pub fn batch_wait_us(mut self, batch_wait_us: u64) -> Self {
        self.batch_wait_us = Some(batch_wait_us);
        self
    }

    /// On-disk plan cache: before scheduling, look for
    /// `DIR/<fingerprint>.plan` (the [`PlanFingerprint`] of the operand's
    /// structure plus the schedule-relevant build key) and load it instead
    /// of scheduling; on a miss, schedule and save the result there for the
    /// next process. Overrides the spec's `plan_cache=DIR` key. Corrupt,
    /// truncated, version-mismatched or wrong-fingerprint files are
    /// rejected with [`PlanError::Cache`] — a bad cache can never change
    /// what is solved. Loaded schedules are re-validated against the
    /// operand's DAG before use.
    pub fn plan_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.plan_cache_dir = Some(dir.into());
        self
    }

    /// In-process plan cache: consult (and populate) `cache` by
    /// fingerprint, so repeated builds of the same structure + spec skip
    /// scheduling, reordering, validation *and* compilation, sharing the
    /// cached `Arc<CompiledSchedule>` (and kernel plan) the executors
    /// already consume. Opt-in: plans are only as shared as the caches the
    /// caller wires in, so independent tenants stay independent by default.
    pub fn cached(mut self, cache: &Arc<PlanCache>) -> Self {
        self.memory_cache = Some(Arc::clone(cache));
        self
    }

    /// Load the schedule from an explicit plan file (saved with
    /// [`SolvePlan::save`] or `sptrsv plan --save`) instead of scheduling.
    /// The file's fingerprint must match the operand and spec being built —
    /// a plan saved for a different matrix or scheduler is an error, never
    /// a wrong answer. Takes precedence over [`PlanBuilder::plan_cache`]
    /// lookups (but a loaded plan is still published to the configured
    /// caches).
    pub fn load_plan(mut self, path: impl Into<PathBuf>) -> Self {
        self.load_plan = Some(path.into());
        self
    }

    /// Validates, schedules, reorders and compiles the plan.
    pub fn build(self) -> Result<SolvePlan, PlanError> {
        SolvePlan::from_builder(self)
    }
}

/// Topological order of `dag` that greedily follows `priority` (smaller
/// first) among ready vertices — the largest renumbering freedom a
/// triangular operand admits.
fn guided_topological_order(dag: &SolveDag, priority: &[usize]) -> Vec<usize> {
    let n = dag.n();
    let mut remaining: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
    // Min-heap on (priority, vertex) via Reverse.
    let mut ready: BinaryHeap<std::cmp::Reverse<(usize, usize)>> = (0..n)
        .filter(|&v| remaining[v] == 0)
        .map(|v| std::cmp::Reverse((priority[v], v)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse((_, v))) = ready.pop() {
        order.push(v);
        for &c in dag.children(v) {
            remaining[c] -= 1;
            if remaining[c] == 0 {
                ready.push(std::cmp::Reverse((priority[c], c)));
            }
        }
    }
    assert_eq!(order.len(), n, "solve DAGs are acyclic");
    order
}

/// The pre-ordering permutation (old_of_new) for a lower-triangular operand,
/// or `None` for the natural order.
fn pre_order_permutation(lower: &CsrMatrix, pre_order: PreOrder) -> Option<Permutation> {
    let target = match pre_order {
        PreOrder::Natural => return None,
        PreOrder::Rcm => rcm_ordering(lower),
        PreOrder::MinDegree => min_degree_ordering(lower),
        PreOrder::NestedDissection => nested_dissection_ordering(lower),
    };
    let dag = SolveDag::from_lower_triangular(lower);
    let order = guided_topological_order(&dag, target.new_of_old());
    Some(Permutation::from_old_of_new(order).expect("topological order covers every vertex once"))
}

/// Funnel-coarsens `dag` with the automatic part-weight cap and schedules
/// the coarse DAG with `scheduler` (shared implementation:
/// [`sptrsv_core::coarsen_and_schedule`]).
fn schedule_coarsened(dag: &SolveDag, scheduler: &dyn Scheduler, n_cores: usize) -> Schedule {
    let options = FunnelOptions {
        direction: FunnelDirection::In,
        max_part_weight: auto_part_weight_cap(dag, n_cores),
    };
    coarsen_and_schedule(dag, scheduler, n_cores, &options, true)
}

/// Reusable buffer for [`SolvePlan::solve_into`]: the solution in the
/// plan's internal numbering, which later rows read while each row also
/// stores its value straight into the caller's `x`. Plans whose
/// permutation is the identity solve in the caller's `x` directly and
/// leave it empty.
#[derive(Debug, Default, Clone)]
pub struct SolveWorkspace {
    px: Vec<f64>,
}

/// Reusable buffers for [`SolvePlan::solve_batch_in_place`]: the
/// borrowed-RHS entry point of the multi-RHS executor. Holds the batch's
/// solution in internal numbering (`n × width`, which later rows read)
/// and the addresses of the caller's columns, which each row reads and
/// overwrites through the permutation. Size it once with
/// [`SolvePlan::batch_workspace`] for the widest batch the caller fuses;
/// batches up to that width then solve without heap allocation.
#[derive(Debug, Default, Clone)]
pub struct BatchWorkspace {
    px: Vec<f64>,
    columns: Vec<SharedPtr>,
}

/// A planned, reusable parallel triangular solve.
pub struct SolvePlan {
    /// The internal lower-triangular matrix the executor runs on (an `Arc`
    /// so cache hits and value rebinds share it instead of copying).
    matrix: Arc<CsrMatrix>,
    /// Permutation from user indices to internal indices.
    to_internal: Permutation,
    /// Whether `to_internal` moves anything, decided once at assembly:
    /// selects the user-numbered engine path over the identity one.
    permuted: bool,
    schedule: Schedule,
    /// The flat execution layout, shared with the executor.
    compiled: Arc<CompiledSchedule>,
    /// The execution model [`SolvePlan::executor`] implements.
    model: ExecModel,
    /// The execution policy (wait DAG + backoff) the executor runs under.
    policy: ExecPolicy,
    /// Async plans keep the synchronization DAG built for the executor
    /// (reduced or full, per policy), so repeated [`SolvePlan::simulate`]
    /// calls reuse it.
    sync_dag: Option<SolveDag>,
    /// The detected kernel plan under `fastmath=on` (shared with the
    /// executor; kept for cache publication and value rebinds).
    kernel: Option<Arc<KernelPlan>>,
    /// The §5 reorder permutation alone (also folded into `to_internal`);
    /// kept so the plan can be saved to disk and re-applied to new values.
    reorder_perm: Option<Permutation>,
    /// Warm-start identity of spec-built plans (`None` for plans built from
    /// an explicit scheduler instance, which have no spec to fingerprint).
    fingerprint: Option<PlanFingerprint>,
    /// The schedule-relevant build key behind `fingerprint`.
    schedule_key: Option<String>,
    /// How the schedule was obtained (cache hit vs computed).
    cache_outcome: CacheOutcome,
    /// The runtime the executor leases threads from; kept so value rebinds
    /// can rebuild an executor against the same pool.
    runtime: RuntimeHandle,
    executor: Box<dyn Executor>,
}

impl SolvePlan {
    /// Plans a parallel solve with an explicit scheduler instance and the
    /// default pipeline (no pre-ordering, no extra coarsening, barrier
    /// execution, default policy). Prefer [`PlanBuilder`] with a registry
    /// spec for new code.
    pub fn new(
        matrix: &CsrMatrix,
        orientation: Orientation,
        scheduler: &dyn Scheduler,
        n_cores: usize,
        reorder: bool,
    ) -> Result<SolvePlan, PlanError> {
        let (lower, base_perm) = orient(matrix, orientation)?;
        let dag = SolveDag::from_lower_triangular(&lower);
        Self::assemble_oriented(
            lower,
            base_perm,
            dag,
            false,
            scheduler,
            n_cores,
            reorder,
            ExecModel::Barrier,
            ExecPolicy::default(),
            RuntimeHandle::default(),
        )
    }

    fn from_builder(builder: PlanBuilder<'_>) -> Result<SolvePlan, PlanError> {
        // Compat-only (see `runtime::install_rayon_bridge`): give the
        // rayon stand-in its runtime bridge before any scheduler (block-gl)
        // parallel-iterates.
        crate::runtime::install_rayon_bridge();
        let mut spec: SchedulerSpec = builder.spec.parse()?;
        if let Some(model) = builder.execution {
            spec = spec.with_model(model);
        }
        // Every key is checked up front: a cache hit below skips the
        // scheduler build that would otherwise reject an unknown one.
        registry::validate(&spec)?;
        let model = registry::resolve_model(&spec)?;
        // Execution policy: spec keys, overridden by the typed knobs.
        let mut policy = registry::resolve_exec_policy(&spec)?;
        if let Some(sync) = builder.sync_policy {
            policy.sync = sync;
        }
        if let Some(backoff) = builder.backoff {
            policy.backoff = backoff;
        }
        if let Some(fastmath) = builder.fastmath {
            policy.fastmath = fastmath;
        }
        if let Some(batch) = builder.batch {
            policy.batch = Some(batch);
        }
        if let Some(batch_wait_us) = builder.batch_wait_us {
            policy.batch_wait_us = Some(batch_wait_us);
        }
        // Core count: typed knob over spec `cores=` key over the default.
        // (`policy.cores` keeps the spec's value — the effective count is
        // `SolvePlan::compiled().n_cores()`.)
        let n_cores = builder.n_cores.or(policy.cores).unwrap_or(DEFAULT_PLAN_CORES);
        let runtime = match builder.runtime {
            Some(rt) => RuntimeHandle::explicit(rt),
            None => RuntimeHandle::default(),
        };
        // Warm-start identity: the canonical schedule-relevant spec (policy
        // keys and model stripped — they change how a schedule runs, not
        // what is computed) plus every pipeline toggle that shapes the
        // schedule, hashed together with the post-pre-order structure.
        // Orientation and pre-ordering need no key of their own: they are
        // renumberings already reflected in `lower`'s structure.
        let schedule_key = format!(
            "{}|cores={}|coarsen={}|reorder={}",
            registry::schedule_identity(&spec),
            n_cores,
            builder.coarsen,
            builder.reorder,
        );

        // 1a. Zero-copy in-process hit: when no renumbering applies (the
        //     stored triangle is already lower, natural pre-order), the
        //     fingerprint can be computed on the borrowed input and a hit
        //     assembled without ever cloning or re-validating the matrix —
        //     the warm path a solver restarting on the same operand takes.
        if builder.orientation == Orientation::Lower
            && builder.pre_order == PreOrder::Natural
            && builder.load_plan.is_none()
        {
            if let Some(cache) = &builder.memory_cache {
                let fingerprint = PlanFingerprint::compute(builder.matrix, &schedule_key);
                if let Some(entry) = cache.get(&fingerprint) {
                    // Vertex-count guard: a 128-bit collision or a corrupted
                    // entry must not reach the executor; treat as a miss.
                    if entry.schedule.n_vertices() == builder.matrix.n_rows() {
                        return Self::assemble_from_memory(
                            &entry,
                            builder.matrix,
                            Permutation::identity(builder.matrix.n_rows()),
                            &spec,
                            n_cores,
                            model,
                            policy,
                            runtime,
                            fingerprint,
                            schedule_key,
                            builder.memory_cache.as_ref(),
                        );
                    }
                }
            }
        }

        // Orientation/pre-ordering are pure renumberings, so resolving the
        // spec against the oriented lower triangle below is equivalent to
        // resolving against the input; self-sizing schedulers
        // (funnel-gl:cap=auto) see the DAG they will schedule.
        let (lower, base_perm) = orient(builder.matrix, builder.orientation)?;
        let (lower, base_perm) = apply_pre_order(lower, base_perm, builder.pre_order);
        let fingerprint = PlanFingerprint::compute(&lower, &schedule_key);
        // Disk cache directory: typed knob over the spec's `plan_cache=`.
        let cache_dir =
            builder.plan_cache_dir.clone().or_else(|| registry::resolve_plan_cache(&spec));
        let any_cache =
            cache_dir.is_some() || builder.memory_cache.is_some() || builder.load_plan.is_some();

        // 1b. In-process cache behind a renumbering (upper-stored or
        //     pre-ordered operands): same sharing, after the one-time
        //     transform. An explicit `load_plan` file bypasses it: the
        //     caller asked for that file's contents, and loading must
        //     surface its errors.
        if builder.load_plan.is_none() {
            if let Some(cache) = &builder.memory_cache {
                if let Some(entry) = cache.get(&fingerprint) {
                    if entry.schedule.n_vertices() == lower.n_rows() {
                        return Self::assemble_from_memory(
                            &entry,
                            &lower,
                            base_perm,
                            &spec,
                            n_cores,
                            model,
                            policy,
                            runtime,
                            fingerprint,
                            schedule_key,
                            builder.memory_cache.as_ref(),
                        );
                    }
                }
            }
        }

        // 2. On-disk plans: an explicit `--load` file, or
        //    `DIR/<fingerprint>.plan` under the cache directory. Loaded
        //    schedules skip scheduling and reordering but are re-validated
        //    against the operand's DAG — disk content is untrusted.
        let cached_path = cache_dir.as_ref().map(|dir| plan_cache_path(dir, &fingerprint));
        let load_path = builder
            .load_plan
            .clone()
            .or_else(|| cached_path.as_ref().filter(|p| p.exists()).cloned());
        if let Some(path) = load_path {
            let saved = read_plan_file(&path)?;
            if saved.fingerprint != fingerprint {
                return Err(PlanError::Cache(SerializeError::FingerprintMismatch {
                    expected: fingerprint,
                    found: saved.fingerprint,
                }));
            }
            if saved.schedule.n_vertices() != lower.n_rows() {
                return Err(PlanError::Cache(SerializeError::Parse(format!(
                    "plan file covers {} vertices, operand has {} rows",
                    saved.schedule.n_vertices(),
                    lower.n_rows()
                ))));
            }
            return Self::assemble_from_disk(
                saved,
                lower,
                base_perm,
                &spec,
                n_cores,
                model,
                policy,
                runtime,
                fingerprint,
                schedule_key,
                builder.memory_cache.as_ref(),
            );
        }

        // 3. Cold: run the full scheduling pipeline, then publish the
        //    result to whichever caches are configured.
        let dag = SolveDag::from_lower_triangular(&lower);
        let values_digest = value_digest(lower.values());
        let scheduler = registry::build(&spec, &dag, n_cores)?;
        let mut plan = Self::assemble_oriented(
            lower,
            base_perm,
            dag,
            builder.coarsen,
            scheduler.as_ref(),
            n_cores,
            builder.reorder,
            model,
            policy,
            runtime,
        )?;
        plan.fingerprint = Some(fingerprint);
        plan.schedule_key = Some(schedule_key);
        plan.cache_outcome = if any_cache { CacheOutcome::Miss } else { CacheOutcome::Uncached };
        if let Some(cache) = &builder.memory_cache {
            cache.insert(fingerprint, Arc::new(plan.cache_entry(values_digest)));
        }
        if let Some(path) = cached_path {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(SerializeError::Io)?;
            }
            plan.save(&path)?;
        }
        Ok(plan)
    }

    /// The [`CachedPlan`] entry publishing this plan's artifacts, tagged
    /// with the pre-reorder value digest the inserting build saw.
    fn cache_entry(&self, values_digest: u64) -> CachedPlan {
        CachedPlan {
            schedule: self.schedule.clone(),
            compiled: Arc::clone(&self.compiled),
            reorder_perm: self.reorder_perm.clone(),
            matrix: Arc::clone(&self.matrix),
            values_digest,
            kernel: self.kernel.clone(),
            reduced_sync_dag: (self.model == ExecModel::Async
                && self.policy.sync == SyncPolicy::Reduced)
                .then(|| self.sync_dag.clone())
                .flatten(),
        }
    }

    /// Warm path from an in-process cache entry: reuse the schedule, the
    /// compiled layout, and — when the candidate's values match the entry's
    /// digest bit-for-bit — the operand and kernel plan too. The structure
    /// is not re-validated (the entry was validated by the build that
    /// inserted it, and the fingerprint ties it to this structure and build
    /// key); only the value-dependent non-singular-diagonal invariant is
    /// re-checked, and only when the values changed. The borrowed operand
    /// is never cloned on the bit-identical-values path.
    #[allow(clippy::too_many_arguments)] // private assembly point
    fn assemble_from_memory(
        entry: &CachedPlan,
        lower: &CsrMatrix,
        base_perm: Permutation,
        spec: &SchedulerSpec,
        n_cores: usize,
        model: ExecModel,
        policy: ExecPolicy,
        runtime: RuntimeHandle,
        fingerprint: PlanFingerprint,
        schedule_key: String,
        cache: Option<&Arc<PlanCache>>,
    ) -> Result<SolvePlan, PlanError> {
        // Digest of the candidate's (pre-reorder) values: decides operand/
        // kernel reuse now, and tags any refreshed entry below (lookups
        // always compare against the pre-reorder digest).
        let incoming_digest = value_digest(lower.values());
        let same_values = incoming_digest == entry.values_digest;
        let matrix = if same_values {
            Arc::clone(&entry.matrix)
        } else {
            // New values on a fingerprint-matched structure: the diagonal is
            // still the last entry of every row (a structural fact), but its
            // values must be re-checked — the entry's validation covered the
            // values the inserting build saw, not these.
            let (row_ptr, values) = (lower.row_ptr(), lower.values());
            for row in 0..lower.n_rows() {
                if values[row_ptr[row + 1] - 1] == 0.0 {
                    return Err(PlanError::Matrix(SparseError::SingularDiagonal { row }));
                }
            }
            // Re-apply the cached reorder permutation — an O(nnz) gather,
            // no scheduling.
            match &entry.reorder_perm {
                Some(perm) => Arc::new(lower.symmetric_permute(perm).map_err(PlanError::Matrix)?),
                None => Arc::new(lower.clone()),
            }
        };
        let to_internal = match &entry.reorder_perm {
            Some(perm) => perm.compose(&base_perm),
            None => base_perm,
        };
        let kernel = if policy.fastmath {
            match (&entry.kernel, same_values) {
                // The kernel plan packs values, so it is only reusable when
                // the values match bit-for-bit.
                (Some(k), true) => Some(Arc::clone(k)),
                _ => Some(Arc::new(KernelPlan::detect(&matrix, &entry.compiled))),
            }
        } else {
            None
        };
        let sync_dag = match model {
            ExecModel::Async => Some(match policy.sync {
                SyncPolicy::Full => SolveDag::from_lower_triangular(&matrix),
                SyncPolicy::Reduced => match &entry.reduced_sync_dag {
                    Some(dag) => dag.clone(),
                    // First async consumer of this entry: derive the reduced
                    // DAG once (scheduler hook first, as in the cold path).
                    None => {
                        let final_dag = SolveDag::from_lower_triangular(&matrix);
                        let scheduler = registry::build(spec, &final_dag, n_cores)?;
                        scheduler
                            .sync_dag(&final_dag)
                            .unwrap_or_else(|| approximate_transitive_reduction(&final_dag))
                    }
                },
            }),
            ExecModel::Barrier | ExecModel::Serial => None,
        };
        let executor = make_executor(
            &entry.compiled,
            kernel.as_ref(),
            model,
            policy,
            runtime.clone(),
            sync_dag.as_ref(),
        );
        let plan = SolvePlan {
            matrix,
            permuted: !to_internal.is_identity(),
            to_internal,
            schedule: entry.schedule.clone(),
            compiled: Arc::clone(&entry.compiled),
            model,
            policy,
            sync_dag,
            kernel,
            reorder_perm: entry.reorder_perm.clone(),
            fingerprint: Some(fingerprint),
            schedule_key: Some(schedule_key),
            cache_outcome: CacheOutcome::MemoryHit,
            runtime,
            executor,
        };
        // Publish improvements back: a value rebind or a newly derived
        // reduced sync DAG makes the entry strictly more reusable.
        if let Some(cache) = cache {
            let richer_dag = plan.model == ExecModel::Async
                && plan.policy.sync == SyncPolicy::Reduced
                && entry.reduced_sync_dag.is_none();
            if !same_values || richer_dag {
                cache.insert(fingerprint, Arc::new(plan.cache_entry(incoming_digest)));
            }
        }
        Ok(plan)
    }

    /// Warm path from an on-disk [`SavedPlan`]: skip scheduling and
    /// reordering, but re-validate the loaded schedule against the
    /// operand's DAG and re-compile it — disk content is untrusted, and a
    /// damaged or foreign file must fail, never mis-solve.
    #[allow(clippy::too_many_arguments)] // private assembly point
    fn assemble_from_disk(
        saved: SavedPlan,
        lower: CsrMatrix,
        base_perm: Permutation,
        spec: &SchedulerSpec,
        n_cores: usize,
        model: ExecModel,
        policy: ExecPolicy,
        runtime: RuntimeHandle,
        fingerprint: PlanFingerprint,
        schedule_key: String,
        cache: Option<&Arc<PlanCache>>,
    ) -> Result<SolvePlan, PlanError> {
        let values_digest = value_digest(lower.values());
        let (matrix, to_internal) = match &saved.reorder_perm {
            Some(perm) => {
                if perm.len() != lower.n_rows() {
                    return Err(PlanError::Cache(SerializeError::Parse(format!(
                        "plan file reorder permutation covers {} vertices, operand has {} rows",
                        perm.len(),
                        lower.n_rows()
                    ))));
                }
                let permuted = lower.symmetric_permute(perm).map_err(PlanError::Matrix)?;
                (Arc::new(permuted), perm.compose(&base_perm))
            }
            None => (Arc::new(lower), base_perm),
        };
        let final_dag = SolveDag::from_lower_triangular(&matrix);
        // The load-bearing safety check: any schedule that validates
        // against the operand's DAG solves it correctly, so a forged or
        // stale-but-well-formed file is either rejected here or harmless.
        saved.schedule.validate(&final_dag).map_err(PlanError::Schedule)?;
        let compiled = Arc::new(CompiledSchedule::from_schedule(&saved.schedule));
        let kernel = if policy.fastmath {
            // Replay the saved kernel verdict when the file carries one —
            // `from_verdict` re-validates every op against the compiled
            // cells, so a damaged section errors instead of mis-planning.
            // Files without the section (or v2 files) re-detect as before.
            let plan = match &saved.kernel {
                Some(ops) => KernelPlan::from_verdict(&matrix, &compiled, ops).map_err(|e| {
                    PlanError::Cache(SerializeError::Parse(format!("kernel section: {e}")))
                })?,
                None => KernelPlan::detect(&matrix, &compiled),
            };
            Some(Arc::new(plan))
        } else {
            None
        };
        let sync_dag = match model {
            ExecModel::Async => Some(match policy.sync {
                SyncPolicy::Full => final_dag,
                SyncPolicy::Reduced => match &saved.removed_sync_edges {
                    // Reconstruct reduced = full − removed, after checking
                    // every removed edge keeps a two-path witness in the
                    // full DAG (the asynchronous executor's safety
                    // argument); a file that fails the check errors out.
                    Some(removed) => reconstruct_reduced_dag(&final_dag, removed)
                        .map_err(|e| PlanError::Cache(SerializeError::Parse(e)))?,
                    None => {
                        let scheduler = registry::build(spec, &final_dag, n_cores)?;
                        scheduler
                            .sync_dag(&final_dag)
                            .unwrap_or_else(|| approximate_transitive_reduction(&final_dag))
                    }
                },
            }),
            ExecModel::Barrier | ExecModel::Serial => None,
        };
        let executor = make_executor(
            &compiled,
            kernel.as_ref(),
            model,
            policy,
            runtime.clone(),
            sync_dag.as_ref(),
        );
        let plan = SolvePlan {
            matrix,
            permuted: !to_internal.is_identity(),
            to_internal,
            schedule: saved.schedule,
            compiled,
            model,
            policy,
            sync_dag,
            kernel,
            reorder_perm: saved.reorder_perm,
            fingerprint: Some(fingerprint),
            schedule_key: Some(schedule_key),
            cache_outcome: CacheOutcome::DiskHit,
            runtime,
            executor,
        };
        if let Some(cache) = cache {
            cache.insert(fingerprint, Arc::new(plan.cache_entry(values_digest)));
        }
        Ok(plan)
    }

    /// Shared pipeline behind [`SolvePlan::new`] and [`PlanBuilder::build`].
    #[allow(clippy::too_many_arguments)] // private assembly point of the whole pipeline
    fn assemble_oriented(
        lower: CsrMatrix,
        base_perm: Permutation,
        dag: SolveDag,
        coarsen: bool,
        scheduler: &dyn Scheduler,
        n_cores: usize,
        reorder: bool,
        model: ExecModel,
        policy: ExecPolicy,
        runtime: RuntimeHandle,
    ) -> Result<SolvePlan, PlanError> {
        let schedule = if coarsen {
            schedule_coarsened(&dag, scheduler, n_cores)
        } else {
            scheduler.schedule(&dag, n_cores)
        };
        // Without reordering the operand is unchanged, so the DAG built for
        // scheduling doubles as the validation DAG.
        let (matrix, schedule, to_internal, reorder_perm, final_dag) = if reorder {
            let reordered = reorder_for_locality(&lower, &schedule)
                .expect("schedule order of a valid schedule is topological");
            let total = reordered.permutation.compose(&base_perm);
            let final_dag = SolveDag::from_lower_triangular(&reordered.matrix);
            (reordered.matrix, reordered.schedule, total, Some(reordered.permutation), final_dag)
        } else {
            (lower, schedule, base_perm, None, dag)
        };
        let matrix = Arc::new(matrix);
        // Validate once against the final operand; the executor then shares
        // the one compiled plan.
        schedule.validate(&final_dag).map_err(PlanError::Schedule)?;
        let compiled = Arc::new(CompiledSchedule::from_schedule(&schedule));
        // Under `fastmath=on`, detect supernodes/dense blocks against the
        // FINAL operand (the matrix the executor actually solves, after any
        // reordering) so the kernel plan's row ranges line up with the
        // compiled cells.
        let kernel = policy.fastmath.then(|| Arc::new(KernelPlan::detect(&matrix, &compiled)));
        // The synchronization DAG of asynchronous plans, per policy: the
        // full final DAG, or a sparsified one — scheduler-provided when the
        // scheduler already derives one (the `Scheduler::sync_dag` hook;
        // SpMp hands over its approximate transitive reduction, so
        // `spmp@async` reduces exactly once per plan), otherwise the
        // planner reduces here. Kept on the plan for simulation reuse.
        let sync_dag = match model {
            ExecModel::Async => Some(match policy.sync {
                SyncPolicy::Full => final_dag,
                SyncPolicy::Reduced => scheduler
                    .sync_dag(&final_dag)
                    .unwrap_or_else(|| approximate_transitive_reduction(&final_dag)),
            }),
            ExecModel::Barrier | ExecModel::Serial => None,
        };
        let executor = make_executor(
            &compiled,
            kernel.as_ref(),
            model,
            policy,
            runtime.clone(),
            sync_dag.as_ref(),
        );
        Ok(SolvePlan {
            matrix,
            permuted: !to_internal.is_identity(),
            to_internal,
            schedule,
            compiled,
            model,
            policy,
            sync_dag,
            kernel,
            reorder_perm,
            fingerprint: None,
            schedule_key: None,
            cache_outcome: CacheOutcome::Uncached,
            runtime,
            executor,
        })
    }

    /// The schedule driving the executor (internal numbering).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The compiled execution layout.
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// The execution model the plan runs under.
    pub fn exec_model(&self) -> ExecModel {
        self.model
    }

    /// The execution policy (wait DAG choice + backoff) the plan runs under.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The synchronization DAG an asynchronous plan waits on (`None` for
    /// barrier/serial plans): the final operand's full DAG under
    /// `sync=full`, a sparsified one under `sync=reduced`.
    pub fn sync_dag(&self) -> Option<&SolveDag> {
        self.sync_dag.as_ref()
    }

    /// The execution engine `solve_into`/`solve_multi` dispatch through.
    pub fn executor(&self) -> &dyn Executor {
        self.executor.as_ref()
    }

    /// The internal (possibly permuted) lower-triangular operand.
    pub fn internal_matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Fresh reusable buffers sized for this plan.
    pub fn workspace(&self) -> SolveWorkspace {
        let n = if self.permuted { self.matrix.n_rows() } else { 0 };
        SolveWorkspace { px: vec![0.0; n] }
    }

    /// Solves for one right-hand side into `x` (user numbering), reusing
    /// `workspace`: steady-state calls are allocation-free. A plan whose
    /// permutation is the identity runs exactly `executor().solve`; any
    /// other plan's row kernels read `b` and write `x` through the
    /// permutation (no separate gather or scatter pass).
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], workspace: &mut SolveWorkspace) {
        let n = self.matrix.n_rows();
        assert_eq!(b.len(), n, "right-hand side length");
        assert_eq!(x.len(), n, "solution length");
        if !self.permuted {
            return self.executor.solve(&self.matrix, b, x);
        }
        workspace.px.resize(n, 0.0);
        let user = UserOperands::one(b, x, &mut workspace.px);
        self.executor.solve_user(&self.matrix, &self.to_internal, user);
    }

    /// Solves for one right-hand side, returning the solution in the user's
    /// original numbering (allocating convenience over
    /// [`SolvePlan::solve_into`]).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        let mut workspace = self.workspace();
        self.solve_into(b, &mut x, &mut workspace);
        x
    }

    /// Solves `r` right-hand sides at once (`b` row-major `n x r`, user
    /// numbering), with the permutation fused into the kernels as in
    /// [`SolvePlan::solve_into`].
    pub fn solve_multi(&self, b: &[f64], r: usize) -> Vec<f64> {
        let n = self.matrix.n_rows();
        assert_eq!(b.len(), n * r, "right-hand side length");
        let mut x = vec![0.0; n * r];
        if !self.permuted {
            self.executor.solve_multi(&self.matrix, b, &mut x, r);
            return x;
        }
        let (mut px, mut table) = (vec![0.0; n * r], Vec::new());
        let user = UserOperands::rows(b, &mut x, r, &mut px, &mut table);
        self.executor.solve_user(&self.matrix, &self.to_internal, user);
        x
    }

    /// Fresh batch buffers pre-sized for up to `max_r` fused right-hand
    /// sides (see [`SolvePlan::solve_batch_in_place`]).
    pub fn batch_workspace(&self, max_r: usize) -> BatchWorkspace {
        let n = self.matrix.n_rows();
        BatchWorkspace { px: Vec::with_capacity(n * max_r), columns: Vec::with_capacity(max_r) }
    }

    /// Solves every right-hand side in `rhs` as **one** multi-RHS solve,
    /// in place: on entry each `rhs[j]` is a full-length right-hand side in
    /// the user's numbering, on exit it holds the corresponding solution.
    ///
    /// This is the borrowed-RHS entry point the serving layer's combiner
    /// uses: no copy into a packed caller-owned buffer, no per-request
    /// output allocation, and no gather or scatter pass — every row reads
    /// its right-hand sides from the borrowed columns and writes its
    /// solutions back into them through the plan's permutation, once per
    /// batch. A batch of one runs the single-RHS kernels. Steady-state
    /// calls are allocation-free once `workspace` has seen the batch width
    /// ([`SolvePlan::batch_workspace`] pre-sizes it).
    ///
    /// Each column goes through the exact per-row operation sequence of a
    /// standalone [`SolvePlan::solve_into`] — batching changes grouping,
    /// never arithmetic — so results are bit-identical to solving each
    /// request alone (under the default `fastmath=off` policy; `fastmath`
    /// kernels keep the documented `1e-12` tolerance instead).
    pub fn solve_batch_in_place(&self, rhs: &mut [Vec<f64>], workspace: &mut BatchWorkspace) {
        let n = self.matrix.n_rows();
        let k = rhs.len();
        if k == 0 {
            return;
        }
        for (j, b) in rhs.iter().enumerate() {
            assert_eq!(b.len(), n, "right-hand side {j} has the wrong length");
        }
        workspace.px.resize(n * k, 0.0);
        let user = UserOperands::in_place(rhs, &mut workspace.px, &mut workspace.columns);
        self.executor.solve_user(&self.matrix, &self.to_internal, user);
    }

    /// Simulates this plan's execution on a machine profile, under the
    /// plan's execution model and policy, reusing the plan's shared
    /// compiled layout and (for async plans) the executor's synchronization
    /// DAG — no per-call re-compilation or re-reduction.
    pub fn simulate(&self, profile: &MachineProfile) -> SimReport {
        simulate_model(
            &self.matrix,
            &self.compiled,
            self.model,
            self.sync_dag.as_ref(),
            profile,
            self.policy,
        )
    }

    /// The warm-start fingerprint of this plan: a stable content hash over
    /// the operand's structure and the schedule-relevant build key. `None`
    /// for plans built from an explicit scheduler instance
    /// ([`SolvePlan::new`]), which have no spec to fingerprint.
    pub fn fingerprint(&self) -> Option<PlanFingerprint> {
        self.fingerprint
    }

    /// How this plan's schedule was obtained: computed, or served by the
    /// in-process / on-disk plan cache.
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.cache_outcome
    }

    /// Saves this plan's scheduling artifact (schedule + reorder
    /// permutation, under its fingerprint) to `path` in the versioned plan
    /// format, for [`PlanBuilder::load_plan`] or a
    /// [`PlanBuilder::plan_cache`] directory to pick up later. Errors for
    /// plans built without a registry spec (no fingerprint to save under).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PlanError> {
        let (fingerprint, key) = match (self.fingerprint, &self.schedule_key) {
            (Some(fp), Some(key)) => (fp, key.clone()),
            _ => {
                return Err(PlanError::Cache(SerializeError::Parse(
                    "plan was built from an explicit scheduler instance; \
                     only spec-built plans carry a fingerprint to save under"
                        .into(),
                )))
            }
        };
        // Persist the derived artifacts too: the kernel verdict (replayed
        // on load instead of re-detecting) and, for reduced-sync async
        // plans, the edges the transitive reduction removed (so a warm
        // load reconstructs the reduced DAG without re-reducing).
        let removed_sync_edges = (self.model == ExecModel::Async
            && self.policy.sync == SyncPolicy::Reduced)
            .then_some(self.sync_dag.as_ref())
            .flatten()
            .map(|reduced| {
                let full = SolveDag::from_lower_triangular(&self.matrix);
                removed_edges(&full, reduced)
            });
        let saved = SavedPlan {
            fingerprint,
            key,
            schedule: self.schedule.clone(),
            reorder_perm: self.reorder_perm.clone(),
            kernel: self.kernel.as_ref().map(|k| k.verdict()),
            removed_sync_edges,
        };
        write_plan_file(&saved, path).map_err(PlanError::Cache)
    }

    /// Numeric re-factorization: a new plan binding `matrix`'s values
    /// against this plan's cached schedule, with **zero re-scheduling** —
    /// no DAG construction, scheduling, reordering, validation or
    /// re-compilation. `matrix` must have exactly the sparsity structure of
    /// the matrix this plan was built from (in the same user numbering and
    /// orientation); a different structure is a
    /// [`PlanError::StructureMismatch`], never a wrong answer.
    ///
    /// This is the ROADMAP's "same structure, new values" serving workload:
    /// each factorization step replaces values but keeps the pattern, so
    /// the expensive scheduling artifact amortizes across all of them.
    /// Under `fastmath=on` the (value-dependent) kernel plan is re-detected
    /// against the new values; everything else is shared by reference.
    pub fn with_new_values(&self, matrix: &CsrMatrix) -> Result<SolvePlan, PlanError> {
        // One gather reproduces the whole internal pipeline (orientation
        // conjugation, pre-order, §5 reorder): `to_internal` is their
        // composition, and symmetric permutation composes contravariantly.
        if matrix.n_rows() != self.matrix.n_rows() {
            return Err(PlanError::StructureMismatch {
                expected: (self.matrix.n_rows(), self.matrix.nnz()),
                found: (matrix.n_rows(), matrix.nnz()),
            });
        }
        let permuted = matrix.symmetric_permute(&self.to_internal).map_err(PlanError::Matrix)?;
        if permuted.row_ptr() != self.matrix.row_ptr()
            || permuted.col_idx() != self.matrix.col_idx()
        {
            return Err(PlanError::StructureMismatch {
                expected: (self.matrix.n_rows(), self.matrix.nnz()),
                found: (matrix.n_rows(), matrix.nnz()),
            });
        }
        // Structure matched, so triangularity is inherited — but the new
        // values must still carry a non-singular diagonal.
        for r in 0..permuted.n_rows() {
            if !permuted.get(r, r).is_some_and(|v| v != 0.0) {
                return Err(PlanError::Matrix(SparseError::SingularDiagonal { row: r }));
            }
        }
        let internal = Arc::new(permuted);
        // The kernel plan packs values (dense panels, diagonal
        // reciprocals), so it is the one artifact that must be re-detected.
        let kernel =
            self.policy.fastmath.then(|| Arc::new(KernelPlan::detect(&internal, &self.compiled)));
        let sync_dag = self.sync_dag.clone();
        let executor = make_executor(
            &self.compiled,
            kernel.as_ref(),
            self.model,
            self.policy,
            self.runtime.clone(),
            sync_dag.as_ref(),
        );
        Ok(SolvePlan {
            matrix: internal,
            to_internal: self.to_internal.clone(),
            permuted: self.permuted,
            schedule: self.schedule.clone(),
            compiled: Arc::clone(&self.compiled),
            model: self.model,
            policy: self.policy,
            sync_dag,
            kernel,
            reorder_perm: self.reorder_perm.clone(),
            fingerprint: self.fingerprint,
            schedule_key: self.schedule_key.clone(),
            cache_outcome: self.cache_outcome,
            runtime: self.runtime.clone(),
            executor,
        })
    }
}

/// The canonical location of a fingerprint's plan file under a cache
/// directory.
fn plan_cache_path(dir: &Path, fingerprint: &PlanFingerprint) -> PathBuf {
    dir.join(format!("{fingerprint}.plan"))
}

/// The edges present in `full` but absent from `reduced` — what a
/// transitive reduction removed, in deterministic (target, source) scan
/// order. This is the payload [`SolvePlan::save`] persists for
/// reduced-sync asynchronous plans.
fn removed_edges(full: &SolveDag, reduced: &SolveDag) -> Vec<(usize, usize)> {
    let mut removed = Vec::new();
    for w in 0..full.n() {
        for &u in full.parents(w) {
            if !reduced.has_edge(u, w) {
                removed.push((u, w));
            }
        }
    }
    removed
}

/// Rebuilds a reduced wait DAG as `full` minus `removed`, validating that
/// every removed edge (a) exists in the full DAG and (b) has a two-path
/// witness `u → x → w` in the full DAG. The witness condition is what makes
/// the reconstruction safe: if every removed edge is covered by a two-path
/// in the full DAG, reachability is preserved even when witness edges are
/// themselves removed (induction on topological span — the witness path's
/// edges span strictly fewer levels, so they are reachable by shorter
/// removed-edge detours that the induction already covers). A file whose
/// edge set fails either check is corrupt or foreign and must error, never
/// produce a DAG the asynchronous executor under-waits on.
fn reconstruct_reduced_dag(
    full: &SolveDag,
    removed: &[(usize, usize)],
) -> Result<SolveDag, String> {
    let n = full.n();
    let mut removed_set: HashSet<(usize, usize)> = HashSet::with_capacity(removed.len());
    for &(u, w) in removed {
        if u >= n || w >= n {
            return Err(format!("removed sync edge ({u}, {w}) out of range for {n} vertices"));
        }
        if !full.has_edge(u, w) {
            return Err(format!("removed sync edge ({u}, {w}) is not in the full DAG"));
        }
        let witnessed = full.children(u).iter().any(|&x| x != w && full.has_edge(x, w));
        if !witnessed {
            return Err(format!(
                "removed sync edge ({u}, {w}) has no two-path witness; \
                 dropping it would lose a dependency"
            ));
        }
        if !removed_set.insert((u, w)) {
            return Err(format!("removed sync edge ({u}, {w}) listed twice"));
        }
    }
    let mut edges = Vec::with_capacity(full.n_edges() - removed_set.len());
    for w in 0..n {
        for &u in full.parents(w) {
            if !removed_set.contains(&(u, w)) {
                edges.push((u, w));
            }
        }
    }
    Ok(SolveDag::from_edges(n, &edges, full.weights().to_vec()))
}

/// Executor construction shared by the cold, warm and rebind paths. `sync`
/// must be `Some` for asynchronous plans (the planner computes it per
/// policy before calling).
fn make_executor(
    compiled: &Arc<CompiledSchedule>,
    kernel: Option<&Arc<KernelPlan>>,
    model: ExecModel,
    policy: ExecPolicy,
    runtime: RuntimeHandle,
    sync: Option<&SolveDag>,
) -> Box<dyn Executor> {
    let kernel = kernel.cloned();
    let compiled = Arc::clone(compiled);
    match model {
        ExecModel::Barrier => {
            Box::new(BarrierExecutor::from_compiled(compiled, kernel, runtime, policy))
        }
        ExecModel::Serial => match kernel {
            Some(k) => Box::new(FastSerialExecutor(Engine::new(compiled, Some(k), None, policy))),
            None => Box::new(SerialExecutor),
        },
        ExecModel::Async => {
            let sync = sync.expect("async plans carry a synchronization DAG");
            Box::new(AsyncExecutor::from_compiled(compiled, kernel, sync, runtime, policy))
        }
    }
}

/// Validates the orientation and returns the lower-triangular operand plus
/// the base user-to-internal permutation (reversal for upper operands).
fn orient(
    matrix: &CsrMatrix,
    orientation: Orientation,
) -> Result<(CsrMatrix, Permutation), PlanError> {
    let n = matrix.n_rows();
    match orientation {
        Orientation::Lower => {
            matrix.validate_triangular(Triangle::Lower).map_err(PlanError::Matrix)?;
            Ok((matrix.clone(), Permutation::identity(n)))
        }
        Orientation::Upper => {
            matrix.validate_triangular(Triangle::Upper).map_err(PlanError::Matrix)?;
            let reversal = Permutation::from_old_of_new((0..n).rev().collect())
                .expect("reversal is a bijection");
            let conjugated = matrix.symmetric_permute(&reversal).map_err(PlanError::Matrix)?;
            debug_assert!(conjugated.is_lower_triangular());
            Ok((conjugated, reversal))
        }
    }
}

/// Applies the pre-ordering pass, composing its permutation into the
/// user-to-internal chain.
fn apply_pre_order(
    lower: CsrMatrix,
    base_perm: Permutation,
    pre_order: PreOrder,
) -> (CsrMatrix, Permutation) {
    match pre_order_permutation(&lower, pre_order) {
        None => (lower, base_perm),
        Some(perm) => {
            let permuted = lower
                .symmetric_permute(&perm)
                .expect("topological renumbering keeps the matrix square");
            debug_assert!(permuted.is_lower_triangular());
            let total = perm.compose(&base_perm);
            (permuted, total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_core::GrowLocal;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::linalg::relative_residual;

    fn lower() -> CsrMatrix {
        grid2d_laplacian(12, 10, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap()
    }

    #[test]
    fn lower_plan_solves() {
        let l = lower();
        let n = l.n_rows();
        for reorder in [false, true] {
            let plan =
                SolvePlan::new(&l, Orientation::Lower, &GrowLocal::new(), 3, reorder).unwrap();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
            let x = plan.solve(&b);
            assert!(relative_residual(&l, &x, &b) < 1e-12, "reorder={reorder}");
        }
    }

    #[test]
    fn upper_plan_solves() {
        let u = lower().transpose();
        let n = u.n_rows();
        let plan = PlanBuilder::new(&u)
            .orientation(Orientation::Upper)
            .scheduler("growlocal")
            .cores(3)
            .build()
            .unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
        let x = plan.solve(&b);
        assert!(relative_residual(&u, &x, &b) < 1e-12);
    }

    #[test]
    fn orientation_mismatch_rejected() {
        let l = lower();
        assert!(matches!(
            SolvePlan::new(&l, Orientation::Upper, &GrowLocal::new(), 2, true),
            Err(PlanError::Matrix(_))
        ));
        let u = l.transpose();
        assert!(matches!(
            SolvePlan::new(&u, Orientation::Lower, &GrowLocal::new(), 2, true),
            Err(PlanError::Matrix(_))
        ));
    }

    #[test]
    fn bad_spec_rejected() {
        let l = lower();
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("not-a-scheduler").build(),
            Err(PlanError::Registry(_))
        ));
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal:bogus=1").build(),
            Err(PlanError::Registry(_))
        ));
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal@warp").build(),
            Err(PlanError::Registry(RegistryError::UnknownModel { .. }))
        ));
    }

    #[test]
    fn execution_model_resolution() {
        let l = lower();
        // Registry default: growlocal -> barrier, spmp -> async.
        let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert_eq!(plan.exec_model(), ExecModel::Barrier);
        assert_eq!(plan.executor().model(), ExecModel::Barrier);
        let plan = PlanBuilder::new(&l).scheduler("spmp").cores(2).build().unwrap();
        assert_eq!(plan.exec_model(), ExecModel::Async);
        // Spec suffix selects the model.
        let plan = PlanBuilder::new(&l).scheduler("growlocal@serial").cores(2).build().unwrap();
        assert_eq!(plan.exec_model(), ExecModel::Serial);
        // The typed knob overrides the suffix.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal@serial")
            .execution(ExecModel::Async)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_model(), ExecModel::Async);
        assert_eq!(plan.executor().model(), ExecModel::Async);
    }

    #[test]
    fn exec_policy_resolution_and_overrides() {
        let l = lower();
        // Defaults: reduced waits, spin loops.
        let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert_eq!(plan.exec_policy(), ExecPolicy::default());
        // Spec keys select the policy.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:sync=full,backoff=yield@async")
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_policy().sync, SyncPolicy::Full);
        assert_eq!(plan.exec_policy().backoff, Backoff::Yield);
        // The typed knobs override the spec keys.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:sync=full,backoff=yield@async")
            .sync_policy(SyncPolicy::Reduced)
            .backoff(Backoff::Spin)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_policy(), ExecPolicy::default());
        // growlocal's own numeric `sync` is untouched by the policy key.
        let plan = PlanBuilder::new(&l).scheduler("growlocal:sync=2000").cores(2).build().unwrap();
        assert_eq!(plan.exec_policy().sync, SyncPolicy::Reduced);
    }

    #[test]
    fn removed_policy_keys_are_rejected_by_name() {
        // `grant=`, `elastic=` and `shrink=` are not policy keys: a spec
        // carrying one fails with a registry error naming the key, never
        // a plan that silently ignores it.
        let l = lower();
        for spec in ["growlocal:grant=fair", "growlocal:elastic=on", "growlocal:shrink=on@barrier"]
        {
            let key = spec["growlocal:".len()..].split('=').next().unwrap();
            let err = PlanBuilder::new(&l).scheduler(spec).cores(2).build().err();
            assert!(
                matches!(
                    &err,
                    Some(PlanError::Registry(RegistryError::UnknownParam { key: k, .. })) if k == key
                ),
                "`{spec}` gave {err:?}"
            );
        }
    }

    #[test]
    fn fastmath_key_and_knob_resolve_and_solve_within_tolerance() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        // Default: off, bit-identical scalar kernels.
        let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert!(!plan.exec_policy().fastmath);
        // Spec key and typed knob (knob wins).
        let plan =
            PlanBuilder::new(&l).scheduler("growlocal:fastmath=on").cores(2).build().unwrap();
        assert!(plan.exec_policy().fastmath);
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:fastmath=on")
            .fastmath(false)
            .cores(2)
            .build()
            .unwrap();
        assert!(!plan.exec_policy().fastmath);
        // Bad value is a registry error.
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal:fastmath=fast").build(),
            Err(PlanError::Registry(_))
        ));
        // Every execution model solves within the documented relative
        // tolerance of the exact path under fastmath.
        let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for model in ExecModel::ALL {
            let plan =
                PlanBuilder::new(&l).cores(3).execution(model).fastmath(true).build().unwrap();
            assert!(plan.exec_policy().fastmath);
            let x = plan.solve(&b);
            let err = x.iter().zip(&reference).fold(0.0f64, |m, (a, e)| m.max((a - e).abs()));
            assert!(err / scale < 1e-12, "{model} fastmath deviated: rel {}", err / scale);
            assert!(relative_residual(&l, &x, &b) < 1e-12, "{model} fastmath residual");
        }
    }

    #[test]
    fn batch_keys_and_knobs_resolve() {
        let l = lower();
        // Defaults: defer to the serving layer.
        let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert_eq!(plan.exec_policy().batch, None);
        assert_eq!(plan.exec_policy().batch_wait_us, None);
        // Spec keys select the policy.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:batch=8,batch_wait_us=150")
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_policy().batch, Some(8));
        assert_eq!(plan.exec_policy().batch_wait_us, Some(150));
        // Typed knobs override the spec keys.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:batch=8,batch_wait_us=150")
            .batch(4)
            .batch_wait_us(0)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_policy().batch, Some(4));
        assert_eq!(plan.exec_policy().batch_wait_us, Some(0));
        // Bad values are registry errors.
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal:batch=0").build(),
            Err(PlanError::Registry(_))
        ));
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal:batch_wait_us=soon").build(),
            Err(PlanError::Registry(_))
        ));
    }

    #[test]
    fn batched_in_place_solves_are_bit_identical_to_standalone() {
        // The borrowed-RHS batch entry point the serving layer fuses
        // requests through: every fused column must match a standalone
        // solve of the same right-hand side bit-for-bit, at every batch
        // width and on every execution model.
        let l = lower();
        let n = l.n_rows();
        for model in ExecModel::ALL {
            let plan = PlanBuilder::new(&l).cores(3).execution(model).build().unwrap();
            let mut ws = plan.batch_workspace(4);
            for k in [1usize, 2, 3, 4] {
                let mut rhs: Vec<Vec<f64>> = (0..k)
                    .map(|j| (0..n).map(|i| ((i * 7 + j * 31) % 23) as f64 - 11.0).collect())
                    .collect();
                let standalone: Vec<Vec<f64>> = rhs.iter().map(|b| plan.solve(b)).collect();
                plan.solve_batch_in_place(&mut rhs, &mut ws);
                for (j, (x, expected)) in rhs.iter().zip(&standalone).enumerate() {
                    assert_eq!(x, expected, "{model} batch width {k}, request {j}");
                }
            }
            // Empty batches are a no-op, not a panic.
            plan.solve_batch_in_place(&mut [], &mut ws);
        }
    }

    #[test]
    fn batched_upper_and_preordered_plans_stay_exact() {
        // The fused permutation is the full chain (orientation reversal +
        // pre-order + §5 reorder), same as solve_into.
        let u = lower().transpose();
        let n = u.n_rows();
        let plan = PlanBuilder::new(&u)
            .orientation(Orientation::Upper)
            .pre_order(PreOrder::Rcm)
            .cores(3)
            .build()
            .unwrap();
        let mut rhs: Vec<Vec<f64>> =
            (0..3).map(|j| (0..n).map(|i| ((i + j * 17) % 9) as f64 - 4.0).collect()).collect();
        let standalone: Vec<Vec<f64>> = rhs.iter().map(|b| plan.solve(b)).collect();
        let mut ws = plan.batch_workspace(3);
        plan.solve_batch_in_place(&mut rhs, &mut ws);
        assert_eq!(rhs, standalone);
    }

    #[test]
    fn every_runtime_capacity_and_model_solves_identically() {
        // The runtime capacity selects the lease width, never arithmetic:
        // every capacity and model is bit-identical to the roomy solve.
        use crate::runtime::SolverRuntime;
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let reference = PlanBuilder::new(&l).cores(4).build().unwrap().solve(&b);
        for capacity in 1..=4 {
            let runtime = Arc::new(SolverRuntime::new(capacity));
            for model in ExecModel::ALL {
                let plan = PlanBuilder::new(&l)
                    .cores(4)
                    .execution(model)
                    .runtime(Arc::clone(&runtime))
                    .build()
                    .unwrap();
                assert_eq!(plan.solve(&b), reference, "{model} on capacity {capacity}");
            }
            assert_eq!(runtime.cores_in_use(), 0, "capacity {capacity} leaked leases");
        }
    }

    #[test]
    fn cores_spec_key_and_typed_knob_resolve() {
        let l = lower();
        // Default: 8 cores.
        let plan = PlanBuilder::new(&l).build().unwrap();
        assert_eq!(plan.compiled().n_cores(), 8);
        // The spec's cores= policy key sizes the schedule.
        let plan = PlanBuilder::new(&l).scheduler("growlocal:cores=3").build().unwrap();
        assert_eq!(plan.compiled().n_cores(), 3);
        assert_eq!(plan.exec_policy().cores, Some(3));
        // The typed knob overrides the spec key.
        let plan = PlanBuilder::new(&l).scheduler("growlocal:cores=3").cores(2).build().unwrap();
        assert_eq!(plan.compiled().n_cores(), 2);
        // And a spec-sized plan solves correctly.
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 6) as f64).collect();
        let plan = PlanBuilder::new(&l).scheduler("spmp:cores=3@async").build().unwrap();
        let x = plan.solve(&b);
        assert!(relative_residual(&l, &x, &b) < 1e-12);
    }

    #[test]
    fn explicit_runtime_handles_are_honored() {
        use crate::runtime::SolverRuntime;
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 9) as f64 - 4.0).collect();
        let reference = PlanBuilder::new(&l).cores(4).build().unwrap().solve(&b);
        // A plan pinned to a tiny runtime degrades its 4-core schedule to
        // the runtime's capacity and still produces identical bits; the
        // runtime records the lease traffic.
        for capacity in [1, 2, 4] {
            let runtime = Arc::new(SolverRuntime::new(capacity));
            for model in [ExecModel::Barrier, ExecModel::Async] {
                let plan = PlanBuilder::new(&l)
                    .cores(4)
                    .execution(model)
                    .runtime(Arc::clone(&runtime))
                    .build()
                    .unwrap();
                assert_eq!(plan.solve(&b), reference, "{model} on capacity {capacity}");
            }
            assert_eq!(runtime.cores_in_use(), 0, "solves leaked leases");
        }
    }

    #[test]
    fn sync_policy_selects_the_wait_dag() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        let full = PlanBuilder::new(&l)
            .scheduler("spmp")
            .sync_policy(SyncPolicy::Full)
            .cores(3)
            .build()
            .unwrap();
        let reduced = PlanBuilder::new(&l)
            .scheduler("spmp")
            .sync_policy(SyncPolicy::Reduced)
            .cores(3)
            .build()
            .unwrap();
        // The full policy waits on the final operand's DAG; the reduced one
        // on a strictly sparser DAG with identical reachability.
        let full_dag = full.sync_dag().expect("async plan has a sync DAG");
        let reduced_dag = reduced.sync_dag().expect("async plan has a sync DAG");
        assert_eq!(
            full_dag.n_edges(),
            SolveDag::from_lower_triangular(full.internal_matrix()).n_edges()
        );
        assert!(reduced_dag.n_edges() < full_dag.n_edges());
        // Barrier/serial plans carry none, and all policies solve alike.
        assert!(PlanBuilder::new(&l).cores(3).build().unwrap().sync_dag().is_none());
        assert_eq!(full.solve(&b), reduced.solve(&b));
    }

    #[test]
    fn every_policy_combination_solves_identically() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() + 1.0).collect();
        let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
        for model in ExecModel::ALL {
            for sync in [SyncPolicy::Full, SyncPolicy::Reduced] {
                for backoff in [Backoff::Spin, Backoff::Yield] {
                    let plan = PlanBuilder::new(&l)
                        .cores(3)
                        .execution(model)
                        .sync_policy(sync)
                        .backoff(backoff)
                        .build()
                        .unwrap();
                    assert_eq!(plan.solve(&b), reference, "{model}/{sync}/{backoff} diverged");
                }
            }
        }
    }

    #[test]
    fn repeated_pooled_solves_reuse_the_plan() {
        // Steady-state regime: many solves on one plan, same pool, stable
        // bit-for-bit results under both backoff policies.
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64).collect();
        for backoff in [Backoff::Spin, Backoff::Yield] {
            for model in [ExecModel::Barrier, ExecModel::Async] {
                let plan = PlanBuilder::new(&l)
                    .cores(4)
                    .execution(model)
                    .backoff(backoff)
                    .build()
                    .unwrap();
                let mut ws = plan.workspace();
                let mut x = vec![0.0; n];
                plan.solve_into(&b, &mut x, &mut ws);
                let reference = x.clone();
                for round in 0..50 {
                    x.fill(f64::NAN); // dirty start: every slot must be rewritten
                    plan.solve_into(&b, &mut x, &mut ws);
                    assert_eq!(x, reference, "{model}/{backoff} round {round}");
                }
            }
        }
    }

    #[test]
    fn concurrent_solves_on_one_shared_plan_are_correct() {
        // SolvePlan is Sync: two threads sharing one plan may solve
        // concurrently with their own buffers (sound under the seed's
        // scoped-spawn design; the pool serializes them on its run lock).
        let l = lower();
        let n = l.n_rows();
        for model in [ExecModel::Barrier, ExecModel::Async] {
            let plan = Arc::new(PlanBuilder::new(&l).cores(3).execution(model).build().unwrap());
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let expected = plan.solve(&b);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let plan = Arc::clone(&plan);
                    let b = &b;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut ws = plan.workspace();
                        let mut x = vec![0.0; b.len()];
                        for round in 0..25 {
                            plan.solve_into(b, &mut x, &mut ws);
                            assert_eq!(&x, expected, "{model} round {round}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn all_execution_models_solve_identically() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 4.0).collect();
        let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
        for model in ExecModel::ALL {
            let plan = PlanBuilder::new(&l).cores(3).execution(model).build().unwrap();
            assert_eq!(plan.solve(&b), reference, "{model} diverged");
        }
    }

    #[test]
    fn multi_rhs_through_plan() {
        let l = lower();
        let n = l.n_rows();
        let r = 3;
        for model in ExecModel::ALL {
            let plan = PlanBuilder::new(&l).cores(2).execution(model).build().unwrap();
            let b: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.17).cos()).collect();
            let x = plan.solve_multi(&b, r);
            // Check each column against the single-RHS path.
            for j in 0..r {
                let bj: Vec<f64> = (0..n).map(|i| b[i * r + j]).collect();
                let xj = plan.solve(&bj);
                for i in 0..n {
                    assert!((x[i * r + j] - xj[i]).abs() < 1e-12, "{model} col {j} row {i}");
                }
            }
        }
    }

    #[test]
    fn wrong_length_operands_panic_under_every_model() {
        // Every executor owns the length contract (the plan's own checks
        // are bypassed here): an oversized or short `b`, or an oversized
        // `x`, is rejected instead of leaving part of `x` stale.
        let l = lower();
        let n = l.n_rows();
        for model in ExecModel::ALL {
            for fastmath in [false, true] {
                let plan = PlanBuilder::new(&l)
                    .cores(2)
                    .execution(model)
                    .fastmath(fastmath)
                    .build()
                    .unwrap();
                let exec = plan.executor();
                let m = plan.internal_matrix();
                for (b_len, x_len) in [(n + 1, n), (n - 1, n), (n, n + 1)] {
                    let panics = |f: &dyn Fn()| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
                    };
                    let solve = panics(&|| exec.solve(m, &vec![1.0; b_len], &mut vec![0.0; x_len]));
                    let multi = panics(&|| {
                        exec.solve_multi(m, &vec![1.0; 2 * b_len], &mut vec![0.0; 2 * x_len], 2)
                    });
                    let config = format!("{model} fastmath={fastmath} b={b_len} x={x_len}");
                    assert!(solve, "{config}: solve accepted wrong lengths");
                    assert!(multi, "{config}: solve_multi accepted wrong lengths");
                }
            }
        }
    }

    #[test]
    fn solve_into_matches_solve_and_reuses_buffers() {
        let l = lower();
        let n = l.n_rows();
        let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
        let mut ws = plan.workspace();
        let mut x = vec![0.0; n];
        for round in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| (i + round) as f64 * 0.3 + 1.0).collect();
            plan.solve_into(&b, &mut x, &mut ws);
            assert_eq!(x, plan.solve(&b), "round {round}");
        }
    }

    #[test]
    fn every_builder_knob_produces_a_correct_plan() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        for pre_order in
            [PreOrder::Natural, PreOrder::Rcm, PreOrder::MinDegree, PreOrder::NestedDissection]
        {
            for coarsen in [false, true] {
                for reorder in [false, true] {
                    for model in ExecModel::ALL {
                        let plan = PlanBuilder::new(&l)
                            .scheduler("growlocal")
                            .cores(3)
                            .pre_order(pre_order)
                            .coarsen(coarsen)
                            .reorder(reorder)
                            .execution(model)
                            .build()
                            .unwrap_or_else(|e| {
                                panic!("{pre_order:?}/{coarsen}/{reorder}/{model}: {e}")
                            });
                        let x = plan.solve(&b);
                        assert!(
                            relative_residual(&l, &x, &b) < 1e-12,
                            "{pre_order:?}/coarsen={coarsen}/reorder={reorder}/{model}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pre_order_keeps_operand_triangular() {
        let l = lower();
        for pre_order in [PreOrder::Rcm, PreOrder::MinDegree, PreOrder::NestedDissection] {
            let plan = PlanBuilder::new(&l).pre_order(pre_order).cores(2).build().unwrap();
            assert!(plan.internal_matrix().is_lower_triangular(), "{pre_order:?}");
            assert!(plan.internal_matrix().has_nonzero_diagonal(), "{pre_order:?}");
        }
    }

    #[test]
    fn upper_with_pre_order_and_funnel_spec() {
        let u = lower().transpose();
        let n = u.n_rows();
        let plan = PlanBuilder::new(&u)
            .orientation(Orientation::Upper)
            .scheduler("funnel-gl:cap=auto")
            .pre_order(PreOrder::Rcm)
            .cores(4)
            .build()
            .unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let x = plan.solve(&b);
        assert!(relative_residual(&u, &x, &b) < 1e-12);
    }

    #[test]
    fn plan_simulation_routes_by_model() {
        let l = lower();
        let profile = MachineProfile::intel_xeon_22();
        let barrier = PlanBuilder::new(&l).cores(4).build().unwrap();
        let report = barrier.simulate(&profile);
        assert!(report.cycles > 0.0);
        // Deterministic and reusing the shared layout.
        assert_eq!(report, barrier.simulate(&profile));
        // Same schedule, no barriers in the async model's report.
        let asynchronous =
            PlanBuilder::new(&l).cores(4).execution(ExecModel::Async).build().unwrap();
        let areport = asynchronous.simulate(&profile);
        assert!(areport.cycles > 0.0);
        let serial = PlanBuilder::new(&l).cores(4).execution(ExecModel::Serial).build().unwrap();
        assert_eq!(serial.simulate(&profile).sync_cycles, 0.0);
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_cache_spec_key_and_typed_knob_resolve() {
        let l = lower();
        let dir = temp_dir("sptrsv-plan-key-test");
        // The spec key drives the disk cache; the policy struct is
        // untouched (the seventh key carries a path, not execution state).
        let plan = PlanBuilder::new(&l)
            .scheduler(format!("growlocal:plan_cache={}", dir.display()))
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(plan.exec_policy(), ExecPolicy::default());
        assert_ne!(plan.cache_outcome(), CacheOutcome::Uncached);
        // Without any cache configured: uncached, but still fingerprinted.
        let plain = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert_eq!(plain.cache_outcome(), CacheOutcome::Uncached);
        assert!(plain.fingerprint().is_some());
        // A blank directory is a registry error like any bad policy value.
        assert!(matches!(
            PlanBuilder::new(&l).scheduler("growlocal:plan_cache= ").build(),
            Err(PlanError::Registry(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_cache_hits_share_artifacts_and_solve_identically() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 9) as f64).collect();
        let cache = Arc::new(PlanCache::new(8));
        let cold = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
        assert_eq!(cold.cache_outcome(), CacheOutcome::Miss);
        let warm = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
        assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
        // The warm plan shares the operand and compiled layout by pointer.
        assert!(Arc::ptr_eq(&cold.matrix, &warm.matrix));
        assert!(Arc::ptr_eq(&cold.compiled, &warm.compiled));
        assert_eq!(cold.solve(&b), warm.solve(&b));
        // A different spec or core count is a different fingerprint.
        let other = PlanBuilder::new(&l).cores(4).cached(&cache).build().unwrap();
        assert_eq!(other.cache_outcome(), CacheOutcome::Miss);
        let hdagg =
            PlanBuilder::new(&l).scheduler("hdagg").cores(3).cached(&cache).build().unwrap();
        assert_eq!(hdagg.cache_outcome(), CacheOutcome::Miss);
        // Policy/model changes hit the same entry (schedule identity is
        // policy- and model-invariant).
        let async_warm = PlanBuilder::new(&l)
            .cores(3)
            .execution(ExecModel::Async)
            .cached(&cache)
            .build()
            .unwrap();
        assert_eq!(async_warm.cache_outcome(), CacheOutcome::MemoryHit);
        assert_eq!(async_warm.solve(&b), cold.solve(&b));
    }

    #[test]
    fn memory_cache_rebinds_new_values_without_scheduling() {
        // Same structure, different values: still a memory hit — the
        // schedule is reused, the operand re-permuted.
        let l = lower();
        let n = l.n_rows();
        let cache = Arc::new(PlanCache::new(4));
        let cold = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
        let scaled = CsrMatrix::from_raw(
            n,
            n,
            l.row_ptr().to_vec(),
            l.col_idx().to_vec(),
            l.values().iter().map(|v| v * 2.0).collect(),
        )
        .unwrap();
        let warm = PlanBuilder::new(&scaled).cores(3).cached(&cache).build().unwrap();
        assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
        assert!(!Arc::ptr_eq(&cold.matrix, &warm.matrix), "values differ, operand must not");
        assert!(Arc::ptr_eq(&cold.compiled, &warm.compiled));
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 - 5.0).collect();
        let reference = PlanBuilder::new(&scaled).cores(3).build().unwrap().solve(&b);
        assert_eq!(warm.solve(&b), reference);
    }

    #[test]
    fn disk_cache_round_trips_bit_identically() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 + 0.5).collect();
        let dir = temp_dir("sptrsv-plan-disk-test");
        // Unique per-run subdirectory so reruns start cold.
        let dir = dir.join(format!("{:?}", std::thread::current().id()));
        for model in ExecModel::ALL {
            let cold =
                PlanBuilder::new(&l).cores(3).execution(model).plan_cache(&dir).build().unwrap();
            // First build of this fingerprint schedules and stores...
            let warm =
                PlanBuilder::new(&l).cores(3).execution(model).plan_cache(&dir).build().unwrap();
            // ...second loads (model is not part of the fingerprint, so all
            // three models share one file; the first model's cold build
            // already stored it for the rest).
            assert_eq!(warm.cache_outcome(), CacheOutcome::DiskHit, "{model}");
            assert_eq!(cold.solve(&b), warm.solve(&b), "{model} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_load_skips_reduction_and_kernel_detection() {
        // An spmp@async (sync=reduced) + fastmath=on build persists both
        // derived artifacts; a warm load must replay them rather than
        // re-deriving — the transitive-reduction counter stays flat across
        // the warm build.
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.5 - (i % 7) as f64 * 0.25).collect();
        let dir = temp_dir("sptrsv-plan-warmreduce-test")
            .join(format!("{:?}", std::thread::current().id()));
        let spec = "spmp:fastmath=on@async";
        let cold = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().unwrap();
        assert_eq!(cold.cache_outcome(), CacheOutcome::Miss);
        let before = sptrsv_dag::transitive::reduction_invocations();
        let warm = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().unwrap();
        let after = sptrsv_dag::transitive::reduction_invocations();
        assert_eq!(warm.cache_outcome(), CacheOutcome::DiskHit);
        assert_eq!(after, before, "warm disk load re-ran the transitive reduction");
        assert_eq!(
            warm.sync_dag.as_ref().map(|d| d.n_edges()),
            cold.sync_dag.as_ref().map(|d| d.n_edges()),
            "reconstructed reduced DAG differs from the built one"
        );
        assert_eq!(cold.solve(&b), warm.solve(&b));
        // A tampered syncdag section (an edge whose removal loses a
        // dependency) must error, never under-wait. Rewrite the saved file
        // with a forged removed-edge list.
        let path = dir.join(format!("{}.plan", cold.fingerprint().unwrap()));
        let mut saved = sptrsv_core::serialize::read_plan_file(&path).unwrap();
        // Claim an edge with no two-path witness was removed: any source
        // edge of the full DAG whose parent has out-degree reaching only
        // it. Vertex 1's edge from 0 in a grid lower triangle works via
        // forging an out-of-range pair instead (simplest guaranteed-bad).
        saved.removed_sync_edges = Some(vec![(n + 1, n + 2)]);
        sptrsv_core::serialize::write_plan_file(&saved, &path).unwrap();
        let err = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().err();
        assert!(
            matches!(err, Some(PlanError::Cache(SerializeError::Parse(_)))),
            "forged removed-edge list accepted: {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_and_mismatches_error_not_mis_solve() {
        let l = lower();
        let dir = temp_dir("sptrsv-plan-saveload-test");
        let path = dir.join(format!("{:?}.plan", std::thread::current().id()));
        let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
        plan.save(&path).unwrap();
        // Explicit load: a disk hit with identical solutions.
        let loaded = PlanBuilder::new(&l).cores(3).load_plan(&path).build().unwrap();
        assert_eq!(loaded.cache_outcome(), CacheOutcome::DiskHit);
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 2.0 - (i % 3) as f64).collect();
        assert_eq!(plan.solve(&b), loaded.solve(&b));
        // Wrong matrix for the saved plan: fingerprint mismatch, an error.
        let other = grid2d_laplacian(11, 9, Stencil2D::FivePoint, 0.4).lower_triangle().unwrap();
        assert!(matches!(
            PlanBuilder::new(&other).cores(3).load_plan(&path).build(),
            Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
        ));
        // Wrong spec / core count: also a fingerprint mismatch.
        assert!(matches!(
            PlanBuilder::new(&l).cores(4).load_plan(&path).build(),
            Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
        ));
        // Truncated file: rejected.
        let text = std::fs::read_to_string(&path).unwrap();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        assert!(matches!(
            PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
            Err(PlanError::Cache(_))
        ));
        // Corrupted assignment line: checksum rejects it (the checksum is
        // verified before any semantic validation, so a flipped digit can
        // never masquerade as a different valid plan).
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let idx = (6..lines.len() - 1).find(|&i| lines[i].contains('0')).unwrap();
        lines[idx] = lines[idx].replacen('0', "1", 1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(
            PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
            Err(PlanError::Cache(SerializeError::Checksum { .. }))
        ));
        // Version mismatch: rejected with the version error.
        std::fs::write(&path, text.replacen("v3", "v7", 1)).unwrap();
        assert!(matches!(
            PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
            Err(PlanError::Cache(SerializeError::Version { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn with_new_values_rebinds_without_scheduling() {
        let l = lower();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 13) as f64 - 6.0).collect();
        let scaled = CsrMatrix::from_raw(
            n,
            n,
            l.row_ptr().to_vec(),
            l.col_idx().to_vec(),
            l.values().iter().map(|v| v * 1.5 + 0.25).collect(),
        )
        .unwrap();
        for model in ExecModel::ALL {
            for fastmath in [false, true] {
                let plan = PlanBuilder::new(&l)
                    .cores(3)
                    .execution(model)
                    .fastmath(fastmath)
                    .pre_order(PreOrder::Rcm)
                    .build()
                    .unwrap();
                let rebound = plan.with_new_values(&scaled).unwrap();
                // Schedule artifacts are shared by reference, not rebuilt.
                assert!(Arc::ptr_eq(&plan.compiled, &rebound.compiled));
                assert_eq!(plan.schedule(), rebound.schedule());
                // And the rebound plan solves the NEW matrix.
                let x = rebound.solve(&b);
                assert!(relative_residual(&scaled, &x, &b) < 1e-12, "{model}/fastmath={fastmath}");
                if !fastmath {
                    let direct = PlanBuilder::new(&scaled)
                        .cores(3)
                        .execution(model)
                        .pre_order(PreOrder::Rcm)
                        .build()
                        .unwrap();
                    assert_eq!(x, direct.solve(&b), "{model} rebind != direct build");
                }
            }
        }
        // A different structure is refused, never mis-solved.
        let other = grid2d_laplacian(12, 10, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
        assert!(matches!(plan.with_new_values(&other), Err(PlanError::StructureMismatch { .. })));
        // A zero diagonal in the new values is a singularity error.
        let mut zeroed = l.values().to_vec();
        let diag_pos = l.row_ptr()[1] - 1; // last entry of row 0 is the diagonal
        zeroed[diag_pos] = 0.0;
        let singular =
            CsrMatrix::from_raw(n, n, l.row_ptr().to_vec(), l.col_idx().to_vec(), zeroed).unwrap();
        assert!(matches!(plan.with_new_values(&singular), Err(PlanError::Matrix(_))));
    }

    #[test]
    fn upper_plans_rebind_values_through_the_full_chain() {
        // with_new_values must reproduce the whole permutation pipeline
        // (orientation reversal + reorder) with one composed gather.
        let u = lower().transpose();
        let n = u.n_rows();
        let scaled = CsrMatrix::from_raw(
            n,
            n,
            u.row_ptr().to_vec(),
            u.col_idx().to_vec(),
            u.values().iter().map(|v| v * 0.75).collect(),
        )
        .unwrap();
        let plan = PlanBuilder::new(&u).orientation(Orientation::Upper).cores(3).build().unwrap();
        let rebound = plan.with_new_values(&scaled).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let x = rebound.solve(&b);
        assert!(relative_residual(&scaled, &x, &b) < 1e-12);
    }

    /// Operands for the fused-permutation tests: a stencil, a supernodal
    /// matrix (dense blocks under `fastmath=on`) and a random matrix with
    /// long rows (lane-unrolled rows under `fastmath=on`).
    fn permutation_operands() -> Vec<CsrMatrix> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        vec![
            lower(),
            sptrsv_sparse::gen::supernodal_spd(12, 8, 2, 0.5).lower_triangle().unwrap(),
            sptrsv_sparse::gen::erdos_renyi_lower(120, 0.2, &mut rng),
        ]
    }

    /// Largest deviation of `x` from `reference`, relative to the
    /// reference's largest magnitude (at least 1).
    fn scaled_deviation(x: &[f64], reference: &[f64]) -> f64 {
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        x.iter().zip(reference).map(|(a, e)| (a - e).abs()).fold(0.0, f64::max) / scale
    }

    #[test]
    fn fused_permutation_matches_gather_solve_scatter() {
        // The row kernels read `b` and write `x` through the plan's
        // permutation. The oracle is the path they replace: gather `b`
        // into internal order, `executor().solve` on the internal operand,
        // scatter `x` back. Runs under the CI ThreadSanitizer step, which
        // thereby covers the cross-thread writes into the caller's buffer.
        use crate::runtime::SolverRuntime;
        let runtimes = [1, 3].map(|capacity| Arc::new(SolverRuntime::new(capacity)));
        let (mut dense_rows, mut unrolled_rows) = (0, 0);
        for operand in permutation_operands() {
            let n = operand.n_rows();
            let columns: Vec<Vec<f64>> = (0..3)
                .map(|j| (0..n).map(|i| 1.0 + ((i * 7 + j * 13) % 11) as f64).collect())
                .collect();
            for (orientation, m) in
                [(Orientation::Lower, operand.clone()), (Orientation::Upper, operand.transpose())]
            {
                for model in ExecModel::ALL {
                    let mut cases = Vec::new();
                    for fastmath in [false, true] {
                        for reorder in [false, true] {
                            cases.extend(runtimes.iter().map(|rt| (fastmath, reorder, rt)));
                        }
                    }
                    for (fastmath, reorder, runtime) in cases {
                        let plan = PlanBuilder::new(&m)
                            .orientation(orientation)
                            .cores(3)
                            .execution(model)
                            .fastmath(fastmath)
                            .reorder(reorder)
                            .runtime(Arc::clone(runtime))
                            .build()
                            .unwrap();
                        let config = format!(
                            "n={n} {orientation:?} {model} fastmath={fastmath} reorder={reorder} \
                             capacity={}",
                            runtime.capacity()
                        );
                        if let Some(k) = &plan.kernel {
                            dense_rows += k.dense_rows();
                            unrolled_rows += k.unrolled_rows();
                        }
                        let old_of_new = plan.to_internal.old_of_new();
                        let mut ws = plan.workspace();
                        let mut singles = Vec::new();
                        for b in &columns {
                            let pb: Vec<f64> = old_of_new.iter().map(|&old| b[old]).collect();
                            let mut px = vec![0.0; n];
                            plan.executor().solve(plan.internal_matrix(), &pb, &mut px);
                            let mut expected = vec![0.0; n];
                            for (&v, &old) in px.iter().zip(old_of_new) {
                                expected[old] = v;
                            }
                            let mut x = vec![f64::NAN; n];
                            plan.solve_into(b, &mut x, &mut ws);
                            assert!(x.iter().all(|v| !v.is_nan()), "{config}: unwritten slot");
                            assert_eq!(x, expected, "{config}: solve_into");
                            singles.push(x);
                        }
                        let mut batch_ws = plan.batch_workspace(3);
                        for k in 1..=3 {
                            let b: Vec<f64> = (0..n * k).map(|p| columns[p % k][p / k]).collect();
                            let multi = plan.solve_multi(&b, k);
                            let mut batch = columns[..k].to_vec();
                            plan.solve_batch_in_place(&mut batch, &mut batch_ws);
                            for (j, single) in singles[..k].iter().enumerate() {
                                let multi_j: Vec<f64> = (0..n).map(|i| multi[i * k + j]).collect();
                                if fastmath {
                                    let (dm, db) = (
                                        scaled_deviation(&multi_j, single),
                                        scaled_deviation(&batch[j], single),
                                    );
                                    assert!(dm < 1e-12, "{config}: solve_multi k={k} col {j}");
                                    assert!(db < 1e-12, "{config}: batch k={k} col {j}");
                                } else {
                                    assert_eq!(&multi_j, single, "{config}: solve_multi k={k}");
                                    assert_eq!(&batch[j], single, "{config}: batch k={k} col {j}");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(dense_rows > 0, "no fastmath plan exercised the dense block kernels");
        assert!(unrolled_rows > 0, "no fastmath plan exercised the lane-unrolled kernels");
    }

    #[test]
    fn degenerate_operands_solve_through_every_entry_point() {
        // Empty, 1 × 1 and diagonal-only operands through `solve_into`,
        // `solve_multi` and `solve_batch_in_place`, under every spec the
        // benchmark drives plus the serial and fastmath variants.
        let diagonal = |d: &[f64]| {
            let mut coo = sptrsv_sparse::CooMatrix::new(d.len(), d.len());
            for (i, &v) in d.iter().enumerate() {
                coo.push(i, i, v).unwrap();
            }
            coo.to_csr()
        };
        let operands: [Vec<f64>; 3] =
            [vec![], vec![4.0], (0..37).map(|i| 1.5 + (i % 5) as f64).collect()];
        let specs = [
            "growlocal",
            "funnel-gl",
            "hdagg",
            "spmp",
            "wavefront",
            "growlocal@serial",
            "growlocal:fastmath=on",
            "spmp:fastmath=on@async",
        ];
        for d in &operands {
            let (m, n) = (diagonal(d), d.len());
            for orientation in [Orientation::Lower, Orientation::Upper] {
                for spec in specs {
                    let config = format!("n={n} {orientation:?} {spec}");
                    let plan = PlanBuilder::new(&m)
                        .orientation(orientation)
                        .scheduler(spec)
                        .cores(2)
                        .build()
                        .unwrap_or_else(|e| panic!("{config}: {e}"));
                    let column = |j: usize| -> Vec<f64> {
                        (0..n).map(|i| (i + 2 * j) as f64 - 3.5).collect()
                    };
                    let close = |x: &[f64], b: &[f64], what: &str| {
                        for i in 0..n {
                            let want = b[i] / d[i];
                            assert!(
                                (x[i] - want).abs() <= 1e-12 * want.abs(),
                                "{config} {what}: x[{i}] = {} vs {want}",
                                x[i]
                            );
                        }
                    };
                    let mut x = vec![f64::NAN; n];
                    plan.solve_into(&column(0), &mut x, &mut plan.workspace());
                    close(&x, &column(0), "solve_into");
                    let mut ws = plan.batch_workspace(3);
                    for k in 1..=3 {
                        let b: Vec<f64> = (0..n * k).map(|p| column(p % k)[p / k]).collect();
                        let multi = plan.solve_multi(&b, k);
                        let mut batch: Vec<Vec<f64>> = (0..k).map(column).collect();
                        plan.solve_batch_in_place(&mut batch, &mut ws);
                        for (j, x) in batch.iter().enumerate() {
                            let multi_j: Vec<f64> = (0..n).map(|i| multi[i * k + j]).collect();
                            close(&multi_j, &column(j), "solve_multi");
                            close(x, &column(j), "solve_batch_in_place");
                        }
                    }
                }
            }
        }
    }
}
