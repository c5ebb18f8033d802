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
//! default applies. The resulting plan runs `solve_into` and
//! `solve_batch_in_place` on its one [`Executor`], so barrier,
//! asynchronous and serial execution are interchangeable behind one API.
//!
//! The **execution policy** rides the spec too: `sync=full|reduced`
//! selects the wait DAG of asynchronous execution (the final operand's
//! solve DAG or its approximate transitive reduction, whatever the
//! scheduler, so an async plan reduces at most once), `backoff=spin|yield`
//! the behavior of every threaded wait loop, `cores=N` the core count the
//! schedule targets and `fastmath=on|off` whether the executor runs the
//! blocked/unrolled kernel layer over a detected
//! [`sptrsv_core::kernel::KernelPlan`] (the only key that can change
//! results — to a documented `1e-12` relative tolerance). The keys are
//! listed once, in [`sptrsv_core::registry::exec_policy_keys`]. Only the
//! core count also has a typed setter, [`PlanBuilder::cores`], which wins
//! over the spec's `cores=`.
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
//! A plan's schedule comes from one of four sources — a cold build, the
//! in-process [`PlanCache`], a plan file, or [`SolvePlan::with_new_values`]
//! on an existing plan — and every source hands its artifacts to one
//! assembly point, which derives whatever the source lacks (kernel plan,
//! wait DAG) and builds the executor.
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

use crate::engine::{SharedPtr, UserOperands};
use crate::executor::Executor;
use crate::runtime::{RuntimeHandle, SolverRuntime};
use crate::sim::{simulate_model, MachineProfile, SimReport};
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{
    self, ExecModel, ExecPolicy, RegistryError, SchedulerSpec, SyncPolicy,
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

    /// On-disk plan cache: before scheduling, look for
    /// `DIR/<fingerprint>.plan` (the [`PlanFingerprint`] of the operand's
    /// structure plus the schedule-relevant build key) and load it instead
    /// of scheduling; on a miss, schedule and save the result there for the
    /// next process. Corrupt, truncated, version-mismatched or
    /// wrong-fingerprint files are rejected with [`PlanError::Cache`] — a
    /// bad cache can never change what is solved. Loaded schedules are
    /// re-validated against the operand's DAG before use. The directory is
    /// a deployment path, not execution policy, so no spec key sets it.
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
    /// The execution policy the executor runs under.
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
    /// Warm-start identity: the operand's structure plus `schedule_key`.
    fingerprint: PlanFingerprint,
    /// The schedule-relevant build key behind `fingerprint`.
    schedule_key: String,
    /// How the schedule was obtained (cache hit vs computed).
    cache_outcome: CacheOutcome,
    /// The runtime the executor leases threads from; kept so value rebinds
    /// can rebuild an executor against the same pool.
    runtime: RuntimeHandle,
    executor: Executor,
}

/// What a plan's source hands [`SolvePlan::assemble`]: the artifacts that
/// depend on where the schedule came from (a cold build, the in-process
/// cache, a plan file or a value rebind).
struct Parts {
    /// The final internal operand.
    matrix: Arc<CsrMatrix>,
    to_internal: Permutation,
    schedule: Schedule,
    compiled: Arc<CompiledSchedule>,
    reorder_perm: Option<Permutation>,
    /// A kernel plan for `matrix`'s values, reused under `fastmath=on`
    /// instead of detecting one.
    kernel: Option<Arc<KernelPlan>>,
    /// The wait DAG, when the source already has the one the plan's model
    /// and policy call for; otherwise derived from `matrix`.
    sync_dag: Option<SolveDag>,
}

/// What every plan of one build shares whatever its source: how it runs
/// and what it is keyed by. Value rebinds carry it over unchanged.
struct Settings {
    model: ExecModel,
    policy: ExecPolicy,
    runtime: RuntimeHandle,
    fingerprint: PlanFingerprint,
    schedule_key: String,
}

impl Settings {
    /// Whether the plan waits on a reduced DAG (`sync=reduced` under the
    /// asynchronous model), the one wait DAG worth caching and saving.
    fn waits_reduced(&self) -> bool {
        self.model == ExecModel::Async && self.policy.sync == SyncPolicy::Reduced
    }
}

impl Parts {
    /// Cold: schedule the operand's DAG, apply the §5 reordering and
    /// validate the result against the final operand.
    fn scheduled(
        lower: CsrMatrix,
        base_perm: Permutation,
        builder: &PlanBuilder<'_>,
        spec: &SchedulerSpec,
        n_cores: usize,
        settings: &Settings,
    ) -> Result<Parts, PlanError> {
        let dag = SolveDag::from_lower_triangular(&lower);
        let scheduler = registry::build(spec, &dag, n_cores)?;
        let schedule = if builder.coarsen {
            schedule_coarsened(&dag, scheduler.as_ref(), n_cores)
        } else {
            scheduler.schedule(&dag, n_cores)
        };
        // Without reordering the operand is unchanged, so the DAG built for
        // scheduling doubles as the validation DAG.
        let (matrix, schedule, to_internal, reorder_perm, final_dag) = if builder.reorder {
            let reordered = reorder_for_locality(&lower, &schedule)
                .expect("schedule order of a valid schedule is topological");
            let total = reordered.permutation.compose(&base_perm);
            let final_dag = SolveDag::from_lower_triangular(&reordered.matrix);
            (reordered.matrix, reordered.schedule, total, Some(reordered.permutation), final_dag)
        } else {
            (lower, schedule, base_perm, None, dag)
        };
        // Validate once against the final operand; the executor then shares
        // the one compiled plan.
        schedule.validate(&final_dag).map_err(PlanError::Schedule)?;
        Ok(Parts {
            matrix: Arc::new(matrix),
            to_internal,
            compiled: Arc::new(CompiledSchedule::from_schedule(&schedule)),
            schedule,
            reorder_perm,
            kernel: None,
            sync_dag: wait_dag(settings.model, settings.policy.sync, || final_dag),
        })
    }

    /// From an in-process cache entry: reuse the schedule, the compiled
    /// layout, the reduced wait DAG and — when the candidate's values match
    /// the entry's digest bit-for-bit — the operand and kernel plan too.
    /// The structure is not re-validated (the entry was validated by the
    /// build that inserted it, and the fingerprint ties it to this
    /// structure and build key); only the value-dependent
    /// non-singular-diagonal invariant is re-checked, and only when the
    /// values changed. The borrowed operand is never cloned on the
    /// same-values path.
    fn cached(
        entry: &CachedPlan,
        lower: &CsrMatrix,
        base_perm: Permutation,
        same_values: bool,
        waits_reduced: bool,
    ) -> Result<Parts, PlanError> {
        let matrix = if same_values {
            Arc::clone(&entry.matrix)
        } else {
            check_diagonal(lower)?;
            // Re-apply the cached reorder permutation — an O(nnz) gather,
            // no scheduling.
            Arc::new(match &entry.reorder_perm {
                Some(perm) => lower.symmetric_permute(perm).map_err(PlanError::Matrix)?,
                None => lower.clone(),
            })
        };
        let to_internal = match &entry.reorder_perm {
            Some(perm) => perm.compose(&base_perm),
            None => base_perm,
        };
        Ok(Parts {
            matrix,
            to_internal,
            schedule: entry.schedule.clone(),
            compiled: Arc::clone(&entry.compiled),
            reorder_perm: entry.reorder_perm.clone(),
            // The kernel plan packs values, so it is only reusable when the
            // values match bit-for-bit.
            kernel: entry.kernel.clone().filter(|_| same_values),
            sync_dag: entry.reduced_sync_dag.as_ref().filter(|_| waits_reduced).cloned(),
        })
    }

    /// From a plan file: skip scheduling and reordering, but check that
    /// the file belongs to this build, re-validate its schedule against
    /// the operand's DAG and re-compile it — disk content is untrusted, and
    /// a damaged or foreign file must fail, never mis-solve.
    fn saved(
        saved: SavedPlan,
        lower: CsrMatrix,
        base_perm: Permutation,
        settings: &Settings,
    ) -> Result<Parts, PlanError> {
        if saved.fingerprint != settings.fingerprint {
            return Err(PlanError::Cache(SerializeError::FingerprintMismatch {
                expected: settings.fingerprint,
                found: saved.fingerprint,
            }));
        }
        let n = lower.n_rows();
        if saved.schedule.n_vertices() != n {
            return Err(PlanError::Cache(SerializeError::Parse(format!(
                "plan file covers {} vertices, operand has {n} rows",
                saved.schedule.n_vertices()
            ))));
        }
        let (matrix, to_internal) = match &saved.reorder_perm {
            Some(perm) => {
                if perm.len() != n {
                    return Err(PlanError::Cache(SerializeError::Parse(format!(
                        "plan file reorder permutation covers {} vertices, operand has {n} rows",
                        perm.len()
                    ))));
                }
                let permuted = lower.symmetric_permute(perm).map_err(PlanError::Matrix)?;
                (permuted, perm.compose(&base_perm))
            }
            None => (lower, base_perm),
        };
        let final_dag = SolveDag::from_lower_triangular(&matrix);
        // The load-bearing safety check: any schedule that validates
        // against the operand's DAG solves it correctly, so a forged or
        // stale-but-well-formed file is either rejected here or harmless.
        saved.schedule.validate(&final_dag).map_err(PlanError::Schedule)?;
        let compiled = Arc::new(CompiledSchedule::from_schedule(&saved.schedule));
        // Replay the saved kernel verdict when the file carries one —
        // `from_verdict` re-validates every op against the compiled cells,
        // so a damaged section errors instead of mis-planning. Files
        // without the section re-detect at assembly.
        let kernel = match (&saved.kernel, settings.policy.fastmath) {
            (Some(ops), true) => {
                Some(Arc::new(KernelPlan::from_verdict(&matrix, &compiled, ops).map_err(|e| {
                    PlanError::Cache(SerializeError::Parse(format!("kernel section: {e}")))
                })?))
            }
            _ => None,
        };
        let sync_dag = match &saved.removed_sync_edges {
            // Reconstruct reduced = full − removed, after checking every
            // removed edge keeps a two-path witness in the full DAG (the
            // asynchronous executor's safety argument); a file that fails
            // the check errors out.
            Some(removed) if settings.waits_reduced() => Some(
                reconstruct_reduced_dag(&final_dag, removed)
                    .map_err(|e| PlanError::Cache(SerializeError::Parse(e)))?,
            ),
            _ => wait_dag(settings.model, settings.policy.sync, || final_dag),
        };
        Ok(Parts {
            matrix: Arc::new(matrix),
            to_internal,
            schedule: saved.schedule,
            compiled,
            reorder_perm: saved.reorder_perm,
            kernel,
            sync_dag,
        })
    }
}

impl SolvePlan {
    fn from_builder(builder: PlanBuilder<'_>) -> Result<SolvePlan, PlanError> {
        let mut spec: SchedulerSpec = builder.spec.parse()?;
        if let Some(model) = builder.execution {
            spec = spec.with_model(model);
        }
        // Every key is checked up front: a cache hit below skips the
        // scheduler build that would otherwise reject an unknown one.
        registry::validate(&spec)?;
        let model = registry::resolve_model(&spec)?;
        let policy = registry::resolve_exec_policy(&spec)?;
        // Core count: typed knob over spec `cores=` key over the default.
        // (`policy.cores` keeps the spec's value — the effective count is
        // `SolvePlan::compiled().n_cores()`.)
        let n_cores = builder.n_cores.or(policy.cores).unwrap_or(DEFAULT_PLAN_CORES);
        let runtime = match &builder.runtime {
            Some(rt) => RuntimeHandle::explicit(Arc::clone(rt)),
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

        // Orientation/pre-ordering are pure renumberings, so resolving the
        // spec against the oriented lower triangle is equivalent to
        // resolving against the input; self-sizing schedulers
        // (funnel-gl:cap=auto) see the DAG they will schedule. A stored
        // lower triangle in natural order needs neither, so it stays
        // borrowed: a memory hit on it never clones or re-validates the
        // matrix — the warm path a solver restarting on the same operand,
        // and every tuner candidate, takes.
        let renumbered = if builder.orientation == Orientation::Lower
            && builder.pre_order == PreOrder::Natural
        {
            None
        } else {
            let (lower, base_perm) = orient(builder.matrix, builder.orientation)?;
            Some(apply_pre_order(lower, base_perm, builder.pre_order))
        };
        let (owned, base_perm) = renumbered.unzip();
        let lower = owned.as_ref().unwrap_or(builder.matrix);
        let fingerprint = PlanFingerprint::compute(lower, &schedule_key);
        // Digest of the (pre-reorder) values: decides operand/kernel reuse
        // on a memory hit, and tags the entry this build publishes (lookups
        // always compare against the pre-reorder digest).
        let values_digest = value_digest(lower.values());
        let cache_dir = builder.plan_cache_dir.as_ref();
        let cached_path = cache_dir.map(|dir| plan_cache_path(dir, &fingerprint));
        let settings = Settings { model, policy, runtime, fingerprint, schedule_key };
        let waits_reduced = settings.waits_reduced();

        // 1. The in-process cache. An explicit `load_plan` file bypasses
        //    it: the caller asked for that file's contents, and loading
        //    must surface its errors. Vertex-count guard: a 128-bit
        //    collision or a corrupted entry must not reach the executor;
        //    treat it as a miss.
        let hit = match (&builder.memory_cache, &builder.load_plan) {
            (Some(cache), None) => cache
                .get(&fingerprint)
                .filter(|entry| entry.schedule.n_vertices() == lower.n_rows())
                .map(|entry| (cache, entry)),
            _ => None,
        };
        if let Some((cache, entry)) = hit {
            let same_values = values_digest == entry.values_digest;
            let base_perm = base_perm.unwrap_or_else(|| Permutation::identity(lower.n_rows()));
            let parts = Parts::cached(&entry, lower, base_perm, same_values, waits_reduced)?;
            let plan = Self::assemble(parts, settings, CacheOutcome::MemoryHit);
            // Publish improvements back: a value rebind or a newly derived
            // reduced wait DAG makes the entry more reusable.
            if !same_values || (waits_reduced && entry.reduced_sync_dag.is_none()) {
                cache.insert(fingerprint, Arc::new(plan.cache_entry(values_digest)));
            }
            return Ok(plan);
        }

        // Past the memory cache every path owns a validated operand.
        let (lower, base_perm) = match owned.zip(base_perm) {
            Some(renumbered) => renumbered,
            None => orient(builder.matrix, Orientation::Lower)?,
        };
        // 2. On-disk plans: an explicit `--load` file, or
        //    `DIR/<fingerprint>.plan` under the cache directory.
        // 3. Cold: run the full scheduling pipeline.
        let load_path = builder
            .load_plan
            .clone()
            .or_else(|| cached_path.as_ref().filter(|p| p.exists()).cloned());
        let (parts, outcome) = match load_path {
            Some(path) => {
                let saved = read_plan_file(&path)?;
                (Parts::saved(saved, lower, base_perm, &settings)?, CacheOutcome::DiskHit)
            }
            None => {
                let parts =
                    Parts::scheduled(lower, base_perm, &builder, &spec, n_cores, &settings)?;
                let cached = cache_dir.is_some() || builder.memory_cache.is_some();
                (parts, if cached { CacheOutcome::Miss } else { CacheOutcome::Uncached })
            }
        };
        let plan = Self::assemble(parts, settings, outcome);
        if let Some(cache) = &builder.memory_cache {
            cache.insert(fingerprint, Arc::new(plan.cache_entry(values_digest)));
        }
        // A cold build under a cache directory stores its plan there for
        // the next process.
        if let (Some(path), CacheOutcome::Miss) = (&cached_path, outcome) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(SerializeError::Io)?;
            }
            plan.save(path)?;
        }
        Ok(plan)
    }

    /// The one assembly point of every plan, whatever its source. Fills in
    /// what the source did not hand over — the kernel plan under
    /// `fastmath=on`, detected against the FINAL operand (the matrix the
    /// executor actually solves, after any reordering) so its row ranges
    /// line up with the compiled cells, and the wait DAG of asynchronous
    /// plans — then builds the executor.
    fn assemble(parts: Parts, settings: Settings, cache_outcome: CacheOutcome) -> SolvePlan {
        let Parts { matrix, to_internal, schedule, compiled, reorder_perm, kernel, sync_dag } =
            parts;
        let Settings { model, policy, runtime, fingerprint, schedule_key } = settings;
        debug_assert!(sync_dag.is_none() || model == ExecModel::Async);
        let kernel = policy
            .fastmath
            .then(|| kernel.unwrap_or_else(|| Arc::new(KernelPlan::detect(&matrix, &compiled))));
        let sync_dag = sync_dag
            .or_else(|| wait_dag(model, policy.sync, || SolveDag::from_lower_triangular(&matrix)));
        let executor = Executor::planned(
            Arc::clone(&matrix),
            Arc::clone(&compiled),
            kernel.clone(),
            model,
            policy,
            runtime.clone(),
            sync_dag.as_ref(),
        );
        SolvePlan {
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
            fingerprint,
            schedule_key,
            cache_outcome,
            runtime,
            executor,
        }
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
            reduced_sync_dag: self.reduced_sync_dag().cloned(),
        }
    }

    /// The wait DAG of an asynchronous plan under `sync=reduced`.
    fn reduced_sync_dag(&self) -> Option<&SolveDag> {
        self.sync_dag.as_ref().filter(|_| self.policy.sync == SyncPolicy::Reduced)
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

    /// The execution policy (the spec's `sync=`/`backoff=`/`cores=`/
    /// `fastmath=` keys) the plan runs under.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The synchronization DAG an asynchronous plan waits on (`None` for
    /// barrier/serial plans): the final operand's full DAG under
    /// `sync=full`, a sparsified one under `sync=reduced`.
    pub fn sync_dag(&self) -> Option<&SolveDag> {
        self.sync_dag.as_ref()
    }

    /// The executor `solve_into`/`solve_batch_in_place` run on; its
    /// `solve` and `solve_multi` take [`SolvePlan::internal_matrix`] and
    /// operands in internal numbering.
    pub fn executor(&self) -> &Executor {
        &self.executor
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
        self.executor.solve_user(&self.to_internal, user);
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

    /// Fresh batch buffers pre-sized for up to `max_r` fused right-hand
    /// sides (see [`SolvePlan::solve_batch_in_place`]).
    pub fn batch_workspace(&self, max_r: usize) -> BatchWorkspace {
        let n = self.matrix.n_rows();
        BatchWorkspace { px: Vec::with_capacity(n * max_r), columns: Vec::with_capacity(max_r) }
    }

    /// Solves every right-hand side in `rhs` as **one** multi-RHS solve,
    /// in place: on entry each `rhs[j]` is a full-length right-hand side in
    /// the user's numbering, on exit it holds the corresponding solution.
    /// The batch shares one core lease and one traversal of `L`; each row
    /// holds up to 8 of its values at a time in register accumulators.
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
        // Every row writes its internal values before any row reads them,
        // so the buffer only grows: shrinking it for a narrower batch would
        // make the next wider one zero-fill the difference.
        if workspace.px.len() < n * k {
            workspace.px.resize(n * k, 0.0);
        }
        let px = &mut workspace.px[..n * k];
        let user = UserOperands::in_place(rhs, px, &mut workspace.columns);
        self.executor.solve_user(&self.to_internal, user);
    }

    /// Simulates this plan's execution on a machine profile, under the
    /// plan's execution model and policy, reusing the plan's shared
    /// compiled layout, (for async plans) the executor's synchronization
    /// DAG and (under `fastmath=on`) the detected kernel plan — no per-call
    /// re-compilation, re-reduction or re-detection.
    pub fn simulate(&self, profile: &MachineProfile) -> SimReport {
        simulate_model(
            &self.matrix,
            &self.compiled,
            self.model,
            self.sync_dag.as_ref(),
            self.kernel.as_deref(),
            profile,
            self.policy,
        )
    }

    /// The warm-start fingerprint of this plan: a stable content hash over
    /// the operand's structure and the schedule-relevant build key.
    pub fn fingerprint(&self) -> PlanFingerprint {
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
    /// [`PlanBuilder::plan_cache`] directory to pick up later.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PlanError> {
        // Persist the derived artifacts too: the kernel verdict (replayed
        // on load instead of re-detecting) and, for reduced-sync async
        // plans, the edges the transitive reduction removed (so a warm
        // load reconstructs the reduced DAG without re-reducing).
        let removed_sync_edges = self.reduced_sync_dag().map(|reduced| {
            let full = SolveDag::from_lower_triangular(&self.matrix);
            removed_edges(&full, reduced)
        });
        let saved = SavedPlan {
            fingerprint: self.fingerprint,
            key: self.schedule_key.clone(),
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
        let mismatch = || PlanError::StructureMismatch {
            expected: (self.matrix.n_rows(), self.matrix.nnz()),
            found: (matrix.n_rows(), matrix.nnz()),
        };
        if matrix.n_rows() != self.matrix.n_rows() {
            return Err(mismatch());
        }
        let permuted = matrix.symmetric_permute(&self.to_internal).map_err(PlanError::Matrix)?;
        if permuted.row_ptr() != self.matrix.row_ptr()
            || permuted.col_idx() != self.matrix.col_idx()
        {
            return Err(mismatch());
        }
        // Structure matched, so triangularity is inherited — but the new
        // values must still carry a non-singular diagonal.
        check_diagonal(&permuted)?;
        let parts = Parts {
            matrix: Arc::new(permuted),
            to_internal: self.to_internal.clone(),
            schedule: self.schedule.clone(),
            compiled: Arc::clone(&self.compiled),
            reorder_perm: self.reorder_perm.clone(),
            // The kernel plan packs values (dense panels, diagonal
            // reciprocals), so it is the one artifact that must be
            // re-detected.
            kernel: None,
            sync_dag: self.sync_dag.clone(),
        };
        let settings = Settings {
            model: self.model,
            policy: self.policy,
            runtime: self.runtime.clone(),
            fingerprint: self.fingerprint,
            schedule_key: self.schedule_key.clone(),
        };
        Ok(Self::assemble(parts, settings, self.cache_outcome))
    }
}

/// The canonical location of a fingerprint's plan file under a cache
/// directory.
fn plan_cache_path(dir: &Path, fingerprint: &PlanFingerprint) -> PathBuf {
    dir.join(format!("{fingerprint}.plan"))
}

/// The wait DAG of a plan, from `full`, the final operand's solve DAG
/// (built only when needed): `None` unless `model` is asynchronous, `full`
/// itself under `sync=full`, and its approximate transitive reduction under
/// `sync=reduced`, which keeps reachability and so the executor's safety.
fn wait_dag(
    model: ExecModel,
    sync: SyncPolicy,
    full: impl FnOnce() -> SolveDag,
) -> Option<SolveDag> {
    (model == ExecModel::Async).then(|| match sync {
        SyncPolicy::Full => full(),
        SyncPolicy::Reduced => approximate_transitive_reduction(&full()),
    })
}

/// Re-checks the diagonal of new values on a structure validated before
/// (fingerprint-matched, or equal to a plan's): the diagonal is still the
/// last entry of every row, a structural fact, but it must be non-zero.
fn check_diagonal(lower: &CsrMatrix) -> Result<(), PlanError> {
    let (row_ptr, values) = (lower.row_ptr(), lower.values());
    match (0..lower.n_rows()).find(|&row| values[row_ptr[row + 1] - 1] == 0.0) {
        Some(row) => Err(PlanError::Matrix(SparseError::SingularDiagonal { row })),
        None => Ok(()),
    }
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
    use sptrsv_core::registry::Backoff;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::linalg::relative_residual;

    fn lower() -> CsrMatrix {
        grid2d_laplacian(12, 10, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap()
    }

    /// The default scheduler with the `fastmath=` policy key set.
    fn fastmath_spec(fastmath: bool) -> &'static str {
        if fastmath {
            "growlocal:fastmath=on"
        } else {
            "growlocal:fastmath=off"
        }
    }

    #[test]
    fn lower_plan_solves() {
        let l = lower();
        let n = l.n_rows();
        for reorder in [false, true] {
            let plan = PlanBuilder::new(&l)
                .scheduler("growlocal")
                .cores(3)
                .reorder(reorder)
                .build()
                .unwrap();
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
            PlanBuilder::new(&l).orientation(Orientation::Upper).cores(2).build(),
            Err(PlanError::Matrix(_))
        ));
        let u = l.transpose();
        assert!(matches!(
            PlanBuilder::new(&u).orientation(Orientation::Lower).cores(2).build(),
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
        // A later occurrence of a key overrides an earlier one.
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:sync=full,backoff=yield,sync=reduced,backoff=spin@async")
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
        // `grant=`, `elastic=` and `shrink=` are not policy keys, nor are
        // the serving keys `batch=` / `batch_wait_us=` (set on the server)
        // or `plan_cache=` (set with `PlanBuilder::plan_cache`): a spec
        // carrying one fails with a registry error naming the key, never a
        // plan that silently ignores it.
        let l = lower();
        for spec in [
            "growlocal:grant=fair",
            "growlocal:elastic=on",
            "growlocal:shrink=on@barrier",
            "growlocal:batch=8",
            "growlocal:batch_wait_us=0",
            "growlocal:plan_cache=/tmp/x",
        ] {
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
        // The spec key, and a later occurrence overriding it.
        let plan =
            PlanBuilder::new(&l).scheduler("growlocal:fastmath=on").cores(2).build().unwrap();
        assert!(plan.exec_policy().fastmath);
        let plan = PlanBuilder::new(&l)
            .scheduler("growlocal:fastmath=on,fastmath=off")
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
            let plan = PlanBuilder::new(&l)
                .scheduler(fastmath_spec(true))
                .cores(3)
                .execution(model)
                .build()
                .unwrap();
            assert!(plan.exec_policy().fastmath);
            let x = plan.solve(&b);
            let err = x.iter().zip(&reference).fold(0.0f64, |m, (a, e)| m.max((a - e).abs()));
            assert!(err / scale < 1e-12, "{model} fastmath deviated: rel {}", err / scale);
            assert!(relative_residual(&l, &x, &b) < 1e-12, "{model} fastmath residual");
        }
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
        let full = PlanBuilder::new(&l).scheduler("spmp:sync=full").cores(3).build().unwrap();
        let reduced = PlanBuilder::new(&l).scheduler("spmp:sync=reduced").cores(3).build().unwrap();
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
                        .scheduler(format!("growlocal:sync={sync},backoff={backoff}"))
                        .cores(3)
                        .execution(model)
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
                    .scheduler(format!("growlocal:backoff={backoff}"))
                    .cores(4)
                    .execution(model)
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
            let b: Vec<Vec<f64>> = (0..r)
                .map(|j| (0..n).map(|i| ((i * r + j) as f64 * 0.17).cos()).collect())
                .collect();
            let mut x = b.clone();
            plan.solve_batch_in_place(&mut x, &mut plan.batch_workspace(r));
            // Check each column against the single-RHS path.
            for (j, (bj, x)) in b.iter().zip(&x).enumerate() {
                let xj = plan.solve(bj);
                for i in 0..n {
                    assert!((x[i] - xj[i]).abs() < 1e-12, "{model} col {j} row {i}");
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
                    .scheduler(fastmath_spec(fastmath))
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

    #[test]
    fn plan_simulation_reuses_its_kernel_plan() {
        // A supernodal operand detects dense blocks, so the fastmath
        // discount is non-zero: the plan's own kernel plan must price it
        // exactly as a fresh detection over the plan's operand does.
        let l = sptrsv_sparse::gen::supernodal_spd(24, 8, 2, 0.5).lower_triangle().unwrap();
        let profile = MachineProfile::kunpeng_920_48();
        let bits = |r: &SimReport| {
            [
                r.cycles.to_bits(),
                r.compute_cycles.to_bits(),
                r.sync_cycles.to_bits(),
                r.cache_misses,
            ]
        };
        for model in [ExecModel::Serial, ExecModel::Barrier, ExecModel::Async] {
            for fastmath in [false, true] {
                let plan = PlanBuilder::new(&l)
                    .cores(4)
                    .execution(model)
                    .scheduler(fastmath_spec(fastmath))
                    .build()
                    .unwrap();
                assert_eq!(plan.kernel.as_ref().is_some_and(|k| !k.blocks().is_empty()), fastmath);
                let fresh = simulate_model(
                    &plan.matrix,
                    &plan.compiled,
                    plan.model,
                    plan.sync_dag.as_ref(),
                    None,
                    &profile,
                    plan.policy,
                );
                assert_eq!(bits(&plan.simulate(&profile)), bits(&fresh), "{model}, {fastmath}");
            }
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_cache_is_a_builder_setting() {
        let l = lower();
        let dir = temp_dir("sptrsv-plan-key-test");
        // The setter drives the disk cache; the policy struct is untouched
        // (the directory is a deployment path, not execution state).
        let plan = PlanBuilder::new(&l).plan_cache(&dir).cores(2).build().unwrap();
        assert_eq!(plan.exec_policy(), ExecPolicy::default());
        assert_ne!(plan.cache_outcome(), CacheOutcome::Uncached);
        // Without any cache configured: uncached, but still fingerprinted.
        let plain = PlanBuilder::new(&l).cores(2).build().unwrap();
        assert_eq!(plain.cache_outcome(), CacheOutcome::Uncached);
        assert_eq!(
            plain.fingerprint(),
            PlanBuilder::new(&l).cores(2).build().unwrap().fingerprint()
        );
        // The spec cannot name a directory: `plan_cache=` is a registry error.
        assert!(matches!(
            PlanBuilder::new(&l)
                .scheduler(format!("growlocal:plan_cache={}", dir.display()))
                .build(),
            Err(PlanError::Registry(RegistryError::UnknownParam { .. }))
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
        let path = dir.join(format!("{}.plan", cold.fingerprint()));
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
                    .scheduler(fastmath_spec(fastmath))
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
            let columns: Vec<Vec<f64>> = (0..16)
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
                            .scheduler(fastmath_spec(fastmath))
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
                        let mut batch_ws = plan.batch_workspace(16);
                        // Every register-block width, and wider batches
                        // split into blocks of 8.
                        for k in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
                            let mut batch = columns[..k].to_vec();
                            plan.solve_batch_in_place(&mut batch, &mut batch_ws);
                            for (j, single) in singles[..k].iter().enumerate() {
                                if fastmath {
                                    let db = scaled_deviation(&batch[j], single);
                                    assert!(db < 1e-12, "{config}: batch k={k} col {j}");
                                } else {
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
        // Empty, 1 × 1 and diagonal-only operands through `solve_into` and
        // `solve_batch_in_place`, under every spec the
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
                        let mut batch: Vec<Vec<f64>> = (0..k).map(column).collect();
                        plan.solve_batch_in_place(&mut batch, &mut ws);
                        for (j, x) in batch.iter().enumerate() {
                            close(x, &column(j), "solve_batch_in_place");
                        }
                    }
                }
            }
        }
    }
}
