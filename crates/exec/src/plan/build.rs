//! Building a plan: the [`PlanBuilder`], orientation and pre-ordering,
//! scheduling, the in-process cache lookup, and the one assembly point
//! every plan source ends in — a cold build, a cache or plan-file hit, and
//! [`SolvePlan::with_new_values`].

use super::persist::plan_cache_path;
use super::{CacheOutcome, Orientation, Parts, PlanError, PreOrder, Run, SolvePlan};
use crate::executor::{wait_dag, Executor};
use crate::runtime::{RuntimeHandle, SolverRuntime};
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{self, ExecModel, SchedulerSpec};
use sptrsv_core::serialize::{
    read_plan_file, value_digest, CachedPlan, PlanCache, PlanFingerprint, SerializeError,
};
use sptrsv_core::{
    auto_part_weight_cap, coarsen_and_schedule, reorder_for_locality, CompiledSchedule, Schedule,
    Scheduler,
};
use sptrsv_dag::coarsen::{FunnelDirection, FunnelOptions};
use sptrsv_dag::SolveDag;
use sptrsv_sparse::csr::Triangle;
use sptrsv_sparse::ordering::{min_degree_ordering, nested_dissection_ordering, rcm_ordering};
use sptrsv_sparse::{CsrMatrix, Permutation, SparseError};
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::Arc;

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

impl Parts {
    /// Cold: schedule the operand's DAG, apply the §5 reordering and
    /// validate the result against the final operand.
    fn scheduled(
        lower: CsrMatrix,
        base_perm: Permutation,
        builder: &PlanBuilder<'_>,
        spec: &SchedulerSpec,
        n_cores: usize,
        run: &Run,
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
            sync_dag: wait_dag(run.model, run.policy.sync, || final_dag),
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
        let run = Run { model, policy, runtime };
        let waits_reduced = run.waits_reduced();

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
            let plan =
                Self::assemble(parts, run, fingerprint, schedule_key, CacheOutcome::MemoryHit);
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
                (Parts::saved(saved, lower, base_perm, fingerprint, &run)?, CacheOutcome::DiskHit)
            }
            None => {
                let parts = Parts::scheduled(lower, base_perm, &builder, &spec, n_cores, &run)?;
                let cached = cache_dir.is_some() || builder.memory_cache.is_some();
                (parts, if cached { CacheOutcome::Miss } else { CacheOutcome::Uncached })
            }
        };
        let plan = Self::assemble(parts, run, fingerprint, schedule_key, outcome);
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
    /// plans — then moves the operand, layout, kernel plan and `run` into
    /// the executor, their one home.
    fn assemble(
        parts: Parts,
        run: Run,
        fingerprint: PlanFingerprint,
        schedule_key: String,
        cache_outcome: CacheOutcome,
    ) -> SolvePlan {
        let Parts { matrix, to_internal, schedule, compiled, reorder_perm, kernel, sync_dag } =
            parts;
        let Run { model, policy, runtime } = run;
        debug_assert!(sync_dag.is_none() || model == ExecModel::Async);
        let kernel = policy
            .fastmath
            .then(|| kernel.unwrap_or_else(|| Arc::new(KernelPlan::detect(&matrix, &compiled))));
        let sync_dag = sync_dag
            .or_else(|| wait_dag(model, policy.sync, || SolveDag::from_lower_triangular(&matrix)));
        let executor =
            Executor::planned(matrix, compiled, kernel, model, policy, runtime, sync_dag.as_ref());
        SolvePlan {
            permuted: !to_internal.is_identity(),
            to_internal,
            schedule,
            sync_dag,
            reorder_perm,
            fingerprint,
            schedule_key,
            cache_outcome,
            executor,
        }
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
        let current = self.internal_matrix();
        let mismatch = || PlanError::StructureMismatch {
            expected: (current.n_rows(), current.nnz()),
            found: (matrix.n_rows(), matrix.nnz()),
        };
        if matrix.n_rows() != current.n_rows() {
            return Err(mismatch());
        }
        let permuted = matrix.symmetric_permute(&self.to_internal).map_err(PlanError::Matrix)?;
        if permuted.row_ptr() != current.row_ptr() || permuted.col_idx() != current.col_idx() {
            return Err(mismatch());
        }
        // Structure matched, so triangularity is inherited — but the new
        // values must still carry a non-singular diagonal.
        check_diagonal(&permuted)?;
        let parts = Parts {
            matrix: Arc::new(permuted),
            to_internal: self.to_internal.clone(),
            schedule: self.schedule.clone(),
            compiled: Arc::clone(&self.executor.engine.compiled),
            reorder_perm: self.reorder_perm.clone(),
            // The kernel plan packs values (dense panels, diagonal
            // reciprocals), so it is the one artifact that must be
            // re-detected.
            kernel: None,
            sync_dag: self.sync_dag.clone(),
        };
        // The executor holds how the plan runs. A `@serial` executor keeps
        // no runtime, and its rebind needs none: it never leases.
        let run = Run {
            model: self.exec_model(),
            policy: self.exec_policy(),
            runtime: self.executor.engine.runtime().cloned().unwrap_or_default(),
        };
        let key = self.schedule_key.clone();
        Ok(Self::assemble(parts, run, self.fingerprint, key, self.cache_outcome))
    }
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
