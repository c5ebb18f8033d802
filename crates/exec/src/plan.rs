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
//! in-process [`PlanCache`](sptrsv_core::serialize::PlanCache), a plan
//! file, or [`SolvePlan::with_new_values`] on an existing plan — and every
//! source hands its artifacts to one assembly point, which derives whatever
//! the source lacks (kernel plan, wait DAG) and builds the executor. The
//! executor then holds the one copy of the operand, the compiled layout,
//! the kernel plan, the model, the policy and the runtime; the plan keeps
//! only what the executor has no use for.
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

mod build;
mod persist;
mod solve;

pub use build::PlanBuilder;
pub use solve::{BatchWorkspace, SolveWorkspace};

use crate::executor::Executor;
use crate::runtime::RuntimeHandle;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{ExecModel, ExecPolicy, RegistryError, SyncPolicy};
use sptrsv_core::serialize::{PlanFingerprint, SerializeError};
use sptrsv_core::{CompiledSchedule, Schedule};
use sptrsv_dag::SolveDag;
use sptrsv_sparse::{CsrMatrix, Permutation, SparseError};
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
    /// The in-process [`PlanCache`](sptrsv_core::serialize::PlanCache)
    /// supplied the plan — no scheduling, reordering, validation or
    /// compilation ran.
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

/// A planned, reusable parallel triangular solve: a thin shell over its
/// [`Executor`], which holds the one copy of the internal operand, the
/// compiled layout, the kernel plan, the model, the policy and the runtime.
/// The plan keeps what the executor has no use for.
pub struct SolvePlan {
    /// Permutation from user indices to internal indices.
    to_internal: Permutation,
    /// Whether `to_internal` moves anything, decided once at assembly:
    /// selects the user-numbered engine path over the identity one.
    permuted: bool,
    schedule: Schedule,
    /// Async plans keep the synchronization DAG built for the executor
    /// (reduced or full, per policy), so repeated [`SolvePlan::simulate`]
    /// calls, saves and value rebinds reuse it.
    sync_dag: Option<SolveDag>,
    /// The §5 reorder permutation alone (also folded into `to_internal`);
    /// kept so the plan can be saved to disk and re-applied to new values.
    reorder_perm: Option<Permutation>,
    /// Warm-start identity: the operand's structure plus `schedule_key`.
    fingerprint: PlanFingerprint,
    /// The schedule-relevant build key behind `fingerprint`.
    schedule_key: String,
    /// How the schedule was obtained (cache hit vs computed).
    cache_outcome: CacheOutcome,
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

/// How a plan's executor runs. A build resolves it from the spec and the
/// builder; a value rebind reads it back from the executor, which holds it
/// once the plan is assembled.
struct Run {
    model: ExecModel,
    policy: ExecPolicy,
    runtime: RuntimeHandle,
}

impl Run {
    /// Whether the plan waits on a reduced DAG (`sync=reduced` under the
    /// asynchronous model), the one wait DAG worth caching and saving.
    fn waits_reduced(&self) -> bool {
        self.model == ExecModel::Async && self.policy.sync == SyncPolicy::Reduced
    }
}

#[cfg(test)]
mod tests;
