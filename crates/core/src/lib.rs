//! Barrier schedulers for sparse triangular solves.
//!
//! This crate implements the paper's contribution and its baselines:
//!
//! * [`growlocal`] — the **GrowLocal** scheduler (§3): supersteps grown
//!   iteratively with the `α`-length / `β`-score mechanism, prioritizing
//!   core-exclusive vertices and then smallest IDs;
//! * [`funnel_gl`] — Funnel coarsening (§4) composed with GrowLocal;
//! * [`block`] — block-parallel scheduling of diagonal blocks (§3.1);
//! * [`reorder`] — the schedule-driven locality reordering (§5);
//! * [`wavefront`] — the classic wavefront (level-set) scheduler;
//! * [`hdagg`] — an HDagg-style scheduler \[ZCL+22\]: wavefront gluing under a
//!   balance constraint with connected-component assignment;
//! * [`spmp`] — an SpMP-style scheduler \[PSSD14\]: level scheduling after
//!   approximate transitive reduction, intended for asynchronous execution;
//! * [`bspg`] — a BSPg-style barrier list scheduler \[PAKY24\] (Appendix C.1).
//!
//! All schedulers implement the [`Scheduler`] trait and produce a
//! [`Schedule`] satisfying Definition 2.1, checked by
//! [`Schedule::validate`].
//!
//! Four cross-cutting modules tie the pipeline together:
//!
//! * [`registry`] — the scheduler registry: the [`registry::SchedulerSpec`]
//!   string grammar (`"growlocal:alpha=8"`) and [`registry::list`], the
//!   single source of truth for scheduler names, parameters and defaults
//!   that the CLI, benchmarks, examples and tests all resolve through;
//! * [`compiled`] — [`CompiledSchedule`], the flat CSR-style execution
//!   layout every executor consumes instead of re-materializing nested
//!   per-cell vectors;
//! * [`kernel`] — the kernel-planning pass over a compiled schedule:
//!   supernode/dense-block detection and the per-cell `Scalar` /
//!   `Unrolled` / `Dense` op plan the `fastmath=on` execution policy runs;
//! * [`serialize`] — warm starts: [`PlanFingerprint`] content hashing, the
//!   in-process [`PlanCache`] LRU, and the versioned on-disk plan format
//!   that lets a restarted process skip scheduling entirely.

#![warn(missing_docs)]

pub mod block;
pub mod bspg;
pub mod compiled;
pub mod funnel_gl;
pub mod growlocal;
pub mod hdagg;
pub mod kernel;
pub mod registry;
pub mod reorder;
pub mod schedule;
pub mod serialize;
pub mod spmp;
pub mod wavefront;

pub use block::BlockParallel;
pub use bspg::BspG;
pub use compiled::CompiledSchedule;
pub use funnel_gl::{auto_part_weight_cap, coarsen_and_schedule, FunnelGrowLocal};
pub use growlocal::{GrowLocal, GrowLocalParams, VertexPriority};
pub use hdagg::HDagg;
pub use kernel::{DenseBlock, KernelOp, KernelPlan, VerdictOp};
pub use registry::{
    Backoff, ExecModel, ExecPolicy, RegistryError, SchedulerInfo, SchedulerSpec, SyncPolicy,
};
pub use reorder::{reorder_for_locality, ReorderedProblem};
pub use schedule::{Schedule, ScheduleError, ScheduleStats};
pub use serialize::{
    read_plan, read_plan_file, read_schedule, read_schedule_file, value_digest, write_plan,
    write_plan_file, write_schedule, write_schedule_file, CachedPlan, FingerprintHasher, PlanCache,
    PlanFingerprint, SavedPlan, SerializeError,
};
pub use spmp::SpMp;
pub use wavefront::WavefrontScheduler;

use sptrsv_dag::SolveDag;

/// A DAG scheduler with barrier synchronization.
pub trait Scheduler {
    /// Short name for reports and benchmark tables.
    fn name(&self) -> &'static str;

    /// Produces a schedule of `dag` on `n_cores` cores.
    ///
    /// Implementations must return a schedule that passes
    /// [`Schedule::validate`] for any acyclic input whose natural vertex
    /// order is topological (true for all matrix-derived DAGs).
    fn schedule(&self, dag: &SolveDag, n_cores: usize) -> Schedule;
}
