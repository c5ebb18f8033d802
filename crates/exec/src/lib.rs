//! Execution of SpTRSV schedules.
//!
//! * [`executor`] — the one [`Executor`] type over every execution model
//!   ([`ExecModel`]): a compiled schedule plus how its threads synchronize —
//!   one barrier per superstep (the paper's execution model, §6.1;
//!   `@barrier`), SpMP-style per-row done flags (`@async`) or none
//!   (`@serial`) — single- and multi-RHS (SpTRSM), dispatched by
//!   [`SolvePlan`];
//! * [`serial`] — the reference forward/backward substitution kernels
//!   (single- and multi-RHS);
//! * `engine`, `barrier` and `async_exec` (crate-private) — the one
//!   superstep loop behind every executor: length checks, the serial sweep,
//!   the lease decision, thread striding and the single cell dispatch,
//!   monomorphised over the sync strategy (the barrier, or the done flags;
//!   each strategy's module holds its safety argument), the RHS shape (one
//!   or `r` right-hand sides) and the numbering (internal, or the plan's
//!   user↔internal permutation fused into the row kernels);
//! * [`kernels`] — the row/block kernels the engine's cell dispatch runs:
//!   the exact scalar kernels (bit-identical `fastmath=off` path) and the
//!   blocked/unrolled fastmath kernels that execute a detected
//!   [`KernelPlan`](sptrsv_core::kernel::KernelPlan) under the
//!   `fastmath=on` execution policy;
//! * [`runtime`] — the process-wide [`SolverRuntime`]: one shared,
//!   hardware-sized pool of persistent workers from which every solve
//!   leases cores ([`CoreLease`]), so concurrent plans coexist without
//!   oversubscription, degrade gracefully under contention (down to
//!   serial) and release deterministically on panic;
//! * [`plan`] — the high-level [`PlanBuilder`]/[`SolvePlan`] API: matrix →
//!   validated, pre-ordered, scheduled (via registry spec), reordered,
//!   compiled, reusable parallel solve (lower or upper) under a selectable
//!   execution model, [`ExecPolicy`] (the `sync=`/`backoff=`/`cores=`/
//!   `fastmath=` spec keys) and runtime ([`PlanBuilder::runtime`]), with an
//!   allocation-free [`SolvePlan::solve_into`] steady-state path and a
//!   borrowed-RHS [`SolvePlan::solve_batch_in_place`] entry point the
//!   `sptrsv-serve` combiner fuses queued requests through;
//! * [`sim`] — a calibrated multicore machine model used for the paper's
//!   speed-up experiments: it charges compute, cache misses, memory
//!   bandwidth and synchronization costs against the schedule structure
//!   (wall-clock speed-ups are measured by the drift-bench package under
//!   `benchmark/`);
//! * [`verify`] — helpers to check any executor against the serial kernel.
//!
//! # Examples
//!
//! The common path: build a plan, solve on cores leased per solve from the
//! process-wide, hardware-sized [`SolverRuntime::global`] runtime (no
//! explicit runtime handling needed):
//!
//! ```
//! use sptrsv_exec::PlanBuilder;
//! use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
//!
//! let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
//! let plan = PlanBuilder::new(&l)
//!     .scheduler("growlocal:alpha=8@barrier") // any registry spec
//!     .cores(4)
//!     .build()?;
//! let b = vec![1.0; l.n_rows()];
//! let mut x = vec![0.0; l.n_rows()];
//! let mut ws = plan.workspace();
//! plan.solve_into(&b, &mut x, &mut ws); // leases from the global runtime
//! assert!(sptrsv_sparse::linalg::relative_residual(&l, &x, &b) < 1e-12);
//! # Ok::<(), sptrsv_exec::PlanError>(())
//! ```

#![warn(missing_docs)]

mod async_exec;
mod barrier;
mod engine;
pub mod executor;
pub mod kernels;
pub mod plan;
pub mod runtime;
pub mod serial;
pub mod sim;
pub mod verify;

pub use executor::{solve_with_barriers, Executor};
pub use kernels::solve_lower_serial_fast;
pub use plan::{
    BatchWorkspace, CacheOutcome, Orientation, PlanBuilder, PlanError, PreOrder, SolvePlan,
    SolveWorkspace,
};
pub use runtime::{CoreLease, SenseBarrier, SolverRuntime};
pub use serial::{solve_lower_multi_serial, solve_lower_serial, solve_upper_serial};
pub use sim::{
    simulate_async, simulate_barrier, simulate_model, simulate_serial, MachineProfile, SimReport,
};
pub use sptrsv_core::registry::{Backoff, ExecModel, ExecPolicy, SyncPolicy};
pub use sptrsv_core::serialize::{PlanCache, PlanFingerprint};
pub use verify::{backward_error, max_abs_diff, BACKWARD_ERROR_TOL};
