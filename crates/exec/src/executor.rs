//! The [`Executor`] trait: one interface over every execution model.
//!
//! A [`SolvePlan`](crate::plan::SolvePlan) compiles its schedule once and
//! then executes it under one of the registry's [`ExecModel`]s — barrier
//! BSP ([`crate::barrier::BarrierExecutor`]), point-to-point asynchronous
//! ([`crate::async_exec::AsyncExecutor`]) or serial
//! ([`crate::serial::SerialExecutor`]). All three implement this trait, so
//! `solve_into`/`solve_batch_in_place` dispatch through
//! [`SolvePlan::executor()`](crate::plan::SolvePlan::executor) instead of
//! hardcoding a concrete executor per call site, and the execution model is
//! selectable per plan (builder knob or spec `@model` suffix).
//!
//! Implementations must be numerically exchangeable: every executor
//! computes each row's dot product in the same CSR column order, so for the
//! same operand and schedule all models produce bit-identical solutions
//! (pinned by the executor-agreement integration test). The one exception
//! is the `fastmath=on` execution policy, which swaps every executor's
//! inner loop for the blocked/unrolled/reciprocal kernels of
//! [`crate::kernels`]: solutions then agree with the exact path to a
//! documented `1e-12` relative tolerance rather than bit-for-bit.
//!
//! A plan numbers its operand internally (orientation reversal,
//! pre-ordering, the §5 reorder). [`Executor::solve`] and
//! [`Executor::solve_multi`] work in that internal numbering;
//! [`Executor::solve_user`] takes the plan's permutation and the caller's
//! operands in the user's numbering, and each row kernel reads and writes
//! them through the permutation directly — the plan runs no gather or
//! scatter pass of its own.

pub use crate::engine::UserOperands;
use sptrsv_core::registry::ExecModel;
use sptrsv_sparse::{CsrMatrix, Permutation};

/// A reusable, schedule-driven triangular-solve execution engine.
///
/// Contract: the operand passed to the solve methods must be the
/// lower-triangular matrix whose solve DAG the executor's schedule was
/// validated against (the plan layer guarantees this; the concrete
/// constructors validate).
pub trait Executor: Send + Sync {
    /// The execution model this engine implements.
    fn model(&self) -> ExecModel;

    /// Solves `L x = b` for one right-hand side.
    fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]);

    /// Solves `L X = B` for `r` right-hand sides (row-major `n × r`).
    fn solve_multi(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize);

    /// Solves in the user's numbering: `to_internal` maps user indices to
    /// the internal rows of `l`, and `user` carries the caller's right-hand
    /// sides and solution buffers plus the internal-order solution the
    /// kernels read back. Every row reads its right-hand side and stores
    /// its solution through the permutation itself.
    fn solve_user(&self, l: &CsrMatrix, to_internal: &Permutation, user: UserOperands<'_>);
}
