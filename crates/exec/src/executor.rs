//! The [`Executor`]: one type over every execution model.
//!
//! A [`SolvePlan`](crate::plan::SolvePlan) compiles its schedule once and
//! then executes it under one of the registry's [`ExecModel`]s. The models
//! differ only in how the threads of the crate's one superstep engine
//! synchronize, so one executor holds the engine and a strategy:
//!
//! * `@barrier` — one barrier per superstep (the paper's kernel, §6.1);
//! * `@async` — per-row done flags, SpMP-style;
//! * `@serial` — the natural-order sweep of the exact kernels, ignoring the
//!   schedule (the natural order of a lower-triangular operand is always
//!   topological). Under `fastmath=on` it is instead the engine's
//!   schedule-order sweep without a runtime, through the planned kernels.
//!
//! The crate-private `barrier` and `async_exec` modules hold the two
//! threaded strategies, each with its safety argument.
//!
//! Every model computes each row's dot product in the same CSR column
//! order, so for the same operand and schedule all models produce
//! bit-identical solutions (pinned by the executor-agreement integration
//! test). The one exception is the `fastmath=on` execution policy, which
//! swaps the inner loop for the blocked/unrolled/reciprocal kernels of
//! [`crate::kernels`]: solutions then agree with the exact path to a
//! documented `1e-12` relative tolerance rather than bit-for-bit.
//!
//! A plan numbers its operand internally (orientation reversal,
//! pre-ordering, the §5 reorder). [`Executor::solve`] and
//! [`Executor::solve_multi`] work in that internal numbering; the plan's
//! own entry points solve in the user's numbering, each row kernel reading
//! and writing the caller's operands through the permutation directly — the
//! plan runs no gather or scatter pass of its own.

use crate::async_exec::Flags;
use crate::barrier::Barrier;
use crate::engine::{solve_width, Engine, Identity, NaturalSweep, Numbering, UserOperands};
use crate::runtime::RuntimeHandle;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{ExecModel, ExecPolicy};
use sptrsv_core::{CompiledSchedule, Schedule, ScheduleError};
use sptrsv_dag::SolveDag;
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::sync::Arc;

/// A reusable, schedule-driven triangular-solve executor: a compiled
/// schedule that leases cores from a
/// [`SolverRuntime`](crate::runtime::SolverRuntime) per solve (the paper's
/// amortization setting, §7.7, without owning threads).
///
/// The executor keeps the lower-triangular operand whose solve DAG its
/// schedule was validated against, and its solve methods take only that
/// operand (a plan's executor runs on
/// [`SolvePlan::internal_matrix`](crate::plan::SolvePlan::internal_matrix)).
pub struct Executor {
    model: ExecModel,
    /// The validated operand: the schedule orders exactly its
    /// dependencies, so a solve of another structure would race, and a
    /// fastmath kernel plan holds its values.
    operand: Arc<CsrMatrix>,
    pub(crate) engine: Engine,
    pub(crate) strategy: Strategy,
}

/// How an [`Executor`]'s solves traverse the rows.
pub(crate) enum Strategy {
    /// The engine under a barrier per superstep ([`crate::barrier`]); with
    /// no runtime, the schedule-order serial sweep of fastmath `@serial`.
    Barrier,
    /// The engine under per-row done flags ([`crate::async_exec`]).
    Flags(Flags),
    /// The natural-order serial sweep of the exact kernels.
    Natural,
}

impl Executor {
    /// Builds an executor for `model` after validating `schedule` against
    /// the solve DAG of `matrix`; an `@async` executor waits on that full
    /// DAG. Solves lease from the process-wide
    /// [`SolverRuntime::global`](crate::runtime::SolverRuntime::global)
    /// runtime, under the default execution policy.
    pub fn new(
        matrix: &CsrMatrix,
        schedule: &Schedule,
        model: ExecModel,
    ) -> Result<Executor, ScheduleError> {
        let dag = SolveDag::from_lower_triangular(matrix);
        schedule.validate(&dag)?;
        let (operand, compiled) =
            (Arc::new(matrix.clone()), Arc::new(CompiledSchedule::from_schedule(schedule)));
        let (policy, runtime) = (ExecPolicy::default(), RuntimeHandle::default());
        Ok(Executor::planned(operand, compiled, None, model, policy, runtime, Some(&dag)))
    }

    /// An executor over a compiled schedule already validated against
    /// `operand`. The solve loop's safety rests on that validation and, for
    /// `@async`, on `waits` having the reachability of the operand's solve
    /// DAG, which is why this is crate-private. A fastmath `kernel` plan
    /// (detected from the same compiled schedule) replaces the exact loops
    /// with the planned kernels.
    ///
    /// # Panics
    /// Panics if `model` is `@async` and `waits` is `None`.
    pub(crate) fn planned(
        operand: Arc<CsrMatrix>,
        compiled: Arc<CompiledSchedule>,
        kernel: Option<Arc<KernelPlan>>,
        model: ExecModel,
        policy: ExecPolicy,
        runtime: RuntimeHandle,
        waits: Option<&SolveDag>,
    ) -> Executor {
        let (strategy, runtime) = match model {
            ExecModel::Barrier => (Strategy::Barrier, Some(runtime)),
            ExecModel::Async => {
                let waits = waits.expect("async executors carry a wait DAG");
                (Strategy::Flags(Flags::new(&compiled, waits, policy.backoff)), Some(runtime))
            }
            ExecModel::Serial if kernel.is_some() => (Strategy::Barrier, None),
            ExecModel::Serial => (Strategy::Natural, None),
        };
        let engine = Engine::new(compiled, kernel, runtime, policy);
        Executor { model, operand, engine, strategy }
    }

    /// The execution model this executor implements.
    pub fn model(&self) -> ExecModel {
        self.model
    }

    /// Solves `L x = b` for one right-hand side, in internal numbering.
    ///
    /// # Panics
    /// Panics if `l` is not the operand the executor was built for, or on
    /// wrong lengths.
    pub fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
        self.solve_multi(l, b, x, 1);
    }

    /// Solves `L X = B` for `r` right-hand sides (row-major `n × r`), in
    /// internal numbering.
    ///
    /// # Panics
    /// As [`Executor::solve`].
    pub fn solve_multi(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize) {
        assert!(
            std::ptr::eq(l, &*self.operand) || *l == *self.operand,
            "operand differs from the one the schedule was validated against"
        );
        self.run(l, Identity(b), x, r);
    }

    /// Solves the executor's own operand in the user's numbering:
    /// `to_internal` maps user indices to its internal rows, and `user`
    /// carries the caller's right-hand sides and solution buffers plus the
    /// internal-order solution the kernels read back.
    pub(crate) fn solve_user(&self, to_internal: &Permutation, mut user: UserOperands<'_>) {
        let (num, x) = user.numbered(to_internal);
        self.run(&self.operand, num, x, num.width());
    }

    /// The one solve: picks the strategy once, then the RHS shape.
    fn run<N: Numbering>(&self, l: &CsrMatrix, num: N, x: &mut [f64], r: usize) {
        match &self.strategy {
            Strategy::Barrier => solve_width((&self.engine, Barrier), l, num, x, r),
            Strategy::Flags(flags) => {
                let (_turn, flags) = flags.begin();
                solve_width((&self.engine, flags), l, num, x, r);
            }
            Strategy::Natural => solve_width(NaturalSweep, l, num, x, r),
        }
    }
}

/// One-shot convenience: validate, plan and solve in one call under the
/// barrier model.
pub fn solve_with_barriers(
    l: &CsrMatrix,
    schedule: &Schedule,
    b: &[f64],
    x: &mut [f64],
) -> Result<(), ScheduleError> {
    Executor::new(l, schedule, ExecModel::Barrier)?.solve(l, b, x);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::solve_lower_serial;
    use sptrsv_core::{Scheduler, SpMp};
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};

    #[test]
    fn async_executor_new_waits_on_the_full_dag() {
        // The public constructor derives its own wait DAG, so an `@async`
        // solve into a NaN-filled `x` reproduces the serial bits at every
        // schedule width.
        let l = grid2d_laplacian(60, 60, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
        let mut expected = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut expected);
        for cores in [2, 4] {
            let exec = Executor::new(&l, &SpMp.schedule(&dag, cores), ExecModel::Async).unwrap();
            assert_eq!(exec.model(), ExecModel::Async);
            for _ in 0..20 {
                let mut x = vec![f64::NAN; n];
                exec.solve(&l, &b, &mut x);
                assert_eq!(x, expected, "{cores} cores");
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand differs")]
    fn solving_another_structure_panics() {
        // Every row in superstep 0, striped over 2 cores: valid for the
        // diagonal, a race on a bidiagonal operand.
        let n = 64;
        let schedule = Schedule::new(2, (0..n).map(|v| v % 2).collect(), vec![0; n]);
        let exec = Executor::new(&CsrMatrix::identity(n), &schedule, ExecModel::Barrier).unwrap();
        let l = grid2d_laplacian(n, 1, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        exec.solve(&l, &vec![1.0; n], &mut vec![0.0; n]);
    }

    #[test]
    fn every_model_solves_through_new() {
        let l = grid2d_laplacian(9, 7, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 3);
        let b: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut expected = vec![0.0; 2 * n];
        crate::serial::solve_lower_multi_serial(&l, &b, &mut expected, 2);
        for model in [ExecModel::Barrier, ExecModel::Async, ExecModel::Serial] {
            let exec = Executor::new(&l, &schedule, model).unwrap();
            assert_eq!(exec.model(), model);
            let mut x = vec![f64::NAN; 2 * n];
            exec.solve_multi(&l, &b, &mut x, 2);
            assert_eq!(x, expected, "{model}");
        }
    }
}
