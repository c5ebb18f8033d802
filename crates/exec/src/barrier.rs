//! Multi-threaded barrier executor.
//!
//! Runs a BSP schedule exactly as the paper's kernel does (§6.1): threads
//! processing their `(superstep, core)` cells in vertex order, with a
//! synchronization barrier between supersteps. The threads are **leased
//! per solve** from the executor's [`SolverRuntime`](crate::runtime::SolverRuntime) (the process-wide
//! core-leasing runtime, see [`crate::runtime`]): a lease of width `k`
//! runs a schedule compiled for `n ≥ k` cores by striding — lease thread
//! `t` executes schedule cores `t, t+k, t+2k, …` of each superstep — so
//! concurrent plans share the machine without oversubscription and a
//! contended solve degrades gracefully down to serial. The per-superstep
//! barrier is a [`SenseBarrier`](crate::runtime::SenseBarrier) over the
//! lease width, waiting under the executor's
//! [`Backoff`](sptrsv_core::registry::Backoff) policy.
//!
//! The lease is granted `min(cores, free)` threads and keeps that width
//! for the whole solve, so the safety argument below and the bit-identity
//! of results hold at every granted width.
//!
//! The execution plan is a [`CompiledSchedule`] — the flat CSR-style cell
//! layout compiled once at construction. Per solve, a thread's walk of its
//! cells is pure pointer arithmetic over two shared arrays; nothing is
//! allocated and no nested vectors are chased. The walk is the crate's one
//! superstep engine under its barrier strategy, shared with every executor.
//!
//! # Safety argument
//!
//! The solution vector is shared mutably across threads through a raw
//! pointer. This is sound because a valid schedule (Definition 2.1,
//! enforced here by a [`Schedule::validate`] call) guarantees:
//!
//! * each `x[v]` is written by exactly one thread (the one owning `v`'s
//!   schedule core — core-to-thread striding is a function, so one thread
//!   per vertex);
//! * a read of `x[u]` by another thread happens in a *later* superstep
//!   than the write, and the barrier between supersteps establishes the
//!   happens-before edge (the Release/Acquire pair of
//!   [`SenseBarrier::wait`](crate::runtime::SenseBarrier::wait));
//! * a read of `x[u]` by the same thread in the same superstep happens
//!   after the write in program order (a thread walks its schedule cores
//!   in ascending order and each cell in ascending vertex ID; Definition
//!   2.1 forbids cross-core edges within a superstep, so same-superstep
//!   dependencies are same-core, hence same-thread and program-ordered);
//! * the runtime's dispatch/retire protocol orders every worker access
//!   between the lease's publish and its completion wait, so nothing
//!   outlives the borrow of `x`.

use crate::engine::{Barrier, Engine, Identity, Many, One};
use crate::executor::{Executor, UserOperands};
use crate::runtime::RuntimeHandle;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{ExecModel, ExecPolicy};
use sptrsv_core::{CompiledSchedule, Schedule, ScheduleError};
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::sync::Arc;

/// Pre-planned executor: a reusable compiled schedule leasing cores from a
/// [`SolverRuntime`](crate::runtime::SolverRuntime) per solve (the
/// paper's amortization setting, §7.7,
/// without owning threads).
pub struct BarrierExecutor {
    engine: Engine,
}

impl BarrierExecutor {
    /// Builds the executor after validating the schedule against the DAG
    /// of the matrix; solves lease from the process-wide
    /// [`SolverRuntime::global`](crate::runtime::SolverRuntime::global)
    /// runtime.
    pub fn new(matrix: &CsrMatrix, schedule: &Schedule) -> Result<BarrierExecutor, ScheduleError> {
        let dag = sptrsv_dag::SolveDag::from_lower_triangular(matrix);
        schedule.validate(&dag)?;
        Ok(Self::from_compiled(
            Arc::new(CompiledSchedule::from_schedule(schedule)),
            None,
            RuntimeHandle::default(),
            ExecPolicy::default(),
        ))
    }

    /// Wraps an already-validated compiled schedule (shared with sibling
    /// executors by [`crate::plan::SolvePlan`]). Callers must have validated
    /// the source schedule against the matrix — the solve loop's safety rests
    /// on it, which is why this is crate-private. A fastmath `kernel` plan
    /// (detected from the same compiled schedule) replaces the exact scalar
    /// loop with the planned blocked/unrolled kernels.
    pub(crate) fn from_compiled(
        compiled: Arc<CompiledSchedule>,
        kernel: Option<Arc<KernelPlan>>,
        runtime: RuntimeHandle,
        policy: ExecPolicy,
    ) -> BarrierExecutor {
        BarrierExecutor { engine: Engine::new(compiled, kernel, Some(runtime), policy) }
    }

    /// The compiled execution plan.
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.engine.compiled
    }

    /// Solves `L x = b` following the schedule, on cores leased from the
    /// runtime.
    pub fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
        self.engine.solve(Barrier, l, Identity(b), x, One);
    }
}

impl Executor for BarrierExecutor {
    fn model(&self) -> ExecModel {
        ExecModel::Barrier
    }

    fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
        BarrierExecutor::solve(self, l, b, x);
    }

    fn solve_multi(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize) {
        self.engine.solve(Barrier, l, Identity(b), x, Many(r));
    }

    fn solve_user(&self, l: &CsrMatrix, to_internal: &Permutation, user: UserOperands<'_>) {
        self.engine.solve_user(Barrier, l, to_internal, user);
    }
}

/// One-shot convenience: validate, plan and solve in one call.
pub fn solve_with_barriers(
    l: &CsrMatrix,
    schedule: &Schedule,
    b: &[f64],
    x: &mut [f64],
) -> Result<(), ScheduleError> {
    let executor = BarrierExecutor::new(l, schedule)?;
    executor.solve(l, b, x);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SolverRuntime;
    use crate::serial::solve_lower_serial;
    use sptrsv_core::{registry, GrowLocal, Scheduler};
    use sptrsv_dag::SolveDag;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};

    fn problem(w: usize, h: usize) -> (CsrMatrix, Vec<f64>) {
        let a = grid2d_laplacian(w, h, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let b: Vec<f64> = (0..l.n_rows()).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
        (l, b)
    }

    #[test]
    fn all_registered_schedulers_match_serial() {
        let (l, b) = problem(17, 13);
        let dag = SolveDag::from_lower_triangular(&l);
        let n = l.n_rows();
        let mut expected = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut expected);
        for info in registry::list() {
            for k in [1, 2, 4] {
                let sched = registry::resolve(info.name, &dag, k).unwrap();
                let s = sched.schedule(&dag, k);
                let mut x = vec![0.0; n];
                solve_with_barriers(&l, &s, &b, &mut x).unwrap();
                for (i, (a, e)) in x.iter().zip(&expected).enumerate() {
                    assert!(
                        (a - e).abs() < 1e-12,
                        "{} on {k} cores differs at {i}: {a} vs {e}",
                        info.name
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_lease_widths_are_bit_identical_to_full_width() {
        // A schedule for 4 cores executed on runtimes of capacity 1, 2, 3
        // and 4: every lease width from serial to full must produce the
        // same bits.
        let (l, b) = problem(14, 11);
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&dag, 4);
        let compiled = Arc::new(CompiledSchedule::from_schedule(&s));
        let mut reference = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut reference);
        for capacity in 1..=4 {
            let runtime = Arc::new(SolverRuntime::new(capacity));
            let exec = BarrierExecutor::from_compiled(
                Arc::clone(&compiled),
                None,
                RuntimeHandle::explicit(runtime),
                ExecPolicy::default(),
            );
            let mut x = vec![f64::NAN; n];
            exec.solve(&l, &b, &mut x);
            assert_eq!(x, reference, "width {capacity} diverged");
        }
    }

    #[test]
    fn contended_solves_are_bit_identical_at_every_granted_width() {
        use crate::runtime::SolverRuntime;
        // A 4-core schedule on a capacity-4 runtime whose cores are partly
        // held by another lessee that releases them while the solve runs:
        // the solve keeps whatever width it was granted, and the bits
        // must match the serial reference either way.
        let (l, b) = problem(20, 16);
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&dag, 4);
        let compiled = Arc::new(CompiledSchedule::from_schedule(&s));
        let mut reference = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut reference);
        for round in 0..10 {
            let runtime = Arc::new(SolverRuntime::new(4));
            let blocker = runtime.lease(1 + round % 3);
            let exec = BarrierExecutor::from_compiled(
                Arc::clone(&compiled),
                None,
                RuntimeHandle::explicit(Arc::clone(&runtime)),
                ExecPolicy::default(),
            );
            let mut x = vec![f64::NAN; n];
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    std::thread::yield_now();
                    drop(blocker);
                });
                exec.solve(&l, &b, &mut x);
            });
            assert_eq!(x, reference, "contended solve diverged (round {round})");
            assert_eq!(runtime.cores_in_use(), 0, "contended solve leaked cores");
        }
    }

    #[test]
    fn invalid_schedule_rejected() {
        let (l, _) = problem(4, 4);
        // Everything in superstep 0 spread over 2 cores: cross-core edges
        // inside one superstep.
        let s = Schedule::new(2, (0..16).map(|v| v % 2).collect(), vec![0; 16]);
        assert!(BarrierExecutor::new(&l, &s).is_err());
    }

    #[test]
    fn executor_is_reusable() {
        let (l, b) = problem(10, 10);
        let dag = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&dag, 3);
        let exec = BarrierExecutor::new(&l, &s).unwrap();
        let mut x1 = vec![0.0; 100];
        let mut x2 = vec![1.0; 100]; // dirty start
        exec.solve(&l, &b, &mut x1);
        exec.solve(&l, &b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn compiled_plan_matches_nested_cells() {
        let (l, _) = problem(9, 9);
        let dag = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&dag, 3);
        let exec = BarrierExecutor::new(&l, &s).unwrap();
        assert_eq!(exec.compiled().to_cells(), s.cells());
    }

    #[test]
    fn parallel_multi_matches_serial_multi() {
        let (l, _) = problem(13, 9);
        let n = l.n_rows();
        let r = 4;
        let dag = SolveDag::from_lower_triangular(&l);
        let exec = BarrierExecutor::new(&l, &GrowLocal::new().schedule(&dag, 3)).unwrap();
        let b: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut expected = vec![0.0; n * r];
        crate::serial::solve_lower_multi_serial(&l, &b, &mut expected, r);
        let mut x = vec![0.0; n * r];
        Executor::solve_multi(&exec, &l, &b, &mut x, r);
        assert_eq!(x, expected);
    }

    #[test]
    fn trait_solve_multi_matches_single_rhs_columns() {
        let (l, b) = problem(11, 7);
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&dag, 3);
        let exec = BarrierExecutor::new(&l, &s).unwrap();
        let exec: &dyn Executor = &exec;
        assert_eq!(exec.model(), ExecModel::Barrier);
        let mut x = vec![0.0; n];
        exec.solve(&l, &b, &mut x);
        let bm: Vec<f64> = b.iter().flat_map(|&v| [v, 2.0 * v]).collect();
        let mut xm = vec![0.0; 2 * n];
        exec.solve_multi(&l, &bm, &mut xm, 2);
        for i in 0..n {
            assert_eq!(xm[2 * i], x[i]);
        }
    }
}
