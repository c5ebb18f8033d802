//! Asynchronous (point-to-point synchronized) executor, SpMP-style.
//!
//! Instead of a global barrier per superstep, every thread walks its own
//! cells in schedule order and waits on per-vertex *done* flags of
//! the parents it needs — exactly SpMP's "move on as soon as your inputs are
//! ready" execution \[PSSD14\]. The synchronization DAG may be the transitive
//! reduction of the solve DAG
//! ([`sptrsv_dag::transitive::approximate_transitive_reduction`], the
//! planner's `sync=reduced` policy): waiting on fewer edges is the second
//! half of SpMP's trick. The wait loop itself runs under the executor's
//! [`Backoff`](sptrsv_core::registry::Backoff) policy (`spin` or `yield`,
//! the §8 backoff exploration).
//!
//! Threads are **leased per solve** from the executor's
//! [`SolverRuntime`](crate::runtime::SolverRuntime): a lease of width `k`
//! runs a schedule compiled for `n ≥ k` cores by striding (lease thread
//! `t` owns schedule cores `t, t+k, …`), so concurrent plans share the
//! machine and a contended solve degrades gracefully down to serial. Like
//! its siblings, the executor runs the crate's one superstep engine over
//! the shared [`CompiledSchedule`] layout; only the synchronization (the
//! engine's done-flag strategy) differs from [`crate::barrier`].
//!
//! The done flags are a **generation-counted array owned by the executor**
//! (`done[v] == generation` means "v is solved in the current solve"), so
//! steady-state solves allocate nothing — bumping the generation resets
//! every flag at once, and the array is only zeroed on the (once per 2³²
//! solves) wrap-around. A mutex around the generation state serializes
//! concurrent solves on one shared executor, which the per-executor pool's
//! run lock previously did implicitly.
//!
//! # Safety argument
//!
//! `x[v]` (all `r` values of row `v` in the multi-RHS case) is written
//! once, by its owning thread, before `done[v]` is set to the solve's
//! generation with `Release`. Any other thread reads row `v` only after
//! observing `done[v] == generation` with `Acquire`, which orders the
//! reads after the writes. Same-thread dependencies are covered by program
//! order: a thread walks its schedule cores in ascending order within each
//! superstep and supersteps in ascending order, and a same-superstep
//! dependency is necessarily same-core (Definition 2.1), hence
//! same-thread. A vertex never waits on itself because the sync DAG has no
//! self-loops, and never deadlocks on its own thread: a cross-core parent
//! on the same thread lies in an earlier superstep, which the thread has
//! already finished. Stale flag values from earlier solves are never
//! mistaken for completion because they compare unequal to the current
//! generation (the array is zeroed before the generation counter wraps).
//! Running on leased threads changes none of this: the runtime's
//! dispatch/retire protocol brackets all worker accesses between the
//! lease's publish and completion wait, and the generation mutex is held
//! for the whole solve, so no state is shared between solves.

use crate::engine::{solve_width, Engine, Flags, Identity, One};
use crate::executor::{Executor, UserOperands};
use crate::runtime::RuntimeHandle;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{ExecModel, ExecPolicy};
use sptrsv_core::{CompiledSchedule, Schedule, ScheduleError};
use sptrsv_dag::SolveDag;
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::sync::Arc;

/// Pre-planned asynchronous executor.
pub struct AsyncExecutor {
    /// The compiled cells, kernel plan and runtime. The policy's backoff
    /// drives the done-flag spins.
    engine: Engine,
    /// Cross-core wait lists and the generation-counted done flags (see
    /// the module docs).
    flags: Flags,
}

impl AsyncExecutor {
    /// Builds the executor. `sync_dag` is the dependency graph to wait on —
    /// pass the solve DAG itself, or its transitive reduction for
    /// SpMP-style sparsified synchronization (reachability, and hence
    /// correctness, is identical). Solves lease from the process-wide
    /// [`SolverRuntime::global`](crate::runtime::SolverRuntime::global)
    /// runtime.
    pub fn new(
        matrix: &CsrMatrix,
        schedule: &Schedule,
        sync_dag: &SolveDag,
    ) -> Result<AsyncExecutor, ScheduleError> {
        let full_dag = SolveDag::from_lower_triangular(matrix);
        schedule.validate(&full_dag)?;
        let compiled = Arc::new(CompiledSchedule::from_schedule(schedule));
        let (runtime, policy) = (RuntimeHandle::default(), ExecPolicy::default());
        Ok(Self::from_compiled(compiled, None, sync_dag, runtime, policy))
    }

    /// Wraps an already-validated compiled schedule (shared with sibling
    /// executors by [`crate::plan::SolvePlan`]) and its optional fastmath
    /// kernel plan; crate-private for the same reason as
    /// [`crate::barrier::BarrierExecutor::from_compiled`].
    pub(crate) fn from_compiled(
        compiled: Arc<CompiledSchedule>,
        kernel: Option<Arc<KernelPlan>>,
        sync_dag: &SolveDag,
        runtime: RuntimeHandle,
        policy: ExecPolicy,
    ) -> AsyncExecutor {
        let flags = Flags::new(&compiled, sync_dag, policy.backoff);
        AsyncExecutor { engine: Engine::new(compiled, kernel, Some(runtime), policy), flags }
    }

    /// Solves `L x = b` with point-to-point synchronization.
    pub fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
        let (_turn, flags) = self.flags.begin();
        self.engine.solve(flags, l, Identity(b), x, One);
    }

    /// Solves `L X = B` (`r` right-hand sides, row-major) with point-to-point
    /// synchronization: one *done* flag per row, set after all `r` values.
    pub fn solve_multi(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize) {
        let (_turn, flags) = self.flags.begin();
        solve_width((&self.engine, flags), l, Identity(b), x, r);
    }
}

impl Executor for AsyncExecutor {
    fn model(&self) -> ExecModel {
        ExecModel::Async
    }

    fn solve(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
        AsyncExecutor::solve(self, l, b, x);
    }

    fn solve_multi(&self, l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize) {
        AsyncExecutor::solve_multi(self, l, b, x, r);
    }

    fn solve_user(&self, l: &CsrMatrix, to_internal: &Permutation, user: UserOperands<'_>) {
        let (_turn, flags) = self.flags.begin();
        self.engine.solve_user(flags, l, to_internal, user);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DoneFlags;
    use crate::runtime::SolverRuntime;
    use crate::serial::{solve_lower_multi_serial, solve_lower_serial};
    use sptrsv_core::{Scheduler, SpMp};
    use sptrsv_dag::transitive::approximate_transitive_reduction;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use std::sync::atomic::Ordering;

    #[test]
    fn async_matches_serial_with_reduced_sync_dag() {
        let a = grid2d_laplacian(15, 11, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 4);
        let reduced = approximate_transitive_reduction(&dag);
        let exec = AsyncExecutor::new(&l, &schedule, &reduced).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut expected = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut expected);
        let mut x = vec![0.0; n];
        exec.solve(&l, &b, &mut x);
        for (a, e) in x.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn generation_flags_stay_correct_across_many_solves() {
        // The executor-owned flag array must never leak "done" state from
        // one solve into the next: interleave two different right-hand
        // sides and check both stay bit-stable.
        let a = grid2d_laplacian(12, 9, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 3);
        let reduced = approximate_transitive_reduction(&dag);
        let exec = AsyncExecutor::new(&l, &schedule, &reduced).unwrap();
        let b1: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let b2: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        let mut r1 = vec![0.0; n];
        let mut r2 = vec![0.0; n];
        exec.solve(&l, &b1, &mut r1);
        exec.solve(&l, &b2, &mut r2);
        let mut x = vec![0.0; n];
        for round in 0..30 {
            x.fill(f64::NAN);
            exec.solve(&l, &b1, &mut x);
            assert_eq!(x, r1, "b1 diverged at round {round}");
            x.fill(f64::NAN);
            exec.solve(&l, &b2, &mut x);
            assert_eq!(x, r2, "b2 diverged at round {round}");
        }
    }

    #[test]
    fn generation_wrap_resets_the_flags() {
        let mut flags = DoneFlags::new(4);
        *flags.generation.get_mut().unwrap() = u32::MAX - 1;
        for flag in &mut flags.flags {
            *flag.get_mut() = u32::MAX - 1;
        }
        assert_eq!(*flags.begin_solve(), u32::MAX);
        // The wrap: generation restarts at 1 and every stale flag is
        // zeroed, so nothing compares equal to the new generation.
        assert_eq!(*flags.begin_solve(), 1);
        for flag in &flags.flags {
            assert_eq!(flag.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn degraded_lease_widths_match_full_width() {
        let a = grid2d_laplacian(13, 8, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 4);
        let reduced = approximate_transitive_reduction(&dag);
        let compiled = Arc::new(CompiledSchedule::from_schedule(&schedule));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() + 0.25).collect();
        let mut expected = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut expected);
        for capacity in 1..=4 {
            let runtime = Arc::new(SolverRuntime::new(capacity));
            let exec = AsyncExecutor::from_compiled(
                Arc::clone(&compiled),
                None,
                &reduced,
                RuntimeHandle::explicit(runtime),
                ExecPolicy::default(),
            );
            let mut x = vec![f64::NAN; n];
            exec.solve(&l, &b, &mut x);
            assert_eq!(x, expected, "width {capacity} diverged");
        }
    }

    #[test]
    fn async_multi_rhs_matches_serial_multi() {
        let a = grid2d_laplacian(12, 10, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let n = l.n_rows();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 4);
        let reduced = approximate_transitive_reduction(&dag);
        let exec = AsyncExecutor::new(&l, &schedule, &reduced).unwrap();
        for r in [3, 10] {
            let b: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.23).sin() + 0.5).collect();
            let mut expected = vec![0.0; n * r];
            solve_lower_multi_serial(&l, &b, &mut expected, r);
            let mut x = vec![0.0; n * r];
            exec.solve_multi(&l, &b, &mut x, r);
            assert_eq!(x, expected, "r={r}");
        }
    }

    #[test]
    fn wait_lists_only_cross_core() {
        let a = grid2d_laplacian(8, 8, Stencil2D::FivePoint, 0.5);
        let l = a.lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 2);
        let exec = AsyncExecutor::new(&l, &schedule, &dag).unwrap();
        for (v, waits) in exec.flags.waits.iter().enumerate() {
            for &u in waits {
                assert_ne!(schedule.core_of(u as usize), schedule.core_of(v));
            }
        }
    }
}
