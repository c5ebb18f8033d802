//! The done-flag strategy: point-to-point synchronization, SpMP-style.
//!
//! Instead of a global barrier per superstep, every thread walks its own
//! cells in schedule order and waits on per-vertex *done* flags of
//! the parents it needs — exactly SpMP's "move on as soon as your inputs are
//! ready" execution \[PSSD14\]. The wait DAG is the solve DAG itself or,
//! under a plan's `sync=reduced` policy, its approximate transitive
//! reduction ([`sptrsv_dag::transitive::approximate_transitive_reduction`]):
//! waiting on fewer edges is the second half of SpMP's trick. Only the
//! crate picks the wait DAG — [`Executor::new`](crate::Executor::new)
//! waits on the full solve DAG it validated the schedule against, and a
//! reduction comes only from the plan layer, which derives it or checks a
//! saved one against its two-path witnesses. The wait loop itself runs
//! under the executor's [`Backoff`](sptrsv_core::registry::Backoff)
//! policy (`spin` or `yield`, the §8 backoff exploration).
//!
//! Threads are leased per solve and stride the schedule's cores exactly
//! as under the [barrier strategy](crate::barrier); only the
//! synchronization differs.
//!
//! The done flags are a **generation-counted array owned by the executor**
//! (`done[v] == generation` means "v is solved in the current solve"), so
//! steady-state solves allocate nothing — bumping the generation resets
//! every flag at once, and the array is only zeroed on the (once per 2³²
//! solves) wrap-around. A mutex around the generation state serializes
//! concurrent solves on one shared executor.
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

use crate::engine::{Engine, Hooks, StepFn};
use crate::runtime::{backoff_wait, CoreLease};
use sptrsv_core::registry::Backoff;
use sptrsv_core::CompiledSchedule;
use sptrsv_dag::SolveDag;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The executor-owned done-flag array: `flags[v] == generation` marks `v`
/// solved in the current solve. Reused across solves (allocation-free
/// steady state); the generation's mutex also serializes concurrent
/// solves on one shared executor.
struct DoneFlags {
    flags: Vec<AtomicU32>,
    generation: Mutex<u32>,
}

impl DoneFlags {
    fn new(n: usize) -> DoneFlags {
        DoneFlags { flags: (0..n).map(|_| AtomicU32::new(0)).collect(), generation: Mutex::new(0) }
    }

    /// Starts a new solve: bumps the generation so every flag reads
    /// "not done", zeroing the array only when the counter wraps. The
    /// returned guard holds the new generation for the whole solve; the
    /// lease's dispatch publishes the zeroing to the solve's threads.
    fn begin_solve(&self) -> MutexGuard<'_, u32> {
        let mut generation =
            self.generation.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        if *generation == 0 {
            for flag in &self.flags {
                flag.store(0, Ordering::Relaxed);
            }
            *generation = 1;
        }
        generation
    }
}

/// Point-to-point synchronization through per-row done flags.
pub(crate) struct Flags {
    /// For every vertex, the parents on *other* schedule cores that must
    /// be awaited (same-core dependencies are ordered by the cell walk).
    waits: Vec<Vec<u32>>,
    done: DoneFlags,
    backoff: Backoff,
    /// Raised by a panicking thread so siblings spinning on its flags
    /// unwind too (the runtime re-raises on the leaseholder).
    abort: AtomicBool,
}

impl Flags {
    /// Wait lists of `compiled` against `sync_dag` (the solve DAG or a
    /// reduction with the same reachability); waits spin under `backoff`.
    pub(crate) fn new(compiled: &CompiledSchedule, sync_dag: &SolveDag, backoff: Backoff) -> Flags {
        let n = compiled.n_vertices();
        assert_eq!(sync_dag.n(), n, "sync DAG size mismatch");
        let core_of = compiled.core_assignment();
        let waits = (0..n)
            .map(|v| {
                let cross = sync_dag.parents(v).iter().filter(|&&u| core_of[u] != core_of[v]);
                cross.map(|&u| u as u32).collect()
            })
            .collect();
        Flags { waits, done: DoneFlags::new(n), backoff, abort: AtomicBool::new(false) }
    }

    /// Starts one solve under a fresh generation; the returned guard
    /// serializes solves on this executor and must outlive the solve.
    pub(crate) fn begin(&self) -> (MutexGuard<'_, u32>, FlagSolve<'_>) {
        let turn = self.done.begin_solve();
        // Relaxed: the lease's job dispatch publishes it, as the zeroing.
        self.abort.store(false, Ordering::Relaxed);
        let solve = FlagSolve {
            waits: &self.waits,
            done: &self.done.flags,
            generation: *turn,
            backoff: self.backoff,
            abort: &self.abort,
        };
        (turn, solve)
    }
}

/// One solve under [`Flags`], passed by value so its fields stay in
/// registers across the flag spins.
#[derive(Clone, Copy)]
pub(crate) struct FlagSolve<'a> {
    waits: &'a [Vec<u32>],
    done: &'a [AtomicU32],
    generation: u32,
    backoff: Backoff,
    abort: &'a AtomicBool,
}

impl Hooks for FlagSolve<'_> {
    /// Waits (under the policy's backoff) until every cross-core parent of
    /// `i` carries the solve's generation; panics if a sibling aborted.
    /// A dense block awaits all its rows first — deadlock-free, since a
    /// cross-core parent always lies in a strictly earlier superstep
    /// (Definition 2.1), so waits only point backwards in superstep order.
    #[inline]
    fn before(&self, i: usize) {
        for &u in &self.waits[i] {
            let mut spins = 0;
            while self.done[u as usize].load(Ordering::Acquire) != self.generation {
                if self.abort.load(Ordering::Relaxed) {
                    panic!("parallel solve aborted: a sibling core panicked");
                }
                backoff_wait(self.backoff, &mut spins);
            }
        }
    }

    #[inline]
    fn after(&self, i: usize) {
        self.done[i].store(self.generation, Ordering::Release);
    }

    fn drive(&self, lease: &mut CoreLease<'_>, engine: &Engine, body: &StepFn<'_>) {
        let (width, n_steps) = (lease.size(), engine.compiled.n_supersteps());
        lease.run(engine.policy.backoff, &|thread| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                body(thread, width, 0..n_steps);
            }));
            if let Err(panic) = result {
                self.abort.store(true, Ordering::Release);
                std::panic::resume_unwind(panic);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, Strategy};
    use crate::runtime::{RuntimeHandle, SolverRuntime};
    use crate::serial::{solve_lower_multi_serial, solve_lower_serial};
    use sptrsv_core::registry::{ExecModel, ExecPolicy};
    use sptrsv_core::{Scheduler, SpMp};
    use sptrsv_dag::transitive::approximate_transitive_reduction;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::CsrMatrix;
    use std::sync::Arc;

    /// An SpMP executor for `cores` cores on a `w × h` five-point grid,
    /// waiting on the reduced DAG, on `runtime` (the global one if `None`).
    fn reduced(
        w: usize,
        h: usize,
        cores: usize,
        runtime: Option<Arc<SolverRuntime>>,
    ) -> (CsrMatrix, Executor) {
        let l = grid2d_laplacian(w, h, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let compiled = Arc::new(CompiledSchedule::from_schedule(&SpMp.schedule(&dag, cores)));
        let exec = Executor::planned(
            Arc::new(l.clone()),
            compiled,
            None,
            ExecModel::Async,
            ExecPolicy::default(),
            runtime.map_or_else(RuntimeHandle::default, RuntimeHandle::explicit),
            Some(&approximate_transitive_reduction(&dag)),
        );
        (l, exec)
    }

    #[test]
    fn async_matches_serial_with_reduced_sync_dag() {
        let (l, exec) = reduced(15, 11, 4, None);
        let n = l.n_rows();
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
        let (l, exec) = reduced(12, 9, 3, None);
        let n = l.n_rows();
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
        for capacity in 1..=4 {
            let runtime = Arc::new(SolverRuntime::new(capacity));
            let (l, exec) = reduced(13, 8, 4, Some(runtime));
            let n = l.n_rows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() + 0.25).collect();
            let mut expected = vec![0.0; n];
            solve_lower_serial(&l, &b, &mut expected);
            let mut x = vec![f64::NAN; n];
            exec.solve(&l, &b, &mut x);
            assert_eq!(x, expected, "width {capacity} diverged");
        }
    }

    #[test]
    fn async_multi_rhs_matches_serial_multi() {
        let (l, exec) = reduced(12, 10, 4, None);
        let n = l.n_rows();
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
        let l = grid2d_laplacian(8, 8, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = SpMp.schedule(&dag, 2);
        let exec = Executor::new(&l, &schedule, ExecModel::Async).unwrap();
        let Strategy::Flags(flags) = &exec.strategy else {
            panic!("async executor waits on flags")
        };
        for (v, waits) in flags.waits.iter().enumerate() {
            for &u in waits {
                assert_ne!(schedule.core_of(u as usize), schedule.core_of(v));
            }
        }
    }
}
