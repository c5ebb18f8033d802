//! One worker pool per process: planning, tuning and solving on an
//! explicit runtime must not start the global runtime's pool as well.
//! `block-gl` is the scheduler that parallel-iterates at plan time, so it
//! is the one that could reach a second pool through the `rayon` bridge;
//! the tuner races its entrants on a runtime of its own, which must be
//! gone when the run returns.
//!
//! Its own test binary, so no other test's global runtime is in the
//! process when the threads are counted; the tests here take turns, so
//! neither counts the other's workers.

#![cfg(target_os = "linux")]

use sptrsv::exec::{PlanBuilder, SolverRuntime};
use sptrsv::sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use sptrsv::tune::Tuner;
use std::sync::{Arc, Mutex};

/// Held by each test while its runtimes live.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Threads of this process named like a runtime worker (the kernel keeps
/// 15 bytes of a thread's name, so `sptrsv-runtime-0` reads
/// `sptrsv-runtime-`).
fn runtime_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sptrsv-runtime"))
        .count()
}

#[test]
fn a_block_gl_plan_on_an_explicit_runtime_starts_one_pool() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let l = grid2d_laplacian(40, 40, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let runtime = Arc::new(SolverRuntime::new(2));
    let plan = PlanBuilder::new(&l)
        .scheduler("block-gl:blocks=4")
        .cores(2)
        .runtime(Arc::clone(&runtime))
        .build()
        .unwrap();
    let b = vec![1.0; l.n_rows()];
    let x = plan.solve(&b);
    assert!(sptrsv::exec::backward_error(&l, &x, &b) < 1e-12);
    // `SolverRuntime::new(2)` spawns one worker; the leaseholder is the
    // second core.
    assert_eq!(runtime_workers(), 1, "a second pool was started");
}

#[test]
fn a_tuner_run_beside_an_explicit_runtime_leaves_one_pool() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let l = grid2d_laplacian(40, 40, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let runtime = Arc::new(SolverRuntime::new(2));
    let report = Tuner::new(&l).cores(2).run().unwrap();
    assert!(report.ranked.len() > 1, "the entrants were raced");
    assert_eq!(runtime_workers(), 1, "the race left a pool behind or started the global one");
    drop(runtime);
}
