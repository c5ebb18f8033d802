//! Steady-state solves are allocation-free — measured, not asserted by
//! inspection.
//!
//! The ROADMAP gap this pins: the async executor used to allocate a
//! `Vec<AtomicBool>` of done flags *per solve*; the flags are now a
//! generation-counted array owned by the executor, so after warm-up a
//! `solve_into` performs **zero** heap allocations on every execution
//! model — the barrier path (which was already clean), the async path, and
//! the runtime's core-leasing itself (recycled worker-index buffers, a
//! stack-allocated `SenseBarrier`, futex-based std locks).
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! snapshots the allocation counter around a burst of warm solves and
//! demands an exact zero delta. Worker threads run the same kernels, so
//! the global counter also proves *they* allocate nothing.
//!
//! The serving layer (`sptrsv-serve`) rides the same guarantee: once its
//! slot pool, queue and batch buffers are warm, a submit → batch → solve
//! → wait round trip allocates nothing either, whether the batcher
//! thread or the waiting caller runs the batch — pinned here because the
//! counting allocator must wrap the whole process, batcher thread
//! included.
//!
//! The counter is process-global, so a concurrently running test would
//! leak its allocations into another's measurement window. The phases
//! therefore run in sequence inside the file's single `#[test]`, which
//! keeps the measurement exact under any `--test-threads`.

use sptrsv_exec::{ExecModel, PlanBuilder, SolverRuntime};
use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// System allocator with a global allocation counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_solves_and_serving_do_not_allocate() {
    single_rhs_solves_do_not_allocate();
    multi_rhs_solves_do_not_allocate();
    // A short linger lets the batcher race the waiters; a linger no round
    // trip outlasts leaves every dispatch to the waiters themselves (the
    // caller-runs combiner path).
    serving_does_not_allocate_per_request(std::time::Duration::from_micros(50));
    serving_does_not_allocate_per_request(std::time::Duration::from_secs(10));
}

/// Every execution model with the exact and the fastmath kernels: every
/// sync strategy and RHS shape of the shared superstep engine.
fn engine_configs() -> impl Iterator<Item = (ExecModel, bool)> {
    ExecModel::ALL.into_iter().flat_map(|model| [(model, false), (model, true)])
}

fn single_rhs_solves_do_not_allocate() {
    let l = grid2d_laplacian(24, 24, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    // A private runtime keeps the measurement hermetic (nothing else
    // leases from it mid-test).
    let runtime = Arc::new(SolverRuntime::new(3));
    for (model, fastmath) in engine_configs() {
        let plan = PlanBuilder::new(&l)
            .cores(3)
            .execution(model)
            .scheduler(if fastmath { "growlocal:fastmath=on" } else { "growlocal" })
            .runtime(Arc::clone(&runtime))
            .build()
            .unwrap();
        let mut ws = plan.workspace();
        let mut x = vec![0.0; n];
        // Warm-up: buffer growth, the runtime's first lease buffer, and
        // (for async) nothing — the generation flags were sized at build.
        let reference = {
            plan.solve_into(&b, &mut x, &mut ws);
            plan.solve_into(&b, &mut x, &mut ws);
            x.clone()
        };
        let before = allocations();
        for _ in 0..50 {
            plan.solve_into(&b, &mut x, &mut ws);
        }
        let delta = allocations() - before;
        let config = format!("{model} fastmath={fastmath}");
        assert_eq!(x, reference, "{config} diverged during the measured burst");
        assert_eq!(delta, 0, "{config}: {delta} allocations across 50 steady-state solves");
    }
}

fn multi_rhs_solves_do_not_allocate() {
    // The multi-RHS row kernels keep each row's values in stack-allocated
    // register accumulators (no per-row scratch), so SpTRSM steady state
    // is allocation-free at every register-block width.
    let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let n = l.n_rows();
    let runtime = Arc::new(SolverRuntime::new(3));
    for (model, fastmath) in engine_configs() {
        let plan = PlanBuilder::new(&l)
            .cores(3)
            .execution(model)
            .scheduler(if fastmath { "growlocal:fastmath=on" } else { "growlocal" })
            .runtime(Arc::clone(&runtime))
            .build()
            .unwrap();
        for r in [2, 3, 4, 8] {
            let b: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.13).sin() + 1.0).collect();
            let mut px = vec![0.0; n * r];
            // Warm-up (solve_multi itself allocates its gather buffers, so
            // measure the executor path directly through the trait).
            plan.executor().solve_multi(plan.internal_matrix(), &b, &mut px, r);
            let before = allocations();
            for _ in 0..20 {
                plan.executor().solve_multi(plan.internal_matrix(), &b, &mut px, r);
            }
            let delta = allocations() - before;
            let config = format!("{model} fastmath={fastmath} r={r}");
            assert_eq!(delta, 0, "{config}: {delta} allocations across 20 multi-RHS solves");
        }
    }
}

fn serving_does_not_allocate_per_request(linger: std::time::Duration) {
    // The full serving round trip — submit, queue, batch formation, fused
    // solve through `solve_batch_in_place`, completion, wait — allocates
    // nothing once warm: slots recycle through the pool, the queue and
    // batch buffers are pre-sized, and solutions scatter back into each
    // request's own buffer.
    use sptrsv_serve::{Admission, ServeBuilder};

    let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let n = l.n_rows();
    let runtime = Arc::new(SolverRuntime::new(3));
    let plan = PlanBuilder::new(&l).cores(2).runtime(runtime).build().unwrap();
    let template_a: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let template_b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
    let reference_a = plan.solve(&template_a);
    let reference_b = plan.solve(&template_b);
    let server = ServeBuilder::new(plan)
        .max_batch(4)
        .batch_wait(linger)
        .queue_depth(8)
        .admission(Admission::Block)
        .start();
    // Two in-flight requests per round exercise widths 1 and 2 depending
    // on how the linger races the waiter; both paths must be warm and
    // allocation-free. The response hands each buffer back, so the same
    // two allocations cycle through the whole measurement.
    let mut buf_a = template_a.clone();
    let mut buf_b = template_b.clone();
    let round_trip = |buf_a: Vec<f64>, buf_b: Vec<f64>| -> (Vec<f64>, Vec<f64>) {
        let ha = server.submit(buf_a).unwrap();
        let hb = server.submit(buf_b).unwrap();
        let (ra, rb) = (ha.wait(), hb.wait());
        assert_eq!(ra.x, reference_a, "request A diverged");
        assert_eq!(rb.x, reference_b, "request B diverged");
        (ra.x, rb.x)
    };
    for _ in 0..5 {
        (buf_a, buf_b) = round_trip(buf_a, buf_b);
        buf_a.copy_from_slice(&template_a);
        buf_b.copy_from_slice(&template_b);
    }
    let before = allocations();
    for _ in 0..50 {
        (buf_a, buf_b) = round_trip(buf_a, buf_b);
        buf_a.copy_from_slice(&template_a);
        buf_b.copy_from_slice(&template_b);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "linger {linger:?}: {delta} allocations across 50 warm serving round trips"
    );
    server.shutdown();
}
