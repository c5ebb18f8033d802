//! Concurrent-plans stress: many plans solving from many threads on one
//! small `SolverRuntime` — the multi-tenant regime the runtime redesign
//! exists for.
//!
//! Assertions:
//! * every concurrently produced solution is **bit-identical** to the
//!   serial reference (lease-width degradation under contention never
//!   changes the arithmetic);
//! * lease accounting holds under fire: while plans are solving, cores in
//!   use never exceed the runtime's capacity, and everything is returned
//!   when the storm is over;
//! * `block-gl` scheduling (whose per-block scheduling runs through the
//!   global runtime via the `rayon` bridge, installed by the test)
//!   composes with concurrent execution.
//!
//! The runtime capacities exercised default to {2, 4, 8}; the CI
//! thread-correctness job pins single capacities via the
//! `SPTRSV_STRESS_CORES` environment variable and reruns the suite under
//! ThreadSanitizer at each.

use sptrsv::exec::serial::solve_lower_serial;
use sptrsv::exec::{ExecModel, PlanBuilder, SolverRuntime};
use sptrsv::sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use sptrsv::sparse::CsrMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runtime capacities to stress: `SPTRSV_STRESS_CORES` (comma-separated)
/// or the default sweep.
fn stress_capacities() -> Vec<usize> {
    match std::env::var("SPTRSV_STRESS_CORES") {
        Ok(list) => list
            .split(',')
            .map(|c| c.trim().parse().expect("SPTRSV_STRESS_CORES entries are core counts"))
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

fn problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let l = grid2d_laplacian(24, 18, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
    let mut reference = vec![0.0; n];
    solve_lower_serial(&l, &b, &mut reference);
    (l, b, reference)
}

/// The pipelines racing on the shared runtime: every execution model, the
/// wait-loop policy dimensions, and the bridge-parallel `block-gl`.
const SPECS: [&str; 7] = [
    "growlocal@barrier",
    "spmp@async",
    "growlocal:sync=full,backoff=yield@async",
    "funnel-gl:cap=auto@barrier",
    "block-gl:blocks=4@barrier",
    "hdagg@async",
    "bspg:backoff=yield@barrier",
];

#[test]
fn concurrent_plans_are_bit_identical_to_serial() {
    // Plans on explicit runtimes do not install the rayon bridge; install
    // it here so `block-gl`'s per-block scheduling leases threads while
    // the other tenants solve.
    sptrsv::exec::runtime::install_rayon_bridge();
    let (l, b, reference) = problem();
    for capacity in stress_capacities() {
        let runtime = Arc::new(SolverRuntime::new(capacity));
        let peak_violations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for spec in SPECS {
                let runtime = Arc::clone(&runtime);
                let (l, b, reference) = (&l, &b, &reference);
                let peak_violations = &peak_violations;
                scope.spawn(move || {
                    // Each tenant plans for 4 cores; the shared runtime
                    // grants whatever is free per solve. Reordering is off
                    // so every row's dot product runs in the original CSR
                    // order — the precondition for bit-identity to serial
                    // (as in the executor-agreement suite).
                    let plan = PlanBuilder::new(l)
                        .scheduler(spec)
                        .cores(4)
                        .reorder(false)
                        .runtime(Arc::clone(&runtime))
                        .build()
                        .unwrap_or_else(|e| panic!("{spec}: {e}"));
                    let mut ws = plan.workspace();
                    let mut x = vec![0.0; b.len()];
                    for round in 0..15 {
                        x.fill(f64::NAN);
                        plan.solve_into(b, &mut x, &mut ws);
                        // The accounting invariant, sampled mid-storm.
                        if runtime.cores_in_use() > runtime.capacity() {
                            peak_violations.fetch_add(1, Ordering::Relaxed);
                        }
                        assert_eq!(
                            &x, reference,
                            "{spec} diverged from serial (capacity {capacity}, round {round})"
                        );
                    }
                });
            }
        });
        assert_eq!(
            peak_violations.load(Ordering::Relaxed),
            0,
            "cores_in_use exceeded capacity {capacity}"
        );
        assert_eq!(runtime.cores_in_use(), 0, "leases outlived their solves");
        // The runtime is still serviceable at full width afterwards.
        assert_eq!(runtime.lease(capacity).size(), capacity);
    }
}

#[test]
fn greedy_grants_stay_within_capacity_in_a_six_tenant_storm() {
    // Six tenants hammering a capacity-8 runtime, each wanting all 8
    // cores: every grant is `min(8, free)`, so the widths held at any
    // instant never sum past the capacity, and every core comes back.
    const TENANTS: usize = 6;
    const CAPACITY: usize = 8;
    let runtime = Arc::new(SolverRuntime::new(CAPACITY));
    // widths[t] is tenant t's currently held width (0 = none). A tenant
    // publishes its grant *after* leasing and clears it *before*
    // releasing, so the published widths never overstate what is held.
    let widths: Vec<AtomicUsize> = (0..TENANTS).map(|_| AtomicUsize::new(0)).collect();
    let violations = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for me in 0..TENANTS {
            let runtime = &runtime;
            let widths = &widths;
            let violations = &violations;
            scope.spawn(move || {
                for _ in 0..200 {
                    let mut lease = runtime.lease(CAPACITY);
                    widths[me].store(lease.size(), Ordering::SeqCst);
                    let held: usize = widths.iter().map(|w| w.load(Ordering::SeqCst)).sum();
                    if held > CAPACITY || runtime.cores_in_use() > CAPACITY {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    lease.run(sptrsv::exec::Backoff::Spin, &|_| {
                        for _ in 0..50 {
                            std::hint::spin_loop();
                        }
                    });
                    widths[me].store(0, Ordering::SeqCst);
                    drop(lease);
                }
            });
        }
    });
    assert_eq!(violations.load(Ordering::SeqCst), 0, "grants exceeded the capacity");
    assert_eq!(runtime.cores_in_use(), 0);
}

#[test]
fn contended_solves_under_storm_stay_bit_identical() {
    // Barrier solves under real contention: solver tenants race tenants
    // that acquire-and-release raw leases, so each solve is granted
    // whatever width happens to be free. Every solution must stay
    // bit-identical to serial regardless of the width it ran at.
    let (l, b, reference) = problem();
    let runtime = Arc::new(SolverRuntime::new(4));
    let stop = AtomicUsize::new(0);
    let stop = &stop;
    std::thread::scope(|scope| {
        // Two churn tenants: repeatedly grab and drop width-2 leases.
        for _ in 0..2 {
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let mut lease = runtime.lease(2);
                    lease.run(sptrsv::exec::Backoff::Spin, &|_| {
                        for _ in 0..500 {
                            std::hint::spin_loop();
                        }
                    });
                    drop(lease);
                    std::thread::yield_now();
                }
            });
        }
        // Two solver tenants.
        let solvers: Vec<_> = (0..2)
            .map(|_| {
                let runtime = Arc::clone(&runtime);
                let (l, b, reference) = (&l, &b, &reference);
                scope.spawn(move || {
                    let plan = PlanBuilder::new(l)
                        .scheduler("growlocal@barrier")
                        .cores(4)
                        .reorder(false)
                        .runtime(Arc::clone(&runtime))
                        .build()
                        .unwrap();
                    let mut ws = plan.workspace();
                    let mut x = vec![0.0; b.len()];
                    for round in 0..20 {
                        x.fill(f64::NAN);
                        plan.solve_into(b, &mut x, &mut ws);
                        assert_eq!(&x, reference, "contended storm diverged at round {round}");
                    }
                })
            })
            .collect();
        for solver in solvers {
            solver.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
    });
    assert_eq!(runtime.cores_in_use(), 0, "contended storm leaked leases");
}

#[test]
fn many_tenants_on_one_shared_plan_and_runtime() {
    // The other concurrency axis: one *shared* plan driven from many
    // threads (SolvePlan is Sync; the async executor's generation flags
    // serialize overlapping solves internally).
    let (l, b, reference) = problem();
    for model in [ExecModel::Barrier, ExecModel::Async] {
        let runtime = Arc::new(SolverRuntime::new(3));
        let plan = Arc::new(
            PlanBuilder::new(&l)
                .cores(3)
                .reorder(false)
                .execution(model)
                .runtime(Arc::clone(&runtime))
                .build()
                .unwrap(),
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plan = Arc::clone(&plan);
                let (b, reference) = (&b, &reference);
                scope.spawn(move || {
                    let mut ws = plan.workspace();
                    let mut x = vec![0.0; b.len()];
                    for round in 0..20 {
                        plan.solve_into(b, &mut x, &mut ws);
                        assert_eq!(&x, reference, "{model} round {round}");
                    }
                });
            }
        });
        assert_eq!(runtime.cores_in_use(), 0);
    }
}

#[test]
fn degraded_widths_upper_and_multi_rhs_stay_exact() {
    // Orientation conjugation and multi-RHS under a capacity-1 runtime
    // (everything degrades to serial leases) and a roomy one must agree
    // bit-for-bit.
    let (l, b, _) = problem();
    let u = l.transpose();
    let n = u.n_rows();
    let roomy = Arc::new(SolverRuntime::new(4));
    let tight = Arc::new(SolverRuntime::new(1));
    let mut solutions = Vec::new();
    for runtime in [&roomy, &tight] {
        let plan = PlanBuilder::new(&u)
            .orientation(sptrsv::exec::Orientation::Upper)
            .scheduler("growlocal@async")
            .cores(4)
            .runtime(Arc::clone(runtime))
            .build()
            .unwrap();
        solutions.push(plan.solve(&b));
        let mut xm = vec![b.clone(), b.iter().map(|&v| 0.5 * v).collect()];
        plan.solve_batch_in_place(&mut xm, &mut plan.batch_workspace(2));
        let x = solutions.last().unwrap();
        for i in 0..n {
            assert_eq!(xm[0][i], x[i], "multi-RHS column 0 diverged at row {i}");
        }
    }
    assert_eq!(solutions[0], solutions[1], "lease width changed the bits");
}
