//! Multi-tenant serving: many plans solving concurrently on one shared
//! `SolverRuntime`.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```
//!
//! The production regime the runtime targets: a service holds many
//! prepared plans (one per tenant/system) and solves them from many
//! request threads at once. All plans lease their threads per solve from
//! **one** runtime sized to the machine, so N concurrent solves never
//! oversubscribe the hardware. Each grant takes `min(requested, free)`
//! cores and keeps that width for the solve: when the runtime is busy, a
//! solve runs on fewer cores (down to serial) with bit-identical results,
//! and the cores return the moment it finishes.

use sptrsv::exec::{PlanBuilder, SolverRuntime};
use sptrsv::prelude::*;
use std::sync::Arc;

fn main() {
    // One runtime for the whole process. `SolverRuntime::global()` (the
    // default when `PlanBuilder::runtime` is not called) is sized to the
    // hardware; here an explicit 4-core runtime keeps the demo
    // deterministic on any machine.
    let runtime = Arc::new(SolverRuntime::new(4));
    println!("runtime: {} cores (shared by every tenant)", runtime.capacity());

    // Three tenants with different systems and scheduling pipelines.
    let tenants: Vec<(&str, CsrMatrix)> = vec![
        ("fem-plate", grid2d_laplacian(60, 60, Stencil2D::NinePoint, 0.5)),
        ("reservoir", grid3d_laplacian(12, 12, 12, Stencil3D::SevenPoint, 0.5)),
        ("heat-2d", grid2d_laplacian(90, 40, Stencil2D::FivePoint, 0.5)),
    ];
    let specs = ["growlocal@barrier", "spmp@async", "funnel-gl:cap=auto@barrier"];
    let plans: Vec<_> = tenants
        .iter()
        .zip(specs)
        .map(|((name, a), spec)| {
            let l = a.lower_triangle().expect("square SPD operand");
            let plan = PlanBuilder::new(&l)
                .scheduler(spec)
                .cores(4) // each tenant *wants* the whole machine…
                .runtime(Arc::clone(&runtime)) // …but shares this one
                .build()
                .expect("valid plan");
            let b: Vec<f64> = (0..l.n_rows()).map(|i| 1.0 + (i % 9) as f64).collect();
            let expected = plan.solve(&b);
            (*name, l, plan, b, expected)
        })
        .collect();

    // Serve: every tenant solves repeatedly from its own request thread,
    // and the leases contend for the 4 cores.
    std::thread::scope(|scope| {
        for (name, l, plan, b, expected) in &plans {
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                let mut ws = plan.workspace();
                let mut x = vec![0.0; b.len()];
                let rounds = 200;
                let mut worst = 0.0f64;
                let started = std::time::Instant::now();
                for _ in 0..rounds {
                    let t0 = std::time::Instant::now();
                    plan.solve_into(b, &mut x, &mut ws);
                    worst = worst.max(t0.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(&x, expected, "{name}: concurrency changed the bits");
                    assert!(runtime.cores_in_use() <= runtime.capacity(), "oversubscribed");
                }
                let per_solve = started.elapsed().as_secs_f64() / rounds as f64 * 1e3;
                let residual = sptrsv::sparse::linalg::relative_residual(l, &x, b);
                assert!(residual < 1e-10, "{name}: residual {residual:.2e}");
                println!(
                    "{name:>10}: {rounds} solves, {per_solve:.3} ms/solve (worst {worst:.3} ms), \
                     residual {residual:.2e} (runtime load seen: {}/{} cores)",
                    runtime.cores_in_use(),
                    runtime.capacity(),
                );
            });
        }
    });
    assert_eq!(runtime.cores_in_use(), 0, "all leases returned");
    println!("\nall tenants served; runtime idle again (0/{} cores leased)", runtime.capacity());
}
