//! Serving storm: two servers (two plans) on one small shared
//! `SolverRuntime`, many concurrent clients, every response checked
//! bit-for-bit against the serial reference. This is the serving-layer
//! entry in the TSan thread-correctness matrix — the CI job pins single
//! capacities via `SPTRSV_STRESS_CORES` and reruns it under
//! ThreadSanitizer at each.

use sptrsv_exec::{PlanBuilder, SolverRuntime};
use sptrsv_serve::{Admission, ServeBuilder};
use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use sptrsv_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Duration;

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

fn operands() -> [CsrMatrix; 2] {
    [
        grid2d_laplacian(22, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap(),
        grid2d_laplacian(14, 14, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap(),
    ]
}

#[test]
fn serving_storm_stays_bit_identical_under_contention() {
    for capacity in stress_capacities() {
        let runtime = Arc::new(SolverRuntime::new(capacity));
        let servers: Vec<_> = operands()
            .into_iter()
            .zip(["growlocal", "spmp@async"])
            .map(|(l, spec)| {
                let plan = PlanBuilder::new(&l)
                    .scheduler(spec)
                    .cores(capacity.min(4))
                    .runtime(Arc::clone(&runtime))
                    .build()
                    .unwrap();
                Arc::new(
                    ServeBuilder::new(plan)
                        .max_batch(4)
                        .batch_wait(Duration::from_micros(100))
                        .queue_depth(8)
                        .admission(Admission::Block)
                        .start(),
                )
            })
            .collect();
        let clients_per_server = 3;
        let rounds = 15;
        std::thread::scope(|scope| {
            for (s, server) in servers.iter().enumerate() {
                for client in 0..clients_per_server {
                    let server = Arc::clone(server);
                    scope.spawn(move || {
                        let n = server.plan().internal_matrix().n_rows();
                        let mut b: Vec<f64> = (0..n)
                            .map(|i| ((i * 7 + client * 13 + s * 29) % 19) as f64 - 9.0)
                            .collect();
                        for round in 0..rounds {
                            let expected = server.plan().solve(&b);
                            let response = server.submit(b).unwrap().wait();
                            assert_eq!(
                                response.x, expected,
                                "server {s} client {client} round {round} diverged"
                            );
                            assert!(response.timing.batch_width <= 4);
                            b = response.x;
                            for v in &mut b {
                                *v = (*v * 3.0 + round as f64).rem_euclid(23.0) - 11.0;
                            }
                        }
                    });
                }
            }
        });
        for server in servers {
            let stats = Arc::into_inner(server).unwrap().shutdown();
            assert_eq!(stats.completed, clients_per_server * rounds);
            assert_eq!(stats.shed, 0);
            let fused: usize = stats.widths.iter().enumerate().map(|(w, c)| w * c).sum();
            assert_eq!(fused, stats.completed, "width histogram does not add up");
        }
        assert_eq!(runtime.cores_in_use(), 0, "capacity {capacity} leaked leases");
    }
}
