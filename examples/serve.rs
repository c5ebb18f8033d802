//! Solve-as-a-service: two plans behind batching [`SolveServer`]s, many
//! concurrent clients, one shared `SolverRuntime`.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! The closed-loop serving regime: a process holds one prepared plan per
//! system and many request threads submit single right-hand sides. Each
//! plan's [`SolveServer`] queues the submissions, and whichever client
//! reaches `wait` while its request is still queued takes the combiner
//! role and fuses up to `max_batch` of them into **one** multi-RHS solve
//! on its own thread (a fallback batcher thread only serves requests
//! nobody waits on, after the `batch_wait` linger) — one dispatch, one core
//! lease and one matrix traversal serve a whole batch, so per-request
//! overhead is amortized exactly like the paper amortizes scheduling
//! cost across repeated solves. Fusion changes grouping, never
//! arithmetic: every response is bit-identical to solving that request
//! alone, and every client below checks it.
//!
//! The demo prints, per server, the achieved batch-width histogram (how
//! much amortization the offered concurrency actually bought) and each
//! client's p99 latency.

use sptrsv::exec::{PlanBuilder, SolverRuntime};
use sptrsv::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// `q`-th percentile (0..=1) of an unsorted latency sample, in ms.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

fn main() {
    // One runtime for the whole process; both servers' fused solves lease
    // from it, so serving two plans never oversubscribes the machine.
    let runtime = Arc::new(SolverRuntime::new(4));

    // Two tenants: a 2D FEM plate and a 3D reservoir, each behind its own
    // server. The spec says how a plan solves; the server's builder says
    // how many requests it fuses (`max_batch`) and how long a request
    // nobody waits on lingers for company (`batch_wait`).
    let linger = Duration::from_micros(150);
    let systems: Vec<(&str, CsrMatrix, &str, usize)> = vec![
        ("fem-plate", grid2d_laplacian(60, 60, Stencil2D::NinePoint, 0.5), "growlocal", 8),
        ("reservoir", grid3d_laplacian(12, 12, 12, Stencil3D::SevenPoint, 0.5), "spmp@async", 4),
    ];
    let servers: Vec<(&str, Arc<SolveServer>)> = systems
        .iter()
        .map(|(name, a, spec, batch)| {
            let l = a.lower_triangle().expect("square SPD operand");
            let plan = PlanBuilder::new(&l)
                .scheduler(*spec)
                .cores(2)
                .runtime(Arc::clone(&runtime))
                .build()
                .expect("valid plan");
            let server = SolveServer::builder(plan)
                .max_batch(*batch)
                .batch_wait(linger)
                .admission(Admission::Block)
                .start();
            println!(
                "{name:>10}: serving {} rows under {spec} (batch={}, linger {} us, depth {})",
                l.n_rows(),
                server.max_batch(),
                server.batch_wait().as_micros(),
                server.queue_depth()
            );
            (*name, Arc::new(server))
        })
        .collect();

    // Six clients per server submit closed-loop: redeem, perturb, resubmit
    // the same buffer (the response hands it back solved in place).
    let clients = 6;
    let rounds = 100;
    println!("\n{clients} clients x {rounds} requests against each server:");
    std::thread::scope(|scope| {
        for (name, server) in &servers {
            for client in 0..clients {
                let server = Arc::clone(server);
                scope.spawn(move || {
                    let n = server.plan().internal_matrix().n_rows();
                    let mut b: Vec<f64> =
                        (0..n).map(|i| ((i * 7 + client * 13) % 19) as f64 - 9.0).collect();
                    let mut latencies = Vec::with_capacity(rounds);
                    let mut widths = 0usize;
                    for round in 0..rounds {
                        let expected = server.plan().solve(&b);
                        let response = server.submit(b).expect("blocking admission").wait();
                        assert_eq!(response.x, expected, "{name} client {client}: bits changed");
                        latencies.push(response.timing.total.as_secs_f64() * 1e3);
                        widths += response.timing.batch_width;
                        b = response.x;
                        for v in &mut b {
                            *v = (*v * 3.0 + round as f64).rem_euclid(17.0) - 8.0;
                        }
                    }
                    println!(
                        "{name:>10} client {client}: p99 {:.3} ms, mean width ridden {:.2}",
                        percentile(&mut latencies, 0.99),
                        widths as f64 / rounds as f64
                    );
                });
            }
        }
    });

    println!();
    for (name, server) in servers {
        let stats = Arc::into_inner(server).expect("all clients done").shutdown();
        let histogram: Vec<String> = stats
            .widths
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(width, count)| format!("{width}x{count}"))
            .collect();
        println!(
            "{name:>10}: {} requests in {} batches, mean width {:.2} (by width: {})",
            stats.completed,
            stats.batches,
            stats.mean_width(),
            histogram.join(" ")
        );
        assert_eq!(stats.completed, clients * rounds);
    }
    assert_eq!(runtime.cores_in_use(), 0, "all leases returned");
    println!("both servers drained; runtime idle again");
}
