//! Serving semantics: linger expiry for un-awaited requests, caller-runs
//! combining for awaited ones, `batch=N` capping, backpressure, clean
//! shutdown, builder validation, in-place buffers — plus the
//! bit-identity property test (any interleaving of submissions matches
//! serial per-request solves bit-for-bit).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sptrsv_exec::{PlanBuilder, SolvePlan, SolverRuntime};
use sptrsv_serve::{Admission, ServeBuilder, SolveServer, SubmitError, MAX_BUDGET_DEPTH};
use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use sptrsv_sparse::CsrMatrix;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// A linger no test outlasts: with it only a waiter (or shutdown) can
/// dispatch a partial batch.
const LONG_LINGER: Duration = Duration::from_secs(10);

fn lower() -> CsrMatrix {
    grid2d_laplacian(20, 14, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap()
}

/// A plan pinned to its own small runtime so tests are hermetic.
fn plan() -> SolvePlan {
    PlanBuilder::new(&lower()).cores(2).runtime(Arc::new(SolverRuntime::new(2))).build().unwrap()
}

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7 + salt * 13) % 23) as f64 - 11.0).collect()
}

#[test]
fn a_lone_request_dispatches_at_linger_expiry() {
    let linger = Duration::from_millis(30);
    let server = ServeBuilder::new(plan()).max_batch(4).batch_wait(linger).start();
    let n = server.plan().internal_matrix().n_rows();
    let b = rhs(n, 1);
    let expected = server.plan().solve(&b);
    let handle = server.submit(b).unwrap();
    // Poll instead of waiting: a request nobody waits on is the batcher's,
    // so it goes out alone — but only after the full linger (queued time
    // covers the wait for company).
    let polling = Instant::now();
    while !handle.is_ready() {
        assert!(polling.elapsed() < Duration::from_secs(10), "the batcher never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    let response = handle.wait();
    assert_eq!(response.timing.batch_width, 1);
    assert!(response.timing.queued >= linger, "dispatched before the linger expired");
    assert_eq!(response.x, expected);
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.batches), (1, 1, 1));
    assert_eq!(stats.widths[1], 1);
}

#[test]
fn a_waiting_caller_solves_without_linger() {
    // The waiter takes the combiner role and solves on its own thread:
    // a closed loop at window 1 never pays the linger.
    let server = ServeBuilder::new(plan()).max_batch(4).batch_wait(LONG_LINGER).start();
    let n = server.plan().internal_matrix().n_rows();
    let b = rhs(n, 1);
    let expected = server.plan().solve(&b);
    let response = server.submit(b).unwrap().wait();
    assert!(response.timing.queued < LONG_LINGER / 10, "the waiter sat out the linger");
    assert_eq!(response.timing.batch_width, 1);
    assert_eq!(response.x, expected);
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.batches), (1, 1, 1));
    assert_eq!(stats.widths[1], 1);
}

#[test]
fn a_waiter_fuses_a_window_of_two_without_linger() {
    // Two queued requests, one waiter: it drains both into a single
    // width-2 solve, so the second handle is ready without ever waiting.
    let server = ServeBuilder::new(plan()).max_batch(4).batch_wait(LONG_LINGER).start();
    let n = server.plan().internal_matrix().n_rows();
    let (b1, b2) = (rhs(n, 1), rhs(n, 2));
    let (e1, e2) = (server.plan().solve(&b1), server.plan().solve(&b2));
    let h1 = server.submit(b1).unwrap();
    let h2 = server.submit(b2).unwrap();
    let r1 = h1.wait();
    assert!(h2.is_ready(), "the waiter left its queued neighbour behind");
    let r2 = h2.wait();
    assert!(r1.timing.queued < LONG_LINGER / 10, "the waiter sat out the linger");
    assert_eq!((r1.timing.batch_width, r2.timing.batch_width), (2, 2));
    assert_eq!((r1.x, r2.x), (e1, e2));
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.widths[2], stats.completed), (1, 1, 2));
}

#[test]
fn no_waiter_is_stranded_behind_another_combiner() {
    // Each round three clients queue one request apiece, then all wait at
    // once. Whoever loses the race for the combiner role sleeps; a
    // combiner releasing the role with requests still queued must wake
    // one of their waiters, because the batcher would hold them for the
    // full linger. At width 1 the batcher also dispatches on fullness; at
    // width 2 the odd request out can only be rescued by that hand-off.
    // A larger operand widens the window in which a waiter finds the role
    // taken.
    let l = grid2d_laplacian(96, 96, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let runtime = Arc::new(SolverRuntime::new(2));
    for width in [1, 2] {
        let plan = PlanBuilder::new(&l).cores(2).runtime(Arc::clone(&runtime)).build().unwrap();
        let server = ServeBuilder::new(plan).max_batch(width).batch_wait(LONG_LINGER).start();
        let n = l.n_rows();
        let clients = 3;
        let rounds = 20;
        let step = Barrier::new(clients);
        // Failures are collected, not panicked on, and checked by all
        // clients in lockstep so one ends every loop instead of
        // deadlocking the barrier.
        let failures = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for client in 0..clients {
                let (server, step, failures) = (&server, &step, &failures);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let b = rhs(n, client * rounds + round);
                        let expected = server.plan().solve(&b);
                        step.wait();
                        let handle = server.submit(b).unwrap();
                        step.wait();
                        let response = handle.wait();
                        if response.x != expected {
                            failures.lock().unwrap().push(format!("client {client} diverged"));
                        }
                        if response.timing.total >= LONG_LINGER / 4 {
                            failures.lock().unwrap().push(format!("client {client} stranded"));
                        }
                        step.wait();
                        if !failures.lock().unwrap().is_empty() {
                            break;
                        }
                    }
                });
            }
        });
        let failures = failures.into_inner().unwrap();
        assert!(failures.is_empty(), "width {width}: {failures:?}");
        let stats = server.shutdown();
        assert_eq!(stats.completed, clients * rounds, "width {width}");
    }
}

#[test]
fn shutdown_while_a_waiter_combines_drains_every_request() {
    let server =
        ServeBuilder::new(plan()).max_batch(2).batch_wait(LONG_LINGER).queue_depth(8).start();
    let n = server.plan().internal_matrix().n_rows();
    let requests: Vec<Vec<f64>> = (0..5).map(|salt| rhs(n, salt)).collect();
    let expected: Vec<Vec<f64>> = requests.iter().map(|b| server.plan().solve(b)).collect();
    let mut handles: Vec<_> =
        requests.into_iter().map(|b| Some(server.submit(b).unwrap())).collect();
    let waited = handles[0].take().unwrap();
    let start = Barrier::new(2);
    let (stats, first) = std::thread::scope(|scope| {
        // One thread takes the combiner role on the oldest request while
        // the main thread shuts down; the batcher drains the rest behind
        // it and outlasts its combine.
        let waiter = scope.spawn(|| {
            start.wait();
            waited.wait()
        });
        start.wait();
        let stats = server.shutdown();
        (stats, waiter.join().unwrap())
    });
    assert_eq!(stats.completed, 5, "shutdown returned before every request completed");
    assert_eq!(first.x, expected[0]);
    for (i, handle) in handles.into_iter().enumerate().skip(1) {
        assert_eq!(handle.unwrap().wait().x, expected[i], "request {i}");
    }
}

#[test]
#[should_panic(expected = "estimate must be nonzero")]
fn a_zero_batch_solve_estimate_is_rejected() {
    let _ = ServeBuilder::new(plan()).latency_budget(Duration::from_millis(1), Duration::ZERO);
}

#[test]
fn a_tiny_batch_solve_estimate_clamps_the_derived_depth() {
    // One second over one nanosecond is 10^9 batches: unclamped, start()
    // would pre-size a queue and slot pool of hundreds of gigabytes.
    let server = ServeBuilder::new(plan())
        .latency_budget(Duration::from_secs(1), Duration::from_nanos(1))
        .start();
    assert!(server.queue_depth() <= MAX_BUDGET_DEPTH, "depth {}", server.queue_depth());
    let n = server.plan().internal_matrix().n_rows();
    let b = rhs(n, 5);
    let expected = server.plan().solve(&b);
    assert_eq!(server.submit(b).unwrap().wait().x, expected);
    assert_eq!(server.shutdown().completed, 1);
}

#[test]
#[should_panic(expected = "overflows usize")]
fn an_unrepresentable_slot_pool_is_rejected_at_start() {
    let _ = ServeBuilder::new(plan()).queue_depth(usize::MAX).start();
}

#[test]
fn zero_linger_dispatches_immediately() {
    let server = ServeBuilder::new(plan()).max_batch(4).batch_wait(Duration::ZERO).start();
    let n = server.plan().internal_matrix().n_rows();
    for round in 0..8 {
        let b = rhs(n, round);
        let expected = server.plan().solve(&b);
        let response = server.submit(b).unwrap().wait();
        assert_eq!(response.x, expected, "round {round}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);
}

#[test]
fn batches_are_capped_at_max_batch() {
    // A very long linger forces dispatch to happen only on full batches:
    // four requests through a width-2 server must ride exactly two
    // width-2 batches, never a wider one.
    let server = ServeBuilder::new(plan())
        .max_batch(2)
        .batch_wait(Duration::from_secs(10))
        .queue_depth(8)
        .start();
    let n = server.plan().internal_matrix().n_rows();
    let requests: Vec<Vec<f64>> = (0..4).map(|salt| rhs(n, salt)).collect();
    let expected: Vec<Vec<f64>> = requests.iter().map(|b| server.plan().solve(b)).collect();
    let handles: Vec<_> = requests.into_iter().map(|b| server.submit(b).unwrap()).collect();
    for (handle, expected) in handles.into_iter().zip(&expected) {
        let response = handle.wait();
        assert_eq!(response.timing.batch_width, 2);
        assert_eq!(&response.x, expected);
    }
    let stats = server.shutdown();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.widths[2], 2);
    assert_eq!(stats.completed, 4);
}

#[test]
fn shed_admission_rejects_when_the_queue_is_at_depth() {
    // Stall the batcher with a long linger + wide batch so the queue
    // genuinely fills, then watch the third submission bounce with its
    // buffer intact.
    let server = ServeBuilder::new(plan())
        .max_batch(8)
        .batch_wait(Duration::from_secs(10))
        .queue_depth(2)
        .admission(Admission::Shed)
        .start();
    let n = server.plan().internal_matrix().n_rows();
    let h1 = server.submit(rhs(n, 1)).unwrap();
    let h2 = server.submit(rhs(n, 2)).unwrap();
    let shed_b = rhs(n, 3);
    match server.submit(shed_b.clone()) {
        Err(SubmitError::QueueFull { b }) => assert_eq!(b, shed_b, "buffer came back mangled"),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Shutdown drains the queued pair; their handles stay redeemable.
    let e1 = server.plan().solve(&rhs(n, 1));
    let e2 = server.plan().solve(&rhs(n, 2));
    let stats = server.shutdown();
    assert_eq!(h1.wait().x, e1);
    assert_eq!(h2.wait().x, e2);
    assert_eq!((stats.submitted, stats.completed, stats.shed), (2, 2, 1));
}

#[test]
fn blocking_admission_loses_nothing_under_pressure() {
    let server = Arc::new(
        ServeBuilder::new(plan())
            .max_batch(3)
            .batch_wait(Duration::from_micros(200))
            .queue_depth(2)
            .admission(Admission::Block)
            .start(),
    );
    let n = server.plan().internal_matrix().n_rows();
    let rounds = 10;
    std::thread::scope(|scope| {
        for client in 0..4 {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let mut b = rhs(n, client);
                for round in 0..rounds {
                    let expected = server.plan().solve(&b);
                    let response = server.submit(b).unwrap().wait();
                    assert_eq!(response.x, expected, "client {client} round {round}");
                    // Recycle the solved buffer as the next right-hand side.
                    b = response.x;
                    for v in &mut b {
                        *v = (*v * 31.0 + client as f64).rem_euclid(17.0) - 8.0;
                    }
                }
            });
        }
    });
    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.completed, 4 * rounds);
    assert_eq!(stats.submitted, 4 * rounds);
}

#[test]
fn shutdown_drains_every_queued_request() {
    let server = ServeBuilder::new(plan())
        .max_batch(2)
        .batch_wait(Duration::from_secs(10))
        .queue_depth(8)
        .start();
    let n = server.plan().internal_matrix().n_rows();
    // Five requests, linger far in the future: only shutdown can flush
    // them (the first pair may dispatch on fullness; the odd tail cannot).
    let requests: Vec<Vec<f64>> = (0..5).map(|salt| rhs(n, salt)).collect();
    let expected: Vec<Vec<f64>> = requests.iter().map(|b| server.plan().solve(b)).collect();
    let handles: Vec<_> = requests.into_iter().map(|b| server.submit(b).unwrap()).collect();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 5, "shutdown left requests unsolved");
    for (i, (handle, expected)) in handles.into_iter().zip(&expected).enumerate() {
        assert_eq!(&handle.wait().x, expected, "request {i}");
    }
}

#[test]
fn wrong_size_is_rejected_with_the_buffer() {
    let server = SolveServer::start(plan());
    let n = server.plan().internal_matrix().n_rows();
    match server.submit(vec![1.0; n / 2]) {
        Err(SubmitError::WrongSize { b, expected }) => {
            assert_eq!(b.len(), n / 2);
            assert_eq!(expected, n);
        }
        other => panic!("expected WrongSize, got {other:?}"),
    }
    assert_eq!(server.shutdown().submitted, 0);
}

#[test]
fn responses_reuse_the_submitted_buffer() {
    // The serving path is zero-copy end to end: the solution comes back
    // in the very allocation the request was submitted with.
    let server = ServeBuilder::new(plan()).batch_wait(Duration::ZERO).start();
    let n = server.plan().internal_matrix().n_rows();
    let b = rhs(n, 5);
    let ptr = b.as_ptr();
    let response = server.submit(b).unwrap().wait();
    assert_eq!(response.x.as_ptr(), ptr, "the solution moved to a new allocation");
    assert!(response.timing.total >= response.timing.queued);
    assert!(response.timing.total >= response.timing.solve);
    assert!(response.timing.batch_width >= 1);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Any interleaving of concurrent submissions yields results
    // bit-identical to solving each request alone on the same plan.
    #[test]
    fn any_interleaving_is_bit_identical_to_serial_solves(
        seed in any::<u64>(),
        per_client in 1usize..6,
        width in 1usize..5,
        linger_us in 0u64..400,
    ) {
        let server = Arc::new(
            ServeBuilder::new(plan())
                .max_batch(width)
                .batch_wait(Duration::from_micros(linger_us))
                .queue_depth(16)
                .start(),
        );
        let n = server.plan().internal_matrix().n_rows();
        let clients = 3;
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for client in 0..clients {
                let server = Arc::clone(&server);
                workers.push(scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ ((client as u64) << 17));
                    for round in 0..per_client {
                        let b: Vec<f64> =
                            (0..n).map(|_| rng.gen_range(-8.0..8.0)).collect();
                        let expected = server.plan().solve(&b);
                        let handle = server.submit(b).unwrap();
                        if rng.gen_range(0.0..1.0) < 0.5 {
                            // Vary the interleaving: sometimes let other
                            // clients pile in before redeeming.
                            std::thread::sleep(Duration::from_micros(
                                rng.gen_range(0..200u64),
                            ));
                        }
                        let response = handle.wait();
                        if response.x != expected {
                            return Err((client, round));
                        }
                        if response.timing.batch_width > width {
                            return Err((client, round));
                        }
                    }
                    Ok(())
                }));
            }
            for worker in workers {
                prop_assert!(worker.join().unwrap().is_ok(), "a fused solve diverged");
            }
            Ok(())
        })?;
        let stats = Arc::into_inner(server).unwrap().shutdown();
        prop_assert_eq!(stats.completed, clients * per_client);
        prop_assert_eq!(stats.shed, 0);
    }
}

#[test]
fn an_auto_picked_plan_serves() {
    // The tuner's winner flows straight into the serving front-end: build
    // via the `auto` entry point, serve a few requests, and hold the same
    // bit-identity contract as any fixed-spec plan.
    use sptrsv_tune::{AutoPlanBuilder, Tuner};
    let l = lower();
    let plan = PlanBuilder::auto_with(&Tuner::new(&l).cores(2))
        .expect("auto resolution on a well-formed operand")
        .runtime(Arc::new(SolverRuntime::new(2)))
        .build()
        .expect("auto-picked spec builds");
    let server = ServeBuilder::new(plan).max_batch(4).batch_wait(Duration::ZERO).start();
    let n = server.plan().internal_matrix().n_rows();
    for round in 0..6 {
        let b = rhs(n, round);
        let expected = server.plan().solve(&b);
        let response = server.submit(b).unwrap().wait();
        assert_eq!(response.x, expected, "round {round}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 6);
}
