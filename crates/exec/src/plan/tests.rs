use super::*;
use crate::sim::{simulate_model, MachineProfile, SimReport};
use sptrsv_core::registry::Backoff;
use sptrsv_core::serialize::PlanCache;
use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
use sptrsv_sparse::linalg::relative_residual;
use std::path::PathBuf;

fn lower() -> CsrMatrix {
    grid2d_laplacian(12, 10, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap()
}

/// The default scheduler with the `fastmath=` policy key set.
fn fastmath_spec(fastmath: bool) -> &'static str {
    if fastmath {
        "growlocal:fastmath=on"
    } else {
        "growlocal:fastmath=off"
    }
}

#[test]
fn lower_plan_solves() {
    let l = lower();
    let n = l.n_rows();
    for reorder in [false, true] {
        let plan =
            PlanBuilder::new(&l).scheduler("growlocal").cores(3).reorder(reorder).build().unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let x = plan.solve(&b);
        assert!(relative_residual(&l, &x, &b) < 1e-12, "reorder={reorder}");
    }
}

#[test]
fn upper_plan_solves() {
    let u = lower().transpose();
    let n = u.n_rows();
    let plan = PlanBuilder::new(&u)
        .orientation(Orientation::Upper)
        .scheduler("growlocal")
        .cores(3)
        .build()
        .unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
    let x = plan.solve(&b);
    assert!(relative_residual(&u, &x, &b) < 1e-12);
}

#[test]
fn orientation_mismatch_rejected() {
    let l = lower();
    assert!(matches!(
        PlanBuilder::new(&l).orientation(Orientation::Upper).cores(2).build(),
        Err(PlanError::Matrix(_))
    ));
    let u = l.transpose();
    assert!(matches!(
        PlanBuilder::new(&u).orientation(Orientation::Lower).cores(2).build(),
        Err(PlanError::Matrix(_))
    ));
}

#[test]
fn bad_spec_rejected() {
    let l = lower();
    assert!(matches!(
        PlanBuilder::new(&l).scheduler("not-a-scheduler").build(),
        Err(PlanError::Registry(_))
    ));
    assert!(matches!(
        PlanBuilder::new(&l).scheduler("growlocal:bogus=1").build(),
        Err(PlanError::Registry(_))
    ));
    assert!(matches!(
        PlanBuilder::new(&l).scheduler("growlocal@warp").build(),
        Err(PlanError::Registry(RegistryError::UnknownModel { .. }))
    ));
}

#[test]
fn execution_model_resolution() {
    let l = lower();
    // Registry default: growlocal -> barrier, spmp -> async.
    let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
    assert_eq!(plan.exec_model(), ExecModel::Barrier);
    assert_eq!(plan.executor().model(), ExecModel::Barrier);
    let plan = PlanBuilder::new(&l).scheduler("spmp").cores(2).build().unwrap();
    assert_eq!(plan.exec_model(), ExecModel::Async);
    // Spec suffix selects the model.
    let plan = PlanBuilder::new(&l).scheduler("growlocal@serial").cores(2).build().unwrap();
    assert_eq!(plan.exec_model(), ExecModel::Serial);
    // The typed knob overrides the suffix.
    let plan = PlanBuilder::new(&l)
        .scheduler("growlocal@serial")
        .execution(ExecModel::Async)
        .cores(2)
        .build()
        .unwrap();
    assert_eq!(plan.exec_model(), ExecModel::Async);
    assert_eq!(plan.executor().model(), ExecModel::Async);
}

#[test]
fn exec_policy_resolution_and_overrides() {
    let l = lower();
    // Defaults: reduced waits, spin loops.
    let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
    assert_eq!(plan.exec_policy(), ExecPolicy::default());
    // Spec keys select the policy.
    let plan = PlanBuilder::new(&l)
        .scheduler("growlocal:sync=full,backoff=yield@async")
        .cores(2)
        .build()
        .unwrap();
    assert_eq!(plan.exec_policy().sync, SyncPolicy::Full);
    assert_eq!(plan.exec_policy().backoff, Backoff::Yield);
    // A later occurrence of a key overrides an earlier one.
    let plan = PlanBuilder::new(&l)
        .scheduler("growlocal:sync=full,backoff=yield,sync=reduced,backoff=spin@async")
        .cores(2)
        .build()
        .unwrap();
    assert_eq!(plan.exec_policy(), ExecPolicy::default());
    // growlocal's own numeric `sync` is untouched by the policy key.
    let plan = PlanBuilder::new(&l).scheduler("growlocal:sync=2000").cores(2).build().unwrap();
    assert_eq!(plan.exec_policy().sync, SyncPolicy::Reduced);
}

#[test]
fn removed_policy_keys_are_rejected_by_name() {
    // `grant=`, `elastic=` and `shrink=` are not policy keys, nor are
    // the serving keys `batch=` / `batch_wait_us=` (set on the server)
    // or `plan_cache=` (set with `PlanBuilder::plan_cache`): a spec
    // carrying one fails with a registry error naming the key, never a
    // plan that silently ignores it.
    let l = lower();
    for spec in [
        "growlocal:grant=fair",
        "growlocal:elastic=on",
        "growlocal:shrink=on@barrier",
        "growlocal:batch=8",
        "growlocal:batch_wait_us=0",
        "growlocal:plan_cache=/tmp/x",
    ] {
        let key = spec["growlocal:".len()..].split('=').next().unwrap();
        let err = PlanBuilder::new(&l).scheduler(spec).cores(2).build().err();
        assert!(
            matches!(
                &err,
                Some(PlanError::Registry(RegistryError::UnknownParam { key: k, .. })) if k == key
            ),
            "`{spec}` gave {err:?}"
        );
    }
}

#[test]
fn fastmath_key_and_knob_resolve_and_solve_within_tolerance() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    // Default: off, bit-identical scalar kernels.
    let plan = PlanBuilder::new(&l).cores(2).build().unwrap();
    assert!(!plan.exec_policy().fastmath);
    // The spec key, and a later occurrence overriding it.
    let plan = PlanBuilder::new(&l).scheduler("growlocal:fastmath=on").cores(2).build().unwrap();
    assert!(plan.exec_policy().fastmath);
    let plan = PlanBuilder::new(&l)
        .scheduler("growlocal:fastmath=on,fastmath=off")
        .cores(2)
        .build()
        .unwrap();
    assert!(!plan.exec_policy().fastmath);
    // Bad value is a registry error.
    assert!(matches!(
        PlanBuilder::new(&l).scheduler("growlocal:fastmath=fast").build(),
        Err(PlanError::Registry(_))
    ));
    // Every execution model solves within the documented relative
    // tolerance of the exact path under fastmath.
    let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
    let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for model in ExecModel::ALL {
        let plan = PlanBuilder::new(&l)
            .scheduler(fastmath_spec(true))
            .cores(3)
            .execution(model)
            .build()
            .unwrap();
        assert!(plan.exec_policy().fastmath);
        let x = plan.solve(&b);
        let err = x.iter().zip(&reference).fold(0.0f64, |m, (a, e)| m.max((a - e).abs()));
        assert!(err / scale < 1e-12, "{model} fastmath deviated: rel {}", err / scale);
        assert!(relative_residual(&l, &x, &b) < 1e-12, "{model} fastmath residual");
    }
}

#[test]
fn batched_in_place_solves_are_bit_identical_to_standalone() {
    // The borrowed-RHS batch entry point the serving layer fuses
    // requests through: every fused column must match a standalone
    // solve of the same right-hand side bit-for-bit, at every batch
    // width and on every execution model.
    let l = lower();
    let n = l.n_rows();
    for model in ExecModel::ALL {
        let plan = PlanBuilder::new(&l).cores(3).execution(model).build().unwrap();
        let mut ws = plan.batch_workspace(4);
        for k in [1usize, 2, 3, 4] {
            let mut rhs: Vec<Vec<f64>> = (0..k)
                .map(|j| (0..n).map(|i| ((i * 7 + j * 31) % 23) as f64 - 11.0).collect())
                .collect();
            let standalone: Vec<Vec<f64>> = rhs.iter().map(|b| plan.solve(b)).collect();
            plan.solve_batch_in_place(&mut rhs, &mut ws);
            for (j, (x, expected)) in rhs.iter().zip(&standalone).enumerate() {
                assert_eq!(x, expected, "{model} batch width {k}, request {j}");
            }
        }
        // Empty batches are a no-op, not a panic.
        plan.solve_batch_in_place(&mut [], &mut ws);
    }
}

#[test]
fn batched_upper_and_preordered_plans_stay_exact() {
    // The fused permutation is the full chain (orientation reversal +
    // pre-order + §5 reorder), same as solve_into.
    let u = lower().transpose();
    let n = u.n_rows();
    let plan = PlanBuilder::new(&u)
        .orientation(Orientation::Upper)
        .pre_order(PreOrder::Rcm)
        .cores(3)
        .build()
        .unwrap();
    let mut rhs: Vec<Vec<f64>> =
        (0..3).map(|j| (0..n).map(|i| ((i + j * 17) % 9) as f64 - 4.0).collect()).collect();
    let standalone: Vec<Vec<f64>> = rhs.iter().map(|b| plan.solve(b)).collect();
    let mut ws = plan.batch_workspace(3);
    plan.solve_batch_in_place(&mut rhs, &mut ws);
    assert_eq!(rhs, standalone);
}

#[test]
fn every_runtime_capacity_and_model_solves_identically() {
    // The runtime capacity selects the lease width, never arithmetic:
    // every capacity and model is bit-identical to the roomy solve.
    use crate::runtime::SolverRuntime;
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
    let reference = PlanBuilder::new(&l).cores(4).build().unwrap().solve(&b);
    for capacity in 1..=4 {
        let runtime = Arc::new(SolverRuntime::new(capacity));
        for model in ExecModel::ALL {
            let plan = PlanBuilder::new(&l)
                .cores(4)
                .execution(model)
                .runtime(Arc::clone(&runtime))
                .build()
                .unwrap();
            assert_eq!(plan.solve(&b), reference, "{model} on capacity {capacity}");
        }
        assert_eq!(runtime.cores_in_use(), 0, "capacity {capacity} leaked leases");
    }
}

#[test]
fn cores_spec_key_and_typed_knob_resolve() {
    let l = lower();
    // Default: 8 cores.
    let plan = PlanBuilder::new(&l).build().unwrap();
    assert_eq!(plan.compiled().n_cores(), 8);
    // The spec's cores= policy key sizes the schedule.
    let plan = PlanBuilder::new(&l).scheduler("growlocal:cores=3").build().unwrap();
    assert_eq!(plan.compiled().n_cores(), 3);
    assert_eq!(plan.exec_policy().cores, Some(3));
    // The typed knob overrides the spec key.
    let plan = PlanBuilder::new(&l).scheduler("growlocal:cores=3").cores(2).build().unwrap();
    assert_eq!(plan.compiled().n_cores(), 2);
    // And a spec-sized plan solves correctly.
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 6) as f64).collect();
    let plan = PlanBuilder::new(&l).scheduler("spmp:cores=3@async").build().unwrap();
    let x = plan.solve(&b);
    assert!(relative_residual(&l, &x, &b) < 1e-12);
}

#[test]
fn explicit_runtime_handles_are_honored() {
    use crate::runtime::SolverRuntime;
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 9) as f64 - 4.0).collect();
    let reference = PlanBuilder::new(&l).cores(4).build().unwrap().solve(&b);
    let scaled = CsrMatrix::from_raw(
        n,
        n,
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.values().iter().map(|v| v * 0.5 - 0.125).collect(),
    )
    .unwrap();
    // A plan pinned to a tiny runtime degrades its 4-core schedule to
    // the runtime's capacity and still produces identical bits; the
    // runtime records the lease traffic.
    for capacity in [1, 2, 4] {
        let runtime = Arc::new(SolverRuntime::new(capacity));
        for model in [ExecModel::Barrier, ExecModel::Async] {
            let build = |m: &CsrMatrix| {
                PlanBuilder::new(m)
                    .cores(4)
                    .execution(model)
                    .runtime(Arc::clone(&runtime))
                    .build()
                    .unwrap()
            };
            let config = format!("{model} on capacity {capacity}");
            let plan = build(&l);
            assert_eq!(plan.solve(&b), reference, "{config}");
            // A value rebind keeps leasing from the caller's runtime:
            // one more handle on it, no fallback to the global one.
            let held = Arc::strong_count(&runtime);
            let rebound = plan.with_new_values(&scaled).unwrap();
            assert_eq!(Arc::strong_count(&runtime), held + 1, "{config}");
            let handle = rebound.executor.engine.runtime().expect("parallel plans lease");
            assert!(Arc::ptr_eq(handle.get(), &runtime), "{config}");
            assert_eq!(rebound.solve(&b), build(&scaled).solve(&b), "{config} rebound");
        }
        assert_eq!(runtime.cores_in_use(), 0, "solves leaked leases");
    }
}

#[test]
fn sync_policy_selects_the_wait_dag() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
    let full = PlanBuilder::new(&l).scheduler("spmp:sync=full").cores(3).build().unwrap();
    let reduced = PlanBuilder::new(&l).scheduler("spmp:sync=reduced").cores(3).build().unwrap();
    // The full policy waits on the final operand's DAG; the reduced one
    // on a strictly sparser DAG with identical reachability.
    let full_dag = full.sync_dag().expect("async plan has a sync DAG");
    let reduced_dag = reduced.sync_dag().expect("async plan has a sync DAG");
    assert_eq!(
        full_dag.n_edges(),
        SolveDag::from_lower_triangular(full.internal_matrix()).n_edges()
    );
    assert!(reduced_dag.n_edges() < full_dag.n_edges());
    // Barrier/serial plans carry none, and all policies solve alike.
    assert!(PlanBuilder::new(&l).cores(3).build().unwrap().sync_dag().is_none());
    assert_eq!(full.solve(&b), reduced.solve(&b));
}

#[test]
fn every_policy_combination_solves_identically() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() + 1.0).collect();
    let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
    for model in ExecModel::ALL {
        for sync in [SyncPolicy::Full, SyncPolicy::Reduced] {
            for backoff in [Backoff::Spin, Backoff::Yield] {
                let plan = PlanBuilder::new(&l)
                    .scheduler(format!("growlocal:sync={sync},backoff={backoff}"))
                    .cores(3)
                    .execution(model)
                    .build()
                    .unwrap();
                assert_eq!(plan.solve(&b), reference, "{model}/{sync}/{backoff} diverged");
            }
        }
    }
}

#[test]
fn repeated_pooled_solves_reuse_the_plan() {
    // Steady-state regime: many solves on one plan, same pool, stable
    // bit-for-bit results under both backoff policies.
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64).collect();
    for backoff in [Backoff::Spin, Backoff::Yield] {
        for model in [ExecModel::Barrier, ExecModel::Async] {
            let plan = PlanBuilder::new(&l)
                .scheduler(format!("growlocal:backoff={backoff}"))
                .cores(4)
                .execution(model)
                .build()
                .unwrap();
            let mut ws = plan.workspace();
            let mut x = vec![0.0; n];
            plan.solve_into(&b, &mut x, &mut ws);
            let reference = x.clone();
            for round in 0..50 {
                x.fill(f64::NAN); // dirty start: every slot must be rewritten
                plan.solve_into(&b, &mut x, &mut ws);
                assert_eq!(x, reference, "{model}/{backoff} round {round}");
            }
        }
    }
}

#[test]
fn concurrent_solves_on_one_shared_plan_are_correct() {
    // SolvePlan is Sync: two threads sharing one plan may solve
    // concurrently with their own buffers (sound under the seed's
    // scoped-spawn design; the pool serializes them on its run lock).
    let l = lower();
    let n = l.n_rows();
    for model in [ExecModel::Barrier, ExecModel::Async] {
        let plan = Arc::new(PlanBuilder::new(&l).cores(3).execution(model).build().unwrap());
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let expected = plan.solve(&b);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let plan = Arc::clone(&plan);
                let b = &b;
                let expected = &expected;
                scope.spawn(move || {
                    let mut ws = plan.workspace();
                    let mut x = vec![0.0; b.len()];
                    for round in 0..25 {
                        plan.solve_into(b, &mut x, &mut ws);
                        assert_eq!(&x, expected, "{model} round {round}");
                    }
                });
            }
        });
    }
}

#[test]
fn all_execution_models_solve_identically() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 4.0).collect();
    let reference = PlanBuilder::new(&l).cores(3).build().unwrap().solve(&b);
    for model in ExecModel::ALL {
        let plan = PlanBuilder::new(&l).cores(3).execution(model).build().unwrap();
        assert_eq!(plan.solve(&b), reference, "{model} diverged");
    }
}

#[test]
fn multi_rhs_through_plan() {
    let l = lower();
    let n = l.n_rows();
    let r = 3;
    for model in ExecModel::ALL {
        let plan = PlanBuilder::new(&l).cores(2).execution(model).build().unwrap();
        let b: Vec<Vec<f64>> =
            (0..r).map(|j| (0..n).map(|i| ((i * r + j) as f64 * 0.17).cos()).collect()).collect();
        let mut x = b.clone();
        plan.solve_batch_in_place(&mut x, &mut plan.batch_workspace(r));
        // Check each column against the single-RHS path.
        for (j, (bj, x)) in b.iter().zip(&x).enumerate() {
            let xj = plan.solve(bj);
            for i in 0..n {
                assert!((x[i] - xj[i]).abs() < 1e-12, "{model} col {j} row {i}");
            }
        }
    }
}

#[test]
fn wrong_length_operands_panic_under_every_model() {
    // Every executor owns the length contract (the plan's own checks
    // are bypassed here): an oversized or short `b`, or an oversized
    // `x`, is rejected instead of leaving part of `x` stale.
    let l = lower();
    let n = l.n_rows();
    for model in ExecModel::ALL {
        for fastmath in [false, true] {
            let plan = PlanBuilder::new(&l)
                .cores(2)
                .execution(model)
                .scheduler(fastmath_spec(fastmath))
                .build()
                .unwrap();
            let exec = plan.executor();
            let m = plan.internal_matrix();
            for (b_len, x_len) in [(n + 1, n), (n - 1, n), (n, n + 1)] {
                let panics = |f: &dyn Fn()| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
                };
                let solve = panics(&|| exec.solve(m, &vec![1.0; b_len], &mut vec![0.0; x_len]));
                let multi = panics(&|| {
                    exec.solve_multi(m, &vec![1.0; 2 * b_len], &mut vec![0.0; 2 * x_len], 2)
                });
                let config = format!("{model} fastmath={fastmath} b={b_len} x={x_len}");
                assert!(solve, "{config}: solve accepted wrong lengths");
                assert!(multi, "{config}: solve_multi accepted wrong lengths");
            }
        }
    }
}

#[test]
fn solve_into_matches_solve_and_reuses_buffers() {
    let l = lower();
    let n = l.n_rows();
    let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
    let mut ws = plan.workspace();
    let mut x = vec![0.0; n];
    for round in 0..3 {
        let b: Vec<f64> = (0..n).map(|i| (i + round) as f64 * 0.3 + 1.0).collect();
        plan.solve_into(&b, &mut x, &mut ws);
        assert_eq!(x, plan.solve(&b), "round {round}");
    }
}

#[test]
fn every_builder_knob_produces_a_correct_plan() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    for pre_order in
        [PreOrder::Natural, PreOrder::Rcm, PreOrder::MinDegree, PreOrder::NestedDissection]
    {
        for coarsen in [false, true] {
            for reorder in [false, true] {
                for model in ExecModel::ALL {
                    let plan = PlanBuilder::new(&l)
                        .scheduler("growlocal")
                        .cores(3)
                        .pre_order(pre_order)
                        .coarsen(coarsen)
                        .reorder(reorder)
                        .execution(model)
                        .build()
                        .unwrap_or_else(|e| {
                            panic!("{pre_order:?}/{coarsen}/{reorder}/{model}: {e}")
                        });
                    let x = plan.solve(&b);
                    assert!(
                        relative_residual(&l, &x, &b) < 1e-12,
                        "{pre_order:?}/coarsen={coarsen}/reorder={reorder}/{model}"
                    );
                }
            }
        }
    }
}

#[test]
fn pre_order_keeps_operand_triangular() {
    let l = lower();
    for pre_order in [PreOrder::Rcm, PreOrder::MinDegree, PreOrder::NestedDissection] {
        let plan = PlanBuilder::new(&l).pre_order(pre_order).cores(2).build().unwrap();
        assert!(plan.internal_matrix().is_lower_triangular(), "{pre_order:?}");
        assert!(plan.internal_matrix().has_nonzero_diagonal(), "{pre_order:?}");
    }
}

#[test]
fn upper_with_pre_order_and_funnel_spec() {
    let u = lower().transpose();
    let n = u.n_rows();
    let plan = PlanBuilder::new(&u)
        .orientation(Orientation::Upper)
        .scheduler("funnel-gl:cap=auto")
        .pre_order(PreOrder::Rcm)
        .cores(4)
        .build()
        .unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let x = plan.solve(&b);
    assert!(relative_residual(&u, &x, &b) < 1e-12);
}

#[test]
fn plan_simulation_routes_by_model() {
    let l = lower();
    let profile = MachineProfile::intel_xeon_22();
    let barrier = PlanBuilder::new(&l).cores(4).build().unwrap();
    let report = barrier.simulate(&profile);
    assert!(report.cycles > 0.0);
    // Deterministic and reusing the shared layout.
    assert_eq!(report, barrier.simulate(&profile));
    // Same schedule, no barriers in the async model's report.
    let asynchronous = PlanBuilder::new(&l).cores(4).execution(ExecModel::Async).build().unwrap();
    let areport = asynchronous.simulate(&profile);
    assert!(areport.cycles > 0.0);
    let serial = PlanBuilder::new(&l).cores(4).execution(ExecModel::Serial).build().unwrap();
    assert_eq!(serial.simulate(&profile).sync_cycles, 0.0);
}

#[test]
fn plan_simulation_reuses_its_kernel_plan() {
    // The plan's own kernel plan and stored wait DAG must price exactly as
    // what `simulate_model` derives when handed neither: a fresh detection
    // over the plan's operand, and the DAG of the `wait_dag` rule, for
    // every model and `sync=` policy. GrowLocal keeps each supernode of a
    // supernodal operand on one core, so its fastmath plans detect the
    // dense blocks whose discount is priced; SpMP spreads a grid's
    // wavefronts over the cores, so the reduction drops cross-core waits
    // the simulator charges.
    let supernodal = sptrsv_sparse::gen::supernodal_spd(24, 8, 2, 0.5).lower_triangle().unwrap();
    let profile = MachineProfile::kunpeng_920_48();
    let bits = |r: &SimReport| {
        [r.cycles.to_bits(), r.compute_cycles.to_bits(), r.sync_cycles.to_bits(), r.cache_misses]
    };
    for (l, scheduler) in [(&supernodal, "growlocal"), (&lower(), "spmp")] {
        for fastmath in ["off", "on"] {
            for model in ["@serial", "@barrier", ",sync=full@async", ",sync=reduced@async"] {
                let spec = format!("{scheduler}:fastmath={fastmath}{model}");
                let plan = PlanBuilder::new(l).scheduler(&spec).cores(4).build().unwrap();
                let blocks = plan.executor.engine.kernel().is_some_and(|k| !k.blocks().is_empty());
                assert!(blocks == (fastmath == "on") || scheduler == "spmp", "{spec}");
                assert_eq!(plan.sync_dag().is_some(), plan.exec_model() == ExecModel::Async);
                let derived = simulate_model(
                    plan.internal_matrix(),
                    plan.compiled(),
                    plan.exec_model(),
                    None,
                    None,
                    &profile,
                    plan.exec_policy(),
                );
                assert_eq!(bits(&plan.simulate(&profile)), bits(&derived), "{spec}");
            }
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn plan_cache_is_a_builder_setting() {
    let l = lower();
    let dir = temp_dir("sptrsv-plan-key-test");
    // The setter drives the disk cache; the policy struct is untouched
    // (the directory is a deployment path, not execution state).
    let plan = PlanBuilder::new(&l).plan_cache(&dir).cores(2).build().unwrap();
    assert_eq!(plan.exec_policy(), ExecPolicy::default());
    assert_ne!(plan.cache_outcome(), CacheOutcome::Uncached);
    // Without any cache configured: uncached, but still fingerprinted.
    let plain = PlanBuilder::new(&l).cores(2).build().unwrap();
    assert_eq!(plain.cache_outcome(), CacheOutcome::Uncached);
    assert_eq!(plain.fingerprint(), PlanBuilder::new(&l).cores(2).build().unwrap().fingerprint());
    // The spec cannot name a directory: `plan_cache=` is a registry error.
    assert!(matches!(
        PlanBuilder::new(&l).scheduler(format!("growlocal:plan_cache={}", dir.display())).build(),
        Err(PlanError::Registry(RegistryError::UnknownParam { .. }))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_cache_hits_share_artifacts_and_solve_identically() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 9) as f64).collect();
    let cache = Arc::new(PlanCache::new(8));
    let cold = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
    assert_eq!(cold.cache_outcome(), CacheOutcome::Miss);
    let warm = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
    assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
    // The warm plan shares the operand and compiled layout by pointer.
    assert!(Arc::ptr_eq(cold.executor.operand(), warm.executor.operand()));
    assert!(Arc::ptr_eq(&cold.executor.engine.compiled, &warm.executor.engine.compiled));
    assert_eq!(cold.solve(&b), warm.solve(&b));
    // A different spec or core count is a different fingerprint.
    let other = PlanBuilder::new(&l).cores(4).cached(&cache).build().unwrap();
    assert_eq!(other.cache_outcome(), CacheOutcome::Miss);
    let hdagg = PlanBuilder::new(&l).scheduler("hdagg").cores(3).cached(&cache).build().unwrap();
    assert_eq!(hdagg.cache_outcome(), CacheOutcome::Miss);
    // Policy/model changes hit the same entry (schedule identity is
    // policy- and model-invariant).
    let async_warm =
        PlanBuilder::new(&l).cores(3).execution(ExecModel::Async).cached(&cache).build().unwrap();
    assert_eq!(async_warm.cache_outcome(), CacheOutcome::MemoryHit);
    assert_eq!(async_warm.solve(&b), cold.solve(&b));
}

#[test]
fn memory_cache_rebinds_new_values_without_scheduling() {
    // Same structure, different values: still a memory hit — the
    // schedule is reused, the operand re-permuted.
    let l = lower();
    let n = l.n_rows();
    let cache = Arc::new(PlanCache::new(4));
    let cold = PlanBuilder::new(&l).cores(3).cached(&cache).build().unwrap();
    let scaled = CsrMatrix::from_raw(
        n,
        n,
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.values().iter().map(|v| v * 2.0).collect(),
    )
    .unwrap();
    let warm = PlanBuilder::new(&scaled).cores(3).cached(&cache).build().unwrap();
    assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
    let (cold_exec, warm_exec) = (&cold.executor, &warm.executor);
    let shared = Arc::ptr_eq(cold_exec.operand(), warm_exec.operand());
    assert!(!shared, "values differ, operand must not");
    assert!(Arc::ptr_eq(&cold_exec.engine.compiled, &warm_exec.engine.compiled));
    let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 - 5.0).collect();
    let reference = PlanBuilder::new(&scaled).cores(3).build().unwrap().solve(&b);
    assert_eq!(warm.solve(&b), reference);
}

#[test]
fn disk_cache_round_trips_bit_identically() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 + 0.5).collect();
    let dir = temp_dir("sptrsv-plan-disk-test");
    // Unique per-run subdirectory so reruns start cold.
    let dir = dir.join(format!("{:?}", std::thread::current().id()));
    for model in ExecModel::ALL {
        let cold = PlanBuilder::new(&l).cores(3).execution(model).plan_cache(&dir).build().unwrap();
        // First build of this fingerprint schedules and stores...
        let warm = PlanBuilder::new(&l).cores(3).execution(model).plan_cache(&dir).build().unwrap();
        // ...second loads (model is not part of the fingerprint, so all
        // three models share one file; the first model's cold build
        // already stored it for the rest).
        assert_eq!(warm.cache_outcome(), CacheOutcome::DiskHit, "{model}");
        assert_eq!(cold.solve(&b), warm.solve(&b), "{model} diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_load_skips_reduction_and_kernel_detection() {
    // An spmp@async (sync=reduced) + fastmath=on build persists both
    // derived artifacts; a warm load must replay them rather than
    // re-deriving — the transitive-reduction counter stays flat across
    // the warm build.
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.5 - (i % 7) as f64 * 0.25).collect();
    let dir =
        temp_dir("sptrsv-plan-warmreduce-test").join(format!("{:?}", std::thread::current().id()));
    let spec = "spmp:fastmath=on@async";
    let cold = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().unwrap();
    assert_eq!(cold.cache_outcome(), CacheOutcome::Miss);
    let before = sptrsv_dag::transitive::reduction_invocations();
    let warm = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().unwrap();
    let after = sptrsv_dag::transitive::reduction_invocations();
    assert_eq!(warm.cache_outcome(), CacheOutcome::DiskHit);
    assert_eq!(after, before, "warm disk load re-ran the transitive reduction");
    assert_eq!(
        warm.sync_dag.as_ref().map(|d| d.n_edges()),
        cold.sync_dag.as_ref().map(|d| d.n_edges()),
        "reconstructed reduced DAG differs from the built one"
    );
    assert_eq!(cold.solve(&b), warm.solve(&b));
    // A tampered syncdag section (an edge whose removal loses a
    // dependency) must error, never under-wait. Rewrite the saved file
    // with a forged removed-edge list.
    let path = dir.join(format!("{}.plan", cold.fingerprint()));
    let mut saved = sptrsv_core::serialize::read_plan_file(&path).unwrap();
    // Claim an edge with no two-path witness was removed: any source
    // edge of the full DAG whose parent has out-degree reaching only
    // it. Vertex 1's edge from 0 in a grid lower triangle works via
    // forging an out-of-range pair instead (simplest guaranteed-bad).
    saved.removed_sync_edges = Some(vec![(n + 1, n + 2)]);
    sptrsv_core::serialize::write_plan_file(&saved, &path).unwrap();
    let err = PlanBuilder::new(&l).scheduler(spec).cores(3).plan_cache(&dir).build().err();
    assert!(
        matches!(err, Some(PlanError::Cache(SerializeError::Parse(_)))),
        "forged removed-edge list accepted: {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_load_and_mismatches_error_not_mis_solve() {
    let l = lower();
    let dir = temp_dir("sptrsv-plan-saveload-test");
    let path = dir.join(format!("{:?}.plan", std::thread::current().id()));
    let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
    plan.save(&path).unwrap();
    // Explicit load: a disk hit with identical solutions.
    let loaded = PlanBuilder::new(&l).cores(3).load_plan(&path).build().unwrap();
    assert_eq!(loaded.cache_outcome(), CacheOutcome::DiskHit);
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 2.0 - (i % 3) as f64).collect();
    assert_eq!(plan.solve(&b), loaded.solve(&b));
    // Wrong matrix for the saved plan: fingerprint mismatch, an error.
    let other = grid2d_laplacian(11, 9, Stencil2D::FivePoint, 0.4).lower_triangle().unwrap();
    assert!(matches!(
        PlanBuilder::new(&other).cores(3).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
    ));
    // Wrong spec / core count: also a fingerprint mismatch.
    assert!(matches!(
        PlanBuilder::new(&l).cores(4).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
    ));
    // Truncated file: rejected.
    let text = std::fs::read_to_string(&path).unwrap();
    let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
    std::fs::write(&path, truncated).unwrap();
    assert!(matches!(
        PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
        Err(PlanError::Cache(_))
    ));
    // Corrupted assignment line: checksum rejects it (the checksum is
    // verified before any semantic validation, so a flipped digit can
    // never masquerade as a different valid plan).
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let idx = (6..lines.len() - 1).find(|&i| lines[i].contains('0')).unwrap();
    lines[idx] = lines[idx].replacen('0', "1", 1);
    std::fs::write(&path, lines.join("\n")).unwrap();
    assert!(matches!(
        PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::Checksum { .. }))
    ));
    // Version mismatch: rejected with the version error.
    std::fs::write(&path, text.replacen("v3", "v7", 1)).unwrap();
    assert!(matches!(
        PlanBuilder::new(&l).cores(3).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::Version { .. }))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn with_new_values_rebinds_without_scheduling() {
    let l = lower();
    let n = l.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 13) as f64 - 6.0).collect();
    let scaled = CsrMatrix::from_raw(
        n,
        n,
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.values().iter().map(|v| v * 1.5 + 0.25).collect(),
    )
    .unwrap();
    for model in ExecModel::ALL {
        for fastmath in [false, true] {
            let plan = PlanBuilder::new(&l)
                .cores(3)
                .execution(model)
                .scheduler(fastmath_spec(fastmath))
                .pre_order(PreOrder::Rcm)
                .build()
                .unwrap();
            let rebound = plan.with_new_values(&scaled).unwrap();
            // Schedule artifacts are shared by reference, not rebuilt.
            assert!(Arc::ptr_eq(&plan.executor.engine.compiled, &rebound.executor.engine.compiled));
            assert_eq!(plan.schedule(), rebound.schedule());
            // And the rebound plan solves the NEW matrix.
            let x = rebound.solve(&b);
            assert!(relative_residual(&scaled, &x, &b) < 1e-12, "{model}/fastmath={fastmath}");
            if !fastmath {
                let direct = PlanBuilder::new(&scaled)
                    .cores(3)
                    .execution(model)
                    .pre_order(PreOrder::Rcm)
                    .build()
                    .unwrap();
                assert_eq!(x, direct.solve(&b), "{model} rebind != direct build");
            }
        }
    }
    // A different structure is refused, never mis-solved.
    let other = grid2d_laplacian(12, 10, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
    assert!(matches!(plan.with_new_values(&other), Err(PlanError::StructureMismatch { .. })));
    // A zero diagonal in the new values is a singularity error.
    let mut zeroed = l.values().to_vec();
    let diag_pos = l.row_ptr()[1] - 1; // last entry of row 0 is the diagonal
    zeroed[diag_pos] = 0.0;
    let singular =
        CsrMatrix::from_raw(n, n, l.row_ptr().to_vec(), l.col_idx().to_vec(), zeroed).unwrap();
    assert!(matches!(plan.with_new_values(&singular), Err(PlanError::Matrix(_))));
}

#[test]
fn upper_plans_rebind_values_through_the_full_chain() {
    // with_new_values must reproduce the whole permutation pipeline
    // (orientation reversal + reorder) with one composed gather.
    let u = lower().transpose();
    let n = u.n_rows();
    let scaled = CsrMatrix::from_raw(
        n,
        n,
        u.row_ptr().to_vec(),
        u.col_idx().to_vec(),
        u.values().iter().map(|v| v * 0.75).collect(),
    )
    .unwrap();
    let plan = PlanBuilder::new(&u).orientation(Orientation::Upper).cores(3).build().unwrap();
    let rebound = plan.with_new_values(&scaled).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let x = rebound.solve(&b);
    assert!(relative_residual(&scaled, &x, &b) < 1e-12);
}

/// Operands for the fused-permutation tests: a stencil, a supernodal
/// matrix (dense blocks under `fastmath=on`) and a random matrix with
/// long rows (lane-unrolled rows under `fastmath=on`).
fn permutation_operands() -> Vec<CsrMatrix> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    vec![
        lower(),
        sptrsv_sparse::gen::supernodal_spd(12, 8, 2, 0.5).lower_triangle().unwrap(),
        sptrsv_sparse::gen::erdos_renyi_lower(120, 0.2, &mut rng),
    ]
}

/// Largest deviation of `x` from `reference`, relative to the
/// reference's largest magnitude (at least 1).
fn scaled_deviation(x: &[f64], reference: &[f64]) -> f64 {
    let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    x.iter().zip(reference).map(|(a, e)| (a - e).abs()).fold(0.0, f64::max) / scale
}

#[test]
fn fused_permutation_matches_gather_solve_scatter() {
    // The row kernels read `b` and write `x` through the plan's
    // permutation. The oracle is the path they replace: gather `b`
    // into internal order, `executor().solve` on the internal operand,
    // scatter `x` back. Runs under the CI ThreadSanitizer step, which
    // thereby covers the cross-thread writes into the caller's buffer.
    use crate::runtime::SolverRuntime;
    let runtimes = [1, 3].map(|capacity| Arc::new(SolverRuntime::new(capacity)));
    let (mut dense_rows, mut unrolled_rows) = (0, 0);
    for operand in permutation_operands() {
        let n = operand.n_rows();
        let columns: Vec<Vec<f64>> = (0..16)
            .map(|j| (0..n).map(|i| 1.0 + ((i * 7 + j * 13) % 11) as f64).collect())
            .collect();
        for (orientation, m) in
            [(Orientation::Lower, operand.clone()), (Orientation::Upper, operand.transpose())]
        {
            for model in ExecModel::ALL {
                let mut cases = Vec::new();
                for fastmath in [false, true] {
                    for reorder in [false, true] {
                        cases.extend(runtimes.iter().map(|rt| (fastmath, reorder, rt)));
                    }
                }
                for (fastmath, reorder, runtime) in cases {
                    let plan = PlanBuilder::new(&m)
                        .orientation(orientation)
                        .cores(3)
                        .execution(model)
                        .scheduler(fastmath_spec(fastmath))
                        .reorder(reorder)
                        .runtime(Arc::clone(runtime))
                        .build()
                        .unwrap();
                    let config = format!(
                        "n={n} {orientation:?} {model} fastmath={fastmath} reorder={reorder} \
                         capacity={}",
                        runtime.capacity()
                    );
                    if let Some(k) = plan.executor.engine.kernel() {
                        dense_rows += k.dense_rows();
                        unrolled_rows += k.unrolled_rows();
                    }
                    let old_of_new = plan.to_internal.old_of_new();
                    let mut ws = plan.workspace();
                    let mut singles = Vec::new();
                    for b in &columns {
                        let pb: Vec<f64> = old_of_new.iter().map(|&old| b[old]).collect();
                        let mut px = vec![0.0; n];
                        plan.executor().solve(plan.internal_matrix(), &pb, &mut px);
                        let mut expected = vec![0.0; n];
                        for (&v, &old) in px.iter().zip(old_of_new) {
                            expected[old] = v;
                        }
                        let mut x = vec![f64::NAN; n];
                        plan.solve_into(b, &mut x, &mut ws);
                        assert!(x.iter().all(|v| !v.is_nan()), "{config}: unwritten slot");
                        assert_eq!(x, expected, "{config}: solve_into");
                        singles.push(x);
                    }
                    let mut batch_ws = plan.batch_workspace(16);
                    // Every register-block width, and wider batches
                    // split into blocks of 8.
                    for k in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
                        let mut batch = columns[..k].to_vec();
                        plan.solve_batch_in_place(&mut batch, &mut batch_ws);
                        for (j, single) in singles[..k].iter().enumerate() {
                            if fastmath {
                                let db = scaled_deviation(&batch[j], single);
                                assert!(db < 1e-12, "{config}: batch k={k} col {j}");
                            } else {
                                assert_eq!(&batch[j], single, "{config}: batch k={k} col {j}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(dense_rows > 0, "no fastmath plan exercised the dense block kernels");
    assert!(unrolled_rows > 0, "no fastmath plan exercised the lane-unrolled kernels");
}

#[test]
fn degenerate_operands_solve_through_every_entry_point() {
    // Empty, 1 × 1 and diagonal-only operands through `solve_into` and
    // `solve_batch_in_place`, under every spec the
    // benchmark drives plus the serial and fastmath variants.
    let diagonal = |d: &[f64]| {
        let mut coo = sptrsv_sparse::CooMatrix::new(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            coo.push(i, i, v).unwrap();
        }
        coo.to_csr()
    };
    let operands: [Vec<f64>; 3] =
        [vec![], vec![4.0], (0..37).map(|i| 1.5 + (i % 5) as f64).collect()];
    let specs = [
        "growlocal",
        "funnel-gl",
        "hdagg",
        "spmp",
        "wavefront",
        "growlocal@serial",
        "growlocal:fastmath=on",
        "spmp:fastmath=on@async",
    ];
    for d in &operands {
        let (m, n) = (diagonal(d), d.len());
        for orientation in [Orientation::Lower, Orientation::Upper] {
            for spec in specs {
                let config = format!("n={n} {orientation:?} {spec}");
                let plan = PlanBuilder::new(&m)
                    .orientation(orientation)
                    .scheduler(spec)
                    .cores(2)
                    .build()
                    .unwrap_or_else(|e| panic!("{config}: {e}"));
                let column =
                    |j: usize| -> Vec<f64> { (0..n).map(|i| (i + 2 * j) as f64 - 3.5).collect() };
                let close = |x: &[f64], b: &[f64], what: &str| {
                    for i in 0..n {
                        let want = b[i] / d[i];
                        assert!(
                            (x[i] - want).abs() <= 1e-12 * want.abs(),
                            "{config} {what}: x[{i}] = {} vs {want}",
                            x[i]
                        );
                    }
                };
                let mut x = vec![f64::NAN; n];
                plan.solve_into(&column(0), &mut x, &mut plan.workspace());
                close(&x, &column(0), "solve_into");
                let mut ws = plan.batch_workspace(3);
                for k in 1..=3 {
                    let mut batch: Vec<Vec<f64>> = (0..k).map(column).collect();
                    plan.solve_batch_in_place(&mut batch, &mut ws);
                    for (j, x) in batch.iter().enumerate() {
                        close(x, &column(j), "solve_batch_in_place");
                    }
                }
            }
        }
    }
}
