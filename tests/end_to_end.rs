//! End-to-end integration tests: datasets → registry → schedulers →
//! executors.
//!
//! Every registered scheduler must produce a valid schedule on every suite,
//! and every executor must reproduce the serial solution
//! bit-for-bit-close. The scheduler set comes from
//! `sptrsv_core::registry::list()` — there is no hand-rolled list to drift.

use sptrsv::core::registry;
use sptrsv::core::CompiledSchedule;
use sptrsv::dag::transitive::{approximate_transitive_reduction, reduction_invocations};
use sptrsv::exec::verify::deviation_from_serial;
use sptrsv::exec::{
    backward_error, solve_lower_serial, ExecModel, Executor, PlanBuilder, BACKWARD_ERROR_TOL,
};
use sptrsv::prelude::*;

#[test]
fn every_registered_scheduler_is_valid_and_correct_on_every_suite() {
    for kind in SuiteKind::all() {
        let suite = load_suite(kind, Scale::Test, 3);
        // One representative instance per suite keeps the test fast.
        let ds = &suite[0];
        let dag = ds.dag();
        let n = ds.lower.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 17) as f64 / 7.0).collect();
        for info in registry::list() {
            let sched = registry::resolve(info.name, &dag, 4).expect("registered");
            let s = sched.schedule(&dag, 4);
            s.validate(&dag)
                .unwrap_or_else(|e| panic!("{} invalid on {} ({kind:?}): {e}", info.name, ds.name));
            let mut x = vec![0.0; n];
            solve_with_barriers(&ds.lower, &s, &b, &mut x).expect("validated above");
            let dev = deviation_from_serial(&ds.lower, &b, &x);
            assert!(dev < 1e-10, "{} on {}: deviation {dev}", info.name, ds.name);
        }
    }
}

#[test]
fn all_executors_agree_through_the_compiled_schedule() {
    // Acceptance check: barrier, multi-RHS, async and simulated executions
    // all run off the same CompiledSchedule layout; the numeric ones must be
    // bit-identical-close to the serial reference.
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 11);
    let ds = &suite[1 % suite.len()];
    let dag = ds.dag();
    let n = ds.lower.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 29) % 31) as f64 / 7.0 - 2.0).collect();
    let schedule = {
        let sched = registry::resolve("growlocal", &dag, 4).unwrap();
        sched.schedule(&dag, 4)
    };
    // Barrier executor.
    let mut x_barrier = vec![0.0; n];
    solve_with_barriers(&ds.lower, &schedule, &b, &mut x_barrier).expect("valid");
    assert!(deviation_from_serial(&ds.lower, &b, &x_barrier) < 1e-12);
    // The barrier executor's multi-RHS path with r = 1 must match exactly.
    let multi = Executor::new(&ds.lower, &schedule, ExecModel::Barrier).expect("valid");
    let mut x_multi = vec![0.0; n];
    multi.solve_multi(&ds.lower, &b, &mut x_multi, 1);
    assert_eq!(x_barrier, x_multi, "multi-RHS r=1 diverged from barrier executor");
    // Async executor waiting on the full DAG.
    let asynchronous = Executor::new(&ds.lower, &schedule, ExecModel::Async).expect("valid");
    let mut x_async = vec![0.0; n];
    asynchronous.solve(&ds.lower, &b, &mut x_async);
    assert_eq!(x_barrier, x_async, "async executor diverged from barrier executor");
    // Simulator runs the same cells; determinism pins the traversal.
    let profile = MachineProfile::intel_xeon_22();
    let compiled = CompiledSchedule::from_schedule(&schedule);
    assert_eq!(
        simulate_barrier(&ds.lower, &compiled, &profile),
        simulate_barrier(&ds.lower, &compiled, &profile)
    );
}

#[test]
fn every_scheduler_model_pair_is_one_spec_string_and_all_models_agree() {
    // Acceptance check: every (scheduler × supported execution model) pair
    // of `registry::list()` is reachable through a single spec string via
    // `PlanBuilder`, and on the same problem all execution models of one
    // scheduler produce the identical solution (the executors share the
    // per-row arithmetic, so agreement is bitwise).
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 11);
    let ds = &suite[0];
    let n = ds.lower.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 29) % 31) as f64 / 7.0 - 2.0).collect();
    for info in registry::list() {
        let mut reference: Option<Vec<f64>> = None;
        for &model in info.exec_models {
            let spec = format!("{}@{model}", info.name);
            let plan = PlanBuilder::new(&ds.lower)
                .scheduler(&spec)
                .cores(4)
                .build()
                .unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(plan.exec_model(), model, "`{spec}` resolved the wrong model");
            assert_eq!(plan.executor().model(), model);
            let x = plan.solve(&b);
            assert!(
                deviation_from_serial(&ds.lower, &b, &x) < 1e-10,
                "`{spec}` diverged from serial"
            );
            // Multi-RHS goes through the same trait object.
            let mut xm = vec![b.clone(), b.iter().map(|&v| -v).collect()];
            plan.solve_batch_in_place(&mut xm, &mut plan.batch_workspace(2));
            for i in 0..n {
                assert_eq!(xm[0][i], x[i], "`{spec}` multi-RHS column 0 differs at {i}");
            }
            match &reference {
                None => reference = Some(x),
                Some(r) => assert_eq!(&x, r, "`{spec}` differs from {}'s first model", info.name),
            }
        }
        // The execution policy dimensions must not change the solution
        // either: every sync/backoff variant of the scheduler's async
        // execution (when supported) matches the reference bitwise.
        if info.exec_models.contains(&ExecModel::Async) {
            for policy in [
                "sync=full",
                "sync=reduced",
                "backoff=spin",
                "backoff=yield",
                "sync=full,backoff=yield",
            ] {
                let spec = format!("{}:{policy}@async", info.name);
                let plan = PlanBuilder::new(&ds.lower)
                    .scheduler(&spec)
                    .cores(4)
                    .build()
                    .unwrap_or_else(|e| panic!("`{spec}`: {e}"));
                let x = plan.solve(&b);
                assert_eq!(
                    Some(&x),
                    reference.as_ref(),
                    "`{spec}` diverged from {}'s reference",
                    info.name
                );
            }
        }
    }
}

#[test]
fn repeated_pooled_solves_are_bit_identical_to_serial() {
    // The steady-state contract of the persistent pool: 100 consecutive
    // `solve_into` calls on one plan are bit-identical to the serial
    // reference, for each execution model. Without reordering the internal
    // operand equals the input, and every executor computes each row's dot
    // product in the same CSR order — so agreement is exact, not just close.
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 21);
    let ds = &suite[0];
    let n = ds.lower.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 / 3.0 - 2.0).collect();
    let mut serial = vec![0.0; n];
    solve_lower_serial(&ds.lower, &b, &mut serial);
    for model in ExecModel::ALL {
        let plan =
            PlanBuilder::new(&ds.lower).cores(4).reorder(false).execution(model).build().unwrap();
        let mut ws = plan.workspace();
        let mut x = vec![0.0; n];
        for round in 0..100 {
            x.fill(f64::NAN); // a correct solve rewrites every slot
            plan.solve_into(&b, &mut x, &mut ws);
            assert_eq!(x, serial, "{model} diverged from serial on round {round}");
        }
    }
}

#[test]
fn async_plans_build_their_sync_dag_exactly_once() {
    // Acceptance check for the planner's wait-DAG derivation: an async
    // plan under `sync=reduced` performs exactly one approximate transitive
    // reduction, whichever scheduler built its schedule (`spmp` levels the
    // full DAG and leaves the reduction to the planner like every other),
    // and `sync=full` plans never reduce at all. The invocation counter is
    // thread-local, so concurrently running tests cannot disturb the deltas.
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 22);
    let ds = &suite[0];

    let before = reduction_invocations();
    let plan = PlanBuilder::new(&ds.lower).scheduler("spmp").cores(4).build().unwrap();
    assert_eq!(plan.exec_model(), ExecModel::Async, "spmp defaults to async");
    assert_eq!(reduction_invocations() - before, 1, "spmp@async must reduce exactly once");
    assert!(plan.sync_dag().is_some());

    let before = reduction_invocations();
    let plan = PlanBuilder::new(&ds.lower).scheduler("growlocal@async").cores(4).build().unwrap();
    assert_eq!(reduction_invocations() - before, 1, "growlocal@async must reduce exactly once");
    assert!(plan.sync_dag().is_some());

    let before = reduction_invocations();
    let plan = PlanBuilder::new(&ds.lower).scheduler("spmp:sync=full").cores(4).build().unwrap();
    assert_eq!(reduction_invocations() - before, 0, "sync=full must not reduce");
    let full = plan.sync_dag().expect("async plan carries its wait DAG");
    assert_eq!(
        full.n_edges(),
        SolveDag::from_lower_triangular(plan.internal_matrix()).n_edges(),
        "sync=full waits on the full final DAG"
    );

    // Barrier and serial plans never touch the reduction.
    let before = reduction_invocations();
    let plan = PlanBuilder::new(&ds.lower).scheduler("spmp@barrier").cores(4).build().unwrap();
    assert_eq!(reduction_invocations() - before, 0, "spmp@barrier must not reduce");
    assert!(plan.sync_dag().is_none());
}

#[test]
fn nested_scope_changes_the_inner_schedule_through_the_plan() {
    // `funnel-gl:gl.alpha=…` must demonstrably change the inner GrowLocal's
    // schedule, end to end through PlanBuilder.
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 4);
    let ds = &suite[0];
    let n = ds.lower.n_rows();
    let base = PlanBuilder::new(&ds.lower)
        .scheduler("funnel-gl:cap=16")
        .cores(4)
        .build()
        .expect("valid plan");
    let tuned = PlanBuilder::new(&ds.lower)
        .scheduler("funnel-gl:cap=16,gl.alpha=1,gl.growth=1.01,gl.sync=0")
        .cores(4)
        .build()
        .expect("valid plan");
    assert_ne!(
        base.schedule(),
        tuned.schedule(),
        "gl.* overrides did not change the inner schedule"
    );
    // Both remain correct solvers.
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    for plan in [&base, &tuned] {
        assert!(deviation_from_serial(&ds.lower, &b, &plan.solve(&b)) < 1e-10);
    }
}

#[test]
fn exec_model_knob_and_spec_suffix_agree() {
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 12);
    let ds = &suite[0];
    let n = ds.lower.n_rows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
    for model in ExecModel::ALL {
        let via_spec = PlanBuilder::new(&ds.lower)
            .scheduler(format!("growlocal@{model}"))
            .cores(3)
            .build()
            .unwrap();
        let via_knob = PlanBuilder::new(&ds.lower)
            .scheduler("growlocal")
            .execution(model)
            .cores(3)
            .build()
            .unwrap();
        assert_eq!(via_spec.exec_model(), via_knob.exec_model());
        assert_eq!(via_spec.solve(&b), via_knob.solve(&b), "{model}");
    }
}

#[test]
fn plan_builder_full_pipeline_on_suites() {
    use sptrsv::exec::PreOrder;
    for kind in [SuiteKind::SuiteSparse, SuiteKind::NarrowBandwidth] {
        let suite = load_suite(kind, Scale::Test, 9);
        let ds = &suite[0];
        let n = ds.lower.n_rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 1.5).collect();
        let plan = PlanBuilder::new(&ds.lower)
            .scheduler("funnel-gl:cap=auto")
            .cores(4)
            .pre_order(PreOrder::Rcm)
            .build()
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let x = plan.solve(&b);
        // The reordered system evaluates the same sums in a different order,
        // so on ill-conditioned random instances the solution is only
        // backward-stable-close to the serial one: check the residual.
        let residual = sptrsv::sparse::linalg::relative_residual(&ds.lower, &x, &b);
        assert!(
            residual < 1e-8,
            "builder pipeline diverged on {} (relative residual {residual:.3e})",
            ds.name
        );
    }
}

#[test]
fn reordered_problem_solves_identically() {
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 5);
    for ds in suite.iter().take(3) {
        let dag = ds.dag();
        let schedule = GrowLocal::new().schedule(&dag, 4);
        let reordered = reorder_for_locality(&ds.lower, &schedule).expect("topological");
        let n = ds.lower.n_rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() + 2.0).collect();
        // Solve in the reordered space and map back.
        let pb = reordered.permutation.apply_vec(&b);
        let mut px = vec![0.0; n];
        solve_with_barriers(&reordered.matrix, &reordered.schedule, &pb, &mut px).expect("valid");
        let x = reordered.permutation.apply_inverse_vec(&px);
        assert!(
            deviation_from_serial(&ds.lower, &b, &x) < 1e-9,
            "reordered solve differs on {}",
            ds.name
        );
    }
}

#[test]
fn async_executor_correct_on_hard_instance() {
    let suite = load_suite(SuiteKind::NarrowBandwidth, Scale::Test, 6);
    let ds = &suite[0];
    // SpMP's 4-core schedule waiting on the reduced DAG; without
    // reordering, the internal operand is the suite's lower triangle.
    let plan = PlanBuilder::new(&ds.lower)
        .scheduler("spmp:sync=reduced@async")
        .cores(4)
        .reorder(false)
        .build()
        .expect("valid");
    assert_eq!(plan.internal_matrix(), &ds.lower);
    let reduced = approximate_transitive_reduction(&ds.dag());
    assert_eq!(plan.sync_dag().map(|d| d.n_edges()), Some(reduced.n_edges()));
    let n = ds.lower.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
    let mut x = vec![0.0; n];
    plan.executor().solve(plan.internal_matrix(), &b, &mut x);
    assert!(deviation_from_serial(&ds.lower, &b, &x) < 1e-10);
}

#[test]
fn growlocal_reduces_barriers_on_all_suites() {
    // Table 7.2's qualitative claim: GrowLocal needs far fewer barriers than
    // there are wavefronts, on every suite.
    for kind in SuiteKind::all() {
        let suite = load_suite(kind, Scale::Test, 7);
        for ds in suite.iter().take(2) {
            let dag = ds.dag();
            let s = GrowLocal::new().schedule(&dag, 4);
            let wf = wavefronts(&dag).n_fronts();
            assert!(
                s.n_supersteps() <= wf,
                "{}: {} supersteps vs {} wavefronts",
                ds.name,
                s.n_supersteps(),
                wf
            );
        }
    }
}

#[test]
fn schedules_are_deterministic() {
    let suite = load_suite(SuiteKind::Metis, Scale::Test, 8);
    let ds = &suite[0];
    let dag = ds.dag();
    for info in registry::list() {
        let sched = registry::resolve(info.name, &dag, 4).expect("registered");
        let a = sched.schedule(&dag, 4);
        let b = sched.schedule(&dag, 4);
        assert_eq!(a, b, "{} is nondeterministic", info.name);
    }
}

#[test]
fn reorder_off_plans_match_the_users_serial_solve_and_default_plans_their_internal_one() {
    // The bit-identity contract as it holds: a `reorder(false)` plan's
    // `solve_into` is bit-identical to `solve_lower_serial` on the user's
    // matrix. A default plan (with the §5 reordering) is bit-identical to
    // `solve_lower_serial` on its `internal_matrix()`; on the user's matrix
    // it sums each row in another order, so it is held to
    // `BACKWARD_ERROR_TOL` there. Every scheduler × model, on the three
    // suites drift-bench solves.
    for kind in [SuiteKind::SuiteSparse, SuiteKind::NarrowBandwidth, SuiteKind::ErdosRenyi] {
        let ds = &load_suite(kind, Scale::Test, 3)[0];
        let n = ds.lower.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 17) as f64 / 7.0).collect();
        let mut user_serial = vec![0.0; n];
        solve_lower_serial(&ds.lower, &b, &mut user_serial);
        for info in registry::list() {
            for &model in info.exec_models {
                let spec = format!("{}@{model}", info.name);
                let ctx = format!("`{spec}` on {}", ds.name);
                let build = |reorder: bool| {
                    PlanBuilder::new(&ds.lower)
                        .scheduler(&spec)
                        .cores(3)
                        .reorder(reorder)
                        .build()
                        .unwrap_or_else(|e| panic!("{ctx}, reorder={reorder}: {e}"))
                };
                let plain = build(false);
                let x = plain.solve(&b);
                assert!(
                    x.iter().zip(&user_serial).all(|(a, s)| a.to_bits() == s.to_bits()),
                    "{ctx}, reorder=false: not bit-identical to the user's serial solve"
                );
                let reordered = build(true);
                let internal = reordered.internal_matrix();
                let mut px = vec![0.0; n];
                reordered.executor().solve(internal, &b, &mut px);
                let mut internal_serial = vec![0.0; n];
                solve_lower_serial(internal, &b, &mut internal_serial);
                assert!(
                    px.iter().zip(&internal_serial).all(|(a, s)| a.to_bits() == s.to_bits()),
                    "{ctx}: not bit-identical to the serial solve of its internal operand"
                );
                let x = reordered.solve(&b);
                let err = backward_error(&ds.lower, &x, &b);
                assert!(
                    err <= BACKWARD_ERROR_TOL,
                    "{ctx}: backward error {err} on the user's matrix"
                );
            }
        }
    }
}
