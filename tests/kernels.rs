//! Kernel-layer integration tests: supernode/dense-block detection
//! round-trips, and the `fastmath=on` execution policy agrees with the
//! exact path to the documented `1e-12` relative tolerance across every
//! registered scheduler × execution model on the §6.2 suites.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::core::kernel::{DenseBlock, KernelOp, KernelPlan};
use sptrsv::core::registry;
use sptrsv::core::CompiledSchedule;
use sptrsv::prelude::*;

/// A random lower-triangular operand (ER, or narrow-band when `band` set).
fn random_lower(seed: u64, n: usize, density: f64, band: Option<f64>) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    match band {
        Some(b) => sptrsv::sparse::gen::narrow_band_lower(n, density.max(0.01), b, &mut rng),
        None => sptrsv::sparse::gen::erdos_renyi_lower(n, density, &mut rng),
    }
}

/// Asserts the plan's ops tile every cell of `compiled` exactly: walking
/// each cell's ops covers each of its row positions exactly once, in order,
/// with `Dense` ops anchored at their block's first row. Returns the total
/// number of rows covered.
fn assert_plan_tiles(l: &CsrMatrix, compiled: &CompiledSchedule, plan: &KernelPlan) -> usize {
    let mut covered = 0usize;
    let mut seen = vec![false; l.n_rows()];
    for step in 0..compiled.n_supersteps() {
        for core in 0..compiled.n_cores() {
            let cell = compiled.cell(step, core);
            let mut cursor = 0usize;
            for op in plan.cell_ops(step, core) {
                match *op {
                    KernelOp::Scalar { start, len } | KernelOp::Unrolled { start, len, .. } => {
                        assert_eq!(start as usize, cursor, "op out of order in cell");
                        cursor += len as usize;
                        assert!(len > 0, "empty run emitted");
                    }
                    KernelOp::Dense { block } => {
                        let blk = &plan.blocks()[block as usize];
                        assert_eq!(
                            cell[cursor], blk.first,
                            "dense op not anchored at its block's first row"
                        );
                        for (k, &row) in cell[cursor..cursor + blk.rows as usize].iter().enumerate()
                        {
                            assert_eq!(
                                row as usize,
                                blk.first as usize + k,
                                "block rows not consecutive"
                            );
                        }
                        cursor += blk.rows as usize;
                    }
                }
            }
            assert_eq!(cursor, cell.len(), "ops do not tile the cell");
            for &row in cell {
                assert!(!seen[row as usize], "row {row} covered twice");
                seen[row as usize] = true;
                covered += 1;
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "plan misses rows");
    covered
}

/// Asserts a packed block reproduces the CSR rows exactly: every panel
/// entry equals the matching CSR coefficient, zero where the CSR row has no
/// entry, and every CSR entry of the block's rows lands in a panel slot.
fn assert_block_round_trips(l: &CsrMatrix, blk: &DenseBlock) {
    let rows = blk.rows as usize;
    let first = blk.first as usize;
    for i in 0..rows {
        let (cols, vals) = l.row(first + i);
        let mut csr_entries = 0usize;
        // Off-block panel: the coefficient of union column `cols[c]`.
        for (ci, &uc) in blk.cols.iter().enumerate() {
            let packed = blk.off[ci * rows + i];
            match cols.binary_search(&(uc as usize)) {
                Ok(k) => {
                    assert_eq!(packed, vals[k], "off panel differs at ({}, {uc})", first + i);
                    csr_entries += 1;
                }
                Err(_) => {
                    assert_eq!(packed, 0.0, "zero padding corrupted at ({}, {uc})", first + i)
                }
            }
        }
        // In-block panel (lower triangle incl. diagonal).
        for j in 0..rows {
            let packed = blk.diag[j * rows + i];
            if j > i {
                assert_eq!(packed, 0.0, "upper triangle of diag panel must be zero");
                continue;
            }
            match cols.binary_search(&(first + j)) {
                Ok(k) => {
                    assert_eq!(
                        packed,
                        vals[k],
                        "diag panel differs at ({}, {})",
                        first + i,
                        first + j
                    );
                    csr_entries += 1;
                }
                Err(_) => assert_eq!(packed, 0.0, "diag zero padding corrupted"),
            }
        }
        assert_eq!(csr_entries, cols.len(), "CSR entries of row {} not all packed", first + i);
    }
}

/// Full detection round-trip for one operand under one schedule.
fn assert_detection_round_trips(l: &CsrMatrix, cores: usize) {
    let dag = SolveDag::from_lower_triangular(l);
    let schedule = GrowLocal::new().schedule(&dag, cores);
    let compiled = CompiledSchedule::from_schedule(&schedule);
    let plan = KernelPlan::detect(l, &compiled);
    assert_eq!(assert_plan_tiles(l, &compiled, &plan), l.n_rows());
    for blk in plan.blocks() {
        assert_block_round_trips(l, blk);
    }
    // The reciprocals are exactly 1/diagonal, bitwise.
    for i in 0..l.n_rows() {
        let (_, vals) = l.row(i);
        assert_eq!(plan.inv_diag()[i], 1.0 / vals[vals.len() - 1], "inv_diag[{i}]");
    }
    // The serial plan (one cell, natural order) round-trips too.
    let serial = KernelPlan::detect_serial(l);
    for blk in serial.blocks() {
        assert_block_round_trips(l, blk);
    }
    assert_eq!(serial.n_rows(), l.n_rows());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Block detection round-trips on random operands: the kernel plan
    // covers every row exactly once and packed dense blocks reproduce the
    // CSR coefficients (zero padding included).
    #[test]
    fn block_detection_round_trips_on_random_operands(
        seed in any::<u64>(),
        n in 2usize..140,
        density in 0.0f64..0.3,
        cores in 1usize..6,
        banded in any::<bool>(),
        band in 2.0f64..16.0,
    ) {
        let l = random_lower(seed, n, density, banded.then_some(band));
        assert_detection_round_trips(&l, cores);
    }

    // The same invariants on the structured extremes. Supernodal operands
    // (dense blocks over a shared parent set) are where detection must
    // actually fire; tridiagonal bundles are where the cost guard must
    // decline — packing them would inflate the arithmetic.
    #[test]
    fn block_detection_round_trips_on_supernodal_operands(
        blocks in 2usize..20,
        block_size in 4usize..12,
        couplings in 0usize..4,
        cores in 1usize..6,
    ) {
        let l = sptrsv::sparse::gen::supernodal_spd(blocks, block_size, couplings, 0.5)
            .lower_triangle()
            .expect("square SPD");
        assert_detection_round_trips(&l, cores);
        let plan = KernelPlan::detect_serial(&l);
        prop_assert!(plan.dense_coverage() > 0.5, "supernodal operands must detect dense blocks");
        let bundle = sptrsv::sparse::gen::block_diagonal_spd(blocks, block_size, 0.5)
            .lower_triangle()
            .expect("square SPD");
        prop_assert_eq!(
            KernelPlan::detect_serial(&bundle).blocks().len(),
            0,
            "chained bundles must stay scalar"
        );
    }
}

#[test]
fn fastmath_agrees_with_exact_path_on_every_suite_scheduler_and_model() {
    // The documented fastmath contract: for every §6.2 suite, every
    // registered scheduler and every execution model it supports, the
    // `fastmath=on` solution agrees with the same plan's exact
    // (`fastmath=off`) solution to 1e-12 relative tolerance — and repeated
    // fastmath solves are bit-stable.
    use sptrsv::exec::PlanBuilder;
    for kind in SuiteKind::all() {
        let suite = load_suite(kind, Scale::Test, 3);
        let ds = &suite[0];
        let n = ds.lower.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 17) as f64 / 7.0).collect();
        for info in registry::list() {
            for &model in info.exec_models {
                let spec = format!("{}@{model}", info.name);
                let exact = PlanBuilder::new(&ds.lower)
                    .scheduler(&spec)
                    .cores(4)
                    .build()
                    .unwrap_or_else(|e| panic!("`{spec}`: {e}"))
                    .solve(&b);
                let plan = PlanBuilder::new(&ds.lower)
                    .scheduler(format!("{}:fastmath=on@{model}", info.name))
                    .cores(4)
                    .build()
                    .unwrap_or_else(|e| panic!("`{spec}` fastmath: {e}"));
                assert!(plan.exec_policy().fastmath);
                let x = plan.solve(&b);
                let scale = exact.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                let err = x.iter().zip(&exact).fold(0.0f64, |m, (a, e)| m.max((a - e).abs()));
                assert!(
                    err / scale < 1e-12,
                    "`{spec}` fastmath on {} ({kind:?}): relative deviation {:.3e}",
                    ds.name,
                    err / scale
                );
                // Repeated fastmath solves are bit-stable on one plan.
                let mut ws = plan.workspace();
                let mut again = vec![f64::NAN; n];
                plan.solve_into(&b, &mut again, &mut ws);
                let reference = again.clone();
                again.fill(f64::NAN);
                plan.solve_into(&b, &mut again, &mut ws);
                assert_eq!(again, reference, "`{spec}` fastmath nondeterministic on {}", ds.name);
            }
        }
    }
}

#[test]
fn fastmath_multi_rhs_agrees_column_by_column() {
    // Every branch of the shared superstep engine, per execution model:
    // exact and fastmath kernels, every register-block width (1–8) and
    // wider solves split into blocks (9, 16), the degraded serial sweep
    // (capacity 1) and the leased one (capacity 3).
    // Each column of a `solve_batch_in_place` batch must equal that
    // column's `solve_into` bit-for-bit on the exact path, and within the
    // documented 1e-12 under fastmath (the multi-RHS rows run the scalar
    // fastmath kernel where a single RHS runs the lane-unrolled one).
    use sptrsv::exec::{ExecModel, PlanBuilder, SolverRuntime};
    use std::sync::Arc;
    let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 13);
    let ds = &suite[0];
    let n = ds.lower.n_rows();
    for capacity in [1, 3] {
        let runtime = Arc::new(SolverRuntime::new(capacity));
        for model in ExecModel::ALL {
            for fastmath in [false, true] {
                let plan = PlanBuilder::new(&ds.lower)
                    .cores(4)
                    .execution(model)
                    .scheduler(if fastmath { "growlocal:fastmath=on" } else { "growlocal" })
                    .runtime(Arc::clone(&runtime))
                    .build()
                    .unwrap();
                let mut ws = plan.workspace();
                let mut batch_ws = plan.batch_workspace(16);
                for r in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
                    let config = format!("{model} fastmath={fastmath} capacity={capacity} r={r}");
                    let b: Vec<Vec<f64>> = (0..r)
                        .map(|j| (0..n).map(|i| ((i * r + j) as f64 * 0.17).cos()).collect())
                        .collect();
                    let mut x = b.clone();
                    plan.solve_batch_in_place(&mut x, &mut batch_ws);
                    for (j, (bj, column)) in b.iter().zip(&x).enumerate() {
                        let mut xj = vec![f64::NAN; n];
                        plan.solve_into(bj, &mut xj, &mut ws);
                        if !fastmath {
                            assert_eq!(column, &xj, "{config} col {j} not bit-identical");
                            continue;
                        }
                        let scale = xj.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                        for i in 0..n {
                            assert!(
                                (column[i] - xj[i]).abs() / scale < 1e-12,
                                "{config} col {j} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
