//! Adversarial structures through GrowLocal and Funnel coarsening.
//!
//! The degenerate inputs a scheduler meets at the edges of its contract:
//! no rows, one row, a diagonal, one chain, a fully dense triangle,
//! disconnected blocks, all-zero weights, many more cores than rows, and
//! the Erdős–Rényi operand on which GrowLocal once grew one serial
//! superstep. Every plan must carry a valid schedule. Without the §5
//! reordering its `solve_into` is bit-identical to the serial substitution
//! on the user's matrix; with it, bit-identical on the plan's internal
//! operand, and on the user's matrix too wherever the case says so.

use sptrsv::core::{auto_part_weight_cap, coarsen_and_schedule, registry, GrowLocal};
use sptrsv::dag::coarsen::{FunnelDirection, FunnelOptions};
use sptrsv::exec::{backward_error, solve_lower_serial, PlanBuilder, BACKWARD_ERROR_TOL};
use sptrsv::prelude::*;

/// The scheduler specs under test; each also runs behind
/// `PlanBuilder::coarsen(true)`.
const SPECS: [&str; 3] = ["growlocal", "growlocal:priority=id-only", "funnel-gl"];

/// A lower-triangular matrix from per-row strictly-lower column lists; the
/// diagonal is appended, values are deterministic and diagonally dominant.
fn lower(rows: &[Vec<usize>]) -> CsrMatrix {
    let n = rows.len();
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for (i, cols) in rows.iter().enumerate() {
        for (k, &j) in cols.iter().enumerate() {
            col_idx.push(j);
            values.push(-0.5 / (1 + k + (i + j) % 3) as f64);
        }
        col_idx.push(i);
        values.push(2.0 + (i % 5) as f64);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(n, n, row_ptr, col_idx, values).expect("valid lower triangle")
}

fn diagonal(n: usize) -> CsrMatrix {
    lower(&vec![Vec::new(); n])
}

fn chain(n: usize) -> CsrMatrix {
    lower(&(0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect::<Vec<_>>())
}

fn dense(n: usize) -> CsrMatrix {
    lower(&(0..n).map(|i| (0..i).collect()).collect::<Vec<_>>())
}

/// Block-diagonal: a dense triangle, a chain, a diagonal run and a small
/// tree, with no edge between blocks.
fn disconnected_blocks() -> CsrMatrix {
    let mut rows: Vec<Vec<usize>> = Vec::new();
    let dense_block = 12;
    for i in 0..dense_block {
        rows.push((0..i).collect());
    }
    let base = rows.len();
    for i in 0..30 {
        rows.push(if i == 0 { vec![] } else { vec![base + i - 1] });
    }
    for _ in 0..10 {
        rows.push(Vec::new());
    }
    let base = rows.len();
    rows.extend([vec![], vec![], vec![base, base + 1], vec![], vec![base + 2, base + 3]]);
    lower(&rows)
}

/// The cases, each with whether its reordered plans are bit-identical to
/// the serial substitution on the user's matrix as well. The §5
/// reordering sums a row in internal column order; on the random operand
/// that order differs from the user's, so only the internal operand and
/// the backward error pin its reordered solve.
fn cases() -> Vec<(&'static str, CsrMatrix, bool)> {
    vec![
        ("n = 0", diagonal(0), true),
        ("n = 1", diagonal(1), true),
        ("diagonal only", diagonal(64), true),
        ("one chain", chain(300), true),
        // Dense triangles probe about n/3 times per vertex-plus-edge (18.7
        // at n = 60), over funnel coarsening's bound of 10: it skips the
        // transitive reduction and partitions the solve DAG itself.
        ("fully dense", dense(60), true),
        ("fully dense, n = 64", dense(64), true),
        ("disconnected blocks", disconnected_blocks(), true),
        ("short chain", chain(5), true),
        ("small dense", dense(4), true),
        // Before GrowLocal's serial-growth rule, this operand ran as one
        // superstep with all its work on core 0 at 2 cores.
        ("serial-growth Erdős–Rényi", serial_growth_operand(), false),
    ]
}

/// `erdos_renyi_lower(4000, 40/3999)` with seed 2: at 2 cores and L = 500
/// GrowLocal's α-growth let core 0 swallow the shared ready list.
fn serial_growth_operand() -> CsrMatrix {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
    sptrsv::sparse::gen::erdos_renyi_lower(4000, 40.0 / 3999.0, &mut rng)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_plan_is_valid_and_exact(
    what: &str,
    m: &CsrMatrix,
    spec: &str,
    cores: usize,
    coarsen: bool,
    reorder: bool,
    reordered_user_exact: bool,
) {
    let ctx = format!("{what}: {spec}, cores={cores}, coarsen={coarsen}, reorder={reorder}");
    let plan = PlanBuilder::new(m)
        .scheduler(spec)
        .cores(cores)
        .coarsen(coarsen)
        .reorder(reorder)
        .build()
        .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"));
    let internal = plan.internal_matrix();
    let dag = SolveDag::from_lower_triangular(internal);
    plan.schedule().validate(&dag).unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
    let n = m.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 11) as f64 / 3.0).collect();
    let mut serial = vec![0.0; n];
    solve_lower_serial(m, &b, &mut serial);
    let mut ws = plan.workspace();
    let mut x = vec![f64::NAN; n];
    plan.solve_into(&b, &mut x, &mut ws);
    if !reorder || reordered_user_exact {
        assert!(bits_equal(&x, &serial), "{ctx}: solve_into differs from solve_lower_serial");
    } else {
        let err = backward_error(m, &x, &b);
        assert!(err <= BACKWARD_ERROR_TOL, "{ctx}: backward error {err}");
        let mut internal_serial = vec![0.0; n];
        solve_lower_serial(internal, &b, &mut internal_serial);
        let mut px = vec![f64::NAN; n];
        plan.executor().solve(internal, &b, &mut px);
        assert!(
            bits_equal(&px, &internal_serial),
            "{ctx}: differs from solve_lower_serial on the internal operand"
        );
    }
}

#[test]
fn adversarial_structures_schedule_validly_and_solve_exactly() {
    for (what, m, reordered_user_exact) in cases() {
        for spec in SPECS {
            for coarsen in [false, true] {
                // 16 cores is many more than rows on the small cases.
                for cores in [1, 2, 3, 16] {
                    for reorder in [true, false] {
                        assert_plan_is_valid_and_exact(
                            what,
                            &m,
                            spec,
                            cores,
                            coarsen,
                            reorder,
                            reordered_user_exact,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_zero_weights_schedule_validly() {
    // Zero-weight vertices make every core's Ω tie at zero and let funnels
    // absorb past any part-weight cap; matrix DAGs never have them, so the
    // schedulers are driven on the DAG directly.
    let edges: Vec<(usize, usize)> =
        (1..40).map(|v| (v - 1, v)).chain([(0, 20), (3, 30), (10, 39)]).collect();
    for (what, dag) in [
        ("zero-weight chain", SolveDag::from_edges(40, &edges, vec![0; 40])),
        ("zero-weight diagonal", SolveDag::from_edges(25, &[], vec![0; 25])),
        ("zero-weight empty", SolveDag::from_edges(0, &[], vec![])),
    ] {
        for cores in [1, 2, 3, 64] {
            for spec in SPECS {
                let s = registry::resolve(spec, &dag, cores).unwrap().schedule(&dag, cores);
                s.validate(&dag).unwrap_or_else(|e| panic!("{spec} on {what}: {e}"));
            }
            // The `PlanBuilder::coarsen(true)` path: automatic cap, in-funnels,
            // transitive reduction within its cost bound, GrowLocal on the
            // coarse DAG.
            let options = FunnelOptions {
                direction: FunnelDirection::In,
                max_part_weight: auto_part_weight_cap(&dag, cores),
            };
            let s = coarsen_and_schedule(&dag, &GrowLocal::new(), cores, &options, true);
            s.validate(&dag).unwrap_or_else(|e| panic!("coarsened growlocal on {what}: {e}"));
        }
    }
}
