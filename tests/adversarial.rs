//! Adversarial structures through GrowLocal and Funnel coarsening.
//!
//! The degenerate inputs a scheduler meets at the edges of its contract:
//! no rows, one row, a diagonal, one chain, a fully dense triangle,
//! disconnected blocks, all-zero weights and many more cores than rows.
//! Every plan must carry a valid schedule and a `solve_into` that is
//! bit-identical to the serial substitution.

use sptrsv::core::{auto_part_weight_cap, coarsen_and_schedule, registry, GrowLocal};
use sptrsv::dag::coarsen::{FunnelDirection, FunnelOptions};
use sptrsv::exec::{solve_lower_serial, PlanBuilder};
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

fn cases() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("n = 0", diagonal(0)),
        ("n = 1", diagonal(1)),
        ("diagonal only", diagonal(64)),
        ("one chain", chain(300)),
        // Dense triangles probe about n/3 times per vertex-plus-edge (18.7
        // at n = 60), over funnel coarsening's bound of 10: it skips the
        // transitive reduction and partitions the solve DAG itself.
        ("fully dense", dense(60)),
        ("fully dense, n = 64", dense(64)),
        ("disconnected blocks", disconnected_blocks()),
        ("short chain", chain(5)),
        ("small dense", dense(4)),
    ]
}

fn assert_plan_is_valid_and_exact(
    what: &str,
    m: &CsrMatrix,
    spec: &str,
    cores: usize,
    coarsen: bool,
) {
    let ctx = format!("{what}: {spec}, cores={cores}, coarsen={coarsen}");
    let plan = PlanBuilder::new(m)
        .scheduler(spec)
        .cores(cores)
        .coarsen(coarsen)
        .build()
        .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"));
    let dag = SolveDag::from_lower_triangular(plan.internal_matrix());
    plan.schedule().validate(&dag).unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
    let n = m.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 11) as f64 / 3.0).collect();
    let mut serial = vec![0.0; n];
    solve_lower_serial(m, &b, &mut serial);
    let mut ws = plan.workspace();
    let mut x = vec![f64::NAN; n];
    plan.solve_into(&b, &mut x, &mut ws);
    let same = x.iter().zip(&serial).all(|(a, s)| a.to_bits() == s.to_bits());
    assert!(same, "{ctx}: solve_into differs from solve_lower_serial");
}

#[test]
fn adversarial_structures_schedule_validly_and_solve_exactly() {
    for (what, m) in cases() {
        for spec in SPECS {
            for coarsen in [false, true] {
                // 16 cores is many more than rows on the small cases.
                for cores in [1, 2, 3, 16] {
                    assert_plan_is_valid_and_exact(what, &m, spec, cores, coarsen);
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
