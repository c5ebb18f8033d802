//! Serial forward and backward substitution (§2.2, equation (2.1)): the
//! reference kernels every execution model is checked against.

use crate::engine::{check_lengths, solve_width, Identity, NaturalSweep, One};
use crate::kernels::substitute_row;
use sptrsv_sparse::CsrMatrix;

/// Solves `L x = b` for a lower-triangular `L` by forward substitution.
///
/// The diagonal entry must be the last stored entry of each row (guaranteed
/// for any lower-triangular CSR with sorted columns and full diagonal).
///
/// # Panics
/// Panics if `b` or `x` is not `n` long; in debug builds also if a row
/// lacks its diagonal — validate the operand with
/// [`CsrMatrix::validate_triangular`] first.
pub fn solve_lower_serial(l: &CsrMatrix, b: &[f64], x: &mut [f64]) {
    let n = l.n_rows();
    check_lengths(n, One, Identity(b), x);
    for i in 0..n {
        let (cols, vals) = l.row(i);
        debug_assert_eq!(*cols.last().expect("empty row"), i, "row {i} lacks its diagonal");
        x[i] = substitute_row(cols, vals, b[i], x, false);
    }
}

/// Solves `U x = b` for an upper-triangular `U` by backward substitution.
///
/// The diagonal entry must be the first stored entry of each row.
///
/// # Panics
/// Panics if `b` or `x` is not `n` long.
pub fn solve_upper_serial(u: &CsrMatrix, b: &[f64], x: &mut [f64]) {
    let n = u.n_rows();
    check_lengths(n, One, Identity(b), x);
    for i in (0..n).rev() {
        let (cols, vals) = u.row(i);
        debug_assert_eq!(cols[0], i, "row {i} lacks its diagonal");
        x[i] = substitute_row(cols, vals, b[i], x, true);
    }
}

/// Solves `L X = B` serially (SpTRSM); `B` and `X` are row-major `n x r`.
/// Each row keeps its `r` values in register accumulators and stores them
/// once, so no scratch is allocated.
pub fn solve_lower_multi_serial(l: &CsrMatrix, b: &[f64], x: &mut [f64], r: usize) {
    solve_width(NaturalSweep, l, Identity(b), x, r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_sparse::linalg::relative_residual;
    use sptrsv_sparse::CooMatrix;

    fn lower_example() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn forward_substitution_exact() {
        let l = lower_example();
        let b = [4.0, 10.0, 3.0];
        let mut x = vec![0.0; 3];
        solve_lower_serial(&l, &b, &mut x);
        // x0 = 2, x1 = (10 - 2)/4 = 2, x2 = (3 + 2)/5 = 1.
        assert_eq!(x, vec![2.0, 2.0, 1.0]);
        assert!(relative_residual(&l, &x, &b) < 1e-14);
    }

    #[test]
    fn backward_substitution_exact() {
        let u = lower_example().transpose();
        let b = [4.0, 10.0, 3.0];
        let mut x = vec![0.0; 3];
        solve_upper_serial(&u, &b, &mut x);
        assert!(relative_residual(&u, &x, &b) < 1e-14);
    }

    #[test]
    fn identity_solves_to_rhs() {
        let i = CsrMatrix::identity(5);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        solve_lower_serial(&i, &b, &mut x);
        assert_eq!(x, b.to_vec());
        solve_upper_serial(&i, &b, &mut x);
        assert_eq!(x, b.to_vec());
    }

    fn grid_lower() -> (CsrMatrix, usize) {
        let a = sptrsv_sparse::gen::grid::grid2d_laplacian(
            13,
            9,
            sptrsv_sparse::gen::grid::Stencil2D::FivePoint,
            0.5,
        );
        let l = a.lower_triangle().unwrap();
        let n = l.n_rows();
        (l, n)
    }

    #[test]
    fn serial_multi_matches_column_by_column() {
        // Register blocks (3, 8) and wider rows split into blocks (9, 16)
        // run each column's operations in the single-RHS order.
        let (l, n) = grid_lower();
        for r in [3, 8, 9, 16] {
            let b: Vec<f64> = (0..n * r).map(|i| ((i * 17) % 29) as f64 - 14.0).collect();
            let mut x = vec![0.0; n * r];
            solve_lower_multi_serial(&l, &b, &mut x, r);
            // Compare with r independent single-RHS solves.
            for j in 0..r {
                let bj: Vec<f64> = (0..n).map(|i| b[i * r + j]).collect();
                let mut xj = vec![0.0; n];
                solve_lower_serial(&l, &bj, &mut xj);
                let column: Vec<f64> = (0..n).map(|i| x[i * r + j]).collect();
                assert_eq!(column, xj, "r={r} column {j}");
            }
        }
    }

    #[test]
    fn single_rhs_degenerates_to_sptrsv() {
        let (l, n) = grid_lower();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x1 = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut x1);
        let mut xm = vec![0.0; n];
        solve_lower_multi_serial(&l, &b, &mut xm, 1);
        assert_eq!(x1, xm);
    }

    #[test]
    #[should_panic(expected = "need at least one right-hand side")]
    fn zero_rhs_rejected() {
        let (l, _) = grid_lower();
        solve_lower_multi_serial(&l, &[], &mut [], 0);
    }

    #[test]
    #[should_panic(expected = "solution length")]
    fn backward_substitution_rejects_an_oversized_solution() {
        let u = lower_example().transpose();
        let mut x = vec![0.0; 4];
        solve_upper_serial(&u, &[1.0; 3], &mut x);
    }

    #[test]
    fn random_lower_consistency() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let l = sptrsv_sparse::gen::erdos_renyi::erdos_renyi_lower(200, 0.05, &mut rng);
        let b: Vec<f64> = (0..200).map(|i| (i as f64).sin()).collect();
        let mut x = vec![0.0; 200];
        solve_lower_serial(&l, &b, &mut x);
        assert!(relative_residual(&l, &x, &b) < 1e-9);
    }
}
