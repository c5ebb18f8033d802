//! Verification helpers: every executor must agree with the serial kernel,
//! and an accepted solution must have a small componentwise backward error.

use crate::serial::solve_lower_serial;
use sptrsv_sparse::CsrMatrix;

/// Maximum absolute component difference between two vectors. A NaN
/// difference (a NaN component, or infinities of the same sign) reads
/// infinity, so no comparison against a tolerance can pass it.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let diff = |(x, y): (&f64, &f64)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    };
    a.iter().zip(b).map(diff).fold(0.0, f64::max)
}

/// Solves serially and returns the maximum deviation of `x` from the serial
/// solution — the acceptance check used by tests and examples.
pub fn deviation_from_serial(l: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut reference = vec![0.0; l.n_rows()];
    solve_lower_serial(l, b, &mut reference);
    max_abs_diff(x, &reference)
}

/// Largest [`backward_error`] an accepted solve may show. A substitution
/// over rows of `k` entries keeps the componentwise backward error below
/// about `k·ε` (Higham, *Accuracy and Stability of Numerical Algorithms*,
/// §8.1), whatever the conditioning of `L`. This bound leaves room for
/// rows of up to ~10⁵ entries, the reassociated sums of the fastmath
/// kernels and the rounding of the check itself. A wrong solution reads
/// near 1.
pub const BACKWARD_ERROR_TOL: f64 = 1e-10;

/// Componentwise backward error of `x` as a solution of `L x = b`:
/// `max_i |b − L x|_i / (|L| |x| + |b|)_i`, the smallest relative
/// perturbation of `L` and `b` that makes `x` exact. Unlike the relative
/// residual `‖L x − b‖ / ‖b‖`, it stays near rounding for an exact
/// substitution on ill-conditioned operands, whose solutions dwarf `b`.
/// Rows whose residual is exactly 0 count as 0; a non-finite `x` reads
/// infinity.
pub fn backward_error(l: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(b.len(), l.n_rows(), "right-hand side length");
    assert_eq!(x.len(), l.n_cols(), "solution length");
    let mut worst = 0.0f64;
    for (i, &b_i) in b.iter().enumerate() {
        let (cols, vals) = l.row(i);
        let (mut lx, mut scale) = (0.0, b_i.abs());
        for (&c, &v) in cols.iter().zip(vals) {
            let term = v * x[c];
            lx += term;
            scale += term.abs();
        }
        let residual = (b_i - lx).abs();
        let err = if residual == 0.0 { 0.0 } else { residual / scale };
        if err.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max(err);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sptrsv_sparse::gen::{erdos_renyi::erdos_renyi_lower, narrow_band::narrow_band_lower};
    use sptrsv_sparse::linalg::relative_residual;

    #[test]
    fn backward_error_accepts_exact_solves_the_residual_rejects() {
        // The operands of `sptrsv generate nb|er --n 3000` (er at rate 25):
        // so ill-conditioned that even the exact serial substitution fails
        // a 1e-8 relative residual, while its backward error is rounding.
        let mut rng = SmallRng::seed_from_u64(42);
        let operands = [
            ("nb", narrow_band_lower(3000, 0.14, 10.0, &mut rng)),
            ("er", erdos_renyi_lower(3000, 50.0 / 2999.0, &mut rng)),
        ];
        for (name, l) in operands {
            let n = l.n_rows();
            let b = vec![1.0; n];
            let mut x = vec![0.0; n];
            solve_lower_serial(&l, &b, &mut x);
            let residual = relative_residual(&l, &x, &b);
            assert!(residual > 1e-8, "{name}: residual {residual:e} no longer shows the gap");
            let err = backward_error(&l, &x, &b);
            assert!(err < BACKWARD_ERROR_TOL, "{name}: exact solve reads {err:e}");
            // A solution off by a relative 1e-6 in its largest component
            // must still fail.
            let k = (0..n).max_by(|&p, &q| x[p].abs().total_cmp(&x[q].abs())).unwrap();
            x[k] *= 1.0 + 1e-6;
            let err = backward_error(&l, &x, &b);
            assert!(err > BACKWARD_ERROR_TOL, "{name}: perturbed solve passed at {err:e}");
            x[k] = f64::NAN;
            assert_eq!(backward_error(&l, &x, &b), f64::INFINITY, "{name}: NaN passed");
        }
    }

    #[test]
    fn backward_error_of_an_exactly_zero_row_is_zero() {
        let l = CsrMatrix::identity(3);
        assert_eq!(backward_error(&l, &[0.0, 2.0, 0.0], &[0.0, 2.0, 0.0]), 0.0);
        assert!(backward_error(&l, &[0.0, 2.0, 1.0], &[0.0, 2.0, 0.0]) >= 1.0);
    }

    #[test]
    fn diff_helpers() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn a_nan_difference_reads_infinity() {
        assert_eq!(max_abs_diff(&[f64::NAN, 1.0], &[0.0, 1.0]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[0.0, 1.0], &[0.0, f64::NAN]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[f64::INFINITY], &[f64::INFINITY]), f64::INFINITY);
        let l = CsrMatrix::identity(5);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(deviation_from_serial(&l, &b, &[f64::NAN; 5]), f64::INFINITY);
    }

    #[test]
    fn deviation_zero_for_serial_itself() {
        let l = CsrMatrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(deviation_from_serial(&l, &b, &b), 0.0);
    }
}
