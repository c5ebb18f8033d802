//! The frozen reference kernel every time-based metric is divided by.
//!
//! A plain CSR forward substitution over arrays the benchmark owns. It
//! calls no program code, so an edit to the solver crates cannot move the
//! yardstick: what moves it is the machine (frequency, co-tenants, cache
//! pressure), and dividing by it cancels that drift. The operation order
//! per row is the textbook one (`acc = b_i; acc -= l_ij * x_j` in column
//! order; `x_i = acc / l_ii`), which is also the order of the program's
//! serial kernel, so on an unpermuted operand both give bit-identical
//! results (pinned by a test).

use sptrsv_sparse::CsrMatrix;

/// A lower-triangular CSR operand copied out of the program's matrix type,
/// diagonal stored last in every row.
#[derive(Debug, Clone)]
pub struct RefCsr {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RefCsr {
    /// Copies the arrays of `lower`.
    pub fn copy_of(lower: &CsrMatrix) -> RefCsr {
        RefCsr {
            row_ptr: lower.row_ptr().to_vec(),
            col_idx: lower.col_idx().to_vec(),
            values: lower.values().to_vec(),
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Bytes one solve streams, computed from array sizes (row pointers,
    /// column indices, values, `b` and `x`); cache reuse is ignored.
    pub fn bytes_per_solve(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        self.row_ptr.len() * word
            + self.col_idx.len() * word
            + self.values.len() * 8
            + 2 * self.n() * 8
    }

    /// Solves `L x = b` by forward substitution.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        for i in 0..n {
            let (lo, diag) = (self.row_ptr[i], self.row_ptr[i + 1] - 1);
            let mut acc = b[i];
            for k in lo..diag {
                acc -= self.values[k] * x[self.col_idx[k]];
            }
            x[i] = acc / self.values[diag];
        }
    }

    /// Componentwise backward error `max_i |L x − b|_i / (|L| |x| + |b|)_i`,
    /// computed with the benchmark's own arithmetic. Forward substitution
    /// keeps it near `row length × ε` however ill-conditioned `L` is (the
    /// narrow-band and Erdős–Rényi operands have `‖x‖ ≫ ‖b‖`, so the plain
    /// `‖L x − b‖ / ‖b‖` of even the exact substitution is far above 1).
    pub fn backward_error(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.n());
        let mut worst = 0.0f64;
        for (i, &b_i) in b.iter().enumerate() {
            let mut ax = 0.0;
            let mut scale = b_i.abs();
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let term = self.values[k] * x[self.col_idx[k]];
                ax += term;
                scale += term.abs();
            }
            let err = (ax - b_i).abs() / scale;
            if !err.is_finite() {
                return f64::INFINITY;
            }
            worst = worst.max(err);
        }
        worst
    }
}

/// `max_i |x_i − r_i| / max_i |r_i|`: the deviation of a solution from the
/// reference solution `r`.
pub fn relative_deviation(x: &[f64], r: &[f64]) -> f64 {
    let scale = r.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(f64::MIN_POSITIVE);
    if x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    x.iter().zip(r).fold(0.0f64, |m, (a, b)| m.max((a - b).abs())) / scale
}
