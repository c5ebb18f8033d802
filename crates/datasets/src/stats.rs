//! Per-matrix statistics, reproducing the columns of Appendix A.

use sptrsv_dag::{wavefronts, SolveDag, Wavefronts};
use sptrsv_sparse::CsrMatrix;

/// The statistics the paper reports per matrix (Tables A.1–A.5), plus the
/// source count relevant for scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Matrix dimension (`Size` column).
    pub n: usize,
    /// Stored non-zeros of the lower-triangular operand.
    pub nnz: usize,
    /// Average wavefront size (`Avg. wf` column), rounded down as in the
    /// paper's tables when displayed.
    pub avg_wavefront: f64,
    /// Number of wavefronts (longest path length in vertices).
    pub n_wavefronts: usize,
    /// DAG sources (rows with no strictly-lower entries).
    pub n_sources: usize,
    /// Widest wavefront (peak exploitable parallelism).
    pub max_wavefront: usize,
    /// Population variance of the per-row non-zero counts. High variance
    /// means a few long rows dominate and row-splitting schedulers win;
    /// near zero means uniform rows.
    pub row_len_variance: f64,
    /// Largest `row − column` distance over the stored entries: the
    /// half-bandwidth of the operand. Narrow bands favour wavefront-style
    /// pipelining, wide bands favour locality-driven schedulers.
    pub bandwidth: usize,
}

impl MatrixStats {
    /// Computes the statistics of a lower-triangular matrix.
    pub fn of_lower(lower: &CsrMatrix) -> MatrixStats {
        let dag = SolveDag::from_lower_triangular(lower);
        Self::of_dag(lower, &dag)
    }

    /// Computes the statistics when the DAG is already available.
    pub fn of_dag(lower: &CsrMatrix, dag: &SolveDag) -> MatrixStats {
        Self::of_wavefronts(lower, dag, &wavefronts(dag))
    }

    /// Computes the statistics when the DAG and its wavefronts are already
    /// available.
    pub fn of_wavefronts(lower: &CsrMatrix, dag: &SolveDag, wf: &Wavefronts) -> MatrixStats {
        let n = lower.n_rows();
        let mean_len = if n == 0 { 0.0 } else { lower.nnz() as f64 / n as f64 };
        let mut variance = 0.0;
        let mut bandwidth = 0;
        for r in 0..n {
            let d = lower.row_nnz(r) as f64 - mean_len;
            variance += d * d;
            let (cols, _) = lower.row(r);
            if let Some(&first) = cols.first() {
                bandwidth = bandwidth.max(r.saturating_sub(first));
            }
        }
        if n > 0 {
            variance /= n as f64;
        }
        MatrixStats {
            n,
            nnz: lower.nnz(),
            avg_wavefront: wf.average_size(),
            n_wavefronts: wf.n_fronts(),
            n_sources: dag.sources().len(),
            max_wavefront: wf.max_size(),
            row_len_variance: variance,
            bandwidth,
        }
    }

    /// Floating-point operations of one solve: `2·nnz − n` (§6.2.1, fn. 3).
    pub fn flops(&self) -> usize {
        2 * self.nnz - self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_sparse::CooMatrix;

    #[test]
    fn stats_of_a_small_lower_matrix() {
        // Chain of 4: wavefronts = 4, avg 1.0, one source.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        for i in 1..4 {
            coo.push(i, i - 1, 1.0).unwrap();
        }
        let l = coo.to_csr();
        let s = MatrixStats::of_lower(&l);
        assert_eq!(s.n, 4);
        assert_eq!(s.nnz, 7);
        assert_eq!(s.n_wavefronts, 4);
        assert_eq!(s.avg_wavefront, 1.0);
        assert_eq!(s.n_sources, 1);
        assert_eq!(s.flops(), 10);
        assert_eq!(s.max_wavefront, 1);
        // Row lengths 1,2,2,2: mean 1.75, variance 3·0.25²+0.75² over 4.
        assert!((s.row_len_variance - 0.1875).abs() < 1e-12);
        assert_eq!(s.bandwidth, 1);
    }
}
