//! The feature extractor: the structural signals that discriminate
//! schedulers, computed once per matrix before any candidate is scheduled.
//!
//! The paper's ablations (§6.3) show the winner flips with wavefront
//! depth and width; the entrant list reads the average front (a
//! near-sequential DAG races nothing) and the p90 front width (narrow
//! fronts race the serial sweep). Everything here is a function of the
//! sparsity structure alone — values never enter, which is what lets a
//! tuning verdict be keyed by the structure-only
//! [`PlanFingerprint`](sptrsv_core::serialize::PlanFingerprint).

use sptrsv_dag::{wavefront::wavefronts, SolveDag};
use sptrsv_datasets::MatrixStats;
use sptrsv_sparse::CsrMatrix;

/// Structural signals of one lower-triangular operand.
///
/// Extends [`MatrixStats`] (the paper's Appendix A columns) with the
/// wavefront width profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneFeatures {
    /// The base statistics (size, nnz, wavefront counts, row-length
    /// variance, bandwidth).
    pub stats: MatrixStats,
    /// Quantiles of the wavefront width profile: the 25th, 50th and 90th
    /// percentile front sizes. A large p90/p50 ratio means parallelism is
    /// concentrated in a few wide fronts (level scheduling wastes the
    /// narrow ones); a flat profile favours wavefront/HDagg gluing.
    pub width_quantiles: [usize; 3],
}

impl TuneFeatures {
    /// Extracts the features of a lower-triangular operand.
    pub fn extract(lower: &CsrMatrix) -> TuneFeatures {
        let dag = SolveDag::from_lower_triangular(lower);
        Self::extract_with_dag(lower, &dag)
    }

    /// Extracts the features when the solve DAG is already available.
    pub fn extract_with_dag(lower: &CsrMatrix, dag: &SolveDag) -> TuneFeatures {
        let wf = wavefronts(dag);
        let stats = MatrixStats::of_wavefronts(lower, dag, &wf);
        let mut widths: Vec<usize> = wf.fronts.iter().map(|f| f.len()).collect();
        widths.sort_unstable();
        let q = |p: f64| -> usize {
            if widths.is_empty() {
                0
            } else {
                widths[((widths.len() - 1) as f64 * p).round() as usize]
            }
        };
        let width_quantiles = [q(0.25), q(0.50), q(0.90)];
        TuneFeatures { stats, width_quantiles }
    }

    /// True when the DAG is close to a chain: almost no wavefront-level
    /// parallelism to exploit, so threaded execution is pure overhead.
    pub fn near_sequential(&self) -> bool {
        self.stats.avg_wavefront < 1.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_sparse::CooMatrix;

    /// A chain: n wavefronts of width 1.
    fn chain(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn chain_is_near_sequential() {
        let f = TuneFeatures::extract(&chain(64));
        assert!(f.near_sequential());
        assert_eq!(f.width_quantiles, [1, 1, 1]);
        assert_eq!(f.stats.n_wavefronts, 64);
        assert_eq!(f.stats.max_wavefront, 1);
    }

    #[test]
    fn diagonal_is_one_wide_front() {
        let mut coo = CooMatrix::new(32, 32);
        for i in 0..32 {
            coo.push(i, i, 1.0).unwrap();
        }
        let f = TuneFeatures::extract(&coo.to_csr());
        assert!(!f.near_sequential());
        assert_eq!(f.stats.n_sources, 32);
        assert_eq!(f.width_quantiles, [32, 32, 32]);
    }

    #[test]
    fn extraction_is_deterministic() {
        let l = chain(32);
        assert_eq!(TuneFeatures::extract(&l), TuneFeatures::extract(&l));
    }

    #[test]
    fn stats_match_matrix_stats_of_dag() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let operands = [
            chain(32),
            sptrsv_sparse::gen::narrow_band::narrow_band_lower(400, 0.5, 6.0, &mut rng),
            sptrsv_sparse::gen::erdos_renyi::erdos_renyi_lower(400, 0.01, &mut rng),
            CooMatrix::new(0, 0).to_csr(),
        ];
        for l in &operands {
            let dag = SolveDag::from_lower_triangular(l);
            assert_eq!(TuneFeatures::extract_with_dag(l, &dag).stats, MatrixStats::of_dag(l, &dag));
        }
    }
}
