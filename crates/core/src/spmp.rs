//! SpMP-style scheduler \[PSSD14\].
//!
//! SpMP is at heart an *asynchronous* wavefront method: it derives the level
//! sets, partitions each level into per-thread chunks, sparsifies the
//! synchronization with an approximate transitive reduction (§2.3 of that
//! paper, our [`sptrsv_dag::transitive`]), and then lets threads proceed
//! point-to-point — a thread enters its chunk of the next level as soon as
//! the producing chunks are done, without a global barrier.
//!
//! In this workspace the produced [`Schedule`] carries the level structure
//! and chunk assignment; the asynchronous semantics live in the executor and
//! machine model (`sptrsv-exec`), which wait on the approximate transitive
//! reduction of the final operand's DAG under the `sync=reduced` policy
//! (the planner derives it for every scheduler alike). When executed with
//! plain barriers the schedule degenerates to the wavefront baseline, which
//! is exactly the relationship the paper describes.
//!
//! Transitive reduction never changes reachability, so the level structure
//! of the reduced DAG equals the original's and [`SpMp::schedule`] levels
//! the *full* DAG directly: the only reduction of an `spmp@async` plan is
//! the planner's, once per plan.

use crate::schedule::Schedule;
use crate::wavefront::assign_contiguous_by_weight;
use crate::Scheduler;
use sptrsv_dag::wavefront::wavefronts;
use sptrsv_dag::SolveDag;

/// The SpMP-style scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpMp;

impl Scheduler for SpMp {
    fn name(&self) -> &'static str {
        "SpMP"
    }

    fn schedule(&self, dag: &SolveDag, n_cores: usize) -> Schedule {
        assert!(n_cores > 0);
        // Levels are computed on the full DAG: transitive reduction never
        // changes reachability, so the level structure of the reduced DAG is
        // identical and nothing is gained by reducing here — asynchronous
        // planning reduces the final operand's DAG for its waits (and
        // barrier/serial plans skip the reduction entirely).
        let wf = wavefronts(dag);
        let mut core_of = vec![0usize; dag.n()];
        for front in &wf.fronts {
            assign_contiguous_by_weight(front, dag.weights(), n_cores, &mut core_of);
        }
        Schedule::new(n_cores, core_of, wf.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_dag::transitive::approximate_transitive_reduction;

    #[test]
    fn same_levels_as_wavefront() {
        let g = SolveDag::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4)], vec![1; 5]);
        let s = SpMp.schedule(&g, 2);
        assert!(s.validate(&g).is_ok());
        let wf = wavefronts(&g);
        assert_eq!(s.steps(), &wf.level[..]);
    }

    #[test]
    fn schedule_equals_levels_on_reduced_dag() {
        // The documented reason `schedule` needs no reduction: the level
        // structure of the reduced DAG equals the full DAG's, so the
        // schedule built on either is identical.
        let g = SolveDag::from_edges(
            6,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (0, 4), (3, 5), (1, 5)],
            vec![1; 6],
        );
        let reduced = approximate_transitive_reduction(&g);
        assert_eq!(wavefronts(&g).level, wavefronts(&reduced).level);
        let s = SpMp.schedule(&g, 3);
        assert!(s.validate(&g).is_ok());
        assert!(s.validate(&reduced).is_ok());
    }

    #[test]
    fn reduced_dag_has_fewer_edges() {
        let g = SolveDag::from_edges(3, &[(0, 1), (1, 2), (0, 2)], vec![1; 3]);
        let r = approximate_transitive_reduction(&g);
        assert_eq!(r.n_edges(), 2);
    }

    #[test]
    fn valid_on_grid() {
        let a = sptrsv_sparse::gen::grid::grid2d_laplacian(
            10,
            10,
            sptrsv_sparse::gen::grid::Stencil2D::NinePoint,
            0.5,
        );
        let g = SolveDag::from_lower_triangular(&a.lower_triangle().unwrap());
        let s = SpMp.schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
    }
}
