//! Funnel coarsening composed with GrowLocal (§4.2, evaluated in §7.3).
//!
//! Pipeline: approximate transitive reduction (more/larger funnels), funnel
//! partition, coarsen, schedule the coarse DAG with GrowLocal, pull the
//! schedule back: every original vertex inherits the core and superstep of
//! its part. Pulled-back schedules are valid because parts are cascades
//! (coarse acyclicity, Prop. 4.3) and matrix-DAG edges ascend in vertex ID,
//! so the ID-order execution inside a cell respects intra-part edges.
//!
//! **The reduction is priced first.** It costs Σ_v in(v)·out(v) mark probes
//! ([`reduction_probes`]). On dense random operands that is tens of probes
//! per vertex-plus-edge, as much as the rest of the pipeline or more, while
//! the partition it feeds keeps nearly every vertex either way. It therefore
//! runs only when the probes number at most 10 per vertex-plus-edge; above
//! that, the partition and the coarse DAG are built on the solve DAG
//! itself. Both are valid: funnels are cascades of whichever DAG they are
//! grown in, and the reduction keeps reachability. Stencil, narrow-band and
//! sparse random operands stay under the bound, so their schedules are
//! those of the unbounded pipeline.

use crate::growlocal::{GrowLocal, GrowLocalParams};
use crate::schedule::Schedule;
use crate::Scheduler;
use sptrsv_dag::coarsen::{coarsen, funnel_partition, FunnelDirection, FunnelOptions};
use sptrsv_dag::transitive::{approximate_transitive_reduction, reduction_probes};
use sptrsv_dag::SolveDag;

/// Funnel coarsening followed by GrowLocal on the coarse DAG.
#[derive(Debug, Clone)]
pub struct FunnelGrowLocal {
    /// Parameters of the inner GrowLocal run.
    pub growlocal: GrowLocalParams,
    /// Funnel direction (in-funnels by default, as in Algorithm 4.1).
    pub direction: FunnelDirection,
    /// Maximum part weight. The default ties the cap to nothing in
    /// particular; [`FunnelGrowLocal::for_dag`] picks a cap relative to the
    /// DAG's weight per core, which is what the experiments use.
    pub max_part_weight: u64,
    /// Whether to run the approximate transitive reduction first (§4.2)
    /// when it costs at most 10 mark probes per vertex-plus-edge; `false`
    /// never reduces.
    pub transitive_reduction: bool,
}

impl Default for FunnelGrowLocal {
    fn default() -> Self {
        FunnelGrowLocal {
            growlocal: GrowLocalParams::default(),
            direction: FunnelDirection::In,
            max_part_weight: 1 << 10,
            transitive_reduction: true,
        }
    }
}

impl FunnelGrowLocal {
    /// Chooses the part-weight cap for a concrete DAG and core count (see
    /// [`auto_part_weight_cap`]).
    pub fn for_dag(dag: &SolveDag, n_cores: usize) -> Self {
        FunnelGrowLocal {
            max_part_weight: auto_part_weight_cap(dag, n_cores),
            ..Default::default()
        }
    }
}

/// The automatic part-weight cap: a part should stay well below one core's
/// fair share of a superstep, otherwise the coarse vertices are too lumpy to
/// balance. Shared by [`FunnelGrowLocal::for_dag`] and
/// `PlanBuilder::coarsen`.
pub fn auto_part_weight_cap(dag: &SolveDag, n_cores: usize) -> u64 {
    let fair_share = dag.total_weight() / (n_cores as u64).max(1);
    (fair_share / 64).clamp(16, 1 << 16)
}

/// The approximate transitive reduction runs before funnel detection only
/// when its mark probes ([`reduction_probes`]) number at most this many per
/// vertex-plus-edge of the solve DAG. The stencil, narrow-band and
/// METIS/iChol suites measure 0.1–7.6 and keep it; Erdős–Rényi operands
/// with 25 or more non-zeros per row measure 16–39, where the reduction
/// took half to two thirds of funnel-gl's scheduling time and left the
/// partition at 98–99 % of the vertices, as without it.
const REDUCTION_PROBES_PER_ELEMENT: u64 = 10;

/// Whether the reduction is cheap enough to run on `dag` (see
/// [`REDUCTION_PROBES_PER_ELEMENT`]). O(n) over the degree arrays.
fn reduction_within_bound(dag: &SolveDag) -> bool {
    reduction_probes(dag) <= REDUCTION_PROBES_PER_ELEMENT * (dag.n() + dag.n_edges()) as u64
}

/// Funnel-coarsens `dag` (after approximate transitive reduction when
/// `transitive_reduction` is set and the reduction is within its cost
/// bound), schedules the coarse DAG with `inner`, and pulls the schedule
/// back: every original vertex inherits the core and superstep of its part.
///
/// The pull-back is valid for *any* valid coarse schedule: parts are
/// cascades (coarse acyclicity, Prop. 4.3) and matrix-DAG edges ascend in
/// vertex ID, so the ID-order execution inside a cell respects intra-part
/// edges. This is the single implementation behind both the `funnel-gl`
/// scheduler and the plan builder's generic coarsening knob.
pub fn coarsen_and_schedule(
    dag: &SolveDag,
    inner: &dyn Scheduler,
    n_cores: usize,
    options: &FunnelOptions,
    transitive_reduction: bool,
) -> Schedule {
    let reduced;
    let for_coarsening = if transitive_reduction && reduction_within_bound(dag) {
        reduced = approximate_transitive_reduction(dag);
        &reduced
    } else {
        dag
    };
    let coarsening = funnel_partition(for_coarsening, options);
    let coarse = coarsen(for_coarsening, &coarsening);
    let coarse_schedule = inner.schedule(&coarse, n_cores);
    // Pull back to the original vertices.
    let mut core_of = vec![0usize; dag.n()];
    let mut step_of = vec![0usize; dag.n()];
    for v in 0..dag.n() {
        let part = coarsening.part_of[v];
        core_of[v] = coarse_schedule.core_of(part);
        step_of[v] = coarse_schedule.step_of(part);
    }
    Schedule::new(n_cores, core_of, step_of)
}

impl Scheduler for FunnelGrowLocal {
    fn name(&self) -> &'static str {
        "Funnel+GL"
    }

    fn schedule(&self, dag: &SolveDag, n_cores: usize) -> Schedule {
        let options =
            FunnelOptions { direction: self.direction, max_part_weight: self.max_part_weight };
        let inner = GrowLocal::with_params(self.growlocal.clone());
        coarsen_and_schedule(dag, &inner, n_cores, &options, self.transitive_reduction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sptrsv_dag::transitive::reduction_invocations;
    use sptrsv_dag::wavefront::wavefronts;
    use sptrsv_sparse::gen::erdos_renyi_lower;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::gen::narrow_band::narrow_band_lower;

    fn grid_dag(w: usize, h: usize) -> SolveDag {
        let a = grid2d_laplacian(w, h, Stencil2D::FivePoint, 0.5);
        SolveDag::from_lower_triangular(&a.lower_triangle().unwrap())
    }

    /// The paper's pipeline spelled out, with an unconditional reduction:
    /// reduce, partition, coarsen, GrowLocal on the coarse DAG, pull back.
    fn paper_pipeline(dag: &SolveDag, n_cores: usize, options: &FunnelOptions) -> Schedule {
        let reduced = approximate_transitive_reduction(dag);
        let coarsening = funnel_partition(&reduced, options);
        let coarse = coarsen(&reduced, &coarsening);
        let inner = GrowLocal::new().schedule(&coarse, n_cores);
        let core_of = coarsening.part_of.iter().map(|&p| inner.core_of(p)).collect();
        let step_of = coarsening.part_of.iter().map(|&p| inner.step_of(p)).collect();
        Schedule::new(n_cores, core_of, step_of)
    }

    /// Under the bound, `coarsen_and_schedule` is the paper's pipeline bit
    /// for bit, in both funnel directions.
    fn assert_matches_paper_pipeline(dag: &SolveDag, what: &str) {
        assert!(reduction_within_bound(dag), "{what}: over the reduction bound");
        for n_cores in [2, 4] {
            for direction in [FunnelDirection::In, FunnelDirection::Out] {
                let options = FunnelOptions {
                    direction,
                    max_part_weight: auto_part_weight_cap(dag, n_cores),
                };
                let expected = paper_pipeline(dag, n_cores, &options);
                let before = reduction_invocations();
                let got = coarsen_and_schedule(dag, &GrowLocal::new(), n_cores, &options, true);
                assert_eq!(reduction_invocations() - before, 1, "{what}: reduction skipped");
                let ctx = format!("{what}, {n_cores} cores, {direction:?}");
                assert_eq!(got.cores(), expected.cores(), "{ctx}: cores differ");
                assert_eq!(got.steps(), expected.steps(), "{ctx}: supersteps differ");
            }
        }
    }

    #[test]
    fn matches_the_paper_pipeline_on_grids() {
        for (w, h, stencil) in [
            (24, 24, Stencil2D::FivePoint),
            (9, 23, Stencil2D::NinePoint),
            (1, 30, Stencil2D::FivePoint),
        ] {
            let l = grid2d_laplacian(w, h, stencil, 0.5).lower_triangle().unwrap();
            assert_matches_paper_pipeline(
                &SolveDag::from_lower_triangular(&l),
                &format!("{w}x{h}"),
            );
        }
    }

    #[test]
    fn matches_the_paper_pipeline_on_narrow_band_operands() {
        for (seed, n, bandwidth) in [(1, 300, 2.0), (2, 500, 6.0), (3, 400, 11.0)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let l = narrow_band_lower(n, 0.5, bandwidth, &mut rng);
            let dag = SolveDag::from_lower_triangular(&l);
            assert_matches_paper_pipeline(&dag, &format!("narrow band n={n} B={bandwidth}"));
        }
    }

    #[test]
    fn matches_the_paper_pipeline_on_sparse_random_dags() {
        // Rate r non-zeros per row measures about 2r/3 probes per
        // vertex-plus-edge, so r ≤ 5 stays under the bound.
        for (seed, n, rate) in [(4, 200, 2.0), (5, 400, 3.0), (6, 600, 5.0)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let l = erdos_renyi_lower(n, rate / n as f64, &mut rng);
            let dag = SolveDag::from_lower_triangular(&l);
            assert_matches_paper_pipeline(&dag, &format!("random n={n} rate={rate}"));
        }
    }

    #[test]
    fn dense_triangle_skips_the_reduction() {
        // A dense lower triangle probes about n/3 times per vertex-plus-edge.
        let n = 64;
        let edges: Vec<(usize, usize)> = (0..n).flat_map(|w| (0..w).map(move |u| (u, w))).collect();
        let dag = SolveDag::from_edges(n, &edges, (1..=n as u64).collect());
        assert!(!reduction_within_bound(&dag));
        for n_cores in [1, 2, 4] {
            let options = FunnelOptions {
                direction: FunnelDirection::In,
                max_part_weight: auto_part_weight_cap(&dag, n_cores),
            };
            let before = reduction_invocations();
            let s = coarsen_and_schedule(&dag, &GrowLocal::new(), n_cores, &options, true);
            assert_eq!(reduction_invocations(), before, "the reduction ran over its bound");
            s.validate(&dag).unwrap();
            let unreduced = coarsen_and_schedule(&dag, &GrowLocal::new(), n_cores, &options, false);
            assert_eq!((s.cores(), s.steps()), (unreduced.cores(), unreduced.steps()));
        }
    }

    #[test]
    fn pulled_back_schedule_is_valid() {
        let g = grid_dag(20, 20);
        let s = FunnelGrowLocal::for_dag(&g, 4).schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn coarsening_reduces_barriers_vs_wavefront() {
        let g = grid_dag(24, 24);
        let s = FunnelGrowLocal::for_dag(&g, 4).schedule(&g, 4);
        assert!(s.n_supersteps() < wavefronts(&g).n_fronts());
    }

    #[test]
    fn without_transitive_reduction_also_valid() {
        let g = grid_dag(12, 12);
        let fgl =
            FunnelGrowLocal { transitive_reduction: false, ..FunnelGrowLocal::for_dag(&g, 2) };
        let s = fgl.schedule(&g, 2);
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn chain_collapses_to_single_parts() {
        // A chain coarsens into weight-capped runs; the coarse DAG is a much
        // shorter chain, so the schedule has far fewer supersteps than n.
        let edges: Vec<(usize, usize)> = (1..256).map(|v| (v - 1, v)).collect();
        let g = SolveDag::from_edges(256, &edges, vec![1; 256]);
        let fgl = FunnelGrowLocal { max_part_weight: 32, ..Default::default() };
        let s = fgl.schedule(&g, 2);
        assert!(s.validate(&g).is_ok());
        assert!(s.n_supersteps() <= 16, "{} supersteps", s.n_supersteps());
    }
}
