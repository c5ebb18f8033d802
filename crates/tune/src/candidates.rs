//! The race's entrants: one fixed, ordered list that the features can only
//! shrink.
//!
//! The list is the paper's Funnel + GrowLocal pipeline, its strongest
//! baseline HDagg (Zarebavani et al., IPDPS 2022), and a third entrant
//! picked by the front widths: the level-ordered serial sweep
//! (`wavefront@serial`) when the fronts are narrow, GrowLocal alone
//! otherwise. The order is the race's tie-break, and a
//! [`TuneBudget`](crate::TuneBudget) truncates it from the tail.

use crate::features::TuneFeatures;
use sptrsv_core::registry::{ExecModel, SchedulerSpec};

/// The p90 front width at or below which the serial sweep takes the third
/// slot. Measured at 2 cores over drift-bench's 20 operands: the
/// level-ordered sweep beat every parallel plan only on the two
/// narrow-band operands whose p90 width is 18, and lost by at least 6 % on
/// every operand whose p90 width is 38 or more.
pub const NARROW_FRONT_P90: usize = 24;

/// The level-ordered serial sweep.
const SWEEP: (&str, ExecModel) = ("wavefront", ExecModel::Serial);

/// The entrants for an operand with `features`, at most `budget` of them,
/// in race order.
///
/// * A near-sequential DAG ([`TuneFeatures::near_sequential`]), and
///   `auto@serial`, get the serial sweep alone.
/// * `auto@async` races `spmp`, `funnel-gl` and `hdagg`, all `@async`.
/// * Otherwise `funnel-gl@barrier`, `hdagg@barrier`, then
///   `wavefront@serial` when the p90 front width is at most
///   [`NARROW_FRONT_P90`], else `growlocal@barrier`.
///
/// `model` (an `auto@model` suffix) maps every entrant to that model;
/// every registered scheduler supports all three.
pub fn entrants(
    features: &TuneFeatures,
    model: Option<ExecModel>,
    budget: usize,
) -> Vec<SchedulerSpec> {
    use ExecModel::{Async, Barrier, Serial};
    let list: &[(&str, ExecModel)] = if features.near_sequential() || model == Some(Serial) {
        &[SWEEP]
    } else if model == Some(Async) {
        &[("spmp", Async), ("funnel-gl", Async), ("hdagg", Async)]
    } else if features.width_quantiles[2] <= NARROW_FRONT_P90 {
        &[("funnel-gl", Barrier), ("hdagg", Barrier), SWEEP]
    } else {
        &[("funnel-gl", Barrier), ("hdagg", Barrier), ("growlocal", Barrier)]
    };
    list.iter()
        .take(budget)
        .map(|&(name, own)| SchedulerSpec::new(name).with_model(model.unwrap_or(own)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::TuneFeatures;
    use sptrsv_core::registry;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::{CooMatrix, CsrMatrix};

    fn grid_features() -> TuneFeatures {
        let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
        TuneFeatures::extract(&l)
    }

    fn texts(specs: &[SchedulerSpec]) -> Vec<String> {
        specs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_candidate_model_is_supported() {
        for model in [None, Some(ExecModel::Barrier), Some(ExecModel::Async)] {
            let list = entrants(&grid_features(), model, 3);
            assert!(!list.is_empty());
            for spec in &list {
                let info = registry::info(spec.name()).expect("registered scheduler");
                let model = spec.exec_model().expect("entrants always pin a model");
                assert!(info.exec_models.contains(&model), "{spec} uses an unsupported model");
            }
        }
    }

    #[test]
    fn entrants_follow_the_fixed_order() {
        let mut f = grid_features();
        f.width_quantiles[2] = 38;
        let wide = ["funnel-gl@barrier", "hdagg@barrier", "growlocal@barrier"];
        assert_eq!(texts(&entrants(&f, None, 3)), wide);
        f.width_quantiles[2] = 18;
        let narrow = ["funnel-gl@barrier", "hdagg@barrier", "wavefront@serial"];
        assert_eq!(texts(&entrants(&f, None, 3)), narrow);
        // A budget truncates from the tail; a larger one adds nothing.
        assert_eq!(texts(&entrants(&f, None, 2)), narrow[..2]);
        assert_eq!(texts(&entrants(&f, None, 12)), narrow);
        assert!(entrants(&f, None, 0).is_empty());
    }

    #[test]
    fn the_narrow_front_threshold_is_pinned() {
        let mut f = grid_features();
        let third = |f: &TuneFeatures| entrants(f, None, 3)[2].to_string();
        f.width_quantiles[2] = NARROW_FRONT_P90;
        assert_eq!(third(&f), "wavefront@serial");
        f.width_quantiles[2] = NARROW_FRONT_P90 + 1;
        assert_eq!(third(&f), "growlocal@barrier");
        assert_eq!(NARROW_FRONT_P90, 24);
    }

    #[test]
    fn near_sequential_races_the_sweep_alone() {
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, 1.0).unwrap();
            }
        }
        let l: CsrMatrix = coo.to_csr();
        let f = TuneFeatures::extract(&l);
        assert_eq!(texts(&entrants(&f, None, 3)), ["wavefront@serial"]);
        // Under a model restriction the sweep takes that model.
        assert_eq!(texts(&entrants(&f, Some(ExecModel::Async), 3)), ["wavefront@async"]);
    }

    #[test]
    fn model_filter_restricts_the_walk() {
        let f = grid_features();
        let asynchronous = ["spmp@async", "funnel-gl@async", "hdagg@async"];
        assert_eq!(texts(&entrants(&f, Some(ExecModel::Async), 3)), asynchronous);
        assert_eq!(texts(&entrants(&f, Some(ExecModel::Serial), 3)), ["wavefront@serial"]);
        for spec in entrants(&f, Some(ExecModel::Barrier), 3) {
            assert_eq!(spec.exec_model(), Some(ExecModel::Barrier));
        }
    }
}
