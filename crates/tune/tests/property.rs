//! Property tests for `spec=auto` resolution (the tuning layer's
//! contract): for any well-formed lower-triangular operand and any
//! budget,
//!
//! 1. resolution is **reproducible where a timed pick can be** — the same
//!    matrix and budget always race the same entrants in the same order,
//!    the winner is one of them, and a repeated run with a verdict cache
//!    directory is a hit with the identical winner;
//! 2. the winner always **parses and validates** under the v2 spec
//!    grammar (a registered scheduler name, resolvable model and
//!    execution policy — never the literal `auto`);
//! 3. the winner's (scheduler, model) pair is always **drawn from
//!    [`registry::list()`]'s supported-model lists**.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv_core::registry::{self, ExecModel, SchedulerSpec};
use sptrsv_sparse::gen;
use sptrsv_sparse::CsrMatrix;
use sptrsv_tune::{CacheStatus, TuneBudget, Tuner};

/// A random well-formed operand: narrow-band or Erdős–Rényi
/// lower-triangular, sizes small enough to schedule thousands of cases.
fn operand(kind: usize, n: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind % 2 {
        0 => gen::narrow_band::narrow_band_lower(n, 0.3, 4.0, &mut rng),
        _ => gen::erdos_renyi::erdos_renyi_lower(n, 0.15, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn auto_resolution_is_deterministic_valid_and_registry_backed(
        kind in 0usize..2,
        n in 8usize..64,
        seed in 0u64..1000,
        max_candidates in 1usize..16,
        cores in 1usize..5,
        model_choice in 0usize..4,
    ) {
        let lower = operand(kind, n, seed);
        let budget = TuneBudget { max_candidates };
        let make = || {
            let mut tuner = Tuner::new(&lower).cores(cores).budget(budget.clone());
            tuner = match model_choice {
                0 => tuner.model(ExecModel::Barrier),
                1 => tuner.model(ExecModel::Async),
                2 => tuner.model(ExecModel::Serial),
                _ => tuner,
            };
            tuner
        };
        let dir = std::env::temp_dir().join(format!(
            "sptrsv-tune-prop-{}-{kind}-{n}-{seed}-{max_candidates}-{cores}-{model_choice}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let report = make().cache_dir(&dir).run().expect("tuning any well-formed operand succeeds");

        // 1. Reproducible: an identical run races the identical entrants in
        //    the identical order, the winner is one of them, and the
        //    verdict cache serves the identical winner.
        let again = make().run().expect("second identical run");
        let ranked: Vec<String> =
            report.ranked.iter().map(|e| e.spec.to_string()).collect();
        let ranked_again: Vec<String> =
            again.ranked.iter().map(|e| e.spec.to_string()).collect();
        prop_assert_eq!(&ranked, &ranked_again);
        prop_assert!(ranked.contains(&report.winner.to_string()), "winner is no entrant");
        let cached = make().cache_dir(&dir).run().expect("cached identical run");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(cached.cache, CacheStatus::Hit);
        prop_assert_eq!(report.winner.to_string(), cached.winner.to_string());

        // 2. The winner round-trips through the v2 grammar and resolves.
        let text = report.winner.to_string();
        let parsed: SchedulerSpec =
            text.parse().expect("winner must re-parse under the v2 grammar");
        prop_assert!(parsed.name() != "auto", "auto must resolve to a concrete scheduler");
        let info = registry::info(parsed.name())
            .unwrap_or_else(|| panic!("winner `{text}` names an unregistered scheduler"));
        registry::resolve_exec_policy(&parsed)
            .expect("winner's policy keys must validate");

        // 3. The (scheduler, model) pair comes from the registry's
        //    supported-model lists.
        let model = registry::resolve_model(&parsed)
            .expect("winner's model must resolve");
        prop_assert!(
            info.exec_models.contains(&model),
            "winner {} uses model {} absent from {}'s exec_models {:?}",
            text, model, info.name, info.exec_models
        );
        if let Some(want) = match model_choice {
            0 => Some(ExecModel::Barrier),
            1 => Some(ExecModel::Async),
            2 => Some(ExecModel::Serial),
            _ => None,
        } {
            prop_assert_eq!(model, want, "model restriction leaked");
        }

        // The budget is honored: never more scored candidates than allowed.
        prop_assert!(report.ranked.len() <= max_candidates);
    }
}
