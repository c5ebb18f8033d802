//! Warm-start integration tests: the serialization subsystem's end-to-end
//! guarantees across the whole registry.
//!
//! * save → load → solve is **bit-identical** to the cold plan for every
//!   registered scheduler × every execution model it supports (and over
//!   randomized operands, spec parameters and core counts via proptest);
//! * a `plan_cache` directory shared by many schedulers serves each its
//!   own plan (fingerprints never collide across specs in practice);
//! * `SolvePlan::with_new_values` matches a cold build of the new matrix
//!   bit-for-bit for every scheduler;
//! * every way a plan file can rot — truncation at each line, corruption
//!   of each line, version skew, wrong matrix, wrong flags, empty or
//!   garbage bytes — surfaces as an **error**, never as a solution.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::core::registry;
use sptrsv::core::{PlanCache, SerializeError};
use sptrsv::exec::{CacheOutcome, PlanBuilder, PlanError};
use sptrsv::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sptrsv-warmstart-it").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// The standing operand: a §6.2-shaped grid Laplacian lower triangle,
/// small enough to sweep the full registry quickly.
fn operand() -> CsrMatrix {
    grid2d_laplacian(20, 17, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap()
}

/// A right-hand side with enough structure to catch permutation bugs.
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 7) % 13) as f64 - 6.0).collect()
}

/// Same structure as `l`, different values (diagonal kept nonzero).
fn rescaled(l: &CsrMatrix) -> CsrMatrix {
    CsrMatrix::from_raw(
        l.n_rows(),
        l.n_cols(),
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.values().iter().map(|v| v * 1.75 - 0.125).collect(),
    )
    .unwrap()
}

#[test]
fn save_load_solve_is_bit_identical_for_every_scheduler_and_model() {
    let l = operand();
    let b = rhs(l.n_rows());
    let dir = scratch("save-load-sweep");
    for info in registry::list() {
        for &model in info.exec_models {
            let path = dir.join(format!("{}-{model}.plan", info.name));
            let cold = PlanBuilder::new(&l)
                .scheduler(info.name)
                .cores(3)
                .execution(model)
                .build()
                .unwrap();
            assert_eq!(cold.cache_outcome(), CacheOutcome::Uncached, "{}@{model}", info.name);
            cold.save(&path).unwrap();
            let loaded = PlanBuilder::new(&l)
                .scheduler(info.name)
                .cores(3)
                .execution(model)
                .load_plan(&path)
                .build()
                .unwrap();
            assert_eq!(
                loaded.cache_outcome(),
                CacheOutcome::DiskHit,
                "{}@{model} did not load from its file",
                info.name
            );
            assert_eq!(
                cold.solve(&b),
                loaded.solve(&b),
                "{}@{model}: loaded plan diverged from the cold plan",
                info.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_cache_directory_serves_every_scheduler_its_own_plan() {
    let l = operand();
    let b = rhs(l.n_rows());
    let dir = scratch("shared-dir");
    // Round 1: every scheduler stores under its own fingerprint.
    let mut expected = Vec::new();
    for info in registry::list() {
        let cold =
            PlanBuilder::new(&l).scheduler(info.name).cores(3).plan_cache(&dir).build().unwrap();
        assert_eq!(cold.cache_outcome(), CacheOutcome::Miss, "{}", info.name);
        expected.push((info.name, cold.solve(&b)));
    }
    // Round 2: every scheduler hits its own file, never a neighbor's.
    for (name, x) in &expected {
        let warm = PlanBuilder::new(&l).scheduler(*name).cores(3).plan_cache(&dir).build().unwrap();
        assert_eq!(warm.cache_outcome(), CacheOutcome::DiskHit, "{name}");
        assert_eq!(&warm.solve(&b), x, "{name}: disk hit diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_cache_hits_are_bit_identical_for_every_scheduler() {
    let l = operand();
    let b = rhs(l.n_rows());
    let cache = Arc::new(PlanCache::new(registry::list().len()));
    for info in registry::list() {
        let cold =
            PlanBuilder::new(&l).scheduler(info.name).cores(3).cached(&cache).build().unwrap();
        assert_eq!(cold.cache_outcome(), CacheOutcome::Miss, "{}", info.name);
        let warm =
            PlanBuilder::new(&l).scheduler(info.name).cores(3).cached(&cache).build().unwrap();
        assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit, "{}", info.name);
        assert_eq!(cold.solve(&b), warm.solve(&b), "{}: memory hit diverged", info.name);
    }
    assert_eq!(cache.len(), registry::list().len(), "one entry per scheduler identity");
}

#[test]
fn with_new_values_matches_a_cold_build_for_every_scheduler() {
    let l = operand();
    let scaled = rescaled(&l);
    let b = rhs(l.n_rows());
    for info in registry::list() {
        let plan = PlanBuilder::new(&l).scheduler(info.name).cores(3).build().unwrap();
        let rebound = plan.with_new_values(&scaled).unwrap();
        let direct = PlanBuilder::new(&scaled).scheduler(info.name).cores(3).build().unwrap();
        assert_eq!(
            rebound.solve(&b),
            direct.solve(&b),
            "{}: with_new_values != cold build of the new matrix",
            info.name
        );
    }
}

#[test]
fn every_way_a_plan_file_rots_is_an_error_never_an_answer() {
    let l = operand();
    let dir = scratch("corruption");
    let path = dir.join("victim.plan");
    let plan = PlanBuilder::new(&l).cores(3).build().unwrap();
    plan.save(&path).unwrap();
    let pristine = std::fs::read_to_string(&path).unwrap();
    let load = |p: &PathBuf| PlanBuilder::new(&l).cores(3).load_plan(p).build();

    // The pristine file loads (sanity for everything below).
    assert!(load(&path).is_ok());

    let lines: Vec<&str> = pristine.lines().collect();
    // Truncate after every prefix length: always an error.
    for keep in 0..lines.len() {
        std::fs::write(&path, lines[..keep].join("\n")).unwrap();
        assert!(
            matches!(load(&path), Err(PlanError::Cache(_))),
            "file truncated to {keep} of {} lines must not load",
            lines.len()
        );
    }
    // Mutate every line that carries a digit: the checksum (or a header
    // parse, or the fingerprint comparison) must catch each one — no
    // single-line edit may load. The `key` line is the one exception: it
    // is advisory text, the fingerprint is the authoritative binding.
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("key ") {
            continue;
        }
        let Some(d) = line.chars().find(|c| c.is_ascii_digit()) else { continue };
        let flipped = if d == '9' { '3' } else { char::from(d as u8 + 1) };
        let mut copy = lines.clone();
        let edited = line.replacen(d, &flipped.to_string(), 1);
        copy[i] = &edited;
        std::fs::write(&path, copy.join("\n")).unwrap();
        assert!(
            matches!(load(&path), Err(PlanError::Cache(_))),
            "edited line {i} (`{line}`) must not load"
        );
    }
    // Version skew is its own error (so formats can evolve loudly).
    std::fs::write(&path, pristine.replacen("v3", "v9", 1)).unwrap();
    assert!(matches!(load(&path), Err(PlanError::Cache(SerializeError::Version { .. }))));
    // A plan for the wrong matrix, or the wrong build flags, is a
    // fingerprint mismatch — the file itself is intact.
    std::fs::write(&path, &pristine).unwrap();
    let other = grid2d_laplacian(13, 13, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    assert!(matches!(
        PlanBuilder::new(&other).cores(3).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
    ));
    assert!(matches!(
        PlanBuilder::new(&l).cores(2).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
    ));
    assert!(matches!(
        PlanBuilder::new(&l).cores(3).reorder(false).load_plan(&path).build(),
        Err(PlanError::Cache(SerializeError::FingerprintMismatch { .. }))
    ));
    // Empty and garbage files.
    std::fs::write(&path, "").unwrap();
    assert!(matches!(load(&path), Err(PlanError::Cache(_))));
    std::fs::write(&path, "definitely not a plan\n\u{1F980}\n").unwrap();
    assert!(matches!(load(&path), Err(PlanError::Cache(_))));
    // A missing file is an IO error, not a panic.
    assert!(load(&dir.join("never-written.plan")).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Randomized round trip: a random ER operand, a random registry
    // example spec and a random core count must save → load → solve
    // bit-identically, and a values-only change on the same structure
    // must still hit the cache and match a cold build exactly.
    #[test]
    fn random_plans_round_trip_through_disk_and_memory(
        seed in any::<u64>(),
        entry_pick in any::<u64>(),
        cores in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 24 + (seed % 40) as usize;
        let l = sptrsv::sparse::gen::erdos_renyi_lower(n, 0.12, &mut rng);
        let entries = registry::list();
        let entry = &entries[(entry_pick % entries.len() as u64) as usize];
        // Alternate between the bare name and its parameterized examples.
        let specs: Vec<&str> = std::iter::once(entry.name).chain(entry.examples.iter().copied()).collect();
        let spec = specs[(entry_pick / 7 % specs.len() as u64) as usize];
        let b = rhs(n);

        let dir = scratch(&format!("prop-{seed}-{entry_pick}-{cores}"));
        let path = dir.join("round-trip.plan");
        let cold = PlanBuilder::new(&l).scheduler(spec).cores(cores).build().unwrap();
        let x = cold.solve(&b);
        cold.save(&path).unwrap();
        let loaded = PlanBuilder::new(&l)
            .scheduler(spec)
            .cores(cores)
            .load_plan(&path)
            .build()
            .unwrap();
        prop_assert_eq!(loaded.cache_outcome(), CacheOutcome::DiskHit);
        prop_assert_eq!(&loaded.solve(&b), &x, "`{}` loaded plan diverged", spec);

        // Values-only change: memory hit, and exact agreement with a
        // from-scratch build of the new matrix.
        let cache = Arc::new(PlanCache::new(2));
        let scaled = rescaled(&l);
        PlanBuilder::new(&l).scheduler(spec).cores(cores).cached(&cache).build().unwrap();
        let warm = PlanBuilder::new(&scaled)
            .scheduler(spec)
            .cores(cores)
            .cached(&cache)
            .build()
            .unwrap();
        prop_assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
        let direct = PlanBuilder::new(&scaled).scheduler(spec).cores(cores).build().unwrap();
        prop_assert_eq!(
            &warm.solve(&b),
            &direct.solve(&b),
            "`{}` rebound hit diverged from a cold build",
            spec
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
