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
//! * a cold build, a memory hit, a disk hit and a value rebind assemble
//!   the same plan: schedule, model, policy, wait DAG and kernel verdict;
//! * every way a plan file can rot — truncation at each line, corruption
//!   of each line, version skew, wrong matrix, wrong flags, empty or
//!   garbage bytes — surfaces as an **error**, never as a solution.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::core::registry::{self, SchedulerSpec};
use sptrsv::core::{read_plan_file, PlanCache, SavedPlan, SerializeError};
use sptrsv::exec::{
    CacheOutcome, ExecModel, Orientation, PlanBuilder, PlanError, PreOrder, SolvePlan,
};
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

/// The edges of `dag` as sorted `(parent, child)` pairs.
fn edge_set(dag: &SolveDag) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> =
        (0..dag.n()).flat_map(|w| dag.parents(w).iter().map(move |&u| (u, w))).collect();
    edges.sort_unstable();
    edges
}

/// What `plan.save` persists: schedule, reorder permutation, kernel
/// verdict and the reduced wait DAG's removed edges.
fn persisted(plan: &SolvePlan, path: &std::path::Path) -> SavedPlan {
    plan.save(path).unwrap();
    read_plan_file(path).unwrap()
}

#[test]
fn every_plan_source_assembles_the_same_plan() {
    // A plan comes from a cold build, an in-process cache hit, a plan file
    // or `with_new_values`. Whatever the source, it must carry the same
    // schedule, model, policy, wait DAG and kernel verdict. Comparing
    // solves alone would not show this: an asynchronous plan solves
    // bit-identically whatever DAG it waits on.
    let lower = sptrsv::sparse::gen::supernodal_spd(12, 8, 2, 0.5).lower_triangle().unwrap();
    let operands = [
        (Orientation::Lower, PreOrder::Natural, lower.clone()),
        (Orientation::Upper, PreOrder::Rcm, lower.transpose()),
    ];
    let dir = scratch("assembly-parity");
    let mut config_id = 0;
    for (orientation, pre_order, m) in &operands {
        let b = rhs(m.n_rows());
        for scheduler in ["spmp", "growlocal"] {
            for suffix in ["@barrier", "@serial", ":sync=reduced@async", ":sync=full@async"] {
                for fastmath in [false, true] {
                    let spec: SchedulerSpec = format!("{scheduler}{suffix}").parse().unwrap();
                    let spec = spec.with("fastmath", if fastmath { "on" } else { "off" });
                    let spec = spec.to_string();
                    let config = format!("{orientation:?} {pre_order:?} {spec}");
                    let build = || {
                        PlanBuilder::new(m)
                            .orientation(*orientation)
                            .pre_order(*pre_order)
                            .scheduler(&spec)
                            .cores(3)
                    };
                    config_id += 1;
                    let cache_dir = dir.join(format!("config-{config_id}"));
                    std::fs::remove_dir_all(&cache_dir).ok();
                    let cache = Arc::new(PlanCache::new(1));
                    let cold = build().cached(&cache).plan_cache(&cache_dir).build().unwrap();
                    assert_eq!(cold.cache_outcome(), CacheOutcome::Miss, "{config}");
                    let memory = build().cached(&cache).build().unwrap();
                    assert_eq!(memory.cache_outcome(), CacheOutcome::MemoryHit, "{config}");
                    let disk = build().plan_cache(&cache_dir).build().unwrap();
                    assert_eq!(disk.cache_outcome(), CacheOutcome::DiskHit, "{config}");
                    let rebound = cold.with_new_values(m).unwrap();
                    // A memory hit on an entry a barrier build published
                    // carries no wait DAG, so assembly derives it.
                    let barrier_cache = Arc::new(PlanCache::new(1));
                    build().execution(ExecModel::Barrier).cached(&barrier_cache).build().unwrap();
                    let derived = build().cached(&barrier_cache).build().unwrap();
                    assert_eq!(derived.cache_outcome(), CacheOutcome::MemoryHit, "{config}");

                    let expected = persisted(&cold, &cache_dir.join("cold.plan"));
                    assert_eq!(expected.kernel.is_some(), fastmath, "{config}: kernel verdict");
                    assert_eq!(
                        cold.sync_dag().is_some(),
                        cold.exec_model() == ExecModel::Async,
                        "{config}: wait DAG"
                    );
                    let x = cold.solve(&b);
                    let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    for (way, plan) in [
                        ("memory hit", &memory),
                        ("disk hit", &disk),
                        ("with_new_values", &rebound),
                        ("memory hit on a barrier entry", &derived),
                    ] {
                        let what = format!("{config}: {way}");
                        assert_eq!(plan.schedule(), cold.schedule(), "{what}: schedule");
                        assert_eq!(plan.exec_model(), cold.exec_model(), "{what}: model");
                        assert_eq!(plan.exec_policy(), cold.exec_policy(), "{what}: policy");
                        assert_eq!(
                            plan.sync_dag().map(edge_set),
                            cold.sync_dag().map(edge_set),
                            "{what}: wait DAG"
                        );
                        let path = cache_dir.join(format!("{way}.plan"));
                        assert_eq!(persisted(plan, &path), expected, "{what}: persisted plan");
                        let y = plan.solve(&b);
                        if fastmath {
                            let dev =
                                x.iter().zip(&y).map(|(a, e)| (a - e).abs()).fold(0.0, f64::max);
                            assert!(dev / scale < 1e-12, "{what}: solve deviates by {dev}");
                        } else {
                            assert_eq!(y, x, "{what}: solve");
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
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
