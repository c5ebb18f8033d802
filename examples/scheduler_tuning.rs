//! Exploring GrowLocal's parameter space and the baseline schedulers.
//!
//! ```text
//! cargo run --release --example scheduler_tuning
//! ```
//!
//! Sweeps the synchronization-cost parameter `L`, the `α` growth factor and
//! the vertex-selection rule on one hard (narrow-bandwidth) instance, and
//! compares all registered schedulers on supersteps, balance and modeled
//! cycles — a miniature of the paper's ablation studies. Every scheduler is
//! resolved from a registry spec string, so the sweeps double as a demo of
//! the `name:key=value` grammar.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::core::registry::{self, ExecModel};
use sptrsv::core::CompiledSchedule;
use sptrsv::prelude::*;

/// Resolves a spec, schedules, simulates under the spec's execution model,
/// and prints the summary line — the full `name:key=value@model` grammar in
/// one helper.
fn run_spec(spec: &str, dag: &SolveDag, matrix: &CsrMatrix, k: usize) {
    let parsed = spec.parse().expect("spec follows the grammar");
    let model = registry::resolve_model(&parsed).expect("model is supported");
    let policy = registry::resolve_exec_policy(&parsed).expect("policy keys are valid");
    let sched = registry::build(&parsed, dag, k).expect("spec is registered");
    let s = sched.schedule(dag, k);
    s.validate(dag).expect("schedule must be valid");
    let stats = s.stats(dag);
    let profile = MachineProfile::intel_xeon_22();
    let serial = simulate_serial(matrix, &profile);
    let compiled = CompiledSchedule::from_schedule(&s);
    let par = sptrsv::exec::simulate_model(matrix, &compiled, model, None, None, &profile, policy);
    println!(
        "{spec:<38} supersteps {:>6}  imbalance {:>5.2}  modeled speed-up {:>5.2}x",
        s.n_supersteps(),
        stats.average_imbalance(),
        par.speedup_over(&serial)
    );
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(11);
    let l = sptrsv::sparse::gen::narrow_band_lower(30_000, 0.14, 10.0, &mut rng);
    let dag = SolveDag::from_lower_triangular(&l);
    println!(
        "narrow-bandwidth instance: n = {}, nnz = {}, wavefronts = {}\n",
        l.n_rows(),
        l.nnz(),
        wavefronts(&dag).n_fronts()
    );
    let k = 8;

    println!("-- synchronization-cost parameter L (paper default 500) --");
    for sync_cost in [50u64, 500, 5000] {
        run_spec(&format!("growlocal:sync={sync_cost}"), &dag, &l, k);
    }

    println!("\n-- alpha growth factor (paper default 1.5) --");
    for growth in [1.2f64, 1.5, 2.0] {
        run_spec(&format!("growlocal:growth={growth}"), &dag, &l, k);
    }

    println!("\n-- vertex-selection rule (Rule I ablation) --");
    for priority in ["rule1", "id-only"] {
        run_spec(&format!("growlocal:priority={priority}"), &dag, &l, k);
    }

    println!("\n-- execution models (the @model spec dimension) --");
    for model in ExecModel::ALL {
        run_spec(&format!("growlocal@{model}"), &dag, &l, k);
    }

    println!("\n-- execution policy: wait DAG and backoff (the §8 exploration) --");
    for spec in [
        "spmp@async",
        "spmp:sync=full@async",
        "spmp:backoff=yield@async",
        "spmp:sync=full,backoff=yield@async",
    ] {
        run_spec(spec, &dag, &l, k);
    }

    println!("\n-- nested scopes: tuning funnel-gl's inner GrowLocal --");
    for alpha in [4u64, 20, 80] {
        run_spec(&format!("funnel-gl:cap=auto,gl.alpha={alpha}"), &dag, &l, k);
    }

    println!("\n-- all registered schedulers (defaults) --");
    for info in registry::list() {
        run_spec(info.name, &dag, &l, k);
    }
    println!("\n(wavefront scheduling pays one barrier per level — on this matrix");
    println!(" that is thousands of barriers, which is exactly what GrowLocal avoids)");
}
