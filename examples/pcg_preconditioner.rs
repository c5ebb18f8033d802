//! Preconditioned conjugate gradients with an IC(0) preconditioner.
//!
//! ```text
//! cargo run --release --example pcg_preconditioner
//! ```
//!
//! This is the workload the paper's introduction motivates: every PCG
//! iteration applies the preconditioner `M = L·Lᵀ` by one forward and one
//! backward triangular solve with a *fixed* sparsity pattern, so the
//! schedule is computed once and reused hundreds of times (amortization,
//! §7.7).
//!
//! Scheduler selection is handed to the auto-tuner (`sptrsv-tune`): it
//! reads the factor's features, builds at most three entrants, races them
//! in wall-clock time on the factor itself, and names the fastest — no
//! scheduler name appears in this file.
//!
//! Both sweeps go through `PlanBuilder`: the forward solve plans `L` as a
//! lower operand, the backward solve plans `Lᵀ` as an *upper* operand (the
//! plan conjugates with the index-reversal permutation internally, §2.2).
//! Solves run through `solve_into` with reusable workspaces, so the steady
//! state of the PCG loop performs no heap allocation inside the
//! preconditioner.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::exec::{Orientation, PlanBuilder};
use sptrsv::prelude::*;
use sptrsv::sparse::factor::{ichol0, IcholOptions};
use sptrsv::sparse::linalg::{axpy, dot, norm2, spmv};

fn main() {
    // SPD system: 3D 7-point Laplacian (a pressure-solve stand-in) with an
    // application-like node numbering (locally contiguous blocks in random
    // order — a lexicographic numbering has a single DAG source, which no
    // real mesh exhibits).
    let mut rng = SmallRng::seed_from_u64(3);
    let a = grid3d_laplacian(20, 20, 20, Stencil3D::SevenPoint, 0.05);
    let renumber = sptrsv::sparse::gen::block_shuffle_permutation(a.n_rows(), 64, &mut rng);
    let a = a.symmetric_permute(&renumber).expect("square");
    let n = a.n_rows();
    println!("A: {} rows, {} non-zeros", n, a.nnz());

    // IC(0) factor and the two solve plans (one schedule each, computed
    // once, reused by every preconditioner application). The forward plan
    // lets the tuner pick the (scheduler, model) pair from the factor's
    // structure; the backward sweep solves the transpose, whose internal
    // lower operand has the same structure mirrored, so the same winning
    // spec is reused rather than tuned twice. The forward build reuses the
    // plan the tuner's race already built.
    let l = ichol0(&a, &IcholOptions::default()).expect("diagonally dominant");
    let lt = l.transpose();
    let tune_report = Tuner::new(&l).cores(8).run().expect("tuning a well-formed factor");
    println!(
        "auto picked: {} ({} entrants raced, {:.1} ms tuning)",
        tune_report.winner,
        tune_report.ranked.len(),
        tune_report.tuning_seconds * 1e3
    );
    let forward = PlanBuilder::new(&l)
        .scheduler(tune_report.winner.to_string())
        .cores(8)
        .cached(&tune_report.plans)
        .build()
        .expect("valid lower plan");
    let backward = PlanBuilder::new(&lt)
        .orientation(Orientation::Upper)
        .scheduler(tune_report.winner.to_string())
        .cores(8)
        .build()
        .expect("valid upper plan");

    // Apply M⁻¹ r: forward solve, then backward solve — allocation-free via
    // per-plan workspaces.
    let mut fwd_ws = forward.workspace();
    let mut bwd_ws = backward.workspace();
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut apply_preconditioner = |r: &[f64], z: &mut Vec<f64>| {
        forward.solve_into(r, &mut y, &mut fwd_ws);
        backward.solve_into(&y, z, &mut bwd_ws);
    };

    // PCG on A x = b.
    let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 5.0).collect();
    let mut x = vec![0.0; n];
    let mut r = b.clone();
    apply_preconditioner(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let nb = norm2(&b);
    let mut iterations = 0;
    for it in 0..500 {
        iterations = it + 1;
        let mut ap = vec![0.0; n];
        spmv(&a, &p, &mut ap);
        let alpha = rz / dot(&p, &ap);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rel = norm2(&r) / nb;
        if it % 10 == 0 {
            println!("  iter {it:3}: relative residual {rel:.3e}");
        }
        if rel < 1e-10 {
            break;
        }
        apply_preconditioner(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    let rel = sptrsv::sparse::linalg::relative_residual(&a, &x, &b);
    println!("PCG converged in {iterations} iterations, final relative residual {rel:.3e}");
    assert!(rel < 1e-8, "PCG failed to converge");
    println!(
        "preconditioner applications: {} (2 triangular solves each) — \
         one schedule per sweep, reused every time",
        iterations + 1
    );

    // How many solves pay off the scheduling time? (Table 7.6's question.)
    // `simulate` runs the machine model on the plan's shared compiled layout.
    let profile = MachineProfile::intel_xeon_22();
    let serial = simulate_serial(&l, &profile);
    let par = forward.simulate(&profile);
    println!(
        "modeled per-solve speed-up {:.2}x on {} ({} supersteps)",
        par.speedup_over(&serial),
        profile.name,
        forward.schedule().n_supersteps()
    );
    // Tuning amortization: the one-off tuner run divided across every
    // triangular solve this PCG run performed.
    let solves = 2 * (iterations + 1);
    println!(
        "tuning cost amortized: {:.1} ms / {} solves = {:.3} ms per solve",
        tune_report.tuning_seconds * 1e3,
        solves,
        tune_report.tuning_seconds * 1e3 / solves as f64
    );
}
