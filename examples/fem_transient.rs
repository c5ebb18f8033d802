//! Transient FEM-style simulation: one sparsity pattern, many solves.
//!
//! ```text
//! cargo run --release --example fem_transient
//! ```
//!
//! Implicit time stepping of a diffusion problem `(I + dt·K) u_{t+1} = u_t`
//! solved with Gauss–Seidel sweeps, whose core is exactly the SpTRSV kernel:
//! the forward sweep is a lower-triangular solve with the matrix `D + L_K`.
//! The mesh (and hence the sparsity pattern) is fixed, so the plan is built
//! once — `PlanBuilder` with a registry spec — and its compiled schedule is
//! amortized over every sweep of every time step, solving through
//! `solve_into` so the steady state allocates nothing. The example reports
//! the measured planning time, the modeled per-solve gain, and the
//! break-even step count (§7.7).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::exec::PlanBuilder;
use sptrsv::prelude::*;
use sptrsv::sparse::linalg::{norm2, spmv};
use sptrsv::sparse::CooMatrix;
use std::time::Instant;

fn main() {
    // Stiffness-like operator on a 2D plate, system matrix A = I + dt·K,
    // with an application-like (block-shuffled) node numbering.
    let dt = 0.1;
    let mut rng = SmallRng::seed_from_u64(5);
    let k_mat = grid2d_laplacian(70, 70, Stencil2D::NinePoint, 0.0);
    let renumber = sptrsv::sparse::gen::block_shuffle_permutation(k_mat.n_rows(), 49, &mut rng);
    let k_mat = k_mat.symmetric_permute(&renumber).expect("square");
    let n = k_mat.n_rows();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in k_mat.iter() {
        let v = dt * v + if r == c { 1.0 } else { 0.0 };
        coo.push(r, c, v).expect("in range");
    }
    let a = coo.to_csr();

    // Gauss–Seidel splitting: M = D + L (lower triangle of A).
    let m = a.lower_triangle().expect("square");
    let dag = SolveDag::from_lower_triangular(&m);
    println!(
        "system: {} unknowns, {} non-zeros, avg wavefront {:.1}",
        n,
        a.nnz(),
        average_wavefront_size(&dag)
    );

    // Plan once (timed): schedule + §5 reordering + compiled executor in
    // one call.
    let t0 = Instant::now();
    let plan = PlanBuilder::new(&m).scheduler("growlocal").cores(8).build().expect("valid plan");
    let sched_time = t0.elapsed();
    println!(
        "GrowLocal plan: {} supersteps, built in {:.2} ms",
        plan.schedule().n_supersteps(),
        sched_time.as_secs_f64() * 1e3
    );

    // Time stepping: u_{t+1} solves A u = u_t, approximated by `sweeps`
    // Gauss–Seidel iterations, each one parallel SpTRSV.
    let mut u: Vec<f64> = (0..n).map(|i| if i == n / 2 { 100.0 } else { 0.0 }).collect();
    let steps = 20;
    let sweeps = 4;
    let mut solves = 0usize;
    let mut workspace = plan.workspace();
    let mut d = vec![0.0; n];
    for step in 0..steps {
        let rhs = u.clone();
        // Gauss–Seidel: u <- u + M^{-1}(rhs - A u).
        for _ in 0..sweeps {
            let mut au = vec![0.0; n];
            spmv(&a, &u, &mut au);
            let residual: Vec<f64> = rhs.iter().zip(&au).map(|(b, ax)| b - ax).collect();
            // Solve M d = residual (the plan applies its permutation internally).
            plan.solve_into(&residual, &mut d, &mut workspace);
            for (ui, di) in u.iter_mut().zip(&d) {
                *ui += di;
            }
            solves += 1;
        }
        if step % 5 == 0 {
            let mut au = vec![0.0; n];
            spmv(&a, &u, &mut au);
            let r: Vec<f64> = rhs.iter().zip(&au).map(|(b, ax)| b - ax).collect();
            println!("  step {step:2}: ||r|| = {:.3e}, energy {:.3}", norm2(&r), norm2(&u));
        }
    }
    println!("{solves} parallel triangular solves executed with one compiled plan");

    // Amortization: modeled gain per solve vs measured planning cost
    // (`plan.simulate` runs the machine model on the plan's own compiled
    // layout, under the plan's execution model).
    let profile = MachineProfile::intel_xeon_22();
    let serial = simulate_serial(&m, &profile);
    let par = plan.simulate(&profile);
    let gain_cycles = serial.cycles - par.cycles;
    if gain_cycles > 0.0 {
        let sched_cycles = sched_time.as_secs_f64() * 2.5e9;
        println!(
            "modeled speed-up {:.2}x; planning amortizes after {:.1} solves \
             (this run used {solves})",
            par.speedup_over(&serial),
            sched_cycles / gain_cycles
        );
    }
}
