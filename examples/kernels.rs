//! Kernel-plan coverage report: what the supernode/dense-block detection
//! actually finds on each generator family and §6.2 suite.
//!
//! ```text
//! cargo run --release --example kernels
//! ```
//!
//! For every operand this prints the natural-order kernel plan's
//! composition — how many rows execute as packed dense blocks, how many as
//! lane-unrolled long rows, and how many stay on the reciprocal scalar
//! kernel — plus the block count and mean block size. The cost guard is
//! deliberately conservative (see `sptrsv_core::kernel`): supernodal
//! operands should be almost fully blocked, chained bundles and stencils
//! should stay scalar, and wide random rows should go unrolled.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv::core::kernel::KernelPlan;
use sptrsv::prelude::*;
use sptrsv::sparse::gen::{erdos_renyi_lower, narrow_band_lower};

/// Prints one operand's plan composition.
fn report(name: &str, l: &CsrMatrix) {
    let plan = KernelPlan::detect_serial(l);
    let n = plan.n_rows();
    let dense = plan.dense_rows();
    let unrolled = plan.unrolled_rows();
    let scalar = n - dense - unrolled;
    let blocks = plan.blocks().len();
    let mean = if blocks == 0 { 0.0 } else { dense as f64 / blocks as f64 };
    println!(
        "{name:<26} {n:>6} rows  {:>5.1}% dense  {:>5.1}% unrolled  {:>5.1}% scalar  ({blocks} blocks, mean size {mean:.1})",
        100.0 * dense as f64 / n as f64,
        100.0 * unrolled as f64 / n as f64,
        100.0 * scalar as f64 / n as f64,
    );
}

fn main() {
    println!("generator families:");
    let mut rng = SmallRng::seed_from_u64(7);
    report(
        "supernodal_spd(64,8,2)",
        &supernodal_spd(64, 8, 2, 0.5).lower_triangle().expect("square"),
    );
    report(
        "block_diagonal_spd(64,8)",
        &block_diagonal_spd(64, 8, 0.5).lower_triangle().expect("square"),
    );
    report(
        "grid2d 5pt 48x48",
        &grid2d_laplacian(48, 48, Stencil2D::FivePoint, 0.5).lower_triangle().expect("square"),
    );
    report(
        "grid2d 9pt 48x48",
        &grid2d_laplacian(48, 48, Stencil2D::NinePoint, 0.5).lower_triangle().expect("square"),
    );
    report(
        "grid3d 27pt 13^3",
        &grid3d_laplacian(13, 13, 13, Stencil3D::TwentySevenPoint, 0.5)
            .lower_triangle()
            .expect("square"),
    );
    report("erdos_renyi(900,0.12)", &erdos_renyi_lower(900, 0.12, &mut rng));
    report("narrow_band(2000,b10)", &narrow_band_lower(2000, 0.14, 10.0, &mut rng));

    println!();
    println!("§6.2 suites (test scale):");
    for kind in SuiteKind::all() {
        let suite = load_suite(kind, Scale::Test, 3);
        let ds = &suite[0];
        report(&format!("{kind:?}/{}", ds.name), &ds.lower);
    }
}
