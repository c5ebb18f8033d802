//! Row and block kernels: the arithmetic every executor's inner loop runs.
//!
//! Two families share this module:
//!
//! * **Exact scalar kernels** — `substitute_row`, `solve_row_raw` and the
//!   register-blocked `solve_row_block::<R, _>` (whose reciprocal finish
//!   doubles as the multi-RHS fastmath row): the reference gather-multiply
//!   loop (diagonal divide) of every execution model. The block kernel
//!   keeps `R` right-hand sides in registers and runs each column's
//!   operations in the single-RHS order. Every `fastmath=off` path runs
//!   these, so results stay bit-identical across all execution models,
//!   lease widths and batch widths.
//! * **Fastmath kernels** — the blocked/unrolled implementations of a
//!   [`KernelPlan`] (see [`sptrsv_core::kernel`]): a packed dense
//!   triangular block solve, a lane-unrolled (4/8 accumulator) sparse row
//!   dot product, and a scalar kernel with precomputed diagonal
//!   reciprocals. Portable Rust only — multiple named accumulators the
//!   auto-vectorizer can keep in SIMD lanes, no nightly intrinsics.
//!
//! The fastmath kernels multiply by `1/L[i,i]` instead of dividing and
//! re-associate long accumulations, so their results differ from the
//! scalar reference in the last bits: solutions agree to a **`1e-12`
//! relative tolerance** (pinned by the `kernels` integration test), not
//! bit-identically. That is exactly the `fastmath=on|off` execution-policy
//! switch — `off` (the default) never touches this family.
//!
//! Every executor reaches these kernels through the crate's superstep
//! engine, whose single cell dispatch runs either the exact per-row loop
//! (no kernel plan) or the cell's planned op sequence. The engine's
//! `Numbering` says where each row reads its right-hand side and who
//! else receives its solution: every kernel reads a row's `b` values
//! before it writes any of them, and publishes each final value right
//! after storing it to the internal `x` — the same arithmetic in either
//! numbering.

use crate::barrier::Barrier;
use crate::engine::{check_lengths, run_cell, Identity, Natural, Numbering, One};
use sptrsv_core::kernel::{DenseBlock, KernelPlan, MAX_DENSE_BLOCK};
use sptrsv_sparse::CsrMatrix;

// ---------------------------------------------------------------------------
// Exact scalar kernels (the bit-identical `fastmath=off` family).
// ---------------------------------------------------------------------------

/// One row of a serial substitution sweep: returns `x[i]` given the row's
/// entries and the already-solved prefix of `x`. `diag_first` selects the
/// storage convention — `false` for lower-triangular rows (diagonal stored
/// last, forward substitution), `true` for upper-triangular rows (diagonal
/// stored first, backward substitution). The accumulation order matches the
/// historical open-coded loops exactly, so folding them here is
/// bit-preserving.
#[inline]
pub(crate) fn substitute_row(
    cols: &[usize],
    vals: &[f64],
    b_i: f64,
    x: &[f64],
    diag_first: bool,
) -> f64 {
    let mut acc = b_i;
    if diag_first {
        for (&c, &v) in cols[1..].iter().zip(&vals[1..]) {
            acc -= v * x[c];
        }
        acc / vals[0]
    } else {
        let k = cols.len() - 1;
        for (&c, &v) in cols[..k].iter().zip(&vals[..k]) {
            acc -= v * x[c];
        }
        acc / vals[k]
    }
}

/// Computes row `i` of the substitution through the shared pointer — the
/// exact scalar kernel of the threaded executors (identical operation
/// order to [`substitute_row`] with `diag_first = false`).
///
/// # Safety
/// Caller must guarantee the schedule-validity conditions of
/// [`crate::barrier`] (or the flag-ordering conditions of
/// [`crate::async_exec`]): exclusive write access to `x[i]` (and to row
/// `i`'s caller slot under `num`), and every parent `x[c]` ready (ordered
/// by barrier, done-flag or program order); `num` is checked for a solve
/// of `l`.
#[inline]
pub(crate) unsafe fn solve_row_raw<N: Numbering>(l: &CsrMatrix, i: usize, num: N, x: *mut f64) {
    let (cols, vals) = l.row(i);
    let k = cols.len() - 1;
    debug_assert_eq!(cols[k], i);
    // SAFETY: `i` is a row of the checked solve.
    let slot = unsafe { num.slot(i) };
    let mut acc = unsafe { num.b(slot, 0, 1) };
    for (&c, &v) in cols[..k].iter().zip(&vals[..k]) {
        // SAFETY: parent x[c] is ready per the caller contract.
        acc -= v * unsafe { *x.add(c) };
    }
    let xi = acc / vals[k];
    // SAFETY: exclusive writer of x[i] and of its caller slot.
    unsafe {
        *x.add(i) = xi;
        num.publish(slot, 0, xi);
    }
}

/// Computes right-hand sides `first..first + R` of row `i` through the
/// shared pointer, where the internal `x` holds `stride` values per row
/// (`(0, R)` for a batch of exactly `R`). The `R` values accumulate in
/// registers: the accumulators start from the row's `b` values, each
/// off-diagonal entry reads its parent's `R` values as one array, and the
/// finished row is stored as one array before each value is published.
/// `inv_diag` selects the finish: `None` divides by the diagonal (the
/// exact family), `Some` multiplies by the precomputed reciprocal (the
/// scalar fastmath row). Every column runs the operations of the
/// single-RHS kernel in the same order, so it is bit-identical to a solo
/// solve.
///
/// # Safety
/// Same contract as [`solve_row_raw`], for values `first..first + R` of
/// row `i`; `first + R <= stride`, the width `num` was checked for.
#[inline(always)]
pub(crate) unsafe fn solve_row_block<const R: usize, N: Numbering>(
    l: &CsrMatrix,
    i: usize,
    num: N,
    x: *mut f64,
    inv_diag: Option<&[f64]>,
    (first, stride): (usize, usize),
) {
    debug_assert!(first + R <= stride);
    let (cols, vals) = l.row(i);
    let k = cols.len() - 1;
    debug_assert_eq!(cols[k], i);
    // SAFETY: `i` is a row of the checked solve and `first + j < stride`.
    let slot = unsafe { num.slot(i) };
    let mut acc: [f64; R] = std::array::from_fn(|j| unsafe { num.b(slot, first + j, stride) });
    for (&c, &v) in cols[..k].iter().zip(&vals[..k]) {
        // SAFETY: parent row c is ready (caller contract) and the block
        // lies inside its `stride` values.
        let xc = unsafe { x.add(c * stride + first).cast::<[f64; R]>().read() };
        for (a, xc) in acc.iter_mut().zip(xc) {
            *a -= v * xc;
        }
    }
    match inv_diag {
        None => acc.iter_mut().for_each(|a| *a /= vals[k]),
        Some(inv_diag) => acc.iter_mut().for_each(|a| *a *= inv_diag[i]),
    }
    // SAFETY: exclusive writer of row i's block and of its caller slots.
    unsafe {
        x.add(i * stride + first).cast::<[f64; R]>().write(acc);
        for (j, &v) in acc.iter().enumerate() {
            num.publish(slot, first + j, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Fastmath kernels (the planned `fastmath=on` family).
// ---------------------------------------------------------------------------

/// Scalar fastmath row: the gather loop with a reciprocal multiply instead
/// of the diagonal divide.
///
/// # Safety
/// Same contract as [`solve_row_raw`].
#[inline]
pub(crate) unsafe fn solve_row_fast<N: Numbering>(
    l: &CsrMatrix,
    i: usize,
    num: N,
    x: *mut f64,
    inv_diag: &[f64],
) {
    // SAFETY: `i` is a row of `l` per the caller contract (the kernel plan
    // was detected for this matrix), so the unchecked row/b/inv_diag
    // accesses are in bounds.
    let (cols, vals) = unsafe { l.row_unchecked(i) };
    let k = cols.len() - 1;
    debug_assert_eq!(cols[k], i);
    let slot = unsafe { num.slot(i) };
    let mut acc = unsafe { num.b(slot, 0, 1) };
    for (&c, &v) in cols[..k].iter().zip(&vals[..k]) {
        // SAFETY: parent x[c] is ready per the caller contract.
        acc -= v * unsafe { *x.add(c) };
    }
    // SAFETY: exclusive writer of x[i] and of its caller slot.
    unsafe {
        let xi = acc * *inv_diag.get_unchecked(i);
        *x.add(i) = xi;
        num.publish(slot, 0, xi);
    }
}

/// Lane-unrolled fastmath row: `LANES` independent accumulators over the
/// off-diagonal entries (giving the auto-vectorizer/OoO core independent
/// chains), reduced pairwise, then a reciprocal multiply.
///
/// # Safety
/// Same contract as [`solve_row_raw`].
#[inline]
pub(crate) unsafe fn solve_row_unrolled<const LANES: usize, N: Numbering>(
    l: &CsrMatrix,
    i: usize,
    num: N,
    x: *mut f64,
    inv_diag: &[f64],
) {
    // SAFETY: `i` is a row of `l` per the caller contract.
    let (cols, vals) = unsafe { l.row_unchecked(i) };
    let k = cols.len() - 1;
    debug_assert_eq!(cols[k], i);
    let mut lane = [0.0f64; LANES];
    let main = k - (k % LANES);
    for (cchunk, vchunk) in cols[..main].chunks_exact(LANES).zip(vals[..main].chunks_exact(LANES)) {
        for (j, acc) in lane.iter_mut().enumerate() {
            // SAFETY: parent x[c] is ready per the caller contract.
            *acc += vchunk[j] * unsafe { *x.add(cchunk[j]) };
        }
    }
    let mut tail = 0.0;
    for (&c, &v) in cols[main..k].iter().zip(&vals[main..k]) {
        // SAFETY: as above.
        tail += v * unsafe { *x.add(c) };
    }
    // SAFETY: exclusive writer of x[i] and its caller slot; the row's `b`
    // and `inv_diag[i]` in bounds as in [`solve_row_fast`].
    unsafe {
        let slot = num.slot(i);
        let acc = num.b(slot, 0, 1) - (tree_sum(&lane) + tail);
        let xi = acc * *inv_diag.get_unchecked(i);
        *x.add(i) = xi;
        num.publish(slot, 0, xi);
    }
}

/// Pairwise (tree) reduction of the accumulator lanes — a fixed
/// association, so repeated fastmath solves stay deterministic.
#[inline]
fn tree_sum(lane: &[f64]) -> f64 {
    match lane.len() {
        1 => lane[0],
        2 => lane[0] + lane[1],
        n => tree_sum(&lane[..n / 2]) + tree_sum(&lane[n / 2..]),
    }
}

/// Packed dense triangular block solve: gathers each off-block column
/// once, runs the in-block forward substitution column-by-column on a
/// stack buffer, and stores the block's `x` values with reciprocal
/// multiplies.
///
/// # Safety
/// Caller must guarantee exclusive write access to all block rows of `x`
/// (and their caller slots under `num`), that every off-block parent
/// `x[c]` (`c ∈ blk.cols`) is ready, and that `num` is checked for the
/// solve the block belongs to.
pub(crate) unsafe fn solve_dense<N: Numbering>(
    blk: &DenseBlock,
    inv_diag: &[f64],
    num: N,
    x: *mut f64,
) {
    let r = blk.rows as usize;
    let first = blk.first as usize;
    debug_assert!(r <= MAX_DENSE_BLOCK);
    let mut acc = [0.0f64; MAX_DENSE_BLOCK];
    for (i, a) in acc[..r].iter_mut().enumerate() {
        // SAFETY: block rows are rows of the checked solve.
        *a = unsafe { num.b(num.slot(first + i), 0, 1) };
    }
    for (ci, &c) in blk.cols.iter().enumerate() {
        // SAFETY: off-block parent x[c] is ready per the caller contract;
        // the packed off panel is exactly `cols.len() * r` long.
        let xc = unsafe { *x.add(c as usize) };
        let col = unsafe { blk.off.get_unchecked(ci * r..ci * r + r) };
        for (a, &v) in acc[..r].iter_mut().zip(col) {
            *a -= v * xc;
        }
    }
    for j in 0..r {
        // SAFETY: exclusive writer of the block rows; all panel, `acc` and
        // `inv_diag` indices are bounded by the block's packed extents
        // (`j < r <= MAX_DENSE_BLOCK`, panels are `r * r` / validated rows).
        unsafe {
            let xj = *acc.get_unchecked(j) * *inv_diag.get_unchecked(first + j);
            *x.add(first + j) = xj;
            num.publish(num.slot(first + j), 0, xj);
            let col = blk.diag.get_unchecked(j * r + j + 1..j * r + r);
            for (a, &v) in acc.get_unchecked_mut(j + 1..r).iter_mut().zip(col) {
                *a -= v * xj;
            }
        }
    }
}

/// Packed dense block solve for `r` right-hand sides (row-major `n × r`
/// operands): one pass of [`solve_dense`]'s algorithm per right-hand side.
///
/// # Safety
/// Same contract as [`solve_dense`], for all `r` values of the block rows.
pub(crate) unsafe fn solve_dense_multi<N: Numbering>(
    blk: &DenseBlock,
    inv_diag: &[f64],
    num: N,
    x: *mut f64,
    r: usize,
) {
    let rows = blk.rows as usize;
    let first = blk.first as usize;
    debug_assert!(rows <= MAX_DENSE_BLOCK);
    for j in 0..r {
        let mut acc = [0.0f64; MAX_DENSE_BLOCK];
        for (i, a) in acc[..rows].iter_mut().enumerate() {
            // SAFETY: block rows are rows of the checked solve; `j < r`.
            *a = unsafe { num.b(num.slot(first + i), j, r) };
        }
        for (ci, &c) in blk.cols.iter().enumerate() {
            // SAFETY: off-block parent row c is ready per the caller
            // contract; the packed off panel is `cols.len() * rows` long.
            let xc = unsafe { *x.add(c as usize * r + j) };
            let col = unsafe { blk.off.get_unchecked(ci * rows..ci * rows + rows) };
            for (a, &v) in acc[..rows].iter_mut().zip(col) {
                *a -= v * xc;
            }
        }
        for jj in 0..rows {
            // SAFETY: exclusive writer of the block rows; panel, `acc` and
            // `inv_diag` indices bounded as in `solve_dense`.
            unsafe {
                let xj = *acc.get_unchecked(jj) * *inv_diag.get_unchecked(first + jj);
                *x.add((first + jj) * r + j) = xj;
                num.publish(num.slot(first + jj), j, xj);
                let col = blk.diag.get_unchecked(jj * rows + jj + 1..jj * rows + rows);
                for (a, &v) in acc.get_unchecked_mut(jj + 1..rows).iter_mut().zip(col) {
                    *a -= v * xj;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Safe entry point: the natural-order fastmath serial sweep.
// ---------------------------------------------------------------------------

/// Serial fastmath forward substitution: executes a natural-order kernel
/// plan ([`KernelPlan::detect_serial`]) over the whole matrix. This is the
/// single-threaded reference for the fastmath family — benchmarks compare
/// it against [`crate::serial::solve_lower_serial`] to isolate the kernel
/// win from threading effects.
///
/// # Panics
/// Panics if `plan` was not detected for `l`'s natural order (row-count
/// mismatch or a multi-cell plan).
pub fn solve_lower_serial_fast(l: &CsrMatrix, plan: &KernelPlan, b: &[f64], x: &mut [f64]) {
    let n = l.n_rows();
    assert_eq!(plan.n_rows(), n, "kernel plan does not match the matrix");
    assert_eq!(plan.n_cells(), 1, "kernel plan is not a natural-order serial plan");
    check_lengths(n, One, Identity(b), x);
    let ops = plan.cell_ops(0, 0);
    // SAFETY: lengths checked; single-threaded ascending sweep — every
    // dependency is program-ordered; x is exclusively borrowed. A serial
    // plan's single cell is the identity map: position p is row p.
    let (b, fast) = (Identity(b), Some((plan, ops)));
    unsafe { run_cell(l, b, x.as_mut_ptr(), One, Barrier, Natural(n), fast) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::solve_lower_serial;
    use sptrsv_sparse::gen::{
        block_diagonal_spd, grid2d_laplacian, grid3d_laplacian, supernodal_spd, Stencil2D,
        Stencil3D,
    };

    fn rel_tol(x: &[f64], reference: &[f64]) -> f64 {
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        x.iter().zip(reference).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max) / scale
    }

    #[test]
    fn fastmath_serial_matches_scalar_to_tolerance() {
        for l in [
            grid2d_laplacian(25, 19, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap(),
            grid2d_laplacian(25, 19, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap(),
            grid3d_laplacian(9, 9, 9, Stencil3D::TwentySevenPoint, 0.5).lower_triangle().unwrap(),
            block_diagonal_spd(40, 8, 0.5).lower_triangle().unwrap(),
            supernodal_spd(40, 8, 2, 0.5).lower_triangle().unwrap(),
        ] {
            let n = l.n_rows();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 11) % 17) as f64 * 0.25).collect();
            let mut reference = vec![0.0; n];
            solve_lower_serial(&l, &b, &mut reference);
            let plan = KernelPlan::detect_serial(&l);
            let mut x = vec![f64::NAN; n];
            solve_lower_serial_fast(&l, &plan, &b, &mut x);
            let tol = rel_tol(&x, &reference);
            assert!(tol < 1e-12, "fastmath deviated by {tol:.3e}");
        }
    }

    #[test]
    fn fastmath_is_deterministic_across_repeats() {
        let l = grid2d_laplacian(17, 17, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap();
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let plan = KernelPlan::detect_serial(&l);
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![1.0; n]; // dirty start
        solve_lower_serial_fast(&l, &plan, &b, &mut x1);
        solve_lower_serial_fast(&l, &plan, &b, &mut x2);
        assert_eq!(x1, x2, "fastmath solves must be bit-stable run to run");
    }

    #[test]
    #[should_panic(expected = "not a natural-order serial plan")]
    fn multi_cell_plan_rejected() {
        use sptrsv_core::{CompiledSchedule, Scheduler, WavefrontScheduler};
        let l = grid2d_laplacian(20, 20, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap();
        let dag = sptrsv_dag::SolveDag::from_lower_triangular(&l);
        let compiled = CompiledSchedule::from_schedule(&WavefrontScheduler.schedule(&dag, 2));
        let plan = KernelPlan::detect(&l, &compiled);
        let mut x = vec![f64::NAN; l.n_rows()];
        solve_lower_serial_fast(&l, &plan, &vec![1.0; l.n_rows()], &mut x);
    }

    #[test]
    fn unrolled_lanes_match_scalar_on_long_rows() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let l = sptrsv_sparse::gen::erdos_renyi_lower(300, 0.3, &mut rng);
        let n = l.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64 - 15.0).collect();
        let mut reference = vec![0.0; n];
        solve_lower_serial(&l, &b, &mut reference);
        let plan = KernelPlan::detect_serial(&l);
        assert!(plan.unrolled_rows() > 0, "dense random rows should plan unrolled");
        let mut x = vec![0.0; n];
        solve_lower_serial_fast(&l, &plan, &b, &mut x);
        assert!(rel_tol(&x, &reference) < 1e-12);
    }
}
