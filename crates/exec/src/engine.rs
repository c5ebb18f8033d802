//! The superstep engine: the one loop every executor runs.
//!
//! The paper's kernel (§6.1) walks each thread's `(superstep, core)` cells
//! and synchronizes between supersteps; SpMP's variant only swaps that
//! barrier for per-row ready flags. [`Engine::solve`] writes the loop once
//! — length checks, the serial sweep, the lease decision, thread
//! striding and the single [`KernelOp`] dispatch — monomorphised
//! over three axes:
//!
//! * the sync strategy ([`Hooks`]: the [`Barrier`] of [`crate::barrier`]
//!   or the done flags of [`crate::async_exec`]);
//! * the RHS shape ([`Rhs`]): the single-RHS [`One`] kernels, the
//!   register-blocked [`Many<R>`](Many) kernels for a compile-time width
//!   `R` (each row keeps its `R` values in `[f64; R]` accumulators, reads
//!   each parent's values as one array and stores its own once), and
//!   [`Blocked`] rows of several such blocks for wider solves, so every
//!   batch is one traversal.
//!   [`solve_width`] is the one place a runtime width picks its shape;
//! * the numbering ([`Numbering`]): [`Identity`] reads `b` and writes `x`
//!   in internal order, exactly as [`Executor::solve`](crate::Executor::solve)
//!   is called; [`UserNumbered`] fuses the plan's user↔internal permutation
//!   into the row kernels — each row reads its right-hand side from the
//!   caller's buffer at `old_of_new[i]` and, besides the internal `x` later
//!   rows read, stores its solution to the caller's slot `old_of_new[i]`.
//!   No solve runs a separate gather or scatter pass.
//!
//! The [`Executor`](crate::Executor) picks the strategy once per solve.
//! The strategies' safety arguments are the module docs of
//! [`crate::barrier`] and [`crate::async_exec`]; [`UserNumbered`] adds
//! one writer per caller slot, because the permutation is a bijection.

use crate::barrier::Barrier;
use crate::kernels::{
    solve_dense, solve_dense_multi, solve_row_block, solve_row_fast, solve_row_raw,
    solve_row_unrolled,
};
use crate::runtime::{CoreLease, RuntimeHandle};
use sptrsv_core::kernel::{DenseBlock, KernelOp, KernelPlan};
use sptrsv_core::registry::ExecPolicy;
use sptrsv_core::CompiledSchedule;
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Shared mutable pointer into one solve's operand (the internal solution,
/// or a caller-side column).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SharedPtr(*mut f64);
// SAFETY: the pointer is only dereferenced by the row kernels during the
// solve that built it, whose callers give every row (and, through a
// bijective permutation, every caller slot) one writer and order each read
// after its write (the strategy module docs); the engine's borrow of the
// operands outlives every thread.
unsafe impl Send for SharedPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedPtr {}

/// How many right-hand sides a row carries, and the row kernels for that
/// shape. Every method has the contract of [`solve_row_raw`] (or, for
/// `dense`, of [`solve_dense`]) for all values of the row.
pub(crate) trait Rhs: Copy + Send + Sync {
    /// Values per row (internal `x` is row-major `n × width`).
    fn width(self) -> usize;
    unsafe fn exact<N: Numbering>(self, l: &CsrMatrix, i: usize, num: N, x: *mut f64);
    /// The fastmath row: scalar for `lanes == 0`, else lane-unrolled.
    unsafe fn fast<N: Numbering>(
        self,
        l: &CsrMatrix,
        i: usize,
        num: N,
        x: *mut f64,
        inv: &[f64],
        lanes: u8,
    );
    unsafe fn dense<N: Numbering>(self, blk: &DenseBlock, inv: &[f64], num: N, x: *mut f64);
}

/// One right-hand side: the row accumulates in a register.
#[derive(Clone, Copy)]
pub(crate) struct One;

/// Exactly `R` right-hand sides, register-blocked: each row keeps its `R`
/// values in `[f64; R]` accumulators ([`solve_row_block`]). `Unrolled`
/// ops run the scalar fastmath row — the `R` columns already provide the
/// independent accumulation chains lane-unrolling exists to create.
#[derive(Clone, Copy)]
pub(crate) struct Many<const R: usize>;

/// The widest register block: [`solve_width`] solves up to this many
/// right-hand sides as one [`Many`] shape.
const MAX_BLOCK: usize = 8;

/// More than [`MAX_BLOCK`] right-hand sides: each row runs register blocks
/// of 8 columns, then one block of the remaining 1–8, all in one traversal.
#[derive(Clone, Copy)]
pub(crate) struct Blocked(pub(crate) usize);

impl Rhs for One {
    fn width(self) -> usize {
        1
    }
    #[inline]
    unsafe fn exact<N: Numbering>(self, l: &CsrMatrix, i: usize, num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_row_raw(l, i, num, x) }
    }
    #[inline]
    unsafe fn fast<N: Numbering>(
        self,
        l: &CsrMatrix,
        i: usize,
        num: N,
        x: *mut f64,
        inv: &[f64],
        lanes: u8,
    ) {
        // SAFETY: forwarded trait contract.
        unsafe {
            match lanes {
                0 => solve_row_fast(l, i, num, x, inv),
                1..8 => solve_row_unrolled::<4, N>(l, i, num, x, inv),
                _ => solve_row_unrolled::<8, N>(l, i, num, x, inv),
            }
        }
    }
    #[inline]
    unsafe fn dense<N: Numbering>(self, blk: &DenseBlock, inv: &[f64], num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_dense(blk, inv, num, x) }
    }
}

impl<const R: usize> Rhs for Many<R> {
    fn width(self) -> usize {
        R
    }
    #[inline]
    unsafe fn exact<N: Numbering>(self, l: &CsrMatrix, i: usize, num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract; the block is the whole row.
        unsafe { solve_row_block::<R, N>(l, i, num, x, None, (0, R)) }
    }
    #[inline]
    unsafe fn fast<N: Numbering>(
        self,
        l: &CsrMatrix,
        i: usize,
        num: N,
        x: *mut f64,
        inv: &[f64],
        _: u8,
    ) {
        // SAFETY: forwarded trait contract; the block is the whole row.
        unsafe { solve_row_block::<R, N>(l, i, num, x, Some(inv), (0, R)) }
    }
    #[inline]
    unsafe fn dense<N: Numbering>(self, blk: &DenseBlock, inv: &[f64], num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_dense_multi(blk, inv, num, x, R) }
    }
}

impl Blocked {
    /// Row `i` as consecutive column blocks covering all `r` values.
    ///
    /// # Safety
    /// The contract of [`Rhs::exact`] for all values of row `i`.
    #[inline(always)]
    unsafe fn row<N: Numbering>(
        self,
        l: &CsrMatrix,
        i: usize,
        num: N,
        x: *mut f64,
        inv: Option<&[f64]>,
    ) {
        let r = self.0;
        let mut first = 0;
        // SAFETY (every block): forwarded contract; the blocks tile `0..r`.
        while r - first > MAX_BLOCK {
            unsafe { solve_row_block::<MAX_BLOCK, N>(l, i, num, x, inv, (first, r)) };
            first += MAX_BLOCK;
        }
        let rest = (first, r);
        unsafe {
            match r - first {
                1 => solve_row_block::<1, N>(l, i, num, x, inv, rest),
                2 => solve_row_block::<2, N>(l, i, num, x, inv, rest),
                3 => solve_row_block::<3, N>(l, i, num, x, inv, rest),
                4 => solve_row_block::<4, N>(l, i, num, x, inv, rest),
                5 => solve_row_block::<5, N>(l, i, num, x, inv, rest),
                6 => solve_row_block::<6, N>(l, i, num, x, inv, rest),
                7 => solve_row_block::<7, N>(l, i, num, x, inv, rest),
                _ => solve_row_block::<MAX_BLOCK, N>(l, i, num, x, inv, rest),
            }
        }
    }
}

impl Rhs for Blocked {
    fn width(self) -> usize {
        self.0
    }
    #[inline]
    unsafe fn exact<N: Numbering>(self, l: &CsrMatrix, i: usize, num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { self.row(l, i, num, x, None) }
    }
    #[inline]
    unsafe fn fast<N: Numbering>(
        self,
        l: &CsrMatrix,
        i: usize,
        num: N,
        x: *mut f64,
        inv: &[f64],
        _: u8,
    ) {
        // SAFETY: forwarded trait contract.
        unsafe { self.row(l, i, num, x, Some(inv)) }
    }
    #[inline]
    unsafe fn dense<N: Numbering>(self, blk: &DenseBlock, inv: &[f64], num: N, x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_dense_multi(blk, inv, num, x, self.0) }
    }
}

/// A traversal of the rows that runs at every RHS shape: the engine
/// under a sync strategy, or the natural-order serial sweep.
pub(crate) trait Sweep: Copy {
    /// Solves `L X = B` at shape `rhs` (`x` row-major in internal order).
    fn run<R: Rhs, N: Numbering>(self, l: &CsrMatrix, num: N, x: &mut [f64], rhs: R);
}

impl<H: Hooks> Sweep for (&Engine, H) {
    fn run<R: Rhs, N: Numbering>(self, l: &CsrMatrix, num: N, x: &mut [f64], rhs: R) {
        self.0.solve(self.1, l, num, x, rhs);
    }
}

/// The natural-order serial sweep over all rows of `l` with the exact
/// kernels: the `@serial` model's multi-RHS and user-numbered solves.
#[derive(Clone, Copy)]
pub(crate) struct NaturalSweep;

impl Sweep for NaturalSweep {
    fn run<R: Rhs, N: Numbering>(self, l: &CsrMatrix, num: N, x: &mut [f64], rhs: R) {
        check_lengths(l.n_rows(), rhs, num, x);
        // SAFETY: lengths checked; single-threaded ascending sweep — every
        // dependency is program-ordered, and `x` is exclusively borrowed.
        unsafe { run_cell(l, num, x.as_mut_ptr(), rhs, Barrier, Natural(l.n_rows()), None) };
    }
}

/// Solves `r` right-hand sides through `sweep` at the monomorphised shape
/// for `r`: [`One`] for 1, [`Many`] for 2 to [`MAX_BLOCK`], and
/// [`Blocked`] rows beyond. Every multi-RHS solve picks its shape here.
/// Each width up to 8 has a shape of its own because a row split into
/// blocks (3 as 2 + 1, 7 as 4 + 2 + 1) costs nearly one more solve per
/// extra block on latency-bound operands, while one `R`-wide block costs
/// a fraction of one. Past 8 the blocks share one traversal: one
/// traversal per 8-column window measured slower on internal-numbering
/// and serial solves, which then read `L` once per window.
pub(crate) fn solve_width<N: Numbering>(
    sweep: impl Sweep,
    l: &CsrMatrix,
    num: N,
    x: &mut [f64],
    r: usize,
) {
    match r {
        1 => sweep.run(l, num, x, One),
        2 => sweep.run(l, num, x, Many::<2>),
        3 => sweep.run(l, num, x, Many::<3>),
        4 => sweep.run(l, num, x, Many::<4>),
        5 => sweep.run(l, num, x, Many::<5>),
        6 => sweep.run(l, num, x, Many::<6>),
        7 => sweep.run(l, num, x, Many::<7>),
        8 => sweep.run(l, num, x, Many::<8>),
        r => sweep.run(l, num, x, Blocked(r)),
    }
}

/// Where a row's right-hand side comes from, and who sees its solution
/// besides the internal `x` later rows read: the permutation axis. Row
/// kernels map internal row `i` to its caller-side `slot` once, read
/// `b(slot, j, r)` before any write of the row, and `publish` each final
/// value right after storing it to `x`.
pub(crate) trait Numbering: Copy + Send + Sync {
    /// Asserts the caller-side operands fit an `n`-row solve of `width`
    /// right-hand sides (the bounds every other method relies on).
    fn check(self, n: usize, width: usize);
    /// The caller-side slot of internal row `i`.
    ///
    /// # Safety
    /// `i` is a row of the checked solve.
    unsafe fn slot(self, i: usize) -> usize;
    /// Right-hand side `j` of the row at `slot` (`r` per row).
    ///
    /// # Safety
    /// `slot` comes from [`Numbering::slot`], `j < r`, `r` the checked width.
    unsafe fn b(self, slot: usize, j: usize, r: usize) -> f64;
    /// Hands the solved value `v` (right-hand side `j` of the row at
    /// `slot`) to the caller.
    ///
    /// # Safety
    /// As for [`Numbering::b`], and the caller is the row's one writer.
    unsafe fn publish(self, slot: usize, j: usize, v: f64);
}

/// Internal numbering: `b` is row-major `n × width` in the executor's own
/// order and the solution stays in `x`.
#[derive(Clone, Copy)]
pub(crate) struct Identity<'a>(pub(crate) &'a [f64]);

impl Numbering for Identity<'_> {
    fn check(self, n: usize, width: usize) {
        assert_eq!(self.0.len(), n * width, "right-hand side length");
    }
    #[inline(always)]
    unsafe fn slot(self, i: usize) -> usize {
        i
    }
    #[inline(always)]
    unsafe fn b(self, slot: usize, j: usize, r: usize) -> f64 {
        debug_assert!(slot * r + j < self.0.len());
        // SAFETY: `check` sized `b` to `n * r` and `slot < n`, `j < r`.
        unsafe { *self.0.get_unchecked(slot * r + j) }
    }
    #[inline(always)]
    unsafe fn publish(self, _: usize, _: usize, _: f64) {}
}

/// One caller-side operand in the user's numbering: value `j` of user row
/// `u` lives at `column(j) + u * stride`. Column 0 is held directly (the
/// only column a single-RHS solve touches); further columns come from a
/// caller-owned address table.
#[derive(Clone, Copy)]
struct UserSide {
    col0: *mut f64,
    /// Addresses of columns `0..width` (unused when `width == 1`).
    cols: *const SharedPtr,
    stride: usize,
}

impl UserSide {
    /// Address of value `j` of user row `u`.
    ///
    /// # Safety
    /// `u` and `j` lie inside the operand the side was built over.
    #[inline(always)]
    unsafe fn at(self, u: usize, j: usize) -> *mut f64 {
        // SAFETY: in bounds per the caller contract (the constructors in
        // `UserOperands` size every column to `rows` values at `stride`).
        unsafe {
            let col = if j == 0 { self.col0 } else { (*self.cols.add(j)).0 };
            col.add(u * self.stride)
        }
    }
}

/// The user numbering: the plan's `to_internal` permutation fused into the
/// row kernels. Row `i` reads `b[old_of_new[i]]` from the caller's buffer
/// and publishes `x_i` to the caller's slot `old_of_new[i]`.
#[derive(Clone, Copy)]
pub(crate) struct UserNumbered<'a> {
    old_of_new: &'a [usize],
    b: UserSide,
    x: UserSide,
    /// Rows of each caller-side operand.
    rows: usize,
    width: usize,
}

// SAFETY: the raw sides point into operands the solve borrows for its
// whole duration (`UserOperands` carries the borrow); reads and writes
// through them follow the one-writer argument of `publish`.
unsafe impl Send for UserNumbered<'_> {}
// SAFETY: as for `Send`.
unsafe impl Sync for UserNumbered<'_> {}

impl UserNumbered<'_> {
    /// Right-hand sides per row.
    pub(crate) fn width(self) -> usize {
        self.width
    }
}

impl Numbering for UserNumbered<'_> {
    fn check(self, n: usize, width: usize) {
        assert_eq!(self.old_of_new.len(), n, "permutation length");
        assert_eq!(self.rows, n, "right-hand side length");
        assert_eq!(self.width, width, "right-hand side count");
    }
    #[inline(always)]
    unsafe fn slot(self, i: usize) -> usize {
        debug_assert!(i < self.old_of_new.len());
        // SAFETY: `i < n == old_of_new.len()` (caller contract + `check`).
        unsafe { *self.old_of_new.get_unchecked(i) }
    }
    #[inline(always)]
    unsafe fn b(self, slot: usize, j: usize, _: usize) -> f64 {
        debug_assert!(slot < self.rows && j < self.width);
        // SAFETY: a permutation entry is `< n == rows`, and `j < width`.
        unsafe { *self.b.at(slot, j) }
    }
    #[inline(always)]
    unsafe fn publish(self, slot: usize, j: usize, v: f64) {
        // SAFETY: `to_internal` is a bijection, so each user slot is the
        // image of exactly one internal row and has one writer: the thread
        // solving that row. Nothing else reads the caller's `x` during the
        // solve — except in place, where `b` and `x` share the slot and
        // row `i` itself is its only reader, reading `b` before it writes.
        debug_assert!(slot < self.rows && j < self.width, "user slot out of range");
        unsafe { *self.x.at(slot, j) = v };
    }
}

/// The caller's side of a user-numbered solve: right-hand sides and
/// solutions in the user's numbering, plus the internal-order solution
/// buffer (`n × width`) later rows read. Built by
/// the [`SolvePlan`](crate::plan::SolvePlan) solve entry points, which
/// also own the buffers it borrows.
pub(crate) struct UserOperands<'a> {
    b: UserSide,
    x: UserSide,
    /// Rows of every caller-side operand.
    rows: usize,
    /// Right-hand sides per row.
    width: usize,
    internal: &'a mut [f64],
    /// The caller-side buffers `b` and `x` point into.
    user: PhantomData<&'a mut [f64]>,
}

impl<'a> UserOperands<'a> {
    /// One right-hand side `b`, solved into `x`.
    pub(crate) fn one(b: &'a [f64], x: &'a mut [f64], internal: &'a mut [f64]) -> Self {
        assert_eq!(b.len(), x.len(), "solution length");
        let side = |col0| UserSide { col0, cols: std::ptr::null(), stride: 1 };
        UserOperands {
            b: side(b.as_ptr().cast_mut()),
            x: side(x.as_mut_ptr()),
            rows: b.len(),
            width: 1,
            internal,
            user: PhantomData,
        }
    }

    /// Columns solved in place: on entry each `columns[j]` is a right-hand
    /// side, on exit its solution. `table` receives the column
    /// addresses. Row `i` is the only reader of its slot `old_of_new[i]`
    /// in every column and reads it before it writes it, so one buffer
    /// serves as both `b` and `x`.
    pub(crate) fn in_place(
        columns: &'a mut [Vec<f64>],
        internal: &'a mut [f64],
        table: &'a mut Vec<SharedPtr>,
    ) -> Self {
        assert!(!columns.is_empty(), "need at least one right-hand side");
        let rows = columns[0].len();
        for (j, column) in columns.iter().enumerate() {
            assert_eq!(column.len(), rows, "right-hand side {j} has the wrong length");
        }
        table.clear();
        table.extend(columns.iter_mut().map(|column| SharedPtr(column.as_mut_ptr())));
        let side = UserSide { col0: table[0].0, cols: table.as_ptr(), stride: 1 };
        UserOperands { b: side, x: side, rows, width: columns.len(), internal, user: PhantomData }
    }

    /// The numbering over these operands under `to_internal`, and the
    /// internal solution buffer.
    pub(crate) fn numbered<'p>(
        &mut self,
        to_internal: &'p Permutation,
    ) -> (UserNumbered<'p>, &mut [f64]) {
        let num = UserNumbered {
            old_of_new: to_internal.old_of_new(),
            b: self.b,
            x: self.x,
            rows: self.rows,
            width: self.width,
        };
        (num, &mut *self.internal)
    }
}

/// Checks the operand lengths of a solve with `rhs` right-hand sides.
pub(crate) fn check_lengths(n: usize, rhs: impl Rhs, num: impl Numbering, x: &[f64]) {
    assert!(rhs.width() > 0, "need at least one right-hand side");
    num.check(n, rhs.width());
    assert_eq!(x.len(), n * rhs.width(), "solution length");
}

/// How lease threads are synchronized during one solve: row hooks and
/// the lease driver. Per-solve state (the [`Flags`] generation) is taken
/// before the engine leases, so a solve never holds cores while it queues
/// for that state.
pub(crate) trait Hooks: Copy + Sync {
    /// Before row `i` (or each row of a dense block) is computed.
    fn before(&self, _i: usize) {}
    /// After row `i` (or the whole dense block) is written.
    fn after(&self, _i: usize) {}
    /// Runs `body(thread, width, steps)` on every lease thread until it
    /// has covered every superstep, synchronized so that each step's
    /// cross-core reads see the writes they depend on.
    fn drive(&self, lease: &mut CoreLease<'_>, engine: &Engine, body: &StepFn<'_>);
}

/// A lease thread's share of some supersteps: `(thread, width, steps)`.
pub(crate) type StepFn<'a> = dyn Fn(usize, usize, Range<usize>) + Sync + 'a;

/// Row positions of one cell: schedule cells map position `p` to the row
/// `cell[p]`; a natural-order serial plan's single cell maps `p` to `p`.
trait CellRows: Copy {
    /// Number of positions.
    fn len(self) -> usize;
    /// Rows at positions `start..start + len`.
    fn run(self, start: usize, len: usize) -> impl Iterator<Item = usize>;
}

impl CellRows for &[u32] {
    fn len(self) -> usize {
        <[u32]>::len(self)
    }
    #[inline]
    fn run(self, start: usize, len: usize) -> impl Iterator<Item = usize> {
        self[start..start + len].iter().map(|&i| i as usize)
    }
}

/// The natural-order cell of `n` rows (position `p` is row `p`).
#[derive(Clone, Copy)]
struct Natural(usize);

impl CellRows for Natural {
    fn len(self) -> usize {
        self.0
    }
    #[inline]
    fn run(self, start: usize, len: usize) -> impl Iterator<Item = usize> {
        start..start + len
    }
}

/// Executes one cell: the exact per-row loop when `fast` is `None`, or the
/// cell's planned op sequence (`fastmath=on`).
///
/// # Safety
/// For every row of the cell, the contract of [`Rhs::exact`] once `hooks`
/// has run `before` it, with `num` checked for this solve; when `fast` is
/// `Some`, the ops must stem from the same `KernelPlan` detection as
/// `rows` (op positions index into them).
#[inline]
unsafe fn run_cell<H: Hooks, R: Rhs, N: Numbering>(
    l: &CsrMatrix,
    num: N,
    x: *mut f64,
    rhs: R,
    hooks: H,
    rows: impl CellRows,
    fast: Option<(&KernelPlan, &[KernelOp])>,
) {
    let Some((plan, ops)) = fast else {
        for i in rows.run(0, rows.len()) {
            hooks.before(i);
            // SAFETY: forwarded caller contract.
            unsafe { rhs.exact(l, i, num, x) };
            hooks.after(i);
        }
        return;
    };
    let inv = plan.inv_diag();
    for op in ops {
        let (start, len, lanes) = match *op {
            KernelOp::Scalar { start, len } => (start, len, 0),
            KernelOp::Unrolled { start, len, lanes } => (start, len, lanes),
            KernelOp::Dense { block } => {
                let blk = &plan.blocks()[block as usize];
                blk.row_range().for_each(|i| hooks.before(i));
                // SAFETY: forwarded caller contract (a Dense op covers
                // consecutive rows of this cell, all awaited above).
                unsafe { rhs.dense(blk, inv, num, x) };
                blk.row_range().for_each(|i| hooks.after(i));
                continue;
            }
        };
        for i in rows.run(start as usize, len as usize) {
            hooks.before(i);
            // SAFETY: forwarded caller contract.
            unsafe { rhs.fast(l, i, num, x, inv, lanes) };
            hooks.after(i);
        }
    }
}

/// What an executor runs: the compiled cells, the optional fastmath kernel
/// plan, and where its threads come from.
pub(crate) struct Engine {
    pub(crate) compiled: Arc<CompiledSchedule>,
    /// `Some` only under `fastmath=on`; `None` keeps the bit-identical
    /// exact path.
    kernel: Option<Arc<KernelPlan>>,
    /// The runtime solves lease from; `None` always runs the serial sweep
    /// (the `@serial` model, which never leases).
    runtime: Option<RuntimeHandle>,
    pub(crate) policy: ExecPolicy,
}

impl Engine {
    /// An engine over an already-validated compiled schedule (the solve
    /// loop's safety rests on it) and a kernel plan detected from it.
    pub(crate) fn new(
        compiled: Arc<CompiledSchedule>,
        kernel: Option<Arc<KernelPlan>>,
        runtime: Option<RuntimeHandle>,
        policy: ExecPolicy,
    ) -> Engine {
        Engine { compiled, kernel, runtime, policy }
    }

    /// The kernel plan of `fastmath=on`, detected from `compiled`.
    pub(crate) fn kernel(&self) -> Option<&Arc<KernelPlan>> {
        self.kernel.as_ref()
    }

    /// The runtime solves lease from.
    pub(crate) fn runtime(&self) -> Option<&RuntimeHandle> {
        self.runtime.as_ref()
    }

    /// Solves `L X = B` (`rhs` right-hand sides; `x` row-major in internal
    /// order) synchronized by `sync`, striding the schedule's cores over
    /// the leased width (see [`crate::barrier`] for why every width gives
    /// the same bits). `num` says where `B` is read and who else receives
    /// each solved row.
    pub(crate) fn solve<H: Hooks, R: Rhs, N: Numbering>(
        &self,
        sync: H,
        l: &CsrMatrix,
        num: N,
        x: &mut [f64],
        rhs: R,
    ) {
        check_lengths(l.n_rows(), rhs, num, x);
        let (compiled, kernel) = (&*self.compiled, self.kernel.as_deref());
        let x = SharedPtr(x.as_mut_ptr());
        let all = 0..compiled.n_supersteps();
        // SAFETY: lengths checked, `x` borrowed for the whole solve, and the
        // serial sweep runs alone (width 1 needs no synchronization).
        let serial =
            || unsafe { run_steps(l, num, x, rhs, compiled, kernel, Barrier, (0, 1), all) };
        let n_cores = compiled.n_cores();
        let Some(runtime) = self.runtime.as_ref().filter(|_| n_cores > 1) else {
            return serial();
        };
        let mut lease = runtime.get().lease(n_cores);
        if lease.size() == 1 {
            // Fully contended runtime: the schedule-order serial sweep.
            return serial();
        }
        sync.drive(&mut lease, self, &|thread, width, steps| {
            // SAFETY: as above; `drive` runs each thread's steps in order,
            // synchronized by `sync`.
            unsafe { run_steps(l, num, x, rhs, compiled, kernel, sync, (thread, width), steps) }
        });
    }
}

/// Lease thread `thread`'s share of supersteps `steps` at lease width
/// `width`: schedule cores `thread, thread + width, …` of each step, in
/// ascending order. Width 1 is the serial sweep — supersteps outermost,
/// cores ascending: a topological order. Not inlined, so `l` and
/// `compiled` stay no-alias parameters and the row loop keeps the CSR
/// arrays in registers across the writes through `x`.
///
/// # Safety
/// `hooks` (together with how the caller sequences the steps) must order
/// every cross-thread dependency: a barrier between supersteps, or awaited
/// flags. Same-thread dependencies are program-ordered by the ascending
/// walk, and striding is a function of the schedule core, so each row has
/// exactly one writer — see the strategy module docs. `x` must point at
/// `l.n_rows() * rhs.width()` values the solve exclusively borrows, and
/// `num` must be checked for this solve. `num` is passed by value, like
/// the flag hooks, so its fields stay in registers.
#[allow(clippy::too_many_arguments)] // one solve's operands as parameters
#[inline(never)]
unsafe fn run_steps<H: Hooks, R: Rhs, N: Numbering>(
    l: &CsrMatrix,
    num: N,
    x: SharedPtr,
    rhs: R,
    compiled: &CompiledSchedule,
    kernel: Option<&KernelPlan>,
    hooks: H,
    (thread, width): (usize, usize),
    steps: Range<usize>,
) {
    let n_cores = compiled.n_cores();
    for step in steps {
        let mut core = thread;
        while core < n_cores {
            let rows = compiled.cell(step, core);
            let fast = kernel.map(|k| (k, k.cell_ops(step, core)));
            // SAFETY: forwarded caller contract; the kernel plan was
            // detected from this compiled schedule.
            unsafe { run_cell(l, num, x.0, rhs, hooks, rows, fast) };
            core += width;
        }
    }
}
