//! The superstep engine: the one loop every executor runs.
//!
//! The paper's kernel (§6.1) walks each thread's `(superstep, core)` cells
//! and synchronizes between supersteps; SpMP's variant only swaps that
//! barrier for per-row ready flags. [`Engine::solve`] writes the loop once
//! — length checks, the serial sweep, the lease and elastic decision,
//! thread striding and the single [`KernelOp`] dispatch — monomorphised
//! over the sync strategy ([`Hooks`]: [`Barrier`] or the done flags of
//! [`FlagSolve`]) and the RHS shape ([`Rhs`]: the register-accumulating
//! [`One`] kernels or the in-place [`Many`] kernels, kept apart because
//! their memory patterns differ). The strategies' safety arguments are the
//! module docs of [`crate::barrier`] and [`crate::async_exec`].

use crate::kernels::{
    solve_dense, solve_dense_multi, solve_row_fast, solve_row_multi_raw, solve_row_raw,
    solve_row_unrolled,
};
use crate::runtime::{backoff_wait, CoreLease, ElasticGrowth, RuntimeHandle};
use sptrsv_core::kernel::{DenseBlock, KernelOp, KernelPlan};
use sptrsv_core::registry::{Backoff, ExecPolicy};
use sptrsv_core::CompiledSchedule;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::CsrMatrix;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared mutable pointer to the solution vector.
#[derive(Clone, Copy)]
struct SharedX(*mut f64);
// SAFETY: the pointer is only dereferenced by `run_steps`, whose callers
// give every row one writer and order each read after its write (the
// strategy module docs); the engine's borrow of `x` outlives every thread.
unsafe impl Send for SharedX {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedX {}

/// How many right-hand sides a row carries, and the row kernels for that
/// shape. Every method has the contract of [`solve_row_raw`] (or, for
/// `dense`, of [`solve_dense`]) for all values of the row.
pub(crate) trait Rhs: Copy + Send + Sync {
    /// Values per row (`b` and `x` are row-major `n × width`).
    fn width(self) -> usize;
    unsafe fn exact(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64);
    /// The fastmath row: scalar for `lanes == 0`, else lane-unrolled.
    unsafe fn fast(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64, inv: &[f64], lanes: u8);
    unsafe fn dense(self, blk: &DenseBlock, inv: &[f64], b: &[f64], x: *mut f64);
}

/// One right-hand side: the row accumulates in a register.
#[derive(Clone, Copy)]
pub(crate) struct One;

/// `r` right-hand sides: rows accumulate in place in `x`. `Unrolled` ops
/// run the scalar fastmath row — the inner `r` loop already provides the
/// independent accumulation chains lane-unrolling exists to create.
#[derive(Clone, Copy)]
pub(crate) struct Many(pub(crate) usize);

impl Rhs for One {
    fn width(self) -> usize {
        1
    }
    #[inline]
    unsafe fn exact(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_row_raw(l, i, b, x) }
    }
    #[inline]
    unsafe fn fast(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64, inv: &[f64], lanes: u8) {
        // SAFETY: forwarded trait contract.
        unsafe {
            match lanes {
                0 => solve_row_fast(l, i, b, x, inv),
                1..8 => solve_row_unrolled::<4>(l, i, b, x, inv),
                _ => solve_row_unrolled::<8>(l, i, b, x, inv),
            }
        }
    }
    #[inline]
    unsafe fn dense(self, blk: &DenseBlock, inv: &[f64], b: &[f64], x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_dense(blk, inv, b, x) }
    }
}

impl Rhs for Many {
    fn width(self) -> usize {
        self.0
    }
    #[inline]
    unsafe fn exact(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_row_multi_raw(l, i, b, x, self.0, None) }
    }
    #[inline]
    unsafe fn fast(self, l: &CsrMatrix, i: usize, b: &[f64], x: *mut f64, inv: &[f64], _: u8) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_row_multi_raw(l, i, b, x, self.0, Some(inv)) }
    }
    #[inline]
    unsafe fn dense(self, blk: &DenseBlock, inv: &[f64], b: &[f64], x: *mut f64) {
        // SAFETY: forwarded trait contract.
        unsafe { solve_dense_multi(blk, inv, b, x, self.0) }
    }
}

/// Checks the operand lengths of a solve with `rhs` right-hand sides.
pub(crate) fn check_lengths(n: usize, rhs: impl Rhs, b: &[f64], x: &[f64]) {
    assert!(rhs.width() > 0, "need at least one right-hand side");
    assert_eq!(b.len(), n * rhs.width(), "right-hand side length");
    assert_eq!(x.len(), n * rhs.width(), "solution length");
}

/// How lease threads are synchronized during one solve: row hooks and
/// the lease driver. Per-solve state (the [`Flags`] generation) is taken
/// before the engine leases, so a solve never holds cores while it queues
/// for that state.
pub(crate) trait Hooks: Copy + Sync {
    /// Whether `elastic=on` may resize the lease between supersteps.
    const ELASTIC: bool;
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
type StepFn<'a> = dyn Fn(usize, usize, Range<usize>) + Sync + 'a;

/// Barrier synchronization between supersteps (see [`crate::barrier`]);
/// rows need no hooks. The serial sweep runs under it too.
#[derive(Clone, Copy)]
pub(crate) struct Barrier;

impl Hooks for Barrier {
    const ELASTIC: bool = true;

    fn drive(&self, lease: &mut CoreLease<'_>, engine: &Engine, body: &StepFn<'_>) {
        let (policy, compiled) = (engine.policy, &engine.compiled);
        let growth = policy.elastic.then_some(ElasticGrowth {
            grant: policy.grant,
            max_width: compiled.n_cores(),
            shrink: policy.shrink,
        });
        let one_step = |thread, width, step| body(thread, width, step..step + 1);
        lease.run_supersteps(policy.backoff, compiled.n_supersteps(), growth, &one_step);
    }
}

/// The executor-owned done-flag array: `flags[v] == generation` marks `v`
/// solved in the current solve. Reused across solves (allocation-free
/// steady state); the generation's mutex also serializes concurrent
/// solves on one shared executor.
pub(crate) struct DoneFlags {
    pub(crate) flags: Vec<AtomicU32>,
    pub(crate) generation: Mutex<u32>,
}

impl DoneFlags {
    pub(crate) fn new(n: usize) -> DoneFlags {
        DoneFlags { flags: (0..n).map(|_| AtomicU32::new(0)).collect(), generation: Mutex::new(0) }
    }

    /// Starts a new solve: bumps the generation so every flag reads
    /// "not done", zeroing the array only when the counter wraps. The
    /// returned guard holds the new generation for the whole solve; the
    /// lease's dispatch publishes the zeroing to the solve's threads.
    pub(crate) fn begin_solve(&self) -> MutexGuard<'_, u32> {
        let mut generation =
            self.generation.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        if *generation == 0 {
            for flag in &self.flags {
                flag.store(0, Ordering::Relaxed);
            }
            *generation = 1;
        }
        generation
    }
}

/// Point-to-point synchronization through per-row done flags (see
/// [`crate::async_exec`]). Never elastic: growing a lease mid-solve is only
/// safe with a barrier between supersteps.
pub(crate) struct Flags {
    /// For every vertex, the parents on *other* schedule cores that must
    /// be awaited (same-core dependencies are ordered by the cell walk).
    pub(crate) waits: Vec<Vec<u32>>,
    done: DoneFlags,
    backoff: Backoff,
    /// Raised by a panicking thread so siblings spinning on its flags
    /// unwind too (the runtime re-raises on the leaseholder).
    abort: AtomicBool,
}

impl Flags {
    /// Wait lists of `compiled` against `sync_dag` (the solve DAG or a
    /// reduction with the same reachability); waits spin under `backoff`.
    pub(crate) fn new(compiled: &CompiledSchedule, sync_dag: &SolveDag, backoff: Backoff) -> Flags {
        let n = compiled.n_vertices();
        assert_eq!(sync_dag.n(), n, "sync DAG size mismatch");
        let core_of = compiled.core_assignment();
        let waits = (0..n)
            .map(|v| {
                let cross = sync_dag.parents(v).iter().filter(|&&u| core_of[u] != core_of[v]);
                cross.map(|&u| u as u32).collect()
            })
            .collect();
        Flags { waits, done: DoneFlags::new(n), backoff, abort: AtomicBool::new(false) }
    }

    /// Starts one solve under a fresh generation; the returned guard
    /// serializes solves on this executor and must outlive the solve.
    pub(crate) fn begin(&self) -> (MutexGuard<'_, u32>, FlagSolve<'_>) {
        let turn = self.done.begin_solve();
        // Relaxed: the lease's job dispatch publishes it, as the zeroing.
        self.abort.store(false, Ordering::Relaxed);
        let solve = FlagSolve {
            waits: &self.waits,
            done: &self.done.flags,
            generation: *turn,
            backoff: self.backoff,
            abort: &self.abort,
        };
        (turn, solve)
    }
}

/// One solve under [`Flags`], passed by value so its fields stay in
/// registers across the flag spins.
#[derive(Clone, Copy)]
pub(crate) struct FlagSolve<'a> {
    waits: &'a [Vec<u32>],
    done: &'a [AtomicU32],
    generation: u32,
    backoff: Backoff,
    abort: &'a AtomicBool,
}

impl Hooks for FlagSolve<'_> {
    const ELASTIC: bool = false;

    /// Waits (under the policy's backoff) until every cross-core parent of
    /// `i` carries the solve's generation; panics if a sibling aborted.
    /// A dense block awaits all its rows first — deadlock-free, since a
    /// cross-core parent always lies in a strictly earlier superstep
    /// (Definition 2.1), so waits only point backwards in superstep order.
    #[inline]
    fn before(&self, i: usize) {
        for &u in &self.waits[i] {
            let mut spins = 0;
            while self.done[u as usize].load(Ordering::Acquire) != self.generation {
                if self.abort.load(Ordering::Relaxed) {
                    panic!("parallel solve aborted: a sibling core panicked");
                }
                backoff_wait(self.backoff, &mut spins);
            }
        }
    }

    #[inline]
    fn after(&self, i: usize) {
        self.done[i].store(self.generation, Ordering::Release);
    }

    fn drive(&self, lease: &mut CoreLease<'_>, engine: &Engine, body: &StepFn<'_>) {
        let (width, n_steps) = (lease.size(), engine.compiled.n_supersteps());
        lease.run(engine.policy.backoff, &|thread| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                body(thread, width, 0..n_steps);
            }));
            if let Err(panic) = result {
                self.abort.store(true, Ordering::Release);
                std::panic::resume_unwind(panic);
            }
        });
    }
}

/// Row positions of one cell: schedule cells map position `p` to the row
/// `cell[p]`; a natural-order serial plan's single cell maps `p` to `p`.
pub(crate) trait CellRows: Copy {
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
pub(crate) struct Natural(pub(crate) usize);

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
/// has run `before` it; when `fast` is `Some`, the ops must stem from the
/// same `KernelPlan` detection as `rows` (op positions index into them).
#[inline]
pub(crate) unsafe fn run_cell<H: Hooks, R: Rhs>(
    l: &CsrMatrix,
    b: &[f64],
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
            unsafe { rhs.exact(l, i, b, x) };
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
                unsafe { rhs.dense(blk, inv, b, x) };
                blk.row_range().for_each(|i| hooks.after(i));
                continue;
            }
        };
        for i in rows.run(start as usize, len as usize) {
            hooks.before(i);
            // SAFETY: forwarded caller contract.
            unsafe { rhs.fast(l, i, b, x, inv, lanes) };
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
    /// (the fastmath `@serial` model).
    runtime: Option<RuntimeHandle>,
    policy: ExecPolicy,
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

    /// Solves `L X = B` (`rhs` right-hand sides, row-major) synchronized by
    /// `sync`, striding the schedule's cores over the leased width (see
    /// [`crate::barrier`] for why every width gives the same bits).
    pub(crate) fn solve<H: Hooks, R: Rhs>(
        &self,
        sync: H,
        l: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        rhs: R,
    ) {
        check_lengths(l.n_rows(), rhs, b, x);
        let (compiled, kernel) = (&*self.compiled, self.kernel.as_deref());
        let x = SharedX(x.as_mut_ptr());
        let all = 0..compiled.n_supersteps();
        // SAFETY: lengths checked, `x` borrowed for the whole solve, and the
        // serial sweep runs alone (width 1 needs no synchronization).
        let serial = || unsafe { run_steps(l, b, x, rhs, compiled, kernel, Barrier, (0, 1), all) };
        let n_cores = compiled.n_cores();
        let Some(runtime) = self.runtime.as_ref().filter(|_| n_cores > 1) else {
            return serial();
        };
        let mut lease = runtime.get().lease_with(n_cores, self.policy.grant);
        if lease.size() == 1 && !(H::ELASTIC && self.policy.elastic) {
            // Fully contended runtime, fixed width: the schedule-order
            // serial sweep. An elastic solve runs the protocol instead, so
            // it can recover cores freed mid-solve.
            return serial();
        }
        sync.drive(&mut lease, self, &|thread, width, steps| {
            // SAFETY: as above; `drive` runs each thread's steps in order,
            // synchronized by `sync`.
            unsafe { run_steps(l, b, x, rhs, compiled, kernel, sync, (thread, width), steps) }
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
/// `l.n_rows() * rhs.width()` values the solve exclusively borrows.
#[allow(clippy::too_many_arguments)] // one solve's operands as parameters
#[inline(never)]
unsafe fn run_steps<H: Hooks, R: Rhs>(
    l: &CsrMatrix,
    b: &[f64],
    x: SharedX,
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
            unsafe { run_cell(l, b, x.0, rhs, hooks, rows, fast) };
            core += width;
        }
    }
}
